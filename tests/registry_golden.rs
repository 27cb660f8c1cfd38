//! Golden figures of every registry app's pipeline at 16 and 64 ranks
//! (class S, BG/L network): the traced application run, the benchmark
//! generated from its trace, and that benchmark's own run.
//!
//! Per app and rank count the fixture pins the FNV-1a of the generated
//! program text, of the application's merged mpiP profile and of its
//! merged trace text, the application's virtual run time and engine
//! counters, and the FNV-1a of the generated benchmark's mpiP profile and
//! its virtual run time. Stack signatures hash the call site's column, so
//! the trace is hashed with its signatures renumbered in order of first
//! appearance: moving a call within its line keeps the fixture.
//!
//! Regenerate after an intentional, documented change with:
//!
//! ```text
//! REGISTRY_GOLDEN_REGEN=1 cargo test --release --test registry_golden
//! ```

mod common;

use benchgen::{generate, GenOptions};
use campaign::hash::fnv1a;
use common::{merged, Observer};
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::world::World;
use std::collections::HashMap;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/registry_golden_v1.txt";
const RANKS: [usize; 2] = [16, 64];

/// `text` with every `sig=<hex>` replaced by the signature's index in
/// order of first appearance.
fn renumber_sigs(text: &str) -> String {
    let mut ids: HashMap<&str, usize> = HashMap::new();
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("sig=") {
        out.push_str(&rest[..i + 4]);
        rest = &rest[i + 4..];
        let end = rest
            .find(|c: char| !c.is_ascii_hexdigit())
            .unwrap_or(rest.len());
        let next = ids.len();
        write!(out, "{}", ids.entry(&rest[..end]).or_insert(next)).unwrap();
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The fixture line of `app` at `n` ranks.
fn golden_line(app: &'static App, n: usize) -> String {
    let params = AppParams::class(Class::S);
    let run = app.run;
    let (report, hooks) = World::new(n)
        .network(network::blue_gene_l())
        .run_hooked(|r| Observer::new(r, n), move |ctx| run(ctx, &params))
        .unwrap_or_else(|e| panic!("{}@{n} fails: {e}", app.name));
    let (trace, profile) = merged(hooks);
    let trace_text = scalatrace::text::to_text(&trace);
    let program = generate(&trace, &GenOptions::default())
        .unwrap_or_else(|e| panic!("{}@{n} does not generate: {e}", app.name))
        .program;
    let program_text = conceptual::printer::print(&program);
    let world = World::new(n).network(network::blue_gene_l());
    let (bench, bench_hooks) =
        conceptual::interp::run_program_hooked(&program, world, |_| MpiP::new());
    let bench = bench.unwrap_or_else(|e| panic!("{}@{n} benchmark fails: {e}", app.name));
    let bench_profile = MpiP::merge_all(bench_hooks.iter()).to_string();
    format!(
        "{} {n} prog={:016x} mpip={:016x} trace={:016x} t_ns={} stats={:?} \
         bench_mpip={:016x} bench_t_ns={}",
        app.name,
        fnv1a(program_text.as_bytes()),
        fnv1a(profile.to_string().as_bytes()),
        fnv1a(renumber_sigs(&trace_text).as_bytes()),
        report.total_time.as_nanos(),
        report.stats,
        fnv1a(bench_profile.as_bytes()),
        bench.total_time.as_nanos(),
    )
}

fn cases() -> Vec<(&'static App, usize)> {
    registry::all()
        .iter()
        .flat_map(|app| RANKS.iter().map(move |&n| (app, n)))
        .filter(|(app, n)| (app.valid_ranks)(*n))
        .collect()
}

#[test]
fn renumbering_keeps_structure_and_drops_values() {
    let a = "ev sig=ab ranks=0\n  ev sig=cd x\nev sig=ab\n";
    let b = "ev sig=12 ranks=0\n  ev sig=ff x\nev sig=12\n";
    assert_eq!(
        renumber_sigs(a),
        "ev sig=0 ranks=0\n  ev sig=1 x\nev sig=0\n"
    );
    assert_eq!(renumber_sigs(a), renumber_sigs(b));
    assert_ne!(renumber_sigs(a), renumber_sigs("ev sig=ab\nev sig=ab\n"));
}

#[test]
fn registry_artifacts_match_the_golden_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("REGISTRY_GOLDEN_REGEN").is_some() {
        let body: String = cases()
            .into_iter()
            .map(|(app, n)| golden_line(app, n) + "\n")
            .collect();
        std::fs::write(&path, body).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with REGISTRY_GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    let cases = cases();
    assert_eq!(
        pinned.lines().count(),
        cases.len(),
        "{FIXTURE}: wrong row count"
    );
    for ((app, n), want) in cases.into_iter().zip(pinned.lines()) {
        assert_eq!(
            golden_line(app, n),
            want,
            "{}@{n}: pipeline artifacts changed",
            app.name
        );
    }
}
