//! One call into each layer's public API, each wrapped in its span. The
//! end-to-end run and the traced run go through these same functions; only
//! the recorder differs.

use crate::spans::{Ledger, Spans};
use benchgen::verify::{compare_profiles, expected_profile, profile_of_trace};
use benchgen::{GenOptions, GeneratedBenchmark};
use conceptual::ast::Program;
use conceptual::interp::{run_program_on, RunOutcome};
use miniapps::{registry, App, AppParams, Class};
use mpisim::engine::MatchPolicy;
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::time::SimDuration;
use mpisim::world::{RunReport, World};
use scalatrace::merge::merge_tracers;
use scalatrace::{Trace, Tracer};
use std::sync::Arc;

/// Relative byte tolerance of the E1 profile comparison for size-averaged
/// routines; the same value the campaign runner verifies with.
pub const E1_TOL: f64 = 0.02;

/// A simulated world of `n` ranks on the BG/L model, matching wildcard
/// receives by `seed`.
pub fn world(n: usize, seed: u64) -> World {
    World::new(n)
        .network(network::blue_gene_l())
        .match_policy(MatchPolicy::Seeded(seed))
}

/// Look up registry apps by name, checking each can run on `n` ranks.
pub fn apps(names: &[&str], n: usize) -> Result<Vec<&'static App>, String> {
    names
        .iter()
        .map(|name| {
            let app = registry::lookup(name).ok_or_else(|| format!("unknown app {name}"))?;
            if (app.valid_ranks)(n) {
                Ok(app)
            } else {
                Err(format!("{name} cannot run on {n} ranks"))
            }
        })
        .collect()
}

fn body(app: &App) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static {
    let run = app.run;
    let params = AppParams::class(Class::S);
    move |ctx| run(ctx, &params)
}

/// A traced application run, merged into one trace.
pub struct Captured {
    /// The merged global trace.
    pub trace: Trace,
    /// Report of the traced run (its virtual time is T_app).
    pub report: RunReport,
}

/// `mpisim`: the untraced application run.
pub fn run_app(sp: &mut Spans, app: &App, n: usize, seed: u64) -> Result<RunReport, String> {
    sp.time(
        "mpisim",
        app.name,
        n,
        || world(n, seed).run(body(app)).map_err(|e| e.to_string()),
        |r| vec![("ops", r.stats.operations)],
    )
}

/// `scalatrace.collect` then `scalatrace.merge`: the traced run, as
/// `commgen --app` performs it.
pub fn capture(sp: &mut Spans, app: &App, n: usize, seed: u64) -> Result<Captured, String> {
    let (report, tracers) = sp.time(
        "scalatrace.collect",
        app.name,
        n,
        || {
            world(n, seed)
                .run_hooked(move |r| Tracer::new(r, n), body(app))
                .map_err(|e| e.to_string())
        },
        |(r, tracers)| {
            vec![
                ("ops", r.stats.operations),
                ("events", tracers.iter().map(|t| t.events_seen).sum()),
            ]
        },
    )?;
    let nodes_in: u64 = tracers.iter().map(|t| t.nodes().len() as u64).sum();
    let trace = sp.time::<_, String>(
        "scalatrace.merge",
        app.name,
        n,
        || Ok(merge_tracers(tracers)),
        |t| vec![("nodes_in", nodes_in), ("nodes", t.node_count() as u64)],
    )?;
    Ok(Captured { trace, report })
}

/// `scalatrace.text`: decode a text trace, as `commgen --trace` does.
pub fn decode(sp: &mut Spans, app: &str, n: usize, text: &str) -> Result<Trace, String> {
    sp.time(
        "scalatrace.text",
        app,
        n,
        || scalatrace::text::from_text(text),
        |_| vec![("bytes", text.len() as u64)],
    )
}

/// `benchgen.generate`: the whole generator with default options.
pub fn generate(sp: &mut Spans, app: &str, trace: &Trace) -> Result<GeneratedBenchmark, String> {
    sp.time(
        "benchgen.generate",
        app,
        trace.nranks,
        || benchgen::generate(trace, &GenOptions::default()).map_err(|e| e.to_string()),
        |g| vec![("stmts", g.program.stmt_count() as u64)],
    )
}

/// `conceptual.printer`.
pub fn print(sp: &mut Spans, app: &str, n: usize, program: &Program) -> String {
    let text: Result<String, String> = sp.time(
        "conceptual.printer",
        app,
        n,
        || Ok(conceptual::printer::print(program)),
        |t| vec![("bytes", t.len() as u64)],
    );
    text.expect("printing cannot fail")
}

/// `conceptual.parser`.
pub fn parse(sp: &mut Spans, app: &str, n: usize, text: &str) -> Result<Program, String> {
    sp.time(
        "conceptual.parser",
        app,
        n,
        || conceptual::parser::parse(text),
        |_| vec![("bytes", text.len() as u64)],
    )
}

/// `conceptual.interp`: execute a generated program, as `commgen --run`
/// does.
pub fn exec(
    sp: &mut Spans,
    app: &str,
    n: usize,
    seed: u64,
    program: &Program,
) -> Result<RunOutcome, String> {
    sp.time(
        "conceptual.interp",
        app,
        n,
        || run_program_on(program, world(n, seed), n).map_err(|e| e.to_string()),
        |o| vec![("ops", o.report.stats.operations)],
    )
}

/// The generator's stages called one by one on `trace`, in the order and
/// under the pre-checks [`benchgen::generate`] applies: `benchgen.align`,
/// `benchgen.wildcard`, `benchgen.codegen`. Each span includes its O(r)
/// pre-check; its `events` count is non-zero only when the stage ran.
/// Checks that the statements come out as in `generated`, the program
/// [`benchgen::generate`] made from the same trace, so that these spans
/// time the path `generate` takes.
pub fn generator_stages(
    sp: &mut Spans,
    ledger: &mut Ledger,
    app: &str,
    trace: &Trace,
    generated: &Program,
) -> Result<(), String> {
    let n = trace.nranks;
    let aligned = sp.time(
        "benchgen.align",
        app,
        n,
        || {
            if trace.has_unaligned_collectives() {
                benchgen::align_collectives(trace).map(Some)
            } else {
                Ok(None)
            }
            .map_err(|e| e.to_string())
        },
        |a: &Option<Trace>| {
            let events = if a.is_some() {
                trace.concrete_event_count()
            } else {
                0
            };
            vec![("events", events)]
        },
    )?;
    let current = aligned.as_ref().unwrap_or(trace);
    let resolved = sp.time(
        "benchgen.wildcard",
        app,
        n,
        || {
            if current.has_wildcard_recv() {
                benchgen::resolve_wildcards(current).map(Some)
            } else {
                Ok(None)
            }
            .map_err(|e| e.to_string())
        },
        |w| match w {
            Some(w) => vec![
                ("events", current.concrete_event_count()),
                ("resolved", w.resolved as u64),
            ],
            None => vec![("events", 0), ("resolved", 0)],
        },
    )?;
    let current = resolved.as_ref().map_or(current, |w| &w.trace);
    let (program, _) = sp.time::<_, String>(
        "benchgen.codegen",
        app,
        n,
        || {
            Ok(benchgen::codegen::program_of_with(
                current,
                SimDuration::ZERO,
                false,
            ))
        },
        |(p, _)| vec![("stmts", p.stmt_count() as u64)],
    )?;
    ledger.check(
        &format!("{app}@{n}: generator stages one by one give generate's statements"),
        program.stmts == generated.stmts,
        || {
            format!(
                "{} statements one by one, {} from generate",
                program.stmts.len(),
                generated.stmts.len()
            )
        },
    );
    Ok(())
}

/// Experiment E1 for one app: run the generated program under mpiP hooks
/// and compare its profile with the Table-1 image of the trace's profile,
/// at the campaign runner's tolerance. The comparison is the
/// `benchgen.verify` span. Returns the program's virtual time.
pub fn e1(
    sp: &mut Spans,
    ledger: &mut Ledger,
    app: &str,
    seed: u64,
    trace: &Trace,
    program: &Program,
) -> Option<f64> {
    let n = trace.nranks;
    let prog = Arc::new(program.clone());
    let run = world(n, seed).run_hooked(
        |_| MpiP::new(),
        move |ctx| conceptual::interp::run_rank(ctx, &prog),
    );
    let (report, hooks) = ledger.step(&format!("{app}: E1 execution"), run)?;
    let errors: Result<Vec<String>, String> = sp.time(
        "benchgen.verify",
        app,
        n,
        || {
            let generated = MpiP::merge_all(hooks.iter());
            let expected = expected_profile(&profile_of_trace(trace), n);
            Ok(compare_profiles(&expected, &generated, E1_TOL))
        },
        |_| vec![],
    );
    let errors = errors.expect("profile comparison cannot fail");
    ledger.check(&format!("{app}: E1 profile"), errors.is_empty(), || {
        errors.join("; ")
    });
    Some(report.total_time.as_secs_f64())
}
