//! The three workloads and the loop that sets each up, times its passes,
//! checks its outputs and reports its metrics.
//!
//! Every workload is a closed loop from a single thread: one pass runs
//! the workload's apps one at a time, and the next pass starts when the
//! previous one has finished.

use crate::alloc;
use crate::cpu::{at_reference_speed, reference_parts, Calibrator, Clock, Times};
use crate::metrics::{layer_metrics, stage_exponent, Metric};
use crate::spans::{Ledger, Span, Spans};
use crate::stats::{median, quartiles};
use std::path::PathBuf;
use std::time::Instant;

mod campaign_s16;
mod generate_p256;
mod pipeline_s64;

use campaign_s16::Campaign;
use generate_p256::Generate;
use pipeline_s64::Pipeline;

/// The nine paper apps.
const PAPER_APPS: [&str; 9] = ["bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "sweep3d"];

/// How often set-up runs in one invocation; `setup_s` is the median.
const SETUP_REPS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// Full size, or the tiny smoke size the tests use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A few small apps on a few ranks.
    Tiny,
}

/// One invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed passes (at least one pass always runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Directory for the campaign caches and the span file.
    pub out_dir: PathBuf,
}

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["pipeline_s64", "generate_p256", "campaign_s16"];

/// What one invocation measured.
pub struct Report {
    /// Steps and checks attempted and failed.
    pub ledger: Ledger,
    /// End-to-end metrics (`trace` off) or per-layer metrics (`trace` on).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: named walls, per-app rows, failures.
    pub lines: Vec<String>,
}

/// What one timed pass produced.
#[derive(Default)]
struct Pass {
    time: Times,
    /// Calibration measured right after the pass, in CPU seconds.
    calib_s: f64,
    /// Peak live heap during the pass, set-up inputs included.
    heap_mb: f64,
    /// `(app, program text)` for each program the pass generated; only the
    /// last pass of a run keeps it.
    programs: Vec<(String, String)>,
    /// The workload's own named steps, e.g. `commgen_s`.
    parts: Vec<(&'static str, Times)>,
}

/// Output checks' results the end-to-end metrics need.
struct Checked {
    timing_mape_pct: f64,
    program_kb: f64,
}

trait Workload {
    /// Rank count of the workload's timed runs.
    fn ranks(&self) -> usize;
    /// Set-up before timing; runs [`SETUP_REPS`] times.
    fn setup(&mut self, ledger: &mut Ledger);
    /// One timed pass.
    fn pass(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Pass;
    /// Traced run only: single calls into layers the passes do not reach
    /// one by one. Returns metrics spans cannot give.
    fn probe(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Vec<Metric>;
    /// `(app, program text)` of the last pass, outside its timing.
    fn programs(&mut self, _ledger: &mut Ledger, last: &Pass) -> Vec<(String, String)> {
        last.programs.clone()
    }
    /// Output checks on the last pass.
    fn check(&mut self, sp: &mut Spans, ledger: &mut Ledger, last: &Pass) -> Checked;
}

/// Run one invocation.
pub fn run(cfg: &Config) -> Result<Report, String> {
    // Pin the analysis pool to one thread (never more than the host's
    // cores): at width 2 on a shared two-core host, cg's alignment at 256
    // ranks ran slower and far less steadily than at width 1.
    par::set_threads(1);
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let tiny = cfg.size == Size::Tiny;
    let (name, mut w): (&'static str, Box<dyn Workload>) = match cfg.workload.as_str() {
        "pipeline_s64" => ("pipeline_s64", Box::new(Pipeline::new(cfg.seed, tiny))),
        "generate_p256" => ("generate_p256", Box::new(Generate::new(cfg.seed, tiny))),
        "campaign_s16" => ("campaign_s16", Box::new(Campaign::new(cfg, tiny))),
        other => {
            return Err(format!(
                "unknown workload {other} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(drive(name, w.as_mut(), cfg))
}

fn drive(name: &'static str, w: &mut dyn Workload, cfg: &Config) -> Report {
    let mut ledger = Ledger::default();
    let mut sp = Spans::new(name, false);
    let mut lines = Vec::new();

    let mut calibrator = Calibrator::default();
    let mut setup = Vec::new();
    let mut setup_calib = Vec::new();
    for _ in 0..SETUP_REPS {
        let clock = Clock::start();
        w.setup(&mut ledger);
        setup.push(clock.read());
        setup_calib.push(calibrator.measure());
    }
    let setup_wall: Vec<f64> = setup.iter().map(|t| t.wall_s).collect();
    let setup_cpu: Vec<f64> = setup.iter().map(|t| t.cpu_s).collect();
    let setup_s = at_reference_speed(&setup, &setup_calib);
    lines.push(format!(
        "setup: wall {:.4} s, cpu {:.4} s, calibration {:.6} s (medians of {SETUP_REPS}); \
         cpu at reference speed: {}",
        median(&setup_wall),
        median(&setup_cpu),
        median(&setup_calib),
        describe_reference(&setup, &setup_calib),
    ));

    // The end-to-end passes (in the traced run, half the time goes to them
    // and half to the traced passes).
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let live_before = alloc::live_bytes();
    let plain = passes(w, &mut sp, &mut ledger, &mut calibrator, budget);
    lines.push(format!(
        "live heap before and after the passes: {:.2} -> {:.2} MiB",
        live_before as f64 / MIB,
        alloc::live_bytes() as f64 / MIB
    ));
    let pass_cpu_s = reference_cpu(&plain);
    let heaps: Vec<f64> = plain.iter().map(|p| p.heap_mb).collect();
    describe_passes(&mut lines, "pass", &plain);

    let metrics = if cfg.trace {
        let plain_programs = w.programs(&mut ledger, &plain[plain.len() - 1]);
        sp.set_on(true);
        let traced = passes(w, &mut sp, &mut ledger, &mut calibrator, budget);
        describe_passes(&mut lines, "traced pass", &traced);
        let last_traced = &traced[traced.len() - 1];
        let traced_programs = w.programs(&mut ledger, last_traced);
        ledger.check(
            "program text identical in end-to-end and traced passes",
            !plain_programs.is_empty() && plain_programs == traced_programs,
            || {
                format!(
                    "{} and {} programs, texts differ or none were generated",
                    plain_programs.len(),
                    traced_programs.len()
                )
            },
        );
        let probe_round = traced.len() + 1;
        sp.set_round(probe_round);
        let mut extra = w.probe(&mut sp, &mut ledger);
        w.check(&mut sp, &mut ledger, last_traced);
        extra.push(Metric::new(
            "trace_overhead_pct",
            (reference_cpu(&traced) - pass_cpu_s) / pass_cpu_s * 100.0,
            "%",
        ));
        let all: Vec<&Span> = sp.spans().iter().collect();
        extra.push(Metric::new(
            "benchgen.align_p_exp",
            stage_exponent(&all, "benchgen.align"),
            "exponent",
        ));
        extra.push(Metric::new(
            "benchgen.resolve_p_exp",
            stage_exponent(&all, "benchgen.wildcard"),
            "exponent",
        ));
        let main: Vec<&Span> = sp
            .spans()
            .iter()
            .filter(|s| s.ranks == w.ranks() || s.ranks == 0)
            .collect();
        let totals = layer_metrics(&main, &extra);
        app_rows(&mut lines, sp.spans());
        let path = cfg
            .out_dir
            .join(format!("spans-{name}-seed{}.jsonl", cfg.seed));
        if let Err(e) = sp.write_jsonl(&path) {
            lines.push(format!("cannot write {}: {e}", path.display()));
        } else {
            lines.push(format!("spans written to {}", path.display()));
        }
        totals
    } else {
        let last = &plain[plain.len() - 1];
        let checked = w.check(&mut sp, &mut ledger, last);
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("pass_cpu_s", pass_cpu_s, "s"),
            Metric::new("peak_heap_mb", median(&heaps), "MiB"),
            Metric::new("program_kb", checked.program_kb, "KiB"),
            Metric::new("timing_mape_pct", checked.timing_mape_pct, "%"),
        ]
    };
    lines.push(format!(
        "fail_frac {} ({} of {} steps and checks failed)",
        ledger.fail_frac(),
        ledger.failed,
        ledger.attempted
    ));
    for f in &ledger.failures {
        lines.push(format!("FAILED {f}"));
    }
    Report {
        ledger,
        metrics,
        lines,
    }
}

/// Median CPU seconds of a pass, at the reference host's speed.
fn reference_cpu(passes: &[Pass]) -> f64 {
    let times: Vec<Times> = passes.iter().map(|p| p.time).collect();
    let calib: Vec<f64> = passes.iter().map(|p| p.calib_s).collect();
    at_reference_speed(&times, &calib)
}

/// How a CPU time at the reference speed is made up.
fn describe_reference(times: &[Times], calib_s: &[f64]) -> String {
    let (user, scale, sys) = reference_parts(times, calib_s);
    format!(
        "user {user:.4} s x scale {scale:.4} + sys {sys:.4} s = {:.4} s (medians; raw user+sys {:.4} s)",
        user * scale + sys,
        user + sys
    )
}

/// Timed passes until `budget` seconds have gone by; at least one. The
/// host's speed is calibrated after each pass, outside its timing.
fn passes(
    w: &mut dyn Workload,
    sp: &mut Spans,
    ledger: &mut Ledger,
    calibrator: &mut Calibrator,
    budget: f64,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    loop {
        // Only the last pass's program text is kept: drop the previous
        // one's before this pass starts.
        if let Some(prev) = out.last_mut() {
            prev.programs = Vec::new();
        }
        sp.set_round(out.len() + 1);
        let id = sp.open("pass", "", 0);
        alloc::reset_peak();
        let clock = Clock::start();
        let mut pass = w.pass(sp, ledger);
        pass.time = clock.read();
        pass.heap_mb = alloc::peak_bytes() as f64 / MIB;
        sp.close(id, &[], false);
        pass.calib_s = calibrator.measure();
        out.push(pass);
        if start.elapsed().as_secs_f64() >= budget {
            return out;
        }
    }
}

fn describe_passes(lines: &mut Vec<String>, what: &str, passes: &[Pass]) {
    for (label, values) in [
        (
            "wall",
            passes.iter().map(|p| p.time.wall_s).collect::<Vec<_>>(),
        ),
        ("cpu", passes.iter().map(|p| p.time.cpu_s).collect()),
        ("sys", passes.iter().map(|p| p.time.sys_s).collect()),
        ("calibration", passes.iter().map(|p| p.calib_s).collect()),
    ] {
        let (q1, q3) = quartiles(&values);
        lines.push(format!(
            "{what}es: {} | {label} median {:.4} s, quartiles {:.4} .. {:.4} s",
            passes.len(),
            median(&values),
            q1,
            q3
        ));
    }
    let each: Vec<String> = passes
        .iter()
        .map(|p| {
            let t = p.time;
            format!("{:.4}+{:.4}", t.cpu_s - t.sys_s, t.sys_s)
        })
        .collect();
    lines.push(format!("  user+sys s of each {what}: {}", each.join(" ")));
    let times: Vec<Times> = passes.iter().map(|p| p.time).collect();
    let calib: Vec<f64> = passes.iter().map(|p| p.calib_s).collect();
    lines.push(format!(
        "  cpu at reference speed: {}",
        describe_reference(&times, &calib)
    ));
    if let Some(first) = passes.first() {
        for (i, (name, _)) in first.parts.iter().enumerate() {
            let (scale, unit) = if name.ends_with("_ms") {
                (1e3, "ms")
            } else {
                (1.0, "s")
            };
            let of = |f: fn(&Times) -> f64| {
                let v: Vec<f64> = passes.iter().map(|p| f(&p.parts[i].1) * scale).collect();
                median(&v)
            };
            lines.push(format!(
                "  {name}: wall {:.4} {unit}, cpu {:.4} {unit} (medians)",
                of(|t| t.wall_s),
                of(|t| t.cpu_s)
            ));
        }
    }
    let kb = passes.last().map_or(0.0, |p| kib(&p.programs));
    if kb > 0.0 {
        lines.push(format!("  program_kb {kb:.2} KiB"));
    }
}

/// Metrics of a whole run that no single app has.
const RUN_ONLY: [&str; 4] = [
    "trace_overhead_pct",
    "campaign.job_ms_p50",
    "campaign.queue_wait_ms_p50",
    "campaign.warm_hit_ratio",
];

/// One row per (app, rank count) with every per-layer metric an app has.
fn app_rows(lines: &mut Vec<String>, spans: &[Span]) {
    let mut keys: Vec<(usize, String)> = spans
        .iter()
        .filter(|s| !s.app.is_empty())
        .map(|s| (s.ranks, s.app.clone()))
        .collect();
    keys.sort();
    keys.dedup();
    for (ranks, app) in keys {
        let of_app: Vec<&Span> = spans.iter().filter(|s| s.app == app).collect();
        let extra = [
            Metric::new(
                "benchgen.align_p_exp",
                stage_exponent(&of_app, "benchgen.align"),
                "exponent",
            ),
            Metric::new(
                "benchgen.resolve_p_exp",
                stage_exponent(&of_app, "benchgen.wildcard"),
                "exponent",
            ),
        ];
        let here: Vec<&Span> = of_app.into_iter().filter(|s| s.ranks == ranks).collect();
        let cells: Vec<String> = layer_metrics(&here, &extra)
            .iter()
            .filter(|m| !RUN_ONLY.contains(&m.name.as_str()))
            .map(|m| format!("{}={:.4}", m.name, m.value))
            .collect();
        lines.push(format!("row app={app} ranks={ranks} {}", cells.join(" ")));
    }
}

fn kib(programs: &[(String, String)]) -> f64 {
    programs.iter().map(|(_, t)| t.len()).sum::<usize>() as f64 / 1024.0
}
