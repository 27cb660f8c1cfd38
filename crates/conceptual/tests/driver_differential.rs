//! The two drivers of a program's tasks must agree byte for byte: inline
//! in the engine (`run_program_hooked`) and one OS thread per task
//! (`run_rank` inside `World::run_hooked_partial`). Every registry app's
//! generated program runs at 16 tasks under seeded match orders and seeded
//! fault plans; times, engine counters, mpiP profiles (call sites
//! included), LOG records, the benchmark's own merged trace and error
//! values are compared. A golden fixture pins the figures of the
//! recursive interpreter the task machines replaced.

use benchgen::GenOptions;
use conceptual::ast::{Program, Stmt};
use conceptual::interp::{run_program_hooked, run_rank_logged, LogEntry, RunError};
use conceptual::parser::parse;
use miniapps::{registry, App, AppParams, Class};
use mpisim::ctx::SimAbort;
use mpisim::engine::MatchPolicy;
use mpisim::error::SimError;
use mpisim::hooks::{Event, Hook};
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::world::World;
use mpisim::FaultPlan;
use scalatrace::Tracer;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, Once};

const N: usize = 16;

/// An mpiP profiler and a trace collector in one hook.
struct Observer {
    profile: MpiP,
    tracer: Tracer,
}

impl Observer {
    fn new(rank: usize, n: usize) -> Observer {
        Observer {
            profile: MpiP::new(),
            tracer: Tracer::new(rank, n),
        }
    }
}

impl Hook for Observer {
    fn on_event(&mut self, event: &Event) {
        self.profile.on_event(event);
        self.tracer.on_event(event);
    }
}

/// Everything a run shows, rendered as text.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// The report, or the error value.
    result: String,
    logs: String,
    profile: String,
    trace: String,
}

fn observe(result: Result<String, String>, logs: Vec<LogEntry>, hooks: Vec<Observer>) -> Observed {
    let mut profile = String::new();
    let mut tracers = Vec::with_capacity(hooks.len());
    let mut merged = MpiP::new();
    for h in hooks {
        merged.merge(&h.profile);
        tracers.push(h.tracer);
    }
    for (name, s) in merged.routines() {
        writeln!(profile, "{name} {} {}", s.calls, s.bytes).unwrap();
    }
    for ((site, name), s) in merged.callsites() {
        writeln!(profile, "{site} {name} {} {}", s.calls, s.bytes).unwrap();
    }
    let trace = scalatrace::text::to_text(&scalatrace::merge::merge_tracers(tracers));
    Observed {
        result: result.unwrap_or_else(|e| e),
        logs: format!("{logs:?}"),
        profile,
        trace,
    }
}

fn inline(program: &Program, world: World) -> Observed {
    let n = world.size();
    let (result, hooks) = run_program_hooked(program, world, |r| Observer::new(r, n));
    let (result, logs) = match result {
        Ok(o) => (Ok(format!("{:?}", o.report)), o.logs),
        Err(RunError::Sim(e)) => (Err(format!("{e:?}")), Vec::new()),
        Err(e) => panic!("{e}"),
    };
    observe(result, logs, hooks)
}

fn threaded(program: &Program, world: World) -> Observed {
    let n = world.size();
    let logs = Arc::new(Mutex::new(Vec::new()));
    let (p, l) = (Arc::new(program.clone()), Arc::clone(&logs));
    let (result, hooks) = world.run_hooked_partial(
        |r| Observer::new(r, n),
        move |ctx| {
            let mut mine = run_rank_logged(ctx, &p);
            l.lock().unwrap().append(&mut mine);
        },
    );
    let mut logs = std::mem::take(&mut *logs.lock().unwrap());
    logs.sort_by(|a, b| (a.task, &a.label).cmp(&(b.task, &b.label)));
    let (result, logs) = match result {
        Ok(report) => (Ok(format!("{report:?}")), logs),
        Err(e) => (Err(format!("{e:?}")), Vec::new()),
    };
    observe(result, logs, hooks)
}

fn world() -> World {
    World::new(N).network(network::blue_gene_l())
}

/// The program `commgen` generates for `app` at 16 ranks, bracketed by a
/// counter reset and a LOG so the runs produce LOG records.
fn generated(app: &App) -> Program {
    let params = AppParams {
        class: Class::S,
        iterations: Some(2),
        compute_scale: 1.0,
    };
    let run = app.run;
    let traced = scalatrace::trace_world(
        world().match_policy(MatchPolicy::Seeded(1)),
        N,
        move |ctx| run(ctx, &params),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", app.name));
    benchgen::generate(&traced.trace, &GenOptions::default())
        .unwrap_or_else(|e| panic!("{}: {e}", app.name))
        .program
}

fn bracketed(mut program: Program) -> Program {
    program.stmts.insert(0, Stmt::ResetCounters);
    program.stmts.push(Stmt::Log {
        label: "program".into(),
    });
    program
}

/// Fault plans: latency jitter, wildcard reordering, a crash.
fn fault_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::seeded(7).with_latency_jitter(0.5),
        FaultPlan::seeded(8).with_reorder(),
        FaultPlan::seeded(9).crash_rank(5, 40),
    ]
}

#[test]
fn inline_and_threaded_drivers_agree_on_every_app() {
    for app in registry::all() {
        let program = bracketed(generated(app));
        let mut worlds: Vec<(String, World)> = (1..=3)
            .map(|s| {
                (
                    format!("seed {s}"),
                    world().match_policy(MatchPolicy::Seeded(s)),
                )
            })
            .collect();
        for plan in fault_plans() {
            worlds.push((format!("{plan:?}"), world().faults(plan)));
        }
        worlds.push(("op budget".into(), world().op_budget(50)));
        for (what, w) in worlds {
            let (a, b) = (inline(&program, w.clone()), threaded(&program, w));
            assert_eq!(a, b, "{}: {what}", app.name);
            if what == "op budget" {
                assert!(a.result.starts_with("BudgetExceeded"), "{}", a.result);
            }
        }
    }
}

#[test]
fn crash_yields_rank_failed_with_partial_hooks() {
    let program = generated(registry::lookup("lu").unwrap());
    let plan = FaultPlan::seeded(3).crash_rank(2, 30);
    let w = world().faults(plan);
    let (result, hooks) = run_program_hooked(&program, w.clone(), |_| MpiP::new());
    match result {
        Err(RunError::Sim(SimError::RankFailed { rank, blocked, .. })) => {
            assert_eq!(rank, 2);
            assert!(!blocked.is_empty(), "survivors wait on the dead rank");
        }
        other => panic!("expected RankFailed, got {other:?}"),
    }
    assert_eq!(hooks.len(), N);
    assert!(
        hooks[2].total_calls() > 0,
        "the crashed rank's partial profile"
    );
    assert_eq!(inline(&program, w.clone()), threaded(&program, w));
}

/// Per app: `total_time`, `EngineStats` and per-routine mpiP totals of the
/// generated program, recorded with the recursive interpreter. Call-site
/// keys are not pinned: they name source lines of the interpreter.
#[test]
fn matches_the_golden_figures_of_the_replaced_interpreter() {
    let mut out = String::new();
    for app in registry::all() {
        let program = generated(app);
        let w = world().match_policy(MatchPolicy::Seeded(1));
        let (result, hooks) = run_program_hooked(&program, w, |_| MpiP::new());
        let outcome = result.unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let s = &outcome.report.stats;
        writeln!(
            out,
            "{} total_ns={} operations={} messages={} unexpected_messages={} \
             flow_control_stalls={} collectives={} max_unexpected_bytes={}",
            app.name,
            outcome.total_time.as_nanos(),
            s.operations,
            s.messages,
            s.unexpected_messages,
            s.flow_control_stalls,
            s.collectives,
            s.max_unexpected_bytes
        )
        .unwrap();
        for (name, st) in MpiP::merge_all(hooks.iter()).routines() {
            writeln!(
                out,
                "{} {} calls={} bytes={}",
                app.name, name, st.calls, st.bytes
            )
            .unwrap();
        }
    }
    assert_eq!(out, include_str!("fixtures/driver_golden.txt"));
}

thread_local! {
    static ABORTS: Cell<usize> = const { Cell::new(0) };
}

/// Count, per thread, the `SimAbort` unwinds that end a rank when the
/// engine aborts a run. The counting hook goes on top of the world's own
/// quiet-abort hook, which is installed first by running a threaded world.
fn count_aborts() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        World::new(1).run(|_| {}).unwrap();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SimAbort>() {
                ABORTS.with(|a| a.set(a.get() + 1));
            }
            previous(info);
        }));
    });
}

fn aborts_here() -> usize {
    ABORTS.with(Cell::get)
}

/// Run `src` both ways on `n` tasks; both must fail with `expected`, and
/// no inline task may be unwound by the engine's abort.
fn both_fail_with(src: &str, n: usize, expected: SimError) {
    count_aborts();
    let program = parse(src).unwrap();
    let w = World::new(n).network(network::ideal());
    let before = aborts_here();
    let (result, hooks) = run_program_hooked(&program, w.clone(), |_| MpiP::new());
    assert_eq!(aborts_here(), before, "an inline task unwound");
    match result {
        Err(RunError::Sim(e)) => assert_eq!(e, expected),
        other => panic!("expected {expected:?}, got {other:?}"),
    }
    assert_eq!(hooks.len(), n);
    assert_eq!(inline(&program, w.clone()), threaded(&program, w));
}

#[test]
fn division_by_a_runtime_zero_is_a_rank_panic() {
    both_fail_with(
        "ALL TASKS t COMPUTE FOR 10 / (t - 3) MICROSECONDS\n",
        4,
        SimError::RankPanicked {
            rank: 3,
            message: "division by zero".into(),
        },
    );
}

#[test]
fn mod_by_a_runtime_zero_is_a_rank_panic() {
    both_fail_with(
        "ALL TASKS t COMPUTE FOR 10 MOD (t - 1) MICROSECONDS\n",
        4,
        SimError::RankPanicked {
            rank: 1,
            message: "MOD by zero".into(),
        },
    );
}

#[test]
fn collective_over_an_undeclared_subset_is_a_rank_panic() {
    // Task 3 roots a broadcast to {0}; no communicator covers {0, 3}. Task
    // 0 reaches the broadcast too, but reports its panic only after the
    // receive it queued first completes, so task 3 is the one reported.
    let src = "TASK 1 COMPUTE FOR 10 MICROSECONDS
TASK 1 SEND A 8 BYTE MESSAGE TO TASK 0
TASK 0 RECEIVE A 8 BYTE MESSAGE FROM TASK 1
TASK NUM_TASKS - 1 MULTICASTS A 8 BYTE MESSAGE TO TASKS t SUCH THAT t IS IN {0}
";
    both_fail_with(
        src,
        4,
        SimError::RankPanicked {
            rank: 3,
            message: "no communicator for task set [0, 3] (collective over an undeclared subset?)"
                .into(),
        },
    );
}

#[test]
fn engine_abort_stops_inline_ranks_without_unwinding() {
    count_aborts();
    let program = parse(
        "ALL TASKS t RECEIVE A 8 BYTE MESSAGE FROM TASK (t + 1) MOD NUM_TASKS
ALL TASKS t SEND A 8 BYTE MESSAGE TO TASK (t - 1) MOD NUM_TASKS
",
    )
    .unwrap();
    let before = aborts_here();
    let (result, hooks) = run_program_hooked(&program, World::new(4), |_| MpiP::new());
    assert_eq!(aborts_here(), before, "an inline task unwound");
    assert!(
        matches!(result, Err(RunError::Sim(SimError::Deadlock(ref blocked))) if blocked.len() == 4),
        "{result:?}"
    );
    assert_eq!(hooks.len(), 4);
    let w = World::new(4);
    assert_eq!(inline(&program, w.clone()), threaded(&program, w));
}

#[test]
fn compute_delays_reach_log_records_identically() {
    let program = parse(
        "ALL TASKS t COMPUTE FOR t * 10 MICROSECONDS
ALL TASKS RESET THEIR COUNTERS
ALL TASKS SYNCHRONIZE
ALL TASKS LOG \"sync\"
",
    )
    .unwrap();
    let w = World::new(4).network(network::ethernet_cluster());
    let a = inline(&program, w.clone());
    assert_eq!(a, threaded(&program, w));
    let (result, _) = run_program_hooked(&program, World::new(4), |_| MpiP::new());
    let logs = result.unwrap().logs;
    assert_eq!(logs.len(), 4);
    // Task 3 arrived last, so it waited least.
    assert!(logs[3].elapsed < logs[0].elapsed);
}
