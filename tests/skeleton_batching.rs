//! The registry skeletons defer every call whose result they discard
//! (`recv_deferred`, `waitall_deferred`), and a rank thread ships its queue
//! in one handoff. Neither may change what a run shows: every registry app
//! at 16 ranks (and 64 in release builds), under the default and three
//! seeded match orders, with and without a seeded jitter/reorder fault
//! plan, must report the same times and engine counters, the same merged
//! trace and the same mpiP profile as the same app run with
//! `World::op_batching(false)`, where every call is its own handoff and a
//! `_deferred` call blocks at once. A crashed run must leave the same
//! partial trace either way.

mod common;

use common::{merged, Observer};
use miniapps::{registry, App, AppParams, Class};
use mpisim::engine::MatchPolicy;
use mpisim::faults::FaultPlan;
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::world::World;
use std::fmt::Write as _;

fn rank_counts() -> &'static [usize] {
    if cfg!(debug_assertions) {
        &[16]
    } else {
        &[16, 64]
    }
}

fn policies() -> [MatchPolicy; 4] {
    [
        MatchPolicy::default(),
        MatchPolicy::Seeded(1),
        MatchPolicy::Seeded(2),
        MatchPolicy::Seeded(3),
    ]
}

/// Every routine and call site of a profile, one line each.
fn profile_text(profile: &MpiP) -> String {
    let mut out = String::new();
    for (name, s) in profile.routines() {
        writeln!(out, "{name} {} {}", s.calls, s.bytes).unwrap();
    }
    for ((site, name), s) in profile.callsites() {
        writeln!(out, "{site} {name} {} {}", s.calls, s.bytes).unwrap();
    }
    out
}

/// What a run of `app` on `world` shows, rendered as text: the report (or
/// the error), the merged trace and the merged mpiP profile.
fn observe(app: &'static App, n: usize, world: World) -> [String; 3] {
    let params = AppParams::class(Class::S);
    let run = app.run;
    let (result, hooks) =
        world.run_hooked_partial(|r| Observer::new(r, n), move |ctx| run(ctx, &params));
    let report = match result {
        Ok(r) => format!("{} {:?} {:?}", r.total_time, r.per_rank_time, r.stats),
        Err(e) => format!("error: {e}"),
    };
    let (trace, profile) = merged(hooks);
    [
        report,
        scalatrace::text::to_text(&trace),
        profile_text(&profile),
    ]
}

/// Run `app` with batching on and off on the world `configure` builds,
/// and return what the batched run showed.
fn assert_batching_invisible(
    app: &'static App,
    n: usize,
    what: &str,
    configure: impl Fn(World) -> World,
) -> [String; 3] {
    let base = World::new(n).network(network::blue_gene_l());
    let batched = observe(app, n, configure(base.clone()));
    let unbatched = observe(app, n, configure(base.op_batching(false)));
    for (i, channel) in ["report", "trace", "mpiP profile"].iter().enumerate() {
        assert_eq!(
            batched[i], unbatched[i],
            "{}@{n} {what}: {channel} differs with op batching",
            app.name
        );
    }
    batched
}

fn cases() -> Vec<(&'static App, usize)> {
    registry::all()
        .iter()
        .flat_map(|app| rank_counts().iter().map(move |&n| (app, n)))
        .filter(|(app, n)| (app.valid_ranks)(*n))
        .collect()
}

#[test]
fn registry_runs_are_identical_without_op_batching() {
    for (app, n) in cases() {
        for policy in policies() {
            assert_batching_invisible(app, n, &format!("{policy:?}"), |w| w.match_policy(policy));
        }
    }
}

#[test]
fn registry_runs_are_identical_without_op_batching_under_faults() {
    for (app, n) in cases() {
        for (i, policy) in policies().into_iter().enumerate() {
            let plan = FaultPlan::seeded(11 + i as u64)
                .with_latency_jitter(0.5)
                .with_reorder();
            assert_batching_invisible(app, n, &format!("{policy:?} jitter+reorder"), |w| {
                w.match_policy(policy).faults(plan.clone())
            });
        }
    }
}

#[test]
fn crashed_registry_runs_leave_identical_partial_traces() {
    for (i, (app, n)) in cases().into_iter().enumerate() {
        // A different victim and crash point per case, so the partial
        // traces differ in shape as well as in length.
        let plan = FaultPlan::seeded(i as u64).crash_rank((3 * i + 1) % n, 2 + i as u64 % 8);
        let batched = assert_batching_invisible(app, n, "crash", |w| w.faults(plan.clone()));
        assert!(
            batched[0].starts_with("error: "),
            "{}@{n}: the crash plan must end the run early",
            app.name
        );
    }
}
