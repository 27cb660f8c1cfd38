//! Streaming-capture differential tests: bounded-memory capture through
//! `scalatrace::stream` must be *byte-identical* to the unbounded
//! in-memory path — same trace text, same binary encoding (timing
//! histograms included), same virtual times, same engine profile — under
//! any window budget, any fold window, seeded fault plans, and runs cut
//! short by an injected rank crash. A capture interrupted and then resumed
//! from its segments must match the run that was never interrupted, to
//! the same standard.

use mpisim::error::SimError;
use mpisim::faults::FaultPlan;
use mpisim::network;
use mpisim::time::SimDuration;
use mpisim::types::{Src, TagSel};
use mpisim::world::World;
use proptest::prelude::*;
use scalatrace::stream::{segment_name, trace_to_bytes};
use scalatrace::{
    fsck_dir, text, trace_world_resumed, trace_world_streamed, FoldStrategy, StreamConfig,
    StreamedRun, TailCompressor, Trace, Tracer,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "scalatrace-stream-diff-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Ring exchange + periodic sub-communicator allreduce + closing barrier:
/// point-to-point, collectives, and CommSplit all flow through the
/// streaming hook.
fn app(iters: usize, bytes: u64) -> impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static {
    move |ctx| {
        let w = ctx.world();
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        let half = ctx.comm_split(&w, (ctx.rank() % 2) as i64, ctx.rank() as i64);
        for i in 0..iters {
            let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), bytes, &w);
            let s = ctx.isend(right, 0, bytes, &w);
            ctx.compute(SimDuration::from_usecs(3));
            ctx.waitall(&[r, s]);
            if i % 3 == 0 {
                ctx.allreduce(64, &half);
            }
        }
        ctx.barrier(&w);
    }
}

/// The unbounded in-memory reference at an explicit fold window (the
/// streamed capture under test must use the same window, or the two
/// legitimately fold differently).
fn unbounded_reference(
    world: World,
    n: usize,
    window: usize,
    body: impl Fn(&mut mpisim::Ctx) + Send + Sync + 'static,
) -> (Result<mpisim::world::RunReport, SimError>, Trace) {
    let (result, tracers) = world.run_hooked_partial(
        move |r| {
            Tracer::with_compressor(
                r,
                n,
                TailCompressor::with_strategy(window, FoldStrategy::default()),
            )
        },
        body,
    );
    (result, scalatrace::merge::merge_tracers(tracers))
}

/// Delete each rank's newest segment: the on-disk state a SIGKILL leaves
/// when it lands after one seal and before the next.
fn drop_top_segments(dir: &Path, n: usize) {
    for rank in 0..n {
        let top = (0..)
            .take_while(|&i| dir.join(segment_name(rank, i)).exists())
            .last();
        if let Some(top) = top {
            std::fs::remove_file(dir.join(segment_name(rank, top))).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streamed capture == unbounded capture, for arbitrary budgets (0
    /// clamps to the smallest exact budget) and fold windows, under a
    /// seeded timing-perturbation plan.
    #[test]
    fn streamed_capture_is_differentially_identical(
        n in 2usize..5,
        iters in 1usize..8,
        bytes in 1u64..10_000,
        budget in 0usize..200,
        window in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let timing = FaultPlan::differential(seed, n);
        let (result, reference) = unbounded_reference(
            World::new(n).network(network::ethernet_cluster()).faults(timing.clone()),
            n,
            window,
            app(iters, bytes),
        );
        let report = result.expect("reference run completes");

        let dir = temp_dir("prop");
        let cfg = StreamConfig::new(&dir, budget).with_max_window(window);
        let streamed = trace_world_streamed(
            World::new(n).network(network::ethernet_cluster()).faults(timing),
            n,
            &cfg,
            app(iters, bytes),
        ).unwrap();

        // Byte-identical trace: the binary encoding compares the timing
        // histograms verbatim, the text comparison gives a readable diff
        // when something is off.
        prop_assert_eq!(text::to_text(&streamed.run.trace), text::to_text(&reference));
        prop_assert_eq!(trace_to_bytes(&streamed.run.trace), trace_to_bytes(&reference));

        // Identical virtual times and engine (mpiP-style) profile.
        let streamed_report = streamed.run.report.as_ref().expect("streamed run completes");
        prop_assert_eq!(streamed_report.total_time, report.total_time);
        prop_assert_eq!(&streamed_report.per_rank_time, &report.per_rank_time);
        prop_assert_eq!(&streamed_report.stats, &report.stats);

        // The capture held to its budget and lost nothing.
        prop_assert!(streamed.salvage.complete());
        for c in &streamed.counters {
            prop_assert_eq!(c.seal_errors, 0);
            prop_assert!(c.peak_resident <= cfg.budget(),
                "peak {} > budget {}", c.peak_resident, cfg.budget());
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run cut short by a seeded rank crash streams the same partial
    /// trace the unbounded path collects: crash-time capture is not
    /// allowed to drop or duplicate the tail the dying rank produced.
    #[test]
    fn crashed_run_streams_the_same_partial_trace(
        n in 2usize..5,
        iters in 2usize..8,
        bytes in 1u64..10_000,
        budget in 0usize..120,
        window in 1usize..8,
        seed in 0u64..1_000,
        victim in 0usize..5,
        after in 0u64..30,
    ) {
        let victim = victim % n;
        let timing = FaultPlan::differential(seed, n);
        let (result, reference) = unbounded_reference(
            World::new(n)
                .network(network::ethernet_cluster())
                .faults(timing.clone().crash_rank(victim, after)),
            n,
            window,
            app(iters, bytes),
        );
        if let Err(err) = &result {
            prop_assert!(matches!(err, SimError::RankFailed { .. }), "{}", err);
        }

        let dir = temp_dir("crash");
        let cfg = StreamConfig::new(&dir, budget).with_max_window(window);
        let streamed = trace_world_streamed(
            World::new(n)
                .network(network::ethernet_cluster())
                .faults(timing.crash_rank(victim, after)),
            n,
            &cfg,
            app(iters, bytes),
        ).unwrap();

        prop_assert_eq!(streamed.run.error.is_some(), result.is_err());
        prop_assert_eq!(text::to_text(&streamed.run.trace), text::to_text(&reference));
        prop_assert_eq!(trace_to_bytes(&streamed.run.trace), trace_to_bytes(&reference));
        prop_assert!(streamed.salvage.complete(),
            "every rank flushed its tail at crash teardown");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    /// interrupt -> resume == uninterrupted run, byte for byte: trace text
    /// and STBS bytes, virtual times, and engine profile, under seeded
    /// perturbation plans (jitter, skew, stragglers), arbitrary budgets,
    /// and fold windows. `cut` picks the interruption: 0 an injected rank
    /// crash (which may not fire in a short app), 1 the same crash plus
    /// the loss of every rank's top segment (a SIGKILL between two seals),
    /// 2 a run cut off by its op budget. Afterwards the directory holds one
    /// complete, clean capture.
    #[test]
    fn resume_after_interruption_is_differentially_identical(
        n in 2usize..5,
        iters in 1usize..8,
        bytes in 1u64..10_000,
        budget in 0usize..120,
        window in 1usize..5,
        seed in 0u64..1_000,
        victim in 0usize..5,
        after in 0u64..30,
        cut in 0usize..3,
    ) {
        let victim = victim % n;
        let timing = FaultPlan::differential(seed, n)
            .with_coll_straggle(SimDuration::from_usecs(seed % 50));
        let (result, reference) = unbounded_reference(
            World::new(n).network(network::ethernet_cluster()).faults(timing.clone()),
            n,
            window,
            app(iters, bytes),
        );
        let report = result.expect("reference run completes");

        let dir = temp_dir("resume");
        let cfg = StreamConfig::new(&dir, budget).with_max_window(window);
        let world = World::new(n).network(network::ethernet_cluster());
        let world = if cut == 2 {
            world.faults(timing.clone()).op_budget(after + 1)
        } else {
            world.faults(timing.clone().crash_rank(victim, after))
        };
        let interrupted = trace_world_streamed(world, n, &cfg, app(iters, bytes)).unwrap();
        if let Some(err) = &interrupted.run.error {
            prop_assert!(
                matches!(err, SimError::RankFailed { .. } | SimError::BudgetExceeded { .. }),
                "{}", err
            );
        }
        if cut == 1 {
            drop_top_segments(&dir, n);
        }

        // Resume under the same plan stripped of its crash triggers.
        let resumed = trace_world_resumed(
            World::new(n).network(network::ethernet_cluster()).faults(timing.without_crashes()),
            n,
            &cfg,
            app(iters, bytes),
        ).unwrap();
        prop_assert!(resumed.run.completed(), "resume must complete: {:?}", resumed.run.error);

        prop_assert_eq!(text::to_text(&resumed.run.trace), text::to_text(&reference));
        prop_assert_eq!(trace_to_bytes(&resumed.run.trace), trace_to_bytes(&reference));
        let resumed_report = resumed.run.report.as_ref().unwrap();
        prop_assert_eq!(resumed_report.total_time, report.total_time);
        prop_assert_eq!(&resumed_report.per_rank_time, &report.per_rank_time);
        prop_assert_eq!(&resumed_report.stats, &report.stats);

        // Resume held to its budget and left one complete, clean capture.
        for c in &resumed.counters {
            prop_assert_eq!(c.seal_errors, 0);
            prop_assert!(c.peak_resident <= cfg.budget(),
                "peak {} > budget {}", c.peak_resident, cfg.budget());
        }
        prop_assert!(resumed.salvage.complete());
        prop_assert_eq!(resumed.salvage.quarantined(), 0);
        let fsck = fsck_dir(&dir).unwrap();
        prop_assert!(fsck.clean(), "{:?}", fsck);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Capture `app(8, 512)` on 4 ranks under `world`, which interrupts it;
/// let `damage` edit the stream directory; resume; and assert the resumed
/// trace equals the uninterrupted one. Returns the names of the files
/// resume quarantined. The small fold window keeps the clamped budget
/// small, so every rank seals a multi-segment chain.
fn interrupt_damage_resume(world: World, damage: impl FnOnce(&Path, &StreamedRun)) -> Vec<String> {
    const N: usize = 4;
    let dir = temp_dir("example");
    let cfg = StreamConfig::new(&dir, 0).with_max_window(2);
    let interrupted = trace_world_streamed(world, N, &cfg, app(8, 512)).unwrap();
    assert!(!interrupted.run.completed());
    damage(&dir, &interrupted);
    let resumed = trace_world_resumed(World::new(N), N, &cfg, app(8, 512)).unwrap();
    assert!(resumed.run.completed(), "{:?}", resumed.run.error);
    assert_eq!(resumed.salvage.quarantined(), 0);
    let (_, reference) = unbounded_reference(World::new(N), N, 2, app(8, 512));
    assert_eq!(text::to_text(&resumed.run.trace), text::to_text(&reference));
    let quarantined = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|name| name.ends_with(".quarantined"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    quarantined
}

#[test]
fn budget_cutoff_is_resumable_like_a_crash() {
    let quarantined = interrupt_damage_resume(World::new(4).op_budget(40), |_, cut| {
        assert!(
            matches!(cut.run.error, Some(SimError::BudgetExceeded { .. })),
            "{:?}",
            cut.run.error
        );
    });
    assert!(quarantined.is_empty(), "{quarantined:?}");
}

#[test]
fn missing_rank_chain_restarts_that_rank_fresh() {
    // Lose one rank's whole chain: that rank re-records everything, the
    // others skip their sealed prefixes — the merge converges either way.
    let world = World::new(4).faults(FaultPlan::seeded(2).crash_rank(1, 12));
    let quarantined = interrupt_damage_resume(world, |dir, crashed| {
        for i in 0..crashed.salvage.ranks[2].segments {
            std::fs::remove_file(dir.join(segment_name(2, i))).unwrap();
        }
    });
    assert!(quarantined.is_empty(), "{quarantined:?}");
}

#[test]
fn bit_flipped_segment_is_quarantined_and_resume_still_converges() {
    // Flip one bit in the middle of rank 0's first segment: resume must
    // quarantine it rather than decode it (and the rest of that chain,
    // stranded beyond the gap), and re-record that rank.
    let world = World::new(4).faults(FaultPlan::seeded(5).crash_rank(3, 24));
    let quarantined = interrupt_damage_resume(world, |dir, crashed| {
        assert!(
            crashed.salvage.ranks[0].segments >= 2,
            "{}",
            crashed.salvage
        );
        let victim = dir.join(segment_name(0, 0));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
    });
    assert!(quarantined.contains(&format!("{}.quarantined", segment_name(0, 0))));
    assert!(
        quarantined.iter().all(|name| name.starts_with("rank0-")),
        "{quarantined:?}"
    );
}
