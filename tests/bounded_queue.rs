//! A rank that never makes a value-returning call still holds a bounded
//! queue: a rank thread ships and settles its deferred calls once
//! `MAX_DEFERRED` are queued, so at most one shipment's worth of ops and
//! pending hook events is ever held, in a plain run and in a streamed
//! capture alike.

use miniapps::{registry, AppParams, Class};
use mpisim::ctx::{Ctx, MAX_DEFERRED};
use mpisim::hooks::{Event, Hook};
use mpisim::network;
use mpisim::time::SimDuration;
use mpisim::types::{Src, TagSel};
use mpisim::world::World;
use scalatrace::stream::{trace_world_streamed, StreamConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const ROUNDS: usize = 10_000;

/// `ROUNDS` ring exchanges of irecv/isend/compute/`waitall_deferred`, with
/// no value-returning call, checking the queue after every call.
fn rounds(ctx: &mut Ctx) {
    let w = ctx.world();
    let right = (ctx.rank() + 1) % ctx.size();
    let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
    let check = |ctx: &Ctx| {
        assert!(
            ctx.deferred() < MAX_DEFERRED,
            "rank {} holds {} deferred ops",
            ctx.rank(),
            ctx.deferred()
        );
    };
    for _ in 0..ROUNDS {
        let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 64, &w);
        check(ctx);
        let s = ctx.isend(right, 0, 64, &w);
        check(ctx);
        ctx.compute(SimDuration::from_usecs(1));
        check(ctx);
        ctx.waitall_deferred(&[r, s]);
        check(ctx);
    }
}

/// Counts the events a rank's hook receives after its body returned: the
/// ops still queued at exit. `done[rank]` is set by the body's wrapper.
struct LateEvents {
    rank: usize,
    done: Arc<Vec<AtomicBool>>,
    events: usize,
    late: usize,
}

impl Hook for LateEvents {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
        if self.done[self.rank].load(Ordering::SeqCst) {
            self.late += 1;
        }
    }
}

/// Run `body` on `n` rank threads and assert that every rank was left
/// with fewer than `MAX_DEFERRED` events to deliver when its body returned.
fn assert_bounded_at_exit(n: usize, body: impl Fn(&mut Ctx) + Send + Sync + 'static) {
    let done: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
    let flags = Arc::clone(&done);
    let (_, hooks) = World::new(n)
        .network(network::blue_gene_l())
        .run_hooked(
            |rank| LateEvents {
                rank,
                done: Arc::clone(&done),
                events: 0,
                late: 0,
            },
            move |ctx| {
                body(ctx);
                flags[ctx.rank()].store(true, Ordering::SeqCst);
            },
        )
        .unwrap();
    for h in hooks {
        assert!(
            h.events > MAX_DEFERRED,
            "rank {} saw too few events",
            h.rank
        );
        assert!(
            h.late < MAX_DEFERRED,
            "rank {} still had {} events queued when its body returned",
            h.rank,
            h.late
        );
    }
}

#[test]
fn a_rank_thread_never_queues_max_deferred_ops() {
    assert_bounded_at_exit(4, rounds);
}

#[test]
fn a_streamed_capture_keeps_the_queue_and_the_tail_bounded() {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "commspec-bounded-queue-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StreamConfig::new(&dir, 64);
    let world = World::new(4).network(network::blue_gene_l());
    let streamed = trace_world_streamed(world, 4, &cfg, rounds).unwrap();
    assert!(streamed.run.completed(), "{:?}", streamed.run.error);
    for (rank, c) in streamed.counters.iter().enumerate() {
        assert_eq!(c.events, 3 * ROUNDS as u64, "rank {rank} event count");
        assert!(
            c.peak_resident <= cfg.budget(),
            "rank {rank}: peak {} > budget {}",
            c.peak_resident,
            cfg.budget()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_long_ft_run_ships_as_it_goes() {
    let ft = registry::lookup("ft").unwrap();
    let params = AppParams {
        iterations: Some(5_000),
        ..AppParams::class(Class::S)
    };
    let run = ft.run;
    assert_bounded_at_exit(4, move |ctx| run(ctx, &params));
}
