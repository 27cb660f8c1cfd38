//! `World`: configures and launches a simulated run.

use crate::comm::Comm;
use crate::ctx::{Ctx, SimAbort};
use crate::driver::{panic_message, Driver, Inline, RankMachine, Threads};
use crate::engine::{Engine, EngineStats, MatchPolicy, Reply, Request};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::hooks::Hook;
use crate::network::{self, NetworkModel};
use crate::time::SimTime;
use crate::types::Rank;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Once};

/// Outcome of a successful run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// World size of the run.
    pub ranks: usize,
    /// Virtual time at which the last rank finished — the simulated
    /// application wall-clock time.
    pub total_time: SimTime,
    /// Final virtual clock of each rank.
    pub per_rank_time: Vec<SimTime>,
    /// Engine counters (messages, stalls, collectives, …).
    pub stats: EngineStats,
    /// Name of the network model the run used.
    pub network: String,
}

/// Builder for a simulated MPI job.
///
/// ```
/// use mpisim::{network, world::World};
/// let report = World::new(2)
///     .network(network::ideal())
///     .run(|ctx| { ctx.barrier(&ctx.world()); })
///     .unwrap();
/// assert_eq!(report.ranks, 2);
/// ```
#[derive(Clone)]
pub struct World {
    n: usize,
    model: Arc<dyn NetworkModel>,
    policy: MatchPolicy,
    faults: Option<FaultPlan>,
    op_budget: Option<u64>,
    time_budget: Option<SimTime>,
    op_batching: bool,
}

impl World {
    /// A world of `n` ranks on the ideal (zero-cost) network.
    pub fn new(n: usize) -> World {
        assert!(n > 0, "world needs at least one rank");
        World {
            n,
            model: network::ideal(),
            policy: MatchPolicy::default(),
            faults: None,
            op_budget: None,
            time_budget: None,
            op_batching: true,
        }
    }

    /// The number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Select the network timing model.
    pub fn network(mut self, model: Arc<dyn NetworkModel>) -> World {
        self.model = model;
        self
    }

    /// Select the wildcard-receive matching policy (see
    /// [`MatchPolicy`]).
    pub fn match_policy(mut self, policy: MatchPolicy) -> World {
        self.policy = policy;
        self
    }

    /// Inject a fault plan. It is validated against the world size before
    /// any rank is spawned; an invalid plan fails the run with
    /// [`SimError::InvalidFaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> World {
        self.faults = Some(plan);
        self
    }

    /// Cut the run off deterministically after `ops` MPI-level operations
    /// ([`SimError::BudgetExceeded`]); the virtual-time analogue of a
    /// watchdog for livelocked runs.
    pub fn op_budget(mut self, ops: u64) -> World {
        self.op_budget = Some(ops);
        self
    }

    /// Cut the run off deterministically once any rank's virtual clock
    /// passes `deadline` ([`SimError::BudgetExceeded`]).
    pub fn time_budget(mut self, deadline: SimTime) -> World {
        self.time_budget = Some(deadline);
        self
    }

    /// Enable or disable client-side op batching (on by default). When on,
    /// every call whose reply the rank cannot observe — nonblocking ops,
    /// computes, blocking sends, void collectives, and the `_deferred`
    /// calls — is queued and shipped to the engine as one batch at the
    /// next value-returning call, at rank exit, or once
    /// [`crate::ctx::MAX_DEFERRED`] ops are queued; the batch's replies
    /// come back as one message. When off, every call is its own shipment
    /// and a `_deferred` call blocks at once. Virtual times, schedules,
    /// hook events, and reports are identical either way; only host-side
    /// synchronisation overhead changes.
    pub fn op_batching(mut self, enabled: bool) -> World {
        self.op_batching = enabled;
        self
    }

    /// Run `body` on every rank, each rank on its own OS thread, without
    /// interposition hooks. A rank thread hands the engine a shipment of
    /// queued calls (see [`World::op_batching`]) and gets all of its
    /// replies back in one message, so a run costs one host handoff each
    /// way per shipment, not per call.
    pub fn run<F>(self, body: F) -> Result<RunReport, SimError>
    where
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        let (result, _hooks) = self.launch(|_| None::<Box<dyn Hook>>, body);
        result
    }

    /// Run `body` with a per-rank interposition [`Hook`] created by `mk`,
    /// returning the hooks afterwards (e.g. per-rank trace collectors).
    pub fn run_hooked<H, MK, F>(self, mk: MK, body: F) -> Result<(RunReport, Vec<H>), SimError>
    where
        H: Hook + 'static,
        MK: FnMut(Rank) -> H,
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        let (result, hooks) = self.run_hooked_partial(mk, body);
        result.map(|report| (report, hooks))
    }

    /// As [`World::run_hooked`], but the hooks are returned even when the
    /// run fails — the basis of partial tracing: when a fault plan crashes a
    /// rank ([`SimError::RankFailed`]), every rank's hook still holds what
    /// it observed up to the failure.
    pub fn run_hooked_partial<H, MK, F>(
        self,
        mk: MK,
        body: F,
    ) -> (Result<RunReport, SimError>, Vec<H>)
    where
        H: Hook + 'static,
        MK: FnMut(Rank) -> H,
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        let mut mk = mk;
        let (result, hooks) = self.launch(|r| Some(Box::new(mk(r)) as Box<dyn Hook>), body);
        (result, downcast_hooks(hooks))
    }

    /// Run one resumable [`RankMachine`] per rank, `machines[r]` on rank
    /// `r`, inline on the calling thread: no rank threads, no channels.
    /// Virtual times, schedules and reports are those of the same ranks
    /// run as threads. Returns the machines afterwards, also when the run
    /// fails. Inline ranks always batch ([`World::op_batching`] does not
    /// apply).
    pub fn run_machines<M: RankMachine>(
        self,
        machines: Vec<M>,
    ) -> (Result<RunReport, SimError>, Vec<M>) {
        let (result, _hooks, machines) = self.launch_inline(|_| None, machines);
        (result, machines)
    }

    /// As [`World::run_machines`], with a per-rank interposition [`Hook`]
    /// created by `mk`. The hooks come back even when the run fails, as
    /// with [`World::run_hooked_partial`].
    pub fn run_machines_hooked<M, H, MK>(
        self,
        mut mk: MK,
        machines: Vec<M>,
    ) -> (Result<RunReport, SimError>, Vec<H>, Vec<M>)
    where
        M: RankMachine,
        H: Hook + 'static,
        MK: FnMut(Rank) -> H,
    {
        let (result, hooks, machines) =
            self.launch_inline(|r| Some(Box::new(mk(r)) as Box<dyn Hook>), machines);
        (result, downcast_hooks(hooks), machines)
    }

    /// Validate the fault plan and build the network model the run uses.
    fn prepare(&self) -> Result<Prepared, SimError> {
        let plan = match &self.faults {
            Some(p) => match p.validate(self.n) {
                Ok(()) => Some(Arc::new(p.clone())),
                Err(e) => return Err(SimError::InvalidFaultPlan(e.to_string())),
            },
            None => None,
        };
        // Per-link skew lives in a pure network decorator, keeping
        // `NetworkModel` implementations stateless.
        let model = match &plan {
            Some(p) if p.link_skew > 0.0 => {
                network::skewed(Arc::clone(&self.model), p.seed, p.link_skew)
            }
            _ => Arc::clone(&self.model),
        };
        Ok((plan, model))
    }

    /// Build the engine over `driver`, run it, and report.
    fn simulate<D: Driver>(
        &self,
        plan: Option<Arc<FaultPlan>>,
        model: Arc<dyn NetworkModel>,
        driver: D,
    ) -> (Result<RunReport, SimError>, D) {
        let mut engine = Engine::new(self.n, Arc::clone(&model), self.policy, driver);
        if let Some(p) = plan {
            engine.set_faults(p);
        }
        engine.set_budgets(self.op_budget, self.time_budget);
        let result = engine.run().map(|()| RunReport {
            ranks: self.n,
            total_time: engine.max_clock(),
            per_rank_time: engine.clocks().to_vec(),
            stats: engine.stats.clone(),
            network: model.name().to_string(),
        });
        (result, engine.driver)
    }

    fn launch_inline<M: RankMachine>(
        self,
        mut mk: impl FnMut(Rank) -> Option<Box<dyn Hook>>,
        machines: Vec<M>,
    ) -> InlineRun<M> {
        let n = self.n;
        assert_eq!(machines.len(), n, "one rank machine per rank");
        let (plan, model) = match self.prepare() {
            Ok(p) => p,
            Err(e) => return (Err(e), Vec::new(), machines),
        };
        let world = Comm::world(0, n);
        let ranks = machines.into_iter().enumerate().map(|(rank, m)| {
            let world = Comm {
                rank,
                ..world.clone()
            };
            (Ctx::inline(world, mk(rank)), m)
        });
        let (result, driver) = self.simulate(plan, model, Inline::new(ranks));
        let mut hooks = Vec::new();
        let mut machines = Vec::with_capacity(n);
        for mut rank in driver.ranks {
            // Replies the engine sent but the rank never consumed (its run
            // ended, or the whole run did) still produce their events.
            rank.ctx.settle_teardown();
            hooks.extend(rank.ctx.take_hook());
            machines.push(rank.machine);
        }
        (result, hooks, machines)
    }

    fn launch<F>(
        self,
        mut mk: impl FnMut(Rank) -> Option<Box<dyn Hook>>,
        body: F,
    ) -> (Result<RunReport, SimError>, Vec<Box<dyn Hook>>)
    where
        F: Fn(&mut Ctx) + Send + Sync + 'static,
    {
        install_quiet_abort_hook();
        let n = self.n;
        // Validate and install the fault plan before any rank is spawned.
        let (plan, model) = match self.prepare() {
            Ok(p) => p,
            Err(e) => return (Err(e), Vec::new()),
        };
        let body = Arc::new(body);
        let batching = self.op_batching;
        // One member list for every rank's view of the world.
        let world = Comm::world(0, n);
        let (req_tx, req_rx) = mpsc::channel::<Request>();
        let mut reply_txs = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for rank in 0..n {
            let (reply_tx, reply_rx) = mpsc::channel::<Vec<Reply>>();
            reply_txs.push(reply_tx);
            let hook = mk(rank);
            let body = Arc::clone(&body);
            let req_tx = req_tx.clone();
            let world = Comm {
                rank,
                ..world.clone()
            };
            let builder = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(512 * 1024);
            let handle = builder
                .spawn(move || {
                    let mut ctx = Ctx::threaded(world, req_tx, reply_rx, hook, batching);
                    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                    match result {
                        Ok(()) => ctx.send_exited(),
                        Err(payload) => {
                            if !payload.is::<SimAbort>() {
                                ctx.send_panicked(panic_message(&payload));
                            }
                        }
                    }
                    ctx.take_hook()
                })
                .expect("spawn rank thread");
            threads.push(handle);
        }
        drop(req_tx);

        // The driver (and with it the request channel) lives until every
        // rank thread has been joined.
        let (result, mut driver) = self.simulate(plan, model, Threads::new(req_rx, reply_txs));
        driver.release_all();

        let mut hooks = Vec::new();
        for t in threads {
            match t.join() {
                Ok(Some(h)) => hooks.push(h),
                Ok(None) => {}
                Err(_) => { /* rank aborted; the result carries the cause */ }
            }
        }
        (result, hooks)
    }
}

/// A validated fault plan and the network model it decorates.
type Prepared = (Option<Arc<FaultPlan>>, Arc<dyn NetworkModel>);

/// What an inline run hands back: the result, the hooks, the machines.
type InlineRun<M> = (Result<RunReport, SimError>, Vec<Box<dyn Hook>>, Vec<M>);

fn downcast_hooks<H: Hook>(hooks: Vec<Box<dyn Hook>>) -> Vec<H> {
    hooks
        .into_iter()
        .map(|h| {
            let any: Box<dyn Any> = h;
            *any.downcast::<H>()
                .expect("hook type is the one we created")
        })
        .collect()
}

/// Suppress the default "thread panicked" stderr noise for the controlled
/// [`SimAbort`] teardown panics; real panics still print.
fn install_quiet_abort_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimAbort>().is_none() {
                default(info);
            }
        }));
    });
}
