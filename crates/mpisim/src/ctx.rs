//! `Ctx` — the MPI-like API surface a rank program uses.
//!
//! Peers and roots are passed *communicator-relative* (as in MPI) and
//! translated to absolute world ranks at this boundary; everything behind it
//! (engine, hooks, [`crate::types::MsgInfo`]) speaks absolute ranks.
//!
//! Every operation is `#[track_caller]`, so the recorded call site is the
//! application source line — the analogue of the ScalaTrace stack signature
//! that the benchmark generator uses to distinguish call sites.

use crate::comm::{Comm, CommId};
use crate::engine::{Op, Reply, Request};
use crate::error::SimError;
use crate::hooks::{Event, EventKind, Hook};
use crate::time::{SimDuration, SimTime};
use crate::types::{CallSite, CollKind, Fnv1a, MsgInfo, Rank, ReqHandle, Src, Tag, TagSel};
use std::collections::VecDeque;
use std::panic::Location;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// Panic payload used for quiet teardown when the engine aborts a run; the
/// panic hook installed by [`crate::world::World`] suppresses its output.
/// Carries the fatal error the engine broadcast, when there was one (e.g.
/// [`SimError::RankFailed`] for an injected crash), `None` when the engine
/// side of the channel simply disappeared.
pub struct SimAbort(pub Option<SimError>);

/// A rank ships its deferred calls once this many are queued, so a rank
/// that never makes a value-returning call still holds a bounded queue.
/// The engine issues a shipment one op per round whatever its size, so the
/// cap moves no virtual time; it trades host handoffs against the memory
/// of queued ops and their pending hook events. A rank thread applies it
/// inside every deferring call; a [`crate::driver::RankMachine`] applies
/// it at its own yield points.
pub const MAX_DEFERRED: usize = 256;

/// A hook event deferred until its operation's reply arrives (op batching).
/// The stack signature is captured at call time — the region stack may have
/// changed by the time the batch is flushed.
struct PendingEv {
    kind: EventKind,
    callsite: CallSite,
    stack_sig: u64,
    /// How many queue entries *before this one* the event's enter time
    /// anchors to: 0 = this op's own submission; 1 = the previous entry's
    /// (a blocking send/recv is an isend/irecv entry followed by a wait
    /// entry carrying the combined event).
    span: usize,
}

/// Where a rank's requests go and where its replies come from.
enum Port {
    /// A rank thread: requests over the shared channel, each shipment's
    /// replies as one message over its own.
    Thread {
        tx: Sender<Request>,
        rx: Receiver<Vec<Reply>>,
    },
    /// A rank the engine drives inline ([`crate::driver`]): the driver
    /// collects the shipped op from `out` and fills the mailbox itself.
    Inline { out: Option<Op> },
}

/// Per-rank execution context.
pub struct Ctx {
    rank: Rank,
    n: usize,
    world: Comm,
    port: Port,
    /// Replies received and not yet drained, oldest first.
    mailbox: VecDeque<Reply>,
    clock: SimTime,
    hook: Option<Box<dyn Hook>>,
    regions: Vec<&'static str>,
    /// Client-side op batching: defer every op whose reply carries nothing
    /// the caller observes (nonblocking ops, computes, blocking sends, void
    /// collectives) and ship them together with the next value-returning op
    /// in a single channel handoff.
    batching: bool,
    /// Deferred ops (batching mode) with their pending hook events.
    queue: Vec<(Op, Option<PendingEv>)>,
    /// Hook events of shipped ops whose replies have not been drained yet,
    /// one entry per reply still to come.
    inflight: Vec<Option<PendingEv>>,
    /// The communicator the last drained `MPI_Comm_split` reply created.
    split: Option<Comm>,
    /// Mirror of the engine's per-rank request-handle counter (last handle
    /// handed out): the engine allocates handles sequentially per rank, so
    /// deferred isend/irecv handles can be predicted without a round trip.
    next_handle: u64,
    /// Handles confirmed against engine replies (debug cross-check).
    confirmed_handle: u64,
    /// Reusable per-flush scratch of pre-reply clocks.
    drain_t: Vec<SimTime>,
}

impl Ctx {
    /// The context of a rank thread; `world` is the rank's view of the
    /// world communicator.
    pub(crate) fn threaded(
        world: Comm,
        tx: Sender<Request>,
        rx: Receiver<Vec<Reply>>,
        hook: Option<Box<dyn Hook>>,
        batching: bool,
    ) -> Ctx {
        Ctx::new(world, Port::Thread { tx, rx }, hook, batching)
    }

    /// The context of a rank the engine drives inline. Inline ranks cannot
    /// block, so they always batch.
    pub(crate) fn inline(world: Comm, hook: Option<Box<dyn Hook>>) -> Ctx {
        Ctx::new(world, Port::Inline { out: None }, hook, true)
    }

    fn new(world: Comm, port: Port, hook: Option<Box<dyn Hook>>, batching: bool) -> Ctx {
        Ctx {
            rank: world.rank,
            n: world.size,
            world,
            port,
            mailbox: VecDeque::new(),
            clock: SimTime::ZERO,
            hook,
            regions: Vec::new(),
            batching,
            queue: Vec::new(),
            inflight: Vec::new(),
            split: None,
            next_handle: 0,
            confirmed_handle: 0,
            drain_t: Vec::new(),
        }
    }

    /// This rank's absolute (world) rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// Current virtual time on this rank. Flushes any deferred operations
    /// first, so the returned clock reflects them.
    pub fn now(&mut self) -> SimTime {
        let _ = self.flush();
        self.clock
    }

    /// Advance virtual time by `d` — the stand-in for application
    /// computation between MPI calls.
    pub fn compute(&mut self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        if self.batching {
            self.make_room(1);
            self.queue.push((Op::Compute(d), None));
            return;
        }
        match self.call(Op::Compute(d)) {
            Reply::Time(t) => self.clock = t,
            other => self.protocol_error("compute", &other),
        }
    }

    // -- point-to-point -----------------------------------------------------

    /// Nonblocking send of `bytes` to communicator rank `to`.
    #[track_caller]
    pub fn isend(&mut self, to: usize, tag: Tag, bytes: u64, comm: &Comm) -> ReqHandle {
        let site = caller();
        let abs = comm.translate(to);
        let kind = EventKind::Send {
            to: abs,
            tag,
            bytes,
            comm: comm.id,
            blocking: false,
        };
        let op = Op::ISend {
            to: abs,
            tag,
            bytes,
            comm: comm.id,
        };
        if self.batching {
            let h = self.predict_handle();
            self.defer(op, kind, site);
            return h;
        }
        let t_enter = self.clock;
        let h = self.raw_isend(abs, tag, bytes, comm.id);
        self.emit(kind, site, t_enter);
        h
    }

    /// Nonblocking receive of `bytes` from communicator rank `from` (or
    /// [`Src::Any`] for `MPI_ANY_SOURCE`).
    #[track_caller]
    pub fn irecv(&mut self, from: Src, tag: TagSel, bytes: u64, comm: &Comm) -> ReqHandle {
        let site = caller();
        let abs_from = self.translate_src(from, comm);
        let kind = EventKind::Recv {
            from: abs_from,
            tag,
            bytes,
            comm: comm.id,
            blocking: false,
        };
        let op = Op::IRecv {
            from: abs_from,
            tag,
            bytes,
            comm: comm.id,
        };
        if self.batching {
            let h = self.predict_handle();
            self.defer(op, kind, site);
            return h;
        }
        let t_enter = self.clock;
        let h = self.raw_irecv(abs_from, tag, bytes, comm.id);
        self.emit(kind, site, t_enter);
        h
    }

    /// Blocking send (internally isend + wait, reported as one `MPI_Send`).
    #[track_caller]
    pub fn send(&mut self, to: usize, tag: Tag, bytes: u64, comm: &Comm) {
        let site = caller();
        let abs = comm.translate(to);
        let kind = EventKind::Send {
            to: abs,
            tag,
            bytes,
            comm: comm.id,
            blocking: true,
        };
        if self.batching {
            let isend = Op::ISend {
                to: abs,
                tag,
                bytes,
                comm: comm.id,
            };
            // The wait returns nothing the caller can observe, so it rides
            // the batch too: a run of blocking sends crosses the baton once,
            // at the next value-returning call. The engine replays the batch
            // sequentially, so rendezvous blocking happens at the same
            // virtual time as an unbatched run.
            self.defer_blocking(isend, kind, site);
            return;
        }
        let t_enter = self.clock;
        let h = self.raw_isend(abs, tag, bytes, comm.id);
        self.raw_wait(vec![h.0]);
        self.emit(kind, site, t_enter);
    }

    /// Blocking receive; returns the resolved status (absolute source rank).
    #[track_caller]
    pub fn recv(&mut self, from: Src, tag: TagSel, bytes: u64, comm: &Comm) -> MsgInfo {
        let site = caller();
        let abs_from = self.translate_src(from, comm);
        let kind = EventKind::Recv {
            from: abs_from,
            tag,
            bytes,
            comm: comm.id,
            blocking: true,
        };
        if self.batching {
            self.defer_recv(abs_from, tag, bytes, comm.id, kind, site);
            match self.flush().expect("queue is non-empty") {
                Reply::Infos { infos, .. } => {
                    return infos[0].expect("receive completes with a status")
                }
                other => self.protocol_error("recv", &other),
            }
        }
        let t_enter = self.clock;
        let h = self.raw_irecv(abs_from, tag, bytes, comm.id);
        let infos = self.raw_wait(vec![h.0]);
        self.emit(kind, site, t_enter);
        infos[0].expect("receive completes with a status")
    }

    /// Wait for one request; `Some(status)` if it was a receive.
    #[track_caller]
    pub fn wait(&mut self, h: ReqHandle) -> Option<MsgInfo> {
        let site = caller();
        if self.batching {
            let ev = self.mk_ev(EventKind::Wait { count: 1 }, site, 0);
            let reply = self.submit(Op::Wait { reqs: vec![h.0] }, ev);
            match reply {
                Reply::Infos { infos, .. } => return infos[0],
                other => self.protocol_error("wait", &other),
            }
        }
        let t_enter = self.clock;
        let infos = self.raw_wait(vec![h.0]);
        self.emit(EventKind::Wait { count: 1 }, site, t_enter);
        infos[0]
    }

    /// Wait for all listed requests; statuses are returned in request order
    /// (`Some` for receives).
    #[track_caller]
    pub fn waitall(&mut self, hs: &[ReqHandle]) -> Vec<Option<MsgInfo>> {
        let site = caller();
        if self.batching {
            let ev = self.mk_ev(EventKind::Wait { count: hs.len() }, site, 0);
            let reqs = hs.iter().map(|h| h.0).collect();
            let reply = self.submit(Op::Wait { reqs }, ev);
            match reply {
                Reply::Infos { infos, .. } => return infos,
                other => self.protocol_error("waitall", &other),
            }
        }
        let t_enter = self.clock;
        let infos = self.raw_wait(hs.iter().map(|h| h.0).collect());
        self.emit(EventKind::Wait { count: hs.len() }, site, t_enter);
        infos
    }

    // -- collectives ----------------------------------------------------------
    //
    // For every collective, `bytes` is this rank's local contribution (the
    // quantity an mpiP-style profiler attributes to the rank); the engine
    // sums contributions for the aggregate cost model.

    /// `MPI_Barrier` over `comm`.
    #[track_caller]
    pub fn barrier(&mut self, comm: &Comm) {
        self.collective(CollKind::Barrier, comm, None, 0, caller());
    }

    /// `MPI_Bcast`: `root` (communicator-relative) sends `bytes` to every member.
    #[track_caller]
    pub fn bcast(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Bcast, comm, Some(root), bytes, caller());
    }

    /// `MPI_Reduce` of `bytes` per member to communicator-relative `root`.
    #[track_caller]
    pub fn reduce(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Reduce, comm, Some(root), bytes, caller());
    }

    /// `MPI_Allreduce` of `bytes` per member.
    #[track_caller]
    pub fn allreduce(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Allreduce, comm, None, bytes, caller());
    }

    /// `MPI_Gather`: every member contributes `bytes` to `root`.
    #[track_caller]
    pub fn gather(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Gather, comm, Some(root), bytes, caller());
    }

    /// `MPI_Gatherv`: this member contributes its own `bytes` to `root`.
    #[track_caller]
    pub fn gatherv(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Gatherv, comm, Some(root), bytes, caller());
    }

    /// `MPI_Scatter`: `root` distributes `bytes` to each member.
    #[track_caller]
    pub fn scatter(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Scatter, comm, Some(root), bytes, caller());
    }

    /// `MPI_Scatterv`: this member receives its own `bytes` from `root`.
    #[track_caller]
    pub fn scatterv(&mut self, root: usize, bytes: u64, comm: &Comm) {
        let root = comm.translate(root);
        self.collective(CollKind::Scatterv, comm, Some(root), bytes, caller());
    }

    /// `MPI_Allgather` with per-member contribution `bytes`.
    #[track_caller]
    pub fn allgather(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Allgather, comm, None, bytes, caller());
    }

    /// `MPI_Allgatherv` with this member's contribution `bytes`.
    #[track_caller]
    pub fn allgatherv(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Allgatherv, comm, None, bytes, caller());
    }

    /// `MPI_Alltoall`; `bytes` is this member's total outgoing volume.
    #[track_caller]
    pub fn alltoall(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Alltoall, comm, None, bytes, caller());
    }

    /// `MPI_Alltoallv`; `bytes` is this member's total outgoing volume.
    #[track_caller]
    pub fn alltoallv(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::Alltoallv, comm, None, bytes, caller());
    }

    /// `MPI_Reduce_scatter` with this member's contribution `bytes`.
    #[track_caller]
    pub fn reduce_scatter(&mut self, bytes: u64, comm: &Comm) {
        self.collective(CollKind::ReduceScatter, comm, None, bytes, caller());
    }

    /// `MPI_Finalize`, synchronising the world communicator (and, as in the
    /// paper's algorithms, treated as a collective).
    #[track_caller]
    pub fn finalize(&mut self) {
        let world = self.world();
        self.collective(CollKind::Finalize, &world, None, 0, caller());
    }

    /// `MPI_Comm_dup`: a new communicator with identical membership and
    /// numbering (realised as a colour-0 split keyed by the current rank).
    #[track_caller]
    pub fn comm_dup(&mut self, comm: &Comm) -> Comm {
        self.comm_split(comm, 0, comm.rank as i64)
    }

    /// `MPI_Comm_split` over `comm` with this rank's `(color, key)`.
    #[track_caller]
    pub fn comm_split(&mut self, comm: &Comm, color: i64, key: i64) -> Comm {
        let site = caller();
        let op = split_op(comm, color, key);
        if self.batching {
            self.defer(op, split_event(comm), site);
            let _ = self.flush();
            return self
                .split
                .take()
                .expect("comm_split replies with a communicator");
        }
        let t_enter = self.clock;
        let reply = self.call(op);
        match reply {
            Reply::CommCreated { clock, comm: new } => {
                self.clock = clock;
                self.emit(
                    EventKind::CommSplit {
                        parent: comm.id,
                        result: new.id,
                        members: new.members.clone(),
                    },
                    site,
                    t_enter,
                );
                new
            }
            other => self.protocol_error("comm_split", &other),
        }
    }

    // -- regions (stack-signature structure) ------------------------------------

    /// Run `f` inside a named region. Region names participate in the stack
    /// signature attached to every event, modelling deeper call paths than
    /// the immediate call site.
    pub fn region<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.regions.push(name);
        let r = f(self);
        self.regions.pop();
        r
    }

    // -- resumable rank programs ------------------------------------------------
    //
    // A `RankMachine` (see `crate::driver`) runs on the engine's thread and
    // must never block. It queues ops, ships them with `ship` once it needs
    // their replies, and returns to the engine; it finds the replies
    // settled when it is resumed. The `_deferred` calls below are blocking
    // calls whose result the caller reads later or not at all, so they
    // queue like a blocking `send`. On a rank without batching they block
    // at once.

    /// [`Ctx::recv`] whose status the caller never reads.
    #[track_caller]
    pub fn recv_deferred(&mut self, from: Src, tag: TagSel, bytes: u64, comm: &Comm) {
        if !self.batching {
            self.recv(from, tag, bytes, comm);
            return;
        }
        let site = caller();
        let abs_from = self.translate_src(from, comm);
        let kind = EventKind::Recv {
            from: abs_from,
            tag,
            bytes,
            comm: comm.id,
            blocking: true,
        };
        self.defer_recv(abs_from, tag, bytes, comm.id, kind, site);
    }

    /// [`Ctx::waitall`] whose statuses the caller never reads.
    #[track_caller]
    pub fn waitall_deferred(&mut self, hs: &[ReqHandle]) {
        if !self.batching {
            self.waitall(hs);
            return;
        }
        let reqs = hs.iter().map(|h| h.0).collect();
        let kind = EventKind::Wait { count: hs.len() };
        self.defer(Op::Wait { reqs }, kind, caller());
    }

    /// [`Ctx::comm_split`] whose communicator the caller collects with
    /// [`Ctx::take_split`] once the split has settled.
    #[track_caller]
    pub fn comm_split_deferred(&mut self, comm: &Comm, color: i64, key: i64) {
        if !self.batching {
            self.split = Some(self.comm_split(comm, color, key));
            return;
        }
        let op = split_op(comm, color, key);
        self.defer(op, split_event(comm), caller());
    }

    /// Ship every deferred op to the engine in one request, without waiting
    /// for the replies. Returns `false` when nothing was deferred;
    /// otherwise the caller must call [`Ctx::settle`] before reading the
    /// clock or a split communicator.
    pub fn ship(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        if !self.ship_queue(false) {
            self.abort(None);
        }
        true
    }

    /// Receive the replies of everything shipped: the clock moves and the
    /// deferred hook events fire. Blocks on a rank thread; an inline rank
    /// is resumed only once its replies have arrived.
    pub fn settle(&mut self) {
        if !self.inflight.is_empty() {
            self.drain(false);
        }
    }

    /// The communicator created by the last settled
    /// [`Ctx::comm_split_deferred`].
    pub fn take_split(&mut self) -> Option<Comm> {
        self.split.take()
    }

    /// How many ops are deferred and not yet shipped.
    pub fn deferred(&self) -> usize {
        self.queue.len()
    }

    // -- internals ----------------------------------------------------------------

    /// Queue a blocking receive as an irecv and the wait on it.
    fn defer_recv(
        &mut self,
        from: Src,
        tag: TagSel,
        bytes: u64,
        comm: CommId,
        kind: EventKind,
        site: CallSite,
    ) {
        let irecv = Op::IRecv {
            from,
            tag,
            bytes,
            comm,
        };
        self.defer_blocking(irecv, kind, site);
    }

    /// Queue a blocking point-to-point call: its nonblocking `start` entry,
    /// then a wait entry carrying the call's event anchored to the start's
    /// enter time. Both go into one shipment.
    fn defer_blocking(&mut self, start: Op, kind: EventKind, site: CallSite) {
        self.make_room(2);
        let h = self.predict_handle();
        self.queue.push((start, None));
        let ev = self.mk_ev(kind, site, 1);
        self.queue.push((Op::Wait { reqs: vec![h.0] }, ev));
    }

    /// Keep a rank thread's queue below [`MAX_DEFERRED`]: ship what is
    /// queued, and settle it, when `entries` more would reach the cap.
    /// Checked before a call queues its entries, so one call's entries
    /// never straddle two shipments. An inline rank cannot block here; its
    /// machine ships at its own yield points.
    fn make_room(&mut self, entries: usize) {
        if self.queue.len() + entries >= MAX_DEFERRED && matches!(self.port, Port::Thread { .. }) {
            self.flush();
        }
    }

    fn translate_src(&self, from: Src, comm: &Comm) -> Src {
        match from {
            Src::Rank(rel) => Src::Rank(comm.translate(rel)),
            Src::Any => Src::Any,
        }
    }

    fn collective(
        &mut self,
        kind: CollKind,
        comm: &Comm,
        root: Option<Rank>,
        bytes: u64,
        site: CallSite,
    ) {
        let ev_kind = EventKind::Coll {
            kind,
            root,
            bytes,
            comm: comm.id,
        };
        let op = Op::Coll {
            kind,
            comm: comm.id,
            root,
            bytes,
            split: None,
        };
        if self.batching {
            // Collectives reply with nothing but a clock, so they defer like
            // blocking sends: rank synchronisation is a virtual-time affair
            // the engine enforces whenever the op ships.
            self.defer(op, ev_kind, site);
            return;
        }
        let t_enter = self.clock;
        let reply = self.call(op);
        match reply {
            Reply::Time(t) => self.clock = t,
            other => self.protocol_error("collective", &other),
        }
        self.emit(ev_kind, site, t_enter);
    }

    fn raw_isend(&mut self, to: Rank, tag: Tag, bytes: u64, comm: CommId) -> ReqHandle {
        match self.call(Op::ISend {
            to,
            tag,
            bytes,
            comm,
        }) {
            Reply::Handle { clock, handle } => {
                self.clock = clock;
                ReqHandle(handle)
            }
            other => self.protocol_error("isend", &other),
        }
    }

    fn raw_irecv(&mut self, from: Src, tag: TagSel, bytes: u64, comm: CommId) -> ReqHandle {
        match self.call(Op::IRecv {
            from,
            tag,
            bytes,
            comm,
        }) {
            Reply::Handle { clock, handle } => {
                self.clock = clock;
                ReqHandle(handle)
            }
            other => self.protocol_error("irecv", &other),
        }
    }

    fn raw_wait(&mut self, reqs: Vec<u64>) -> Vec<Option<MsgInfo>> {
        match self.call(Op::Wait { reqs }) {
            Reply::Infos { clock, infos } => {
                self.clock = clock;
                infos
            }
            other => self.protocol_error("wait", &other),
        }
    }

    /// Predict the handle the engine will allocate for the next deferred
    /// isend/irecv (handles are sequential per rank; cross-checked against
    /// the replies in `apply_clock`).
    fn predict_handle(&mut self) -> ReqHandle {
        self.next_handle += 1;
        ReqHandle(self.next_handle)
    }

    /// Queue an op together with its deferred hook event.
    fn defer(&mut self, op: Op, kind: EventKind, callsite: CallSite) {
        self.make_room(1);
        let ev = self.mk_ev(kind, callsite, 0);
        self.queue.push((op, ev));
    }

    /// Build the deferred event record for an op being queued (`None` when
    /// no hook is installed).
    fn mk_ev(&self, kind: EventKind, callsite: CallSite, span: usize) -> Option<PendingEv> {
        self.hook.as_ref()?;
        Some(PendingEv {
            kind,
            stack_sig: self.stack_sig_of(&callsite),
            callsite,
            span,
        })
    }

    /// Queue `last` behind any deferred ops, ship the whole batch in one
    /// handoff, and return the final reply.
    fn submit(&mut self, last: Op, ev: Option<PendingEv>) -> Reply {
        self.queue.push((last, ev));
        self.flush().expect("queue is non-empty")
    }

    /// Ship the deferred queue, if any, and drain one reply per op.
    fn flush(&mut self) -> Option<Reply> {
        if self.queue.is_empty() {
            return None;
        }
        if !self.ship_queue(false) {
            self.abort(None);
        }
        self.drain(false)
    }

    /// Move the deferred queue into one request (a trailing `Op::Exited`
    /// rides along if asked for; it gets no reply) and send it. Returns
    /// whether the request reached the engine.
    fn ship_queue(&mut self, trailing_exit: bool) -> bool {
        let mut ops = Vec::with_capacity(self.queue.len() + trailing_exit as usize);
        self.inflight.reserve(self.queue.len());
        for (op, ev) in self.queue.drain(..) {
            ops.push(op);
            self.inflight.push(ev);
        }
        if trailing_exit {
            ops.push(Op::Exited);
        }
        let op = if ops.len() == 1 {
            ops.pop().expect("one op")
        } else {
            Op::Batch(ops)
        };
        self.post(op)
    }

    /// Receive one reply per in-flight op, updating the clock and emitting
    /// the deferred hook events with exactly the clocks an unbatched run
    /// would have observed. Returns the last reply. In `teardown` mode a
    /// `Fatal` reply or a closed channel ends the drain quietly; otherwise
    /// it unwinds the rank with [`SimAbort`].
    fn drain(&mut self, teardown: bool) -> Option<Reply> {
        let evs = std::mem::take(&mut self.inflight);
        let mut t_befores = std::mem::take(&mut self.drain_t);
        t_befores.clear();
        let mut out = None;
        for ev in evs {
            t_befores.push(self.clock);
            let reply = match self.next_reply() {
                Ok(reply) => reply,
                Err(_) if teardown => break,
                Err(err) => self.abort(err),
            };
            self.apply_clock(&reply);
            if let Some(ev) = ev {
                let t_enter = t_befores[t_befores.len() - 1 - ev.span];
                let kind = match (ev.kind, &reply) {
                    (EventKind::CommSplit { parent, .. }, Reply::CommCreated { comm, .. }) => {
                        EventKind::CommSplit {
                            parent,
                            result: comm.id,
                            members: comm.members.clone(),
                        }
                    }
                    (kind, _) => kind,
                };
                self.emit_raw(kind, ev.callsite, ev.stack_sig, t_enter);
            }
            out = Some(reply);
        }
        self.drain_t = t_befores;
        out
    }

    /// Update the local clock from an engine reply (batched drain path).
    fn apply_clock(&mut self, reply: &Reply) {
        match reply {
            Reply::Time(t) => self.clock = *t,
            Reply::Handle { clock, handle } => {
                self.clock = *clock;
                self.confirmed_handle += 1;
                debug_assert_eq!(
                    *handle, self.confirmed_handle,
                    "predicted request handle out of sync with engine"
                );
            }
            Reply::Infos { clock, .. } => self.clock = *clock,
            Reply::CommCreated { clock, comm } => {
                self.clock = *clock;
                self.split = Some(comm.clone());
            }
            Reply::Fatal(_) => {}
        }
    }

    /// Send one request to the engine. Returns whether it got there.
    fn post(&mut self, op: Op) -> bool {
        match &mut self.port {
            Port::Thread { tx, .. } => tx
                .send(Request {
                    rank: self.rank,
                    op,
                })
                .is_ok(),
            Port::Inline { out, .. } => {
                debug_assert!(out.is_none(), "rank shipped twice without a reply");
                *out = Some(op);
                true
            }
        }
    }

    /// The next reply, or why there is none: the engine's fatal error, or
    /// `None` when the engine is gone.
    fn next_reply(&mut self) -> Result<Reply, Option<SimError>> {
        if self.mailbox.is_empty() {
            if let Port::Thread { rx, .. } = &self.port {
                let replies = rx.recv().map_err(|_| None)?;
                self.mailbox.extend(replies);
            }
        }
        match self.mailbox.pop_front().ok_or(None)? {
            Reply::Fatal(err) => Err(Some(err)),
            reply => Ok(reply),
        }
    }

    /// The engine ended the run (or vanished): unwind the rank thread
    /// quietly. An inline rank is only resumed once its replies are all in
    /// its mailbox, so reaching this there is a bug in the rank machine.
    fn abort(&self, err: Option<SimError>) -> ! {
        if let Port::Inline { .. } = self.port {
            panic!("inline rank {} blocked outside a yield point", self.rank);
        }
        std::panic::panic_any(SimAbort(err))
    }

    fn call(&mut self, op: Op) -> Reply {
        if !self.post(op) {
            self.abort(None);
        }
        match self.next_reply() {
            Ok(reply) => reply,
            Err(err) => self.abort(err),
        }
    }

    fn protocol_error(&self, what: &str, got: &Reply) -> ! {
        panic!("engine protocol violation in {what}: unexpected reply {got:?}")
    }

    /// FNV-1a over the region stack plus the call site — the stack
    /// signature attached to every event.
    fn stack_sig_of(&self, callsite: &CallSite) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.regions {
            h.write(r.as_bytes());
            h.write(&[0]);
        }
        h.write(callsite.file.as_bytes());
        h.write_u64(callsite.line as u64);
        h.write_u64(callsite.column as u64);
        h.finish()
    }

    fn emit(&mut self, kind: EventKind, callsite: CallSite, t_enter: SimTime) {
        if self.hook.is_none() {
            return;
        }
        let stack_sig = self.stack_sig_of(&callsite);
        self.emit_raw(kind, callsite, stack_sig, t_enter);
    }

    fn emit_raw(&mut self, kind: EventKind, callsite: CallSite, stack_sig: u64, t_enter: SimTime) {
        let Some(hook) = self.hook.as_mut() else {
            return;
        };
        let event = Event {
            rank: self.rank,
            kind,
            callsite,
            stack_sig,
            t_enter,
            t_exit: self.clock,
        };
        hook.on_event(&event);
    }

    // -- rank lifecycle -------------------------------------------------------
    //
    // These run outside the rank body's `catch_unwind`, so they never
    // unwind: a fatal reply or a closed channel just ends the drain. Hook
    // events for the deferred ops are still emitted, so partial traces stay
    // complete.

    /// The rank body returned: ship the deferred queue with a trailing
    /// `Op::Exited` (which gets no reply).
    pub(crate) fn ship_exit(&mut self) {
        if self.queue.is_empty() {
            self.post(Op::Exited);
        } else {
            self.ship_queue(true);
        }
    }

    /// Ship the deferred queue of a rank whose body panicked, if there is
    /// one. Returns whether anything was shipped.
    pub(crate) fn ship_teardown(&mut self) -> bool {
        !self.queue.is_empty() && self.ship_queue(false)
    }

    /// Drain the replies of everything shipped, without unwinding.
    pub(crate) fn settle_teardown(&mut self) {
        self.drain(true);
    }

    pub(crate) fn send_exited(&mut self) {
        self.ship_exit();
        self.settle_teardown();
    }

    pub(crate) fn send_panicked(&mut self, message: String) {
        // Deliver any ops deferred before the panic first, so the partial
        // trace matches what an unbatched run would have recorded.
        if self.ship_teardown() {
            self.settle_teardown();
        }
        self.post(Op::Panicked(message));
    }

    /// Inline port: queue an engine reply in the mailbox.
    pub(crate) fn deliver(&mut self, reply: Reply) {
        self.mailbox.push_back(reply);
    }

    /// Inline port: the request shipped since the last call.
    pub(crate) fn take_shipped(&mut self) -> Option<Op> {
        match &mut self.port {
            Port::Inline { out, .. } => out.take(),
            Port::Thread { .. } => None,
        }
    }

    pub(crate) fn take_hook(&mut self) -> Option<Box<dyn Hook>> {
        self.hook.take()
    }
}

fn split_op(comm: &Comm, color: i64, key: i64) -> Op {
    Op::Coll {
        kind: CollKind::CommSplit,
        comm: comm.id,
        root: None,
        bytes: 0,
        split: Some((color, key)),
    }
}

/// The deferred event of an `MPI_Comm_split` on `parent`; the drain fills
/// in the new communicator from the reply.
fn split_event(parent: &Comm) -> EventKind {
    EventKind::CommSplit {
        parent: parent.id,
        result: parent.id,
        members: Arc::clone(&parent.members),
    }
}

#[track_caller]
fn caller() -> CallSite {
    CallSite::from_location(Location::caller())
}

/// Convenience: an error type alias for rank bodies that want to bubble up
/// simulation errors explicitly rather than panicking.
pub type SimResult<T> = Result<T, SimError>;
