//! Drivers: how the engine reaches the ranks it schedules.
//!
//! The engine never runs rank code itself. In its quiescence phase it asks
//! a driver for the next request of every rank it has replied to, and it
//! hands each reply back through the same driver. Two drivers exist:
//!
//! * [`Threads`] runs every rank body as an OS thread. A rank ships its
//!   requests over one shared channel. The driver buffers the rank's
//!   replies and hands them over in one message when the engine wakes the
//!   rank, so a shipment costs one host handoff each way however many ops
//!   it carries. This is the path of Rust-closure rank programs
//!   ([`crate::World::run`]).
//! * [`Inline`] runs [`RankMachine`]s on the engine's own thread. A reply
//!   lands in the rank's mailbox; when the rank has every reply it waits
//!   for, the driver resumes its machine until the machine ships its next
//!   request. No threads, no channels, no locks.
//!
//! Under both, a rank's replies reach the same mailbox in its [`Ctx`], and
//! the engine wakes a rank only once it has replied to the whole shipment.
//!
//! The schedule is the same under both. The engine issues the operations
//! that arrived during a quiescence phase in `(virtual clock, rank)` order,
//! whatever order they arrived in, so host-side interleaving never reaches
//! virtual time.

use crate::ctx::Ctx;
use crate::engine::{Op, Reply, Request};
use crate::error::SimError;
use crate::types::Rank;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};

/// A rank program the engine can drive on its own thread: a state machine
/// that runs until it needs the engine's replies, then returns.
pub trait RankMachine {
    /// Run this rank until it has shipped operations whose replies it must
    /// see before going on ([`Ctx::ship`] returned `true`), then return
    /// `true`. Return `false` once the program is finished. Every earlier
    /// shipment has been settled ([`Ctx::settle`]) when this is called.
    fn resume(&mut self, ctx: &mut Ctx) -> bool;
}

/// The engine's side of the rank boundary.
pub(crate) trait Driver {
    /// Hand `reply` to `rank`.
    fn deliver(&mut self, rank: Rank, reply: Reply);
    /// `rank` holds every reply it waits for and runs until its next
    /// request.
    fn wake(&mut self, rank: Rank);
    /// The next request of some woken rank.
    fn next_request(&mut self) -> Result<Request, SimError>;
}

/// One OS thread per rank, joined to the engine by channels.
pub(crate) struct Threads {
    requests: Receiver<Request>,
    replies: Vec<Sender<Vec<Reply>>>,
    /// Per rank: the replies produced since its last wake.
    buffered: Vec<Vec<Reply>>,
}

impl Threads {
    pub(crate) fn new(requests: Receiver<Request>, replies: Vec<Sender<Vec<Reply>>>) -> Threads {
        let buffered = replies.iter().map(|_| Vec::new()).collect();
        Threads {
            requests,
            replies,
            buffered,
        }
    }

    /// Hand `rank` every reply buffered for it, in one message.
    fn release(&mut self, rank: Rank) {
        let replies = std::mem::take(&mut self.buffered[rank]);
        if !replies.is_empty() {
            // A send failure means the rank thread died; the next request
            // drain surfaces the problem.
            let _ = self.replies[rank].send(replies);
        }
    }

    /// Hand every rank what is buffered for it. Called once the engine has
    /// returned: a rank that exited, or that the run ended under, is never
    /// woken again, yet it waits for the replies of its last shipment.
    pub(crate) fn release_all(&mut self) {
        for rank in 0..self.buffered.len() {
            self.release(rank);
        }
    }
}

impl Driver for Threads {
    fn deliver(&mut self, rank: Rank, reply: Reply) {
        let fatal = matches!(reply, Reply::Fatal(_));
        self.buffered[rank].push(reply);
        if fatal {
            // A fatal reply ends the rank's shipment early, and the engine
            // never wakes a rank it has failed.
            self.release(rank);
        }
    }

    fn wake(&mut self, rank: Rank) {
        self.release(rank);
    }

    fn next_request(&mut self) -> Result<Request, SimError> {
        self.requests
            .recv()
            .map_err(|_| SimError::InvalidHandle("request channel closed".into()))
    }
}

/// One inline rank: its context, its machine, and a panic message waiting
/// for the rank's last shipment to settle.
pub(crate) struct InlineRank<M> {
    pub(crate) ctx: Ctx,
    pub(crate) machine: M,
    panicked: Option<String>,
}

/// Every rank's [`RankMachine`], resumed on the engine's thread.
pub(crate) struct Inline<M> {
    pub(crate) ranks: Vec<InlineRank<M>>,
    woken: Vec<Rank>,
}

impl<M: RankMachine> Inline<M> {
    pub(crate) fn new(ranks: impl IntoIterator<Item = (Ctx, M)>) -> Inline<M> {
        let ranks: Vec<InlineRank<M>> = ranks
            .into_iter()
            .map(|(ctx, machine)| InlineRank {
                ctx,
                machine,
                panicked: None,
            })
            .collect();
        // Every rank starts out running; pop rank 0 first.
        let woken = (0..ranks.len()).rev().collect();
        Inline { ranks, woken }
    }
}

impl<M: RankMachine> Driver for Inline<M> {
    fn deliver(&mut self, rank: Rank, reply: Reply) {
        self.ranks[rank].ctx.deliver(reply);
    }

    fn wake(&mut self, rank: Rank) {
        self.woken.push(rank);
    }

    fn next_request(&mut self) -> Result<Request, SimError> {
        let rank = self
            .woken
            .pop()
            .expect("the engine waits only for woken ranks");
        Ok(Request {
            rank,
            op: self.ranks[rank].step(),
        })
    }
}

impl<M: RankMachine> InlineRank<M> {
    /// Resume the machine until it ships its next request, and return it.
    /// A panic in the machine becomes [`Op::Panicked`] after the ops it
    /// deferred have been delivered, exactly as a rank thread reports it.
    fn step(&mut self) -> Op {
        if let Some(message) = self.panicked.take() {
            self.ctx.settle_teardown();
            return Op::Panicked(message);
        }
        let (ctx, machine) = (&mut self.ctx, &mut self.machine);
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            ctx.settle();
            machine.resume(ctx)
        }));
        match run {
            Ok(true) => {}
            Ok(false) => self.ctx.ship_exit(),
            Err(payload) => {
                let message = panic_message(&payload);
                if !self.ctx.ship_teardown() {
                    return Op::Panicked(message);
                }
                self.panicked = Some(message);
            }
        }
        self.ctx.take_shipped().unwrap_or_else(|| {
            Op::Panicked("rank machine yielded without shipping a request".into())
        })
    }
}

/// The text of a panic payload.
pub(crate) fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
