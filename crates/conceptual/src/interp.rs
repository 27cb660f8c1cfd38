//! The interpreter: executes a [`Program`] on the simulated MPI runtime.
//!
//! This component stands in for the coNCePTuaL compiler's C+MPI backend:
//! every statement maps onto the same MPI calls the compiled benchmark
//! would issue, so profiles of the interpreted program are comparable to
//! profiles of the original application (experiment E1):
//!
//! | statement                   | MPI mapping                                |
//! |-----------------------------|--------------------------------------------|
//! | SEND / ASYNCHRONOUSLY SEND  | `MPI_Send` / `MPI_Isend`                   |
//! | RECEIVE / ASYNC RECEIVE     | `MPI_Recv` / `MPI_Irecv` (FROM ANY TASK → `MPI_ANY_SOURCE`) |
//! | AWAIT COMPLETION            | `MPI_Waitall` over outstanding requests    |
//! | SYNCHRONIZE                 | `MPI_Barrier`                              |
//! | TASK r MULTICASTS … TO S    | `MPI_Bcast(root=r)` over S ∪ {r}           |
//! | S MULTICAST … TO EACH OTHER | `MPI_Alltoall` over S                      |
//! | REDUCE … TO TASK r          | `MPI_Reduce(root=r)`                       |
//! | REDUCE … TO ALL TASKS       | `MPI_Allreduce`                            |
//! | PARTITION … INTO …          | `MPI_Comm_split`                           |
//! | COMPUTE FOR                 | spin loop (virtual-time advance)           |
//!
//! If the program contains no explicit `RECEIVE` statements, `SEND`
//! statements auto-post the matching receives on the destination tasks
//! (the convenient coNCePTuaL default, §3.2); generated benchmarks always
//! carry explicit receives for precise posting-order control.
//!
//! Each task runs as a [`Machine`]: a resumable state machine with an
//! explicit frame stack over the AST. It queues MPI calls on its rank's
//! [`Ctx`] without blocking and returns to the engine only when it needs a
//! value back (a split communicator, or the clock for `RESET`/`LOG`) or
//! has queued enough. [`run_program_on`] and [`run_program_hooked`] let
//! the engine drive every machine on its own thread; [`run_rank`] drives
//! one machine on a rank thread, for callers composing their own
//! [`World::run_hooked`] bodies.

use crate::analyze::{expand_runs, validate};
use crate::ast::*;
use mpisim::comm::Comm;
use mpisim::ctx::{Ctx, MAX_DEFERRED};
use mpisim::error::SimError;
use mpisim::hooks::Hook;
use mpisim::network::NetworkModel;
use mpisim::time::{SimDuration, SimTime};
use mpisim::types::{Rank, ReqHandle, Src, TagSel};
use mpisim::world::{RunReport, World};
use mpisim::RankMachine;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Execution failure: static validation errors or a simulation error.
#[derive(Clone, Debug)]
pub enum RunError {
    /// The program failed static validation ([`crate::analyze::validate`]).
    Validation(Vec<String>),
    /// The simulated execution failed (deadlock, panic, …).
    Sim(SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Validation(errs) => {
                writeln!(f, "program validation failed:")?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            RunError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// One `LOG` record: `(task, label, virtual time since last counter reset)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// The logging task.
    pub task: usize,
    /// The metric label.
    pub label: String,
    /// Virtual time since the task's last counter reset.
    pub elapsed: SimDuration,
}

/// Result of executing a program.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The simulated run report.
    pub report: RunReport,
    /// All LOG records, sorted by `(task, label)`.
    pub logs: Vec<LogEntry>,
    /// The run's simulated wall-clock time (alias of `report.total_time`).
    pub total_time: SimTime,
}

/// Execute `program` with `n` tasks over `model`.
pub fn run_program(
    program: &Program,
    n: usize,
    model: Arc<dyn NetworkModel>,
) -> Result<RunOutcome, RunError> {
    run_program_on(program, World::new(n).network(model), n)
}

/// Execute on a fully configured [`World`] (custom match policy etc.).
pub fn run_program_on(program: &Program, world: World, n: usize) -> Result<RunOutcome, RunError> {
    let errors = validate(program, n);
    if !errors.is_empty() {
        return Err(RunError::Validation(errors));
    }
    let plan = Plan::new(program, world.size());
    let (report, machines) = world.run_machines(plan.machines());
    Ok(outcome(report.map_err(RunError::Sim)?, machines))
}

/// Execute on `world` with a per-task interposition [`Hook`] made by
/// `mk_hook` (an mpiP profiler, a trace collector, …). The hooks come back
/// even when the run fails, holding what each task did up to the failure
/// (e.g. [`SimError::RankFailed`] under an injected crash).
pub fn run_program_hooked<H, MK>(
    program: &Program,
    world: World,
    mk_hook: MK,
) -> (Result<RunOutcome, RunError>, Vec<H>)
where
    H: Hook + 'static,
    MK: FnMut(Rank) -> H,
{
    let errors = validate(program, world.size());
    if !errors.is_empty() {
        return (Err(RunError::Validation(errors)), Vec::new());
    }
    let plan = Plan::new(program, world.size());
    let (report, hooks, machines) = world.run_machines_hooked(mk_hook, plan.machines());
    let result = report
        .map(|report| outcome(report, machines))
        .map_err(RunError::Sim);
    (result, hooks)
}

fn outcome(report: RunReport, machines: Vec<Machine>) -> RunOutcome {
    let mut logs: Vec<LogEntry> = machines.into_iter().flat_map(|m| m.logs).collect();
    logs.sort_by(|a, b| (a.task, &a.label).cmp(&(b.task, &b.label)));
    RunOutcome {
        total_time: report.total_time,
        report,
        logs,
    }
}

/// Evaluate a constant expression (validation guarantees constness where
/// this is used).
pub fn eval_const(e: &Expr) -> i64 {
    eval(e, &Vars::default())
}

/// Execute a program within an existing rank context (no validation, logs
/// discarded), blocking on the rank thread whenever the task waits for the
/// engine. This is the building block for callers that manage their own
/// [`World`] — e.g. tracing or profiling the generated benchmark by running
/// it under interposition hooks.
pub fn run_rank(ctx: &mut Ctx, program: &Program) {
    run_rank_logged(ctx, program);
}

/// As [`run_rank`], returning the task's `LOG` records.
pub fn run_rank_logged(ctx: &mut Ctx, program: &Program) -> Vec<LogEntry> {
    let plan = Plan::new(program, ctx.size());
    let mut machine = Machine::new(&plan, ctx.rank());
    while machine.resume(ctx) {
        ctx.settle();
    }
    machine.logs
}

// A task ships its deferred MPI calls at `mpisim::ctx::MAX_DEFERRED`, the
// cap every rank shares; the engine issues a shipment one op per round, so
// the cap moves no virtual time. The mpiP call sites of a generated
// benchmark are lines of this file, so adding or removing a line above a
// `ctx` call changes the benchmark's profile.

/// What every task of one run shares: the program, and its ad-hoc
/// collective member sets resolved once.
struct Plan<'p> {
    program: &'p Program,
    n: usize,
    /// The world communicator, shared by every task's copy.
    world: Comm,
    explicit_receives: bool,
    /// Ad-hoc member sets, in the order every task splits the world for
    /// them before the program starts.
    sets: Vec<Vec<usize>>,
    /// Collective statement (by address) whose participants are constant →
    /// the communicator they use.
    slots: HashMap<usize, Slot>,
}

/// Where a collective statement's constant participant set finds its
/// communicator.
#[derive(Clone, Copy)]
enum Slot {
    World,
    /// `Plan::sets[i]`.
    Set(usize),
}

fn stmt_key(s: &Stmt) -> usize {
    s as *const Stmt as usize
}

impl<'p> Plan<'p> {
    fn new(program: &'p Program, n: usize) -> Plan<'p> {
        let (sets, subjects) = collect_adhoc_sets(program, n);
        let slots = subjects
            .into_iter()
            .filter_map(|(key, members)| {
                let slot = if members.len() == n {
                    Slot::World
                } else {
                    Slot::Set(sets.iter().position(|s| *s == members)?)
                };
                Some((key, slot))
            })
            .collect();
        Plan {
            program,
            n,
            world: Comm::world(0, n),
            explicit_receives: program.has_explicit_receives(),
            sets,
            slots,
        }
    }

    fn machines(&self) -> Vec<Machine<'_>> {
        (0..self.n).map(|rank| Machine::new(self, rank)).collect()
    }
}

/// Variable bindings, innermost last: the executing task's `t` at the
/// bottom, then `FOR EACH` variables and bound task variables.
#[derive(Default)]
struct Vars<'p> {
    num_tasks: i64,
    stack: Vec<(&'p str, i64)>,
}

impl Vars<'_> {
    fn get(&self, name: &str) -> Option<i64> {
        self.stack
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

fn eval(e: &Expr, vars: &Vars) -> i64 {
    match e {
        Expr::Num(v) => *v,
        Expr::NumTasks => vars.num_tasks,
        Expr::Var(v) => vars
            .get(v)
            .unwrap_or_else(|| panic!("unbound variable {v} (validation gap)")),
        Expr::Add(a, b) => eval(a, vars) + eval(b, vars),
        Expr::Sub(a, b) => eval(a, vars) - eval(b, vars),
        Expr::Mul(a, b) => eval(a, vars) * eval(b, vars),
        Expr::Div(a, b) => {
            let d = eval(b, vars);
            assert!(d != 0, "division by zero");
            eval(a, vars) / d
        }
        Expr::Mod(a, b) => {
            let d = eval(b, vars);
            assert!(d != 0, "MOD by zero");
            eval(a, vars).rem_euclid(d)
        }
        Expr::Xor(a, b) => eval(a, vars) ^ eval(b, vars),
    }
}

fn eval_cond(c: &Cond, vars: &Vars) -> bool {
    match c {
        Cond::Cmp(a, op, b) => {
            let (x, y) = (eval(a, vars), eval(b, vars));
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        }
        Cond::Divides(a, b) => {
            let d = eval(a, vars);
            d != 0 && eval(b, vars).rem_euclid(d) == 0
        }
        Cond::And(a, b) => eval_cond(a, vars) && eval_cond(b, vars),
        Cond::Or(a, b) => eval_cond(a, vars) || eval_cond(b, vars),
        Cond::Not(a) => !eval_cond(a, vars),
    }
}

/// One block being executed: its statements, the next one to run, and
/// what happens when the block ends.
struct Frame<'p> {
    body: &'p [Stmt],
    next: usize,
    kind: FrameKind,
}

enum FrameKind {
    /// The program, or an `IF` branch: ends once.
    Once,
    /// `FOR n REPETITIONS`, with this many passes left after the current.
    Repeat(i64),
    /// `FOR EACH`, up to this value; the variable is the innermost binding.
    Each(i64),
}

/// What to do with the engine's replies when the task is resumed.
enum Wake<'p> {
    Continue,
    /// Keep the communicator of ad-hoc set `i` (if a member).
    AdhocSplit(usize),
    /// Keep the communicator of a PARTITION group.
    GroupSplit(&'p str),
    Reset,
    Log(&'p str),
}

/// One task of a program run, as a resumable state machine.
struct Machine<'p> {
    plan: &'p Plan<'p>,
    me: usize,
    world: Comm,
    /// The next ad-hoc set to split for, before the program starts.
    prepass: usize,
    /// Communicator per ad-hoc set (`None` where this task is not a member).
    adhoc: Vec<Option<Comm>>,
    /// group name → members (absolute task ids)
    groups: HashMap<&'p str, Vec<usize>>,
    /// group name → live communicator (only for partition-created groups
    /// this task belongs to)
    group_comms: HashMap<&'p str, Comm>,
    outstanding: Vec<ReqHandle>,
    t0: SimTime,
    logs: Vec<LogEntry>,
    frames: Vec<Frame<'p>>,
    vars: Vars<'p>,
    wake: Wake<'p>,
}

impl RankMachine for Machine<'_> {
    fn resume(&mut self, ctx: &mut Ctx) -> bool {
        let wake = std::mem::replace(&mut self.wake, Wake::Continue);
        self.apply(wake, ctx);
        while self.prepass < self.plan.sets.len() {
            if self.split_adhoc(ctx) {
                return true;
            }
        }
        self.run(ctx)
    }
}

impl<'p> Machine<'p> {
    fn new(plan: &'p Plan<'p>, me: usize) -> Machine<'p> {
        Machine {
            plan,
            me,
            world: Comm {
                rank: me,
                ..plan.world.clone()
            },
            prepass: 0,
            adhoc: vec![None; plan.sets.len()],
            groups: HashMap::new(),
            group_comms: HashMap::new(),
            outstanding: Vec::new(),
            t0: SimTime::ZERO,
            logs: Vec::new(),
            frames: vec![Frame {
                body: &plan.program.stmts,
                next: 0,
                kind: FrameKind::Once,
            }],
            vars: Vars {
                num_tasks: plan.n as i64,
                stack: vec![("t", me as i64)],
            },
            wake: Wake::Continue,
        }
    }

    /// Ship the deferred calls and finish with `wake` once their replies
    /// are in. Returns whether the task must yield to the engine first.
    fn park(&mut self, ctx: &mut Ctx, wake: Wake<'p>) -> bool {
        if ctx.ship() {
            self.wake = wake;
            return true;
        }
        self.apply(wake, ctx);
        false
    }

    fn apply(&mut self, wake: Wake<'p>, ctx: &mut Ctx) {
        match wake {
            Wake::Continue => {}
            Wake::AdhocSplit(i) => {
                let comm = ctx.take_split().expect("split settled");
                if self.plan.sets[i].contains(&self.me) {
                    self.adhoc[i] = Some(comm);
                }
            }
            Wake::GroupSplit(name) => {
                let comm = ctx.take_split().expect("split settled");
                self.group_comms.insert(name, comm);
            }
            Wake::Reset => self.t0 = ctx.now(),
            Wake::Log(label) => {
                let elapsed = ctx.now().since(self.t0);
                self.logs.push(LogEntry {
                    task: self.me,
                    label: label.to_string(),
                    elapsed,
                });
            }
        }
    }

    /// Create the communicator of the next ad-hoc collective subject.
    /// `MPI_Comm_split` is collective over the parent, so *all* tasks must
    /// participate — including those outside the subset. Generated
    /// benchmarks carry explicit PARTITION statements instead and never
    /// reach this path.
    fn split_adhoc(&mut self, ctx: &mut Ctx) -> bool {
        let i = self.prepass;
        self.prepass += 1;
        let me = self.me;
        let (color, key) = match self.plan.sets[i].iter().position(|&m| m == me) {
            Some(idx) => (1, idx as i64),
            None => (0, me as i64),
        };
        ctx.comm_split_deferred(&self.world, color, key);
        self.park(ctx, Wake::AdhocSplit(i))
    }

    /// Run statements until the task must yield (`true`) or the program
    /// ends (`false`).
    fn run(&mut self, ctx: &mut Ctx) -> bool {
        loop {
            if ctx.deferred() >= MAX_DEFERRED && self.park(ctx, Wake::Continue) {
                return true;
            }
            let Some(frame) = self.frames.last_mut() else {
                return false;
            };
            let body = frame.body;
            let Some(stmt) = body.get(frame.next) else {
                self.end_block();
                continue;
            };
            frame.next += 1;
            if self.stmt(stmt, ctx) {
                return true;
            }
        }
    }

    /// The innermost block ran out of statements: repeat it or leave it.
    fn end_block(&mut self) {
        let frame = self.frames.last_mut().expect("a block ended");
        match &mut frame.kind {
            FrameKind::Repeat(left) if *left > 0 => {
                *left -= 1;
                frame.next = 0;
            }
            FrameKind::Each(to) => {
                let var = &mut self.vars.stack.last_mut().expect("loop variable").1;
                if *var < *to {
                    *var += 1;
                    frame.next = 0;
                } else {
                    self.vars.stack.pop();
                    self.frames.pop();
                }
            }
            _ => {
                self.frames.pop();
            }
        }
    }

    fn enter(&mut self, body: &'p [Stmt], kind: FrameKind) {
        self.frames.push(Frame {
            body,
            next: 0,
            kind,
        });
    }

    fn eval(&self, e: &Expr) -> i64 {
        eval(e, &self.vars)
    }

    /// Evaluate a task id (taken modulo the number of tasks).
    fn task(&self, e: &Expr) -> usize {
        self.eval(e).rem_euclid(self.plan.n as i64) as usize
    }

    /// Bind `ts`'s task variable (if any) to `task`; returns the binding
    /// depth to restore with [`Machine::unbind`].
    fn bind(&mut self, ts: &'p TaskSet, task: usize) -> usize {
        let depth = self.vars.stack.len();
        if let Some(v) = &ts.var {
            self.vars.stack.push((v, task as i64));
        }
        depth
    }

    fn unbind(&mut self, depth: usize) {
        self.vars.stack.truncate(depth);
    }

    /// Members of a task set (absolute ids, sorted). Callers that only need
    /// a membership test should use [`Machine::is_member`], which does not
    /// allocate.
    fn members(&self, ts: &TaskSet) -> Vec<usize> {
        match &ts.sel {
            TaskSel::All => (0..self.plan.n).collect(),
            TaskSel::Single(e) => vec![self.task(e)],
            TaskSel::Runs(runs) => expand_runs(runs),
            TaskSel::Group(g) => self.groups.get(g.as_str()).cloned().unwrap_or_default(),
        }
    }

    /// Is `task` a member of `ts`? Allocation-free equivalent of
    /// `self.members(ts).contains(&task)`.
    fn is_member(&self, ts: &TaskSet, task: usize) -> bool {
        match &ts.sel {
            TaskSel::All => task < self.plan.n,
            TaskSel::Single(e) => self.task(e) == task,
            TaskSel::Runs(runs) => runs.iter().any(|r| r.contains(task)),
            TaskSel::Group(g) => self
                .groups
                .get(g.as_str())
                .is_some_and(|m| m.contains(&task)),
        }
    }

    /// Communicator of collective statement `s` over `ts`. Constant
    /// participant sets were resolved in the plan; PARTITION groups got
    /// theirs when the partition executed.
    fn comm_for(&self, s: &Stmt, ts: &TaskSet) -> Comm {
        match &ts.sel {
            TaskSel::All => return self.world.clone(),
            TaskSel::Runs(_) => {
                if let Some(&slot) = self.plan.slots.get(&stmt_key(s)) {
                    if let Some(comm) = self.slot_comm(slot) {
                        return comm;
                    }
                }
            }
            TaskSel::Group(g) => {
                if let Some(c) = self.group_comms.get(g.as_str()) {
                    return c.clone();
                }
                if let Some(members) = self.groups.get(g.as_str()) {
                    return self.comm_for_members(members);
                }
            }
            TaskSel::Single(_) => {}
        }
        self.comm_for_members(&self.members(ts))
    }

    fn slot_comm(&self, slot: Slot) -> Option<Comm> {
        match slot {
            Slot::World => Some(self.world.clone()),
            Slot::Set(i) => self.adhoc[i].clone(),
        }
    }

    fn comm_for_members(&self, members: &[usize]) -> Comm {
        if members.len() == self.plan.n {
            return self.world.clone();
        }
        self.plan
            .sets
            .iter()
            .position(|s| s == members)
            .and_then(|i| self.adhoc[i].clone())
            .unwrap_or_else(|| {
                panic!(
                    "no communicator for task set {members:?} (collective over an undeclared subset?)"
                )
            })
    }

    /// Execute one statement; returns whether the task must yield.
    fn stmt(&mut self, s: &'p Stmt, ctx: &mut Ctx) -> bool {
        let me = self.me;
        match s {
            Stmt::Comment(_) => {}
            Stmt::DeclareGroup { name, tasks } => {
                let members = self.members(tasks);
                self.groups.insert(name, members);
            }
            Stmt::Partition { parent, groups } => return self.partition(parent, groups, ctx),
            Stmt::For { count, body } => {
                let count = self.eval(count).max(0);
                if count > 0 && !body.is_empty() {
                    self.enter(body, FrameKind::Repeat(count - 1));
                }
            }
            Stmt::ForEach {
                var,
                from,
                to,
                body,
            } => {
                let (from, to) = (self.eval(from), self.eval(to));
                if from <= to && !body.is_empty() {
                    self.vars.stack.push((var, from));
                    self.enter(body, FrameKind::Each(to));
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let branch = if eval_cond(cond, &self.vars) {
                    then_
                } else {
                    else_
                };
                if !branch.is_empty() {
                    self.enter(branch, FrameKind::Once);
                }
            }
            Stmt::Compute {
                tasks,
                amount,
                unit,
            } => {
                if self.is_member(tasks, me) {
                    let depth = self.bind(tasks, me);
                    let ns = unit.nanos(self.eval(amount));
                    self.unbind(depth);
                    ctx.compute(SimDuration::from_nanos(ns));
                }
            }
            Stmt::Send {
                src,
                dst,
                bytes,
                tag,
                is_async,
            } => {
                if self.is_member(src, me) {
                    let depth = self.bind(src, me);
                    let to = self.task(dst);
                    let nbytes = self.eval(bytes).max(0) as u64;
                    self.unbind(depth);
                    if *is_async {
                        let h = ctx.isend(to, *tag, nbytes, &self.world);
                        self.outstanding.push(h);
                    } else {
                        ctx.send(to, *tag, nbytes, &self.world);
                    }
                }
                if !self.plan.explicit_receives {
                    self.auto_receive(src, dst, bytes, *tag, *is_async, ctx);
                }
            }
            Stmt::Receive {
                dst,
                src,
                bytes,
                tag,
                is_async,
            } => {
                if self.is_member(dst, me) {
                    let depth = self.bind(dst, me);
                    let from = match src {
                        None => Src::Any,
                        Some(e) => Src::Rank(self.task(e)),
                    };
                    let nbytes = self.eval(bytes).max(0) as u64;
                    self.unbind(depth);
                    if *is_async {
                        let h = ctx.irecv(from, TagSel::Is(*tag), nbytes, &self.world);
                        self.outstanding.push(h);
                    } else {
                        ctx.recv_deferred(from, TagSel::Is(*tag), nbytes, &self.world);
                    }
                }
            }
            Stmt::Await { tasks } => {
                if !self.outstanding.is_empty() && self.is_member(tasks, me) {
                    ctx.waitall_deferred(&self.outstanding);
                    self.outstanding.clear();
                }
            }
            Stmt::Sync { tasks } => {
                if self.is_member(tasks, me) {
                    ctx.barrier(&self.comm_for(s, tasks));
                }
            }
            Stmt::Multicast { root, tasks, bytes } => match root {
                Some(root) => self.bcast(s, root, tasks, bytes, ctx),
                None => {
                    if self.is_member(tasks, me) {
                        let depth = self.bind(tasks, me);
                        let nbytes = self.eval(bytes).max(0) as u64;
                        let comm = self.comm_for(s, tasks);
                        self.unbind(depth);
                        ctx.alltoall(nbytes, &comm);
                    }
                }
            },
            Stmt::Reduce { tasks, to, bytes } => {
                if self.is_member(tasks, me) {
                    let depth = self.bind(tasks, me);
                    let nbytes = self.eval(bytes).max(0) as u64;
                    let comm = self.comm_for(s, tasks);
                    let root = match to {
                        ReduceTo::All => None,
                        ReduceTo::Task(root) => Some(self.task(root)),
                    };
                    self.unbind(depth);
                    match root {
                        None => ctx.allreduce(nbytes, &comm),
                        Some(root) => {
                            let root_rel = comm
                                .relative_of(root)
                                .expect("REDUCE target inside participant set");
                            ctx.reduce(root_rel, nbytes, &comm);
                        }
                    }
                }
            }
            Stmt::ResetCounters => return self.park(ctx, Wake::Reset),
            Stmt::Log { label } => return self.park(ctx, Wake::Log(label)),
        }
        false
    }

    fn partition(
        &mut self,
        parent: &'p Option<String>,
        groups: &'p [(String, Vec<TaskRun>)],
        ctx: &mut Ctx,
    ) -> bool {
        let me = self.me;
        let me_in_parent = match parent {
            None => true,
            Some(g) => self.groups.get(g.as_str()).is_some_and(|m| m.contains(&me)),
        };
        let parent_comm = match parent {
            None => Some(self.world.clone()),
            Some(g) => self.group_comms.get(g.as_str()).cloned(),
        };
        // The color is the group's smallest task id: globally unique
        // across disjoint groups, so sibling PARTITION statements that
        // realise different groups of the *same* original
        // `MPI_Comm_split` cooperate in one collective split.
        let mut found = None;
        for (name, runs) in groups {
            let members = expand_runs(runs);
            if found.is_none() {
                found = members
                    .iter()
                    .position(|&m| m == me)
                    .map(|idx| (members[0] as i64, idx as i64, name.as_str()));
            }
            self.groups.insert(name, members);
        }
        // Outside the parent (no communicator for it): only record the
        // groups and skip the collective.
        let Some(parent_comm) = parent_comm.filter(|_| me_in_parent) else {
            return false;
        };
        let Some((color, key, my_group)) = found else {
            return false; // this parent task joins a sibling PARTITION
        };
        ctx.comm_split_deferred(&parent_comm, color, key);
        self.park(ctx, Wake::GroupSplit(my_group))
    }

    /// `TASK root MULTICASTS … TO tasks`: `MPI_Bcast` over tasks ∪ {root}.
    fn bcast(&mut self, s: &Stmt, root: &Expr, tasks: &'p TaskSet, bytes: &Expr, ctx: &mut Ctx) {
        let me = self.me;
        let root = self.task(root);
        if !(root == me || self.is_member(tasks, me)) {
            return;
        }
        let depth = self.bind(tasks, me);
        let nbytes = self.eval(bytes).max(0) as u64;
        let resolved = match &tasks.sel {
            TaskSel::Runs(_) => self
                .plan
                .slots
                .get(&stmt_key(s))
                .and_then(|&slot| self.slot_comm(slot)),
            _ => None,
        };
        let comm = resolved.unwrap_or_else(|| {
            let mut members = self.members(tasks);
            if members.contains(&root) {
                self.comm_for(s, tasks)
            } else {
                members.push(root);
                members.sort_unstable();
                self.comm_for_members(&members)
            }
        });
        self.unbind(depth);
        let root_rel = comm.relative_of(root).expect("root in participant comm");
        ctx.bcast(root_rel, nbytes, &comm);
    }

    /// Without explicit RECEIVE statements, a SEND posts the matching
    /// receives on its destinations.
    fn auto_receive(
        &mut self,
        src: &'p TaskSet,
        dst: &Expr,
        bytes: &Expr,
        tag: i32,
        is_async: bool,
        ctx: &mut Ctx,
    ) {
        for s in self.members(src) {
            let depth = self.bind(src, s);
            let to = self.task(dst);
            let nbytes = self.eval(bytes).max(0) as u64;
            self.unbind(depth);
            if to != self.me {
                continue;
            }
            if is_async {
                let h = ctx.irecv(Src::Rank(s), TagSel::Is(tag), nbytes, &self.world);
                self.outstanding.push(h);
            } else {
                ctx.recv_deferred(Src::Rank(s), TagSel::Is(tag), nbytes, &self.world);
            }
        }
    }
}

/// A collective statement (by address) and its constant participants.
type Subject = (usize, Vec<usize>);

/// Scan a program for collective subjects over ad-hoc (non-ALL,
/// non-PARTITION-group) task sets, in first-occurrence order. These need
/// world-collective communicator creation before execution starts. Also
/// returns, per collective statement with a constant participant set (an
/// explicit run set, with a constant root for a rooted multicast), its
/// participants as the statement computes them at run time.
fn collect_adhoc_sets(program: &Program, n: usize) -> (Vec<Vec<usize>>, Vec<Subject>) {
    struct Scan {
        n: usize,
        /// group name → (members, has a partition-created communicator)
        groups: BTreeMap<String, (Vec<usize>, bool)>,
        sets: Vec<Vec<usize>>,
        subjects: Vec<Subject>,
    }
    impl Scan {
        fn add_set(&mut self, members: Vec<usize>) {
            if members.len() < self.n && !members.is_empty() && !self.sets.contains(&members) {
                self.sets.push(members);
            }
        }

        fn subject(&mut self, ts: &TaskSet) -> Option<Vec<usize>> {
            match &ts.sel {
                TaskSel::All => None,
                TaskSel::Single(_) => None,
                TaskSel::Runs(runs) => Some(expand_runs(runs)),
                TaskSel::Group(g) => match self.groups.get(g) {
                    Some((_, true)) => None, // partition-created comm exists
                    Some((members, false)) => Some(members.clone()),
                    None => None, // validation reports this
                },
            }
        }

        fn collective_subject(&mut self, ts: &TaskSet) {
            if let Some(members) = self.subject(ts) {
                self.add_set(members);
            }
        }

        fn block(&mut self, stmts: &[Stmt]) {
            for s in stmts {
                self.stmt(s);
            }
        }

        fn stmt(&mut self, s: &Stmt) {
            match s {
                Stmt::DeclareGroup { name, tasks } => {
                    let members = match &tasks.sel {
                        TaskSel::All => (0..self.n).collect(),
                        TaskSel::Runs(runs) => expand_runs(runs),
                        TaskSel::Group(g) => self
                            .groups
                            .get(g)
                            .map(|(m, _)| m.clone())
                            .unwrap_or_default(),
                        TaskSel::Single(e) if e.is_const() => {
                            vec![eval_const(e).max(0) as usize]
                        }
                        _ => Vec::new(),
                    };
                    self.groups.insert(name.clone(), (members, false));
                }
                Stmt::Partition { groups, .. } => {
                    for (name, runs) in groups {
                        self.groups.insert(name.clone(), (expand_runs(runs), true));
                    }
                }
                Stmt::For { body, .. } | Stmt::ForEach { body, .. } => self.block(body),
                Stmt::If { then_, else_, .. } => {
                    self.block(then_);
                    self.block(else_);
                }
                Stmt::Sync { tasks } | Stmt::Reduce { tasks, .. } => {
                    if let TaskSel::Runs(runs) = &tasks.sel {
                        self.subjects.push((stmt_key(s), expand_runs(runs)));
                    }
                    self.collective_subject(tasks);
                }
                Stmt::Multicast { root, tasks, .. } => {
                    if let TaskSel::Runs(runs) = &tasks.sel {
                        let mut members = expand_runs(runs);
                        match root {
                            None => self.subjects.push((stmt_key(s), members)),
                            Some(r) if r.is_const() => {
                                let root = eval_const(r).rem_euclid(self.n as i64) as usize;
                                if !members.contains(&root) {
                                    members.push(root);
                                    members.sort_unstable();
                                }
                                self.subjects.push((stmt_key(s), members));
                            }
                            Some(_) => {}
                        }
                    }
                    let members = match &tasks.sel {
                        TaskSel::All => None,
                        TaskSel::Runs(runs) => Some(expand_runs(runs)),
                        TaskSel::Group(g) => self.groups.get(g).map(|(m, _)| m.clone()),
                        TaskSel::Single(_) => None,
                    };
                    match (root, members) {
                        (Some(r), Some(mut members)) if r.is_const() => {
                            let root = eval_const(r).max(0) as usize;
                            if !members.contains(&root) {
                                // participants = set ∪ {root}: always ad hoc
                                members.push(root);
                                members.sort_unstable();
                                self.add_set(members);
                            } else {
                                self.collective_subject(tasks);
                            }
                        }
                        (_, Some(_)) => self.collective_subject(tasks),
                        _ => {}
                    }
                }
                _ => {}
            }
        }
    }
    let mut scan = Scan {
        n,
        groups: BTreeMap::new(),
        sets: Vec::new(),
        subjects: Vec::new(),
    };
    scan.block(&program.stmts);
    (scan.sets, scan.subjects)
}
