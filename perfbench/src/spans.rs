//! In-memory spans around the benchmark's calls into each layer, and the
//! ledger of attempted and failed steps.
//!
//! A span records its name, start and end, the span that encloses it, the
//! workload, app and rank count it belongs to, the round (one timed pass,
//! or the probe round that follows the passes), the CPU time the process
//! used and the bytes it allocated while the span was open, and named work
//! counts (ops, events, nodes, bytes, …). Only one layer call runs at a
//! time, so the process's CPU time during a span is that call's.
//! Recording is off in the end-to-end run; spans are kept in memory and
//! written out once, at the end of the traced run.

use crate::alloc;
use crate::cpu::cpu_seconds;
use std::fmt::Display;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or step name, e.g. `scalatrace.merge`.
    pub name: &'static str,
    /// App the span worked on (empty for round-level spans).
    pub app: String,
    /// Rank count of that app's run or trace.
    pub ranks: usize,
    /// Round index: a timed pass, or the probe round after the passes.
    pub round: usize,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// CPU time, every thread, in ns.
    pub cpu_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Bytes allocated (by any thread) while the span was open.
    pub alloc_bytes: u64,
    /// Named work counts.
    pub counts: Vec<(&'static str, u64)>,
    /// Did the call the span wraps fail?
    pub error: bool,
}

impl Span {
    /// A named count, 0 when absent.
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .sum()
    }
}

/// Handle of an open span; inert when recording is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// The span recorder.
pub struct Spans {
    on: bool,
    workload: &'static str,
    t0: Instant,
    round: usize,
    spans: Vec<Span>,
    /// Per span: the readings taken when it opened.
    opened: Vec<Stamp>,
    stack: Vec<usize>,
}

/// Clock and counter readings at one instant.
#[derive(Clone, Copy)]
struct Stamp {
    wall_ns: u64,
    cpu_s: f64,
    alloc_total: u64,
}

impl Spans {
    /// A recorder for `workload`; records nothing unless `on`.
    pub fn new(workload: &'static str, on: bool) -> Spans {
        Spans {
            on,
            workload,
            t0: Instant::now(),
            round: 0,
            spans: Vec::new(),
            opened: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off for spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag spans opened from now on with `round`.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, app: &str, ranks: usize) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let stamp = self.stamp();
        self.spans.push(Span {
            name,
            app: app.to_string(),
            ranks,
            round: self.round,
            start_ns: stamp.wall_ns,
            end_ns: 0,
            cpu_ns: 0,
            parent: self.stack.last().copied(),
            alloc_bytes: 0,
            counts: Vec::new(),
            error: false,
        });
        self.opened.push(stamp);
        self.stack.push(id);
        SpanId(Some(id))
    }

    fn stamp(&self) -> Stamp {
        Stamp {
            wall_ns: self.t0.elapsed().as_nanos() as u64,
            cpu_s: cpu_seconds(),
            alloc_total: alloc::total_bytes(),
        }
    }

    /// Close `id` (and anything left open inside it), recording its work
    /// counts and whether the wrapped call failed.
    pub fn close(&mut self, id: SpanId, counts: &[(&'static str, u64)], error: bool) {
        if id.0.is_some() {
            let now = self.stamp();
            self.close_at(id, now, counts, error);
        }
    }

    fn close_at(&mut self, id: SpanId, now: Stamp, counts: &[(&'static str, u64)], error: bool) {
        let Some(id) = id.0 else { return };
        while let Some(top) = self.stack.pop() {
            let opened = self.opened[top];
            let span = &mut self.spans[top];
            span.end_ns = now.wall_ns;
            span.cpu_ns = ((now.cpu_s - opened.cpu_s).max(0.0) * 1e9) as u64;
            span.alloc_bytes = now.alloc_total - opened.alloc_total;
            if top == id {
                span.counts.extend_from_slice(counts);
                span.error = error;
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`; `counts` reports the work done,
    /// from the result, after the span's clock has stopped. An `Err` marks
    /// the span failed.
    pub fn time<T, E>(
        &mut self,
        name: &'static str,
        app: &str,
        ranks: usize,
        f: impl FnOnce() -> Result<T, E>,
        counts: impl FnOnce(&T) -> Vec<(&'static str, u64)>,
    ) -> Result<T, E> {
        let id = self.open(name, app, ranks);
        let out = f();
        if id.0.is_some() {
            let now = self.stamp();
            let counts = out.as_ref().map_or_else(|_| Vec::new(), counts);
            self.close_at(id, now, &counts, out.is_err());
        }
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"name\":\"{}\",\"workload\":\"{}\",\"app\":\"{}\",\"ranks\":{},\"round\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"parent\":{},\"alloc_bytes\":{},\"error\":{},\
                 \"counts\":{{{}}}}}",
                s.name,
                self.workload,
                s.app,
                s.ranks,
                s.round,
                s.start_ns,
                s.end_ns,
                s.cpu_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.alloc_bytes,
                s.error,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}

/// Steps attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// (app, stage) steps and output checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Count a step; on `Err` count a failure and return `None`.
    pub fn step<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count an output check; on `false` count a failure described by
    /// `detail`.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("{what}: {}", detail()));
        }
    }

    fn fail(&mut self, line: String) {
        self.failed += 1;
        self.failures.push(line);
    }

    /// Failed ÷ attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_counts() {
        let mut s = Spans::new("w", true);
        let outer = s.open("pass", "", 0);
        let r: Result<u32, String> =
            s.time("inner", "cg", 64, || Ok(7), |v| vec![("n", *v as u64)]);
        assert_eq!(r, Ok(7));
        s.close(outer, &[], false);
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count("n"), 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn failed_call_marks_the_span_and_off_records_nothing() {
        let mut s = Spans::new("w", true);
        let _ = s.time::<u8, _>("x", "a", 1, || Err("boom"), |_| vec![]);
        assert!(s.spans()[0].error);
        let mut off = Spans::new("w", false);
        let _ = off.time::<u8, &str>("x", "a", 1, || Ok(1), |_| vec![]);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn ledger_counts_steps_and_checks() {
        let mut l = Ledger::default();
        assert_eq!(l.step("a", Ok::<_, String>(1)), Some(1));
        assert_eq!(l.step::<u8, _>("b", Err("bad")), None);
        l.check("c", true, String::new);
        l.check("d", false, || "mismatch".into());
        assert_eq!((l.attempted, l.failed), (4, 2));
        assert_eq!(l.fail_frac(), 0.5);
        assert_eq!(
            l.failures,
            vec!["b: bad".to_string(), "d: mismatch".to_string()]
        );
    }
}
