//! `generate_p256`: `commgen --trace` on traces of cg, sweep3d, lu and is
//! captured at 256 ranks during set-up.

use super::{kib, Checked, Pass, Workload};
use crate::cpu::Clock;
use crate::metrics::Metric;
use crate::spans::{Ledger, Spans};
use crate::stages;
use crate::stats::mape_pct;
use conceptual::ast::Program;
use miniapps::App;
use scalatrace::Trace;

pub(super) struct Generate {
    names: Vec<&'static str>,
    n: usize,
    /// Smaller rank counts the traced run also generates at, for the
    /// exponent fits.
    fit_ranks: Vec<usize>,
    seed: u64,
    apps: Vec<&'static App>,
    /// `(app, trace text, T_app)` captured at set-up.
    inputs: Vec<(&'static str, String, f64)>,
    /// Last pass, per app: decoded trace and generated program.
    last: Vec<(&'static str, Trace, Program)>,
}

impl Generate {
    pub(super) fn new(seed: u64, tiny: bool) -> Generate {
        let (names, n, fit_ranks) = if tiny {
            (vec!["cg", "lu", "is"], 16, vec![4, 8])
        } else {
            (vec!["cg", "sweep3d", "lu", "is"], 256, vec![16, 64])
        };
        Generate {
            names,
            n,
            fit_ranks,
            seed,
            apps: Vec::new(),
            inputs: Vec::new(),
            last: Vec::new(),
        }
    }
}

impl Workload for Generate {
    fn ranks(&self) -> usize {
        self.n
    }

    /// Capture each app's trace at the workload's rank count and write it
    /// as text. Every repetition must produce the same bytes.
    fn setup(&mut self, ledger: &mut Ledger) {
        self.apps = ledger
            .step("apps", stages::apps(&self.names, self.n))
            .unwrap_or_default();
        let mut off = Spans::new("setup", false);
        let mut inputs = Vec::new();
        for app in &self.apps {
            let captured = stages::capture(&mut off, app, self.n, self.seed);
            if let Some(c) = ledger.step(&format!("{}: capture", app.name), captured) {
                let text = scalatrace::text::to_text(&c.trace);
                inputs.push((app.name, text, c.report.total_time.as_secs_f64()));
            }
        }
        if !self.inputs.is_empty() {
            ledger.check(
                "set-up captures are identical across repetitions",
                inputs == self.inputs,
                || "a repeated capture produced different trace text".to_string(),
            );
        }
        self.inputs = inputs;
    }

    fn pass(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Pass {
        let clock = Clock::start();
        let mut pass = Pass::default();
        self.last.clear();
        for (app, text, _) in &self.inputs {
            let id = sp.open("app", app, self.n);
            let trace = stages::decode(sp, app, self.n, text);
            let generated = ledger
                .step(&format!("{app}: decode"), trace)
                .and_then(|trace| {
                    let g = stages::generate(sp, app, &trace);
                    ledger
                        .step(&format!("{app}: generate"), g)
                        .map(|g| (trace, g))
                });
            let Some((trace, generated)) = generated else {
                sp.close(id, &[], true);
                continue;
            };
            let program_text = stages::print(sp, app, self.n, &generated.program);
            sp.close(id, &[], false);
            pass.programs.push((app.to_string(), program_text));
            self.last.push((app, trace, generated.program));
        }
        pass.parts = vec![("generate_ms", clock.read())];
        pass
    }

    /// The generator's stages one by one at the workload's rank count, and
    /// the same apps captured and generated at the smaller rank counts.
    fn probe(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Vec<Metric> {
        for (app, trace, program) in &self.last {
            let r = stages::generator_stages(sp, ledger, app, trace, program);
            ledger.step(&format!("{app}: generator stages"), r);
        }
        for &p in &self.fit_ranks {
            for app in &self.apps {
                sp.set_on(false);
                let captured = stages::capture(sp, app, p, self.seed);
                sp.set_on(true);
                let Some(c) = ledger.step(&format!("{}@{p}: capture", app.name), captured) else {
                    continue;
                };
                let text = scalatrace::text::to_text(&c.trace);
                let trace = stages::decode(sp, app.name, p, &text);
                let Some(trace) = ledger.step(&format!("{}@{p}: decode", app.name), trace) else {
                    continue;
                };
                let generated = stages::generate(sp, app.name, &trace);
                if let Some(g) = ledger.step(&format!("{}@{p}: generate", app.name), generated) {
                    let r = stages::generator_stages(sp, ledger, app.name, &trace, &g.program);
                    ledger.step(&format!("{}@{p}: generator stages", app.name), r);
                }
            }
        }
        Vec::new()
    }

    /// `parse(print(p)) == p`, and E1 at the workload's rank count, whose
    /// runs also give T_gen for the timing error.
    fn check(&mut self, sp: &mut Spans, ledger: &mut Ledger, last: &Pass) -> Checked {
        ledger.check(
            "every trace completed the pass",
            self.last.len() == self.inputs.len() && !self.inputs.is_empty(),
            || format!("{} of {} traces", self.last.len(), self.inputs.len()),
        );
        let mut pairs = Vec::new();
        for ((app, trace, program), (_, text)) in self.last.iter().zip(&last.programs) {
            let parsed = stages::parse(sp, app, self.n, text);
            if let Some(parsed) = ledger.step(&format!("{app}: parse"), parsed) {
                ledger.check(
                    &format!("{app}: parse(print(p)) == p"),
                    parsed == *program,
                    || "the re-parsed program differs".to_string(),
                );
            }
            let t_app = self
                .inputs
                .iter()
                .find(|(a, _, _)| a == app)
                .map_or(0.0, |i| i.2);
            if let Some(t_gen) = stages::e1(sp, ledger, app, self.seed, trace, program) {
                pairs.push((t_app, t_gen));
            }
        }
        Checked {
            timing_mape_pct: mape_pct(&pairs),
            program_kb: kib(&last.programs),
        }
    }
}
