//! `pipeline_s64`: `commgen --app` on the nine paper apps at 64 ranks,
//! then parsing and running each generated program, as `commgen --run`
//! does.

use super::{kib, Checked, Pass, Workload, PAPER_APPS};
use crate::cpu::{Clock, Times};
use crate::metrics::Metric;
use crate::spans::{Ledger, Spans};
use crate::stages;
use crate::stages::Captured;
use crate::stats::mape_pct;
use conceptual::ast::Program;
use miniapps::App;
use scalatrace::Trace;

pub(super) struct Pipeline {
    names: Vec<&'static str>,
    n: usize,
    warm_n: usize,
    seed: u64,
    apps: Vec<&'static App>,
    /// Last pass, per app: trace, generated program, re-parsed program,
    /// T_app and T_gen in virtual seconds.
    last: Vec<PipelineApp>,
}

struct PipelineApp {
    app: &'static str,
    trace: Trace,
    program: Program,
    parsed: Program,
    t_app: f64,
    t_gen: f64,
}

impl Pipeline {
    pub(super) fn new(seed: u64, tiny: bool) -> Pipeline {
        let (names, n, warm_n) = if tiny {
            (vec!["cg", "is", "lu"], 4, 4)
        } else {
            (PAPER_APPS.to_vec(), 64, 16)
        };
        Pipeline {
            names,
            n,
            warm_n,
            seed,
            apps: Vec::new(),
            last: Vec::new(),
        }
    }
}

impl Workload for Pipeline {
    fn ranks(&self) -> usize {
        self.n
    }

    /// Look up the apps and warm up: one untraced run of each on fewer
    /// ranks.
    fn setup(&mut self, ledger: &mut Ledger) {
        self.apps = ledger
            .step("apps", stages::apps(&self.names, self.n))
            .unwrap_or_default();
        let mut off = Spans::new("setup", false);
        for app in &self.apps {
            let r = stages::run_app(&mut off, app, self.warm_n, self.seed);
            ledger.step(&format!("{}: warm-up run", app.name), r);
        }
    }

    fn pass(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Pass {
        let (n, seed) = (self.n, self.seed);
        let mut pass = Pass::default();
        let (mut commgen, mut bench_run) = (Times::default(), Times::default());
        self.last.clear();
        for app in &self.apps {
            let id = sp.open("app", app.name, n);
            let clock = Clock::start();
            let captured = stages::capture(sp, app, n, seed);
            let Some(Captured { trace, report }) =
                ledger.step(&format!("{}: traced run", app.name), captured)
            else {
                sp.close(id, &[], true);
                continue;
            };
            let generated = stages::generate(sp, app.name, &trace);
            let Some(generated) = ledger.step(&format!("{}: generate", app.name), generated) else {
                sp.close(id, &[], true);
                continue;
            };
            let text = stages::print(sp, app.name, n, &generated.program);
            commgen += clock.read();

            let clock = Clock::start();
            let parsed = stages::parse(sp, app.name, n, &text);
            let outcome = ledger
                .step(&format!("{}: parse", app.name), parsed)
                .and_then(|p| {
                    let out = stages::exec(sp, app.name, n, seed, &p);
                    ledger
                        .step(&format!("{}: run benchmark", app.name), out)
                        .map(|o| (p, o))
                });
            bench_run += clock.read();
            sp.close(id, &[], outcome.is_none());
            pass.programs.push((app.name.to_string(), text));
            if let Some((parsed, outcome)) = outcome {
                self.last.push(PipelineApp {
                    app: app.name,
                    trace,
                    program: generated.program,
                    parsed,
                    t_app: report.total_time.as_secs_f64(),
                    t_gen: outcome.total_time.as_secs_f64(),
                });
            }
        }
        pass.parts = vec![("commgen_s", commgen), ("bench_run_s", bench_run)];
        pass
    }

    /// The untraced and traced run of each app, back to back, and the
    /// generator's stages one by one.
    fn probe(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Vec<Metric> {
        for app in &self.apps {
            let r = stages::run_app(sp, app, self.n, self.seed);
            ledger.step(&format!("{}: untraced run", app.name), r);
            // A traced run right after it, for the capture overhead.
            let r = stages::capture(sp, app, self.n, self.seed);
            ledger.step(&format!("{}: traced run", app.name), r);
        }
        for a in &self.last {
            let r = stages::generator_stages(sp, ledger, a.app, &a.trace, &a.program);
            ledger.step(&format!("{}: generator stages", a.app), r);
        }
        Vec::new()
    }

    /// `parse(print(p)) == p` and E1 for every app.
    fn check(&mut self, sp: &mut Spans, ledger: &mut Ledger, last: &Pass) -> Checked {
        ledger.check(
            "every app completed the pass",
            self.last.len() == self.apps.len(),
            || format!("{} of {} apps", self.last.len(), self.apps.len()),
        );
        for a in &self.last {
            ledger.check(
                &format!("{}: parse(print(p)) == p", a.app),
                a.parsed == a.program,
                || "the re-parsed program differs".to_string(),
            );
            stages::e1(sp, ledger, a.app, self.seed, &a.trace, &a.program);
        }
        let pairs: Vec<(f64, f64)> = self.last.iter().map(|a| (a.t_app, a.t_gen)).collect();
        Checked {
            timing_mape_pct: mape_pct(&pairs),
            program_kb: kib(&last.programs),
        }
    }
}
