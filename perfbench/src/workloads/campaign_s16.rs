//! `campaign_s16`: a cold campaign into an empty trace cache, then a warm
//! one over the same cache, over the paper apps and ring at 16 ranks.

use super::{kib, Checked, Config, Pass, Workload, PAPER_APPS};
use crate::cpu::Clock;
use crate::metrics::Metric;
use crate::spans::{Ledger, Spans};
use crate::stages;
use crate::stats::median;
use campaign::journal::parse_line;
use campaign::{CampaignReport, CampaignSpec, Outcome, Telemetry, TraceCache};
use conceptual::ast::Program;
use miniapps::{App, Class};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

pub(super) struct Campaign {
    spec: CampaignSpec,
    seed: u64,
    names: Vec<&'static str>,
    dir: PathBuf,
    apps: Vec<&'static App>,
    /// Per job of every campaign (cold and warm): `finished.wall_ms`, and
    /// `started.t_ms − queued.t_ms`.
    job_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    /// Warm-pass cache hits and jobs, over all passes.
    warm_hits: (usize, usize),
    /// Reports of the last pass.
    last: Option<(CampaignReport, CampaignReport)>,
}

/// A `Write` sink whose bytes can be read back after the campaign runner
/// has dropped its telemetry.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("telemetry buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Deterministic Fisher–Yates shuffle driven by splitmix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

impl Campaign {
    pub(super) fn new(cfg: &Config, tiny: bool) -> Campaign {
        let (mut names, n) = if tiny {
            (vec!["ring", "cg", "lu"], 4)
        } else {
            let mut all = vec!["ring"];
            all.extend(PAPER_APPS);
            (all, 16)
        };
        // The seed orders the jobs.
        shuffle(&mut names, cfg.seed);
        let spec = CampaignSpec {
            apps: names.iter().map(|s| s.to_string()).collect(),
            ranks: vec![n],
            classes: vec![Class::S],
            networks: vec!["bgl".to_string()],
            workers: 1,
            timeout_secs: 120,
            retries: 0,
            ..CampaignSpec::default()
        };
        Campaign {
            spec,
            seed: cfg.seed,
            names,
            dir: cfg.out_dir.join(format!(
                "campaign-cache-seed{}-pid{}",
                cfg.seed,
                std::process::id()
            )),
            apps: Vec::new(),
            job_ms: Vec::new(),
            queue_wait_ms: Vec::new(),
            warm_hits: (0, 0),
            last: None,
        }
    }

    fn n(&self) -> usize {
        self.spec.ranks[0]
    }

    fn run_campaign(&mut self) -> Result<CampaignReport, String> {
        let cache = TraceCache::open(&self.dir)
            .map_err(|e| format!("cannot open cache {}: {e}", self.dir.display()))?;
        let buf = SharedBuf::default();
        let report = campaign::run_campaign(
            &self.spec,
            cache,
            Telemetry::to_writer(Box::new(buf.clone())),
        );
        let bytes = buf.0.lock().expect("telemetry buffer poisoned");
        let (job_ms, waits) = telemetry_durations(String::from_utf8_lossy(&bytes).lines());
        self.job_ms.extend(job_ms);
        self.queue_wait_ms.extend(waits);
        Ok(report)
    }

    /// `(app, text, program)` of each job of the last warm campaign,
    /// generated and printed from the trace the job left in the cache.
    fn warm_programs(&self, ledger: &mut Ledger) -> Vec<(String, String, Program)> {
        let Some((_, warm)) = &self.last else {
            return Vec::new();
        };
        // Not a layer measurement: the probe round times these stages once
        // per app.
        let sp = &mut Spans::new("check", false);
        let cache = ledger.step(
            "open warm cache",
            TraceCache::open(&self.dir).map_err(|e| e.to_string()),
        );
        let mut programs = Vec::new();
        for row in &warm.rows {
            let app = row.job.app.as_str();
            let hit = cache
                .as_ref()
                .and_then(|c| c.load(row.job.trace_key()))
                .ok_or("trace missing from the cache");
            let Some(hit) = ledger.step(&format!("{app}: cached trace"), hit) else {
                continue;
            };
            let generated = stages::generate(sp, app, &hit.trace);
            let Some(g) = ledger.step(&format!("{app}: generate"), generated) else {
                continue;
            };
            let text = stages::print(sp, app, hit.trace.nranks, &g.program);
            programs.push((app.to_string(), text, g.program));
        }
        programs
    }

    fn check_report(ledger: &mut Ledger, what: &str, report: &CampaignReport) {
        ledger.check(&format!("{what} campaign: all_ok"), report.all_ok(), || {
            report
                .rows
                .iter()
                .filter_map(|r| match &r.outcome {
                    Outcome::Done(_) => None,
                    _ => Some(r.job.id()),
                })
                .collect::<Vec<_>>()
                .join(", ")
        });
        ledger.check(
            &format!("{what} campaign: every job passes E1"),
            report.verified() == report.rows.len(),
            || format!("{} of {} verified", report.verified(), report.rows.len()),
        );
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per job, `finished.wall_ms` and `started.t_ms − queued.t_ms`, from one
/// campaign's telemetry lines.
fn telemetry_durations<'a>(lines: impl Iterator<Item = &'a str>) -> (Vec<f64>, Vec<f64>) {
    let mut job_ms = Vec::new();
    let mut waits = Vec::new();
    // A campaign's job ids are unique, so a `queued` time pairs with the
    // next `started` of the same job.
    let mut queued: std::collections::HashMap<String, f64> = Default::default();
    for line in lines {
        let Some(f) = parse_line(line) else { continue };
        let (Some(event), Some(job)) = (f.get("event"), f.get("job")) else {
            continue;
        };
        let t_ms = f.get("t_ms").and_then(|t| t.parse::<f64>().ok());
        match event.as_str() {
            "queued" => {
                if let Some(t) = t_ms {
                    queued.insert(job.clone(), t);
                }
            }
            "started" => {
                if let (Some(t), Some(q)) = (t_ms, queued.remove(job)) {
                    waits.push(t - q);
                }
            }
            "finished" => {
                if let Some(w) = f.get("wall_ms").and_then(|w| w.parse::<f64>().ok()) {
                    job_ms.push(w);
                }
            }
            _ => {}
        }
    }
    (job_ms, waits)
}

impl Workload for Campaign {
    fn ranks(&self) -> usize {
        self.n()
    }

    /// Look up the apps and warm up: one untraced run of each.
    fn setup(&mut self, ledger: &mut Ledger) {
        self.apps = ledger
            .step("apps", stages::apps(&self.names, self.n()))
            .unwrap_or_default();
        let mut off = Spans::new("setup", false);
        for app in &self.apps {
            let r = stages::run_app(&mut off, app, self.n(), self.seed);
            ledger.step(&format!("{}: warm-up run", app.name), r);
        }
    }

    fn pass(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Pass {
        let _ = std::fs::remove_dir_all(&self.dir);
        let mut pass = Pass::default();
        let n = self.n();
        let clock = Clock::start();
        let id = sp.open("campaign.cold", "", n);
        let cold = self.run_campaign();
        sp.close(id, &[], cold.is_err());
        let cold_time = clock.read();
        let clock = Clock::start();
        let id = sp.open("campaign.warm", "", n);
        let warm = self.run_campaign();
        sp.close(id, &[], warm.is_err());
        pass.parts = vec![
            ("campaign_cold_s", cold_time),
            ("campaign_warm_s", clock.read()),
        ];
        let (Some(cold), Some(warm)) = (
            ledger.step("cold campaign", cold),
            ledger.step("warm campaign", warm),
        ) else {
            return pass;
        };
        Self::check_report(ledger, "cold", &cold);
        Self::check_report(ledger, "warm", &warm);
        ledger.check(
            "warm campaign hits the cache on every job",
            warm.cache_hits() == warm.rows.len(),
            || format!("{} of {} hits", warm.cache_hits(), warm.rows.len()),
        );
        self.warm_hits.0 += warm.cache_hits();
        self.warm_hits.1 += warm.rows.len();
        self.last = Some((cold, warm));
        pass
    }

    /// Every stage once per app, as the campaign's jobs call them, plus the
    /// trace cache's store and load.
    fn probe(&mut self, sp: &mut Spans, ledger: &mut Ledger) -> Vec<Metric> {
        let (n, seed) = (self.n(), self.seed);
        let probe_dir = self.dir.with_extension("probe");
        let _ = std::fs::remove_dir_all(&probe_dir);
        let cache = ledger.step(
            "probe cache",
            TraceCache::open(&probe_dir).map_err(|e| e.to_string()),
        );
        for app in &self.apps {
            let r = stages::run_app(sp, app, n, seed);
            ledger.step(&format!("{}: untraced run", app.name), r);
            let captured = stages::capture(sp, app, n, seed);
            let Some(c) = ledger.step(&format!("{}: traced run", app.name), captured) else {
                continue;
            };
            if let Some(cache) = &cache {
                let key = campaign::hash::fnv1a(app.name.as_bytes());
                let stored = sp.time(
                    "campaign.cache_store",
                    app.name,
                    n,
                    || cache.store(key, &c.trace, c.report.total_time, &[]),
                    |_| vec![],
                );
                ledger.step(&format!("{}: cache store", app.name), stored);
                let loaded = sp.time(
                    "campaign.cache_load",
                    app.name,
                    n,
                    || cache.load(key).ok_or("cache miss"),
                    |_| vec![],
                );
                if let Some(hit) = ledger.step(&format!("{}: cache load", app.name), loaded) {
                    ledger.check(
                        &format!("{}: cache round trip", app.name),
                        hit.trace == c.trace,
                        || "loaded trace differs from the stored one".to_string(),
                    );
                }
            }
            let generated = stages::generate(sp, app.name, &c.trace);
            let Some(g) = ledger.step(&format!("{}: generate", app.name), generated) else {
                continue;
            };
            let r = stages::generator_stages(sp, ledger, app.name, &c.trace, &g.program);
            ledger.step(&format!("{}: generator stages", app.name), r);
            let text = stages::print(sp, app.name, n, &g.program);
            let parsed = stages::parse(sp, app.name, n, &text);
            if let Some(p) = ledger.step(&format!("{}: parse", app.name), parsed) {
                let out = stages::exec(sp, app.name, n, seed, &p);
                ledger.step(&format!("{}: run benchmark", app.name), out);
            }
        }
        let _ = std::fs::remove_dir_all(&probe_dir);
        vec![
            Metric::new("campaign.job_ms_p50", median(&self.job_ms), "ms"),
            Metric::new(
                "campaign.queue_wait_ms_p50",
                median(&self.queue_wait_ms),
                "ms",
            ),
            Metric::new(
                "campaign.warm_hit_ratio",
                self.warm_hits.0 as f64 / self.warm_hits.1.max(1) as f64,
                "ratio",
            ),
        ]
    }

    fn programs(&mut self, ledger: &mut Ledger, _last: &Pass) -> Vec<(String, String)> {
        self.warm_programs(ledger)
            .into_iter()
            .map(|(app, text, _)| (app, text))
            .collect()
    }

    /// Every job's program, regenerated from the warm cache, must
    /// round-trip through the parser. The campaign's own E1 verdicts were
    /// checked in each pass.
    fn check(&mut self, _sp: &mut Spans, ledger: &mut Ledger, _last: &Pass) -> Checked {
        let Some((_, warm)) = &self.last else {
            ledger.check("campaign completed", false, || {
                "no campaign report".to_string()
            });
            return Checked {
                timing_mape_pct: 0.0,
                program_kb: 0.0,
            };
        };
        let timing_mape_pct = warm.mape();
        let programs = self.warm_programs(ledger);
        // Not a layer measurement: the probe round already timed parsing
        // once per app.
        let sp = &mut Spans::new("check", false);
        for (app, text, program) in &programs {
            let parsed = stages::parse(sp, app, self.n(), text);
            if let Some(p) = ledger.step(&format!("{app}: parse"), parsed) {
                ledger.check(
                    &format!("{app}: parse(print(p)) == p"),
                    p == *program,
                    || "the re-parsed program differs".to_string(),
                );
            }
        }
        let texts: Vec<(String, String)> = programs
            .into_iter()
            .map(|(app, text, _)| (app, text))
            .collect();
        Checked {
            timing_mape_pct,
            program_kb: kib(&texts),
        }
    }
}
