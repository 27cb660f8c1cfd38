//! Per-layer metrics, derived from the traced run's spans.
//!
//! Times are CPU times (every thread). Times in ms are the median, over the
//! rounds in which the layer worked, of its summed span time per round; per-unit costs divide the layer's
//! total time by its total work. A layer that did no work on a workload
//! reports 0.

use crate::spans::Span;
use crate::stats::{fit_exponent, median};
use std::collections::BTreeMap;

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The layers, named by module. Spans named `campaign.*` belong to
/// `campaign`.
pub const LAYERS: [&str; 12] = [
    "mpisim",
    "scalatrace.collect",
    "scalatrace.merge",
    "scalatrace.text",
    "benchgen.align",
    "benchgen.wildcard",
    "benchgen.codegen",
    "conceptual.printer",
    "conceptual.parser",
    "conceptual.interp",
    "benchgen.verify",
    "campaign",
];

/// Every per-layer metric the traced run reports, with its unit, in output
/// order. `<layer>.alloc_mb` and `<layer>.errors` follow for every layer,
/// and `trace_overhead_pct` comes last.
pub const LAYER_METRICS: [(&str, &str); 28] = [
    ("mpisim.ns_per_op", "ns/op"),
    ("mpisim.ops", "count"),
    ("scalatrace.capture_overhead_pct", "%"),
    ("scalatrace.events_per_node", "ratio"),
    ("scalatrace.merge_ms", "ms"),
    ("scalatrace.merge_ns_per_node", "ns/node"),
    ("scalatrace.decode_ms", "ms"),
    ("scalatrace.decode_mb_per_s", "MB/s"),
    ("benchgen.align_ms", "ms"),
    ("benchgen.align_ns_per_event", "ns/event"),
    ("benchgen.align_p_exp", "exponent"),
    ("benchgen.resolve_ms", "ms"),
    ("benchgen.wildcards_resolved", "count"),
    ("benchgen.resolve_p_exp", "exponent"),
    ("benchgen.codegen_ms", "ms"),
    ("benchgen.program_stmts", "count"),
    ("conceptual.print_ms", "ms"),
    ("conceptual.print_mb_per_s", "MB/s"),
    ("conceptual.parse_ms", "ms"),
    ("conceptual.parse_mb_per_s", "MB/s"),
    ("conceptual.exec_ns_per_op", "ns/op"),
    ("conceptual.exec_ops", "count"),
    ("benchgen.verify_ms", "ms"),
    ("campaign.job_ms_p50", "ms"),
    ("campaign.queue_wait_ms_p50", "ms"),
    ("campaign.cache_store_ms", "ms"),
    ("campaign.cache_load_ms", "ms"),
    ("campaign.warm_hit_ratio", "ratio"),
];

/// Every per-layer metric name and unit, in output order.
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for layer in LAYERS {
        out.push((format!("{layer}.alloc_mb"), "MiB"));
        out.push((format!("{layer}.errors"), "count"));
    }
    out.push(("trace_overhead_pct".to_string(), "%"));
    out
}

fn layer_of(span: &Span) -> Option<&'static str> {
    if span.name.starts_with("campaign.") {
        return Some("campaign");
    }
    LAYERS.iter().copied().find(|l| *l == span.name)
}

/// One layer's spans, summed per round.
#[derive(Default)]
struct Agg {
    /// round → (ns, alloc bytes)
    rounds: BTreeMap<usize, (u64, u64)>,
    ns: u64,
    counts: BTreeMap<&'static str, u64>,
    /// round → summed counts
    round_counts: BTreeMap<usize, BTreeMap<&'static str, u64>>,
    /// Time of spans that did the stage's work (`events` > 0).
    working_ns: u64,
    errors: u64,
}

impl Agg {
    fn ms(&self) -> f64 {
        let per_round: Vec<f64> = self.rounds.values().map(|r| r.0 as f64).collect();
        median(&per_round) / 1e6
    }

    fn alloc_mb(&self) -> f64 {
        let per_round: Vec<f64> = self.rounds.values().map(|r| r.1 as f64).collect();
        median(&per_round) / (1024.0 * 1024.0)
    }

    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0) as f64
    }

    /// Median over rounds of the per-round sum of a count.
    fn round_count(&self, key: &str) -> f64 {
        let per_round: Vec<f64> = self
            .round_counts
            .values()
            .map(|c| c.get(key).copied().unwrap_or(0) as f64)
            .collect();
        median(&per_round)
    }

    fn per_unit(&self, ns: u64, key: &str) -> f64 {
        ratio(ns as f64, self.count(key))
    }

    fn mb_per_s(&self) -> f64 {
        // bytes per ns × 1000 = MB per s
        ratio(self.count("bytes") * 1000.0, self.ns as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn aggregate<'a>(spans: impl Iterator<Item = &'a Span>) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let Some(layer) = layer_of(s) else { continue };
        let a = out.entry(layer).or_default();
        let r = a.rounds.entry(s.round).or_default();
        r.0 += s.cpu_ns;
        r.1 += s.alloc_bytes;
        a.ns += s.cpu_ns;
        let rc = a.round_counts.entry(s.round).or_default();
        for (k, v) in &s.counts {
            *a.counts.entry(k).or_default() += v;
            *rc.entry(k).or_default() += v;
        }
        if s.count("events") > 0 {
            a.working_ns += s.cpu_ns;
        }
        a.errors += s.error as u64;
    }
    out
}

/// Summed CPU ms of the spans named `name`.
fn named_ms(spans: &[&Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.cpu_ns as f64)
        .sum::<f64>()
        / 1e6
}

/// The generator stage exponent in P: the fit of the stage's summed time
/// over the apps for which it did work at every rank count present.
pub fn stage_exponent(spans: &[&Span], stage: &str) -> f64 {
    let stage_spans: Vec<&Span> = spans.iter().copied().filter(|s| s.name == stage).collect();
    let mut ranks: Vec<usize> = stage_spans.iter().map(|s| s.ranks).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut apps: Vec<&str> = stage_spans
        .iter()
        .filter(|s| s.count("events") > 0)
        .map(|s| s.app.as_str())
        .collect();
    apps.sort_unstable();
    apps.dedup();
    // Keep apps whose stage ran at every rank count.
    apps.retain(|app| {
        ranks.iter().all(|&p| {
            stage_spans
                .iter()
                .any(|s| s.app == *app && s.ranks == p && s.count("events") > 0)
        })
    });
    if apps.is_empty() {
        return 0.0;
    }
    let points: Vec<(f64, f64)> = ranks
        .iter()
        .map(|&p| {
            let ns: u64 = stage_spans
                .iter()
                .filter(|s| s.ranks == p && apps.contains(&s.app.as_str()))
                .map(|s| s.cpu_ns)
                .sum();
            (p as f64, ns as f64)
        })
        .collect();
    fit_exponent(&points)
}

/// Per-layer metrics over `spans`, in [`layer_metric_names`] order.
/// `extra` supplies the values spans cannot give (the campaign's telemetry
/// figures, exponents, the traced run's overhead); anything not found in
/// either is 0.
pub fn layer_metrics(spans: &[&Span], extra: &[Metric]) -> Vec<Metric> {
    let aggs = aggregate(spans.iter().copied());
    let empty = Agg::default();
    let a = |l: &str| aggs.get(l).unwrap_or(&empty);
    let mpisim = a("mpisim");
    let collect = a("scalatrace.collect");
    let merge = a("scalatrace.merge");
    let text = a("scalatrace.text");
    let align = a("benchgen.align");
    let wildcard = a("benchgen.wildcard");
    let codegen = a("benchgen.codegen");
    let printer = a("conceptual.printer");
    let parser = a("conceptual.parser");
    let interp = a("conceptual.interp");
    let verify = a("benchgen.verify");
    // Traced against untraced runs of the same apps, taken only from the
    // rounds that hold both, so that the host's speed is the same for each.
    let both = |agg: &Agg| -> f64 {
        agg.rounds
            .iter()
            .filter(|(r, _)| collect.rounds.contains_key(r) && mpisim.rounds.contains_key(r))
            .map(|(_, (ns, _))| *ns as f64)
            .sum()
    };
    let capture_overhead = ratio(both(collect) - both(mpisim), both(mpisim)) * 100.0;
    let computed: Vec<(&str, f64)> = vec![
        ("mpisim.ns_per_op", mpisim.per_unit(mpisim.ns, "ops")),
        ("mpisim.ops", mpisim.round_count("ops")),
        ("scalatrace.capture_overhead_pct", capture_overhead),
        (
            "scalatrace.events_per_node",
            ratio(collect.count("events"), merge.count("nodes")),
        ),
        ("scalatrace.merge_ms", merge.ms()),
        (
            "scalatrace.merge_ns_per_node",
            merge.per_unit(merge.ns, "nodes_in"),
        ),
        ("scalatrace.decode_ms", text.ms()),
        ("scalatrace.decode_mb_per_s", text.mb_per_s()),
        ("benchgen.align_ms", align.ms()),
        (
            "benchgen.align_ns_per_event",
            align.per_unit(align.working_ns, "events"),
        ),
        ("benchgen.resolve_ms", wildcard.ms()),
        (
            "benchgen.wildcards_resolved",
            wildcard.round_count("resolved"),
        ),
        ("benchgen.codegen_ms", codegen.ms()),
        ("benchgen.program_stmts", codegen.round_count("stmts")),
        ("conceptual.print_ms", printer.ms()),
        ("conceptual.print_mb_per_s", printer.mb_per_s()),
        ("conceptual.parse_ms", parser.ms()),
        ("conceptual.parse_mb_per_s", parser.mb_per_s()),
        (
            "conceptual.exec_ns_per_op",
            interp.per_unit(interp.ns, "ops"),
        ),
        ("conceptual.exec_ops", interp.round_count("ops")),
        ("benchgen.verify_ms", verify.ms()),
        (
            "campaign.cache_store_ms",
            named_ms(spans, "campaign.cache_store"),
        ),
        (
            "campaign.cache_load_ms",
            named_ms(spans, "campaign.cache_load"),
        ),
    ];
    layer_metric_names()
        .into_iter()
        .map(|(name, unit)| {
            let from_extra = extra.iter().find(|m| m.name == name).map(|m| m.value);
            let from_spans = computed
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .or_else(|| {
                    let (layer, what) = name.rsplit_once('.')?;
                    let agg = a(layer);
                    match what {
                        "alloc_mb" => Some(agg.alloc_mb()),
                        "errors" => Some(agg.errors as f64),
                        _ => None,
                    }
                });
            Metric {
                value: from_extra.or(from_spans).unwrap_or(0.0),
                name,
                unit,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, app: &str, ranks: usize, round: usize, ns: u64) -> Span {
        Span {
            name,
            app: app.to_string(),
            ranks,
            round,
            start_ns: 0,
            end_ns: ns,
            cpu_ns: ns,
            parent: None,
            alloc_bytes: 1024 * 1024,
            counts: vec![("events", 100), ("ops", 10)],
            error: false,
        }
    }

    #[test]
    fn layer_time_is_the_median_round_sum() {
        let spans = [
            span("scalatrace.merge", "a", 4, 1, 1_000_000),
            span("scalatrace.merge", "b", 4, 1, 1_000_000),
            span("scalatrace.merge", "a", 4, 2, 5_000_000),
            span("scalatrace.merge", "a", 4, 3, 3_000_000),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let m = layer_metrics(&refs, &[]);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("scalatrace.merge_ms"), 3.0);
        assert_eq!(get("scalatrace.merge.alloc_mb"), 1.0);
        assert_eq!(get("mpisim.ops"), 0.0);
        assert_eq!(m.len(), layer_metric_names().len());
    }

    #[test]
    fn capture_overhead_compares_rounds_holding_both_runs() {
        let spans = [
            span("scalatrace.collect", "a", 4, 1, 9_000),
            span("scalatrace.collect", "a", 4, 2, 1_100),
            span("mpisim", "a", 4, 2, 1_000),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let m = layer_metrics(&refs, &[]);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert!((get("scalatrace.capture_overhead_pct") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn per_unit_cost_and_extras() {
        let spans = [
            span("mpisim", "a", 4, 1, 1000),
            span("mpisim", "b", 4, 1, 3000),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let m = layer_metrics(&refs, &[Metric::new("trace_overhead_pct", 4.5, "%")]);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("mpisim.ns_per_op"), 200.0);
        assert_eq!(get("mpisim.ops"), 20.0);
        assert_eq!(get("trace_overhead_pct"), 4.5);
    }

    #[test]
    fn exponent_uses_apps_present_at_every_rank_count() {
        let spans = [
            span("benchgen.align", "cg", 64, 9, 1_000),
            span("benchgen.align", "cg", 256, 9, 16_000),
            // only at one rank count: ignored
            span("benchgen.align", "sweep3d", 256, 9, 99_000),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let k = stage_exponent(&refs, "benchgen.align");
        assert!((k - 2.0).abs() < 1e-9, "{k}");
        assert_eq!(stage_exponent(&refs, "benchgen.wildcard"), 0.0);
    }
}
