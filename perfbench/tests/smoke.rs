//! Tiny-size smoke runs of every workload, end-to-end and traced, and a
//! check that `BENCHMARK.json` lists exactly the metrics the code reports.

use perfbench::metrics::layer_metric_names;
use perfbench::workloads::{run, Config, Size, WORKLOADS};
use std::path::PathBuf;

const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("program_kb", "KiB"),
    ("timing_mape_pct", "%"),
];

fn tiny(workload: &str, seed: u64, trace: bool) -> perfbench::workloads::Report {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    run(&cfg).expect("known workload")
}

fn assert_clean(workload: &str, r: &perfbench::workloads::Report) {
    assert_eq!(r.ledger.failed, 0, "{workload}: {:?}", r.ledger.failures);
    assert!(r.ledger.attempted > 0);
    assert!(r.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn every_workload_runs_end_to_end_at_tiny_size() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        let r = tiny(w, 10 + i as u64, false);
        assert_clean(w, &r);
        let got: Vec<(&str, &str)> = r
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(got, E2E, "{w}");
        assert!(
            r.metrics.iter().all(|m| m.value > 0.0),
            "{w}: {:?}",
            r.metrics
        );
    }
}

#[test]
fn every_workload_runs_traced_at_tiny_size() {
    for (i, w) in WORKLOADS.iter().enumerate() {
        let r = tiny(w, 20 + i as u64, true);
        assert_clean(w, &r);
        let got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
        let want: Vec<String> = layer_metric_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(got, want, "{w}");
        assert!(
            r.lines.iter().any(|l| l.starts_with("row app=")),
            "{w}: per-app rows"
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let cfg = Config {
        workload: "nope".to_string(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    };
    assert!(run(&cfg).is_err());
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    let listed = |name: &str, unit: &str| {
        compact.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\""))
    };
    for (name, unit) in E2E {
        assert!(listed(name, unit), "end_to_end {name} ({unit}) missing");
    }
    let layer = layer_metric_names();
    for (name, unit) in &layer {
        assert!(listed(name, unit), "per_layer {name} ({unit}) missing");
    }
    let entries = compact.matches("{\"name\":").count();
    assert_eq!(entries, WORKLOADS.len() + E2E.len() + layer.len());
    for w in WORKLOADS {
        assert!(
            compact.contains(&format!("{{\"name\":\"{w}\",\"why\"")),
            "{w}"
        );
    }
}
