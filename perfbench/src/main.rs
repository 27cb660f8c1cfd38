//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]`
//!
//! Prints a human-readable report, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero on a
//! usage error; a failed check shows as `"correct": false`.

use perfbench::metrics::Metric;
use perfbench::workloads::{self, Config, Size};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--size full|tiny]";

fn parse_args(argv: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: std::path::PathBuf::from(".bench_out"),
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (expected 0 or 1)")),
                }
            }
            "--size" => {
                cfg.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("bad --size {other} (expected full or tiny)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(cfg)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; report them as 0 and let the
            // run fail instead.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = par::available_cores();
    let cpu = perfbench::cpu::pin_to_one_cpu();
    let report = match workloads::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {} ({} s budget, pool width {}, pinned to cpu {}, {} cores)",
        cfg.workload,
        cfg.seed,
        cfg.trace as u8,
        cfg.seconds,
        par::threads(),
        cpu.map_or("none".to_string(), |c| c.to_string()),
        cores
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.ledger.failed == 0 && finite;
    println!(
        "{}",
        json(
            correct,
            report.ledger.attempted.max(1),
            report.ledger.failed,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}
