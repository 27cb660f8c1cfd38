//! Crash-safety of streaming capture: `kill -9` a capture mid-run, then
//! salvage the segment directory and check that every recovered segment is
//! byte-identical to the same segment of an uninterrupted run — the
//! salvaged trace is exactly the uninterrupted capture truncated at the
//! last sealed segment, never silently different — and that resuming the
//! killed capture from its segments completes it to the uninterrupted
//! run's files, byte for byte.
//!
//! The capture runs with `--max-window 1` so the ring pattern never folds:
//! segment chains grow monotonically and are never reloaded, which makes
//! the on-disk files of the killed run a stable prefix of the full run's
//! (the byte-compare below relies on that; the seal/reload exactness of
//! the folding path is covered by the differential tests in
//! `scalatrace::stream`).

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn commbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args(args)
        .output()
        .expect("commbench spawns")
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "commspec-stream-recovery-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segment_files(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".stbs"))
        .collect();
    names.sort();
    names
}

const CAPTURE_ARGS: &[&str] = &[
    "capture",
    "--app",
    "ring",
    "--ranks",
    "4",
    "--iterations",
    "120",
    "--budget",
    "64",
    "--max-window",
    "1",
];

#[test]
fn sigkilled_capture_salvages_a_byte_identical_prefix() {
    // Uninterrupted reference run.
    let full_dir = temp_dir("full");
    let out = commbench(&[CAPTURE_ARGS, &["--dir", full_dir.to_str().unwrap()]].concat());
    assert!(
        out.status.success(),
        "reference capture failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 reload(s)"),
        "byte-compare needs stable chains (zero reloads): {stdout}"
    );
    assert!(stdout.contains("complete capture"), "{stdout}");
    let full_segments = segment_files(&full_dir);
    assert!(
        full_segments.len() >= 20,
        "expected a long multi-segment run, got {}",
        full_segments.len()
    );

    // Same capture, slowed to ~1.5 ms per event, killed with SIGKILL once
    // a healthy number of segments (well short of the total) hit the disk.
    let kill_dir = temp_dir("killed");
    let mut child = Command::new(env!("CARGO_BIN_EXE_commbench"))
        .args([CAPTURE_ARGS, &["--dir", kill_dir.to_str().unwrap()]].concat())
        .args(["--event-delay-us", "1500"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("capture child spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if segment_files(&kill_dir).len() >= 12 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("capture child exited before the kill: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "capture child sealed only {} segments in 120s",
            segment_files(&kill_dir).len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Salvage recovers a verified prefix — the run was cut short, so the
    // report must say so rather than claim completeness.
    let recovered = kill_dir.join("recovered.st");
    let out = commbench(&[
        "salvage",
        "--dir",
        kill_dir.to_str().unwrap(),
        "--out",
        recovered.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "salvage failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("prefix only"), "{report}");
    assert!(recovered.exists(), "salvage must write the recovered trace");
    let text = std::fs::read_to_string(&recovered).unwrap();
    scalatrace::text::from_text(&text).expect("recovered trace parses");

    // Every sealed segment that survived the kill is byte-identical to the
    // same segment of the uninterrupted run: salvage returns a *prefix* of
    // the real capture, not an approximation of it.
    let killed_segments = segment_files(&kill_dir);
    assert!(
        killed_segments.len() >= 12,
        "kill erased segments? {killed_segments:?}"
    );
    assert!(
        killed_segments.len() < full_segments.len(),
        "the kill was meant to land mid-run"
    );
    for name in &killed_segments {
        let killed = std::fs::read(kill_dir.join(name)).unwrap();
        let full = std::fs::read(full_dir.join(name))
            .unwrap_or_else(|e| panic!("{name} missing from the full run: {e}"));
        assert_eq!(
            killed, full,
            "{name}: salvaged segment differs from the uninterrupted run"
        );
    }

    // fsck: the first sweep may quarantine a torn tmp write from the kill;
    // a second sweep over the cleaned directory finds nothing left.
    let _ = commbench(&["fsck", "--stream", kill_dir.to_str().unwrap()]);
    let out = commbench(&["fsck", "--stream", kill_dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "second fsck must be clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Resume: re-run the same app (as `capture` configures it) from the
    // killed run's segments. Every rank continues its chain, and the
    // directory ends up holding exactly the uninterrupted run's segments.
    let ring = miniapps::registry::lookup("ring").unwrap().run;
    let params = miniapps::AppParams {
        class: miniapps::Class::S,
        iterations: Some(120),
        compute_scale: 1.0,
    };
    let resumed = scalatrace::trace_world_resumed(
        mpisim::world::World::new(4).network(mpisim::network::ideal()),
        4,
        &scalatrace::StreamConfig::new(&kill_dir, 64).with_max_window(1),
        move |ctx| ring(ctx, &params),
    )
    .expect("resume");
    assert!(resumed.run.completed(), "{:?}", resumed.run.error);
    assert!(resumed.salvage.complete(), "{}", resumed.salvage);
    assert_eq!(segment_files(&kill_dir), full_segments);
    for name in &full_segments {
        assert!(
            std::fs::read(kill_dir.join(name)).unwrap()
                == std::fs::read(full_dir.join(name)).unwrap(),
            "{name}: resumed segment differs from the uninterrupted run"
        );
    }

    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

#[test]
fn bit_flipped_segment_is_quarantined_never_silently_wrong() {
    let dir = temp_dir("flip");
    let out = commbench(&[CAPTURE_ARGS, &["--dir", dir.to_str().unwrap()]].concat());
    assert!(
        out.status.success(),
        "capture failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Flip one bit in the middle of rank 1's second segment.
    let victim = dir.join("rank1-seg000001.stbs");
    let mut bytes = std::fs::read(&victim).expect("victim segment exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let out = commbench(&["salvage", "--dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "salvage of the undamaged ranks still works: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("prefix only"),
        "corruption must not be reported as a complete capture: {report}"
    );
    assert!(report.contains("quarantined"), "{report}");
    assert!(
        !victim.exists(),
        "the corrupt segment must be moved aside, not re-read forever"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
