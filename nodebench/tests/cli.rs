//! The benchmark's own tests: tiny runs of every workload print every
//! metric `BENCHMARK.json` lists, a tampered follower stream fails the
//! run, and with a deterministic engine both producers reach one head.

use nodebench::run::{self, Setting, WARM_UP_BLOCKS};
use nodebench::workload::{Inputs, Kind, Size};
use std::path::PathBuf;
use std::process::{Command, Output};

const END_TO_END: [(&str, &str); 8] = [
    ("produce_txn_per_s", "txn/s"),
    ("follow_txn_per_s", "txn/s"),
    ("mine_block_ms_p50", "ms"),
    ("mine_block_ms_p90", "ms"),
    ("validate_block_ms_p50", "ms"),
    ("validate_block_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 30] = [
    ("mempool.submit_us", "us"),
    ("mempool.build_block_ms", "ms"),
    ("miner.mine_ms", "ms"),
    ("miner.execute_ms", "ms"),
    ("miner.retries_per_block", "count"),
    ("miner.lock_waits_per_block", "count"),
    ("miner.deadlocks_per_block", "count"),
    ("miner.useful_ratio", "ratio"),
    ("miner.speedup_vs_serial", "x"),
    ("schedule.critical_path", "txn"),
    ("schedule.hb_edges", "count"),
    ("schedule.parallelism", "x"),
    ("commit.state_root_ms", "ms"),
    ("commit.block_build_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.block_bytes", "B"),
    ("wal.seal_ms", "ms"),
    ("wal.bytes_per_block", "B"),
    ("wal.snapshot_ms", "ms"),
    ("pipeline.stalled_ms", "ms"),
    ("follower.stalled_ms", "ms"),
    ("pipeline.snapshots", "count"),
    ("validator.validate_ms", "ms"),
    ("validator.replay_ms", "ms"),
    ("validator.speedup_vs_serial", "x"),
    ("pending.speculate_ms", "ms"),
    ("pending.commit_ms", "ms"),
    ("node.recover_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["transfer-paper", "mixed-paper", "auction-hot"];

fn tiny_run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("nodebench-{workload}-{trace}-{}", extra.join("-")));
    Command::new(env!("CARGO_BIN_EXE_nodebench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--size", "tiny"])
        .arg("--dir")
        .arg(&dir)
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// Asserts `line` reports `name` with `unit` and a finite number.
fn assert_metric(line: &str, name: &str, unit: &str) {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[at + key.len()..];
    let (value, rest) = rest.split_once(", ").expect("value then unit");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("{name} has no numeric value: {value}"));
    assert!(value.is_finite(), "{name} = {value}");
    assert!(
        rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} unit is not {unit}: {rest}"
    );
}

fn manifest() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark")
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let output = tiny_run(workload, "0", &[]);
        let line = last_line(&output);
        assert!(output.status.success(), "{workload}: {line}");
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        for (name, unit) in END_TO_END {
            assert_metric(&line, name, unit);
        }
        assert!(
            String::from_utf8_lossy(&output.stdout).contains("# host: available_parallelism="),
            "header missing"
        );
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in WORKLOADS {
        let output = tiny_run(workload, "1", &[]);
        let line = last_line(&output);
        assert!(output.status.success(), "{workload}: {line}");
        for (name, unit) in PER_LAYER {
            assert_metric(&line, name, unit);
        }
    }
}

#[test]
fn manifest_lists_the_metrics_the_benchmark_prints() {
    let manifest = manifest();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(manifest.contains(&format!("\"name\": \"{workload}\"")));
    }
}

#[test]
fn tampered_follower_streams_fail_the_checks() {
    for tamper in ["receipt", "state-root"] {
        let output = tiny_run("transfer-paper", "0", &["--tamper", tamper]);
        let line = last_line(&output);
        assert!(!output.status.success(), "{tamper}: {line}");
        assert!(
            line.starts_with("{\"correct\": false, "),
            "{tamper}: {line}"
        );
        assert!(
            String::from_utf8_lossy(&output.stdout).contains("# FAILED CHECK: "),
            "{tamper}: no failed check reported"
        );
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_nodebench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

/// With one engine thread mining is deterministic, so a round also
/// checks that the pipelined and sequential producers reach the same
/// head hash.
#[test]
fn one_thread_rounds_reach_the_same_head_on_both_producers() {
    let setting = Setting {
        engine: cc_core::EngineConfig::speculative()
            .threads(1)
            .build()
            .expect("valid engine"),
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("nodebench-one-thread"),
        tamper: None,
    };
    assert!(setting.deterministic());
    for kind in Kind::ALL {
        let inputs = Inputs::generate(kind, 9, Size::tiny());
        let round = run::round(&setting, &inputs, kind.name()).expect("nodes build");
        assert!(
            round.tally.errors.is_empty(),
            "{kind}: {:?}",
            round.tally.errors
        );
        assert_eq!(round.tally.failed, 0, "{kind}");
        assert_eq!(round.mine_ms.len(), Size::tiny().blocks - WARM_UP_BLOCKS);
    }
    std::fs::remove_dir_all(&setting.dir).ok();
}
