//! Cross-process determinism regression tests.
//!
//! The in-process proptests (`doall-bench/tests/scenario_props.rs`) pin
//! replicate seeding and shard scheduling, but they cannot catch state
//! that varies *between* process invocations — the classic offender
//! being `HashMap`/`HashSet` iteration order, which is randomized per
//! process by the hasher seed. The lower-bound adversaries keep their
//! defended sets in `BTreeSet` for exactly this reason (clippy's
//! `disallowed_types` bans the hash-ordered collections); these tests
//! hold the line by running the real binary twice and byte-comparing
//! the machine-readable output.

use std::path::PathBuf;
use std::process::Command;

#[allow(
    clippy::disallowed_methods,
    reason = "a scratch file under the system temp dir; its path never reaches a report"
)]
fn out_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("doall_procdet_{tag}_{}.json", std::process::id()))
}

/// Runs `doall <args> --json --out <file>` in a fresh process and
/// returns the report bytes.
fn run_once(args: &[&str], tag: &str) -> Vec<u8> {
    let out = out_path(tag);
    let _ = std::fs::remove_file(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_doall"))
        .args(args)
        .arg("--json")
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn doall");
    // Exit 1 is the drift code (the compare contract), still a
    // successful run for byte-equality purposes; 2 is an error.
    assert!(
        matches!(status.code(), Some(0 | 1)),
        "doall {args:?} failed: {status}"
    );
    let bytes = std::fs::read(&out).expect("read report");
    let _ = std::fs::remove_file(&out);
    bytes
}

#[test]
fn lbrand_sweep_is_bit_equal_across_process_invocations() {
    // Both lower-bound adversaries (lb = Theorem 3.1, lbrand = Theorem
    // 3.4) across two algorithms and two replicates each; identical
    // seeds must reproduce the report byte-for-byte in a new process.
    let args = [
        "sweep",
        "--grid",
        "algos=paran1,paran2 advs=lb,lbrand,lbrand:2 shapes=4x24 ds=4 seeds=2 seed=7",
    ];
    let first = run_once(&args, "lbrand_a");
    let second = run_once(&args, "lbrand_b");
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "identically-seeded lbrand sweeps drifted across processes"
    );
}
