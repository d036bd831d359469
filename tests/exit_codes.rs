//! The binary's exit-code contract, checked on the real process: 0 clean,
//! 1 baseline drift, 2 any error, with parse errors followed by the usage
//! text on stderr. `cli::tests` check the `Outcome` values; only `main`
//! maps them to exit codes.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn doall(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_doall"))
        .args(args)
        .output()
        .expect("spawn doall")
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

#[test]
fn parse_errors_exit_2_with_usage() {
    // `--algo` belongs to `simulate`; `sweep` takes its cells from --grid.
    let out = doall(&["sweep", "--algo", "padet", "-p", "8", "-t", "32"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --algo"), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn a_closed_stdout_exits_2_without_a_panic() {
    // 3000 cells render about 480 kB, far more than a pipe buffers, so
    // the write is still going when the reader hangs up.
    let ds: Vec<String> = (1..=3000).map(|d| d.to_string()).collect();
    let grid = format!(
        "algos=soloall advs=unit shapes=2x2 ds={} seeds=1 seed=0",
        ds.join(",")
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_doall"))
        .args(["sweep", "--grid", &grid])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn doall");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut head = [0u8; 16];
    stdout
        .read_exact(&mut head)
        .expect("read the table's first bytes");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for doall");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write to stdout"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_delay_of_u64_max_exits_0_and_delivers_nothing() {
    // Every message is sent after tick 0, so its delivery instant
    // `now + d` saturates and never comes: all p = 4 processors perform
    // all t = 8 tasks, W = p·t = 32. A wrapped sum would deliver early
    // and report the d = 1 work of 16; an unchecked one panics (exit 101).
    let out = doall(&[
        "simulate",
        "--algo",
        "paran1",
        "-p",
        "4",
        "-t",
        "8",
        "-d",
        "18446744073709551615",
        "--adversary",
        "fixed",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("work: 32,"), "{stdout}");
}

#[test]
fn a_one_job_instance_exits_0() {
    // oblido-searched searches a list over min(p, t) = 1 jobs: the one
    // permutation of [1]. The search used to refuse it and panic (101).
    let out = doall(&[
        "simulate",
        "--algo",
        "oblido-searched",
        "-p",
        "1",
        "-t",
        "5",
        "-d",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("work: 5,"), "{stdout}");
}

#[test]
fn an_algorithm_key_has_one_spelling() {
    for (bad, good) in [
        ("da:03", "da:3"),
        ("da:+3", "da:3"),
        ("gossip:02", "gossip:2"),
    ] {
        let grid = format!("algos=da:3,{bad} advs=unit shapes=4x8 ds=1 seeds=1 seed=0");
        let out = doall(&["sweep", "--grid", &grid]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("write `{good}`")), "{stderr}");
    }
}

#[test]
fn oversized_threads_cells_exit_2_before_spawning() {
    // One OS thread per processor: 2000 of them is refused up front.
    let grid = "algos=paran1 backends=threads shapes=2000x2000 ds=1 seeds=1 seed=0";
    let out = doall(&["sweep", "--grid", grid, "--threads", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["backend=threads p=2000", "cap of 1024"] {
        assert!(stderr.contains(needle), "{stderr}");
    }
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "a scratch suite directory under the system temp dir"
)]
fn traced_cells_of_four_million_steps_exit_0() {
    // 64 soloall processors on 65536 tasks take 4,194,304 steps; every
    // run counts its primary and secondary executions, however long.
    let dir = std::env::temp_dir().join(format!("doall_exit_codes_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the suite dir");
    let scn = "id = long\ntrace = true\n\
               grid = algos=soloall advs=unit shapes=64x65536 ds=1 seeds=1 seed=0\n\
               assert primary == t\n\
               assert primary + secondary == work\n";
    std::fs::write(dir.join("long.scn"), scn).expect("write the scenario");
    let out = doall(&["test", "--suite", path_str(&dir)]);
    std::fs::remove_dir_all(&dir).expect("remove the suite dir");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("pass"), "{stdout}");
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "a scratch copy of the baseline under the system temp dir"
)]
fn compare_exits_0_clean_1_drift_2_missing() {
    let baseline: PathBuf = [env!("CARGO_MANIFEST_DIR"), "BENCH_smoke_baseline.json"]
        .iter()
        .collect();
    let copy = std::env::temp_dir().join(format!("doall_exit_codes_{}.json", std::process::id()));
    let text = std::fs::read_to_string(&baseline).expect("read the smoke baseline");
    std::fs::write(&copy, &text).expect("write the copy");
    let (old, new) = (path_str(&baseline), path_str(&copy));

    assert_eq!(doall(&["compare", old, new]).status.code(), Some(0));

    let doctored = text.replacen("\"mean_work\": ", "\"mean_work\": 9", 1);
    assert_ne!(doctored, text, "the baseline has a mean_work to doctor");
    std::fs::write(&copy, doctored).expect("write the doctored copy");
    assert_eq!(doall(&["compare", old, new]).status.code(), Some(1));

    std::fs::remove_file(&copy).expect("remove the copy");
    assert_eq!(doall(&["compare", old, new]).status.code(), Some(2));
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "a scratch suite directory under the system temp dir"
)]
fn a_derive_hook_on_an_algorithm_it_cannot_read_exits_2_at_load() {
    // `da_bound` rebuilds DA's schedules from the `q` of `da:<q>`; on
    // `paran1` there is none. The hook used to panic mid-run (101).
    let dir = std::env::temp_dir().join(format!("doall_exit_codes_derive_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the suite dir");
    let scn = "id = x\n\
               grid = algos=paran1 advs=unit shapes=4x8 ds=1 seeds=1 seed=0\n\
               derive = da_bound\n\
               assert t >= 1\n";
    std::fs::write(dir.join("x.scn"), scn).expect("write the scenario");
    let out = doall(&["test", "--suite", path_str(&dir)]);
    std::fs::remove_dir_all(&dir).expect("remove the suite dir");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for needle in ["x.scn", "derive hook `da_bound`", "algorithm `paran1`"] {
        assert!(stderr.contains(needle), "{stderr}");
    }
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "scratch result sets under the system temp dir"
)]
fn a_result_set_with_d_of_u64_max_reads_back() {
    let dir = std::env::temp_dir().join(format!("doall_exit_codes_u64_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch dir");
    let (small, big) = (dir.join("small.json"), dir.join("big.json"));
    let (small, big) = (path_str(&small), path_str(&big));
    let grid = |d: &str| format!("algos=soloall advs=unit shapes=2x2 ds={d} seeds=1 seed=0");
    let max = grid("18446744073709551615");
    let code = |args: &[&str]| doall(args).status.code();
    assert_eq!(
        code(&["sweep", "--grid", &grid("1"), "--out", small]),
        Some(0)
    );
    // The u64::MAX cell is not the d = 1 cell: drift (1), where reading
    // the new results back used to panic (101).
    assert_eq!(
        code(&["sweep", "--grid", &max, "--baseline", small]),
        Some(1)
    );
    // Written, compared and diffed against itself: clean, where the
    // reader refused `d` above 2^53 (2).
    assert_eq!(code(&["sweep", "--grid", &max, "--out", big]), Some(0));
    assert_eq!(code(&["compare", big, big]), Some(0));
    assert_eq!(code(&["sweep", "--grid", &max, "--baseline", big]), Some(0));
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}
