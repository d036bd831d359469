//! Host-time benchmark of the doall simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale-da|mailbox|suite-sim|all --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! Each run repeats executions of one workload until `--seconds` have
//! passed and prints, as its last stdout line, one JSON object with the
//! medians: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run alternates an untraced and a
//! traced execution, checks that both produce the same results, and
//! writes the last traced execution's spans to `perfbench/out/`.
//! `--record` rewrites the result sets the named seed is checked against
//! (`perfbench/reference/`). `BENCHMARK.json` lists every metric.

mod probe;
mod workloads;

use doall_bench::compare::compare;
use doall_bench::resultset::BaselineSet;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Inputs, Workload, NAMED_SEED};

const USAGE: &str = "usage: doall-perfbench --workload scale-da|mailbox|suite-sim|all \
                     --seed N --seconds S --trace 0|1\n       doall-perfbench --record";

/// Untraced executions per run, however short `--seconds`: the median
/// of two already drops a one-off stall to half its weight.
const MIN_EXECUTIONS: usize = 2;

/// The median of `values` (midpoint average for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: NAMED_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            out.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                out.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?];
            }
            "--seed" => out.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if out.workloads.is_empty() && !out.record {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn unit(metric: &str) -> &'static str {
    if metric.ends_with("_per_s") {
        "1/s"
    } else if metric.ends_with("_s") {
        "s"
    } else if metric.ends_with("_mb") {
        "MiB"
    } else if metric.ends_with("_bytes") {
        "B"
    } else if metric.ends_with("_share") {
        "ratio"
    } else {
        "count"
    }
}

/// What one run of one workload reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn report_problems(w: Workload, problems: &[String]) {
    for p in problems {
        eprintln!("{}: FAIL {p}", w.name());
    }
}

/// Untraced executions until `seconds` have passed; medians of each.
fn run_untraced(w: Workload, args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let reference = reference_for(w, args.seed, inputs)?;
    let start = Instant::now();
    workloads::warm_up(w, args.seed, inputs)?;
    let (mut wall, mut setup, mut steps, mut cells) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0, 0);
    while wall.len() < MIN_EXECUTIONS || start.elapsed().as_secs_f64() < args.seconds {
        let e = workloads::untraced(w, args.seed, inputs, reference.as_ref())?;
        eprintln!(
            "{}: wall {:.4} s, setup {:.6} s, {} cells, {} failed",
            w.name(),
            e.wall_s,
            e.setup_s,
            e.cells,
            e.failed
        );
        report_problems(w, &e.problems);
        attempted += e.cells;
        failed += e.failed;
        steps.push(e.work / e.wall_s);
        cells.push(e.cells as f64 / e.wall_s);
        wall.push(e.wall_s);
        setup.push(e.setup_s);
    }
    let mut metrics = BTreeMap::new();
    metrics.insert("wall_s".to_string(), median(&mut wall));
    metrics.insert("setup_s".to_string(), median(&mut setup));
    metrics.insert("sim_steps_per_s".to_string(), median(&mut steps));
    metrics.insert("cells_per_s".to_string(), median(&mut cells));
    metrics.insert("peak_rss_mb".to_string(), peak_rss_mb()?);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn reference_for(w: Workload, seed: u64, inputs: &Inputs) -> Result<Option<BaselineSet>, String> {
    if seed == NAMED_SEED {
        inputs.reference(w).map(Some)
    } else {
        Ok(None)
    }
}

/// Rounds of one untraced and one traced execution until `seconds` have
/// passed. The traced results must equal the untraced ones.
fn run_traced(w: Workload, args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let reference = reference_for(w, args.seed, inputs)?;
    let start = Instant::now();
    workloads::warm_up(w, args.seed, inputs)?;
    let (mut untraced_wall, mut traced_wall) = (vec![], vec![]);
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last_spans = Vec::new();
    while traced_wall.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        probe::enable(false);
        let u = workloads::untraced(w, args.seed, inputs, reference.as_ref())?;
        probe::enable(true);
        let t = workloads::traced(w, args.seed, inputs, reference.as_ref());
        probe::enable(false);
        let t = t?;
        let mut problems = u.problems.clone();
        problems.extend(t.exec.problems.iter().cloned());
        let same = compare(
            &BaselineSet::of(&u.results),
            &BaselineSet::of(&t.exec.results),
            0.0,
        );
        if !same.is_clean() || u.reports != t.exec.reports {
            problems.push("traced results differ from the untraced ones".to_string());
        }
        eprintln!(
            "{}: untraced {:.4} s, traced {:.4} s, attributed share {:.4}, {} failed",
            w.name(),
            u.wall_s,
            t.exec.wall_s,
            t.layers
                .get("traced.attributed_share")
                .copied()
                .unwrap_or(0.0),
            problems.len()
        );
        report_problems(w, &problems);
        attempted += u.cells + t.exec.cells;
        failed += (problems.len() as u64).min(u.cells + t.exec.cells);
        untraced_wall.push(u.wall_s);
        traced_wall.push(t.exec.wall_s);
        for (name, value) in t.layers {
            layers.entry(name).or_default().push(value);
        }
        last_spans = t.spans;
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let spans_path = out_dir.join(format!("spans-{}.jsonl", w.name()));
    std::fs::write(&spans_path, probe::render(&last_spans)).map_err(|e| e.to_string())?;
    eprintln!("{}: spans written to {}", w.name(), spans_path.display());
    let mut metrics: BTreeMap<String, f64> = layers
        .into_iter()
        .map(|(name, mut values)| (name.to_string(), median(&mut values)))
        .collect();
    metrics.insert(
        "trace_overhead_s".to_string(),
        median(&mut traced_wall) - median(&mut untraced_wall),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn json(attempted: u64, failed: u64, metrics: &BTreeMap<String, f64>) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit(name)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let inputs = Inputs::new(Path::new(env!("CARGO_MANIFEST_DIR")));
    if args.record {
        for w in Workload::ALL {
            let path = inputs.record(w)?;
            eprintln!("{}: recorded {}", w.name(), path.display());
        }
        return Ok(());
    }
    let many = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = BTreeMap::new();
    for &w in &args.workloads {
        let outcome = if args.trace {
            run_traced(w, &args, &inputs)?
        } else {
            run_untraced(w, &args, &inputs)?
        };
        attempted += outcome.attempted;
        failed += outcome.failed;
        for (name, value) in outcome.metrics {
            eprintln!("{:>10}  {name:<28} {value:>16.6} {}", w.name(), unit(&name));
            let key = if many {
                format!("{}.{name}", w.name())
            } else {
                name
            };
            metrics.insert(key, value);
        }
    }
    println!("{}", json(attempted, failed, &metrics)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("doall-perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
