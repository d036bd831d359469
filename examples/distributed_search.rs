//! SETI-style distributed search on **real OS threads**.
//!
//! `p` worker threads scan `t` segments of a synthetic signal for a
//! planted pattern. Each segment scan is an idempotent task; workers
//! coordinate with PaRan2 over `std::sync::mpsc` channels, and each
//! recipient holds a message until the random due time its sender
//! stamped on it — the wall-clock analogue of the d-adversary. This
//! exercises `doall-runtime`: the exact same state machines the simulator
//! drives, under genuine parallelism.
//!
//! ```text
//! cargo run --example distributed_search
//! ```

use doall::prelude::*;
use doall::runtime::{self, RuntimeConfig};
use std::time::Duration;

/// Synthetic "sky": deterministic pseudo-noise with a pattern planted in
/// one segment. The scan is the *idempotent task body* — executed by
/// whichever worker the Do-All machinery routes the segment to (possibly
/// more than once; idempotence makes that harmless).
fn scan_segment(segment: usize) -> bool {
    // A cheap noise function with the signal planted in segment 137.
    let noise = (0..64u64).fold(segment as u64, |h, i| {
        h.wrapping_mul(6364136223846793005).wrapping_add(i)
    });
    segment == 137 || noise == u64::MAX // noise never hits; 137 is the hit
}

fn main() -> Result<(), doall::CoreError> {
    let p = 8; // worker threads
    let t = 256; // signal segments
    let instance = Instance::new(p, t)?;

    println!("distributed search: {p} workers, {t} segments, real threads + delayed channels\n");

    let config = RuntimeConfig {
        max_delay: Duration::from_micros(300),
        seed: 1,
        timeout: Duration::from_secs(30),
        crash_after_steps: Vec::new(),
        // Pace the workers so the run genuinely interleaves (a full-speed
        // worker can otherwise finish before its peers are scheduled).
        step_interval: Duration::from_micros(50),
        pace_overrides: Vec::new(),
    };

    // PaRan2: each worker repeatedly picks a uniformly random segment not
    // yet known-scanned — the variant the paper recommends for its low
    // randomness budget. The task body actually scans the segment and
    // records hits (idempotently: re-scans re-insert the same hit).
    let algorithm = PaRan2::new(99);
    let hits = parking_hits::HitSet::new();
    let body = |task: doall::TaskId| {
        if scan_segment(task.index()) {
            hits.record(task.index());
        }
    };
    let report = runtime::run(instance, algorithm.spawn(instance), &config, &body)
        .expect("valid setup")
        .report;

    println!("run report: {report}");
    assert!(report.completed, "the sky must be fully scanned");
    println!("signal found in segments: {:?}", hits.sorted());
    assert_eq!(hits.sorted(), vec![137]);

    println!(
        "\nwork split across workers: {:?}",
        report.work_per_processor
    );
    println!(
        "total steps {} vs oblivious p·t = {} — cooperation pays even with real-world jitter",
        report.work,
        p * t
    );

    // Same search, but workers 1..p die early — the survivor sweeps the
    // rest alone (crash = a thread that stops stepping).
    let crashy = RuntimeConfig {
        crash_after_steps: (0..p)
            .map(|i| if i == 0 { None } else { Some(12) })
            .collect(),
        ..config
    };
    let report = runtime::run(instance, algorithm.spawn(instance), &crashy, &body)
        .expect("valid setup")
        .report;
    println!("\nwith {p}−1 early crashes: {report}");
    assert!(report.completed, "lone survivor still finishes the scan");

    Ok(())
}

/// Tiny concurrent hit set (idempotent inserts) for the scan results.
mod parking_hits {
    use std::sync::Mutex;

    pub struct HitSet {
        inner: Mutex<Vec<usize>>,
    }

    impl HitSet {
        pub fn new() -> Self {
            Self {
                inner: Mutex::new(Vec::new()),
            }
        }

        /// Records a hit; duplicates collapse (idempotence).
        pub fn record(&self, segment: usize) {
            let mut v = self.inner.lock().expect("poisoned");
            if !v.contains(&segment) {
                v.push(segment);
            }
        }

        pub fn sorted(&self) -> Vec<usize> {
            let mut v = self.inner.lock().expect("poisoned").clone();
            v.sort_unstable();
            v
        }
    }
}
