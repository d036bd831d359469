//! The harness's core guarantee: thread count *and* shard size change
//! wall-clock only, never a byte of output.
//!
//! Cells are seeded from their own parameters, each replicate's seed from
//! its absolute index (not execution order), and per-shard results are
//! merged back in replicate order — so every `--threads` × `--shard-size`
//! combination must render byte-identical JSON/CSV, trace mode included.
//! These tests run the library path the `doall` CLI's flags feed into.

use doall_bench::grid::Grid;
use doall_bench::resultset::{Record, ResultSet};
use doall_bench::sweep::{run_cells, run_cells_with_stats, SweepConfig};

fn render_with(grid: &Grid, cfg: &SweepConfig) -> (String, String) {
    let measurements = run_cells(&grid.cells(), cfg).expect("grid runs");
    let records: Vec<Record> = measurements
        .into_iter()
        .map(|m| Record {
            experiment: "determinism".to_string(),
            metrics: m.metrics(),
            cell: m.cell,
        })
        .collect();
    let set = ResultSet {
        mode: "custom".to_string(),
        records,
    };
    (set.to_json(), set.to_csv())
}

fn render(grid: &Grid, threads: usize) -> (String, String) {
    render_with(
        grid,
        &SweepConfig {
            threads,
            ..SweepConfig::default()
        },
    )
}

/// A grid wide enough to make scheduling races visible: randomized
/// algorithms, seeded and knob-parameterized adversaries, replicates,
/// and more cells than workers so claim order varies between runs.
fn racy_grid() -> Grid {
    Grid::parse(
        "algos=paran1,paran2,da:2,padet \
         advs=stage,random,fixed,bursty:2,crash:50@front,straggler:50:2 shapes=4x8,8x8 ds=1,2 \
         seeds=3 seed=11",
    )
    .expect("valid grid")
}

/// A single big-ish cell: the shape sharding exists for. Its seeds split
/// into shards whichever way `--shard-size` says, so every chunking must
/// merge back to the same bytes.
fn one_cell_grid() -> Grid {
    Grid::parse("algos=paran1 advs=random shapes=8x32 ds=2 seeds=7 seed=23").expect("valid grid")
}

#[test]
fn threads_1_and_8_render_byte_identical_json_and_csv() {
    let grid = racy_grid();
    let (json1, csv1) = render(&grid, 1);
    let (json8, csv8) = render(&grid, 8);
    assert_eq!(json1, json8, "JSON must not depend on thread count");
    assert_eq!(csv1, csv8, "CSV must not depend on thread count");
    // And the output is non-trivial: every cell produced metrics.
    assert_eq!(json1.matches("\"mean_work\"").count(), grid.cells().len());
}

#[test]
fn threads_times_shard_size_renders_byte_identical_output() {
    // The strengthened invariant: {threads 1, 8} × {shard 1, auto, seeds}
    // all collapse to one byte string, on both a many-cell grid and a
    // single-cell grid (where auto sharding actually splits the cell).
    for grid in [racy_grid(), one_cell_grid()] {
        let seeds = grid.seeds;
        let baseline = render(&grid, 1);
        for threads in [1, 8] {
            for shard_size in [Some(1), None, Some(seeds)] {
                let out = render_with(
                    &grid,
                    &SweepConfig {
                        threads,
                        shard_size,
                        ..SweepConfig::default()
                    },
                );
                assert_eq!(
                    out, baseline,
                    "grid `{grid}`: threads={threads} shard_size={shard_size:?} \
                     must not change a byte"
                );
            }
        }
    }
}

#[test]
fn trace_mode_is_threads_and_shard_invariant() {
    // Trace mode used to be a sequential special case inside the per-cell
    // runner; now it shards like everything else, and the execution
    // profiles must merge back to identical means.
    let grid =
        Grid::parse("algos=oblido,paran1 advs=stage shapes=4x8 ds=2 seeds=5 seed=3").unwrap();
    let cfg = |threads: usize, shard_size: Option<u64>| SweepConfig {
        threads,
        shard_size,
        trace: true,
        ..SweepConfig::default()
    };
    let baseline = render_with(&grid, &cfg(1, Some(5)));
    assert!(
        baseline.0.contains("\"mean_primary\""),
        "trace metrics present"
    );
    for threads in [1, 8] {
        for shard_size in [Some(1), Some(2), None] {
            let out = render_with(&grid, &cfg(threads, shard_size));
            assert_eq!(
                out, baseline,
                "traced threads={threads} shard_size={shard_size:?}"
            );
        }
    }
}

#[test]
fn single_cell_grids_schedule_multiple_shards() {
    // One cell, seeds=7, four workers: the auto rule must split the cell
    // (ceil(7/4) = 2 seeds per shard → 4 shards) instead of pinning one
    // thread, and explicit --shard-size 1 must fan all the way out.
    let cells = one_cell_grid().cells();
    let (_, auto) = run_cells_with_stats(
        &cells,
        &SweepConfig {
            threads: 4,
            ..SweepConfig::default()
        },
    )
    .expect("grid runs");
    assert_eq!(auto.shards, 4);
    assert_eq!(auto.workers, 4);
    let (_, fine) = run_cells_with_stats(
        &cells,
        &SweepConfig {
            threads: 4,
            shard_size: Some(1),
            ..SweepConfig::default()
        },
    )
    .expect("grid runs");
    assert_eq!(fine.shards, 7);
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Same thread count, two runs: catches nondeterminism that the
    // 1-vs-8 comparison could miss if both happened to schedule alike.
    let grid = racy_grid();
    let (a, _) = render(&grid, 4);
    let (b, _) = render(&grid, 4);
    assert_eq!(a, b);
}

#[test]
fn grid_spec_round_trips_through_parse_and_display() {
    let grid = racy_grid();
    let reparsed = Grid::parse(&grid.to_string()).expect("canonical spec parses");
    assert_eq!(reparsed, grid);
    // And the round-tripped grid produces the same cells (hence the same
    // seeds, hence the same results).
    assert_eq!(reparsed.cells(), grid.cells());
}
