//! Exact work and message pins for cells larger than any smoke cell.
//!
//! Every smoke cell is tiny, so the baseline compare never reaches the
//! chunked `BitSet` layout (sets over 65,536 bits) or payloads of more
//! than a few words. These grids do, through the sweep engine, and their
//! values are pinned exactly (all at `seed=0`).

use doall_bench::grid::Grid;
use doall_bench::sweep::{run_cells, SweepConfig};

/// `(grid, mean_work, mean_messages)`.
const PINS: [(&str, f64, f64); 4] = [
    // DA payloads on chunks, merged into one union per instant.
    (
        "algos=da:4 advs=unit shapes=16400x16400 ds=1 seeds=1 seed=0",
        377_200.0,
        3_227_323_200.0,
    ),
    // A chunked ground-truth task set and the `lb` adversary's dry-run
    // clones of every processor.
    (
        "algos=da:3 advs=lb shapes=27x70000 ds=9 seeds=1 seed=0",
        199_753.0,
        3_198.0,
    ),
    // Per-recipient delays: one group per distinct delay.
    (
        "algos=da:3 advs=random shapes=256x8192 ds=4 seeds=2 seed=0",
        28_672.0,
        510_382.5,
    ),
    // Crashes, and PA's `iter_zeros` over its knowledge.
    (
        "algos=paran2 advs=crash:25 shapes=512x8192 ds=4 seeds=1 seed=0",
        25_977.0,
        784_896.0,
    ),
];

#[test]
fn mid_size_and_chunked_cells_match_their_pins() {
    for (spec, work, messages) in PINS {
        let grid = Grid::parse(spec).expect("valid grid");
        let measured = run_cells(&grid.cells(), &SweepConfig::default()).expect("grid runs");
        assert_eq!(measured.len(), 1, "{spec}: one cell");
        let summary = measured[0].summary.as_ref().expect("simulated cell");
        assert!(summary.all_completed(), "{spec}: every run completes");
        assert_eq!(
            (summary.mean_work, summary.mean_messages),
            (work, messages),
            "{spec}"
        );
    }
}
