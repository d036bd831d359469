//! Property tests for the grid spec language: `Grid::parse` and
//! `Display` round-trip over random axis contents — including the
//! parameterized adversary grammar — duplicate axis values are always
//! rejected, and numeric adversary knobs canonicalize to one spelling.
//! These are the invariants the sweep engine and the baseline comparator
//! lean on (cells are keyed by their parameters, so a spec that
//! re-parses differently or expands to duplicate cells would silently
//! corrupt results).

use doall_bench::grid::{AdversarySpec, CrashStagger, Grid};
use proptest::prelude::*;

/// Every algorithm key the grid language accepts, including the
/// parameterized families at a few parameter points.
const ALGO_POOL: &[&str] = &[
    "soloall",
    "oblido",
    "oblido-searched",
    "oblido-worst",
    "da:2",
    "da:5",
    "da:8",
    "paran1",
    "paran2",
    "padet",
    "padet-rot",
    "padet-affine",
    "gossip:1",
    "gossip:7",
    "none",
];

/// Every adversary family, with the knobs at a few parameter points.
/// Entries are canonical spellings (parsing any of them and re-rendering
/// reproduces the entry), so subsets are duplicate-free as specs too.
const ADV_POOL: &[&str] = &[
    "unit",
    "fixed",
    "random",
    "stage",
    "bursty",
    "bursty:3",
    "bursty:64",
    "lb",
    "lb:2",
    "lbrand",
    "lbrand:9",
    "crash:0",
    "crash:37",
    "crash:100",
    "crash:37@burst",
    "crash:37@front",
    "crash:100@burst",
    "straggler:25:2",
    "straggler:25:4",
    "straggler:100:3",
];

/// Selects the pool entries named by a non-zero bitmask — a cheap way to
/// draw a random non-empty *unique* subset, in pool order.
fn subset(pool: &[&str], mask: u32) -> Vec<String> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, key)| (*key).to_string())
        .collect()
}

fn adversary_subset(mask: u32) -> Vec<AdversarySpec> {
    subset(ADV_POOL, mask)
        .iter()
        .map(|key| AdversarySpec::parse(key).expect("pool keys are valid"))
        .collect()
}

/// First-occurrence dedup that keeps the original order (axis order is
/// part of the spec and must survive the round-trip as-is).
fn dedup_keep_order<T: Clone + Ord>(values: &[T]) -> Vec<T> {
    let mut seen = std::collections::BTreeSet::new();
    values
        .iter()
        .filter(|v| seen.insert((*v).clone()))
        .cloned()
        .collect()
}

fn arbitrary_grid(
    algo_mask: u32,
    adv_mask: u32,
    raw_shapes: &[(usize, usize)],
    raw_ds: &[u64],
    seeds: u64,
    base_seed: u64,
) -> Grid {
    Grid {
        algos: subset(ALGO_POOL, algo_mask),
        adversaries: adversary_subset(adv_mask),
        shapes: dedup_keep_order(raw_shapes),
        ds: dedup_keep_order(raw_ds),
        seeds,
        base_seed,
    }
}

proptest! {
    /// The headline ROADMAP property: `Grid::parse(g.to_string()) == g`
    /// for grids assembled from random axis contents — adversary knobs
    /// included.
    #[test]
    fn parse_display_round_trips(
        algo_mask in 1u32..(1 << ALGO_POOL.len()),
        adv_mask in 1u32..(1 << ADV_POOL.len()),
        raw_shapes in prop::collection::vec((1usize..=64, 1usize..=512), 1..6),
        raw_ds in prop::collection::vec(1u64..=256, 1..6),
        seeds in 1u64..=50,
        base_seed in any::<u64>(),
    ) {
        let grid = arbitrary_grid(algo_mask, adv_mask, &raw_shapes, &raw_ds, seeds, base_seed);
        prop_assert!(grid.validate().is_ok(), "constructed grids are valid: {grid}");
        let spec = grid.to_string();
        let reparsed = Grid::parse(&spec);
        prop_assert!(reparsed.is_ok(), "canonical spec `{spec}` must parse");
        let reparsed = reparsed.unwrap();
        prop_assert_eq!(&reparsed, &grid, "round-trip changed the grid for `{}`", spec);
        // Fixed point: rendering the reparsed grid reproduces the spec.
        prop_assert_eq!(reparsed.to_string(), spec);
        // And equal grids expand to equal cells (same seeds, same order).
        prop_assert_eq!(reparsed.cells(), grid.cells());
    }

    /// Random `AdversarySpec`s round-trip through their rendered spelling,
    /// and numeric knobs canonicalize: zero-padding or an explicit default
    /// stagger never creates a second spelling of the same adversary.
    #[test]
    fn adversary_specs_round_trip_and_canonicalize(
        pct in 0u64..=100,
        straggler_pct in 1u64..=100,
        period in 1u64..=512,
        stage in 1u64..=512,
        slowdown in 2u64..=64,
        pad in 1usize..=4,
        stagger_pick in 0usize..3,
    ) {
        let stagger = [CrashStagger::Even, CrashStagger::Burst, CrashStagger::Front]
            [stagger_pick];
        let specs = [
            AdversarySpec::Bursty { period: Some(period) },
            AdversarySpec::Lb { stage: Some(stage) },
            AdversarySpec::Lbrand { stage: Some(stage) },
            AdversarySpec::Crash { pct, stagger },
            AdversarySpec::Straggler { pct: straggler_pct, slowdown },
        ];
        for spec in specs {
            let rendered = spec.to_string();
            prop_assert_eq!(AdversarySpec::parse(&rendered).unwrap(), spec);
        }
        // Zero-padded numeric knobs parse to the same spec as the
        // canonical spelling (the old bug gave `crash:07` and `crash:7`
        // distinct cell identities) …
        let padded = format!("crash:{pct:0pad$}@{}", stagger.label());
        let canonical = AdversarySpec::Crash { pct, stagger };
        prop_assert_eq!(AdversarySpec::parse(&padded).unwrap(), canonical);
        // … and Display emits exactly one spelling, with default knobs
        // elided.
        let rendered = canonical.to_string();
        if stagger == CrashStagger::Even {
            prop_assert_eq!(&rendered, &format!("crash:{pct}"));
        } else {
            prop_assert_eq!(&rendered, &format!("crash:{pct}@{}", stagger.label()));
        }
        let padded_bursty = format!("bursty:{period:0pad$}");
        prop_assert_eq!(
            AdversarySpec::parse(&padded_bursty).unwrap().to_string(),
            format!("bursty:{period}")
        );
        let padded_straggler = format!("straggler:{straggler_pct:0pad$}:{slowdown:0pad$}");
        prop_assert_eq!(
            AdversarySpec::parse(&padded_straggler).unwrap().to_string(),
            format!("straggler:{straggler_pct}:{slowdown}")
        );
    }

    /// Duplicating any single value in any axis must be rejected — by
    /// `validate()` on the struct and by `parse()` on the rendered spec.
    #[test]
    fn duplicate_axis_values_are_rejected(
        algo_mask in 1u32..(1 << ALGO_POOL.len()),
        adv_mask in 1u32..(1 << ADV_POOL.len()),
        raw_shapes in prop::collection::vec((1usize..=64, 1usize..=512), 1..5),
        raw_ds in prop::collection::vec(1u64..=256, 1..5),
        axis in 0usize..4,
        pick in any::<u64>(),
        seeds in 1u64..=50,
    ) {
        let good = arbitrary_grid(algo_mask, adv_mask, &raw_shapes, &raw_ds, seeds, 0);
        let mut bad = good.clone();
        // Duplicate one existing element of the chosen axis.
        match axis {
            0 => {
                let v = bad.algos[pick as usize % bad.algos.len()].clone();
                bad.algos.push(v);
            }
            1 => {
                let v = bad.adversaries[pick as usize % bad.adversaries.len()];
                bad.adversaries.push(v);
            }
            2 => {
                let v = bad.shapes[pick as usize % bad.shapes.len()];
                bad.shapes.push(v);
            }
            _ => {
                let v = bad.ds[pick as usize % bad.ds.len()];
                bad.ds.push(v);
            }
        }
        let err = bad.validate();
        prop_assert!(err.is_err(), "duplicate in axis {axis} accepted: {bad}");
        prop_assert!(
            err.unwrap_err().to_string().contains("duplicate"),
            "error should name the duplicate"
        );
        prop_assert!(
            Grid::parse(&bad.to_string()).is_err(),
            "rendered duplicate spec `{}` must not parse",
            bad
        );
        // The untouched grid still parses — the rejection is specific.
        prop_assert!(Grid::parse(&good.to_string()).is_ok());
    }
}

#[test]
fn malformed_adversary_knobs_are_rejected_with_useful_errors() {
    for (bad, needle) in [
        ("bursty:0", "at least 1"),
        ("bursty:soon", "not a number"),
        ("crash:150@even", "0–100"),
        ("crash:25@sideways", "even|burst|front"),
        ("crash", "crash:<pct>"),
        ("lb:0", "at least 1"),
        ("straggler:0:3", "1–100"),
        ("straggler:25:1", "at least 2"),
        ("unit:4", "takes no parameter"),
        ("frobnicate", "unknown adversary"),
    ] {
        let e = AdversarySpec::parse(bad)
            .expect_err(&format!("`{bad}` should fail"))
            .to_string();
        assert!(e.contains(needle), "`{bad}` error `{e}` lacks `{needle}`");
        // And the same rejection surfaces through a full grid spec.
        assert!(
            Grid::parse(&format!("algos=paran1 advs={bad} shapes=4x8")).is_err(),
            "`{bad}` accepted inside a grid"
        );
    }
}

#[test]
fn malformed_backend_tokens_are_rejected_with_useful_errors() {
    // Every cell runs on the simulator, so no `backends=` token is well
    // formed: the field itself is unknown.
    for bad in [
        "backends=gpu",
        "backends=Sim",
        "backends=",
        "backends=threads,threads",
        "backends=sim",
        "backends=sim,threads",
    ] {
        let e = Grid::parse(&format!("algos=paran1 advs=unit shapes=4x8 {bad}"))
            .expect_err(&format!("`{bad}` should fail"))
            .to_string();
        assert!(
            e.contains("unknown grid field `backends`"),
            "`{bad}` error `{e}`"
        );
    }
}

#[test]
fn bare_legacy_keys_parse_to_documented_defaults() {
    use doall_bench::grid::{DEFAULT_STRAGGLER_PCT, DEFAULT_STRAGGLER_SLOWDOWN};
    assert_eq!(
        AdversarySpec::parse("bursty").unwrap(),
        AdversarySpec::Bursty { period: None }
    );
    assert_eq!(
        AdversarySpec::parse("lb").unwrap(),
        AdversarySpec::Lb { stage: None }
    );
    assert_eq!(
        AdversarySpec::parse("lbrand").unwrap(),
        AdversarySpec::Lbrand { stage: None }
    );
    assert_eq!(
        AdversarySpec::parse("crash:25").unwrap(),
        AdversarySpec::Crash {
            pct: 25,
            stagger: CrashStagger::Even,
        }
    );
    assert_eq!(
        AdversarySpec::parse("straggler").unwrap(),
        AdversarySpec::Straggler {
            pct: DEFAULT_STRAGGLER_PCT,
            slowdown: DEFAULT_STRAGGLER_SLOWDOWN,
        }
    );
    // A legacy spec renders identically to its pre-parameterization form,
    // so old baselines keep their cell identities.
    let grid = Grid::parse("algos=paran1 advs=bursty,crash:50,lb shapes=4x8").unwrap();
    assert_eq!(
        grid.to_string(),
        "algos=paran1 advs=bursty,crash:50,lb shapes=4x8 ds=1 seeds=1 seed=0"
    );
}
