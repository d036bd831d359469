//! Malformed input never panics the hand-rolled parsers. Committed,
//! well-formed inputs — a grid spec, every `scenarios/*.scn` file,
//! `assert` lines, adversary keys and the head of
//! `BENCH_smoke_baseline.json` — are mutated by random deletions and by
//! insertions of grammar tokens, and every parser must answer each
//! mutant with `Ok` or `Err`. The mutations come from a fixed-seed LCG,
//! so a failure names an input that reproduces on every run.

use doall_bench::experiments::scenarios_dir;
use doall_bench::grid::{AdversarySpec, Grid};
use doall_bench::resultset::parse_result_set;
use doall_bench::scenario::{Assertion, Scenario};
use std::panic::catch_unwind;

/// Tokens of the grids, keys, assertions and JSON, plus numbers that
/// overflow `u64` and `f64`, a lone-surrogate JSON escape and non-ASCII.
const TOKENS: &[&str] = &[
    "=",
    ",",
    ":",
    "@",
    "x",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    "\"",
    "\\",
    "\\ud800",
    "1e999",
    "18446744073709551616",
    "-",
    " ",
    "\n",
    "é",
    "∞",
];

/// Knuth's MMIX LCG; the high bits are the well-mixed ones.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// `input` with one to four random edits: each deletes up to three
/// characters or inserts one of [`TOKENS`].
fn mutate(input: &str, rng: &mut Lcg) -> String {
    let mut chars: Vec<char> = input.chars().collect();
    for _ in 0..=rng.below(4) {
        let at = rng.below(chars.len() + 1);
        if rng.below(2) == 0 && at < chars.len() {
            let end = (at + 1 + rng.below(3)).min(chars.len());
            chars.drain(at..end);
        } else {
            let token = TOKENS[rng.below(TOKENS.len())];
            chars.splice(at..at, token.chars());
        }
    }
    chars.into_iter().collect()
}

/// Feeds `rounds` mutants of `input` to `parse`, asserting it never
/// panics; `input` itself must parse.
fn fuzz<T, E: std::fmt::Debug>(input: &str, rounds: usize, parse: fn(&str) -> Result<T, E>) {
    if let Err(e) = parse(input) {
        panic!("the unmutated input must parse: {e:?}\n{input}");
    }
    let mut rng = Lcg(1);
    for _ in 0..rounds {
        let mutant = mutate(input, &mut rng);
        let outcome = catch_unwind(|| {
            let _ = parse(&mutant);
        });
        assert!(outcome.is_ok(), "panicked on {mutant:?}");
    }
}

#[test]
fn grid_specs_never_panic() {
    let spec = "algos=da:3,paran1,gossip:2 advs=stage,bursty:4,lb:2,crash:25@burst,straggler:25:4 \
                backends=sim,threads shapes=8x32,16x64 ds=1,4 seeds=3 seed=5";
    fuzz(spec, 10_000, |spec| {
        Grid::parse(spec).map(|grid| grid.cells())
    });
}

#[test]
fn adversary_keys_never_panic() {
    for key in ["crash:25@burst", "straggler:25:4", "lbrand:3"] {
        fuzz(key, 3_000, AdversarySpec::parse);
    }
}

#[test]
fn assertions_never_panic() {
    for line in [
        "assert [algo=paran1,adversary=crash:25@burst,d=4] work - 1 <= (dcont + p) * 2.5 \
         when crash_count >= 1",
        "assert agg max(ratio_quadratic) / mean(work) < 1000.5",
    ] {
        fuzz(line, 5_000, Assertion::parse);
    }
}

#[test]
fn scenario_files_never_panic() {
    let paths = doall_bench::suite::discover(&scenarios_dir()).expect("committed suite");
    assert!(!paths.is_empty());
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read a committed scenario");
        fuzz(&text, 120, Scenario::parse);
    }
}

#[test]
fn result_set_json_never_panics() {
    // The head of the smoke baseline: its header and first three records,
    // closed so that the unmutated text is a valid result set.
    let path = scenarios_dir().with_file_name("BENCH_smoke_baseline.json");
    let text = std::fs::read_to_string(path).expect("read the smoke baseline");
    let head: Vec<&str> = text.lines().take(8).collect();
    let head = format!("{}\n  ]\n}}\n", head.join("\n").trim_end_matches(','));
    fuzz(&head, 2_000, parse_result_set);
}
