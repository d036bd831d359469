//! Property tests for the scenario file format: `Scenario::parse` and
//! `Display` are exact inverses over randomly assembled scenarios —
//! prose, grids, smoke overrides, and the full assertion grammar
//! (filters, guards, aggregates, arithmetic) — and malformed lines
//! report their 1-based line number no matter where they appear.
//! The committed `scenarios/*.scn` files lean on both properties: a
//! scenario that re-parses differently would silently run a different
//! experiment, and an error without a line number is unactionable in a
//! 17-file suite.
//!
//! Random structures are grown from integer draws (masks and a small
//! deterministic gene stream), the same idiom as `grid_props.rs` — the
//! vendored proptest stub has no recursive strategies, and the failing
//! integers reproduce the structure exactly.

use doall_bench::grid::{AdversarySpec, Grid};
use doall_bench::scenario::{AggFn, Assertion, Cmp, Condition, Expr, Scenario};
use proptest::prelude::*;

const ALGO_POOL: &[&str] = &["soloall", "da:3", "paran1", "padet", "gossip:2"];
const ADV_POOL: &[&str] = &["unit", "fixed", "lb:2", "crash:25@burst", "straggler:25:4"];

/// Metric names (and aliases, and cell parameters) for `Var` leaves.
const VAR_POOL: &[&str] = &[
    "work",
    "messages",
    "p",
    "t",
    "d",
    "seeds",
    "mean_work",
    "ratio_quadratic",
    "crash_count",
    "dcont",
    "lb_bound",
];

/// `[key=value]` selector pairs that survive the tokenizer verbatim.
const FILTER_POOL: &[(&str, &str)] = &[
    ("algo", "paran1"),
    ("algo", "da:3"),
    ("adversary", "crash:25@burst"),
    ("p", "8"),
    ("t", "32"),
    ("d", "4"),
];

const CMP_POOL: &[Cmp] = &[Cmp::Le, Cmp::Ge, Cmp::Lt, Cmp::Gt, Cmp::Eq, Cmp::Ne];
const AGG_POOL: &[AggFn] = &[AggFn::Min, AggFn::Max, AggFn::Mean, AggFn::Sum];

/// Words prose lines are assembled from: trim-stable, comment-safe, and
/// free of newlines, so `Display` → trim → parse keeps them verbatim
/// (values may contain `=`; only the first `=` splits the key).
const WORD_POOL: &[&str] = &[
    "forced",
    "work",
    "d=2t",
    "p·t",
    "(Thm 3.1)",
    "Θ(1)",
    "band.",
    "ratio_lb",
    "{t, 2t}",
];

/// A tiny deterministic stream expanding one `u64` seed into the many
/// draws a recursive structure needs. Reproducible from the reported
/// failing input by construction.
struct Gene(u64);

impl Gene {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn pick<'p, T: ?Sized>(&mut self, pool: &'p [&'p T]) -> &'p T {
        pool[self.next() as usize % pool.len()]
    }
}

fn subset(pool: &[&str], mask: u32) -> Vec<String> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, key)| (*key).to_string())
        .collect()
}

fn dedup_keep_order<T: Clone + Ord>(values: &[T]) -> Vec<T> {
    let mut seen = std::collections::BTreeSet::new();
    values
        .iter()
        .filter(|v| seen.insert((*v).clone()))
        .cloned()
        .collect()
}

fn arbitrary_grid(g: &mut Gene) -> Grid {
    let algo_mask = 1 + (g.next() as u32 % ((1 << ALGO_POOL.len()) - 1));
    let adv_mask = 1 + (g.next() as u32 % ((1 << ADV_POOL.len()) - 1));
    let shapes: Vec<(usize, usize)> = (0..1 + g.next() % 3)
        .map(|_| (1 + g.next() as usize % 32, 1 + g.next() as usize % 64))
        .collect();
    let ds: Vec<u64> = (0..1 + g.next() % 3).map(|_| 1 + g.next() % 64).collect();
    Grid {
        algos: subset(ALGO_POOL, algo_mask),
        adversaries: subset(ADV_POOL, adv_mask)
            .iter()
            .map(|key| AdversarySpec::parse(key).expect("pool keys are valid"))
            .collect(),
        shapes: dedup_keep_order(&shapes),
        ds: dedup_keep_order(&ds),
        seeds: 1 + g.next() % 10,
        base_seed: g.next(),
    }
}

/// Positive finite literals; `Display` prints the shortest decimal that
/// round-trips, so any such value survives `parse ∘ render` exactly.
fn arbitrary_num(g: &mut Gene) -> Expr {
    #[allow(
        clippy::cast_precision_loss,
        reason = "both operands are below 10^4, so they convert exactly"
    )]
    Expr::Num((g.next() % 10_000) as f64 + (g.next() % 100) as f64 / 100.0)
}

/// A random expression tree. `agg` selects the scope's leaf alphabet:
/// aggregate expressions wrap every metric in `min/max/mean/sum` and
/// carry no bare variables (the parser refuses either leaf outside its
/// scope), cell expressions are the reverse.
fn arbitrary_expr(g: &mut Gene, depth: u32, agg: bool) -> Expr {
    let choice = if depth == 0 {
        g.next() % 2
    } else {
        g.next() % 7
    };
    let sub = |g: &mut Gene| Box::new(arbitrary_expr(g, depth - 1, agg));
    match choice {
        0 => arbitrary_num(g),
        1 => {
            let metric = g.pick(VAR_POOL).to_string();
            if agg {
                Expr::Agg(AGG_POOL[g.next() as usize % AGG_POOL.len()], metric)
            } else {
                Expr::Var(metric)
            }
        }
        2 => Expr::Add(sub(g), sub(g)),
        3 => Expr::Sub(sub(g), sub(g)),
        4 => Expr::Mul(sub(g), sub(g)),
        5 => Expr::Div(sub(g), sub(g)),
        _ => {
            if agg {
                Expr::Mul(sub(g), sub(g))
            } else {
                Expr::Ratio(sub(g), sub(g))
            }
        }
    }
}

fn arbitrary_cmp(g: &mut Gene) -> Cmp {
    CMP_POOL[g.next() as usize % CMP_POOL.len()]
}

fn arbitrary_assertion(g: &mut Gene) -> Assertion {
    let aggregate = g.next() % 3 == 0;
    let filters: Vec<(String, String)> = (0..g.next() % 3)
        .map(|_| {
            let (k, v) = FILTER_POOL[g.next() as usize % FILTER_POOL.len()];
            (k.to_string(), v.to_string())
        })
        .collect();
    let guard = if !aggregate && g.next() % 2 == 0 {
        Some(Condition {
            lhs: arbitrary_expr(g, 1, false),
            cmp: arbitrary_cmp(g),
            rhs: arbitrary_expr(g, 1, false),
        })
    } else {
        None
    };
    Assertion {
        aggregate,
        filters,
        test: Condition {
            lhs: arbitrary_expr(g, 2, aggregate),
            cmp: arbitrary_cmp(g),
            rhs: arbitrary_expr(g, 2, aggregate),
        },
        guard,
    }
}

fn arbitrary_prose(g: &mut Gene) -> String {
    let words: Vec<&str> = (0..1 + g.next() % 5).map(|_| g.pick(WORD_POOL)).collect();
    words.join(" ")
}

fn arbitrary_id(g: &mut Gene) -> String {
    const ID_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    (0..1 + g.next() % 12)
        .map(|_| char::from(ID_CHARS[g.next() as usize % ID_CHARS.len()]))
        .collect()
}

fn arbitrary_scenario(seed: u64) -> Scenario {
    let g = &mut Gene(seed);
    Scenario {
        id: arbitrary_id(g),
        title: if g.next() % 2 == 0 {
            arbitrary_prose(g)
        } else {
            String::new()
        },
        setup: if g.next() % 2 == 0 {
            arbitrary_prose(g)
        } else {
            String::new()
        },
        notes: if g.next() % 2 == 0 {
            arbitrary_prose(g)
        } else {
            String::new()
        },
        trace: g.next() % 4 == 0,
        max_ticks: (g.next() % 2 == 0).then(|| 1 + g.next() % 100_000_000),
        grids: (0..1 + g.next() % 2).map(|_| arbitrary_grid(g)).collect(),
        smoke: (0..g.next() % 2).map(|_| arbitrary_grid(g)).collect(),
        derive: (g.next() % 2 == 0)
            .then(|| g.pick(&["ratio_quadratic", "lower_bound"][..]).to_string()),
        asserts: (0..g.next() % 4).map(|_| arbitrary_assertion(g)).collect(),
    }
}

proptest! {
    /// The headline property: `Scenario::parse(s.to_string()) == s` for
    /// scenarios assembled from random parts, and rendering is a fixed
    /// point (`render ∘ parse ∘ render ≡ render`).
    #[test]
    fn scenario_parse_render_round_trips(seed in any::<u64>()) {
        let s = arbitrary_scenario(seed);
        let rendered = s.to_string();
        let reparsed = match Scenario::parse(&rendered) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!(
                "rendered scenario must parse: {e}\n{rendered}"
            ))),
        };
        prop_assert_eq!(&reparsed, &s, "round-trip changed the scenario:\n{}", rendered);
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    /// Same for assertion lines alone — the grammar with filters,
    /// guards, aggregates, precedence, and `ratio(…)`.
    #[test]
    fn assertion_parse_render_round_trips(seed in any::<u64>()) {
        let a = arbitrary_assertion(&mut Gene(seed));
        let rendered = a.to_string();
        let reparsed = match Assertion::parse(&rendered) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!(
                "rendered assertion must parse: {e}\n{rendered}"
            ))),
        };
        prop_assert_eq!(&reparsed, &a, "round-trip changed `{}`", rendered);
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    /// A malformed line injected anywhere into a valid scenario is
    /// reported with exactly its 1-based line number.
    #[test]
    fn malformed_lines_report_their_line_number(
        seed in any::<u64>(),
        pick in any::<u64>(),
        bad_pick in 0u64..5,
    ) {
        const BAD: &[&str] = &[
            "frobnicate",
            "wat = 1",
            "assert work >= t trailing",
            "assert [color=red] work >= 1",
            "trace = maybe",
        ];
        // `trace = maybe` must not be shadowed by an earlier
        // duplicate-`trace` error, so keep the base trace-free.
        let mut s = arbitrary_scenario(seed);
        s.trace = false;
        let rendered = s.to_string();
        let mut lines: Vec<&str> = rendered.lines().collect();
        let at = pick as usize % (lines.len() + 1);
        let bad = BAD[bad_pick as usize];
        lines.insert(at, bad);
        let text = lines.join("\n");
        let e = match Scenario::parse(&text) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail(format!(
                "`{bad}` at line {} must fail parsing:\n{text}",
                at + 1
            ))),
        };
        prop_assert_eq!(e.line, at + 1, "wrong line for `{}`: {}", bad, e);
    }
}

/// The committed suite's own files satisfy the round-trip property, not
/// just synthetic ones — so hand-edits that would re-parse differently
/// are caught here.
#[test]
fn committed_scenarios_round_trip() {
    let dir = doall_bench::experiments::scenarios_dir();
    let paths = doall_bench::suite::discover(&dir).expect("committed suite discovers");
    assert!(!paths.is_empty());
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let s = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let reparsed = Scenario::parse(&s.to_string()).unwrap();
        assert_eq!(reparsed, s, "{}", path.display());
        assert_eq!(reparsed.to_string(), s.to_string(), "{}", path.display());
    }
}
