//! Declarative scenario grids: algorithm × adversary × (p, t) × d × seed
//! cross-products, with a parse/render round-trippable textual spec and
//! deterministic per-cell seeding.
//!
//! A [`Grid`] is the unit of experiment description; [`Grid::cells`]
//! expands it into [`Cell`]s, each of which names everything needed to
//! reproduce its runs: a string key for the algorithm (see
//! [`build_algorithm`]), a structured [`AdversarySpec`] (see
//! [`build_adversary`]), the instance shape, the delay bound `d`, the
//! replicate count, and a cell seed derived purely from the cell's
//! parameters — never from execution order — so a grid run on one thread
//! and on sixteen produces bit-identical results.
//!
//! Adversaries are *parameterized*: the grid grammar exposes each
//! adversary family's own knobs (`bursty:<period>`, `crash:<pct>@<stagger>`,
//! `lb:<stage>`, `lbrand:<stage>`, `straggler:<pct>:<slowdown>`), with
//! bare legacy keys (`bursty`, `crash:25`, `lb`, …) still parsing to the
//! documented defaults. Numeric knobs are canonicalized at parse time
//! (`crash:07` ≡ `crash:7`), so one adversary has exactly one rendered
//! spelling — and therefore one cell identity in sweep output and
//! baseline comparison.

use doall_algorithms::{Algorithm, Da, ObliDo, PaDet, PaGossip, PaRan1, PaRan2, SoloAll};
use doall_core::Instance;
use doall_perms::structured::{affine_schedules, rotation_schedules};
use doall_perms::{search, Schedules};
use doall_sim::adversary::{
    BurstyDelay, CrashSchedule, FixedDelay, LowerBoundAdversary, RandomDelay,
    RandomizedLbAdversary, StageAligned, Stragglers, UnitDelay,
};
use doall_sim::Adversary;
use std::fmt;

/// Algorithm key that skips simulation: cells carry only derived
/// (combinatorial) metrics. Used by the pure-contention experiments.
pub const ALGO_NONE: &str = "none";

/// An error from parsing a grid spec or building a cell's components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError(String);

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for GridError {}

fn err(msg: impl Into<String>) -> GridError {
    GridError(msg.into())
}

/// Default straggler percentage for a bare `straggler` key.
pub const DEFAULT_STRAGGLER_PCT: u64 = 25;
/// Default straggler slowdown factor for a bare `straggler` key.
pub const DEFAULT_STRAGGLER_SLOWDOWN: u64 = 2;

/// How a `crash:<pct>@<stagger>` adversary places its crashes inside the
/// guaranteed-to-fire window `[1, W]` (see [`crash_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CrashStagger {
    /// Crashes spread evenly across `[1, W]` — the default, and the only
    /// behaviour before the stagger became a knob.
    #[default]
    Even,
    /// Every crash fires at the same mid-window tick `⌈W/2⌉` — one
    /// correlated burst while the run is in full swing.
    Burst,
    /// Every crash fires at tick 1 — the earliest legal moment, so the
    /// survivors run the whole execution short-handed.
    Front,
}

impl CrashStagger {
    /// The grammar token (`even` / `burst` / `front`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CrashStagger::Even => "even",
            CrashStagger::Burst => "burst",
            CrashStagger::Front => "front",
        }
    }

    fn parse(s: &str) -> Result<Self, GridError> {
        match s {
            "even" => Ok(CrashStagger::Even),
            "burst" => Ok(CrashStagger::Burst),
            "front" => Ok(CrashStagger::Front),
            other => Err(err(format!(
                "crash stagger `{other}` is not one of even|burst|front"
            ))),
        }
    }
}

/// A structured adversary key: the adversary family plus its own knobs.
///
/// This is what grids sweep over — the textual grammar (parsed by
/// [`AdversarySpec::parse`], rendered by the `Display` impl) is:
///
/// | Key | Knobs | Bare-key default |
/// |---|---|---|
/// | `unit`, `fixed`, `random`, `stage` | — | — |
/// | `bursty[:<period>]` | phase length of the square wave | `max(d/2, 1)` (derived from the cell's `d`) |
/// | `lb[:<stage>]` | stage length `L` (clamped to `≤ d` at build) | `min(d, max(⌊t/6⌋, 1))` (Theorem 3.1) |
/// | `lbrand[:<stage>]` | stage length `L` (clamped to `≤ d` at build) | `min(d, max(⌊t/6⌋, 1))` (Theorem 3.4) |
/// | `crash:<pct>[@<stagger>]` | percentage crashed, stagger ∈ even\|burst\|front | stagger `even` |
/// | `straggler[:<pct>[:<slowdown>]]` | percentage slowed, slowdown factor | pct 25, slowdown 2 |
///
/// Parsing canonicalizes numeric knobs (`crash:07` parses to the same
/// spec as `crash:7`) and elides default knobs on render (`crash:25@even`
/// renders as `crash:25`), so every spec value has exactly one `Display`
/// spelling — the string used for cell identity, seeding, and baseline
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdversarySpec {
    /// Every message delayed exactly 1 tick (the benign baseline).
    Unit,
    /// Every message delayed exactly `d` ticks.
    Fixed,
    /// Uniformly random delays in `[1, d]`.
    Random,
    /// Stage-aligned delivery at multiples of `d`.
    Stage,
    /// Square-wave latency: calm (delay 1) and congested (delay `d`)
    /// phases alternating every `period` ticks. `None` = the legacy
    /// default `max(d/2, 1)`.
    ///
    /// Degenerate case: at `d = 1` the congested delay equals the calm
    /// delay, so every `bursty` variant collapses to `unit` behaviour
    /// (the cell is still recorded under its own key).
    Bursty {
        /// Phase length in ticks (`≥ 1`); `None` = `max(d/2, 1)`.
        period: Option<u64>,
    },
    /// The Theorem 3.1 deterministic lower-bound adversary. `None` uses
    /// the paper's stage length `L = min{d, max(⌊t/6⌋, 1)}`; an explicit
    /// stage is clamped to `[1, d]` at build time (a longer stage would
    /// exceed the d-adversary's delay budget).
    Lb {
        /// Stage length override (`≥ 1`); `None` = the paper's `L`.
        stage: Option<u64>,
    },
    /// The Theorem 3.4 randomized lower-bound adversary; stage semantics
    /// as in [`AdversarySpec::Lb`].
    Lbrand {
        /// Stage length override (`≥ 1`); `None` = the paper's `L`.
        stage: Option<u64>,
    },
    /// Random delays ≤ `d` plus staggered crashes of `pct`% of the
    /// processors (rounded half-up, capped at `p − 1`).
    Crash {
        /// Percentage of processors to crash (0–100).
        pct: u64,
        /// Where in the guaranteed-to-fire window the crashes land.
        stagger: CrashStagger,
    },
    /// Random delays ≤ `d` plus persistent stragglers: `pct`% of the
    /// processors (rounded half-up, capped at `p − 1`) step only once
    /// every `slowdown` ticks.
    Straggler {
        /// Percentage of processors slowed (1–100).
        pct: u64,
        /// Slowdown factor (`≥ 2`; 1 would be a no-op).
        slowdown: u64,
    },
}

impl AdversarySpec {
    /// Parses an adversary key, canonicalizing numeric knobs.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] naming the bad key, knob, or range.
    pub fn parse(key: &str) -> Result<Self, GridError> {
        fn knob(key: &str, what: &str, raw: &str) -> Result<u64, GridError> {
            raw.parse()
                .map_err(|_| err(format!("{key}: {what} `{raw}` is not a number")))
        }
        let (head, args) = match key.split_once(':') {
            Some((head, args)) => (head, Some(args)),
            None => (key, None),
        };
        match (head, args) {
            ("unit", None) => Ok(AdversarySpec::Unit),
            ("fixed", None) => Ok(AdversarySpec::Fixed),
            ("random", None) => Ok(AdversarySpec::Random),
            ("stage", None) => Ok(AdversarySpec::Stage),
            ("unit" | "fixed" | "random" | "stage", Some(_)) => {
                Err(err(format!("adversary `{head}` takes no parameter")))
            }
            ("bursty", None) => Ok(AdversarySpec::Bursty { period: None }),
            ("bursty", Some(raw)) => {
                let period = knob(key, "period", raw)?;
                if period == 0 {
                    return Err(err("bursty:<period> must be at least 1 tick"));
                }
                Ok(AdversarySpec::Bursty {
                    period: Some(period),
                })
            }
            ("lb" | "lbrand", None) => Ok(match head {
                "lb" => AdversarySpec::Lb { stage: None },
                _ => AdversarySpec::Lbrand { stage: None },
            }),
            ("lb" | "lbrand", Some(raw)) => {
                let stage = knob(key, "stage length", raw)?;
                if stage == 0 {
                    return Err(err(format!("{head}:<stage> must be at least 1 tick")));
                }
                Ok(match head {
                    "lb" => AdversarySpec::Lb { stage: Some(stage) },
                    _ => AdversarySpec::Lbrand { stage: Some(stage) },
                })
            }
            ("crash", None) => Err(err("crash needs a percentage: crash:<pct>[@<stagger>]")),
            ("crash", Some(rest)) => {
                let (pct_raw, stagger) = match rest.split_once('@') {
                    Some((pct_raw, s)) => (pct_raw, CrashStagger::parse(s)?),
                    None => (rest, CrashStagger::Even),
                };
                let pct = knob(key, "percentage", pct_raw)?;
                if pct > 100 {
                    return Err(err("crash:<pct> takes a percentage 0–100"));
                }
                Ok(AdversarySpec::Crash { pct, stagger })
            }
            ("straggler", args) => {
                let (pct_raw, slowdown_raw) = match args {
                    None => (None, None),
                    Some(rest) => match rest.split_once(':') {
                        Some((pct, slowdown)) => (Some(pct), Some(slowdown)),
                        None => (Some(rest), None),
                    },
                };
                let pct = match pct_raw {
                    Some(raw) => knob(key, "percentage", raw)?,
                    None => DEFAULT_STRAGGLER_PCT,
                };
                if pct == 0 || pct > 100 {
                    return Err(err(
                        "straggler:<pct> takes a percentage 1–100 (0 stragglers is just `random`)",
                    ));
                }
                let slowdown = match slowdown_raw {
                    Some(raw) => knob(key, "slowdown", raw)?,
                    None => DEFAULT_STRAGGLER_SLOWDOWN,
                };
                if slowdown < 2 {
                    return Err(err(
                        "straggler slowdown must be at least 2 (1 slows nobody)",
                    ));
                }
                Ok(AdversarySpec::Straggler { pct, slowdown })
            }
            (other, _) => Err(err(format!("unknown adversary `{other}`"))),
        }
    }
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversarySpec::Unit => write!(f, "unit"),
            AdversarySpec::Fixed => write!(f, "fixed"),
            AdversarySpec::Random => write!(f, "random"),
            AdversarySpec::Stage => write!(f, "stage"),
            AdversarySpec::Bursty { period: None } => write!(f, "bursty"),
            AdversarySpec::Bursty { period: Some(p) } => write!(f, "bursty:{p}"),
            AdversarySpec::Lb { stage: None } => write!(f, "lb"),
            AdversarySpec::Lb { stage: Some(s) } => write!(f, "lb:{s}"),
            AdversarySpec::Lbrand { stage: None } => write!(f, "lbrand"),
            AdversarySpec::Lbrand { stage: Some(s) } => write!(f, "lbrand:{s}"),
            AdversarySpec::Crash {
                pct,
                stagger: CrashStagger::Even,
            } => write!(f, "crash:{pct}"),
            AdversarySpec::Crash { pct, stagger } => {
                write!(f, "crash:{pct}@{}", stagger.label())
            }
            AdversarySpec::Straggler { pct, slowdown } => {
                write!(f, "straggler:{pct}:{slowdown}")
            }
        }
    }
}

/// Execution backend for a cell: the discrete-event simulator (the
/// default, and the only backend before backends became a grid axis) or
/// `doall-runtime`'s real OS threads with delayed channels.
///
/// Grammar: `backends=sim,threads`. A grid without the axis is a *legacy
/// sim-only* grid — its cells carry no backend tag, render exactly as
/// before, and keep their byte-for-byte baselines; a grid that names the
/// axis (even just `backends=sim`) tags every cell and switches its
/// records to the extended schema (see `CellMeasurement::metrics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Backend {
    /// Deterministic discrete-event simulation (predicted curves).
    #[default]
    Sim,
    /// Real OS threads via `doall-runtime` (measured curves).
    Threads,
}

impl Backend {
    /// The grammar token (`sim` / `threads`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threads => "threads",
        }
    }

    /// Parses a backend token.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] naming the bad token and the legal ones.
    pub fn parse(s: &str) -> Result<Self, GridError> {
        match s {
            "sim" => Ok(Backend::Sim),
            "threads" => Ok(Backend::Threads),
            other => Err(err(format!(
                "unknown backend `{other}` (backends are sim|threads)"
            ))),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One point of a grid: a fully specified scenario plus its replicate
/// count and deterministic seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Algorithm key (see [`build_algorithm`]).
    pub algo: String,
    /// Structured adversary spec (see [`build_adversary`]).
    pub adversary: AdversarySpec,
    /// Processors.
    pub p: usize,
    /// Tasks.
    pub t: usize,
    /// Delay bound handed to the adversary.
    pub d: u64,
    /// Number of replicate runs (seeds `0..seeds`).
    pub seeds: u64,
    /// Cell seed, derived from the grid's base seed and the cell's own
    /// parameters (not its position or execution order).
    pub cell_seed: u64,
    /// Execution backend. `None` for cells of a legacy grid (no
    /// `backends=` axis): they run on the simulator with the legacy
    /// record schema. `Some(_)` for cells of a backend-aware grid, which
    /// use the extended schema. The backend is *not* hashed into the cell
    /// seed, so the sim and threads variants of a scenario share replicate
    /// seeds — the same algorithm randomness on both substrates.
    pub backend: Option<Backend>,
}

impl Cell {
    /// The seed of replicate `k` of this cell.
    #[must_use]
    pub fn run_seed(&self, k: u64) -> u64 {
        splitmix64(self.cell_seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The backend this cell executes on ([`Backend::Sim`] for legacy
    /// cells without an explicit tag).
    #[must_use]
    pub fn effective_backend(&self) -> Backend {
        self.backend.unwrap_or_default()
    }
}

/// SplitMix64 — the standard seed expander; deterministic and
/// platform-independent.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes — used to hash cell parameters into the cell seed.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A declarative scenario grid: the cross-product of every axis.
///
/// The textual spec is a space-separated list of `key=value` fields with
/// comma-separated lists; [`Grid::parse`] and the [`fmt::Display`] impl
/// round-trip:
///
/// ```text
/// algos=da:3,paran1 advs=stage shapes=32x32,64x256 ds=1,4,16 seeds=5 seed=0
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// Algorithm keys.
    pub algos: Vec<String>,
    /// Adversary specs (parameterized; see [`AdversarySpec`]).
    pub adversaries: Vec<AdversarySpec>,
    /// Instance shapes `(p, t)`.
    pub shapes: Vec<(usize, usize)>,
    /// Delay bounds.
    pub ds: Vec<u64>,
    /// Execution backends (`backends=sim,threads`). Empty means the axis
    /// was omitted: a legacy sim-only grid whose cells carry no backend
    /// tag, render exactly as before the axis existed, and keep their
    /// byte-for-byte baselines. Non-empty (even just `[Sim]`) tags every
    /// cell and switches records to the extended schema.
    pub backends: Vec<Backend>,
    /// Replicates per cell.
    pub seeds: u64,
    /// Base seed mixed into every cell seed.
    pub base_seed: u64,
}

impl Grid {
    /// Parses the textual spec format rendered by [`fmt::Display`].
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] for unknown or repeated fields, malformed
    /// values, empty axes, or unknown algorithm/adversary keys.
    pub fn parse(spec: &str) -> Result<Self, GridError> {
        let mut algos: Option<Vec<String>> = None;
        let mut adversaries: Option<Vec<AdversarySpec>> = None;
        let mut shapes: Option<Vec<(usize, usize)>> = None;
        let mut ds: Option<Vec<u64>> = None;
        let mut backends: Vec<Backend> = Vec::new();
        let mut seeds = 1u64;
        let mut base_seed = 0u64;
        // One bit per field seen: a repeated field would replace the first.
        let mut given = 0u8;
        for field in spec.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| err(format!("grid field `{field}` is not key=value")))?;
            let bit = match key {
                "algos" => 1,
                "advs" => 2,
                "shapes" => 4,
                "ds" => 8,
                "backends" => 16,
                "seeds" => 32,
                "seed" => 64,
                _ => 0,
            };
            if given & bit != 0 {
                return Err(err(format!("grid field `{key}` is given twice")));
            }
            given |= bit;
            match key {
                "algos" => algos = Some(value.split(',').map(str::to_string).collect()),
                "advs" => {
                    adversaries = Some(
                        value
                            .split(',')
                            .map(AdversarySpec::parse)
                            .collect::<Result<_, _>>()?,
                    );
                }
                "shapes" => {
                    let mut parsed = Vec::new();
                    for shape in value.split(',') {
                        let (p, t) = shape
                            .split_once('x')
                            .ok_or_else(|| err(format!("shape `{shape}` is not PxT")))?;
                        let p: usize = p
                            .parse()
                            .map_err(|_| err(format!("shape `{shape}`: bad processor count")))?;
                        let t: usize = t
                            .parse()
                            .map_err(|_| err(format!("shape `{shape}`: bad task count")))?;
                        if p == 0 || t == 0 {
                            return Err(err(format!("shape `{shape}` must be positive")));
                        }
                        parsed.push((p, t));
                    }
                    shapes = Some(parsed);
                }
                "ds" => {
                    let mut parsed = Vec::new();
                    for d in value.split(',') {
                        let d: u64 = d
                            .parse()
                            .map_err(|_| err(format!("d `{d}` is not a positive integer")))?;
                        if d == 0 {
                            return Err(err("d must be at least 1"));
                        }
                        parsed.push(d);
                    }
                    ds = Some(parsed);
                }
                "backends" => {
                    backends = value
                        .split(',')
                        .map(Backend::parse)
                        .collect::<Result<_, _>>()?;
                }
                "seeds" => {
                    seeds = value
                        .parse()
                        .map_err(|_| err(format!("seeds `{value}` is not a number")))?;
                    if seeds == 0 {
                        return Err(err("seeds must be at least 1"));
                    }
                }
                "seed" => {
                    base_seed = value
                        .parse()
                        .map_err(|_| err(format!("seed `{value}` is not a number")))?;
                }
                other => return Err(err(format!("unknown grid field `{other}`"))),
            }
        }
        let grid = Self {
            algos: algos.ok_or_else(|| err("grid needs algos=..."))?,
            adversaries: adversaries.unwrap_or_else(|| vec![AdversarySpec::Stage]),
            shapes: shapes.ok_or_else(|| err("grid needs shapes=PxT,..."))?,
            ds: ds.unwrap_or_else(|| vec![1]),
            backends,
            seeds,
            base_seed,
        };
        grid.validate()?;
        Ok(grid)
    }

    /// Checks every key and axis without running anything.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] naming the first bad key or empty axis.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.algos.is_empty() || self.adversaries.is_empty() {
            return Err(err("grid axes must be non-empty"));
        }
        if self.shapes.is_empty() || self.ds.is_empty() {
            return Err(err("grid needs at least one shape and one d"));
        }
        if self.seeds == 0 {
            return Err(err("seeds must be at least 1"));
        }
        for key in &self.algos {
            validate_algo_key(key)?;
        }
        // Adversaries are structured specs, valid by construction.
        // Duplicate axis values would expand to duplicate cells with
        // identical seeds — double-counted work for the engine and
        // duplicate cell keys the baseline comparator rightly rejects.
        // Specs compare post-canonicalization, so `crash:07,crash:7` is a
        // duplicate here even though the spellings differ.
        fn unique_axis<T: Ord>(values: &[T], axis: &str) -> Result<(), GridError> {
            let mut seen = std::collections::BTreeSet::new();
            for v in values {
                if !seen.insert(v) {
                    return Err(err(format!("duplicate value in {axis} axis")));
                }
            }
            Ok(())
        }
        unique_axis(&self.algos, "algos")?;
        unique_axis(&self.adversaries, "advs")?;
        unique_axis(&self.shapes, "shapes")?;
        unique_axis(&self.ds, "ds")?;
        // An empty backends axis means "axis omitted" (legacy sim-only),
        // so only a named axis is checked for duplicates.
        unique_axis(&self.backends, "backends")?;
        Ok(())
    }

    /// Expands the cross-product into cells, in canonical order
    /// (algorithm-major, then adversary, shape, d, backend — so the sim
    /// and threads variants of a scenario sit next to each other).
    #[must_use]
    pub fn cells(&self) -> Vec<Cell> {
        // An omitted backends axis expands like `[Sim]` but leaves cells
        // untagged (legacy schema and rendering).
        let backends: Vec<Option<Backend>> = if self.backends.is_empty() {
            vec![None]
        } else {
            self.backends.iter().map(|&b| Some(b)).collect()
        };
        let mut out = Vec::new();
        for algo in &self.algos {
            for &adversary in &self.adversaries {
                // Hash the canonical rendering, so legacy keys keep the
                // cell seeds (and hence baselines) they had when
                // adversaries were raw strings.
                let adversary_key = adversary.to_string();
                for &(p, t) in &self.shapes {
                    for &d in &self.ds {
                        // The backend is deliberately absent from the
                        // hash: sim-only grids keep their legacy seeds,
                        // and both backends of a scenario share replicate
                        // seeds (same algorithm randomness on each).
                        let mut h = fnv1a(algo.as_bytes(), 0xcbf2_9ce4_8422_2325);
                        h = fnv1a(adversary_key.as_bytes(), h);
                        h = fnv1a(&(p as u64).to_le_bytes(), h);
                        h = fnv1a(&(t as u64).to_le_bytes(), h);
                        h = fnv1a(&d.to_le_bytes(), h);
                        for &backend in &backends {
                            out.push(Cell {
                                algo: algo.clone(),
                                adversary,
                                p,
                                t,
                                d,
                                seeds: self.seeds,
                                cell_seed: splitmix64(h ^ self.base_seed),
                                backend,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shapes: Vec<String> = self
            .shapes
            .iter()
            .map(|(p, t)| format!("{p}x{t}"))
            .collect();
        let ds: Vec<String> = self.ds.iter().map(u64::to_string).collect();
        let adversaries: Vec<String> = self
            .adversaries
            .iter()
            .map(AdversarySpec::to_string)
            .collect();
        // An omitted backends axis renders as nothing at all, so legacy
        // sim-only grids keep their exact pre-axis spelling (and parse ∘
        // render stays the identity in both directions).
        let backends = if self.backends.is_empty() {
            String::new()
        } else {
            let tokens: Vec<&str> = self.backends.iter().map(|b| b.label()).collect();
            format!(" backends={}", tokens.join(","))
        };
        write!(
            f,
            "algos={} advs={}{} shapes={} ds={} seeds={} seed={}",
            self.algos.join(","),
            adversaries.join(","),
            backends,
            shapes.join(","),
            ds.join(","),
            self.seeds,
            self.base_seed
        )
    }
}

/// Validates an algorithm key without building it (no instance needed).
///
/// The key is a cell's identity, so a numeric parameter must be spelled
/// as its decimal rendering: `da:03` and `da:+3` are refused (write
/// `da:3`), where the adversary keys canonicalize.
///
/// # Errors
///
/// Returns a [`GridError`] for an unknown key or bad parameter.
pub fn validate_algo_key(key: &str) -> Result<(), GridError> {
    fn param(head: &str, what: &str, raw: &str) -> Result<usize, GridError> {
        let n: usize = raw
            .parse()
            .map_err(|_| err(format!("{head}<{what}>: `{raw}` is not a number")))?;
        if n.to_string() != raw {
            return Err(err(format!("write `{head}{n}`, not `{head}{raw}`")));
        }
        Ok(n)
    }
    if let Some(q) = key.strip_prefix("da:") {
        let q = param("da:", "q", q)?;
        if !(2..=8).contains(&q) {
            return Err(err("da:<q> supports 2 ≤ q ≤ 8 (certified schedule search)"));
        }
        return Ok(());
    }
    if let Some(fanout) = key.strip_prefix("gossip:") {
        if param("gossip:", "fanout", fanout)? == 0 {
            return Err(err("gossip fanout must be at least 1"));
        }
        return Ok(());
    }
    match key {
        "soloall" | "oblido" | "oblido-searched" | "oblido-worst" | "paran1" | "paran2"
        | "padet" | "padet-rot" | "padet-affine" | ALGO_NONE => Ok(()),
        other => Err(err(format!("unknown algorithm `{other}`"))),
    }
}

/// The algorithm keys whose processors follow a schedule list: the keys
/// [`schedules_for_algo`] builds a list for, and the ones the derive
/// hooks that read a cell's own list accept.
pub const SCHEDULE_KEYS: [&str; 6] = [
    "oblido",
    "oblido-searched",
    "oblido-worst",
    "padet",
    "padet-rot",
    "padet-affine",
];

/// Builds the schedule list an algorithm key implies, when it has one —
/// used by experiments whose derived metrics (contention, `(d)`-Cont)
/// refer to the very list the algorithm ran with. `Some` exactly for
/// [`SCHEDULE_KEYS`] (`padet-affine` over a prime job count only).
#[must_use]
pub fn schedules_for_algo(key: &str, instance: Instance, seed: u64) -> Option<Schedules> {
    let n = instance.units();
    match key {
        "oblido" => Some(Schedules::random(n, n, seed)),
        "oblido-searched" => Some(search::low_contention_list(n, seed).0),
        "oblido-worst" => Some(Schedules::worst(n, n)),
        "padet" => Some(PaDet::random_for(instance, seed).schedules().clone()),
        "padet-rot" => Some(rotation_schedules(instance.processors(), n)),
        "padet-affine" => affine_schedules(instance.processors(), n, seed).ok(),
        _ => None,
    }
}

/// Builds the algorithm named by `key` for `instance`, deriving any
/// randomness from `seed`.
///
/// Keys: `soloall`, `oblido` (random list), `oblido-searched` (certified
/// low-contention list), `oblido-worst` (identical permutations),
/// `da:<q>`, `paran1`, `paran2`, `padet` (random list), `padet-rot`
/// (rotations), `padet-affine` (affine maps; requires a prime job count
/// `min(p, t)`),
/// `gossip:<fanout>`, and `none` (skip simulation).
///
/// # Errors
///
/// Returns a [`GridError`] for an unknown key, a bad parameter, or a key
/// whose preconditions the instance does not meet (e.g. `padet-affine`
/// over a composite job count).
pub fn build_algorithm(
    key: &str,
    instance: Instance,
    seed: u64,
) -> Result<Box<dyn Algorithm>, GridError> {
    validate_algo_key(key)?;
    if let Some(q) = key.strip_prefix("da:") {
        let q: usize = q.parse().expect("validated");
        return Ok(Box::new(Da::with_default_schedules(q, seed)));
    }
    if let Some(fanout) = key.strip_prefix("gossip:") {
        let fanout: usize = fanout.parse().expect("validated");
        return Ok(Box::new(PaGossip::new(seed, fanout)));
    }
    Ok(match key {
        "soloall" => Box::new(SoloAll::new()),
        "oblido" | "oblido-searched" | "oblido-worst" => Box::new(ObliDo::new(
            schedules_for_algo(key, instance, seed).expect("oblido keys carry schedules"),
        )),
        "paran1" => Box::new(PaRan1::new(seed)),
        "paran2" => Box::new(PaRan2::new(seed)),
        "padet" => Box::new(PaDet::random_for(instance, seed)),
        "padet-rot" => Box::new(PaDet::new(
            schedules_for_algo(key, instance, seed).expect("rotations always exist"),
        )),
        "padet-affine" => Box::new(PaDet::new(
            schedules_for_algo(key, instance, seed).ok_or_else(|| {
                err(format!(
                    "padet-affine needs a prime job count min(p, t), not {}",
                    instance.units()
                ))
            })?,
        )),
        ALGO_NONE => return Err(err("algorithm `none` skips simulation; nothing to build")),
        _ => unreachable!("validated"),
    })
}

/// The number of processors a `crash:<pct>` (or `straggler:<pct>`)
/// adversary afflicts on `p` processors: `pct`% rounded half-up, capped
/// at `p − 1` so at least one full-speed survivor remains (the paper's
/// only fault restriction).
///
/// The old truncating division (`p·pct/100`) silently crashed *nobody*
/// for small grids — `crash:10` at `p = 5` rounded 0.5 down to 0.
#[must_use]
pub fn crash_count(pct: u64, p: usize) -> usize {
    (((p as u64 * pct + 50) / 100) as usize).min(p - 1)
}

/// Which processors a `straggler:<pct>:<slowdown>` adversary slows: the
/// first [`crash_count`]`(pct, p)` of them (deterministic in the cell's
/// parameters, like [`crash_plan`]). `true` = persistently slow.
#[must_use]
pub fn straggler_flags(pct: u64, p: usize) -> Vec<bool> {
    let count = crash_count(pct, p);
    (0..p).map(|i| i < count).collect()
}

/// The crash schedule a `crash:<pct>@<stagger>` adversary uses for a
/// `(p, t)` instance under tick budget `max_ticks`: `plan[i] = Some(τ)`
/// crashes processor `i` at tick `τ`, `None` means it survives.
/// Deterministic in its arguments (no seed), so the schedule — and hence
/// the recorded crash count — is identical across a cell's replicates.
///
/// All staggers place every crash inside the window `[1, W]`, `W =
/// min(max_ticks − 1, ⌈t/p⌉)`. No execution completes in fewer than
/// `⌈t/p⌉` ticks (a processor performs at most one task per step), so
/// every scheduled crash lands while the run is still in progress — the
/// old fixed `5 + 3i` schedule ignored the horizon, and on short smoke
/// runs most scheduled crashes fell after completion, leaving "crash"
/// cells exercising no crashes at all. Within the window:
///
/// * [`CrashStagger::Even`] spreads the crashes evenly across `[1, W]`;
/// * [`CrashStagger::Burst`] fires them all at the mid-window tick
///   `⌈W/2⌉`;
/// * [`CrashStagger::Front`] fires them all at tick 1.
#[must_use]
pub fn crash_plan(
    pct: u64,
    stagger: CrashStagger,
    p: usize,
    t: usize,
    max_ticks: u64,
) -> Vec<Option<u64>> {
    let count = crash_count(pct, p);
    let floor = t.div_ceil(p) as u64;
    let window = floor.min(max_ticks.saturating_sub(1)).max(1);
    let tick_of = |i: u64| match stagger {
        CrashStagger::Even => 1 + (i * (window - 1)) / count.max(1) as u64,
        CrashStagger::Burst => window.div_ceil(2).max(1),
        CrashStagger::Front => 1,
    };
    (0..p)
        .map(|i| (i < count).then(|| tick_of(i as u64)))
        .collect()
}

/// Builds the adversary described by `spec` with delay bound `d` for a
/// `(p, t)` instance, deriving any randomness from `seed`. `max_ticks`
/// is the run's tick budget — [`AdversarySpec::Crash`] scales its
/// stagger window to it (see [`crash_plan`]); the other kinds ignore it.
///
/// Infallible: every [`AdversarySpec`] is buildable for every positive
/// `(p, t, d)`. Degenerate parameterizations are handled by construction
/// rather than rejection: a crash/straggler percentage that rounds to 0
/// afflicted processors builds the plain random-delay adversary, an
/// `lb`/`lbrand` stage override is clamped to `[1, d]` (a longer stage
/// would exceed the d-adversary's delay budget), and `bursty` at `d = 1`
/// degenerates to constant delay 1 (congested delay = calm delay) — see
/// [`AdversarySpec::Bursty`].
#[must_use]
pub fn build_adversary(
    spec: &AdversarySpec,
    p: usize,
    t: usize,
    d: u64,
    seed: u64,
    max_ticks: u64,
) -> Box<dyn Adversary> {
    match *spec {
        AdversarySpec::Unit => Box::new(UnitDelay),
        AdversarySpec::Fixed => Box::new(FixedDelay::new(d)),
        AdversarySpec::Random => Box::new(RandomDelay::new(d, seed)),
        AdversarySpec::Stage => Box::new(StageAligned::new(d)),
        AdversarySpec::Bursty { period } => {
            Box::new(BurstyDelay::new(d, period.unwrap_or((d / 2).max(1))))
        }
        AdversarySpec::Lb { stage: None } => Box::new(LowerBoundAdversary::new(d, t)),
        AdversarySpec::Lb { stage: Some(s) } => {
            Box::new(LowerBoundAdversary::with_stage_len(d, t, s.min(d)))
        }
        AdversarySpec::Lbrand { stage: None } => Box::new(RandomizedLbAdversary::new(d, t, seed)),
        AdversarySpec::Lbrand { stage: Some(s) } => {
            Box::new(RandomizedLbAdversary::with_stage_len(d, t, s.min(d), seed))
        }
        AdversarySpec::Crash { pct, stagger } => {
            let delays = Box::new(RandomDelay::new(d, seed));
            if crash_count(pct, p) == 0 {
                return delays;
            }
            Box::new(CrashSchedule::new(
                delays,
                crash_plan(pct, stagger, p, t, max_ticks),
            ))
        }
        AdversarySpec::Straggler { pct, slowdown } => {
            let delays = Box::new(RandomDelay::new(d, seed));
            let flags = straggler_flags(pct, p);
            if !flags.contains(&true) {
                return delays;
            }
            Box::new(Stragglers::new(delays, flags, slowdown))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_parse_display_round_trips() {
        let specs = [
            "algos=da:3,paran1 advs=stage,unit shapes=32x32,64x256 ds=1,4,16 seeds=5 seed=0",
            "algos=soloall advs=crash:50 shapes=8x8 ds=2 seeds=1 seed=42",
            "algos=none advs=unit shapes=8x64 ds=1,4 seeds=3 seed=7",
            "algos=da:3 advs=bursty:4,crash:25@burst,straggler:25:4 shapes=16x64 ds=2,8 seeds=3 \
             seed=0",
            "algos=paran1 advs=lb:3,lbrand:9,crash:7@front shapes=9x9 ds=9 seeds=1 seed=1",
        ];
        for spec in specs {
            let grid = Grid::parse(spec).unwrap();
            assert_eq!(grid.to_string(), spec, "canonical spec round-trips");
            assert_eq!(Grid::parse(&grid.to_string()).unwrap(), grid);
        }
    }

    #[test]
    fn grid_parse_defaults() {
        let grid = Grid::parse("algos=paran1 shapes=4x8").unwrap();
        assert_eq!(grid.adversaries, vec![AdversarySpec::Stage]);
        assert_eq!(grid.ds, vec![1]);
        assert_eq!(grid.backends, Vec::new(), "omitted axis stays omitted");
        assert_eq!(grid.seeds, 1);
        assert_eq!(grid.base_seed, 0);
    }

    #[test]
    fn backends_axis_round_trips_and_tags_cells() {
        let spec = "algos=da:3 advs=unit,crash:25@burst backends=sim,threads shapes=8x32 ds=2 \
                    seeds=2 seed=0";
        let grid = Grid::parse(spec).unwrap();
        assert_eq!(grid.backends, vec![Backend::Sim, Backend::Threads]);
        assert_eq!(grid.to_string(), spec, "canonical spelling round-trips");
        assert_eq!(Grid::parse(&grid.to_string()).unwrap(), grid);
        // One cell per (scenario × backend), backend innermost.
        let cells = grid.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].backend, Some(Backend::Sim));
        assert_eq!(cells[1].backend, Some(Backend::Threads));
        assert_eq!(cells[0].effective_backend(), Backend::Sim);
        assert_eq!(cells[1].effective_backend(), Backend::Threads);
    }

    #[test]
    fn backends_axis_does_not_perturb_cell_seeds() {
        // The backend is not hashed: a scenario's sim and threads cells
        // share seeds with each other *and* with the legacy untagged cell,
        // so sim-only baselines survive and e17's curves compare
        // like-for-like randomness.
        let legacy = Grid::parse("algos=paran1 advs=stage shapes=4x8 ds=2 seeds=3 seed=7").unwrap();
        let tagged = Grid::parse(
            "algos=paran1 advs=stage backends=sim,threads shapes=4x8 ds=2 seeds=3 seed=7",
        )
        .unwrap();
        let (lc, tc) = (legacy.cells(), tagged.cells());
        assert_eq!(lc.len(), 1);
        assert_eq!(tc.len(), 2);
        assert_eq!(lc[0].backend, None, "legacy cells stay untagged");
        for cell in &tc {
            assert_eq!(cell.cell_seed, lc[0].cell_seed);
            assert_eq!(cell.run_seed(2), lc[0].run_seed(2));
        }
    }

    #[test]
    fn explicit_sim_only_backends_axis_is_kept_explicit() {
        // `backends=sim` is not the same spec as no axis: it opts the grid
        // into the extended record schema, so Display must not elide it.
        let grid =
            Grid::parse("algos=paran1 advs=unit backends=sim shapes=4x8 ds=1 seeds=1 seed=0")
                .unwrap();
        assert_eq!(
            grid.to_string(),
            "algos=paran1 advs=unit backends=sim shapes=4x8 ds=1 seeds=1 seed=0"
        );
        assert_eq!(grid.cells()[0].backend, Some(Backend::Sim));
        assert_eq!(Grid::parse(&grid.to_string()).unwrap(), grid);
    }

    #[test]
    fn backend_tokens_are_validated() {
        assert_eq!(Backend::parse("sim").unwrap(), Backend::Sim);
        assert_eq!(Backend::parse("threads").unwrap(), Backend::Threads);
        let e = Backend::parse("gpu").unwrap_err().to_string();
        assert!(
            e.contains("sim|threads"),
            "error names the legal tokens: {e}"
        );
    }

    #[test]
    fn adversary_spec_parses_bare_keys_to_documented_defaults() {
        for (key, spec) in [
            ("unit", AdversarySpec::Unit),
            ("fixed", AdversarySpec::Fixed),
            ("random", AdversarySpec::Random),
            ("stage", AdversarySpec::Stage),
            ("bursty", AdversarySpec::Bursty { period: None }),
            ("lb", AdversarySpec::Lb { stage: None }),
            ("lbrand", AdversarySpec::Lbrand { stage: None }),
            (
                "crash:25",
                AdversarySpec::Crash {
                    pct: 25,
                    stagger: CrashStagger::Even,
                },
            ),
            (
                "straggler",
                AdversarySpec::Straggler {
                    pct: DEFAULT_STRAGGLER_PCT,
                    slowdown: DEFAULT_STRAGGLER_SLOWDOWN,
                },
            ),
        ] {
            assert_eq!(AdversarySpec::parse(key).unwrap(), spec, "{key}");
        }
        // Spelling out a default knob parses to the same spec as eliding it.
        assert_eq!(
            AdversarySpec::parse("crash:25@even").unwrap(),
            AdversarySpec::parse("crash:25").unwrap()
        );
        assert_eq!(
            AdversarySpec::parse("straggler:25:2").unwrap(),
            AdversarySpec::parse("straggler").unwrap()
        );
        assert_eq!(
            AdversarySpec::parse("straggler:40").unwrap(),
            AdversarySpec::parse("straggler:40:2").unwrap()
        );
    }

    #[test]
    fn adversary_spec_canonicalizes_numeric_knobs() {
        // `crash:07` and `crash:7` used to build identical adversaries yet
        // carry distinct cell identities; parsing now canonicalizes.
        assert_eq!(
            AdversarySpec::parse("crash:07").unwrap(),
            AdversarySpec::parse("crash:7").unwrap()
        );
        assert_eq!(
            AdversarySpec::parse("crash:07").unwrap().to_string(),
            "crash:7"
        );
        assert_eq!(
            AdversarySpec::parse("bursty:007").unwrap().to_string(),
            "bursty:7"
        );
        assert_eq!(
            AdversarySpec::parse("straggler:050:04")
                .unwrap()
                .to_string(),
            "straggler:50:4"
        );
        assert_eq!(
            AdversarySpec::parse("crash:25@even").unwrap().to_string(),
            "crash:25",
            "default stagger is elided — one spelling per spec"
        );
        // And canonicalized duplicates are caught by grid validation.
        assert!(Grid::parse("algos=paran1 advs=crash:07,crash:7 shapes=4x8").is_err());
    }

    #[test]
    fn adversary_spec_rejects_bad_knobs() {
        for bad in [
            "bursty:0",
            "bursty:soon",
            "bursty:4:2",
            "crash",
            "crash:150",
            "crash:150@even",
            "crash:25@sideways",
            "crash:25@",
            "crash:@burst",
            "lb:0",
            "lbrand:0",
            "lb:many",
            "straggler:0:3",
            "straggler:101",
            "straggler:25:1",
            "straggler:25:0",
            "straggler:25:4:9",
            "unit:1",
            "stage:2",
            "frobnicate",
        ] {
            let e = AdversarySpec::parse(bad);
            assert!(e.is_err(), "`{bad}` should fail");
            assert!(!e.unwrap_err().to_string().is_empty());
        }
    }

    #[test]
    fn crash_staggers_place_crashes_inside_the_window() {
        // p=8, t=64: window W = ⌈64/8⌉ = 8.
        let ticks = |stagger| -> Vec<u64> {
            crash_plan(100, stagger, 8, 64, 1_000)
                .iter()
                .flatten()
                .copied()
                .collect()
        };
        let even = ticks(CrashStagger::Even);
        assert_eq!(even.len(), 7, "crash:100 capped at p − 1");
        assert_eq!(even[0], 1);
        assert!(even.windows(2).all(|w| w[0] <= w[1]), "even is staggered");
        assert!(even.iter().all(|&t| (1..=8).contains(&t)));
        let burst = ticks(CrashStagger::Burst);
        assert!(
            burst.iter().all(|&t| t == 4),
            "burst = mid-window: {burst:?}"
        );
        let front = ticks(CrashStagger::Front);
        assert!(front.iter().all(|&t| t == 1), "front = earliest: {front:?}");
    }

    #[test]
    fn grid_parse_rejects_garbage() {
        for bad in [
            "algos=paran1",                                     // no shapes
            "shapes=4x8",                                       // no algos
            "algos=paran1 shapes=4",                            // bad shape
            "algos=paran1 shapes=0x8",                          // zero p
            "algos=paran1 shapes=4x8 ds=0",                     // zero d
            "algos=paran1 shapes=4x8 seeds=0",                  // zero seeds
            "algos=paran1 shapes=4x8 frob=1",                   // unknown field
            "algos=paran1 shapes=4x8 ds",                       // not key=value
            "algos=frobnicate shapes=4x8",                      // unknown algo
            "algos=paran1 advs=frobnicate shapes=4x8",          // unknown adversary
            "algos=da:99 shapes=4x8",                           // q out of range
            "algos=gossip:0 shapes=4x8",                        // zero fanout
            "algos=da:03 shapes=4x8",                           // two spellings of da:3
            "algos=da:+3 shapes=4x8",                           // two spellings of da:3
            "algos=gossip:02 shapes=4x8",                       // two spellings of gossip:2
            "algos=paran1 advs=crash:101 shapes=4x8",           // pct > 100
            "algos=paran1,paran1 shapes=4x8",                   // duplicate algo
            "algos=paran1 advs=unit,unit shapes=4x8",           // duplicate adversary
            "algos=paran1 shapes=4x8,4x8",                      // duplicate shape
            "algos=paran1 shapes=4x8 ds=1,1",                   // duplicate d
            "algos=paran1 advs=bursty:0 shapes=4x8",            // zero period
            "algos=paran1 advs=crash:150@even shapes=4x8",      // pct > 100
            "algos=paran1 advs=crash:25@late shapes=4x8",       // unknown stagger
            "algos=paran1 advs=straggler:0:3 shapes=4x8",       // zero straggler pct
            "algos=paran1 advs=straggler:25:1 shapes=4x8",      // no-op slowdown
            "algos=paran1 advs=lb:0 shapes=4x8",                // zero stage length
            "algos=paran1 shapes=4x8 backends=gpu",             // unknown backend
            "algos=paran1 shapes=4x8 backends=",                // empty backend token
            "algos=paran1 shapes=4x8 backends=threads,threads", // duplicate backend
            "algos=paran1 shapes=4x8 backends=sim,threads,sim", // duplicate backend
            "algos=paran1 algos=soloall shapes=4x8",            // algos given twice
            "algos=paran1 shapes=4x8 seed=0 seed=1",            // seed given twice
        ] {
            assert!(Grid::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn cells_expand_the_cross_product_in_canonical_order() {
        let grid = Grid::parse("algos=paran1,soloall advs=stage shapes=4x8 ds=1,2 seeds=2 seed=0")
            .unwrap();
        let cells = grid.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].algo, "paran1");
        assert_eq!(cells[0].d, 1);
        assert_eq!(cells[1].d, 2);
        assert_eq!(cells[2].algo, "soloall");
        assert!(cells.iter().all(|c| c.seeds == 2));
    }

    #[test]
    fn cell_seeds_depend_on_parameters_not_position() {
        let a =
            Grid::parse("algos=paran1,soloall advs=stage shapes=4x8 ds=1 seeds=1 seed=9").unwrap();
        let b =
            Grid::parse("algos=soloall,paran1 advs=stage shapes=4x8 ds=1 seeds=1 seed=9").unwrap();
        let find =
            |cells: &[Cell], algo: &str| cells.iter().find(|c| c.algo == algo).unwrap().cell_seed;
        let (ca, cb) = (a.cells(), b.cells());
        assert_eq!(find(&ca, "paran1"), find(&cb, "paran1"));
        assert_eq!(find(&ca, "soloall"), find(&cb, "soloall"));
        assert_ne!(find(&ca, "paran1"), find(&ca, "soloall"));
    }

    #[test]
    fn run_seeds_differ_per_replicate_but_are_stable() {
        let cell = Grid::parse("algos=paran1 shapes=4x8 seeds=3")
            .unwrap()
            .cells()
            .remove(0);
        assert_ne!(cell.run_seed(0), cell.run_seed(1));
        assert_eq!(cell.run_seed(2), cell.run_seed(2));
    }

    /// Every algorithm key but `padet-affine`, which needs a prime job
    /// count. da:5..=8 are valid too but their certified schedule search
    /// is too slow for a debug-mode unit test; CI's release smoke run
    /// exercises them via e13.
    const KEYS_FOR_ANY_SHAPE: [&str; 11] = [
        "soloall",
        "oblido",
        "oblido-searched",
        "oblido-worst",
        "da:2",
        "da:4",
        "paran1",
        "paran2",
        "padet",
        "padet-rot",
        "gossip:2",
    ];

    /// Builds `key` for a `p × t` instance and runs it to completion
    /// under unit delays.
    fn build_and_run(key: &str, p: usize, t: usize) {
        let instance = Instance::new(p, t).unwrap();
        let algo = build_algorithm(key, instance, 1).unwrap_or_else(|e| panic!("{key}: {e}"));
        let report = doall_sim::Simulation::builder(instance)
            .procs(algo.spawn(instance))
            .adversary(Box::new(UnitDelay))
            .max_ticks(10_000)
            .build()
            .run();
        assert!(report.completed, "{key} at {p}x{t}");
    }

    #[test]
    fn builds_every_documented_key() {
        // Both shapes have 5 jobs: more tasks than processors, and more
        // processors than tasks.
        for (p, t) in [(5, 13), (13, 5)] {
            for key in KEYS_FOR_ANY_SHAPE.into_iter().chain(["padet-affine"]) {
                build_and_run(key, p, t);
            }
        }
        for key in [
            "unit",
            "fixed",
            "random",
            "stage",
            "bursty",
            "bursty:4",
            "lb",
            "lb:1",
            "lb:99", // clamped to d at build time
            "lbrand",
            "lbrand:2",
            "crash:0",
            "crash:50",
            "crash:100",
            "crash:50@burst",
            "crash:50@front",
            "straggler",
            "straggler:50",
            "straggler:50:4",
            "straggler:100:2",
        ] {
            let spec = AdversarySpec::parse(key).unwrap_or_else(|e| panic!("{key}: {e}"));
            let adversary = build_adversary(&spec, 5, 5, 2, 1, 1_000);
            assert!(!adversary.name().is_empty(), "{key}");
        }
    }

    #[test]
    fn one_job_instances_build_and_run() {
        // min(p, t) = 1: one processor, or one task.
        for (p, t) in [(1, 5), (5, 1)] {
            for key in KEYS_FOR_ANY_SHAPE {
                build_and_run(key, p, t);
            }
        }
    }

    #[test]
    fn schedule_keys_are_the_keys_with_schedules() {
        let instance = Instance::new(5, 13).unwrap();
        for key in KEYS_FOR_ANY_SHAPE
            .into_iter()
            .chain(["padet-affine", ALGO_NONE])
        {
            assert_eq!(
                schedules_for_algo(key, instance, 1).is_some(),
                SCHEDULE_KEYS.contains(&key),
                "{key}"
            );
        }
    }

    #[test]
    fn none_key_validates_but_does_not_build() {
        assert!(validate_algo_key(ALGO_NONE).is_ok());
        let instance = Instance::new(2, 2).unwrap();
        assert!(build_algorithm(ALGO_NONE, instance, 0).is_err());
    }

    #[test]
    fn padet_affine_requires_prime_tasks() {
        // The lists are over the min(p, t) jobs, so a prime t alone
        // does not do.
        for (p, t) in [(4, 8), (4, 7)] {
            let instance = Instance::new(p, t).unwrap();
            let e = build_algorithm("padet-affine", instance, 0)
                .err()
                .expect("a composite job count is refused");
            assert!(e.to_string().contains("prime job count min(p, t)"), "{e}");
        }
        let prime = Instance::new(5, 13).unwrap();
        assert!(build_algorithm("padet-affine", prime, 0).is_ok());
    }

    #[test]
    fn crash_adversary_leaves_a_survivor() {
        // crash:100 on p=1 must not try to crash everyone.
        let spec = AdversarySpec::parse("crash:100").unwrap();
        let _ = build_adversary(&spec, 1, 4, 2, 0, 1_000);
        for p in 1..=9 {
            assert!(crash_count(100, p) < p, "p={p}");
            for stagger in [CrashStagger::Even, CrashStagger::Burst, CrashStagger::Front] {
                let survivors = crash_plan(100, stagger, p, 4 * p, 1_000)
                    .iter()
                    .filter(|c| c.is_none())
                    .count();
                assert!(survivors >= 1, "p={p} {stagger:?}");
            }
        }
    }

    #[test]
    fn straggler_flags_leave_a_full_speed_processor() {
        for p in 1..=9 {
            let flags = straggler_flags(100, p);
            assert_eq!(flags.len(), p);
            assert!(flags.contains(&false), "p={p}: someone stays full speed");
        }
        assert_eq!(
            straggler_flags(25, 8),
            vec![true, true, false, false, false, false, false, false]
        );
        // A percentage that rounds to zero stragglers builds the plain
        // random-delay adversary rather than erroring.
        let spec = AdversarySpec::parse("straggler:1:2").unwrap();
        assert_eq!(
            build_adversary(&spec, 4, 8, 2, 0, 1_000).name(),
            "random-delay"
        );
    }

    #[test]
    fn crash_count_rounds_half_up() {
        // The old truncating division crashed nobody at p=5, pct=10.
        assert_eq!(crash_count(10, 5), 1, "0.5 rounds up");
        assert_eq!(crash_count(10, 4), 0, "0.4 rounds down");
        assert_eq!(crash_count(50, 5), 3, "2.5 rounds up");
        assert_eq!(crash_count(50, 8), 4);
        assert_eq!(crash_count(0, 8), 0);
        assert_eq!(crash_count(100, 8), 7, "capped at p − 1");
    }

    #[test]
    fn crash_plan_fits_the_completion_window() {
        // No run finishes before ⌈t/p⌉ ticks, so every scheduled crash
        // must land in [1, ⌈t/p⌉] to be guaranteed to fire — under every
        // stagger.
        for (p, t, max_ticks) in [(8usize, 32usize, 2_000_000u64), (8, 32, 10), (3, 7, 4)] {
            let window = (t.div_ceil(p) as u64).min(max_ticks - 1).max(1);
            for stagger in [CrashStagger::Even, CrashStagger::Burst, CrashStagger::Front] {
                let plan = crash_plan(100, stagger, p, t, max_ticks);
                let ticks: Vec<u64> = plan.iter().flatten().copied().collect();
                assert_eq!(ticks.len(), crash_count(100, p));
                assert!(
                    ticks.iter().all(|&tick| (1..=window).contains(&tick)),
                    "p={p} t={t} max_ticks={max_ticks} {stagger:?}: {ticks:?} outside [1, \
                     {window}]"
                );
            }
            let even: Vec<u64> = crash_plan(100, CrashStagger::Even, p, t, max_ticks)
                .iter()
                .flatten()
                .copied()
                .collect();
            assert_eq!(
                even[0], 1,
                "the first even crash fires as early as possible"
            );
        }
        // Old bug shape: a tiny tick budget must pull the stagger in.
        let tight = crash_plan(100, CrashStagger::Even, 8, 1024, 5);
        assert!(tight.iter().flatten().all(|&tick| tick <= 4));
    }
}
