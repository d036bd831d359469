//! The command-line flags of the `all_experiments` binary, plus format
//! selection and delivery (`emit`) for the machine-readable sweep
//! results.
//!
//! The result-set model and its deterministic JSON/CSV renderers live in
//! [`crate::resultset`] — the single owner of the record schema. This
//! module only decides *which* rendering to produce and *where* it goes
//! (stdout or `--out`).

// The schema types used to live here; the re-export keeps
// `doall_bench::output::{Record, ResultSet, SCHEMA_VERSION}` paths
// compiling.
pub use crate::resultset::{Record, ResultSet, SCHEMA_VERSION};

/// Output format selected by the shared flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable Markdown tables (the default).
    #[default]
    Table,
    /// Deterministic JSON (see [`ResultSet::to_json`]).
    Json,
    /// Long-format CSV.
    Csv,
}

/// The flags `all_experiments` takes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Flags {
    /// Run the tiny smoke grid instead of the full one.
    pub smoke: bool,
    /// Output format.
    pub format: Format,
    /// Write output here instead of stdout.
    pub out: Option<String>,
    /// Worker threads (default: available parallelism).
    pub threads: Option<usize>,
    /// Replicates per shard (default: auto — see
    /// [`crate::sweep::SweepConfig::shard_size`]). Wall-clock only; never
    /// a number.
    pub shard_size: Option<u64>,
    /// Tick cutoff override.
    pub max_ticks: Option<u64>,
    /// Restrict `all_experiments` to these ids.
    pub only: Option<Vec<String>>,
    /// Compare results against this baseline file after the run; drift
    /// makes the binary exit 1.
    pub compare: Option<String>,
    /// Drift tolerance for `--compare` (see
    /// [`crate::compare::drifted`]); default 0 (exact).
    pub tolerance: f64,
}

/// Usage text for the shared experiment flags.
pub const FLAGS_USAGE: &str = "\
Experiment flags:
  --smoke          run the tiny smoke grid instead of the full grid
  --json           emit machine-readable JSON (deterministic; CI baseline format)
  --csv            emit long-format CSV (one row per cell × metric)
  --out PATH       write output to PATH instead of stdout
  --threads N      worker threads (default: available parallelism)
  --shard-size N   replicates per scheduled shard (default: auto — one big
                   cell splits across workers; results never change)
  --max-ticks N    per-run tick cutoff override
  --only e05,e11   (all_experiments) run only the listed experiment ids
  --compare PATH   diff results against this baseline JSON after the run
                   (diff table on stderr; any drift makes the binary exit 1)
  --tolerance X    relative drift tolerance for --compare (default 0 = exact)
  --help           print this help

Scenario assertion failures (the `assert` lines of the *.scn files) are
reported on stderr and also make the binary exit 1.
";

/// Parses the shared flags from an argument vector (without the program
/// name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values,
/// or conflicting formats (`--json` with `--csv`). The special value
/// `"help"` is returned when `--help` was requested.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--smoke" => flags.smoke = true,
            "--json" => {
                if flags.format == Format::Csv {
                    return Err("--json conflicts with --csv".to_string());
                }
                flags.format = Format::Json;
            }
            "--csv" => {
                if flags.format == Format::Json {
                    return Err("--json conflicts with --csv".to_string());
                }
                flags.format = Format::Csv;
            }
            "--out" => flags.out = Some(value()?),
            "--threads" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer".to_string())?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                flags.threads = Some(n);
            }
            "--shard-size" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|_| "--shard-size needs a positive integer".to_string())?;
                if n == 0 {
                    return Err("--shard-size must be at least 1".to_string());
                }
                flags.shard_size = Some(n);
            }
            "--max-ticks" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|_| "--max-ticks needs a positive integer".to_string())?;
                if n == 0 {
                    return Err("--max-ticks must be at least 1".to_string());
                }
                flags.max_ticks = Some(n);
            }
            "--only" => {
                flags.only = Some(value()?.split(',').map(str::to_string).collect());
            }
            "--compare" => flags.compare = Some(value()?),
            "--tolerance" => {
                let x: f64 = value()?
                    .parse()
                    .map_err(|_| "--tolerance needs a number".to_string())?;
                if !x.is_finite() || x < 0.0 {
                    return Err("--tolerance must be a finite non-negative number".to_string());
                }
                flags.tolerance = x;
            }
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag {other}; try --help")),
        }
    }
    // `--out` without an explicit format means JSON: a file of Markdown
    // tables is never what CI wants.
    if flags.out.is_some() && flags.format == Format::Table {
        flags.format = Format::Json;
    }
    Ok(flags)
}

/// Renders the chosen format and delivers it to stdout or `--out`.
///
/// # Errors
///
/// Returns a message if the output file cannot be written.
pub fn emit(results: &ResultSet, flags: &Flags) -> Result<(), String> {
    let rendered = match flags.format {
        Format::Table => {
            results.print_tables();
            return Ok(());
        }
        Format::Json => results.to_json(),
        Format::Csv => results.to_csv(),
    };
    match &flags.out {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))
        }
        None => {
            print!("{rendered}");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_default() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let f = parse_flags(&args(
            "--smoke --json --threads 4 --shard-size 2 --out x.json",
        ))
        .unwrap();
        assert!(f.smoke);
        assert_eq!(f.format, Format::Json);
        assert_eq!(f.threads, Some(4));
        assert_eq!(f.shard_size, Some(2));
        assert_eq!(f.out.as_deref(), Some("x.json"));
        assert_eq!(parse_flags(&[]).unwrap(), Flags::default());
        // --out implies JSON when no format given.
        assert_eq!(
            parse_flags(&args("--out y.json")).unwrap().format,
            Format::Json
        );
        // --only splits.
        assert_eq!(
            parse_flags(&args("--only e01,e05")).unwrap().only,
            Some(vec!["e01".to_string(), "e05".to_string()])
        );
        // --compare / --tolerance.
        let f = parse_flags(&args("--compare base.json --tolerance 0.5")).unwrap();
        assert_eq!(f.compare.as_deref(), Some("base.json"));
        assert_eq!(f.tolerance, 0.5);
        assert_eq!(parse_flags(&[]).unwrap().tolerance, 0.0);
    }

    #[test]
    fn flags_reject_conflicts_and_garbage() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert!(parse_flags(&args("--json --csv")).is_err());
        assert!(parse_flags(&args("--csv --json")).is_err());
        assert!(parse_flags(&args("--threads 0")).is_err());
        assert!(parse_flags(&args("--threads many")).is_err());
        assert!(parse_flags(&args("--shard-size 0")).is_err());
        assert!(parse_flags(&args("--shard-size some")).is_err());
        assert!(parse_flags(&args("--shard-size")).is_err());
        assert!(parse_flags(&args("--max-ticks 0")).is_err());
        assert!(parse_flags(&args("--tolerance -0.1")).is_err());
        assert!(parse_flags(&args("--tolerance nan")).is_err());
        assert!(parse_flags(&args("--tolerance inf")).is_err());
        assert!(parse_flags(&args("--compare")).is_err());
        assert!(parse_flags(&args("--out")).is_err());
        assert!(parse_flags(&args("--frobnicate")).is_err());
        assert_eq!(parse_flags(&args("--help")).unwrap_err(), "help");
    }

    #[test]
    fn emit_writes_the_selected_format_to_out() {
        use std::collections::BTreeMap;
        let mut metrics = BTreeMap::new();
        metrics.insert("mean_work".to_string(), 64.0);
        let set = ResultSet {
            mode: "smoke".to_string(),
            records: vec![Record {
                experiment: "e01".to_string(),
                cell: crate::grid::Cell {
                    algo: "soloall".to_string(),
                    adversary: crate::grid::AdversarySpec::Stage,
                    p: 4,
                    t: 16,
                    d: 1,
                    seeds: 2,
                    cell_seed: 7,
                    backend: None,
                },
                metrics,
            }],
        };
        let path = std::env::temp_dir().join(format!("doall_emit_{}.json", std::process::id()));
        let flags = Flags {
            out: Some(path.to_string_lossy().into_owned()),
            format: Format::Json,
            ..Flags::default()
        };
        emit(&set, &flags).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, set.to_json());
        std::fs::remove_file(&path).unwrap();
    }
}
