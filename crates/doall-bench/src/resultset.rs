//! The sweep record schema, owned in one place: the `ResultSet` /
//! `Record` model, its deterministic JSON/CSV/Markdown renderers, the
//! minimal hand-rolled JSON reader, and the parsed [`BaselineSet`] view
//! keyed by [`CellKey`]. Everything that defines what a record *is*
//! lives here; `compare` keeps only the diff logic.
//!
//! Invariants this module owns:
//!
//! * **parse ∘ render ≡ id** — [`parse_result_set`] applied to
//!   [`ResultSet::to_json`] loses nothing the comparator needs, and the
//!   harness's own JSON always re-parses ([`BaselineSet::of`]).
//! * **Determinism** — records keep cell order, metric maps are
//!   `BTreeMap`s (sorted keys), floats print via Rust's
//!   shortest-round-trip `Display`, and nothing time- or
//!   machine-dependent is ever serialized. Byte-identical output across
//!   thread counts is a tested invariant.
//! * **Canonical keys** — adversary spellings canonicalize through the
//!   grid grammar in exactly one place ([`canonical_adversary`]).

use crate::grid::Cell;
use crate::Table;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// Version of the JSON schema; bump on breaking layout changes so CI's
/// baseline diff fails loudly instead of drifting.
pub const SCHEMA_VERSION: u32 = 1;

/// An error from reading or interpreting result-set data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSetError(String);

impl fmt::Display for ResultSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ResultSetError {}

fn err(msg: impl Into<String>) -> ResultSetError {
    ResultSetError(msg.into())
}

// === Rendering ============================================================

/// One row of results: a cell plus its (measured and derived) metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Experiment id (`"e01"` … `"e15"`, or `"sweep"` for ad-hoc grids).
    pub experiment: String,
    /// The scenario the metrics describe.
    pub cell: Cell,
    /// Named metrics, sorted by name (mean/median/max work & messages,
    /// completion counts, bounds, ratios, execution profiles, …).
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// The record's cell identity — exactly the key parsing its rendered
    /// JSON would produce (the in-memory adversary is structured, hence
    /// already canonical).
    #[must_use]
    pub fn key(&self) -> CellKey {
        CellKey {
            experiment: self.experiment.clone(),
            algo: self.cell.algo.clone(),
            adversary: self.cell.adversary.to_string(),
            p: self.cell.p as u64,
            t: self.cell.t as u64,
            d: self.cell.d,
            seeds: self.cell.seeds,
        }
    }
}

/// A full sweep's records plus the mode that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// `"smoke"`, `"full"`, or `"custom"` (CLI grids).
    pub mode: String,
    /// All records, in cell order.
    pub records: Vec<Record>,
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Infinity; null keeps the key visible.
        "null".to_string()
    }
}

/// Renders one metric map as the `"name": value, …` body of a JSON
/// object (sorted by name via the `BTreeMap`).
fn render_metrics(out: &mut String, metrics: &BTreeMap<String, f64>) {
    for (j, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {}",
            if j == 0 { "" } else { ", " },
            json_escape(name),
            json_number(*value)
        );
    }
}

impl ResultSet {
    /// Renders the set as deterministic, pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"generator\": \"doall-bench sweep harness\",");
        let _ = writeln!(out, "  \"mode\": \"{}\",", json_escape(&self.mode));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"experiment\": \"{}\", \"algo\": \"{}\", \"adversary\": \"{}\", \
                 \"p\": {}, \"t\": {}, \"d\": {}, \"seeds\": {}, \"metrics\": {{",
                json_escape(&r.experiment),
                json_escape(&r.cell.algo),
                json_escape(&r.cell.adversary.to_string()),
                r.cell.p,
                r.cell.t,
                r.cell.d,
                r.cell.seeds,
            );
            render_metrics(&mut out, &r.metrics);
            out.push_str("}}");
            out.push_str(if i + 1 == self.records.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the set as long-format CSV: one row per (cell, metric).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("experiment,algo,adversary,p,t,d,seeds,metric,value\n");
        for r in &self.records {
            for (name, value) in &r.metrics {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{}",
                    r.experiment,
                    r.cell.algo,
                    r.cell.adversary,
                    r.cell.p,
                    r.cell.t,
                    r.cell.d,
                    r.cell.seeds,
                    name,
                    json_number(*value)
                );
            }
        }
        out
    }

    /// Renders one Markdown table per experiment, each followed by a
    /// blank line (records grouped in order, metric columns the sorted
    /// union within each group).
    #[must_use]
    pub fn render_tables(&self) -> String {
        let mut out = String::new();
        let mut i = 0;
        while i < self.records.len() {
            let exp = &self.records[i].experiment;
            let mut j = i;
            while j < self.records.len() && &self.records[j].experiment == exp {
                j += 1;
            }
            let group = &self.records[i..j];
            let metric_names: BTreeSet<&String> =
                group.iter().flat_map(|r| r.metrics.keys()).collect();
            let mut headers = vec![
                "algo".to_string(),
                "adversary".to_string(),
                "p".to_string(),
                "t".to_string(),
                "d".to_string(),
            ];
            headers.extend(metric_names.iter().map(|s| (*s).clone()));
            let mut table = Table::new(headers);
            for r in group {
                let mut row = vec![
                    r.cell.algo.clone(),
                    r.cell.adversary.to_string(),
                    r.cell.p.to_string(),
                    r.cell.t.to_string(),
                    r.cell.d.to_string(),
                ];
                for name in &metric_names {
                    row.push(match r.metrics.get(*name) {
                        Some(v) => crate::fmt(*v),
                        None => "—".to_string(),
                    });
                }
                table.row(row);
            }
            out.push_str(&table.render());
            out.push('\n');
            i = j;
        }
        out
    }
}

// === Minimal JSON reader ==================================================
//
// Just enough JSON for the sweep schema (and strict about it): objects,
// arrays, strings with the standard escapes (including `\uXXXX` surrogate
// pairs), numbers checked by `f64::from_str` and kept as their text (so
// an integer reads back as an exact `u64`, and a metric as the `f64`
// the writer printed), `true`/`false`/`null`. No serde, no vendored
// crate.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (our writer uses it for non-finite metric values).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as its text (which reads as an `f64`). The
    /// schema reader takes `p`, `t`, `d`, `seeds` and `schema_version`
    /// as exact `u64`s (a token of digits only that fits one), and
    /// metrics as `f64`s.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document order (duplicate keys kept as-is).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup (first match) when `self` is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The result-set
/// schema nests four levels deep; the bound keeps malformed input from
/// overflowing the stack of the recursive-descent reader.
pub const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn fail(&self, msg: &str) -> ResultSetError {
        err(format!("JSON error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ResultSetError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected `{}`", expected as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, ResultSetError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ResultSetError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.fail(&format!("unexpected byte `{}`", other as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ResultSetError>,
    ) -> Result<Json, ResultSetError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.fail(&format!(
                "nesting exceeds the limit of {MAX_JSON_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ResultSetError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.fail("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ResultSetError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.fail("expected `,` or `]` in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ResultSetError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.fail("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.fail("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.fail("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, ResultSetError> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run_start..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run_start..self.pos]);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.fail("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..=0xDBFF).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(self.fail("bad low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.fail("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.fail(&format!("unknown escape `\\{}`", other as char)));
                        }
                    }
                    run_start = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.fail("raw control byte in string")),
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is a valid &str,
                    // so continuation bytes follow their leader).
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ResultSetError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map(|_| Json::Number(s.to_string()))
            .map_err(|_| err(format!("JSON error at byte {start}: bad number `{s}`")))
    }
}

/// Parses a complete JSON document (one value plus optional trailing
/// whitespace).
///
/// # Errors
///
/// Returns a [`ResultSetError`] naming the first byte offset that fails
/// to parse.
pub fn parse_json(text: &str) -> Result<Json, ResultSetError> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing garbage after JSON value"));
    }
    Ok(value)
}

// === The parsed view ======================================================

/// The identity of a cell for baseline matching: everything that names
/// the scenario, none of what measures it.
///
/// The `adversary` field holds the *canonical* spelling: result-set
/// parsing re-renders any key the grid grammar understands through
/// [`canonical_adversary`], so a pre-normalization baseline containing
/// `crash:07` matches a fresh run's `crash:7` instead of reporting a
/// spurious removed/added pair. Keys the grammar does not know (future
/// schema extensions) are kept verbatim.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// Experiment id (`"e01"` … `"e15"`, `"sweep"`, …).
    pub experiment: String,
    /// Algorithm key.
    pub algo: String,
    /// Adversary key.
    pub adversary: String,
    /// Processors.
    pub p: u64,
    /// Tasks.
    pub t: u64,
    /// Delay bound.
    pub d: u64,
    /// Replicates per cell.
    pub seeds: u64,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} vs {} {}x{} d={} seeds={}",
            self.experiment, self.algo, self.adversary, self.p, self.t, self.d, self.seeds
        )
    }
}

/// The one adversary-key canonicalization point: spellings the grid
/// grammar understands re-render through
/// [`crate::grid::AdversarySpec`] (`crash:07` ≡ `crash:7`); unknown
/// keys pass through verbatim. Every schema reader normalizes here,
/// never locally.
#[must_use]
pub fn canonical_adversary(raw: &str) -> String {
    crate::grid::AdversarySpec::parse(raw).map_or_else(|_| raw.to_string(), |spec| spec.to_string())
}

/// A result set reduced to what comparison needs: document metadata plus
/// cells keyed for matching. Serialized `null` metric values (non-finite
/// numbers) come back as `NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSet {
    /// The file's `schema_version`.
    pub schema_version: u64,
    /// The file's `mode` (`"smoke"`, `"full"`, `"custom"`).
    pub mode: String,
    /// Metric maps keyed by cell identity.
    pub cells: BTreeMap<CellKey, BTreeMap<String, f64>>,
}

impl BaselineSet {
    /// Reduces an in-memory [`ResultSet`] through its own rendered JSON,
    /// so comparison always sees exactly what serialization preserves.
    ///
    /// # Panics
    ///
    /// Panics if the harness's own JSON fails to re-parse (a writer bug)
    /// or if the set holds duplicate cell keys.
    #[must_use]
    pub fn of(results: &ResultSet) -> Self {
        parse_result_set(&results.to_json()).expect("the harness's own JSON round-trips")
    }
}

fn field<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, ResultSetError> {
    obj.get(key)
        .ok_or_else(|| err(format!("{what}: missing `{key}`")))
}

/// Reads a number token with no sign, fraction or exponent exactly.
fn as_u64(value: &Json, what: &str) -> Result<u64, ResultSetError> {
    match value {
        Json::Number(text) => text.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| err(format!("{what}: expected a non-negative integer")))
}

fn as_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, ResultSetError> {
    match value {
        Json::String(s) => Ok(s),
        _ => Err(err(format!("{what}: expected a string"))),
    }
}

/// Parses one record object into its key, metric map, and the raw
/// (pre-canonicalization) adversary spelling.
fn record_from_json(
    record: &Json,
    what: &str,
) -> Result<(CellKey, BTreeMap<String, f64>, String), ResultSetError> {
    if !matches!(record, Json::Object(_)) {
        return Err(err(format!("{what}: expected an object")));
    }
    let raw_adversary = as_str(field(record, "adversary", what)?, what)?.to_string();
    let key = CellKey {
        experiment: as_str(field(record, "experiment", what)?, what)?.to_string(),
        algo: as_str(field(record, "algo", what)?, what)?.to_string(),
        adversary: canonical_adversary(&raw_adversary),
        p: as_u64(field(record, "p", what)?, what)?,
        t: as_u64(field(record, "t", what)?, what)?,
        d: as_u64(field(record, "d", what)?, what)?,
        seeds: as_u64(field(record, "seeds", what)?, what)?,
    };
    let metrics_obj = match field(record, "metrics", what)? {
        Json::Object(members) => members,
        _ => return Err(err(format!("{what}: metrics is not an object"))),
    };
    let mut metrics = BTreeMap::new();
    for (name, value) in metrics_obj {
        let v = match value {
            Json::Number(text) => text.parse().ok(),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
        .ok_or_else(|| err(format!("{what}: metric `{name}` is not a number")))?;
        metrics.insert(name.clone(), v);
    }
    Ok((key, metrics, raw_adversary))
}

/// Inserts a parsed record into a cell map, rejecting duplicates with a
/// canonicalization hint when two spellings collapsed onto one key.
fn insert_cell(
    cells: &mut BTreeMap<CellKey, BTreeMap<String, f64>>,
    key: CellKey,
    metrics: BTreeMap<String, f64>,
    raw_adversary: &str,
) -> Result<(), ResultSetError> {
    let adversary = key.adversary.clone();
    let rendered = key.to_string();
    if cells.insert(key, metrics).is_some() {
        // Two records can collapse onto one key through adversary
        // canonicalization (e.g. a pre-normalization file holding both
        // `crash:07` and `crash:7` cells); name that in the error so
        // the "duplicate" is explicable when no literal dup exists.
        let hint = if raw_adversary == adversary {
            String::new()
        } else {
            format!(" (adversary `{raw_adversary}` canonicalizes to `{adversary}`)")
        };
        return Err(err(format!("duplicate cell `{rendered}`{hint}")));
    }
    Ok(())
}

/// Parses a sweep result-set document (the schema written by
/// [`ResultSet::to_json`]) into a [`BaselineSet`]. Unknown fields are
/// ignored (forward compatibility); missing or mistyped required fields
/// and duplicate cell keys are errors.
///
/// # Errors
///
/// Returns a [`ResultSetError`] describing the first structural problem.
pub fn parse_result_set(text: &str) -> Result<BaselineSet, ResultSetError> {
    let root = parse_json(text)?;
    if !matches!(root, Json::Object(_)) {
        return Err(err("result set: top level is not an object"));
    }
    let schema_version = as_u64(
        field(&root, "schema_version", "result set")?,
        "schema_version",
    )?;
    let mode = as_str(field(&root, "mode", "result set")?, "mode")?.to_string();
    let records = match field(&root, "records", "result set")? {
        Json::Array(items) => items,
        _ => return Err(err("records: expected an array")),
    };
    let mut cells: BTreeMap<CellKey, BTreeMap<String, f64>> = BTreeMap::new();
    for (i, record) in records.iter().enumerate() {
        let what = format!("records[{i}]");
        let (key, metrics, raw_adversary) = record_from_json(record, &what)?;
        insert_cell(&mut cells, key, metrics, &raw_adversary)?;
    }
    Ok(BaselineSet {
        schema_version,
        mode,
        cells,
    })
}

/// Reads and parses a result-set file.
///
/// # Errors
///
/// Returns a [`ResultSetError`] for I/O problems or malformed content.
pub fn load_result_set(path: &str) -> Result<BaselineSet, ResultSetError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    parse_result_set(&text).map_err(|e| err(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(exp: &str, algo: &str, d: u64, work: f64) -> Record {
        let mut metrics = BTreeMap::new();
        metrics.insert("mean_work".to_string(), work);
        metrics.insert("ratio".to_string(), work / 64.0);
        Record {
            experiment: exp.to_string(),
            cell: Cell {
                algo: algo.to_string(),
                adversary: crate::grid::AdversarySpec::Stage,
                p: 4,
                t: 16,
                d,
                seeds: 2,
                cell_seed: 7,
                backend: None,
            },
            metrics,
        }
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let set = ResultSet {
            mode: "smoke".to_string(),
            records: vec![
                record("e01", "soloall", 1, 64.0),
                record("e01", "da:3", 2, 40.5),
            ],
        };
        let a = set.to_json();
        let b = set.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"mean_work\": 40.5"));
        assert!(a.contains("\"algo\": \"da:3\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn json_handles_non_finite_and_escapes() {
        let mut r = record("e01", "a\"b", 1, 1.0);
        r.metrics.insert("bad".to_string(), f64::NAN);
        let set = ResultSet {
            mode: "full".to_string(),
            records: vec![r],
        };
        let json = set.to_json();
        assert!(json.contains("\\\"")); // escaped quote
        assert!(json.contains("\"bad\": null"));
    }

    #[test]
    fn untagged_records_render_the_legacy_schema() {
        // One schema: no record carries a `backend` key and the CSV has
        // no backend column, as in every committed baseline.
        let set = ResultSet {
            mode: "smoke".to_string(),
            records: vec![record("e01", "soloall", 1, 64.0)],
        };
        assert!(!set.to_json().contains("backend"));
        assert!(set
            .to_csv()
            .starts_with("experiment,algo,adversary,p,t,d,seeds,metric,value\n"));
    }

    #[test]
    fn csv_has_one_row_per_metric() {
        let set = ResultSet {
            mode: "smoke".to_string(),
            records: vec![record("e01", "soloall", 1, 64.0)],
        };
        let csv = set.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 metrics");
        assert_eq!(
            lines[0],
            "experiment,algo,adversary,p,t,d,seeds,metric,value"
        );
        assert!(lines[1].starts_with("e01,soloall,stage,4,16,1,2,mean_work,"));
    }

    #[test]
    fn json_parser_handles_the_value_zoo() {
        let doc =
            r#"{"a": [1, -2.5, 1e3, null, true, false], "b": {"nested": ""}, "c": "q\"\\\nA🦀"}"#;
        let v = parse_json(doc).unwrap();
        let a = match v.get("a").unwrap() {
            Json::Array(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(a[0], Json::Number("1".to_string()));
        assert_eq!(a[1], Json::Number("-2.5".to_string()));
        assert_eq!(a[2], Json::Number("1e3".to_string()));
        assert_eq!(a[3], Json::Null);
        assert_eq!(a[4], Json::Bool(true));
        assert_eq!(a[5], Json::Bool(false));
        assert_eq!(
            v.get("b").unwrap().get("nested"),
            Some(&Json::String(String::new()))
        );
        assert_eq!(
            v.get("c").unwrap(),
            &Json::String("q\"\\\nA\u{1F980}".to_string())
        );
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "nul",
            "+5",
            "1.2.3",
            "{\"a\": 1 \"b\": 2}",
            "\"\\ud800 lone\"",
        ] {
            assert!(parse_json(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn json_parser_bounds_nesting_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nest(MAX_JSON_DEPTH)).is_ok());
        let limit = format!("limit of {MAX_JSON_DEPTH}");
        // Deep enough to overflow the stack of an unbounded recursive
        // reader: it must come back as an error instead.
        for doc in [
            nest(MAX_JSON_DEPTH + 1),
            nest(200_000),
            "{\"a\": ".repeat(200_000),
        ] {
            let e = parse_json(&doc).unwrap_err().to_string();
            assert!(e.contains(&limit), "{e}");
        }
    }

    #[test]
    fn parse_render_round_trips_the_harness_schema() {
        // parse ∘ render ≡ id: the in-memory set, rendered and re-parsed,
        // reduces to the same BaselineSet as the direct reduction.
        let set = ResultSet {
            mode: "smoke".to_string(),
            records: vec![
                record("e01", "soloall", 1, 64.0),
                record("e01", "da:3", 2, 40.5),
            ],
        };
        let parsed = parse_result_set(&set.to_json()).unwrap();
        assert_eq!(parsed, BaselineSet::of(&set));
        assert_eq!(parsed.schema_version, u64::from(SCHEMA_VERSION));
        assert_eq!(parsed.mode, "smoke");
        assert_eq!(parsed.cells.len(), 2);
    }

    #[test]
    fn every_integer_the_writer_writes_reads_back() {
        // d = u64::MAX is a legal cell since delivery instants saturate;
        // an f64 reading of it rounds to 2^64, which is no u64.
        let mut big = record("sweep", "soloall", u64::MAX, 4.0);
        big.metrics.insert("max_work".to_string(), 2f64.powi(64));
        let set = ResultSet {
            mode: "custom".to_string(),
            records: vec![big.clone()],
        };
        let json = set.to_json();
        assert!(json.contains("\"d\": 18446744073709551615,"), "{json}");
        let parsed = parse_result_set(&json).unwrap();
        assert_eq!(parsed, BaselineSet::of(&set));
        let (key, metrics) = parsed.cells.iter().next().unwrap();
        assert_eq!(key.d, u64::MAX);
        assert_eq!(metrics, &big.metrics, "metrics read as the f64s written");
        // Signs, fractions and exponents are not exact integers; 2^64 and
        // up do not fit.
        for d in ["-1", "1.0", "1e3", "18446744073709551616"] {
            let doc = json.replace("18446744073709551615", d);
            let e = parse_result_set(&doc).unwrap_err().to_string();
            assert!(e.contains("expected a non-negative integer"), "{d}: {e}");
        }
    }

    #[test]
    fn adversary_canonicalization_has_one_implementation() {
        // The regression the refactor pins down: a pre-normalization
        // baseline (`crash:07`, `crash:25@even`) keys identically to a
        // fresh run's canonical spellings, through the single
        // canonical_adversary() point.
        assert_eq!(canonical_adversary("crash:07"), "crash:7");
        assert_eq!(canonical_adversary("crash:25@even"), "crash:25");
        assert_eq!(canonical_adversary("stage"), "stage");
        // Keys outside the grammar pass through verbatim (no false merge).
        assert_eq!(canonical_adversary("quantum:3"), "quantum:3");
    }
}
