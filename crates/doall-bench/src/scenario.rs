//! Scenario files: experiments as data, not Rust.
//!
//! A scenario file (`*.scn`) is a line-oriented description of one
//! experiment — the same hand-rolled-parser discipline as
//! [`mod@crate::compare`] (no serde). It holds the prose printed in human
//! mode, one or more grid specs (the [`crate::grid::Grid`] grammar
//! verbatim), an optional smoke-grid override, the name of a derived-
//! metric hook ([`crate::experiments::derive_by_name`]), and a small
//! assertion grammar over the summarized metrics:
//!
//! ```text
//! id = e01
//! title = Proposition 2.2 (quadratic wall at d = Ω(t))
//! setup = …printed above the table…
//! notes = …printed below the table…
//! trace = true                      # optional; report primary/secondary executions
//! max_ticks = 50000000              # optional per-run tick cutoff
//! grid = algos=… advs=… shapes=… ds=… seeds=1 seed=0
//! smoke = algos=… advs=… shapes=… ds=… seeds=1 seed=0
//! derive = ratio_quadratic
//! assert work >= t
//! assert ratio(work, t) <= 3.41
//! assert agg max(ratio_quadratic) < 10
//! assert [backend=sim] wall_clock_ms == 0
//! assert mean_crashes_fired >= 1 when crash_count >= 1
//! ```
//!
//! Assertion semantics:
//!
//! * The default scope is **per cell**: the comparison is evaluated on
//!   every cell's post-derive metric map. `p`, `t`, `d`, and `seeds`
//!   resolve to the cell's parameters; `work`, `messages`, `primary`,
//!   and `secondary` are aliases for the `mean_*` metrics; anything
//!   else is a metric name. A cell missing a referenced metric is
//!   skipped, as is a cell whose `when` guard is false — but an
//!   assertion that matches **no** cell at all fails the scenario
//!   (that is almost always a typo).
//! * `agg` scope evaluates once per scenario; metrics must be wrapped
//!   in `min(m)` / `max(m)` / `mean(m)` / `sum(m)` over all cells
//!   carrying the metric.
//! * An optional `[key=value,…]` selector restricts either scope to
//!   cells matching on `algo`, `adversary`, `backend`, `p`, `t`, or
//!   `d` (adversaries by their canonical spelling).
//! * Arithmetic is `+ - * /` with the usual precedence, parentheses,
//!   and `ratio(a, b)` as a readable spelling of `a / b`. Division by
//!   zero follows IEEE (and a NaN comparison fails the assertion).
//!   Expressions nest at most [`MAX_EXPR_DEPTH`] levels deep.
//!
//! The test and the `when` guard are both a [`Condition`], and one
//! evaluator serves both scopes: the scope only decides how a leaf
//! resolves (a cell's parameter or metric, or an aggregate over the
//! selected cells). The parser knows the scope once it has read `agg`,
//! so a bare metric under `agg`, `min/max/mean/sum` outside it, and a
//! `when` guard on an `agg` line are refused while parsing.
//!
//! Parsing and rendering are exact inverses (`parse ∘ render ≡ id`,
//! property-tested), and malformed lines report their line number.

use crate::grid::{Cell, Grid};
use std::collections::BTreeMap;
use std::fmt;

/// A parsed scenario file: grids, prose, and assertions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    /// Scenario id (`"e01"` …); the `experiment` key of every record.
    pub id: String,
    /// What the scenario reproduces (printed in the human-mode header).
    pub title: String,
    /// Setup line printed above the table in human mode.
    pub setup: String,
    /// Interpretation notes printed after the table in human mode.
    pub notes: String,
    /// Add the mean primary and secondary executions to every cell's
    /// metrics ([`crate::sweep::SweepConfig::trace`]).
    pub trace: bool,
    /// Per-run tick cutoff override (`None`: the simulator's default).
    pub max_ticks: Option<u64>,
    /// The full, paper-scale grids.
    pub grids: Vec<Grid>,
    /// The tiny CI smoke grids (empty: smoke mode reuses `grids`).
    pub smoke: Vec<Grid>,
    /// Named derived-metric hook (see
    /// [`crate::experiments::derive_by_name`]).
    pub derive: Option<String>,
    /// Assertions checked against the post-derive metric maps.
    pub asserts: Vec<Assertion>,
}

/// A parse error pointing at the offending line (1-based; 0 for
/// file-level problems such as a missing `id`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number, or 0 for file-level errors.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

fn err_at(line: usize, msg: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line,
        msg: msg.into(),
    }
}

/// Comparison operator of an assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "<=" => Cmp::Le,
            ">=" => Cmp::Ge,
            "<" => Cmp::Lt,
            ">" => Cmp::Gt,
            "==" => Cmp::Eq,
            "!=" => Cmp::Ne,
            _ => return None,
        })
    }

    /// Evaluates `lhs CMP rhs` (NaN operands compare false, so a NaN
    /// fails the assertion rather than passing silently).
    #[must_use]
    pub fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Le => lhs <= rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Gt => ">",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        })
    }
}

/// Aggregation functions usable in `agg`-scope assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Minimum over all cells carrying the metric.
    Min,
    /// Maximum over all cells carrying the metric.
    Max,
    /// Mean over all cells carrying the metric.
    Mean,
    /// Sum over all cells carrying the metric.
    Sum,
}

impl AggFn {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "mean" => AggFn::Mean,
            "sum" => AggFn::Sum,
            _ => return None,
        })
    }

    fn apply(self, samples: &[f64]) -> f64 {
        match self {
            AggFn::Min => samples.iter().copied().fold(f64::INFINITY, f64::min),
            AggFn::Max => samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFn::Mean => samples.iter().sum::<f64>() / samples.len() as f64,
            AggFn::Sum => samples.iter().sum(),
        }
    }
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Mean => "mean",
            AggFn::Sum => "sum",
        })
    }
}

/// An arithmetic expression over metrics and cell parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A number literal (decimal notation).
    Num(f64),
    /// A metric name, alias, or cell parameter (`p`/`t`/`d`/`seeds`).
    Var(String),
    /// `ratio(a, b)` — a readable spelling of `a / b`.
    Ratio(Box<Expr>, Box<Expr>),
    /// `min(m)` / `max(m)` / `mean(m)` / `sum(m)` over all cells
    /// carrying metric `m` (aggregate scope only).
    Agg(AggFn, String),
    /// `a + b`
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`
    Mul(Box<Expr>, Box<Expr>),
    /// `a / b`
    Div(Box<Expr>, Box<Expr>),
}

/// Resolves the documented metric aliases.
fn alias(name: &str) -> &str {
    match name {
        "work" => "mean_work",
        "messages" => "mean_messages",
        "primary" => "mean_primary",
        "secondary" => "mean_secondary",
        other => other,
    }
}

impl Expr {
    fn prec(&self) -> u8 {
        match self {
            Expr::Add(..) | Expr::Sub(..) => 1,
            Expr::Mul(..) | Expr::Div(..) => 2,
            _ => 3,
        }
    }

    fn fmt_child(child: &Expr, parent_prec: u8, right: bool, out: &mut String) {
        let wrap = child.prec() < parent_prec || (right && child.prec() == parent_prec);
        if wrap {
            out.push('(');
        }
        child.render(out);
        if wrap {
            out.push(')');
        }
    }

    fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Expr::Num(v) => {
                let _ = write!(out, "{v}");
            }
            Expr::Var(name) => out.push_str(name),
            Expr::Ratio(a, b) => {
                out.push_str("ratio(");
                a.render(out);
                out.push_str(", ");
                b.render(out);
                out.push(')');
            }
            Expr::Agg(f, m) => {
                let _ = write!(out, "{f}({m})");
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                let op = match self {
                    Expr::Add(..) => " + ",
                    Expr::Sub(..) => " - ",
                    Expr::Mul(..) => " * ",
                    _ => " / ",
                };
                Self::fmt_child(a, self.prec(), false, out);
                out.push_str(op);
                Self::fmt_child(b, self.prec(), true, out);
            }
        }
    }

    /// Evaluates the expression, resolving each `Var` and `Agg` leaf
    /// through the scope's `leaf` lookup. `None` if a leaf resolves to
    /// nothing (a missing metric, or a leaf of the other scope).
    fn eval(&self, leaf: &impl Fn(&Expr) -> Option<f64>) -> Option<f64> {
        match self {
            Expr::Num(v) => Some(*v),
            Expr::Var(_) | Expr::Agg(..) => leaf(self),
            Expr::Ratio(a, b) | Expr::Div(a, b) => Some(a.eval(leaf)? / b.eval(leaf)?),
            Expr::Add(a, b) => Some(a.eval(leaf)? + b.eval(leaf)?),
            Expr::Sub(a, b) => Some(a.eval(leaf)? - b.eval(leaf)?),
            Expr::Mul(a, b) => Some(a.eval(leaf)? * b.eval(leaf)?),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out);
        f.write_str(&out)
    }
}

/// The outcome of checking a comparison: `Ok(())` if it holds,
/// `Err((lhs, rhs))` with the observed operand values if not.
pub type Verdict = Result<(), (f64, f64)>;

/// A comparison `LHS CMP RHS`: an assertion's test, and its optional
/// `when` guard.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Left-hand side.
    pub lhs: Expr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: Expr,
}

impl Condition {
    /// Evaluates both sides through `leaf` and compares them; `None` if
    /// either side has no value.
    fn check(&self, leaf: &impl Fn(&Expr) -> Option<f64>) -> Option<Verdict> {
        let (lhs, rhs) = (self.lhs.eval(leaf)?, self.rhs.eval(leaf)?);
        Some(if self.cmp.holds(lhs, rhs) {
            Ok(())
        } else {
            Err((lhs, rhs))
        })
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.cmp, self.rhs)
    }
}

/// One `assert …` line of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertion {
    /// `agg` scope: evaluate once over all cells instead of per cell.
    pub aggregate: bool,
    /// `[key=value,…]` cell selector (conjunctive; empty = all cells).
    pub filters: Vec<(String, String)>,
    /// The comparison that must hold.
    pub test: Condition,
    /// Optional `when` guard (per-cell scope only): a cell where it is
    /// false, or has no value, is skipped.
    pub guard: Option<Condition>,
}

/// Filter keys a `[key=value]` selector may match on.
const FILTER_KEYS: &[&str] = &["algo", "adversary", "backend", "p", "t", "d"];

impl Assertion {
    /// Parses one assertion line (everything after a leading `assert`
    /// keyword is fine too — this expects the full line).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax problem.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut p = Tokens::new(line)?;
        p.expect_ident("assert")?;
        p.agg = p.eat_ident("agg");
        let mut filters = Vec::new();
        if p.eat(&Tok::LBracket) {
            loop {
                let key = p.ident("selector key")?;
                if !FILTER_KEYS.contains(&key.as_str()) {
                    return Err(format!(
                        "unknown selector key `{key}` (expected one of {})",
                        FILTER_KEYS.join("|")
                    ));
                }
                p.expect(&Tok::Assign, "=")?;
                let value = p.filter_value()?;
                filters.push((key, value));
                if !p.eat(&Tok::Comma) {
                    break;
                }
            }
            p.expect(&Tok::RBracket, "]")?;
        }
        let test = p.condition()?;
        let guard = if p.eat_ident("when") {
            if p.agg {
                return Err("`when` guards apply per cell; drop `agg` or the guard".to_string());
            }
            Some(p.condition()?)
        } else {
            None
        };
        p.finish()?;
        Ok(Assertion {
            aggregate: p.agg,
            filters,
            test,
            guard,
        })
    }

    /// Whether the selector matches this cell.
    #[must_use]
    pub fn selects(&self, cell: &Cell) -> bool {
        self.filters.iter().all(|(key, value)| {
            let actual = match key.as_str() {
                "algo" => cell.algo.clone(),
                "adversary" => cell.adversary.to_string(),
                "backend" => cell.effective_backend().to_string(),
                "p" => cell.p.to_string(),
                "t" => cell.t.to_string(),
                _ => cell.d.to_string(),
            };
            actual == *value
        })
    }

    /// Checks the assertion against one cell. `None`: the cell is
    /// skipped (filtered out, missing metric, false guard, or an
    /// aggregate assertion); `Some(verdict)` otherwise.
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        reason = "cell parameters below 2^53 (every committed grid's) convert exactly"
    )]
    pub fn check_cell(&self, cell: &Cell, metrics: &BTreeMap<String, f64>) -> Option<Verdict> {
        if self.aggregate || !self.selects(cell) {
            return None;
        }
        let leaf = |leaf: &Expr| match leaf {
            Expr::Var(name) => match name.as_str() {
                "p" => Some(cell.p as f64),
                "t" => Some(cell.t as f64),
                "d" => Some(cell.d as f64),
                "seeds" => Some(cell.seeds as f64),
                other => metrics.get(alias(other)).copied(),
            },
            _ => None,
        };
        if let Some(guard) = &self.guard {
            guard.check(&leaf)?.ok()?;
        }
        self.test.check(&leaf)
    }

    /// Checks an aggregate assertion over all cells of a scenario.
    /// Semantics mirror [`Assertion::check_cell`], with `None` meaning
    /// no selected cell carried an aggregated metric (or a per-cell
    /// assertion).
    #[must_use]
    pub fn check_agg(&self, rows: &[(&Cell, &BTreeMap<String, f64>)]) -> Option<Verdict> {
        if !self.aggregate {
            return None;
        }
        self.test.check(&|leaf| match leaf {
            Expr::Agg(f, metric) => {
                let samples: Vec<f64> = rows
                    .iter()
                    .filter(|(cell, _)| self.selects(cell))
                    .filter_map(|(_, m)| m.get(alias(metric)).copied())
                    .collect();
                (!samples.is_empty()).then(|| f.apply(&samples))
            }
            _ => None,
        })
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assert ")?;
        if self.aggregate {
            write!(f, "agg ")?;
        }
        if !self.filters.is_empty() {
            let parts: Vec<String> = self
                .filters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            write!(f, "[{}] ", parts.join(","))?;
        }
        write!(f, "{}", self.test)?;
        if let Some(guard) = &self.guard {
            write!(f, " when {guard}")?;
        }
        Ok(())
    }
}

/// Assertion-line tokens.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Ident(String),
    Cmp(Cmp),
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
}

/// Deepest expression nesting an assertion may use: every parenthesis,
/// `ratio(…)` and chained `+ - * /` operator adds a level. Committed
/// scenarios nest at most two deep; the bound keeps malformed input
/// from overflowing the stack of the recursive parser and of the
/// recursive walks over the expression tree.
pub const MAX_EXPR_DEPTH: usize = 64;

struct Tokens {
    toks: Vec<Tok>,
    pos: usize,
    /// Expression levels currently open (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    /// The line has read `agg`: metrics must be aggregated.
    agg: bool,
}

impl Tokens {
    fn new(line: &str) -> Result<Self, String> {
        let mut toks = Vec::new();
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            match c {
                ' ' | '\t' => i += 1,
                '(' => {
                    toks.push(Tok::LParen);
                    i += 1;
                }
                ')' => {
                    toks.push(Tok::RParen);
                    i += 1;
                }
                '[' => {
                    toks.push(Tok::LBracket);
                    i += 1;
                }
                ']' => {
                    toks.push(Tok::RBracket);
                    i += 1;
                }
                ',' => {
                    toks.push(Tok::Comma);
                    i += 1;
                }
                '+' => {
                    toks.push(Tok::Plus);
                    i += 1;
                }
                '-' => {
                    toks.push(Tok::Minus);
                    i += 1;
                }
                '*' => {
                    toks.push(Tok::Star);
                    i += 1;
                }
                '/' => {
                    toks.push(Tok::Slash);
                    i += 1;
                }
                '<' | '>' | '=' | '!' => {
                    let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                    if let Some(cmp) = Cmp::parse(&two) {
                        toks.push(Tok::Cmp(cmp));
                        i += 2;
                    } else if c == '<' || c == '>' {
                        toks.push(Tok::Cmp(if c == '<' { Cmp::Lt } else { Cmp::Gt }));
                        i += 1;
                    } else if c == '=' {
                        toks.push(Tok::Assign);
                        i += 1;
                    } else {
                        return Err("`!` is only valid as `!=`".to_string());
                    }
                }
                c if c.is_ascii_digit() || c == '.' => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    let v: f64 = text
                        .parse()
                        .map_err(|_| format!("`{text}` is not a number"))?;
                    toks.push(Tok::Num(v));
                }
                c if c.is_alphanumeric() || c == '_' => {
                    let start = i;
                    while i < bytes.len()
                        && (bytes[i].is_alphanumeric() || matches!(bytes[i], '_' | ':' | '@' | '.'))
                    {
                        i += 1;
                    }
                    toks.push(Tok::Ident(bytes[start..i].iter().collect()));
                }
                other => return Err(format!("unexpected character `{other}`")),
            }
        }
        Ok(Tokens {
            toks,
            pos: 0,
            depth: 0,
            agg: false,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(w)) if w == word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), String> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(format!("expected `{what}`"))
        }
    }

    fn expect_ident(&mut self, word: &str) -> Result<(), String> {
        if self.eat_ident(word) {
            Ok(())
        } else {
            Err(format!("expected `{word}`"))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, String> {
        match self.next() {
            Some(Tok::Ident(w)) => Ok(w),
            _ => Err(format!("expected {what}")),
        }
    }

    /// A selector value: an identifier-ish token or a number, verbatim.
    fn filter_value(&mut self) -> Result<String, String> {
        match self.next() {
            Some(Tok::Ident(w)) => Ok(w),
            Some(Tok::Num(v)) => Ok(format!("{v}")),
            _ => Err("expected a selector value".to_string()),
        }
    }

    fn cmp(&mut self) -> Result<Cmp, String> {
        match self.next() {
            Some(Tok::Cmp(c)) => Ok(c),
            other => Err(format!(
                "expected a comparison (<=, >=, <, >, ==, !=), got {other:?}"
            )),
        }
    }

    fn condition(&mut self) -> Result<Condition, String> {
        Ok(Condition {
            lhs: self.expr()?,
            cmp: self.cmp()?,
            rhs: self.expr()?,
        })
    }

    /// Opens one expression level, refusing to go past
    /// [`MAX_EXPR_DEPTH`]. Callers restore `depth` once their subtree is
    /// built.
    fn nest(&mut self) -> Result<(), String> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(format!(
                "expression nesting exceeds the limit of {MAX_EXPR_DEPTH} levels"
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn expr(&mut self) -> Result<Expr, String> {
        let outer = self.depth;
        self.nest()?;
        let mut lhs = self.term()?;
        loop {
            // A chain `a + b + c` nests left: each operator is a level.
            if self.eat(&Tok::Plus) {
                self.nest()?;
                lhs = Expr::Add(Box::new(lhs), Box::new(self.term()?));
            } else if self.eat(&Tok::Minus) {
                self.nest()?;
                lhs = Expr::Sub(Box::new(lhs), Box::new(self.term()?));
            } else {
                self.depth = outer;
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, String> {
        let outer = self.depth;
        let mut lhs = self.factor()?;
        loop {
            if self.eat(&Tok::Star) {
                self.nest()?;
                lhs = Expr::Mul(Box::new(lhs), Box::new(self.factor()?));
            } else if self.eat(&Tok::Slash) {
                self.nest()?;
                lhs = Expr::Div(Box::new(lhs), Box::new(self.factor()?));
            } else {
                self.depth = outer;
                return Ok(lhs);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, String> {
        match self.next() {
            Some(Tok::Num(v)) => Ok(Expr::Num(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.eat(&Tok::LParen) {
                    if name == "ratio" {
                        let a = self.expr()?;
                        self.expect(&Tok::Comma, ",")?;
                        let b = self.expr()?;
                        self.expect(&Tok::RParen, ")")?;
                        Ok(Expr::Ratio(Box::new(a), Box::new(b)))
                    } else if let Some(f) = AggFn::parse(&name) {
                        if !self.agg {
                            return Err("min/max/mean/sum need the `agg` scope".to_string());
                        }
                        let metric = self.ident("a metric name")?;
                        self.expect(&Tok::RParen, ")")?;
                        Ok(Expr::Agg(f, metric))
                    } else {
                        Err(format!(
                            "unknown function `{name}` (expected ratio, min, max, mean, or sum)"
                        ))
                    }
                } else if self.agg {
                    Err(format!(
                        "aggregate assertions must wrap metrics in min/max/mean/sum: `{name}`"
                    ))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(format!("expected an expression, got {other:?}")),
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(format!("trailing input starting at {t:?}")),
        }
    }
}

/// Validates a scenario id: the characters that survive cell keys,
/// file names, and JSON unescaped.
fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl Scenario {
    /// Parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] naming the offending line (or the
    /// file-level problem: missing `id`, no `grid`).
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut s = Scenario::default();
        let mut seen_id = false;
        let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "assert" || line.starts_with("assert ") {
                let a = Assertion::parse(line).map_err(|e| err_at(lineno, e))?;
                s.asserts.push(a);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err_at(
                    lineno,
                    format!("expected `key = value` or `assert …`, got `{line}`"),
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            let mut scalar = |name: &'static str| -> Result<(), ScenarioError> {
                if let Some(prev) = seen.insert(name, lineno) {
                    return Err(err_at(
                        lineno,
                        format!("duplicate `{name}` (first set on line {prev})"),
                    ));
                }
                Ok(())
            };
            match key {
                "id" => {
                    scalar("id")?;
                    if !valid_id(value) {
                        return Err(err_at(
                            lineno,
                            format!("invalid id `{value}` (use [A-Za-z0-9_-]+)"),
                        ));
                    }
                    s.id = value.to_string();
                    seen_id = true;
                }
                "title" => {
                    scalar("title")?;
                    s.title = value.to_string();
                }
                "setup" => {
                    scalar("setup")?;
                    s.setup = value.to_string();
                }
                "notes" => {
                    scalar("notes")?;
                    s.notes = value.to_string();
                }
                "trace" => {
                    scalar("trace")?;
                    s.trace = match value {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(err_at(
                                lineno,
                                format!("trace must be `true` or `false`, got `{other}`"),
                            ));
                        }
                    };
                }
                "max_ticks" => {
                    scalar("max_ticks")?;
                    let n: u64 = value.parse().map_err(|_| {
                        err_at(lineno, format!("max_ticks: `{value}` is not a count"))
                    })?;
                    if n == 0 {
                        return Err(err_at(lineno, "max_ticks must be at least 1"));
                    }
                    s.max_ticks = Some(n);
                }
                "grid" => {
                    let grid =
                        Grid::parse(value).map_err(|e| err_at(lineno, format!("bad grid: {e}")))?;
                    s.grids.push(grid);
                }
                "smoke" => {
                    let grid = Grid::parse(value)
                        .map_err(|e| err_at(lineno, format!("bad smoke grid: {e}")))?;
                    s.smoke.push(grid);
                }
                "derive" => {
                    scalar("derive")?;
                    s.derive = Some(value.to_string());
                }
                other => {
                    return Err(err_at(
                        lineno,
                        format!(
                            "unknown key `{other}` (expected id, title, setup, notes, trace, \
                             max_ticks, grid, smoke, derive, or assert)"
                        ),
                    ));
                }
            }
        }
        if !seen_id {
            return Err(err_at(0, "scenario has no `id` line"));
        }
        if s.grids.is_empty() {
            return Err(err_at(0, format!("scenario `{}` has no `grid` line", s.id)));
        }
        Ok(s)
    }

    /// The grids to run in the given mode: smoke mode uses the smoke
    /// override when present and falls back to the full grids.
    #[must_use]
    pub fn grids_for(&self, smoke: bool) -> &[Grid] {
        if smoke && !self.smoke.is_empty() {
            &self.smoke
        } else {
            &self.grids
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "id = {}", self.id)?;
        if !self.title.is_empty() {
            writeln!(f, "title = {}", self.title)?;
        }
        if !self.setup.is_empty() {
            writeln!(f, "setup = {}", self.setup)?;
        }
        if !self.notes.is_empty() {
            writeln!(f, "notes = {}", self.notes)?;
        }
        if self.trace {
            writeln!(f, "trace = true")?;
        }
        if let Some(n) = self.max_ticks {
            writeln!(f, "max_ticks = {n}")?;
        }
        for grid in &self.grids {
            writeln!(f, "grid = {grid}")?;
        }
        for grid in &self.smoke {
            writeln!(f, "smoke = {grid}")?;
        }
        if let Some(name) = &self.derive {
            writeln!(f, "derive = {name}")?;
        }
        for a in &self.asserts {
            writeln!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::AdversarySpec;

    fn cell(algo: &str, p: usize, t: usize, d: u64) -> Cell {
        Cell {
            algo: algo.to_string(),
            adversary: AdversarySpec::Stage,
            p,
            t,
            d,
            seeds: 2,
            cell_seed: 7,
            backend: None,
        }
    }

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
    }

    #[test]
    fn parses_a_full_scenario_and_round_trips() {
        let text = "\
# header comment
id = e01
title = Proposition 2.2
setup = All algorithms at d in {t, 2t}.
notes = Ratios sit in a constant band.
trace = true
max_ticks = 50000000
grid = algos=soloall,da:3 advs=fixed shapes=8x8 ds=8,16 seeds=1 seed=0
smoke = algos=soloall advs=fixed shapes=4x4 ds=4 seeds=1 seed=0
derive = ratio_quadratic
assert work >= t
assert ratio(work, t) <= 3.41
assert agg max(ratio_quadratic) < 10
";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.id, "e01");
        assert!(s.trace);
        assert_eq!(s.max_ticks, Some(50_000_000));
        assert_eq!(s.grids.len(), 1);
        assert_eq!(s.smoke.len(), 1);
        assert_eq!(s.derive.as_deref(), Some("ratio_quadratic"));
        assert_eq!(s.asserts.len(), 3);
        let rendered = s.to_string();
        let reparsed = Scenario::parse(&rendered).unwrap();
        assert_eq!(reparsed, s);
        // Fixed point: rendering again reproduces the same bytes.
        assert_eq!(reparsed.to_string(), rendered);
    }

    #[test]
    fn smoke_override_falls_back_to_full_grids() {
        let s =
            Scenario::parse("id = x\ngrid = algos=soloall advs=unit shapes=2x2 ds=1\n").unwrap();
        assert_eq!(s.grids_for(false), &s.grids[..]);
        assert_eq!(s.grids_for(true), &s.grids[..], "no smoke override");
    }

    #[test]
    fn errors_name_the_line() {
        let cases = [
            ("id = e01\nfrobnicate\n", 2, "expected `key = value`"),
            ("id = e01\nwat = 1\n", 2, "unknown key `wat`"),
            ("id = bad id\n", 1, "invalid id"),
            ("id = e01\nid = e02\n", 2, "duplicate `id`"),
            ("id = e01\ntrace = maybe\n", 2, "trace must be"),
            ("id = e01\nmax_ticks = none\n", 2, "not a count"),
            ("id = e01\nmax_ticks = 0\n", 2, "at least 1"),
            ("id = e01\ngrid = algos=nope shapes=2x2\n", 2, "bad grid"),
            ("id = e01\nassert work >=\n", 2, "expected an expression"),
            ("id = e01\nassert work ?? t\n", 2, "unexpected character"),
        ];
        for (text, line, needle) in cases {
            let e = Scenario::parse(text).expect_err(text);
            assert_eq!(e.line, line, "{text}: {e}");
            assert!(e.to_string().contains(needle), "{text}: {e}");
        }
        // File-level problems carry line 0 and no line prefix.
        let e = Scenario::parse("title = x\ngrid = algos=soloall shapes=2x2\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.to_string().contains("no `id`"));
        let e = Scenario::parse("id = e01\n").unwrap_err();
        assert!(e.to_string().contains("no `grid`"));
    }

    #[test]
    fn assertion_grammar_round_trips_the_readme_examples() {
        for line in [
            "assert work >= t",
            "assert ratio(work, t) <= 3.41",
            "assert mean_crashes_fired >= 1 when crash_count >= 1",
            "assert messages <= 3 * p * t",
            "assert agg max(ratio_threshold) < 1",
            "assert [backend=sim] wall_clock_ms == 0",
            "assert [algo=paran1,p=8] work != 0",
            "assert work <= dcont + p when dcont_exact == 1",
            "assert agg mean(ratio_quadratic) / 2 > 0.1",
            "assert (work - t) / p < 100",
        ] {
            let a = Assertion::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(a.to_string(), line, "canonical rendering");
            let again = Assertion::parse(&a.to_string()).unwrap();
            assert_eq!(again, a);
        }
    }

    #[test]
    fn assertion_rejects_malformed_lines() {
        for (line, needle) in [
            ("assert", "expected an expression"),
            ("assert work", "expected a comparison"),
            ("assert work >= t trailing", "trailing input"),
            ("assert [color=red] work >= t", "unknown selector key"),
            ("assert frob(work) >= t", "unknown function"),
            ("assert agg work >= t", "wrap metrics in min/max/mean/sum"),
            ("assert max(work) >= t", "need the `agg` scope"),
            (
                "assert agg max(work) >= 1 when work >= 1",
                "guards apply per cell",
            ),
            (
                "assert work >= 1 when max(work) > 0",
                "need the `agg` scope",
            ),
            ("assert agg max(work) / t >= 1", "wrap metrics"),
            ("assert work ! t", "only valid as `!=`"),
            ("assert 1.2.3 >= t", "not a number"),
        ] {
            let e = Assertion::parse(line).expect_err(line);
            assert!(e.contains(needle), "`{line}` error `{e}` lacks `{needle}`");
        }
    }

    #[test]
    fn assertion_parser_bounds_expression_nesting() {
        let parens = |n: usize| format!("assert {}work{} >= t", "(".repeat(n), ")".repeat(n));
        let chain = |n: usize| format!("assert work{} >= t", " + work".repeat(n));
        let ratios =
            |n: usize| format!("assert {}work{} >= t", "ratio(".repeat(n), ", t)".repeat(n));
        let deepest = MAX_EXPR_DEPTH - 1;
        for ok in [parens(deepest), chain(deepest), ratios(deepest)] {
            assert!(Assertion::parse(&ok).is_ok(), "{ok}");
        }
        // 200,000 levels overflow the stack of an unbounded parser (or of
        // dropping the tree it builds); each must be a parse error.
        let limit = format!("limit of {MAX_EXPR_DEPTH}");
        for bad in [parens(200_000), chain(200_000), ratios(MAX_EXPR_DEPTH)] {
            let e = Assertion::parse(&bad).unwrap_err();
            assert!(e.contains(&limit), "{e}");
        }
    }

    #[test]
    fn cell_evaluation_skips_missing_metrics_and_false_guards() {
        let a = Assertion::parse("assert work >= t").unwrap();
        let c = cell("paran1", 4, 16, 2);
        assert_eq!(
            a.check_cell(&c, &metrics(&[("mean_work", 20.0)])),
            Some(Ok(()))
        );
        assert_eq!(
            a.check_cell(&c, &metrics(&[("mean_work", 10.0)])),
            Some(Err((10.0, 16.0)))
        );
        assert_eq!(a.check_cell(&c, &metrics(&[])), None, "missing metric");
        let guarded =
            Assertion::parse("assert mean_crashes_fired >= 1 when crash_count >= 1").unwrap();
        assert_eq!(
            guarded.check_cell(
                &c,
                &metrics(&[("crash_count", 0.0), ("mean_crashes_fired", 0.0)])
            ),
            None,
            "false guard skips"
        );
        assert_eq!(
            guarded.check_cell(
                &c,
                &metrics(&[("crash_count", 2.0), ("mean_crashes_fired", 0.0)])
            ),
            Some(Err((0.0, 1.0)))
        );
    }

    #[test]
    fn leaves_of_the_other_scope_have_no_value() {
        // The parser refuses these; hand-built ones are skipped.
        let c = cell("x", 2, 8, 1);
        let m = metrics(&[("mean_work", 10.0)]);
        let test = |lhs: Expr| Condition {
            lhs,
            cmp: Cmp::Ge,
            rhs: Expr::Num(1.0),
        };
        let per_cell = Assertion {
            aggregate: false,
            filters: Vec::new(),
            test: test(Expr::Agg(AggFn::Max, "work".to_string())),
            guard: None,
        };
        assert_eq!(per_cell.check_cell(&c, &m), None);
        let aggregate = Assertion {
            aggregate: true,
            filters: Vec::new(),
            test: test(Expr::Var("work".to_string())),
            guard: None,
        };
        assert_eq!(aggregate.check_agg(&[(&c, &m)]), None);
        // Their own-scope twins do evaluate.
        let per_cell = Assertion {
            test: test(Expr::Var("work".to_string())),
            ..per_cell
        };
        assert_eq!(per_cell.check_cell(&c, &m), Some(Ok(())));
        let aggregate = Assertion {
            test: test(Expr::Agg(AggFn::Max, "work".to_string())),
            ..aggregate
        };
        assert_eq!(aggregate.check_agg(&[(&c, &m)]), Some(Ok(())));
    }

    #[test]
    fn filters_restrict_cells() {
        let a = Assertion::parse("assert [algo=paran1,d=2] work >= t").unwrap();
        let hit = cell("paran1", 4, 16, 2);
        let miss = cell("padet", 4, 16, 2);
        let m = metrics(&[("mean_work", 20.0)]);
        assert_eq!(a.check_cell(&hit, &m), Some(Ok(())));
        assert_eq!(a.check_cell(&miss, &m), None);
        let wrong_d = cell("paran1", 4, 16, 8);
        assert_eq!(a.check_cell(&wrong_d, &m), None);
    }

    #[test]
    fn aggregate_evaluation_pools_cells() {
        let a = Assertion::parse("assert agg max(ratio) < 1").unwrap();
        let c1 = cell("a", 4, 16, 1);
        let c2 = cell("b", 4, 16, 1);
        let m1 = metrics(&[("ratio", 0.5)]);
        let m2 = metrics(&[("ratio", 0.9)]);
        let rows = vec![(&c1, &m1), (&c2, &m2)];
        assert_eq!(a.check_agg(&rows), Some(Ok(())));
        let m3 = metrics(&[("ratio", 1.5)]);
        let rows = vec![(&c1, &m1), (&c2, &m3)];
        assert_eq!(a.check_agg(&rows), Some(Err((1.5, 1.0))));
        // No cell carries the metric: no verdict (the suite flags it).
        let empty = metrics(&[]);
        let rows = vec![(&c1, &empty)];
        assert_eq!(a.check_agg(&rows), None);
        // min/mean/sum agree on a singleton.
        for f in ["min", "mean", "sum"] {
            let a = Assertion::parse(&format!("assert agg {f}(ratio) == 0.5")).unwrap();
            let rows = vec![(&c1, &m1)];
            assert_eq!(a.check_agg(&rows), Some(Ok(())), "{f}");
        }
    }

    #[test]
    fn expression_precedence_matches_arithmetic() {
        let a = Assertion::parse("assert 2 + 3 * 4 == 14").unwrap();
        let c = cell("x", 1, 1, 1);
        assert_eq!(a.check_cell(&c, &metrics(&[])), Some(Ok(())));
        let a = Assertion::parse("assert (2 + 3) * 4 == 20").unwrap();
        assert_eq!(a.check_cell(&c, &metrics(&[])), Some(Ok(())));
        let a = Assertion::parse("assert 10 - 4 - 3 == 3").unwrap();
        assert_eq!(a.check_cell(&c, &metrics(&[])), Some(Ok(())));
        let a = Assertion::parse("assert ratio(1, 4) == 0.25").unwrap();
        assert_eq!(a.check_cell(&c, &metrics(&[])), Some(Ok(())));
    }

    #[test]
    fn aliases_resolve_to_mean_metrics() {
        let c = cell("x", 2, 8, 1);
        let m = metrics(&[
            ("mean_work", 10.0),
            ("mean_messages", 4.0),
            ("mean_primary", 3.0),
            ("mean_secondary", 1.0),
        ]);
        for (line, ok) in [
            ("assert work == 10", true),
            ("assert messages == 4", true),
            ("assert primary == 3", true),
            ("assert secondary == 1", true),
            ("assert mean_work == 10", true),
            ("assert work == 11", false),
        ] {
            let a = Assertion::parse(line).unwrap();
            assert_eq!(a.check_cell(&c, &m).unwrap().is_ok(), ok, "{line}");
        }
    }
}
