//! The traced run's instrument: spans at the layer call boundaries and
//! counters of the hot calls, kept per thread in memory and written out
//! when the run ends.
//!
//! Coarse boundaries (build, spawn, run, summarize, derive, assert,
//! render, diff) record one [`Span`] per call: name, start, end, parent,
//! and the id of the cell replicate it belongs to. The hot boundaries —
//! `DoAllProcess::step`, `Adversary::schedule` and
//! `Adversary::message_delay`, up to tens of millions of calls per run —
//! are counted and timed into the thread's [`Hot`] totals instead, and
//! every span records the hot totals that accrued while it was open.
//!
//! The wrappers delegate everything else: `clone_box` returns the
//! *inner* clone (so an adversary's dry-run steps are charged to
//! `schedule`, not to `step`), and `delivery`/`name` delegate, so the
//! simulator picks the same delivery engine as for the bare adversary.

use doall_core::{BitSet, DoAllProcess, Message, ProcId, StepOutcome};
use doall_sim::{Adversary, Delivery, Mailboxes, SimView};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

/// One `message_delay` call in this many is timed and the sum scaled up
/// by the call count: the calls take nanoseconds each, so timing every
/// one would mostly measure the clock.
const DELAY_SAMPLE: u64 = 32;

/// Counts and times of the hot calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hot {
    /// Nanoseconds inside the wrapped `DoAllProcess::step`.
    pub step_ns: u64,
    /// Wrapped steps executed (the paper's work W).
    pub steps: u64,
    /// Steps that submitted a payload (broadcast or multicast).
    pub broadcasts: u64,
    /// Messages those submissions must be charged: `p − 1` per full
    /// broadcast, the valid recipients of a multicast.
    pub expected_messages: u64,
    /// Envelopes handed to wrapped steps.
    pub inbox_msgs: u64,
    /// Payload words in those envelopes (what the receivers union).
    pub inbox_words: u64,
    /// Bytes of the fresh payloads submitted.
    pub payload_bytes: u64,
    /// Submissions whose payload is not pointer-equal to the same
    /// process's previous one.
    pub payload_fresh: u64,
    /// Nanoseconds inside `Adversary::schedule`.
    pub schedule_ns: u64,
    /// `Adversary::schedule` calls (one per tick).
    pub schedule_calls: u64,
    /// Nanoseconds inside the sampled `message_delay` calls.
    pub delay_sampled_ns: u64,
    /// `message_delay` calls that were timed.
    pub delay_sampled: u64,
    /// `Adversary::message_delay` calls.
    pub delay_calls: u64,
}

impl Hot {
    /// The calls made between snapshot `o` and this one.
    pub fn minus(self, o: Hot) -> Hot {
        Hot {
            step_ns: self.step_ns - o.step_ns,
            steps: self.steps - o.steps,
            broadcasts: self.broadcasts - o.broadcasts,
            expected_messages: self.expected_messages - o.expected_messages,
            inbox_msgs: self.inbox_msgs - o.inbox_msgs,
            inbox_words: self.inbox_words - o.inbox_words,
            payload_bytes: self.payload_bytes - o.payload_bytes,
            payload_fresh: self.payload_fresh - o.payload_fresh,
            schedule_ns: self.schedule_ns - o.schedule_ns,
            schedule_calls: self.schedule_calls - o.schedule_calls,
            delay_sampled_ns: self.delay_sampled_ns - o.delay_sampled_ns,
            delay_sampled: self.delay_sampled - o.delay_sampled,
            delay_calls: self.delay_calls - o.delay_calls,
        }
    }

    fn add(&mut self, o: &Hot) {
        self.step_ns += o.step_ns;
        self.steps += o.steps;
        self.broadcasts += o.broadcasts;
        self.expected_messages += o.expected_messages;
        self.inbox_msgs += o.inbox_msgs;
        self.inbox_words += o.inbox_words;
        self.payload_bytes += o.payload_bytes;
        self.payload_fresh += o.payload_fresh;
        self.schedule_ns += o.schedule_ns;
        self.schedule_calls += o.schedule_calls;
        self.delay_sampled_ns += o.delay_sampled_ns;
        self.delay_sampled += o.delay_sampled;
        self.delay_calls += o.delay_calls;
    }

    /// Estimated nanoseconds inside `message_delay`.
    pub fn delay_ns(&self) -> u64 {
        (self.delay_sampled_ns * self.delay_calls)
            .checked_div(self.delay_sampled)
            .unwrap_or(0)
    }

    /// Nanoseconds attributed to the wrapped calls.
    fn timed_ns(&self) -> u64 {
        self.step_ns + self.schedule_ns + self.delay_ns()
    }
}

/// One timed call boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, `layer.call`.
    pub name: &'static str,
    /// The cell replicate the span belongs to (0 outside any replicate).
    pub replicate: u64,
    /// The recording thread.
    pub thread: usize,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Hot calls made while the span was open.
    pub hot: Hot,
}

#[derive(Default)]
struct Local {
    thread: usize,
    replicate: u64,
    spans: Vec<Span>,
    open: Vec<(usize, Hot)>,
    hot: Hot,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Whether [`span`] records; off, it only calls its closure, so the
/// untraced executions carry no instrument.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off for every thread.
pub fn enable(on: bool) {
    if on {
        clock_ns();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The median cost of timing an empty region, subtracted from every
/// timed hot call so the clock's own cost is not charged to the layer.
fn clock_ns() -> u64 {
    static CLOCK_NS: OnceLock<u64> = OnceLock::new();
    *CLOCK_NS.get_or_init(|| {
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| elapsed_ns(std::hint::black_box(Instant::now())))
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Nanoseconds since `since`, less the clock's own cost.
fn call_ns(since: Instant) -> u64 {
    elapsed_ns(since).saturating_sub(clock_ns())
}

/// Names the calling thread in its spans.
pub fn set_thread(thread: usize) {
    LOCAL.with(|l| l.borrow_mut().thread = thread);
}

/// Tags the calling thread's next spans with a cell replicate id.
pub fn set_replicate(replicate: u64) {
    LOCAL.with(|l| l.borrow_mut().replicate = replicate);
}

/// The calling thread's running hot totals.
pub fn hot() -> Hot {
    LOCAL.with(|l| l.borrow().hot)
}

fn with_hot(f: impl FnOnce(&mut Hot)) {
    LOCAL.with(|l| f(&mut l.borrow_mut().hot));
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let start_ns = now_ns();
    let index = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let index = l.spans.len();
        let span = Span {
            name,
            replicate: l.replicate,
            thread: l.thread,
            parent: l.open.last().map(|&(i, _)| i),
            start_ns,
            end_ns: start_ns,
            hot: Hot::default(),
        };
        l.spans.push(span);
        let hot = l.hot;
        l.open.push((index, hot));
        index
    });
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (open, hot_at_start) = l.open.pop().expect("spans close in order");
        assert_eq!(open, index, "spans close in order");
        let hot = l.hot.minus(hot_at_start);
        let span = &mut l.spans[index];
        span.end_ns = end_ns;
        span.hot = hot;
    });
    out
}

/// Takes the calling thread's spans, leaving it empty. Parent indices
/// stay relative to the returned list.
pub fn drain() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        assert!(l.open.is_empty(), "drained with a span open");
        l.hot = Hot::default();
        std::mem::take(&mut l.spans)
    })
}

/// A `DoAllProcess` that counts and times each call of the one it wraps.
pub struct TracedProcess {
    inner: Box<dyn DoAllProcess>,
    processors: usize,
    last_payload: Option<Weak<BitSet>>,
}

impl TracedProcess {
    /// Wraps every process of a spawned set.
    pub fn wrap_all(procs: Vec<Box<dyn DoAllProcess>>) -> Vec<Box<dyn DoAllProcess>> {
        let processors = procs.len();
        procs
            .into_iter()
            .map(|inner| {
                Box::new(TracedProcess {
                    inner,
                    processors,
                    last_payload: None,
                }) as Box<dyn DoAllProcess>
            })
            .collect()
    }
}

impl DoAllProcess for TracedProcess {
    fn pid(&self) -> ProcId {
        self.inner.pid()
    }

    fn step(&mut self, inbox: &[Message]) -> StepOutcome {
        let words: u64 = inbox
            .iter()
            .map(|m| m.bits().len().div_ceil(64) as u64)
            .sum();
        let start = Instant::now();
        let outcome = self.inner.step(inbox);
        let ns = call_ns(start);
        let mut sent = None;
        if let Some(bits) = &outcome.broadcast {
            // A `Weak` keeps the previous payload's allocation from being
            // reused, so pointer equality really means "the same payload".
            let fresh = self
                .last_payload
                .as_ref()
                .is_none_or(|prev| prev.as_ptr() != Arc::as_ptr(bits));
            if fresh {
                self.last_payload = Some(Arc::downgrade(bits));
            }
            let pid = self.inner.pid().index();
            let recipients = match &outcome.targets {
                None => self.processors - 1,
                Some(targets) => targets
                    .iter()
                    .filter(|to| to.index() != pid && to.index() < self.processors)
                    .count(),
            };
            let bytes = bits.len().div_ceil(64) as u64 * 8;
            sent = Some((fresh, bytes, recipients as u64));
        }
        with_hot(|h| {
            h.step_ns += ns;
            h.steps += 1;
            h.inbox_msgs += inbox.len() as u64;
            h.inbox_words += words;
            if let Some((fresh, bytes, recipients)) = sent {
                h.broadcasts += 1;
                h.expected_messages += recipients;
                if fresh {
                    h.payload_fresh += 1;
                    h.payload_bytes += bytes;
                }
            }
        });
        outcome
    }

    fn knows_all_done(&self) -> bool {
        self.inner.knows_all_done()
    }

    fn clone_box(&self) -> Box<dyn DoAllProcess> {
        self.inner.clone_box()
    }
}

/// An `Adversary` that counts and times each call of the one it wraps.
pub struct TracedAdversary {
    inner: Box<dyn Adversary>,
}

impl TracedAdversary {
    /// Wraps `inner`.
    pub fn wrap(inner: Box<dyn Adversary>) -> Box<dyn Adversary> {
        Box::new(TracedAdversary { inner })
    }
}

impl Adversary for TracedAdversary {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        view: &SimView<'_>,
        procs: &[Box<dyn DoAllProcess>],
        mailboxes: &Mailboxes,
    ) -> Vec<bool> {
        let start = Instant::now();
        let plan = self.inner.schedule(view, procs, mailboxes);
        let ns = call_ns(start);
        with_hot(|h| {
            h.schedule_ns += ns;
            h.schedule_calls += 1;
        });
        plan
    }

    fn message_delay(&mut self, view: &SimView<'_>, from: ProcId, to: ProcId) -> u64 {
        let timed = hot().delay_calls.is_multiple_of(DELAY_SAMPLE);
        if !timed {
            with_hot(|h| h.delay_calls += 1);
            return self.inner.message_delay(view, from, to);
        }
        let start = Instant::now();
        let delay = self.inner.message_delay(view, from, to);
        let ns = call_ns(start);
        with_hot(|h| {
            h.delay_calls += 1;
            h.delay_sampled += 1;
            h.delay_sampled_ns += ns;
        });
        delay
    }

    fn delivery(&self) -> Delivery {
        self.inner.delivery()
    }
}

/// Per-layer totals of a traced execution.
#[derive(Debug, Default)]
pub struct Layers {
    /// Self nanoseconds per span name, the hot calls under their own
    /// names (`algorithms.step`, `adversary.schedule`,
    /// `adversary.delay`).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// All hot calls.
    pub hot: Hot,
}

impl Layers {
    /// Self seconds of `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Sum of every self time, in seconds.
    pub fn total_self_s(&self) -> f64 {
        self.self_ns.values().sum::<u64>() as f64 * 1e-9
    }
}

/// Computes self times: a span's duration minus the part of it covered
/// by its children on the same thread, minus the hot calls made while it
/// was the innermost open span. `spans` lists each thread's spans in
/// recording order (parents before children).
pub fn layers(spans: &[Span], skip_root: &str) -> Layers {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = Layers::default();
    for (i, s) in spans.iter().enumerate() {
        let mut own_hot = s.hot;
        let mut covered = 0u64;
        let mut reach = 0u64;
        // Children of one thread never overlap and are in start order.
        for &c in &children[i] {
            let child = &spans[c];
            own_hot = own_hot.minus(child.hot);
            let start = child.start_ns.max(reach);
            if child.end_ns > start {
                covered += child.end_ns - start;
                reach = child.end_ns;
            }
        }
        let duration = s.end_ns - s.start_ns;
        let self_ns = duration
            .saturating_sub(covered)
            .saturating_sub(own_hot.timed_ns());
        if s.name != skip_root {
            *out.self_ns.entry(s.name).or_insert(0) += self_ns;
        }
        if s.parent.is_none() {
            out.hot.add(&s.hot);
        }
    }
    out.self_ns.insert("algorithms.step", out.hot.step_ns);
    out.self_ns
        .insert("adversary.schedule", out.hot.schedule_ns);
    out.self_ns.insert("adversary.delay", out.hot.delay_ns());
    out
}

/// Renders spans as JSON lines, one span per line.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"thread\": {}, \"replicate\": {}, \"name\": \"{}\", \"parent\": {}, \
             \"start_s\": {:.9}, \"end_s\": {:.9}",
            s.thread,
            s.replicate,
            s.name,
            parent,
            s.start_ns as f64 * 1e-9,
            s.end_ns as f64 * 1e-9
        );
        if s.hot != Hot::default() {
            let h = &s.hot;
            let _ = write!(
                out,
                ", \"steps\": {}, \"step_s\": {:.9}, \"schedule_calls\": {}, \"schedule_s\": {:.9}, \
                 \"delay_calls\": {}, \"delay_s\": {:.9}",
                h.steps,
                h.step_ns as f64 * 1e-9,
                h.schedule_calls,
                h.schedule_ns as f64 * 1e-9,
                h.delay_calls,
                h.delay_ns() as f64 * 1e-9
            );
        }
        out.push_str("}\n");
    }
    out
}
