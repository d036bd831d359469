//! A fixed-capacity monotone bitset with copy-on-write storage.
//!
//! This is the only data structure processors ever communicate in the
//! algorithms of the paper: DA broadcasts its replicated progress tree
//! (a boolean array), PA algorithms broadcast their set of known-complete
//! tasks. Both are *monotone* — bits only ever go from 0 to 1 — so replicas
//! merge with a bitwise OR and "no issues of consistency arise"
//! (Section 5.1.2).
//!
//! # Shared storage
//!
//! A broadcast is a snapshot of the sender's replica, and every receiver
//! ORs it into its own, so the words live behind reference counts and
//! snapshots share them:
//!
//! * **Two layouts, chosen by length.** A set of at most `FLAT_BITS`
//!   (65,536) bits is one flat `Arc<[u64]>` block, so `contains` and
//!   `insert` cost one load. A larger set is a table of `CHUNK_WORDS`-word
//!   (4,096-bit) chunks behind one shared `Arc`; a new set's chunks all
//!   share one zero block.
//! * **Copy on write.** `clone` bumps one reference count (the block or
//!   the table). A write first makes private what it touches: the flat
//!   block, or the table and the one chunk holding the bit. No write is
//!   ever visible through another set.
//! * **Adoption.** `union_with` skips blocks both sets share, only reads
//!   blocks with nothing new, and ORs in place into a block this set owns
//!   alone. When its own block is shared and a subset of the other's, it
//!   takes a reference to the other's block instead of copying it.
//!   Replicas that merge the same payloads thus converge on the same
//!   chunks, and their next union skips them by pointer equality.
//!
//! Equality and hashing are by contents, whatever is shared.

use core::fmt;
use core::hash::{Hash, Hasher};
use std::sync::Arc;

const WORD_BITS: usize = u64::BITS as usize;

/// Sets of at most this many bits keep one flat block of words.
const FLAT_BITS: usize = 1 << 16;

/// Words per chunk of a larger set (the last chunk may be shorter).
const CHUNK_WORDS: usize = 64;

/// A fixed-capacity set of bits with union (OR) merging.
///
/// The capacity is fixed at construction; out-of-range accesses panic, which
/// in this workspace always indicates a logic error (task/node indices are
/// validated at instance construction). Cloning shares the storage, so a
/// snapshot costs a reference count, not a copy (see the module docs).
#[derive(Clone)]
pub struct BitSet {
    len: usize,
    /// Cached population count, maintained incrementally so `count()` and
    /// `is_full()` are O(1) — these run on every simulator step.
    ones: usize,
    store: Store,
}

/// Copy-on-write storage. Padding bits past `len` are always clear.
#[derive(Clone)]
enum Store {
    /// One block of `len.div_ceil(64)` words.
    Flat(Arc<[u64]>),
    /// The same words split into `CHUNK_WORDS`-word chunks.
    Chunked(Arc<[Arc<[u64]>]>),
}

impl BitSet {
    /// Creates an empty bitset with capacity for `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(WORD_BITS);
        let store = if len <= FLAT_BITS {
            Store::Flat(vec![0; words].into())
        } else {
            let zero: Arc<[u64]> = vec![0; CHUNK_WORDS].into();
            Store::Chunked(
                (0..words)
                    .step_by(CHUNK_WORDS)
                    .map(|start| match words - start {
                        n if n >= CHUNK_WORDS => Arc::clone(&zero),
                        n => vec![0; n].into(),
                    })
                    .collect(),
            )
        };
        Self {
            len,
            ones: 0,
            store,
        }
    }

    /// The capacity (number of addressable bits).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Whether every bit is set.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.ones == self.len
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let wi = i / WORD_BITS;
        let word = match &self.store {
            Store::Flat(words) => words[wi],
            Store::Chunked(chunks) => chunks[wi / CHUNK_WORDS][wi % CHUNK_WORDS],
        };
        word >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets bit `i`, returning `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn insert(&mut self, i: usize) -> bool {
        if self.contains(i) {
            return false;
        }
        let wi = i / WORD_BITS;
        let word = match &mut self.store {
            Store::Flat(words) => &mut Arc::make_mut(words)[wi],
            Store::Chunked(chunks) => {
                let chunk = &mut Arc::make_mut(chunks)[wi / CHUNK_WORDS];
                &mut Arc::make_mut(chunk)[wi % CHUNK_WORDS]
            }
        };
        *word |= 1 << (i % WORD_BITS);
        self.ones += 1;
        true
    }

    /// Merges `other` into `self` by bitwise OR, returning `true` if any new
    /// bit was gained.
    ///
    /// This is the lattice join used when a processor receives a broadcast
    /// replica: knowledge only grows. Its cost follows what differs, not
    /// the capacity: blocks both sets share are skipped, and a block with
    /// nothing new is only read, never copied or written (see the module
    /// docs for the sharing rules).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(
            self.len, other.len,
            "cannot union bitsets of different capacities"
        );
        let mut gained = 0;
        for (b, theirs) in other.blocks().iter().enumerate() {
            let mine = &self.blocks()[b];
            // Gossip is highly redundant: most blocks bring nothing new.
            if Arc::ptr_eq(mine, theirs) || covers(mine, theirs) {
                continue;
            }
            gained += merge(&mut self.blocks_mut()[b], theirs);
        }
        self.ones += gained;
        gained > 0
    }

    /// Removes every bit, keeping the capacity — the arena-reset primitive
    /// used when a simulation recycles its ground-truth set across
    /// replicates. A flat set that owns its block alone keeps the
    /// allocation.
    pub fn clear(&mut self) {
        if let Store::Flat(words) = &mut self.store {
            if let Some(words) = Arc::get_mut(words) {
                words.fill(0);
                self.ones = 0;
                return;
            }
        }
        *self = Self::new(self.len);
    }

    /// Whether `self` contains every bit of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn is_superset(&self, other: &BitSet) -> bool {
        assert_eq!(
            self.len, other.len,
            "cannot compare bitsets of different capacities"
        );
        self.blocks()
            .iter()
            .zip(other.blocks())
            .all(|(mine, theirs)| Arc::ptr_eq(mine, theirs) || covers(mine, theirs))
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().enumerate().flat_map(|(wi, word)| BitIter {
            word,
            base: wi * WORD_BITS,
        })
    }

    /// Iterator over the indices of clear bits, in increasing order.
    pub fn iter_zeros(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len;
        self.words()
            .enumerate()
            .flat_map(|(wi, word)| BitIter {
                word: !word,
                base: wi * WORD_BITS,
            })
            .take_while(move |&i| i < len)
    }

    /// The index of the first clear bit, if any.
    #[must_use]
    pub fn first_zero(&self) -> Option<usize> {
        self.iter_zeros().next()
    }

    /// The storage as blocks whose concatenation is the set's words: the
    /// flat block, or the chunks.
    fn blocks(&self) -> &[Arc<[u64]>] {
        match &self.store {
            Store::Flat(words) => core::slice::from_ref(words),
            Store::Chunked(chunks) => chunks,
        }
    }

    /// The blocks, for replacing or writing one; a shared chunk table is
    /// copied first (the chunks it points to are not).
    fn blocks_mut(&mut self) -> &mut [Arc<[u64]>] {
        match &mut self.store {
            Store::Flat(words) => core::slice::from_mut(words),
            Store::Chunked(chunks) => Arc::make_mut(chunks),
        }
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks().iter().flat_map(|block| block.iter().copied())
    }
}

/// Merges block `theirs`, which has bits `mine` lacks, into block `mine`,
/// returning the number of bits gained: in place when this set owns
/// `mine` alone, and otherwise by adopting `theirs` when `mine` is a
/// subset of it, or by copying `mine` first when it is not.
fn merge(mine: &mut Arc<[u64]>, theirs: &Arc<[u64]>) -> usize {
    if let Some(words) = Arc::get_mut(mine) {
        return or_into(words, theirs);
    }
    if covers(theirs, mine) {
        let gained = mine
            .iter()
            .zip(theirs.iter())
            .map(|(m, t)| (t & !m).count_ones() as usize)
            .sum();
        *mine = Arc::clone(theirs);
        return gained;
    }
    or_into(Arc::make_mut(mine), theirs)
}

/// ORs `theirs` into `mine`, returning the number of bits gained.
fn or_into(mine: &mut [u64], theirs: &[u64]) -> usize {
    // Most words gain nothing: testing the diff first skips their popcount
    // and store.
    let mut gained = 0;
    for (m, t) in mine.iter_mut().zip(theirs) {
        let diff = t & !*m;
        if diff != 0 {
            *m |= diff;
            gained += diff.count_ones() as usize;
        }
    }
    gained
}

/// Whether block `a` has every bit of block `b`.
fn covers(a: &[u64], b: &[u64]) -> bool {
    // No early exit: most calls find nothing missing and read every word
    // anyway, and the branch-free loop vectorizes.
    a.iter()
        .zip(b)
        .fold(0, |missing, (x, y)| missing | (y & !x))
        == 0
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        // `Arc` equality compares contents after a pointer-equality check.
        self.len == other.len && self.ones == other.ones && self.blocks() == other.blocks()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal lengths mean equal layouts, so equal sets feed the same
        // blocks in the same order.
        self.len.hash(state);
        for block in self.blocks() {
            u64::hash_slice(block, state);
        }
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet({}/{}: ", self.ones, self.len)?;
        let mut first = true;
        for i in self.iter_ones().take(16) {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        if self.ones > 16 {
            write!(f, ",…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let b = BitSet::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count(), 0);
        assert!(!b.is_full());
        assert!(!b.contains(0));
        assert!(!b.contains(129));
    }

    #[test]
    fn insert_and_contains() {
        let mut b = BitSet::new(100);
        assert!(b.insert(63));
        assert!(b.insert(64));
        assert!(!b.insert(63), "double insert reports no change");
        assert!(b.contains(63));
        assert!(b.contains(64));
        assert!(!b.contains(65));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn union_gains_bits() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        b.insert(1);
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(a.contains(69));
        assert_eq!(a.count(), 2);
        assert!(!a.union_with(&b), "idempotent union reports no change");
    }

    #[test]
    fn superset_relation() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(3);
        a.insert(7);
        b.insert(3);
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        assert!(a.is_superset(&a));
    }

    #[test]
    fn full_detection() {
        let mut b = BitSet::new(3);
        b.insert(0);
        b.insert(1);
        assert!(!b.is_full());
        b.insert(2);
        assert!(b.is_full());
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = BitSet::new(200);
        for i in [0, 5, 63, 64, 128, 199] {
            b.insert(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn iter_zeros_complements_ones() {
        let mut b = BitSet::new(9);
        b.insert(2);
        b.insert(8);
        let zeros: Vec<usize> = b.iter_zeros().collect();
        assert_eq!(zeros, vec![0, 1, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn first_zero_skips_full_words() {
        let mut b = BitSet::new(130);
        for i in 0..64 {
            b.insert(i);
        }
        assert_eq!(b.first_zero(), Some(64));
        for i in 64..130 {
            b.insert(i);
        }
        assert_eq!(b.first_zero(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_out_of_range_panics() {
        let b = BitSet::new(10);
        let _ = b.contains(10);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn union_capacity_mismatch_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        let mut b = BitSet::new(5);
        b.insert(2);
        let s = format!("{b:?}");
        assert!(s.contains("BitSet"));
        assert!(s.contains('2'));
    }

    /// A chunked set with one bit set in each of its first three chunks.
    fn chunked() -> BitSet {
        let mut b = BitSet::new(FLAT_BITS + 1);
        for chunk in 0..3 {
            b.insert(chunk * CHUNK_WORDS * WORD_BITS);
        }
        b
    }

    fn shared(a: &BitSet, b: &BitSet, block: usize) -> bool {
        Arc::ptr_eq(&a.blocks()[block], &b.blocks()[block])
    }

    #[test]
    fn layout_follows_length() {
        assert_eq!(BitSet::new(FLAT_BITS).blocks().len(), 1);
        let big = BitSet::new(FLAT_BITS + 1);
        assert_eq!(
            big.blocks().len(),
            FLAT_BITS / (CHUNK_WORDS * WORD_BITS) + 1
        );
        assert_eq!(big.blocks().last().map(|c| c.len()), Some(1));
    }

    #[test]
    fn insert_copies_only_the_touched_chunk() {
        let a = chunked();
        let mut b = a.clone();
        assert!(
            core::ptr::eq(a.blocks(), b.blocks()),
            "a clone shares the table"
        );
        b.insert(CHUNK_WORDS * WORD_BITS + 1);
        assert!(!a.contains(CHUNK_WORDS * WORD_BITS + 1));
        assert!(shared(&a, &b, 0) && shared(&a, &b, 2));
        assert!(!shared(&a, &b, 1));
    }

    #[test]
    fn union_adopts_a_shared_subset_and_writes_an_owned_block() {
        let base = chunked();
        let mut richer = base.clone();
        richer.insert(7);
        richer.insert(CHUNK_WORDS * WORD_BITS + 7);

        // Every block of `replica` is shared with `base`: both changed
        // blocks are subsets of `richer`'s, so they are adopted.
        let mut replica = base.clone();
        assert!(replica.union_with(&richer));
        assert_eq!(replica, richer);
        assert!(shared(&replica, &richer, 0) && shared(&replica, &richer, 1));

        // A block the set owns alone is written in place, not adopted.
        let mut owner = base.clone();
        owner.insert(8);
        assert!(owner.union_with(&richer));
        assert!(!shared(&owner, &richer, 0) && shared(&owner, &richer, 1));
        assert_eq!(owner.count(), richer.count() + 1);
        assert_eq!(base.count(), 3, "no union wrote through a shared block");
    }

    #[test]
    fn union_without_news_copies_nothing() {
        let mut a = BitSet::new(100);
        a.insert(3);
        let mut b = a.clone();
        assert!(!b.union_with(&BitSet::new(100)));
        assert!(
            shared(&a, &b, 0),
            "a union that gains nothing writes nothing"
        );
    }
}
