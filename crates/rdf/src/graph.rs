//! In-memory triple store: term interning over an LSM-style columnar core.
//!
//! Terms are interned into dense `u32` ids. Triples live in two places:
//!
//! * an immutable, sorted, id-columnar **run** (struct-of-arrays columns in
//!   `SPO`, `POS` and `OSP` order) answering any pattern with a binary
//!   search plus a contiguous column scan, and
//! * a small mutable **novelty** delta (ordered sets in the same three
//!   orders) absorbing point inserts, with a tombstone set for removals
//!   against the run.
//!
//! Reads merge run slices with the novelty range (two sorted sources) so
//! every scan still emits in index order — downstream code (the reasoner's
//! adjacency-based duplicate detection, `all_subjects`) relies on that.
//! When novelty outgrows a fraction of the run the graph **compacts**:
//! run ∪ delta − tombstones is rewritten into a fresh run in one ordered
//! pass per index. Bulk loads ([`Graph::extend_ids`]) skip the delta and
//! merge straight into a new run. The run is behind an `Arc`, so cloning a
//! graph shares the columns (copy-on-compact), which makes the secure-view
//! and reasoner clone-then-materialize pattern cheap.
//!
//! This is the binary-index/novelty split of LSM ledgers (Fluree's
//! `fluree-db-binary-index`), sized down to a single-run store: compaction
//! here is a merge, not a leveled hierarchy.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::term::{Term, Triple};

/// Dense id assigned to an interned term. Ids are stable for the life of
/// the graph (the interner is append-only) and are private to one graph:
/// an id from one graph is meaningless in another.
pub type TermId = u32;

type Id = TermId;
type IdTriple = (Id, Id, Id);

/// Bidirectional term ↔ id table.
#[derive(Debug, Default, Clone)]
struct Interner {
    terms: Vec<Term>,
    ids: HashMap<Term, Id>,
}

impl Interner {
    fn intern(&mut self, term: &Term) -> Id {
        // Get-then-insert: the hit path (the overwhelmingly common case on
        // a materialized graph) must not clone the term just to probe.
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = self.terms.len() as Id;
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        id
    }

    fn get(&self, term: &Term) -> Option<Id> {
        self.ids.get(term).copied()
    }

    fn resolve(&self, id: Id) -> &Term {
        &self.terms[id as usize]
    }
}

/// One sorted id-columnar index: three parallel columns (struct of
/// arrays), lexicographically sorted by `(a, b, c)`. Prefix ranges are
/// binary searches over the columns; the result of a search is a
/// contiguous slice of each column (zero-copy scans).
#[derive(Debug, Default)]
struct Cols {
    a: Vec<Id>,
    b: Vec<Id>,
    c: Vec<Id>,
    /// Lazy CSR-style offset directory over the first column: entry `v`
    /// is the index of the first tuple whose first column is `>= v`, so
    /// `dir[v]..dir[v + 1]` is the prefix range for `v` in O(1). Ids are
    /// dense interner indices, making the directory a flat vector rather
    /// than a hash map. Built on first probe after each rebuild; sized by
    /// the column's max value (the column is sorted, so that's `last()`).
    dir: OnceLock<Vec<u32>>,
}

impl Cols {
    fn len(&self) -> usize {
        self.a.len()
    }

    #[inline]
    fn get(&self, i: usize) -> IdTriple {
        (self.a[i], self.b[i], self.c[i])
    }

    fn from_sorted(tuples: &[IdTriple]) -> Cols {
        let mut cols = Cols {
            a: Vec::with_capacity(tuples.len()),
            b: Vec::with_capacity(tuples.len()),
            c: Vec::with_capacity(tuples.len()),
            dir: OnceLock::new(),
        };
        for &(a, b, c) in tuples {
            cols.a.push(a);
            cols.b.push(b);
            cols.c.push(c);
        }
        cols
    }

    fn dir(&self) -> &[u32] {
        self.dir.get_or_init(|| {
            let max = self.a.last().copied().unwrap_or(0) as usize;
            let mut dir = vec![0u32; max + 2];
            for &v in &self.a {
                dir[v as usize + 1] += 1;
            }
            for i in 1..dir.len() {
                dir[i] += dir[i - 1];
            }
            dir
        })
    }

    /// Index range of entries whose first column equals `x` — one O(1)
    /// directory lookup, no binary search. Point probes (reasoner joins,
    /// membership tests) hit this thousands of times per pass.
    fn range1(&self, x: Id) -> Range<usize> {
        let dir = self.dir();
        let xi = x as usize;
        if xi + 1 >= dir.len() {
            return self.len()..self.len();
        }
        dir[xi] as usize..dir[xi + 1] as usize
    }

    /// Index range of entries whose first two columns equal `(x, y)`.
    fn range2(&self, x: Id, y: Id) -> Range<usize> {
        let r = self.range1(x);
        let lo = r.start + self.b[r.clone()].partition_point(|&v| v < y);
        let hi = r.start + self.b[r].partition_point(|&v| v <= y);
        lo..hi
    }

    /// Whether the exact tuple is present (binary search).
    fn contains(&self, t: IdTriple) -> bool {
        let r = self.range2(t.0, t.1);
        self.c[r].binary_search(&t.2).is_ok()
    }

    /// First index `>= from` whose tuple is `>= t` — gallop forward then
    /// binary-search the overshoot. Callers sweeping *sorted* probes left
    /// to right get O(batch · log(run/batch)) membership filtering
    /// instead of a cold full-range binary search per probe.
    fn lower_bound_from(&self, from: usize, t: IdTriple) -> usize {
        let n = self.len();
        let mut lo = from;
        let mut hi = from;
        let mut step = 1usize;
        while hi < n && self.get(hi) < t {
            lo = hi + 1;
            hi += step;
            step <<= 1;
        }
        let hi = hi.min(n);
        let mut size = hi - lo;
        while size > 0 {
            let half = size / 2;
            let mid = lo + half;
            if self.get(mid) < t {
                lo = mid + 1;
                size -= half + 1;
            } else {
                size = half;
            }
        }
        lo
    }
}

/// The immutable compacted base: the same triple set in three column
/// orders. Shared across clones via `Arc` (copy-on-compact).
#[derive(Debug, Default)]
struct Run {
    spo: Cols,
    pos: Cols,
    osp: Cols,
}

/// The mutable novelty overlay: the same small triple set in three
/// orders (ordered sets so range scans stay sorted), plus, per order, a
/// bitset of the first-column ids the set has held since it was last
/// cleared. A probe whose first id has no bit skips the overlay with one
/// load instead of a tree descent — reads keep the pure-run speed on the
/// ranges writes never touched. Removal leaves bits set, so they may
/// over-approximate the set, never under-approximate it.
#[derive(Debug, Default, Clone)]
struct Novelty {
    spo: BTreeSet<IdTriple>,
    pos: BTreeSet<IdTriple>,
    osp: BTreeSet<IdTriple>,
    /// First-column bitsets in [`Order`] index order (SPO, POS, OSP).
    firsts: [Vec<u64>; 3],
}

impl Novelty {
    fn len(&self) -> usize {
        self.spo.len()
    }

    fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    fn insert(&mut self, (s, p, o): IdTriple) -> bool {
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
            self.mark(Order::Spo, s);
            self.mark(Order::Pos, p);
            self.mark(Order::Osp, o);
        }
        added
    }

    fn mark(&mut self, order: Order, id: Id) {
        let bits = &mut self.firsts[order as usize];
        let word = id as usize / 64;
        if word >= bits.len() {
            bits.resize(word + 1, 0);
        }
        bits[word] |= 1 << (id % 64);
    }

    /// Whether the overlay may hold an `order` tuple starting with `id`.
    fn may_hold(&self, order: Order, id: Id) -> bool {
        self.firsts[order as usize]
            .get(id as usize / 64)
            .is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    fn remove(&mut self, (s, p, o): IdTriple) -> bool {
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    fn clear(&mut self) {
        self.spo.clear();
        self.pos.clear();
        self.osp.clear();
        for bits in &mut self.firsts {
            bits.clear();
        }
    }
}

/// Compaction threshold: rewrite the run once novelty (delta inserts +
/// tombstones) exceeds `max(NOVELTY_MIN, run/8)` entries. Below the
/// floor, merging at read time over a tiny delta is cheaper than churning
/// the run on every small update.
const NOVELTY_MIN: usize = 1024;

/// An in-memory RDF graph.
#[derive(Debug, Clone)]
pub struct Graph {
    interner: Interner,
    /// Immutable compacted base run (shared across clones).
    run: Arc<Run>,
    /// Inserts not yet compacted into the run. Disjoint from the run.
    delta: Novelty,
    /// Tombstones: run entries removed since the last compaction.
    /// A subset of the run, disjoint from `delta`.
    dead: Novelty,
    blank_counter: u64,
    /// Append-only insertion log (id triples, in insertion order). The
    /// length of this log is the graph's *generation*; a slice of it is a
    /// delta snapshot — see [`Graph::generation`] / [`Graph::delta_since`].
    log: Vec<IdTriple>,
    /// Count of successful removals. While zero, every log entry is still
    /// present and unique, so delta snapshots skip their per-entry
    /// membership filter.
    removals: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Graph {
        Graph {
            interner: Interner::default(),
            run: Arc::new(Run::default()),
            delta: Novelty::default(),
            dead: Novelty::default(),
            blank_counter: 0,
            log: Vec::new(),
            removals: 0,
        }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.run.spo.len() - self.dead.len() + self.delta.len()
    }

    /// True when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of triples in the compacted run (diagnostics/tests).
    pub fn run_len(&self) -> usize {
        self.run.spo.len()
    }

    /// Size of the mutable novelty overlay: uncompacted inserts plus
    /// tombstones (diagnostics/tests).
    pub fn novelty_len(&self) -> usize {
        self.delta.len() + self.dead.len()
    }

    /// Whether the id triple is live (in the delta, or in the run and not
    /// tombstoned).
    #[inline]
    fn live(&self, t: IdTriple) -> bool {
        if self.delta.may_hold(Order::Spo, t.0) && self.delta.spo.contains(&t) {
            return true;
        }
        if !self.run.spo.contains(t) {
            return false;
        }
        !(self.dead.may_hold(Order::Spo, t.0) && self.dead.spo.contains(&t))
    }

    /// Point-insert one id triple (already interned). Appends to the log
    /// on success. Does NOT trigger compaction — callers decide.
    fn insert_ids_one(&mut self, t: IdTriple) -> bool {
        if self.delta.spo.contains(&t) {
            return false;
        }
        if self.run.spo.contains(t) {
            // Present in the run: live unless tombstoned; a tombstoned
            // entry is resurrected by clearing the tombstone.
            if self.dead.remove(t) {
                self.log.push(t);
                return true;
            }
            return false;
        }
        self.delta.insert(t);
        self.log.push(t);
        true
    }

    /// Compact if novelty has outgrown its threshold.
    fn maybe_compact(&mut self) {
        if self.novelty_len() >= NOVELTY_MIN.max(self.run.spo.len() / 8) {
            self.compact();
        }
    }

    /// Merge run ∪ delta − tombstones into a fresh run and clear the
    /// novelty overlay. A no-op when there is no novelty. Sorted merges
    /// only — each order merges with its own overlay, so the run is never
    /// re-sorted.
    pub fn compact(&mut self) {
        if self.delta.is_empty() && self.dead.is_empty() {
            return;
        }
        self.rebuild(&[]);
    }

    /// Rebuild the run as `(run − dead) ∪ delta ∪ extra` (`extra` sorted
    /// in SPO order, disjoint from all live triples) and clear the
    /// overlay. One linear merge per order — only `extra`'s permutations
    /// are sorted, never the run itself.
    fn rebuild(&mut self, extra_spo: &[IdTriple]) {
        let spo_t = merge_live(&self.run.spo, &self.dead.spo, &self.delta.spo, extra_spo);
        let mut extra_pos: Vec<IdTriple> = extra_spo.iter().map(|&(s, p, o)| (p, o, s)).collect();
        extra_pos.sort_unstable();
        let pos_t = merge_live(&self.run.pos, &self.dead.pos, &self.delta.pos, &extra_pos);
        let mut extra_osp: Vec<IdTriple> = extra_spo.iter().map(|&(s, p, o)| (o, s, p)).collect();
        extra_osp.sort_unstable();
        let osp_t = merge_live(&self.run.osp, &self.dead.osp, &self.delta.osp, &extra_osp);
        self.run = Arc::new(Run {
            spo: Cols::from_sorted(&spo_t),
            pos: Cols::from_sorted(&pos_t),
            osp: Cols::from_sorted(&osp_t),
        });
        self.delta.clear();
        self.dead.clear();
    }

    /// Replace the run with one built from `sorted_spo` alone (sorted,
    /// unique; the overlay must already be empty) — the checkpoint-decode
    /// path, where only the SPO order exists and the secondary orders are
    /// derived by one permutation sort.
    fn set_run(&mut self, sorted_spo: &[IdTriple]) {
        debug_assert!(self.delta.is_empty() && self.dead.is_empty());
        let mut pos_t: Vec<IdTriple> = sorted_spo.iter().map(|&(s, p, o)| (p, o, s)).collect();
        pos_t.sort_unstable();
        let mut osp_t: Vec<IdTriple> = sorted_spo.iter().map(|&(s, p, o)| (o, s, p)).collect();
        osp_t.sort_unstable();
        self.run = Arc::new(Run {
            spo: Cols::from_sorted(sorted_spo),
            pos: Cols::from_sorted(&pos_t),
            osp: Cols::from_sorted(&osp_t),
        });
    }

    /// Insert a triple; returns true if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let s = self.interner.intern(&triple.subject);
        let p = self.interner.intern(&triple.predicate);
        let o = self.interner.intern(&triple.object);
        let added = self.insert_ids_one((s, p, o));
        if added {
            self.maybe_compact();
        }
        added
    }

    /// Bulk insert: intern every triple first, then merge the sorted new
    /// id-tuples straight into a fresh run (one ordered pass per index) —
    /// cheaper than per-triple `insert` for large batches (graph merges,
    /// ontology loads). Returns the number of triples actually added.
    pub fn extend_triples<I: IntoIterator<Item = Triple>>(&mut self, iter: I) -> usize {
        let ids = iter
            .into_iter()
            .map(|t| {
                (
                    self.interner.intern(&t.subject),
                    self.interner.intern(&t.predicate),
                    self.interner.intern(&t.object),
                )
            })
            .collect();
        self.extend_ids(ids)
    }

    /// Bulk insert of id triples whose components are already interned in
    /// *this* graph (e.g. produced by [`Graph::for_each_match_ids`] or
    /// [`Graph::delta_ids_since`]) — the id-space fast path of
    /// [`Graph::extend_triples`], skipping term interning entirely.
    pub fn extend_ids(&mut self, mut ids: Vec<(TermId, TermId, TermId)>) -> usize {
        debug_assert!(ids
            .iter()
            .all(|&(s, p, o)| (s.max(p).max(o) as usize) < self.interner.terms.len()));
        ids.sort_unstable();
        ids.dedup();
        // Large batches (the reasoner's per-pass merges) go straight into
        // a new run: one membership filter plus one sorted merge per
        // index, O(n + batch). Small batches land in the novelty delta.
        if ids.len() * 8 >= self.len() {
            let fresh = self.filter_fresh(&ids);
            if fresh.is_empty() {
                return 0;
            }
            self.rebuild(&fresh);
            let added = fresh.len();
            self.log.extend(fresh);
            added
        } else {
            let mut added = 0;
            for t in ids {
                if self.insert_ids_one(t) {
                    added += 1;
                }
            }
            self.maybe_compact();
            added
        }
    }

    /// Sorted-merge membership filter: which of the sorted, deduped `ids`
    /// are not currently live. One galloping sweep over the run and one
    /// merge walk of the novelty replace a cold per-proposal `live()`
    /// binary search (the dominant cost of a reasoner absorb pass).
    fn filter_fresh(&self, ids: &[IdTriple]) -> Vec<IdTriple> {
        let mut fresh: Vec<IdTriple> = Vec::with_capacity(ids.len());
        let run = &self.run.spo;
        let mut delta_it = self.delta.spo.iter().peekable();
        let have_dead = !self.dead.spo.is_empty();
        let mut lo = 0usize;
        for &t in ids {
            while delta_it.next_if(|&&d| d < t).is_some() {}
            if delta_it.peek().is_some_and(|&&d| d == t) {
                continue;
            }
            lo = run.lower_bound_from(lo, t);
            let in_run = lo < run.len() && run.get(lo) == t;
            if in_run && !(have_dead && self.dead.spo.contains(&t)) {
                continue;
            }
            fresh.push(t);
        }
        fresh
    }

    /// The graph's generation: a monotonic marker that advances on every
    /// successful insert. Pair with [`Graph::delta_since`] for a cheap
    /// delta snapshot ("what was added since the marker").
    pub fn generation(&self) -> u64 {
        self.log.len() as u64
    }

    /// Triples inserted since `generation` (a value previously returned by
    /// [`Graph::generation`]) that are still present, in insertion order.
    /// This is the delta-snapshot primitive the semi-naive reasoner and
    /// G-SACS incremental updates build on.
    pub fn delta_since(&self, generation: u64) -> Vec<Triple> {
        let start = (generation as usize).min(self.log.len());
        self.log[start..]
            .iter()
            .filter(|&&ids| self.removals == 0 || self.live(ids))
            .map(|&(s, p, o)| {
                Triple::new(
                    self.interner.resolve(s).clone(),
                    self.interner.resolve(p).clone(),
                    self.interner.resolve(o).clone(),
                )
            })
            .collect()
    }

    /// Triples inserted since `generation` that are still present, as raw
    /// id tuples in insertion order — the zero-copy sibling of
    /// [`Graph::delta_since`] for callers that work in id space (the
    /// semi-naive reasoner). With `generation == 0` this is a snapshot of
    /// the whole surviving graph.
    pub fn delta_ids_since(&self, generation: u64) -> Vec<(TermId, TermId, TermId)> {
        let start = (generation as usize).min(self.log.len());
        if self.removals == 0 {
            return self.log[start..].to_vec();
        }
        self.log[start..]
            .iter()
            .filter(|&&ids| self.live(ids))
            .copied()
            .collect()
    }

    /// Every live triple as id tuples, in no promised order: a copy of the
    /// insertion log while nothing has been removed, else one merged index
    /// scan — cheaper than probing every log entry for liveness, as
    /// [`Graph::delta_ids_since`]`(0)` must.
    pub fn live_ids(&self) -> Vec<(TermId, TermId, TermId)> {
        if self.removals == 0 {
            self.log.clone()
        } else {
            self.ids_by_predicate()
        }
    }

    /// Number of interned terms (ids are dense: every id < `term_count`).
    pub fn term_count(&self) -> usize {
        self.interner.terms.len()
    }

    /// The id of `term` if it is interned in this graph.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Intern `term` (a no-op returning the existing id when already
    /// interned). Interning alone does not add triples, so graph equality
    /// is unaffected.
    pub fn intern_term(&mut self, term: &Term) -> TermId {
        self.interner.intern(term)
    }

    /// The term behind an id previously obtained from this graph.
    ///
    /// # Panics
    /// Panics if `id` did not come from this graph's interner.
    pub fn term_of(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Whether the id triple `(s, p, o)` is in the graph.
    pub fn has_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.live((s, p, o))
    }

    /// Visit every triple matching the id pattern — [`Graph::for_each_match`]
    /// without term resolution or cloning. `None` is a wildcard; ids must
    /// come from this graph (an id the graph never minted matches nothing
    /// only by virtue of appearing in no triple, which is always true).
    /// Emission is always in the serving index's sorted order.
    pub fn for_each_match_ids<F: FnMut(TermId, TermId, TermId)>(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: F,
    ) {
        self.for_each_match_ids_while(s, p, o, |s, p, o| {
            f(s, p, o);
            true
        });
    }

    /// [`Graph::for_each_match_ids`] that stops as soon as `f` returns
    /// false.
    pub fn for_each_match_ids_while<F: FnMut(TermId, TermId, TermId) -> bool>(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: F,
    ) {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.live((s, p, o)) {
                    f(s, p, o);
                }
            }
            (Some(s), Some(p), None) => {
                self.scan_while(Order::Spo, Prefix::Two(s, p), |(s2, p2, o2)| f(s2, p2, o2));
            }
            (Some(s), None, None) => {
                self.scan_while(Order::Spo, Prefix::One(s), |(s2, p2, o2)| f(s2, p2, o2));
            }
            (Some(s), None, Some(o)) => {
                self.scan_while(Order::Osp, Prefix::Two(o, s), |(o2, s2, p2)| f(s2, p2, o2));
            }
            (None, Some(p), Some(o)) => {
                self.scan_while(Order::Pos, Prefix::Two(p, o), |(p2, o2, s2)| f(s2, p2, o2));
            }
            (None, Some(p), None) => {
                self.scan_while(Order::Pos, Prefix::One(p), |(p2, o2, s2)| f(s2, p2, o2));
            }
            (None, None, Some(o)) => {
                self.scan_while(Order::Osp, Prefix::One(o), |(o2, s2, p2)| f(s2, p2, o2));
            }
            (None, None, None) => {
                self.scan_while(Order::Spo, Prefix::All, |(s2, p2, o2)| f(s2, p2, o2));
            }
        }
    }

    /// Exact cardinality of a pattern, computed from the id indexes
    /// without materializing any term: binary-searched range length for
    /// indexed patterns, membership for fully-bound ones, total size for
    /// the full wildcard. Unknown bound terms estimate to zero. Used by
    /// the query planner to order basic graph patterns
    /// most-selective-first.
    pub fn estimate(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> usize {
        let resolve = |t: Option<&Term>| -> Result<Option<Id>, ()> {
            match t {
                Some(t) => self.interner.get(t).map(Some).ok_or(()),
                None => Ok(None),
            }
        };
        let (Ok(s), Ok(p), Ok(o)) = (resolve(subject), resolve(predicate), resolve(object)) else {
            return 0; // a bound term the graph has never seen matches nothing
        };
        self.estimate_ids(s, p, o)
    }

    /// [`Graph::estimate`] over an id pattern.
    pub fn estimate_ids(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        match (s, p, o) {
            (None, None, None) => self.len(),
            (Some(s), Some(p), Some(o)) => usize::from(self.live((s, p, o))),
            (Some(s), Some(p), None) => self.range_count(Order::Spo, Prefix::Two(s, p)),
            (Some(s), None, None) => self.range_count(Order::Spo, Prefix::One(s)),
            (Some(s), None, Some(o)) => self.range_count(Order::Osp, Prefix::Two(o, s)),
            (None, Some(p), Some(o)) => self.range_count(Order::Pos, Prefix::Two(p, o)),
            (None, Some(p), None) => self.range_count(Order::Pos, Prefix::One(p)),
            (None, None, Some(o)) => self.range_count(Order::Osp, Prefix::One(o)),
        }
    }

    /// All live triples as id tuples in predicate-grouped (POS) order —
    /// the reasoner's bulk-seed fast path: already grouped for
    /// per-predicate batch dispatch, read straight off the POS columns
    /// with no sort.
    pub fn ids_by_predicate(&self) -> Vec<(TermId, TermId, TermId)> {
        let mut out = Vec::with_capacity(self.len());
        if self.delta.is_empty() && self.dead.is_empty() {
            // Fully compacted: read the three POS columns straight
            // through, no merge machinery.
            let pos = &self.run.pos;
            out.extend(
                pos.a
                    .iter()
                    .zip(&pos.b)
                    .zip(&pos.c)
                    .map(|((&p, &o), &s)| (s, p, o)),
            );
            return out;
        }
        self.scan(Order::Pos, Prefix::All, |(p, o, s)| out.push((s, p, o)));
        out
    }

    /// Zero-copy columnar view of all `(?, p, ?)` triples: the POS run
    /// slice for `p` as parallel `(objects, subjects)` columns, sorted by
    /// object then subject. Available only when the predicate's range has
    /// no novelty overlay (the common state right after bulk loads and
    /// compactions) — callers fall back to a collected scan otherwise.
    pub fn pred_slices(&self, p: TermId) -> Option<(&[TermId], &[TermId])> {
        let lo = (p, 0, 0);
        let hi = (p, Id::MAX, Id::MAX);
        if self.delta.pos.range(lo..=hi).next().is_some()
            || self.dead.pos.range(lo..=hi).next().is_some()
        {
            return None;
        }
        let r = self.run.pos.range1(p);
        Some((&self.run.pos.b[r.clone()], &self.run.pos.c[r]))
    }

    /// Convenience: insert from three terms.
    pub fn add(&mut self, subject: Term, predicate: Term, object: Term) -> bool {
        self.insert(Triple::new(subject, predicate, object))
    }

    /// Remove a triple; returns true if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.ids_of(triple)
            .is_some_and(|t| self.remove_ids(&[t]) == 1)
    }

    /// Bulk removal of id triples of this graph (the id-space sibling of
    /// [`Graph::remove`]); returns how many were present. Compacts at
    /// most once, after the whole batch.
    pub fn remove_ids(&mut self, ids: &[(TermId, TermId, TermId)]) -> usize {
        let mut removed = 0;
        for &t in ids {
            let gone = if self.delta.spo.contains(&t) {
                self.delta.remove(t)
            } else if self.run.spo.contains(t) && !self.dead.spo.contains(&t) {
                self.dead.insert(t);
                true
            } else {
                false
            };
            removed += usize::from(gone);
        }
        if removed > 0 {
            self.removals += removed as u64;
            self.maybe_compact();
        }
        removed
    }

    /// The id triple of `triple` when all three of its terms are interned
    /// in this graph (whether or not the triple itself is present).
    pub fn ids_of(&self, triple: &Triple) -> Option<(TermId, TermId, TermId)> {
        Some((
            self.interner.get(&triple.subject)?,
            self.interner.get(&triple.predicate)?,
            self.interner.get(&triple.object)?,
        ))
    }

    /// Whether the graph contains the triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.interner.get(&triple.subject),
            self.interner.get(&triple.predicate),
            self.interner.get(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.live((s, p, o)),
            _ => false,
        }
    }

    /// Whether `(subject, predicate, object)` is in the graph.
    pub fn has(&self, subject: &Term, predicate: &Term, object: &Term) -> bool {
        match (
            self.interner.get(subject),
            self.interner.get(predicate),
            self.interner.get(object),
        ) {
            (Some(s), Some(p), Some(o)) => self.live((s, p, o)),
            _ => false,
        }
    }

    /// Mint a blank node label that is fresh for this graph.
    pub fn fresh_blank(&mut self) -> Term {
        loop {
            self.blank_counter += 1;
            let t = Term::blank(&format!("g{}", self.blank_counter));
            if self.interner.get(&t).is_none() {
                return t;
            }
        }
    }

    /// Iterate all triples (in SPO id order — deterministic for a given
    /// insertion history).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        ScanIter::new(
            &self.run.spo,
            0..self.run.spo.len(),
            &self.delta.spo,
            &self.dead.spo,
            ((0, 0, 0), (Id::MAX, Id::MAX, Id::MAX)),
        )
        .map(move |(s, p, o)| {
            Triple::new(
                self.interner.resolve(s).clone(),
                self.interner.resolve(p).clone(),
                self.interner.resolve(o).clone(),
            )
        })
    }

    /// All triples matching the pattern; `None` is a wildcard.
    pub fn match_pattern(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(subject, predicate, object, |t| out.push(t));
        out
    }

    /// Count triples matching the pattern without materializing them.
    pub fn count_pattern(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
    ) -> usize {
        let mut n = 0;
        self.for_each_match(subject, predicate, object, |_| n += 1);
        n
    }

    /// Visit every triple matching the pattern.
    pub fn for_each_match<F: FnMut(Triple)>(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Term>,
        object: Option<&Term>,
        mut f: F,
    ) {
        // Resolve bound terms; an unknown bound term matches nothing.
        let s = match subject {
            Some(t) => match self.interner.get(t) {
                Some(id) => Some(id),
                None => return,
            },
            None => None,
        };
        let p = match predicate {
            Some(t) => match self.interner.get(t) {
                Some(id) => Some(id),
                None => return,
            },
            None => None,
        };
        let o = match object {
            Some(t) => match self.interner.get(t) {
                Some(id) => Some(id),
                None => return,
            },
            None => None,
        };
        self.for_each_match_ids(s, p, o, |s2, p2, o2| {
            f(Triple::new(
                self.interner.resolve(s2).clone(),
                self.interner.resolve(p2).clone(),
                self.interner.resolve(o2).clone(),
            ));
        });
    }

    /// Objects of all `(subject, predicate, ?)` triples.
    pub fn objects(&self, subject: &Term, predicate: &Term) -> Vec<Term> {
        let mut out = Vec::new();
        self.for_each_match(Some(subject), Some(predicate), None, |t| out.push(t.object));
        out
    }

    /// The single object of `(subject, predicate, ?)` if exactly one exists,
    /// else the first in index order, else `None`.
    pub fn object(&self, subject: &Term, predicate: &Term) -> Option<Term> {
        self.objects(subject, predicate).into_iter().next()
    }

    /// Subjects of all `(?, predicate, object)` triples.
    pub fn subjects(&self, predicate: &Term, object: &Term) -> Vec<Term> {
        let mut out = Vec::new();
        self.for_each_match(None, Some(predicate), Some(object), |t| out.push(t.subject));
        out
    }

    /// Distinct subjects occurring anywhere in the graph, in index order.
    pub fn all_subjects(&self) -> Vec<Term> {
        let mut last: Option<Id> = None;
        let mut out = Vec::new();
        self.scan(Order::Spo, Prefix::All, |(s, _, _)| {
            if last != Some(s) {
                out.push(self.interner.resolve(s).clone());
                last = Some(s);
            }
        });
        out
    }

    /// Add every triple of `other` (blank labels kept as-is; callers that
    /// need hygienic merge use [`Graph::merge_renaming`]).
    pub fn extend_from(&mut self, other: &Graph) {
        self.extend_triples(other.iter());
    }

    /// Merge `other` into `self`, renaming `other`'s blank nodes to fresh
    /// labels so that accidental label collisions cannot conflate nodes.
    /// Returns the number of triples added.
    pub fn merge_renaming(&mut self, other: &Graph) -> usize {
        let mut rename: HashMap<String, Term> = HashMap::new();
        let mut added = 0;
        // Collect first: fresh_blank needs &mut self.
        let triples: Vec<Triple> = other.iter().collect();
        for t in triples {
            let map = |this: &mut Graph, rename: &mut HashMap<String, Term>, term: &Term| match term
            {
                Term::Blank(b) => rename
                    .entry(b.to_string())
                    .or_insert_with(|| this.fresh_blank())
                    .clone(),
                other => other.clone(),
            };
            let s = map(self, &mut rename, &t.subject);
            let o = map(self, &mut rename, &t.object);
            if self.insert(Triple::new(s, t.predicate.clone(), o)) {
                added += 1;
            }
        }
        added
    }

    /// Read an RDF collection (`rdf:first`/`rdf:rest` chain) starting at
    /// `head` into a vector. Returns `None` on malformed lists (missing
    /// `first`/`rest`, cycles); `rdf:nil` yields an empty list.
    pub fn read_list(&self, head: &Term) -> Option<Vec<Term>> {
        use crate::vocab::rdf;
        let mut out = Vec::new();
        let mut cur = head.clone();
        let mut seen = std::collections::HashSet::new();
        loop {
            if cur.as_iri() == Some(rdf::NIL) {
                return Some(out);
            }
            if !seen.insert(cur.clone()) {
                return None; // cycle
            }
            out.push(self.object(&cur, &Term::iri(rdf::FIRST))?);
            cur = self.object(&cur, &Term::iri(rdf::REST))?;
        }
    }

    /// Write `items` as an RDF collection; returns the head term
    /// (`rdf:nil` for an empty list).
    pub fn write_list(&mut self, items: &[Term]) -> Term {
        use crate::vocab::rdf;
        let mut tail = Term::iri(rdf::NIL);
        for item in items.iter().rev() {
            let cell = self.fresh_blank();
            self.add(cell.clone(), Term::iri(rdf::FIRST), item.clone());
            self.add(cell.clone(), Term::iri(rdf::REST), tail);
            tail = cell;
        }
        tail
    }

    /// Remove all triples whose subject is `subject`; returns how many.
    pub fn remove_subject(&mut self, subject: &Term) -> usize {
        let doomed = self.match_pattern(Some(subject), None, None);
        let n = doomed.len();
        for t in &doomed {
            self.remove(t);
        }
        n
    }

    /// Build a graph directly from decoded parts: an interner table
    /// (term id = position) and sorted, unique SPO id triples. The run is
    /// constructed without any per-triple set insertion — this is the
    /// checkpoint-load fast path of `crate::codec`.
    pub(crate) fn from_parts(terms: Vec<Term>, sorted_spo: Vec<IdTriple>) -> Graph {
        debug_assert!(sorted_spo.windows(2).all(|w| w[0] < w[1]));
        let ids = terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as Id))
            .collect();
        let mut g = Graph {
            interner: Interner { terms, ids },
            run: Arc::new(Run::default()),
            delta: Novelty::default(),
            dead: Novelty::default(),
            blank_counter: 0,
            log: sorted_spo.clone(),
            removals: 0,
        };
        g.set_run(&sorted_spo);
        g
    }

    /// Exact size of a prefix range: run slice length, minus tombstones,
    /// plus delta entries, each found by binary search / range count.
    fn range_count(&self, order: Order, prefix: Prefix) -> usize {
        let (cols, delta, dead) = self.order_sets(order);
        let (range, bounds) = prefix.locate(cols);
        if !self.overlay_may_touch(order, prefix) {
            return range.len();
        }
        range.len() + delta.range(bounds.0..=bounds.1).count()
            - dead.range(bounds.0..=bounds.1).count()
    }

    /// Whether an overlay entry (insert or tombstone) may fall in `prefix`
    /// of `order`; `false` means the run alone answers the probe.
    fn overlay_may_touch(&self, order: Order, prefix: Prefix) -> bool {
        match prefix {
            Prefix::All => !self.delta.is_empty() || !self.dead.is_empty(),
            Prefix::One(a) | Prefix::Two(a, _) => {
                self.delta.may_hold(order, a) || self.dead.may_hold(order, a)
            }
        }
    }

    fn order_sets(&self, order: Order) -> (&Cols, &BTreeSet<IdTriple>, &BTreeSet<IdTriple>) {
        match order {
            Order::Spo => (&self.run.spo, &self.delta.spo, &self.dead.spo),
            Order::Pos => (&self.run.pos, &self.delta.pos, &self.dead.pos),
            Order::Osp => (&self.run.osp, &self.delta.osp, &self.dead.osp),
        }
    }

    /// Merged scan over one order: run slice ∪ delta range − tombstones,
    /// emitted in that order's sorted tuple order.
    fn scan<F: FnMut(IdTriple)>(&self, order: Order, prefix: Prefix, mut f: F) {
        self.scan_while(order, prefix, |t| {
            f(t);
            true
        });
    }

    /// [`Graph::scan`] that stops as soon as `f` returns false.
    fn scan_while<F: FnMut(IdTriple) -> bool>(&self, order: Order, prefix: Prefix, mut f: F) {
        let (cols, delta, dead) = self.order_sets(order);
        let (range, bounds) = prefix.locate(cols);
        if !self.overlay_may_touch(order, prefix)
            || (delta.range(bounds.0..=bounds.1).next().is_none()
                && dead.range(bounds.0..=bounds.1).next().is_none())
        {
            // No overlay entries touch this prefix (the common case on a
            // compacted graph): walk the columns directly, skipping the
            // merge machinery and its per-item peeks.
            for ((&a, &b), &c) in cols.a[range.clone()]
                .iter()
                .zip(&cols.b[range.clone()])
                .zip(&cols.c[range])
            {
                if !f((a, b, c)) {
                    return;
                }
            }
            return;
        }
        for t in ScanIter::new(cols, range, delta, dead, bounds) {
            if !f(t) {
                return;
            }
        }
    }
}

/// Which column order a scan runs over.
#[derive(Clone, Copy)]
enum Order {
    Spo,
    Pos,
    Osp,
}

/// A prefix constraint in an order's own tuple space.
#[derive(Clone, Copy)]
enum Prefix {
    All,
    One(Id),
    Two(Id, Id),
}

impl Prefix {
    /// The run index range and the inclusive tuple bounds for delta /
    /// tombstone range scans.
    fn locate(self, cols: &Cols) -> (Range<usize>, (IdTriple, IdTriple)) {
        match self {
            Prefix::All => (0..cols.len(), ((0, 0, 0), (Id::MAX, Id::MAX, Id::MAX))),
            Prefix::One(a) => (cols.range1(a), ((a, 0, 0), (a, Id::MAX, Id::MAX))),
            Prefix::Two(a, b) => (cols.range2(a, b), ((a, b, 0), (a, b, Id::MAX))),
        }
    }
}

/// Sorted-merge iterator over a run slice and the novelty delta, skipping
/// tombstoned run entries. Tombstones are a subset of the run and
/// disjoint from the delta, so a three-pointer walk suffices.
struct ScanIter<'a> {
    cols: &'a Cols,
    idx: usize,
    end: usize,
    delta: std::iter::Peekable<std::collections::btree_set::Range<'a, IdTriple>>,
    dead: std::iter::Peekable<std::collections::btree_set::Range<'a, IdTriple>>,
}

impl<'a> ScanIter<'a> {
    fn new(
        cols: &'a Cols,
        range: Range<usize>,
        delta: &'a BTreeSet<IdTriple>,
        dead: &'a BTreeSet<IdTriple>,
        bounds: (IdTriple, IdTriple),
    ) -> ScanIter<'a> {
        ScanIter {
            cols,
            idx: range.start,
            end: range.end,
            delta: delta.range(bounds.0..=bounds.1).peekable(),
            dead: dead.range(bounds.0..=bounds.1).peekable(),
        }
    }
}

impl Iterator for ScanIter<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        loop {
            if self.idx >= self.end {
                return self.delta.next().copied();
            }
            let base = self.cols.get(self.idx);
            // Tombstoned run entries are skipped; the tombstone iterator
            // advances in lockstep (both sorted, dead ⊆ run).
            if let Some(&&d) = self.dead.peek() {
                if d == base {
                    self.dead.next();
                    self.idx += 1;
                    continue;
                }
            }
            match self.delta.peek() {
                Some(&&n) if n < base => {
                    self.delta.next();
                    return Some(n);
                }
                _ => {
                    self.idx += 1;
                    return Some(base);
                }
            }
        }
    }
}

/// Merge `(run − dead) ∪ delta ∪ extra` into one sorted vector. All four
/// inputs are sorted; `dead ⊆ run`; `delta` and `extra` are disjoint from
/// the run and from each other.
fn merge_live(
    run: &Cols,
    dead: &BTreeSet<IdTriple>,
    delta: &BTreeSet<IdTriple>,
    extra: &[IdTriple],
) -> Vec<IdTriple> {
    let mut out: Vec<IdTriple> =
        Vec::with_capacity(run.len() + delta.len() + extra.len() - dead.len());
    let mut dead_it = dead.iter().peekable();
    let mut delta_it = delta.iter().peekable();
    let mut extra_it = extra.iter().peekable();
    // Walk the run; before each run entry emit any overlay entries smaller
    // than it; skip tombstoned run entries. A final drain empties the
    // overlays past the end of the run.
    for i in 0..run.len() {
        let base = run.get(i);
        loop {
            let next_from_delta = match (delta_it.peek(), extra_it.peek()) {
                (Some(&&d), Some(&&e)) => {
                    if d.min(e) >= base {
                        break;
                    }
                    d <= e
                }
                (Some(&&d), None) => {
                    if d >= base {
                        break;
                    }
                    true
                }
                (None, Some(&&e)) => {
                    if e >= base {
                        break;
                    }
                    false
                }
                (None, None) => break,
            };
            let v = if next_from_delta {
                *delta_it.next().unwrap()
            } else {
                *extra_it.next().unwrap()
            };
            out.push(v);
        }
        if let Some(&&dd) = dead_it.peek() {
            if dd == base {
                dead_it.next();
                continue;
            }
        }
        out.push(base);
    }
    loop {
        let next_from_delta = match (delta_it.peek(), extra_it.peek()) {
            (Some(&&d), Some(&&e)) => d <= e,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let v = if next_from_delta {
            *delta_it.next().unwrap()
        } else {
            *extra_it.next().unwrap()
        };
        out.push(v);
    }
    out
}

/// Equality is triple-set equality (interner ids are a representation
/// detail).
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(&t))
    }
}

impl Eq for Graph {}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = Graph::new();
        for t in iter {
            g.insert(t);
        }
        g
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        self.extend_triples(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(t("urn:a", "urn:p", "urn:x"));
        g.insert(t("urn:a", "urn:p", "urn:y"));
        g.insert(t("urn:a", "urn:q", "urn:x"));
        g.insert(t("urn:b", "urn:p", "urn:x"));
        g
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        assert!(g.insert(t("urn:a", "urn:p", "urn:x")));
        assert!(!g.insert(t("urn:a", "urn:p", "urn:x")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn all_eight_patterns_match() {
        let g = sample();
        let a = Term::iri("urn:a");
        let p = Term::iri("urn:p");
        let x = Term::iri("urn:x");
        assert_eq!(g.match_pattern(None, None, None).len(), 4);
        assert_eq!(g.match_pattern(Some(&a), None, None).len(), 3);
        assert_eq!(g.match_pattern(None, Some(&p), None).len(), 3);
        assert_eq!(g.match_pattern(None, None, Some(&x)).len(), 3);
        assert_eq!(g.match_pattern(Some(&a), Some(&p), None).len(), 2);
        assert_eq!(g.match_pattern(Some(&a), None, Some(&x)).len(), 2);
        assert_eq!(g.match_pattern(None, Some(&p), Some(&x)).len(), 2);
        assert_eq!(g.match_pattern(Some(&a), Some(&p), Some(&x)).len(), 1);
    }

    #[test]
    fn patterns_survive_compaction_and_novelty_mix() {
        // Same answers whether triples live in the run, the delta, or
        // both (compact between inserts to spread them out).
        let mut g = Graph::new();
        g.insert(t("urn:a", "urn:p", "urn:x"));
        g.insert(t("urn:a", "urn:p", "urn:y"));
        g.compact();
        g.insert(t("urn:a", "urn:q", "urn:x"));
        g.insert(t("urn:b", "urn:p", "urn:x"));
        assert_eq!(g.run_len(), 2);
        assert_eq!(g.novelty_len(), 2);
        let reference = sample();
        for (s, p, o) in [
            (None, None, None),
            (Some(Term::iri("urn:a")), None, None),
            (None, Some(Term::iri("urn:p")), None),
            (None, None, Some(Term::iri("urn:x"))),
            (Some(Term::iri("urn:a")), Some(Term::iri("urn:p")), None),
        ] {
            let mut got = g.match_pattern(s.as_ref(), p.as_ref(), o.as_ref());
            let mut want = reference.match_pattern(s.as_ref(), p.as_ref(), o.as_ref());
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
        g.compact();
        assert_eq!(g.novelty_len(), 0);
        assert_eq!(g, reference);
    }

    #[test]
    fn scans_emit_in_index_order() {
        // The reasoner's duplicate detection relies on sorted emission
        // even when results come from both the run and the delta.
        let mut g = Graph::new();
        g.insert(t("urn:b", "urn:p", "urn:x"));
        g.insert(t("urn:d", "urn:p", "urn:x"));
        g.compact();
        g.insert(t("urn:a", "urn:p", "urn:x"));
        g.insert(t("urn:c", "urn:p", "urn:x"));
        let p = g.term_id(&Term::iri("urn:p")).unwrap();
        let mut subjects = Vec::new();
        g.for_each_match_ids(None, Some(p), None, |s, _, _| subjects.push(s));
        let mut sorted = subjects.clone();
        sorted.sort_unstable();
        assert_eq!(subjects, sorted, "POS scan must emit in index order");
        let mut all = Vec::new();
        g.for_each_match_ids(None, None, None, |s, p2, o| all.push((s, p2, o)));
        let mut all_sorted = all.clone();
        all_sorted.sort_unstable();
        assert_eq!(all, all_sorted, "SPO scan must emit in index order");
    }

    #[test]
    fn tombstone_then_reinsert_resurrects() {
        let mut g = sample();
        g.compact();
        let tr = t("urn:a", "urn:p", "urn:x");
        assert!(g.remove(&tr));
        assert!(!g.contains(&tr));
        assert_eq!(g.len(), 3);
        assert!(g.insert(tr.clone()));
        assert!(g.contains(&tr));
        assert_eq!(g.len(), 4);
        assert_eq!(g, sample());
    }

    #[test]
    fn for_each_match_ids_while_stops_early() {
        let mut g = sample();
        g.compact();
        let p = g.term_id(&Term::iri("urn:p")).unwrap();
        let visits = |g: &Graph| {
            let mut n = 0;
            g.for_each_match_ids_while(None, Some(p), None, |_, _, _| {
                n += 1;
                n < 2
            });
            n
        };
        assert_eq!(visits(&g), 2, "compacted run");
        // With novelty in the range the merged scan stops just as early.
        g.insert(t("urn:c", "urn:p", "urn:z"));
        assert!(g.pred_slices(p).is_none());
        assert_eq!(visits(&g), 2, "run merged with novelty");
    }

    #[test]
    fn pred_slices_zero_copy_when_compacted() {
        let mut g = sample();
        g.compact();
        let p = g.term_id(&Term::iri("urn:p")).unwrap();
        let (objects, subjects) = g.pred_slices(p).expect("compacted: slices available");
        assert_eq!(objects.len(), 3);
        assert_eq!(subjects.len(), 3);
        assert!(objects.windows(2).all(|w| w[0] <= w[1]));
        // A delta insert under this predicate disables the fast path...
        g.insert(t("urn:c", "urn:p", "urn:z"));
        assert!(g.pred_slices(p).is_none());
        // ...until compaction folds it in.
        g.compact();
        assert_eq!(g.pred_slices(p).unwrap().0.len(), 4);
    }

    #[test]
    fn unknown_bound_term_matches_nothing() {
        let g = sample();
        assert!(g
            .match_pattern(Some(&Term::iri("urn:zzz")), None, None)
            .is_empty());
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut g = sample();
        assert!(g.remove(&t("urn:a", "urn:p", "urn:x")));
        assert!(!g.remove(&t("urn:a", "urn:p", "urn:x")));
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.match_pattern(None, None, Some(&Term::iri("urn:x"))).len(),
            2
        );
        assert_eq!(
            g.match_pattern(None, Some(&Term::iri("urn:p")), None).len(),
            2
        );
    }

    #[test]
    fn remove_from_run_updates_all_indexes() {
        let mut g = sample();
        g.compact();
        assert!(g.remove(&t("urn:a", "urn:p", "urn:x")));
        assert!(!g.remove(&t("urn:a", "urn:p", "urn:x")));
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.match_pattern(None, None, Some(&Term::iri("urn:x"))).len(),
            2
        );
        assert_eq!(
            g.match_pattern(None, Some(&Term::iri("urn:p")), None).len(),
            2
        );
        assert_eq!(g.estimate(None, Some(&Term::iri("urn:p")), None), 2);
    }

    #[test]
    fn objects_and_subjects_helpers() {
        let g = sample();
        let objs = g.objects(&Term::iri("urn:a"), &Term::iri("urn:p"));
        assert_eq!(objs.len(), 2);
        let subs = g.subjects(&Term::iri("urn:p"), &Term::iri("urn:x"));
        assert_eq!(subs.len(), 2);
        assert!(g.object(&Term::iri("urn:b"), &Term::iri("urn:p")).is_some());
        assert!(g.object(&Term::iri("urn:b"), &Term::iri("urn:q")).is_none());
    }

    #[test]
    fn all_subjects_is_distinct() {
        let g = sample();
        assert_eq!(g.all_subjects().len(), 2);
    }

    #[test]
    fn literals_participate_in_patterns() {
        let mut g = Graph::new();
        g.add(Term::iri("urn:s"), Term::iri("urn:p"), Term::integer(5));
        g.add(Term::iri("urn:s"), Term::iri("urn:p"), Term::string("5"));
        // Typed integer and plain string are distinct terms.
        assert_eq!(g.len(), 2);
        assert_eq!(
            g.match_pattern(None, None, Some(&Term::integer(5))).len(),
            1
        );
    }

    #[test]
    fn fresh_blank_avoids_collisions() {
        let mut g = Graph::new();
        g.add(Term::blank("g1"), Term::iri("urn:p"), Term::iri("urn:x"));
        let b = g.fresh_blank();
        assert_ne!(b, Term::blank("g1"));
    }

    #[test]
    fn merge_renaming_keeps_blank_nodes_distinct() {
        let mut g1 = Graph::new();
        g1.add(Term::blank("n"), Term::iri("urn:p"), Term::string("left"));
        let mut g2 = Graph::new();
        g2.add(Term::blank("n"), Term::iri("urn:p"), Term::string("right"));

        let mut merged = Graph::new();
        merged.merge_renaming(&g1);
        merged.merge_renaming(&g2);
        assert_eq!(merged.len(), 2);
        // The two _:n must not have been conflated into one subject.
        assert_eq!(merged.all_subjects().len(), 2);
    }

    #[test]
    fn merge_renaming_preserves_internal_coreference() {
        let mut g = Graph::new();
        g.add(Term::blank("n"), Term::iri("urn:p"), Term::string("v"));
        g.add(Term::blank("n"), Term::iri("urn:q"), Term::blank("m"));
        let mut target = Graph::new();
        let added = target.merge_renaming(&g);
        assert_eq!(added, 2);
        // _:n still has both properties under its new name.
        let subjects = target.all_subjects();
        let renamed_n = subjects
            .iter()
            .find(|s| {
                !target
                    .match_pattern(Some(s), Some(&Term::iri("urn:p")), None)
                    .is_empty()
            })
            .unwrap();
        assert!(!target
            .match_pattern(Some(renamed_n), Some(&Term::iri("urn:q")), None)
            .is_empty());
    }

    #[test]
    fn remove_subject_drops_all_its_triples() {
        let mut g = sample();
        assert_eq!(g.remove_subject(&Term::iri("urn:a")), 3);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn list_roundtrip() {
        let mut g = Graph::new();
        let items = vec![Term::iri("urn:a"), Term::integer(2), Term::string("c")];
        let head = g.write_list(&items);
        assert_eq!(g.read_list(&head), Some(items));
        assert_eq!(g.len(), 6);
        // Empty list is rdf:nil and reads back empty.
        let nil = g.write_list(&[]);
        assert_eq!(nil, Term::iri(crate::vocab::rdf::NIL));
        assert_eq!(g.read_list(&nil), Some(vec![]));
    }

    #[test]
    fn malformed_lists_are_none() {
        let mut g = Graph::new();
        // Missing rest.
        g.add(
            Term::blank("c"),
            Term::iri(crate::vocab::rdf::FIRST),
            Term::iri("urn:x"),
        );
        assert_eq!(g.read_list(&Term::blank("c")), None);
        // Cycle.
        let mut g2 = Graph::new();
        g2.add(
            Term::blank("c"),
            Term::iri(crate::vocab::rdf::FIRST),
            Term::iri("urn:x"),
        );
        g2.add(
            Term::blank("c"),
            Term::iri(crate::vocab::rdf::REST),
            Term::blank("c"),
        );
        assert_eq!(g2.read_list(&Term::blank("c")), None);
    }

    #[test]
    fn generation_and_delta_snapshot() {
        let mut g = Graph::new();
        g.insert(t("urn:a", "urn:p", "urn:x"));
        let mark = g.generation();
        assert!(g.delta_since(mark).is_empty());
        // Duplicate insert does not advance the generation.
        g.insert(t("urn:a", "urn:p", "urn:x"));
        assert_eq!(g.generation(), mark);
        g.insert(t("urn:b", "urn:p", "urn:y"));
        g.insert(t("urn:c", "urn:p", "urn:z"));
        let delta = g.delta_since(mark);
        assert_eq!(
            delta,
            vec![t("urn:b", "urn:p", "urn:y"), t("urn:c", "urn:p", "urn:z")],
            "delta is the newly inserted triples, in insertion order"
        );
        // A triple removed after insertion drops out of the snapshot.
        g.remove(&t("urn:b", "urn:p", "urn:y"));
        assert_eq!(g.delta_since(mark), vec![t("urn:c", "urn:p", "urn:z")]);
        // Deltas from generation 0 cover the whole surviving graph.
        assert_eq!(g.delta_since(0).len(), g.len());
    }

    #[test]
    fn delta_snapshot_survives_compaction() {
        let mut g = Graph::new();
        g.insert(t("urn:a", "urn:p", "urn:x"));
        let mark = g.generation();
        g.insert(t("urn:b", "urn:p", "urn:y"));
        g.compact();
        g.insert(t("urn:c", "urn:p", "urn:z"));
        assert_eq!(
            g.delta_since(mark),
            vec![t("urn:b", "urn:p", "urn:y"), t("urn:c", "urn:p", "urn:z")],
            "generation markers span compactions"
        );
        g.remove(&t("urn:b", "urn:p", "urn:y"));
        g.compact();
        assert_eq!(g.delta_since(mark), vec![t("urn:c", "urn:p", "urn:z")]);
    }

    #[test]
    fn extend_triples_bulk_matches_insert() {
        let batch = vec![
            t("urn:a", "urn:p", "urn:x"),
            t("urn:b", "urn:p", "urn:x"),
            t("urn:a", "urn:p", "urn:x"), // in-batch duplicate
        ];
        let mut bulk = Graph::new();
        assert_eq!(bulk.extend_triples(batch.clone()), 2);
        assert_eq!(bulk.extend_triples(batch.clone()), 0, "re-merge is a no-op");
        let mut slow = Graph::new();
        for tr in batch {
            slow.insert(tr);
        }
        assert_eq!(bulk, slow);
        // Secondary indexes answer patterns after a bulk merge.
        assert_eq!(
            bulk.match_pattern(None, None, Some(&Term::iri("urn:x")))
                .len(),
            2
        );
        assert_eq!(bulk.delta_since(0).len(), 2);
    }

    #[test]
    fn estimate_matches_count_pattern() {
        let g = sample();
        let a = Term::iri("urn:a");
        let p = Term::iri("urn:p");
        let x = Term::iri("urn:x");
        let zzz = Term::iri("urn:zzz");
        for (s, pp, o) in [
            (None, None, None),
            (Some(&a), None, None),
            (None, Some(&p), None),
            (None, None, Some(&x)),
            (Some(&a), Some(&p), None),
            (Some(&a), None, Some(&x)),
            (None, Some(&p), Some(&x)),
            (Some(&a), Some(&p), Some(&x)),
            (Some(&zzz), None, None),
        ] {
            assert_eq!(g.estimate(s, pp, o), g.count_pattern(s, pp, o));
        }
    }

    #[test]
    fn estimate_exact_across_run_delta_and_tombstones() {
        let mut g = sample();
        g.compact();
        g.insert(t("urn:a", "urn:p", "urn:z"));
        g.remove(&t("urn:a", "urn:p", "urn:x"));
        let a = Term::iri("urn:a");
        let p = Term::iri("urn:p");
        let x = Term::iri("urn:x");
        let z = Term::iri("urn:z");
        for (s, pp, o) in [
            (None, None, None),
            (Some(&a), None, None),
            (None, Some(&p), None),
            (None, None, Some(&x)),
            (None, None, Some(&z)),
            (Some(&a), Some(&p), None),
            (Some(&a), None, Some(&x)),
            (None, Some(&p), Some(&x)),
            (Some(&a), Some(&p), Some(&x)),
        ] {
            assert_eq!(g.estimate(s, pp, o), g.count_pattern(s, pp, o));
        }
    }

    #[test]
    fn id_pattern_matching_mirrors_term_matching() {
        let g = sample();
        let a = g.term_id(&Term::iri("urn:a")).unwrap();
        let p = g.term_id(&Term::iri("urn:p")).unwrap();
        let x = g.term_id(&Term::iri("urn:x")).unwrap();
        for (s, pp, o) in [
            (None, None, None),
            (Some(a), None, None),
            (None, Some(p), None),
            (None, None, Some(x)),
            (Some(a), Some(p), None),
            (Some(a), None, Some(x)),
            (None, Some(p), Some(x)),
            (Some(a), Some(p), Some(x)),
        ] {
            let mut by_id: Vec<Triple> = Vec::new();
            g.for_each_match_ids(s, pp, o, |s2, p2, o2| {
                by_id.push(Triple::new(
                    g.term_of(s2).clone(),
                    g.term_of(p2).clone(),
                    g.term_of(o2).clone(),
                ));
            });
            let mut by_term = g.match_pattern(
                s.map(|id| g.term_of(id)),
                pp.map(|id| g.term_of(id)),
                o.map(|id| g.term_of(id)),
            );
            by_id.sort();
            by_term.sort();
            assert_eq!(by_id, by_term);
        }
    }

    #[test]
    fn term_id_roundtrip_and_interning() {
        let mut g = sample();
        let a = Term::iri("urn:a");
        let id = g.term_id(&a).unwrap();
        assert_eq!(g.term_of(id), &a);
        assert!(g.term_id(&Term::iri("urn:zzz")).is_none());
        // Interning a fresh term adds no triples and is idempotent.
        let before = (g.len(), g.generation());
        let fresh = g.intern_term(&Term::iri("urn:zzz"));
        assert_eq!(g.intern_term(&Term::iri("urn:zzz")), fresh);
        assert_eq!((g.len(), g.generation()), before);
        assert_eq!(fresh as usize + 1, g.term_count());
        // Equality ignores interner contents.
        assert_eq!(g, sample());
    }

    #[test]
    fn live_ids_is_the_live_set_before_and_after_removals() {
        let mut g = sample();
        let sorted = |mut v: Vec<(TermId, TermId, TermId)>| {
            v.sort_unstable();
            v
        };
        let mut want: Vec<_> = Vec::new();
        g.for_each_match_ids(None, None, None, |s, p, o| want.push((s, p, o)));
        assert_eq!(sorted(g.live_ids()), want);
        let gone = g.iter().next().expect("sample is not empty");
        assert!(g.remove(&gone));
        g.add(Term::iri("urn:z"), Term::iri("urn:p"), Term::iri("urn:y"));
        let mut want: Vec<_> = Vec::new();
        g.for_each_match_ids(None, None, None, |s, p, o| want.push((s, p, o)));
        assert_eq!(sorted(g.live_ids()), want);
        assert_eq!(sorted(g.delta_ids_since(0)), want);
    }

    #[test]
    fn delta_ids_and_extend_ids_roundtrip() {
        let mut g = sample();
        let mark = g.generation();
        g.insert(t("urn:c", "urn:p", "urn:y"));
        let ids = g.delta_ids_since(mark);
        assert_eq!(ids.len(), 1);
        let (s, p, o) = ids[0];
        assert_eq!(g.term_of(s), &Term::iri("urn:c"));
        assert_eq!(g.term_of(p), &Term::iri("urn:p"));
        assert_eq!(g.term_of(o), &Term::iri("urn:y"));
        assert!(g.has_ids(s, p, o));
        // Full-graph snapshot matches iter().
        assert_eq!(g.delta_ids_since(0).len(), g.len());
        // Re-adding the same id triples is a no-op; a new combination of
        // existing ids lands in all indexes.
        assert_eq!(g.extend_ids(ids), 0);
        let b = g.term_id(&Term::iri("urn:b")).unwrap();
        assert_eq!(g.extend_ids(vec![(b, p, o), (b, p, o)]), 1);
        assert!(g.has(
            &Term::iri("urn:b"),
            &Term::iri("urn:p"),
            &Term::iri("urn:y")
        ));
        assert_eq!(
            g.match_pattern(None, None, Some(&Term::iri("urn:y"))).len(),
            3
        );
    }

    #[test]
    fn from_and_extend_iterators() {
        let g: Graph = vec![t("urn:a", "urn:p", "urn:x")].into_iter().collect();
        assert_eq!(g.len(), 1);
        let mut g2 = Graph::new();
        g2.extend(g.iter());
        assert_eq!(g2.len(), 1);
    }
}
