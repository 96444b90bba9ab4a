//! Per-subject visibility labels: the storage half of the label-compilation
//! IR (the Accumulo/GeoMesa cell-level visibility model, keyed by subject).
//!
//! A [`VisBitset`] records which *roles* (by dense index) may see a triple.
//! A [`SubjectLabels`] table assigns every subject term a *subject class*
//! and every predicate term a *predicate class*; a small class × predicate
//! class table holds the role bitset each combination is visible to. A
//! triple's label depends only on its subject and predicate, so the table
//! is two dense per-term-id arrays plus that small grid — no per-triple
//! state, and no insert or compaction of the graph can misalign it (term
//! ids are stable for the life of a graph).
//!
//! Policy compilation lives in `grdf-security::labels`; this module only
//! knows about bits and ids so the graph crate stays policy-agnostic.
//!
//! Scan-time check: a request resolves its authorization [`VisBitset`]
//! against the grid once ([`SubjectLabels::mask`]); each scanned triple
//! then costs three array loads in a [`ScanMask`] — subject class,
//! predicate class, grid cell — with no hashing and no per-role state.

use crate::graph::TermId;

/// A fixed-width bitset over role indices. Width is owned by the enclosing
/// table (all bitsets in one table share it); the bitset itself just
/// stores words so it can be hashed and deduplicated cheaply.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VisBitset {
    words: Vec<u64>,
}

impl VisBitset {
    /// An empty bitset sized for `width` bits (all hidden).
    #[must_use]
    pub fn new(width: usize) -> Self {
        VisBitset {
            words: vec![0u64; width.div_ceil(64)],
        }
    }

    /// Set bit `i`. Grows the word vector if needed so callers can build
    /// bitsets incrementally without pre-sizing.
    pub fn set(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        let w = i / 64;
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << (i % 64)) != 0)
    }

    /// Whether any bit is set in both `self` and `other`.
    #[must_use]
    pub fn intersects(&self, other: &VisBitset) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Union `other` into `self`; returns true if any bit changed.
    pub fn union_with(&mut self, other: &VisBitset) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let next = *a | *b;
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        changed
    }

    /// Clear every bit of `self` that is set in `other`.
    pub fn remove_all(&mut self, other: &VisBitset) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// True if every set bit of `self` is also set in `other`.
    #[must_use]
    pub fn is_subset_of(&self, other: &VisBitset) -> bool {
        self.words.iter().enumerate().all(|(i, w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Indices of all set bits, ascending.
    #[must_use]
    pub fn iter_ones(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, w) in self.words.iter().enumerate() {
            let mut word = *w;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                word &= word - 1;
            }
        }
        out
    }
}

/// Index of a subject class (a row of the grid) in a [`SubjectLabels`].
pub type LabelId = u32;

/// The subject class of every term that carries no label: hidden from
/// every role (deny-by-default). Its row is all-empty by construction.
pub const HIDDEN: LabelId = 0;

/// Per-subject visibility table: subject class per subject term id,
/// predicate class per predicate term id, and the grid of role bitsets
/// indexed by (subject class, predicate class).
///
/// Terms the arrays do not cover (minted after the last update of the
/// table) read as subject class [`HIDDEN`] and predicate class 0.
#[derive(Debug, Clone)]
pub struct SubjectLabels {
    width: usize,
    subject: Vec<LabelId>,
    pred: Vec<u32>,
    /// `rows[class][pred class]`: roles that see the combination.
    rows: Vec<Vec<VisBitset>>,
    pred_classes: usize,
}

impl SubjectLabels {
    /// A table for `width` role bits with the single predicate class 0 and
    /// only the [`HIDDEN`] subject class.
    #[must_use]
    pub fn new(width: usize) -> Self {
        SubjectLabels {
            width,
            subject: Vec::new(),
            pred: Vec::new(),
            rows: vec![vec![VisBitset::new(width)]],
            pred_classes: 1,
        }
    }

    /// Number of role bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of subject classes, [`HIDDEN`] included.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of predicate classes.
    #[must_use]
    pub fn pred_class_count(&self) -> usize {
        self.pred_classes
    }

    /// Number of subject terms with a class other than [`HIDDEN`].
    #[must_use]
    pub fn labeled_subjects(&self) -> usize {
        self.subject.iter().filter(|&&c| c != HIDDEN).count()
    }

    /// Append a subject class whose row is `row` (one bitset per
    /// predicate class, in class order); returns its id.
    ///
    /// # Panics
    /// Panics if `row` does not have one entry per predicate class.
    pub fn add_class(&mut self, row: Vec<VisBitset>) -> LabelId {
        assert_eq!(row.len(), self.pred_classes, "one cell per predicate class");
        self.rows.push(row);
        LabelId::try_from(self.rows.len() - 1).expect("fewer than 2^32 subject classes")
    }

    /// Append a predicate class; `cell(class)` gives each existing
    /// non-hidden subject class's bitset for it. Returns its id.
    pub fn add_pred_class(&mut self, mut cell: impl FnMut(LabelId) -> VisBitset) -> u32 {
        for (class, row) in self.rows.iter_mut().enumerate() {
            let class = LabelId::try_from(class).expect("class ids fit u32");
            row.push(if class == HIDDEN {
                VisBitset::new(self.width)
            } else {
                cell(class)
            });
        }
        self.pred_classes += 1;
        u32::try_from(self.pred_classes - 1).expect("fewer than 2^32 predicate classes")
    }

    /// Assign subject class `class` to the subject term `s`.
    pub fn set_subject(&mut self, s: TermId, class: LabelId) {
        let i = s as usize;
        if i >= self.subject.len() {
            if class == HIDDEN {
                return;
            }
            self.subject.resize(i + 1, HIDDEN);
        }
        self.subject[i] = class;
    }

    /// Assign predicate class `class` to the predicate term `p`.
    pub fn set_pred(&mut self, p: TermId, class: u32) {
        let i = p as usize;
        if i >= self.pred.len() {
            if class == 0 {
                return;
            }
            self.pred.resize(i + 1, 0);
        }
        self.pred[i] = class;
    }

    /// The subject class of `s`.
    #[must_use]
    pub fn subject_class(&self, s: TermId) -> LabelId {
        self.subject.get(s as usize).copied().unwrap_or(HIDDEN)
    }

    /// The predicate class of `p`.
    #[must_use]
    pub fn pred_class(&self, p: TermId) -> u32 {
        self.pred.get(p as usize).copied().unwrap_or(0)
    }

    /// The grid cell of (subject class, predicate class).
    #[must_use]
    pub fn cell(&self, class: LabelId, pred_class: u32) -> &VisBitset {
        &self.rows[class as usize][pred_class as usize]
    }

    /// The roles that see every triple with subject `s` and predicate `p`.
    #[must_use]
    pub fn bits(&self, s: TermId, p: TermId) -> &VisBitset {
        self.cell(self.subject_class(s), self.pred_class(p))
    }

    /// Is a triple with subject `s` and predicate `p` visible under
    /// `auths`? Unlabeled subjects are hidden (deny-by-default).
    #[must_use]
    pub fn visible(&self, s: TermId, p: TermId, auths: &VisBitset) -> bool {
        self.bits(s, p).intersects(auths)
    }

    /// Resolve `auths` against the grid once: the per-request check.
    #[must_use]
    pub fn mask(&self, auths: &VisBitset) -> ScanMask<'_> {
        let vis = self
            .rows
            .iter()
            .flat_map(|row| row.iter().map(|bits| bits.intersects(auths)))
            .collect();
        ScanMask {
            subject: &self.subject,
            pred: &self.pred,
            stride: self.pred_classes,
            vis,
        }
    }
}

/// A [`SubjectLabels`] table resolved against one authorization set: the
/// visibility test a scan runs on every triple it reads.
#[derive(Debug, Clone)]
pub struct ScanMask<'a> {
    subject: &'a [LabelId],
    pred: &'a [u32],
    stride: usize,
    /// `vis[class * stride + pred class]`.
    vis: Vec<bool>,
}

impl ScanMask<'_> {
    /// Whether a triple with subject `s` and predicate `p` is visible.
    #[inline]
    #[must_use]
    pub fn visible(&self, s: TermId, p: TermId) -> bool {
        let class = self.subject.get(s as usize).map_or(0, |&c| c as usize);
        let pred = self.pred.get(p as usize).map_or(0, |&k| k as usize);
        self.vis[class * self.stride + pred]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_get_intersect() {
        let mut a = VisBitset::new(3);
        let mut b = VisBitset::new(3);
        a.set(0);
        a.set(2);
        b.set(1);
        assert!(!a.intersects(&b));
        b.set(2);
        assert!(a.intersects(&b));
        assert!(a.get(2) && !a.get(1));
        assert_eq!(a.count_ones(), 2);
        assert_eq!(a.iter_ones(), vec![0, 2]);
        a.remove_all(&b);
        assert_eq!(a.iter_ones(), vec![0]);
    }

    #[test]
    fn bitset_grows_past_word_boundary() {
        let mut a = VisBitset::new(1);
        a.set(130);
        assert!(a.get(130));
        assert!(!a.get(129));
        let mut b = VisBitset::new(200);
        b.set(130);
        assert!(a.intersects(&b));
        assert!(a.is_subset_of(&b));
    }

    #[test]
    fn union_reports_change() {
        let mut a = VisBitset::new(2);
        let mut b = VisBitset::new(2);
        b.set(1);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.get(1));
    }

    fn bits(width: usize, ones: &[usize]) -> VisBitset {
        let mut b = VisBitset::new(width);
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn grid_lookup_and_mask_agree() {
        // Two roles. Class 1 shows predicate class 0 to role 0 only and
        // predicate class 1 to both; class 2 shows everything to role 1.
        let mut t = SubjectLabels::new(2);
        let named = t.add_pred_class(|_| VisBitset::new(2));
        assert_eq!(named, 1);
        let c1 = t.add_class(vec![bits(2, &[0]), bits(2, &[0, 1])]);
        let c2 = t.add_class(vec![bits(2, &[1]), bits(2, &[1])]);
        t.set_subject(10, c1);
        t.set_subject(11, c2);
        t.set_pred(5, named);
        assert_eq!(t.class_count(), 3);
        assert_eq!(t.labeled_subjects(), 2);

        let role1 = bits(2, &[1]);
        assert!(!t.visible(10, 4, &role1));
        assert!(t.visible(10, 5, &role1));
        assert!(t.visible(11, 4, &role1));
        assert!(!t.visible(12, 5, &role1), "unlabeled subject is hidden");
        let mask = t.mask(&role1);
        for s in [10, 11, 12, 9999] {
            for p in [4, 5, 9999] {
                assert_eq!(mask.visible(s, p), t.visible(s, p, &role1), "({s}, {p})");
            }
        }
    }

    #[test]
    fn new_predicate_class_extends_every_row() {
        let mut t = SubjectLabels::new(1);
        let c = t.add_class(vec![bits(1, &[0])]);
        t.set_subject(3, c);
        let k = t.add_pred_class(|class| {
            assert_eq!(class, c, "the hidden row is filled by the table");
            VisBitset::new(1)
        });
        t.set_pred(7, k);
        assert!(t.visible(3, 6, &bits(1, &[0])));
        assert!(!t.visible(3, 7, &bits(1, &[0])));
        assert!(t.cell(HIDDEN, k).is_empty());
    }
}
