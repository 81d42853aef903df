//! Clause storage: one flat arena of `u32` words.
//!
//! A clause is a header word followed by its literal codes
//! ([`Lit::code`]). A learnt clause keeps three more words after its
//! literals: its LBD and the two halves of its `f64` activity. While proof
//! logging is on, every clause ends with one more word, its proof ID (the
//! checker's slot for it), flagged in the header; without logging no
//! clause has that word. A [`ClauseRef`] is the offset of the header, so
//! propagation reads a clause's length and literals from one run of memory
//! instead of chasing a pointer per clause.
//!
//! Removing a clause only marks its header. [`ClauseDb::compact`] later
//! slides the live clauses down over the removed ones, keeping their
//! order, and returns the [`Relocation`] that maps old handles to new.
//! Offsets stay below 2^31, so a [`Watcher`] packs a binary-clause flag
//! into the top bit of its handle and stays 8 bytes.

use crate::lit::Lit;

/// Header bit: the clause was removed and its handle is dangling.
const REMOVED: u32 = 1;
/// Header bit: the clause was learnt and carries LBD and activity words.
const LEARNT: u32 = 2;
/// Header bit: the clause's last word is its proof ID.
const PROOF_ID: u32 = 4;
/// The literal count sits above the three flag bits.
const LEN_SHIFT: u32 = 3;
/// Words a learnt clause keeps after its literals: LBD, then the low and
/// high halves of its activity.
const LEARNT_EXTRA: usize = 3;
/// Exclusive bound on arena length, so every offset leaves the top bit of a
/// handle free for [`Watcher`]'s binary flag.
const MAX_WORDS: usize = 1 << 31;

/// Handle to a clause in the [`ClauseDb`]: the offset of its header.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct ClauseRef(u32);

impl ClauseRef {
    #[inline]
    fn offset(self) -> usize {
        self.0 as usize
    }
}

/// Arena words taken by a clause of `len` literals.
#[inline]
pub(crate) fn clause_words(len: usize, learnt: bool, proof_id: bool) -> usize {
    1 + len + if learnt { LEARNT_EXTRA } else { 0 } + usize::from(proof_id)
}

#[inline]
fn header_words(header: u32) -> usize {
    clause_words(
        (header >> LEN_SHIFT) as usize,
        header & LEARNT != 0,
        header & PROOF_ID != 0,
    )
}

/// A watch-list entry: the watched clause and its blocker, another literal
/// of the clause whose truth lets propagation skip the clause without
/// reading the arena. A binary clause's blocker is always its other
/// literal, so propagation decides a binary clause from the watcher alone;
/// the top bit of the packed handle marks those.
#[derive(Clone, Copy)]
pub(crate) struct Watcher {
    packed: u32,
    pub(crate) blocker: Lit,
}

impl Watcher {
    const BINARY: u32 = 1 << 31;

    #[inline]
    pub(crate) fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        let flag = if binary { Watcher::BINARY } else { 0 };
        Watcher {
            packed: cref.0 | flag,
            blocker,
        }
    }

    #[inline]
    pub(crate) fn cref(self) -> ClauseRef {
        ClauseRef(self.packed & !Watcher::BINARY)
    }

    #[inline]
    pub(crate) fn is_binary(self) -> bool {
        self.packed & Watcher::BINARY != 0
    }
}

/// Arena of clauses. Removed clauses keep their words until
/// [`ClauseDb::compact`].
#[derive(Default)]
pub(crate) struct ClauseDb {
    arena: Vec<u32>,
    live: usize,
    /// Words held by removed clauses, reclaimed by the next compaction.
    wasted: usize,
}

impl ClauseDb {
    /// Creates an empty database.
    pub(crate) fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Number of live clauses.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Words in the arena, removed clauses included.
    pub(crate) fn words(&self) -> usize {
        self.arena.len()
    }

    /// Words held by removed clauses.
    pub(crate) fn wasted(&self) -> usize {
        self.wasted
    }

    /// Appends a clause and returns its handle. A learnt clause starts
    /// with activity 0. A clause given a proof ID keeps it in one more
    /// word.
    ///
    /// # Panics
    ///
    /// Panics if `lits` has fewer than two literals (unit and empty
    /// clauses are handled directly on the trail by the solver), or if the
    /// clause would not fit the header or the 2^31-word arena.
    pub(crate) fn insert(
        &mut self,
        lits: &[Lit],
        learnt: bool,
        lbd: u32,
        proof_id: Option<u32>,
    ) -> ClauseRef {
        assert!(lits.len() >= 2, "clauses in the arena must be non-unit");
        assert!(
            lits.len() < 1 << (32 - LEN_SHIFT),
            "clause too long for its header"
        );
        let offset = self.arena.len();
        assert!(
            offset + clause_words(lits.len(), learnt, proof_id.is_some()) <= MAX_WORDS,
            "clause arena full: offsets must stay below 2^31"
        );
        let mut flags = if learnt { LEARNT } else { 0 };
        if proof_id.is_some() {
            flags |= PROOF_ID;
        }
        self.arena.push((lits.len() as u32) << LEN_SHIFT | flags);
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        if learnt {
            let activity = 0f64.to_bits();
            self.arena
                .extend([lbd, activity as u32, (activity >> 32) as u32]);
        }
        self.arena.extend(proof_id);
        self.live += 1;
        ClauseRef(offset as u32)
    }

    /// Marks a clause removed. Its handle must not be used afterwards; its
    /// words are reclaimed by the next [`ClauseDb::compact`].
    pub(crate) fn remove(&mut self, cref: ClauseRef) {
        let header = self.header(cref);
        self.arena[cref.offset()] = header | REMOVED;
        self.live -= 1;
        self.wasted += header_words(header);
    }

    /// Whether `cref`'s clause was removed since the last compaction.
    #[inline]
    pub(crate) fn is_removed(&self, cref: ClauseRef) -> bool {
        self.arena[cref.offset()] & REMOVED != 0
    }

    /// The header of a live clause.
    ///
    /// # Panics
    ///
    /// Panics on a removed clause's handle, in every build.
    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        let header = self.arena[cref.offset()];
        assert!(header & REMOVED == 0, "dangling clause reference {cref:?}");
        header
    }

    /// Number of literals in a clause.
    #[inline]
    pub(crate) fn clause_len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> LEN_SHIFT) as usize
    }

    /// Whether a clause was learnt.
    #[inline]
    pub(crate) fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT != 0
    }

    /// The literal codes of a clause, in stored order. Propagation reorders
    /// them so the two watched literals come first.
    #[inline]
    pub(crate) fn codes_mut(&mut self, cref: ClauseRef) -> &mut [u32] {
        let start = cref.offset() + 1;
        let len = self.clause_len(cref);
        &mut self.arena[start..start + len]
    }

    /// The `i`-th literal of a clause.
    #[inline]
    pub(crate) fn lit(&self, cref: ClauseRef, i: usize) -> Lit {
        let len = self.clause_len(cref);
        assert!(i < len, "literal {i} of a {len}-literal clause");
        Lit::from_code(self.arena[cref.offset() + 1 + i] as usize)
    }

    /// The literals of a clause, in stored order.
    pub(crate) fn lits(&self, cref: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let start = cref.offset() + 1;
        let len = self.clause_len(cref);
        self.arena[start..start + len]
            .iter()
            .map(|&code| Lit::from_code(code as usize))
    }

    /// Offset of a learnt clause's extra words.
    #[inline]
    fn extra(&self, cref: ClauseRef) -> usize {
        let header = self.header(cref);
        debug_assert!(
            header & LEARNT != 0,
            "only learnt clauses carry LBD and activity"
        );
        cref.offset() + 1 + (header >> LEN_SHIFT) as usize
    }

    /// Literal block distance of a learnt clause at learning time.
    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[self.extra(cref)]
    }

    /// Bump-and-decay activity of a learnt clause.
    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f64 {
        let at = self.extra(cref) + 1;
        f64::from_bits(u64::from(self.arena[at]) | u64::from(self.arena[at + 1]) << 32)
    }

    /// Sets the activity of a learnt clause.
    pub(crate) fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let at = self.extra(cref) + 1;
        let bits = activity.to_bits();
        self.arena[at] = bits as u32;
        self.arena[at + 1] = (bits >> 32) as u32;
    }

    /// The proof ID of a clause, if it was stored with one.
    #[inline]
    pub(crate) fn proof_id(&self, cref: ClauseRef) -> Option<u32> {
        let header = self.header(cref);
        (header & PROOF_ID != 0).then(|| self.arena[cref.offset() + header_words(header) - 1])
    }

    /// Handles of the live clauses, in insertion order.
    pub(crate) fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut offset = 0;
        std::iter::from_fn(move || loop {
            let header = *self.arena.get(offset)?;
            let cref = ClauseRef(offset as u32);
            offset += header_words(header);
            if header & REMOVED == 0 {
                return Some(cref);
            }
        })
    }

    /// Slides the live clauses down over the removed ones, keeping their
    /// order, and returns the map from old handles to new. Every handle
    /// held outside the database must be passed through it.
    pub(crate) fn compact(&mut self) -> Relocation {
        let mut holes: Vec<(u32, u32)> = Vec::new();
        let mut removed = 0;
        let mut offset = 0;
        while offset < self.arena.len() {
            let header = self.arena[offset];
            let words = header_words(header);
            if header & REMOVED != 0 {
                removed += words;
                holes.push((offset as u32, removed as u32));
            } else if removed > 0 {
                self.arena
                    .copy_within(offset..offset + words, offset - removed);
            }
            offset += words;
        }
        self.arena.truncate(self.arena.len() - removed);
        self.wasted = 0;
        Relocation { holes }
    }
}

/// Old-to-new handle map of one [`ClauseDb::compact`]: one entry per
/// removed clause, as (its offset, words removed up to its end).
pub(crate) struct Relocation {
    holes: Vec<(u32, u32)>,
}

impl Relocation {
    /// The new handle of a clause that was live at the compaction.
    #[inline]
    pub(crate) fn map(&self, cref: ClauseRef) -> ClauseRef {
        match self.holes.partition_point(|&(offset, _)| offset < cref.0) {
            0 => cref,
            before => ClauseRef(cref.0 - self.holes[before - 1].1),
        }
    }

    /// `w` with its handle relocated.
    #[inline]
    pub(crate) fn watcher(&self, w: Watcher) -> Watcher {
        Watcher::new(self.map(w.cref()), w.blocker, w.is_binary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(v: &[i32]) -> Vec<Lit> {
        v.iter()
            .map(|&x| Lit::new(Var::from_index(x.unsigned_abs() as usize), x > 0))
            .collect()
    }

    fn read(db: &ClauseDb, cref: ClauseRef) -> Vec<Lit> {
        db.lits(cref).collect()
    }

    #[test]
    fn insert_remove_compact_relocates_handles_in_order() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2]), false, 0, None);
        let b = db.insert(&lits(&[2, 3, 4]), true, 2, None);
        let c = db.insert(&lits(&[-1, 5]), true, 2, Some(7));
        let d = db.insert(&lits(&[6, -7, 8]), false, 0, Some(8));
        let e = db.insert(&lits(&[9, 10, 11, 12]), true, 3, Some(9));
        db.set_activity(e, 2.5);
        assert_eq!(db.len(), 5);
        assert_eq!(db.clause_len(b), 3);
        assert!(db.is_learnt(b) && !db.is_learnt(a));
        db.remove(b);
        db.remove(c);
        assert_eq!(db.len(), 3);
        assert!(db.is_removed(b) && !db.is_removed(d));
        assert_eq!(
            db.wasted(),
            clause_words(3, true, false) + clause_words(2, true, true)
        );
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), vec![a, d, e]);

        let words = db.words();
        let reloc = db.compact();
        assert_eq!(
            db.words(),
            words - clause_words(3, true, false) - clause_words(2, true, true)
        );
        assert_eq!(db.wasted(), 0);
        let (a2, d2, e2) = (reloc.map(a), reloc.map(d), reloc.map(e));
        assert_eq!(a2, a, "a clause before the first hole keeps its handle");
        assert_eq!(read(&db, a2), lits(&[1, 2]));
        assert_eq!(read(&db, d2), lits(&[6, -7, 8]));
        assert_eq!(read(&db, e2), lits(&[9, 10, 11, 12]));
        assert_eq!((db.lbd(e2), db.activity(e2)), (3, 2.5));
        assert_eq!(
            [a2, d2, e2].map(|c| db.proof_id(c)),
            [None, Some(8), Some(9)],
            "proof IDs move with their clauses"
        );
        assert_eq!(db.iter_refs().collect::<Vec<_>>(), vec![a2, d2, e2]);

        let w = reloc.watcher(Watcher::new(e, lits(&[9])[0], false));
        assert_eq!((w.cref(), w.is_binary()), (e2, false));
        let w = Watcher::new(d2, lits(&[6])[0], true);
        assert_eq!((w.cref(), w.is_binary()), (d2, true));
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn dangling_access_panics() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2]), false, 0, None);
        db.remove(a);
        let _ = db.clause_len(a);
    }
}
