//! A dense, id-ordered set of job ids.
//!
//! The cluster index keeps several job sets (`arrived`, `active`, `pending`,
//! per user, per model) that change on every arrival and finish and are
//! iterated in id order by every [`crate::SimView`] job query. Job ids are
//! dense indices into the engine's job table, so a bitset over
//! `JobId::index()` answers insert, remove and contains in O(1) where a
//! `BTreeSet` pays a tree walk and node churn.
//!
//! The bitset has two levels. Ids are grouped into blocks of 4096; a block
//! is allocated on its first insert and freed when it empties, so a set
//! whose members slide through the id space (a user's active jobs, say)
//! holds only its live blocks. Inside a block a summary word has one bit per
//! non-empty 64-id word, so iteration skips empty words and empty blocks
//! alike and visits ids in increasing order.

use gfair_types::JobId;
use std::fmt;

/// Ids per 64-bit word.
const WORD_IDS: usize = 64;

/// Ids per block: one summary bit per word, so 64 words of 64 ids.
const BLOCK_IDS: usize = WORD_IDS * WORD_IDS;

/// One 4096-id block: the member bits plus a summary of non-empty words.
#[derive(Clone)]
struct Block {
    /// Bit `w` is set iff `words[w] != 0`.
    summary: u64,
    /// In block `k`, bit `b` of `words[w]` is set iff id `4096 k + 64 w + b`
    /// is a member.
    words: [u64; WORD_IDS],
}

/// Id-ordered set of [`JobId`]s backed by a two-level bitset.
#[derive(Clone, Default)]
pub struct JobSet {
    /// Block `k` covers ids `[4096 k, 4096 (k + 1))`; `None` when empty.
    blocks: Vec<Option<Box<Block>>>,
    /// Number of members.
    len: usize,
}

/// Splits an id into (block, word within the block, bit mask within the word).
fn locate(id: JobId) -> (usize, usize, u64) {
    let i = id.index();
    (
        i / BLOCK_IDS,
        (i % BLOCK_IDS) / WORD_IDS,
        1u64 << (i % WORD_IDS),
    )
}

impl JobSet {
    /// An empty set.
    pub fn new() -> Self {
        JobSet::default()
    }

    /// Number of members, in O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `id` is a member.
    pub fn contains(&self, id: JobId) -> bool {
        let (b, w, mask) = locate(id);
        matches!(self.blocks.get(b), Some(Some(block)) if block.words[w] & mask != 0)
    }

    /// Adds `id`; returns whether it was absent.
    pub fn insert(&mut self, id: JobId) -> bool {
        let (b, w, mask) = locate(id);
        if self.blocks.len() <= b {
            self.blocks.resize_with(b + 1, || None);
        }
        let block = self.blocks[b].get_or_insert_with(|| {
            Box::new(Block {
                summary: 0,
                words: [0; WORD_IDS],
            })
        });
        let word = &mut block.words[w];
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        block.summary |= 1 << w;
        self.len += 1;
        true
    }

    /// Removes `id`; returns whether it was present. A block that empties is
    /// freed.
    pub fn remove(&mut self, id: JobId) -> bool {
        let (b, w, mask) = locate(id);
        let Some(Some(block)) = self.blocks.get_mut(b) else {
            return false;
        };
        let word = &mut block.words[w];
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        if *word == 0 {
            block.summary &= !(1 << w);
            if block.summary == 0 {
                self.blocks[b] = None;
            }
        }
        self.len -= 1;
        true
    }

    /// Members in increasing id order.
    pub fn iter(&self) -> Iter<'_> {
        static NO_WORDS: [u64; WORD_IDS] = [0; WORD_IDS];
        Iter {
            blocks: self.blocks.iter().enumerate(),
            words: &NO_WORDS,
            summary: 0,
            block_base: 0,
            word: 0,
            word_base: 0,
        }
    }
}

impl fmt::Debug for JobSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over a [`JobSet`] in increasing id order.
pub struct Iter<'a> {
    /// Blocks not yet entered, with their index.
    blocks: std::iter::Enumerate<std::slice::Iter<'a, Option<Box<Block>>>>,
    /// Words of the block being drained (all zero before the first).
    words: &'a [u64; WORD_IDS],
    /// Non-empty words of that block not yet entered.
    summary: u64,
    /// First id of that block.
    block_base: usize,
    /// Members of the word being drained not yet yielded.
    word: u64,
    /// First id of that word.
    word_base: usize,
}

impl Iterator for Iter<'_> {
    type Item = JobId;

    fn next(&mut self) -> Option<JobId> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(JobId::new((self.word_base + bit) as u32));
            }
            if self.summary != 0 {
                let w = self.summary.trailing_zeros() as usize;
                self.summary &= self.summary - 1;
                self.word = self.words[w];
                self.word_base = self.block_base + w * WORD_IDS;
                continue;
            }
            let (k, slot) = self.blocks.next()?;
            if let Some(block) = slot {
                self.words = &block.words;
                self.summary = block.summary;
                self.block_base = k * BLOCK_IDS;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Ids straddling word (63/64) and block (4095/4096) boundaries, plus a
    /// few further out so sets span several blocks with gaps between them.
    const EDGES: [u32; 10] = [0, 1, 63, 64, 65, 4095, 4096, 4097, 8191, 3 * 4096 + 5];

    fn check(set: &JobSet, reference: &BTreeSet<JobId>) -> Result<(), TestCaseError> {
        let got: Vec<JobId> = set.iter().collect();
        let want: Vec<JobId> = reference.iter().copied().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(set.len(), reference.len());
        prop_assert_eq!(set.is_empty(), reference.is_empty());
        for &raw in &EDGES {
            let id = JobId::new(raw);
            prop_assert_eq!(set.contains(id), reference.contains(&id));
        }
        for &id in reference {
            prop_assert!(set.contains(id));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert/remove sequences agree with a `BTreeSet` on
        /// iteration order, `len`, `is_empty` and `contains` after every
        /// step; each case also drains the set and refills it.
        #[test]
        fn matches_btreeset_under_random_updates(
            ops in collection::vec((proptest::bool::ANY, 0usize..EDGES.len() + 4, 0u32..20_000), 1..200),
            refill in collection::vec(0u32..20_000, 0..40),
        ) {
            let mut set = JobSet::new();
            let mut reference = BTreeSet::new();
            for (insert, pick, random) in ops {
                // Most picks land on a boundary id, the rest anywhere.
                let id = JobId::new(EDGES.get(pick).copied().unwrap_or(random));
                if insert {
                    prop_assert_eq!(set.insert(id), reference.insert(id));
                } else {
                    prop_assert_eq!(set.remove(id), reference.remove(&id));
                }
                check(&set, &reference)?;
            }
            for id in reference.clone() {
                prop_assert!(set.remove(id));
                reference.remove(&id);
                check(&set, &reference)?;
            }
            prop_assert!(set.blocks.iter().all(Option::is_none));
            for raw in EDGES.iter().copied().chain(refill) {
                let id = JobId::new(raw);
                prop_assert_eq!(set.insert(id), reference.insert(id));
            }
            check(&set, &reference)?;
        }
    }

    #[test]
    fn boundary_ids_iterate_in_order() {
        let mut set = JobSet::new();
        for &raw in EDGES.iter().rev() {
            set.insert(JobId::new(raw));
        }
        let got: Vec<u32> = set.iter().map(JobId::raw).collect();
        assert_eq!(got, EDGES.to_vec());
        let reference: BTreeSet<JobId> = set.iter().collect();
        assert_eq!(format!("{set:?}"), format!("{reference:?}"));
    }
}
