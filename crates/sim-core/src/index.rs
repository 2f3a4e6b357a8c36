//! Incrementally maintained node-set indices.
//!
//! The cluster simulators repeatedly need "all free nodes", "all idle
//! nodes", or their intersection. Scanning `(0..nodes)` with a filter is
//! O(n) per query and dominates the window loop once clusters grow past
//! a few hundred nodes; [`NodeIndex`] replaces those scans with a
//! two-level bitset offering O(1) mark/clear and iteration that skips
//! empty 64-node blocks, while preserving the ascending-id order every
//! naive scan produced — so simulators that switch to it emit
//! byte-identical results.

/// A set of node ids in `0..capacity`, held as a two-level bitset.
///
/// Level 0 is one bit per node; level 1 summarises each 64-bit word so
/// iteration and min/max queries skip empty regions. All mutating
/// operations are O(1); iteration is O(set bits + occupied words) and
/// always yields ids in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeIndex {
    /// Bit `i % 64` of `words[i / 64]` ⇔ node `i` is in the set.
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` ⇔ `words[w] != 0`.
    summary: Vec<u64>,
    len: usize,
    capacity: usize,
}

impl NodeIndex {
    /// An empty index over ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let n_words = capacity.div_ceil(64).max(1);
        let n_summary = n_words.div_ceil(64).max(1);
        NodeIndex {
            words: vec![0; n_words],
            summary: vec![0; n_summary],
            len: 0,
            capacity,
        }
    }

    /// An index over ids `0..capacity` with every id present.
    pub fn full(capacity: usize) -> Self {
        let mut idx = Self::new(capacity);
        idx.fill();
        idx
    }

    /// Number of ids the index can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ids currently present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        debug_assert!(id < self.capacity, "id {id} out of range {}", self.capacity);
        self.words[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Add `id`; returns `true` if it was absent.
    #[inline]
    pub fn insert(&mut self, id: usize) -> bool {
        debug_assert!(id < self.capacity, "id {id} out of range {}", self.capacity);
        let w = id / 64;
        let bit = 1u64 << (id % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w / 64] |= 1u64 << (w % 64);
        self.len += 1;
        true
    }

    /// Remove `id`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: usize) -> bool {
        debug_assert!(id < self.capacity, "id {id} out of range {}", self.capacity);
        let w = id / 64;
        let bit = 1u64 << (id % 64);
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
        self.len -= 1;
        true
    }

    /// Insert or remove `id` according to `present`.
    #[inline]
    pub fn set(&mut self, id: usize, present: bool) {
        if present {
            self.insert(id);
        } else {
            self.remove(id);
        }
    }

    /// Remove every id.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
        self.len = 0;
    }

    /// Add every id in `0..capacity`.
    pub fn fill(&mut self) {
        self.words.fill(!0);
        // Mask the tail word past `capacity`.
        let tail_bits = self.capacity % 64;
        if tail_bits != 0 {
            let last = self.capacity / 64;
            self.words[last] = (1u64 << tail_bits) - 1;
            for w in self.words.iter_mut().skip(last + 1) {
                *w = 0;
            }
        } else {
            for w in self.words.iter_mut().skip(self.capacity / 64) {
                *w = 0;
            }
        }
        self.summary.fill(0);
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                self.summary[w / 64] |= 1u64 << (w % 64);
            }
        }
        self.len = self.capacity;
    }

    /// The smallest id present.
    pub fn first(&self) -> Option<usize> {
        for (s, &sw) in self.summary.iter().enumerate() {
            if sw != 0 {
                let w = s * 64 + sw.trailing_zeros() as usize;
                return Some(w * 64 + self.words[w].trailing_zeros() as usize);
            }
        }
        None
    }

    /// The largest id present.
    pub fn last(&self) -> Option<usize> {
        for (s, &sw) in self.summary.iter().enumerate().rev() {
            if sw != 0 {
                let w = s * 64 + 63 - sw.leading_zeros() as usize;
                return Some(w * 64 + 63 - self.words[w].leading_zeros() as usize);
            }
        }
        None
    }

    /// Iterate the ids in ascending order — the same order a
    /// `(0..n).filter(...)` scan visits them.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            index: self,
            word_pos: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterate ids present in **both** `self` and `other` in ascending
    /// order (e.g. free ∧ idle), without materialising either set.
    ///
    /// # Panics
    /// If the capacities differ.
    pub fn iter_and<'a>(&'a self, other: &'a NodeIndex) -> IterAnd<'a> {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        IterAnd {
            a: self,
            b: other,
            word_pos: 0,
            current: match (self.words.first(), other.words.first()) {
                (Some(&x), Some(&y)) => x & y,
                _ => 0,
            },
        }
    }

    /// The largest id present in **both** `self` and `other` — what
    /// popping the last element of the materialised intersection list
    /// used to return.
    ///
    /// # Panics
    /// If the capacities differ.
    pub fn last_and(&self, other: &NodeIndex) -> Option<usize> {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (s, &sw) in self.summary.iter().enumerate().rev() {
            let mut sw = sw;
            while sw != 0 {
                let w = s * 64 + 63 - sw.leading_zeros() as usize;
                let combined = self.words[w] & other.words[w];
                if combined != 0 {
                    return Some(w * 64 + 63 - combined.leading_zeros() as usize);
                }
                sw &= !(1u64 << (w % 64));
            }
        }
        None
    }

    /// The raw level-0 bitset words. Bit `i % 64` of word `i / 64` is set
    /// iff id `i` is present. Exposed read-only so callers holding a
    /// parallel packed-bit array (e.g. a per-window idle mask) can combine
    /// it with the set without materialising a second [`NodeIndex`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Replace the contents of `self` with `mask ∧ other`, where `mask`
    /// is a packed level-0 bit array over the same id space. Rebuilds the
    /// summary level and length in O(capacity / 64).
    ///
    /// # Panics
    /// If the capacities differ or `mask` is shorter than the word array.
    pub fn assign_and_words(&mut self, mask: &[u64], other: &NodeIndex) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        assert!(mask.len() >= self.words.len(), "mask too short");
        self.summary.fill(0);
        let mut len = 0usize;
        for (w, word) in self.words.iter_mut().enumerate() {
            let combined = mask[w] & other.words[w];
            *word = combined;
            if combined != 0 {
                self.summary[w / 64] |= 1u64 << (w % 64);
                len += combined.count_ones() as usize;
            }
        }
        self.len = len;
    }
}

/// Ascending iterator over a [`NodeIndex`].
pub struct Iter<'a> {
    index: &'a NodeIndex,
    word_pos: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_pos * 64 + bit);
            }
            // Skip ahead using the summary level.
            let next_word =
                next_occupied_word(&self.index.summary, &self.index.words, self.word_pos + 1)?;
            self.word_pos = next_word;
            self.current = self.index.words[next_word];
        }
    }
}

/// Ascending iterator over the intersection of two [`NodeIndex`]es.
pub struct IterAnd<'a> {
    a: &'a NodeIndex,
    b: &'a NodeIndex,
    word_pos: usize,
    current: u64,
}

impl Iterator for IterAnd<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_pos * 64 + bit);
            }
            let mut w = self.word_pos + 1;
            loop {
                // The sparser side's summary bounds the search.
                let wa = next_occupied_word(&self.a.summary, &self.a.words, w)?;
                if wa >= self.a.words.len() {
                    return None;
                }
                let combined = self.a.words[wa] & self.b.words[wa];
                if combined != 0 {
                    self.word_pos = wa;
                    self.current = combined;
                    break;
                }
                w = wa + 1;
            }
        }
    }
}

/// The first word index ≥ `from` whose bitset word is non-zero, found via
/// the summary level.
#[inline]
fn next_occupied_word(summary: &[u64], words: &[u64], from: usize) -> Option<usize> {
    if from >= words.len() {
        return None;
    }
    let mut s = from / 64;
    // Mask off summary bits below `from` in the first summary word.
    let mut sw = summary[s] & (!0u64 << (from % 64));
    loop {
        if sw != 0 {
            return Some(s * 64 + sw.trailing_zeros() as usize);
        }
        s += 1;
        if s >= summary.len() {
            return None;
        }
        sw = summary[s];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut idx = NodeIndex::new(200);
        assert!(idx.insert(0));
        assert!(idx.insert(63));
        assert!(idx.insert(64));
        assert!(idx.insert(199));
        assert!(!idx.insert(64), "double insert reports absent");
        assert_eq!(idx.len(), 4);
        assert!(idx.contains(63) && idx.contains(64));
        assert!(!idx.contains(1));
        assert!(idx.remove(63));
        assert!(!idx.remove(63));
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let ids = [0usize, 1, 63, 64, 65, 127, 128, 500, 4095];
        let mut idx = NodeIndex::new(4096);
        for &i in ids.iter().rev() {
            idx.insert(i);
        }
        let got: Vec<usize> = idx.iter().collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn matches_naive_scan_order() {
        let mut idx = NodeIndex::new(300);
        let mut naive = vec![false; 300];
        for i in (0..300).step_by(7) {
            idx.insert(i);
            naive[i] = true;
        }
        idx.remove(14);
        naive[14] = false;
        let scan: Vec<usize> = (0..300).filter(|&i| naive[i]).collect();
        assert_eq!(idx.iter().collect::<Vec<_>>(), scan);
        assert_eq!(idx.len(), scan.len());
    }

    #[test]
    fn full_and_clear() {
        for cap in [0usize, 1, 63, 64, 65, 130, 4096] {
            let mut idx = NodeIndex::full(cap);
            assert_eq!(idx.len(), cap);
            assert_eq!(idx.iter().collect::<Vec<_>>(), (0..cap).collect::<Vec<_>>());
            idx.clear();
            assert!(idx.is_empty());
            assert_eq!(idx.iter().next(), None);
        }
    }

    #[test]
    fn first_last() {
        let mut idx = NodeIndex::new(1000);
        assert_eq!(idx.first(), None);
        assert_eq!(idx.last(), None);
        idx.insert(900);
        idx.insert(3);
        idx.insert(64);
        assert_eq!(idx.first(), Some(3));
        assert_eq!(idx.last(), Some(900));
    }

    #[test]
    fn intersection_matches_naive() {
        let mut a = NodeIndex::new(520);
        let mut b = NodeIndex::new(520);
        for i in (0..520).step_by(3) {
            a.insert(i);
        }
        for i in (0..520).step_by(5) {
            b.insert(i);
        }
        let naive: Vec<usize> = (0..520).filter(|i| i % 15 == 0).collect();
        assert_eq!(a.iter_and(&b).collect::<Vec<_>>(), naive);
        assert_eq!(a.last_and(&b), naive.last().copied());
        let empty = NodeIndex::new(520);
        assert_eq!(a.last_and(&empty), None);
    }

    #[test]
    fn assign_and_words_matches_manual_intersection() {
        let mut free = NodeIndex::new(520);
        for i in (0..520).step_by(3) {
            free.insert(i);
        }
        let mut idle_words = vec![0u64; 520usize.div_ceil(64)];
        for i in (0..520).step_by(5) {
            idle_words[i / 64] |= 1u64 << (i % 64);
        }
        let mut out = NodeIndex::new(520);
        out.insert(7); // stale content must be discarded
        out.assign_and_words(&idle_words, &free);
        let naive: Vec<usize> = (0..520).filter(|i| i % 15 == 0).collect();
        assert_eq!(out.iter().collect::<Vec<_>>(), naive);
        assert_eq!(out.len(), naive.len());
        assert_eq!(out.first(), naive.first().copied());
        assert_eq!(out.last(), naive.last().copied());
    }

    #[test]
    fn set_tracks_bool() {
        let mut idx = NodeIndex::new(10);
        idx.set(4, true);
        assert!(idx.contains(4));
        idx.set(4, false);
        assert!(!idx.contains(4));
        idx.set(4, false); // idempotent
        assert_eq!(idx.len(), 0);
    }
}
