//! Signal interning: dense integer IDs for the flat signal namespace.
//!
//! Elaboration produces a fixed set of flat signal names; everything that
//! runs per simulation event (expression evaluation, state reads/writes,
//! dirty-set scheduling) wants an array index, not a string lookup. The
//! [`SignalTable`] assigns each signal a [`SigId`] at resolve time; the
//! simulator stores values in a `Vec` indexed by it and pre-resolves every
//! name in the design to an ID once, at compile time.

/// A dense signal identifier, valid only within the [`SignalTable`] (and
/// hence the [`Design`](crate::Design)) that produced it.
///
/// IDs are assigned in sorted-name order, so they are deterministic for a
/// given design and stable across re-elaborations of identical source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigId(u32);

impl SigId {
    /// The array index this ID denotes.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an ID from a raw index (for iteration helpers).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        SigId(i as u32)
    }
}

/// Bidirectional name ⇄ [`SigId`] mapping for one design: the names in
/// sorted order, packed into one buffer, so an ID is a name's position
/// and a lookup is a binary search. Each name is stored once.
#[derive(Debug, Clone, Default)]
pub struct SignalTable {
    /// Every name, concatenated in ID order.
    text: String,
    /// Per ID: the byte offset one past its name in `text`.
    ends: Vec<usize>,
}

impl SignalTable {
    /// Builds a table over `names`, assigning IDs in iteration order.
    ///
    /// # Panics
    ///
    /// Panics unless `names` is sorted and free of duplicates (lookups
    /// binary-search it), or if it holds 2^32 names or more.
    pub fn new<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut table = SignalTable::default();
        for name in names {
            if let Some(last) = table.ends.len().checked_sub(1) {
                assert!(
                    table.name_at(last) < name,
                    "signal names must be sorted and unique"
                );
            }
            table.text.push_str(name);
            table.ends.push(table.text.len());
        }
        // A design with 2^32 signals is beyond anything the elaborator can
        // produce (MAX_WIDTH/MAX_MEM_DEPTH bound state far earlier).
        assert!(u32::try_from(table.ends.len()).is_ok(), "too many signals");
        table
    }

    /// The name with index `i`.
    #[inline]
    fn name_at(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Looks up a name's ID.
    #[inline]
    pub fn id(&self, name: &str) -> Option<SigId> {
        let (mut lo, mut hi) = (0, self.ends.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.name_at(mid).cmp(name) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(SigId(mid as u32)),
            }
        }
        None
    }

    /// The name behind an ID.
    #[inline]
    pub fn name(&self, id: SigId) -> &str {
        self.name_at(id.index())
    }

    /// Number of interned signals.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no signals are interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates `(id, name)` pairs in ID order.
    pub fn iter(&self) -> impl Iterator<Item = (SigId, &str)> {
        (0..self.len()).map(|i| (SigId(i as u32), self.name_at(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_bijective() {
        let t = SignalTable::new(["a", "b", "c__x"]);
        assert_eq!(t.id("a"), Some(SigId(0)));
        assert_eq!(t.id("b"), Some(SigId(1)));
        assert_eq!(t.id("c__x"), Some(SigId(2)));
        assert_eq!(t.len(), 3);
        assert_eq!(t.name(SigId(1)), "b");
        for missing in ["", "0", "aa", "c", "c__y", "d"] {
            assert_eq!(t.id(missing), None, "{missing}");
        }
        let pairs: Vec<_> = t.iter().map(|(i, n)| (i.index(), n.to_owned())).collect();
        assert_eq!(
            pairs,
            vec![(0, "a".to_string()), (1, "b".to_string()), (2, "c__x".to_string())]
        );
        assert_eq!(SignalTable::new([]).id("a"), None);
        assert_eq!(SignalTable::new(["", "a"]).id(""), Some(SigId(0)));
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_names_are_refused() {
        let _ = SignalTable::new(["b", "a"]);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn duplicate_names_are_refused() {
        let _ = SignalTable::new(["a", "a"]);
    }
}
