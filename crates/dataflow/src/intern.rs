//! Signal interning: dense integer IDs for the flat signal namespace.
//!
//! Elaboration produces a fixed set of flat signal names; everything that
//! runs per simulation event (expression evaluation, state reads/writes,
//! dirty-set scheduling) wants an array index, not a string lookup. The
//! [`SignalTable`] assigns each signal a [`SigId`] at resolve time; the
//! simulator stores values in a `Vec` indexed by it and pre-resolves every
//! name in the design to an ID once, at compile time.

use std::hash::{BuildHasher, RandomState};

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
/// sorted order, packed into one buffer, so an ID is a name's position,
/// and a hashed index of the IDs, so a lookup is one hash and (usually)
/// one string compare. Each name is stored once.
#[derive(Debug, Clone)]
pub struct SignalTable {
    /// Every name, concatenated in ID order.
    text: String,
    /// Per ID: the byte offset one past its name in `text`.
    ends: Vec<usize>,
    /// Open-addressed, linearly probed index: each slot holds an ID + 1,
    /// or 0 when empty. Its length is a power of two and at least twice
    /// the number of names, so probe chains stay short.
    slots: Box<[u32]>,
    /// Keyed per table, so crafted names cannot force long probe chains.
    /// Nothing is ever iterated in hash order.
    hasher: RandomState,
}

impl Default for SignalTable {
    fn default() -> Self {
        SignalTable::new([])
    }
}

impl SignalTable {
    /// Builds a table over `names`, assigning IDs in iteration order.
    ///
    /// # Panics
    ///
    /// Panics unless `names` is sorted and free of duplicates (IDs follow
    /// name order), or if it holds 2^32 - 1 names or more.
    pub fn new<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut table = SignalTable {
            text: String::new(),
            ends: Vec::new(),
            slots: Box::default(),
            hasher: RandomState::new(),
        };
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
        // produce (MAX_WIDTH/MAX_MEM_DEPTH bound state far earlier); the
        // index reserves 0 for an empty slot.
        assert!(u32::try_from(table.ends.len() + 1).is_ok(), "too many signals");
        let mut slots = vec![0u32; (2 * table.len()).next_power_of_two()];
        let mask = slots.len() - 1;
        for (id, name) in table.iter() {
            let mut slot = table.hash(name) & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id.0 + 1;
        }
        table.slots = slots.into_boxed_slice();
        table
    }

    /// The name with index `i`.
    #[inline]
    fn name_at(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// The index slot a name's probe starts at, before masking.
    #[inline]
    fn hash(&self, name: &str) -> usize {
        self.hasher.hash_one(name) as usize
    }

    /// Looks up a name's ID.
    #[inline]
    pub fn id(&self, name: &str) -> Option<SigId> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hash(name) & mask;
        loop {
            let entry = self.slots[slot];
            if entry == 0 {
                return None;
            }
            let i = (entry - 1) as usize;
            if self.name_at(i) == name {
                return Some(SigId(i as u32));
            }
            slot = (slot + 1) & mask;
        }
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
    use hwdbg_bits::SplitMix64;

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

    /// A name in the flat namespace's shape: `tNNN__` tile prefixes that
    /// many names share, then a short leaf.
    fn flat_name(rng: &mut SplitMix64) -> String {
        const LEAVES: [&str; 6] = ["q", "state", "rd_ptr", "wr_ptr", "count", "data_out"];
        let mut name = String::new();
        for _ in 0..rng.below(3) {
            name.push_str(&format!("t{:03}__", rng.below(40)));
        }
        name.push_str(LEAVES[rng.below(LEAVES.len() as u64) as usize]);
        if rng.next_bool() {
            name.push_str(&rng.below(8).to_string());
        }
        name
    }

    #[test]
    fn lookups_agree_with_a_linear_scan() {
        let mut rng = SplitMix64::new(0x1D5_7AB1E);
        for round in 0..24 {
            let size = [0, 1, 2, 7, 64, 500][round % 6];
            let mut names: Vec<String> = (0..size).map(|_| flat_name(&mut rng)).collect();
            if round % 4 == 1 {
                names.push(String::new());
            }
            names.sort_unstable();
            names.dedup();
            let t = SignalTable::new(names.iter().map(String::as_str));
            assert_eq!(t.len(), names.len());
            let scan = |probe: &str| names.iter().position(|n| n == probe).map(SigId::from_index);
            let mut probes: Vec<String> = names.clone();
            probes.extend((0..200).map(|_| flat_name(&mut rng)));
            probes.extend(names.iter().map(|n| format!("{n}_")));
            probes.extend(names.iter().filter_map(|n| Some(n[..n.len().checked_sub(1)?].to_owned())));
            probes.push(String::new());
            for probe in &probes {
                assert_eq!(t.id(probe), scan(probe), "round {round}: {probe:?}");
            }
            for (id, name) in t.iter() {
                assert_eq!(t.id(name), Some(id));
            }
        }
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
