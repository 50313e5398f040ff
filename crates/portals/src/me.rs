//! Match entries and per-portal match lists.
//!
//! A match entry carries the `(match_id, match_bits, ignore_bits)` triple
//! the receiver compares against incoming headers (paper §3): a header
//! matches when its source passes the (possibly wildcarded) `match_id`
//! and `(header.match_bits ^ me.match_bits) & !me.ignore_bits == 0`.
//! Entries form an ordered list per portal table entry; matching walks the
//! list front to back.

use crate::types::{MatchBits, MdHandle, MeHandle, ProcessId};
use serde::{Deserialize, Serialize};

/// What happens to a matched ME when its MD's threshold exhausts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnlinkOp {
    /// Unlink the ME (and its MD) automatically (`PTL_UNLINK`).
    Unlink,
    /// Keep the ME in the list (`PTL_RETAIN`).
    Retain,
}

/// Where to insert a new ME relative to an existing one
/// (`PtlMEInsert`/`PtlMEAttach` position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertPos {
    /// Before the reference entry / at the list head.
    Before,
    /// After the reference entry / at the list tail.
    After,
}

/// A match entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Me {
    /// Which initiators may match (wildcards allowed).
    pub match_id: ProcessId,
    /// Match bits compared against the header.
    pub match_bits: MatchBits,
    /// Bit positions excluded from the comparison.
    pub ignore_bits: MatchBits,
    /// Auto-unlink behaviour.
    pub unlink: UnlinkOp,
    /// The attached MD, if any (an ME without an MD never matches).
    pub md: Option<MdHandle>,
}

impl Me {
    /// Does this entry match a header from `src` with `bits`?
    pub fn matches(&self, src: ProcessId, bits: MatchBits) -> bool {
        self.match_id.accepts(src) && (bits ^ self.match_bits) & !self.ignore_bits == 0
    }
}

/// The ordered ME list of one portal table entry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeList {
    entries: Vec<MeHandle>,
}

impl MeList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append at the tail (the common `PtlMEAttach` with
    /// `PTL_INS_AFTER`).
    pub fn push_tail(&mut self, h: MeHandle) {
        self.entries.push(h);
    }

    /// Insert at the head (`PTL_INS_BEFORE` on the first entry).
    pub fn push_head(&mut self, h: MeHandle) {
        self.entries.insert(0, h);
    }

    /// Insert relative to an existing entry. Returns `false` when the
    /// reference entry is not in this list.
    pub fn insert_relative(&mut self, reference: MeHandle, pos: InsertPos, h: MeHandle) -> bool {
        match self.entries.iter().position(|&e| e == reference) {
            Some(i) => {
                let at = match pos {
                    InsertPos::Before => i,
                    InsertPos::After => i + 1,
                };
                self.entries.insert(at, h);
                true
            }
            None => false,
        }
    }

    /// Remove an entry. Returns `false` when absent.
    pub fn remove(&mut self, h: MeHandle) -> bool {
        match self.entries.iter().position(|&e| e == h) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// The entry at walk position `i`.
    pub fn get(&self, i: usize) -> Option<MeHandle> {
        self.entries.get(i).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me(bits: MatchBits, ignore: MatchBits) -> Me {
        Me {
            match_id: ProcessId::any(),
            match_bits: bits,
            ignore_bits: ignore,
            unlink: UnlinkOp::Retain,
            md: None,
        }
    }

    fn h(i: u32) -> MeHandle {
        MeHandle {
            index: i,
            generation: 0,
        }
    }

    #[test]
    fn exact_match_bits() {
        let e = me(0xDEAD_BEEF, 0);
        let src = ProcessId::new(1, 1);
        assert!(e.matches(src, 0xDEAD_BEEF));
        assert!(!e.matches(src, 0xDEAD_BEEE));
    }

    #[test]
    fn ignore_bits_mask_comparison() {
        // Low 16 bits ignored.
        let e = me(0x1234_0000, 0xFFFF);
        let src = ProcessId::new(1, 1);
        assert!(e.matches(src, 0x1234_0000));
        assert!(e.matches(src, 0x1234_FFFF));
        assert!(e.matches(src, 0x1234_ABCD));
        assert!(!e.matches(src, 0x1235_0000));
    }

    #[test]
    fn source_criterion_applies() {
        let e = Me {
            match_id: ProcessId::new(7, crate::types::PID_ANY),
            ..me(0, 0)
        };
        assert!(e.matches(ProcessId::new(7, 3), 0));
        assert!(!e.matches(ProcessId::new(8, 3), 0));
    }

    #[test]
    fn fully_ignored_bits_match_anything() {
        let e = me(0, u64::MAX);
        assert!(e.matches(ProcessId::new(1, 1), 0x1234_5678_9ABC_DEF0));
    }

    #[test]
    fn list_ordering_operations() {
        let mut l = MeList::new();
        l.push_tail(h(1));
        l.push_tail(h(2));
        l.push_head(h(0));
        let order = |l: &MeList| -> Vec<u32> {
            (0..l.len())
                .filter_map(|i| l.get(i))
                .map(|e| e.index)
                .collect()
        };
        assert_eq!(order(&l), vec![0, 1, 2]);

        assert!(l.insert_relative(h(1), InsertPos::Before, h(10)));
        assert!(l.insert_relative(h(1), InsertPos::After, h(11)));
        assert_eq!(order(&l), vec![0, 10, 1, 11, 2]);
        assert!(!l.insert_relative(h(99), InsertPos::Before, h(12)));

        assert!(l.remove(h(10)));
        assert!(!l.remove(h(10)));
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
    }
}
