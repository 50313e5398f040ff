//! Access control entries.
//!
//! Portals 3.3 guards each portal table entry with an access control
//! table: an incoming request names an AC index, and the entry at that
//! index must both permit the initiating process and point at (or
//! wildcard) the portal index being addressed.

use crate::types::ProcessId;

/// Wildcard portal index in an AC entry.
pub const PT_INDEX_ANY: u32 = u32::MAX;

/// One access control entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcEntry {
    /// Which initiators are allowed (wildcards permitted).
    pub allowed: ProcessId,
    /// Which portal index this entry opens (`PT_INDEX_ANY` for all).
    pub pt_index: u32,
}

impl AcEntry {
    /// An entry allowing any initiator on any portal index — the default
    /// installed at AC index 0 by `PtlNIInit`, matching the reference
    /// implementation's permissive bootstrap.
    pub fn open() -> Self {
        AcEntry {
            allowed: ProcessId::any(),
            pt_index: PT_INDEX_ANY,
        }
    }

    /// Does this entry admit `src` to `pt_index`?
    pub fn permits(&self, src: ProcessId, pt_index: u32) -> bool {
        self.allowed.accepts(src) && (self.pt_index == PT_INDEX_ANY || self.pt_index == pt_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_entry_permits_everything() {
        let e = AcEntry::open();
        assert!(e.permits(ProcessId::new(9, 9), 42));
    }

    #[test]
    fn source_restriction() {
        let e = AcEntry {
            allowed: ProcessId::new(3, crate::types::PID_ANY),
            pt_index: PT_INDEX_ANY,
        };
        assert!(e.permits(ProcessId::new(3, 0), 1));
        assert!(!e.permits(ProcessId::new(4, 0), 1));
    }

    #[test]
    fn portal_restriction() {
        let e = AcEntry {
            allowed: ProcessId::any(),
            pt_index: 5,
        };
        assert!(e.permits(ProcessId::new(1, 1), 5));
        assert!(!e.permits(ProcessId::new(1, 1), 6));
    }
}
