//! Source structures and the active-source index.
//!
//! Paper §4.2: "each node that the firmware is sending a message to or
//! receiving a message from has a source structure allocated to it. There
//! is one pool of source structures for the entire firmware" — 1,024 of
//! them, 32 bytes each (Figure 3), found through "a hash table of active
//! sources" (§4.3). Each source carries the RX pending list that orders
//! deposits from that peer: a head and a tail link, with the pendings
//! between them threaded through their own
//! [`LowerPending::next`](crate::pending::LowerPending::next), so a
//! source is its 16 bytes and nothing on the heap.
//!
//! The real firmware pre-allocates that hash table in SRAM. The simulator
//! hosts 10,368 firmwares, most of which talk to a handful of peers, so
//! here the hash table is one open-addressed array of `(node id, source
//! id)` pairs that is empty until the first contact and doubles when more
//! than half full: a lookup hashes the node id (Fibonacci hash, top bits)
//! and probes linearly, comparing node ids in the array itself without
//! touching the pool. The SRAM ledger still charges the paper's
//! `1,024 × 32 B`; only the host representation is demand-sized.
//!
//! A peer keeps its structure while the pool has room. When the pool runs
//! dry, the firmware reclaims an idle one ([`SourceTable::release_idle`]:
//! the lowest-numbered source with an empty RX list that no lower pending
//! in use names), so a node can serve more peers over a run than it has
//! sources — one at a time past the pool, as §4.2's "has a source
//! structure allocated to it" allows. [`SourceTable::release`] closes the
//! gap a released source leaves by shifting later entries of the probe
//! run back, so the index never holds tombstones.
#![deny(clippy::cast_possible_truncation)]

use crate::pending::RxLink;
use crate::pool::Pool;

/// Number of global source structures (paper §4.2).
pub const NUM_SOURCES: u32 = 1024;
/// Size of one source structure (Figure 3).
pub const SOURCE_BYTES: u32 = 32;
/// Index length at first contact (one 64-byte cache line of slots).
const MIN_INDEX_LEN: usize = 8;

/// Index of a source structure in the global pool.
pub type SourceId = u32;

/// One source structure.
#[derive(Debug, Clone, Default)]
pub struct Source {
    /// Peer node id.
    pub node_id: u32,
    /// First of the RX pendings queued for deposit from this peer, in
    /// arrival order ([`RxLink::END`]: none). The firmware's RX handlers
    /// keep the list.
    pub(crate) rx_head: RxLink,
    /// Last of them.
    pub(crate) rx_tail: RxLink,
    /// Allocated (between [`SourceTable::find_or_alloc`] and
    /// [`SourceTable::release`]); a released slot keeps its last node id.
    active: bool,
}

/// One slot of the active-source index: a node id and its source.
type Slot = (u32, SourceId);

/// The id no source has: the pool's ids are below its `u32` capacity.
const NO_ID: SourceId = SourceId::MAX;
/// An empty slot.
const VACANT: Slot = (0, NO_ID);

/// The global source pool plus the index of its active sources.
#[derive(Debug, Clone)]
pub struct SourceTable {
    pool: Pool<Source>,
    /// Open-addressed, linearly probed; empty or a power of two long, and
    /// never more than half full, so every probe run ends at a vacant
    /// slot.
    index: Vec<Slot>,
}

impl Default for SourceTable {
    fn default() -> Self {
        Self::new(NUM_SOURCES)
    }
}

impl SourceTable {
    /// A table of at most `capacity` sources; the index starts empty.
    pub fn new(capacity: u32) -> Self {
        SourceTable {
            pool: Pool::new(capacity),
            index: Vec::new(),
        }
    }

    /// Where `node_id`'s probe run starts: the top bits of its Fibonacci
    /// hash (index length >= 2, so the shift is below 32).
    fn home(&self, node_id: u32) -> usize {
        (node_id.wrapping_mul(0x9E37_79B9) >> (32 - self.index.len().trailing_zeros())) as usize
    }

    /// The first slot of `node_id`'s probe run that is its own or vacant:
    /// its position and the source id it holds. `None` only while the
    /// index is empty.
    fn probe(&self, node_id: u32) -> Option<(usize, SourceId)> {
        let mask = self.index.len().checked_sub(1)?;
        let mut pos = self.home(node_id);
        loop {
            let (node, id) = *self.index.get(pos)?;
            if id == NO_ID || node == node_id {
                return Some((pos, id));
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Enter a node the index does not hold.
    fn place(&mut self, node_id: u32, id: SourceId) {
        let vacant = self.probe(node_id).map(|(pos, _)| pos);
        if let Some(slot) = vacant.and_then(|pos| self.index.get_mut(pos)) {
            *slot = (node_id, id);
        }
    }

    /// Double the index (from nothing: [`MIN_INDEX_LEN`]) and re-enter
    /// every active source.
    fn grow(&mut self) {
        let len = (self.index.len() * 2).max(MIN_INDEX_LEN);
        let old = std::mem::replace(&mut self.index, vec![VACANT; len]);
        for (node_id, id) in old.into_iter().filter(|&slot| slot != VACANT) {
            self.place(node_id, id);
        }
    }

    /// Find the active source for `node_id`.
    pub fn find(&self, node_id: u32) -> Option<SourceId> {
        self.probe(node_id)
            .map(|(_, id)| id)
            .filter(|&id| id != NO_ID)
    }

    /// Mutably borrow source `id` if it is the active source of
    /// `node_id` — the O(1) path for a caller that kept the id
    /// [`Self::find_or_alloc`] gave it. `None` for a foreign id and for a
    /// source since released or reused for another node.
    pub fn get_mut_for(&mut self, id: SourceId, node_id: u32) -> Option<&mut Source> {
        self.pool
            .get_mut(id)
            .filter(|s| s.active && s.node_id == node_id)
    }

    /// Find or allocate the source for `node_id`. `None` on pool
    /// exhaustion (a resource-exhaustion condition, §4.3), which leaves
    /// the index as it was.
    pub fn find_or_alloc(&mut self, node_id: u32) -> Option<SourceId> {
        if let Some(id) = self.find(node_id) {
            return Some(id);
        }
        let id = self.pool.alloc()?;
        let src = self.pool.get_mut(id)?;
        *src = Source {
            node_id,
            active: true,
            ..Source::default()
        };
        if self.pool.in_use() as usize * 2 > self.index.len() {
            self.grow();
        }
        self.place(node_id, id);
        Some(id)
    }

    /// Release a source back to the pool (when its pending list drains and
    /// the firmware decides to reclaim it). A foreign id is ignored.
    pub fn release(&mut self, id: SourceId) {
        let Some(src) = self.pool.get_mut(id) else {
            debug_assert!(false, "releasing foreign source id {id}");
            return;
        };
        let node_id = src.node_id;
        debug_assert_eq!(
            src.rx_head,
            RxLink::END,
            "releasing source with queued pendings"
        );
        src.active = false;
        if let Some((pos, _)) = self.probe(node_id).filter(|&(_, held)| held == id) {
            self.vacate(pos);
        }
        self.pool.free(id);
    }

    /// Release the lowest-numbered active source whose RX list is empty
    /// and whose id `named` does not mark (the caller marks every source
    /// a pending in flight still names), and return it; `None` when every
    /// source is busy.
    pub fn release_idle(&mut self, named: &[bool]) -> Option<SourceId> {
        let idle = (0..self.pool.materialized()).find(|&id| {
            let src = self.pool.get(id);
            let free = src.is_some_and(|s| s.active && s.rx_head == RxLink::END);
            free && !named.get(id as usize).copied().unwrap_or(false)
        })?;
        self.release(idle);
        Some(idle)
    }

    /// Empty slot `hole` and close the gap: each later entry of the same
    /// probe run moves back into the hole unless that would put it before
    /// its home, so no lookup ever has to step over a deleted slot.
    fn vacate(&mut self, mut hole: usize) {
        let mask = self.index.len().wrapping_sub(1);
        if let Some(slot) = self.index.get_mut(hole) {
            *slot = VACANT;
        }
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let Some(&(node_id, _)) = self.index.get(pos).filter(|&&slot| slot != VACANT) else {
                return;
            };
            // Cyclic distances back from `pos`: movable iff the hole is no
            // further back than the entry's home.
            let from_home = pos.wrapping_sub(self.home(node_id)) & mask;
            if from_home >= (pos.wrapping_sub(hole) & mask) {
                self.index.swap(hole, pos);
                hole = pos;
            }
        }
    }

    /// Borrow a source; `None` for an id the pool never issued.
    pub fn get(&self, id: SourceId) -> Option<&Source> {
        self.pool.get(id)
    }

    /// Sources currently active.
    pub fn in_use(&self) -> u32 {
        self.pool.in_use()
    }

    /// Peak simultaneous active sources.
    pub fn high_water(&self) -> u32 {
        self.pool.high_water()
    }

    /// Failed allocations (exhaustion events).
    pub fn alloc_failures(&self) -> u64 {
        self.pool.alloc_failures()
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u32 {
        self.pool.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_or_alloc_is_idempotent_per_node() {
        let mut t = SourceTable::new(16);
        let a = t.find_or_alloc(100).unwrap();
        let b = t.find_or_alloc(100).unwrap();
        assert_eq!(a, b);
        let c = t.find_or_alloc(200).unwrap();
        assert_ne!(a, c);
        assert_eq!(t.in_use(), 2);
    }

    #[test]
    fn find_without_alloc() {
        let mut t = SourceTable::new(16);
        assert_eq!(t.find(5), None);
        let id = t.find_or_alloc(5).unwrap();
        assert_eq!(t.find(5), Some(id));
    }

    #[test]
    fn release_makes_source_reallocatable() {
        let mut t = SourceTable::new(2);
        let a = t.find_or_alloc(1).unwrap();
        t.find_or_alloc(2).unwrap();
        assert_eq!(t.find_or_alloc(3), None, "pool exhausted");
        t.release(a);
        assert_eq!(t.find(1), None);
        assert!(t.find_or_alloc(3).is_some());
    }

    #[test]
    fn kept_id_resolves_only_while_it_is_that_nodes_source() {
        let mut t = SourceTable::new(2);
        let a = t.find_or_alloc(1).unwrap();
        assert!(t.get_mut_for(a, 1).is_some());
        assert!(t.get_mut_for(a, 2).is_none(), "another node's id");
        assert!(t.get_mut_for(7, 1).is_none(), "foreign id");
        t.release(a);
        assert!(t.get_mut_for(a, 1).is_none(), "released");
        assert_eq!(t.find_or_alloc(3), Some(a), "slot reused");
        assert!(t.get_mut_for(a, 1).is_none(), "reused for another node");
        assert!(t.get_mut_for(a, 3).is_some());
    }

    #[test]
    fn hash_collisions_resolved_by_probing() {
        // Node ids 7919 apart over a 2,048-slot index: shared home slots
        // and overlapping probe runs are certain.
        let mut t = SourceTable::new(600);
        for node in 0..600u32 {
            assert!(t.find_or_alloc(node * 7919).is_some());
        }
        for node in 0..600u32 {
            let id = t.find(node * 7919).expect("must find after alloc");
            assert_eq!(t.get(id).unwrap().node_id, node * 7919);
        }
        assert_eq!(t.high_water(), 600);
    }

    #[test]
    fn index_is_empty_until_first_contact() {
        let mut t = SourceTable::default();
        assert_eq!(t.index.capacity(), 0);
        assert_eq!(t.find(3), None);
        t.find_or_alloc(3).unwrap();
        assert_eq!(t.index.len(), MIN_INDEX_LEN);
    }

    #[test]
    fn paper_capacity_default() {
        let t = SourceTable::default();
        assert_eq!(t.capacity(), 1024);
    }

    #[test]
    fn a_source_handed_out_again_starts_with_an_empty_rx_list() {
        let mut t = SourceTable::new(1);
        let a = t.find_or_alloc(1).unwrap();
        // A tail left behind would queue the next peer's first deposit
        // behind a pending of this one's.
        t.get_mut_for(a, 1).unwrap().rx_tail = RxLink::new(0, 3).unwrap();
        t.release(a);
        assert_eq!(t.find_or_alloc(2), Some(a), "slot reused");
        let src = t.get(a).unwrap();
        assert_eq!((src.rx_head, src.rx_tail), (RxLink::END, RxLink::END));
    }
}
