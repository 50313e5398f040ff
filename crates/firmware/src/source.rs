//! Source structures and the source hash table.
//!
//! Paper §4.2: "each node that the firmware is sending a message to or
//! receiving a message from has a source structure allocated to it. There
//! is one pool of source structures for the entire firmware" — 1,024 of
//! them, 32 bytes each (Figure 3), found through "a hash table of active
//! sources" (§4.3). Each source carries the RX pending list that orders
//! deposits from that peer.

use crate::pending::PendingId;
use crate::pool::Pool;
use std::collections::VecDeque;

/// Number of global source structures (paper §4.2).
pub const NUM_SOURCES: u32 = 1024;
/// Size of one source structure (Figure 3).
pub const SOURCE_BYTES: u32 = 32;
/// Buckets in the active-source hash table.
const HASH_BUCKETS: usize = 256;

/// Index of a source structure in the global pool.
pub type SourceId = u32;

/// One source structure.
#[derive(Debug, Clone, Default)]
pub struct Source {
    /// Peer node id.
    pub node_id: u32,
    /// Allocated (between [`SourceTable::find_or_alloc`] and
    /// [`SourceTable::release`]); a released slot keeps its last node id.
    active: bool,
    /// RX pendings queued for deposit from this peer, in arrival order.
    pub rx_pending_list: VecDeque<PendingId>,
}

/// The global source pool plus its hash table.
#[derive(Debug, Clone)]
pub struct SourceTable {
    pool: Pool<Source>,
    /// `buckets[h]` = source ids whose node hashes to `h`.
    buckets: Vec<Vec<SourceId>>,
}

impl Default for SourceTable {
    fn default() -> Self {
        Self::new(NUM_SOURCES)
    }
}

impl SourceTable {
    /// A table with `capacity` pre-allocated sources.
    pub fn new(capacity: u32) -> Self {
        SourceTable {
            pool: Pool::new(capacity),
            buckets: vec![Vec::new(); HASH_BUCKETS],
        }
    }

    fn bucket(node_id: u32) -> usize {
        // Fibonacci hash of the node id.
        (node_id.wrapping_mul(0x9E37_79B9) >> 24) as usize % HASH_BUCKETS
    }

    /// Find the active source for `node_id`.
    pub fn find(&self, node_id: u32) -> Option<SourceId> {
        self.buckets
            .get(Self::bucket(node_id))?
            .iter()
            .copied()
            .find(|&id| self.pool.get(id).is_some_and(|s| s.node_id == node_id))
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
    /// exhaustion (a resource-exhaustion condition, §4.3).
    pub fn find_or_alloc(&mut self, node_id: u32) -> Option<SourceId> {
        if let Some(id) = self.find(node_id) {
            return Some(id);
        }
        let id = self.pool.alloc()?;
        let src = self.pool.get_mut(id)?;
        src.node_id = node_id;
        src.active = true;
        src.rx_pending_list.clear();
        self.buckets.get_mut(Self::bucket(node_id))?.push(id);
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
        debug_assert!(
            src.rx_pending_list.is_empty(),
            "releasing source with queued pendings"
        );
        src.active = false;
        if let Some(bucket) = self.buckets.get_mut(Self::bucket(node_id)) {
            if let Some(pos) = bucket.iter().position(|&s| s == id) {
                bucket.swap_remove(pos);
            }
        }
        self.pool.free(id);
    }

    /// Borrow a source; `None` for an id the pool never issued.
    pub fn get(&self, id: SourceId) -> Option<&Source> {
        self.pool.get(id)
    }

    /// Mutably borrow a source; `None` for a foreign id.
    pub fn get_mut(&mut self, id: SourceId) -> Option<&mut Source> {
        self.pool.get_mut(id)
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
    fn hash_collisions_resolved_by_chaining() {
        // Many nodes, small pool of buckets: collisions certain.
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
    fn rx_pending_list_per_source() {
        let mut t = SourceTable::new(4);
        let id = t.find_or_alloc(9).unwrap();
        t.get_mut(id).unwrap().rx_pending_list.push_back(11);
        t.get_mut(id).unwrap().rx_pending_list.push_back(12);
        assert_eq!(t.get(id).unwrap().rx_pending_list.front(), Some(&11));
        t.get_mut(id).unwrap().rx_pending_list.pop_front();
        assert_eq!(t.get(id).unwrap().rx_pending_list.front(), Some(&12));
    }

    #[test]
    fn paper_capacity_default() {
        let t = SourceTable::default();
        assert_eq!(t.capacity(), 1024);
    }
}
