//! Pre-allocated object pools with free lists.
//!
//! Paper §4.2: "There is no dynamic allocation of any data structures by
//! the firmware. All structures are pre-allocated at initialization time
//! and inserted into free lists or slab caches." The pool tracks a
//! high-water mark so the `table exhaustion` experiment can report how
//! close workloads come to the compile-time limits — mirroring the
//! authors' careful monitoring on 7,700 Red Storm nodes.

use xt3_portals::slab::fit_by_use;

/// A fixed pool of `T` with an intrusive-style free list of indices.
///
/// Capacity is a hard limit (the firmware's compile-time table size), but
/// backing storage materializes lazily: indices are handed out returned-
/// LIFO-first, then fresh-lowest-first — the exact sequence the eager
/// `(0..capacity).rev()` free list produced — and an object is default-
/// constructed the first time its index is issued. `items` therefore only
/// ever grows to the pool's storage high-water mark, by the per-node row
/// rule ([`fit_by_use`]: one slot first, then doubling), which is what
/// lets a 10,368-node machine carry its per-node pools without paying
/// for thousands of never-used slots.
#[derive(Debug, Clone)]
pub struct Pool<T> {
    items: Vec<T>,
    capacity: u32,
    /// Returned indices, reused LIFO.
    free: Vec<u32>,
    /// Next never-issued index (== `items.len()`).
    next_fresh: u32,
    in_use: u32,
    high_water: u32,
    alloc_failures: u64,
}

impl<T: Default + Clone> Pool<T> {
    /// A pool of `capacity` objects (default-initialized on first use).
    pub fn new(capacity: u32) -> Self {
        Pool {
            items: Vec::new(),
            capacity,
            free: Vec::new(),
            next_fresh: 0,
            in_use: 0,
            high_water: 0,
            alloc_failures: 0,
        }
    }

    /// Allocate an object, returning its index, or `None` on exhaustion.
    pub fn alloc(&mut self) -> Option<u32> {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None if self.next_fresh < self.capacity => {
                let idx = self.next_fresh;
                self.next_fresh += 1;
                let need = self.items.len() + 1;
                fit_by_use(&mut self.items, need);
                self.items.push(T::default());
                idx
            }
            None => {
                self.alloc_failures += 1;
                return None;
            }
        };
        self.in_use += 1;
        self.high_water = self.high_water.max(self.in_use);
        Some(idx)
    }
}

impl<T> Pool<T> {
    /// Return an object to the free list.
    ///
    /// # Panics
    ///
    /// Panics on double free (the index is already free) in debug builds.
    pub fn free(&mut self, idx: u32) {
        debug_assert!(!self.free.contains(&idx), "double free of pool index {idx}");
        debug_assert!((idx as usize) < self.items.len(), "foreign index {idx}");
        self.free.push(idx);
        self.in_use -= 1;
    }

    /// Borrow an object. `None` for an index the pool never issued —
    /// firmware callers surface that as a typed error instead of
    /// aborting the node.
    pub fn get(&self, idx: u32) -> Option<&T> {
        self.items.get(idx as usize)
    }

    /// Mutably borrow an object; `None` for a foreign index.
    pub fn get_mut(&mut self, idx: u32) -> Option<&mut T> {
        self.items.get_mut(idx as usize)
    }

    /// Total capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots whose backing object has been materialized (the storage
    /// high-water mark; at most [`Self::capacity`]).
    pub fn materialized(&self) -> u32 {
        self.items.len() as u32
    }

    /// Slots the allocator has been asked for so far: the next power of
    /// two at or above [`Self::materialized`].
    #[doc(hidden)]
    pub fn row_capacity(&self) -> usize {
        self.items.capacity()
    }

    /// Objects currently allocated.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Maximum simultaneous allocation observed.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Allocation attempts that failed due to exhaustion.
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut p: Pool<u64> = Pool::new(3);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(p.in_use(), 2);
        p.free(a);
        assert_eq!(p.in_use(), 1);
        let c = p.alloc().unwrap();
        assert_eq!(c, a, "LIFO reuse");
    }

    #[test]
    fn exhaustion_returns_none_and_counts() {
        let mut p: Pool<u8> = Pool::new(2);
        p.alloc().unwrap();
        p.alloc().unwrap();
        assert_eq!(p.alloc(), None);
        assert_eq!(p.alloc(), None);
        assert_eq!(p.alloc_failures(), 2);
        assert_eq!(p.high_water(), 2);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut p: Pool<u8> = Pool::new(8);
        let xs: Vec<u32> = (0..5).map(|_| p.alloc().unwrap()).collect();
        for x in xs {
            p.free(x);
        }
        assert_eq!(p.in_use(), 0);
        assert_eq!(p.high_water(), 5);
    }

    #[test]
    fn data_access_roundtrip() {
        let mut p: Pool<String> = Pool::new(2);
        let i = p.alloc().unwrap();
        *p.get_mut(i).unwrap() = "hello".into();
        assert_eq!(p.get(i).unwrap(), "hello");
        assert_eq!(p.get(99), None, "foreign index is surfaced, not a panic");
    }

    #[test]
    fn lazy_materialization_preserves_id_order() {
        // Fresh indices come out lowest-first and returned indices are
        // reused LIFO — the same sequence the eager free list produced —
        // while storage only grows to the concurrency high-water mark.
        let mut p: Pool<u64> = Pool::new(1024);
        assert_eq!(p.materialized(), 0);
        assert_eq!(p.alloc(), Some(0));
        assert_eq!(p.alloc(), Some(1));
        assert_eq!(p.alloc(), Some(2));
        p.free(1);
        assert_eq!(p.alloc(), Some(1), "returned index reused before fresh");
        assert_eq!(p.alloc(), Some(3));
        assert_eq!(
            p.materialized(),
            4,
            "storage tracks high-water, not capacity"
        );
        assert_eq!(p.capacity(), 1024);
        assert_eq!(p.get(5), None, "never-issued index is foreign");
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut p: Pool<u8> = Pool::new(2);
        let i = p.alloc().unwrap();
        p.free(i);
        p.free(i);
    }
}
