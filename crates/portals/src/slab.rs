//! A generation-counted slab: the backing store for MD/ME/EQ tables.
//!
//! Handles carry `(index, generation)`; freeing a slot bumps its
//! generation so stale handles (e.g. an MD handle used after auto-unlink)
//! are detected instead of silently addressing a recycled object. The
//! firmware's "no dynamic allocation" discipline (paper §4.2) is mirrored
//! by the fixed capacity — a limit on live values, not an allocation: the
//! slots grow by [`fit_by_use`], as every per-node row does.

use std::collections::VecDeque;

/// What to `reserve_exact` so that a row of `len` elements in `capacity`
/// slots holds `need` by the rule of [`fit_by_use`]; `None` when it
/// already does.
#[inline]
fn row_step(need: usize, capacity: usize, len: usize) -> Option<usize> {
    (need > capacity).then(|| need.next_power_of_two() - len)
}

/// The growth rule of every per-node row of records — a `Vec` or
/// `VecDeque` of which a machine holds one per node, per process or per
/// table: grow to the next power of two that holds what is asked for,
/// **starting at one slot**, and ask the allocator for exactly that.
///
/// `Vec`'s own first growth takes four slots whatever the element, and a
/// full machine holds 10,368 copies of each row, most with one element
/// in it: for records 16–184 bytes wide that was 2.5 KB of every node's
/// 6.4 KB heap. Past the first step the rule is the doubling `Vec` does
/// anyway, so a busy row pays two small moves more than it did and a
/// quiet one pays for what it uses. This is the one statement of the
/// rule; the tables call it and take no capacity of their own. Rows of
/// bare ids (the `u32` free lists) do not call it: four slots of those
/// fit the smallest block the allocator hands out, so one slot would
/// save nothing and still pay the moves.
///
/// Makes room in `row` for `need` elements in all, before pushing up to
/// it.
#[inline]
pub fn fit_by_use<T>(row: &mut Vec<T>, need: usize) {
    if let Some(more) = row_step(need, row.capacity(), row.len()) {
        row.reserve_exact(more);
    }
}

/// [`fit_by_use`] for a ring.
#[inline]
pub fn fit_ring_by_use<T>(ring: &mut VecDeque<T>, need: usize) {
    if let Some(more) = row_step(need, ring.capacity(), ring.len()) {
        ring.reserve_exact(more);
    }
}

/// A fixed-capacity slab with generation-counted slots.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    capacity: u32,
    live: u32,
}

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

impl<T> Slab<T> {
    /// A slab holding at most `capacity` live values.
    pub fn new(capacity: u32) -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
            live: 0,
        }
    }

    /// Insert a value, returning `(index, generation)`, or `None` when
    /// full.
    pub fn insert(&mut self, value: T) -> Option<(u32, u32)> {
        if self.live >= self.capacity {
            return None;
        }
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            Some((idx, slot.generation))
        } else {
            let idx = self.slots.len() as u32;
            let need = self.slots.len() + 1;
            fit_by_use(&mut self.slots, need);
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            Some((idx, 0))
        }
    }

    /// Borrow a live value by handle parts.
    pub fn get(&self, index: u32, generation: u32) -> Option<&T> {
        self.slots
            .get(index as usize)
            .filter(|s| s.generation == generation)
            .and_then(|s| s.value.as_ref())
    }

    /// Mutably borrow a live value by handle parts.
    pub fn get_mut(&mut self, index: u32, generation: u32) -> Option<&mut T> {
        self.slots
            .get_mut(index as usize)
            .filter(|s| s.generation == generation)
            .and_then(|s| s.value.as_mut())
    }

    /// Remove a value, bumping the slot generation.
    pub fn remove(&mut self, index: u32, generation: u32) -> Option<T> {
        let slot = self.slots.get_mut(index as usize)?;
        if slot.generation != generation || slot.value.is_none() {
            return None;
        }
        let value = slot.value.take();
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
        value
    }

    /// Number of live values.
    pub fn len(&self) -> u32 {
        self.live
    }

    /// True when no values are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Maximum live values.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots the allocator has been asked for so far: the next power of
    /// two at or above the most values ever live at once.
    #[doc(hidden)]
    pub fn row_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Iterate live `(index, generation, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.value.as_ref().map(|v| (i as u32, s.generation, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: Slab<&str> = Slab::new(4);
        let (i, g) = s.insert("a").unwrap();
        assert_eq!(s.get(i, g), Some(&"a"));
        assert_eq!(s.remove(i, g), Some("a"));
        assert_eq!(s.get(i, g), None);
        assert!(s.is_empty());
    }

    #[test]
    fn stale_handles_rejected_after_reuse() {
        let mut s: Slab<u32> = Slab::new(4);
        let (i, g) = s.insert(1).unwrap();
        s.remove(i, g).unwrap();
        let (i2, g2) = s.insert(2).unwrap();
        assert_eq!(i2, i, "slot is reused");
        assert_ne!(g2, g, "generation bumped");
        assert_eq!(s.get(i, g), None, "stale handle must not resolve");
        assert_eq!(s.get(i2, g2), Some(&2));
        assert_eq!(s.remove(i, g), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut s: Slab<u8> = Slab::new(2);
        s.insert(1).unwrap();
        s.insert(2).unwrap();
        assert!(s.insert(3).is_none());
        assert_eq!(s.len(), 2);
        // Free one slot, insert succeeds again.
        let handles: Vec<_> = s.iter().map(|(i, g, _)| (i, g)).collect();
        s.remove(handles[0].0, handles[0].1).unwrap();
        assert!(s.insert(3).is_some());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s: Slab<Vec<u8>> = Slab::new(1);
        let (i, g) = s.insert(vec![1]).unwrap();
        s.get_mut(i, g).unwrap().push(2);
        assert_eq!(s.get(i, g), Some(&vec![1, 2]));
    }

    #[test]
    fn iter_yields_live_entries_only() {
        let mut s: Slab<u8> = Slab::new(8);
        let a = s.insert(10).unwrap();
        let b = s.insert(20).unwrap();
        s.insert(30).unwrap();
        s.remove(b.0, b.1).unwrap();
        let vals: Vec<u8> = s.iter().map(|(_, _, &v)| v).collect();
        assert_eq!(vals, vec![10, 30]);
        assert_eq!(s.get(a.0, a.1), Some(&10));
    }
}
