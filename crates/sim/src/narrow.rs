//! The one rule by which the observation stores keep their values narrow.
//!
//! A store that grows with the run (the registry's spans, the link
//! series' buckets and occupancy logs, the causal fold's hop cells) keeps
//! each value by its low bits in a packed `u32` field. Almost every value
//! of a run fits; the few that do not are neither saturated nor dropped:
//! their high bits go to a [`Spill`], a small side table keyed by the
//! stored item, which the read path consults. A value reads back as
//! `low | high << bits`, the same number that was recorded.

/// `value` split at bit `bits`: its low `bits` bits, and the bits above.
/// The high part must fit a `u32`, which holds for every `u64` split at
/// 32 bits or more and for every `u32`.
#[inline]
pub fn split(value: u64, bits: u32) -> (u32, u32) {
    let low = value & ((1u64 << bits) - 1);
    (low as u32, (value >> bits) as u32)
}

/// `low | high << bits`: what [`split`] took apart.
#[inline]
pub fn join(low: u32, high: u32, bits: u32) -> u64 {
    u64::from(low) | u64::from(high) << bits
}

/// The high words of the values that did not fit their narrow fields:
/// one row of `N` words per stored item that has any, sorted by the
/// item's key. An item with no row has every high word 0 — the common
/// case, so the table stays empty on most runs and a read of an empty
/// table is one branch.
#[derive(Debug, Clone)]
pub struct Spill<const N: usize> {
    rows: Vec<(u32, [u32; N])>,
}

impl<const N: usize> Default for Spill<N> {
    fn default() -> Self {
        Spill { rows: Vec::new() }
    }
}

impl<const N: usize> Spill<N> {
    /// Does no item have a high word?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Items with a row.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Item `key`'s high words (all 0 without a row).
    #[inline]
    pub fn get(&self, key: u32) -> [u32; N] {
        if self.rows.is_empty() {
            return [0; N];
        }
        let row = self.find(key).ok().and_then(|at| self.rows.get(at));
        row.map_or([0; N], |&(_, high)| high)
    }

    /// Set item `key`'s high words: a row when any is non-zero, none
    /// otherwise (a reused key drops the row its last holder left).
    pub fn set(&mut self, key: u32, high: [u32; N]) {
        let wide = high != [0; N];
        if !wide && self.rows.is_empty() {
            return;
        }
        match (self.find(key), wide) {
            (Ok(at), true) => {
                if let Some(row) = self.rows.get_mut(at) {
                    row.1 = high;
                }
            }
            (Ok(at), false) => {
                self.rows.remove(at);
            }
            (Err(at), true) => self.rows.insert(at, (key, high)),
            (Err(_), false) => {}
        }
    }

    /// Add `carry` to item `key`'s high word `field`: the carry out of a
    /// narrow field that overflowed. Wraps where a `u64` total would.
    #[cold]
    #[inline(never)]
    pub fn carry(&mut self, key: u32, field: usize, carry: u32) {
        let at = self.find(key).unwrap_or_else(|at| {
            self.rows.insert(at, (key, [0; N]));
            at
        });
        if let Some(word) = self.rows.get_mut(at).and_then(|row| row.1.get_mut(field)) {
            *word = word.wrapping_add(carry);
        }
    }

    /// Where `key`'s row is: the tail first, where a store that appends
    /// in key order puts every row.
    fn find(&self, key: u32) -> Result<usize, usize> {
        match self.rows.last() {
            Some(&(last, _)) if key > last => Err(self.rows.len()),
            Some(&(last, _)) if key == last => Ok(self.rows.len() - 1),
            _ => self.rows.binary_search_by_key(&key, |&(k, _)| k),
        }
    }
}

/// `field` of narrow words `low` (of item `key`) plus `delta`, exact: the
/// low 32 bits stay in the field and any carry out of it goes to `spill`
/// (the total wraps at 2^64, as a `u64` field's would).
#[inline]
pub fn add<const N: usize>(
    low: &mut [u32; N],
    spill: &mut Spill<N>,
    key: u32,
    field: usize,
    delta: u64,
) {
    let Some(slot) = low.get_mut(field) else {
        return;
    };
    let (word, carry) = split(u64::from(*slot).wrapping_add(delta), 32);
    *slot = word;
    if carry != 0 {
        spill.carry(key, field, carry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_join_are_inverse_at_every_width() {
        for bits in [4, 8, 20, 32] {
            for value in [0, 1, (1 << bits) - 1, 1 << bits, u64::from(u32::MAX)] {
                let (low, high) = split(value, bits);
                assert_eq!(join(low, high, bits), value, "{value} at {bits}");
                assert!(u64::from(low) < 1 << bits);
            }
        }
        let (low, high) = split(u64::MAX, 32);
        assert_eq!((low, high), (u32::MAX, u32::MAX));
    }

    #[test]
    fn a_narrow_sum_carries_into_the_spill_exactly() {
        let mut low = [0u32; 2];
        let mut spill = Spill::<2>::default();
        let mut want = 0u64;
        for delta in [u64::from(u32::MAX), 1, 5 << 32, 3, u64::from(u32::MAX)] {
            add(&mut low, &mut spill, 9, 1, delta);
            want += delta;
            assert_eq!(join(low[1], spill.get(9)[1], 32), want);
        }
        assert_eq!((low[0], spill.get(9)[0], spill.len()), (0, 0, 1));
        assert_eq!(spill.get(8), [0, 0]);
    }

    #[test]
    fn set_keeps_rows_sorted_and_drops_all_zero_ones() {
        let mut spill = Spill::<1>::default();
        for key in [5, 1, 9, 3] {
            spill.set(key, [key]);
        }
        assert_eq!(
            spill.rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            [1, 3, 5, 9]
        );
        spill.set(3, [0]);
        spill.set(4, [0]);
        assert_eq!((spill.len(), spill.get(3), spill.get(9)), (3, [0], [9]));
    }
}
