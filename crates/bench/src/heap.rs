//! The counting allocator behind every allocator-exact number: a
//! wrapper of the system allocator that keeps live and peak heap bytes
//! and a census of live blocks by request size — exact below 4 KiB, by
//! power-of-two class above. Exact, unlike RSS, which rounds to pages
//! and includes the binary.
//!
//! An executable opts in with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;` —
//! `mem_footprint` and the tier-1 footprint test do; `xt3-bench` does
//! not, because the counter updates would sit under every `perf` timing.
//! This is the one `unsafe` site in the workspace (see this crate's lint
//! table).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live heap bytes right now.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`] since the last [`restart_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Request sizes the census keeps apart; a larger block counts in the
/// power-of-two class of its size, `[2^k, 2^(k+1))`.
pub const CENSUS_SIZES: usize = 4096;
/// Census slots: one per size below [`CENSUS_SIZES`], then one per class
/// up to `2^63`.
const SLOTS: usize = CENSUS_SIZES + 64 - CENSUS_SIZES.trailing_zeros() as usize;
/// Live blocks by slot.
static BLOCKS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
/// Live bytes by slot.
static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

/// The census slot of a block of `bytes`.
fn slot(bytes: u64) -> usize {
    match usize::try_from(bytes) {
        Ok(size) if size < CENSUS_SIZES => size,
        _ => CENSUS_SIZES + (bytes.ilog2() - CENSUS_SIZES.trailing_zeros()) as usize,
    }
}

/// System allocator wrapper that keeps the counters. SeqCst throughout:
/// this is measurement plumbing, not a hot path worth weaker-ordering
/// subtleties.
pub struct CountingAlloc;

fn count_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
    BLOCKS[slot(bytes)].fetch_add(1, Ordering::SeqCst);
    BYTES[slot(bytes)].fetch_add(bytes, Ordering::SeqCst);
}

fn count_free(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
    BLOCKS[slot(bytes)].fetch_sub(1, Ordering::SeqCst);
    BYTES[slot(bytes)].fetch_sub(bytes, Ordering::SeqCst);
}

// The one sanctioned unsafe block in the tree: GlobalAlloc is an unsafe
// trait, and every body only forwards to the system allocator plus
// counter updates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count_free(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_free(layout.size() as u64);
            count_alloc(new_size as u64);
        }
        p
    }
}

/// Live heap bytes right now.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::SeqCst)
}

/// Start a new peak measurement at what is live now, and return that.
pub fn restart_peak() -> u64 {
    let floor = live_bytes();
    PEAK.store(floor, Ordering::SeqCst);
    floor
}

/// Most bytes live at once since the last [`restart_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::SeqCst)
}

/// What is live, block by block. Arrays inside (66 KB), so that taking
/// the reading allocates nothing.
pub struct Census {
    blocks: [u64; SLOTS],
    bytes: [u64; SLOTS],
}

impl Census {
    /// What is live right now.
    pub fn take() -> Self {
        Census {
            blocks: std::array::from_fn(|at| BLOCKS[at].load(Ordering::SeqCst)),
            bytes: std::array::from_fn(|at| BYTES[at].load(Ordering::SeqCst)),
        }
    }

    /// What this reading holds over an earlier one.
    pub fn since(mut self, floor: &Census) -> Self {
        let now = self.blocks.iter_mut().chain(&mut self.bytes);
        for (now, was) in now.zip(floor.blocks.iter().chain(&floor.bytes)) {
            *now = now.saturating_sub(*was);
        }
        self
    }

    /// Live blocks of every size.
    pub fn blocks(&self) -> u64 {
        self.blocks.iter().sum()
    }

    /// `(request size, live blocks, live bytes)` for each size below
    /// [`CENSUS_SIZES`], then for each power-of-two class at or above it,
    /// named by its smallest size.
    pub fn by_size(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let size = |at: usize| match at.checked_sub(CENSUS_SIZES) {
            None => at as u64,
            Some(class) => (CENSUS_SIZES as u64) << class,
        };
        (0..SLOTS).map(move |at| (size(at), self.blocks[at], self.bytes[at]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_below_the_census_limit_are_exact_and_larger_ones_classed() {
        assert_eq!(slot(0), 0);
        assert_eq!(slot(4095), 4095);
        assert_eq!((slot(4096), slot(8191)), (CENSUS_SIZES, CENSUS_SIZES));
        assert_eq!(slot(94_208), CENSUS_SIZES + 4, "64 to 128 KiB");
        assert_eq!(slot(u64::MAX), SLOTS - 1);
    }
}
