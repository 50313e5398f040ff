//! The counting allocator behind every allocator-exact number: a
//! wrapper of the system allocator that keeps live and peak heap bytes
//! and a census of live blocks by request size. Exact, unlike RSS, which
//! rounds to pages and includes the binary.
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

/// Request sizes the census keeps apart; every larger block counts in
/// one last slot. A machine's per-node blocks are all far below this.
pub const CENSUS_SIZES: usize = 4096;
/// Live blocks by request size (index = bytes asked for).
static BLOCKS: [AtomicU64; CENSUS_SIZES + 1] = [const { AtomicU64::new(0) }; CENSUS_SIZES + 1];

/// System allocator wrapper that keeps the counters. SeqCst throughout:
/// this is measurement plumbing, not a hot path worth weaker-ordering
/// subtleties.
pub struct CountingAlloc;

fn count_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
    BLOCKS[(bytes as usize).min(CENSUS_SIZES)].fetch_add(1, Ordering::SeqCst);
}

fn count_free(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
    BLOCKS[(bytes as usize).min(CENSUS_SIZES)].fetch_sub(1, Ordering::SeqCst);
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

/// What is live, block by block. An array inside, so that taking the
/// reading allocates nothing.
pub struct Census {
    bytes: u64,
    blocks: [u64; CENSUS_SIZES + 1],
}

impl Census {
    /// What is live right now.
    pub fn take() -> Self {
        Census {
            bytes: live_bytes(),
            blocks: std::array::from_fn(|size| BLOCKS[size].load(Ordering::SeqCst)),
        }
    }

    /// What this reading holds over an earlier one.
    pub fn since(mut self, floor: &Census) -> Self {
        self.bytes = self.bytes.saturating_sub(floor.bytes);
        for (now, was) in self.blocks.iter_mut().zip(floor.blocks) {
            *now = now.saturating_sub(was);
        }
        self
    }

    /// Live blocks of every size.
    pub fn blocks(&self) -> u64 {
        self.blocks.iter().sum()
    }

    /// `(request size, live blocks)` for each size below
    /// [`CENSUS_SIZES`].
    pub fn by_size(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.blocks.iter().copied().enumerate().take(CENSUS_SIZES)
    }

    /// Live bytes in blocks of every size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}
