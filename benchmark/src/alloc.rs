//! Counting global allocator: peak live heap bytes, exact (not RSS, which
//! rounds to pages and includes the binary). Same technique as the
//! `mem_footprint` bin; local to the benchmark so the program under
//! measurement is untouched.
//!
//! Counting costs three atomic read-modify-writes per allocation and
//! release — a tenth to a quarter of a simulated event — so it is off
//! while a pass is timed: the allocator then adds one relaxed load and a
//! predictable branch. Memory is measured on a pass of its own, between
//! [`start_counting`] and [`stop_counting`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

/// Whether allocations are being counted.
static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes released while counting was on. Signed:
/// releasing memory that was allocated while counting was off takes it
/// below zero, and only differences from a floor are ever reported.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE`] since [`start_counting`].
static PEAK: AtomicI64 = AtomicI64::new(0);

/// System allocator wrapper that keeps the counters. `Relaxed`
/// throughout: all three are statistics that publish no other data, and
/// the read-modify-write operations stay exact under the two threads
/// `redstorm_round_par` runs.
pub struct CountingAlloc;

fn count(delta: i64) {
    if ON.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// The one unsafe site of the benchmark: `GlobalAlloc` is an unsafe trait.
#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to keep valid.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Start counting, with the high-water mark at the current level; returns
/// that level, the floor later readings are measured from.
pub fn start_counting() -> i64 {
    let floor = LIVE.load(Relaxed);
    PEAK.store(floor, Relaxed);
    ON.store(true, Relaxed);
    floor
}

/// Stop counting.
pub fn stop_counting() {
    ON.store(false, Relaxed);
}

/// Bytes live now above `floor` (0 unless counting is on).
pub fn live_above(floor: i64) -> u64 {
    (LIVE.load(Relaxed) - floor).max(0) as u64
}

/// Peak live bytes above `floor` since [`start_counting`] returned it.
pub fn peak_above(floor: i64) -> u64 {
    (PEAK.load(Relaxed) - floor).max(0) as u64
}
