//! The one place host wall-clock time enters this crate.
//!
//! Simulated results are pure functions of (config, seed); *how fast
//! the host produced them* is what `perf core`, `perf parallel`, `sweep`
//! and `campaign` report, and it is read here and nowhere else. [`time`]
//! is the one `#[expect]` of clippy's `Instant::now` ban in this crate
//! (DESIGN §11): a timing can flow from here into a report, never back
//! into a simulation.

use std::time::Instant;

/// Run `work` and return its result with the host seconds it took.
#[expect(clippy::disallowed_methods, reason = "bench's one read of host time")]
pub fn time<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = work();
    (result, start.elapsed().as_secs_f64())
}

/// Run `rep` `reps` times; each returns a result and the seconds it
/// timed. The smallest time, with the last rep's result.
pub fn best_of<R>(reps: u32, mut rep: impl FnMut() -> (R, f64)) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let (result, seconds) = rep();
        best = best.min(seconds);
        last = Some(result);
    }
    (last.expect("at least one rep"), best)
}
