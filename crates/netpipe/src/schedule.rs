//! The NetPIPE message-size schedule.
//!
//! NetPIPE does not sweep a fixed grid: it tests sizes around each
//! power of two with ±perturbation offsets "to cover a disparate set of
//! features, such as buffer alignment" (§5.2), and adapts the iteration
//! count per size so each measurement takes comparable time. We keep the
//! same structure with a deterministic repetition formula.

/// One measured point: a message size and how many iterations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizePoint {
    /// Message size in bytes.
    pub size: u64,
    /// Iterations of the pattern at this size.
    pub reps: u32,
}

/// A full sweep.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Points in ascending size order.
    pub points: Vec<SizePoint>,
}

impl Schedule {
    /// NetPIPE default repetition count for a size: more iterations for
    /// small messages, fewer for bulk, always at least a handful.
    pub fn default_reps(size: u64) -> u32 {
        (400_000 / (size + 2_000)).clamp(4, 60) as u32
    }

    /// The standard sweep: 1, 2, 3 bytes, then powers of two up to
    /// `max_size` with ±`perturbation` offsets.
    pub fn standard(max_size: u64, perturbation: u64) -> Self {
        let mut sizes = vec![1u64, 2, 3];
        let mut p = 4u64;
        while p <= max_size {
            if perturbation > 0 && p > perturbation {
                sizes.push(p - perturbation);
            }
            sizes.push(p);
            if perturbation > 0 && p + perturbation <= max_size {
                sizes.push(p + perturbation);
            }
            p *= 2;
        }
        sizes.sort_unstable();
        sizes.dedup();
        Schedule {
            points: sizes
                .into_iter()
                .map(|size| SizePoint {
                    size,
                    reps: Self::default_reps(size),
                })
                .collect(),
        }
    }

    /// The paper's sweep: up to 8 MB (Figures 5–7 top out there) with the
    /// NetPIPE default perturbation of 3 bytes.
    pub fn paper() -> Self {
        Self::standard(8 << 20, 3)
    }

    /// The latency figure's domain (Fig. 4 plots 1 B – 1 KB).
    pub fn paper_latency() -> Self {
        Self::standard(1 << 10, 3)
    }

    /// A single-point schedule: `reps` iterations at exactly `size`
    /// bytes. Telemetry fence tests use this to pin the message size on
    /// one side of the 12-byte piggyback threshold.
    pub fn fixed(size: u64, reps: u32) -> Self {
        Schedule {
            points: vec![SizePoint { size, reps }],
        }
    }

    /// A light sweep for unit/integration tests.
    pub fn quick(max_size: u64) -> Self {
        let mut s = Self::standard(max_size, 0);
        for p in &mut s.points {
            p.reps = p.reps.min(4);
        }
        s
    }

    /// The largest size in the sweep.
    pub fn max_size(&self) -> u64 {
        self.points.iter().map(|p| p.size).max().unwrap_or(0)
    }

    /// Number of rounds.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_contains_perturbed_powers() {
        let s = Schedule::standard(1024, 3);
        let sizes: Vec<u64> = s.points.iter().map(|p| p.size).collect();
        for p in [4u64, 8, 16, 64, 1024] {
            assert!(sizes.contains(&p), "missing {p}");
        }
        assert!(sizes.contains(&(64 - 3)));
        assert!(sizes.contains(&(64 + 3)));
        assert!(sizes.contains(&1), "one-byte point required for Fig. 4");
        // Ascending, unique.
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn perturbation_never_exceeds_bounds() {
        let s = Schedule::standard(100, 3);
        assert!(s.points.iter().all(|p| (1..=100).contains(&p.size)));
        assert!(s.max_size() <= 100);
    }

    #[test]
    fn reps_scale_down_with_size() {
        assert!(Schedule::default_reps(1) > Schedule::default_reps(1 << 20));
        assert!(Schedule::default_reps(8 << 20) >= 4);
        assert!(Schedule::default_reps(1) <= 60);
    }

    #[test]
    fn paper_schedules_cover_figures() {
        assert_eq!(Schedule::paper().max_size(), 8 << 20);
        assert_eq!(Schedule::paper_latency().max_size(), 1 << 10);
        assert!(Schedule::paper().len() > 50, "fine-grained sweep");
    }

    #[test]
    fn quick_is_small() {
        let q = Schedule::quick(4096);
        assert!(q.points.iter().all(|p| p.reps <= 4));
        assert!(q.len() < 20);
    }
}
