//! The SeaStar's 384 KB local scratch SRAM.
//!
//! Paper §2: "the PowerPC has 384 KB of scratch memory", and §3.3 names
//! the limited SRAM as the first primary design constraint. §4.2 gives the
//! occupancy formula
//!
//! ```text
//! M = S * S_size + sum_i(P_i * P_size)
//! ```
//!
//! for `S` source structures and per-process pending pools `P_i`. The
//! firmware pre-allocates everything at initialization (no dynamic
//! allocation, §4.2); this module provides the region accounting that the
//! firmware's pools sit on, and enforces the hard 384 KB budget.

use std::borrow::Cow;
use std::fmt;

/// Capacity of the SeaStar local SRAM in bytes (paper §2).
pub const SEASTAR_SRAM_BYTES: u32 = 384 * 1024;

/// Errors from SRAM region reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SramError {
    /// The requested reservation exceeds remaining capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u32,
        /// Bytes still available.
        available: u32,
    },
}

impl fmt::Display for SramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SramError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "SeaStar SRAM exhausted: requested {requested} B, {available} B available"
            ),
        }
    }
}

impl std::error::Error for SramError {}

/// A named, reserved region of SRAM.
#[derive(Debug, Clone)]
pub struct SramRegion {
    /// Human-readable purpose ("sources", "pendings\[0\]", "firmware image",
    /// ...). Borrowed for the fixed names, so a 10,368-node machine does
    /// not hold 10,368 copies of them.
    pub name: Cow<'static, str>,
    /// Offset within SRAM.
    pub offset: u32,
    /// Size in bytes.
    pub bytes: u32,
}

/// The SRAM allocator: bump reservation of named regions at initialization
/// time, mirroring the firmware's compile-time layout.
#[derive(Debug, Clone)]
pub struct Sram {
    capacity: u32,
    used: u32,
    regions: Vec<SramRegion>,
}

impl Default for Sram {
    fn default() -> Self {
        Self::new(SEASTAR_SRAM_BYTES)
    }
}

impl Sram {
    /// An SRAM of `capacity` bytes (384 KB for the real chip).
    pub fn new(capacity: u32) -> Self {
        Sram {
            capacity,
            used: 0,
            // One firmware process's layout: image, control block,
            // sources, then pendings, process block and mailbox.
            regions: Vec::with_capacity(6),
        }
    }

    /// Reserve a named region of `bytes`.
    pub fn reserve(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        bytes: u32,
    ) -> Result<SramRegion, SramError> {
        let available = self.capacity - self.used;
        if bytes > available {
            return Err(SramError::OutOfMemory {
                requested: bytes,
                available,
            });
        }
        let region = SramRegion {
            name: name.into(),
            offset: self.used,
            bytes,
        };
        self.used += bytes;
        self.regions.push(region.clone());
        Ok(region)
    }

    /// Reserve an array region of `count` elements of `elem_bytes` each.
    pub fn reserve_array(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        count: u32,
        elem_bytes: u32,
    ) -> Result<SramRegion, SramError> {
        self.reserve(name, count * elem_bytes)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Bytes reserved so far.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> u32 {
        self.capacity - self.used
    }

    /// Reserved regions, in reservation order.
    pub fn regions(&self) -> &[SramRegion] {
        &self.regions
    }

    /// Render a layout table (used by the `table sram` experiment).
    pub fn render_layout(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>10} {:>10}", "region", "offset", "bytes");
        for r in &self.regions {
            let _ = writeln!(out, "{:<28} {:>10} {:>10}", r.name, r.offset, r.bytes);
        }
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10}  ({:.1}% of {} KB)",
            "TOTAL",
            "",
            self.used,
            100.0 * self.used as f64 / self.capacity as f64,
            self.capacity / 1024
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_paper() {
        assert_eq!(SEASTAR_SRAM_BYTES, 393_216);
        assert_eq!(Sram::default().capacity(), 393_216);
    }

    #[test]
    fn reservations_accumulate() {
        let mut s = Sram::new(1000);
        let a = s.reserve("a", 400).unwrap();
        let b = s.reserve("b", 600).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 400);
        assert_eq!(s.used(), 1000);
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn over_reservation_fails() {
        let mut s = Sram::new(100);
        s.reserve("a", 60).unwrap();
        let err = s.reserve("b", 50).unwrap_err();
        assert_eq!(
            err,
            SramError::OutOfMemory {
                requested: 50,
                available: 40
            }
        );
        // Failed reservation leaves state unchanged.
        assert_eq!(s.used(), 60);
    }

    #[test]
    fn array_reservation() {
        let mut s = Sram::default();
        // Paper §4.2: 1,024 source structures of 32 bytes (Figure 3).
        let r = s.reserve_array("sources", 1024, 32).unwrap();
        assert_eq!(r.bytes, 32 * 1024);
    }

    #[test]
    fn layout_rendering() {
        let mut s = Sram::new(2048);
        s.reserve("x", 1024).unwrap();
        let txt = s.render_layout();
        assert!(txt.contains('x'));
        assert!(txt.contains("TOTAL"));
        assert!(txt.contains("50.0%"));
    }
}
