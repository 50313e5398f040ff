//! Memory descriptors.
//!
//! An MD describes a region of process memory plus the rules for operating
//! on it: which operations it accepts, how many it accepts (threshold),
//! whether oversized puts truncate, whether the initiator or the target
//! manages the offset, and which EQ receives its events.

use crate::types::{EqHandle, PtlError, PtlResult};

/// MD option flags (a faithful subset of `ptl_md_t.options`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MdOptions {
    /// Accept put operations (`PTL_MD_OP_PUT`).
    pub op_put: bool,
    /// Accept get operations (`PTL_MD_OP_GET`).
    pub op_get: bool,
    /// Accept atomic puts (Portals-4-style `PTL_MD_OP_ATOMIC`; see
    /// [`crate::header::AtomicOp`]). Plain puts are still gated by
    /// `op_put`, so a buffer can accept atomics without accepting
    /// overwriting puts.
    pub op_atomic: bool,
    /// Allow oversized puts to truncate (`PTL_MD_TRUNCATE`).
    pub truncate: bool,
    /// The *initiator's* offset is used instead of the MD-managed local
    /// offset (`PTL_MD_MANAGE_REMOTE`).
    pub manage_remote: bool,
    /// Suppress start events (`PTL_MD_EVENT_START_DISABLE`).
    pub event_start_disable: bool,
    /// Suppress end events (`PTL_MD_EVENT_END_DISABLE`).
    pub event_end_disable: bool,
    /// Do not send acknowledgements even when requested
    /// (`PTL_MD_ACK_DISABLE`).
    pub ack_disable: bool,
}

impl MdOptions {
    /// Options for a receive buffer accepting puts.
    pub fn put_target() -> Self {
        MdOptions {
            op_put: true,
            ..Default::default()
        }
    }

    /// Options for a buffer serving gets.
    pub fn get_target() -> Self {
        MdOptions {
            op_get: true,
            ..Default::default()
        }
    }

    /// Options for an MPI-3 RMA window: puts, gets and atomics, with the
    /// initiator supplying the target displacement (`manage_remote`) and
    /// no truncation (an out-of-range access must drop visibly rather
    /// than deposit a prefix).
    pub fn rma_target() -> Self {
        MdOptions {
            op_put: true,
            op_get: true,
            op_atomic: true,
            manage_remote: true,
            ..Default::default()
        }
    }
}

/// MD operation threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threshold {
    /// Unlimited operations (`PTL_MD_THRESH_INF`).
    Infinite,
    /// A finite number of remaining operations.
    Count(u32),
}

impl Threshold {
    /// Is at least one more operation permitted?
    pub fn available(&self) -> bool {
        !matches!(self, Threshold::Count(0))
    }

    /// Consume one operation. Returns `true` when the threshold just
    /// reached zero (candidate for auto-unlink).
    pub fn consume(&mut self) -> bool {
        match self {
            Threshold::Infinite => false,
            Threshold::Count(n) => {
                debug_assert!(*n > 0, "consume on exhausted threshold");
                *n -= 1;
                *n == 0
            }
        }
    }
}

/// A memory descriptor.
#[derive(Debug, Clone)]
pub struct Md {
    /// Start address in the owning process's virtual address space.
    pub start: u64,
    /// Region length in bytes.
    pub length: u64,
    /// Option flags.
    pub options: MdOptions,
    /// Remaining operation count.
    pub threshold: Threshold,
    /// Event queue receiving this MD's events, if any.
    pub eq: Option<EqHandle>,
    /// Opaque user pointer echoed in events.
    pub user_ptr: u64,
    /// MD-managed local offset (used unless `manage_remote`).
    pub local_offset: u64,
}

impl Md {
    /// Validate and construct an MD over `[start, start+length)`.
    pub fn new(
        start: u64,
        length: u64,
        options: MdOptions,
        threshold: Threshold,
        eq: Option<EqHandle>,
        user_ptr: u64,
        memory_size: u64,
    ) -> PtlResult<Self> {
        if start
            .checked_add(length)
            .is_none_or(|end| end > memory_size)
        {
            return Err(PtlError::InvalidArg);
        }
        if let Threshold::Count(0) = threshold {
            return Err(PtlError::InvalidArg);
        }
        Ok(Md {
            start,
            length,
            options,
            threshold,
            eq,
            user_ptr,
            local_offset: 0,
        })
    }

    /// Resolve the deposit/source offset for an incoming operation with
    /// the initiator-supplied `remote_offset`.
    pub fn operation_offset(&self, remote_offset: u64) -> u64 {
        if self.options.manage_remote {
            remote_offset
        } else {
            self.local_offset
        }
    }

    /// Can this MD accept an incoming operation of `rlength` bytes at
    /// `offset`? Returns the number of bytes that would be accepted
    /// (`mlength`), or `None` when the MD must reject the operation (no
    /// room and truncation disabled, or offset out of range).
    pub fn accept_length(&self, offset: u64, rlength: u64) -> Option<u64> {
        if offset > self.length {
            return None;
        }
        let room = self.length - offset;
        if rlength <= room {
            Some(rlength)
        } else if self.options.truncate {
            Some(room)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md(len: u64, options: MdOptions) -> Md {
        Md::new(0, len, options, Threshold::Infinite, None, 0, 1 << 20).unwrap()
    }

    #[test]
    fn construction_validates_bounds() {
        assert!(Md::new(
            0,
            100,
            MdOptions::put_target(),
            Threshold::Infinite,
            None,
            0,
            100
        )
        .is_ok());
        assert_eq!(
            Md::new(
                1,
                100,
                MdOptions::put_target(),
                Threshold::Infinite,
                None,
                0,
                100
            )
            .unwrap_err(),
            PtlError::InvalidArg
        );
        assert_eq!(
            Md::new(
                u64::MAX,
                2,
                MdOptions::put_target(),
                Threshold::Infinite,
                None,
                0,
                100
            )
            .unwrap_err(),
            PtlError::InvalidArg,
            "overflowing region must be rejected"
        );
        assert_eq!(
            Md::new(
                0,
                8,
                MdOptions::put_target(),
                Threshold::Count(0),
                None,
                0,
                100
            )
            .unwrap_err(),
            PtlError::InvalidArg
        );
    }

    #[test]
    fn threshold_consumption() {
        let mut t = Threshold::Count(2);
        assert!(t.available());
        assert!(!t.consume());
        assert!(t.consume(), "second consume exhausts");
        assert!(!t.available());
        let mut inf = Threshold::Infinite;
        for _ in 0..100 {
            assert!(!inf.consume());
        }
        assert!(inf.available());
    }

    #[test]
    fn offset_management() {
        let mut m = md(100, MdOptions::put_target());
        assert_eq!(m.operation_offset(42), 0, "locally managed starts at 0");
        m.local_offset = 10;
        assert_eq!(m.operation_offset(42), 10);
        let remote = md(
            100,
            MdOptions {
                manage_remote: true,
                ..MdOptions::put_target()
            },
        );
        assert_eq!(remote.operation_offset(42), 42);
    }

    #[test]
    fn accept_length_without_truncate() {
        let m = md(100, MdOptions::put_target());
        assert_eq!(m.accept_length(0, 100), Some(100));
        assert_eq!(m.accept_length(60, 40), Some(40));
        assert_eq!(m.accept_length(60, 41), None, "no room, no truncate");
        assert_eq!(m.accept_length(101, 0), None, "offset past end");
        assert_eq!(m.accept_length(100, 0), Some(0), "zero bytes at end ok");
    }

    #[test]
    fn accept_length_with_truncate() {
        let m = md(
            100,
            MdOptions {
                truncate: true,
                ..MdOptions::put_target()
            },
        );
        assert_eq!(m.accept_length(60, 100), Some(40));
        assert_eq!(m.accept_length(0, 1000), Some(100));
    }
}
