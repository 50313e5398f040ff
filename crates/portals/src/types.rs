//! Fundamental Portals identifiers, handles and error codes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Wildcard node id in a match criterion (`PTL_NID_ANY`).
pub const NID_ANY: u32 = u32::MAX;
/// Wildcard process id in a match criterion (`PTL_PID_ANY`).
pub const PID_ANY: u32 = u32::MAX;

/// A Portals process identifier: node id plus process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessId {
    /// Node id (the Portals "nid").
    pub nid: u32,
    /// Process id on that node (the Portals "pid").
    pub pid: u32,
}

impl ProcessId {
    /// Construct a process id.
    pub fn new(nid: u32, pid: u32) -> Self {
        ProcessId { nid, pid }
    }

    /// The fully wildcarded id (matches any source).
    pub fn any() -> Self {
        ProcessId {
            nid: NID_ANY,
            pid: PID_ANY,
        }
    }

    /// Does `self`, used as a match criterion, accept `other`?
    pub fn accepts(&self, other: ProcessId) -> bool {
        (self.nid == NID_ANY || self.nid == other.nid)
            && (self.pid == PID_ANY || self.pid == other.pid)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.nid, self.pid) {
            (NID_ANY, PID_ANY) => write!(f, "any:any"),
            (NID_ANY, p) => write!(f, "any:{p}"),
            (n, PID_ANY) => write!(f, "{n}:any"),
            (n, p) => write!(f, "{n}:{p}"),
        }
    }
}

/// 64 match bits, compared under 64 ignore bits.
pub type MatchBits = u64;

/// Acknowledgement request for a put (`PTL_ACK_REQ` / `PTL_NOACK_REQ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AckReq {
    /// Request an acknowledgement event from the target.
    Ack,
    /// No acknowledgement.
    NoAck,
}

macro_rules! handle_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        // Ord so handles can key deterministic ordered maps (BTreeMap):
        // the determinism audit bans HashMap in simulation-facing crates.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name {
            /// Slot index in the owning table.
            pub index: u32,
            /// Generation counter to detect stale handles after unlink.
            pub generation: u32,
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({}.{})", stringify!($name), self.index, self.generation)
            }
        }
    };
}

handle_type!(
    /// Handle to a memory descriptor.
    MdHandle
);
handle_type!(
    /// Handle to a match entry.
    MeHandle
);
handle_type!(
    /// Handle to an event queue.
    EqHandle
);

/// Per-network-interface resource limits (`PtlNIInit` desired/actual).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NiLimits {
    /// Maximum concurrently bound memory descriptors.
    pub max_mds: u32,
    /// Maximum concurrently attached match entries.
    pub max_mes: u32,
    /// Maximum allocated event queues.
    pub max_eqs: u32,
    /// Portal table entries.
    pub pt_size: u32,
    /// Access control table entries.
    pub ac_size: u32,
}

impl Default for NiLimits {
    fn default() -> Self {
        NiLimits {
            max_mds: 1024,
            max_mes: 1024,
            max_eqs: 64,
            pt_size: 64,
            ac_size: 16,
        }
    }
}

/// Portals error codes (a subset of `ptl_err_t` sufficient for the stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PtlError {
    /// Invalid or stale handle.
    InvalidHandle,
    /// Portal table index out of range.
    PtIndexInvalid,
    /// Access control index out of range or entry denies the request.
    AcIndexInvalid,
    /// A table is full (MDs, MEs, EQs).
    NoSpace,
    /// Invalid argument (zero-length EQ, bad threshold, bad region).
    InvalidArg,
    /// MD still has a non-zero threshold / in-use (illegal unlink).
    MdInUse,
    /// The event queue is empty (`PtlEQGet` with nothing pending).
    EqEmpty,
    /// Events were dropped because the EQ overflowed.
    EqDropped,
    /// Operation not permitted on this MD (e.g. get on a put-only MD).
    OpViolation,
    /// The target process id names no node of the machine
    /// (`PTL_PROCESS_INVALID`).
    ProcessInvalid,
}

impl fmt::Display for PtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PtlError::InvalidHandle => "invalid handle",
            PtlError::PtIndexInvalid => "invalid portal table index",
            PtlError::AcIndexInvalid => "invalid access control index",
            PtlError::NoSpace => "no space",
            PtlError::InvalidArg => "invalid argument",
            PtlError::MdInUse => "md in use",
            PtlError::EqEmpty => "event queue empty",
            PtlError::EqDropped => "event queue dropped events",
            PtlError::OpViolation => "operation violation",
            PtlError::ProcessInvalid => "invalid process id",
        };
        f.write_str(s)
    }
}

impl std::error::Error for PtlError {}

/// Result alias for Portals calls.
pub type PtlResult<T> = Result<T, PtlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_wildcards() {
        let any = ProcessId::any();
        assert!(any.accepts(ProcessId::new(5, 9)));
        let nid_only = ProcessId::new(5, PID_ANY);
        assert!(nid_only.accepts(ProcessId::new(5, 1)));
        assert!(nid_only.accepts(ProcessId::new(5, 2)));
        assert!(!nid_only.accepts(ProcessId::new(6, 1)));
        let exact = ProcessId::new(3, 4);
        assert!(exact.accepts(ProcessId::new(3, 4)));
        assert!(!exact.accepts(ProcessId::new(3, 5)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProcessId::any().to_string(), "any:any");
        assert_eq!(ProcessId::new(1, 2).to_string(), "1:2");
        assert_eq!(ProcessId::new(1, PID_ANY).to_string(), "1:any");
        let h = MdHandle {
            index: 3,
            generation: 7,
        };
        assert_eq!(h.to_string(), "MdHandle(3.7)");
    }

    #[test]
    fn default_limits_are_sane() {
        let l = NiLimits::default();
        assert!(l.max_mds >= 64);
        assert!(l.pt_size >= 8);
    }
}
