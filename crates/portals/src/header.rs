//! The Portals wire header.
//!
//! Every message carries a fixed header the target compares against its
//! Portals structures. On the real SeaStar the header rides in the first
//! 64-byte packet; up to 12 bytes of user payload fit alongside it
//! (paper §6).

use crate::types::{AckReq, MatchBits, MdHandle, ProcessId};
use serde::{Deserialize, Serialize};

/// Atomic update applied lane-wise at the target NIC.
///
/// Portals 3.3 itself has no atomic operations; this is the Portals-4
/// style `PtlAtomic` surface the MPI-3 one-sided (RMA) personality
/// needs for `MPI_Accumulate`. An atomic rides the wire as a put whose
/// header carries the operation, and the target applies it
/// read-modify-write over 8-byte little-endian lanes during deposit —
/// so the entire put path (DMA, go-back-n, piggybacking, causal
/// tracing) is shared unchanged.
///
/// All three operations act on `u64` lanes. Floating-point accumulation
/// uses the order-preserving bit encoding in `xt3_mpi::rma` so that
/// `Max` over encoded `f64`s equals `Max` over the floats, and no float
/// arithmetic enters the deterministic core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AtomicOp {
    /// Wrapping unsigned addition (`MPI_SUM` on u64 lanes). Wrapping
    /// addition is commutative and associative, so the accumulated value
    /// is independent of arrival order — the property the fault
    /// campaign's sum invariant relies on.
    Sum,
    /// Unsigned maximum (`MPI_MAX`; order-independent).
    Max,
    /// Overwrite (`MPI_REPLACE`). The only order-*dependent* operation;
    /// the RMA layer serializes replaces per target to keep runs
    /// deterministic.
    Replace,
}

impl AtomicOp {
    /// Combine one 8-byte lane: `old` is the target's current value,
    /// `operand` the incoming one.
    pub fn apply(self, old: u64, operand: u64) -> u64 {
        match self {
            AtomicOp::Sum => old.wrapping_add(operand),
            AtomicOp::Max => old.max(operand),
            AtomicOp::Replace => operand,
        }
    }
}

/// Operation carried by a header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortalsOp {
    /// One-sided write.
    Put,
    /// One-sided read request.
    Get,
    /// Data flowing back for a get.
    Reply,
    /// Acknowledgement of a put.
    Ack,
}

/// The Portals header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortalsHeader {
    /// Operation.
    pub op: PortalsOp,
    /// Initiating process.
    pub src: ProcessId,
    /// Target process.
    pub dst: ProcessId,
    /// Portal table index at the target (unused for Reply/Ack).
    pub pt_index: u32,
    /// Access control index at the target.
    pub ac_index: u32,
    /// Match bits (unused for Reply/Ack).
    pub match_bits: MatchBits,
    /// Requested payload length.
    pub rlength: u64,
    /// Initiator-supplied offset (meaningful when the target MD manages
    /// remote offsets).
    pub remote_offset: u64,
    /// Acknowledgement request (puts only).
    pub ack_req: AckReq,
    /// Out-of-band user data carried with puts.
    pub hdr_data: u64,
    /// For Get: the initiator-side MD awaiting the reply. For Reply/Ack:
    /// echoed back so the initiator can complete without matching.
    pub initiator_md: Option<MdHandle>,
    /// For Reply/Ack: the accepted length at the target.
    pub mlength: u64,
    /// For Reply/Ack: the offset used at the target.
    pub target_offset: u64,
    /// For Put only: an atomic operation the target applies lane-wise
    /// instead of a plain deposit. `None` is an ordinary put.
    pub atomic: Option<AtomicOp>,
}

impl PortalsHeader {
    /// A put header.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        src: ProcessId,
        dst: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        rlength: u64,
        remote_offset: u64,
        ack_req: AckReq,
        hdr_data: u64,
        initiator_md: MdHandle,
    ) -> Self {
        PortalsHeader {
            op: PortalsOp::Put,
            src,
            dst,
            pt_index,
            ac_index,
            match_bits,
            rlength,
            remote_offset,
            ack_req,
            hdr_data,
            initiator_md: Some(initiator_md),
            mlength: 0,
            target_offset: 0,
            atomic: None,
        }
    }

    /// A get header.
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        src: ProcessId,
        dst: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        rlength: u64,
        remote_offset: u64,
        initiator_md: MdHandle,
    ) -> Self {
        PortalsHeader {
            op: PortalsOp::Get,
            src,
            dst,
            pt_index,
            ac_index,
            match_bits,
            rlength,
            remote_offset,
            ack_req: AckReq::NoAck,
            hdr_data: 0,
            initiator_md: Some(initiator_md),
            mlength: 0,
            target_offset: 0,
            atomic: None,
        }
    }

    /// The reply header answering a get processed at the target.
    pub fn reply_to(get_hdr: &PortalsHeader, mlength: u64, target_offset: u64) -> Self {
        debug_assert_eq!(get_hdr.op, PortalsOp::Get);
        PortalsHeader {
            op: PortalsOp::Reply,
            src: get_hdr.dst,
            dst: get_hdr.src,
            pt_index: 0,
            ac_index: 0,
            match_bits: get_hdr.match_bits,
            rlength: get_hdr.rlength,
            remote_offset: 0,
            ack_req: AckReq::NoAck,
            hdr_data: 0,
            initiator_md: get_hdr.initiator_md,
            mlength,
            target_offset,
            atomic: None,
        }
    }

    /// The ack header answering a put processed at the target.
    pub fn ack_to(put_hdr: &PortalsHeader, mlength: u64, target_offset: u64) -> Self {
        debug_assert_eq!(put_hdr.op, PortalsOp::Put);
        PortalsHeader {
            op: PortalsOp::Ack,
            src: put_hdr.dst,
            dst: put_hdr.src,
            pt_index: 0,
            ac_index: 0,
            match_bits: put_hdr.match_bits,
            rlength: put_hdr.rlength,
            remote_offset: 0,
            ack_req: AckReq::NoAck,
            hdr_data: 0,
            initiator_md: put_hdr.initiator_md,
            mlength,
            target_offset,
            atomic: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mdh() -> MdHandle {
        MdHandle {
            index: 1,
            generation: 0,
        }
    }

    #[test]
    fn put_header_fields() {
        let h = PortalsHeader::put(
            ProcessId::new(0, 1),
            ProcessId::new(2, 3),
            4,
            0,
            0xAB,
            100,
            0,
            AckReq::Ack,
            0x11,
            mdh(),
        );
        assert_eq!(h.op, PortalsOp::Put);
        assert_eq!(h.rlength, 100);
        assert_eq!(h.hdr_data, 0x11);
    }

    #[test]
    fn get_header_fields() {
        let h = PortalsHeader::get(
            ProcessId::new(0, 1),
            ProcessId::new(2, 3),
            4,
            0,
            0xAB,
            4096,
            0,
            mdh(),
        );
        assert_eq!(h.rlength, 4096);
    }

    #[test]
    fn reply_reverses_direction_and_carries_mlength() {
        let g = PortalsHeader::get(
            ProcessId::new(0, 1),
            ProcessId::new(2, 3),
            4,
            0,
            0xAB,
            4096,
            0,
            mdh(),
        );
        let r = PortalsHeader::reply_to(&g, 4000, 96);
        assert_eq!(r.op, PortalsOp::Reply);
        assert_eq!(r.src, g.dst);
        assert_eq!(r.dst, g.src);
        assert_eq!(r.mlength, 4000);
        assert_eq!(r.initiator_md, Some(mdh()));
        assert_eq!(r.target_offset, 96);
    }

    #[test]
    fn ack_reverses_direction() {
        let p = PortalsHeader::put(
            ProcessId::new(0, 1),
            ProcessId::new(2, 3),
            4,
            0,
            0,
            64,
            0,
            AckReq::Ack,
            0,
            mdh(),
        );
        let a = PortalsHeader::ack_to(&p, 64, 0);
        assert_eq!(a.op, PortalsOp::Ack);
        assert_eq!(a.mlength, 64);
        assert_eq!(a.dst, p.src);
    }
}
