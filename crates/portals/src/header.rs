//! The Portals wire header.
//!
//! Every message carries a fixed header the target compares against its
//! Portals structures. On the real SeaStar the header rides in the first
//! 64-byte packet, beside up to 12 bytes of piggybacked payload (paper
//! §6), and the target keeps it in the host-memory half of the RX
//! pending, the upper pending that holds "the Portals header + other
//! info" (§4.2).
//!
//! Stored the way the reference implementation's `ptl_hdr_t` is, as a
//! union over the four operations: a request (Put/Get) and a response
//! (Reply/Ack) each carry two words the other does not, so they share
//! two words, and the four one-byte fields share one word. That makes
//! the header 72 bytes with every length and offset a full `u64`. The
//! fields are private; each accessor returns what the constructor was
//! given, and 0 or `None` for a field the operation does not carry.

use crate::types::{AckReq, MatchBits, MdHandle, ProcessId};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl PortalsOp {
    /// Put and Get ask; Reply and Ack answer.
    fn is_request(self) -> bool {
        matches!(self, PortalsOp::Put | PortalsOp::Get)
    }
}

/// The Portals header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortalsHeader {
    src: ProcessId,
    dst: ProcessId,
    match_bits: MatchBits,
    rlength: u64,
    /// A request's `remote_offset`; a response's `target_offset`.
    offset: u64,
    /// A put's `hdr_data` (0 for a get); a response's `mlength`.
    word: u64,
    /// Meaningful when `has_md` is set.
    md: MdHandle,
    pt_index: u32,
    ac_index: u32,
    op: PortalsOp,
    ack_req: AckReq,
    atomic: Option<AtomicOp>,
    has_md: bool,
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
            src,
            dst,
            match_bits,
            rlength,
            offset: remote_offset,
            word: hdr_data,
            md: initiator_md,
            pt_index,
            ac_index,
            op: PortalsOp::Put,
            ack_req,
            atomic: None,
            has_md: true,
        }
    }

    /// The same put, applied at the target as the atomic `op`.
    pub fn with_atomic(self, op: AtomicOp) -> Self {
        debug_assert_eq!(self.op, PortalsOp::Put, "only a put is atomic");
        PortalsHeader {
            atomic: Some(op),
            ..self
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
            ack_req: AckReq::NoAck,
            ..Self::put(
                src,
                dst,
                pt_index,
                ac_index,
                match_bits,
                rlength,
                remote_offset,
                AckReq::NoAck,
                0,
                initiator_md,
            )
        }
    }

    /// The response `op` to `request`: direction reversed, the request's
    /// match bits, length and initiator MD echoed, and the target's
    /// accepted length and offset in the words the request's own used.
    fn response(op: PortalsOp, request: &PortalsHeader, mlength: u64, target_offset: u64) -> Self {
        PortalsHeader {
            src: request.dst,
            dst: request.src,
            match_bits: request.match_bits,
            rlength: request.rlength,
            offset: target_offset,
            word: mlength,
            md: request.md,
            pt_index: 0,
            ac_index: 0,
            op,
            ack_req: AckReq::NoAck,
            atomic: None,
            has_md: request.has_md,
        }
    }

    /// The reply header answering a get processed at the target.
    pub fn reply_to(get_hdr: &PortalsHeader, mlength: u64, target_offset: u64) -> Self {
        debug_assert_eq!(get_hdr.op, PortalsOp::Get);
        Self::response(PortalsOp::Reply, get_hdr, mlength, target_offset)
    }

    /// The ack header answering a put processed at the target.
    pub fn ack_to(put_hdr: &PortalsHeader, mlength: u64, target_offset: u64) -> Self {
        debug_assert_eq!(put_hdr.op, PortalsOp::Put);
        Self::response(PortalsOp::Ack, put_hdr, mlength, target_offset)
    }

    /// Operation.
    pub fn op(&self) -> PortalsOp {
        self.op
    }

    /// Initiating process.
    pub fn src(&self) -> ProcessId {
        self.src
    }

    /// Target process.
    pub fn dst(&self) -> ProcessId {
        self.dst
    }

    /// Portal table index at the target (0 for Reply/Ack).
    pub fn pt_index(&self) -> u32 {
        self.pt_index
    }

    /// Access control index at the target (0 for Reply/Ack).
    pub fn ac_index(&self) -> u32 {
        self.ac_index
    }

    /// Match bits (a response echoes its request's).
    pub fn match_bits(&self) -> MatchBits {
        self.match_bits
    }

    /// Requested payload length (a response echoes its request's).
    pub fn rlength(&self) -> u64 {
        self.rlength
    }

    /// Initiator-supplied offset, meaningful when the target MD manages
    /// remote offsets (0 for Reply/Ack).
    pub fn remote_offset(&self) -> u64 {
        match self.op.is_request() {
            true => self.offset,
            false => 0,
        }
    }

    /// Acknowledgement request (puts only; `NoAck` for the rest).
    pub fn ack_req(&self) -> AckReq {
        self.ack_req
    }

    /// Out-of-band user data carried with puts (0 for the rest).
    pub fn hdr_data(&self) -> u64 {
        match self.op.is_request() {
            true => self.word,
            false => 0,
        }
    }

    /// For Get: the initiator-side MD awaiting the reply. For Reply/Ack:
    /// echoed back so the initiator can complete without matching.
    pub fn initiator_md(&self) -> Option<MdHandle> {
        self.has_md.then_some(self.md)
    }

    /// For Reply/Ack: the accepted length at the target (0 for requests).
    pub fn mlength(&self) -> u64 {
        match self.op.is_request() {
            true => 0,
            false => self.word,
        }
    }

    /// For Reply/Ack: the offset used at the target (0 for requests).
    pub fn target_offset(&self) -> u64 {
        match self.op.is_request() {
            true => 0,
            false => self.offset,
        }
    }

    /// For Put only: an atomic operation the target applies lane-wise
    /// instead of a plain deposit. `None` is an ordinary put.
    pub fn atomic(&self) -> Option<AtomicOp> {
        self.atomic
    }

    /// Overwrite a request's remote offset, spent once a match has chosen
    /// the target offset (see [`crate::library::StowedTicket`]).
    pub(crate) fn set_remote_offset(&mut self, offset: u64) {
        debug_assert!(self.op.is_request(), "only a request has a remote offset");
        self.offset = offset;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every field a header reads back, laid out as the header was before
    /// it was overlaid: the reference each round trip compares against.
    #[derive(Debug, PartialEq)]
    struct Fields {
        op: PortalsOp,
        src: ProcessId,
        dst: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        rlength: u64,
        remote_offset: u64,
        ack_req: AckReq,
        hdr_data: u64,
        initiator_md: Option<MdHandle>,
        mlength: u64,
        target_offset: u64,
        atomic: Option<AtomicOp>,
    }

    fn fields(h: &PortalsHeader) -> Fields {
        Fields {
            op: h.op(),
            src: h.src(),
            dst: h.dst(),
            pt_index: h.pt_index(),
            ac_index: h.ac_index(),
            match_bits: h.match_bits(),
            rlength: h.rlength(),
            remote_offset: h.remote_offset(),
            ack_req: h.ack_req(),
            hdr_data: h.hdr_data(),
            initiator_md: h.initiator_md(),
            mlength: h.mlength(),
            target_offset: h.target_offset(),
            atomic: h.atomic(),
        }
    }

    /// Distinct non-zero values in every field, so that a word read
    /// through the wrong half of the overlay shows.
    struct Args {
        src: ProcessId,
        dst: ProcessId,
        pt: u32,
        ac: u32,
        bits: u64,
        rlength: u64,
        remote_offset: u64,
        ack_req: AckReq,
        hdr_data: u64,
        md: MdHandle,
        mlength: u64,
        target_offset: u64,
    }

    const ARGS: Args = Args {
        src: ProcessId { nid: 1, pid: 2 },
        dst: ProcessId { nid: 3, pid: 4 },
        pt: 5,
        ac: 6,
        bits: 0xAB,
        rlength: 4096,
        remote_offset: 72,
        ack_req: AckReq::Ack,
        hdr_data: 0x11,
        md: MdHandle {
            index: 7,
            generation: 8,
        },
        mlength: 4000,
        target_offset: 96,
    };

    fn put(a: &Args) -> PortalsHeader {
        let (s, d) = (a.src, a.dst);
        let (pt, ac, bits, len, off) = (a.pt, a.ac, a.bits, a.rlength, a.remote_offset);
        PortalsHeader::put(s, d, pt, ac, bits, len, off, a.ack_req, a.hdr_data, a.md)
    }

    fn get(a: &Args) -> PortalsHeader {
        let (pt, ac, bits, len, off) = (a.pt, a.ac, a.bits, a.rlength, a.remote_offset);
        PortalsHeader::get(a.src, a.dst, pt, ac, bits, len, off, a.md)
    }

    /// What `put` was given, and 0/`None` for the response half.
    fn put_fields(a: &Args) -> Fields {
        Fields {
            op: PortalsOp::Put,
            src: a.src,
            dst: a.dst,
            pt_index: a.pt,
            ac_index: a.ac,
            match_bits: a.bits,
            rlength: a.rlength,
            remote_offset: a.remote_offset,
            ack_req: a.ack_req,
            hdr_data: a.hdr_data,
            initiator_md: Some(a.md),
            mlength: 0,
            target_offset: 0,
            atomic: None,
        }
    }

    fn get_fields(a: &Args) -> Fields {
        Fields {
            op: PortalsOp::Get,
            ack_req: AckReq::NoAck,
            hdr_data: 0,
            ..put_fields(a)
        }
    }

    /// The response `op` to a request made of `a`: direction reversed,
    /// bits, length and MD echoed, and 0/`None` for the request half.
    fn response_fields(op: PortalsOp, a: &Args) -> Fields {
        Fields {
            op,
            src: a.dst,
            dst: a.src,
            pt_index: 0,
            ac_index: 0,
            match_bits: a.bits,
            rlength: a.rlength,
            remote_offset: 0,
            ack_req: AckReq::NoAck,
            hdr_data: 0,
            initiator_md: Some(a.md),
            mlength: a.mlength,
            target_offset: a.target_offset,
            atomic: None,
        }
    }

    #[test]
    fn put_round_trips() {
        assert_eq!(fields(&put(&ARGS)), put_fields(&ARGS));
    }

    #[test]
    fn atomic_put_round_trips() {
        for op in [AtomicOp::Sum, AtomicOp::Max, AtomicOp::Replace] {
            let h = put(&ARGS).with_atomic(op);
            let want = Fields {
                atomic: Some(op),
                ..put_fields(&ARGS)
            };
            assert_eq!(fields(&h), want);
        }
    }

    #[test]
    fn get_round_trips() {
        assert_eq!(fields(&get(&ARGS)), get_fields(&ARGS));
    }

    #[test]
    fn reply_round_trips() {
        let r = PortalsHeader::reply_to(&get(&ARGS), ARGS.mlength, ARGS.target_offset);
        assert_eq!(fields(&r), response_fields(PortalsOp::Reply, &ARGS));
    }

    #[test]
    fn ack_round_trips() {
        let a = PortalsHeader::ack_to(&put(&ARGS), ARGS.mlength, ARGS.target_offset);
        assert_eq!(fields(&a), response_fields(PortalsOp::Ack, &ARGS));
    }

    proptest! {
        /// Every constructor over random field values reads back what it
        /// was given, and 0/`None` for the half of the overlay its
        /// operation does not carry.
        #[test]
        fn every_constructor_round_trips(
            nids in (any::<u32>(), any::<u32>()),
            pids in (any::<u32>(), any::<u32>()),
            pt in any::<u32>(),
            ac in any::<u32>(),
            bits in any::<u64>(),
            rlength in any::<u64>(),
            remote_offset in any::<u64>(),
            ack in any::<bool>(),
            hdr_data in any::<u64>(),
            md in (any::<u32>(), any::<u32>()),
            mlength in any::<u64>(),
            target_offset in any::<u64>(),
        ) {
            let a = Args {
                src: ProcessId::new(nids.0, pids.0),
                dst: ProcessId::new(nids.1, pids.1),
                pt,
                ac,
                bits,
                rlength,
                remote_offset,
                ack_req: if ack { AckReq::Ack } else { AckReq::NoAck },
                hdr_data,
                md: MdHandle { index: md.0, generation: md.1 },
                mlength,
                target_offset,
            };
            let (p, g) = (put(&a), get(&a));
            prop_assert_eq!(fields(&p), put_fields(&a));
            prop_assert_eq!(fields(&g), get_fields(&a));
            let reply = PortalsHeader::reply_to(&g, mlength, target_offset);
            prop_assert_eq!(fields(&reply), response_fields(PortalsOp::Reply, &a));
            let ack = PortalsHeader::ack_to(&p, mlength, target_offset);
            prop_assert_eq!(fields(&ack), response_fields(PortalsOp::Ack, &a));
        }
    }

    /// The overlay's payoff, pinned: 88 B as fourteen separate fields, 72
    /// B with the request and response words shared and the four byte
    /// fields in one word.
    #[test]
    fn the_header_is_seventy_two_bytes() {
        assert_eq!(std::mem::size_of::<PortalsHeader>(), 72);
    }
}
