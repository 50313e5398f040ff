//! The wire message format.
//!
//! What actually crosses the fabric: a Portals header (riding in the first
//! 64-byte packet; 72 B here, see [`PortalsHeader`]), the payload, and — when the go-back-n exhaustion
//! policy is active — per-peer sequencing information.

use xt3_firmware::gbn::SeqNo;
use xt3_portals::header::PortalsHeader;
use xt3_portals::library::WireData;
use xt3_topology::link::LinkConfig;

/// Control vs. data classification of a wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// A Portals message (Put/Get/Reply/Ack header plus payload).
    Data {
        /// Go-back-n sequence (under the GoBackN policy, once the
        /// sender's window admits the message). Only data is sequenced
        /// (§4.3), so the sequence rides in this kind.
        seq: Option<SeqNo>,
    },
    /// Go-back-n negative acknowledgement: "rewind to `expected`".
    GbnNack {
        /// Next sequence the receiver will accept.
        expected: SeqNo,
    },
    /// Go-back-n cumulative acknowledgement: everything below `upto`
    /// arrived.
    GbnAck {
        /// One past the highest accepted sequence.
        upto: SeqNo,
    },
}

/// One message on the wire.
#[derive(Debug, Clone)]
pub struct WireMsg {
    /// The Portals header (for control messages, a minimal header naming
    /// source and destination).
    pub header: PortalsHeader,
    /// Payload.
    pub data: WireData,
    /// Kind (a data message's go-back-n sequence rides in it).
    pub kind: WireKind,
    /// Correlation tag (the message's causal [`xt3_sim::TraceId`]).
    pub tag: u64,
}

impl WireMsg {
    /// Payload bytes this message puts on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self.kind {
            WireKind::Data { .. } => self.data.len(),
            _ => 0,
        }
    }

    /// Whether this payload fits the header-packet piggyback window.
    pub fn piggybacked(&self, link: &LinkConfig) -> bool {
        matches!(self.kind, WireKind::Data { .. }) && link.piggybacks(self.data.len())
    }

    /// The go-back-n sequence: `None` for an unsequenced data message and
    /// for every control message.
    pub fn seq(&self) -> Option<SeqNo> {
        match self.kind {
            WireKind::Data { seq } => seq,
            _ => None,
        }
    }

    /// Sequence a data message. Control messages are never sequenced: a
    /// debug build asserts on one, a release build leaves it untouched.
    pub fn set_seq(&mut self, seq: SeqNo) {
        debug_assert!(
            matches!(self.kind, WireKind::Data { .. }),
            "only a data message is sequenced"
        );
        if let WireKind::Data { seq: s } = &mut self.kind {
            *s = Some(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt3_portals::types::{AckReq, MdHandle, ProcessId};

    fn hdr() -> PortalsHeader {
        PortalsHeader::put(
            ProcessId::new(0, 0),
            ProcessId::new(1, 0),
            0,
            0,
            0,
            13,
            0,
            AckReq::NoAck,
            0,
            MdHandle {
                index: 0,
                generation: 0,
            },
        )
    }

    fn msg(kind: WireKind) -> WireMsg {
        WireMsg {
            header: hdr(),
            data: WireData::Synthetic(8),
            kind,
            tag: 0,
        }
    }

    #[test]
    fn piggyback_threshold() {
        let mut m = msg(WireKind::Data { seq: None });
        m.data = WireData::Synthetic(12);
        let link = LinkConfig::default();
        assert!(m.piggybacked(&link));
        m.data = WireData::Synthetic(13);
        assert!(!m.piggybacked(&link));
        m.kind = WireKind::GbnAck { upto: 5 };
        assert!(!m.piggybacked(&link), "control messages never piggyback");
    }

    #[test]
    fn control_messages_carry_no_wire_payload() {
        let mut m = msg(WireKind::GbnNack { expected: 3 });
        m.data = WireData::Synthetic(1000);
        assert_eq!(m.wire_bytes(), 0);
    }

    #[test]
    fn the_sequence_rides_in_the_data_kind() {
        let mut m = msg(WireKind::Data { seq: None });
        assert_eq!(m.seq(), None, "a fresh data message is unsequenced");
        m.set_seq(7);
        assert_eq!(m.seq(), Some(7));
        assert_eq!(m.kind, WireKind::Data { seq: Some(7) });
        for kind in [
            WireKind::GbnAck { upto: 5 },
            WireKind::GbnNack { expected: 3 },
        ] {
            assert_eq!(msg(kind).seq(), None, "{kind:?} carries no sequence");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "only a data message"))]
    fn sequencing_an_ack_is_refused() {
        let mut m = msg(WireKind::GbnAck { upto: 5 });
        m.set_seq(1);
        assert_eq!(m.kind, WireKind::GbnAck { upto: 5 });
        assert_eq!(m.seq(), None);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "only a data message"))]
    fn sequencing_a_nack_is_refused() {
        let mut m = msg(WireKind::GbnNack { expected: 3 });
        m.set_seq(1);
        assert_eq!(m.kind, WireKind::GbnNack { expected: 3 });
        assert_eq!(m.seq(), None);
    }

    /// The sequence folded into the kind: the kind is a tag and a
    /// `SeqNo`, and a message is header, payload, kind and tag: 128 B
    /// with an 88 B header, 112 B with the 72 B one. Layout is rustc's
    /// choice, so these pins fence it.
    #[test]
    fn wire_sizes() {
        assert_eq!(std::mem::size_of::<WireKind>(), 16);
        assert_eq!(std::mem::size_of::<WireMsg>(), 112);
    }
}
