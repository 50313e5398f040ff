//! The wire message format.
//!
//! What actually crosses the fabric: a Portals header (riding in the first
//! 64-byte packet), the payload, and — when the go-back-n exhaustion
//! policy is active — per-peer sequencing information.

use xt3_firmware::gbn::SeqNo;
use xt3_portals::header::PortalsHeader;
use xt3_portals::library::WireData;
use xt3_seastar::cost::CostModel;

/// Control vs. data classification of a wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// A Portals message (Put/Get/Reply/Ack header plus payload).
    Data,
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
    /// Kind.
    pub kind: WireKind,
    /// Go-back-n sequence (data messages under the GoBackN policy).
    pub seq: Option<SeqNo>,
    /// Trace correlation tag.
    pub tag: u64,
}

impl WireMsg {
    /// Payload bytes this message puts on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self.kind {
            WireKind::Data => self.data.len(),
            _ => 0,
        }
    }

    /// Whether this payload fits the header-packet piggyback window.
    pub fn piggybacked(&self, cm: &CostModel) -> bool {
        matches!(self.kind, WireKind::Data) && cm.piggybacks(self.data.len())
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

    #[test]
    fn piggyback_threshold() {
        let mut m = WireMsg {
            header: hdr(),
            data: WireData::Synthetic(12),
            kind: WireKind::Data,
            seq: None,
            tag: 0,
        };
        let cm = CostModel::paper();
        assert!(m.piggybacked(&cm));
        m.data = WireData::Synthetic(13);
        assert!(!m.piggybacked(&cm));
        m.kind = WireKind::GbnAck { upto: 5 };
        assert!(!m.piggybacked(&cm), "control messages never piggyback");
    }

    #[test]
    fn control_messages_carry_no_wire_payload() {
        let m = WireMsg {
            header: hdr(),
            data: WireData::Synthetic(1000),
            kind: WireKind::GbnNack { expected: 3 },
            seq: None,
            tag: 0,
        };
        assert_eq!(m.wire_bytes(), 0);
    }
}
