//! Simulation events: what the queue carries, which node owns each, and
//! how each folds into the replay digest.

use crate::wire::WireMsg;
use xt3_firmware::pending::PendingId;
use xt3_sim::{EventDigest, FwFaultKind, SimTime};

/// A message in flight: the wire body plus when its last byte lands.
#[derive(Debug)]
pub struct InFlight {
    /// The message.
    pub msg: WireMsg,
    /// When the last byte reaches the destination NIC.
    pub complete_at: SimTime,
    /// The end-to-end 32-bit CRC will reject this payload (§2).
    pub corrupted: bool,
}

/// Simulation events.
#[derive(Debug)]
pub enum Ev {
    /// First activation of an app.
    AppStart {
        /// Node index.
        node: u32,
        /// Process id.
        pid: u32,
    },
    /// An app's wait is (possibly) satisfied.
    AppWake {
        /// Node index.
        node: u32,
        /// Process id.
        pid: u32,
    },
    /// Commands are waiting in a firmware mailbox.
    FwCmd {
        /// Node index.
        node: u32,
        /// Firmware-level process.
        fw_proc: u32,
    },
    /// The TX DMA engine finished the head-of-list transmit.
    TxDmaDone {
        /// Node index.
        node: u32,
    },
    /// A message header reached a node's NIC.
    NetHeader {
        /// Destination node index.
        node: u32,
        /// The message and its completion time. Boxed deliberately: one
        /// allocation per *message* keeps `Ev` small (16 B instead of
        /// ~176 B), and every queue slot, bucket entry, and slab
        /// `take()` copies an `Ev` on every *event*. Always `Some` in a
        /// queued event; dispatch `take`s it, which is what lets a
        /// partitioned shard send the emptied box home (see
        /// [`super::SendIntent`]'s `spare`) instead of freeing it.
        inflight: Box<Option<InFlight>>,
    },
    /// The RX DMA finished depositing a pending.
    RxDepositDone {
        /// Node index.
        node: u32,
        /// Firmware-level process.
        fw_proc: u32,
        /// The pending.
        pending: PendingId,
    },
    /// The host interrupt line fired.
    HostInterrupt {
        /// Node index.
        node: u32,
    },
    /// Periodic RAS heartbeat tick on a node's firmware.
    RasHeartbeat {
        /// Node index.
        node: u32,
    },
    /// Go-back-n retransmission timeout for one peer.
    GbnTimeout {
        /// Sending node index.
        node: u32,
        /// Destination node id.
        peer: u32,
    },
    /// A scheduled fault-plan firmware event fires on a node.
    FaultAt {
        /// Affected node index.
        node: u32,
        /// Stall or unrecoverable fault. Boxed like the header above:
        /// `Stall(SimTime)` is 16 bytes, and inline it would make this
        /// handful-per-campaign variant the one that sizes every queue
        /// entry (24-byte `Ev` instead of 16).
        kind: Box<FwFaultKind>,
    },
}

impl Ev {
    /// The node whose state this event mutates — its digest lane, and
    /// the shard that must dispatch it in a partitioned run.
    pub fn owner(&self) -> u32 {
        match self {
            Ev::AppStart { node, .. }
            | Ev::AppWake { node, .. }
            | Ev::FwCmd { node, .. }
            | Ev::TxDmaDone { node }
            | Ev::NetHeader { node, .. }
            | Ev::RxDepositDone { node, .. }
            | Ev::HostInterrupt { node }
            | Ev::RasHeartbeat { node }
            | Ev::GbnTimeout { node, .. }
            | Ev::FaultAt { node, .. } => *node,
        }
    }

    /// Fold the event kind plus every identifying field into the replay
    /// digest, so any reordering or substitution of events between two
    /// same-seed runs — the signature of nondeterministic state (map
    /// iteration order, tie-break drift) — changes the digest at the
    /// first divergent dispatch.
    pub(super) fn fingerprint(&self, digest: &mut EventDigest) {
        match self {
            Ev::AppStart { node, pid } => {
                digest.write_u8(0);
                digest.write_u32(*node);
                digest.write_u32(*pid);
            }
            Ev::AppWake { node, pid } => {
                digest.write_u8(1);
                digest.write_u32(*node);
                digest.write_u32(*pid);
            }
            Ev::FwCmd { node, fw_proc } => {
                digest.write_u8(2);
                digest.write_u32(*node);
                digest.write_u32(*fw_proc);
            }
            Ev::TxDmaDone { node } => {
                digest.write_u8(3);
                digest.write_u32(*node);
            }
            Ev::NetHeader { node, inflight } => {
                let inflight = inflight
                    .as_ref()
                    .as_ref()
                    .expect("a queued header carries its message");
                digest.write_u8(4);
                digest.write_u32(*node);
                digest.write_u64(inflight.complete_at.0);
                digest.write_u8(inflight.corrupted as u8);
                digest.write_u64(inflight.msg.tag);
                digest.write_u64(inflight.msg.wire_bytes());
                match inflight.msg.seq {
                    Some(seq) => digest.write_u64(1 + seq),
                    None => digest.write_u64(0),
                }
            }
            Ev::RxDepositDone {
                node,
                fw_proc,
                pending,
            } => {
                digest.write_u8(5);
                digest.write_u32(*node);
                digest.write_u32(*fw_proc);
                digest.write_u32(*pending);
            }
            Ev::HostInterrupt { node } => {
                digest.write_u8(6);
                digest.write_u32(*node);
            }
            Ev::RasHeartbeat { node } => {
                digest.write_u8(7);
                digest.write_u32(*node);
            }
            Ev::GbnTimeout { node, peer } => {
                digest.write_u8(8);
                digest.write_u32(*node);
                digest.write_u32(*peer);
            }
            Ev::FaultAt { node, kind } => {
                digest.write_u8(9);
                digest.write_u32(*node);
                match kind.as_ref() {
                    FwFaultKind::Stall(d) => {
                        digest.write_u8(0);
                        digest.write_u64(d.0);
                    }
                    FwFaultKind::Fault => digest.write_u8(1),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev_is_sixteen_bytes() {
        // Every queue entry, bucket entry and deferred intent carries one:
        // 40-byte queue entries instead of 48 are what pays for the event
        // queue's near tiers (DESIGN.md §8, "The ladder step"). The two
        // variants that would not fit, `NetHeader` and `FaultAt`, box
        // their payload.
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }
}
