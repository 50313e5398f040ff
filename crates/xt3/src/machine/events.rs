//! Simulation events: what the queue carries, which node owns each, and
//! how each folds into the replay digest.

use crate::node::RxRecord;
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
    /// A go-back-n retransmission: its causal stages chain as a copy of
    /// their own.
    pub resent: bool,
}

/// A message's delivery box, and then its receive record: one heap
/// block per message, from the fabric to the end of its receive.
///
/// `apply_send` fills it with the [`InFlight`] message. When the
/// destination firmware takes the header, the box is rewritten in place
/// into the message's upper pending (paper §4.2) and the node's RX row
/// keeps the box itself. Whatever ends the message — a refusal at the
/// header, a match that found nothing, a finished receive — hands the
/// box back (`Machine::recycle`).
///
/// The states share one type so that landing rewrites the block in
/// place: a box per state would cost a second allocation per message.
/// So a read in the wrong state is a panic, and the invariant that rules
/// it out is the `#[expect]` on the accessors.
#[derive(Debug)]
pub struct Parcel(Cargo);

#[derive(Debug)]
enum Cargo {
    Empty,
    InFlight(InFlight),
    Landed(RxRecord),
}

#[expect(
    clippy::panic,
    reason = "a box is in flight while a NetHeader event holds it, and landed once an RX row does"
)]
impl Parcel {
    /// A new box carrying `inflight`.
    pub(crate) fn boxed(inflight: InFlight) -> Box<Parcel> {
        Box::new(Parcel(Cargo::InFlight(inflight)))
    }

    /// Load an emptied box with `inflight`.
    pub(crate) fn refill(&mut self, inflight: InFlight) {
        debug_assert!(matches!(self.0, Cargo::Empty), "refilled a full box");
        self.0 = Cargo::InFlight(inflight);
    }

    /// The message a queued header carries.
    pub(crate) fn in_flight(&self) -> &InFlight {
        match &self.0 {
            Cargo::InFlight(inflight) => inflight,
            _ => panic!("a queued header carries its message"),
        }
    }

    /// The firmware took the header: the message becomes its receive
    /// record, in the same box.
    pub(crate) fn land(&mut self) {
        let Cargo::InFlight(InFlight {
            msg, complete_at, ..
        }) = std::mem::replace(&mut self.0, Cargo::Empty)
        else {
            panic!("only a message in flight lands");
        };
        self.0 = Cargo::Landed(RxRecord {
            header: msg.header,
            data: msg.data,
            wire_complete: complete_at,
            stowed: None,
            tag: msg.tag,
        });
    }

    /// The receive record of a landed box.
    pub(crate) fn record(&self) -> &RxRecord {
        match &self.0 {
            Cargo::Landed(rec) => rec,
            _ => panic!("no receive record in this box"),
        }
    }

    /// The receive record of a landed box, mutably.
    pub(crate) fn record_mut(&mut self) -> &mut RxRecord {
        match &mut self.0 {
            Cargo::Landed(rec) => rec,
            _ => panic!("no receive record in this box"),
        }
    }

    /// Drop what the box holds and keep the allocation.
    pub(crate) fn empty(&mut self) {
        self.0 = Cargo::Empty;
    }
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
        /// the ~130 B of an inline message), and every queue slot,
        /// bucket entry, and slab `take()` copies an `Ev` on every
        /// *event*. The box outlives the event: when the firmware takes
        /// the header it becomes the receive record (see [`Parcel`]),
        /// and a partitioned shard sends every box it is done with home
        /// (see [`super::SendIntent`]'s `spare`) instead of freeing it.
        parcel: Box<Parcel>,
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
            Ev::NetHeader { node, parcel } => {
                let inflight = parcel.in_flight();
                digest.write_u8(4);
                digest.write_u32(*node);
                digest.write_u64(inflight.complete_at.0);
                digest.write_u8(inflight.corrupted as u8);
                digest.write_u64(inflight.msg.tag);
                digest.write_u64(inflight.msg.wire_bytes());
                match inflight.msg.seq() {
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
