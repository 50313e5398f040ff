//! The fabric seam: everything between "this message leaves the NIC"
//! and "its header event is queued at the destination".
//!
//! Three things live here and nowhere else. [`NetMode`] — whether a
//! send walks the shared fabric inline (serial) or is buffered as a
//! [`SendIntent`] for the parallel coordinator — with
//! [`Machine::split`] / [`Machine::merge`] and the [`Partitioned`] drain
//! that switch a machine between the two. [`Machine::inject`], the one
//! place a message's wire fate is decided under a fault plan. And the
//! go-back-n transport that wraps data messages when the exhaustion
//! policy asks for it: sequencing on the way out, the receiver's
//! NACK/re-ACK reaction, window deferral and the retransmission timer.

use super::{Ev, InFlight, Machine, Nodes, Parcel};
use crate::config::ExhaustionPolicy;
use crate::wire::{WireKind, WireMsg};
use xt3_firmware::gbn::{GbnEvent, GbnSender, SeqNo};
use xt3_portals::header::PortalsHeader;
use xt3_portals::library::WireData;
use xt3_portals::types::{AckReq, MdHandle, ProcessId};
use xt3_seastar::ppc::FwHandler;
use xt3_sim::{CausalLog, CausalStage, EventQueue, PacketFate, Partitioned, SimTime, TraceId};
use xt3_telemetry::Telemetry;
use xt3_topology::coord::{Dims, NodeId};
use xt3_topology::fabric::{Fabric, NetMessage};

/// Go-back-n sender window.
const GBN_WINDOW: usize = 64;
/// Go-back-n retransmission timeout (sender side).
const GBN_TIMEOUT: SimTime = SimTime::from_us(200);

/// How the machine interacts with the fabric.
#[derive(Default)]
pub(super) enum NetMode {
    /// Serial: sends walk the fabric inline during dispatch.
    #[default]
    Inline,
    /// One shard of a partitioned run: sends are buffered as intents in
    /// generation order; the coordinator replays them against the shared
    /// fabric at the next window boundary in exact serial order.
    Deferred {
        intents: Vec<SendIntent>,
        /// Emptied boxes of the messages this shard is done with:
        /// headers it refused and receives it finished. The
        /// coordinator's thread allocated them, so freeing them here
        /// would take the allocator's cross-thread path on every
        /// message; each instead rides home in the shard's next intent
        /// ([`SendIntent::spare`]) and carries a later delivery.
        #[allow(clippy::vec_box)] // the allocations are what is kept
        spares: Vec<Box<Parcel>>,
    },
}

/// One deferred fabric send. Carries everything [`apply_send`] needs to
/// reproduce the serial engine's fabric walk — including the dispatch
/// instant (`at`) and scheduling key (`cur_key`) of the event that
/// performed the send, which together order intents across shards
/// exactly as the serial engine's inline walks interleave.
pub struct SendIntent {
    /// Dispatch time of the sending event.
    pub(crate) at: SimTime,
    /// Scheduling key of the sending event.
    pub(crate) cur_key: u64,
    /// Pre-reserved scheduling key for the delivery (`Ev::NetHeader`).
    pub(crate) delivery_key: u64,
    /// When the header packet is presented to the source router.
    pub(crate) inject_at: SimTime,
    /// When the TX DMA stream finishes feeding the payload.
    pub(crate) dma_done: SimTime,
    /// The wire message.
    pub(crate) msg: WireMsg,
    /// Fault plan forced an end-to-end CRC rejection.
    pub(crate) forced_corrupt: bool,
    /// A go-back-n retransmission (see [`InFlight::resent`]).
    pub(crate) resent: bool,
    /// Fault plan reorder delay.
    pub(crate) extra_delay: SimTime,
    /// An emptied delivery box for [`apply_send`] to refill, when the
    /// sending shard had one to return (never in a serial run).
    pub(crate) spare: Option<Box<Parcel>>,
}

/// Walk one send through the fabric and produce its delivery event.
/// This is the single definition of the fabric interaction — the serial
/// engine calls it inline from [`Machine::inject`]; the parallel
/// coordinator calls it between windows with the shards' drained
/// intents in serial order. `telemetry` and `causal` are whichever
/// sinks own the fabric-side records in that mode.
pub(crate) fn apply_send(
    fabric: &mut Fabric,
    telemetry: &mut Telemetry,
    causal: &mut CausalLog,
    intent: SendIntent,
) -> (SimTime, u64, Ev) {
    let SendIntent {
        inject_at,
        dma_done,
        msg,
        forced_corrupt,
        resent,
        extra_delay,
        delivery_key,
        spare,
        ..
    } = intent;
    let src = NodeId(msg.header.src().nid);
    let dst = NodeId(msg.header.dst().nid);
    let tag = msg.tag;
    let wire_bytes = msg.wire_bytes();
    causal.set_resent(resent);
    causal.record_chain(TraceId(tag), CausalStage::TxInject, inject_at, src.0, 0);
    let d = fabric.send_full(
        inject_at, // the header packet leaves as soon as it is fetched
        NetMessage {
            src,
            dst,
            payload_bytes: wire_bytes,
            tag,
            body: msg,
        },
        telemetry,
        causal,
    );
    causal.set_resent(false);
    let head_latency = d.header_at.saturating_sub(inject_at);
    let complete_at = d.complete_at.max(dma_done + head_latency) + extra_delay;
    let inflight = InFlight {
        msg: d.msg.body,
        complete_at,
        corrupted: forced_corrupt,
        resent,
    };
    let parcel = match spare {
        Some(mut spare) => {
            spare.refill(inflight);
            spare
        }
        None => Parcel::boxed(inflight),
    };
    (
        d.header_at + extra_delay,
        delivery_key,
        Ev::NetHeader {
            node: dst.0,
            parcel,
        },
    )
}

impl Machine {
    /// Put a message on the wire at `inject_at`; delivery is throttled by
    /// the slower of the fabric and the TX DMA stream (`dma_done`).
    /// `resent`: a go-back-n retransmission of a message sent before.
    pub(super) fn inject(
        &mut self,
        q: &mut EventQueue<Ev>,
        inject_at: SimTime,
        dma_done: SimTime,
        msg: WireMsg,
        resent: bool,
    ) {
        let src = NodeId(msg.header.src().nid);
        let dst = NodeId(msg.header.dst().nid);
        let tag = msg.tag;

        // Reserve the delivery's scheduling key up front, from the
        // *source* node's counter (every inject call site runs while
        // dispatching an event the source owns; the destination may live
        // on another shard). Unconditional — even a dropped message
        // consumes its key — so counters advance identically whether or
        // not the fault plan interferes, and identically in serial and
        // partitioned runs.
        let delivery_key = self.next_key(src.0);

        // Fault plan: decide this message's wire fate before it touches
        // the fabric (loopback never reaches the wire).
        let mut forced_corrupt = false;
        let mut extra_delay = SimTime::ZERO;
        if self.faults.active() && src != dst {
            // A corrupted data payload escapes the link CRC and is left
            // for the receiver's end-to-end 32-bit check (§2); a
            // corrupted ACK/NACK fails its CRC at the link and is
            // discarded — equivalent to a drop.
            let data = matches!(msg.kind, WireKind::Data { .. });
            let lost = match self.faults.packet_fate(inject_at, src.0, dst.0, tag, !data) {
                PacketFate::Deliver => false,
                PacketFate::Drop => true,
                PacketFate::Corrupt if data => {
                    forced_corrupt = true;
                    false
                }
                PacketFate::Corrupt => true,
                PacketFate::Delay(d) => {
                    extra_delay = d;
                    false
                }
            };
            if lost {
                return;
            }
        }

        // The causal TxInject record lives in `apply_send` (rather than
        // `start_tx_dma`) so go-back-n deferrals and retransmissions
        // stamp the *actual* inject time.
        let mut intent = SendIntent {
            at: self.cur_now,
            cur_key: self.cur_key,
            delivery_key,
            inject_at,
            dma_done,
            msg,
            forced_corrupt,
            resent,
            extra_delay,
            spare: None,
        };
        match &mut self.net {
            NetMode::Inline => {
                let (at, key, ev) = apply_send(
                    &mut self.fabric,
                    &mut self.telemetry,
                    &mut self.causal,
                    intent,
                );
                q.schedule_keyed(at, key, ev);
            }
            NetMode::Deferred { intents, spares } => {
                intent.spare = spares.pop();
                intents.push(intent);
            }
        }
    }

    /// A run starts: a serial machine hands its causal folding and link
    /// series to the fabric's consumer thread until the settle that ends
    /// the run (`Model::settle`). A shard of a partitioned run has
    /// neither; the coordinator offloads the real fabric.
    pub(super) fn observe(&mut self) {
        self.observing = true;
        if matches!(self.net, NetMode::Inline) {
            self.fabric.offload(&mut self.causal);
        }
    }

    /// Hand back the box of a message this node is done with: a header
    /// it refused, or a receive it finished. The serial engine frees it;
    /// a partitioned shard empties it to send home with its next intent.
    pub(super) fn recycle(&mut self, mut parcel: Box<Parcel>) {
        if let NetMode::Deferred { spares, .. } = &mut self.net {
            parcel.empty();
            spares.push(parcel);
        }
    }

    // ----- go-back-n -----

    /// Sequence an outgoing data message under the go-back-n policy.
    /// `None` when the peer's window is full: the message was parked and
    /// leaves when an ACK opens the window.
    pub(super) fn gbn_sequence(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        mut msg: WireMsg,
    ) -> Option<WireMsg> {
        if self.config.exhaustion != ExhaustionPolicy::GoBackN {
            return Some(msg);
        }
        let dst = msg.header.dst().nid;
        let peers = self.nodes[node].peer_state();
        let sender = peers
            .gbn_tx
            .entry(dst)
            .or_insert_with(|| GbnSender::new(GBN_WINDOW));
        match sender.send(msg.clone()) {
            Some(seq) => {
                msg.set_seq(seq);
                self.arm_gbn_timer(q, t, node, dst, self.faults.active());
                Some(msg)
            }
            None => {
                peers.gbn_deferred.entry(dst).or_default().push_back(msg);
                None
            }
        }
    }

    /// A go-back-n NACK from `from_node` reached `node`'s NIC: rewind.
    pub(super) fn on_gbn_nack(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        from_node: u32,
        expected: SeqNo,
    ) {
        let t = self.ppc_run(node, FwHandler::RxHeader, now);
        let resend = self.nodes[node]
            .peer_state()
            .gbn_tx
            .get_mut(&from_node)
            .map(|s| s.nack(expected))
            .unwrap_or_default();
        // Suppressed duplicate: arm the retransmission timer so a dropped
        // retransmission is eventually repaired.
        self.arm_gbn_timer(q, t, node, from_node, resend.is_empty());
        self.resend(q, t, resend);
        // Under an active fault plan the retransmission itself can be
        // lost; keep a timer armed while anything is in flight.
        self.arm_gbn_timer(q, t, node, from_node, self.faults.active());
    }

    /// A cumulative go-back-n ACK from `from_node` reached `node`'s NIC.
    pub(super) fn on_gbn_ack(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        from_node: u32,
        upto: SeqNo,
    ) {
        let t = self.ppc_run(node, FwHandler::Completion, now);
        if let Some(s) = self.nodes[node].peer_state().gbn_tx.get_mut(&from_node) {
            s.ack(upto);
        }
        self.drain_gbn_deferred(q, t, node, from_node);
    }

    /// The retransmission timer for `peer` fired on `node`.
    pub(super) fn on_gbn_timeout(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        peer: u32,
    ) {
        let peers = self.nodes[node].peer_state();
        peers.gbn_timer_armed.remove(&peer);
        let resend = peers
            .gbn_tx
            .get_mut(&peer)
            .filter(|s| s.in_flight() > 0)
            .map(|s| s.timeout_retransmit())
            .unwrap_or_default();
        self.resend(q, now, resend);
        // The retransmission itself can be lost under an active
        // fault plan: keep a timer running while unacked.
        self.arm_gbn_timer(q, now, node, peer, self.faults.active());
    }

    fn resend(&mut self, q: &mut EventQueue<Ev>, t: SimTime, window: Vec<(SeqNo, WireMsg)>) {
        for (seq, mut m) in window {
            m.set_seq(seq);
            self.inject(q, t, t, m, true);
        }
    }

    /// A sequenced data message that will not be delivered — out of
    /// order, rejected by the end-to-end CRC (`usable == false`) — is
    /// NACKed back to the expected sequence. A duplicate is dropped
    /// silently, except under an active fault plan, where it is re-ACKed:
    /// a retransmitted message whose ACK was lost would otherwise stall
    /// the sender until its timeout.
    pub(super) fn gbn_refuse(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        from_node: u32,
        seq: SeqNo,
        usable: bool,
    ) {
        let rx = self.nodes[node].peer_state().gbn_rx.entry(from_node);
        let rx = rx.or_default();
        let kind = match rx.on_arrival(seq, usable) {
            GbnEvent::Nack { expected } => WireKind::GbnNack { expected },
            GbnEvent::Duplicate if self.faults.active() => WireKind::GbnAck {
                upto: rx.expected(),
            },
            _ => return,
        };
        self.send_gbn_control(q, t, node, from_node, kind);
    }

    pub(super) fn send_gbn_control(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        to_node: u32,
        kind: WireKind,
    ) {
        let my = self.nodes[node].id.0;
        let header = PortalsHeader::put(
            ProcessId::new(my, 0),
            ProcessId::new(to_node, 0),
            0,
            0,
            0,
            0,
            0,
            AckReq::NoAck,
            0,
            MdHandle {
                index: 0,
                generation: 0,
            },
        );
        let msg = WireMsg {
            header,
            data: WireData::Synthetic(0),
            kind,
            tag: 0,
        };
        self.inject(q, t, t, msg, false);
    }

    fn drain_gbn_deferred(&mut self, q: &mut EventQueue<Ev>, t: SimTime, node: usize, dst: u32) {
        loop {
            let peers = self.nodes[node].peer_state();
            let Some(deferred) = peers.gbn_deferred.get_mut(&dst) else {
                return;
            };
            let Some(msg) = deferred.front() else { return };
            let sender = peers
                .gbn_tx
                .get_mut(&dst)
                .expect("sender exists when deferred");
            let Some(seq) = sender.send(msg.clone()) else {
                return;
            };
            let mut msg = deferred.pop_front().expect("the front was sent");
            msg.set_seq(seq);
            self.inject(q, t, t, msg, false);
            self.arm_gbn_timer(q, t, node, dst, self.faults.active());
        }
    }

    /// Arm the per-peer retransmission timer (one at a time) if `wanted`
    /// and something is in flight. Callers pass the fault plan's
    /// `active()` as the gate: without injected faults the only loss mode
    /// is resource exhaustion, which always produces a NACK, so the
    /// baseline keeps its narrower timer policy (and its exact event
    /// schedule); under injected loss an ACK/NACK can vanish outright and
    /// only a timer recovers. The one ungated caller is a NACK the sender
    /// suppressed as a duplicate.
    fn arm_gbn_timer(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        peer: u32,
        wanted: bool,
    ) {
        let peers = self.nodes[node].peer_state();
        let in_flight = peers.gbn_tx.get(&peer).map_or(0, |s| s.in_flight());
        if wanted && in_flight > 0 && peers.gbn_timer_armed.insert(peer) {
            let key = self.next_key(node as u32);
            q.schedule_keyed(
                t + GBN_TIMEOUT,
                key,
                Ev::GbnTimeout {
                    node: node as u32,
                    peer,
                },
            );
        }
    }

    // ----- partitioning -----

    /// Partition a freshly built (not yet run) machine into `shards`
    /// contiguous node slabs for a parallel run. Returns the shard
    /// machines plus the real fabric, which the *coordinator* owns: the
    /// shards get placeholder fabrics they never touch (their sends are
    /// deferred as [`SendIntent`]s and replayed by the coordinator in
    /// serial order), and no registry or causal log: nothing would read
    /// what they recorded ([`Machine::merge`] builds fresh sinks).
    pub fn split(mut self, shards: usize) -> (Vec<Machine>, Fabric) {
        assert!(shards > 0, "at least one shard");
        assert!(
            self.nodes.base == 0 && matches!(self.net, NetMode::Inline),
            "only a full serial machine can be split"
        );
        assert!(
            self.nodes.iter().all(|n| n.hot.key_ctr == 0),
            "split before running: key counters must be untouched"
        );
        let node_count = self.nodes.len();
        let shards = shards.min(node_count);
        let per = node_count.div_ceil(shards);
        let fabric_config = self.config.fabric;
        let placeholder = || Fabric::new(Dims::mesh(1, 1, 1), fabric_config);
        let fabric = std::mem::replace(&mut self.fabric, placeholder());
        let mut slabs = self.nodes.inner;
        let mut out = Vec::with_capacity(shards);
        let mut base = 0usize;
        while !slabs.is_empty() {
            let take = per.min(slabs.len());
            let rest = slabs.split_off(take);
            let mut inner = std::mem::replace(&mut slabs, rest);
            // The first slab would otherwise keep the whole machine's
            // buffer for the length of the run.
            inner.shrink_to_fit();
            let range = base..base + take;
            let spawned = self
                .spawned
                .iter()
                .copied()
                .filter(|(n, _)| range.contains(&(*n as usize)))
                .collect();
            out.push(Machine {
                nodes: Nodes { base, inner },
                spawned,
                net: NetMode::Deferred {
                    intents: Vec::new(),
                    spares: Vec::new(),
                },
                ..Machine::around(self.config.clone(), placeholder(), false)
            });
            base += take;
        }
        (out, fabric)
    }

    /// Reassemble shard machines (after their engines drained) into one
    /// machine equivalent to the serial run: nodes concatenated in slab
    /// order, fault lanes disjoint-merged, and the coordinator's real
    /// `fabric` restored. The shards kept no spans or
    /// causal records — the merged machine gets fresh (empty) sinks, the
    /// registry on as configured and the causal log off;
    /// `telemetry_report` reads node hardware counters and fabric links,
    /// so it is unaffected.
    pub fn merge(shards: Vec<Machine>, fabric: Fabric) -> Machine {
        let node_count: usize = shards.iter().map(|s| s.nodes.len()).sum();
        let mut shards = shards.into_iter();
        let first = shards.next().expect("at least one shard");
        assert!(first.nodes.base == 0, "shards must be merged in slab order");
        let registry = first.config.telemetry;
        let mut m = Machine {
            nodes: first.nodes,
            spawned: first.spawned,
            ..Machine::around(first.config, fabric, registry)
        };
        m.faults.merge_from(&first.faults);
        m.nodes.inner.reserve_exact(node_count - m.nodes.len());
        for s in shards {
            assert_eq!(
                s.nodes.base,
                m.nodes.base + m.nodes.inner.len(),
                "shards must be merged in slab order"
            );
            m.nodes.inner.extend(s.nodes.inner);
            m.spawned.extend(s.spawned);
            m.faults.merge_from(&s.faults);
        }
        m
    }
}

impl Partitioned for Machine {
    type Intent = SendIntent;

    fn drain_intents_into(&mut self, out: &mut Vec<SendIntent>) {
        if let NetMode::Deferred { intents, .. } = &mut self.net {
            if out.is_empty() {
                // The driver's buffer comes back drained every window:
                // trade it for the full one instead of copying. Both are
                // only ever grown here, on the shard's thread.
                std::mem::swap(out, intents);
            } else {
                out.append(intents);
            }
        }
    }
}
