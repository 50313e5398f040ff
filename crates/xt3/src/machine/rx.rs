//! Receive: from a header reaching the NIC to the payload in memory.
//!
//! Header arrival, the RX DMA and the firmware-direct Reply/Ack
//! completion are the same under both completion policies. So are two
//! steps *inside* matching and completion — the match prologue
//! (`match_header`) and "take the record, deposit or serve it"
//! (`complete_rx`) — which `generic` and `accel` each call from their
//! own sequence of charges and posts.

use super::tx::FW_PER_CHUNK;
use super::{Ev, InFlight, Machine, Parcel};
use crate::config::ExhaustionPolicy;
use crate::wire::WireKind;
use xt3_firmware::control::{Effects, FwError, ProcIdx};
use xt3_firmware::gbn::{GbnEvent, SeqNo};
use xt3_firmware::pending::PendingId;
use xt3_portals::header::PortalsOp;
use xt3_portals::library::{DeliverOutcome, IncomingAction, MatchTicket};
use xt3_seastar::ht::HtDir;
use xt3_seastar::ppc::FwHandler;
use xt3_sim::{label, CausalStage, EventQueue, SimTime, TraceCategory, TraceId};

/// What the match prologue hands each completion policy.
pub(super) struct HeaderMatch {
    pub op: PortalsOp,
    pub dst_pid: u32,
    /// The payload rode in the header packet.
    pub piggy: bool,
    pub tag: u64,
    /// The causal `MatchDone` record (cause of whatever the match sends).
    pub match_idx: Option<u32>,
    /// `None`: nothing matched; the record is gone and the pending must
    /// be discarded.
    pub ticket: Option<MatchTicket>,
}

/// What `complete_rx` leaves once the record's box has gone back.
pub(super) struct RxDone {
    /// The receiving process.
    pub pid: u32,
    /// The message's wire tag.
    pub tag: u64,
    /// The posted-event snapshot taken just before the library step.
    pub before: u64,
    /// What the library wants sent back.
    pub action: IncomingAction,
}

/// A header the firmware took: its RX pending, whether the firmware
/// completes it itself (Reply/Ack), when it was done, what it asked for.
struct Taken {
    fw_proc: ProcIdx,
    pending: PendingId,
    direct: bool,
    t: SimTime,
    effects: Effects,
}

impl Machine {
    /// A header reached `node`'s NIC. Taken by the firmware, its box
    /// becomes the receive record in the RX row; refused, the box goes
    /// back at once.
    pub(super) fn on_net_header(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        mut parcel: Box<Parcel>,
    ) {
        let Some(taken) = self.take_header(q, now, node, parcel.in_flight()) else {
            return self.recycle(parcel);
        };
        let Taken {
            fw_proc,
            pending,
            direct,
            t,
            effects,
        } = taken;
        parcel.land();
        self.nodes[node].rx_store.insert((fw_proc, pending), parcel);
        self.exec_effects(q, t, node, effects);
        if direct {
            self.handle_direct(q, t, node, fw_proc, pending);
        }
    }

    /// Everything a header meets before it holds an RX pending: go-back-n
    /// control, the end-to-end CRC, sequencing, the target process and
    /// the firmware's pools. `None` for go-back-n control and for every
    /// refusal.
    fn take_header(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        inflight: &InFlight,
    ) -> Option<Taken> {
        let cm = self.config.cost;
        let msg = &inflight.msg;
        let from_node = msg.header.src.nid;

        match msg.kind {
            WireKind::GbnNack { expected } => {
                self.on_gbn_nack(q, now, node, from_node, expected);
                return None;
            }
            WireKind::GbnAck { upto } => {
                self.on_gbn_ack(q, now, node, from_node, upto);
                return None;
            }
            WireKind::Data { .. } => {}
        }

        let id = TraceId(msg.tag);
        if inflight.resent {
            self.causal.record_copy_arrival(id, now, node as u32);
        } else {
            self.causal
                .record_chain(id, CausalStage::NetArrive, now, node as u32, 0);
        }

        // End-to-end CRC (§2): a payload that escaped the link CRC is
        // rejected by the RX DMA's 32-bit check. Under go-back-n the drop
        // turns into a NACK (the window copy is clean); under the panic
        // policy the message is simply lost and counted.
        if inflight.corrupted {
            self.nodes[node].chip.rx_dma.record_crc_failure();
            let t = self.ppc_run(node, FwHandler::RxHeader, now);
            if let Some(seq) = msg.seq() {
                self.gbn_refuse(q, t, node, from_node, seq, false);
            }
            self.trace.record(
                t,
                node as u32,
                TraceCategory::Dma,
                label!("e2e-crc-reject"),
                msg.tag,
            );
            return None;
        }

        // Go-back-n sequencing check (order first, then allocation).
        if let Some(seq) = msg.seq() {
            let rx = self.nodes[node].gbn_rx.entry(from_node).or_default();
            if seq != rx.expected() {
                self.gbn_refuse(q, now, node, from_node, seq, true);
                return None;
            }
        }

        let dst_pid = msg.header.dst.pid;
        let Some(dst) = self.nodes[node].procs.get(dst_pid as usize) else {
            self.drop_stray_header(q, now, node, from_node, msg.seq(), msg.tag);
            return None;
        };
        let fw_proc = dst.fw_proc;
        let direct = matches!(msg.header.op, PortalsOp::Reply | PortalsOp::Ack);
        let piggy = msg.piggybacked(&self.config.fabric.link);

        let t = if direct {
            self.ppc_raw(node, now, cm.fw_reply_rx, "fw-reply-rx")
        } else {
            self.ppc_run(node, FwHandler::RxHeader, now)
        };
        // Fault plan: an SRAM pool-exhaustion pulse forces the header to
        // be rejected exactly as if `rx_pendings` had run dry, driving
        // the configured exhaustion policy.
        let squeezed = self.faults.active() && self.faults.sram_exhausted(t, node as u32);
        let result = if squeezed {
            self.nodes[node].fw.note_injected_exhaustion();
            self.trace.record(
                t,
                node as u32,
                TraceCategory::Firmware,
                label!("fault:sram-squeeze"),
                msg.tag,
            );
            Err(FwError::NoRxPending)
        } else {
            self.nodes[node]
                .fw
                .rx_header(fw_proc, from_node, piggy, direct)
        };

        // Resolve go-back-n acceptance against allocation success.
        if let Some(seq) = msg.seq() {
            let ok = result.is_ok();
            let rx = self.nodes[node]
                .gbn_rx
                .get_mut(&from_node)
                .expect("entry above");
            match rx.on_arrival(seq, ok) {
                GbnEvent::Accept { .. } => {
                    let upto = rx.expected();
                    self.send_gbn_control(q, t, node, from_node, WireKind::GbnAck { upto });
                }
                GbnEvent::Nack { expected } => {
                    self.send_gbn_control(q, t, node, from_node, WireKind::GbnNack { expected });
                    return None;
                }
                GbnEvent::Duplicate => return None,
            }
        }

        let (pending, effects) = match result {
            Ok(pe) => pe,
            Err(_) => {
                if self.config.exhaustion == ExhaustionPolicy::Panic && msg.seq().is_none() {
                    // §4.3: "The current approach is to panic the node."
                    self.nodes[node].hot.panicked = true;
                    self.trace.record(
                        t,
                        node as u32,
                        TraceCategory::Firmware,
                        label!("panic-exhaustion"),
                        msg.tag,
                    );
                }
                return None;
            }
        };

        self.trace.record(
            t,
            node as u32,
            TraceCategory::Firmware,
            label!("rx-header"),
            msg.tag,
        );
        self.causal
            .record_chain(TraceId(msg.tag), CausalStage::FwRxDone, t, node as u32, 0);
        Some(Taken {
            fw_proc,
            pending,
            direct,
            t,
            effects,
        })
    }

    /// A header for a process this node does not have: the firmware sees
    /// it, counts the drop and allocates nothing — a stray target must
    /// not take the node (or the simulator) down. Under go-back-n the
    /// sequence number is consumed and acknowledged like a delivered
    /// message's, so the sender neither retransmits forever nor stalls
    /// its window behind a message no retry can deliver.
    fn drop_stray_header(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        from_node: u32,
        seq: Option<SeqNo>,
        tag: u64,
    ) {
        let t = self.ppc_run(node, FwHandler::RxHeader, now);
        self.nodes[node].bad_process_drops += 1;
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Firmware,
            label!("rx-bad-process"),
            tag,
        );
        if let Some(seq) = seq {
            let rx = self.nodes[node].gbn_rx.entry(from_node).or_default();
            rx.on_arrival(seq, true);
            let upto = rx.expected();
            self.send_gbn_control(q, t, node, from_node, WireKind::GbnAck { upto });
        }
    }

    /// Firmware-direct Reply/Ack processing at header time.
    fn handle_direct(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) {
        let rec = self.nodes[node].rx_store[&(fw_proc, pending)].record();
        match rec.header.op {
            PortalsOp::Ack => {
                let t = self.ppc_run(node, FwHandler::Completion, t);
                self.complete_direct(q, t, node, fw_proc, pending);
            }
            PortalsOp::Reply if self.config.fabric.link.piggybacks(rec.data.len()) => {
                // Payload arrived with the header: deposit and complete
                // without any DMA program.
                let t = self.ppc_raw(node, t, self.config.cost.fw_reply_rx, "fw-reply-rx");
                self.complete_direct(q, t, node, fw_proc, pending);
            }
            PortalsOp::Reply => {
                // Bulk reply: the get command pushed the deposit buffer
                // down; program the RX DMA directly.
                let md = rec.header.initiator_md.expect("reply names its md");
                let (len, key) = (rec.header.mlength, (rec.header.dst.pid, md));
                let n = &mut self.nodes[node];
                let chunks = n.await_reply.get(&key).copied().unwrap_or_default();
                let result = n.fw.direct_deposit(fw_proc, pending, len, chunks);
                self.run_fw(q, t, node, result);
            }
            _ => unreachable!("direct path only handles Reply/Ack"),
        }
    }

    /// Complete a firmware-direct Reply or Ack whose payload (if any) is
    /// in place by `t`: no host matching, no interrupt — the event is
    /// readable by the polling application one HT write later (§4.1).
    fn complete_direct(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) {
        let parcel = self.nodes[node].rx_store.remove(&(fw_proc, pending));
        let parcel = parcel.expect("direct rec");
        let rec = parcel.record();
        let pid = rec.header.dst.pid;
        let before = self.events_posted(node, pid);
        let n = &mut self.nodes[node];
        let proc = &mut n.procs[pid as usize];
        match rec.header.op {
            PortalsOp::Ack => {
                proc.lib.deliver_ack(&rec.header);
            }
            _ => {
                proc.lib
                    .complete_reply(&rec.header, &rec.data, &mut *proc.mem);
                if let Some(md) = rec.header.initiator_md {
                    n.await_reply.remove(&(pid, md));
                }
            }
        }
        n.fw.release_direct(fw_proc, pending);
        let visible = t + self.config.cost.ht_write_latency;
        self.causal_eq_post(node, pid, TraceId(rec.tag), visible, before);
        self.recycle(parcel);
        self.maybe_wake(q, visible, node, pid);
    }

    pub(super) fn start_rx_dma(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        proc: ProcIdx,
        pending: PendingId,
    ) {
        let cm = self.config.cost;
        let n = &self.nodes[node];
        let lower =
            n.fw.lower(proc, pending)
                .expect("pending named by firmware effect");
        let len = lower.length;
        let chunks = lower.chunks.max(1) as u64;
        let wire_complete = n
            .rx_store
            .get(&(proc, pending))
            .map(|r| r.record().wire_complete)
            .unwrap_or(t);
        let extra = FW_PER_CHUNK.times(chunks - 1);
        let setup_done = self.ppc_run_extra(node, FwHandler::TxDmaSetup, t, extra);
        // The engine serializes deposits; HT bandwidth and wire arrival
        // both bound completion.
        let n = &mut self.nodes[node];
        let (_, ht_done) = n.chip.ht.bulk(&cm, HtDir::Write, setup_done, len);
        let ht_duration = ht_done.saturating_sub(setup_done);
        let (_, engine_done) = n.chip.rx_dma.occupy_via(
            setup_done,
            ht_duration,
            len,
            chunks,
            node as u32,
            &mut self.telemetry,
        );
        let done = engine_done.max(ht_done).max(wire_complete) + cm.ht_write_latency;
        let key = self.next_key(node as u32);
        q.schedule_keyed(
            done,
            key,
            Ev::RxDepositDone {
                node: node as u32,
                fw_proc: proc,
                pending,
            },
        );
    }

    pub(super) fn on_rx_deposit_done(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) {
        let t = self.ppc_run(node, FwHandler::Completion, now);
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Dma,
            label!("rx-deposit-done"),
            0,
        );
        let n = &mut self.nodes[node];
        let rec = n.rx_store.get(&(fw_proc, pending)).map(|p| p.record());
        // A firmware-direct reply completes right here: the deposit
        // happened via DMA; ReplyEnd goes straight into the app's EQ.
        let direct_reply = rec.is_some_and(|r| r.header.op == PortalsOp::Reply);
        if let Some(tag) = rec.map(|r| r.tag) {
            self.causal
                .record_chain(TraceId(tag), CausalStage::DepositDone, t, node as u32, 0);
        }
        let result = n.fw.rx_dma_complete(fw_proc, pending);
        if direct_reply {
            self.complete_direct(q, t, node, fw_proc, pending);
        }
        self.run_fw(q, t, node, result);
    }

    // ----- steps the two completion policies share -----

    /// The first half of matching, identical on host and NIC: read the
    /// header out of the receive record, stamp `MatchDone` at `t` (when
    /// whichever processor matched was done), and walk the match list.
    /// When nothing matches the record is dropped here; discarding the
    /// pending is the caller's (a mailbox post or an inline command).
    pub(super) fn match_header(
        &mut self,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) -> HeaderMatch {
        let rec = self.nodes[node].rx_store[&(fw_proc, pending)].record();
        let piggy = self.config.fabric.link.piggybacks(rec.data.len());
        let (op, dst_pid, tag) = (rec.header.op, rec.header.dst.pid, rec.tag);
        let match_idx =
            self.causal
                .record_chain(TraceId(tag), CausalStage::MatchDone, t, node as u32, 0);
        // Matching itself may post a start event (PutStart/GetStart);
        // attribute any such posts to the match record so the EQ-delivery
        // FIFO stays aligned with the queue.
        let before_match = self.events_posted(node, dst_pid);
        let n = &mut self.nodes[node];
        let header = &n.rx_store[&(fw_proc, pending)].record().header;
        let outcome = n.procs[dst_pid as usize].lib.match_incoming(header);
        if let Some(mi) = match_idx {
            let after = self.events_posted(node, dst_pid);
            self.causal
                .push_eq_posts(node as u32, dst_pid, mi, after.saturating_sub(before_match));
        }
        let ticket = match outcome {
            DeliverOutcome::Matched(ticket) => Some(ticket),
            _ => {
                let parcel = self.nodes[node].rx_store.remove(&(fw_proc, pending));
                self.recycle(parcel.expect("rx rec"));
                self.causal.finish(TraceId(tag));
                None
            }
        };
        HeaderMatch {
            op,
            dst_pid,
            piggy,
            tag,
            match_idx,
            ticket,
        }
    }

    /// Take a matched message's record and finish it in the library —
    /// deposit a put whose payload is in hand (piggybacked, or DMA'ed by
    /// now), or serve a get — then hand the record's box back. `ticket`
    /// is the fresh match; `None` means the one stored with the record
    /// when its deposit was programmed.
    pub(super) fn complete_rx(
        &mut self,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
        ticket: Option<&MatchTicket>,
    ) -> RxDone {
        let parcel = self.nodes[node].rx_store.remove(&(fw_proc, pending));
        let parcel = parcel.expect("rx rec");
        let rec = parcel.record();
        let (pid, tag) = (rec.header.dst.pid, rec.tag);
        let before = self.events_posted(node, pid);
        let ticket = ticket
            .or(rec.ticket.as_ref())
            .expect("deposit had a ticket");
        let proc = &mut self.nodes[node].procs[pid as usize];
        let action = match rec.header.op {
            PortalsOp::Get => proc.lib.complete_get_serve(
                &rec.header,
                ticket,
                &*proc.mem,
                self.config.synthetic_payload,
            ),
            _ => proc
                .lib
                .complete_put(&rec.header, ticket, &rec.data, &mut *proc.mem),
        };
        self.recycle(parcel);
        RxDone {
            pid,
            tag,
            before,
            action,
        }
    }
}
