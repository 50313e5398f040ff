//! Transmit: from a host command post to the message leaving the NIC.
//!
//! `transmit_internal` is the one way a message starts — user puts and
//! gets from [`super::AppCtx`], acks and replies from
//! `handle_incoming_action` — and `post_cmd` the one way the host hands
//! the firmware a command. The firmware side (`on_fw_cmd`,
//! `start_tx_dma`, `on_tx_dma_done`) serves both completion policies
//! unchanged.

use super::{Ev, Machine};
use crate::node::TxRecord;
use crate::wire::{WireKind, WireMsg};
use xt3_firmware::control::ProcIdx;
use xt3_firmware::mailbox::FwCommand;
use xt3_firmware::pending::PendingId;
use xt3_portals::header::PortalsHeader;
use xt3_portals::library::{IncomingAction, WireData};
use xt3_portals::types::MdHandle;
use xt3_seastar::dma::{DmaCommand, DmaList};
use xt3_seastar::ht::HtDir;
use xt3_seastar::ppc::FwHandler;
use xt3_sim::{label, CausalStage, EventQueue, SimTime, TraceCategory, TraceId};
use xt3_telemetry::TelemetrySink;

/// PPC cost of feeding one additional scatter/gather chunk to a DMA
/// engine beyond the first (Linux paged buffers; §3.3). Catamount buffers
/// are one chunk and never pay it.
pub(super) const FW_PER_CHUNK: SimTime = SimTime::from_ns(60);

impl Machine {
    /// Send back whatever the library asked for (ack or reply).
    /// `reply_region` is the matched MD region's start address when the
    /// action may be a reply (used for scatter/gather cost accounting).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_incoming_action(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        src_pid: u32,
        action: IncomingAction,
        reply_region: Option<u64>,
    ) -> SimTime {
        let (header, data, chunks) = match action {
            IncomingAction::None => return t,
            IncomingAction::SendAck(ack) => (ack, WireData::Synthetic(0), 1),
            IncomingAction::SendReply(reply, data) => {
                // Reply payload is DMA'ed from the matched MD region; the
                // DMA command count mirrors that region's physical layout.
                let proc = &self.nodes[node].procs[src_pid as usize];
                let len = data.len().min(u32::MAX as u64) as u32;
                let chunks = reply_region
                    .and_then(|at| {
                        proc.bridge
                            .prepare(&self.config.cost, proc.mem.as_ref(), at, len)
                    })
                    .map_or(1, |p| p.commands.len().max(1) as u32);
                (reply, data, chunks)
            }
        };
        self.transmit_internal(q, t, node, fw_proc, src_pid, header, data, chunks, None, t)
    }

    /// Kernel/NIC-initiated transmit (acks, replies) and the tail of
    /// every user put and get.
    ///
    /// `api_start` is when the operation conceptually began — the
    /// app-visible API entry for user puts/gets, the serve point for
    /// internal acks/replies — and stamps the causal chain's `ApiEntry`
    /// root (the anchor every latency attribution measures from).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn transmit_internal(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        src_pid: u32,
        header: PortalsHeader,
        data: WireData,
        dma_chunks: u32,
        md: Option<MdHandle>,
        api_start: SimTime,
    ) -> SimTime {
        let Some(pending) = self.nodes[node].alloc_tx_pending(fw_proc) else {
            // Host-managed TX pool exhausted: the run will stall, and
            // this label plus `any_panicked()` tell the harness why.
            self.trace.record(
                t,
                node as u32,
                TraceCategory::Host,
                label!("tx-pending-exhausted"),
                0,
            );
            self.nodes[node].hot.panicked = true;
            return t;
        };
        let tag = self.nodes[node].fresh_tag();
        self.trace.record(
            t,
            node as u32,
            TraceCategory::Host,
            label!("tx-cmd-post"),
            tag,
        );
        let len = data.len();
        let cause = self.causal.cause();
        self.causal.record(
            TraceId(tag),
            CausalStage::ApiEntry,
            api_start,
            node as u32,
            cause,
            len,
        );
        let target_node = header.dst.nid;
        self.nodes[node].tx_store.insert(
            (fw_proc, pending),
            TxRecord {
                header,
                data,
                src_pid,
                md,
                tag,
            },
        );
        let chunks = dma_chunks.max(1);
        let dma = DmaList::repeat(
            DmaCommand {
                phys_addr: 0,
                bytes: (len / u64::from(chunks)).max(1) as u32,
            },
            chunks as usize,
        );
        let cmd = FwCommand::Transmit {
            pending,
            target_node,
            length: len,
            dma,
            tag,
        };
        let t = self.post_cmd(q, t, node, fw_proc, cmd);
        self.causal
            .record_chain(TraceId(tag), CausalStage::TxCmdPost, t, node as u32, 0);
        t
    }

    /// The host writes one command into `fw_proc`'s mailbox and rings
    /// the firmware; returns when the host is done with it.
    pub(super) fn post_cmd(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        cmd: FwCommand,
    ) -> SimTime {
        let cm = self.config.cost;
        let mut t = self.host_span(node, t, cm.host_cmd_post, "cmd-post");
        let mailbox = self.nodes[node]
            .fw
            .mailbox_mut(fw_proc)
            .expect("machine-owned fw proc");
        let backlog = mailbox.post_cmd(cmd);
        if self.telemetry.is_enabled() {
            let depth = mailbox.cmd_len() as u64;
            self.telemetry.gauge(node as u32, "fw.mailbox_depth", depth);
        }
        if backlog > 0 {
            // The host busy-waits for mailbox space when the command
            // FIFO is over capacity (§4.1): stall roughly one firmware
            // dispatch per queued-over entry.
            let stall = cm.fw_tx_cmd.times(u64::from(backlog));
            t = self.nodes[node].host.run(t, stall);
        }
        let key = self.next_key(node as u32);
        q.schedule_keyed(
            t + cm.ht_write_latency,
            key,
            Ev::FwCmd {
                node: node as u32,
                fw_proc,
            },
        );
        t
    }

    pub(super) fn on_fw_cmd(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        fw_proc: ProcIdx,
    ) {
        while let Some(cmd) = self.nodes[node]
            .fw
            .mailbox_mut(fw_proc)
            .ok()
            .and_then(|m| m.take_cmd())
        {
            let t = match &cmd {
                // Reply transmits take the firmware fast path: the
                // header is synthesized from the command itself.
                FwCommand::Transmit { pending, .. }
                    if self.nodes[node].tx_is_reply(fw_proc, *pending) =>
                {
                    self.ppc_raw(node, now, self.config.cost.fw_reply_tx, "fw-reply-tx")
                }
                FwCommand::Transmit { .. } => self.ppc_run(node, FwHandler::TxCommand, now),
                FwCommand::RecvDeposit { .. } => self.ppc_run(node, FwHandler::RxCommand, now),
                FwCommand::RecvDiscard { .. } | FwCommand::ReleasePending { .. } => {
                    self.ppc_run(node, FwHandler::Completion, now)
                }
            };
            self.fw_command(q, t, node, fw_proc, cmd);
        }
    }

    /// The firmware handles `cmd` at `t` — popped from the mailbox above,
    /// or issued on the NIC itself by the accelerated path — and its
    /// effects are carried out.
    pub(super) fn fw_command(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        cmd: FwCommand,
    ) {
        let result = self.nodes[node].fw.handle_command(fw_proc, cmd);
        self.run_fw(q, t, node, result);
    }

    /// A transmit completed: retire its record and TX pending. Returns the
    /// record and the posted-event snapshot a `SendEnd` post is diffed
    /// against.
    pub(super) fn take_tx(
        &mut self,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) -> (TxRecord, u64) {
        let n = &mut self.nodes[node];
        let rec = n.tx_store.remove(&(fw_proc, pending)).expect("tx rec");
        n.free_tx_pending(fw_proc, pending);
        let before = self.events_posted(node, rec.src_pid);
        (rec, before)
    }

    pub(super) fn on_tx_dma_done(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: usize) {
        let t = self.ppc_run(node, FwHandler::Completion, now);
        let result = self.nodes[node].fw.tx_dma_complete();
        self.run_fw(q, t, node, result);
    }

    pub(super) fn start_tx_dma(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        proc: ProcIdx,
        pending: PendingId,
    ) {
        let cm = self.config.cost;
        let n = &self.nodes[node];
        let chunks = n.fw.lower(proc, pending).map_or(1, |l| l.chunks.max(1)) as u64;
        let extra = FW_PER_CHUNK.times(chunks - 1);
        // The header is DMA'ed out of the upper pending first (§4.3): a
        // high-latency HT read round trip. Replies skip both the fetch and
        // the separate DMA-setup charge — their header was synthesized on
        // the NIC from the serve command (fw_reply_tx covered it).
        let fetch_done = if n.tx_is_reply(proc, pending) {
            self.ppc_raw(node, t, extra, "fw-reply-tx-setup")
        } else {
            self.ppc_run_extra(node, FwHandler::TxDmaSetup, t, extra) + cm.ht_read_latency
        };

        let n = &mut self.nodes[node];
        let rec = n.tx_store.get_mut(&(proc, pending)).expect("tx record");
        let len = rec.data.len();
        let data = std::mem::replace(&mut rec.data, WireData::Synthetic(len));
        let tag = rec.tag;
        let header = rec.header.clone();
        let piggy = self.config.fabric.link.piggybacks(len);

        // Payload is DMA'ed directly from host memory ("zero-copy",
        // §4.3); piggybacked payloads ride in the header write instead.
        let dma_done = if piggy {
            fetch_done
        } else {
            n.chip.ht.bulk(&cm, HtDir::Read, fetch_done, len).1
        };
        n.chip.tx_dma.occupy_via(
            fetch_done,
            dma_done.saturating_sub(fetch_done),
            len,
            chunks,
            node as u32,
            &mut self.telemetry,
        );
        let key = self.next_key(node as u32);
        q.schedule_keyed(dma_done, key, Ev::TxDmaDone { node: node as u32 });

        let msg = WireMsg {
            header,
            data,
            kind: WireKind::Data { seq: None },
            tag,
        };
        // Go-back-n sequencing on the way out (a full window parks it).
        let Some(msg) = self.gbn_sequence(q, fetch_done, node, msg) else {
            return;
        };
        self.trace.record(
            fetch_done,
            node as u32,
            TraceCategory::Dma,
            label!("tx-inject"),
            tag,
        );
        self.inject(q, fetch_done, dma_done, msg, false);
    }
}
