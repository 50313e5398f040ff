//! Accelerated completion (paper §3.3): the PPC matches, and no
//! interrupt is raised.
//!
//! Matching is one `FwHandler::Match` run on the NIC, the commands the
//! host would have mailed are handled inline at the same instant, and
//! completion events go straight to user space with no trap on the API
//! or the poll path. It shares `rx`'s match prologue and library
//! completion with `generic` but differs from it in what each step
//! charges *and* in the order of the steps, which is why the two stay
//! separate functions (DESIGN.md §4c lists every difference).

use super::{Ev, Machine};
use xt3_firmware::control::ProcIdx;
use xt3_firmware::mailbox::{FwCommand, FwEvent};
use xt3_firmware::pending::PendingId;
use xt3_portals::header::PortalsOp;
use xt3_seastar::ppc::FwHandler;
use xt3_sim::{CausalStage, EventQueue, SimTime, TraceId};

/// API-entry cost for accelerated-mode calls (no trap; user-level library
/// prologue).
pub(super) const API_ENTRY_COST: SimTime = SimTime::from_ns(40);

impl Machine {
    /// `FwEffect::MatchOnNic`: offloaded matching on the PPC.
    pub(super) fn nic_match(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) {
        let ht = self.config.cost.ht_write_latency;
        let t = self.ppc_run(node, FwHandler::Match, t);
        let m = self.match_header(t, node, fw_proc, pending);
        let Some(ticket) = m.ticket else {
            return self.fw_command(q, t, node, fw_proc, FwCommand::RecvDiscard { pending });
        };
        let (dst_pid, tag) = (m.dst_pid, m.tag);

        match m.op {
            PortalsOp::Put if m.piggy => {
                let (_, before, action) = self.complete_rx(node, fw_proc, pending, Some(&ticket));
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                self.fw_command(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal_eq_post(node, dst_pid, TraceId(tag), t + ht, before);
                // Cause is the match, not the EqPost: the post's visible
                // time is later than the ack's own start.
                self.causal.set_cause(m.match_idx);
                let t2 = self.handle_incoming_action(q, t, node, fw_proc, dst_pid, action, None);
                self.maybe_wake(q, t2 + ht, node, dst_pid);
            }
            PortalsOp::Put => {
                // Accelerated mode requires physically contiguous buffers
                // (§3.3): a single DMA command.
                let (dma, _) = self.nodes[node].procs[dst_pid as usize]
                    .mem
                    .translate(ticket.address, ticket.mlength as u32);
                let cmd = FwCommand::RecvDeposit {
                    pending,
                    length: ticket.mlength,
                    drop_length: ticket.rlength - ticket.mlength,
                    dma,
                };
                self.nodes[node]
                    .rx_store
                    .get_mut(&(fw_proc, pending))
                    .expect("rec")
                    .ticket = Some(ticket);
                self.causal
                    .record_chain(TraceId(tag), CausalStage::RxCmdPost, t, node as u32, 0);
                self.fw_command(q, t, node, fw_proc, cmd);
            }
            PortalsOp::Get => {
                let (_, before, action) = self.complete_rx(node, fw_proc, pending, Some(&ticket));
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                self.fw_command(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal_eq_post(node, dst_pid, TraceId(tag), t, before);
                self.causal.set_cause(m.match_idx);
                let region = Some(ticket.address);
                let t2 = self.handle_incoming_action(q, t, node, fw_proc, dst_pid, action, region);
                self.maybe_wake(q, t2, node, dst_pid);
            }
            _ => unreachable!("reply/ack never reach NIC matching"),
        }
    }

    /// `FwEffect::PostEvent` for an accelerated process: handled by the
    /// firmware inline, posted straight to user space, no interrupt.
    pub(super) fn accel_event(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        event: FwEvent,
    ) {
        let ht = self.config.cost.ht_write_latency;
        match event {
            FwEvent::TxComplete { pending } => {
                let (rec, before) = self.take_tx(node, fw_proc, pending);
                if let Some(md) = rec.md {
                    self.nodes[node].procs[rec.src_pid as usize]
                        .lib
                        .on_send_complete(md, rec.data.len());
                    self.causal_eq_post_send(node, rec.src_pid, rec.tag, t + ht, before);
                    self.maybe_wake(q, t + ht, node, rec.src_pid);
                }
            }
            FwEvent::RxComplete { pending } => {
                let (rec, before, action) = self.complete_rx(node, fw_proc, pending, None);
                self.fw_command(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                // Chains onto the message's DepositDone; the ack's cause
                // is the completion record itself (stamped at `t`, not
                // after the ack's own start).
                let eq_idx = self.causal_eq_post(node, rec.dst_pid, TraceId(rec.tag), t, before);
                self.causal.set_cause(eq_idx);
                let t2 =
                    self.handle_incoming_action(q, t, node, fw_proc, rec.dst_pid, action, None);
                self.maybe_wake(q, t2 + ht, node, rec.dst_pid);
            }
            FwEvent::RxHeader { .. } => {
                unreachable!("accelerated mode matches on the NIC")
            }
        }
    }
}
