//! Generic completion (paper §3.3, §4.1): the host matches in the
//! interrupt handler.
//!
//! The firmware queues an event in host memory and raises the interrupt
//! line; the handler drains the queue, matches each new header in the
//! kernel and answers through the command mailbox. Every step is host
//! CPU time, every command a mailbox round trip, and API calls and EQ
//! polls trap into the kernel. DESIGN.md §4c sets this beside `accel`.

use super::{Ev, Machine};
use xt3_firmware::control::ProcIdx;
use xt3_firmware::mailbox::{FwCommand, FwEvent};
use xt3_firmware::pending::PendingId;
use xt3_portals::header::PortalsOp;
use xt3_sim::{CausalStage, EventQueue, SimTime, TraceId};

impl Machine {
    /// API entry of a generic process: the call crosses its bridge into
    /// the kernel. Counts the trap; returns the crossing's cost.
    pub(super) fn api_trap(&mut self, node: usize, pid: u32) -> SimTime {
        let n = &mut self.nodes[node];
        n.host.counters.traps += 1;
        n.procs[pid as usize].bridge.api_crossing(&self.config.cost)
    }

    /// The polling discovery path of a generic process traps before it
    /// can read its event queue.
    pub(super) fn poll_trap(&mut self, node: usize, now: SimTime) -> SimTime {
        let (cm, tele) = (&self.config.cost, &mut self.telemetry);
        self.nodes[node].host.trap_span(cm, now, node as u32, tele)
    }

    /// `FwEffect::PostEvent` for a generic process: the event waits in
    /// the host-memory queue for the next interrupt.
    pub(super) fn queue_fw_event(&mut self, node: usize, fw_proc: ProcIdx, event: FwEvent) {
        self.nodes[node].rows[fw_proc as usize].eq.push_back(event);
    }

    /// `FwEffect::RaiseInterrupt` (the firmware raises it for generic
    /// processes only).
    pub(super) fn raise_interrupt(&mut self, q: &mut EventQueue<Ev>, t: SimTime, node: usize) {
        // Every raise costs the host a full handler entry/exit
        // (§3.3: interrupts are "very costly, requiring at
        // least 2 us of overhead each"); a handler invocation
        // still drains every event queued by then (§4.1's
        // coalescing), so a busy host processes events early
        // but pays for every line assertion.
        let mut deliver = t + self.config.cost.ht_write_latency;
        if self.faults.active() {
            // Fault plan: interrupt-delay spike (host masking
            // interrupts through a long critical section).
            deliver += self.faults.interrupt_extra(t, node as u32);
        }
        let key = self.next_key(node as u32);
        q.schedule_keyed(deliver, key, Ev::HostInterrupt { node: node as u32 });
    }

    pub(super) fn on_host_interrupt(&mut self, q: &mut EventQueue<Ev>, now: SimTime, node: usize) {
        let (cm, tele) = (&self.config.cost, &mut self.telemetry);
        let host = &mut self.nodes[node].host;
        let mut t = host.interrupt_span(cm, now, node as u32, tele);

        // §4.1: the handler processes ALL new events each invocation. The
        // drain buffer is reused across interrupts (taken, not borrowed,
        // because `process_fw_event` needs `&mut self`).
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        for (fw_proc, rows) in self.nodes[node].rows.iter_mut().enumerate() {
            while let Some(ev) = rows.eq.pop_front() {
                events.push((fw_proc as ProcIdx, ev));
            }
        }
        for &(fw_proc, ev) in &events {
            t = self.process_fw_event(q, t, node, fw_proc, ev);
        }
        self.scratch_events = events;
    }

    fn process_fw_event(
        &mut self,
        q: &mut EventQueue<Ev>,
        mut t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        event: FwEvent,
    ) -> SimTime {
        let cm = self.config.cost;
        match event {
            FwEvent::TxComplete { pending } => {
                let (rec, before) = self.take_tx(node, fw_proc, pending);
                if let Some(md) = rec.md {
                    t = self.host_span(node, t, cm.host_event_post, "event-post");
                    self.nodes[node].procs[rec.src_pid as usize]
                        .lib
                        .on_send_complete(md, rec.data.len());
                    self.causal_eq_post_send(node, rec.src_pid, rec.tag, t, before);
                    self.maybe_wake(q, t, node, rec.src_pid);
                }
                t
            }
            FwEvent::RxHeader { pending } => {
                let tag = self.nodes[node].rows[fw_proc as usize]
                    .rx
                    .get(pending)
                    .map_or(0, |r| r.record().tag);
                self.causal
                    .record_chain(TraceId(tag), CausalStage::IntDeliver, t, node as u32, 0);
                self.host_match(q, t, node, fw_proc, pending)
            }
            FwEvent::RxComplete { pending } => {
                let done = self.complete_rx(node, fw_proc, pending, None);
                let int_idx = self.causal.record_chain(
                    TraceId(done.tag),
                    CausalStage::IntDeliver,
                    t,
                    node as u32,
                    0,
                );
                t = self.host_span(node, t, cm.host_event_post, "event-post");
                t = self.post_cmd(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal.set_cause(int_idx);
                let pid = done.pid;
                t = self.handle_incoming_action(q, t, node, fw_proc, pid, done.action, None);
                self.causal_eq_post(node, pid, TraceId(done.tag), t, done.before);
                self.maybe_wake(q, t, node, pid);
                t
            }
        }
    }

    /// Host-side Portals matching for one header (generic mode, interrupt
    /// context).
    fn host_match(
        &mut self,
        q: &mut EventQueue<Ev>,
        t: SimTime,
        node: usize,
        fw_proc: ProcIdx,
        pending: PendingId,
    ) -> SimTime {
        let cm = self.config.cost;
        let mut t = self.host_span(node, t, cm.host_match, "match");
        let m = self.match_header(t, node, fw_proc, pending);
        let Some(ticket) = m.ticket else {
            return self.post_cmd(q, t, node, fw_proc, FwCommand::RecvDiscard { pending });
        };
        let (dst_pid, tag) = (m.dst_pid, m.tag);

        match m.op {
            PortalsOp::Put if m.piggy => {
                let done = self.complete_rx(node, fw_proc, pending, Some(&ticket));
                t = self.host_span(node, t, cm.host_event_post, "event-post");
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                t = self.post_cmd(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal.set_cause(m.match_idx);
                t = self.handle_incoming_action(q, t, node, fw_proc, dst_pid, done.action, None);
                self.causal_eq_post(node, dst_pid, TraceId(tag), t, done.before);
                self.maybe_wake(q, t, node, dst_pid);
                t
            }
            PortalsOp::Put => {
                // Prepare the deposit buffer and push the receive command.
                let proc = &self.nodes[node].procs[dst_pid as usize];
                let prepared = proc
                    .bridge
                    .prepare(
                        &cm,
                        proc.mem.as_ref(),
                        ticket.address,
                        ticket.mlength as u32,
                    )
                    .expect("matched region is valid");
                t = self.host_span(node, t, prepared.prep_cost, "rx-prepare");
                let rec = self.nodes[node].rows[fw_proc as usize].rx.get_mut(pending);
                let rec = rec.expect("rec").record_mut();
                let cmd = FwCommand::RecvDeposit {
                    pending,
                    length: ticket.mlength,
                    drop_length: rec.header.rlength() - ticket.mlength,
                    dma: prepared.commands,
                };
                rec.keep(ticket);
                let t = self.post_cmd(q, t, node, fw_proc, cmd);
                self.causal
                    .record_chain(TraceId(tag), CausalStage::RxCmdPost, t, node as u32, 0);
                t
            }
            PortalsOp::Get => {
                let done = self.complete_rx(node, fw_proc, pending, Some(&ticket));
                // The reply leaves first; GetEnd bookkeeping and the
                // pending release follow off the reply's critical path.
                self.causal.set_cause(m.match_idx);
                let region = Some(ticket.address);
                t = self.handle_incoming_action(q, t, node, fw_proc, dst_pid, done.action, region);
                t = self.host_span(node, t, cm.host_event_post, "event-post");
                self.nodes[node].fw.rx_piggyback_complete(fw_proc, pending);
                t = self.post_cmd(q, t, node, fw_proc, FwCommand::ReleasePending { pending });
                self.causal_eq_post(node, dst_pid, TraceId(tag), t, done.before);
                self.maybe_wake(q, t, node, dst_pid);
                t
            }
            _ => unreachable!("reply/ack never reach host matching"),
        }
    }
}
