//! App scheduling and the app-facing API.
//!
//! An app runs inside `run_app`, issuing Portals calls through
//! [`AppCtx`]; between activations it is blocked on an event queue or a
//! timer, and `maybe_wake` / `on_app_wake` are the polling discovery
//! path that gets it going again.

use super::{accel, Ev, Machine};
use crate::app::{AppEvent, WaitRequest};
use crate::node::{ProcState, WaitState};
use xt3_firmware::control::FwMode;
use xt3_portals::header::{AtomicOp, PortalsHeader};
use xt3_portals::library::{PortalsLib, WireData};
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{
    AckReq, EqHandle, MatchBits, MdHandle, MeHandle, ProcessId, PtlError, PtlResult,
};
use xt3_sim::{label, EventQueue, SimTime, TraceCategory};
use xt3_telemetry::TelemetrySink;

/// Host-side cost of the small setup API calls (MD bind, ME attach, EQ
/// alloc): table manipulation in the kernel library.
const OP_SETUP_COST: SimTime = SimTime::from_ns(150);

impl Machine {
    pub(super) fn maybe_wake(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        pid: u32,
    ) {
        let tele = &mut self.telemetry;
        let proc = &mut self.nodes[node].procs[pid as usize];
        if proc.wake_scheduled || proc.finished {
            return;
        }
        if let WaitState::Eq(eq) = proc.wait {
            let depth = proc.lib.eq_len(eq).unwrap_or(0);
            tele.gauge(node as u32, "ptl.eq_depth", depth as u64);
            let ready = depth > 0;
            if ready {
                proc.wake_scheduled = true;
                let key = self.next_key(node as u32);
                q.schedule_keyed(
                    now,
                    key,
                    Ev::AppWake {
                        node: node as u32,
                        pid,
                    },
                );
            }
        }
    }

    pub(super) fn on_app_wake(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        pid: u32,
    ) {
        let proc = &mut self.nodes[node].procs[pid as usize];
        proc.wake_scheduled = false;
        if proc.finished {
            return;
        }
        match proc.wait {
            WaitState::Idle => {}
            WaitState::Timer => {
                proc.wait = WaitState::Idle;
                self.causal.set_cause(None);
                self.run_app(q, now, node, pid, AppEvent::Timer);
            }
            WaitState::Eq(eq) => {
                // The polling discovery path: an EQ read, behind a trap
                // for a generic process.
                let t = match self.mode_of(node, pid) {
                    FwMode::Accelerated => now,
                    FwMode::Generic => self.poll_trap(node, now),
                };
                let t = self.host_span(node, t, self.config.cost.host_eq_poll, "eq-poll");
                let proc = &mut self.nodes[node].procs[pid as usize];
                match proc.lib.eq_get(eq) {
                    Ok(ev) => {
                        proc.wait = WaitState::Idle;
                        self.trace.record(
                            t,
                            node as u32,
                            TraceCategory::App,
                            label!("app-event"),
                            0,
                        );
                        // Resolve which completion produced the event the
                        // app just consumed, close the message's causal
                        // chain with an `AppDeliver`, and make it the
                        // cause of whatever the app does next.
                        self.causal.record_deliver(node as u32, pid, t);
                        self.run_app(q, t, node, pid, AppEvent::Ptl(ev));
                    }
                    Err(PtlError::EqEmpty) => {
                        // Spurious wake; stay blocked.
                    }
                    Err(PtlError::EqDropped) => {
                        proc.wait = WaitState::Idle;
                        self.causal.set_cause(None);
                        self.run_app(q, t, node, pid, AppEvent::EqDropped);
                    }
                    Err(e) => panic!("eq_get failed: {e}"),
                }
            }
        }
    }

    pub(super) fn run_app(
        &mut self,
        q: &mut EventQueue<Ev>,
        now: SimTime,
        node: usize,
        pid: u32,
        event: AppEvent,
    ) {
        let mut app = self.nodes[node].procs[pid as usize]
            .app
            .take()
            .expect("app present");
        let mut ctx = AppCtx {
            m: self,
            q,
            node,
            pid,
            time: now,
            wait: WaitRequest::None,
            finished: false,
        };
        app.on_event(&mut ctx, event);
        let wait = ctx.wait;
        let finished = ctx.finished;
        let end_time = ctx.time;

        let n = &mut self.nodes[node];
        n.procs[pid as usize].app = Some(app);
        if finished {
            n.procs[pid as usize].finished = true;
            n.procs[pid as usize].wait = WaitState::Idle;
            n.hot.running_apps -= 1;
            return;
        }
        n.set_wait(pid, wait);
        match wait {
            WaitRequest::Timer(delay) => {
                let key = self.next_key(node as u32);
                q.schedule_keyed(
                    end_time + delay,
                    key,
                    Ev::AppWake {
                        node: node as u32,
                        pid,
                    },
                );
            }
            WaitRequest::Eq(_) => {
                // The event may already be there.
                self.maybe_wake(q, end_time, node, pid);
            }
            WaitRequest::None => {}
        }
    }
}

/// The API surface an [`crate::app::App`] uses during a callback. Every
/// call charges the host CPU its cost-model price and advances the app's
/// clock.
pub struct AppCtx<'a> {
    m: &'a mut Machine,
    q: &'a mut EventQueue<Ev>,
    node: usize,
    pid: u32,
    time: SimTime,
    pub(crate) wait: WaitRequest,
    pub(crate) finished: bool,
}

impl AppCtx<'_> {
    /// Current time (advances as calls are made).
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// This process's Portals id.
    pub fn my_id(&self) -> ProcessId {
        ProcessId::new(self.m.nodes[self.node].id.0, self.pid)
    }

    /// Nodes in the machine.
    pub fn node_count(&self) -> u32 {
        self.m.config.dims.node_count()
    }

    /// Whether payloads are synthetic (length-only) in this run.
    pub fn synthetic(&self) -> bool {
        self.m.config.synthetic_payload
    }

    fn proc(&mut self) -> &mut ProcState {
        &mut self.m.nodes[self.node].procs[self.pid as usize]
    }

    fn charge(&mut self, cost: SimTime) {
        self.time = self.m.host_span(self.node, self.time, cost, "api");
    }

    /// Every API call starts here: a generic process traps across its
    /// bridge into the kernel, an accelerated one runs a user-level
    /// prologue.
    fn api_entry(&mut self) {
        let cost = match self.m.mode_of(self.node, self.pid) {
            FwMode::Accelerated => accel::API_ENTRY_COST,
            FwMode::Generic => self.m.api_trap(self.node, self.pid),
        };
        self.charge(cost);
    }

    /// Entry of a data-movement call naming a remote process: API entry,
    /// kernel transmit processing, and the target check — a nid outside
    /// the machine is `PTL_PROCESS_INVALID`, before the library consumes
    /// any MD threshold. Returns when the call began.
    fn tx_entry(&mut self, target: ProcessId) -> PtlResult<SimTime> {
        let api_start = self.time;
        self.api_entry();
        self.charge(self.m.config.cost.host_tx_proc);
        if target.nid >= self.node_count() {
            return Err(PtlError::ProcessInvalid);
        }
        Ok(api_start)
    }

    /// A small setup call: API entry plus kernel table manipulation.
    fn setup_entry(&mut self) -> &mut PortalsLib {
        self.api_entry();
        self.charge(OP_SETUP_COST);
        &mut self.proc().lib
    }

    /// `PtlEQAlloc`.
    pub fn eq_alloc(&mut self, capacity: u32) -> PtlResult<EqHandle> {
        self.setup_entry().eq_alloc(capacity)
    }

    /// `PtlMDBind`.
    pub fn md_bind(
        &mut self,
        start: u64,
        length: u64,
        options: MdOptions,
        threshold: Threshold,
        eq: Option<EqHandle>,
        user_ptr: u64,
    ) -> PtlResult<MdHandle> {
        let size = self.proc().mem.size();
        self.setup_entry()
            .md_bind(size, start, length, options, threshold, eq, user_ptr)
    }

    /// `PtlMEAttach`.
    pub fn me_attach(
        &mut self,
        pt_index: u32,
        match_id: ProcessId,
        match_bits: MatchBits,
        ignore_bits: MatchBits,
        unlink: UnlinkOp,
        pos: InsertPos,
    ) -> PtlResult<MeHandle> {
        self.setup_entry()
            .me_attach(pt_index, match_id, match_bits, ignore_bits, unlink, pos)
    }

    /// `PtlMDAttach`.
    #[allow(clippy::too_many_arguments)]
    pub fn md_attach(
        &mut self,
        me: MeHandle,
        start: u64,
        length: u64,
        options: MdOptions,
        threshold: Threshold,
        eq: Option<EqHandle>,
        user_ptr: u64,
    ) -> PtlResult<MdHandle> {
        let size = self.proc().mem.size();
        self.setup_entry()
            .md_attach(me, size, start, length, options, threshold, eq, user_ptr)
    }

    /// `PtlMEInsert`.
    #[allow(clippy::too_many_arguments)]
    pub fn me_insert(
        &mut self,
        reference: MeHandle,
        pos: InsertPos,
        match_id: ProcessId,
        match_bits: MatchBits,
        ignore_bits: MatchBits,
        unlink: UnlinkOp,
    ) -> PtlResult<MeHandle> {
        self.setup_entry()
            .me_insert(reference, pos, match_id, match_bits, ignore_bits, unlink)
    }

    /// `PtlMEUnlink`.
    pub fn me_unlink(&mut self, me: MeHandle) -> PtlResult<()> {
        self.setup_entry().me_unlink(me)
    }

    /// `PtlMDUnlink`.
    pub fn md_unlink(&mut self, md: MdHandle) -> PtlResult<()> {
        self.setup_entry().md_unlink(md)
    }

    /// `PtlPut`: put the whole descriptor (a region put over `[0, len)`).
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        md: MdHandle,
        ack: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<()> {
        let len = self.proc().lib.md(md)?.length;
        self.put_region(
            md,
            0,
            len,
            ack,
            target,
            pt_index,
            ac_index,
            match_bits,
            remote_offset,
            hdr_data,
        )
    }

    /// `PtlPutRegion`: put a sub-range of the MD.
    #[allow(clippy::too_many_arguments)]
    pub fn put_region(
        &mut self,
        md: MdHandle,
        local_offset: u64,
        length: u64,
        ack: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<()> {
        self.put_with(md, local_offset, length, target, |lib| {
            lib.put_region(
                md,
                local_offset,
                length,
                ack,
                target,
                pt_index,
                ac_index,
                match_bits,
                remote_offset,
                hdr_data,
            )
        })
    }

    /// Atomic put (`PtlAtomic`-style): the target combines the payload
    /// into its memory lane-wise with `op` instead of overwriting. Rides
    /// the ordinary put path on the wire; offsets and length must be
    /// 8-byte aligned.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic_put(
        &mut self,
        md: MdHandle,
        local_offset: u64,
        length: u64,
        op: AtomicOp,
        ack: AckReq,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
        hdr_data: u64,
    ) -> PtlResult<()> {
        self.put_with(md, local_offset, length, target, |lib| {
            lib.atomic_region(
                md,
                local_offset,
                length,
                op,
                ack,
                target,
                pt_index,
                ac_index,
                match_bits,
                remote_offset,
                hdr_data,
            )
        })
    }

    /// The one body of every put-shaped operation: entry charges, the
    /// library call that builds the header (`build`), then read/prepare
    /// the payload, charge DMA prep, and hand the message to the
    /// firmware.
    fn put_with(
        &mut self,
        md: MdHandle,
        local_offset: u64,
        length: u64,
        target: ProcessId,
        build: impl FnOnce(&mut PortalsLib) -> PtlResult<PortalsHeader>,
    ) -> PtlResult<()> {
        let api_start = self.tx_entry(target)?;
        let header = build(&mut self.proc().lib)?;
        let (start, len) = self.proc().lib.tx_region_at(md, local_offset, length)?;
        let synthetic = self.m.config.synthetic_payload;
        let proc = &self.m.nodes[self.node].procs[self.pid as usize];
        let prepared = proc
            .bridge
            .prepare(&self.m.config.cost, proc.mem.as_ref(), start, len as u32)
            .ok_or(PtlError::InvalidArg)?;
        let data = if synthetic {
            WireData::Synthetic(len)
        } else {
            WireData::Real(proc.mem.read(start, len as u32).into())
        };
        self.charge(prepared.prep_cost);
        let chunks = prepared.commands.len().max(1) as u32;
        self.transmit(header, data, chunks, Some(md), api_start);
        Ok(())
    }

    /// `PtlGet`. The reply deposits at the MD's start.
    pub fn get(
        &mut self,
        md: MdHandle,
        target: ProcessId,
        pt_index: u32,
        ac_index: u32,
        match_bits: MatchBits,
        remote_offset: u64,
    ) -> PtlResult<()> {
        let api_start = self.tx_entry(target)?;
        let header =
            self.proc()
                .lib
                .get(md, target, pt_index, ac_index, match_bits, remote_offset)?;
        // Pre-compute the reply deposit buffer and push it down with the
        // command, so the firmware can deposit the reply without host
        // involvement.
        let (start, len) = self.proc().lib.tx_region(md)?;
        let proc = &self.m.nodes[self.node].procs[self.pid as usize];
        let prepared = proc
            .bridge
            .prepare(&self.m.config.cost, proc.mem.as_ref(), start, len as u32)
            .ok_or(PtlError::InvalidArg)?;
        self.charge(prepared.prep_cost);
        self.m.nodes[self.node]
            .await_reply
            .insert((self.pid, md), prepared.commands.len() as u32);
        self.transmit(header, WireData::Synthetic(0), 1, None, api_start);
        Ok(())
    }

    /// Hand one message to this process's firmware-level process.
    fn transmit(
        &mut self,
        header: PortalsHeader,
        data: WireData,
        chunks: u32,
        md: Option<MdHandle>,
        api_start: SimTime,
    ) {
        let fw_proc = self.proc().fw_proc;
        self.time = self.m.transmit_internal(
            self.q, self.time, self.node, fw_proc, self.pid, header, data, chunks, md, api_start,
        );
    }

    /// Charge host CPU time for application/library computation (e.g.
    /// MPI request bookkeeping, buffer copies).
    pub fn compute(&mut self, cost: SimTime) {
        self.charge(cost);
    }

    /// Copy `len` bytes within this process's memory, charging the host
    /// memcpy rate (used for MPI unexpected-message copies).
    pub fn copy_mem(&mut self, from: u64, to: u64, len: u32) {
        let cm = self.m.config.cost;
        self.charge(cm.host_copy_bw.transfer_time(len as u64));
        if !self.m.config.synthetic_payload {
            let data = self.proc().mem.read(from, len);
            self.proc().mem.write(to, &data);
        }
    }

    /// Write bytes into this process's memory (setup; free of charge).
    pub fn write_mem(&mut self, addr: u64, data: &[u8]) {
        self.proc().mem.write(addr, data);
    }

    /// Read bytes from this process's memory.
    pub fn read_mem(&mut self, addr: u64, len: u32) -> Vec<u8> {
        self.proc().mem.read(addr, len)
    }

    /// Block until an event is available on `eq` (`PtlEQWait`).
    pub fn wait_eq(&mut self, eq: EqHandle) {
        self.wait = WaitRequest::Eq(eq);
    }

    /// Wake after `delay`.
    pub fn sleep(&mut self, delay: SimTime) {
        self.wait = WaitRequest::Timer(delay);
    }

    /// Terminate this app.
    pub fn finish(&mut self) {
        self.finished = true;
    }
}
