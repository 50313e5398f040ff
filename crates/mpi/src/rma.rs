//! MPI-3 one-sided (RMA) over Portals one-sided primitives.
//!
//! The two-sided personalities (`endpoint.rs`) spend their overhead on
//! MPI matching: posted-receive queues, unexpected-message bounce
//! buffers, tag encoding. One-sided MPI needs none of that — `MPI_Put`
//! *is* a Portals put, `MPI_Get` *is* a Portals get, and
//! `MPI_Accumulate` is a put whose header carries an
//! [`AtomicOp`] the target applies lane-wise. The RMA personality is
//! therefore a thin completion-counting layer:
//!
//! * **ops** — each Put/Get/Accumulate binds a `Threshold::Count(1)` MD
//!   over the origin buffer and fires the Portals operation with the op
//!   id as `user_ptr`. Remote completion is observed through Portals
//!   events, not handshakes: puts and accumulates request a hardware
//!   **Ack** (the MD is unlinked there — `SendEnd` is ignored, it only
//!   proves local reuse safety), gets complete at **ReplyEnd**.
//! * **sync** — `flush`/`flush_all`/`unlock`/`unlock_all` drain
//!   per-target pending counters. `fence` drains everything, then runs a
//!   dissemination barrier of zero-byte puts on a dedicated sync portal
//!   ([`RMA_SYNC_PT`]), `hdr_data = epoch << 16 | round`, with early
//!   arrivals buffered per `(epoch, round)`.
//! * **determinism** — `Sum` and `Max` are commutative and associative
//!   on u64 lanes, so their result is arrival-order independent.
//!   `Replace` is not, and network adaptivity can reorder two puts to
//!   the same target, so the endpoint serializes accumulates per target:
//!   one in flight, the rest queued in issue order.
//!
//! `lock`/`lock_all` are local no-ops: windows are always exposed
//! (passive-target progress needs no host involvement on this NIC —
//! the same observation foMPI makes on the Aries/DMAPP port), and
//! exclusive-mode queuing is not modeled. `unlock` is where the MPI
//! standard puts the completion guarantee, and it really flushes.
//!
//! Floating-point accumulation stays out of the deterministic core via
//! an order-preserving bit encoding ([`f64_to_ordered_bits`]): `Max`
//! over encoded lanes equals `Max` over the floats, and `Sum` of
//! encoded floats is not offered (it would need float arithmetic at the
//! target; MPI_SUM here is integer).

use crate::personality::Personality;
use crate::types::{MpiError, Rank};
use crate::window::{Window, RMA_PT, WIN_BASE};
// Ordered collections keep op/target iteration deterministic (audit
// rules: clippy bans HashMap/HashSet in the workspace).
use std::collections::{BTreeMap, VecDeque};
use xt3_node::machine::AppCtx;
use xt3_portals::event::{Event as PtlEvent, EventKind};
use xt3_portals::header::AtomicOp;
use xt3_portals::md::{MdOptions, Threshold};
use xt3_portals::me::{InsertPos, UnlinkOp};
use xt3_portals::types::{AckReq, EqHandle, ProcessId};

/// Portal table index for RMA synchronization (fence barrier) traffic.
pub const RMA_SYNC_PT: u32 = 5;

/// User pointer of the sync receive MD (barrier arrivals land here).
const SYNC_RECV_PTR: u64 = u64::MAX - 8192;
/// User pointer of transient sync send MDs (unlinked at `SendEnd`).
const SYNC_SEND_PTR: u64 = SYNC_RECV_PTR + 1;

/// What an [`RmaCompletion`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaCompletionKind {
    /// An `MPI_Put` reached the target window (Ack observed).
    Put,
    /// An `MPI_Get` deposited locally (Reply observed).
    Get,
    /// An `MPI_Accumulate` was applied at the target (Ack observed).
    Accumulate,
    /// A `fence` epoch finished (all ops drained + barrier).
    Fence,
    /// A `flush`/`flush_all`/`unlock`/`unlock_all` drained.
    Flush,
    /// Target side: a remote put/accumulate landed in a local window
    /// created with events enabled.
    WindowPut,
}

/// One completed RMA operation or synchronization.
#[derive(Debug, Clone, Copy)]
pub struct RmaCompletion {
    /// What completed.
    pub kind: RmaCompletionKind,
    /// Op id (as returned by put/get/accumulate), 0 for sync and
    /// window events.
    pub op: u64,
    /// Peer rank (target for ops, initiator for `WindowPut`; 0 for
    /// rank-less sync).
    pub peer: Rank,
    /// Window id involved (0 for sync).
    pub win: u64,
    /// Bytes moved.
    pub len: u64,
    /// For `WindowPut`: displacement within the window.
    pub offset: u64,
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Put,
    Get,
    Accumulate,
}

#[derive(Debug, Clone, Copy)]
struct OpState {
    kind: OpKind,
    target: Rank,
    win: u64,
    len: u64,
}

/// A deferred accumulate (per-target serialization).
#[derive(Debug, Clone, Copy)]
struct QueuedAcc {
    op_id: u64,
    local_addr: u64,
    len: u64,
    atomic: AtomicOp,
    win: u64,
    disp: u64,
}

/// Synchronization in progress (at most one at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncState {
    Idle,
    /// Draining pending ops for one target (`None` = all).
    Flushing(Option<Rank>),
    /// Fence phase 1: drain everything.
    FenceFlush,
    /// Fence phase 2: dissemination barrier, awaiting round `k`'s
    /// arrival.
    FenceRound(u32),
}

/// `ceil(log2(n))` in integers (see `collectives.rs` for why not
/// `f64::log2`).
fn ceil_log2(n: Rank) -> u32 {
    debug_assert!(n >= 2);
    u32::BITS - (n - 1).leading_zeros()
}

/// Map an `f64` to a `u64` whose unsigned order equals the floats'
/// order (for all non-NaN values, with `-0.0 < +0.0`): flip all bits of
/// negatives, flip only the sign bit of positives. `AtomicOp::Max` over
/// encoded lanes then implements floating-point max with pure integer
/// comparison at the target.
pub fn f64_to_ordered_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`f64_to_ordered_bits`].
pub fn ordered_bits_to_f64(b: u64) -> f64 {
    if b & (1 << 63) != 0 {
        f64::from_bits(b & !(1 << 63))
    } else {
        f64::from_bits(!b)
    }
}

/// An MPI-3 RMA endpoint over one Portals process.
pub struct RmaEndpoint {
    personality: Personality,
    comm: Vec<ProcessId>,
    my_rank: Rank,
    eq: EqHandle,
    windows: BTreeMap<u64, Window>,
    next_win: u64,
    next_op: u64,
    ops: BTreeMap<u64, OpState>,
    /// Outstanding ops per target rank.
    pending: BTreeMap<Rank, u64>,
    pending_total: u64,
    /// Targets with an accumulate in flight; later accumulates queue.
    acc_inflight: BTreeMap<Rank, bool>,
    acc_queue: BTreeMap<Rank, VecDeque<QueuedAcc>>,
    sync: SyncState,
    /// Current fence epoch (first fence runs epoch 1).
    epoch: u64,
    /// Buffered barrier arrivals per (epoch, round).
    arrived: BTreeMap<(u64, u32), u32>,
    completions: Vec<RmaCompletion>,
    /// Completed fences (statistics / cheap polling).
    pub fences: u64,
    /// Accumulates that had to queue behind an in-flight one.
    pub acc_serialized: u64,
}

impl RmaEndpoint {
    /// Initialize over the calling process: allocates the event queue
    /// and arms the sync portal with a catch-all zero-byte receive.
    pub fn init(
        ctx: &mut AppCtx<'_>,
        comm: Vec<ProcessId>,
        my_rank: Rank,
        personality: Personality,
    ) -> Result<Self, MpiError> {
        let eq = ctx.eq_alloc(4096).map_err(|_| MpiError::Portals)?;
        let sync_me = ctx
            .me_attach(
                RMA_SYNC_PT,
                ProcessId::any(),
                0,
                u64::MAX,
                UnlinkOp::Retain,
                InsertPos::After,
            )
            .map_err(|_| MpiError::Portals)?;
        // Zero-length region: barrier puts carry no payload, only
        // hdr_data.
        ctx.md_attach(
            sync_me,
            0,
            0,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(eq),
            SYNC_RECV_PTR,
        )
        .map_err(|_| MpiError::Portals)?;
        Ok(RmaEndpoint {
            personality,
            comm,
            my_rank,
            eq,
            windows: BTreeMap::new(),
            next_win: 0,
            next_op: 1,
            ops: BTreeMap::new(),
            pending: BTreeMap::new(),
            pending_total: 0,
            acc_inflight: BTreeMap::new(),
            acc_queue: BTreeMap::new(),
            sync: SyncState::Idle,
            epoch: 0,
            arrived: BTreeMap::new(),
            completions: Vec::new(),
            fences: 0,
            acc_serialized: 0,
        })
    }

    /// The event queue apps should wait on.
    pub fn eq(&self) -> EqHandle {
        self.eq
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.my_rank
    }

    /// Communicator size.
    pub fn size(&self) -> Rank {
        self.comm.len() as Rank
    }

    /// The personality in use.
    pub fn personality(&self) -> &Personality {
        &self.personality
    }

    /// Outstanding ops toward `target`.
    pub fn pending(&self, target: Rank) -> u64 {
        self.pending.get(&target).copied().unwrap_or(0)
    }

    /// Outstanding ops toward all targets.
    pub fn pending_total(&self) -> u64 {
        self.pending_total
    }

    /// True when no synchronization is in progress.
    pub fn sync_idle(&self) -> bool {
        self.sync == SyncState::Idle
    }

    /// `MPI_Win_create`: expose `[base, base+len)`. Every rank must
    /// create its windows in the same order (ids are assigned
    /// sequentially and must agree across the communicator). With
    /// `events`, remote puts landing in this window are reported as
    /// [`RmaCompletionKind::WindowPut`] completions.
    pub fn win_create(
        &mut self,
        ctx: &mut AppCtx<'_>,
        base: u64,
        len: u64,
        events: bool,
    ) -> Result<u64, MpiError> {
        let id = self.next_win;
        self.next_win += 1;
        let win = Window::create(ctx, self.eq, id, base, len, events)?;
        self.windows.insert(id, win);
        Ok(id)
    }

    /// `MPI_Win_free`. The caller must have synchronized (fence or
    /// flush) first.
    pub fn win_free(&mut self, ctx: &mut AppCtx<'_>, id: u64) -> Result<(), MpiError> {
        let win = self.windows.remove(&id).ok_or(MpiError::Portals)?;
        win.free(ctx)
    }

    /// The local exposure of window `id` (e.g. to read received data).
    pub fn window(&self, id: u64) -> Option<&Window> {
        self.windows.get(&id)
    }

    fn fresh_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        op
    }

    fn target_pid(&self, target: Rank) -> Result<ProcessId, MpiError> {
        self.comm
            .get(target as usize)
            .copied()
            .ok_or(MpiError::BadRank)
    }

    fn note_issued(&mut self, op_id: u64, kind: OpKind, target: Rank, win: u64, len: u64) {
        self.ops.insert(
            op_id,
            OpState {
                kind,
                target,
                win,
                len,
            },
        );
        *self.pending.entry(target).or_insert(0) += 1;
        self.pending_total += 1;
    }

    /// `MPI_Put`: write `[local_addr, local_addr+len)` into window
    /// `win` at rank `target`, displacement `disp`. Returns the op id;
    /// completion (remote, ack-based) arrives as an
    /// [`RmaCompletionKind::Put`].
    pub fn put(
        &mut self,
        ctx: &mut AppCtx<'_>,
        win: u64,
        target: Rank,
        local_addr: u64,
        len: u64,
        disp: u64,
    ) -> Result<u64, MpiError> {
        let pid = self.target_pid(target)?;
        ctx.compute(self.personality.send_overhead);
        let op_id = self.fresh_op();
        let md = ctx
            .md_bind(
                local_addr,
                len,
                MdOptions::default(),
                Threshold::Count(1),
                Some(self.eq),
                op_id,
            )
            .map_err(|_| MpiError::Portals)?;
        ctx.put(md, AckReq::Ack, pid, RMA_PT, 0, win, disp, 0)
            .map_err(|_| MpiError::Portals)?;
        self.note_issued(op_id, OpKind::Put, target, win, len);
        Ok(op_id)
    }

    /// `MPI_Get`: read `len` bytes from window `win` at rank `target`,
    /// displacement `disp`, into `local_addr`. Completes at `ReplyEnd`
    /// as an [`RmaCompletionKind::Get`].
    pub fn get(
        &mut self,
        ctx: &mut AppCtx<'_>,
        win: u64,
        target: Rank,
        local_addr: u64,
        len: u64,
        disp: u64,
    ) -> Result<u64, MpiError> {
        let pid = self.target_pid(target)?;
        ctx.compute(self.personality.send_overhead);
        let op_id = self.fresh_op();
        let md = ctx
            .md_bind(
                local_addr,
                len,
                MdOptions::default(),
                Threshold::Count(1),
                Some(self.eq),
                op_id,
            )
            .map_err(|_| MpiError::Portals)?;
        ctx.get(md, pid, RMA_PT, 0, win, disp)
            .map_err(|_| MpiError::Portals)?;
        self.note_issued(op_id, OpKind::Get, target, win, len);
        Ok(op_id)
    }

    /// `MPI_Accumulate` with `op` over 8-byte lanes (`len` and `disp`
    /// must be 8-byte aligned). Serialized per target: a second
    /// accumulate to the same rank queues until the first is Acked, so
    /// the order-dependent `Replace` is deterministic even when the
    /// network would reorder. The origin buffer must stay unchanged
    /// until the op completes (the MPI rule for origin buffers under
    /// pending RMA).
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate(
        &mut self,
        ctx: &mut AppCtx<'_>,
        win: u64,
        target: Rank,
        local_addr: u64,
        len: u64,
        op: AtomicOp,
        disp: u64,
    ) -> Result<u64, MpiError> {
        self.target_pid(target)?;
        ctx.compute(self.personality.send_overhead);
        let op_id = self.fresh_op();
        let acc = QueuedAcc {
            op_id,
            local_addr,
            len,
            atomic: op,
            win,
            disp,
        };
        if self.acc_inflight.get(&target).copied().unwrap_or(false) {
            self.acc_serialized += 1;
            self.acc_queue.entry(target).or_default().push_back(acc);
        } else {
            self.issue_acc(ctx, target, acc)?;
        }
        // Queued or issued, the op is pending either way.
        self.note_issued(op_id, OpKind::Accumulate, target, win, len);
        Ok(op_id)
    }

    fn issue_acc(
        &mut self,
        ctx: &mut AppCtx<'_>,
        target: Rank,
        acc: QueuedAcc,
    ) -> Result<(), MpiError> {
        let pid = self.target_pid(target)?;
        let md = ctx
            .md_bind(
                acc.local_addr,
                acc.len,
                MdOptions::default(),
                Threshold::Count(1),
                Some(self.eq),
                acc.op_id,
            )
            .map_err(|_| MpiError::Portals)?;
        ctx.atomic_put(
            md,
            0,
            acc.len,
            acc.atomic,
            AckReq::Ack,
            pid,
            RMA_PT,
            0,
            acc.win,
            acc.disp,
            0,
        )
        .map_err(|_| MpiError::Portals)?;
        self.acc_inflight.insert(target, true);
        Ok(())
    }

    /// `MPI_Win_flush(target)`: completes (as
    /// [`RmaCompletionKind::Flush`]) once every op toward `target` has
    /// finished remotely.
    pub fn flush(&mut self, ctx: &mut AppCtx<'_>, target: Rank) -> Result<(), MpiError> {
        debug_assert!(self.sync_idle(), "one sync at a time");
        self.sync = SyncState::Flushing(Some(target));
        self.try_advance_sync(ctx);
        Ok(())
    }

    /// `MPI_Win_flush_all`: like [`flush`](Self::flush) for every
    /// target.
    pub fn flush_all(&mut self, ctx: &mut AppCtx<'_>) -> Result<(), MpiError> {
        debug_assert!(self.sync_idle(), "one sync at a time");
        self.sync = SyncState::Flushing(None);
        self.try_advance_sync(ctx);
        Ok(())
    }

    /// `MPI_Win_lock`: a local no-op — windows are always exposed and
    /// exclusive-mode queuing is not modeled. The completion guarantee
    /// lives in [`unlock`](Self::unlock).
    pub fn lock(&mut self, _target: Rank) {}

    /// `MPI_Win_lock_all`: local no-op (see [`lock`](Self::lock)).
    pub fn lock_all(&mut self) {}

    /// `MPI_Win_unlock(target)`: flushes the target (the standard's
    /// completion point for a passive-target epoch).
    pub fn unlock(&mut self, ctx: &mut AppCtx<'_>, target: Rank) -> Result<(), MpiError> {
        self.flush(ctx, target)
    }

    /// `MPI_Win_unlock_all`: flushes every target.
    pub fn unlock_all(&mut self, ctx: &mut AppCtx<'_>) -> Result<(), MpiError> {
        self.flush_all(ctx)
    }

    /// `MPI_Win_fence`: drain all pending ops, then run a dissemination
    /// barrier (ceil(log2 n) rounds of zero-byte puts on
    /// [`RMA_SYNC_PT`]). Completes as [`RmaCompletionKind::Fence`].
    pub fn fence(&mut self, ctx: &mut AppCtx<'_>) -> Result<(), MpiError> {
        debug_assert!(self.sync_idle(), "one sync at a time");
        self.epoch += 1;
        self.sync = SyncState::FenceFlush;
        self.try_advance_sync(ctx);
        Ok(())
    }

    fn barrier_rounds(&self) -> u32 {
        if self.size() < 2 {
            0
        } else {
            ceil_log2(self.size())
        }
    }

    /// Send this epoch/round's barrier notification to
    /// `(me + 2^round) mod n`.
    fn send_sync(&mut self, ctx: &mut AppCtx<'_>, round: u32) -> Result<(), MpiError> {
        let n = self.size();
        let peer = (self.my_rank + (1 << round)) % n;
        let pid = self.target_pid(peer)?;
        let md = ctx
            .md_bind(
                0,
                0,
                MdOptions::default(),
                Threshold::Count(1),
                Some(self.eq),
                SYNC_SEND_PTR,
            )
            .map_err(|_| MpiError::Portals)?;
        let hdr = (self.epoch << 16) | round as u64;
        ctx.put(md, AckReq::NoAck, pid, RMA_SYNC_PT, 0, 0, 0, hdr)
            .map_err(|_| MpiError::Portals)?;
        Ok(())
    }

    /// Consume one buffered arrival for `(epoch, round)` if present.
    fn take_arrival(&mut self, round: u32) -> bool {
        let key = (self.epoch, round);
        match self.arrived.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.arrived.remove(&key);
                }
                true
            }
            _ => false,
        }
    }

    /// Advance the sync state machine as far as current counters allow.
    fn try_advance_sync(&mut self, ctx: &mut AppCtx<'_>) {
        loop {
            match self.sync {
                SyncState::Idle => return,
                SyncState::Flushing(target) => {
                    let drained = match target {
                        Some(t) => self.pending(t) == 0,
                        None => self.pending_total == 0,
                    };
                    if !drained {
                        return;
                    }
                    self.sync = SyncState::Idle;
                    self.completions.push(RmaCompletion {
                        kind: RmaCompletionKind::Flush,
                        op: 0,
                        peer: target.unwrap_or(0),
                        win: 0,
                        len: 0,
                        offset: 0,
                    });
                    return;
                }
                SyncState::FenceFlush => {
                    if self.pending_total != 0 {
                        return;
                    }
                    if self.barrier_rounds() == 0 {
                        self.finish_fence();
                        return;
                    }
                    let _ = self.send_sync(ctx, 0);
                    self.sync = SyncState::FenceRound(0);
                }
                SyncState::FenceRound(k) => {
                    if !self.take_arrival(k) {
                        return;
                    }
                    if k + 1 == self.barrier_rounds() {
                        self.finish_fence();
                        return;
                    }
                    let _ = self.send_sync(ctx, k + 1);
                    self.sync = SyncState::FenceRound(k + 1);
                }
            }
        }
    }

    fn finish_fence(&mut self) {
        self.sync = SyncState::Idle;
        self.fences += 1;
        self.completions.push(RmaCompletion {
            kind: RmaCompletionKind::Fence,
            op: 0,
            peer: 0,
            win: 0,
            len: 0,
            offset: 0,
        });
    }

    /// An op toward `target` finished remotely.
    fn op_done(&mut self, ctx: &mut AppCtx<'_>, op_id: u64, state: OpState) {
        let kind = match state.kind {
            OpKind::Put => RmaCompletionKind::Put,
            OpKind::Get => RmaCompletionKind::Get,
            OpKind::Accumulate => RmaCompletionKind::Accumulate,
        };
        if let Some(p) = self.pending.get_mut(&state.target) {
            *p = p.saturating_sub(1);
            if *p == 0 {
                self.pending.remove(&state.target);
            }
        }
        self.pending_total = self.pending_total.saturating_sub(1);
        if matches!(state.kind, OpKind::Accumulate) {
            self.acc_inflight.remove(&state.target);
            let next = self
                .acc_queue
                .get_mut(&state.target)
                .and_then(|q| q.pop_front());
            if let Some(acc) = next {
                let _ = self.issue_acc(ctx, state.target, acc);
            }
        }
        self.completions.push(RmaCompletion {
            kind,
            op: op_id,
            peer: state.target,
            win: state.win,
            len: state.len,
            offset: 0,
        });
        self.try_advance_sync(ctx);
    }

    /// Rank of a peer process id (for window-event attribution).
    fn rank_of(&self, pid: ProcessId) -> Rank {
        self.comm
            .iter()
            .position(|&p| p == pid)
            .map(|i| i as Rank)
            .unwrap_or(0)
    }

    /// Feed one Portals event through the progress engine.
    pub fn progress(&mut self, ctx: &mut AppCtx<'_>, ev: PtlEvent) {
        ctx.compute(self.personality.event_overhead);
        match ev.kind {
            EventKind::PutEnd if ev.user_ptr == SYNC_RECV_PTR => {
                // Barrier notification: hdr_data = epoch << 16 | round.
                let epoch = ev.hdr_data >> 16;
                let round = (ev.hdr_data & 0xFFFF) as u32;
                *self.arrived.entry((epoch, round)).or_insert(0) += 1;
                self.try_advance_sync(ctx);
            }
            EventKind::PutEnd if ev.user_ptr >= WIN_BASE => {
                // A remote put/accumulate landed in a local window with
                // events enabled.
                self.completions.push(RmaCompletion {
                    kind: RmaCompletionKind::WindowPut,
                    op: 0,
                    peer: self.rank_of(ev.initiator),
                    win: ev.user_ptr - WIN_BASE,
                    len: ev.mlength,
                    offset: ev.offset,
                });
            }
            EventKind::PutEnd => {
                // Windows without events attach no EQ, so nothing else
                // should land here; ignore defensively.
            }
            EventKind::SendEnd if ev.user_ptr == SYNC_SEND_PTR => {
                // Zero-byte barrier put left the NIC; its MD is done.
                let _ = ctx.md_unlink(ev.md);
            }
            EventKind::SendEnd => {
                // Op payload left the NIC. Completion is the Ack/Reply;
                // unlinking here would strand it against a stale MD.
            }
            EventKind::Ack => {
                // Remote completion of a put or accumulate.
                let op_id = ev.user_ptr;
                if let Some(state) = self.ops.remove(&op_id) {
                    let _ = ctx.md_unlink(ev.md);
                    self.op_done(ctx, op_id, state);
                }
            }
            EventKind::ReplyEnd => {
                // A get's data deposited locally.
                let op_id = ev.user_ptr;
                if let Some(state) = self.ops.remove(&op_id) {
                    let _ = ctx.md_unlink(ev.md);
                    self.op_done(ctx, op_id, state);
                }
            }
            EventKind::PutStart
            | EventKind::GetStart
            | EventKind::GetEnd
            | EventKind::ReplyStart
            | EventKind::Unlink => {}
        }
    }

    /// Drain completed operations and synchronizations.
    pub fn take_completions(&mut self) -> Vec<RmaCompletion> {
        std::mem::take(&mut self.completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_bits_preserve_f64_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -1.0,
            -0.0,
            0.0,
            1.0e-300,
            1.0,
            2.5,
            1.0e300,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                f64_to_ordered_bits(a) <= f64_to_ordered_bits(b),
                "{a} vs {b}"
            );
        }
        for &x in &xs {
            assert_eq!(
                ordered_bits_to_f64(f64_to_ordered_bits(x)).to_bits(),
                x.to_bits()
            );
        }
    }

    #[test]
    fn max_on_encoded_lanes_is_float_max() {
        let pairs = [(-3.0, 2.0), (1.5, 1.25), (-7.0, -2.0), (0.0, -0.0)];
        for (a, b) in pairs {
            let m = AtomicOp::Max.apply(f64_to_ordered_bits(a), f64_to_ordered_bits(b));
            let expect: f64 = if a >= b { a } else { b };
            assert_eq!(ordered_bits_to_f64(m).to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn barrier_round_counts() {
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }
}
