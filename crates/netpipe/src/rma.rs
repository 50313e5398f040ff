//! The MPI-3 RMA NetPIPE drivers and RMA-native workloads.
//!
//! The two-sided drivers (`mpi.rs`) synchronize rounds with tagged
//! ready/done messages because that is all MPI point-to-point offers.
//! The RMA drivers use the personality's own synchronization instead:
//! every round boundary is an `MPI_Win_fence`, which drains all pending
//! one-sided operations and runs the endpoint's dissemination barrier.
//! Data movement is pure one-sided traffic into pre-created windows —
//! no receives are ever posted, and the target observes arrivals only
//! through window events ([`RmaCompletionKind::WindowPut`]).
//!
//! Measurement conventions match `ptl.rs`/`mpi.rs` exactly so curves
//! are comparable:
//!
//! * **ping-pong put/accumulate**: one iteration = ping + pong (the
//!   target answers each window arrival with its own put back);
//!   `messages = 2 * reps`, `bw_factor = 1`;
//! * **ping-pong get**: a get is its own round trip; `messages = reps`;
//! * **streaming**: measured at the *receiver* between its first and
//!   last window arrival: `(reps - 1, t_last - t_first, 1)`;
//! * **bidirectional**: both ranks ping-pong simultaneously; rank 0
//!   records `(reps, elapsed, 2)`.
//!
//! The module also hosts the two RMA-native workloads the audit and
//! fault campaigns replay:
//!
//! * [`dht_machine`] — a 4-rank distributed hash table: every rank
//!   streams keyed `Accumulate(Sum)` inserts (plus periodic `Get`
//!   lookups) into pseudo-randomly chosen peers' windows. Because `Sum`
//!   is commutative on u64 lanes, the sum of all stored lanes must
//!   equal the sum of all inserted values — the integrity invariant
//!   [`dht_outcome`] exposes, and one that double-counting (a
//!   retransmitted accumulate applied twice) or loss breaks
//!   immediately;
//! * [`window_halo_machine`] — a 2×2×2 window-driven halo exchange:
//!   each rank puts three faces per iteration straight into its XOR
//!   neighbors' windows and fences; after the fence each incoming face
//!   must carry the neighbor's exact pattern bytes.

use crate::report::RoundResult;
use crate::schedule::Schedule;
use std::any::Any;
use xt3_mpi::{Personality, RmaCompletion, RmaCompletionKind, RmaEndpoint};
use xt3_node::config::{MachineConfig, NodeSpec, OsKind, ProcSpec};
use xt3_node::{App, AppCtx, AppEvent, Machine};
use xt3_portals::header::AtomicOp;
use xt3_portals::types::ProcessId;
use xt3_sim::{FaultPlan, SimRng, SimTime};
use xt3_topology::coord::Dims;

/// Outstanding puts a streaming sender keeps in flight (remote acks
/// are the completion signal, so this is stricter than the two-sided
/// drivers' send-side window — and still pipelines the wire).
const STREAM_WINDOW: u32 = 16;

/// RMA test patterns. The extra `PingPongGet`/`PingPongAcc` patterns
/// (beyond the three [`crate::runner::TestKind`]s) exist so `perf rma`
/// can sweep every one-sided verb against the two-sided baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaPattern {
    /// Put ping-pong: the target answers each window arrival with a put.
    PingPongPut,
    /// Get ping-pong: rank 0 pulls from rank 1's window; rank 1 is
    /// entirely passive (the NIC serves the gets).
    PingPongGet,
    /// Accumulate ping-pong: like put, with `Accumulate(Sum)` both ways.
    PingPongAcc,
    /// Uni-directional streaming put, measured at the receiver.
    Stream,
    /// Bidirectional put ping-pong.
    Bidir,
}

/// Buffer layout for the RMA drivers.
#[derive(Debug, Clone, Copy)]
pub struct RmaLayout {
    /// Origin buffer for puts/accumulates.
    pub tx: u64,
    /// Landing buffer for gets.
    pub rx: u64,
    /// Base of the exposed window.
    pub win: u64,
    /// Window length.
    pub win_len: u64,
    /// Total process memory needed.
    pub mem_bytes: u64,
}

impl RmaLayout {
    /// Layout for a maximum message size.
    pub fn for_max(max_size: u64) -> Self {
        let align = |x: u64| (x + 4095) & !4095;
        let region = align(max_size.max(64));
        RmaLayout {
            tx: 0,
            rx: region,
            win: 2 * region,
            win_len: region,
            mem_bytes: 3 * region + 4096,
        }
    }
}

/// One side of an RMA NetPIPE test; `rank` 0 initiates (and measures,
/// except for streaming where the receiving rank 1 measures).
pub struct RmaDriver {
    pattern: RmaPattern,
    schedule: Schedule,
    rank: u32,
    layout: RmaLayout,
    ep: Option<RmaEndpoint>,
    win: u64,
    round: usize,
    i: u32,
    issued: u32,
    outstanding: u32,
    count: u32,
    t0: SimTime,
    t_first: SimTime,
    t_last: SimTime,
    done: bool,
    /// Round measurements (rank 0 for ping-pong/bidir; rank 1 for
    /// streaming).
    pub results: Vec<RoundResult>,
}

impl RmaDriver {
    /// Create one side.
    pub fn new(pattern: RmaPattern, schedule: Schedule, rank: u32) -> Self {
        let layout = RmaLayout::for_max(schedule.max_size());
        RmaDriver {
            pattern,
            schedule,
            rank,
            layout,
            ep: None,
            win: 0,
            round: 0,
            i: 0,
            issued: 0,
            outstanding: 0,
            count: 0,
            t0: SimTime::ZERO,
            t_first: SimTime::ZERO,
            t_last: SimTime::ZERO,
            done: false,
            results: Vec::new(),
        }
    }

    /// The memory layout this driver requires.
    pub fn layout(&self) -> RmaLayout {
        self.layout
    }

    fn size(&self) -> u64 {
        self.schedule.points[self.round].size
    }

    /// Accumulate payloads round up to whole 8-byte lanes; results are
    /// still recorded under the nominal size so curves stay comparable.
    fn acc_len(&self) -> u64 {
        (self.size() + 7) & !7
    }

    fn reps(&self) -> u32 {
        self.schedule.points[self.round].reps
    }

    fn peer(&self) -> u32 {
        1 - self.rank
    }

    fn record(&mut self, messages: u32, elapsed: SimTime, bw_factor: u32) {
        self.results.push(RoundResult {
            size: self.size(),
            messages,
            elapsed,
            bw_factor,
        });
    }

    /// Close this rank's round: advance the counter and fence. The
    /// fence drains whatever this round still has in flight, so the
    /// next round starts from a quiet wire.
    fn close_round(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        self.round += 1;
        ep.fence(ctx).expect("fence");
    }

    fn pump_stream(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        let reps = self.reps();
        while self.issued < reps && self.outstanding < STREAM_WINDOW {
            ep.put(ctx, self.win, 1, self.layout.tx, self.size(), 0)
                .expect("stream put");
            self.issued += 1;
            self.outstanding += 1;
        }
    }

    /// A boundary fence completed: either start the next round's work
    /// or finish.
    fn on_fence(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        if self.round >= self.schedule.len() {
            self.done = true;
            return;
        }
        self.i = 0;
        self.issued = 0;
        self.outstanding = 0;
        self.count = 0;
        self.t0 = ctx.now();
        match (self.pattern, self.rank) {
            (RmaPattern::PingPongPut, 0) => {
                ep.put(ctx, self.win, 1, self.layout.tx, self.size(), 0)
                    .expect("ping put");
            }
            (RmaPattern::PingPongGet, 0) => {
                ep.get(ctx, self.win, 1, self.layout.rx, self.size(), 0)
                    .expect("ping get");
            }
            (RmaPattern::PingPongGet, 1) => {
                // Fully passive: the NIC serves the gets. Rejoin the
                // round boundary immediately; the barrier holds until
                // rank 0 finishes its reps.
                self.close_round(ep, ctx);
            }
            (RmaPattern::PingPongAcc, 0) => {
                ep.accumulate(
                    ctx,
                    self.win,
                    1,
                    self.layout.tx,
                    self.acc_len(),
                    AtomicOp::Sum,
                    0,
                )
                .expect("ping acc");
            }
            (RmaPattern::Stream, 0) => self.pump_stream(ep, ctx),
            (RmaPattern::Bidir, _) => {
                ep.put(ctx, self.win, self.peer(), self.layout.tx, self.size(), 0)
                    .expect("bidir put");
            }
            // Put/acc/stream targets start passive and react to window
            // arrivals.
            _ => {}
        }
    }

    /// A remote put/accumulate landed in our window.
    fn on_window_put(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        match (self.pattern, self.rank) {
            (RmaPattern::PingPongPut | RmaPattern::PingPongAcc, 0) => {
                // The pong is back: one iteration done.
                self.i += 1;
                if self.i < self.reps() {
                    match self.pattern {
                        RmaPattern::PingPongPut => ep
                            .put(ctx, self.win, 1, self.layout.tx, self.size(), 0)
                            .expect("ping put"),
                        _ => ep
                            .accumulate(
                                ctx,
                                self.win,
                                1,
                                self.layout.tx,
                                self.acc_len(),
                                AtomicOp::Sum,
                                0,
                            )
                            .expect("ping acc"),
                    };
                } else {
                    let reps = self.reps();
                    let elapsed = ctx.now() - self.t0;
                    self.record(2 * reps, elapsed, 1);
                    self.close_round(ep, ctx);
                }
            }
            (RmaPattern::PingPongPut | RmaPattern::PingPongAcc, 1) => {
                // A ping arrived: answer with the pong.
                self.count += 1;
                match self.pattern {
                    RmaPattern::PingPongPut => ep
                        .put(ctx, self.win, 0, self.layout.tx, self.size(), 0)
                        .expect("pong put"),
                    _ => ep
                        .accumulate(
                            ctx,
                            self.win,
                            0,
                            self.layout.tx,
                            self.acc_len(),
                            AtomicOp::Sum,
                            0,
                        )
                        .expect("pong acc"),
                };
                if self.count >= self.reps() {
                    self.close_round(ep, ctx);
                }
            }
            (RmaPattern::Stream, 1) => {
                self.count += 1;
                if self.count == 1 {
                    self.t_first = ctx.now();
                }
                self.t_last = ctx.now();
                let reps = self.reps();
                if self.count >= reps {
                    if reps > 1 && self.t_last > self.t_first {
                        let elapsed = self.t_last - self.t_first;
                        self.record(reps - 1, elapsed, 1);
                    }
                    self.close_round(ep, ctx);
                }
            }
            (RmaPattern::Bidir, _) => {
                self.i += 1;
                if self.i < self.reps() {
                    ep.put(ctx, self.win, self.peer(), self.layout.tx, self.size(), 0)
                        .expect("bidir put");
                } else {
                    if self.rank == 0 {
                        let reps = self.reps();
                        let elapsed = ctx.now() - self.t0;
                        self.record(reps, elapsed, 2);
                    }
                    self.close_round(ep, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_completion(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>, c: RmaCompletion) {
        match c.kind {
            RmaCompletionKind::Fence => self.on_fence(ep, ctx),
            RmaCompletionKind::WindowPut => self.on_window_put(ep, ctx),
            RmaCompletionKind::Put if self.pattern == RmaPattern::Stream && self.rank == 0 => {
                // Remote ack: retire one in-flight put, keep the pipe
                // full. When all reps are acked the round is over.
                self.outstanding -= 1;
                self.pump_stream(ep, ctx);
                if self.issued >= self.reps() && self.outstanding == 0 {
                    self.close_round(ep, ctx);
                }
            }
            RmaCompletionKind::Get if self.pattern == RmaPattern::PingPongGet => {
                self.i += 1;
                if self.i < self.reps() {
                    ep.get(ctx, self.win, 1, self.layout.rx, self.size(), 0)
                        .expect("ping get");
                } else {
                    // A get is its own round trip: messages = reps.
                    let reps = self.reps();
                    let elapsed = ctx.now() - self.t0;
                    self.record(reps, elapsed, 1);
                    self.close_round(ep, ctx);
                }
            }
            // Origin-side put/accumulate acks outside streaming: round
            // progress is driven by the target's reply arriving in our
            // window, and the boundary fence drains these anyway.
            _ => {}
        }
    }
}

impl App for RmaDriver {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::Started = event {
            let comm = vec![ProcessId::new(0, 0), ProcessId::new(1, 0)];
            let mut ep =
                RmaEndpoint::init(ctx, comm, self.rank, Personality::rma()).expect("rma init");
            if !ctx.synthetic() {
                let max = self.schedule.max_size().max(64) as usize;
                let pattern: Vec<u8> = (0..max).map(|i| (i % 241) as u8).collect();
                ctx.write_mem(self.layout.tx, &pattern);
            }
            self.win = ep
                .win_create(ctx, self.layout.win, self.layout.win_len, true)
                .expect("win_create");
            // Boundary fence 0: all windows exist once it completes.
            ep.fence(ctx).expect("fence");
            ctx.wait_eq(ep.eq());
            self.ep = Some(ep);
            return;
        }

        let mut ep = self.ep.take().expect("endpoint");
        if let AppEvent::Ptl(ev) = &event {
            ep.progress(ctx, ev.clone());
        }
        loop {
            let completions = ep.take_completions();
            if completions.is_empty() {
                break;
            }
            for c in completions {
                self.on_completion(&mut ep, ctx, c);
            }
        }
        if self.done {
            ctx.finish();
        } else {
            ctx.wait_eq(ep.eq());
        }
        self.ep = Some(ep);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// RMA-native workloads
// ---------------------------------------------------------------------

/// Ranks in the DHT workload.
pub const DHT_RANKS: u32 = 4;
/// Lanes per rank's DHT window.
pub const DHT_SLOTS: u64 = 64;
/// Accumulate inserts each rank issues.
pub const DHT_OPS_PER_RANK: u32 = 24;
const DHT_SEED: u64 = 0xD47A_5EED;

/// Ranks in the window-halo workload (2×2×2).
pub const HALO_RANKS: u32 = 8;
/// Bytes per exchanged face.
pub const HALO_FACE: u64 = 256;
/// Halo iterations.
pub const HALO_ITERS: u32 = 3;

/// Origin staging base for workload puts/accumulates.
const W_TX: u64 = 0;
/// Landing base for DHT lookups.
const W_GET: u64 = 1 << 15;
/// Exposed window base in both workloads.
const W_WIN: u64 = 1 << 16;

/// Configuration shared by the RMA workload machines.
#[derive(Debug, Clone)]
pub struct RmaWorkloadConfig {
    /// Carry real payload bytes (required for the integrity checks).
    pub real_payload: bool,
    /// Enable the telemetry sink.
    pub telemetry: bool,
    /// Deterministic fault plan, handed to
    /// [`MachineConfig::with_faults`]: an active plan runs under
    /// go-back-n, so losses are recovered.
    pub faults: FaultPlan,
}

impl RmaWorkloadConfig {
    /// The audit configuration: synthetic payloads, no instrumentation —
    /// the cheapest digest-stable build.
    pub fn audit() -> Self {
        RmaWorkloadConfig {
            real_payload: false,
            telemetry: false,
            faults: FaultPlan::none(),
        }
    }

    /// Real payloads, so [`dht_outcome`]/[`halo_outcome`] can verify
    /// integrity invariants.
    pub fn validation() -> Self {
        RmaWorkloadConfig {
            real_payload: true,
            ..Self::audit()
        }
    }

    /// Replace the fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable telemetry (builder style).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

fn workload_machine(cfg: &RmaWorkloadConfig, dims: Dims) -> Machine {
    let mut mc = MachineConfig::paper(dims).with_faults(cfg.faults.clone());
    mc.synthetic_payload = !cfg.real_payload;
    mc.telemetry = cfg.telemetry;
    let spec = NodeSpec {
        os: OsKind::Catamount,
        procs: vec![ProcSpec {
            mem_bytes: 1 << 20,
            ..ProcSpec::catamount_generic()
        }],
    };
    Machine::new(mc, &[spec])
}

fn comm(n: u32) -> Vec<ProcessId> {
    (0..n).map(|i| ProcessId::new(i, 0)).collect()
}

/// One planned DHT operation.
#[derive(Debug, Clone, Copy)]
struct DhtOp {
    target: u32,
    slot: u64,
    value: u64,
    lookup: bool,
}

/// One rank of the distributed hash table workload.
pub struct DhtRank {
    rank: u32,
    n: u32,
    ep: Option<RmaEndpoint>,
    win: u64,
    plan: Vec<DhtOp>,
    step: u32,
    done: bool,
    /// Wrapping sum of every value this rank inserted.
    pub inserted_sum: u64,
    /// Wrapping sum of this rank's window lanes after the final fence
    /// (0 under synthetic payloads).
    pub window_sum: u64,
    /// Completed lookup gets.
    pub lookups: u32,
    /// Accumulates that queued behind an in-flight one (per-target
    /// serialization at work).
    pub acc_serialized: u64,
}

impl DhtRank {
    /// Plan this rank's operations from the shared deterministic seed.
    pub fn new(rank: u32, n: u32) -> Self {
        let mut rng = SimRng::new(DHT_SEED).fork(rank as u64 + 1);
        let mut plan = Vec::with_capacity(DHT_OPS_PER_RANK as usize);
        let mut inserted_sum = 0u64;
        for i in 0..DHT_OPS_PER_RANK {
            // Never self-target: pick among the other n-1 ranks.
            let target = ((rank as u64 + 1 + rng.below(n as u64 - 1)) % n as u64) as u32;
            let slot = rng.below(DHT_SLOTS);
            let value = rng.next_u64();
            inserted_sum = inserted_sum.wrapping_add(value);
            plan.push(DhtOp {
                target,
                slot,
                value,
                lookup: i % 4 == 3,
            });
        }
        DhtRank {
            rank,
            n,
            ep: None,
            win: 0,
            plan,
            step: 0,
            done: false,
            inserted_sum,
            window_sum: 0,
            lookups: 0,
            acc_serialized: 0,
        }
    }
}

impl App for DhtRank {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::Started = event {
            let mut ep = RmaEndpoint::init(ctx, comm(self.n), self.rank, Personality::rma())
                .expect("rma init");
            ctx.write_mem(W_WIN, &vec![0u8; (DHT_SLOTS * 8) as usize]);
            // Stage every insert value once; each op gets its own lane
            // so origin buffers stay untouched while queued.
            let staged: Vec<u8> = self
                .plan
                .iter()
                .flat_map(|op| op.value.to_le_bytes())
                .collect();
            ctx.write_mem(W_TX, &staged);
            self.win = ep
                .win_create(ctx, W_WIN, DHT_SLOTS * 8, false)
                .expect("win_create");
            ep.fence(ctx).expect("fence");
            ctx.wait_eq(ep.eq());
            self.ep = Some(ep);
            return;
        }

        let mut ep = self.ep.take().expect("endpoint");
        if let AppEvent::Ptl(ev) = &event {
            ep.progress(ctx, ev.clone());
        }
        for c in ep.take_completions() {
            match c.kind {
                RmaCompletionKind::Fence if self.step == 0 => {
                    // All windows exist: fire the whole plan. Per-target
                    // accumulate serialization orders the inserts; the
                    // closing fence drains them.
                    self.step = 1;
                    for i in 0..self.plan.len() {
                        let op = self.plan[i];
                        ep.accumulate(
                            ctx,
                            self.win,
                            op.target,
                            W_TX + i as u64 * 8,
                            8,
                            AtomicOp::Sum,
                            op.slot * 8,
                        )
                        .expect("dht insert");
                        if op.lookup {
                            ep.get(
                                ctx,
                                self.win,
                                op.target,
                                W_GET + i as u64 * 8,
                                8,
                                op.slot * 8,
                            )
                            .expect("dht lookup");
                        }
                    }
                    ep.fence(ctx).expect("fence");
                }
                RmaCompletionKind::Fence => {
                    // Everything is globally applied: read back our own
                    // shard.
                    if !ctx.synthetic() {
                        for lane in 0..DHT_SLOTS {
                            let b = ctx.read_mem(W_WIN + lane * 8, 8);
                            let mut a = [0u8; 8];
                            a.copy_from_slice(&b);
                            self.window_sum = self.window_sum.wrapping_add(u64::from_le_bytes(a));
                        }
                    }
                    self.acc_serialized = ep.acc_serialized;
                    self.done = true;
                }
                RmaCompletionKind::Get => self.lookups += 1,
                _ => {}
            }
        }
        if self.done {
            ctx.finish();
        } else {
            ctx.wait_eq(ep.eq());
        }
        self.ep = Some(ep);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build the DHT workload machine (4 ranks on a 4×1×1 mesh).
pub fn dht_machine(cfg: &RmaWorkloadConfig) -> Machine {
    let mut m = workload_machine(cfg, Dims::mesh(DHT_RANKS as u16, 1, 1));
    for r in 0..DHT_RANKS {
        m.spawn(r, 0, Box::new(DhtRank::new(r, DHT_RANKS)));
    }
    m
}

/// Aggregated DHT integrity numbers, pulled from a finished machine.
#[derive(Debug, Clone, Copy)]
pub struct DhtOutcome {
    /// Wrapping sum of every inserted value across all ranks.
    pub inserted: u64,
    /// Wrapping sum of every stored window lane across all ranks
    /// (equals `inserted` iff every accumulate applied exactly once).
    pub stored: u64,
    /// Completed lookups across all ranks.
    pub lookups: u32,
    /// Serialized (queued) accumulates across all ranks.
    pub acc_serialized: u64,
}

/// Extract the [`DhtOutcome`] after a drained run of [`dht_machine`].
pub fn dht_outcome(m: &mut Machine) -> DhtOutcome {
    let mut out = DhtOutcome {
        inserted: 0,
        stored: 0,
        lookups: 0,
        acc_serialized: 0,
    };
    for r in 0..DHT_RANKS {
        let mut a = m.take_app(r, 0).expect("dht rank");
        let app = a.as_any().downcast_mut::<DhtRank>().expect("DhtRank");
        out.inserted = out.inserted.wrapping_add(app.inserted_sum);
        out.stored = out.stored.wrapping_add(app.window_sum);
        out.lookups += app.lookups;
        out.acc_serialized += app.acc_serialized;
    }
    out
}

fn halo_byte(rank: u32, iter: u32, axis: u32, j: u64) -> u8 {
    ((rank as u64 * 7 + iter as u64 * 13 + axis as u64 * 29 + j * 3 + 11) % 251) as u8
}

/// One rank of the window-driven halo exchange.
pub struct HaloRank {
    rank: u32,
    ep: Option<RmaEndpoint>,
    win: u64,
    iter: u32,
    done: bool,
    /// Set if any received face failed byte verification.
    pub corrupt: bool,
    /// Iterations whose incoming faces were verified.
    pub iters_done: u32,
}

impl HaloRank {
    /// Create one rank.
    pub fn new(rank: u32) -> Self {
        HaloRank {
            rank,
            ep: None,
            win: 0,
            iter: 0,
            done: false,
            corrupt: false,
            iters_done: 0,
        }
    }

    /// Neighbor along `axis` in the 2×2×2 torus: flip that axis bit.
    fn neighbor(&self, axis: u32) -> u32 {
        self.rank ^ (1 << axis)
    }

    /// Window displacement of `axis`'s incoming face for `iter`.
    ///
    /// Faces are double-buffered by iteration parity: rank A verifies
    /// iteration `k`'s faces right after fence `k+1` completes *locally*,
    /// but a fast peer may already have exited that fence and launched
    /// iteration `k+1` puts (fault-delayed barrier arrivals make the
    /// skew arbitrarily large). Parity buffering keeps those incoming
    /// puts off the faces still being read — iteration `k+2` reuses the
    /// slot, and the dissemination barrier guarantees no rank exits
    /// fence `k+2` before every rank (including the reader) entered it.
    fn face_disp(iter: u32, axis: u32) -> u64 {
        (iter % 2) as u64 * 3 * HALO_FACE + axis as u64 * HALO_FACE
    }

    fn start_iter(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        let it = self.iter;
        for axis in 0..3u32 {
            let off = axis as u64 * HALO_FACE;
            if !ctx.synthetic() {
                let face: Vec<u8> = (0..HALO_FACE)
                    .map(|j| halo_byte(self.rank, it, axis, j))
                    .collect();
                ctx.write_mem(W_TX + off, &face);
            }
            ep.put(
                ctx,
                self.win,
                self.neighbor(axis),
                W_TX + off,
                HALO_FACE,
                Self::face_disp(it, axis),
            )
            .expect("halo put");
        }
    }

    fn verify_iter(&mut self, ctx: &mut AppCtx<'_>, iter: u32) {
        if !ctx.synthetic() {
            for axis in 0..3u32 {
                let got = ctx.read_mem(W_WIN + Self::face_disp(iter, axis), HALO_FACE as u32);
                let want: Vec<u8> = (0..HALO_FACE)
                    .map(|j| halo_byte(self.neighbor(axis), iter, axis, j))
                    .collect();
                if got != want {
                    self.corrupt = true;
                }
            }
        }
        self.iters_done += 1;
    }
}

impl App for HaloRank {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::Started = event {
            let mut ep = RmaEndpoint::init(ctx, comm(HALO_RANKS), self.rank, Personality::rma())
                .expect("rma init");
            ctx.write_mem(W_WIN, &vec![0u8; (6 * HALO_FACE) as usize]);
            self.win = ep
                .win_create(ctx, W_WIN, 6 * HALO_FACE, false)
                .expect("win_create");
            ep.fence(ctx).expect("fence");
            ctx.wait_eq(ep.eq());
            self.ep = Some(ep);
            return;
        }

        let mut ep = self.ep.take().expect("endpoint");
        if let AppEvent::Ptl(ev) = &event {
            ep.progress(ctx, ev.clone());
        }
        for c in ep.take_completions() {
            if c.kind == RmaCompletionKind::Fence {
                if self.iter > 0 {
                    self.verify_iter(ctx, self.iter - 1);
                }
                if self.iter >= HALO_ITERS {
                    self.done = true;
                } else {
                    self.start_iter(&mut ep, ctx);
                    self.iter += 1;
                    ep.fence(ctx).expect("fence");
                }
            }
        }
        if self.done {
            ctx.finish();
        } else {
            ctx.wait_eq(ep.eq());
        }
        self.ep = Some(ep);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build the window-halo workload machine (8 ranks on a 2×2×2 torus).
pub fn window_halo_machine(cfg: &RmaWorkloadConfig) -> Machine {
    let mut m = workload_machine(cfg, Dims::torus(2, 2, 2));
    for r in 0..HALO_RANKS {
        m.spawn(r, 0, Box::new(HaloRank::new(r)));
    }
    m
}

/// Halo integrity numbers, pulled from a finished machine.
#[derive(Debug, Clone, Copy)]
pub struct HaloOutcome {
    /// True if any rank saw a corrupt face.
    pub corrupt: bool,
    /// Minimum iterations verified by any rank (must equal
    /// [`HALO_ITERS`]).
    pub iters: u32,
}

/// Extract the [`HaloOutcome`] after a drained run of
/// [`window_halo_machine`].
pub fn halo_outcome(m: &mut Machine) -> HaloOutcome {
    let mut corrupt = false;
    let mut iters = u32::MAX;
    for r in 0..HALO_RANKS {
        let mut a = m.take_app(r, 0).expect("halo rank");
        let app = a.as_any().downcast_mut::<HaloRank>().expect("HaloRank");
        corrupt |= app.corrupt;
        iters = iters.min(app.iters_done);
    }
    HaloOutcome { corrupt, iters }
}
