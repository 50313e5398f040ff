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
//! The rounds are kept and recorded by [`crate::measure`]: a put or
//! accumulate ping-pong answers each window arrival with its own write
//! back ([`Record::PingPong`]), a get is its own round trip
//! ([`Record::Get`]), a stream is measured at the receiving rank 1
//! between its first and last window arrival, and rank 0 records a
//! bidirectional round.
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

use crate::measure::{fill, Record, Rounds};
use crate::report::RoundResult;
use crate::schedule::Schedule;
use std::any::Any;
use xt3_mpi::{Personality, RmaCompletion, RmaCompletionKind, RmaEndpoint};
use xt3_node::config::{MachineConfig, NodeSpec, OsKind, ProcSpec};
use xt3_node::{App, AppCtx, AppEvent, Machine};
use xt3_portals::header::AtomicOp;
use xt3_portals::types::ProcessId;
use xt3_sim::{FaultPlan, SimRng};
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
    rank: u32,
    layout: RmaLayout,
    ep: Option<RmaEndpoint>,
    win: u64,
    rounds: Rounds,
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
            rank,
            layout,
            ep: None,
            win: 0,
            rounds: Rounds::new(schedule),
            done: false,
            results: Vec::new(),
        }
    }

    /// The pattern's one-sided write into `target`'s window: an
    /// `Accumulate(Sum)` for the accumulate ping-pong, whose payload
    /// rounds up to whole 8-byte lanes (results are still recorded under
    /// the nominal size, so curves stay comparable), a put otherwise.
    fn write(&self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>, target: u32) {
        let (win, tx, size) = (self.win, self.layout.tx, self.rounds.size());
        if self.pattern == RmaPattern::PingPongAcc {
            let lanes = (size + 7) & !7;
            ep.accumulate(ctx, win, target, tx, lanes, AtomicOp::Sum, 0)
                .expect("acc");
        } else {
            ep.put(ctx, win, target, tx, size, 0).expect("put");
        }
    }

    fn get(&self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        ep.get(ctx, self.win, 1, self.layout.rx, self.rounds.size(), 0)
            .expect("ping get");
    }

    /// Record the round as `how` measures it, if this rank measures it, then
    /// close the round: move on and fence. The fence drains whatever
    /// this round still has in flight, so the next round starts from a
    /// quiet wire.
    fn close_round(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>, how: Option<Record>) {
        if let Some(how) = how {
            self.rounds.record(how, ctx.now(), &mut self.results);
        }
        self.rounds.advance();
        ep.fence(ctx).expect("fence");
    }

    fn pump_stream(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        for _ in 0..self.rounds.pump(STREAM_WINDOW) {
            self.write(ep, ctx, 1);
        }
    }

    /// A boundary fence completed: either start the next round's work
    /// or finish.
    fn on_fence(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        if self.rounds.finished() {
            self.done = true;
            return;
        }
        self.rounds.start(ctx.now());
        match (self.pattern, self.rank) {
            (RmaPattern::PingPongPut | RmaPattern::PingPongAcc, 0) => self.write(ep, ctx, 1),
            (RmaPattern::PingPongGet, 0) => self.get(ep, ctx),
            // Fully passive: the NIC serves the gets. Rejoin the round
            // boundary immediately; the barrier holds until rank 0
            // finishes its reps.
            (RmaPattern::PingPongGet, 1) => self.close_round(ep, ctx, None),
            (RmaPattern::Stream, 0) => self.pump_stream(ep, ctx),
            (RmaPattern::Bidir, _) => self.write(ep, ctx, 1 - self.rank),
            // Put/acc/stream targets start passive and react to window
            // arrivals.
            _ => {}
        }
    }

    /// A remote put/accumulate landed in our window.
    fn on_window_put(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>) {
        let last = self.rounds.arrive(ctx.now());
        match (self.pattern, self.rank) {
            // The pong is back: one iteration done.
            (RmaPattern::PingPongPut | RmaPattern::PingPongAcc, 0) if last => {
                self.close_round(ep, ctx, Some(Record::PingPong))
            }
            (RmaPattern::PingPongPut | RmaPattern::PingPongAcc, 0) => self.write(ep, ctx, 1),
            // A ping arrived: answer with the pong.
            (RmaPattern::PingPongPut | RmaPattern::PingPongAcc, 1) => {
                self.write(ep, ctx, 0);
                if last {
                    self.close_round(ep, ctx, None);
                }
            }
            (RmaPattern::Stream, 1) if last => self.close_round(ep, ctx, Some(Record::Stream)),
            (RmaPattern::Bidir, 0) if last => self.close_round(ep, ctx, Some(Record::Bidir)),
            (RmaPattern::Bidir, _) if last => self.close_round(ep, ctx, None),
            (RmaPattern::Bidir, _) => self.write(ep, ctx, 1 - self.rank),
            _ => {}
        }
    }

    fn on_completion(&mut self, ep: &mut RmaEndpoint, ctx: &mut AppCtx<'_>, c: RmaCompletion) {
        match c.kind {
            RmaCompletionKind::Fence => self.on_fence(ep, ctx),
            RmaCompletionKind::WindowPut => self.on_window_put(ep, ctx),
            RmaCompletionKind::Put if self.pattern == RmaPattern::Stream && self.rank == 0 => {
                // Remote ack: retire one in-flight put, keep the pipe
                // full. When every rep is acked the round is over.
                self.rounds.retire();
                self.pump_stream(ep, ctx);
                if self.rounds.arrive(ctx.now()) {
                    self.close_round(ep, ctx, None);
                }
            }
            RmaCompletionKind::Get if self.pattern == RmaPattern::PingPongGet => {
                if self.rounds.arrive(ctx.now()) {
                    self.close_round(ep, ctx, Some(Record::Get));
                } else {
                    self.get(ep, ctx);
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
            fill(ctx, self.layout.tx, self.rounds.max_size(), 241);
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
}

fn workload_machine(cfg: &RmaWorkloadConfig, dims: Dims) -> Machine {
    let mut mc = MachineConfig::paper(dims).with_faults(cfg.faults.clone());
    mc.synthetic_payload = !cfg.real_payload;
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
