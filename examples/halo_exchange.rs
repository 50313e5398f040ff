//! Halo exchange: the communication kernel of the stencil codes Red Storm
//! was built for, on an 8-node (2x2x2) Catamount machine.
//!
//! Each rank owns a cube of cells and exchanges face data with its six
//! neighbors every iteration (here: the ±x, ±y, ±z partners in the 2x2x2
//! block), then joins a global allreduce — the classic
//! compute/exchange/reduce loop, driven entirely through the MPI-over-
//! Portals stack on the simulated SeaStar fabric.
//!
//! Run: `cargo run --release --example halo_exchange`

use portals_xt3::mpi::collectives::AllReduce;
use portals_xt3::mpi::{CompletionKind, MpiEndpoint, Personality, ReqId};
use portals_xt3::portals::types::ProcessId;
use portals_xt3::topology::coord::Dims;
use portals_xt3::xt3::config::{MachineConfig, NodeSpec, OsKind, ProcSpec};
use portals_xt3::xt3::{App, AppCtx, AppEvent, Machine};
use std::any::Any;
use std::collections::BTreeSet;

const ITERATIONS: u32 = 4;
const FACE_BYTES: u64 = 64 * 1024; // one face of a 64^3 f64 cube is 32 KB; use 64 KB
const SEND_BASE: u64 = 0;
const RECV_BASE: u64 = 1 << 20;
const BOUNCE: u64 = 4 << 20;

struct HaloRank {
    rank: u32,
    n: u32,
    ep: Option<MpiEndpoint>,
    iter: u32,
    pending: BTreeSet<ReqId>,
    reduce: Option<AllReduce>,
    phase: Phase,
    /// Final reduced value per iteration (all ranks must agree).
    pub reduced: Vec<f64>,
}

#[derive(Debug, PartialEq)]
enum Phase {
    Exchange,
    Reduce,
    Done,
}

impl HaloRank {
    fn neighbors(&self) -> Vec<u32> {
        // 2x2x2 block: the three axis partners.
        (0..3).map(|axis| self.rank ^ (1 << axis)).collect()
    }

    fn start_exchange(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        self.phase = Phase::Exchange;
        self.pending.clear();
        let tag_base = 100 + self.iter * 8;
        for (i, nb) in self.neighbors().into_iter().enumerate() {
            // Post receives first (expected path), then sends.
            let tag = tag_base + i as u32;
            let r = ep
                .irecv(ctx, nb, tag, RECV_BASE + i as u64 * FACE_BYTES, FACE_BYTES)
                .expect("irecv");
            self.pending.insert(r);
        }
        for (i, nb) in self.neighbors().into_iter().enumerate() {
            let tag = tag_base + i as u32;
            let s = ep
                .isend(ctx, nb, tag, SEND_BASE + i as u64 * FACE_BYTES, FACE_BYTES)
                .expect("isend");
            self.pending.insert(s);
        }
    }

    fn start_reduce(&mut self, ep: &mut MpiEndpoint, ctx: &mut AppCtx<'_>) {
        self.phase = Phase::Reduce;
        // Reduce a per-rank residual; sum over 8 ranks of (rank+1) = 36.
        let mut red = AllReduce::new(
            ep,
            (self.rank + 1) as f64,
            RECV_BASE + 8 * FACE_BYTES,
            RECV_BASE + 8 * FACE_BYTES + 8,
            self.iter,
        );
        red.advance(ep, ctx).expect("allreduce");
        self.reduce = Some(red);
    }
}

impl App for HaloRank {
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::Started = event {
            let comm = (0..self.n).map(|i| ProcessId::new(i, 0)).collect();
            let mut ep = MpiEndpoint::init(ctx, comm, self.rank, Personality::mpich1(), BOUNCE)
                .expect("mpi init");
            self.start_exchange(&mut ep, ctx);
            ctx.wait_eq(ep.eq());
            self.ep = Some(ep);
            return;
        }
        let mut ep = self.ep.take().expect("ep");
        if let AppEvent::Ptl(ev) = &event {
            ep.progress(ctx, ev.clone());
        }
        loop {
            let comps = ep.take_completions();
            if comps.is_empty() {
                break;
            }
            for c in comps {
                match self.phase {
                    Phase::Exchange => {
                        self.pending.remove(&c.req);
                        debug_assert!(matches!(
                            c.kind,
                            CompletionKind::Send | CompletionKind::Recv
                        ));
                        if self.pending.is_empty() {
                            self.start_reduce(&mut ep, ctx);
                        }
                    }
                    Phase::Reduce => {
                        let red = self.reduce.as_mut().expect("reduce running");
                        if red.on_completion(&mut ep, ctx, &c).expect("reduce step") {
                            self.reduced.push(red.value);
                            self.iter += 1;
                            if self.iter >= ITERATIONS {
                                self.phase = Phase::Done;
                            } else {
                                self.start_exchange(&mut ep, ctx);
                            }
                        }
                    }
                    Phase::Done => {}
                }
            }
        }
        if self.phase == Phase::Done {
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

fn main() {
    let dims = Dims::torus(2, 2, 2);
    let mut config = MachineConfig::paper(dims);
    // Real payloads: the allreduce exchanges actual f64 values.
    config.synthetic_payload = false;
    let spec = NodeSpec {
        os: OsKind::Catamount,
        procs: vec![ProcSpec {
            mem_bytes: 8 << 20,
            ..ProcSpec::catamount_generic()
        }],
    };
    let mut m = Machine::new(config, &[spec]);
    for rank in 0..8 {
        m.spawn(
            rank,
            0,
            Box::new(HaloRank {
                rank,
                n: 8,
                ep: None,
                iter: 0,
                pending: BTreeSet::new(),
                reduce: None,
                phase: Phase::Exchange,
                reduced: Vec::new(),
            }),
        );
    }
    let mut engine = m.into_engine();
    engine.run();
    let finished = engine.now();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0, "all ranks complete");

    println!("halo exchange on 2x2x2 torus: {ITERATIONS} iterations, {FACE_BYTES}-byte faces");
    for rank in 0..8 {
        let mut a = m.take_app(rank, 0).unwrap();
        let h = a.as_any().downcast_mut::<HaloRank>().unwrap();
        assert_eq!(h.reduced.len(), ITERATIONS as usize);
        assert!(h.reduced.iter().all(|&v| v == 36.0), "global sum agrees");
        if rank == 0 {
            println!("rank 0 residuals: {:?}", h.reduced);
        }
    }
    let bytes = m.fabric.bytes_sent();
    println!(
        "simulated time: {finished} | wire payload: {:.1} MB across {} messages | peak link utilization: {:.1}%",
        bytes as f64 / 1e6,
        m.fabric.messages_sent(),
        m.fabric.peak_link_utilization(finished) * 100.0
    );
}
