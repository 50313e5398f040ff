//! MPI ping-pong over Portals: the measurement at the heart of the
//! paper's Figure 4 MPI curves, as a standalone program.
//!
//! Two ranks exchange messages of increasing size through the full
//! MPI-over-Portals stack (eager below 128 KB, rendezvous above) and
//! report per-size latency and bandwidth for both MPI personalities.
//!
//! Run: `cargo run --release --example mpi_pingpong`

use portals_xt3::mpi::Personality;
use portals_xt3::netpipe::mpi::{MpiDriver, MpiLayout, MpiPattern};
use portals_xt3::netpipe::{Schedule, SizePoint};
use portals_xt3::xt3::config::{MachineConfig, NodeSpec, OsKind, ProcSpec};
use portals_xt3::xt3::Machine;

fn run(personality: Personality) {
    println!("== {} ==", personality.name);
    let schedule = Schedule {
        points: [1u64, 64, 1024, 16 << 10, 128 << 10, 1 << 20, 4 << 20]
            .into_iter()
            .map(|size| SizePoint {
                size,
                reps: Schedule::default_reps(size).min(20),
            })
            .collect(),
    };
    let layout = MpiLayout::for_max(schedule.max_size(), &personality);
    let mut mc = MachineConfig::paper_pair();
    mc.synthetic_payload = true;
    let proc = ProcSpec {
        mem_bytes: layout.mem_bytes as usize,
        ..ProcSpec::catamount_generic()
    };
    let mut m = Machine::new(
        mc,
        &[NodeSpec {
            os: OsKind::Catamount,
            procs: vec![proc],
        }],
    );
    m.spawn(
        0,
        0,
        Box::new(MpiDriver::new(
            MpiPattern::PingPong,
            personality,
            schedule.clone(),
            0,
        )),
    );
    m.spawn(
        1,
        0,
        Box::new(MpiDriver::new(
            MpiPattern::PingPong,
            personality,
            schedule,
            1,
        )),
    );
    let mut engine = m.into_engine();
    engine.run();
    let mut m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    let mut rank0 = m.take_app(0, 0).expect("rank 0");
    let results = &rank0
        .as_any()
        .downcast_mut::<MpiDriver>()
        .expect("driver")
        .results;

    println!(
        "{:>12} {:>14} {:>14} {:>12}",
        "bytes", "latency (us)", "bw (MB/s)", "protocol"
    );
    for r in results {
        let proto = if r.size <= personality.eager_max {
            "eager"
        } else {
            "rendezvous"
        };
        println!(
            "{:>12} {:>14.3} {:>14.2} {:>12}",
            r.size,
            r.latency_us(),
            r.bandwidth_mb(),
            proto
        );
    }
    println!();
}

fn main() {
    run(Personality::mpich1());
    run(Personality::mpich2());
    println!("Paper anchors: 1-byte latency 7.97 us (mpich-1.2.6), 8.40 us (mpich2);");
    println!("bandwidth approaches the Portals put curve at scale (Fig. 5).");
}
