//! What one node costs, pinned: the inline size of `Node`, the size of
//! its hot record, the firmware's per-peer and per-receive structures
//! within the sizes the SRAM ledger charges, the delivery box each
//! message in flight holds, the heap blocks a
//! built-then-run machine holds per node, the SRAM ledger every node
//! of one layout shares, and that no receive record outlives its
//! receive.
//!
//! One test, because the block census is the process's: this binary
//! installs the counting allocator `mem_footprint` measures with, and a
//! second test running beside the first would be counted into it.

use xt3_bench::heap::{self, Census, CountingAlloc};
use xt3_firmware::pending::{LowerPending, LOWER_PENDING_BYTES};
use xt3_firmware::source::Source;
use xt3_node::machine::Parcel;
use xt3_node::node::{Node, NodeHot};
use xt3_node::workloads::{red_storm_machine, traffic_machine, TrafficPattern};
use xt3_sim::RunOutcome;
use xt3_topology::coord::Dims;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `size_of::<Node>()` as landed: 824 → 576 in the node-diet step (the
/// busy cursors' job counts went, go-back-n and reply maps moved into a
/// box made on first use, the host's per-process rows became one record
/// a process); 1,096 before the row step, 880 before the host's
/// write-only match counter went, 872 before the write-only counters of
/// the chip, its PPC and HyperTransport and the firmware went.
const NODE_BYTES: usize = 576;

/// Live heap blocks per node once a neighbour round has drained: 26 → 23
/// in the node-diet step (one record a firmware-level process instead of
/// four one-element rows); 31 before the row step, 27 before each
/// source's RX list was threaded through its pendings ...
const BLOCKS_PER_NODE: u64 = 23;
/// ... and the ones the machine holds once: node vector, queue, fabric,
/// the shared SRAM ledger and its names.
const BLOCKS_PER_MACHINE: u64 = 12;

/// Live heap bytes a node of a drained 4x4x2 all-to-all holds: its rows
/// of pendings, sources and box pointers. Rows that kept each 168 B
/// receive record at the high water held about 3.4 KB a node more, and
/// lower pendings that kept their DMA command list 980 B more (7,714).
const ALLTOALL_BYTES_PER_NODE: u64 = 6_734;

#[test]
fn a_node_costs_what_landed() {
    assert!(
        std::mem::size_of::<Node>() <= NODE_BYTES,
        "Node grew to {} B: 10,368 of them are walked in event order, and \
         PR 19 measured 8 B more as 2 % of redstorm_round",
        std::mem::size_of::<Node>()
    );
    assert!(std::mem::size_of::<NodeHot>() <= 64, "one cache line");
    // §4.2's structures, one per peer and one per message in flight: the
    // ledger below charges the hardware's sizes, and the host keeps what
    // the firmware reads (a 32 B source is charged, the host keeps 16 B;
    // a 64 B lower pending is charged, the host keeps 24 B).
    assert!(std::mem::size_of::<Source>() <= 16, "no heap, two links");
    assert_eq!(std::mem::size_of::<LowerPending>(), 24, "no DMA list");
    assert!(std::mem::size_of::<LowerPending>() <= LOWER_PENDING_BYTES as usize);
    // Its upper pending is the message's delivery box: the sequence rides
    // in the wire kind, a payload keeps no capacity, the box's tag sits
    // in a niche of the receive record, and the record keeps a 72 B
    // header and a stowed ticket (176 B, then 160 B before).
    assert_eq!(std::mem::size_of::<Parcel>(), 136, "no tag word");

    let floor = Census::take();
    let dims = Dims::red_storm(4, 4, 2);
    let machine = red_storm_machine(dims, 1, 16 * 1024);
    let (a, b) = (&machine.nodes[0], &machine.nodes[31]);
    assert!(
        std::sync::Arc::ptr_eq(&a.chip.sram, &b.chip.sram),
        "nodes of one layout share one SRAM ledger"
    );
    // The §4.2 occupancy of one generic process, as `table sram` prints it.
    assert_eq!(
        a.chip.sram.used(),
        22 * 1024 + 512 + 32 * 1024 + 1274 * 64 + 768
    );
    assert_eq!(a.chip.sram.regions().len(), 6);
    assert_eq!(a.chip.sram.capacity(), 384 * 1024);

    let mut engine = machine.into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained);
    assert_eq!(engine.model().running_apps(), 0);
    let live = Census::take().since(&floor);
    let landed = BLOCKS_PER_NODE * u64::from(dims.node_count()) + BLOCKS_PER_MACHINE;
    assert!(
        live.blocks() <= landed,
        "{} live blocks after the round, {landed} landed",
        live.blocks()
    );
    drop(engine);

    // Every node has a receive from every peer in flight at once. The
    // records leave with their receives: once the run has drained no
    // delivery box is live, and a node holds only its rows.
    let floor = Census::take();
    let before = heap::live_bytes();
    let mut engine = traffic_machine(TrafficPattern::AllToAll, dims, 1, 4096).into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained);
    let parcel = std::mem::size_of::<Parcel>() as u64;
    let boxes = Census::take()
        .since(&floor)
        .by_size()
        .find(|&(size, ..)| size == parcel)
        .map_or(0, |(_, blocks, _)| blocks);
    assert_eq!(boxes, 0, "{boxes} receive records outlived their receives");
    let held = heap::live_bytes().saturating_sub(before) / u64::from(dims.node_count());
    assert!(
        held <= ALLTOALL_BYTES_PER_NODE,
        "a drained all-to-all holds {held} B a node, {ALLTOALL_BYTES_PER_NODE} landed"
    );
}
