//! The per-node rows of the Portals library: `Slab` stepped against its
//! obvious model across every growth edge of the row rule
//! (`xt3_portals::slab::fit_by_use`), and the demand-sized access
//! control table at its edges.

use xt3_portals::acl::AcEntry;
use xt3_portals::slab::{fit_by_use, fit_ring_by_use, Slab};
use xt3_portals::*;

/// The sizes a row passes on its way up: each power of two, the slot
/// before it and the slot after it, as far as 511 -> 512.
const EDGES: [usize; 12] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 511, 512, 513];

/// What a slab is, without the row rule: generation-counted slots, the
/// freed ones reused last-freed-first, then the lowest fresh index.
#[derive(Default)]
struct SlabModel {
    slots: Vec<(u32, Option<u64>)>,
    free: Vec<u32>,
}

impl SlabModel {
    fn insert(&mut self, value: u64) -> (u32, u32) {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.1 = Some(value);
            return (idx, slot.0);
        }
        self.slots.push((0, Some(value)));
        (self.slots.len() as u32 - 1, 0)
    }

    fn remove(&mut self, idx: u32, generation: u32) -> Option<u64> {
        let slot = self.slots.get_mut(idx as usize)?;
        if slot.0 != generation {
            return None;
        }
        let value = slot.1.take()?;
        slot.0 += 1;
        self.free.push(idx);
        Some(value)
    }
}

#[test]
fn both_row_kinds_start_at_one_slot_and_double() {
    let mut vec: Vec<[u64; 9]> = Vec::new();
    let mut ring: std::collections::VecDeque<[u64; 9]> = Default::default();
    for len in 0..600 {
        fit_by_use(&mut vec, len + 1);
        vec.push([len as u64; 9]);
        fit_ring_by_use(&mut ring, len + 1);
        ring.push_back([len as u64; 9]);
        assert_eq!(vec.capacity(), (len + 1).next_power_of_two());
        assert_eq!(ring.capacity(), (len + 1).next_power_of_two());
    }
    // A ring that is drained as it is filled never leaves its first slot.
    let mut ring: std::collections::VecDeque<u64> = Default::default();
    for i in 0..100 {
        let need = ring.len() + 1;
        fit_ring_by_use(&mut ring, need);
        ring.push_back(i);
        assert_eq!(ring.pop_front(), Some(i));
        assert_eq!(ring.capacity(), 1);
    }
    // Asking for a far slot at once lands on the same powers of two.
    let mut row: Vec<Option<[u64; 4]>> = Vec::new();
    fit_by_use(&mut row, 9);
    assert_eq!(row.capacity(), 16);
    fit_by_use(&mut row, 16);
    assert_eq!(row.capacity(), 16);
}

#[test]
fn slab_matches_its_model_across_every_growth_edge() {
    let mut slab: Slab<u64> = Slab::new(1024);
    let mut model = SlabModel::default();
    let mut live: Vec<(u32, u32)> = Vec::new();
    assert_eq!(slab.row_capacity(), 0, "nothing before the first insert");
    let mut next = 0u64;
    for &edge in &EDGES {
        // Up to the edge, one insert at a time.
        while live.len() < edge {
            next += 1;
            let got = slab.insert(next).expect("below the limit");
            assert_eq!(got, model.insert(next), "issue order and generation");
            live.push(got);
            let most = model.slots.len();
            assert_eq!(slab.row_capacity(), most.next_power_of_two());
        }
        assert_eq!(slab.len() as usize, edge);
        // Free every third handle, oldest first, then fill the holes: the
        // last freed comes back first, one generation on, and the row
        // does not move.
        let capacity = slab.row_capacity();
        let freed: Vec<(u32, u32)> = live.iter().copied().step_by(3).collect();
        for &(idx, generation) in &freed {
            assert_eq!(slab.remove(idx, generation), model.remove(idx, generation));
            assert_eq!(slab.get(idx, generation), None, "stale at once");
        }
        live.retain(|h| !freed.contains(h));
        for _ in &freed {
            next += 1;
            let got = slab.insert(next).expect("a freed slot");
            assert_eq!(got, model.insert(next));
            assert_eq!(slab.get(got.0, got.1), Some(&next));
            live.push(got);
        }
        assert_eq!(slab.row_capacity(), capacity, "reuse allocates nothing");
    }
    let held: Vec<(u32, u32, u64)> = slab.iter().map(|(i, g, &v)| (i, g, v)).collect();
    let expect = model.slots.iter().enumerate();
    let expect: Vec<(u32, u32, u64)> = expect
        .filter_map(|(i, &(g, v))| Some((i as u32, g, v?)))
        .collect();
    assert_eq!(held, expect);
}

#[test]
fn one_live_value_is_one_slot() {
    let mut slab: Slab<[u64; 9]> = Slab::new(4096);
    for round in 0..50 {
        let (idx, generation) = slab.insert([round; 9]).unwrap();
        assert_eq!((idx, generation), (0, round as u32));
        slab.remove(idx, generation).unwrap();
    }
    assert_eq!(slab.row_capacity(), 1);
}

fn put_to(ac_index: u32) -> PortalsHeader {
    let no_md = MdHandle {
        index: 0,
        generation: 0,
    };
    let (src, dst) = (ProcessId::new(7, 0), ProcessId::new(1, 0));
    PortalsHeader::put(src, dst, 0, ac_index, 1, 8, 0, AckReq::NoAck, 0, no_md)
}

fn target() -> PortalsLib {
    let mut lib = PortalsLib::new(ProcessId::new(1, 0), NiLimits::default());
    let (any, after) = (ProcessId::any(), InsertPos::After);
    let me = lib
        .me_attach(0, any, 1, 0, UnlinkOp::Retain, after)
        .unwrap();
    let options = MdOptions::put_target();
    lib.md_attach(me, 1 << 16, 0, 64, options, Threshold::Infinite, None, 0)
        .unwrap();
    lib
}

#[test]
fn ac_table_edges() {
    let mut lib = target();
    let ac_size = lib.limits().ac_size;
    assert_eq!(lib.ac_put(ac_size - 1, AcEntry::open()), Ok(()));
    assert_eq!(
        lib.ac_put(ac_size, AcEntry::open()),
        Err(PtlError::AcIndexInvalid)
    );
    assert_eq!(
        lib.ac_put(u32::MAX, AcEntry::open()),
        Err(PtlError::AcIndexInvalid)
    );
    // The top entry is installed, the ones the table grew across are not.
    let matched = |lib: &mut PortalsLib, ac| {
        matches!(lib.match_incoming(&put_to(ac)), DeliverOutcome::Matched(_))
    };
    assert!(matched(&mut lib, ac_size - 1));
    assert!(matched(&mut lib, 0));
    assert!(!matched(&mut lib, ac_size - 2));
    assert_eq!(lib.counters().permission_violations, 1);
}

#[test]
fn a_valid_index_nobody_installed_is_one_permission_violation() {
    // A fresh library holds entry 0 and nothing else; every other valid
    // index — beyond the end of what is stored — denies, exactly as an
    // empty slot inside it does, and an invalid one likewise.
    let mut lib = target();
    let ac_size = lib.limits().ac_size;
    assert!(matches!(
        lib.match_incoming(&put_to(0)),
        DeliverOutcome::Matched(_)
    ));
    for (n, ac_index) in (1..ac_size).chain([ac_size, u32::MAX]).enumerate() {
        assert_eq!(
            lib.match_incoming(&put_to(ac_index)),
            DeliverOutcome::PermissionViolation
        );
        assert_eq!(lib.counters().permission_violations, n as u64 + 1);
    }
    assert_eq!(lib.counters().matched, 1);
    assert_eq!(lib.counters().dropped_no_match, 0);
}
