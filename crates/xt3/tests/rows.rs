//! The host's per-node pending rows: `PendingMap` and `TxFreeList`
//! stepped against their obvious models across every growth edge of the
//! per-node row rule (`xt3_portals::slab::fit_by_use`).

use std::collections::BTreeMap;
use xt3_node::node::{PendingMap, TxFreeList};

/// The sizes a row passes on its way up: each power of two, the slot
/// before it and the slot after it, as far as 511 -> 512.
const EDGES: [u32; 12] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 511, 512, 513];

/// A record as wide as the ones the machine keeps.
type Record = [u64; 17];

#[test]
fn pending_map_matches_a_btree_across_every_growth_edge() {
    const BASE: u32 = 768;
    let mut map: PendingMap<Record> = PendingMap::new(2, BASE);
    let mut model: BTreeMap<(u32, u32), Record> = BTreeMap::new();
    assert_eq!(map.row_capacity(0), 0, "nothing before the first insert");
    let mut top = 0;
    for &edge in &EDGES {
        // Ids are issued lowest first, so a row fills from its base up.
        while top < edge {
            let key = (1, BASE + top);
            let record = [u64::from(top); 17];
            assert_eq!(map.insert(key, record), model.insert(key, record));
            top += 1;
            assert_eq!(map.row_capacity(1), (top as usize).next_power_of_two());
        }
        // Take every third record out and put another under the same id:
        // the slot is still there, the row does not move.
        for id in (0..top).step_by(3) {
            let key = (1, BASE + id);
            assert_eq!(map.remove(&key), model.remove(&key));
            assert_eq!(map.get(&key), None);
            assert_eq!(map.remove(&key), None, "taken once");
            let record = [u64::from(id) + 1000; 17];
            assert_eq!(map.insert(key, record), None);
            model.insert(key, record);
            assert_eq!(map[&key], record);
        }
        assert_eq!(map.row_capacity(1), (top as usize).next_power_of_two());
    }
    for (key, record) in &model {
        assert_eq!(map.get(key), Some(record));
    }
    assert_eq!(map.row_capacity(0), 0, "the other process's row is its own");
    assert_eq!(map.get(&(0, BASE)), None);
    assert_eq!(map.get(&(1, BASE - 1)), None, "below the base");
    assert_eq!(map.get(&(7, BASE)), None, "no such process");
}

#[test]
fn one_message_in_flight_is_one_slot() {
    let mut map: PendingMap<Record> = PendingMap::new(1, 0);
    for round in 0..50 {
        assert_eq!(map.insert((0, 0), [round; 17]), None);
        assert_eq!(map.remove(&(0, 0)), Some([round; 17]));
    }
    assert_eq!(map.row_capacity(0), 1);
    // A second in flight is a second slot, a third is four.
    map.insert((0, 1), [0; 17]);
    assert_eq!(map.row_capacity(0), 2);
    map.insert((0, 2), [0; 17]);
    assert_eq!(map.row_capacity(0), 4);
}

#[test]
fn tx_free_list_issues_what_the_eager_stack_issued() {
    const BASE: u32 = 768;
    const COUNT: u32 = 520;
    let mut list = TxFreeList::new(BASE, COUNT);
    let mut model: Vec<u32> = (BASE..BASE + COUNT).rev().collect();
    let mut out: Vec<u32> = Vec::new();
    for &edge in &EDGES {
        while (out.len() as u32) < edge {
            let id = list.pop();
            assert_eq!(id, model.pop(), "lowest fresh id");
            out.push(id.expect("below the count"));
        }
        // Every third id goes back, oldest first; the last returned is
        // the first reissued.
        let back: Vec<u32> = out.iter().copied().step_by(3).collect();
        for &id in &back {
            list.push(id);
            model.push(id);
        }
        out.retain(|id| !back.contains(id));
        for _ in &back {
            let id = list.pop();
            assert_eq!(id, model.pop(), "returned ids LIFO");
            out.push(id.expect("a returned id"));
        }
    }
    while let Some(id) = model.pop() {
        assert_eq!(list.pop(), Some(id));
    }
    assert_eq!(list.pop(), None, "all {COUNT} are out");
    list.push(BASE + 5);
    assert_eq!(list.pop(), Some(BASE + 5));
    assert_eq!(list.pop(), None);
}
