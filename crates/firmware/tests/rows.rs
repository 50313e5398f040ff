//! `Pool` stepped against its obvious model across every growth edge of
//! the per-node row rule (`xt3_portals::slab::fit_by_use`): the ids it
//! issues, its high-water mark and its failure count are those of the
//! eager free list it stands for, and its backing row is the next power
//! of two above what it has materialized.

use xt3_firmware::pending::LowerPending;
use xt3_firmware::pool::Pool;

/// The sizes a row passes on its way up: each power of two, the slot
/// before it and the slot after it, as far as 511 -> 512.
const EDGES: [u32; 12] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 511, 512, 513];

/// The eager pool: every index on a free stack from the start, lowest on
/// top.
struct PoolModel {
    free: Vec<u32>,
    in_use: u32,
    high_water: u32,
    failures: u64,
}

impl PoolModel {
    fn new(capacity: u32) -> Self {
        PoolModel {
            free: (0..capacity).rev().collect(),
            in_use: 0,
            high_water: 0,
            failures: 0,
        }
    }

    fn alloc(&mut self) -> Option<u32> {
        let Some(idx) = self.free.pop() else {
            self.failures += 1;
            return None;
        };
        self.in_use += 1;
        self.high_water = self.high_water.max(self.in_use);
        Some(idx)
    }

    fn free(&mut self, idx: u32) {
        self.free.push(idx);
        self.in_use -= 1;
    }
}

#[test]
fn pool_matches_its_model_across_every_growth_edge() {
    const CAPACITY: u32 = 520;
    let mut pool: Pool<LowerPending> = Pool::new(CAPACITY);
    let mut model = PoolModel::new(CAPACITY);
    let mut live: Vec<u32> = Vec::new();
    assert_eq!(pool.row_capacity(), 0, "nothing before the first alloc");
    for &edge in &EDGES {
        while (live.len() as u32) < edge {
            let got = pool.alloc();
            assert_eq!(got, model.alloc(), "issue order");
            live.push(got.expect("below capacity"));
            let most = pool.materialized() as usize;
            assert_eq!(most, model.high_water as usize);
            assert_eq!(pool.row_capacity(), most.next_power_of_two());
        }
        // Return every third index, oldest first, and take them back: the
        // last returned is issued first and the row does not move.
        let capacity = pool.row_capacity();
        let back: Vec<u32> = live.iter().copied().step_by(3).collect();
        for &idx in &back {
            pool.free(idx);
            model.free(idx);
        }
        live.retain(|idx| !back.contains(idx));
        for _ in &back {
            let got = pool.alloc();
            assert_eq!(got, model.alloc());
            live.push(got.expect("a returned index"));
        }
        assert_eq!(pool.row_capacity(), capacity, "reuse allocates nothing");
        assert_eq!(pool.in_use(), model.in_use);
        assert_eq!(pool.high_water(), model.high_water);
    }
    // Past the table's capacity: counted, nothing issued, nothing grown.
    while pool.in_use() < CAPACITY {
        assert_eq!(pool.alloc(), model.alloc());
    }
    assert_eq!(pool.row_capacity(), 1024);
    assert_eq!((pool.alloc(), pool.alloc()), (None, None));
    assert_eq!((model.alloc(), model.alloc()), (None, None));
    assert_eq!(pool.alloc_failures(), model.failures);
    assert_eq!(pool.high_water(), CAPACITY);
    assert_eq!(pool.row_capacity(), 1024);
}

#[test]
fn one_pending_in_flight_is_one_slot() {
    let mut pool: Pool<LowerPending> = Pool::new(768);
    for _ in 0..50 {
        let idx = pool.alloc().unwrap();
        assert_eq!(idx, 0);
        pool.free(idx);
    }
    assert_eq!((pool.materialized(), pool.row_capacity()), (1, 1));
    assert_eq!(pool.high_water(), 1);
}
