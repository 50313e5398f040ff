//! Property tests for address-space translation: the DMA command lists
//! the bridges produce must cover exactly the requested byte range with
//! no gaps, overlaps or page-boundary violations.

use proptest::prelude::*;
use xt3_nal::addr::{AddressSpace, CatamountSpace, LinuxSpace, PAGE_SIZE};
use xt3_nal::bridge::{Bridge, KBridge, QkBridge, UkBridge};
use xt3_portals::memory::ProcessMemory;
use xt3_seastar::cost::CostModel;

const SPACE: usize = 1 << 20;

proptest! {
    /// Linux translation: commands partition the range; each chunk lies in
    /// one physical page; chunk sizes sum to len; virtual adjacency maps
    /// to the page table.
    #[test]
    fn linux_translation_partitions_range(
        addr in 0u64..(SPACE as u64 - 1),
        len_raw in 1u64..200_000,
        seed in any::<u64>(),
    ) {
        let len = len_raw.min(SPACE as u64 - addr) as u32;
        let space = LinuxSpace::new(SPACE, seed);
        let (cmds, pinned) = space.translate(addr, len);

        prop_assert_eq!(pinned as usize, cmds.len());
        prop_assert_eq!(cmds.iter().map(|c| c.bytes as u64).sum::<u64>(), len as u64);
        for c in &cmds {
            // Never straddles a physical page.
            let start_page = c.phys_addr / PAGE_SIZE as u64;
            let end_page = (c.phys_addr + c.bytes as u64 - 1) / PAGE_SIZE as u64;
            prop_assert_eq!(start_page, end_page, "chunk straddles a page");
        }
        // Expected page count.
        let first = addr / PAGE_SIZE as u64;
        let last = (addr + len as u64 - 1) / PAGE_SIZE as u64;
        prop_assert_eq!(cmds.len() as u64, last - first + 1);
    }

    /// Catamount translation is always exactly one command at base+addr.
    #[test]
    fn catamount_translation_is_contiguous(
        addr in 0u64..(SPACE as u64 - 1),
        len_raw in 1u64..200_000,
        base in any::<u32>(),
    ) {
        let len = len_raw.min(SPACE as u64 - addr) as u32;
        let space = CatamountSpace::new(SPACE, base as u64);
        let (cmds, pinned) = space.translate(addr, len);
        prop_assert_eq!(pinned, 0);
        prop_assert_eq!(cmds.len(), 1);
        prop_assert_eq!(cmds[0].phys_addr, base as u64 + addr);
        prop_assert_eq!(cmds[0].bytes, len);
    }

    /// Every bridge rejects exactly the out-of-bounds ranges and accepts
    /// exactly the in-bounds ones.
    #[test]
    fn bridges_validate_bounds(addr in 0u64..(2 * SPACE as u64), len in 0u64..(2 * SPACE as u64)) {
        let cm = CostModel::paper();
        let cat = CatamountSpace::new(SPACE, 0);
        let lin = LinuxSpace::new(SPACE, 3);
        let in_bounds = addr.checked_add(len).map(|e| e <= SPACE as u64).unwrap_or(false);
        let len32 = len.min(u32::MAX as u64) as u32;
        prop_assume!(len == len32 as u64);

        prop_assert_eq!(QkBridge.prepare(&cm, &cat, addr, len32).is_some(), in_bounds);
        prop_assert_eq!(UkBridge.prepare(&cm, &lin, addr, len32).is_some(), in_bounds);
        prop_assert_eq!(KBridge.prepare(&cm, &lin, addr, len32).is_some(), in_bounds);
    }

    /// Memory write/read round-trips across page boundaries in both
    /// address-space models.
    #[test]
    fn memory_roundtrip(
        addr in 0u64..60_000,
        data in proptest::collection::vec(any::<u8>(), 1..5000),
        seed in any::<u64>(),
    ) {
        let mut cat = CatamountSpace::new(1 << 16, 0x1000);
        let mut lin = LinuxSpace::new(1 << 16, seed);
        prop_assume!(addr as usize + data.len() <= 1 << 16);
        cat.write(addr, &data);
        lin.write(addr, &data);
        prop_assert_eq!(cat.read(addr, data.len() as u32), data.clone());
        prop_assert_eq!(lin.read(addr, data.len() as u32), data);
    }
}
