//! Address-space models: Catamount (contiguous) and Linux (paged).
//!
//! Paper §3.3: "Under Linux, the host is responsible for pinning physical
//! pages, finding appropriate virtual to physical mappings for each page,
//! and pushing all of these mappings to the network interface. In
//! contrast, Catamount maps virtually contiguous pages to physically
//! contiguous pages. This means that a single command is sufficient."

use xt3_portals::memory::ProcessMemory;
use xt3_seastar::dma::{paged_commands, DmaCommand, DmaList};
use xt3_sim::SimRng;

/// Linux page size on the XT3's Opterons.
pub const PAGE_SIZE: u32 = 4096;

/// A process address space the bridges can validate and translate.
pub trait AddressSpace: ProcessMemory {
    /// Is `[addr, addr+len)` a valid user range?
    fn validate(&self, addr: u64, len: u64) -> bool;

    /// Translate a virtual range into DMA commands (physically contiguous
    /// chunks). Also returns the number of pages that had to be pinned
    /// (0 for Catamount — memory is always resident).
    fn translate(&self, addr: u64, len: u32) -> (DmaList, u32);
}

/// Catamount's contiguous address space: virtual offset `v` lives at
/// physical `base + v`.
///
/// Backing bytes materialize on first write: untouched memory reads as
/// zeros without ever being allocated, so a full-machine run whose nodes
/// only touch a fraction of their address space (or none — synthetic
/// payloads are often written but never read back) pays for the written
/// high-water mark, not the configured size.
#[derive(Debug, Clone)]
pub struct CatamountSpace {
    phys_base: u64,
    size: u64,
    bytes: Vec<u8>,
}

impl CatamountSpace {
    /// A space of `size` bytes physically based at `phys_base`.
    pub fn new(size: usize, phys_base: u64) -> Self {
        CatamountSpace {
            phys_base,
            size: size as u64,
            bytes: Vec::new(),
        }
    }
}

impl ProcessMemory for CatamountSpace {
    fn size(&self) -> u64 {
        self.size
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let start = addr as usize;
        let end = start + data.len();
        assert!(end as u64 <= self.size, "write past end of address space");
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        self.bytes[start..end].copy_from_slice(data);
    }

    fn read(&self, addr: u64, len: u32) -> Vec<u8> {
        let start = addr as usize;
        let end = start + len as usize;
        assert!(end as u64 <= self.size, "read past end of address space");
        let mut out = vec![0u8; len as usize];
        if start < self.bytes.len() {
            let have = end.min(self.bytes.len()) - start;
            out[..have].copy_from_slice(&self.bytes[start..start + have]);
        }
        out
    }
}

impl AddressSpace for CatamountSpace {
    fn validate(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len)
            .map(|end| end <= self.size)
            .unwrap_or(false)
    }

    fn translate(&self, addr: u64, len: u32) -> (DmaList, u32) {
        if len == 0 {
            return (DmaList::new(), 0);
        }
        (
            DmaList::one(DmaCommand {
                phys_addr: self.phys_base + addr,
                bytes: len,
            }),
            0,
        )
    }
}

/// Linux's paged address space: 4 KB pages scattered across physical
/// memory.
#[derive(Debug, Clone)]
pub struct LinuxSpace {
    bytes: Vec<u8>,
    /// `page_frame[v]` = physical frame number of virtual page `v`.
    page_frame: Vec<u64>,
}

impl LinuxSpace {
    /// A space of `size` bytes with a pseudo-random (but deterministic,
    /// seeded) page-frame mapping — realistic scatter for DMA command
    /// generation.
    pub fn new(size: usize, seed: u64) -> Self {
        let pages = size.div_ceil(PAGE_SIZE as usize);
        let mut frames: Vec<u64> = (0..pages as u64).collect();
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut frames);
        LinuxSpace {
            bytes: vec![0; size],
            page_frame: frames,
        }
    }
}

impl ProcessMemory for LinuxSpace {
    fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        let start = addr as usize;
        self.bytes[start..start + data.len()].copy_from_slice(data);
    }

    fn read(&self, addr: u64, len: u32) -> Vec<u8> {
        let start = addr as usize;
        self.bytes[start..start + len as usize].to_vec()
    }
}

impl AddressSpace for LinuxSpace {
    fn validate(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len)
            .map(|end| end <= self.bytes.len() as u64)
            .unwrap_or(false)
    }

    fn translate(&self, addr: u64, len: u32) -> (DmaList, u32) {
        if len == 0 {
            return (DmaList::new(), 0);
        }
        let cmds = paged_commands(addr, len, PAGE_SIZE, |page_base| {
            let vpage = page_base / PAGE_SIZE as u64;
            self.page_frame[vpage as usize] * PAGE_SIZE as u64
        });
        let pages = cmds.len() as u32;
        (cmds, pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catamount_single_command() {
        let s = CatamountSpace::new(1 << 20, 0x1000_0000);
        let (cmds, pinned) = s.translate(0x4000, 100_000);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].phys_addr, 0x1000_4000);
        assert_eq!(cmds[0].bytes, 100_000);
        assert_eq!(pinned, 0, "catamount memory is always resident");
    }

    #[test]
    fn catamount_validate_bounds() {
        let s = CatamountSpace::new(4096, 0);
        assert!(s.validate(0, 4096));
        assert!(!s.validate(1, 4096));
        assert!(!s.validate(u64::MAX, 2));
        assert!(s.validate(4096, 0));
    }

    #[test]
    fn linux_translation_is_per_page() {
        let s = LinuxSpace::new(1 << 16, 42);
        // 10000 bytes from offset 100: spans pages 0..=2 when aligned —
        // offset 100 + 10000 = 10100, pages 0,1,2 -> 3 commands.
        let (cmds, pinned) = s.translate(100, 10_000);
        assert_eq!(cmds.len(), 3);
        assert_eq!(pinned, 3);
        assert_eq!(cmds.iter().map(|c| c.bytes as u64).sum::<u64>(), 10_000);
        // Commands land on the mapped frames.
        assert_eq!(cmds[0].bytes, 3996);
        assert_eq!(cmds[0].phys_addr % PAGE_SIZE as u64, 100);
    }

    #[test]
    fn linux_mapping_is_scattered_but_deterministic() {
        let a = LinuxSpace::new(1 << 16, 7);
        let b = LinuxSpace::new(1 << 16, 7);
        let c = LinuxSpace::new(1 << 16, 8);
        let (ca, _) = a.translate(0, 16384);
        let (cb, _) = b.translate(0, 16384);
        let (cc, _) = c.translate(0, 16384);
        assert_eq!(ca, cb, "same seed, same mapping");
        assert_ne!(ca, cc, "different seed, different scatter");
        // Adjacent virtual pages are (almost surely) not physically
        // adjacent under the shuffled mapping.
        let contiguous = ca
            .windows(2)
            .all(|w| w[1].phys_addr == w[0].phys_addr + w[0].bytes as u64);
        assert!(!contiguous, "shuffle should scatter pages");
    }

    #[test]
    fn memory_roundtrip_both_spaces() {
        let mut c = CatamountSpace::new(8192, 0);
        c.write(10, b"abc");
        assert_eq!(c.read(10, 3), b"abc");
        let mut l = LinuxSpace::new(8192, 3);
        l.write(4094, b"spans a page");
        assert_eq!(l.read(4094, 12), b"spans a page");
    }
}
