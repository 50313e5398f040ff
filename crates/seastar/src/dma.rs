//! The send and receive DMA engines.
//!
//! Paper §2: "Independent send and receive DMA engines interact with a
//! router ... They also provide hardware support for an end-to-end 32 bit
//! CRC check." The engines are programmed by the PowerPC (transactions
//! across HT are too slow for the host to program them directly), and a
//! non-contiguous host buffer requires the *host* to pre-compute the
//! per-page DMA commands (§3.3).
//!
//! Each engine is a FIFO resource: one command list streams at a time.
//! The number of DMA commands matters because each command costs PPC
//! programming work — this is how the Linux (paged) vs. Catamount
//! (contiguous) difference becomes visible in the benchmarks.

use xt3_sim::{BusyCursor, SimTime};
use xt3_telemetry::{Component, TelemetrySink};

/// Which engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaKind {
    /// Transmit (host memory -> wire).
    Tx,
    /// Receive (wire -> host memory).
    Rx,
}

/// A DMA command: one physically contiguous chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCommand {
    /// Physical start address.
    pub phys_addr: u64,
    /// Chunk length in bytes.
    pub bytes: u32,
}

/// Unused filler for [`DmaList`]'s inline slots (never observable:
/// `len` bounds every read).
const DMA_FILL: DmaCommand = DmaCommand {
    phys_addr: 0,
    bytes: 0,
};

/// How many commands a [`DmaList`] holds without heap allocation.
/// Catamount buffers are always one command (§3.3); two covers the odd
/// straddle case, so only Linux paged buffers spill.
pub const DMA_INLINE: usize = 2;

/// A DMA command list that stores up to [`DMA_INLINE`] commands inline.
///
/// Command lists ride inside every transmit/deposit command, and on the
/// dominant (Catamount, contiguous) path they
/// hold exactly one entry — a `Vec` would put a heap allocation and free
/// on the per-message hot path for nothing. Paged (Linux) buffers with
/// more commands spill to a `Vec` and behave as before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmaList {
    /// At most [`DMA_INLINE`] commands, no heap.
    Inline {
        /// Number of live entries in `cmds`.
        len: u8,
        /// Storage; entries at `len..` are filler.
        cmds: [DmaCommand; DMA_INLINE],
    },
    /// Spilled to the heap (paged buffers).
    Heap(Vec<DmaCommand>),
}

impl DmaList {
    /// An empty list.
    pub const fn new() -> Self {
        DmaList::Inline {
            len: 0,
            cmds: [DMA_FILL; DMA_INLINE],
        }
    }

    /// A single-command list (the contiguous-buffer fast path).
    pub const fn one(cmd: DmaCommand) -> Self {
        DmaList::Inline {
            len: 1,
            cmds: [cmd, DMA_FILL],
        }
    }

    /// `cmd` repeated `n` times (synthetic chunk accounting).
    pub fn repeat(cmd: DmaCommand, n: usize) -> Self {
        if n <= DMA_INLINE {
            let mut l = DmaList::new();
            for _ in 0..n {
                l.push(cmd);
            }
            l
        } else {
            DmaList::Heap(vec![cmd; n])
        }
    }

    /// Append a command, spilling to the heap past [`DMA_INLINE`].
    pub fn push(&mut self, cmd: DmaCommand) {
        match self {
            DmaList::Inline { len, cmds } => {
                if let Some(slot) = cmds.get_mut(*len as usize) {
                    *slot = cmd;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(DMA_INLINE + 1);
                    v.extend_from_slice(&cmds[..]);
                    v.push(cmd);
                    *self = DmaList::Heap(v);
                }
            }
            DmaList::Heap(v) => v.push(cmd),
        }
    }

    /// The live commands.
    pub fn as_slice(&self) -> &[DmaCommand] {
        match self {
            DmaList::Inline { len, cmds } => cmds.get(..*len as usize).unwrap_or(&[]),
            DmaList::Heap(v) => v,
        }
    }
}

impl Default for DmaList {
    fn default() -> Self {
        DmaList::new()
    }
}

impl std::ops::Deref for DmaList {
    type Target = [DmaCommand];
    fn deref(&self) -> &[DmaCommand] {
        self.as_slice()
    }
}

impl From<Vec<DmaCommand>> for DmaList {
    fn from(v: Vec<DmaCommand>) -> Self {
        DmaList::Heap(v)
    }
}

impl FromIterator<DmaCommand> for DmaList {
    fn from_iter<I: IntoIterator<Item = DmaCommand>>(iter: I) -> Self {
        let mut l = DmaList::new();
        for cmd in iter {
            l.push(cmd);
        }
        l
    }
}

impl<'a> IntoIterator for &'a DmaList {
    type Item = &'a DmaCommand;
    type IntoIter = std::slice::Iter<'a, DmaCommand>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One DMA engine.
#[derive(Debug)]
pub struct DmaEngine {
    kind: DmaKind,
    cursor: BusyCursor,
    transfers: u64,
    bytes: u64,
    commands: u64,
    /// 32-bit end-to-end CRC failures observed (fault injection only).
    crc_failures: u64,
}

impl DmaEngine {
    /// A fresh engine.
    pub fn new(kind: DmaKind) -> Self {
        DmaEngine {
            kind,
            cursor: BusyCursor::new(),
            transfers: 0,
            bytes: 0,
            commands: 0,
            crc_failures: 0,
        }
    }

    /// Reserve the engine for a transfer occupying `[max(arrival, free),
    /// ..+duration]`. The caller computes `duration` from the HT model (the
    /// engine itself is not the bandwidth bottleneck; HT is). Returns
    /// `(start, done)`.
    pub fn occupy(
        &mut self,
        arrival: SimTime,
        duration: SimTime,
        bytes: u64,
        commands: u64,
    ) -> (SimTime, SimTime) {
        self.transfers += 1;
        self.bytes += bytes;
        self.commands += commands;
        self.cursor.occupy_span(arrival, duration)
    }

    /// [`DmaEngine::occupy`] with telemetry: the granted `(start, done)`
    /// span is recorded on the engine's track for `node` before being
    /// returned, so the timeline shows exactly what the caller schedules.
    #[inline]
    pub fn occupy_via(
        &mut self,
        arrival: SimTime,
        duration: SimTime,
        bytes: u64,
        commands: u64,
        node: u32,
        sink: &mut impl TelemetrySink,
    ) -> (SimTime, SimTime) {
        let (start, done) = self.occupy(arrival, duration, bytes, commands);
        let (component, label) = match self.kind {
            DmaKind::Tx => (Component::TxDma, "tx-dma"),
            DmaKind::Rx => (Component::RxDma, "rx-dma"),
        };
        sink.span(node, component, label, start, done);
        (start, done)
    }

    /// When the engine becomes free.
    pub fn free_at(&self) -> SimTime {
        self.cursor.free_at()
    }

    /// Total time the engine spent streaming.
    pub fn busy_total(&self) -> SimTime {
        self.cursor.busy_total()
    }

    /// Record an end-to-end CRC failure (fault injection).
    pub fn record_crc_failure(&mut self) {
        self.crc_failures += 1;
    }

    /// Transfers performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// DMA commands consumed (1 for contiguous, one per page for paged
    /// buffers).
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// End-to-end CRC failures recorded.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }
}

/// Split a virtually contiguous buffer into per-page DMA commands, the way
/// the Linux host must when pages are pinned individually (§3.3: "the host
/// must pre-compute the commands for the TX DMA engine and pass them to
/// the firmware").
pub fn paged_commands(
    virt_addr: u64,
    len: u32,
    page_size: u32,
    phys_of_page: impl Fn(u64) -> u64,
) -> DmaList {
    assert!(
        page_size.is_power_of_two(),
        "page size must be a power of two"
    );
    let mut cmds = DmaList::new();
    let mut addr = virt_addr;
    let mut remaining = len;
    while remaining > 0 {
        let page = addr & !(page_size as u64 - 1);
        let offset = (addr - page) as u32;
        let chunk = remaining.min(page_size - offset);
        cmds.push(DmaCommand {
            phys_addr: phys_of_page(page) + offset as u64,
            bytes: chunk,
        });
        addr += chunk as u64;
        remaining -= chunk;
    }
    cmds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_serializes_transfers() {
        let mut e = DmaEngine::new(DmaKind::Tx);
        let d = SimTime::from_us(10);
        let (s1, d1) = e.occupy(SimTime::ZERO, d, 1000, 1);
        let (s2, _d2) = e.occupy(SimTime::ZERO, d, 1000, 1);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, d1);
        assert_eq!(e.transfers(), 2);
        assert_eq!(e.bytes(), 2000);
    }

    #[test]
    fn paged_commands_contiguous_page_aligned() {
        // Identity mapping, 4 KB pages, aligned 16 KB buffer -> 4 commands.
        let cmds = paged_commands(0x10000, 16384, 4096, |p| p);
        assert_eq!(cmds.len(), 4);
        assert!(cmds.iter().all(|c| c.bytes == 4096));
        assert_eq!(cmds[0].phys_addr, 0x10000);
        assert_eq!(cmds[3].phys_addr, 0x13000);
    }

    #[test]
    fn paged_commands_unaligned() {
        // Start 100 bytes into a page, 5000 bytes total:
        // 3996 + 1004 across two pages.
        let cmds = paged_commands(100, 5000, 4096, |p| p + 0x8000_0000);
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].bytes, 3996);
        assert_eq!(cmds[0].phys_addr, 0x8000_0064);
        assert_eq!(cmds[1].bytes, 1004);
        assert_eq!(cmds[1].phys_addr, 0x8000_1000);
    }

    #[test]
    fn paged_commands_scattered_mapping() {
        // Non-identity page mapping: each page lands somewhere else.
        let cmds = paged_commands(0, 8192, 4096, |p| if p == 0 { 0x7000 } else { 0x3000 });
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].phys_addr, 0x7000);
        assert_eq!(cmds[1].phys_addr, 0x3000);
    }

    #[test]
    fn paged_commands_zero_len() {
        assert!(paged_commands(0, 0, 4096, |p| p).is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut e = DmaEngine::new(DmaKind::Rx);
        e.occupy(SimTime::ZERO, SimTime::from_ns(100), 64, 3);
        e.record_crc_failure();
        assert_eq!(e.commands(), 3);
        assert_eq!(e.crc_failures(), 1);
        assert_eq!(e.busy_total(), SimTime::from_ns(100));
    }
}
