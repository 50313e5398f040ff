//! Streaming event digest for replay-divergence checking.
//!
//! The determinism claim behind every number this repo reproduces is
//! *bit-identical replay*: running the same model with the same seed must
//! dispatch the same events at the same times in the same order. The
//! [`EventDigest`] turns that claim into a checkable value — a streaming
//! FNV-1a 64-bit hash folded over every dispatched event (time, plus
//! whatever identifying detail the model contributes through
//! [`crate::Model::fingerprint`]). Two runs agree iff their digests agree;
//! the `audit` crate's replay harness runs scenarios twice and compares.
//!
//! FNV-1a is used instead of a SipHash/`DefaultHasher` because its
//! initial state and multiplier are fixed constants: digests are stable
//! across processes, platforms and Rust releases, so they can be recorded
//! in tests and compared across machines.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::cast_possible_truncation, clippy::float_arithmetic)]

/// Streaming FNV-1a (64-bit) over event-stream bytes.
///
/// Not a cryptographic hash — collisions are possible in principle — but
/// any *systematic* nondeterminism (map-iteration order, tie-break
/// instability, float drift in time conversion) changes the stream early
/// and permanently, which is exactly what the replay checker needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDigest {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

impl EventDigest {
    /// Fresh digest at the FNV offset basis.
    pub const fn new() -> Self {
        EventDigest { state: FNV_OFFSET }
    }

    /// Fold one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.state ^= byte as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Fold a `u64` in a single FNV round (xor the whole word, one
    /// multiply) instead of eight byte rounds. Diffusion per round is
    /// weaker than byte-at-a-time FNV, but the digest only ever compares
    /// run against run — any differing input word still changes the state
    /// permanently, which is the property the replay checker needs. This
    /// is the engine's per-event hot path, so the 8x fewer multiplies
    /// matter.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.state ^= value;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Fold a `u32` (single FNV round, like [`Self::write_u64`]).
    #[inline]
    pub fn write_u32(&mut self, value: u32) {
        self.write_u64(value as u64);
    }

    /// Fold a byte slice (length-prefixed, so `"ab" + "c"` and
    /// `"a" + "bc"` fold differently). Folds whole little-endian words
    /// where possible; the zero-padded tail word is unambiguous because
    /// the length prefix fixes how many of its bytes are real.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            for (dst, src) in word.iter_mut().zip(rest) {
                *dst = *src;
            }
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Fold a string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Current digest value.
    pub const fn value(&self) -> u64 {
        self.state
    }
}

impl Default for EventDigest {
    fn default() -> Self {
        EventDigest::new()
    }
}

/// Streaming digests kept in lanes — one per node for the machine — so
/// that a spatially partitioned run reproduces the serial value by
/// merging the disjoint lane sets its shards touched, without agreeing
/// on a global interleaving. A lane grows when first touched; untouched
/// lanes (count 0) are skipped by the canonical fold, so the vector's
/// length never matters.
#[derive(Debug, Clone, Default)]
pub struct DigestLanes {
    lanes: Vec<(u64, EventDigest)>,
}

impl DigestLanes {
    /// No lane touched yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one record into `lane`, whose digest `fields` folds the
    /// record's fields into.
    #[inline]
    pub fn write_lane(&mut self, lane: u32, fields: impl FnOnce(&mut EventDigest)) {
        let lane = lane as usize;
        if lane >= self.lanes.len() {
            self.lanes.resize(lane + 1, (0, EventDigest::new()));
        }
        if let Some((count, digest)) = self.lanes.get_mut(lane) {
            *count += 1;
            fields(digest);
        }
    }

    /// The combined value: each touched lane, in lane order, contributes
    /// its index, its record count and its digest. Byte-equal lane sets
    /// fold to byte-equal values, however they were assembled.
    pub fn value(&self) -> u64 {
        let mut d = EventDigest::new();
        for (i, (count, lane)) in self.lanes.iter().enumerate() {
            if *count > 0 {
                d.write_u64(i as u64);
                d.write_u64(*count);
                d.write_u64(lane.value());
            }
        }
        d.value()
    }

    /// Take over `other`'s touched lanes. Lanes must be disjoint — each
    /// touched by one shard only, the invariant a spatial partition
    /// provides (each node's records are made on exactly one worker).
    pub fn merge_from(&mut self, other: &DigestLanes) {
        if other.lanes.len() > self.lanes.len() {
            self.lanes
                .resize(other.lanes.len(), (0, EventDigest::new()));
        }
        for (i, (mine, theirs)) in self.lanes.iter_mut().zip(&other.lanes).enumerate() {
            if theirs.0 > 0 {
                assert!(
                    mine.0 == 0,
                    "digest lane {i} touched on more than one shard"
                );
                *mine = *theirs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(EventDigest::new().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = EventDigest::new();
        d.write_u8(b'a');
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn order_sensitive() {
        let mut a = EventDigest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = EventDigest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let mut a = EventDigest::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = EventDigest::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.value(), b.value());
    }

    #[test]
    #[should_panic(expected = "digest lane 1 touched on more than one shard")]
    fn a_lane_merged_twice_is_refused() {
        let mut a = DigestLanes::new();
        a.write_lane(1, |d| d.write_u64(1));
        let b = a.clone();
        a.merge_from(&b);
    }
}
