//! MPI-level identifiers and the match-bit encoding.

/// A rank within the communicator.
pub type Rank = u32;
/// An MPI tag.
pub type Tag = u32;
/// A request identifier returned by isend/irecv.
pub type ReqId = u64;

/// Wildcard source for receives.
pub const ANY_SOURCE: Rank = u32::MAX;
/// Wildcard tag for receives.
pub const ANY_TAG: Tag = u32::MAX;

/// MPI-layer errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiError {
    /// Rank outside the communicator.
    BadRank,
    /// The underlying Portals call failed.
    Portals,
    /// Too many outstanding rendezvous sends.
    TooManyRendezvous,
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::BadRank => write!(f, "bad rank"),
            MpiError::Portals => write!(f, "portals error"),
            MpiError::TooManyRendezvous => write!(f, "too many outstanding rendezvous sends"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Match-bit layout: `[63:48]` context id, `[47:32]` source rank,
/// `[31:0]` tag.
pub mod bits {
    use super::{Rank, Tag, ANY_SOURCE, ANY_TAG};

    /// Encode a send's match bits.
    pub fn encode(ctx_id: u16, src: Rank, tag: Tag) -> u64 {
        debug_assert!(src < 1 << 16, "rank must fit 16 bits");
        (ctx_id as u64) << 48 | (src as u64) << 32 | tag as u64
    }

    /// Build `(match_bits, ignore_bits)` for a receive with possible
    /// wildcards.
    pub fn recv_criteria(ctx_id: u16, src: Rank, tag: Tag) -> (u64, u64) {
        let mut ignore = 0u64;
        let mut bits = (ctx_id as u64) << 48;
        if src == ANY_SOURCE {
            ignore |= 0x0000_FFFF_0000_0000;
        } else {
            bits |= (src as u64) << 32;
        }
        if tag == ANY_TAG {
            ignore |= 0x0000_0000_FFFF_FFFF;
        } else {
            bits |= tag as u64;
        }
        (bits, ignore)
    }

    /// Decode `(ctx, src, tag)` from match bits.
    pub fn decode(bits: u64) -> (u16, Rank, Tag) {
        (
            (bits >> 48) as u16,
            ((bits >> 32) & 0xFFFF) as Rank,
            bits as Tag,
        )
    }
}

/// Out-of-band header-data layout for MPI-over-Portals messages:
/// `[63:62]` protocol, `[61:46]` rendezvous cookie, `[45:0]` length.
pub mod hdr {
    /// Protocol discriminator.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Protocol {
        /// Payload carried inline by the put.
        Eager,
        /// Zero-byte ready-to-send; payload pulled with a get.
        Rendezvous,
    }

    /// Pack header data.
    pub fn pack(proto: Protocol, cookie: u16, len: u64) -> u64 {
        debug_assert!(len < 1 << 46);
        let p = match proto {
            Protocol::Eager => 0u64,
            Protocol::Rendezvous => 1u64,
        };
        p << 62 | (cookie as u64) << 46 | len
    }

    /// Unpack header data.
    pub fn unpack(h: u64) -> (Protocol, u16, u64) {
        let proto = if h >> 62 == 0 {
            Protocol::Eager
        } else {
            Protocol::Rendezvous
        };
        (proto, ((h >> 46) & 0xFFFF) as u16, h & ((1 << 46) - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let b = bits::encode(7, 300, 0xDEAD);
        assert_eq!(bits::decode(b), (7, 300, 0xDEAD));
    }

    #[test]
    fn recv_criteria_exact() {
        let (b, i) = bits::recv_criteria(1, 5, 9);
        assert_eq!(i, 0);
        assert_eq!(b, bits::encode(1, 5, 9));
    }

    #[test]
    fn recv_criteria_wildcards() {
        let (b, i) = bits::recv_criteria(1, ANY_SOURCE, 9);
        assert_eq!(i, 0x0000_FFFF_0000_0000);
        // Any source with the right tag matches under the ignore mask.
        for src in [0u32, 3, 77] {
            let s = bits::encode(1, src, 9);
            assert_eq!((s ^ b) & !i, 0, "src {src} must match");
        }
        let wrong_tag = bits::encode(1, 3, 10);
        assert_ne!((wrong_tag ^ b) & !i, 0);

        let (b2, i2) = bits::recv_criteria(1, 4, ANY_TAG);
        let any = bits::encode(1, 4, 12345);
        assert_eq!((any ^ b2) & !i2, 0);
        let wrong_src = bits::encode(1, 5, 12345);
        assert_ne!((wrong_src ^ b2) & !i2, 0);
    }

    #[test]
    fn hdr_roundtrip() {
        let h = hdr::pack(hdr::Protocol::Rendezvous, 0xABCD, (8 << 20) + 3);
        let (p, c, l) = hdr::unpack(h);
        assert_eq!(p, hdr::Protocol::Rendezvous);
        assert_eq!(c, 0xABCD);
        assert_eq!(l, (8 << 20) + 3);
        let h = hdr::pack(hdr::Protocol::Eager, 0, 12);
        assert_eq!(hdr::unpack(h), (hdr::Protocol::Eager, 0, 12));
    }
}
