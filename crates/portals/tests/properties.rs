//! Property-based tests for Portals matching and delivery invariants.

use proptest::prelude::*;
use xt3_portals::library::WireData;
use xt3_portals::*;

const MEM: u64 = 1 << 16;

/// Reference predicate for the ME matching rule.
fn reference_match(
    me_bits: u64,
    ignore: u64,
    me_nid: u32,
    me_pid: u32,
    hdr_bits: u64,
    src: ProcessId,
) -> bool {
    let nid_ok = me_nid == types::NID_ANY || me_nid == src.nid;
    let pid_ok = me_pid == types::PID_ANY || me_pid == src.pid;
    let mut bits_ok = true;
    for i in 0..64 {
        let mask = 1u64 << i;
        if ignore & mask != 0 {
            continue;
        }
        if (me_bits ^ hdr_bits) & mask != 0 {
            bits_ok = false;
            break;
        }
    }
    nid_ok && pid_ok && bits_ok
}

proptest! {
    /// `Me::matches` agrees with the bit-by-bit reference predicate for
    /// arbitrary match/ignore bits and sources.
    #[test]
    fn matching_agrees_with_reference(
        me_bits in any::<u64>(),
        ignore in any::<u64>(),
        hdr_bits in any::<u64>(),
        me_nid in prop_oneof![Just(types::NID_ANY), 0u32..8],
        me_pid in prop_oneof![Just(types::PID_ANY), 0u32..4],
        src_nid in 0u32..8,
        src_pid in 0u32..4,
    ) {
        let me = me::Me {
            match_id: ProcessId::new(me_nid, me_pid),
            match_bits: me_bits,
            ignore_bits: ignore,
            unlink: UnlinkOp::Retain,
            md: None,
        };
        let src = ProcessId::new(src_nid, src_pid);
        prop_assert_eq!(
            me.matches(src, hdr_bits),
            reference_match(me_bits, ignore, me_nid, me_pid, hdr_bits, src)
        );
    }

    /// A header whose bits equal the ME bits always matches regardless of
    /// ignore bits.
    #[test]
    fn exact_bits_always_match(bits in any::<u64>(), ignore in any::<u64>()) {
        let me = me::Me {
            match_id: ProcessId::any(),
            match_bits: bits,
            ignore_bits: ignore,
            unlink: UnlinkOp::Retain,
            md: None,
        };
        prop_assert!(me.matches(ProcessId::new(1, 1), bits));
    }

    /// Put delivery is byte exact for arbitrary payloads, offsets and
    /// target regions (when the payload fits).
    #[test]
    fn put_is_byte_exact(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        target_start in 0u64..1024,
    ) {
        let mut a = PortalsLib::new(ProcessId::new(0, 0), NiLimits::default());
        let mut b = PortalsLib::new(ProcessId::new(1, 0), NiLimits::default());
        let mut amem = FlatMemory::new(MEM as usize);
        let mut bmem = FlatMemory::new(MEM as usize);

        amem.write(64, &payload);
        let eq = b.eq_alloc(8).unwrap();
        let me_h = b
            .me_attach(0, ProcessId::any(), 5, 0, UnlinkOp::Retain, InsertPos::After)
            .unwrap();
        b.md_attach(
            me_h, MEM, target_start, 512, MdOptions::put_target(),
            Threshold::Infinite, Some(eq), 0,
        )
        .unwrap();

        let md = a
            .md_bind(MEM, 64, payload.len() as u64, MdOptions::default(), Threshold::Count(1), None, 0)
            .unwrap();
        let hdr = a.put(md, AckReq::NoAck, b.id(), 0, 0, 5, 0, 0).unwrap();
        let data = WireData::Real(amem.read(64, payload.len() as u32).into());
        let DeliverOutcome::Matched(t) = b.match_incoming(&hdr) else {
            return Err(TestCaseError::fail("must match"));
        };
        b.complete_put(&hdr, &t, &data, &mut bmem);
        prop_assert_eq!(bmem.read(target_start, payload.len() as u32), payload);
        let _ = &mut amem;
    }

    /// Get followed by reply returns exactly the bytes the target exposed.
    #[test]
    fn get_roundtrip_is_byte_exact(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        let mut a = PortalsLib::new(ProcessId::new(0, 0), NiLimits::default());
        let mut b = PortalsLib::new(ProcessId::new(1, 0), NiLimits::default());
        let mut amem = FlatMemory::new(MEM as usize);
        let mut bmem = FlatMemory::new(MEM as usize);

        bmem.write(2048, &payload);
        let me_h = b
            .me_attach(1, ProcessId::any(), 2, 0, UnlinkOp::Retain, InsertPos::After)
            .unwrap();
        b.md_attach(
            me_h, MEM, 2048, payload.len() as u64, MdOptions::get_target(),
            Threshold::Infinite, None, 0,
        )
        .unwrap();

        let eq = a.eq_alloc(8).unwrap();
        let md = a
            .md_bind(MEM, 0, payload.len() as u64, MdOptions::default(), Threshold::Count(1), Some(eq), 0)
            .unwrap();
        let hdr = a.get(md, b.id(), 1, 0, 2, 0).unwrap();
        let DeliverOutcome::Matched(t) = b.match_incoming(&hdr) else {
            return Err(TestCaseError::fail("get must match"));
        };
        let IncomingAction::SendReply(reply, data) = b.complete_get_serve(&hdr, &t, &bmem, false) else {
            return Err(TestCaseError::fail("reply expected"));
        };
        a.complete_reply(&reply, &data, &mut amem);
        prop_assert_eq!(amem.read(0, payload.len() as u32), payload);
    }

    /// Locally managed offsets tile the MD without gaps or overlap for any
    /// sequence of message sizes that fits.
    #[test]
    fn local_offsets_tile_without_overlap(sizes in proptest::collection::vec(1u64..64, 1..16)) {
        let total: u64 = sizes.iter().sum();
        let mut b = PortalsLib::new(ProcessId::new(1, 0), NiLimits::default());
        let me_h = b
            .me_attach(0, ProcessId::any(), 0, 0, UnlinkOp::Retain, InsertPos::After)
            .unwrap();
        b.md_attach(me_h, MEM, 0, total, MdOptions::put_target(), Threshold::Infinite, None, 0)
            .unwrap();

        let mut expected_offset = 0u64;
        for s in &sizes {
            let hdr = PortalsHeader::put(
                ProcessId::new(0, 0),
                b.id(),
                0,
                0,
                0,
                *s,
                0,
                AckReq::NoAck,
                0,
                MdHandle { index: 0, generation: 0 },
            );
            let DeliverOutcome::Matched(t) = b.match_incoming(&hdr) else {
                return Err(TestCaseError::fail("must match while room remains"));
            };
            prop_assert_eq!(t.offset, expected_offset);
            prop_assert_eq!(t.mlength, *s);
            expected_offset += s;
        }
    }

    /// Thresholded MEs accept exactly `threshold` operations, never more.
    #[test]
    fn threshold_bounds_operation_count(thresh in 1u32..16, attempts in 1u32..32) {
        let mut b = PortalsLib::new(ProcessId::new(1, 0), NiLimits::default());
        let me_h = b
            .me_attach(0, ProcessId::any(), 0, 0, UnlinkOp::Retain, InsertPos::After)
            .unwrap();
        b.md_attach(
            me_h, MEM, 0, 1 << 12,
            MdOptions { manage_remote: true, ..MdOptions::put_target() },
            Threshold::Count(thresh), None, 0,
        )
        .unwrap();

        let hdr = PortalsHeader::put(
            ProcessId::new(0, 0),
            b.id(),
            0,
            0,
            0,
            8,
            0,
            AckReq::NoAck,
            0,
            MdHandle { index: 0, generation: 0 },
        );
        let mut matched = 0;
        for _ in 0..attempts {
            if let DeliverOutcome::Matched(_) = b.match_incoming(&hdr) {
                matched += 1;
            }
        }
        prop_assert_eq!(matched, attempts.min(thresh));
    }

    /// Event queues never lose events below capacity and never deliver
    /// more than were posted.
    #[test]
    fn eq_conservation(capacity in 1u32..32, posts in 0u32..64) {
        let mut q = EventQueue::new(capacity);
        let ev = Event {
            kind: EventKind::SendEnd,
            initiator: ProcessId::new(0, 0),
            match_bits: 0,
            rlength: 0,
            mlength: 0,
            offset: 0,
            md: MdHandle { index: 0, generation: 0 },
            user_ptr: 0,
            hdr_data: 0,
        };
        let mut accepted = 0u32;
        for _ in 0..posts {
            if q.post(ev.clone()) {
                accepted += 1;
            }
        }
        prop_assert_eq!(accepted, posts.min(capacity));
        prop_assert_eq!(q.drain().len() as u32, accepted);
    }
}
