//! Integration tests for the Portals library: matching semantics, delivery,
//! thresholds, unlinking, replies and acks.

use xt3_portals::library::WireData;
use xt3_portals::*;

const MEM: u64 = 1 << 16;

fn lib(nid: u32) -> (PortalsLib, FlatMemory) {
    (
        PortalsLib::new(ProcessId::new(nid, 0), NiLimits::default()),
        FlatMemory::new(MEM as usize),
    )
}

/// Attach ME+MD+EQ accepting puts on portal `pt` with `bits`.
fn put_target(
    lib: &mut PortalsLib,
    pt: u32,
    bits: MatchBits,
    ignore: MatchBits,
    start: u64,
    len: u64,
) -> (MeHandle, MdHandle, EqHandle) {
    let eq = lib.eq_alloc(32).unwrap();
    let me = lib
        .me_attach(
            pt,
            ProcessId::any(),
            bits,
            ignore,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let md = lib
        .md_attach(
            me,
            MEM,
            start,
            len,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(eq),
            7,
        )
        .unwrap();
    (me, md, eq)
}

fn do_put(
    src: &mut PortalsLib,
    src_mem: &FlatMemory,
    dst: &mut PortalsLib,
    dst_mem: &mut FlatMemory,
    md: MdHandle,
    bits: MatchBits,
    pt: u32,
) -> (DeliverOutcome, Option<IncomingAction>) {
    let hdr = src
        .put(md, AckReq::Ack, dst.id(), pt, 0, bits, 0, 0xFEED)
        .unwrap();
    let (start, len) = src.tx_region(md).unwrap();
    let data = WireData::Real(src_mem.read(start, len as u32).into());
    let outcome = dst.match_incoming(&hdr);
    let action = match &outcome {
        DeliverOutcome::Matched(ticket) => Some(dst.complete_put(&hdr, ticket, &data, dst_mem)),
        _ => None,
    };
    (outcome, action)
}

#[test]
fn put_delivers_bytes_end_to_end() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    put_target(&mut b, 4, 0x42, 0, 1000, 256);

    amem.write(0, b"hello portals");
    let md = a
        .md_bind(
            MEM,
            0,
            13,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    let (outcome, action) = do_put(&mut a, &amem, &mut b, &mut bmem, md, 0x42, 4);

    assert!(matches!(outcome, DeliverOutcome::Matched(_)));
    assert_eq!(bmem.read(1000, 13), b"hello portals");
    assert!(matches!(action, Some(IncomingAction::SendAck(_))));
}

#[test]
fn events_carry_header_metadata() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    let (_, _, eq) = put_target(&mut b, 0, 9, 0, 0, 64);

    let md = a
        .md_bind(
            MEM,
            0,
            8,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    do_put(&mut a, &amem, &mut b, &mut bmem, md, 9, 0);

    let start = b.eq_get(eq).unwrap();
    assert_eq!(start.kind, EventKind::PutStart);
    let end = b.eq_get(eq).unwrap();
    assert_eq!(end.kind, EventKind::PutEnd);
    assert_eq!(end.initiator, ProcessId::new(0, 0));
    assert_eq!(end.rlength, 8);
    assert_eq!(end.mlength, 8);
    assert_eq!(end.hdr_data, 0xFEED);
    assert_eq!(end.user_ptr, 7);
    assert_eq!(b.eq_get(eq).unwrap_err(), PtlError::EqEmpty);
}

#[test]
fn no_match_drops_message() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    put_target(&mut b, 0, 0x1111, 0, 0, 64);

    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    let (outcome, _) = do_put(&mut a, &amem, &mut b, &mut bmem, md, 0x2222, 0);
    assert_eq!(outcome, DeliverOutcome::NoMatch);
    assert_eq!(b.counters().dropped_no_match, 1);
}

#[test]
fn ignore_bits_allow_wildcard_matching() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    // Ignore the low 32 bits.
    put_target(&mut b, 0, 0xAAAA_0000_0000_0000, 0xFFFF_FFFF, 0, 64);

    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    let (outcome, _) = do_put(
        &mut a,
        &amem,
        &mut b,
        &mut bmem,
        md,
        0xAAAA_0000_1234_5678,
        0,
    );
    assert!(matches!(outcome, DeliverOutcome::Matched(_)));
}

#[test]
fn match_list_walk_order_first_wins() {
    let (mut b, _) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    // Two MEs that both match bits=5; the first attached must win.
    let me1 = b
        .me_attach(
            0,
            ProcessId::any(),
            5,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let md1 = b
        .md_attach(
            me1,
            MEM,
            0,
            64,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(eq),
            111,
        )
        .unwrap();
    let me2 = b
        .me_attach(
            0,
            ProcessId::any(),
            5,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let _md2 = b
        .md_attach(
            me2,
            MEM,
            128,
            64,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(eq),
            222,
        )
        .unwrap();

    let hdr = PortalsHeader::put(
        ProcessId::new(0, 0),
        b.id(),
        0,
        0,
        5,
        4,
        0,
        AckReq::NoAck,
        0,
        MdHandle {
            index: 0,
            generation: 0,
        },
    );
    match b.match_incoming(&hdr) {
        DeliverOutcome::Matched(t) => assert_eq!(t.md, md1),
        other => panic!("expected match, got {other:?}"),
    }
}

#[test]
fn insert_before_changes_walk_order() {
    let (mut b, _) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    let me1 = b
        .me_attach(
            0,
            ProcessId::any(),
            5,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let _md1 = b
        .md_attach(
            me1,
            MEM,
            0,
            64,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(eq),
            1,
        )
        .unwrap();
    let me2 = b
        .me_insert(
            me1,
            InsertPos::Before,
            ProcessId::any(),
            5,
            0,
            UnlinkOp::Retain,
        )
        .unwrap();
    let md2 = b
        .md_attach(
            me2,
            MEM,
            128,
            64,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(eq),
            2,
        )
        .unwrap();

    let hdr = PortalsHeader::put(
        ProcessId::new(0, 0),
        b.id(),
        0,
        0,
        5,
        4,
        0,
        AckReq::NoAck,
        0,
        MdHandle {
            index: 0,
            generation: 0,
        },
    );
    match b.match_incoming(&hdr) {
        DeliverOutcome::Matched(t) => assert_eq!(t.md, md2, "inserted-before ME wins"),
        other => panic!("expected match, got {other:?}"),
    }
}

#[test]
fn threshold_exhaustion_falls_through_to_next_me() {
    let (mut b, _) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    let me1 = b
        .me_attach(
            0,
            ProcessId::any(),
            5,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let _md1 = b
        .md_attach(
            me1,
            MEM,
            0,
            64,
            MdOptions::put_target(),
            Threshold::Count(1),
            Some(eq),
            1,
        )
        .unwrap();
    let me2 = b
        .me_attach(
            0,
            ProcessId::any(),
            5,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let md2 = b
        .md_attach(
            me2,
            MEM,
            128,
            64,
            MdOptions::put_target(),
            Threshold::Infinite,
            Some(eq),
            2,
        )
        .unwrap();

    let hdr = PortalsHeader::put(
        ProcessId::new(0, 0),
        b.id(),
        0,
        0,
        5,
        4,
        0,
        AckReq::NoAck,
        0,
        MdHandle {
            index: 0,
            generation: 0,
        },
    );
    let first = b.match_incoming(&hdr);
    let DeliverOutcome::Matched(t1) = first else {
        panic!("first put should match");
    };
    assert_ne!(t1.md, md2);
    // Second put: md1's threshold is exhausted, so md2 matches.
    match b.match_incoming(&hdr) {
        DeliverOutcome::Matched(t2) => assert_eq!(t2.md, md2),
        other => panic!("expected fallthrough match, got {other:?}"),
    }
}

#[test]
fn auto_unlink_posts_unlink_event_and_retires_handles() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(
            0,
            ProcessId::any(),
            1,
            0,
            UnlinkOp::Unlink,
            InsertPos::After,
        )
        .unwrap();
    let md_t = b
        .md_attach(
            me,
            MEM,
            0,
            64,
            MdOptions::put_target(),
            Threshold::Count(1),
            Some(eq),
            0,
        )
        .unwrap();

    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    let (o1, _) = do_put(&mut a, &amem, &mut b, &mut bmem, md, 1, 0);
    assert!(matches!(o1, DeliverOutcome::Matched(ref t) if t.unlinked));

    // Events: PutStart, PutEnd, Unlink.
    assert_eq!(b.eq_get(eq).unwrap().kind, EventKind::PutStart);
    assert_eq!(b.eq_get(eq).unwrap().kind, EventKind::PutEnd);
    assert_eq!(b.eq_get(eq).unwrap().kind, EventKind::Unlink);

    // The MD handle is now stale.
    assert_eq!(b.md(md_t).unwrap_err(), PtlError::InvalidHandle);

    // A second put no longer matches.
    let (o2, _) = do_put(&mut a, &amem, &mut b, &mut bmem, md, 1, 0);
    assert_eq!(o2, DeliverOutcome::NoMatch);
}

#[test]
fn truncation_and_rejection() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    // 16-byte target without truncate: a 32-byte put must NOT match.
    put_target(&mut b, 0, 7, 0, 0, 16);
    let md32 = a
        .md_bind(
            MEM,
            0,
            32,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    let (o, _) = do_put(&mut a, &amem, &mut b, &mut bmem, md32, 7, 0);
    assert_eq!(o, DeliverOutcome::NoMatch, "oversized put without truncate");

    // With truncate: accepts 16 of 32 bytes.
    let (mut c, mut cmem) = lib(2);
    let eq = c.eq_alloc(8).unwrap();
    let me = c
        .me_attach(
            0,
            ProcessId::any(),
            7,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    c.md_attach(
        me,
        MEM,
        0,
        16,
        MdOptions {
            truncate: true,
            ..MdOptions::put_target()
        },
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();
    let (o, _) = do_put(&mut a, &amem, &mut c, &mut cmem, md32, 7, 0);
    match o {
        DeliverOutcome::Matched(t) => {
            assert_eq!(t.mlength, 16, "32 requested, truncated to the MD");
        }
        other => panic!("expected truncated match, got {other:?}"),
    }
}

#[test]
fn locally_managed_offset_advances() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    put_target(&mut b, 0, 3, 0, 0, 64);
    amem.write(0, &[0xAB; 8]);

    let md = a
        .md_bind(
            MEM,
            0,
            8,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    for i in 0..3u64 {
        let (o, _) = do_put(&mut a, &amem, &mut b, &mut bmem, md, 3, 0);
        match o {
            DeliverOutcome::Matched(t) => assert_eq!(t.offset, i * 8),
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(bmem.read(0, 24), vec![0xAB; 24]);
}

#[test]
fn remote_managed_offset_uses_header_offset() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(
            0,
            ProcessId::any(),
            3,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    b.md_attach(
        me,
        MEM,
        0,
        64,
        MdOptions {
            manage_remote: true,
            ..MdOptions::put_target()
        },
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();

    let md = a
        .md_bind(
            MEM,
            0,
            8,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    let hdr = a.put(md, AckReq::NoAck, b.id(), 0, 0, 3, 40, 0).unwrap();
    let data = WireData::Real(amem.read(0, 8).into());
    match b.match_incoming(&hdr) {
        DeliverOutcome::Matched(t) => {
            assert_eq!(t.offset, 40);
            b.complete_put(&hdr, &t, &data, &mut bmem);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn get_serves_reply_that_completes_at_initiator() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);

    // B exposes data for gets.
    bmem.write(500, b"get me out");
    let eq_b = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(
            2,
            ProcessId::any(),
            0xC0DE,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    b.md_attach(
        me,
        MEM,
        500,
        10,
        MdOptions::get_target(),
        Threshold::Infinite,
        Some(eq_b),
        0,
    )
    .unwrap();

    // A initiates the get into a local MD with an EQ.
    let eq_a = a.eq_alloc(8).unwrap();
    let md_a = a
        .md_bind(
            MEM,
            100,
            10,
            MdOptions::default(),
            Threshold::Count(1),
            Some(eq_a),
            0,
        )
        .unwrap();
    let hdr = a.get(md_a, b.id(), 2, 0, 0xC0DE, 0).unwrap();

    // Target matches and serves.
    let DeliverOutcome::Matched(ticket) = b.match_incoming(&hdr) else {
        panic!("get must match");
    };
    let IncomingAction::SendReply(reply_hdr, data) =
        b.complete_get_serve(&hdr, &ticket, &bmem, false)
    else {
        panic!("expected reply");
    };
    assert_eq!(b.eq_get(eq_b).unwrap().kind, EventKind::GetStart);
    assert_eq!(b.eq_get(eq_b).unwrap().kind, EventKind::GetEnd);

    // Initiator completes the reply.
    let out = a.complete_reply(&reply_hdr, &data, &mut amem);
    assert!(matches!(out, DeliverOutcome::Matched(_)));
    assert_eq!(amem.read(100, 10), b"get me out");
    assert_eq!(a.eq_get(eq_a).unwrap().kind, EventKind::ReplyEnd);
}

#[test]
fn get_on_put_only_md_falls_through() {
    let (mut b, _) = lib(1);
    put_target(&mut b, 0, 1, 0, 0, 64); // op_put only
    let hdr = PortalsHeader::get(
        ProcessId::new(0, 0),
        b.id(),
        0,
        0,
        1,
        16,
        0,
        MdHandle {
            index: 0,
            generation: 0,
        },
    );
    assert_eq!(b.match_incoming(&hdr), DeliverOutcome::NoMatch);
}

#[test]
fn stale_reply_is_detected() {
    let (mut a, mut amem) = lib(0);
    let eq = a.eq_alloc(8).unwrap();
    let md = a
        .md_bind(
            MEM,
            0,
            8,
            MdOptions::default(),
            Threshold::Count(1),
            Some(eq),
            0,
        )
        .unwrap();
    let hdr = a.get(md, ProcessId::new(1, 0), 0, 0, 0, 0).unwrap();
    // MD unlinks before the reply arrives.
    a.md_unlink(md).unwrap();
    let reply = PortalsHeader::reply_to(&hdr, 8, 0);
    let out = a.complete_reply(&reply, &WireData::Synthetic(8), &mut amem);
    assert_eq!(out, DeliverOutcome::StaleHandle);
    assert_eq!(a.counters().stale_completions, 1);
}

#[test]
fn ack_reaches_initiator_eq() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    put_target(&mut b, 0, 1, 0, 0, 64);

    let eq = a.eq_alloc(8).unwrap();
    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Count(1),
            Some(eq),
            0,
        )
        .unwrap();
    let (_, action) = do_put(&mut a, &amem, &mut b, &mut bmem, md, 1, 0);
    let Some(IncomingAction::SendAck(ack)) = action else {
        panic!("ack expected");
    };
    let out = a.deliver_ack(&ack);
    assert!(matches!(out, DeliverOutcome::Matched(_)));
    let ev = a.eq_get(eq).unwrap();
    assert_eq!(ev.kind, EventKind::Ack);
    assert_eq!(ev.mlength, 4);
}

#[test]
fn ack_disable_suppresses_ack() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(
            0,
            ProcessId::any(),
            1,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    b.md_attach(
        me,
        MEM,
        0,
        64,
        MdOptions {
            ack_disable: true,
            ..MdOptions::put_target()
        },
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();
    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    let (_, action) = do_put(&mut a, &amem, &mut b, &mut bmem, md, 1, 0);
    assert_eq!(action, Some(IncomingAction::None));
}

#[test]
fn access_control_restricts_sources() {
    let (mut b, _) = lib(1);
    put_target(&mut b, 0, 1, 0, 0, 64);
    // AC entry 1 only admits nid 5.
    b.ac_put(
        1,
        AcEntry {
            allowed: ProcessId::new(5, xt3_portals::types::PID_ANY),
            pt_index: xt3_portals::acl::PT_INDEX_ANY,
        },
    )
    .unwrap();

    let bid = b.id();
    let mk_hdr = |src_nid: u32, ac: u32| {
        PortalsHeader::put(
            ProcessId::new(src_nid, 0),
            bid,
            0,
            ac,
            1,
            4,
            0,
            AckReq::NoAck,
            0,
            MdHandle {
                index: 0,
                generation: 0,
            },
        )
    };
    assert!(matches!(
        b.match_incoming(&mk_hdr(5, 1)),
        DeliverOutcome::Matched(_)
    ));
    assert_eq!(
        b.match_incoming(&mk_hdr(6, 1)),
        DeliverOutcome::PermissionViolation
    );
    // Unused AC index denies.
    assert_eq!(
        b.match_incoming(&mk_hdr(5, 3)),
        DeliverOutcome::PermissionViolation
    );
    assert_eq!(b.counters().permission_violations, 2);
}

#[test]
fn source_match_criterion() {
    let (mut b, _) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(
            0,
            ProcessId::new(9, 0),
            0,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    b.md_attach(
        me,
        MEM,
        0,
        64,
        MdOptions::put_target(),
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();
    let bid = b.id();
    let mk_hdr = |src_nid: u32| {
        PortalsHeader::put(
            ProcessId::new(src_nid, 0),
            bid,
            0,
            0,
            0,
            4,
            0,
            AckReq::NoAck,
            0,
            MdHandle {
                index: 0,
                generation: 0,
            },
        )
    };
    assert!(matches!(
        b.match_incoming(&mk_hdr(9)),
        DeliverOutcome::Matched(_)
    ));
    assert_eq!(b.match_incoming(&mk_hdr(8)), DeliverOutcome::NoMatch);
}

#[test]
fn send_end_event_on_initiator() {
    let (mut a, _amem) = lib(0);
    let eq = a.eq_alloc(8).unwrap();
    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Count(1),
            Some(eq),
            99,
        )
        .unwrap();
    a.put(md, AckReq::NoAck, ProcessId::new(1, 0), 0, 0, 0, 0, 0)
        .unwrap();
    a.on_send_complete(md, 4);
    let ev = a.eq_get(eq).unwrap();
    assert_eq!(ev.kind, EventKind::SendEnd);
    assert_eq!(ev.user_ptr, 99);
}

#[test]
fn put_on_exhausted_initiator_md_fails() {
    let (mut a, _) = lib(0);
    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    a.put(md, AckReq::NoAck, ProcessId::new(1, 0), 0, 0, 0, 0, 0)
        .unwrap();
    assert_eq!(
        a.put(md, AckReq::NoAck, ProcessId::new(1, 0), 0, 0, 0, 0, 0)
            .unwrap_err(),
        PtlError::MdInUse
    );
}

#[test]
fn synthetic_data_skips_memory_but_keeps_protocol() {
    let (mut a, _amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    let (_, _, eq) = put_target(&mut b, 0, 1, 0, 0, 1 << 12);
    let md = a
        .md_bind(
            MEM,
            0,
            4096,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    let hdr = a.put(md, AckReq::NoAck, b.id(), 0, 0, 1, 0, 0).unwrap();
    let DeliverOutcome::Matched(t) = b.match_incoming(&hdr) else {
        panic!()
    };
    b.complete_put(&hdr, &t, &WireData::Synthetic(4096), &mut bmem);
    assert_eq!(b.eq_get(eq).unwrap().kind, EventKind::PutStart);
    let ev = b.eq_get(eq).unwrap();
    assert_eq!(ev.kind, EventKind::PutEnd);
    assert_eq!(ev.mlength, 4096);
    // Memory untouched.
    assert_eq!(bmem.read(0, 4), vec![0, 0, 0, 0]);
}

#[test]
fn me_unlink_removes_attached_md() {
    let (mut b, _) = lib(1);
    let (me, md, _) = put_target(&mut b, 0, 1, 0, 0, 64);
    b.me_unlink(me).unwrap();
    assert_eq!(b.md(md).unwrap_err(), PtlError::InvalidHandle);
    assert_eq!(b.me_unlink(me).unwrap_err(), PtlError::InvalidHandle);
}

#[test]
fn eq_capacity_overflow_reports_dropped() {
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    let eq = b.eq_alloc(2).unwrap();
    let me = b
        .me_attach(
            0,
            ProcessId::any(),
            1,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    b.md_attach(
        me,
        MEM,
        0,
        1024,
        MdOptions {
            event_start_disable: true,
            ..MdOptions::put_target()
        },
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();
    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    for _ in 0..3 {
        do_put(&mut a, &amem, &mut b, &mut bmem, md, 1, 0);
    }
    assert!(b.eq_get(eq).is_ok());
    assert!(b.eq_get(eq).is_ok());
    assert_eq!(b.eq_get(eq).unwrap_err(), PtlError::EqDropped);
}

#[test]
fn md_update_is_conditional() {
    let (mut a, _) = lib(0);
    let eq = a.eq_alloc(8).unwrap();
    let md = a
        .md_bind(
            MEM,
            0,
            64,
            MdOptions::default(),
            Threshold::Count(2),
            Some(eq),
            0,
        )
        .unwrap();

    // Test closure rejects: no change.
    let applied = a
        .md_update(
            md,
            |m| m.threshold == Threshold::Count(99),
            Threshold::Count(5),
            None,
        )
        .unwrap();
    assert!(!applied);
    assert_eq!(a.md(md).unwrap().threshold, Threshold::Count(2));

    // Test closure accepts: threshold and EQ update atomically.
    let applied = a
        .md_update(
            md,
            |m| m.threshold == Threshold::Count(2),
            Threshold::Count(5),
            None,
        )
        .unwrap();
    assert!(applied);
    let m = a.md(md).unwrap();
    assert_eq!(m.threshold, Threshold::Count(5));
    assert_eq!(m.eq, None);

    // Invalid arguments still rejected.
    assert_eq!(
        a.md_update(md, |_| true, Threshold::Count(0), None)
            .unwrap_err(),
        PtlError::InvalidArg
    );
    let stale = EqHandle {
        index: 42,
        generation: 9,
    };
    assert_eq!(
        a.md_update(md, |_| true, Threshold::Infinite, Some(stale))
            .unwrap_err(),
        PtlError::InvalidHandle
    );
}

#[test]
fn ni_status_registers_track_counters() {
    use xt3_portals::library::NiStatusRegister as R;
    let (mut a, amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    put_target(&mut b, 0, 1, 0, 0, 64);
    let md = a
        .md_bind(
            MEM,
            0,
            4,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    do_put(&mut a, &amem, &mut b, &mut bmem, md, 1, 0); // matches
    do_put(&mut a, &amem, &mut b, &mut bmem, md, 2, 0); // wrong bits: drop
    assert_eq!(b.ni_status(R::Matched), 1);
    assert_eq!(b.ni_status(R::DropCount), 1);
    assert_eq!(b.ni_status(R::PermissionViolations), 0);
}

#[test]
fn put_region_sends_subrange() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    put_target(&mut b, 0, 5, 0, 0, 64);

    amem.write(0, b"0123456789");
    let md = a
        .md_bind(
            MEM,
            0,
            10,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    // Send bytes [3, 8) of the descriptor.
    let hdr = a
        .put_region(md, 3, 5, AckReq::NoAck, b.id(), 0, 0, 5, 0, 0)
        .unwrap();
    assert_eq!(hdr.rlength(), 5);
    let (start, len) = a.tx_region_at(md, 3, 5).unwrap();
    assert_eq!((start, len), (3, 5));
    let data = WireData::Real(amem.read(start, len as u32).into());
    let DeliverOutcome::Matched(t) = b.match_incoming(&hdr) else {
        panic!("must match");
    };
    b.complete_put(&hdr, &t, &data, &mut bmem);
    assert_eq!(bmem.read(0, 5), b"34567");

    // Out-of-range regions are rejected without consuming the threshold.
    assert_eq!(
        a.put_region(md, 8, 5, AckReq::NoAck, b.id(), 0, 0, 5, 0, 0)
            .unwrap_err(),
        PtlError::InvalidArg
    );
    assert_eq!(
        a.tx_region_at(md, u64::MAX, 2).unwrap_err(),
        PtlError::InvalidArg
    );
}
