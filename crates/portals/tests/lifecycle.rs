//! Lifecycle edge cases: unlink/update racing with traffic, handle
//! staleness, limit exhaustion — the paths a long-running upper layer
//! (MPI) leans on.

use xt3_portals::library::WireData;
use xt3_portals::*;

const MEM: u64 = 1 << 16;

fn target_lib() -> PortalsLib {
    PortalsLib::new(ProcessId::new(1, 0), NiLimits::default())
}

fn put_header(bits: u64, len: u64) -> PortalsHeader {
    put_on(0, bits, len)
}

/// A put to portal `pt`.
fn put_on(pt: u32, bits: u64, len: u64) -> PortalsHeader {
    PortalsHeader::put(
        ProcessId::new(0, 0),
        ProcessId::new(1, 0),
        pt,
        0,
        bits,
        len,
        0,
        AckReq::NoAck,
        0,
        MdHandle {
            index: 0,
            generation: 0,
        },
    )
}

#[test]
fn unlink_between_match_and_completion_is_safe() {
    // Generic mode separates matching (interrupt 1) from completion
    // (interrupt 2); the app may unlink the ME in between. Completion
    // must neither crash nor post to the dead descriptor.
    let mut lib = target_lib();
    let mut mem = FlatMemory::new(MEM as usize);
    let eq = lib.eq_alloc(8).unwrap();
    let me = lib
        .me_attach(
            0,
            ProcessId::any(),
            1,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    lib.md_attach(
        me,
        MEM,
        0,
        1024,
        MdOptions::put_target(),
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();

    let hdr = put_header(1, 512);
    let DeliverOutcome::Matched(ticket) = lib.match_incoming(&hdr) else {
        panic!("must match");
    };
    // PutStart was posted; consume it.
    assert_eq!(lib.eq_get(eq).unwrap().kind, EventKind::PutStart);

    // The app unlinks while the deposit is in flight.
    lib.me_unlink(me).unwrap();

    // Completion: memory still written (the DMA was already programmed),
    // but no event lands on the dead MD and nothing panics.
    let action = lib.complete_put(&hdr, &ticket, &WireData::Synthetic(512), &mut mem);
    assert_eq!(action, IncomingAction::None);
    assert_eq!(lib.eq_get(eq).unwrap_err(), PtlError::EqEmpty);
}

#[test]
fn md_update_between_match_and_completion() {
    // Re-arming a descriptor (threshold bump) mid-flight must not disturb
    // the in-progress ticket.
    let mut lib = target_lib();
    let mut mem = FlatMemory::new(MEM as usize);
    let eq = lib.eq_alloc(8).unwrap();
    let me = lib
        .me_attach(
            0,
            ProcessId::any(),
            1,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let md = lib
        .md_attach(
            me,
            MEM,
            0,
            1024,
            MdOptions::put_target(),
            Threshold::Count(1),
            Some(eq),
            0,
        )
        .unwrap();

    let hdr = put_header(1, 100);
    let DeliverOutcome::Matched(ticket) = lib.match_incoming(&hdr) else {
        panic!("must match");
    };
    // Threshold exhausted by the match; the app re-arms.
    let applied = lib
        .md_update(
            md,
            |m| !m.threshold.available(),
            Threshold::Count(5),
            Some(eq),
        )
        .unwrap();
    assert!(applied);

    lib.complete_put(&hdr, &ticket, &WireData::Synthetic(100), &mut mem);
    // Both events present, and the descriptor accepts again.
    assert_eq!(lib.eq_get(eq).unwrap().kind, EventKind::PutStart);
    assert_eq!(lib.eq_get(eq).unwrap().kind, EventKind::PutEnd);
    assert!(matches!(
        lib.match_incoming(&hdr),
        DeliverOutcome::Matched(_)
    ));
}

#[test]
fn eq_free_makes_md_events_vanish_quietly() {
    let mut lib = target_lib();
    let mut mem = FlatMemory::new(MEM as usize);
    let eq = lib.eq_alloc(8).unwrap();
    let me = lib
        .me_attach(
            0,
            ProcessId::any(),
            1,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    lib.md_attach(
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
    lib.eq_free(eq).unwrap();
    // Traffic against an MD whose EQ is gone: delivered, no events, no
    // panic.
    let hdr = put_header(1, 8);
    let DeliverOutcome::Matched(t) = lib.match_incoming(&hdr) else {
        panic!("must match");
    };
    lib.complete_put(&hdr, &t, &WireData::Synthetic(8), &mut mem);
    assert_eq!(lib.eq_get(eq).unwrap_err(), PtlError::InvalidHandle);
}

#[test]
fn md_table_exhaustion_and_recovery() {
    let limits = NiLimits {
        max_mds: 4,
        ..NiLimits::default()
    };
    let mut lib = PortalsLib::new(ProcessId::new(0, 0), limits);
    let handles: Vec<MdHandle> = (0..4)
        .map(|i| {
            lib.md_bind(
                MEM,
                i * 64,
                64,
                MdOptions::default(),
                Threshold::Infinite,
                None,
                0,
            )
            .unwrap()
        })
        .collect();
    assert_eq!(
        lib.md_bind(
            MEM,
            512,
            64,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0
        )
        .unwrap_err(),
        PtlError::NoSpace
    );
    lib.md_unlink(handles[2]).unwrap();
    assert!(lib
        .md_bind(
            MEM,
            512,
            64,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0
        )
        .is_ok());
}

#[test]
fn pt_index_bounds_are_enforced() {
    let mut lib = target_lib();
    let pt_size = lib.limits().pt_size;
    assert_eq!(
        lib.me_attach(
            pt_size,
            ProcessId::any(),
            0,
            0,
            UnlinkOp::Retain,
            InsertPos::After
        )
        .unwrap_err(),
        PtlError::PtIndexInvalid
    );
    // An incoming header naming an out-of-range portal is a permission
    // violation, not a panic.
    let hdr = put_on(pt_size + 10, 0, 8);
    assert_eq!(
        lib.match_incoming(&hdr),
        DeliverOutcome::PermissionViolation
    );
}

/// Attach a retained put target for `bits` on portal `pt`.
fn attach_put_target(lib: &mut PortalsLib, pt: u32, bits: u64) -> MeHandle {
    let me = lib
        .me_attach(
            pt,
            ProcessId::any(),
            bits,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    lib.md_attach(
        me,
        MEM,
        0,
        64,
        MdOptions::put_target(),
        Threshold::Infinite,
        None,
        0,
    )
    .unwrap();
    me
}

#[test]
fn never_attached_portal_is_no_match() {
    // The portal table only grows to the highest index attached to; a
    // valid index it has not reached is a portal with no entries.
    let mut lib = target_lib();
    let hdr = put_on(5, 1, 8);
    assert_eq!(lib.match_incoming(&hdr), DeliverOutcome::NoMatch);
    assert_eq!(lib.counters().dropped_no_match, 1);

    attach_put_target(&mut lib, 2, 1);
    assert_eq!(lib.match_incoming(&hdr), DeliverOutcome::NoMatch, "above");
    let hdr = put_on(1, 1, 8);
    assert_eq!(lib.match_incoming(&hdr), DeliverOutcome::NoMatch, "below");
    assert_eq!(lib.counters().dropped_no_match, 3);
    assert_eq!(lib.counters().permission_violations, 0);
    let hdr = put_on(2, 1, 8);
    assert!(matches!(
        lib.match_incoming(&hdr),
        DeliverOutcome::Matched(_)
    ));
}

#[test]
fn highest_portal_index_attaches_inserts_and_unlinks() {
    let mut lib = target_lib();
    let top = lib.limits().pt_size - 1;
    let first = attach_put_target(&mut lib, top, 1);
    let hdr = put_on(top, 2, 8);
    assert_eq!(lib.match_incoming(&hdr), DeliverOutcome::NoMatch);

    // Insert relative to an entry of the highest list, then walk to it.
    let second = lib
        .me_insert(
            first,
            InsertPos::After,
            ProcessId::any(),
            2,
            0,
            UnlinkOp::Retain,
        )
        .unwrap();
    lib.md_attach(
        second,
        MEM,
        0,
        64,
        MdOptions::put_target(),
        Threshold::Infinite,
        None,
        0,
    )
    .unwrap();
    assert!(matches!(
        lib.match_incoming(&hdr),
        DeliverOutcome::Matched(_)
    ));

    lib.me_unlink(second).unwrap();
    assert_eq!(lib.match_incoming(&hdr), DeliverOutcome::NoMatch);
    assert_eq!(lib.me_unlink(second).unwrap_err(), PtlError::InvalidHandle);
    let hdr = put_on(top, 1, 8);
    assert!(matches!(
        lib.match_incoming(&hdr),
        DeliverOutcome::Matched(_)
    ));
}

#[test]
fn zero_length_put_matches_and_completes() {
    let mut lib = target_lib();
    let mut mem = FlatMemory::new(MEM as usize);
    let eq = lib.eq_alloc(4).unwrap();
    let me = lib
        .me_attach(
            0,
            ProcessId::any(),
            9,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    lib.md_attach(
        me,
        MEM,
        0,
        0,
        MdOptions::put_target(),
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();
    let hdr = put_header(9, 0);
    let DeliverOutcome::Matched(t) = lib.match_incoming(&hdr) else {
        panic!("zero-length put must match a zero-length MD");
    };
    assert_eq!(t.mlength, 0);
    lib.complete_put(&hdr, &t, &WireData::Real(Box::default()), &mut mem);
    assert_eq!(lib.eq_get(eq).unwrap().kind, EventKind::PutStart);
    assert_eq!(lib.eq_get(eq).unwrap().kind, EventKind::PutEnd);
}

#[test]
fn retained_me_with_exhausted_md_revives_on_update() {
    // The MPI bounce-buffer pattern: a full (no-truncate) MD stops
    // matching; md_update re-arms it in place.
    let mut lib = target_lib();
    let me = lib
        .me_attach(
            0,
            ProcessId::any(),
            3,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    let md = lib
        .md_attach(
            me,
            MEM,
            0,
            100,
            MdOptions::put_target(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    let hdr = put_header(3, 10);
    assert!(matches!(
        lib.match_incoming(&hdr),
        DeliverOutcome::Matched(_)
    ));
    assert_eq!(
        lib.match_incoming(&hdr),
        DeliverOutcome::NoMatch,
        "exhausted"
    );
    lib.md_update(md, |_| true, Threshold::Count(3), None)
        .unwrap();
    assert!(matches!(
        lib.match_incoming(&hdr),
        DeliverOutcome::Matched(_)
    ));
}
