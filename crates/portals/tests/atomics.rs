//! Atomic-put semantics: lane-wise read-modify-write at the target,
//! option gating through `op_atomic`, and lane-alignment rules.

use xt3_portals::library::WireData;
use xt3_portals::*;

const MEM: u64 = 1 << 16;

fn lib(nid: u32) -> (PortalsLib, FlatMemory) {
    (
        PortalsLib::new(ProcessId::new(nid, 0), NiLimits::default()),
        FlatMemory::new(MEM as usize),
    )
}

/// Attach an RMA-window-style target (puts + gets + atomics,
/// remote-managed offsets) at `start..start+len` on portal `pt`.
fn rma_target(lib: &mut PortalsLib, pt: u32, bits: MatchBits, start: u64, len: u64) -> EqHandle {
    let eq = lib.eq_alloc(32).unwrap();
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
        start,
        len,
        MdOptions::rma_target(),
        Threshold::Infinite,
        Some(eq),
        7,
    )
    .unwrap();
    eq
}

/// Run one atomic of `values` (u64 lanes) at `remote_offset` and return
/// the target action.
#[allow(clippy::too_many_arguments)]
fn do_atomic(
    src: &mut PortalsLib,
    src_mem: &mut FlatMemory,
    dst: &mut PortalsLib,
    dst_mem: &mut FlatMemory,
    op: AtomicOp,
    values: &[u64],
    bits: MatchBits,
    pt: u32,
    remote_offset: u64,
) -> DeliverOutcome {
    let len = values.len() as u64 * 8;
    for (i, v) in values.iter().enumerate() {
        src_mem.write(i as u64 * 8, &v.to_le_bytes());
    }
    let md = src
        .md_bind(
            MEM,
            0,
            len,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    let hdr = src
        .atomic_region(
            md,
            0,
            len,
            op,
            AckReq::NoAck,
            dst.id(),
            pt,
            0,
            bits,
            remote_offset,
            0,
        )
        .unwrap();
    let data = WireData::Real(src_mem.read(0, len as u32).into());
    let outcome = dst.match_incoming(&hdr);
    if let DeliverOutcome::Matched(ticket) = &outcome {
        dst.complete_put(&hdr, ticket, &data, dst_mem);
    }
    outcome
}

fn lanes(mem: &FlatMemory, addr: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let b = mem.read(addr + i as u64 * 8, 8);
            let mut a = [0u8; 8];
            a.copy_from_slice(&b);
            u64::from_le_bytes(a)
        })
        .collect()
}

#[test]
fn sum_accumulates_lane_wise() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    rma_target(&mut b, 3, 0x11, 1024, 64);

    bmem.write(1024, &10u64.to_le_bytes());
    bmem.write(1032, &u64::MAX.to_le_bytes());
    let out = do_atomic(
        &mut a,
        &mut amem,
        &mut b,
        &mut bmem,
        AtomicOp::Sum,
        &[5, 7],
        0x11,
        3,
        0,
    );
    assert!(matches!(out, DeliverOutcome::Matched(_)));
    // Lane 0: 10+5. Lane 1 wraps: MAX+7 == 6.
    assert_eq!(lanes(&bmem, 1024, 2), vec![15, 6]);
}

#[test]
fn max_and_replace_semantics() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    rma_target(&mut b, 3, 0x11, 0, 64);

    bmem.write(0, &100u64.to_le_bytes());
    bmem.write(8, &3u64.to_le_bytes());
    do_atomic(
        &mut a,
        &mut amem,
        &mut b,
        &mut bmem,
        AtomicOp::Max,
        &[50, 9],
        0x11,
        3,
        0,
    );
    assert_eq!(
        lanes(&bmem, 0, 2),
        vec![100, 9],
        "max keeps the larger lane"
    );

    do_atomic(
        &mut a,
        &mut amem,
        &mut b,
        &mut bmem,
        AtomicOp::Replace,
        &[1, 2],
        0x11,
        3,
        0,
    );
    assert_eq!(lanes(&bmem, 0, 2), vec![1, 2], "replace overwrites");
}

#[test]
fn atomic_lands_at_remote_offset() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    rma_target(&mut b, 3, 0x11, 2048, 256);

    bmem.write(2048 + 16, &1u64.to_le_bytes());
    do_atomic(
        &mut a,
        &mut amem,
        &mut b,
        &mut bmem,
        AtomicOp::Sum,
        &[41],
        0x11,
        3,
        16,
    );
    assert_eq!(lanes(&bmem, 2048 + 16, 1), vec![42]);
}

#[test]
fn atomic_requires_op_atomic_option() {
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    // A put-only target must not accept atomics.
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(
            3,
            ProcessId::any(),
            0x11,
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

    let out = do_atomic(
        &mut a,
        &mut amem,
        &mut b,
        &mut bmem,
        AtomicOp::Sum,
        &[1],
        0x11,
        3,
        0,
    );
    assert_eq!(out, DeliverOutcome::NoMatch);
    assert_eq!(b.ni_status(NiStatusRegister::DropCount), 1);
}

#[test]
fn plain_put_still_gated_by_op_put() {
    // An atomic-capable window also accepts ordinary puts (op_put set by
    // rma_target), and the plain path is untouched by the atomic field.
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    rma_target(&mut b, 3, 0x11, 512, 64);

    amem.write(0, b"plainput");
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
    let hdr = a.put(md, AckReq::NoAck, b.id(), 3, 0, 0x11, 8, 0).unwrap();
    let data = WireData::Real(amem.read(0, 8).into());
    let DeliverOutcome::Matched(ticket) = b.match_incoming(&hdr) else {
        panic!("plain put must match the rma window");
    };
    b.complete_put(&hdr, &ticket, &data, &mut bmem);
    assert_eq!(bmem.read(512 + 8, 8), b"plainput");
}

#[test]
fn initiator_rejects_misaligned_atomics() {
    let (mut a, _amem) = lib(0);
    let md = a
        .md_bind(
            MEM,
            0,
            24,
            MdOptions::default(),
            Threshold::Infinite,
            None,
            0,
        )
        .unwrap();
    let target = ProcessId::new(1, 0);
    // Length not a multiple of 8.
    assert_eq!(
        a.atomic_region(
            md,
            0,
            12,
            AtomicOp::Sum,
            AckReq::NoAck,
            target,
            3,
            0,
            0,
            0,
            0
        )
        .unwrap_err(),
        PtlError::InvalidArg
    );
    // Misaligned local offset.
    assert_eq!(
        a.atomic_region(
            md,
            4,
            8,
            AtomicOp::Sum,
            AckReq::NoAck,
            target,
            3,
            0,
            0,
            0,
            0
        )
        .unwrap_err(),
        PtlError::InvalidArg
    );
    // Misaligned remote offset.
    assert_eq!(
        a.atomic_region(
            md,
            0,
            8,
            AtomicOp::Sum,
            AckReq::NoAck,
            target,
            3,
            0,
            0,
            4,
            0
        )
        .unwrap_err(),
        PtlError::InvalidArg
    );
}

#[test]
fn target_refuses_partial_lane_truncation() {
    // A window whose remaining room truncates the atomic to a partial
    // lane must not match (no silent half-lane combine).
    let (mut a, mut amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    let eq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(
            3,
            ProcessId::any(),
            0x11,
            0,
            UnlinkOp::Retain,
            InsertPos::After,
        )
        .unwrap();
    b.md_attach(
        me,
        MEM,
        0,
        12, // room for one lane and a half
        MdOptions {
            truncate: true,
            ..MdOptions::rma_target()
        },
        Threshold::Infinite,
        Some(eq),
        0,
    )
    .unwrap();

    let out = do_atomic(
        &mut a,
        &mut amem,
        &mut b,
        &mut bmem,
        AtomicOp::Sum,
        &[1, 2],
        0x11,
        3,
        0,
    );
    assert_eq!(
        out,
        DeliverOutcome::NoMatch,
        "12-byte truncation would split a lane"
    );
}

#[test]
fn synthetic_atomic_matches_without_touching_memory() {
    // Synthetic payloads carry no bytes; the atomic must still match and
    // complete (benchmarks exercise the identical protocol path).
    let (mut a, _amem) = lib(0);
    let (mut b, mut bmem) = lib(1);
    rma_target(&mut b, 3, 0x11, 0, 64);

    let md = a
        .md_bind(
            MEM,
            0,
            16,
            MdOptions::default(),
            Threshold::Count(1),
            None,
            0,
        )
        .unwrap();
    let hdr = a
        .atomic_region(
            md,
            0,
            16,
            AtomicOp::Sum,
            AckReq::Ack,
            b.id(),
            3,
            0,
            0x11,
            0,
            0,
        )
        .unwrap();
    let DeliverOutcome::Matched(ticket) = b.match_incoming(&hdr) else {
        panic!("synthetic atomic must match");
    };
    assert!(ticket.ack_needed);
    let action = b.complete_put(&hdr, &ticket, &WireData::Synthetic(16), &mut bmem);
    assert!(matches!(action, IncomingAction::SendAck(_)));
    assert_eq!(lanes(&bmem, 0, 2), vec![0, 0], "no bytes were written");
}

#[test]
fn atomic_op_apply_table() {
    assert_eq!(AtomicOp::Sum.apply(u64::MAX, 1), 0, "sum wraps");
    assert_eq!(AtomicOp::Sum.apply(2, 3), 5);
    assert_eq!(AtomicOp::Max.apply(2, 3), 3);
    assert_eq!(AtomicOp::Max.apply(7, 3), 7);
    assert_eq!(AtomicOp::Replace.apply(2, 3), 3);
}
