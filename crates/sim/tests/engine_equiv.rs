//! Differential property tests for the two in-order execution engines.
//!
//! The pre-decoded fast engine behind [`sv_sim::execute_loop`] must be
//! **bit-identical** to the retained interpreter in [`sv_sim::reference`]
//! — same final memories and live-outs under [`Scalar::identical`], NaN
//! payloads and signed zeros included. Two hundred seeded random loops
//! sweep the generator's distribution profiles; dedicated cases pin the
//! corners a sweep can miss (zero-trip loops, maximum loop-carried
//! distance, integer reductions).

use sv_ir::{Loop, LoopBuilder, Opcode, OpId, OpKind, Operand, ScalarType};
use sv_sim::reference;
use sv_sim::{execute_loop, LiveOutValue, Memory};
use sv_workloads::{synth_loop, SynthProfile};

fn assert_outs_identical(l: &Loop, what: &str, fast: &[LiveOutValue], refr: &[LiveOutValue]) {
    assert_eq!(fast.len(), refr.len(), "{}: {what}: live-out count", l.name);
    for (f, r) in fast.iter().zip(refr) {
        assert_eq!(f.name, r.name, "{}: {what}: live-out order", l.name);
        assert_eq!(f.combine, r.combine, "{}: {what}: combine kind of {}", l.name, f.name);
        assert!(
            f.value.identical(r.value),
            "{}: {what}: live-out {}: fast {:?} != reference {:?}",
            l.name,
            f.name,
            f.value,
            r.value
        );
    }
}

fn assert_mem_identical(l: &Loop, what: &str, fast: &Memory, refr: &Memory) {
    for a in 0..l.arrays.len() as u32 {
        for (i, (f, r)) in fast.array(a).iter().zip(refr.array(a)).enumerate() {
            assert!(
                f.identical(*r),
                "{}: {what}: array {}[{i}]: fast {f:?} != reference {r:?}",
                l.name,
                l.arrays[a as usize].name
            );
        }
    }
}

/// Run one loop through both in-order engines: the full range plus an
/// offset subrange (cleanup loops run subranges).
fn check_engines(l: &Loop) {
    let n = l.trip.count;
    for range in [0..n, n / 3..n] {
        let mut mf = Memory::for_arrays(&l.arrays);
        let mut mr = mf.clone();
        let of = execute_loop(l, &mut mf, range.clone());
        let or = reference::execute_loop(l, &mut mr, range.clone());
        let what = format!("in-order {range:?}");
        assert_outs_identical(l, &what, &of, &or);
        assert_mem_identical(l, &what, &mf, &mr);
    }
}

/// The generator profiles the sweep cycles through — the same shapes the
/// differential fuzzer stresses (broad mix, reductions, recurrence
/// chains, tiny trips).
fn profile_for(seed: u64) -> SynthProfile {
    let broad = SynthProfile::broad();
    match seed % 4 {
        0 => broad,
        1 => SynthProfile { reduction_prob: 0.85, reassoc: true, ..broad },
        2 => SynthProfile {
            recurrence_prob: 0.6,
            carried_prob: 0.35,
            nonunit_prob: 0.3,
            ..broad
        },
        _ => SynthProfile { loads: (1, 2), arith: (1, 3), trip: (1, 9), ..broad },
    }
}

#[test]
fn two_hundred_random_loops_match_reference() {
    for seed in 0..200u64 {
        let mut l = synth_loop(&format!("equiv{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        check_engines(&l);
    }
}

#[test]
fn zero_trip_loops_match_reference() {
    for seed in 0..20u64 {
        let mut l = synth_loop(&format!("zt{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        l.trip.count = 0;
        // In-order over an empty range must fall back to carried-init
        // live-outs in both engines.
        check_engines(&l);
    }
}

#[test]
fn max_carried_distance_matches_reference() {
    // A distance-7 self-recurrence plus a distance-7 cross-op use: reads
    // straddle the full ring window, and the first 7 iterations observe
    // carried-init values.
    for trip in [1u64, 6, 7, 8, 40] {
        let mut b = LoopBuilder::new(format!("dist7x{trip}"));
        b.trip(trip);
        let x = b.array("x", ScalarType::F64, 64);
        let y = b.array("y", ScalarType::F64, 64);
        let lx = b.load(x, 1, 0);
        let far = b.bin(
            OpKind::Add,
            ScalarType::F64,
            Operand::def(lx),
            Operand::Def { op: lx, distance: 7 },
        );
        // A recurrence whose carried use also reaches back 7 iterations.
        let rec_id = OpId(b.as_loop().ops.len() as u32);
        let rec = b.push(
            Opcode::scalar(OpKind::Add, ScalarType::F64),
            vec![Operand::carried(rec_id, 7), Operand::def(far)],
            None,
            false,
        );
        assert_eq!(rec, rec_id);
        b.store(y, 1, 0, rec);
        b.live_out("rec", rec);
        let l = b.finish();
        check_engines(&l);
    }
}

#[test]
fn integer_reductions_match_reference() {
    for kind in [OpKind::Add, OpKind::Mul, OpKind::Min, OpKind::Max] {
        let mut b = LoopBuilder::new(format!("ired-{kind:?}"));
        b.trip(37);
        let x = b.array("x", ScalarType::I64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce(kind, ScalarType::I64, lx);
        check_engines(&b.finish());
    }
}
