//! Differential tests for the slot-accurate schedule executor.
//!
//! Every compiled plan must satisfy two gates when replayed through
//! [`sv_sim::execute_schedule`]:
//!
//! 1. **state** — final memory and live-outs bit-identical
//!    ([`sv_sim::Scalar::identical`]) to the retained reference engine
//!    running the same plan;
//! 2. **timing** — zero interlock stalls, and measured steady-state
//!    cycles/iteration exactly the scheduled II for every piece whose
//!    kernel runs.
//!
//! Two hundred seeded random loops sweep the generator's distribution
//! profiles across all seven strategies and three registry machines; the
//! benchmark suites and a set of hand-built corner loops pin the
//! hand-written kernels; a property test holds the measured cycle count
//! to the `(n − 1)·II + length` timing model (and the analytic
//! `(n + SC − 1)·II` to within one II of it) over the machine registry;
//! and a mutation test seeds schedule, layout and renaming bugs into
//! every suite segment and requires a surviving check to catch each.

use std::path::Path;
use sv_core::{DriverConfig, Strategy};
use sv_machine::{MachineConfig, MachineRegistry};
use sv_ir::{Loop, LoopBuilder, OpKind, Opcode, OpId, Operand, ScalarType};
use sv_sim::{compile_executed, execute_schedule, executed_selfcheck, Memory};
use sv_workloads::{synth_loop, SynthProfile};

/// The builtin pair plus one spec-file machine: scheduling behaviour
/// differs across all three (issue width, vector lanes, communication
/// cost), so the sweep exercises genuinely different schedules.
fn registry_machines() -> Vec<(String, MachineConfig)> {
    let mut reg = MachineRegistry::builtin();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
    reg.load_dir(&dir).expect("examples/machines must parse");
    let mut out = Vec::new();
    for name in ["paper", "figure1", "vl4"] {
        let m = reg.get(name).unwrap_or_else(|| panic!("machine {name} missing"));
        out.push((name.to_string(), m.clone()));
    }
    out
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

/// Hand-built corner loops: memory recurrences at distances 2 and 4,
/// an in-place update (a zero-delay anti dependence in flight),
/// floating-point and integer reductions, multiply-add chains, and
/// register recurrences reaching back seven iterations.
fn hand_built_loops() -> Vec<Loop> {
    let mut out = Vec::new();
    // a[i+d] = f(a[i]): the pipeline overlaps iterations but must still
    // respect the flow through memory.
    for (d, trip) in [(2i64, 40u64), (4, 30)] {
        let mut b = LoopBuilder::new(format!("memrec{d}"));
        b.trip(trip);
        let a = b.array("a", ScalarType::F64, 128);
        let la = b.load(a, 1, 0);
        let v = b.bin(
            OpKind::Mul,
            ScalarType::F64,
            Operand::def(la),
            Operand::ConstF(2.0),
        );
        b.store(a, 1, d, v);
        out.push(b.finish());
    }
    // x[i] = x[i] + r[i].
    let mut b = LoopBuilder::new("update");
    b.trip(48);
    let x = b.array("x", ScalarType::F64, 64);
    let r = b.array("r", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let lr = b.load(r, 1, 0);
    let s = b.fadd(lx, lr);
    b.store(x, 1, 0, s);
    out.push(b.finish());
    // Dot product and sum of squares.
    let mut b = LoopBuilder::new("dot");
    b.trip(48);
    let x = b.array("x", ScalarType::F64, 64);
    let y = b.array("y", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let ly = b.load(y, 1, 0);
    let mu = b.fmul(lx, ly);
    b.reduce_add(mu);
    out.push(b.finish());
    let mut b = LoopBuilder::new("sumsq");
    b.trip(40);
    let x = b.array("x", ScalarType::F64, 128);
    let lx = b.load(x, 1, 0);
    let sq = b.fmul(lx, lx);
    b.reduce_add(sq);
    out.push(b.finish());
    // y[i] = x[i]·y[i] + x[i], y[i] = x[i]² + x[i] and y[i] = x[i]².
    let mut b = LoopBuilder::new("muladd");
    b.trip(40);
    let x = b.array("x", ScalarType::F64, 128);
    let y = b.array("y", ScalarType::F64, 128);
    let lx = b.load(x, 1, 0);
    let ly = b.load(y, 1, 0);
    let mu = b.fmul(lx, ly);
    let s = b.fadd(mu, lx);
    b.store(y, 1, 0, s);
    out.push(b.finish());
    let mut b = LoopBuilder::new("sqadd");
    b.trip(40);
    let x = b.array("x", ScalarType::F64, 128);
    let y = b.array("y", ScalarType::F64, 128);
    let lx = b.load(x, 1, 0);
    let m1 = b.fmul(lx, lx);
    let a = b.fadd(m1, lx);
    b.store(y, 1, 0, a);
    out.push(b.finish());
    let mut b = LoopBuilder::new("square");
    b.trip(40);
    let x = b.array("x", ScalarType::F64, 64);
    let y = b.array("y", ScalarType::F64, 64);
    let lx = b.load(x, 1, 0);
    let m1 = b.fmul(lx, lx);
    b.store(y, 1, 0, m1);
    out.push(b.finish());
    // Integer reductions of every kind.
    for kind in [OpKind::Add, OpKind::Mul, OpKind::Min, OpKind::Max] {
        let mut b = LoopBuilder::new(format!("ired-{kind:?}"));
        b.trip(37);
        let x = b.array("x", ScalarType::I64, 64);
        let lx = b.load(x, 1, 0);
        b.reduce(kind, ScalarType::I64, lx);
        out.push(b.finish());
    }
    // A distance-7 self-recurrence fed by a distance-7 cross-op use: the
    // first seven iterations observe carried-init values.
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
            Operand::Def {
                op: lx,
                distance: 7,
            },
        );
        let rec_id = OpId(b.as_loop().ops.len() as u32);
        let rec = b.push(
            Opcode::scalar(OpKind::Add, ScalarType::F64),
            vec![Operand::carried(rec_id, 7), Operand::def(far)],
            None,
            false,
        );
        b.store(y, 1, 0, rec);
        b.live_out("rec", rec);
        out.push(b.finish());
    }
    out
}

/// Compile under every strategy and hold the executed plan to both
/// gates. Returns how many strategies produced a plan (compilation
/// failures are legitimate for pathological loops; executed failures
/// never are).
fn check_executed(l: &sv_ir::Loop, mname: &str, m: &MachineConfig) -> u32 {
    let mut compiled = 0;
    for s in Strategy::ALL {
        let cfg = DriverConfig { strategy: s, ..DriverConfig::default() };
        match compile_executed(l, m, &cfg) {
            Ok((_, _, pieces)) => {
                compiled += 1;
                assert!(!pieces.is_empty(), "{}/{s}/{mname}: no pieces ran", l.name);
            }
            Err(sv_core::CompileError::Execution { detail, .. }) => {
                panic!("{}/{s}/{mname}: executed gate failed: {detail}", l.name)
            }
            Err(_) => {}
        }
    }
    compiled
}

#[test]
fn two_hundred_random_loops_execute_at_scheduled_ii() {
    let machines = registry_machines();
    let mut compiled = 0u32;
    for seed in 0..200u64 {
        let mut l = synth_loop(&format!("sx{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        let (name, m) = &machines[(seed % 3) as usize];
        compiled += check_executed(&l, name, m);
    }
    // The sweep must actually exercise the executor across strategies,
    // not just trip on compile failures.
    assert!(compiled >= 900, "only {compiled}/1200 cases compiled");
}

#[test]
fn short_trip_loops_execute_truncated_layouts() {
    // Trips below the stage count take the truncated prologue-only
    // layout; the executor must still match the reference engine and
    // report a vacuously-satisfied timing gate (kernel never runs).
    let machines = registry_machines();
    for seed in 0..40u64 {
        let mut l = synth_loop(&format!("st{seed}"), &profile_for(seed), seed);
        l.invocations = 1;
        l.trip.count = seed % 4; // 0..=3 iterations: below most stage counts
        let (name, m) = &machines[(seed % 3) as usize];
        check_executed(&l, name, m);
    }
    // The hand-built loops at trips 0..=3 and at exactly their modulo
    // stage count (one kernel execution).
    let m = MachineConfig::paper_default();
    for l in hand_built_loops() {
        let g = sv_analysis::DepGraph::build(&l);
        let sc = sv_modsched::modulo_schedule(&l, &g, &m).expect("schedulable").stage_count;
        for trip in [0, 1, 2, 3, u64::from(sc)] {
            let mut l = l.clone();
            l.trip.count = trip;
            check_executed(&l, "paper", &m);
        }
    }
}

#[test]
fn suite_kernels_execute_at_scheduled_ii() {
    // The hand-written benchmark kernels (plus a slice of each suite's
    // synthetic fill) through the full gate on the paper machine.
    let m = MachineConfig::paper_default();
    for suite in sv_workloads::all_benchmarks() {
        for l in suite.loops.iter().take(8) {
            let mut l = l.clone();
            l.invocations = 1;
            check_executed(&l, "paper", &m);
        }
    }
    for l in hand_built_loops() {
        let compiled = check_executed(&l, "paper", &m);
        assert_eq!(compiled, 7, "{}: every strategy compiles", l.name);
    }
}

#[test]
fn predicated_kernels_hold_every_gate_everywhere() {
    // The four if-converted suite kernels (clip, threshold-accumulate,
    // argmax max+select, conditional saxpy) × every strategy × the
    // registry machines — including the select-capacity sweep pair
    // (`selcheap`/`selslow`). `compile_executed` holds each plan to the
    // full gate stack: bit-identical state vs the reference engine, zero
    // stalls, measured steady-state II == scheduled II, and observed
    // register pressure within MaxLive.
    let mut reg = MachineRegistry::builtin();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
    reg.load_dir(&dir).expect("examples/machines must parse");
    let machines: Vec<(String, MachineConfig)> =
        ["paper", "figure1", "vl4", "selcheap", "selslow"]
            .iter()
            .map(|n| (n.to_string(), reg.get(n).unwrap_or_else(|| panic!("{n} missing")).clone()))
            .collect();
    for (suite, pat) in [
        ("hydro2d", "slopeclip"),
        ("apsi", "excess"),
        ("swim", "wetdry"),
        ("wave5", "fieldmax"),
    ] {
        let s = sv_workloads::benchmark(suite).expect("suite exists");
        let mut l = s
            .loops
            .iter()
            .find(|l| l.name.ends_with(pat))
            .unwrap_or_else(|| panic!("{pat} missing from {suite}"))
            .clone();
        l.invocations = 1;
        for (name, m) in &machines {
            let compiled = check_executed(&l, name, m);
            assert!(compiled >= 6, "{pat}/{name}: only {compiled}/7 strategies compiled");
        }
    }
}

#[test]
fn observed_register_pressure_is_real_and_bounded() {
    // The executor's live-value probe must (a) see the pressure a
    // pipelined copy loop provably has — at II = 1 the loaded value
    // lives for the 3-cycle load latency, so ≥ 3 fp registers are
    // simultaneously live — and (b) never exceed the scheduler's
    // MaxLive estimate (the `executed_selfcheck` gate).
    let mut b = sv_ir::LoopBuilder::new("copy");
    b.trip(64);
    let x = b.array("x", sv_ir::ScalarType::F64, 80);
    let y = b.array("y", sv_ir::ScalarType::F64, 80);
    let lx = b.load(x, 1, 0);
    b.store(y, 1, 0, lx);
    let l = b.finish();
    let m = MachineConfig::paper_default();
    let cfg = DriverConfig { strategy: Strategy::ModuloNoUnroll, ..DriverConfig::default() };
    let (_, _, pieces) = compile_executed(&l, &m, &cfg).expect("copy compiles");
    let main = &pieces[0];
    assert_eq!(main.scheduled_ii, 1);
    let fp = main.report.observed_max_live[1];
    assert!(fp >= 3, "observed fp pressure {fp} misses the load latency");
    assert!(fp <= main.max_live[1], "probe exceeds the scheduler estimate");
    // Nothing here touches the other classes' registers.
    assert_eq!(main.report.observed_max_live[2], 0, "no vector-int values");
    assert_eq!(main.report.observed_max_live[3], 0, "no vector-fp values");
}

#[test]
fn suite_pressure_never_exceeds_maxlive_across_registry() {
    // Register-pressure slice of the executed gate across machines: every
    // suite kernel that compiles under every strategy must replay within
    // the scheduler's MaxLive on each registry machine (the assertion
    // itself lives inside `executed_selfcheck`; this sweep pins the
    // suite × strategy × registry coverage).
    let machines = registry_machines();
    let mut checked = 0u32;
    for (mi, suite) in sv_workloads::all_benchmarks().iter().enumerate() {
        let (name, m) = &machines[mi % machines.len()];
        for l in suite.loops.iter().take(4) {
            let mut l = l.clone();
            l.invocations = 1;
            checked += check_executed(&l, name, m);
        }
    }
    assert!(checked >= 100, "only {checked} suite × strategy × machine points checked");
}

#[test]
fn analytic_cycles_within_one_ii_over_registry() {
    // The executed layout must take exactly the timing model's
    // `(n − 1)·II + length` cycles with zero stalls, and the analytic
    // `(n + SC − 1)·II` the tables use must stay within one II of that
    // measured count. Held over every registry machine × a spread of
    // suite loops and trips.
    let machines = registry_machines();
    let suites = sv_workloads::all_benchmarks();
    let mut checked = 0u32;
    for (mname, m) in &machines {
        for suite in &suites {
            for l in suite.loops.iter().take(4) {
                let g = sv_analysis::DepGraph::build(l);
                let Ok(s) = sv_modsched::modulo_schedule(l, &g, m) else {
                    continue;
                };
                for n in [1u64, 2, u64::from(s.stage_count), l.trip.count.max(1)] {
                    let flat = sv_modsched::emit_flat_for(l, &s, n);
                    let mut mem = Memory::for_arrays(&l.arrays);
                    let (_, r) = execute_schedule(l, m, &flat, &mut mem, 0..n)
                        .unwrap_or_else(|e| panic!("{}/{mname}: {e}", l.name));
                    let exact = (n - 1) * u64::from(s.ii) + u64::from(s.length);
                    let analytic = (n + u64::from(s.stage_count) - 1) * u64::from(s.ii);
                    assert_eq!(
                        (r.total_cycles, r.stall_cycles),
                        (exact, 0),
                        "{}/{mname} n={n}: measured cycles and stalls (II {}, length {})",
                        l.name,
                        s.ii,
                        s.length
                    );
                    assert!(
                        analytic >= exact && analytic - exact < u64::from(s.ii),
                        "{}/{mname} n={n}: analytic {analytic} is not within one II of {exact} (II {})",
                        l.name,
                        s.ii
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked >= 200,
        "only {checked} (machine, loop, trip) points checked"
    );
}

#[test]
fn private_comm_slots_survive_overlapped_iterations() {
    // Regression for the first real bugs this executor caught. Selective
    // vectorization communicates scalar↔vector values through
    // `iteration_private` comm arrays with invariant addressing
    // (`@a[0·i+k]`); the dependence graph carries no cross-iteration
    // edges on them, so on the wider-vector machines the scheduler
    // overlaps iteration `j+1`'s comm store past iteration `j`'s comm
    // load (su2cor.gaugemul on `vl4`: store at t=19, load at t=35 with
    // II 13). Before the executors renamed private arrays per in-flight
    // iteration (`sim/src/privrot.rs`), the overlapped replay silently
    // corrupted the slot and the executed state diverged from the
    // reference engine.
    let mut reg = MachineRegistry::builtin();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
    reg.load_dir(&dir).expect("examples/machines must parse");
    for (mname, suite, kernel) in
        [("vl4", "su2cor", "gaugemul"), ("mem4", "mgrid", "psinv")]
    {
        let m = reg.get(mname).unwrap_or_else(|| panic!("machine {mname} missing"));
        let suite = sv_workloads::benchmark(suite).expect("suite exists");
        let mut l = suite
            .loops
            .iter()
            .find(|l| l.name.ends_with(kernel))
            .unwrap_or_else(|| panic!("{kernel} missing from suite"))
            .clone();
        l.invocations = 1;
        let cfg = DriverConfig { strategy: Strategy::Selective, ..DriverConfig::default() };
        let (_, _, pieces) = compile_executed(&l, m, &cfg)
            .unwrap_or_else(|e| panic!("{kernel}/{mname}: {e}"));
        // The overlapped pieces must also hold the timing gate.
        for p in &pieces {
            assert_eq!(p.report.stall_cycles, 0, "{}/{mname}", p.piece);
        }
    }
}

#[test]
fn executed_selfcheck_reports_both_gates() {
    // The combined gate used by `--executed-selfcheck`: state and timing
    // in one call, on a kernel with a cleanup piece (non-multiple trip).
    let m = MachineConfig::paper_default();
    let mut l = synth_loop("gate", &SynthProfile::broad(), 7);
    l.invocations = 1;
    l.trip.count = 37;
    for s in Strategy::ALL {
        let Ok(c) = sv_core::compile(&l, &m, s) else { continue };
        let pieces = executed_selfcheck(&c, &m)
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        for p in &pieces {
            assert_eq!(p.report.stall_cycles, 0, "{s}/{}", p.piece);
        }
    }
}

/// A seeded bug in one compiled segment — one per defect class the
/// executed gates must catch: a corrupted schedule (issue times, unit
/// reservations), a corrupted flat layout, or a broken rename.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutant {
    /// A consumer's issue time moved ahead of its producer's.
    TimeAheadOfProducer,
    /// A producer's and its consumer's issue times swapped.
    TimesSwapped,
    /// An op's first unit reservation claimed twice.
    DuplicatedReservation,
    /// An op's unit assignment cleared.
    ClearedAssignment,
    /// One kernel-row entry of the flat layout dropped.
    DroppedKernelEntry,
    /// One kernel-row entry tagged with a neighbouring stage.
    WrongStageTag,
    /// The loop's `iteration_private` comm arrays no longer renamed, so
    /// in-flight iterations share one slot.
    SharedCommSlot,
}

impl Mutant {
    const ALL: [Mutant; 7] = [
        Mutant::TimeAheadOfProducer,
        Mutant::TimesSwapped,
        Mutant::DuplicatedReservation,
        Mutant::ClearedAssignment,
        Mutant::DroppedKernelEntry,
        Mutant::WrongStageTag,
        Mutant::SharedCommSlot,
    ];
}

/// The artifacts one mutant runs on: the loop the executor sees, the
/// schedule `validate_schedule` sees, and the layout the executor runs.
struct Mutated {
    looop: sv_ir::Loop,
    schedule: sv_modsched::Schedule,
    flat: sv_modsched::FlatListing,
}

/// Whether dropping or retagging an instance of op `i` is observable: a
/// store, a live-out, or an op some other op reads.
fn observable(l: &sv_ir::Loop, i: usize) -> bool {
    !l.ops[i].defines_value()
        || l.live_outs.iter().any(|lo| lo.op.index() == i)
        || l.ops.iter().any(|op| {
            op.def_uses()
                .any(|(p, _)| p.index() == i && op.id.index() != i)
        })
}

/// Seed `kind` into the segment `(l, s)` run for `n` iterations; `None`
/// when the segment has no site for it (no dependent pair, a kernel that
/// never runs, a single stage, no private arrays).
fn seed(
    kind: Mutant,
    l: &sv_ir::Loop,
    m: &MachineConfig,
    s: &sv_modsched::Schedule,
    n: u64,
) -> Option<Mutated> {
    let mut looop = l.clone();
    let mut schedule = s.clone();
    let mut flat = None;
    // The first same-iteration producer→consumer pair with a latency.
    let pair = l.ops.iter().find_map(|op| {
        op.def_uses()
            .find(|&(p, d)| d == 0 && p != op.id && m.latency(l.ops[p.index()].opcode) > 0)
            .map(|(p, _)| (p.index(), op.id.index()))
    });
    let reserving = s.assignments.iter().position(|a| !a.is_empty());
    match kind {
        Mutant::TimeAheadOfProducer => {
            let (p, c) = pair?;
            schedule.times[c] = schedule.times[p].saturating_sub(1);
        }
        Mutant::TimesSwapped => {
            let (p, c) = pair?;
            schedule.times.swap(p, c);
        }
        Mutant::DuplicatedReservation => {
            let i = reserving?;
            let first = schedule.assignments[i][0];
            schedule.assignments[i].push(first);
        }
        Mutant::ClearedAssignment => schedule.assignments[reserving?].clear(),
        Mutant::DroppedKernelEntry | Mutant::WrongStageTag => {
            let mut f = sv_modsched::emit_flat_for(l, s, n);
            if f.truncated_for.is_some() || (kind == Mutant::WrongStageTag && f.stage_count < 2) {
                return None;
            }
            let (r, k) = f.kernel.iter().enumerate().find_map(|(r, row)| {
                row.iter()
                    .position(|&(op, _)| observable(l, op.index()))
                    .map(|k| (r, k))
            })?;
            if kind == Mutant::DroppedKernelEntry {
                f.kernel[r].remove(k);
            } else {
                let stage = &mut f.kernel[r][k].1;
                *stage = if *stage > 0 { *stage - 1 } else { *stage + 1 };
            }
            flat = Some(f);
        }
        Mutant::SharedCommSlot => {
            if !l.arrays.iter().any(|a| a.iteration_private) {
                return None;
            }
            looop
                .arrays
                .iter_mut()
                .for_each(|a| a.iteration_private = false);
        }
    }
    let flat = flat.unwrap_or_else(|| sv_modsched::emit_flat_for(l, &schedule, n));
    Some(Mutated {
        looop,
        schedule,
        flat,
    })
}

/// Which surviving checks catch a mutated segment: `validate_schedule`
/// errs, `execute_schedule` errs, the timing gate fails, or the final
/// state is not bit-identical to the reference engine's in-order run of
/// the same piece (what `reference::run_compiled` runs for it).
#[derive(Default, Clone, Copy)]
struct Caught {
    validate: bool,
    exec_error: bool,
    timing: bool,
    state: bool,
}

impl Caught {
    fn any(self) -> bool {
        self.validate || self.exec_error || self.timing || self.state
    }
}

fn check_mutant(l: &sv_ir::Loop, m: &MachineConfig, mu: &Mutated, n: u64) -> Caught {
    let g = sv_analysis::DepGraph::build(l);
    let mut caught = Caught {
        validate: sv_modsched::validate_schedule(l, &g, m, &mu.schedule).is_err(),
        ..Caught::default()
    };
    let mut want = sv_sim::Memory::for_arrays(&l.arrays);
    let want_outs = sv_sim::reference::execute_loop(l, &mut want, 0..n);
    let mut got = sv_sim::Memory::for_arrays(&l.arrays);
    match sv_sim::execute_schedule(&mu.looop, m, &mu.flat, &mut got, 0..n) {
        Err(_) => caught.exec_error = true,
        Ok((outs, report)) => {
            caught.timing = !report.steady_state_ok(mu.schedule.ii);
            caught.state = outs.len() != want_outs.len()
                || outs
                    .iter()
                    .zip(&want_outs)
                    .any(|(a, b)| !a.value.identical(b.value))
                || (0..l.arrays.len() as u32).any(|a| {
                    got.array(a)
                        .iter()
                        .zip(want.array(a))
                        .any(|(x, y)| !x.identical(*y))
                });
        }
    }
    caught
}

#[test]
fn seeded_schedule_layout_and_rename_bugs_are_caught() {
    // Subsumption of the deleted engines: every bug class the pipelined
    // and flat functional executors (and the schedule player) existed to
    // catch, seeded into each segment of the suite kernels on two
    // machines under the modulo and selective strategies, must trip at
    // least one surviving check.
    let mut reg = MachineRegistry::builtin();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
    reg.load_dir(&dir).expect("examples/machines must parse");
    // Per mutant: seeded, escaped, and caught by validate / executor
    // error / timing gate / state comparison.
    let mut applied = [0u32; Mutant::ALL.len()];
    let mut missed = [0u32; Mutant::ALL.len()];
    let mut by_check = [[0u32; 4]; Mutant::ALL.len()];
    for mname in ["paper", "vl4"] {
        let m = reg
            .get(mname)
            .unwrap_or_else(|| panic!("machine {mname} missing"));
        for suite in sv_workloads::all_benchmarks() {
            for src in suite.loops.iter().filter(|l| !l.name.contains(".synth")) {
                let mut src = src.clone();
                src.invocations = 1;
                src.trip.count = src.trip.count.clamp(8, 64);
                for strategy in [Strategy::ModuloOnly, Strategy::Selective] {
                    let Ok(c) = sv_core::compile(&src, m, strategy) else {
                        continue;
                    };
                    for seg in &c.segments {
                        let n = seg.looop.executed_iterations();
                        for (k, kind) in Mutant::ALL.into_iter().enumerate() {
                            let Some(mu) = seed(kind, &seg.looop, m, &seg.schedule, n) else {
                                continue;
                            };
                            applied[k] += 1;
                            let caught = check_mutant(&seg.looop, m, &mu, n);
                            let fired = [
                                caught.validate,
                                caught.exec_error,
                                caught.timing,
                                caught.state,
                            ];
                            for (slot, hit) in by_check[k].iter_mut().zip(fired) {
                                *slot += u32::from(hit);
                            }
                            if !caught.any() {
                                missed[k] += 1;
                                if kind != Mutant::SharedCommSlot {
                                    panic!(
                                        "{}/{strategy}/{mname}: {kind:?} escaped every check",
                                        seg.looop.name
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    for (k, kind) in Mutant::ALL.into_iter().enumerate() {
        let [v, e, t, st] = by_check[k];
        eprintln!(
            "{kind:?}: {} seeded, {} escaped; validate {v}, exec error {e}, timing {t}, state {st}",
            applied[k], missed[k]
        );
        assert!(applied[k] > 0, "{kind:?} was never seeded");
    }
    // Private comm slots only overlap where the schedule runs iterations
    // far enough apart; everywhere else sharing one slot is harmless. It
    // must bite somewhere (su2cor.gaugemul on vl4 is the known case).
    let shared = Mutant::ALL
        .iter()
        .position(|&k| k == Mutant::SharedCommSlot)
        .unwrap_or(0);
    assert!(
        missed[shared] < applied[shared],
        "sharing a comm slot never mattered"
    );
}
