//! The in-process workloads: `compile_suite` (four strategies over the
//! Table-2 population) and `oracle_suite` (`optimal` over the same loops),
//! each on one thread through `sv_core::compile_checked`.

use crate::inputs::{machine, pass_order, suite_loops};
use crate::layers::{compile_layer_metrics, traced_compile, zeroed_layer_sheet, CompileRecord};
use crate::stats::{median, Latencies, Sheet};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Outcome};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use sv_core::Strategy;
use sv_core::{compile_checked, CompilationReport, CompileError, CompiledLoop, DriverConfig};
use sv_ir::Loop;
use sv_machine::MachineConfig;
use sv_sim::executed_selfcheck;

/// Population generations timed for `setup_s`; the median is reported.
const SETUPS: usize = 31;

/// What identifies a delivered compile's output: a later pass must
/// deliver exactly this again.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    delivered: Strategy,
    total_cycles: u64,
    /// (II, stage count, cleanup II) per segment.
    segments: Vec<(u32, u32, Option<u32>)>,
    kl_probes: u64,
    iis_tried: Vec<u32>,
    search_nodes: u64,
}

impl Fingerprint {
    fn of(c: &CompiledLoop, rep: &CompilationReport, m: &MachineConfig) -> Fingerprint {
        Fingerprint {
            delivered: rep.delivered,
            total_cycles: c.total_cycles(m),
            segments: c
                .segments
                .iter()
                .map(|s| {
                    (s.schedule.ii, s.schedule.stage_count, s.cleanup.as_ref().map(|(_, cs)| cs.ii))
                })
                .collect(),
            kl_probes: rep.stats.kl_probes,
            iis_tried: rep.stats.iis_tried.clone(),
            search_nodes: rep.stats.search_nodes,
        }
    }
}

/// The correctness oracle for delivered compiles. The first time a
/// (loop, strategy) pair is delivered, its code is executed on the
/// slot-accurate VLIW executor and held to `sv_sim::executed_selfcheck`
/// (the check `sv_sim::compile_executed` applies): final state
/// bit-identical to the reference interpreter and measured II equal to
/// the scheduled II with no stalls. Every later delivery of the pair must
/// reproduce the verified output exactly.
#[derive(Default)]
pub(crate) struct Checker {
    verified: HashMap<(usize, Strategy), Fingerprint>,
    /// Wall time spent executing checks (ns).
    pub check_ns: u64,
    /// Executed pieces (main and cleanup loops).
    pub pieces: u64,
    /// Pieces whose measured steady state equals the scheduled II.
    pub pieces_at_ii: u64,
    /// Failure descriptions (capped when printed).
    pub failures: Vec<String>,
}

impl Checker {
    /// Check one delivered compile; false (and a recorded failure) when
    /// it is wrong.
    pub(crate) fn check(
        &mut self,
        loop_idx: usize,
        l: &Loop,
        strategy: Strategy,
        result: &Compiled,
        m: &MachineConfig,
    ) -> bool {
        let (c, rep) = match result {
            Ok(ok) => ok,
            Err(e) => {
                self.failures.push(format!("{} [{strategy}]: {e}", l.name));
                return false;
            }
        };
        let fp = Fingerprint::of(c, rep, m);
        if let Some(prev) = self.verified.get(&(loop_idx, strategy)) {
            if *prev == fp {
                return true;
            }
            self.failures.push(format!("{} [{strategy}]: output changed between passes", l.name));
            return false;
        }
        let t0 = Instant::now();
        let verdict = executed_selfcheck(c, m);
        self.check_ns += t0.elapsed().as_nanos() as u64;
        match verdict {
            Ok(pieces) => {
                self.pieces += pieces.len() as u64;
                self.pieces_at_ii +=
                    pieces.iter().filter(|p| p.report.steady_state_ok(p.scheduled_ii)).count()
                        as u64;
                self.verified.insert((loop_idx, strategy), fp);
                true
            }
            Err(detail) => {
                self.failures.push(format!("{} [{strategy}]: executed check: {detail}", l.name));
                false
            }
        }
    }
}

/// Per-pass reference sums of one in-process workload (exact counters).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassTotals {
    /// Σ total_cycles of the delivered code, per requested strategy in
    /// the workload's strategy order.
    pub cycles: Vec<(Strategy, u64)>,
    /// Compiles delivered by the requested strategy (no fallback).
    pub clean: u64,
    /// Compiles in the pass.
    pub compiles: u64,
}

impl PassTotals {
    fn new(strategies: &[Strategy]) -> PassTotals {
        PassTotals { cycles: strategies.iter().map(|&s| (s, 0)).collect(), ..PassTotals::default() }
    }

    fn add(&mut self, s: Strategy, cycles: u64, clean: bool) {
        if let Some(row) = self.cycles.iter_mut().find(|(t, _)| *t == s) {
            row.1 += cycles;
        }
        self.clean += u64::from(clean);
        self.compiles += 1;
    }

    /// Σ cycles over every strategy.
    pub fn all_cycles(&self) -> u64 {
        self.cycles.iter().map(|r| r.1).sum()
    }

    /// Σ cycles of one strategy.
    pub fn cycles_of(&self, s: Strategy) -> u64 {
        self.cycles.iter().find(|r| r.0 == s).map_or(0, |r| r.1)
    }
}

/// Generate the population `SETUPS` times; the median wall time is the
/// workload's set-up time.
fn timed_population() -> (Vec<Loop>, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut loops = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        loops = black_box(suite_loops());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (loops, median(&secs))
}

fn configs(strategies: &[Strategy]) -> HashMap<Strategy, DriverConfig> {
    strategies.iter().map(|&s| (s, DriverConfig::for_strategy(s))).collect()
}

/// A delivered compile or its typed error.
type Compiled = Result<(CompiledLoop, CompilationReport), CompileError>;

/// One untraced pass in the given order: per-call wall times and results.
fn run_pass(
    loops: &[Loop],
    order: &[(usize, Strategy)],
    cfgs: &HashMap<Strategy, DriverConfig>,
    m: &MachineConfig,
) -> Vec<(Duration, Compiled)> {
    let mut out = Vec::with_capacity(order.len());
    for &(li, s) in order {
        let t0 = Instant::now();
        let r = compile_checked(black_box(&loops[li]), m, &cfgs[&s]);
        out.push((t0.elapsed(), black_box(r)));
    }
    out
}

/// A compile whose first timed call takes more than this share of the
/// run is timed once: repeating it would crowd out every other compile
/// (`tomcatv.residual` under `optimal` alone takes 9–16 s).
const REPEAT_SHARE: f64 = 0.1;

/// The untraced measurement. Round 0 times every (loop, strategy) compile
/// once in seeded order; later rounds, each in a fresh seeded order,
/// time again every compile cheap enough to repeat (see
/// [`REPEAT_SHARE`]) until the summed compile time is as close to
/// `seconds` as whole rounds allow. Each compile's time is the median of
/// its calls, so a burst of load from outside the process moves a figure
/// only when it covers half a compile's calls. Checking runs between
/// rounds, outside the timed calls.
pub fn measure(strategies: &[Strategy], seed: u64, seconds: f64) -> Outcome {
    let (loops, setup_s) = timed_population();
    let m = machine();
    let cfgs = configs(strategies);
    let mut checker = Checker::default();
    let mut calls_us: HashMap<(usize, Strategy), Vec<f64>> = HashMap::new();
    let mut timed = 0.0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut totals = PassTotals::new(strategies);
    let mut rounds = 0u64;
    let repeat_us = seconds * REPEAT_SHARE * 1e6;
    loop {
        let mut order = pass_order(loops.len(), strategies, seed, rounds);
        if rounds > 0 {
            order.retain(|op| calls_us[op][0] <= repeat_us);
        }
        let results = run_pass(&loops, &order, &cfgs, &m);
        // The time the next round will take: this round's calls of the
        // compiles that repeat.
        let mut next_s = 0.0;
        for (&(li, s), (dt, r)) in order.iter().zip(&results) {
            timed += dt.as_secs_f64();
            let calls = calls_us.entry((li, s)).or_default();
            calls.push(dt.as_secs_f64() * 1e6);
            if calls[0] <= repeat_us {
                next_s += dt.as_secs_f64();
            }
            attempted += 1;
            if !checker.check(li, &loops[li], s, r, &m) {
                failed += 1;
            }
            if rounds == 0 {
                if let Ok((c, rep)) = r {
                    totals.add(s, c.total_cycles(&m), rep.fallbacks.is_empty());
                }
            }
        }
        rounds += 1;
        if next_s == 0.0 || timed + next_s / 2.0 >= seconds {
            break;
        }
    }
    let per_op: Vec<((usize, Strategy), f64)> =
        calls_us.iter().map(|(&op, us)| (op, median(us))).collect();
    let pass_us: f64 = per_op.iter().map(|(_, us)| us).sum();
    let ((slow_li, slow_s), slow_us) = per_op
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(((0, Strategy::ModuloOnly), 0.0));
    let once = calls_us.values().filter(|us| us.len() == 1).count();
    let lat = Latencies::new(per_op.iter().map(|(_, us)| *us).collect());
    let mut sheet = Sheet::default();
    sheet.set("ops_per_s", per_op.len() as f64 / pass_us * 1e6, "1/s");
    sheet.set("p50_us", lat.p(50.0), "us");
    sheet.set("p90_us", lat.p(90.0), "us");
    sheet.set("success_rate", 1.0 - failed as f64 / attempted as f64, "ratio");
    sheet.set("setup_s", setup_s, "s");
    sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
    sheet.set("code_mcycles", totals.all_cycles() as f64 / 1e6, "Mcycles");
    sheet.set("decided_share", totals.clean as f64 / totals.compiles.max(1) as f64, "ratio");
    let mut notes = vec![
        format!(
            "{rounds} rounds, {attempted} compile_checked calls, {timed:.3} s inside \
             compile_checked; {} compiles, {once} timed once",
            per_op.len()
        ),
        format!("one pass at each compile's median time: {:.3} s", pass_us / 1e6),
        lat.describe("compile_checked, median per compile"),
        format!(
            "slowest compile: {} [{slow_s}] at {:.1} ms",
            loops.get(slow_li).map_or("", |l| l.name.as_str()),
            slow_us / 1e3
        ),
        format!(
            "executed checks: {} pieces, {} at scheduled II, {:.1} ms",
            checker.pieces,
            checker.pieces_at_ii,
            checker.check_ns as f64 / 1e6
        ),
    ];
    for (s, c) in &totals.cycles {
        notes.push(format!("code cycles per pass [{s}]: {:.6} Mcycles", *c as f64 / 1e6));
    }
    notes.extend(checker.failures.iter().take(20).map(|f| format!("FAILED {f}")));
    Outcome { sheet, attempted, failed, notes, spans: None }
}

/// One pass in the given order, each compile inside a `driver.compile`
/// span with its pass splits; returns the results and compile records.
fn traced_pass(
    tr: &mut Tracer,
    loops: &[Loop],
    order: &[(usize, Strategy)],
    cfgs: &HashMap<Strategy, DriverConfig>,
    m: &MachineConfig,
) -> (Vec<Compiled>, Vec<CompileRecord>) {
    let mut results = Vec::with_capacity(order.len());
    let mut recs = Vec::with_capacity(order.len());
    for (i, &(li, s)) in order.iter().enumerate() {
        let r = traced_compile(tr, i as u64, &loops[li], m, &cfgs[&s]);
        results.push(r.map(|(c, rep, rec)| {
            recs.push(rec);
            (c, rep)
        }));
    }
    (results, recs)
}

/// The exact counters of one seeded pass (partition probes, moves and
/// bin-packs, IIs tried per strategy, oracle nodes and probe units,
/// boundary checks, fallbacks) and its per-strategy code cycles. Neither
/// depends on the seed, which only reorders the pass, nor on timing.
pub fn exact_counters(strategies: &[Strategy], seed: u64) -> (Vec<(String, f64)>, PassTotals) {
    let loops = suite_loops();
    let m = machine();
    let order = pass_order(loops.len(), strategies, seed, 0);
    let mut tr = Tracer::default();
    let (results, recs) = traced_pass(&mut tr, &loops, &order, &configs(strategies), &m);
    let mut totals = PassTotals::new(strategies);
    for (&(_, s), r) in order.iter().zip(&results) {
        if let Ok((c, rep)) = r {
            totals.add(s, c.total_cycles(&m), rep.fallbacks.is_empty());
        }
    }
    let mut sheet = Sheet::default();
    compile_layer_metrics(&mut sheet, &tr, &recs);
    let exact = sheet
        .rows()
        .iter()
        .filter(|(name, _, unit)| *unit == "count" || name.ends_with("_ratio"))
        .map(|(name, v, _)| (name.clone(), *v))
        .collect();
    (exact, totals)
}

/// The traced run: the first seeded pass replayed once untraced and once
/// traced (spans around `compile_checked`, pass splits from `PassStats`),
/// then checked under `sim.check` spans. Per-layer rows only.
pub fn traced(strategies: &[Strategy], seed: u64) -> Outcome {
    let mut tr = Tracer::default();
    let (loops, _) = tr.span("workloads.gen", 0, |_| suite_loops());
    let gen_ms = crate::layers::self_ms(&tr, "workloads.gen");
    let m = machine();
    let cfgs = configs(strategies);
    let order = pass_order(loops.len(), strategies, seed, 0);

    let t0 = Instant::now();
    let plain = run_pass(&loops, &order, &cfgs, &m);
    let untraced_s = t0.elapsed().as_secs_f64();
    drop(plain);

    let t0 = Instant::now();
    let (results, recs) = traced_pass(&mut tr, &loops, &order, &cfgs, &m);
    let traced_s = t0.elapsed().as_secs_f64();

    let mut checker = Checker::default();
    let mut failed = 0;
    for (i, (&(li, s), r)) in order.iter().zip(&results).enumerate() {
        let (ok, _) = tr.span("sim.check", i as u64, |_| checker.check(li, &loops[li], s, r, &m));
        failed += u64::from(!ok);
    }

    let mut sheet = zeroed_layer_sheet();
    compile_layer_metrics(&mut sheet, &tr, &recs);
    sheet.set("sim.check_ms", crate::layers::self_ms(&tr, "sim.check"), "ms");
    sheet.set(
        "sim.at_ii_ratio",
        checker.pieces_at_ii as f64 / checker.pieces.max(1) as f64,
        "ratio",
    );
    sheet.set("workloads.gen_ms", gen_ms, "ms");
    sheet.set("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0, "%");
    let (slow_i, slow) =
        recs.iter().enumerate().max_by_key(|(_, r)| r.ns).map_or((0, 0), |(i, r)| (i, r.ns));
    let total_ns: u64 = recs.iter().map(|r| r.ns).sum();
    sheet.set("slowest_op_ms", slow as f64 / 1e6, "ms");
    sheet.set("slowest_op_share", slow as f64 / total_ns.max(1) as f64, "ratio");
    let slow_name = order
        .iter()
        .zip(&results)
        .filter(|(_, r)| r.is_ok())
        .nth(slow_i)
        .map_or_else(String::new, |(&(li, s), _)| format!("{} [{s}]", loops[li].name));
    let mut notes = vec![
        format!(
            "traced pass {traced_s:.3} s vs untraced {untraced_s:.3} s over {} compiles",
            order.len()
        ),
        format!("slowest compile: {slow_name} at {:.1} ms", slow as f64 / 1e6),
    ];
    notes.extend(checker.failures.iter().take(20).map(|f| format!("FAILED {f}")));
    Outcome { sheet, attempted: order.len() as u64, failed, notes, spans: Some(tr) }
}
