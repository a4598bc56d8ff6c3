//! Traced calls into the compiler's layers, and the per-layer metrics
//! derived from the spans and from the `PassStats` each compile returns.

use crate::stats::{median, percentile, sorted, Sheet};
use crate::trace::Tracer;
use sv_core::{compile_checked, CompilationReport, CompileError, CompiledLoop, DriverConfig};
use sv_core::{PassStats, Strategy};
use sv_ir::Loop;
use sv_machine::MachineConfig;

/// Strategies that get their own `driver.*` and `modsched.*` rows.
pub(crate) const REPORTED: [Strategy; 5] = [
    Strategy::ModuloOnly,
    Strategy::Traditional,
    Strategy::Full,
    Strategy::Selective,
    Strategy::Optimal,
];

/// What one compile contributed to the layer counters.
#[derive(Debug, Clone)]
pub(crate) struct CompileRecord {
    /// The requested strategy.
    pub strategy: Strategy,
    /// Wall time of the `compile_checked` call (ns).
    pub ns: u64,
    /// Pass statistics of the delivered attempt.
    pub stats: PassStats,
    /// Whether the driver fell back to another strategy.
    pub fell_back: bool,
    /// Pass-boundary checks run.
    pub boundary_checks: u32,
}

impl CompileRecord {
    /// The record of a successful compile.
    pub fn new(strategy: Strategy, ns: u64, rep: &CompilationReport) -> CompileRecord {
        CompileRecord {
            strategy,
            ns,
            stats: rep.stats.clone(),
            fell_back: !rep.fallbacks.is_empty(),
            boundary_checks: rep.boundary_checks,
        }
    }
}

/// `compile_checked` inside a `driver.compile` span whose pass children
/// (`partition`, `vectorize`, `modsched`, `optimal`) are placed from the
/// returned `PassStats`.
pub(crate) fn traced_compile(
    tr: &mut Tracer,
    request: u64,
    l: &Loop,
    m: &MachineConfig,
    cfg: &DriverConfig,
) -> Result<(CompiledLoop, CompilationReport, CompileRecord), CompileError> {
    let (r, span) = tr.span("driver.compile", request, |_| compile_checked(l, m, cfg));
    let (c, rep) = r?;
    let ns = tr.spans()[span].end - tr.spans()[span].start;
    let s = &rep.stats;
    let mut offset = 0;
    for (name, pass_ns) in [
        ("partition", s.partition_ns),
        ("optimal", s.search_ns),
        ("vectorize", s.transform_ns),
        ("modsched", s.schedule_ns),
    ] {
        if pass_ns > 0 {
            tr.placed(name, span, offset, pass_ns);
            offset += pass_ns;
        }
    }
    let rec = CompileRecord::new(cfg.strategy, ns, &rep);
    Ok((c, rep, rec))
}

/// Sum of the self times (ms) of every span called `name`.
pub(crate) fn self_ms(tr: &Tracer, name: &str) -> f64 {
    tr.self_by_name().get(name).map_or(0.0, |v| v.iter().sum::<u64>() as f64 / 1e6)
}

/// Median self time (µs) of the spans called `name`; 0 when none.
pub(crate) fn median_self_us(tr: &Tracer, name: &str) -> f64 {
    tr.self_by_name()
        .get(name)
        .map_or(0.0, |v| median(&v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>()))
}

/// Fill the `driver`, `partition`, `vectorize`, `modsched` and `optimal`
/// rows from the compiles of one traced replay.
pub(crate) fn compile_layer_metrics(sheet: &mut Sheet, tr: &Tracer, recs: &[CompileRecord]) {
    for s in REPORTED {
        let us =
            sorted(recs.iter().filter(|r| r.strategy == s).map(|r| r.ns as f64 / 1e3).collect());
        let name = s.canonical_name();
        sheet.set(format!("driver.compile_p50_us.{name}"), percentile(&us, 50.0), "us");
        sheet.set(format!("driver.compile_p99_us.{name}"), percentile(&us, 99.0), "us");
    }
    let n = recs.len().max(1) as f64;
    sheet.set("driver.self_ms", self_ms(tr, "driver.compile"), "ms");
    sheet.set(
        "driver.fallback_ratio",
        recs.iter().filter(|r| r.fell_back).count() as f64 / n,
        "ratio",
    );
    sheet.set(
        "driver.boundary_checks",
        recs.iter().map(|r| u64::from(r.boundary_checks)).sum::<u64>() as f64,
        "count",
    );

    let sum = |f: fn(&PassStats) -> u64| recs.iter().map(|r| f(&r.stats)).sum::<u64>();
    let probes = sum(|s| s.kl_probes);
    let partition_ns = sum(|s| s.partition_ns);
    sheet.set("partition.self_ms", self_ms(tr, "partition"), "ms");
    sheet.set("partition.probes", probes as f64, "count");
    sheet.set("partition.moves", sum(|s| s.kl_moves) as f64, "count");
    sheet.set("partition.bin_packs", sum(|s| s.bin_packs) as f64, "count");
    sheet.set(
        "partition.ns_per_probe",
        if probes == 0 { 0.0 } else { partition_ns as f64 / probes as f64 },
        "ns",
    );
    sheet.set("vectorize.self_ms", self_ms(tr, "vectorize"), "ms");

    sheet.set("modsched.self_ms", self_ms(tr, "modsched"), "ms");
    for s in REPORTED {
        let tried: usize =
            recs.iter().filter(|r| r.strategy == s).map(|r| r.stats.iis_tried.len()).sum();
        sheet.set(format!("modsched.iis_tried.{}", s.canonical_name()), tried as f64, "count");
    }
    let tried: usize = recs.iter().map(|r| r.stats.iis_tried.len()).sum();
    let schedules = sum(|s| u64::from(s.schedules));
    sheet.set(
        "modsched.first_ii_ratio",
        if tried == 0 { 0.0 } else { schedules as f64 / tried as f64 },
        "ratio",
    );

    sheet.set("optimal.search_ms", self_ms(tr, "optimal"), "ms");
    sheet.set("optimal.nodes", sum(|s| s.search_nodes) as f64, "count");
    sheet.set("optimal.probe_units", sum(|s| s.search_probe) as f64, "count");
    let max_search = recs.iter().map(|r| r.stats.search_ns).max().unwrap_or(0);
    sheet.set("optimal.max_loop_ms", max_search as f64 / 1e6, "ms");
}

/// Every per-layer row, zero until a workload fills it: a traced run
/// prints the same names on every workload, with 0 where a layer does no
/// work.
pub fn zeroed_layer_sheet() -> Sheet {
    let mut s = Sheet::default();
    for (name, unit) in [
        ("transport.p50_us", "us"),
        ("client.retries", "count"),
        ("client.give_ups", "count"),
        ("proto.parse_us", "us"),
        ("proto.bytes_in", "bytes"),
        ("proto.bytes_out", "bytes"),
        ("batch.wait_p50_us", "us"),
        ("batch.wait_p99_us", "us"),
        ("batch.occupancy", "ratio"),
        ("batch.rejected", "count"),
        ("ir.parse_us", "us"),
        ("machine.resolve_us", "us"),
        ("cache.key_us", "us"),
        ("cache.lookup_us", "us"),
        ("cache.insert_us", "us"),
        ("cache.hit_ratio", "ratio"),
        ("cache.evictions", "count"),
    ] {
        s.set(name, 0.0, unit);
    }
    compile_layer_metrics(&mut s, &Tracer::default(), &[]);
    for (name, unit) in [
        ("render.us", "us"),
        ("render.bytes", "bytes"),
        ("sim.check_ms", "ms"),
        ("sim.at_ii_ratio", "ratio"),
        ("workloads.gen_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("slowest_op_ms", "ms"),
        ("slowest_op_share", "ratio"),
    ] {
        s.set(name, 0.0, unit);
    }
    s
}
