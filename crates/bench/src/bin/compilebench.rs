//! Compile-time benchmark: where a cold compile spends its time, per
//! strategy and per pass, over the Table-2 population (every loop of
//! every benchmark suite, 377 loops, on the `paper` machine).
//!
//! Each run compiles every loop once under each strategy through
//! `compile_checked` and sums the driver's [`sv_core::PassStats`] pass
//! times (partition, transform, schedule, search, total). Time rows are
//! medians over [`RUNS`] runs (`optimal` runs once: its search alone takes
//! seconds) and are reported, never gated: CPU-bound wall time drifts with
//! the host. The exact counters — KL probes, moves, passes and bin-packs,
//! IIs tried, oracle nodes and probe units, fallbacks — are the same on
//! every run and every host; `--check` gates those, bit for bit.
//!
//! ```text
//! cargo run --release -p sv-bench --bin compilebench                 # writes BENCH_compile.json
//! cargo run --release -p sv-bench --bin compilebench -- --out b.json
//! cargo run --release -p sv-bench --bin compilebench -- --check BENCH_compile.json
//! ```

use std::process::ExitCode;
use sv_core::{compile_checked, DriverConfig, PassStats, Strategy};
use sv_ir::Loop;
use sv_machine::MachineConfig;
use sv_workloads::all_benchmarks;

/// Runs per strategy whose times are summarized.
const RUNS: usize = 5;

/// The strategies measured, in output order.
const STRATEGIES: [Strategy; 5] = [
    Strategy::ModuloOnly,
    Strategy::Traditional,
    Strategy::Full,
    Strategy::Selective,
    Strategy::Optimal,
];

/// A named reading of one compile's [`PassStats`].
type Field = (&'static str, fn(&PassStats) -> u64);

/// The passes timed, with the field each reads.
const PASSES: [Field; 5] = [
    ("partition", |s| s.partition_ns),
    ("transform", |s| s.transform_ns),
    ("schedule", |s| s.schedule_ns),
    ("search", |s| s.search_ns),
    ("total", |s| s.total_ns),
];

/// The exact counters, summed over the population, with the field each
/// reads (`fallbacks` is counted separately).
const COUNTERS: [Field; 7] = [
    ("kl_probes", |s| s.kl_probes),
    ("kl_moves", |s| s.kl_moves),
    ("kl_passes", |s| u64::from(s.kl_passes)),
    ("bin_packs", |s| s.bin_packs),
    ("iis_tried", |s| s.iis_tried.len() as u64),
    ("search_nodes", |s| s.search_nodes),
    ("search_probe", |s| s.search_probe),
];

/// One strategy's compiles of the whole population, for one run.
struct Run {
    /// Per-loop pass stats, population order.
    stats: Vec<PassStats>,
    /// Compiles that fell back to another strategy.
    fallbacks: u64,
}

fn compile_population(loops: &[Loop], m: &MachineConfig, strategy: Strategy) -> Result<Run, String> {
    let cfg = DriverConfig::for_strategy(strategy);
    let mut stats = Vec::with_capacity(loops.len());
    let mut fallbacks = 0;
    for l in loops {
        let (_, report) = compile_checked(l, m, &cfg)
            .map_err(|e| format!("{} [{strategy}] failed to compile: {e}", l.name))?;
        fallbacks += u64::from(!report.clean());
        stats.push(report.stats);
    }
    Ok(Run { stats, fallbacks })
}

/// Median of a non-empty sample set.
fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample set");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a non-empty sample set.
fn percentile(mut xs: Vec<f64>, p: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// A time row: one pass of one strategy.
struct TimeRow {
    strategy: Strategy,
    pass: &'static str,
    /// Median over runs of the pass time summed over the population.
    total_ms: f64,
    /// Per-loop time (each loop's median over runs): median and p95.
    loop_p50_ns: f64,
    loop_p95_ns: f64,
}

fn time_rows(strategy: Strategy, runs: &[Run]) -> Vec<TimeRow> {
    PASSES
        .iter()
        .map(|&(pass, read)| {
            let totals = runs
                .iter()
                .map(|r| r.stats.iter().map(|s| read(s) as f64).sum::<f64>() / 1e6)
                .collect();
            let per_loop: Vec<f64> = (0..runs[0].stats.len())
                .map(|i| median(runs.iter().map(|r| read(&r.stats[i]) as f64).collect()))
                .collect();
            TimeRow {
                strategy,
                pass,
                total_ms: median(totals),
                loop_p50_ns: median(per_loop.clone()),
                loop_p95_ns: percentile(per_loop, 95.0),
            }
        })
        .collect()
}

/// The exact counters of one run, named `strategy.counter`.
fn counter_rows(strategy: Strategy, run: &Run) -> Vec<(String, u64)> {
    let name = strategy.canonical_name();
    let mut rows: Vec<(String, u64)> = COUNTERS
        .iter()
        .map(|&(c, read)| (format!("{name}.{c}"), run.stats.iter().map(read).sum()))
        .collect();
    rows.push((format!("{name}.fallbacks"), run.fallbacks));
    rows
}

/// Render `BENCH_compile.json`: one row per line (greppable, and what
/// `--check` reads back), then the selective partition/schedule split.
fn render(loops: usize, times: &[TimeRow], counters: &[(String, u64)]) -> String {
    let mut s = format!(
        "{{\"schema\":\"sv-compilebench/v1\",\"machine\":\"paper\",\"loops\":{loops},\
         \"runs\":{RUNS},\"times\":[\n"
    );
    for (i, r) in times.iter().enumerate() {
        let sep = if i + 1 == times.len() { "" } else { "," };
        s.push_str(&format!(
            "{{\"strategy\":\"{}\",\"pass\":\"{}\",\"total_ms\":{:.3},\"loop_p50_ns\":{:.0},\
             \"loop_p95_ns\":{:.0}}}{sep}\n",
            r.strategy.canonical_name(),
            r.pass,
            r.total_ms,
            r.loop_p50_ns,
            r.loop_p95_ns
        ));
    }
    s.push_str("],\"counters\":[\n");
    for (i, (name, value)) in counters.iter().enumerate() {
        let sep = if i + 1 == counters.len() { "" } else { "," };
        s.push_str(&format!("{{\"counter\":\"{name}\",\"value\":{value}}}{sep}\n"));
    }
    let ms = |pass: &str| {
        times
            .iter()
            .find(|r| r.strategy == Strategy::Selective && r.pass == pass)
            .map_or(0.0, |r| r.total_ms)
    };
    s.push_str(&format!(
        "],\"summary\":{{\"selective_partition_ms\":{:.3},\"selective_schedule_ms\":{:.3},\
         \"partition_over_schedule\":{:.2}}}}}\n",
        ms("partition"),
        ms("schedule"),
        ms("partition") / ms("schedule")
    ));
    s
}

/// Pull the `(counter, value)` rows out of a file this binary wrote.
fn parse_counters(text: &str) -> Result<Vec<(String, u64)>, String> {
    if !text.contains("\"schema\":\"sv-compilebench/v1\"") {
        return Err("not a sv-compilebench/v1 file".into());
    }
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("{\"counter\":\"") else { continue };
        let (name, rest) = rest.split_once("\",\"value\":").ok_or("malformed counter row")?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let value = digits.parse().map_err(|e| format!("bad value for {name}: {e}"))?;
        rows.push((name.to_string(), value));
    }
    if rows.is_empty() {
        return Err("no counter rows found".into());
    }
    Ok(rows)
}

/// Every baseline counter must be present in the fresh run with the same
/// value, and the fresh run may add none.
fn check(fresh: &[(String, u64)], baseline: &[(String, u64)]) -> Result<(), String> {
    let mut errors = Vec::new();
    for (name, want) in baseline {
        match fresh.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => errors.push(format!("{name}: baseline {want}, fresh {got}")),
            None => errors.push(format!("{name}: missing from the fresh run")),
        }
    }
    for (name, _) in fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            errors.push(format!("{name}: not in the baseline"));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

struct Opts {
    out: String,
    check_baseline: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts { out: "BENCH_compile.json".into(), check_baseline: None };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => opts.out = args.next().ok_or("--out needs a path")?,
            "--check" => {
                opts.check_baseline = Some(args.next().ok_or("--check needs a baseline path")?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("compilebench: {e}");
            eprintln!("usage: compilebench [--out PATH] [--check BASELINE]");
            return ExitCode::from(2);
        }
    };
    // Read the baseline before the measurement so a bad path fails fast.
    let baseline = match &opts.check_baseline {
        None => None,
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match parse_counters(&text) {
                Ok(rows) => Some(rows),
                Err(e) => {
                    eprintln!("compilebench: bad baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("compilebench: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let loops: Vec<Loop> = all_benchmarks().into_iter().flat_map(|s| s.loops).collect();
    let m = MachineConfig::paper_default();
    let mut times = Vec::new();
    let mut counters = Vec::new();
    for strategy in STRATEGIES {
        let runs = if strategy == Strategy::Optimal { 1 } else { RUNS };
        let mut done = Vec::with_capacity(runs);
        for _ in 0..runs {
            match compile_population(&loops, &m, strategy) {
                Ok(run) => done.push(run),
                Err(e) => {
                    eprintln!("compilebench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let rows = counter_rows(strategy, &done[0]);
        if let Some(r) = done.iter().find(|r| counter_rows(strategy, r) != rows) {
            eprintln!(
                "compilebench: [{strategy}] counters differ between runs: {:?} vs {rows:?}",
                counter_rows(strategy, r)
            );
            return ExitCode::FAILURE;
        }
        times.extend(time_rows(strategy, &done));
        counters.extend(rows);
    }

    let text = render(loops.len(), &times, &counters);
    if let Err(e) = std::fs::write(&opts.out, &text) {
        eprintln!("compilebench: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    for r in times.iter().filter(|r| r.pass != "search" || r.strategy == Strategy::Optimal) {
        println!(
            "compilebench: {:<11} {:<9} {:>9.3} ms  (per loop p50 {:.0} ns, p95 {:.0} ns)",
            r.strategy.canonical_name(),
            r.pass,
            r.total_ms,
            r.loop_p50_ns,
            r.loop_p95_ns
        );
    }
    let Some(baseline) = baseline else {
        println!("compilebench: wrote {}", opts.out);
        return ExitCode::SUCCESS;
    };
    match check(&counters, &baseline) {
        Ok(()) => {
            println!("compilebench: all {} exact counters match the baseline", counters.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compilebench: COUNTER MISMATCH: {e}");
            ExitCode::FAILURE
        }
    }
}
