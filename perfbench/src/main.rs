//! `sv-perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//! --svd PATH --out DIR`
//!
//! Runs one workload (or the benchmark's three in turn) and prints, as
//! its last stdout line, one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`: the end-to-end metrics untraced (`--trace 0`)
//! or the per-layer metrics of a traced replay (`--trace 1`, spans
//! written to `DIR/spans-<workload>-<seed>.jsonl`).
//! A failed operation shows as `"correct": false`; a set-up that cannot
//! run exits 1 without a result, bad arguments exit 2.

use std::path::PathBuf;
use std::process::ExitCode;
use sv_core::Strategy;
use sv_perfbench::inputs::SUITE_STRATEGIES;
use sv_perfbench::layers::zeroed_layer_sheet;
use sv_perfbench::stats::Sheet;
use sv_perfbench::{inproc, wire, Outcome, END_TO_END, UNGATED_WORKLOADS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    svd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut svd = None;
    let mut out = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("bad --seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--svd" => svd = Some(PathBuf::from(val()?)),
            "--out" => out = PathBuf::from(val()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let svd = svd.unwrap_or_default();
    Ok(Args { workload, seed, seconds, trace, svd, out })
}

fn run(a: &Args, workload: &str) -> Result<Outcome, String> {
    let svd_dir = a.out.join("svd");
    let wire_shape = match workload {
        "wire_warm" => Some(wire::WARM),
        "wire_mixed" => Some(wire::MIXED),
        "wire_compile" => Some(wire::COMPILE),
        _ => None,
    };
    let outcome = if let Some(shape) = wire_shape {
        std::fs::create_dir_all(&svd_dir).map_err(|e| format!("{}: {e}", svd_dir.display()))?;
        if a.trace {
            wire::traced(&a.svd, &svd_dir, shape, a.seed, a.seconds)?
        } else {
            wire::measure(&a.svd, &svd_dir, shape, a.seed, a.seconds)?
        }
    } else {
        let strategies: &[Strategy] = match workload {
            "compile_suite" => &SUITE_STRATEGIES,
            "oracle_suite" => &[Strategy::Optimal],
            other => {
                return Err(format!(
                    "unknown workload `{other}` (want {}, {} or all)",
                    WORKLOADS.join(", "),
                    UNGATED_WORKLOADS.join(", ")
                ))
            }
        };
        if a.trace {
            inproc::traced(strategies, a.seed)
        } else {
            inproc::measure(strategies, a.seed, a.seconds)
        }
    };
    let expected: Vec<(String, &str)> = if a.trace {
        zeroed_layer_sheet().rows().iter().map(|(n, _, u)| (n.clone(), *u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let got: Vec<(String, &str)> =
        outcome.sheet.rows().iter().map(|(n, _, u)| (n.clone(), *u)).collect();
    if got != expected {
        return Err(format!("metric rows {got:?} differ from {expected:?}"));
    }
    Ok(outcome)
}

/// Print one workload's notes, metric table, span file and result line.
fn report(a: &Args, workload: &str, outcome: &Outcome) -> Result<(), String> {
    let mode = if a.trace { "per-layer (traced replay)" } else { "end-to-end" };
    println!("workload {workload} seed {} — {mode}", a.seed);
    for n in &outcome.notes {
        println!("  {n}");
    }
    print!("{}", outcome.sheet.human());
    if let Some(tr) = &outcome.spans {
        let path = a.out.join(format!("spans-{workload}-{}.jsonl", a.seed));
        std::fs::write(&path, tr.jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans: {} ({} spans)", path.display(), tr.spans().len());
    }
    let correct = outcome.failed == 0;
    println!("{}", outcome.sheet.result_json(correct, outcome.attempted, outcome.failed));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    // `all` ends with one combined line whose metric names carry the
    // workload as a prefix.
    let mut combined = Sheet::default();
    let (mut attempted, mut failed) = (0, 0);
    for w in &workloads {
        let outcome = match run(&args, w).and_then(|o| report(&args, w, &o).map(|()| o)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("sv-perfbench: {w}: {e}");
                return ExitCode::from(1);
            }
        };
        for (n, v, u) in outcome.sheet.rows() {
            combined.set(format!("{w}.{n}"), *v, u);
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    if workloads.len() > 1 {
        println!("{}", combined.result_json(failed == 0, attempted, failed));
    }
    ExitCode::SUCCESS
}
