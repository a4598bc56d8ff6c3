//! End-to-end and per-layer benchmark of the selvec compiler and its
//! `svd` compilation daemon.
//!
//! Three workloads make the benchmark (`BENCHMARK.json`), all driven from
//! one process with at most two threads or connections:
//!
//! * `wire_warm` — one closed-loop connection to a spawned `svd --tcp`,
//!   every request a cache hit on the 385-request warm set;
//! * `wire_mixed` — two closed-loop connections, about 10% never-seen
//!   misses that compile under `selective`, machine sent inline;
//! * `wire_compile` — one closed-loop connection, every request a
//!   never-seen miss, the strategy cycling through modulo, traditional,
//!   full, selective and optimal.
//!
//! Two more run by hand only, because their times follow the host's
//! speed too closely for a bound (see `README.md`):
//!
//! * `compile_suite` — `compile_checked` over the 377-loop Table-2
//!   population × {modulo, traditional, full, selective}, one thread;
//! * `oracle_suite` — the `optimal` strategy over the same loops.
//!
//! An untraced run prints the end-to-end metrics; a traced run replays
//! the same seeded inputs through each layer's public entry point inside
//! spans and prints the per-layer metrics. See `README.md` beside this
//! crate for the metric list and which end-to-end metric each layer
//! metric should move.

pub mod inproc;
pub mod inputs;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod wire;

use stats::Sheet;
use trace::Tracer;

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["wire_warm", "wire_mixed", "wire_compile"];

/// Workloads the binary runs by name that are not part of the benchmark.
pub const UNGATED_WORKLOADS: [&str; 2] = ["compile_suite", "oracle_suite"];

/// The end-to-end rows every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("code_mcycles", "Mcycles"),
    ("decided_share", "ratio"),
];

/// What one benchmark run measured.
pub struct Outcome {
    /// The metrics to print.
    pub sheet: Sheet,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: typed errors, give-ups, wrong bytes,
    /// failed executed checks.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub spans: Option<Tracer>,
}

/// A `VmHWM`-style field of a `/proc/<pid>/status` file, in MB.
pub(crate) fn status_mb(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MB (0 where unavailable).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_mb(&s, "VmHWM:"))
        .unwrap_or(0.0)
}
