//! Determinism guard: the benchmark's exact counters repeat bit for bit
//! across runs (with different seeds, which only reorder a pass) and
//! equal the values recorded when the benchmark was defined. A change to
//! one of these numbers is a change to what the compiler does, not noise.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml` (the test profile is
//! optimized; the oracle pass takes several seconds).

use sv_core::Strategy;
use sv_perfbench::inproc::exact_counters;
use sv_perfbench::inputs::SUITE_STRATEGIES;

fn counter(rows: &[(String, f64)], name: &str) -> f64 {
    rows.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no counter {name}")).1
}

#[test]
fn compile_suite_counters_repeat_and_match_recorded_values() {
    let (a, totals_a) = exact_counters(&SUITE_STRATEGIES, 1);
    let (b, totals_b) = exact_counters(&SUITE_STRATEGIES, 2);
    assert_eq!(a, b, "exact counters differ between two runs");
    assert_eq!(totals_a, totals_b, "delivered code differs between two runs");

    assert_eq!(counter(&a, "partition.probes"), 111_346.0);
    assert_eq!(counter(&a, "modsched.iis_tried.modulo"), 756.0);
    assert_eq!(counter(&a, "modsched.iis_tried.traditional"), 1190.0);
    assert_eq!(counter(&a, "modsched.iis_tried.full"), 763.0);
    assert_eq!(counter(&a, "modsched.iis_tried.selective"), 756.0);
    assert_eq!(counter(&a, "driver.fallback_ratio"), 0.0);
    assert_eq!(totals_a.cycles_of(Strategy::Selective), 791_407_521);
    assert_eq!(totals_a.clean, 1508);
}

#[test]
fn oracle_suite_counters_repeat_and_match_recorded_values() {
    let (a, totals_a) = exact_counters(&[Strategy::Optimal], 1);
    let (b, totals_b) = exact_counters(&[Strategy::Optimal], 7);
    assert_eq!(a, b, "exact counters differ between two runs");
    assert_eq!(totals_a, totals_b, "delivered code differs between two runs");

    assert_eq!(counter(&a, "optimal.nodes"), 431_187.0);
    assert_eq!(totals_a.clean, 377, "optimal decides every loop without fallback");
    assert!(
        totals_a.cycles_of(Strategy::Optimal) <= 791_407_521,
        "optimal never loses to selective"
    );
}
