//! Seeded inputs: the Table-2 loop population, the 385-request wire
//! warm set, never-seen miss loops, and shuffled visit orders.

use sv_core::Strategy;
use sv_ir::Loop;
use sv_machine::MachineConfig;
use sv_serve::CompileRequest;
use sv_workloads::{all_benchmarks, synth_loop, SmallRng, SynthProfile};

/// The strategies `compile_suite` compiles every loop under.
pub const SUITE_STRATEGIES: [Strategy; 4] =
    [Strategy::ModuloOnly, Strategy::Traditional, Strategy::Full, Strategy::Selective];

/// Extra broad synthetic loops in the wire warm set (as `loadgen --synth 8`).
pub(crate) const WARM_SYNTH: u64 = 8;

/// The Table-2 population: every loop of every benchmark suite (377).
pub(crate) fn suite_loops() -> Vec<Loop> {
    all_benchmarks().into_iter().flat_map(|s| s.loops).collect()
}

/// The machine every workload compiles for (`paper`, Table 1).
pub(crate) fn machine() -> MachineConfig {
    MachineConfig::paper_default()
}

/// A request template naming the registered `paper` machine, or carrying
/// it inline as canonical spec text (the way `svc --server` sends it).
pub(crate) fn template(inline_spec: bool) -> CompileRequest {
    CompileRequest {
        machine_spec: inline_spec.then(|| machine().to_spec()),
        ..CompileRequest::default()
    }
}

/// The wire warm set: every suite loop plus [`WARM_SYNTH`] broad synthetic
/// loops — the `loadgen` distinct set (385 requests).
pub(crate) fn warm_set(inline_spec: bool) -> Vec<CompileRequest> {
    let t = template(inline_spec);
    let profile = SynthProfile::broad();
    suite_loops()
        .into_iter()
        .chain((0..WARM_SYNTH).map(|s| synth_loop(&format!("loadgen.synth.{s}"), &profile, s)))
        .map(|l| CompileRequest { loop_text: l.to_string(), ..t.clone() })
        .collect()
}

/// The `n`th never-seen miss of `stream` under `seed`, compiled under
/// `strategy`: a broad synthetic loop whose name is unique to the triple,
/// so its cache key is too.
pub(crate) fn miss_request(
    seed: u64,
    stream: u64,
    n: u64,
    inline_spec: bool,
    strategy: Strategy,
) -> CompileRequest {
    let name = format!("perfbench.miss.{seed}.{stream}.{n}");
    let mix =
        SmallRng::seed_from_u64(seed ^ (stream << 48) ^ n.wrapping_mul(0x9e37_79b9)).next_u64();
    let l = synth_loop(&name, &SynthProfile::broad(), mix);
    CompileRequest { loop_text: l.to_string(), strategy, ..template(inline_spec) }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub(crate) fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

/// The visit order of one in-process pass: every (loop, strategy) pair,
/// shuffled by `(seed, pass)`.
pub(crate) fn pass_order(
    loops: usize,
    strategies: &[Strategy],
    seed: u64,
    pass: u64,
) -> Vec<(usize, Strategy)> {
    let jobs: Vec<(usize, Strategy)> =
        (0..loops).flat_map(|l| strategies.iter().map(move |&s| (l, s))).collect();
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ pass);
    shuffled(jobs.len(), &mut rng).into_iter().map(|i| jobs[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_sizes_match_the_paper_and_loadgen() {
        assert_eq!(suite_loops().len(), 377);
        assert_eq!(warm_set(false).len(), 385);
    }

    #[test]
    fn orders_are_seeded_permutations() {
        let a = pass_order(5, &SUITE_STRATEGIES, 3, 0);
        assert_eq!(a, pass_order(5, &SUITE_STRATEGIES, 3, 0));
        assert_ne!(a, pass_order(5, &SUITE_STRATEGIES, 4, 0));
        let mut sorted = a.clone();
        sorted.sort_by_key(|&(l, s)| (l, s.canonical_name()));
        assert_eq!(sorted.len(), 20);
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn misses_are_distinct_and_reproducible() {
        let sel = Strategy::Selective;
        let a = miss_request(1, 0, 0, true, sel);
        assert_eq!(a, miss_request(1, 0, 0, true, sel));
        assert_ne!(a.loop_text, miss_request(1, 0, 1, true, sel).loop_text);
        assert_ne!(a.loop_text, miss_request(1, 1, 0, true, sel).loop_text);
        assert!(a.machine_spec.is_some());
    }
}
