//! Greedy resource bin-packing (paper Figure 2, lines 33–66).
//!
//! A bin is associated with each compiler-visible resource *instance*; an
//! operation reserves one instance of each resource class it requires,
//! choosing the alternative that minimizes the weight of the most heavily
//! used resource, with ties broken by the sum of squared bin weights. The
//! squared-sum tie-break keeps the bins balanced so the partitioner's
//! incremental release/reserve cost probes stay accurate — exactly the
//! optimization the paper describes in §3.2.
//!
//! Both cost readings are maintained as the weights change, so costing a
//! candidate never rescans the bins: the sum of squares exactly, the
//! high-water mark as a bound that is exact until a release lowers a bin
//! sitting at the peak, after which the next read rescans once.

use std::ops::Range;
use sv_machine::{Reservation, ResourceClass, ResourcePool};

/// Resource usage bins over a machine's resource pool.
#[derive(Debug, Clone)]
pub struct Bins {
    pool: ResourcePool,
    weights: Vec<u32>,
    /// Σ weight², kept exact on every weight change.
    sum_squares: u64,
    /// An upper bound on the heaviest bin; exact unless `high_stale`.
    high: u32,
    /// A release lowered a bin that sat at `high`, so the true peak may
    /// be lower.
    high_stale: bool,
    /// Dense-id range of each class's instances, indexed by
    /// `ResourceClass as usize`.
    class_ranges: [Range<usize>; ResourceClass::ALL.len()],
}

/// Bins are equal when their pools and weights are; the cached peak is
/// derived state.
impl PartialEq for Bins {
    fn eq(&self, other: &Bins) -> bool {
        self.pool == other.pool && self.weights == other.weights
    }
}

impl Eq for Bins {}

impl Bins {
    /// Empty bins over `pool`.
    pub fn new(pool: ResourcePool) -> Bins {
        let weights = vec![0; pool.len()];
        let mut class_ranges = ResourceClass::ALL.map(|_| 0..0);
        for c in ResourceClass::ALL {
            class_ranges[c as usize] = pool.alternative_range(c);
        }
        Bins { pool, weights, sum_squares: 0, high: 0, high_stale: false, class_ranges }
    }

    /// Empty every bin, keeping the pool (and the allocation).
    pub fn clear(&mut self) {
        self.weights.fill(0);
        self.sum_squares = 0;
        self.high = 0;
        self.high_stale = false;
    }

    /// The underlying pool.
    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    /// Weight (reserved cycles) of each instance, dense-id indexed.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The weight of the most heavily used resource — the configuration
    /// cost, i.e. the resource-constrained minimum initiation interval.
    pub fn high_water_mark(&self) -> u32 {
        if self.high_stale {
            self.weights.iter().copied().max().unwrap_or(0)
        } else {
            self.high
        }
    }

    /// Sum of squared bin weights; the balance-sensitive secondary cost.
    pub fn sum_squares(&self) -> u64 {
        self.sum_squares
    }

    /// Add `cycles` to bin `id`. A bin reaching the peak bound makes the
    /// bound exact again.
    fn add(&mut self, id: usize, cycles: u32) {
        let w = self.weights[id];
        let w_new = w + cycles;
        self.weights[id] = w_new;
        // w_new² − w² = cycles · (w + w_new)
        self.sum_squares += u64::from(cycles) * u64::from(w + w_new);
        if w_new >= self.high {
            self.high = w_new;
            self.high_stale = false;
        }
    }

    /// Take `cycles` off bin `id`. Lowering a bin at the peak leaves the
    /// bound stale.
    fn sub(&mut self, id: usize, cycles: u32) {
        let w = self.weights[id];
        assert!(w >= cycles, "releasing more cycles than reserved on bin {id}");
        let w_new = w - cycles;
        self.weights[id] = w_new;
        self.sum_squares -= u64::from(cycles) * u64::from(w + w_new);
        self.high_stale |= cycles > 0 && w == self.high;
    }

    /// Reserve one least-used instance of each required class
    /// (RESERVE-LEAST-USED): among a class's alternatives pick the one
    /// that, after adding the reservation, minimizes the high-water mark,
    /// breaking ties by the sum of squares, then by the lower instance id.
    /// Each `(dense instance id, cycles)` reserved is appended to `out`.
    ///
    /// Both criteria only grow with the chosen bin's current weight `w`
    /// (the peak becomes `max(high, w + c)`, the sum of squares grows by
    /// `c·(2w + c)`, strictly for `c > 0`), so the pick is the first
    /// lightest alternative — or the first one outright for a
    /// zero-cycle reservation, where every candidate ties.
    ///
    /// # Panics
    ///
    /// Panics when a required class has no instances in the pool — a
    /// machine/opcode mismatch.
    pub fn reserve_into(&mut self, reqs: &[Reservation], out: &mut Vec<(usize, u32)>) {
        for r in reqs {
            let alts = self.class_ranges[r.class as usize].clone();
            assert!(
                !alts.is_empty(),
                "opcode requires {} but the machine has none",
                r.class
            );
            let mut id = alts.start;
            if r.cycles > 0 {
                // Branch-free scan: which bin is lightest is data, and a
                // branch on it mispredicts across probes.
                let ws = &self.weights[alts];
                let (mut at, mut lightest) = (0, ws[0]);
                for (j, &w) in ws.iter().enumerate().skip(1) {
                    at = if w < lightest { j } else { at };
                    lightest = lightest.min(w);
                }
                id += at;
            }
            self.add(id, r.cycles);
            out.push((id, r.cycles));
        }
    }

    /// Put back reservations exactly as recorded (the undo of a
    /// [`Bins::release`]: same instances, no alternative choice).
    pub fn reapply(&mut self, entries: &[(usize, u32)]) {
        for &(id, cycles) in entries {
            self.add(id, cycles);
        }
    }

    /// Release previously reserved `(dense instance id, cycles)` entries
    /// (the partitioner's RELEASE-RESOURCES).
    ///
    /// # Panics
    ///
    /// Panics when an entry was not actually reserved (weights would go
    /// negative) — a caller bookkeeping bug.
    pub fn release(&mut self, entries: &[(usize, u32)]) {
        for &(id, cycles) in entries {
            self.sub(id, cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_ir::{OpKind, Opcode, ScalarType};
    use sv_machine::{MachineConfig, MachineRegistry, ResourceClass};
    use sv_workloads::SmallRng;

    fn paper_bins() -> (MachineConfig, Bins) {
        let m = MachineConfig::paper_default();
        let b = Bins::new(m.resource_pool());
        (m, b)
    }

    /// Reserve `reqs`, returning the `(instance, cycles)` entries placed.
    fn reserve(b: &mut Bins, reqs: &[Reservation]) -> Vec<(usize, u32)> {
        let mut entries = Vec::new();
        b.reserve_into(reqs, &mut entries);
        entries
    }

    #[test]
    fn empty_bins_cost_zero() {
        let (_, b) = paper_bins();
        assert_eq!(b.high_water_mark(), 0);
        assert_eq!(b.sum_squares(), 0);
    }

    #[test]
    fn spreads_across_alternatives() {
        let (m, mut b) = paper_bins();
        let load = Opcode::scalar(OpKind::Load, ScalarType::F64);
        // Two loads on two mem units: high-water mark stays 1.
        reserve(&mut b, &m.requirements(load));
        reserve(&mut b, &m.requirements(load));
        assert_eq!(b.high_water_mark(), 1);
        // A third must stack.
        reserve(&mut b, &m.requirements(load));
        assert_eq!(b.high_water_mark(), 2);
    }

    #[test]
    fn release_restores_exactly() {
        let (m, mut b) = paper_bins();
        let snapshot = b.clone();
        let fmul = Opcode::scalar(OpKind::Mul, ScalarType::F64);
        let p = reserve(&mut b, &m.requirements(fmul));
        assert_ne!(b, snapshot);
        b.release(&p);
        assert_eq!(b, snapshot);
        assert_eq!(b.high_water_mark(), 0);
        assert_eq!(b.sum_squares(), 0);
    }

    #[test]
    fn divide_reserves_full_latency() {
        let (m, mut b) = paper_bins();
        let fdiv = Opcode::scalar(OpKind::Div, ScalarType::F64);
        let p = reserve(&mut b, &m.requirements(fdiv));
        assert_eq!(b.high_water_mark(), 32);
        assert_eq!(p.iter().map(|&(_, c)| c).sum::<u32>(), 33); // 32 on the FP unit + 1 issue slot
    }

    #[test]
    fn sum_squares_balances_issue_slots() {
        let (m, mut b) = paper_bins();
        let fadd = Opcode::scalar(OpKind::Add, ScalarType::F64);
        // Six fp adds: 2 fp units (3 each), and issue slots should spread
        // 1 each over the 6 slots rather than stacking.
        for _ in 0..6 {
            reserve(&mut b, &m.requirements(fadd));
        }
        let pool = b.pool().clone();
        let issue_weights: Vec<u32> = pool
            .alternatives(ResourceClass::Issue)
            .iter()
            .map(|i| b.weights()[pool.dense_id(*i)])
            .collect();
        assert_eq!(issue_weights, vec![1; 6]);
        assert_eq!(b.high_water_mark(), 3);
    }

    #[test]
    #[should_panic(expected = "the machine has none")]
    fn missing_class_panics() {
        let mut m = MachineConfig::paper_default();
        m.merge_units = 0;
        let mut b = Bins::new(m.resource_pool());
        let merge = Opcode::vector(OpKind::Merge, ScalarType::F64);
        reserve(&mut b, &m.requirements(merge));
    }

    #[test]
    #[should_panic(expected = "releasing more cycles")]
    fn over_release_panics() {
        let (m, mut b) = paper_bins();
        let load = Opcode::scalar(OpKind::Load, ScalarType::F64);
        let p = reserve(&mut b, &m.requirements(load));
        b.release(&p);
        b.release(&p);
    }

    /// The builtin machines plus every spec in `examples/machines`.
    fn registry_machines() -> Vec<MachineConfig> {
        let mut reg = MachineRegistry::builtin();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/machines");
        reg.load_dir(&dir).expect("examples/machines must parse");
        reg.iter().map(|(_, m, _)| m.clone()).collect()
    }

    /// The incremental readings equal a from-scratch recompute.
    fn assert_readings_exact(b: &Bins, ctx: &str) {
        let high = b.weights().iter().copied().max().unwrap_or(0);
        let sq: u64 = b.weights().iter().map(|&w| u64::from(w) * u64::from(w)).sum();
        assert_eq!(b.high_water_mark(), high, "{ctx}: high-water mark");
        assert_eq!(b.sum_squares(), sq, "{ctx}: sum of squares");
    }

    /// The placements RESERVE-LEAST-USED makes, chosen as the paper states
    /// the rule: for each requirement in turn, the alternative minimizing
    /// `(high-water mark, sum of squares)` after the reservation, first
    /// instance on a tie, both recomputed from the weights.
    fn least_used_by_definition(b: &Bins, reqs: &[Reservation]) -> Vec<(usize, u32)> {
        let mut w = b.weights().to_vec();
        let mut out = Vec::new();
        for r in reqs {
            let mut best: Option<((u32, u64), usize)> = None;
            for id in b.pool().alternative_range(r.class) {
                w[id] += r.cycles;
                let key = (
                    w.iter().copied().max().unwrap_or(0),
                    w.iter().map(|&x| u64::from(x) * u64::from(x)).sum::<u64>(),
                );
                w[id] -= r.cycles;
                if best.is_none_or(|(k, _)| key < k) {
                    best = Some((key, id));
                }
            }
            let (_, id) = best.expect("class present");
            w[id] += r.cycles;
            out.push((id, r.cycles));
        }
        out
    }

    /// Seeded reserve / release / probe-and-undo sequences over every
    /// registry machine's pool: every reservation lands where the
    /// `(high, sum of squares)` rule puts it, after every step the
    /// maintained high-water mark and sum of squares equal a rescan, and
    /// undoing a probe (release the trial, re-apply what it released)
    /// restores bit-identical weights.
    #[test]
    fn incremental_costs_and_undo_match_a_rescan() {
        let machines = registry_machines();
        assert!(machines.len() >= 3, "registry has {} machines", machines.len());
        for m in &machines {
            let pool = m.resource_pool();
            let classes: Vec<ResourceClass> =
                ResourceClass::ALL.into_iter().filter(|&c| pool.capacity(c) > 0).collect();
            for seed in 0..16u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut b = Bins::new(pool.clone());
                let mut live: Vec<Vec<(usize, u32)>> = Vec::new();
                let mut trial = Vec::new();
                let random_reqs = |rng: &mut SmallRng| -> Vec<Reservation> {
                    (0..rng.range_u32(1, 3))
                        .map(|_| Reservation {
                            class: classes[rng.index(classes.len())],
                            cycles: if rng.chance(0.1) { 32 } else { rng.range_u32(0, 3) },
                        })
                        .collect()
                };
                let checked_reserve = |b: &mut Bins, reqs: &[Reservation], out: &mut Vec<(usize, u32)>| {
                    let want = least_used_by_definition(b, reqs);
                    let from = out.len();
                    b.reserve_into(reqs, out);
                    assert_eq!(out[from..], want[..], "{}: placement of {reqs:?}", m.name);
                };
                for step in 0..300 {
                    let ctx = format!("{} seed {seed} step {step}", m.name);
                    match rng.index(4) {
                        0 | 1 => {
                            let mut entries = Vec::new();
                            checked_reserve(&mut b, &random_reqs(&mut rng), &mut entries);
                            live.push(entries);
                        }
                        2 if !live.is_empty() => {
                            let p = live.swap_remove(rng.index(live.len()));
                            b.release(&p);
                        }
                        _ if !live.is_empty() => {
                            let before = b.weights().to_vec();
                            let mut released: Vec<usize> =
                                (0..rng.range_u32(1, 3)).map(|_| rng.index(live.len())).collect();
                            released.sort_unstable();
                            released.dedup();
                            for &p in &released {
                                b.release(&live[p]);
                                assert_readings_exact(&b, &ctx);
                            }
                            trial.clear();
                            checked_reserve(&mut b, &random_reqs(&mut rng), &mut trial);
                            assert_readings_exact(&b, &ctx);
                            b.release(&trial);
                            assert_readings_exact(&b, &ctx);
                            for &p in &released {
                                b.reapply(&live[p]);
                            }
                            assert_eq!(b.weights(), &before[..], "{ctx}: undo");
                        }
                        _ => {}
                    }
                    assert_readings_exact(&b, &ctx);
                }
                b.clear();
                assert_readings_exact(&b, "cleared");
                assert!(b.weights().iter().all(|&w| w == 0));
            }
        }
    }
}
