//! Empirical auto-tuning over the mapping space.
//!
//! Section IV-B: "our mapping parameters can be used by other compiler or
//! auto-tuners to explore the mapping space", and the Figure 17 discussion
//! notes the static score has false negatives that only measurement can
//! recover. This module provides that exploration: enumerate the
//! hard-valid candidates, optionally pre-filter by static score ([`plan`]),
//! measure them with a caller-provided cost function, and return the
//! empirically best mapping — serially with lower-bound pruning ([`tune`]),
//! or by folding costs measured anywhere, in any order ([`select`]).

use crate::constraint::Weights;
use crate::params::MappingDecision;
use crate::search::{enumerate_scored, ScoredMapping};
use multidim_device::GpuSpec;
use multidim_ir::{Bindings, Program};

/// Tuning configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneOptions {
    /// Only measure candidates whose normalized score is at least this
    /// fraction of the best score (1.0 = only ties with the static
    /// winner; 0.0 = measure everything). Score-guided pruning trades
    /// tuning time against Figure 17's region-C false negatives.
    pub score_floor: f64,
}

/// One measured candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The candidate and its static score.
    pub candidate: ScoredMapping,
    /// Measured cost (seconds, or any monotone figure of merit).
    pub cost: f64,
    /// Position of the candidate in the [`TunePlan`] (score order). Cost
    /// ties are broken on this index, so selection is deterministic no
    /// matter in which order (or on which threads) measurements finished.
    pub index: usize,
}

/// The tuning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Empirically best mapping.
    pub best: MappingDecision,
    /// Its measured cost.
    pub best_cost: f64,
    /// All measurements, sorted by cost ascending.
    pub measured: Vec<Measured>,
    /// Candidates skipped by the cost function (not executable).
    pub skipped: usize,
    /// Candidates discarded *without measurement* because a sound static
    /// lower bound already exceeded the best measured cost (only [`tune`]
    /// sets this; [`select`] reports 0).
    pub pruned: usize,
}

/// The prepared measurement list for one tuning run: hard-valid candidates
/// that survived the score floor, sorted by static score descending.
///
/// Constraint collection and candidate enumeration happen once, in
/// [`plan`]; the measurements themselves are embarrassingly parallel and
/// may run on any thread in any order — [`select`] is order-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePlan {
    /// Candidates to measure, best static score first.
    pub candidates: Vec<ScoredMapping>,
}

/// Enumerate and pre-filter the candidates to measure (the serial phase of
/// tuning). Applies `options.score_floor`; every surviving candidate is
/// measured (or pruned) by [`tune`], or measured by a parallel driver and
/// folded with [`select`].
pub fn plan(
    program: &Program,
    bindings: &Bindings,
    gpu: &GpuSpec,
    weights: &Weights,
    options: &TuneOptions,
) -> TunePlan {
    let mut candidates = enumerate_scored(program, bindings, gpu, weights);
    candidates.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let best_score = candidates
        .first()
        .map(|c| c.normalized_score)
        .unwrap_or(0.0);
    candidates.retain(|c| c.normalized_score >= options.score_floor * best_score);
    TunePlan { candidates }
}

/// Fold measurements back into a [`TuneResult`]. `costs[i]` is the
/// measured cost of `plan.candidates[i]` (`None` = not executable, or not
/// attempted). Ties on cost are broken by candidate index, so the outcome
/// does not depend on measurement order: serial and parallel drivers pick
/// the identical mapping.
///
/// Returns `None` when no candidate was measured.
pub fn select(plan: &TunePlan, costs: &[Option<f64>]) -> Option<TuneResult> {
    let mut measured = Vec::new();
    let mut skipped = 0usize;
    for (index, (cand, cost)) in plan.candidates.iter().zip(costs).enumerate() {
        match cost {
            Some(cost) => measured.push(Measured {
                candidate: cand.clone(),
                cost: *cost,
                index,
            }),
            None => skipped += 1,
        }
    }
    measured.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    let best = measured.first()?;
    Some(TuneResult {
        best: best.candidate.mapping.clone(),
        best_cost: best.cost,
        measured,
        skipped,
        pruned: 0,
    })
}

/// The serial tuning driver: measure `plan`'s candidates in score order,
/// with a **sound lower-bound pruning hook**. Before measuring a candidate,
/// `bound` may return a proven lower bound on its cost (e.g. the locality
/// analysis's roofline memory floor); a candidate whose bound *strictly
/// exceeds* the best measured cost so far is discarded without
/// measurement. `measure` returns the cost of one candidate, or `None`
/// when it cannot be compiled/executed. Pass `|_| None` as `bound` to
/// measure every candidate.
///
/// # Selection is bit-identical to exhaustive measurement
///
/// The best cost only decreases over the run, so a pruned candidate's true
/// cost satisfies `cost ≥ bound > best_so_far ≥ best_final` — it can never
/// win or even tie the final selection ([`select`] breaks cost ties on
/// candidate index, and the inequality is strict). The winner and its cost
/// therefore equal [`select`] over every candidate's measured cost.
///
/// Returns `None` when no candidate was measured.
pub fn tune(
    plan: &TunePlan,
    mut bound: impl FnMut(&ScoredMapping) -> Option<f64>,
    mut measure: impl FnMut(&ScoredMapping) -> Option<f64>,
) -> Option<TuneResult> {
    let mut costs: Vec<Option<f64>> = Vec::with_capacity(plan.candidates.len());
    let mut pruned = 0usize;
    let mut best_so_far = f64::INFINITY;
    for cand in &plan.candidates {
        if bound(cand).is_some_and(|lb| lb > best_so_far) {
            pruned += 1;
            costs.push(None);
            continue;
        }
        let cost = measure(cand);
        if let Some(c) = cost {
            if c < best_so_far {
                best_so_far = c;
            }
        }
        costs.push(cost);
    }
    let mut result = select(plan, &costs)?;
    // `select` counted pruned candidates as skipped (they have no cost);
    // reclassify them.
    result.skipped -= pruned;
    result.pruned = pruned;
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Span;
    use multidim_ir::{ProgramBuilder, ReduceOp, ScalarKind, Size};

    fn program() -> (Program, Bindings) {
        let mut b = ProgramBuilder::new("t");
        let r = b.sym("R");
        let c = b.sym("C");
        let m = b.input("m", ScalarKind::F32, &[Size::sym(r), Size::sym(c)]);
        let root = b.map(Size::sym(r), |b, row| {
            b.reduce(Size::sym(c), ReduceOp::Add, |b, col| {
                b.read(m, &[row.into(), col.into()])
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(r, 512);
        bind.bind(c, 512);
        (p, bind)
    }

    fn plan_with(options: &TuneOptions) -> TunePlan {
        let (p, bind) = program();
        plan(
            &p,
            &bind,
            &GpuSpec::tesla_k20c(),
            &Weights::default(),
            options,
        )
    }

    /// Position of `cand` in `plan` (the driver hands out references into
    /// `plan.candidates`).
    fn index_of(plan: &TunePlan, cand: &ScoredMapping) -> usize {
        plan.candidates
            .iter()
            .position(|c| std::ptr::eq(c, cand))
            .expect("candidate comes from the plan")
    }

    #[test]
    fn finds_the_synthetic_optimum() {
        // Synthetic cost: block_threads distance from 128 — the tuner must
        // find a 128-thread candidate.
        let plan = plan_with(&TuneOptions::default());
        let r = tune(
            &plan,
            |_| None,
            |c| Some((c.mapping.block_threads() as f64 - 128.0).abs()),
        )
        .unwrap();
        assert_eq!(r.best.block_threads(), 128);
        assert_eq!(r.best_cost, 0.0);
        assert!(r.measured.len() > 10);
    }

    #[test]
    fn score_floor_prunes() {
        let full = tune(&plan_with(&TuneOptions::default()), |_| None, |_| Some(1.0)).unwrap();
        let pruned = tune(
            &plan_with(&TuneOptions { score_floor: 0.9 }),
            |_| None,
            |_| Some(1.0),
        )
        .unwrap();
        assert!(pruned.measured.len() < full.measured.len());
    }

    #[test]
    fn unmeasurable_candidates_are_skipped() {
        let plan = plan_with(&TuneOptions::default());
        let r = tune(
            &plan,
            |_| None,
            |c| {
                // Pretend splits are not executable.
                let m = &c.mapping;
                if m.levels().iter().any(|l| matches!(l.span, Span::Split(_))) {
                    None
                } else {
                    Some(m.block_threads() as f64)
                }
            },
        )
        .unwrap();
        assert!(!r.measured.is_empty());
        assert_eq!(r.measured.len() + r.skipped, plan.candidates.len());
    }

    #[test]
    fn selection_is_order_independent() {
        // Measure the same candidates through `select` with costs that tie
        // everywhere: the winner must be the lowest-index candidate, the
        // same one the serial `tune` loop picks — no matter which thread
        // or order produced the measurements.
        let plan = plan_with(&TuneOptions::default());
        let cost_of = |c: &ScoredMapping| Some((c.mapping.block_threads() % 7) as f64);
        let serial = tune(&plan, |_| None, cost_of).unwrap();
        // "Parallel" measurement: compute all costs, in reverse order.
        let mut costs = vec![None; plan.candidates.len()];
        for i in (0..plan.candidates.len()).rev() {
            costs[i] = cost_of(&plan.candidates[i]);
        }
        let parallel = select(&plan, &costs).unwrap();
        assert_eq!(parallel.best, serial.best);
        assert_eq!(parallel.best_cost, serial.best_cost);
        assert_eq!(parallel.measured.len(), serial.measured.len());
    }

    #[test]
    fn bound_pruning_is_strict_and_selection_matches_select() {
        // Synthetic costs and bounds by plan index. Index 1 sets the best
        // cost (3.0); index 2 ties it and carries a bound *equal* to it, so
        // it must be measured, and the tie must go to index 1.
        let plan = plan_with(&TuneOptions::default());
        let n = plan.candidates.len();
        assert!(n > 8, "fixture plan too small: {n}");
        let cost = |i: usize| match i {
            0 => Some(5.0),
            1 | 2 => Some(3.0),
            3 => None,
            _ => Some(4.0),
        };
        let bound = |i: usize| match i {
            // Nothing measured yet: even a huge bound cannot prune.
            0 => Some(100.0),
            2 => Some(3.0),
            4 => Some(3.5),
            5 => Some(10.0),
            // Below the best so far: measured.
            6 => Some(0.25),
            _ => None,
        };
        let mut measured_at = Vec::new();
        let r = tune(
            &plan,
            |c| bound(index_of(&plan, c)),
            |c| {
                let i = index_of(&plan, c);
                measured_at.push(i);
                cost(i)
            },
        )
        .unwrap();
        let expected: Vec<usize> = (0..n).filter(|i| ![4, 5].contains(i)).collect();
        assert_eq!(
            measured_at, expected,
            "bound == best so far must be measured"
        );
        assert_eq!((r.pruned, r.skipped), (2, 1));
        assert_eq!(r.measured.len() + r.pruned + r.skipped, n);
        assert_eq!(r.best_cost, 3.0);
        assert_eq!((r.measured[0].index, r.measured[1].index), (1, 2));
        assert_eq!(r.best, plan.candidates[1].mapping);

        // The exhaustive reference (every candidate measured, folded by
        // `select`) picks the bit-identical winner.
        let costs: Vec<Option<f64>> = (0..n).map(cost).collect();
        let full = select(&plan, &costs).unwrap();
        assert_eq!(full.best, r.best);
        assert_eq!(full.best_cost, r.best_cost);
        assert_eq!(full.pruned, 0);
    }

    #[test]
    fn none_when_nothing_measurable() {
        let plan = plan_with(&TuneOptions::default());
        assert!(tune(&plan, |_| None, |_| None).is_none());
        // An empty plan yields no result either.
        assert!(tune(&TunePlan { candidates: vec![] }, |_| None, |_| Some(1.0)).is_none());
    }
}
