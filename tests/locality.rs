//! Locality-analysis validation: the static coalescing / bank-conflict /
//! transaction proofs must agree with what the simulator actually measures,
//! and the proof-driven search pruning must never change the selected
//! mapping.

use multidim::prelude::*;
use multidim::{locality_cross_check, AccessClass};
use multidim_codegen::CodegenOptions;
use multidim_ir::ArrayId;
use multidim_mapping::{Dim, LevelMapping, MappingDecision, Span, TuneOptions, TuneResult};
use multidim_workloads::catalog::catalog;
use std::collections::HashMap;

/// Property over the whole catalog: every Proven coalescing verdict and
/// every proven bank-conflict bound must be consistent with the simulator's
/// measured memory counters — zero disagreements allowed.
#[test]
fn catalog_locality_agrees_with_simulator() {
    for e in catalog() {
        let exe = Compiler::new()
            .compile(&e.program, &e.bindings)
            .unwrap_or_else(|err| panic!("{}: compile failed: {err}", e.name()));
        let summary = exe
            .locality
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no locality summary", e.name()));
        let sim = multidim_sim::run_program(&exe.kernels, exe.device(), &e.bindings, &e.inputs)
            .unwrap_or_else(|err| panic!("{}: simulation failed: {err:?}", e.name()));
        let disagreements = locality_cross_check(summary, &sim);
        assert!(
            disagreements.is_empty(),
            "{}: static locality proofs disagree with the simulator:\n  {}",
            e.name(),
            disagreements.join("\n  ")
        );
    }
}

/// The exhaustive tuning reference: measure every planned candidate, then
/// fold the costs with `select`.
fn exhaustive_tune(
    compiler: &Compiler,
    program: &Program,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
    opts: &TuneOptions,
) -> Option<TuneResult> {
    let prepared = compiler.prepare_tune(program, bindings, opts).ok()?;
    let costs: Vec<Option<f64>> = prepared
        .plan
        .candidates
        .iter()
        .map(|c| compiler.measure_candidate(&prepared, bindings, inputs, &c.mapping))
        .collect();
    multidim_mapping::select(&prepared.plan, &costs)
}

/// The pruned search must select a bit-identical mapping (and cost) to the
/// exhaustive one on every catalog workload, while actually pruning on a
/// meaningful fraction of them.
#[test]
fn pruned_search_is_bit_identical_and_prunes() {
    let compiler = Compiler::new().checks(false);
    let opts = TuneOptions::default();
    let mut workloads_with_pruning = 0usize;
    for e in catalog() {
        let (_, fast) = compiler
            .autotune(&e.program, &e.bindings, &e.inputs, &opts)
            .unwrap_or_else(|err| panic!("{}: pruned autotune failed: {err}", e.name()));
        let full = exhaustive_tune(&compiler, &e.program, &e.bindings, &e.inputs, &opts)
            .unwrap_or_else(|| panic!("{}: exhaustive tune measured nothing", e.name()));
        assert_eq!(
            fast.best,
            full.best,
            "{}: pruning changed the selected mapping",
            e.name()
        );
        assert!(
            fast.best_cost == full.best_cost,
            "{}: pruning changed the winning cost: {} vs {}",
            e.name(),
            fast.best_cost,
            full.best_cost
        );
        assert!(
            fast.measured.len() + fast.pruned + fast.skipped == full.measured.len() + full.skipped,
            "{}: pruning changed the evaluated-candidate count",
            e.name()
        );
        assert_eq!(
            full.pruned,
            0,
            "{}: unpruned search reported pruning",
            e.name()
        );
        if fast.pruned > 0 {
            workloads_with_pruning += 1;
        }
    }
    assert!(
        workloads_with_pruning >= 5,
        "pruning fired on only {workloads_with_pruning} workload(s); expected >= 5"
    );
}

/// A one-level map over `n` elements reading `a[stride * i]`, every level
/// mapped to `x` with `block`-wide blocks.
fn strided_fixture(
    stride: i64,
    n: i64,
    block: u32,
) -> (
    Program,
    Bindings,
    MappingDecision,
    HashMap<ArrayId, Vec<f64>>,
) {
    let mut b = ProgramBuilder::new("strided");
    let ns = b.sym("N");
    let a = b.input("a", ScalarKind::F32, &[Size::sym(ns) * Size::from(stride)]);
    let root = b.map(Size::sym(ns), |b, i| {
        b.read(a, &[Expr::var(i) * Expr::int(stride)])
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(ns, n);
    let mapping = MappingDecision::new(vec![LevelMapping {
        dim: Dim::X,
        block_size: block,
        span: Span::ONE,
    }]);
    let inputs = HashMap::from([(a, vec![1.0; (n * stride) as usize])]);
    (p, bind, mapping, inputs)
}

/// Total measured global-memory transactions of one simulated run.
fn measured_tx(exe: &Executable, bind: &Bindings, inputs: &HashMap<ArrayId, Vec<f64>>) -> u64 {
    let sim = multidim_sim::run_program(&exe.kernels, exe.device(), bind, inputs).unwrap();
    sim.costs.iter().map(|c| c.transactions).sum()
}

/// `a[2i]` under an all-x mapping: provably strided(2), and the proven
/// transaction floor is *exact* — it equals what the simulator measures
/// (64 load transactions: each 32-lane warp spans two aligned 128-byte
/// segments; plus 32 coalesced store transactions).
#[test]
fn strided_2_fixture_exact() {
    let (p, bind, mapping, inputs) = strided_fixture(2, 1024, 128);
    let exe = Compiler::new()
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|a| a.array == "a" && !a.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Strided(2));
    assert_eq!(load.verdict, multidim::Verdict::Proven);
    assert_eq!(load.transactions_lb, 64);
    assert_eq!(summary.tx_lower_bound, 64 + 32);
    assert_eq!(measured_tx(&exe, &bind, &inputs), 64 + 32);
}

/// `a[32i]` (f32: a 128-byte stride) under an all-x mapping: every lane
/// lands in its own segment, so the floor is one transaction per element.
#[test]
fn strided_32_fixture_exact() {
    let (p, bind, mapping, inputs) = strided_fixture(32, 1024, 128);
    let exe = Compiler::new()
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|a| a.array == "a" && !a.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Strided(32));
    assert_eq!(load.transactions_lb, 1024);
    assert_eq!(summary.tx_lower_bound, 1024 + 32);
    assert_eq!(measured_tx(&exe, &bind, &inputs), 1024 + 32);
}

/// A two-level nest reading only the *outer* index while the inner level
/// owns `x`: provably broadcast — one transaction per warp.
#[test]
fn broadcast_fixture_exact() {
    let mut b = ProgramBuilder::new("broadcast");
    let ns = b.sym("N");
    let ms = b.sym("M");
    let a = b.input("a", ScalarKind::F32, &[Size::sym(ns)]);
    let root = b.map(Size::sym(ns), |b, i| {
        b.map(Size::sym(ms), |b2, _j| b2.read(a, &[Expr::var(i)]))
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(ns, 32);
    bind.bind(ms, 64);
    let mapping = MappingDecision::new(vec![
        LevelMapping {
            dim: Dim::Y,
            block_size: 4,
            span: Span::ONE,
        },
        LevelMapping {
            dim: Dim::X,
            block_size: 64,
            span: Span::ONE,
        },
    ]);
    // Disable shared-memory prefetch so the broadcast load really goes to
    // global memory and the exact-count comparison below is meaningful.
    let exe = Compiler::new()
        .options(CodegenOptions {
            smem_prefetch: false,
            ..CodegenOptions::default()
        })
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|acc| acc.array == "a" && !acc.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Broadcast);
    assert_eq!(load.verdict, multidim::Verdict::Proven);
    // 2048 threads / 32 lanes = 64 warps; one transaction each for the
    // broadcast load and one for the coalesced store.
    assert_eq!(load.transactions_lb, 64);
    assert_eq!(summary.tx_lower_bound, 64 + 64);
    let inputs = HashMap::from([(a, vec![1.0; 32])]);
    assert_eq!(measured_tx(&exe, &bind, &inputs), 64 + 64);
}

/// `a[idx[i]]`: the address is data-dependent, so coalescing is provably
/// unprovable (scattered) and the analysis falls back to the universal
/// one-transaction-per-warp floor, which the simulator must still respect.
#[test]
fn scattered_fixture_sound() {
    let mut b = ProgramBuilder::new("scattered");
    let ns = b.sym("N");
    let idx = b.input("idx", ScalarKind::F32, &[Size::sym(ns)]);
    let a = b.input("a", ScalarKind::F32, &[Size::sym(ns)]);
    let root = b.map(Size::sym(ns), |b, i| {
        let w = b.read(idx, &[Expr::var(i)]);
        b.read(a, std::slice::from_ref(&w))
    });
    let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
    let mut bind = Bindings::new();
    bind.bind(ns, 1024);
    let mapping = MappingDecision::new(vec![LevelMapping {
        dim: Dim::X,
        block_size: 128,
        span: Span::ONE,
    }]);
    let exe = Compiler::new()
        .compile_with_mapping(&p, &bind, mapping)
        .unwrap();
    let summary = exe.locality.as_ref().unwrap();
    let load = summary
        .accesses
        .iter()
        .find(|acc| acc.array == "a" && !acc.is_write)
        .unwrap();
    assert_eq!(load.class, AccessClass::Scattered);
    assert_eq!(load.verdict, multidim::Verdict::Proven);
    // Universal floor: ceil(1024 / 32) for the scattered load.
    assert_eq!(load.transactions_lb, 32);
    // Identity permutation: the measured counters must sit at or above the
    // floor and the cross-check must find no disagreement.
    let inputs = HashMap::from([
        (idx, (0..1024).map(f64::from).collect::<Vec<_>>()),
        (a, vec![1.0; 1024]),
    ]);
    let sim = multidim_sim::run_program(&exe.kernels, exe.device(), &bind, &inputs).unwrap();
    let measured: u64 = sim.costs.iter().map(|c| c.transactions).sum();
    assert!(measured >= summary.tx_lower_bound);
    assert!(locality_cross_check(summary, &sim).is_empty());
}
