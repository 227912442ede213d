//! Golden bit-identity test for the simulator.
//!
//! The simulator produces both the outputs and the simulated time every
//! experiment rests on, so a change to how it executes kernels must not
//! move a single bit of either. This test renders, for a fixed set of
//! runs, every `KernelCost` field of every kernel, the launch shapes,
//! the bits of `total_seconds`, a digest of every output array's bits,
//! the sanitizer report and the text of any `SimError`, and compares the
//! rendering with the committed `tests/golden/sim_golden.txt`.
//!
//! The runs cover every catalog entry (plain and sanitized), the two
//! data-dependent-extent workloads under each forced launch-consolidation
//! strategy, every tuning candidate of two small catalog programs (which
//! between them launch partial-warp and 2-D blocks), and hand-built
//! kernels that fault.
//!
//! On a mismatch the fresh rendering is written to the test target's
//! scratch directory (`CARGO_TARGET_TMPDIR`) and its path is printed; the
//! golden file changes only when a cost-model change is intended.

use multidim::prelude::*;
use multidim_codegen::{
    Axis, BufId, BufferDecl, BufferInit, KExpr, Kernel, KernelProgram, SmemDecl, Stmt,
};
use multidim_ir::ArrayId;
use multidim_mapping::TuneOptions;
use multidim_sim::{run_program, SanitizerReport, SimError};
use multidim_workloads::catalog::{catalog, CatalogEntry};
use std::collections::HashMap;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/sim_golden.txt");

/// FNV-1a over the bit patterns of `data`.
fn digest(data: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One run's observable result, rendered as stable text.
fn render_run(out: &mut String, label: &str, r: &RunReport, san: Option<&SanitizerReport>) {
    let _ = writeln!(out, "== {label}");
    for ((name, shape), cost) in r
        .kernel_names
        .iter()
        .zip(&r.kernel_shapes)
        .zip(&r.kernel_costs)
    {
        let _ = writeln!(out, "kernel {name} {shape:?}");
        let _ = writeln!(out, "  {cost:?}");
    }
    let _ = writeln!(
        out,
        "total_seconds {:016x} ({:e})",
        r.gpu_seconds.to_bits(),
        r.gpu_seconds
    );
    let mut ids: Vec<&ArrayId> = r.outputs.keys().collect();
    ids.sort_by_key(|a| a.0);
    for id in ids {
        let data = &r.outputs[id];
        let _ = writeln!(
            out,
            "array {} len {} bits {:016x}",
            id.0,
            data.len(),
            digest(data)
        );
    }
    if let Some(san) = san {
        let _ = writeln!(
            out,
            "sanitizer tracked {} conflicts {}",
            san.tracked_stores,
            san.conflicts.len()
        );
        for c in &san.conflicts {
            let _ = writeln!(out, "  {c:?}");
        }
    }
}

fn render_error(out: &mut String, label: &str, err: &dyn std::fmt::Display) {
    let _ = writeln!(out, "== {label}");
    let _ = writeln!(out, "error {err}");
}

/// Run `exe` plainly and, when `sanitized`, with the sanitizer too.
fn render_exe(
    out: &mut String,
    label: &str,
    exe: &Executable,
    inputs: &HashMap<ArrayId, Vec<f64>>,
    sanitized: bool,
) {
    match exe.run(inputs) {
        Ok(r) => render_run(out, label, &r, None),
        Err(e) => render_error(out, label, &e),
    }
    if !sanitized {
        return;
    }
    let label = format!("{label} [sanitized]");
    match exe.run_sanitized(inputs) {
        Ok((r, san)) => render_run(out, &label, &r, Some(&san)),
        Err(e) => render_error(out, &label, &e),
    }
}

fn entry<'a>(entries: &'a [CatalogEntry], name: &str) -> &'a CatalogEntry {
    entries
        .iter()
        .find(|e| e.name() == name)
        .unwrap_or_else(|| panic!("catalog entry `{name}` missing"))
}

/// Every tuning candidate of `e`, in plan order. Returns how many launched
/// kernels had a partial last warp and how many had a 2-D block.
fn render_candidates(out: &mut String, e: &CatalogEntry) -> (usize, usize) {
    let compiler = Compiler::new().checks(false);
    let prepared = compiler
        .prepare_tune(&e.program, &e.bindings, &TuneOptions::default())
        .expect("prepare_tune");
    let (mut partial, mut two_d) = (0, 0);
    for (i, cand) in prepared.plan.candidates.iter().enumerate() {
        let label = format!("{} candidate {i} {}", e.name(), cand.mapping);
        match compiler.compile_with_mapping(&e.program, &e.bindings, cand.mapping.clone()) {
            Ok(exe) => {
                for k in &exe.kernels.kernels {
                    partial += usize::from(k.block_threads() % 32 != 0);
                    two_d += usize::from(k.block[1] > 1);
                }
                render_exe(out, &label, &exe, &e.inputs, false);
            }
            Err(err) => render_error(out, &label, &err),
        }
    }
    (partial, two_d)
}

fn fault_program(kernel: Kernel) -> KernelProgram {
    KernelProgram {
        name: kernel.name.clone(),
        buffers: vec![
            BufferDecl {
                name: "in".into(),
                elem_bytes: 4,
                len: Size::from(10),
                init: BufferInit::FromArray(ArrayId(0)),
                array: Some(ArrayId(0)),
            },
            BufferDecl {
                name: "out".into(),
                elem_bytes: 8,
                len: Size::from(40),
                init: BufferInit::Zero,
                array: Some(ArrayId(1)),
            },
        ],
        kernels: vec![kernel],
        children: vec![],
        notes: vec![],
    }
}

/// Kernels that fault: the error text (first faulting lane in lane order)
/// is part of the simulator's contract.
fn fault_cases() -> Vec<(&'static str, KernelProgram)> {
    let gtid = KExpr::global_tid(Axis::X);
    // Guard admits 24 threads but `in` holds 10: lane 10 of block 0 faults
    // in a partial (24-thread) warp.
    let oob_load = Kernel {
        name: "oob_load".into(),
        grid: [Size::from(2), Size::from(1), Size::from(1)],
        block: [24, 1, 1],
        smem: vec![],
        locals: 1,
        body: vec![
            Stmt::Assign {
                dst: 0,
                value: gtid.clone(),
            },
            Stmt::If {
                cond: KExpr::lt(KExpr::Local(0), KExpr::imm(24)),
                then: vec![Stmt::Store {
                    buf: BufId(1),
                    idx: KExpr::Local(0),
                    value: KExpr::Load {
                        buf: BufId(0),
                        idx: Box::new(KExpr::Local(0)),
                    },
                }],
                els: vec![],
            },
        ],
    };
    // Block-lockstep kernel whose shared store overruns its array on the
    // second warp of a 2-D block.
    let oob_smem = Kernel {
        name: "oob_smem".into(),
        grid: [Size::from(1), Size::from(1), Size::from(1)],
        block: [16, 3, 1],
        smem: vec![SmemDecl {
            name: "tile".into(),
            len: 40,
        }],
        locals: 0,
        body: vec![
            Stmt::SmemStore {
                arr: 0,
                idx: KExpr::add(
                    KExpr::mul(KExpr::Tid(Axis::Y), KExpr::imm(16)),
                    KExpr::Tid(Axis::X),
                ),
                value: KExpr::Tid(Axis::X),
            },
            Stmt::Sync,
        ],
    };
    // Atomic at a non-integral index (tid / 2 on an odd lane).
    let frac_atomic = Kernel {
        name: "frac_atomic".into(),
        grid: [Size::from(1), Size::from(1), Size::from(1)],
        block: [32, 1, 1],
        smem: vec![],
        locals: 0,
        body: vec![Stmt::AtomicRmw {
            buf: BufId(1),
            idx: KExpr::div(KExpr::Tid(Axis::X), KExpr::imm(2)),
            op: ReduceOp::Add,
            value: KExpr::Imm(1.0),
            capture: None,
        }],
    };
    vec![
        ("oob global load", fault_program(oob_load)),
        ("oob shared store", fault_program(oob_smem)),
        ("non-integral atomic index", fault_program(frac_atomic)),
    ]
}

fn render_all() -> String {
    let mut out = String::new();
    let entries = catalog();

    for e in &entries {
        let exe = Compiler::new()
            .compile(&e.program, &e.bindings)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        render_exe(&mut out, e.name(), &exe, &e.inputs, true);
    }

    for name in ["spmv_zipf", "ragged_filter"] {
        let e = entry(&entries, name);
        for strategy in [
            LaunchStrategy::Naive,
            LaunchStrategy::Coarsen(4),
            LaunchStrategy::Aggregate,
        ] {
            let config = DynParConfig {
                policy: DynParPolicy::Force(strategy),
                ..DynParConfig::default()
            };
            let exe = Compiler::new()
                .dynpar(config)
                .compile(&e.program, &e.bindings)
                .unwrap_or_else(|err| panic!("{name} {strategy:?}: {err}"));
            let label = format!("{name} forced {strategy:?}");
            render_exe(&mut out, &label, &exe, &e.inputs, true);
        }
    }

    let (mut partial, mut two_d) = (0, 0);
    for name in ["sumRows", "hotspot"] {
        let (p, t) = render_candidates(&mut out, entry(&entries, name));
        partial += p;
        two_d += t;
    }
    assert!(partial > 0, "tuning candidates launched no partial warp");
    assert!(two_d > 0, "tuning candidates launched no 2-D block");

    let gpu = GpuSpec::tesla_k20c();
    for (label, kp) in fault_cases() {
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![1.0; 10])].into_iter().collect();
        match run_program(&kp, &gpu, &Bindings::new(), &inputs) {
            Ok(r) => {
                let report = RunReport {
                    outputs: r.arrays,
                    gpu_seconds: r.total_seconds,
                    kernel_names: r.names,
                    kernel_shapes: r.shapes,
                    kernel_times: r.times,
                    kernel_costs: r.costs,
                };
                render_run(&mut out, label, &report, None)
            }
            Err(SimError(msg)) => render_error(&mut out, label, &msg),
        }
    }
    out
}

#[test]
fn simulator_matches_golden_bit_for_bit() {
    let actual = render_all();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_golden.actual.txt");
    std::fs::write(&path, &actual).expect("write actual rendering");
    let first = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "simulator output differs from tests/golden/sim_golden.txt at line {}:\n  golden: {:?}\n  actual: {:?}\nfull rendering written to {}",
        first + 1,
        GOLDEN.lines().nth(first),
        actual.lines().nth(first),
        path.display()
    );
}
