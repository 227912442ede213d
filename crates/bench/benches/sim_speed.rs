//! Simulator speed over the workload catalog.
//!
//! Compiles every catalog program once with the default compiler, then
//! times `multidim_sim::run_program` alone on it (median of repeated
//! batches) and prints, per program, the simulated warp instructions, the
//! host milliseconds per run and the host nanoseconds per simulated warp
//! instruction. The last line is the zipf-weighted mean over the catalog
//! in catalog order (rank r weighs 1/r, the mix the serving benchmark
//! replays), so it tracks the simulator share of warm service time.
//!
//! ```text
//! cargo bench -p multidim-bench --bench sim_speed
//! ```

use multidim::prelude::*;
use multidim_sim::run_program;
use multidim_workloads::catalog::catalog;
use std::time::Instant;

/// Median per-run seconds over `batches` batches sized to take about
/// `budget_s` each.
fn measure(mut f: impl FnMut(), budget_s: f64, batches: usize) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-7);
    let iters = ((budget_s / once) as usize).clamp(1, 10_000);
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let gpu = GpuSpec::tesla_k20c();
    println!(
        "{:<22} {:>7} {:>12} {:>10} {:>10}",
        "program", "kernels", "warp_instr", "sim_ms", "ns/winstr"
    );
    let (mut weighted_ms, mut weight_sum) = (0.0, 0.0);
    for (rank, e) in catalog().iter().enumerate() {
        let exe = Compiler::new()
            .compile(&e.program, &e.bindings)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        let run = run_program(&exe.kernels, &gpu, &e.bindings, &e.inputs)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
        let winstr = run.total_cost().warp_instr;
        let secs = measure(
            || {
                std::hint::black_box(
                    run_program(&exe.kernels, &gpu, &e.bindings, &e.inputs).unwrap(),
                );
            },
            0.05,
            7,
        );
        let w = 1.0 / (rank + 1) as f64;
        weighted_ms += w * secs * 1e3;
        weight_sum += w;
        println!(
            "{:<22} {:>7} {:>12} {:>10.3} {:>10.1}",
            e.name(),
            exe.kernels.kernels.len(),
            winstr,
            secs * 1e3,
            secs * 1e9 / winstr.max(1) as f64
        );
    }
    println!("zipf-weighted sim_ms {:.3}", weighted_ms / weight_sum);
}
