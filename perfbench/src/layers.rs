//! The traced run: per-layer numbers for one workload.
//!
//! Three phases, each on a freshly started fleet:
//!
//! 1. a plain end-to-end window, which gives the ungated percentiles;
//! 2. an instrumented one (the bench also times `FrontDoor::fingerprint_of`
//!    and `FrontDoor::submit` per request), which gives the `serve`,
//!    `engine` and `loadgen` metrics;
//! 3. a breakdown of a fixed, seeded sample of the workload's requests.
//!    Each request goes through the front door and is then replayed on
//!    the bench thread through the public entry points of every layer on
//!    the path the engine took (a cache hit only runs; a miss compiles
//!    then runs; a tune plans, lowers and simulates every candidate),
//!    with a span around each call. The replay is asserted to give the
//!    same mapping, CUDA source and outputs as `Compiler::compile` +
//!    `Executable::run` (or the front door's tune), so the per-layer
//!    numbers cannot drift from the real path.
//!
//! Spans are kept in memory and written to `out/` at exit. The tracing
//! overhead is what recording them costs: the recorder's measured cost
//! per span times the spans recorded per sampled request.

use crate::check::{Arrays, Reference};
use crate::e2e::{self, Drive};
use crate::stats::{geomean, mean, median, percentile, timed};
use crate::streams::{self, TENANTS};
use crate::{Metric, Outcome, Workload};
use multidim::{Compiler, Executable};
use multidim_analyze::{analyze_program, lint_mapping, locality_of, LocalityFacts, Severity};
use multidim_codegen::{
    emit_cuda, fuse_map_reduce, lower_planned, validate_kernels, CodegenOptions, KernelProgram,
};
use multidim_device::GpuSpec;
use multidim_dynpar::{choose, DynParConfig};
use multidim_ir::{Bindings, Program};
use multidim_mapping::{analyze_with, MappingDecision, TuneOptions, Weights};
use multidim_serve::{FrontDoor, Ticket};
use multidim_sim::{run_program, SimResult};
use multidim_workloads::catalog::{catalog, CatalogEntry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Requests in each workload's breakdown sample.
const SERVE_SAMPLE: usize = 512;
const COLD_SAMPLE: u64 = 48;
const TUNE_SAMPLE: u64 = 8;

/// The layers whose self time the breakdown reports, with the metric
/// that carries it.
const LAYERS: [(&str, &str); 9] = [
    ("serve", "serve.self_ms"),
    ("engine", "engine.self_ms"),
    ("core", "core.self_ms"),
    ("mapping", "mapping.self_ms"),
    ("analyze", "analyze.self_ms"),
    ("dynpar", "dynpar.self_ms"),
    ("codegen", "codegen.self_ms"),
    ("sim", "sim.self_ms"),
    ("tune", "tune.self_ms"),
];

/// One timed call: `layer.op`, its interval, the span that caused it, and
/// the request it belongs to.
struct Span {
    layer: &'static str,
    op: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder for the single-threaded replay.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn span<T>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            op,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Wall time the recorder adds per span, in µs: the median over
    /// batches of empty spans recorded into a scratch tracer.
    fn cost_per_span_us() -> f64 {
        const BATCH: usize = 20_000;
        let per_batch: Vec<f64> = (0..9)
            .map(|_| {
                let mut scratch = Tracer::new();
                scratch.spans.reserve(BATCH);
                let ((), us) = timed(|| {
                    for _ in 0..BATCH {
                        scratch.span("request", "empty", |_| ());
                    }
                });
                std::hint::black_box(&scratch.spans);
                us / BATCH as f64
            })
            .collect();
        median(&per_batch)
    }

    fn duration(&self, i: usize) -> Duration {
        self.spans[i].end - self.spans[i].start
    }

    /// Per-call durations (µs) of every `layer.op` span.
    fn calls_us(&self, layer: &str, op: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].layer == layer && self.spans[i].op == op)
            .map(|i| self.duration(i).as_secs_f64() * 1e6)
            .collect()
    }

    /// Self time per layer over the `request` trees: each span's duration
    /// minus its children's (spans on one thread nest without overlap).
    fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut root = vec![0usize; self.spans.len()];
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root[i] = s.parent.map_or(i, |p| root[p]);
            if let Some(p) = s.parent {
                child[p] += self.duration(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root[i]].layer == "request" {
                *out.entry(s.layer).or_insert(Duration::ZERO) += self.duration(i) - child[i];
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}.{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.layer,
                s.op,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request
            );
        }
        std::fs::create_dir_all(path.parent().expect("span file has a directory"))?;
        std::fs::write(path, text)
    }
}

/// Simulator work counted over every replayed run.
#[derive(Default)]
struct SimCounts {
    warp_instr: u64,
    transactions: u64,
    dram_bytes: u64,
}

impl SimCounts {
    fn add(&mut self, sim: &SimResult) {
        let c = sim.total_cost();
        self.warp_instr += c.warp_instr;
        self.transactions += c.transactions;
        self.dram_bytes += c.dram_bytes;
    }
}

/// The compiler pipeline rebuilt from each layer's public entry points,
/// configured as `Compiler::new()` is.
struct Replay {
    gpu: GpuSpec,
    weights: Weights,
    options: CodegenOptions,
    dynpar: DynParConfig,
}

struct Compiled {
    mapping: MappingDecision,
    kernels: KernelProgram,
}

struct Tuned {
    planned: u64,
    costs: Vec<Option<f64>>,
    best: MappingDecision,
    best_cost: f64,
    kernels: KernelProgram,
}

impl Replay {
    fn new() -> Replay {
        let gpu = GpuSpec::tesla_k20c();
        let mut options = CodegenOptions::default();
        options.smem_budget = options.smem_budget.or(Some(gpu.smem_per_sm));
        Replay {
            gpu,
            weights: Weights::default(),
            options,
            dynpar: DynParConfig::default(),
        }
    }

    /// `Compiler::compile`: fuse, validate, search, then the checked
    /// lowering.
    fn compile(
        &self,
        t: &mut Tracer,
        program: &Program,
        b: &Bindings,
        candidates: &mut u64,
    ) -> Result<Compiled, String> {
        t.span("core", "compile", |t| {
            let (program, _) = t.span("codegen", "fuse", |_| fuse_map_reduce(program));
            program.validate().map_err(|e| e.to_string())?;
            let analysis = t.span("mapping", "search", |_| {
                analyze_with(&program, b, &self.gpu, &self.weights)
            });
            *candidates += analysis.candidates as u64;
            let kernels = self.lower_checked(t, &program, b, &analysis.decision)?;
            Ok(Compiled {
                mapping: analysis.decision,
                kernels,
            })
        })
    }

    /// The back half of every compile: static checks, the launch
    /// consolidation choice, lowering and the locality proofs.
    fn lower_checked(
        &self,
        t: &mut Tracer,
        program: &Program,
        b: &Bindings,
        mapping: &MappingDecision,
    ) -> Result<KernelProgram, String> {
        let report = t.span("analyze", "check", |_| {
            let mut report = analyze_program(program, b);
            report.diagnostics.extend(lint_mapping(program, mapping));
            report
        });
        if report.has_errors() {
            return Err(format!(
                "`{}`: static analysis rejected the program",
                program.name
            ));
        }
        let plan = t.span("dynpar", "choose", |_| {
            choose(program, b, &self.gpu, &self.dynpar)
        });
        let kernels = t.span("codegen", "lower", |_| {
            let kernels =
                lower_planned(program, mapping, &self.options, &plan).map_err(|e| e.to_string())?;
            validate_kernels(&kernels, self.gpu.smem_per_sm).map_err(|e| e.to_string())?;
            Ok::<_, String>(kernels)
        })?;
        let locality = t.span("analyze", "locality", |_| {
            let facts = LocalityFacts::of(program, b);
            locality_of(
                &facts,
                mapping,
                &kernels,
                b,
                &self.gpu,
                self.options.smem_prefetch,
            )
        });
        if locality
            .diagnostics()
            .iter()
            .any(|d| d.severity == Severity::Error)
        {
            return Err(format!(
                "`{}`: locality analysis rejected the program",
                program.name
            ));
        }
        Ok(kernels)
    }

    /// `Executable::run`.
    fn run(
        &self,
        t: &mut Tracer,
        kernels: &KernelProgram,
        b: &Bindings,
        inputs: &Arrays,
        sims: &mut SimCounts,
    ) -> Result<SimResult, String> {
        let sim = t.span("core", "run", |t| {
            t.span("sim", "run", |_| run_program(kernels, &self.gpu, b, inputs))
                .map_err(|e| e.to_string())
        })?;
        sims.add(&sim);
        Ok(sim)
    }

    /// `Engine::autotune`: plan once, lower and simulate every candidate,
    /// select, and compile the winner.
    fn autotune(
        &self,
        t: &mut Tracer,
        program: &Program,
        b: &Bindings,
        inputs: &Arrays,
        sims: &mut SimCounts,
    ) -> Result<Tuned, String> {
        t.span("tune", "autotune", |t| {
            let (program, _) = t.span("codegen", "fuse", |_| fuse_map_reduce(program));
            program.validate().map_err(|e| e.to_string())?;
            let plan = t.span("mapping", "plan", |_| {
                multidim_mapping::plan(
                    &program,
                    b,
                    &self.gpu,
                    &self.weights,
                    &TuneOptions::default(),
                )
            });
            let dynpar = t.span("dynpar", "choose", |_| {
                choose(&program, b, &self.gpu, &self.dynpar)
            });
            let mut costs = Vec::with_capacity(plan.candidates.len());
            for cand in &plan.candidates {
                let cost = t.span("tune", "measure", |t| {
                    let kernels = t.span("codegen", "lower", |_| {
                        let k =
                            lower_planned(&program, &cand.mapping, &self.options, &dynpar).ok()?;
                        validate_kernels(&k, self.gpu.smem_per_sm).ok()?;
                        Some(k)
                    })?;
                    let sim = t.span("sim", "run", |_| {
                        run_program(&kernels, &self.gpu, b, inputs).ok()
                    })?;
                    sims.add(&sim);
                    Some(sim.total_seconds)
                });
                costs.push(cost);
            }
            let result = multidim_mapping::select(&plan, &costs)
                .ok_or_else(|| format!("`{}`: no candidate was executable", program.name))?;
            let kernels = t.span("core", "compile_tuned", |t| {
                self.lower_checked(t, &program, b, &result.best)
            })?;
            Ok(Tuned {
                planned: plan.candidates.len() as u64,
                costs,
                best: result.best,
                best_cost: result.best_cost,
                kernels,
            })
        })
    }
}

/// What the breakdown phase measured.
#[derive(Default)]
struct Breakdown {
    requests: u64,
    compile_us: Vec<f64>,
    run_us: Vec<f64>,
    candidates: u64,
    kernels: u64,
    sims: SimCounts,
    planned: u64,
    executable: u64,
    measured: u64,
    gains: Vec<f64>,
    plan_ms: Vec<f64>,
    measure_us: Vec<f64>,
    problems: Vec<String>,
}

/// `Compiler::compile` + `Executable::run`, timed: the reference the
/// replay must reproduce.
fn reference(
    bd: &mut Breakdown,
    compiler: &Compiler,
    v: &CatalogEntry,
) -> Result<(Executable, Arrays), String> {
    let (exe, us) = timed(|| compiler.compile(&v.program, &v.bindings));
    let exe = exe.map_err(|e| e.to_string())?;
    bd.compile_us.push(us);
    let (run, us) = timed(|| exe.run(&v.inputs));
    let run = run.map_err(|e| e.to_string())?;
    bd.run_us.push(us);
    Reference::for_compiled(v, &exe, &run.outputs)?.check(&run.outputs)?;
    Ok((exe, run.outputs))
}

fn same<T: PartialEq>(what: &str, name: &str, a: T, b: T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "`{name}`: the layer replay's {what} differs from the real path's"
        ))
    }
}

/// Check a replayed compile against the reference executable.
fn same_compile(name: &str, replay: &Compiled, exe: &Executable) -> Result<(), String> {
    same("mapping", name, &replay.mapping, &exe.mapping)?;
    same(
        "CUDA source",
        name,
        emit_cuda(&replay.kernels),
        exe.cuda_source(),
    )
}

/// One served request (`serve-zipf`, `compile-cold`): through the front
/// door, then replayed along the path the engine took.
fn serve_one(
    bd: &mut Breakdown,
    t: &mut Tracer,
    replay: &Replay,
    compiler: &Compiler,
    door: &FrontDoor,
    v: &CatalogEntry,
    tenant: &str,
) -> Result<(), String> {
    let name = v.program.name.as_str();
    let (exe, want) = reference(bd, compiler, v)?;
    let request = e2e::request_of(v);
    let (served, got) = t.span("request", "serve", |t| {
        let fp = t.span("engine", "fingerprint", |_| {
            door.fingerprint_of(&v.program, &v.bindings)
        });
        let hit = t.span("engine", "lookup", |_| {
            door.shard(door.home_shard(fp)).cache_contains(fp)
        });
        let ticket = t.span("serve", "submit", |_| door.submit(tenant, request));
        let served = t
            .span("wait", "ticket", |_| ticket.and_then(Ticket::wait))
            .map_err(|e| format!("`{name}`: {e}"))?;
        let compiled;
        let kernels = if hit {
            &served.response.executable.kernels
        } else {
            compiled = replay.compile(t, &v.program, &v.bindings, &mut bd.candidates)?;
            same_compile(name, &compiled, &exe)?;
            bd.kernels += compiled.kernels.kernels.len() as u64;
            &compiled.kernels
        };
        let sim = replay.run(t, kernels, &v.bindings, &v.inputs, &mut bd.sims)?;
        Ok::<_, String>((served, sim.arrays))
    })?;
    if served.response.cache_hit {
        // A hit skipped compilation: replay it outside the request tree
        // to hold the cached executable to a fresh compile.
        let compiled = t.span("verify", "compile", |t| {
            replay.compile(t, &v.program, &v.bindings, &mut bd.candidates)
        })?;
        same_compile(name, &compiled, &exe)?;
        same(
            "CUDA source",
            name,
            served.response.executable.cuda_source(),
            exe.cuda_source(),
        )?;
        bd.kernels += compiled.kernels.kernels.len() as u64;
    }
    same("outputs", name, &got, &want)?;
    same("served outputs", name, &served.response.run.outputs, &want)
}

/// One tune (`autotune`): through the front door, then the engine's tune
/// replayed with a span per plan, candidate lowering and simulation.
fn tune_one(
    bd: &mut Breakdown,
    t: &mut Tracer,
    replay: &Replay,
    compiler: &Compiler,
    door: &FrontDoor,
    v: &CatalogEntry,
) -> Result<(), String> {
    let name = v.program.name.as_str();
    let options = TuneOptions::default();
    let (exe, record) = door
        .autotune(&v.program, &v.bindings, &v.inputs, &options)
        .map_err(|e| format!("`{name}`: {e}"))?;
    let tuned = t.span("request", "autotune", |t| {
        let fp = t.span("engine", "fingerprint", |_| {
            door.fingerprint_of(&v.program, &v.bindings)
        });
        t.span("serve", "route", |_| door.home_shard(fp));
        replay.autotune(t, &v.program, &v.bindings, &v.inputs, &mut bd.sims)
    })?;
    // The serial reference: the tune entry points of `Compiler`, timed.
    let (prepared, us) = timed(|| compiler.prepare_tune(&v.program, &v.bindings, &options));
    let prepared = prepared.map_err(|e| e.to_string())?;
    bd.plan_ms.push(us / 1e3);
    let mut costs = Vec::new();
    for cand in &prepared.plan.candidates {
        let (cost, us) =
            timed(|| compiler.measure_candidate(&prepared, &v.bindings, &v.inputs, &cand.mapping));
        bd.measure_us.push(us);
        costs.push(cost);
    }
    same("candidate costs", name, &tuned.costs, &costs)?;
    same("tuned mapping", name, &tuned.best, &record.mapping)?;
    same("tuned cost", name, tuned.best_cost, record.tuned_cost)?;
    same(
        "tuned CUDA source",
        name,
        emit_cuda(&tuned.kernels),
        exe.cuda_source(),
    )?;
    let replayed = run_program(&tuned.kernels, &replay.gpu, &v.bindings, &v.inputs)
        .map_err(|e| e.to_string())?;
    let served = exe.run(&v.inputs).map_err(|e| e.to_string())?;
    same("tuned outputs", name, &replayed.arrays, &served.outputs)?;
    Reference::of(v)?.check(&served.outputs)?;
    bd.planned += tuned.planned;
    bd.executable += tuned.costs.iter().flatten().count() as u64;
    bd.measured += record.measured;
    bd.kernels += tuned.kernels.kernels.len() as u64;
    if let Some(analytic) = record.analytic_cost {
        bd.gains.push(analytic / record.tuned_cost);
    }
    // The analytic compile of the same variant, held to `Compiler::compile`.
    let (plain, _) = reference(bd, compiler, v)?;
    let compiled = t.span("verify", "compile", |t| {
        replay.compile(t, &v.program, &v.bindings, &mut bd.candidates)
    })?;
    same_compile(name, &compiled, &plain)
}

fn breakdown(workload: Workload, seed: u64, t: &mut Tracer) -> Breakdown {
    let mut bd = Breakdown::default();
    let entries = catalog();
    let (door, _) = match e2e::start_fleet(workload, &entries) {
        Ok(fleet) => fleet,
        Err(e) => {
            bd.problems.push(e);
            return bd;
        }
    };
    let replay = Replay::new();
    let compiler = Compiler::new();
    let mut outcome = Vec::new();
    match workload {
        Workload::ServeZipf => {
            let schedule = streams::serve_schedule(entries.len(), seed, SERVE_SAMPLE);
            for (i, s) in schedule.into_iter().enumerate() {
                t.request = i as u64;
                outcome.push(serve_one(
                    &mut bd,
                    t,
                    &replay,
                    &compiler,
                    &door,
                    &entries[s.entry],
                    s.tenant,
                ));
            }
        }
        Workload::CompileCold => {
            for i in 0..COLD_SAMPLE {
                t.request = i;
                let v = streams::COLD.variant(seed, i);
                let tenant = TENANTS[(i % TENANTS.len() as u64) as usize];
                outcome.push(serve_one(&mut bd, t, &replay, &compiler, &door, &v, tenant));
            }
        }
        Workload::Autotune => {
            for i in 0..TUNE_SAMPLE {
                t.request = i;
                let v = streams::TUNE.variant(seed, i);
                outcome.push(tune_one(&mut bd, t, &replay, &compiler, &door, &v));
            }
        }
    }
    door.shutdown();
    bd.requests = outcome.len() as u64;
    bd.problems
        .extend(outcome.into_iter().filter_map(Result::err));
    bd
}

/// The whole traced run; `seconds` bounds each end-to-end window pair.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let plain = e2e::drive(workload, seed, seconds / 2.0, false);
    let instrumented = e2e::drive(workload, seed, seconds / 2.0, true);
    let mut t = Tracer::new();
    let bd = breakdown(workload, seed, &mut t);

    let spans = crate::exact::out_dir().join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    if let Err(e) = t.write(&spans) {
        eprintln!("perfbench: cannot write spans to {}: {e}", spans.display());
    }
    let self_times = t.self_times();
    let per_request = |layer: &str| {
        self_times.get(layer).map_or(0.0, |d| d.as_secs_f64() * 1e3) / bd.requests.max(1) as f64
    };
    let total: f64 = LAYERS.iter().map(|(l, _)| per_request(l)).sum();
    eprintln!(
        "self time per {} request ({} sampled):",
        workload.name(),
        bd.requests
    );
    for (layer, _) in LAYERS {
        let ms = per_request(layer);
        eprintln!(
            "  {layer:8} {ms:10.4} ms  {:5.1}%",
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }

    let sim_us: f64 = t.calls_us("sim", "run").iter().sum();
    let c = &instrumented.counters;
    let mut m = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| m.push(Metric { name, value, unit });
    put(
        "serve.submit_us.p50",
        percentile(&instrumented.submit_us, 0.5),
        "us",
    );
    put(
        "serve.submit_us.p99",
        percentile(&instrumented.submit_us, 0.99),
        "us",
    );
    put(
        "serve.spill_ratio",
        ratio(c.door.spilled, c.door.submitted),
        "ratio",
    );
    put("serve.shard_skew", skew(&instrumented), "ratio");
    let refused = c.door.quota_rejected + c.door.shed_deadline + c.door.shed_overload;
    put("serve.refused", refused as f64, "count");
    put(
        "engine.fingerprint_us",
        mean(&instrumented.fingerprint_us),
        "us",
    );
    put(
        "engine.queue_wait_ms.p50",
        percentile(&instrumented.queue_ms, 0.5),
        "ms",
    );
    put(
        "engine.queue_wait_ms.p99",
        percentile(&instrumented.queue_ms, 0.99),
        "ms",
    );
    put("engine.cache_hit_ratio", c.hit_ratio(), "ratio");
    put("engine.cache_evictions", c.cache.evictions as f64, "count");
    put("engine.coalesced", c.cache.coalesced as f64, "count");
    put("core.compile_us.p50", percentile(&bd.compile_us, 0.5), "us");
    put(
        "core.compile_us.p99",
        percentile(&bd.compile_us, 0.99),
        "us",
    );
    put("core.run_us.p50", percentile(&bd.run_us, 0.5), "us");
    put("core.run_us.p99", percentile(&bd.run_us, 0.99), "us");
    put(
        "mapping.search_us",
        mean(&t.calls_us("mapping", "search")),
        "us",
    );
    put("mapping.candidates", bd.candidates as f64, "count");
    put(
        "analyze.check_us",
        mean(&t.calls_us("analyze", "check")),
        "us",
    );
    put(
        "analyze.locality_us",
        mean(&t.calls_us("analyze", "locality")),
        "us",
    );
    put(
        "dynpar.choose_us",
        mean(&t.calls_us("dynpar", "choose")),
        "us",
    );
    put(
        "codegen.fuse_us",
        mean(&t.calls_us("codegen", "fuse")),
        "us",
    );
    put(
        "codegen.lower_us",
        mean(&t.calls_us("codegen", "lower")),
        "us",
    );
    put("codegen.kernels", bd.kernels as f64, "count");
    put(
        "sim.run_us.p50",
        percentile(&t.calls_us("sim", "run"), 0.5),
        "us",
    );
    put(
        "sim.run_us.p99",
        percentile(&t.calls_us("sim", "run"), 0.99),
        "us",
    );
    put(
        "sim.winstr_per_us",
        bd.sims.warp_instr as f64 / sim_us.max(f64::MIN_POSITIVE),
        "1/us",
    );
    put("sim.warp_instr", bd.sims.warp_instr as f64, "count");
    put("sim.transactions", bd.sims.transactions as f64, "count");
    put("sim.dram_bytes", bd.sims.dram_bytes as f64, "bytes");
    put("tune.planned", bd.planned as f64, "count");
    put("tune.measured", bd.measured as f64, "count");
    let pruned = if bd.executable == 0 {
        0.0
    } else {
        1.0 - ratio(bd.measured, bd.executable)
    };
    put("tune.pruned_ratio", pruned, "ratio");
    put("tune.plan_ms", mean(&bd.plan_ms), "ms");
    put("tune.measure_us", mean(&bd.measure_us), "us");
    put("tune.gain", geomean(bd.gains.iter().copied()), "ratio");
    put(
        "loadgen.late_ms.p99",
        percentile(&instrumented.late_ms, 0.99),
        "ms",
    );
    let w = e2e::windowed(&plain);
    put("loadgen.latency_p50_ms", w.p50, "ms");
    put("loadgen.latency_p90_ms", w.p90, "ms");
    put("loadgen.latency_p99_ms", w.p99, "ms");
    put("loadgen.requests", instrumented.attempted as f64, "count");
    for (layer, metric) in LAYERS {
        put(metric, per_request(layer), "ms");
    }
    let spans_per_request = t.spans.len() as f64 / bd.requests.max(1) as f64;
    put(
        "trace.overhead_ms",
        Tracer::cost_per_span_us() * spans_per_request / 1e3,
        "ms",
    );
    put("trace.spans", t.spans.len() as f64, "count");

    let exact = vec![
        ("digest", format!("{:016x}", instrumented.digest)),
        ("mapping.candidates", bd.candidates.to_string()),
        ("codegen.kernels", bd.kernels.to_string()),
        ("sim.warp_instr", bd.sims.warp_instr.to_string()),
        ("sim.transactions", bd.sims.transactions.to_string()),
        ("sim.dram_bytes", bd.sims.dram_bytes.to_string()),
        ("tune.planned", bd.planned.to_string()),
        ("tune.measured", bd.measured.to_string()),
        (
            "tune.gain",
            format!("{:?}", geomean(bd.gains.iter().copied())),
        ),
    ];
    let mut problems = Vec::new();
    for d in [&plain, &instrumented] {
        problems.extend(d.problems.iter().cloned());
    }
    problems.extend(bd.problems.iter().cloned());
    Outcome {
        attempted: plain.attempted + instrumented.attempted + bd.requests,
        failed: plain.failed
            + plain.wrong
            + instrumented.failed
            + instrumented.wrong
            + bd.problems.len() as u64,
        metrics: m,
        exact,
        problems,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Max over mean completions per shard.
fn skew(d: &Drive) -> f64 {
    let total: u64 = d.shard_done.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let max = *d.shard_done.iter().max().expect("at least one shard") as f64;
    max / (total as f64 / d.shard_done.len() as f64)
}
