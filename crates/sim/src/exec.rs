//! Warp-synchronous execution of kernel IR.
//!
//! Kernels execute with real data, warp by warp, with lane masks for
//! divergence — both sides of a divergent branch run (and cost), inactive
//! lanes are masked. Blocks containing `__syncthreads` execute in
//! *block-lockstep*: every statement runs across all warps before the next
//! statement starts, which is exactly the synchronization the generated
//! reduction trees rely on. Loop bounds and branch conditions enclosing a
//! `Sync` must be block-uniform (our code generator guarantees this).
//!
//! Every global access is coalesced through [`crate::coalesce`] and every
//! shared-memory access through [`crate::bank_conflicts`], accumulating the
//! [`KernelCost`] record that the timing model converts to seconds.
//!
//! # Execution core
//!
//! Each kernel is decoded once per [`run_program`] call ([`Decoded`]):
//! symbolic sizes are resolved, every expression tree becomes a flat
//! post-order list of [`Op`]s over per-warp lane registers, and each
//! statement records whether it contains a barrier. Subtrees that are
//! uniform across a warp (immediates, sizes, `blockDim`, `blockIdx`,
//! `gridDim` and pure operators over them) are folded at decode time or
//! computed once as scalars, while the expression still charges one warp
//! instruction per tree node, exactly as if every node had been evaluated.
//!
//! Pure operators run branch-free over all 32 lanes: lanes outside the
//! mask compute values nobody reads. Everything observable — local
//! assignments, loads, stores, shared-memory accesses, atomics, child
//! launches and index checks — is masked and visits lanes in ascending
//! order, so the first faulting lane and its [`SimError`] text do not
//! depend on how the pure part is evaluated.

use crate::cost::{kernel_time, KernelCost, KernelTime, LaunchShape};
use crate::memory::{bank_conflicts, coalesce};
use crate::report::{BoundBy, Efficiency};
use multidim_codegen::{BufId, BufferInit, KExpr, Kernel, KernelProgram, Stmt};
use multidim_device::{GpuSpec, WARP_SIZE};
use multidim_ir::{apply_bin, apply_un, ArrayId, BinOp, Bindings, ReduceOp, UnOp};
use multidim_trace as trace;
use std::collections::HashMap;
use std::fmt;

/// Simulation failure (out-of-bounds access, missing input, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError(pub String);

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

/// A device buffer during simulation.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    /// Element width in bytes (for coalescing).
    pub elem_bytes: u64,
    /// Contents.
    pub data: Vec<f64>,
    /// Virtual base byte address (distinct buffers never share segments).
    pub base: u64,
}

/// Result of simulating a [`KernelProgram`].
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Final contents of buffers that materialize program arrays.
    pub arrays: HashMap<ArrayId, Vec<f64>>,
    /// Kernel names (same order as `kp.kernels`).
    pub names: Vec<String>,
    /// Per-kernel launch shapes.
    pub shapes: Vec<LaunchShape>,
    /// Per-kernel cost records (same order as `kp.kernels`).
    pub costs: Vec<KernelCost>,
    /// Per-kernel timing breakdowns.
    pub times: Vec<KernelTime>,
    /// Sum of kernel times in seconds.
    pub total_seconds: f64,
}

impl SimResult {
    /// The final contents of `array`.
    ///
    /// # Panics
    ///
    /// Panics if the array was not materialized by the program.
    pub fn array(&self, array: ArrayId) -> &[f64] {
        &self.arrays[&array]
    }

    /// Sum of the per-kernel cost counters across the whole run.
    pub fn total_cost(&self) -> KernelCost {
        let mut sum = KernelCost::default();
        for c in &self.costs {
            sum.add(c);
        }
        sum
    }
}

/// One element stored by two different threads within one kernel launch,
/// observed by the sanitizer.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteConflict {
    /// The launching kernel's name.
    pub kernel: String,
    /// The conflicting buffer's name.
    pub buffer: String,
    /// The program array the buffer materializes, if any.
    pub array: Option<ArrayId>,
    /// The element both threads stored.
    pub index: u64,
    /// Global thread id of the first observed writer.
    pub first_tid: u64,
    /// Global thread id of the second (conflicting) writer.
    pub second_tid: u64,
}

/// What the sanitizer observed across a whole program run.
///
/// Only plain (non-atomic) global stores are tracked: an atomic
/// read-modify-write cannot lose an update, so concurrent atomics to one
/// element are not write-write races. Each kernel launch is a fresh
/// epoch — kernel boundaries order all memory operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SanitizerReport {
    /// Number of store operations recorded.
    pub tracked_stores: u64,
    /// Observed write-write conflicts (one entry per conflicting element
    /// per kernel, reporting the first colliding pair).
    pub conflicts: Vec<WriteConflict>,
}

impl SanitizerReport {
    /// Did any kernel exhibit a write-write conflict?
    pub fn has_conflicts(&self) -> bool {
        !self.conflicts.is_empty()
    }
}

/// Per-kernel first-writer map backing the sanitizer.
#[derive(Default)]
struct WriteTracker {
    /// (buffer, element) → global tid of the first store this launch.
    writers: HashMap<(BufId, u64), u64>,
    /// Elements already reported this launch (report each once).
    flagged: std::collections::HashSet<(BufId, u64)>,
    tracked: u64,
    /// (buffer, element, first tid, second tid).
    conflicts: Vec<(BufId, u64, u64, u64)>,
}

impl WriteTracker {
    fn record(&mut self, buf: BufId, index: u64, tid: u64) {
        self.tracked += 1;
        match self.writers.entry((buf, index)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(tid);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let first = *e.get();
                if first != tid && self.flagged.insert((buf, index)) {
                    self.conflicts.push((buf, index, first, tid));
                }
            }
        }
    }
}

/// Simulate `kp` on `gpu` with launch-time `bindings` and host `inputs`.
///
/// # Errors
///
/// Returns [`SimError`] for missing inputs or faulting kernels.
pub fn run_program(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
) -> Result<SimResult, SimError> {
    run_program_inner(kp, gpu, bindings, inputs, false).map(|(r, _)| r)
}

/// Like [`run_program`], but with the sanitizer on: every non-atomic
/// global store is recorded with the issuing thread, and elements stored
/// by two different threads within one launch are reported as conflicts.
///
/// # Errors
///
/// Returns [`SimError`] for missing inputs or faulting kernels.
pub fn run_program_sanitized(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
) -> Result<(SimResult, SanitizerReport), SimError> {
    run_program_inner(kp, gpu, bindings, inputs, true).map(|(r, san)| (r, san.unwrap_or_default()))
}

fn run_program_inner(
    kp: &KernelProgram,
    gpu: &GpuSpec,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
    sanitize: bool,
) -> Result<(SimResult, Option<SanitizerReport>), SimError> {
    // Allocate and initialize buffers.
    let mut buffers = Vec::with_capacity(kp.buffers.len());
    let mut base = 0u64;
    for decl in &kp.buffers {
        let len = decl.len.eval(bindings).max(0) as usize;
        let data = match decl.init {
            BufferInit::Zero => vec![0.0; len],
            BufferInit::Fill(v) => vec![v; len],
            BufferInit::FromArrayOrZero(a) => match inputs.get(&a) {
                Some(host) => {
                    if host.len() != len {
                        return Err(SimError(format!(
                            "seed for `{}` has {} elements, buffer needs {len}",
                            decl.name,
                            host.len()
                        )));
                    }
                    host.clone()
                }
                None => vec![0.0; len],
            },
            BufferInit::FromArray(a) => {
                let host = inputs.get(&a).ok_or_else(|| {
                    SimError(format!("missing host input for buffer `{}`", decl.name))
                })?;
                if host.len() != len {
                    return Err(SimError(format!(
                        "input `{}` has {} elements, buffer needs {len}",
                        decl.name,
                        host.len()
                    )));
                }
                host.clone()
            }
        };
        buffers.push(DeviceBuffer {
            elem_bytes: decl.elem_bytes,
            data,
            base,
        });
        // Segment-align the next buffer.
        base += (len as u64 * decl.elem_bytes).next_multiple_of(gpu.transaction_bytes.max(1));
        base += gpu.transaction_bytes;
    }

    let mut names = Vec::new();
    let mut shapes = Vec::new();
    let mut costs = Vec::new();
    let mut times = Vec::new();
    let mut total = 0.0f64;
    let mut san_report = sanitize.then(SanitizerReport::default);
    let children: Vec<Decoded> = kp
        .children
        .iter()
        .map(|c| Decoded::new(c, bindings))
        .collect();
    for kernel in &kp.kernels {
        let k = Decoded::new(kernel, bindings);
        // Fresh first-writer map per launch: kernel boundaries synchronize.
        let mut tracker = sanitize.then(WriteTracker::default);
        let mut pending: Vec<PendingLaunch> = Vec::new();
        let mut ex = Exec::new(
            gpu,
            &k,
            k.grid,
            &mut buffers,
            tracker.as_mut(),
            &mut pending,
        );
        let blocks = ex.run()?;
        let mut cost = ex.cost;
        // Fire the device-side launches the parent queued: every child
        // grid belongs to this kernel's launch epoch — its work folds into
        // the parent's cost record (plus the per-launch counters the
        // timing model charges) and its stores share the parent's
        // write-tracker epoch under distinct thread ids.
        for (ordinal, launch) in pending.iter().enumerate() {
            let child = children
                .get(launch.kernel as usize)
                .ok_or_else(|| SimError(format!("child kernel {} not declared", launch.kernel)))?;
            let threads = u64::from(child.threads);
            let cblocks = launch.extent.div_ceil(threads);
            if cblocks > 1 << 22 {
                return Err(SimError(format!(
                    "child launch of {} blocks exceeds the sanity cap",
                    cblocks
                )));
            }
            let mut child_pending: Vec<PendingLaunch> = Vec::new();
            let mut cex = Exec::new(
                gpu,
                child,
                [cblocks, 1, 1],
                &mut buffers,
                tracker.as_mut(),
                &mut child_pending,
            );
            // Disjoint per launch; far above any real parent tid.
            cex.tid_base = (ordinal as u64 + 1) << 40;
            cex.launch_args = &launch.args;
            cex.run()?;
            let child_cost = cex.cost;
            if !child_pending.is_empty() {
                return Err(SimError(format!(
                    "child kernel `{}` issued a nested device-side launch",
                    child.name
                )));
            }
            cost.add(&child_cost);
            cost.child_blocks += cblocks;
        }
        let shape = LaunchShape {
            blocks,
            block_threads: kernel.block_threads(),
            smem_bytes: kernel.smem_bytes(),
        };
        let t = kernel_time(gpu, &shape, &cost);
        if trace::enabled() {
            emit_kernel_timeline(gpu, &kernel.name, total, &shape, &cost, &t);
        }
        total += t.total;
        names.push(kernel.name.clone());
        shapes.push(shape);
        costs.push(cost);
        times.push(t);
        if let (Some(report), Some(tr)) = (san_report.as_mut(), tracker) {
            report.tracked_stores += tr.tracked;
            for (buf, index, first, second) in tr.conflicts {
                let decl = &kp.buffers[buf.0 as usize];
                report.conflicts.push(WriteConflict {
                    kernel: kernel.name.clone(),
                    buffer: decl.name.clone(),
                    array: decl.array,
                    index,
                    first_tid: first,
                    second_tid: second,
                });
            }
        }
    }

    let mut arrays = HashMap::new();
    for (decl, buf) in kp.buffers.iter().zip(&mut buffers) {
        if let Some(a) = decl.array {
            arrays.insert(a, std::mem::take(&mut buf.data));
        }
    }
    Ok((
        SimResult {
            arrays,
            names,
            shapes,
            costs,
            times,
            total_seconds: total,
        },
        san_report,
    ))
}

/// Emit the per-kernel slice, per-pipe breakdown, and counter samples on the
/// simulated-GPU trace lane ([`trace::PID_SIM`], microsecond timestamps).
fn emit_kernel_timeline(
    gpu: &GpuSpec,
    name: &str,
    start_s: f64,
    shape: &LaunchShape,
    cost: &KernelCost,
    t: &KernelTime,
) {
    let ts = start_s * 1e6;
    let eff = Efficiency::of(gpu, shape, cost);
    trace::emit(
        trace::Event::instant("sim", "launch")
            .at(ts)
            .on_pid(trace::PID_SIM)
            .arg("kernel", name.to_string())
            .arg("blocks", shape.blocks)
            .arg("block_threads", u64::from(shape.block_threads))
            .arg("smem_bytes", u64::from(shape.smem_bytes)),
    );
    trace::emit(
        trace::Event::complete("sim", name.to_string(), ts, t.total * 1e6)
            .arg("bound_by", BoundBy::classify(t).label())
            .arg("blocks", shape.blocks)
            .arg("block_threads", u64::from(shape.block_threads))
            .arg("smem_bytes", u64::from(shape.smem_bytes))
            .arg("tx_per_request", eff.transactions_per_request)
            .arg("conflicts_per_access", eff.conflicts_per_access)
            .arg("resident_warps", u64::from(eff.resident_warps))
            .arg("warp_instr", cost.warp_instr)
            .arg("mem_requests", cost.mem_requests)
            .arg("transactions", cost.transactions)
            .arg("dram_bytes", cost.dram_bytes)
            .arg("smem_accesses", cost.smem_accesses)
            .arg("smem_conflicts", cost.smem_conflicts)
            .arg("syncs", cost.syncs)
            .arg("mallocs", cost.mallocs)
            .arg("atomic_serial", cost.atomic_serial)
            .arg("child_launches", cost.child_launches)
            .arg("child_blocks", cost.child_blocks),
    );
    // Per-pipe roofline terms as parallel sub-tracks: the tallest slice is
    // the one the kernel is bound by.
    let pipes: [(&'static str, u32, f64); 4] = [
        ("issue", 1, t.issue),
        ("bandwidth", 2, t.bandwidth),
        ("latency", 3, t.latency),
        ("overhead+malloc", 4, t.overhead + t.malloc),
    ];
    for (pipe, tid, dur) in pipes {
        if dur > 0.0 {
            trace::emit(trace::Event::complete("sim.pipe", pipe, ts, dur * 1e6).on_tid(tid));
        }
    }
    trace::emit(trace::Event::counter("sim", "dram_bytes", ts).arg("bytes", cost.dram_bytes));
}

const W: usize = WARP_SIZE as usize;
type Lanes = [f64; W];
type Mask = u32;

/// Where an operand's lane values come from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Decode-time constant, the same in every lane.
    Const(f64),
    /// Warp-uniform scalar register.
    Uni(u16),
    /// Lane register.
    Reg(u16),
    /// A thread-local variable.
    Local(u32),
    /// `threadIdx` along an axis, read from the kernel's lane tables.
    Tid(u8),
}

impl Src {
    fn is_uniform(self) -> bool {
        matches!(self, Src::Const(_) | Src::Uni(_))
    }
}

/// One decoded expression node. `Bid`, `Gdim`, `WarpTid` (`threadIdx`
/// along an axis that is constant across each warp) and the `U*` ops
/// compute a warp-uniform scalar once; the others write a lane register.
#[derive(Debug, Clone, Copy)]
enum Op {
    Bid { dst: u16, axis: u8 },
    WarpTid { dst: u16, axis: u8 },
    Gdim { dst: u16, axis: u8 },
    UBin { dst: u16, op: BinOp, a: Src, b: Src },
    UUn { dst: u16, op: UnOp, a: Src },
    USelect { dst: u16, c: Src, t: Src, f: Src },
    Bin { dst: u16, op: BinOp, a: Src, b: Src },
    Un { dst: u16, op: UnOp, a: Src },
    Select { dst: u16, c: Src, t: Src, f: Src },
    Load { dst: u16, buf: u32, idx: Src },
    SmemLoad { dst: u16, arr: u32, idx: Src },
}

/// A decoded expression: `ops[start..end]` in post order, leaving the
/// value in `out`. Evaluating it charges `charge` warp instructions — the
/// node count of the source tree, folded nodes included.
#[derive(Debug, Clone, Copy)]
struct DExpr {
    start: u32,
    end: u32,
    out: Src,
    charge: u64,
}

/// A decoded statement. `For`/`If` record whether their bodies contain a
/// barrier (block-lockstep execution), computed once at decode time.
#[derive(Debug)]
enum DStmt {
    Assign {
        dst: u32,
        value: DExpr,
    },
    Store {
        buf: BufId,
        idx: DExpr,
        value: DExpr,
    },
    Atomic {
        buf: BufId,
        idx: DExpr,
        op: ReduceOp,
        value: DExpr,
        capture: Option<u32>,
    },
    SmemStore {
        arr: u32,
        idx: DExpr,
        value: DExpr,
    },
    For {
        var: u32,
        start: DExpr,
        end: DExpr,
        step: DExpr,
        body: Vec<DStmt>,
        sync: bool,
    },
    Break,
    If {
        cond: DExpr,
        then: Vec<DStmt>,
        els: Vec<DStmt>,
        sync: bool,
    },
    Sync,
    Malloc {
        bytes: DExpr,
    },
    Launch {
        kernel: u32,
        extent: DExpr,
        args: Vec<DExpr>,
    },
}

impl DStmt {
    fn has_sync(&self) -> bool {
        match self {
            DStmt::Sync => true,
            DStmt::For { sync, .. } | DStmt::If { sync, .. } => *sync,
            _ => false,
        }
    }
}

/// A kernel decoded for one [`run_program`] call.
struct Decoded {
    name: String,
    /// Launch grid with sizes resolved (child grids are set per launch).
    grid: [u64; 3],
    /// Threads per block (at least 1).
    threads: u32,
    warps: u32,
    /// Does the body contain a barrier?
    lockstep: bool,
    locals: usize,
    smem: Vec<usize>,
    body: Vec<DStmt>,
    ops: Vec<Op>,
    /// Lane and scalar registers the largest statement needs.
    regs: usize,
    uregs: usize,
    /// `threadIdx.{x,y,z}` for every thread slot, padded to whole warps.
    tid: [Vec<f64>; 3],
}

impl Decoded {
    fn new(k: &Kernel, bindings: &Bindings) -> Decoded {
        let threads = k.block_threads().max(1);
        let warps = threads.div_ceil(WARP_SIZE);
        let (dx, dy) = (k.block[0].max(1), k.block[1].max(1));
        let slots = 0..warps * WARP_SIZE;
        let tid = [
            slots.clone().map(|t| (t % dx) as f64).collect(),
            slots.clone().map(|t| ((t / dx) % dy) as f64).collect(),
            slots.map(|t| (t / (dx * dy)) as f64).collect(),
        ];
        let mut d = Decoder {
            bindings,
            block: k.block,
            ops: Vec::new(),
            regs: 0,
            uregs: 0,
            max_regs: 0,
            max_uregs: 0,
        };
        let body = d.stmts(&k.body);
        Decoded {
            name: k.name.clone(),
            grid: [0, 1, 2].map(|a| k.grid[a].eval(bindings).max(1) as u64),
            threads,
            warps,
            lockstep: body.iter().any(DStmt::has_sync),
            locals: k.locals as usize,
            smem: k.smem.iter().map(|s| s.len as usize).collect(),
            body,
            ops: d.ops,
            regs: d.max_regs,
            uregs: d.max_uregs,
            tid,
        }
    }
}

struct Decoder<'b> {
    bindings: &'b Bindings,
    block: [u32; 3],
    ops: Vec<Op>,
    /// Registers handed out within the current statement.
    regs: usize,
    uregs: usize,
    max_regs: usize,
    max_uregs: usize,
}

impl Decoder<'_> {
    fn stmts(&mut self, stmts: &[Stmt]) -> Vec<DStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    /// Registers are numbered per statement: every value a statement
    /// evaluates stays live until the statement consumes it, while nested
    /// statements run only after their parent's values are consumed.
    fn stmt(&mut self, s: &Stmt) -> DStmt {
        self.regs = 0;
        self.uregs = 0;
        match s {
            Stmt::Assign { dst, value } => DStmt::Assign {
                dst: *dst,
                value: self.expr(value),
            },
            Stmt::Store { buf, idx, value } => DStmt::Store {
                buf: *buf,
                idx: self.expr(idx),
                value: self.expr(value),
            },
            Stmt::AtomicRmw {
                buf,
                idx,
                op,
                value,
                capture,
            } => DStmt::Atomic {
                buf: *buf,
                idx: self.expr(idx),
                op: *op,
                value: self.expr(value),
                capture: *capture,
            },
            Stmt::SmemStore { arr, idx, value } => DStmt::SmemStore {
                arr: *arr,
                idx: self.expr(idx),
                value: self.expr(value),
            },
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let (start, end, step) = (self.expr(start), self.expr(end), self.expr(step));
                let body = self.stmts(body);
                DStmt::For {
                    var: *var,
                    start,
                    end,
                    step,
                    sync: body.iter().any(DStmt::has_sync),
                    body,
                }
            }
            Stmt::Break => DStmt::Break,
            Stmt::If { cond, then, els } => {
                let cond = self.expr(cond);
                let then = self.stmts(then);
                let els = self.stmts(els);
                DStmt::If {
                    cond,
                    sync: then.iter().chain(&els).any(DStmt::has_sync),
                    then,
                    els,
                }
            }
            Stmt::Sync => DStmt::Sync,
            Stmt::DeviceMalloc { bytes } => DStmt::Malloc {
                bytes: self.expr(bytes),
            },
            Stmt::ChildLaunch {
                kernel,
                extent,
                args,
            } => DStmt::Launch {
                kernel: *kernel,
                extent: self.expr(extent),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
        }
    }

    fn expr(&mut self, e: &KExpr) -> DExpr {
        let start = self.ops.len() as u32;
        let mut charge = 0;
        let out = self.node(e, &mut charge);
        DExpr {
            start,
            end: self.ops.len() as u32,
            out,
            charge,
        }
    }

    /// Append `make(dst)` writing a fresh scalar (`uniform`) or lane
    /// register `dst`.
    fn push(&mut self, uniform: bool, make: impl FnOnce(u16) -> Op) -> Src {
        let (next, max) = if uniform {
            (&mut self.uregs, &mut self.max_uregs)
        } else {
            (&mut self.regs, &mut self.max_regs)
        };
        let dst = u16::try_from(*next).expect("statement exceeds the register file");
        *next += 1;
        *max = (*max).max(*next);
        self.ops.push(make(dst));
        if uniform {
            Src::Uni(dst)
        } else {
            Src::Reg(dst)
        }
    }

    fn node(&mut self, e: &KExpr, charge: &mut u64) -> Src {
        *charge += 1;
        match e {
            KExpr::Imm(v) => Src::Const(*v),
            KExpr::SizeVal(s) => Src::Const(s.eval(self.bindings) as f64),
            KExpr::Bdim(a) => Src::Const(f64::from(self.block[a.index()])),
            KExpr::Local(x) => Src::Local(*x),
            KExpr::Tid(a) => {
                // `threadIdx` along a unit axis is 0 on every thread, and
                // along an axis whose lower axes fill whole warps it is
                // the same on every lane of a warp (padding lanes beyond
                // the block are never observed).
                let axis = a.index() as u8;
                let [dx, dy, dz] = self.block.map(|d| d.max(1));
                let (extent, below) = [(dx, 1), (dy, dx), (dz, dx * dy)][a.index()];
                if extent == 1 {
                    Src::Const(0.0)
                } else if below % WARP_SIZE == 0 {
                    self.push(true, |dst| Op::WarpTid { dst, axis })
                } else {
                    Src::Tid(axis)
                }
            }
            KExpr::Bid(a) => {
                let axis = a.index() as u8;
                self.push(true, |dst| Op::Bid { dst, axis })
            }
            KExpr::Gdim(a) => {
                let axis = a.index() as u8;
                self.push(true, |dst| Op::Gdim { dst, axis })
            }
            KExpr::Load { buf, idx } => {
                let idx = self.node(idx, charge);
                self.push(false, |dst| Op::Load {
                    dst,
                    buf: buf.0,
                    idx,
                })
            }
            KExpr::SmemLoad { arr, idx } => {
                let idx = self.node(idx, charge);
                self.push(false, |dst| Op::SmemLoad {
                    dst,
                    arr: *arr,
                    idx,
                })
            }
            KExpr::Bin(op, x, y) => {
                let (op, a, b) = (*op, self.node(x, charge), self.node(y, charge));
                if let (Src::Const(x), Src::Const(y)) = (a, b) {
                    return Src::Const(apply_bin(op, x, y));
                }
                let uniform = a.is_uniform() && b.is_uniform();
                self.push(uniform, |dst| match uniform {
                    true => Op::UBin { dst, op, a, b },
                    false => Op::Bin { dst, op, a, b },
                })
            }
            KExpr::Un(op, x) => {
                let (op, a) = (*op, self.node(x, charge));
                if let Src::Const(x) = a {
                    return Src::Const(apply_un(op, x));
                }
                let uniform = a.is_uniform();
                self.push(uniform, |dst| match uniform {
                    true => Op::UUn { dst, op, a },
                    false => Op::Un { dst, op, a },
                })
            }
            KExpr::Select(c, t, f) => {
                let (c, t, f) = (
                    self.node(c, charge),
                    self.node(t, charge),
                    self.node(f, charge),
                );
                if let (Src::Const(c), Src::Const(t), Src::Const(f)) = (c, t, f) {
                    return Src::Const(if c != 0.0 { t } else { f });
                }
                let uniform = c.is_uniform() && t.is_uniform() && f.is_uniform();
                self.push(uniform, |dst| match uniform {
                    true => Op::USelect { dst, c, t, f },
                    false => Op::Select { dst, c, t, f },
                })
            }
        }
    }
}

/// One device-side launch recorded during parent execution. Child grids
/// run after the parent kernel's body completes (fire-and-forget), in
/// launch order — deterministic, and matching the guarantee the lowering
/// relies on (parents never read child output within the same kernel).
#[derive(Debug, Clone)]
struct PendingLaunch {
    /// Index into `KernelProgram::children`.
    kernel: u32,
    /// Requested child threads (grid = `ceil(extent / block)`).
    extent: u64,
    /// Evaluated launch arguments → child locals `0..n` (all threads).
    args: Vec<f64>,
}

/// Read-only view of everything an operand can name, for one warp.
struct Operands<'s> {
    regs: &'s [Lanes],
    uregs: &'s [f64],
    locals: &'s [f64],
    /// Distance between consecutive locals in `locals`.
    stride: usize,
    tid: &'s [Vec<f64>; 3],
    /// First thread slot of the warp.
    wb: usize,
}

/// An operand's value: per-lane, or one warp-uniform scalar.
#[derive(Clone, Copy)]
enum Val<'t> {
    Lanes(&'t Lanes),
    Splat(f64),
}

impl<'t> Val<'t> {
    /// Per-lane values, broadcasting a scalar into `tmp`.
    #[inline]
    fn lanes(self, tmp: &'t mut Lanes) -> &'t Lanes {
        match self {
            Val::Lanes(v) => v,
            Val::Splat(s) => {
                *tmp = [s; W];
                tmp
            }
        }
    }
}

impl Operands<'_> {
    #[inline]
    fn get(&self, src: Src) -> Val<'_> {
        match src {
            Src::Reg(r) => Val::Lanes(&self.regs[r as usize]),
            Src::Local(x) => {
                Val::Lanes(lane_slice(self.locals, x as usize * self.stride + self.wb))
            }
            Src::Tid(a) => Val::Lanes(lane_slice(&self.tid[a as usize], self.wb)),
            Src::Uni(r) => Val::Splat(self.uregs[r as usize]),
            Src::Const(v) => Val::Splat(v),
        }
    }
}

#[inline]
fn lane_slice(v: &[f64], at: usize) -> &Lanes {
    v[at..at + W].try_into().expect("lane-aligned slice")
}

/// The value of a uniform operand.
#[inline]
fn uniform(uregs: &[f64], src: Src) -> f64 {
    match src {
        Src::Const(v) => v,
        Src::Uni(r) => uregs[r as usize],
        _ => unreachable!("uniform op over a per-lane operand"),
    }
}

/// Lane values an operator reads: a lane vector or a broadcast scalar
/// (kept in a register instead of memory).
trait LaneVals: Copy {
    fn at(self, l: usize) -> f64;
}

impl LaneVals for &Lanes {
    #[inline(always)]
    fn at(self, l: usize) -> f64 {
        self[l]
    }
}

impl LaneVals for f64 {
    #[inline(always)]
    fn at(self, _: usize) -> f64 {
        self
    }
}

/// `out[l] = x[l] op y[l]` over all lanes, one loop per operator.
#[inline(always)]
fn bin_lanes<A: LaneVals, B: LaneVals>(op: BinOp, x: A, y: B, out: &mut Lanes) {
    macro_rules! each {
        ($op:expr) => {
            for (l, o) in out.iter_mut().enumerate() {
                *o = apply_bin($op, x.at(l), y.at(l));
            }
        };
    }
    match op {
        BinOp::Add => each!(BinOp::Add),
        BinOp::Sub => each!(BinOp::Sub),
        BinOp::Mul => each!(BinOp::Mul),
        BinOp::Div => each!(BinOp::Div),
        BinOp::Rem => each!(BinOp::Rem),
        BinOp::Min => each!(BinOp::Min),
        BinOp::Max => each!(BinOp::Max),
        BinOp::Lt => each!(BinOp::Lt),
        BinOp::Le => each!(BinOp::Le),
        BinOp::Gt => each!(BinOp::Gt),
        BinOp::Ge => each!(BinOp::Ge),
        BinOp::Eq => each!(BinOp::Eq),
        BinOp::Ne => each!(BinOp::Ne),
        BinOp::And => each!(BinOp::And),
        BinOp::Or => each!(BinOp::Or),
    }
}

/// `out[l] = op x[l]` over all lanes, one loop per operator.
fn un_lanes(op: UnOp, x: &Lanes, out: &mut Lanes) {
    macro_rules! each {
        ($op:expr) => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = apply_un($op, v);
            }
        };
    }
    match op {
        UnOp::Neg => each!(UnOp::Neg),
        UnOp::Not => each!(UnOp::Not),
        UnOp::Sqrt => each!(UnOp::Sqrt),
        UnOp::Exp => each!(UnOp::Exp),
        UnOp::Log => each!(UnOp::Log),
        UnOp::Abs => each!(UnOp::Abs),
        UnOp::Floor => each!(UnOp::Floor),
    }
}

/// The lanes (of all 32; callers mask) where `v` is non-zero.
#[inline]
fn nonzero(v: Val<'_>) -> Mask {
    match v {
        Val::Splat(s) => {
            if s != 0.0 {
                Mask::MAX
            } else {
                0
            }
        }
        Val::Lanes(v) => {
            let mut m = 0;
            for (l, x) in v.iter().enumerate() {
                m |= Mask::from(*x != 0.0) << l;
            }
            m
        }
    }
}

/// Execution state of one grid launch. Block state (locals, shared
/// memory) and the per-warp registers are allocated once and reset
/// between blocks.
struct Exec<'a> {
    gpu: &'a GpuSpec,
    k: &'a Decoded,
    grid: [u64; 3],
    buffers: &'a mut [DeviceBuffer],
    cost: KernelCost,
    /// Sanitizer hook: records every non-atomic global store when set.
    san: Option<&'a mut WriteTracker>,
    /// Child launches issued by this grid, drained by the caller.
    pending: &'a mut Vec<PendingLaunch>,
    /// Offset added to sanitizer thread ids: child grids must not collide
    /// with parent threads (or with other child grids) in the write
    /// tracker, since they all belong to one launch epoch.
    tid_base: u64,
    /// Launch arguments (child grids only): values for locals `0..n`,
    /// uniform across every thread of the grid.
    launch_args: &'a [f64],
    bid: [u32; 3],
    /// `locals[local * stride + thread]`, `stride` = whole warps of
    /// threads, so every warp's lanes are in bounds.
    locals: Vec<f64>,
    stride: usize,
    smem: Vec<Vec<f64>>,
    regs: Vec<Lanes>,
    uregs: Vec<f64>,
    /// Broadcast scratch for uniform operands of lane ops.
    bcast: [Lanes; 3],
}

impl<'a> Exec<'a> {
    fn new(
        gpu: &'a GpuSpec,
        k: &'a Decoded,
        grid: [u64; 3],
        buffers: &'a mut [DeviceBuffer],
        san: Option<&'a mut WriteTracker>,
        pending: &'a mut Vec<PendingLaunch>,
    ) -> Exec<'a> {
        let stride = k.warps as usize * W;
        Exec {
            gpu,
            k,
            grid,
            buffers,
            cost: KernelCost::default(),
            san,
            pending,
            tid_base: 0,
            launch_args: &[],
            bid: [0; 3],
            locals: vec![0.0; k.locals * stride],
            stride,
            smem: k.smem.iter().map(|&n| vec![0.0; n]).collect(),
            regs: vec![[0.0; W]; k.regs],
            uregs: vec![0.0; k.uregs],
            bcast: [[0.0; W]; 3],
        }
    }

    /// Run all blocks; returns the number of blocks launched.
    fn run(&mut self) -> Result<u64, SimError> {
        let k = self.k;
        let g = self.grid;
        let threads = k.threads as usize;
        for bz in 0..g[2] {
            for by in 0..g[1] {
                for bx in 0..g[0] {
                    self.bid = [bx as u32, by as u32, bz as u32];
                    self.locals.fill(0.0);
                    for s in &mut self.smem {
                        s.fill(0.0);
                    }
                    // Child grids: launch arguments arrive as the leading
                    // locals, identical for every thread of the block.
                    for (a, &v) in self.launch_args.iter().enumerate() {
                        let at = a * self.stride;
                        self.locals[at..at + threads].fill(v);
                    }
                    if k.lockstep {
                        self.exec_block(&k.body)?;
                    } else {
                        for w in 0..k.warps {
                            self.exec_warp(&k.body, w, full_mask(k.threads, w))?;
                        }
                    }
                }
            }
        }
        Ok(g[0] * g[1] * g[2])
    }

    /// Block-lockstep execution (statements with internal `Sync`).
    fn exec_block(&mut self, stmts: &[DStmt]) -> Result<(), SimError> {
        let k = self.k;
        for s in stmts {
            match s {
                DStmt::Sync => self.cost.syncs += u64::from(k.warps),
                DStmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                    sync: true,
                } => {
                    // Bounds must be block-uniform: evaluate on warp 0 lane 0.
                    let s0 = self.eval_scalar(start)?;
                    let step0 = self.eval_scalar(step)?;
                    if step0 <= 0.0 {
                        return Err(SimError("non-positive uniform loop step".into()));
                    }
                    let mut v = s0;
                    loop {
                        let e0 = self.eval_scalar(end)?;
                        if v >= e0 {
                            break;
                        }
                        let at = *var as usize * self.stride;
                        self.locals[at..at + k.threads as usize].fill(v);
                        self.exec_block(body)?;
                        v += step0;
                    }
                }
                DStmt::If {
                    cond,
                    then,
                    els,
                    sync: true,
                } => {
                    let c = self.eval_scalar(cond)?;
                    if c != 0.0 {
                        self.exec_block(then)?;
                    } else {
                        self.exec_block(els)?;
                    }
                }
                _ => {
                    for w in 0..k.warps {
                        let mask = full_mask(k.threads, w);
                        let broken = self.exec_warp(std::slice::from_ref(s), w, mask)?;
                        debug_assert_eq!(broken, 0, "break escaping to block level");
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-warp masked execution; returns the set of lanes that executed
    /// `Break`.
    fn exec_warp(&mut self, stmts: &[DStmt], warp: u32, mut mask: Mask) -> Result<Mask, SimError> {
        let wb = warp as usize * W;
        let mut broken: Mask = 0;
        for s in stmts {
            if mask == 0 {
                break;
            }
            match s {
                DStmt::Assign { dst, value } => {
                    let v = self.eval(value, wb, mask)?;
                    let v = self.values(v, wb);
                    self.write_local(*dst, wb, mask, &v);
                }
                DStmt::Store { buf, idx, value } => {
                    let v = self.eval(value, wb, mask)?;
                    let ix = self.eval(idx, wb, mask)?;
                    let (v, ix) = (self.values(v, wb), self.values(ix, wb));
                    self.store(*buf, &ix, &v, mask, warp)?;
                }
                DStmt::Atomic {
                    buf,
                    idx,
                    op,
                    value,
                    capture,
                } => {
                    let v = self.eval(value, wb, mask)?;
                    let ix = self.eval(idx, wb, mask)?;
                    let (v, ix) = (self.values(v, wb), self.values(ix, wb));
                    let old = self.atomic(*buf, &ix, mask, &v, *op)?;
                    if let Some(c) = capture {
                        self.write_local(*c, wb, mask, &old);
                    }
                }
                DStmt::SmemStore { arr, idx, value } => {
                    let v = self.eval(value, wb, mask)?;
                    let ix = self.eval(idx, wb, mask)?;
                    let (v, ix) = (self.values(v, wb), self.values(ix, wb));
                    let s = &mut self.smem[*arr as usize];
                    let mut words = [0u64; W];
                    let mut n = 0usize;
                    for l in lanes(mask) {
                        let i = to_index(ix[l], s.len(), "shared store")?;
                        words[n] = i as u64;
                        n += 1;
                        s[i] = v[l];
                    }
                    self.smem_cost(&words[..n]);
                }
                DStmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                    ..
                } => {
                    let sv = self.eval(start, wb, mask)?;
                    let sv = self.values(sv, wb);
                    self.write_local(*var, wb, mask, &sv);
                    let at = *var as usize * self.stride + wb;
                    let mut active = mask;
                    loop {
                        // cond: var < end
                        let ev = self.eval(end, wb, active)?;
                        let ev = self.values(ev, wb);
                        self.cost.warp_instr += 1;
                        let cur = lane_slice(&self.locals, at);
                        let mut next: Mask = 0;
                        for l in 0..W {
                            next |= Mask::from(cur[l] < ev[l]) << l;
                        }
                        next &= active;
                        if next == 0 {
                            break;
                        }
                        let b = self.exec_warp(body, warp, next)?;
                        let cont = next & !b;
                        if cont == 0 {
                            break;
                        }
                        let stv = self.eval(step, wb, cont)?;
                        let stv = self.values(stv, wb);
                        let cur = &mut self.locals[at..at + W];
                        for l in lanes(cont) {
                            cur[l] += stv[l];
                        }
                        active = cont;
                    }
                }
                DStmt::Break => {
                    broken |= mask;
                    mask = 0;
                }
                DStmt::If {
                    cond, then, els, ..
                } => {
                    let c = self.eval(cond, wb, mask)?;
                    let tmask = mask & nonzero(self.operands(wb).get(c));
                    let emask = mask & !tmask;
                    let mut b = 0;
                    if tmask != 0 {
                        b |= self.exec_warp(then, warp, tmask)?;
                    }
                    if emask != 0 {
                        b |= self.exec_warp(els, warp, emask)?;
                    }
                    broken |= b;
                    mask &= !b;
                }
                DStmt::Sync => {
                    // A sync reached in per-warp mode is only legal when the
                    // kernel has no cross-warp dependence (single-warp
                    // blocks); treat as a cost event.
                    self.cost.syncs += 1;
                }
                DStmt::Malloc { bytes } => {
                    self.eval(bytes, wb, mask)?;
                    self.cost.mallocs += u64::from(mask.count_ones());
                    self.cost.warp_instr += 1;
                }
                DStmt::Launch {
                    kernel,
                    extent,
                    args,
                } => {
                    let ev = self.eval(extent, wb, mask)?;
                    let ev = self.values(ev, wb);
                    let mut av: Vec<Lanes> = Vec::with_capacity(args.len());
                    for a in args {
                        let v = self.eval(a, wb, mask)?;
                        av.push(self.values(v, wb));
                    }
                    for l in lanes(mask) {
                        let e = ev[l];
                        if e.fract() != 0.0 || e < 0.0 {
                            return Err(SimError(format!(
                                "child launch extent {e} is not a non-negative integer"
                            )));
                        }
                        // `extent ≤ 0` launches nothing (common guard-free
                        // form; real CDP would launch an empty grid).
                        if e < 1.0 {
                            continue;
                        }
                        self.cost.child_launches += 1;
                        self.pending.push(PendingLaunch {
                            kernel: *kernel,
                            extent: e as u64,
                            args: av.iter().map(|vals| vals[l]).collect(),
                        });
                    }
                }
            }
            self.cost.warp_instr += 1;
        }
        Ok(broken)
    }

    /// Evaluate `e` for the active lanes of the warp starting at thread
    /// slot `wb`; returns where the value lives.
    fn eval(&mut self, e: &DExpr, wb: usize, mask: Mask) -> Result<Src, SimError> {
        self.cost.warp_instr += e.charge;
        let k = self.k;
        for op in &k.ops[e.start as usize..e.end as usize] {
            self.op(*op, wb, mask)?;
        }
        Ok(e.out)
    }

    fn op(&mut self, op: Op, wb: usize, mask: Mask) -> Result<(), SimError> {
        let dst = match op {
            Op::Bid { dst, axis } => {
                self.uregs[dst as usize] = f64::from(self.bid[axis as usize]);
                return Ok(());
            }
            Op::WarpTid { dst, axis } => {
                self.uregs[dst as usize] = self.k.tid[axis as usize][wb];
                return Ok(());
            }
            Op::Gdim { dst, axis } => {
                self.uregs[dst as usize] = self.grid[axis as usize] as f64;
                return Ok(());
            }
            Op::UBin { dst, op, a, b } => {
                let v = apply_bin(op, uniform(&self.uregs, a), uniform(&self.uregs, b));
                self.uregs[dst as usize] = v;
                return Ok(());
            }
            Op::UUn { dst, op, a } => {
                self.uregs[dst as usize] = apply_un(op, uniform(&self.uregs, a));
                return Ok(());
            }
            Op::USelect { dst, c, t, f } => {
                let u = &self.uregs;
                let v = if uniform(u, c) != 0.0 {
                    uniform(u, t)
                } else {
                    uniform(u, f)
                };
                self.uregs[dst as usize] = v;
                return Ok(());
            }
            Op::Bin { dst, .. }
            | Op::Un { dst, .. }
            | Op::Select { dst, .. }
            | Op::Load { dst, .. }
            | Op::SmemLoad { dst, .. } => dst as usize,
        };
        // Registers are assigned in post order, so every operand register
        // is below the destination.
        let (lo, hi) = self.regs.split_at_mut(dst);
        let out = &mut hi[0];
        let v = Operands {
            regs: lo,
            uregs: &self.uregs,
            locals: &self.locals,
            stride: self.stride,
            tid: &self.k.tid,
            wb,
        };
        let [t0, t1, t2] = &mut self.bcast;
        match op {
            Op::Bin { op, a, b, .. } => match (v.get(a), v.get(b)) {
                (Val::Lanes(x), Val::Lanes(y)) => bin_lanes(op, x, y, out),
                (Val::Lanes(x), Val::Splat(y)) => bin_lanes(op, x, y, out),
                (Val::Splat(x), Val::Lanes(y)) => bin_lanes(op, x, y, out),
                (Val::Splat(x), Val::Splat(y)) => *out = [apply_bin(op, x, y); W],
            },
            Op::Un { op, a, .. } => un_lanes(op, v.get(a).lanes(t0), out),
            Op::Select { c, t, f, .. } => {
                let (c, t, f) = (v.get(c).lanes(t0), v.get(t).lanes(t1), v.get(f).lanes(t2));
                for (l, o) in out.iter_mut().enumerate() {
                    *o = if c[l] != 0.0 { t[l] } else { f[l] };
                }
            }
            Op::Load { buf, idx, .. } => {
                let ix = v.get(idx).lanes(t0);
                let b = &self.buffers[buf as usize];
                let mut addrs = [0u64; W];
                let mut n = 0usize;
                for l in lanes(mask) {
                    let i = to_index(ix[l], b.data.len(), "global access")?;
                    addrs[n] = b.base + i as u64 * b.elem_bytes;
                    n += 1;
                    out[l] = b.data[i];
                }
                charge_global(self.gpu, &mut self.cost, &addrs[..n]);
            }
            Op::SmemLoad { arr, idx, .. } => {
                let ix = v.get(idx).lanes(t0);
                let s = &self.smem[arr as usize];
                let mut words = [0u64; W];
                let mut n = 0usize;
                for l in lanes(mask) {
                    let i = to_index(ix[l], s.len(), "shared load")?;
                    words[n] = i as u64;
                    n += 1;
                    out[l] = s[i];
                }
                self.smem_cost(&words[..n]);
            }
            _ => unreachable!("scalar ops return early"),
        }
        Ok(())
    }

    /// A copy of `src`'s lane values (statements consume values while
    /// writing locals, so they take them by value).
    fn values(&self, src: Src, wb: usize) -> Lanes {
        match self.operands(wb).get(src) {
            Val::Lanes(v) => *v,
            Val::Splat(s) => [s; W],
        }
    }

    fn operands(&self, wb: usize) -> Operands<'_> {
        Operands {
            regs: &self.regs,
            uregs: &self.uregs,
            locals: &self.locals,
            stride: self.stride,
            tid: &self.k.tid,
            wb,
        }
    }

    fn write_local(&mut self, local: u32, wb: usize, mask: Mask, v: &Lanes) {
        let at = local as usize * self.stride + wb;
        let slot = &mut self.locals[at..at + W];
        if mask == Mask::MAX {
            slot.copy_from_slice(v);
        } else {
            for l in lanes(mask) {
                slot[l] = v[l];
            }
        }
    }

    /// Evaluate a (block-uniform) expression on warp 0, lane 0.
    fn eval_scalar(&mut self, e: &DExpr) -> Result<f64, SimError> {
        let src = self.eval(e, 0, 1)?;
        Ok(match self.operands(0).get(src) {
            Val::Lanes(v) => v[0],
            Val::Splat(s) => s,
        })
    }

    /// One warp's global store: every active lane's index is checked
    /// before any lane writes; lanes write (and are recorded by the
    /// sanitizer) in ascending order.
    fn store(
        &mut self,
        buf: BufId,
        ix: &Lanes,
        v: &Lanes,
        mask: Mask,
        warp: u32,
    ) -> Result<(), SimError> {
        let b = &mut self.buffers[buf.0 as usize];
        let mut idx = [0usize; W];
        let mut addrs = [0u64; W];
        let mut n = 0usize;
        for l in lanes(mask) {
            let i = to_index(ix[l], b.data.len(), "global access")?;
            idx[n] = i;
            addrs[n] = b.base + i as u64 * b.elem_bytes;
            n += 1;
        }
        for (l, &i) in lanes(mask).zip(&idx) {
            b.data[i] = v[l];
        }
        charge_global(self.gpu, &mut self.cost, &addrs[..n]);
        if let Some(tracker) = self.san.as_mut() {
            let g = self.grid;
            let bid = self.bid;
            let blk_lin = (u64::from(bid[2]) * g[1] + u64::from(bid[1])) * g[0] + u64::from(bid[0]);
            let base_tid =
                self.tid_base + blk_lin * u64::from(self.k.threads) + u64::from(warp * WARP_SIZE);
            for (l, &i) in lanes(mask).zip(&idx) {
                tracker.record(buf, i as u64, base_tid + l as u64);
            }
        }
        Ok(())
    }

    /// Atomic read-modify-write per lane (program order within the warp);
    /// returns pre-update values.
    fn atomic(
        &mut self,
        buf: BufId,
        ix: &Lanes,
        mask: Mask,
        v: &Lanes,
        op: ReduceOp,
    ) -> Result<Lanes, SimError> {
        let b = &mut self.buffers[buf.0 as usize];
        let mut old = [0.0; W];
        let mut addrs = [0u64; W];
        let mut n = 0usize;
        for l in lanes(mask) {
            let i = to_index(ix[l], b.data.len(), "atomic")?;
            addrs[n] = b.base + i as u64 * b.elem_bytes;
            n += 1;
            old[l] = b.data[i];
            b.data[i] = op.apply(b.data[i], v[l]);
        }
        let addrs = &addrs[..n];
        charge_global(self.gpu, &mut self.cost, addrs);
        // Contention: lanes beyond the first hitting the same address
        // serialize.
        let distinct = (0..n).filter(|&i| !addrs[..i].contains(&addrs[i])).count();
        self.cost.atomic_serial += (n - distinct) as u64;
        Ok(old)
    }

    fn smem_cost(&mut self, words: &[u64]) {
        self.cost.smem_accesses += 1;
        self.cost.smem_conflicts += bank_conflicts(self.gpu.smem_banks, words);
    }
}

/// Charge one warp-level global request touching `addrs`.
fn charge_global(gpu: &GpuSpec, cost: &mut KernelCost, addrs: &[u64]) {
    let (tx, bytes) = coalesce(gpu, addrs);
    cost.mem_requests += 1;
    cost.transactions += tx;
    cost.dram_bytes += bytes;
}

fn full_mask(threads: u32, warp: u32) -> Mask {
    let start = warp * WARP_SIZE;
    let count = threads.saturating_sub(start).min(WARP_SIZE);
    if count == 0 {
        0
    } else if count == 32 {
        u32::MAX
    } else {
        (1u32 << count) - 1
    }
}

/// The set lanes of `mask`, ascending.
#[inline]
fn lanes(mut mask: Mask) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// Check a lane's index value against a buffer of `len` elements.
#[inline]
fn to_index(v: f64, len: usize, what: &str) -> Result<usize, SimError> {
    // Fast path: `v` is an integer in `0..len` exactly when truncating it
    // round-trips and lands in range.
    let i = v as i64;
    if i as f64 == v && i >= 0 && (i as usize) < len {
        return Ok(i as usize);
    }
    index_error(v, len, what)
}

#[cold]
fn index_error(v: f64, len: usize, what: &str) -> Result<usize, SimError> {
    if !v.is_finite() || v.fract() != 0.0 {
        return Err(SimError(format!("{what}: non-integral index {v}")));
    }
    let i = v as i64;
    if i < 0 || i as usize >= len {
        return Err(SimError(format!(
            "{what}: index {i} out of bounds (len {len})"
        )));
    }
    Ok(i as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidim_codegen::{Axis, BufferDecl, SmemDecl};
    use multidim_ir::Size;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    fn one_buffer_prog(len: i64, kernel: Kernel) -> KernelProgram {
        KernelProgram {
            name: "t".into(),
            buffers: vec![
                BufferDecl {
                    name: "in".into(),
                    elem_bytes: 4,
                    len: Size::from(len),
                    init: BufferInit::FromArray(ArrayId(0)),
                    array: Some(ArrayId(0)),
                },
                BufferDecl {
                    name: "out".into(),
                    elem_bytes: 4,
                    len: Size::from(len),
                    init: BufferInit::Zero,
                    array: Some(ArrayId(1)),
                },
            ],
            kernels: vec![kernel],
            children: vec![],
            notes: vec![],
        }
    }

    /// out[i] = in[i] * 2 over one block of 32 threads.
    fn double_kernel(len: i64) -> Kernel {
        let idx = KExpr::global_tid(Axis::X);
        Kernel {
            name: "double".into(),
            grid: [Size::from((len + 31) / 32), Size::from(1), Size::from(1)],
            block: [32, 1, 1],
            smem: vec![],
            locals: 1,
            body: vec![
                Stmt::Assign { dst: 0, value: idx },
                Stmt::If {
                    cond: KExpr::lt(KExpr::Local(0), KExpr::imm(len)),
                    then: vec![Stmt::Store {
                        buf: BufId(1),
                        idx: KExpr::Local(0),
                        value: KExpr::mul(
                            KExpr::Load {
                                buf: BufId(0),
                                idx: Box::new(KExpr::Local(0)),
                            },
                            KExpr::Imm(2.0),
                        ),
                    }],
                    els: vec![],
                },
            ],
        }
    }

    #[test]
    fn elementwise_double() {
        let kp = one_buffer_prog(100, double_kernel(100));
        let inputs: HashMap<_, _> = [(ArrayId(0), (0..100).map(|x| x as f64).collect::<Vec<_>>())]
            .into_iter()
            .collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let out = r.array(ArrayId(1));
        assert_eq!(out[7], 14.0);
        assert_eq!(out[99], 198.0);
        assert!(r.total_seconds > 0.0);
    }

    #[test]
    fn coalesced_traffic_counted() {
        let kp = one_buffer_prog(1024, double_kernel(1024));
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![1.0; 1024])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let c = &r.costs[0];
        // 32 warps, each 1 load + 1 store request, each 1 transaction
        // (32 lanes x 4B = 128B).
        assert_eq!(c.mem_requests, 64);
        assert_eq!(c.transactions, 64);
        assert_eq!(c.dram_bytes, 64 * 128);
    }

    #[test]
    fn oob_faults() {
        let kp = one_buffer_prog(10, double_kernel(32)); // guard says 32, len 10
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 10])].into_iter().collect();
        let err = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap_err();
        assert!(err.0.contains("out of bounds"));
    }

    #[test]
    fn block_tree_reduce_with_sync() {
        // Sum 64 values with one 64-thread block using smem tree reduce.
        let n = 64i64;
        let idx = KExpr::global_tid(Axis::X);
        let mut body = vec![
            Stmt::Assign { dst: 0, value: idx },
            Stmt::SmemStore {
                arr: 0,
                idx: KExpr::Tid(Axis::X),
                value: KExpr::Load {
                    buf: BufId(0),
                    idx: Box::new(KExpr::Local(0)),
                },
            },
            Stmt::Sync,
        ];
        let mut s = 32;
        while s >= 1 {
            body.push(Stmt::If {
                cond: KExpr::lt(KExpr::Tid(Axis::X), KExpr::imm(s)),
                then: vec![Stmt::SmemStore {
                    arr: 0,
                    idx: KExpr::Tid(Axis::X),
                    value: KExpr::add(
                        KExpr::SmemLoad {
                            arr: 0,
                            idx: Box::new(KExpr::Tid(Axis::X)),
                        },
                        KExpr::SmemLoad {
                            arr: 0,
                            idx: Box::new(KExpr::add(KExpr::Tid(Axis::X), KExpr::imm(s))),
                        },
                    ),
                }],
                els: vec![],
            });
            body.push(Stmt::Sync);
            s /= 2;
        }
        body.push(Stmt::If {
            cond: KExpr::eq(KExpr::Tid(Axis::X), KExpr::imm(0)),
            then: vec![Stmt::Store {
                buf: BufId(1),
                idx: KExpr::imm(0),
                value: KExpr::SmemLoad {
                    arr: 0,
                    idx: Box::new(KExpr::imm(0)),
                },
            }],
            els: vec![],
        });
        let k = Kernel {
            name: "reduce".into(),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [64, 1, 1],
            smem: vec![SmemDecl {
                name: "s".into(),
                len: 64,
            }],
            locals: 1,
            body,
        };
        let kp = one_buffer_prog(n, k);
        let inputs: HashMap<_, _> = [(ArrayId(0), (0..n).map(|x| x as f64).collect::<Vec<_>>())]
            .into_iter()
            .collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1))[0], (0..64).sum::<i64>() as f64);
        assert!(r.costs[0].syncs > 0);
        assert!(r.costs[0].smem_accesses > 0);
    }

    #[test]
    fn divergence_costs_both_paths() {
        // Even lanes take then, odd lanes take else: instructions should
        // exceed the uniform case.
        let mk = |divergent: bool| {
            let cond = if divergent {
                KExpr::eq(
                    KExpr::Bin(
                        multidim_ir::BinOp::Rem,
                        Box::new(KExpr::Tid(Axis::X)),
                        Box::new(KExpr::imm(2)),
                    ),
                    KExpr::imm(0),
                )
            } else {
                KExpr::Imm(1.0)
            };
            Kernel {
                name: "div".into(),
                grid: [Size::from(1), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 1,
                body: vec![Stmt::If {
                    cond,
                    then: vec![Stmt::Assign {
                        dst: 0,
                        value: KExpr::add(KExpr::Imm(1.0), KExpr::Imm(2.0)),
                    }],
                    els: vec![Stmt::Assign {
                        dst: 0,
                        value: KExpr::mul(KExpr::Imm(2.0), KExpr::Imm(3.0)),
                    }],
                }],
            }
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 4])].into_iter().collect();
        let r_uniform = run_program(
            &one_buffer_prog(4, mk(false)),
            &gpu(),
            &Bindings::new(),
            &inputs,
        )
        .unwrap();
        let r_div = run_program(
            &one_buffer_prog(4, mk(true)),
            &gpu(),
            &Bindings::new(),
            &inputs,
        )
        .unwrap();
        assert!(r_div.costs[0].warp_instr > r_uniform.costs[0].warp_instr);
    }

    #[test]
    fn for_loop_with_break() {
        // r1 = iterations until local exceeds 8, starting from tid.
        let k = Kernel {
            name: "brk".into(),
            grid: [Size::from(1), Size::from(1), Size::from(1)],
            block: [4, 1, 1],
            smem: vec![],
            locals: 2,
            body: vec![
                Stmt::Assign {
                    dst: 1,
                    value: KExpr::Tid(Axis::X),
                },
                Stmt::For {
                    var: 0,
                    start: KExpr::imm(0),
                    end: KExpr::imm(100),
                    step: KExpr::imm(1),
                    body: vec![Stmt::If {
                        cond: KExpr::ge(KExpr::Local(1), KExpr::imm(8)),
                        then: vec![Stmt::Break],
                        els: vec![Stmt::Assign {
                            dst: 1,
                            value: KExpr::mul(KExpr::Local(1), KExpr::Imm(2.0)),
                        }],
                    }],
                },
                Stmt::Store {
                    buf: BufId(1),
                    idx: KExpr::Tid(Axis::X),
                    value: KExpr::Local(1),
                },
            ],
        };
        let kp = one_buffer_prog(4, k);
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 4])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        // lane0: 0 doubles forever -> stays 0 (loop ends at 100 iters).
        // lane1: 1->2->4->8 stop. lane2: 2->4->8. lane3: 3->6->12? 12>=8 stop.
        assert_eq!(r.array(ArrayId(1)), &[0.0, 8.0, 8.0, 12.0]);
    }

    #[test]
    fn atomic_accumulation() {
        let k = Kernel {
            name: "atomic".into(),
            grid: [Size::from(2), Size::from(1), Size::from(1)],
            block: [32, 1, 1],
            smem: vec![],
            locals: 0,
            body: vec![Stmt::AtomicRmw {
                buf: BufId(1),
                idx: KExpr::imm(0),
                op: ReduceOp::Add,
                value: KExpr::Imm(1.0),
                capture: None,
            }],
        };
        let kp = one_buffer_prog(4, k);
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0; 4])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1))[0], 64.0);
        assert!(r.costs[0].atomic_serial > 0);
    }

    #[test]
    fn partial_warp_masks() {
        let kp = one_buffer_prog(5, double_kernel(5));
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![1.0, 2.0, 3.0, 4.0, 5.0])]
            .into_iter()
            .collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1)), &[2.0, 4.0, 6.0, 8.0, 10.0]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use multidim_codegen::{Axis, BufferDecl, SmemDecl};
    use multidim_ir::Size;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    fn buffers(lens: &[(u64, i64)]) -> Vec<BufferDecl> {
        lens.iter()
            .enumerate()
            .map(|(i, &(bytes, len))| BufferDecl {
                name: format!("b{i}"),
                elem_bytes: bytes,
                len: Size::from(len),
                init: if i == 0 {
                    BufferInit::FromArray(ArrayId(0))
                } else {
                    BufferInit::Zero
                },
                array: Some(ArrayId(i as u32)),
            })
            .collect()
    }

    /// A 2-D grid/block kernel writes its (x, y) coordinates: exercises
    /// multi-axis thread indexing.
    #[test]
    fn two_dimensional_indexing() {
        let w = 8i64;
        let h = 6i64;
        let x = 0u32;
        let y = 1u32;
        let body = vec![
            Stmt::Assign {
                dst: x,
                value: KExpr::global_tid(Axis::X),
            },
            Stmt::Assign {
                dst: y,
                value: KExpr::global_tid(Axis::Y),
            },
            Stmt::If {
                cond: KExpr::and(
                    KExpr::lt(KExpr::Local(x), KExpr::imm(w)),
                    KExpr::lt(KExpr::Local(y), KExpr::imm(h)),
                ),
                then: vec![Stmt::Store {
                    buf: BufId(1),
                    idx: KExpr::add(KExpr::mul(KExpr::Local(y), KExpr::imm(w)), KExpr::Local(x)),
                    value: KExpr::add(
                        KExpr::mul(KExpr::Local(y), KExpr::Imm(100.0)),
                        KExpr::Local(x),
                    ),
                }],
                els: vec![],
            },
        ];
        let kp = KernelProgram {
            name: "grid2d".into(),
            buffers: buffers(&[(4, 1), (4, w * h)]),
            kernels: vec![Kernel {
                name: "grid2d".into(),
                grid: [Size::from(2), Size::from(3), Size::from(1)],
                block: [4, 2, 1],
                smem: vec![],
                locals: 2,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let out = r.array(ArrayId(1));
        for yy in 0..h {
            for xx in 0..w {
                assert_eq!(out[(yy * w + xx) as usize], (yy * 100 + xx) as f64);
            }
        }
    }

    /// Bank conflicts are observed in kernel cost when a kernel strides
    /// shared memory by the bank count.
    #[test]
    fn smem_conflicts_counted() {
        let body = vec![Stmt::SmemStore {
            arr: 0,
            idx: KExpr::mul(KExpr::Tid(Axis::X), KExpr::imm(32)),
            value: KExpr::Imm(1.0),
        }];
        let kp = KernelProgram {
            name: "conflict".into(),
            buffers: buffers(&[(4, 1)]),
            kernels: vec![Kernel {
                name: "conflict".into(),
                grid: [Size::from(1), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![SmemDecl {
                    name: "s".into(),
                    len: 32 * 32,
                }],
                locals: 0,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        assert_eq!(r.costs[0].smem_conflicts, 31);
    }

    /// Atomic capture returns pre-update values — all distinct for a
    /// shared counter.
    #[test]
    fn atomic_capture_is_exclusive() {
        let body = vec![
            Stmt::AtomicRmw {
                buf: BufId(0),
                idx: KExpr::imm(0),
                op: ReduceOp::Add,
                value: KExpr::Imm(1.0),
                capture: Some(0),
            },
            Stmt::Store {
                buf: BufId(1),
                idx: KExpr::Local(0),
                value: KExpr::Imm(7.0),
            },
        ];
        let kp = KernelProgram {
            name: "cap".into(),
            buffers: buffers(&[(4, 1), (4, 64)]),
            kernels: vec![Kernel {
                name: "cap".into(),
                grid: [Size::from(2), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 1,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        // Every slot 0..64 received exactly one write.
        assert!(r.array(ArrayId(1)).iter().all(|&v| v == 7.0));
        assert_eq!(r.array(ArrayId(0))[0], 64.0);
    }

    /// Decoding resolves symbolic sizes before execution.
    #[test]
    fn symbolic_grid_sizes_resolve() {
        let n = multidim_ir::SymId(0);
        let body = vec![
            Stmt::Assign {
                dst: 0,
                value: KExpr::global_tid(Axis::X),
            },
            Stmt::If {
                cond: KExpr::lt(KExpr::Local(0), KExpr::SizeVal(Size::sym(n))),
                then: vec![Stmt::Store {
                    buf: BufId(1),
                    idx: KExpr::Local(0),
                    value: KExpr::Imm(3.0),
                }],
                els: vec![],
            },
        ];
        let kp = KernelProgram {
            name: "sym".into(),
            buffers: vec![
                BufferDecl {
                    name: "a".into(),
                    elem_bytes: 4,
                    len: Size::from(1),
                    init: BufferInit::FromArray(ArrayId(0)),
                    array: Some(ArrayId(0)),
                },
                BufferDecl {
                    name: "o".into(),
                    elem_bytes: 4,
                    len: Size::sym(n),
                    init: BufferInit::Zero,
                    array: Some(ArrayId(1)),
                },
            ],
            kernels: vec![Kernel {
                name: "sym".into(),
                grid: [Size::sym(n) / Size::from(32), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 1,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let mut bind = Bindings::new();
        bind.bind(n, 77);
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &bind, &inputs).unwrap();
        assert_eq!(r.array(ArrayId(1)).len(), 77);
        assert!(r.array(ArrayId(1)).iter().all(|&v| v == 3.0));
    }

    /// Select evaluates both sides but picks per lane.
    #[test]
    fn select_is_per_lane() {
        let body = vec![Stmt::Store {
            buf: BufId(1),
            idx: KExpr::Tid(Axis::X),
            value: KExpr::Select(
                Box::new(KExpr::Bin(
                    multidim_ir::BinOp::Rem,
                    Box::new(KExpr::Tid(Axis::X)),
                    Box::new(KExpr::imm(2)),
                )),
                Box::new(KExpr::Imm(1.0)),
                Box::new(KExpr::Imm(2.0)),
            ),
        }];
        let kp = KernelProgram {
            name: "sel".into(),
            buffers: buffers(&[(4, 1), (4, 32)]),
            kernels: vec![Kernel {
                name: "sel".into(),
                grid: [Size::from(1), Size::from(1), Size::from(1)],
                block: [32, 1, 1],
                smem: vec![],
                locals: 0,
                body,
            }],
            children: vec![],
            notes: vec![],
        };
        let inputs: HashMap<_, _> = [(ArrayId(0), vec![0.0])].into_iter().collect();
        let r = run_program(&kp, &gpu(), &Bindings::new(), &inputs).unwrap();
        let out = r.array(ArrayId(1));
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, if i % 2 == 1 { 1.0 } else { 2.0 });
        }
    }
}
