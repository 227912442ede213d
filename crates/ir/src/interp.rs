//! Reference interpreter.
//!
//! Executes a [`Program`] sequentially on the host, with exact pattern
//! semantics. Every other execution path in the framework (the GPU
//! simulator running generated kernels, the CPU cost model) is validated
//! against this interpreter's outputs, and its operation counters feed the
//! analytic CPU baseline.

use crate::expr::{BinOp, Expr, ReadSrc, UnOp, VarId};
use crate::pattern::{Body, Effect, Pattern, PatternKind};
use crate::program::{ArrayId, ArrayRole, Program};
use crate::size::Bindings;
use std::collections::HashMap;
use std::fmt;

/// A dense row-major array value.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrVal {
    /// Dimension extents.
    pub shape: Vec<usize>,
    /// Row-major contents.
    pub data: Vec<f64>,
}

impl ArrVal {
    /// A zero-filled array of the given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        ArrVal {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Wrap existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        ArrVal { shape, data }
    }

    /// Row-major linear offset of `idx`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds indices are reported with the offending axis.
    pub fn offset(&self, idx: &[i64]) -> Result<usize, InterpError> {
        if idx.len() != self.shape.len() {
            return Err(InterpError(format!(
                "rank mismatch: {} indices into rank-{} array",
                idx.len(),
                self.shape.len()
            )));
        }
        let mut off = 0usize;
        for (k, (&i, &d)) in idx.iter().zip(&self.shape).enumerate() {
            if i < 0 || i as usize >= d {
                return Err(InterpError(format!(
                    "index {i} out of bounds for axis {k} with extent {d}"
                )));
            }
            off = off * d + i as usize;
        }
        Ok(off)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A runtime value: scalar or collection.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A scalar (numbers; booleans as 0/1).
    Scalar(f64),
    /// A collection produced by a pattern.
    Arr(ArrVal),
}

impl Val {
    fn scalar(&self) -> Result<f64, InterpError> {
        match self {
            Val::Scalar(v) => Ok(*v),
            Val::Arr(_) => Err(InterpError("expected scalar, found collection".into())),
        }
    }
}

/// Cheap execution counters for the CPU cost model and sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Arithmetic/logic operations evaluated.
    pub flops: u64,
    /// Array element reads.
    pub reads: u64,
    /// Array element writes.
    pub writes: u64,
    /// Bytes read from declared arrays.
    pub bytes_read: u64,
    /// Bytes written to declared arrays.
    pub bytes_written: u64,
}

/// Interpretation failure (bad index, unbound input, shape mismatch, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError(pub String);

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.0)
    }
}

impl std::error::Error for InterpError {}

/// Result of interpreting a program: final array states and counters.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpResult {
    /// All arrays in declaration order (inputs unchanged unless written).
    pub arrays: Vec<ArrVal>,
    /// Execution counters.
    pub counters: CostCounters,
    /// For `Filter` roots: the number of kept elements.
    pub filter_count: Option<usize>,
}

impl InterpResult {
    /// The array for `id`.
    pub fn array(&self, id: ArrayId) -> &ArrVal {
        &self.arrays[id.0 as usize]
    }
}

/// Interpret `program` under `bindings`, with `inputs` keyed by array id.
///
/// Outputs and temporaries are zero-initialized. Input arrays may also be
/// pre-seeded for `Temp`/`Output` roles (useful for iterative algorithms
/// that feed an output back in).
///
/// # Errors
///
/// Returns [`InterpError`] for missing inputs, bad indices, or shape
/// mismatches.
pub fn interpret(
    program: &Program,
    bindings: &Bindings,
    inputs: &HashMap<ArrayId, Vec<f64>>,
) -> Result<InterpResult, InterpError> {
    let mut arrays = Vec::with_capacity(program.arrays.len());
    for decl in &program.arrays {
        let shape: Vec<usize> = decl
            .shape
            .iter()
            .map(|s| s.eval(bindings) as usize)
            .collect();
        let expected: usize = shape.iter().product();
        match inputs.get(&decl.id) {
            Some(data) => {
                if data.len() != expected {
                    return Err(InterpError(format!(
                        "input `{}` has {} elements, expected {}",
                        decl.name,
                        data.len(),
                        expected
                    )));
                }
                arrays.push(ArrVal::from_vec(shape, data.clone()));
            }
            None if decl.role == ArrayRole::Input => {
                return Err(InterpError(format!("missing input array `{}`", decl.name)))
            }
            None => arrays.push(ArrVal::zeros(shape)),
        }
    }

    let mut interp = Interp {
        program,
        bindings,
        arrays,
        env: vec![None; program.var_count as usize],
        counters: CostCounters::default(),
    };

    let root_val = interp.pattern(&program.root)?;
    let mut filter_count = None;

    if let Some(out) = program.output {
        let arr = match root_val {
            Some(Val::Arr(a)) => a,
            Some(Val::Scalar(v)) => ArrVal::from_vec(vec![1], vec![v]),
            None => return Err(InterpError("value root produced nothing".into())),
        };
        if matches!(program.root.kind, PatternKind::Filter { .. }) {
            filter_count = Some(arr.len());
            let dst = &mut interp.arrays[out.0 as usize];
            for (i, v) in arr.data.iter().enumerate() {
                dst.data[i] = *v;
            }
            if let Some(cnt) = program.output_count {
                interp.arrays[cnt.0 as usize].data[0] = arr.len() as f64;
            }
        } else {
            let dst = &mut interp.arrays[out.0 as usize];
            if dst.len() != arr.len() {
                return Err(InterpError(format!(
                    "output `{}` has {} elements but the root produced {}",
                    program.array(out).name,
                    dst.len(),
                    arr.len()
                )));
            }
            dst.data = arr.data;
        }
        let decl = program.array(out);
        interp.counters.writes += decl.len(bindings) as u64;
        interp.counters.bytes_written += decl.bytes(bindings);
    }

    Ok(InterpResult {
        arrays: interp.arrays,
        counters: interp.counters,
        filter_count,
    })
}

struct Interp<'p> {
    program: &'p Program,
    bindings: &'p Bindings,
    arrays: Vec<ArrVal>,
    env: Vec<Option<Val>>,
    counters: CostCounters,
}

impl<'p> Interp<'p> {
    fn bind(&mut self, v: VarId, val: Val) -> Option<Val> {
        self.env[v.0 as usize].replace(val)
    }

    fn unbind(&mut self, v: VarId, prev: Option<Val>) {
        self.env[v.0 as usize] = prev;
    }

    fn lookup(&self, v: VarId) -> Result<&Val, InterpError> {
        self.env[v.0 as usize]
            .as_ref()
            .ok_or_else(|| InterpError(format!("unbound variable {v:?}")))
    }

    fn extent(&mut self, p: &'p Pattern) -> Result<i64, InterpError> {
        match &p.dyn_extent {
            Some(e) => {
                let v = self.eval(e)?.scalar()?;
                to_index(v)
            }
            None => Ok(p.size.eval(self.bindings)),
        }
    }

    /// Execute a pattern; `Some(value)` for value-producing kinds, `None`
    /// for `Foreach`.
    fn pattern(&mut self, p: &'p Pattern) -> Result<Option<Val>, InterpError> {
        let n = self.extent(p)?;
        match &p.kind {
            PatternKind::Map => {
                let mut out: Vec<f64> = Vec::new();
                let mut inner_shape: Option<Vec<usize>> = None;
                for i in 0..n {
                    let prev = self.bind(p.var, Val::Scalar(i as f64));
                    let v = self.body_value(p)?;
                    self.unbind(p.var, prev);
                    match v {
                        Val::Scalar(s) => {
                            if inner_shape.as_deref().is_some_and(|s| !s.is_empty()) {
                                return Err(InterpError("map body shape varies".into()));
                            }
                            inner_shape = Some(vec![]);
                            out.push(s);
                        }
                        Val::Arr(a) => {
                            match &inner_shape {
                                Some(s) if *s != a.shape => {
                                    return Err(InterpError("map body shape varies".into()))
                                }
                                _ => inner_shape = Some(a.shape.clone()),
                            }
                            out.extend_from_slice(&a.data);
                        }
                    }
                }
                let mut shape = vec![n as usize];
                shape.extend(inner_shape.unwrap_or_default());
                Ok(Some(Val::Arr(ArrVal::from_vec(shape, out))))
            }
            PatternKind::Reduce { op } => {
                let mut acc = op.identity();
                for i in 0..n {
                    let prev = self.bind(p.var, Val::Scalar(i as f64));
                    let v = self.body_value(p)?.scalar()?;
                    self.unbind(p.var, prev);
                    acc = op.apply(acc, v);
                    self.counters.flops += 1;
                }
                Ok(Some(Val::Scalar(acc)))
            }
            PatternKind::Filter { pred } => {
                let mut out = Vec::new();
                for i in 0..n {
                    let prev = self.bind(p.var, Val::Scalar(i as f64));
                    let keep = self.eval(pred)?.scalar()?;
                    self.counters.flops += 1;
                    let r = if keep != 0.0 {
                        let v = self.body_value(p)?.scalar()?;
                        out.push(v);
                        Ok(())
                    } else {
                        Ok(())
                    };
                    self.unbind(p.var, prev);
                    r?;
                }
                let len = out.len();
                Ok(Some(Val::Arr(ArrVal::from_vec(vec![len], out))))
            }
            PatternKind::GroupBy { key, num_keys, op } => {
                let nk = num_keys.eval(self.bindings) as usize;
                let mut out = vec![op.identity(); nk];
                for i in 0..n {
                    let prev = self.bind(p.var, Val::Scalar(i as f64));
                    let r = (|| {
                        let k = to_index(self.eval(key)?.scalar()?)?;
                        if k < 0 || k as usize >= nk {
                            return Err(InterpError(format!(
                                "groupBy key {k} out of range 0..{nk}"
                            )));
                        }
                        let v = self.body_value(p)?.scalar()?;
                        out[k as usize] = op.apply(out[k as usize], v);
                        self.counters.flops += 1;
                        Ok(())
                    })();
                    self.unbind(p.var, prev);
                    r?;
                }
                Ok(Some(Val::Arr(ArrVal::from_vec(vec![nk], out))))
            }
            PatternKind::Foreach => {
                let Body::Effects(effs) = &p.body else {
                    return Err(InterpError("foreach requires an effect body".into()));
                };
                for i in 0..n {
                    let prev = self.bind(p.var, Val::Scalar(i as f64));
                    let r = self.effects(effs);
                    self.unbind(p.var, prev);
                    r?;
                }
                Ok(None)
            }
        }
    }

    fn body_value(&mut self, p: &'p Pattern) -> Result<Val, InterpError> {
        match &p.body {
            Body::Value(e) => self.eval(e),
            Body::Effects(_) => Err(InterpError(format!(
                "{} pattern requires a value body",
                p.kind.name()
            ))),
        }
    }

    fn effects(&mut self, effs: &'p [Effect]) -> Result<(), InterpError> {
        let mut bound: Vec<(VarId, Option<Val>)> = Vec::new();
        let r = (|this: &mut Self| {
            for eff in effs {
                match eff {
                    Effect::Write {
                        cond,
                        array,
                        idx,
                        value,
                    } => {
                        if let Some(c) = cond {
                            this.counters.flops += 1;
                            if this.eval(c)?.scalar()? == 0.0 {
                                continue;
                            }
                        }
                        let v = this.eval(value)?.scalar()?;
                        let ii = this.eval_indices(idx)?;
                        let bytes = this.program.array(*array).elem.bytes();
                        let arr = &mut this.arrays[array.0 as usize];
                        let off = arr.offset(&ii)?;
                        arr.data[off] = v;
                        this.counters.writes += 1;
                        this.counters.bytes_written += bytes;
                    }
                    Effect::AtomicRmw {
                        cond,
                        array,
                        idx,
                        op,
                        value,
                    } => {
                        if let Some(c) = cond {
                            this.counters.flops += 1;
                            if this.eval(c)?.scalar()? == 0.0 {
                                continue;
                            }
                        }
                        let v = this.eval(value)?.scalar()?;
                        let ii = this.eval_indices(idx)?;
                        let bytes = this.program.array(*array).elem.bytes();
                        let arr = &mut this.arrays[array.0 as usize];
                        let off = arr.offset(&ii)?;
                        arr.data[off] = op.apply(arr.data[off], v);
                        this.counters.flops += 1;
                        this.counters.reads += 1;
                        this.counters.writes += 1;
                        this.counters.bytes_read += bytes;
                        this.counters.bytes_written += bytes;
                    }
                    Effect::Nested(inner) => {
                        this.pattern(inner)?;
                    }
                    Effect::LetScalar(v, e) => {
                        let val = this.eval(e)?;
                        bound.push((*v, this.bind(*v, val)));
                    }
                }
            }
            Ok(())
        })(self);
        for (v, prev) in bound.into_iter().rev() {
            self.unbind(v, prev);
        }
        r
    }

    fn eval_indices(&mut self, idx: &'p [Expr]) -> Result<Vec<i64>, InterpError> {
        idx.iter()
            .map(|e| to_index(self.eval(e)?.scalar()?))
            .collect()
    }

    fn eval(&mut self, e: &'p Expr) -> Result<Val, InterpError> {
        match e {
            Expr::Lit(v) => Ok(Val::Scalar(*v)),
            Expr::Var(v) => self.lookup(*v).cloned(),
            Expr::SizeOf(s) => Ok(Val::Scalar(s.eval(self.bindings) as f64)),
            Expr::LengthOf(src, dim) => {
                let shape = match src {
                    ReadSrc::Array(a) => &self.arrays[a.0 as usize].shape,
                    ReadSrc::Var(v) => match self.lookup(*v)? {
                        Val::Arr(a) => &a.shape,
                        Val::Scalar(_) => return Err(InterpError("lengthOf a scalar".into())),
                    },
                };
                let d = *shape.get(*dim).ok_or_else(|| {
                    InterpError(format!("lengthOf dim {dim} exceeds rank {}", shape.len()))
                })?;
                Ok(Val::Scalar(d as f64))
            }
            Expr::Read(src, idx) => {
                let ii = self.eval_indices(idx)?;
                match src {
                    ReadSrc::Array(a) => {
                        let bytes = self.program.array(*a).elem.bytes();
                        let arr = &self.arrays[a.0 as usize];
                        let off = arr.offset(&ii)?;
                        self.counters.reads += 1;
                        self.counters.bytes_read += bytes;
                        Ok(Val::Scalar(arr.data[off]))
                    }
                    ReadSrc::Var(v) => {
                        let val = self.lookup(*v)?;
                        match val {
                            Val::Arr(a) => {
                                let off = a.offset(&ii)?;
                                let out = a.data[off];
                                self.counters.reads += 1;
                                self.counters.bytes_read += 8;
                                Ok(Val::Scalar(out))
                            }
                            Val::Scalar(_) => Err(InterpError("indexed a scalar".into())),
                        }
                    }
                }
            }
            Expr::Bin(op, a, b) => {
                let x = self.eval(a)?.scalar()?;
                let y = self.eval(b)?.scalar()?;
                self.counters.flops += 1;
                Ok(Val::Scalar(apply_bin(*op, x, y)))
            }
            Expr::Un(op, a) => {
                let x = self.eval(a)?.scalar()?;
                self.counters.flops += 1;
                Ok(Val::Scalar(apply_un(*op, x)))
            }
            Expr::Select(c, t, f) => {
                let cv = self.eval(c)?.scalar()?;
                self.counters.flops += 1;
                if cv != 0.0 {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            Expr::Let(v, val, body) => {
                let value = self.eval(val)?;
                let prev = self.bind(*v, value);
                let r = self.eval(body);
                self.unbind(*v, prev);
                r
            }
            Expr::Iterate {
                max,
                inits,
                cond,
                updates,
                result,
            } => {
                let trips = to_index(self.eval(max)?.scalar()?)?;
                let mut prevs = Vec::with_capacity(inits.len());
                for (v, init) in inits {
                    let value = self.eval(init)?;
                    prevs.push((*v, self.bind(*v, value)));
                }
                let r = (|this: &mut Self| {
                    for _ in 0..trips {
                        let c = this.eval(cond)?.scalar()?;
                        this.counters.flops += 1;
                        if c == 0.0 {
                            break;
                        }
                        let mut next = Vec::with_capacity(updates.len());
                        for u in updates {
                            next.push(this.eval(u)?);
                        }
                        for ((v, _), val) in inits.iter().zip(next) {
                            this.env[v.0 as usize] = Some(val);
                        }
                    }
                    this.eval(result)
                })(self);
                for (v, prev) in prevs.into_iter().rev() {
                    self.unbind(v, prev);
                }
                r
            }
            Expr::Pat(p) => self
                .pattern(p)?
                .ok_or_else(|| InterpError("foreach in value position".into())),
        }
    }
}

fn to_index(v: f64) -> Result<i64, InterpError> {
    if v.fract() != 0.0 || !v.is_finite() {
        return Err(InterpError(format!("non-integral index {v}")));
    }
    Ok(v as i64)
}

/// Apply a binary operator to scalars (shared with the simulator).
#[inline]
pub fn apply_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Rem => {
            // C-style truncated remainder on the integral parts.
            let (a, b) = (x.trunc(), y.trunc());
            if b == 0.0 {
                f64::NAN
            } else {
                a - (a / b).trunc() * b
            }
        }
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::Lt => bool_val(x < y),
        BinOp::Le => bool_val(x <= y),
        BinOp::Gt => bool_val(x > y),
        BinOp::Ge => bool_val(x >= y),
        BinOp::Eq => bool_val(x == y),
        BinOp::Ne => bool_val(x != y),
        BinOp::And => bool_val(x != 0.0 && y != 0.0),
        BinOp::Or => bool_val(x != 0.0 || y != 0.0),
    }
}

/// Apply a unary operator to a scalar (shared with the simulator).
#[inline]
pub fn apply_un(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Neg => -x,
        UnOp::Not => bool_val(x == 0.0),
        UnOp::Sqrt => x.sqrt(),
        UnOp::Exp => x.exp(),
        UnOp::Log => x.ln(),
        UnOp::Abs => x.abs(),
        UnOp::Floor => x.floor(),
    }
}

fn bool_val(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::pattern::ReduceOp;
    use crate::size::Size;
    use crate::types::ScalarKind;

    fn run(program: &Program, bindings: &Bindings, inputs: &[(ArrayId, Vec<f64>)]) -> InterpResult {
        let map: HashMap<ArrayId, Vec<f64>> = inputs.iter().cloned().collect();
        interpret(program, bindings, &map).unwrap()
    }

    #[test]
    fn sum_rows_matches_hand_computation() {
        let mut b = ProgramBuilder::new("sumRows");
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
        bind.bind(r, 3);
        bind.bind(c, 4);
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let res = run(&p, &bind, &[(m, data)]);
        let out = res.array(p.output.unwrap());
        assert_eq!(out.data, vec![6.0, 22.0, 38.0]);
    }

    #[test]
    fn nested_map_produces_matrix() {
        let mut b = ProgramBuilder::new("outerProd");
        let n = b.sym("N");
        let x = b.input("x", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| {
            let xi = b.read(x, &[i.into()]);
            b.let_(xi, |b, a| {
                b.map(Size::sym(n), |b, j| Expr::var(a) * b.read(x, &[j.into()]))
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 3);
        let res = run(&p, &bind, &[(x, vec![1.0, 2.0, 3.0])]);
        let out = res.array(p.output.unwrap());
        assert_eq!(out.shape, vec![3, 3]);
        assert_eq!(out.data, vec![1., 2., 3., 2., 4., 6., 3., 6., 9.]);
    }

    #[test]
    fn filter_compacts_and_counts() {
        let mut b = ProgramBuilder::new("pos");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.filter(Size::sym(n), |b, i| {
            let e = b.read(a, &[i.into()]);
            (e.clone().gt(Expr::lit(0.0)), e)
        });
        let p = b.finish_filter(root, "pos", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 5);
        let res = run(&p, &bind, &[(a, vec![-1.0, 2.0, 0.0, 3.0, -4.0])]);
        assert_eq!(res.filter_count, Some(2));
        let out = res.array(p.output.unwrap());
        assert_eq!(&out.data[..2], &[2.0, 3.0]);
        let count = res.array(p.output_count.unwrap());
        assert_eq!(count.data[0], 2.0);
    }

    #[test]
    fn group_by_histogram() {
        let mut b = ProgramBuilder::new("hist");
        let n = b.sym("N");
        let keys = b.input("keys", ScalarKind::I32, &[Size::sym(n)]);
        let root = b.group_by(Size::sym(n), Size::from(3), ReduceOp::Add, |b, i| {
            (b.read(keys, &[i.into()]), Expr::lit(1.0))
        });
        let p = b.finish_group_by(root, "hist", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 6);
        let res = run(&p, &bind, &[(keys, vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0])]);
        assert_eq!(res.array(p.output.unwrap()).data, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn foreach_conditional_scatter() {
        let mut b = ProgramBuilder::new("scatter");
        let n = b.sym("N");
        let src = b.input("src", ScalarKind::I32, &[Size::sym(n)]);
        let dst = b.output("dst", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.foreach(Size::sym(n), |b, i| {
            let v = b.read(src, &[i.into()]);
            vec![Effect::Write {
                cond: Some(v.clone().ge(Expr::lit(0.0))),
                array: dst,
                idx: vec![v],
                value: Expr::lit(1.0),
            }]
        });
        let p = b.finish_foreach(root).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 4);
        let res = run(&p, &bind, &[(src, vec![2.0, -1.0, 0.0, 3.0])]);
        assert_eq!(res.array(dst).data, vec![1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn iterate_mandelbrot_style() {
        // out[i] = number of steps until v >= 2, v := v*2 starting at a[i].
        let mut b = ProgramBuilder::new("steps");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| {
            let a0 = b.read(a, &[i.into()]);
            b.iterate(Expr::int(10), vec![a0, Expr::lit(0.0)], |_, vars| {
                let v = Expr::var(vars[0]);
                let k = Expr::var(vars[1]);
                (
                    v.clone().lt(Expr::lit(2.0)),
                    vec![v * Expr::lit(2.0), k.clone() + Expr::lit(1.0)],
                    k,
                )
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 3);
        let res = run(&p, &bind, &[(a, vec![1.0, 0.25, 4.0])]);
        assert_eq!(res.array(p.output.unwrap()).data, vec![1.0, 3.0, 0.0]);
    }

    #[test]
    fn dynamic_extent_from_data() {
        // CSR-ish: per-row degree read from an array.
        let mut b = ProgramBuilder::new("deg");
        let n = b.sym("N");
        let deg = b.input("deg", ScalarKind::I32, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| {
            let d = b.read(deg, &[i.into()]);
            b.reduce_dyn(d, 8, ReduceOp::Add, |_, _j| Expr::lit(1.0))
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 3);
        let res = run(&p, &bind, &[(deg, vec![2.0, 0.0, 5.0])]);
        assert_eq!(res.array(p.output.unwrap()).data, vec![2.0, 0.0, 5.0]);
    }

    #[test]
    fn counters_track_traffic() {
        let mut b = ProgramBuilder::new("copy");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F64, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| b.read(a, &[i.into()]));
        let p = b.finish_map(root, "out", ScalarKind::F64).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 8);
        let res = run(&p, &bind, &[(a, vec![0.0; 8])]);
        assert_eq!(res.counters.reads, 8);
        assert_eq!(res.counters.bytes_read, 64);
        assert_eq!(res.counters.writes, 8);
        assert_eq!(res.counters.bytes_written, 64);
    }

    #[test]
    fn missing_input_is_an_error() {
        let mut b = ProgramBuilder::new("copy");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F64, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| b.read(a, &[i.into()]));
        let p = b.finish_map(root, "out", ScalarKind::F64).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 8);
        let err = interpret(&p, &bind, &HashMap::new()).unwrap_err();
        assert!(err.0.contains("missing input"));
    }

    #[test]
    fn out_of_bounds_read_is_an_error() {
        let mut b = ProgramBuilder::new("oob");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F64, &[Size::sym(n)]);
        let root = b.map(Size::sym(n), |b, i| {
            b.read(a, &[Expr::var(i) + Expr::int(1)])
        });
        let p = b.finish_map(root, "out", ScalarKind::F64).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 4);
        let inputs: HashMap<ArrayId, Vec<f64>> = [(a, vec![0.0; 4])].into_iter().collect();
        let err = interpret(&p, &bind, &inputs).unwrap_err();
        assert!(err.0.contains("out of bounds"));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::pattern::{Effect, ReduceOp};
    use crate::size::Size;
    use crate::types::ScalarKind;

    fn run(program: &Program, bindings: &Bindings, inputs: &[(ArrayId, Vec<f64>)]) -> InterpResult {
        let map: HashMap<ArrayId, Vec<f64>> = inputs.iter().cloned().collect();
        interpret(program, bindings, &map).unwrap()
    }

    #[test]
    fn length_of_array_dimension() {
        let mut b = ProgramBuilder::new("len");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(n), Size::from(3)]);
        let root = b.map(Size::from(2), |_b, _| {
            Expr::LengthOf(crate::expr::ReadSrc::Array(a), 0)
                + Expr::LengthOf(crate::expr::ReadSrc::Array(a), 1)
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 5);
        let res = run(&p, &bind, &[(a, vec![0.0; 15])]);
        assert_eq!(res.array(p.output.unwrap()).data, vec![8.0, 8.0]);
    }

    #[test]
    fn length_of_filter_result() {
        // let kept = filter(...); lengthOf(kept)
        let mut b = ProgramBuilder::new("lenfilter");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.map(Size::from(1), |b, _| {
            let f = b.filter(Size::sym(n), |b, i| {
                let e = b.read(a, &[i.into()]);
                (e.clone().gt(Expr::lit(0.0)), e)
            });
            b.let_(f, |_, kept| {
                Expr::LengthOf(crate::expr::ReadSrc::Var(kept), 0)
            })
        });
        let p = b.finish_map(root, "out", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 6);
        let res = run(&p, &bind, &[(a, vec![1.0, -1.0, 2.0, 0.0, 3.0, -2.0])]);
        assert_eq!(res.array(p.output.unwrap()).data, vec![3.0]);
    }

    #[test]
    fn let_scalar_effects_sequence() {
        let mut b = ProgramBuilder::new("seq");
        let n = b.sym("N");
        let src = b.input("src", ScalarKind::F32, &[Size::sym(n)]);
        let d1 = b.output("d1", ScalarKind::F32, &[Size::sym(n)]);
        let d2 = b.output("d2", ScalarKind::F32, &[Size::sym(n)]);
        let root = b.foreach(Size::sym(n), |b, i| {
            let v = b.fresh_var();
            let read = b.read(src, &[i.into()]);
            vec![
                Effect::LetScalar(v, read * Expr::lit(2.0)),
                Effect::Write {
                    cond: None,
                    array: d1,
                    idx: vec![i.into()],
                    value: Expr::var(v),
                },
                Effect::Write {
                    cond: None,
                    array: d2,
                    idx: vec![i.into()],
                    value: Expr::var(v) + Expr::lit(1.0),
                },
            ]
        });
        let p = b.finish_foreach(root).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 3);
        let res = run(&p, &bind, &[(src, vec![1.0, 2.0, 3.0])]);
        assert_eq!(res.array(d1).data, vec![2.0, 4.0, 6.0]);
        assert_eq!(res.array(d2).data, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn atomic_effects_combine_in_interpreter() {
        let mut b = ProgramBuilder::new("maxred");
        let n = b.sym("N");
        let a = b.input("a", ScalarKind::F32, &[Size::sym(n)]);
        let acc = b.output("acc", ScalarKind::F32, &[Size::from(1)]);
        let root = b.foreach(Size::sym(n), |b, i| {
            vec![Effect::AtomicRmw {
                cond: None,
                array: acc,
                idx: vec![Expr::int(0)],
                op: ReduceOp::Max,
                value: b.read(a, &[i.into()]),
            }]
        });
        let p = b.finish_foreach(root).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 5);
        let res = run(&p, &bind, &[(a, vec![3.0, 9.0, 1.0, 7.0, 2.0])]);
        assert_eq!(res.array(acc).data, vec![9.0]);
    }

    #[test]
    fn group_by_rejects_out_of_range_keys() {
        let mut b = ProgramBuilder::new("badkeys");
        let n = b.sym("N");
        let keys = b.input("keys", ScalarKind::I32, &[Size::sym(n)]);
        let root = b.group_by(Size::sym(n), Size::from(2), ReduceOp::Add, |b, i| {
            (b.read(keys, &[i.into()]), Expr::lit(1.0))
        });
        let p = b.finish_group_by(root, "h", ScalarKind::F32).unwrap();
        let mut bind = Bindings::new();
        bind.bind(n, 3);
        let inputs: HashMap<ArrayId, Vec<f64>> =
            [(keys, vec![0.0, 1.0, 5.0])].into_iter().collect();
        let err = interpret(&p, &bind, &inputs).unwrap_err();
        assert!(err.0.contains("out of range"));
    }

    #[test]
    fn rem_and_unary_semantics() {
        assert_eq!(apply_bin(crate::expr::BinOp::Rem, 7.0, 3.0), 1.0);
        assert_eq!(apply_bin(crate::expr::BinOp::Rem, -7.0, 3.0), -1.0);
        assert!(apply_bin(crate::expr::BinOp::Rem, 7.0, 0.0).is_nan());
        assert_eq!(apply_un(crate::expr::UnOp::Not, 0.0), 1.0);
        assert_eq!(apply_un(crate::expr::UnOp::Not, 2.0), 0.0);
        assert_eq!(apply_un(crate::expr::UnOp::Floor, 2.9), 2.0);
        assert_eq!(apply_un(crate::expr::UnOp::Abs, -2.5), 2.5);
    }
}
