//! The output oracle: every served or tuned result is compared against
//! [`multidim_ir::interpret`] with the semantics of
//! `multidim_workloads::runner::verify_outputs` — relative tolerance
//! 1e-6 (reductions reassociate) and filter outputs compared as
//! multisets (atomic compaction permutes them). References are computed
//! before or after a timed window, never inside it.
//!
//! The one exception is a program the static analyzer marks as racy by
//! design (a maybe-race warning, such as the catalog's HogWild QP-SCD
//! scatter): the sequential interpreter does not define its parallel
//! result, so it is held to a fresh compile's simulated result instead
//! (the simulator is deterministic).

use multidim::{Code, Executable};
use multidim_ir::{interpret, ArrayId, PatternKind};
use multidim_workloads::catalog::CatalogEntry;
use std::collections::HashMap;

pub type Arrays = HashMap<ArrayId, Vec<f64>>;

/// The expected final arrays of one request.
pub struct Reference {
    name: String,
    arrays: Arrays,
    /// For filter roots: the output array and its kept-element count.
    filter: Option<(ArrayId, usize)>,
}

impl Reference {
    /// The interpreter's result.
    pub fn of(entry: &CatalogEntry) -> Result<Reference, String> {
        let p = &entry.program;
        let expect = interpret(p, &entry.bindings, &entry.inputs)
            .map_err(|e| format!("`{}`: reference interpreter failed: {e}", p.name))?;
        let filter = match (&p.root.kind, p.output) {
            (PatternKind::Filter { .. }, Some(out)) => {
                Some((out, expect.filter_count.unwrap_or(0)))
            }
            _ => None,
        };
        Ok(Reference {
            name: p.name.clone(),
            arrays: (0u32..)
                .map(ArrayId)
                .zip(expect.arrays.into_iter().map(|a| a.data))
                .collect(),
            filter,
        })
    }

    /// The reference for `entry` given a fresh compile `exe` and its
    /// simulated `outputs`: the interpreter's result unless the program
    /// is racy by design (see the module docs).
    pub fn for_compiled(
        entry: &CatalogEntry,
        exe: &Executable,
        outputs: &Arrays,
    ) -> Result<Reference, String> {
        let racy = exe
            .diagnostics
            .diagnostics
            .iter()
            .any(|d| d.code == Code::MAYBE_RACE);
        if !racy {
            return Reference::of(entry);
        }
        Ok(Reference {
            name: entry.program.name.clone(),
            arrays: outputs.clone(),
            filter: None,
        })
    }

    /// Compare every array in `got` with the reference.
    pub fn check(&self, got: &Arrays) -> Result<(), String> {
        for (id, data) in got {
            let want = self
                .arrays
                .get(id)
                .ok_or_else(|| format!("`{}`: unknown array {id:?}", self.name))?;
            if let Some((out, n)) = self.filter.filter(|(out, _)| out == id) {
                let (mut a, mut b) = (data[..n].to_vec(), want[..n].to_vec());
                a.sort_by(f64::total_cmp);
                b.sort_by(f64::total_cmp);
                if a != b {
                    return Err(format!(
                        "`{}` {out:?}: filter outputs differ as multisets",
                        self.name
                    ));
                }
                continue;
            }
            if data.len() != want.len() {
                return Err(format!(
                    "`{}` {id:?}: length {} vs reference {}",
                    self.name,
                    data.len(),
                    want.len()
                ));
            }
            for (i, (g, w)) in data.iter().zip(want).enumerate() {
                if (g - w).abs() > 1e-6 * w.abs().max(1.0) {
                    return Err(format!("`{}` {id:?}[{i}]: {g} vs reference {w}", self.name));
                }
            }
        }
        Ok(())
    }
}
