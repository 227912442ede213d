//! Mapping parameters (Section IV-A).
//!
//! A mapping decision assigns, to each nest level: a logical **dimension**
//! (x is the fastest-varying — adjacent threads differ in x, so x is where
//! coalescing happens), a **block size** (threads per block along that
//! dimension), and a **span/split** controlling the degree of parallelism.

use multidim_ir::{Bindings, Size};
use std::fmt;

/// A logical dimension. `Dim(0)` is `x` (fastest varying), `Dim(1)` is `y`,
/// and so on; the number of logical dimensions is unbounded (footnote 3 of
/// the paper), with dimensions ≥ 3 linearized onto the hardware's 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dim(pub u8);

impl Dim {
    /// The coalescing dimension `x`.
    pub const X: Dim = Dim(0);
    /// Dimension `y`.
    pub const Y: Dim = Dim(1);
    /// Dimension `z`.
    pub const Z: Dim = Dim(2);

    /// `true` for the fastest-varying dimension.
    pub fn is_x(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "x"),
            1 => write!(f, "y"),
            2 => write!(f, "z"),
            3 => write!(f, "w"),
            n => write!(f, "d{n}"),
        }
    }
}

/// Degree-of-parallelism control for one level (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// Each thread covers `n` points of the index domain; `Span(1)` is full
    /// parallelization.
    Span(i64),
    /// One block covers the whole dimension (all indices strided across the
    /// block's threads). Required when the extent is unknown at launch or
    /// the pattern needs cross-iteration synchronization.
    All,
    /// Like [`Span::All`] but the dimension is cut into `k` block-sized
    /// sections, at the price of a combiner kernel that merges the `k`
    /// partial results.
    Split(i64),
}

impl Span {
    /// The common full-parallel case.
    pub const ONE: Span = Span::Span(1);
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Span(n) => write!(f, "span({n})"),
            Span::All => write!(f, "span(all)"),
            Span::Split(k) => write!(f, "split({k})"),
        }
    }
}

/// The mapping for one nest level.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LevelMapping {
    /// Assigned logical dimension.
    pub dim: Dim,
    /// Threads along `dim` in one block.
    pub block_size: u32,
    /// DOP control.
    pub span: Span,
}

impl fmt::Display for LevelMapping {
    /// Paper notation: `[DimY, 64, span(1)]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[Dim{}, {}, {}]",
            self.dim.to_string().to_uppercase(),
            self.block_size,
            self.span
        )
    }
}

/// A complete mapping decision: one [`LevelMapping`] per nest level,
/// outermost first.
///
/// # Examples
///
/// ```
/// use multidim_mapping::{Dim, LevelMapping, MappingDecision, Span};
///
/// // Figure 9's sumRows mapping: level 0 [DimY, 64, span(1)],
/// // level 1 [DimX, 32, span(all)].
/// let m = MappingDecision::new(vec![
///     LevelMapping { dim: Dim::Y, block_size: 64, span: Span::ONE },
///     LevelMapping { dim: Dim::X, block_size: 32, span: Span::All },
/// ]);
/// assert_eq!(m.block_threads(), 64 * 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MappingDecision {
    levels: Vec<LevelMapping>,
}

impl MappingDecision {
    /// Wrap per-level mappings (outermost first).
    pub fn new(levels: Vec<LevelMapping>) -> Self {
        assert!(!levels.is_empty(), "a mapping needs at least one level");
        MappingDecision { levels }
    }

    /// Per-level mappings, outermost first.
    pub fn levels(&self) -> &[LevelMapping] {
        &self.levels
    }

    /// The mapping for `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level(&self, level: usize) -> &LevelMapping {
        &self.levels[level]
    }

    /// Mutable access for `ControlDOP`'s span rewriting.
    pub fn level_mut(&mut self, level: usize) -> &mut LevelMapping {
        &mut self.levels[level]
    }

    /// Nest depth covered.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total threads per block (product over levels).
    pub fn block_threads(&self) -> u64 {
        self.levels.iter().map(|l| l.block_size as u64).product()
    }

    /// Degree of parallelism under `extents` (one per level, outermost
    /// first): `Span(n)` contributes `ceil(extent/n)`, `Span(all)`
    /// contributes the *block size* (Section IV-D), `Split(k)` contributes
    /// `block_size * k`.
    pub fn dop(&self, extents: &[i64]) -> u64 {
        assert_eq!(extents.len(), self.levels.len());
        self.levels
            .iter()
            .zip(extents)
            .map(|(l, &ext)| match l.span {
                Span::Span(n) => {
                    let n = n.max(1);
                    // Checked so an extent near `i64::MAX` panics in
                    // release builds too instead of wrapping to a bogus
                    // degree of parallelism.
                    let rounded = ext
                        .checked_add(n - 1)
                        .expect("degree of parallelism overflows i64");
                    ((rounded / n).max(1)) as u64
                }
                Span::All => l.block_size as u64,
                Span::Split(k) => l.block_size as u64 * k.max(1) as u64,
            })
            .product()
    }

    /// Number of thread blocks launched along each level under `extents`
    /// (grid shape in the same level order).
    pub fn grid_blocks(&self, extents: &[i64]) -> Vec<u64> {
        self.levels
            .iter()
            .zip(extents)
            .map(|(l, &ext)| match l.span {
                Span::Span(n) => {
                    let per_block = l.block_size as i64 * n.max(1);
                    ((ext + per_block - 1) / per_block).max(1) as u64
                }
                Span::All => 1,
                Span::Split(k) => k.max(1) as u64,
            })
            .collect()
    }

    /// Evaluate the per-level extents of a nest under `bindings`.
    pub fn eval_extents(sizes: &[Size], bindings: &Bindings) -> Vec<i64> {
        sizes.iter().map(|s| s.eval_or_default(bindings)).collect()
    }
}

impl fmt::Display for MappingDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "L{i}:{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig9() -> MappingDecision {
        MappingDecision::new(vec![
            LevelMapping {
                dim: Dim::Y,
                block_size: 64,
                span: Span::ONE,
            },
            LevelMapping {
                dim: Dim::X,
                block_size: 32,
                span: Span::All,
            },
        ])
    }

    #[test]
    fn block_threads_is_product() {
        assert_eq!(fig9().block_threads(), 2048);
    }

    #[test]
    fn dop_span1_uses_extent() {
        // Figure 7(a): DOP = I * min(J, MAX_BLOCK) via span(all) -> block.
        let m = fig9();
        assert_eq!(m.dop(&[1000, 8192]), 1000 * 32);
    }

    #[test]
    fn dop_span_n_divides() {
        let m = MappingDecision::new(vec![LevelMapping {
            dim: Dim::X,
            block_size: 64,
            span: Span::Span(4),
        }]);
        assert_eq!(m.dop(&[1000]), 250);
    }

    #[test]
    fn dop_split_multiplies_block() {
        let m = MappingDecision::new(vec![LevelMapping {
            dim: Dim::X,
            block_size: 32,
            span: Span::Split(3),
        }]);
        assert_eq!(m.dop(&[100_000]), 96);
    }

    #[test]
    fn grid_blocks_fig6() {
        // Figure 6(a): block 64x16 over MxN domain with span(1) both ->
        // M/64 x N/16 blocks.
        let m = MappingDecision::new(vec![
            LevelMapping {
                dim: Dim::X,
                block_size: 64,
                span: Span::ONE,
            },
            LevelMapping {
                dim: Dim::Y,
                block_size: 16,
                span: Span::ONE,
            },
        ]);
        assert_eq!(m.grid_blocks(&[640, 160]), vec![10, 10]);
        // Figure 6(c): split(3) on x, span(2) on y with block 32 wide ->
        // 3 x N/(16*2)... (shapes differ; just check split count).
        let m2 = MappingDecision::new(vec![
            LevelMapping {
                dim: Dim::X,
                block_size: 32,
                span: Span::Split(3),
            },
            LevelMapping {
                dim: Dim::Y,
                block_size: 16,
                span: Span::Span(2),
            },
        ]);
        assert_eq!(m2.grid_blocks(&[1024, 320]), vec![3, 10]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let l = LevelMapping {
            dim: Dim::Y,
            block_size: 64,
            span: Span::ONE,
        };
        assert_eq!(l.to_string(), "[DimY, 64, span(1)]");
        let s = LevelMapping {
            dim: Dim::X,
            block_size: 32,
            span: Span::Split(3),
        };
        assert_eq!(s.to_string(), "[DimX, 32, split(3)]");
    }

    #[test]
    fn dim_names() {
        assert_eq!(Dim(0).to_string(), "x");
        assert_eq!(Dim(3).to_string(), "w");
        assert_eq!(Dim(5).to_string(), "d5");
        assert!(Dim::X.is_x());
        assert!(!Dim::Z.is_x());
    }
}

#[cfg(test)]
mod extent_tests {
    use super::*;
    use multidim_ir::SymId;

    #[test]
    fn eval_extents_defaults_unknowns() {
        let sizes = vec![Size::sym(SymId(0)), Size::from(7), Size::dynamic()];
        let mut b = Bindings::new();
        b.bind(SymId(0), 42);
        assert_eq!(MappingDecision::eval_extents(&sizes, &b), vec![42, 7, 1000]);
    }

    #[test]
    fn grid_blocks_for_all_and_split() {
        let m = MappingDecision::new(vec![
            LevelMapping {
                dim: Dim::Y,
                block_size: 8,
                span: Span::ONE,
            },
            LevelMapping {
                dim: Dim::X,
                block_size: 32,
                span: Span::All,
            },
        ]);
        assert_eq!(m.grid_blocks(&[100, 9999]), vec![13, 1]);
        let s = MappingDecision::new(vec![LevelMapping {
            dim: Dim::X,
            block_size: 32,
            span: Span::Split(5),
        }]);
        assert_eq!(s.grid_blocks(&[9999]), vec![5]);
    }

    #[test]
    fn display_roundtrip_multi_level() {
        let m = MappingDecision::new(vec![
            LevelMapping {
                dim: Dim::Z,
                block_size: 2,
                span: Span::Span(4),
            },
            LevelMapping {
                dim: Dim::Y,
                block_size: 4,
                span: Span::ONE,
            },
            LevelMapping {
                dim: Dim::X,
                block_size: 32,
                span: Span::All,
            },
        ]);
        assert_eq!(
            m.to_string(),
            "L0:[DimZ, 2, span(4)] L1:[DimY, 4, span(1)] L2:[DimX, 32, span(all)]"
        );
        assert_eq!(m.depth(), 3);
        assert_eq!(m.block_threads(), 256);
    }
}
