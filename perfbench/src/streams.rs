//! Seeded request streams: the zipf schedule over the catalog for
//! `serve-zipf`, and the never-repeating (family, size) variant streams
//! for `compile-cold` and `autotune`.
//!
//! Everything here is a pure function of the seed, so two runs with one
//! seed send the same requests in the same order; only how far a timed
//! run gets through a closed-loop stream depends on the machine.

use multidim_bench::loadgen::ZipfSampler;
use multidim_ir::{Bindings, Effect, Expr, ProgramBuilder, ScalarKind, Size};
use multidim_workloads::catalog::CatalogEntry;
use multidim_workloads::data::{self, CsrGraph, Rng};
use multidim_workloads::{apps, rodinia, sums};

/// Zipf exponent of the `serve-zipf` mix. As in the `load` generator,
/// zipf rank `r` is catalog entry `r`, so the catalog order is the
/// popularity order.
pub const ZIPF_SKEW: f64 = 1.0;

/// Requests per `serve-zipf` block: each block holds every catalog entry
/// its zipf share of times, in a seeded order.
pub const SERVE_BLOCK: usize = 1000;

/// Tenants sharing the fleet; all run under the front door's default
/// (unlimited) quota.
pub const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];

/// Draws hashed into a stream digest: a fixed prefix, so the digest does
/// not depend on how far a run gets.
const DIGEST_PREFIX: u64 = 4096;

/// One open-loop request: which catalog entry, on behalf of which tenant.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub entry: usize,
    pub tenant: &'static str,
}

/// The first `len` requests of the `serve-zipf` schedule over a catalog
/// of `entries` programs.
///
/// The schedule is a run of `SERVE_BLOCK`-request blocks. A block holds
/// entry `r` its zipf mass times `SERVE_BLOCK` times (largest-remainder
/// rounding) and is shuffled with the seed, so the mix is the same in
/// every block and under every seed; only the order of the requests and
/// their tenants vary. With independent draws (as the `load` generator
/// makes them) the mix itself moves with the seed, and the median, which
/// falls near the edge between the cheap programs and `sumRows`, moves
/// with it.
pub fn serve_schedule(entries: usize, seed: u64, len: usize) -> Vec<Scheduled> {
    let zipf = ZipfSampler::new(entries, ZIPF_SKEW);
    let quota: Vec<f64> = (0..entries)
        .map(|r| zipf.mass(r) * SERVE_BLOCK as f64)
        .collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..entries).collect();
    by_remainder
        .sort_by(|&a, &b| (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor())));
    let short = SERVE_BLOCK - counts.iter().sum::<usize>();
    for &r in &by_remainder[..short] {
        counts[r] += 1;
    }
    let block: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect();
    let mut order = Rng::new(seed);
    let mut tenants = Rng::new(seed ^ 0x7e4a_4a7e);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut b = block.clone();
        for i in (1..b.len()).rev() {
            b.swap(i, order.below(i + 1));
        }
        out.extend(b.into_iter().take(len - out.len()).map(|entry| Scheduled {
            entry,
            tenant: TENANTS[tenants.below(TENANTS.len())],
        }));
    }
    out
}

/// Cross-run fingerprint of the `serve-zipf` schedule.
pub fn serve_digest(entries: usize, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in serve_schedule(entries, seed, DIGEST_PREFIX as usize) {
        let tenant = TENANTS.iter().position(|&t| t == s.tenant).unwrap_or(0);
        for v in [s.entry, tenant] {
            h ^= v as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A program family whose instances differ only in their sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A single foreach writing `k` provably disjoint constant slots from
    /// `offset`: the race proof is pairwise over the writes, so compiling
    /// costs far more than running. Sizes `[k, offset]`.
    Scatter,
    /// `sumCols` (2-level map/reduce). Sizes `[rows, cols]`.
    SumCols,
    /// One Rodinia hotspot stencil step (2-level map/map). Sizes
    /// `[rows, cols]`.
    Hotspot,
    /// MSM point-to-center distances (3-level map/map/reduce). Sizes
    /// `[points, centers, dims]`.
    Msm,
    /// CSR SpMV over a zipf-degree matrix: the inner extent is data
    /// dependent, so the dynamic-parallelism stage decides the launch
    /// shape. Sizes `[rows, mean nonzeros per row]`.
    Spmv,
    /// Ragged filter-then-map over zipf segment lengths (data-dependent
    /// extent, effects only). Sizes `[segments, mean length]`.
    Ragged,
}

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::Scatter => "scatter",
            Family::SumCols => "sumCols",
            Family::Hotspot => "hotspot",
            Family::Msm => "msm_distances",
            Family::Spmv => "spmv",
            Family::Ragged => "ragged_filter",
        }
    }

    /// Build the instance with `sizes`, inputs drawn from `data_seed`.
    fn build(self, prefix: &str, sizes: &[i64], data_seed: u64) -> CatalogEntry {
        let u = |i: usize| sizes[i] as usize;
        let mut bindings = Bindings::new();
        let (mut program, inputs) = match self {
            Family::Scatter => {
                let (k, offset) = (u(0), u(1));
                let mut b = ProgramBuilder::new("scatter");
                let out = b.output("out", ScalarKind::F32, &[Size::from(sizes[0] + sizes[1])]);
                let root = b.foreach(Size::from(1), |_, _| {
                    (0..k)
                        .map(|j| Effect::Write {
                            cond: None,
                            array: out,
                            idx: vec![Expr::int((j + offset) as i64)],
                            value: Expr::lit(j as f64),
                        })
                        .collect()
                });
                let program = b.finish_foreach(root).expect("scatter validates");
                (program, vec![])
            }
            Family::SumCols => {
                let (p, r, c, m) = sums::sum_program(sums::SumKind::Cols);
                bindings.bind(r, sizes[0]);
                bindings.bind(c, sizes[1]);
                (p, vec![(m, data::matrix(u(0), u(1), data_seed))])
            }
            Family::Hotspot => {
                let (p, r, c, temp, power) =
                    rodinia::hotspot::step_program(rodinia::Traversal::RowMajor);
                bindings.bind(r, sizes[0]);
                bindings.bind(c, sizes[1]);
                (
                    p,
                    vec![
                        (temp, data::matrix(u(0), u(1), data_seed)),
                        (power, data::matrix(u(0), u(1), data_seed ^ 1)),
                    ],
                )
            }
            Family::Msm => {
                let (p, ps, ks, ds, x, c) = apps::msm::distance_program();
                bindings.bind(ps, sizes[0]);
                bindings.bind(ks, sizes[1]);
                bindings.bind(ds, sizes[2]);
                let (xs, cs) = data::trajectories(u(0), u(1), u(2), data_seed);
                (p, vec![(x, xs), (c, cs)])
            }
            Family::Spmv => {
                let g = CsrGraph::zipf(u(0), u(1), 1.0, data_seed);
                let (p, n, e, row_ptr, col_idx, vals, x) = apps::spmv::program(sizes[1]);
                bindings.bind(n, g.nodes as i64);
                bindings.bind(e, g.edges as i64);
                let vs = (0..g.edges).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
                let xs = (0..g.nodes).map(|i| (i % 7) as f64 * 0.25).collect();
                (
                    p,
                    vec![
                        (row_ptr, g.row_ptr),
                        (col_idx, g.col_idx),
                        (vals, vs),
                        (x, xs),
                    ],
                )
            }
            Family::Ragged => {
                let g = CsrGraph::zipf(u(0), u(1), 1.0, data_seed);
                let (p, n, e, seg_ptr, elems, _out, _counts) = apps::ragged::program(sizes[1]);
                bindings.bind(n, g.nodes as i64);
                bindings.bind(e, g.edges as i64);
                let values = apps::ragged::element_data(g.edges);
                (p, vec![(seg_ptr, g.row_ptr), (elems, values)])
            }
        };
        // A stream-specific name keeps every variant's fingerprint apart
        // from the preloaded catalog entries of the same family.
        program.name = format!("{prefix}.{}", self.label());
        CatalogEntry {
            program,
            bindings,
            inputs: inputs.into_iter().collect(),
        }
    }
}

/// Per-axis size ranges: `(low, bits)` spans `low .. low + 2^bits`.
type Axes = &'static [(i64, u32)];

/// A repeating block of family slots, each family with its size grid.
pub struct VariantStream {
    prefix: &'static str,
    slots: &'static [Family],
    sizes: &'static [(Family, Axes)],
}

/// `compile-cold`: half the slots are analysis-heavy scatters, the rest
/// 2- and 3-level nests at small extents plus one data-dependent family,
/// so the compile path, not the simulator, does most of the work.
pub const COLD: VariantStream = VariantStream {
    prefix: "cold",
    slots: &[
        Family::Scatter,
        Family::SumCols,
        Family::Scatter,
        Family::Hotspot,
        Family::Scatter,
        Family::Msm,
        Family::Scatter,
        Family::Spmv,
    ],
    sizes: &[
        (Family::Scatter, &[(256, 8), (0, 5)]),
        (Family::SumCols, &[(2, 5), (2, 6)]),
        (Family::Hotspot, &[(2, 5), (2, 6)]),
        (Family::Msm, &[(1, 1), (1, 1), (1, 9)]),
        (Family::Spmv, &[(8, 6), (1, 5)]),
    ],
};

/// `autotune`: small 2-level nests, a data-dependent family and a
/// scatter, sized so every candidate simulation is short and a tune call
/// stays well inside the tenant SLO latency.
pub const TUNE: VariantStream = VariantStream {
    prefix: "tune",
    slots: &[
        Family::Hotspot,
        Family::SumCols,
        Family::Ragged,
        Family::Scatter,
    ],
    sizes: &[
        (Family::Hotspot, &[(2, 4), (2, 4)]),
        (Family::SumCols, &[(2, 2), (2, 2)]),
        (Family::Ragged, &[(8, 5), (1, 2)]),
        (Family::Scatter, &[(128, 7), (0, 3)]),
    ],
};

impl VariantStream {
    fn axes(&self, family: Family) -> Axes {
        self.sizes
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, axes)| *axes)
            .expect("every slot family has a size grid")
    }

    /// The family and sizes of variant `i`: the family cycles through the
    /// slots, and each family walks a seeded permutation of its size grid,
    /// so (family, sizes) never repeats within one pass over the grid.
    /// Later passes get a generation suffix in the program name, which
    /// keeps every fingerprint fresh.
    fn shape(&self, seed: u64, i: u64) -> (Family, Vec<i64>, u64) {
        let n = self.slots.len() as u64;
        let slot = (i % n) as usize;
        let family = self.slots[slot];
        let per_block = self.slots.iter().filter(|&&f| f == family).count() as u64;
        let within = self.slots[..slot].iter().filter(|&&f| f == family).count() as u64;
        let j = (i / n) * per_block + within;
        let axes = self.axes(family);
        let bits: u32 = axes.iter().map(|&(_, b)| b).sum();
        let key = seed ^ (family as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut index = permute(j & ((1 << bits) - 1), bits, key);
        let sizes = axes
            .iter()
            .map(|&(low, b)| {
                let v = low + (index & ((1 << b) - 1)) as i64;
                index >>= b;
                v
            })
            .collect();
        (family, sizes, j >> bits)
    }

    /// Variant `i` of the stream under `seed`.
    pub fn variant(&self, seed: u64, i: u64) -> CatalogEntry {
        let (family, sizes, generation) = self.shape(seed, i);
        let prefix = if generation == 0 {
            self.prefix.to_string()
        } else {
            format!("{}{generation}", self.prefix)
        };
        family.build(
            &prefix,
            &sizes,
            seed ^ i.wrapping_mul(0xd134_2543_de82_ef95),
        )
    }

    /// Cross-run fingerprint of the stream's first variants.
    pub fn digest(&self, seed: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..DIGEST_PREFIX {
            let (family, sizes, generation) = self.shape(seed, i);
            for v in std::iter::once(family as i64)
                .chain(sizes)
                .chain(std::iter::once(generation as i64))
            {
                h ^= v as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// A keyed bijection on `bits`-bit integers (xor, odd multiply and
/// xorshift are each invertible modulo 2^bits).
fn permute(x: u64, bits: u32, key: u64) -> u64 {
    let mask = (1u64 << bits) - 1;
    let shift = (bits / 2).max(1);
    let mut x = x & mask;
    let mut k = key;
    for _ in 0..3 {
        k = k
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f);
        x = (x ^ (k >> 17)) & mask;
        x = x.wrapping_mul((k >> 11) | 1) & mask;
        x ^= x >> shift;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn permute_is_a_bijection() {
        for bits in [1, 5, 9, 13] {
            let seen: HashSet<u64> = (0..1u64 << bits).map(|x| permute(x, bits, 42)).collect();
            assert_eq!(seen.len(), 1 << bits);
        }
    }

    #[test]
    fn every_serve_block_holds_the_zipf_mix() {
        let zipf = ZipfSampler::new(27, ZIPF_SKEW);
        let schedule = serve_schedule(27, 3, 3 * SERVE_BLOCK);
        for block in schedule.chunks(SERVE_BLOCK) {
            let mut counts = [0usize; 27];
            for s in block {
                counts[s.entry] += 1;
            }
            for (r, &c) in counts.iter().enumerate() {
                let want = zipf.mass(r) * SERVE_BLOCK as f64;
                assert!((c as f64 - want).abs() < 1.0, "entry {r}: {c} vs {want}");
            }
        }
        assert_ne!(
            schedule[..SERVE_BLOCK]
                .iter()
                .map(|s| s.entry)
                .collect::<Vec<_>>(),
            serve_schedule(27, 4, SERVE_BLOCK)
                .iter()
                .map(|s| s.entry)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn variants_never_repeat_within_a_pass() {
        for stream in [&COLD, &TUNE] {
            let mut seen = HashSet::new();
            for i in 0..2048 {
                let (family, sizes, generation) = stream.shape(7, i);
                assert!(
                    seen.insert((family as u8, sizes, generation)),
                    "repeat at {i}"
                );
            }
        }
    }
}
