//! Memory-system models: global-memory coalescing and shared-memory bank
//! conflicts.

use multidim_device::{GpuSpec, WARP_SIZE};

/// Coalesce one warp's global access: given the active lanes' byte
/// addresses, count the distinct `transaction_bytes`-sized segments touched
/// (NVIDIA-style coalescing — Section II of the paper).
///
/// Returns `(transactions, bytes)`.
///
/// # Examples
///
/// ```
/// use multidim_sim::coalesce;
/// use multidim_device::GpuSpec;
///
/// let gpu = GpuSpec::tesla_k20c();
/// // 32 adjacent 4-byte accesses: one 128-byte transaction.
/// let seq: Vec<u64> = (0..32).map(|i| i * 4).collect();
/// assert_eq!(coalesce(&gpu, &seq), (1, 128));
/// // 32 accesses strided by 4 KiB: 32 transactions.
/// let strided: Vec<u64> = (0..32).map(|i| i * 4096).collect();
/// assert_eq!(coalesce(&gpu, &strided), (32, 32 * 128));
/// ```
pub fn coalesce(gpu: &GpuSpec, byte_addrs: &[u64]) -> (u64, u64) {
    let seg = gpu.transaction_bytes.max(1);
    let segment = Divisor::new(seg);
    // A segment is new unless an earlier lane touched it. Lanes usually
    // walk addresses in order, so a segment past every earlier one (or
    // equal to the previous lane's) settles the question without a scan.
    let (mut lo, mut hi, mut prev) = (u64::MAX, 0u64, None);
    let mut n = 0u64;
    for (i, &a) in byte_addrs.iter().enumerate() {
        let s = segment.div(a);
        let new = if prev == Some(s) {
            false
        } else if s > hi || s < lo {
            true
        } else {
            !byte_addrs[..i].iter().any(|&b| segment.div(b) == s)
        };
        if new {
            n += 1;
            lo = lo.min(s);
            hi = hi.max(s);
        }
        prev = Some(s);
    }
    (n, n * seg)
}

/// Division by a runtime constant, shifting when it is a power of two
/// (segment sizes and bank counts always are on real devices).
#[derive(Clone, Copy)]
struct Divisor {
    d: u64,
    shift: Option<u32>,
}

impl Divisor {
    fn new(d: u64) -> Divisor {
        Divisor {
            d,
            shift: d.is_power_of_two().then(|| d.trailing_zeros()),
        }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.d,
        }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.d - 1),
            None => x % self.d,
        }
    }
}

/// Shared-memory bank conflicts for one warp access: word addresses map to
/// `banks` 4-byte banks; the access replays once per extra hit on the most
/// contended bank (identical addresses broadcast for free).
///
/// Returns the number of *extra* serialized passes (0 = conflict-free).
/// One warp's access (up to `WARP_SIZE` addresses) is counted without
/// allocating.
///
/// # Examples
///
/// ```
/// use multidim_sim::bank_conflicts;
///
/// // Conflict-free: consecutive words.
/// let seq: Vec<u64> = (0..32).collect();
/// assert_eq!(bank_conflicts(32, &seq), 0);
/// // 2-way conflict: stride 2.
/// let s2: Vec<u64> = (0..32).map(|i| i * 2).collect();
/// assert_eq!(bank_conflicts(32, &s2), 1);
/// // Broadcast: same word everywhere — free.
/// let b: Vec<u64> = vec![7; 32];
/// assert_eq!(bank_conflicts(32, &b), 0);
/// ```
pub fn bank_conflicts(banks: u32, word_addrs: &[u64]) -> u64 {
    let Some(&first) = word_addrs.first() else {
        return 0;
    };
    let bank = Divisor::new(u64::from(banks.max(1)));
    // Fast paths: one word broadcast to every lane, or no two lanes on
    // one bank.
    if word_addrs.iter().all(|&w| w == first) {
        return 0;
    }
    if bank.d <= 64 {
        let (mut used, mut clash) = (0u64, false);
        for &w in word_addrs {
            let bit = 1u64 << bank.rem(w);
            clash |= used & bit != 0;
            used |= bit;
        }
        if !clash {
            return 0;
        }
    }
    // Per bank, count *distinct* words (same word broadcasts).
    let mut stack = [0u64; WARP_SIZE as usize];
    let mut heap = Vec::new();
    let distinct: &mut [u64] = if word_addrs.len() <= stack.len() {
        &mut stack
    } else {
        heap.resize(word_addrs.len(), 0);
        &mut heap
    };
    let mut n = 0usize;
    for &w in word_addrs {
        if !distinct[..n].contains(&w) {
            distinct[n] = w;
            n += 1;
        }
    }
    let distinct = &distinct[..n];
    let worst = distinct
        .iter()
        .map(|&w| {
            let b = bank.rem(w);
            distinct.iter().filter(|&&v| bank.rem(v) == b).count() as u64
        })
        .max()
        .unwrap_or(1);
    worst.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    #[test]
    fn single_lane_one_transaction() {
        assert_eq!(coalesce(&gpu(), &[4096]), (1, 128));
    }

    #[test]
    fn two_segments_when_straddling() {
        // Two accesses in different 128B segments.
        assert_eq!(coalesce(&gpu(), &[0, 128]).0, 2);
        // Same segment: one.
        assert_eq!(coalesce(&gpu(), &[0, 124]).0, 1);
    }

    #[test]
    fn f64_sequential_is_two_transactions() {
        // 32 lanes x 8 bytes = 256 bytes = 2 segments.
        let addrs: Vec<u64> = (0..32).map(|i| i * 8).collect();
        assert_eq!(coalesce(&gpu(), &addrs).0, 2);
    }

    #[test]
    fn stride_interacts_with_segment_size() {
        // Stride 32 floats (128B): every lane its own segment.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        assert_eq!(coalesce(&gpu(), &addrs).0, 32);
        // Stride 8 floats (32B): 4 lanes share a segment.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 32).collect();
        assert_eq!(coalesce(&gpu(), &addrs).0, 8);
    }

    #[test]
    fn conflict_heavy_stride() {
        // Stride 32 words on 32 banks: all lanes hit bank 0: 31 replays.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 32).collect();
        assert_eq!(bank_conflicts(32, &addrs), 31);
    }

    #[test]
    fn partial_warp() {
        let addrs: Vec<u64> = (0..7u64).map(|i| i * 4).collect();
        let (t, b) = coalesce(&gpu(), &addrs);
        assert_eq!(t, 1);
        assert_eq!(b, 128);
        assert_eq!(bank_conflicts(32, &addrs), 0);
    }

    #[test]
    fn empty_access() {
        assert_eq!(coalesce(&gpu(), &[]), (0, 0));
        assert_eq!(bank_conflicts(32, &[]), 0);
    }

    /// SplitMix64: a seeded, dependency-free generator for the property
    /// tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One warp's element indices: sequential, strided, clustered (many
    /// duplicates), broadcast, shuffled or scattered, over 1..=32 lanes
    /// (partial warps included) or occasionally more than a warp.
    fn indices(rng: &mut Rng) -> Vec<u64> {
        let n = match rng.below(8) {
            0 => 32,
            1 => 33 + rng.below(48) as usize,
            _ => 1 + rng.below(32) as usize,
        };
        let base = rng.below(1 << 20);
        let mut v: Vec<u64> = match rng.below(6) {
            0 => (0..n as u64).map(|i| base + i).collect(),
            1 => {
                let stride = 1 + rng.below(64);
                (0..n as u64).map(|i| base + i * stride).collect()
            }
            2 => (0..n).map(|_| base + rng.below(8)).collect(),
            3 => vec![base; n],
            4 => (0..n).map(|_| rng.below(1 << 40)).collect(),
            _ => (0..n as u64).map(|i| base + i).collect(),
        };
        if rng.below(3) == 0 {
            // Fisher-Yates: lanes need not walk addresses in order.
            for i in (1..v.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                v.swap(i, j);
            }
        }
        v
    }

    fn coalesce_reference(seg: u64, addrs: &[u64]) -> (u64, u64) {
        let segments: std::collections::BTreeSet<u64> = addrs.iter().map(|a| a / seg).collect();
        let n = segments.len() as u64;
        (n, n * seg)
    }

    fn bank_conflicts_reference(banks: u32, words: &[u64]) -> u64 {
        let mut per_bank: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
            std::collections::HashMap::new();
        for &w in words {
            per_bank.entry(w % u64::from(banks)).or_default().insert(w);
        }
        per_bank
            .values()
            .map(|s| s.len() as u64)
            .max()
            .map_or(0, |m| m - 1)
    }

    #[test]
    fn coalesce_matches_brute_force() {
        let mut rng = Rng(0xc0a1_e5ce);
        for case in 0..4000 {
            let elem = [4u64, 8][case % 2];
            let seg = [128u64, 32, 96][case % 3];
            let gpu = GpuSpec {
                transaction_bytes: seg,
                ..gpu()
            };
            let addrs: Vec<u64> = indices(&mut rng).iter().map(|i| i * elem).collect();
            assert_eq!(
                coalesce(&gpu, &addrs),
                coalesce_reference(seg, &addrs),
                "case {case}: {elem}-byte elements, {seg}-byte segments, {addrs:?}"
            );
        }
    }

    #[test]
    fn bank_conflicts_match_brute_force() {
        let mut rng = Rng(0xba4c_c0f1);
        for case in 0..4000 {
            let banks = [32u32, 16, 24, 96][case % 4];
            // 8-byte elements span two 4-byte words: word = 2 * element.
            let words_per_elem = [1u64, 2][(case / 4) % 2];
            let words: Vec<u64> = indices(&mut rng)
                .iter()
                .map(|i| i * words_per_elem)
                .collect();
            assert_eq!(
                bank_conflicts(banks, &words),
                bank_conflicts_reference(banks, &words),
                "case {case}: {banks} banks, {words:?}"
            );
        }
    }
}
