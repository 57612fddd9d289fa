//! Percentile computation, the committed percentile grid, and the key
//! sort behind every profile.

use core::cmp::Ordering;

/// The paper's percentile grid `P = {0, 1, 5, 10, 15, …, 90, 95, 99, 100}`.
pub const PERCENTILE_GRID: [f64; 23] = [
    0.0, 1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0,
    75.0, 80.0, 85.0, 90.0, 95.0, 99.0, 100.0,
];

/// Index of a percentile value in [`PERCENTILE_GRID`], if present.
pub fn grid_index(p: f64) -> Option<usize> {
    PERCENTILE_GRID.iter().position(|&g| (g - p).abs() < 1e-9)
}

/// Linear-interpolation percentile of a sample (the NumPy default).
///
/// `p` is in `[0, 100]`. Returns `0` for an empty sample. Not-a-number
/// inputs are excluded, matching the paper's "exclude non-finite values"
/// convention.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    stable_sort(&mut v);
    percentile_sorted(&v, p)
}

/// The seed's stable sort of finite values. Finite values always compare,
/// so the `Equal` fallback never fires; `total_cmp` would put `-0.0`
/// before `+0.0` instead of keeping the two in input order.
fn stable_sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
}

/// Percentile of an already-sorted, finite sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    interpolate(sorted.len(), p, |i| sorted[i])
}

/// The linear-interpolation arithmetic of [`percentile_sorted`] over `n`
/// sorted values read through `at`, so the float and the integer-key
/// sorts share one formula.
fn interpolate(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n == 1 {
        return at(0);
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = rank - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Percentile-value vector over the committed grid.
///
/// Bit-identical to [`grid_profile_reference`]: the finite values are
/// sorted as `u64` keys ([`grid_profile_keys`]).
pub fn grid_profile(values: &[f64]) -> Vec<f64> {
    let mut keys = Vec::with_capacity(values.len());
    keys.extend(values.iter().filter(|x| x.is_finite()).map(|x| x.to_bits()));
    grid_profile_keys(&mut keys)
}

/// [`grid_profile`] over the `to_bits()` keys of the *finite* values of a
/// sample, in sample order; sorts `keys` in place.
///
/// Finite doubles with the sign bit clear order exactly like their bit
/// patterns, and equal values have equal bits, so an unstable `u64` sort
/// yields the bit-for-bit sequence the stable float sort does. Every
/// profiled error (`|x−y|`, `|x−y|/(|x|+eps)` with `eps ≥ 0`) is such a
/// value. A key with the sign bit set (a negative value or `-0.0`, which
/// the stable float sort keeps in input order next to `+0.0`) sends the
/// whole sample through [`grid_profile_reference`] instead.
pub fn grid_profile_keys(keys: &mut [u64]) -> Vec<f64> {
    if keys.iter().fold(0, |acc, &k| acc | k) >> 63 != 0 {
        let values: Vec<f64> = keys.iter().map(|&k| f64::from_bits(k)).collect();
        return grid_profile_reference(&values);
    }
    sort_keys(keys);
    let keys = &*keys;
    PERCENTILE_GRID
        .iter()
        .map(|&p| interpolate(keys.len(), p, |i| f64::from_bits(keys[i])))
        .collect()
}

/// Sorts profile keys ascending: an AVX-512 quicksort on hosts with
/// `avx512f` and `popcnt`, `sort_unstable` (the oracle) everywhere else.
///
/// A sorted `u64` sequence is unique, so both arms return the same keys
/// bit for bit and no profile, threshold or fingerprint depends on the
/// host. Public only so the kernel microbench can time it against
/// `sort_unstable`; [`grid_profile_keys`] is its one caller.
pub fn sort_keys(keys: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if avx512::supported() {
        // SAFETY: `supported()` checked `avx512f` and `popcnt`.
        unsafe { avx512::sort(keys) };
        return;
    }
    keys.sort_unstable();
}

/// The arm [`sort_keys`] runs on this host: `"avx512"` or `"sort_unstable"`.
pub fn sort_keys_arm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512::supported() {
        return "avx512";
    }
    "sort_unstable"
}

/// The AVX-512F arm of [`sort_keys`]: a 3-way quicksort that partitions
/// eight keys per step in place, finishing ranges of at most
/// [`NETWORK_MAX`](avx512::NETWORK_MAX) keys with a bitonic network held
/// in registers, and handing a range to `sort_unstable` once the
/// recursion is deeper than `2·log2(n) + 4`, so no input makes it
/// quadratic.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::{
        __m512i, __mmask8, _mm512_loadu_si512, _mm512_mask_cmpgt_epu64_mask,
        _mm512_mask_cmplt_epu64_mask, _mm512_mask_loadu_epi64, _mm512_mask_max_epu64,
        _mm512_mask_storeu_epi64, _mm512_maskz_compress_epi64, _mm512_maskz_loadu_epi64,
        _mm512_max_epu64, _mm512_min_epu64, _mm512_permutex_epi64, _mm512_permutexvar_epi64,
        _mm512_set1_epi64, _mm512_set_epi64, _mm512_shuffle_i64x2, _mm512_storeu_si512,
    };
    use core::hint::select_unpredictable;

    /// Ranges of at most this many keys (eight registers) are sorted by
    /// the network.
    pub(super) const NETWORK_MAX: usize = 64;

    /// True when the host has `avx512f` and `popcnt`; detected once per
    /// process.
    pub(super) fn supported() -> bool {
        static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *SUPPORTED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("popcnt")
        })
    }

    /// Partition levels a sort of `n` keys may take before the rest of a
    /// range goes to `sort_unstable`.
    pub(super) fn depth_limit(n: usize) -> u32 {
        2 * n.max(1).ilog2() + 4
    }

    /// Sorts `keys` ascending.
    ///
    /// # Safety
    ///
    /// Requires runtime support for `avx512f` and `popcnt`.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) unsafe fn sort(keys: &mut [u64]) {
        quicksort(keys, depth_limit(keys.len()));
    }

    /// Partitions around a ninther pivot and recurses into the smaller
    /// side, looping on the larger one, so the stack stays `O(log n)`.
    #[target_feature(enable = "avx512f,popcnt")]
    unsafe fn quicksort(mut keys: &mut [u64], mut depth: u32) {
        loop {
            if keys.len() <= NETWORK_MAX {
                network(keys);
                return;
            }
            if depth == 0 {
                keys.sort_unstable();
                return;
            }
            depth -= 1;
            let (lt, gt) = partition(keys, pivot(keys));
            let (lower, rest) = core::mem::take(&mut keys).split_at_mut(lt);
            let upper = &mut rest[gt - lt..];
            if lower.len() < upper.len() {
                quicksort(lower, depth);
                keys = upper;
            } else {
                quicksort(upper, depth);
                keys = lower;
            }
        }
    }

    /// Where [`pivot`] samples a range of `len` keys: nine positions spread
    /// evenly over it.
    pub(super) fn samples(len: usize) -> [usize; 9] {
        let step = len / 9;
        core::array::from_fn(|i| step / 2 + i * step)
    }

    /// The ninther of the keys at [`samples`]: the median of the medians
    /// of three consecutive triples, computed without branches.
    pub(super) fn pivot(keys: &[u64]) -> u64 {
        let s = samples(keys.len()).map(|i| keys[i]);
        let median3 = |a: u64, b: u64, c: u64| a.max(b).min(a.min(b).max(c));
        median3(
            median3(s[0], s[1], s[2]),
            median3(s[3], s[4], s[5]),
            median3(s[6], s[7], s[8]),
        )
    }

    /// The first `n ≤ 8` lanes.
    fn low(n: usize) -> __mmask8 {
        (0xff_u32 >> (8 - n)) as __mmask8
    }

    /// Vectors a partition step loads from one end. Choosing the end once
    /// per four vectors takes the cursor arithmetic, which depends on the
    /// previous step's counts, off the path of three loads in four.
    const UNROLL: usize = 4;

    /// 3-way partitions `keys` (more than [`NETWORK_MAX`] of them) around
    /// `pivot` in place and returns `(lt, gt)`: `keys[..lt] < pivot`,
    /// `keys[lt..gt] == pivot` and `keys[gt..] > pivot`.
    ///
    /// The first `n % 8` keys and the first and last [`UNROLL`] whole
    /// vectors are held in registers, which leaves room at both ends. Each
    /// step then loads from the end with less room, compresses the keys
    /// below the pivot into the low lanes with `vpcompressq` and stores the
    /// full vector at the left write cursor (the lanes past them land in
    /// room that is read already), and stores the keys above the pivot just
    /// below the right write cursor. Keys equal to the pivot are only
    /// counted; the gap they leave is filled with the pivot at the end.
    ///
    /// # Safety
    ///
    /// Requires runtime support for `avx512f` and `popcnt`.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) unsafe fn partition(keys: &mut [u64], pivot: u64) -> (usize, usize) {
        const BLOCK: usize = 8 * UNROLL;
        const { assert!(NETWORK_MAX >= 2 * BLOCK) };
        let n = keys.len();
        // Every load and store below stays in bounds only with the two
        // held blocks in place.
        assert!(n > NETWORK_MAX, "partition needs more than 64 keys");
        let base = keys.as_mut_ptr().cast::<i64>();
        let p = _mm512_set1_epi64(pivot as i64);
        let rem = n % 8;
        let rem_keys = _mm512_maskz_loadu_epi64(low(rem), base);
        let held: [__m512i; 2 * UNROLL] = core::array::from_fn(|i| {
            let at = if i < UNROLL {
                rem + 8 * i
            } else {
                n - 8 * (2 * UNROLL - i)
            };
            _mm512_loadu_si512(base.add(at).cast())
        });
        let mut cur = Cursors { left: 0, right: n };
        let (mut l_read, mut r_read) = (rem + BLOCK, n - BLOCK);
        // Reading from the end with less room leaves room for every store
        // of the step at both ends: the held keys keep at least `2 * BLOCK`
        // slots free in all.
        while r_read - l_read >= BLOCK {
            let from_left = l_read - cur.left <= cur.right - r_read;
            let at = select_unpredictable(from_left, l_read, r_read - BLOCK);
            l_read += select_unpredictable(from_left, BLOCK, 0);
            r_read -= select_unpredictable(from_left, 0, BLOCK);
            // Every load precedes the step's stores, which may reach the
            // slots just read.
            let block: [__m512i; UNROLL] =
                core::array::from_fn(|i| _mm512_loadu_si512(base.add(at + 8 * i).cast()));
            for v in block {
                cur.split::<true>(base, v, p, 0xff);
            }
        }
        while l_read < r_read {
            let from_left = l_read - cur.left <= cur.right - r_read;
            let at = select_unpredictable(from_left, l_read, r_read - 8);
            l_read += select_unpredictable(from_left, 8, 0);
            r_read -= select_unpredictable(from_left, 0, 8);
            cur.split::<true>(base, _mm512_loadu_si512(base.add(at).cast()), p, 0xff);
        }
        // The held vectors go last, with masked stores: the gap left may be
        // narrower than a vector.
        for v in held {
            cur.split::<false>(base, v, p, 0xff);
        }
        cur.split::<false>(base, rem_keys, p, low(rem));
        keys[cur.left..cur.right].fill(pivot);
        (cur.left, cur.right)
    }

    /// A partition's write cursors: keys below the pivot fill `..left`,
    /// keys above it fill `right..`.
    struct Cursors {
        left: usize,
        right: usize,
    }

    impl Cursors {
        /// Writes the `valid` lanes of `v` below `p` at the left cursor and
        /// those above it just below the right cursor, and drops those
        /// equal to it. With `FULL` the left store writes the whole vector.
        ///
        /// # Safety
        ///
        /// Requires runtime support for `avx512f` and `popcnt`; with `FULL`,
        /// the eight slots from the left cursor must be free.
        #[inline]
        #[target_feature(enable = "avx512f,popcnt")]
        unsafe fn split<const FULL: bool>(
            &mut self,
            base: *mut i64,
            v: __m512i,
            p: __m512i,
            valid: __mmask8,
        ) {
            let lt = _mm512_mask_cmplt_epu64_mask(valid, v, p);
            let gt = _mm512_mask_cmpgt_epu64_mask(valid, v, p);
            let (n_lt, n_gt) = (lt.count_ones() as usize, gt.count_ones() as usize);
            let below = _mm512_maskz_compress_epi64(lt, v);
            if FULL {
                _mm512_storeu_si512(base.add(self.left).cast(), below);
            } else {
                _mm512_mask_storeu_epi64(base.add(self.left), low(n_lt), below);
            }
            self.left += n_lt;
            self.right -= n_gt;
            _mm512_mask_storeu_epi64(
                base.add(self.right),
                low(n_gt),
                _mm512_maskz_compress_epi64(gt, v),
            );
        }
    }

    /// One compare-exchange stage: lane `i` meets `partner`'s lane `i`,
    /// and the lanes set in `upper` keep the larger key. The mask blend is
    /// the merge-masked `vpmaxuq` writing over the minimum.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn exchange(v: __m512i, partner: __m512i, upper: __mmask8) -> __m512i {
        _mm512_mask_max_epu64(_mm512_min_epu64(v, partner), upper, v, partner)
    }

    /// Lane `i` meets lane `i ^ 1`, `i ^ 2` or `i ^ 3`: a `vpermq` within
    /// each 256-bit half.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn within<const IMM: i32>(v: __m512i, upper: __mmask8) -> __m512i {
        exchange(v, _mm512_permutex_epi64::<IMM>(v), upper)
    }

    /// Swaps lanes `i` and `i ^ 1`.
    const SWAP1: i32 = 0xB1;
    /// Swaps lanes `i` and `i ^ 2`.
    const SWAP2: i32 = 0x4E;
    /// Swaps lanes `i` and `i ^ 3`.
    const SWAP3: i32 = 0x1B;

    /// The register's lanes in reverse order.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn reverse(v: __m512i) -> __m512i {
        _mm512_permutexvar_epi64(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7), v)
    }

    /// Sorts the eight lanes of one register (a bitonic sorter).
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn sort8(v: __m512i) -> __m512i {
        let v = within::<SWAP1>(v, 0xAA);
        let v = within::<SWAP3>(v, 0xCC);
        let v = within::<SWAP1>(v, 0xAA);
        let v = exchange(v, reverse(v), 0xF0);
        clean4(v)
    }

    /// Sorts a register whose halves are each bitonic and whose low half
    /// holds no key above its high half.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn clean4(v: __m512i) -> __m512i {
        let v = within::<SWAP2>(v, 0xCC);
        within::<SWAP1>(v, 0xAA)
    }

    /// Sorts a register holding a bitonic sequence.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn clean8(v: __m512i) -> __m512i {
        clean4(exchange(v, _mm512_shuffle_i64x2::<0x4E>(v, v), 0xF0))
    }

    /// Merges each pair of sorted runs of `S / 2` registers into a sorted
    /// run of `S`: the first run meets the second reversed, which leaves
    /// two bitonic halves, and half-cleaners across registers and then
    /// within each one sort them. Every loop has a constant trip count, so
    /// the whole merge unrolls into straight-line code.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn merge<const R: usize, const S: usize>(v: &mut [__m512i; R]) {
        for run in (0..R).step_by(S) {
            let old = *v;
            // The high half is built in reverse register order, which
            // keeps it bitonic.
            for r in 0..S / 2 {
                let mirror = reverse(old[run + S - 1 - r]);
                v[run + r] = _mm512_min_epu64(old[run + r], mirror);
                v[run + S / 2 + r] = _mm512_max_epu64(old[run + r], mirror);
            }
            if S >= 8 {
                cross::<R, 2>(v, run, S);
            }
            if S >= 4 {
                cross::<R, 1>(v, run, S);
            }
            for x in &mut v[run..run + S] {
                *x = clean8(*x);
            }
        }
    }

    /// Half-cleaner across registers: within `v[run..run + s]`, register
    /// `t` meets register `t + D` for every `t` with bit `D` clear.
    #[inline]
    #[target_feature(enable = "avx512f,popcnt")]
    fn cross<const R: usize, const D: usize>(v: &mut [__m512i; R], run: usize, s: usize) {
        for t in run..run + s {
            if t & D == 0 {
                let (a, b) = (v[t], v[t + D]);
                v[t] = _mm512_min_epu64(a, b);
                v[t + D] = _mm512_max_epu64(a, b);
            }
        }
    }

    /// Sorts up to `8 * R` keys in `R` registers, padding with `u64::MAX`.
    ///
    /// # Safety
    ///
    /// Requires runtime support for `avx512f` and `popcnt`;
    /// `keys.len() <= 8 * R`.
    #[target_feature(enable = "avx512f,popcnt")]
    unsafe fn network_regs<const R: usize>(keys: &mut [u64]) {
        let n = keys.len();
        let base = keys.as_mut_ptr().cast::<i64>();
        let pad = _mm512_set1_epi64(-1);
        let lanes: [__mmask8; R] = core::array::from_fn(|r| low(n.saturating_sub(8 * r).min(8)));
        let mut v: [__m512i; R] = core::array::from_fn(|r| {
            _mm512_mask_loadu_epi64(pad, lanes[r], base.wrapping_add(8 * r))
        });
        for x in v.iter_mut() {
            *x = sort8(*x);
        }
        if R >= 2 {
            merge::<R, 2>(&mut v);
        }
        if R >= 4 {
            merge::<R, 4>(&mut v);
        }
        if R >= 8 {
            merge::<R, 8>(&mut v);
        }
        for r in 0..R {
            _mm512_mask_storeu_epi64(base.wrapping_add(8 * r), lanes[r], v[r]);
        }
    }

    /// Sorts at most [`NETWORK_MAX`] keys in one, two, four or eight
    /// registers.
    ///
    /// # Safety
    ///
    /// Requires runtime support for `avx512f` and `popcnt`.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) unsafe fn network(keys: &mut [u64]) {
        match keys.len() {
            0 | 1 => {}
            2..=8 => network_regs::<1>(keys),
            9..=16 => network_regs::<2>(keys),
            17..=32 => network_regs::<4>(keys),
            _ => network_regs::<8>(keys),
        }
    }
}

/// The seed body of [`grid_profile`]: a stable `partial_cmp` sort of the
/// finite values. The oracle the key sort is tested against, and the path
/// for samples holding a negative value or `-0.0`.
pub fn grid_profile_reference(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    stable_sort(&mut v);
    PERCENTILE_GRID
        .iter()
        .map(|&p| percentile_sorted(&v, p))
        .collect()
}

/// Median of a sample (50th percentile; midpoint of central order
/// statistics for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_23_points_and_endpoints() {
        assert_eq!(PERCENTILE_GRID.len(), 23);
        assert_eq!(PERCENTILE_GRID[0], 0.0);
        assert_eq!(PERCENTILE_GRID[22], 100.0);
        assert_eq!(grid_index(50.0), Some(11));
        assert_eq!(grid_index(33.0), None);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 25.0), 2.5);
        assert_eq!(percentile(&v, 75.0), 7.5);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
    }

    #[test]
    fn nan_excluded() {
        let v = [1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&v, 100.0), 3.0);
        assert_eq!(median(&v), 2.0);
    }

    #[test]
    fn grid_profile_monotone() {
        let v: Vec<f64> = (0..100).map(|i| (i * 7 % 100) as f64).collect();
        let prof = grid_profile(&v);
        for w in prof.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(prof.len(), PERCENTILE_GRID.len());
    }

    #[test]
    fn median_even_is_midpoint() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn signed_zero_ties_keep_input_order() {
        // The stable float sort keeps `+0.0` and `-0.0` in input order, so
        // the lowest rank reads whichever came first.
        let bits = |v: &[f64], p| percentile(v, p).to_bits();
        assert_eq!(bits(&[0.0, -0.0, 1.0], 0.0), 0.0f64.to_bits());
        assert_eq!(bits(&[-0.0, 0.0, 1.0], 0.0), (-0.0f64).to_bits());
        assert_eq!(bits(&[1.0, 0.0, -0.0], 50.0), (-0.0f64).to_bits());
        // Sorted stably: [-0.0, +0.0, -0.0, +0.0, 1.0]; P25, P50 and P75
        // fall on ranks 1, 2 and 3.
        let sample = [1.0, -0.0, 0.0, -0.0, 0.0];
        let prof = grid_profile_reference(&sample);
        assert_eq!(prof[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(prof[6].to_bits(), 0.0f64.to_bits());
        assert_eq!(prof[11].to_bits(), (-0.0f64).to_bits());
        assert_eq!(prof[16].to_bits(), 0.0f64.to_bits());
        assert_eq!(prof[22].to_bits(), 1.0f64.to_bits());
        // `grid_profile_keys` routes signed samples to the same sort.
        let mut keys: Vec<u64> = sample.map(f64::to_bits).to_vec();
        let bits_of = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits_of(&grid_profile_keys(&mut keys)), bits_of(&prof));
    }

    /// A SplitMix64 stream for test inputs.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Number of input shapes [`keys_of`] builds.
    const SHAPES: u8 = 10;

    /// `n` keys of one shape: random, heavy in duplicates, all equal, all
    /// zero, sorted, reversed, organ pipe, mixed with `u64::MAX`, with the
    /// sign bit set, or the profile keys of random non-negative doubles.
    fn keys_of(shape: u8, n: usize, seed: u64) -> Vec<u64> {
        let mut next = stream(seed);
        let mut keys: Vec<u64> = (0..n).map(|_| next()).collect();
        match shape {
            0 => {}
            1 => keys.iter_mut().for_each(|k| *k %= 5),
            2 => keys.fill(seed),
            3 => keys.fill(0),
            4 => keys.sort_unstable(),
            5 => keys.sort_unstable_by(|a, b| b.cmp(a)),
            6 => {
                for (i, k) in keys.iter_mut().enumerate() {
                    *k = i.min(n - 1 - i) as u64;
                }
            }
            7 => keys
                .iter_mut()
                .filter(|k| **k % 3 == 0)
                .for_each(|k| *k = u64::MAX),
            8 => keys.iter_mut().for_each(|k| *k |= (*k & 1) << 63),
            _ => keys
                .iter_mut()
                .for_each(|k| *k = ((*k >> 11) as f64 / (1u64 << 53) as f64).to_bits()),
        }
        keys
    }

    /// Asserts that [`sort_keys`] sorts `keys` exactly as `sort_unstable`.
    fn assert_sorts(keys: &[u64], what: &str) {
        let (mut fast, mut oracle) = (keys.to_vec(), keys.to_vec());
        sort_keys(&mut fast);
        oracle.sort_unstable();
        assert!(
            fast == oracle,
            "{what}: sort_keys differs from sort_unstable"
        );
    }

    #[test]
    fn sort_keys_matches_sort_unstable_at_the_edges() {
        println!("sort_keys arm: {}", sort_keys_arm());
        let lengths = [
            0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 63, 64, 65, 66, 71, 72, 73, 127,
            128, 129, 255, 256, 257, 1000, 2048,
        ];
        for n in lengths {
            for shape in 0..SHAPES {
                assert_sorts(
                    &keys_of(shape, n, n as u64),
                    &format!("shape {shape}, {n} keys"),
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn prop_sort_keys_matches_sort_unstable(
            n in 0usize..2049,
            shape in 0u8..SHAPES,
            seed in 0u64..u64::MAX,
        ) {
            assert_sorts(&keys_of(shape, n, seed), &format!("shape {shape}, {n} keys, seed {seed}"));
        }
    }

    /// A 65,536-key organ pipe, and on the AVX-512 arm an input built
    /// against its pivot rule, which the depth limit hands to
    /// `sort_unstable`.
    #[test]
    fn sort_keys_survives_inputs_built_against_the_pivot() {
        println!("sort_keys arm: {}", sort_keys_arm());
        let n = 65_536;
        assert_sorts(&keys_of(6, n, 0), "organ pipe");
        #[cfg(target_arch = "x86_64")]
        if avx512::supported() {
            assert_sorts(&pivot_killer(n), "ninther killer");
        }
    }

    /// An input on which each of the arm's first `depth_limit(n)`
    /// partitions splits off only the few keys at or below its pivot, so
    /// the sort reaches its depth limit on a range of more than
    /// `NETWORK_MAX` keys (asserted here).
    ///
    /// Built against the real partition: before each level the sampled
    /// keys are fixed to the smallest values not used yet, and every key
    /// not fixed yet counts as larger than all of them. A partition
    /// compares keys only with the pivot, so its permutation is the same
    /// whatever the unfixed keys are later given. Keys are encoded
    /// `value << 32 | index` to follow them through it.
    #[cfg(target_arch = "x86_64")]
    fn pivot_killer(n: usize) -> Vec<u64> {
        const UNFIXED: u64 = 1 << 62;
        let mut value: Vec<Option<u64>> = vec![None; n];
        let mut next = 0;
        let mut at: Vec<u64> = (0..n as u64).collect();
        let (mut lo, mut hi) = (0, n);
        for _ in 0..avx512::depth_limit(n) {
            assert!(
                hi - lo > avx512::NETWORK_MAX,
                "the pivot rule was not defeated"
            );
            for i in avx512::samples(hi - lo) {
                let slot = &mut value[at[lo + i] as usize];
                if slot.is_none() {
                    *slot = Some(next);
                    next += 1;
                }
            }
            let mut encoded: Vec<u64> = at[lo..hi]
                .iter()
                .map(|&i| value[i as usize].map_or(UNFIXED | i, |v| v << 32 | i))
                .collect();
            let pivot = avx512::pivot(&encoded);
            // SAFETY: `avx512::supported()` held for the caller.
            let (lt, gt) = unsafe { avx512::partition(&mut encoded, pivot) };
            for (slot, key) in at[lo..hi].iter_mut().zip(&encoded) {
                *slot = key & 0xffff_ffff;
            }
            // The sort loops on the larger side.
            if lt >= hi - lo - gt {
                hi = lo + lt;
            } else {
                lo += gt;
            }
        }
        value
            .into_iter()
            .map(|v| {
                v.unwrap_or_else(|| {
                    next += 1;
                    next
                })
            })
            .collect()
    }
}
