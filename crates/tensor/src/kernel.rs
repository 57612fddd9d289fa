//! Cache-blocked, register-tiled, optionally multi-threaded kernel core.
//!
//! This module is the performance engine behind [`Tensor::matmul`],
//! [`Tensor::linear`] and [`Tensor::conv2d`]
//! (via im2col), built under one hard contract: **every output element is
//! bit-identical to the scalar oracle** — the value `cfg.dot(row, col)`
//! produces for that element's canonical-order operand slices. The
//! accumulation order and FMA contraction of a [`KernelConfig`] are part of
//! the *committed* numeric behavior the TAO protocol verifies (thresholds
//! are calibrated against them, leaf adjudication re-executes under them),
//! so an optimization that reorders a single addition is a consensus bug,
//! not a speedup.
//!
//! The freedoms a faithful kernel does have are exactly the ones real BLAS
//! implementations exploit *between* dot products, never inside one:
//!
//! * **Packing.** The right-hand side is repacked once into column panels of
//!   [`PANEL`] interleaved columns (`panel[kk * PANEL + j]` holds row `kk` of
//!   panel-column `j`), so the inner loop streams both operands
//!   contiguously. Packing moves bytes, not arithmetic: no rounding changes.
//! * **Register tiling.** The micro-kernel evaluates an [`MR`]x[`PANEL`]
//!   block of *independent* dot products at once: [`MR`] lhs rows, packed
//!   into interleaved row blocks ([`PackedLhs`]), against one rhs panel.
//!   Each of the [`MR`] rows is one vector accumulator chain of [`PANEL`]
//!   lanes, and every lane steps through `k` in precisely the order the
//!   scalar [`AccumMode`] definition dictates. The speedup comes from
//!   running [`MR`] dependency chains in parallel instead of waiting out the
//!   FP add latency of a single chain; no chain is ever reassociated.
//!   Kahan accumulation keeps the row-at-a-time path ([`gemm_into`]): its
//!   compensated update does not fit [`MR`] chains in registers.
//! * **Row-band threading.** Output rows are independent, so row bands are
//!   fanned out over `std::thread::scope` workers. Each element is computed
//!   by exactly one worker with exactly the single-thread instruction
//!   sequence, making results independent of the thread count.
//!
//! The differential harness in `tests/tests/kernel_equiv.rs` proptests
//! blocked-vs-oracle bit equality across every accumulation mode, FMA
//! setting and a broad shape family; the scalar oracles
//! ([`Tensor::matmul_reference`] and friends) stay in-tree permanently for
//! that purpose.
//!
//! [`Tensor::matmul`]: crate::Tensor::matmul
//! [`Tensor::linear`]: crate::Tensor::linear
//! [`Tensor::conv2d`]: crate::Tensor::conv2d
//! [`Tensor::matmul_reference`]: crate::Tensor::matmul_reference

use crate::accum::{AccumMode, KernelConfig};
use crate::element::{Element, Scalar};

/// Register-tile width: how many output columns one micro-kernel call
/// produces, i.e. how many independent accumulation chains run in flight.
pub const PANEL: usize = 8;

/// Upper bound on kernel worker threads (matches the protocol-level
/// `MAX_PAR_THREADS` fan-out cap so nested parallelism stays bounded).
pub const MAX_KERNEL_THREADS: usize = 8;

/// Minimum multiply-accumulate count before a GEMM fans out to threads;
/// below this the spawn cost dominates any speedup.
const PAR_MIN_FLOPS: u64 = 1 << 18;

/// The right-hand operand of a GEMM, repacked into interleaved column
/// panels of width [`PANEL`] (zero-padded past `n`; padded lanes are
/// computed and discarded, never observable).
#[derive(Debug, Clone)]
pub struct PackedRhs<T: Scalar> {
    k: usize,
    n: usize,
    panels: Vec<T>,
}

impl<T: Scalar> PackedRhs<T> {
    /// Packs a `k x n` operand whose element at reduction index `kk`,
    /// output column `col` is produced by `at(kk, col)`.
    ///
    /// This closure form lets callers pack straight from their natural
    /// layout — row-major or transposed matrices — without materializing
    /// an intermediate matrix.
    pub fn pack_with(k: usize, n: usize, at: impl Fn(usize, usize) -> T) -> Self {
        let mut packed = Self::zeroed(k, n);
        for col in 0..n {
            let base = (col / PANEL) * k * PANEL + col % PANEL;
            for kk in 0..k {
                packed.panels[base + kk * PANEL] = at(kk, col);
            }
        }
        packed
    }

    /// An all-zero `k x n` operand, to be filled row by row with
    /// [`put_row`](Self::put_row).
    pub(crate) fn zeroed(k: usize, n: usize) -> Self {
        PackedRhs {
            k,
            n,
            panels: vec![T::ZERO; n.div_ceil(PANEL) * k * PANEL],
        }
    }

    /// Writes reduction row `kk` (all `n` columns) into place: one
    /// fixed-size [`PANEL`]-wide copy per whole panel, then the ragged tail.
    pub(crate) fn put_row(&mut self, kk: usize, row: &[T]) {
        assert_eq!(row.len(), self.n, "row length mismatch");
        let stride = self.k * PANEL;
        let mut runs = row.chunks_exact(PANEL);
        for (p, run) in runs.by_ref().enumerate() {
            let at = p * stride + kk * PANEL;
            self.panels[at..at + PANEL].copy_from_slice(run);
        }
        let tail = runs.remainder();
        if !tail.is_empty() {
            let at = (self.n / PANEL) * stride + kk * PANEL;
            self.panels[at..at + tail.len()].copy_from_slice(tail);
        }
    }

    /// Packs a row-major `[k, n]` matrix (the `B` of `A @ B`), copying each
    /// row's [`PANEL`]-wide runs into place.
    pub fn from_row_major(b: &[T], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "rhs length mismatch");
        let mut packed = Self::zeroed(k, n);
        if n > 0 {
            for (kk, row) in b.chunks_exact(n).enumerate() {
                packed.put_row(kk, row);
            }
        }
        packed
    }

    /// Packs a row-major `[n, k]` matrix holding the *transposed* operand —
    /// e.g. a `nn.Linear` weight `[out, in]`, whose rows are already the
    /// columns the dot products consume.
    pub fn from_transposed(bt: &[T], n: usize, k: usize) -> Self {
        assert_eq!(bt.len(), n * k, "transposed rhs length mismatch");
        Self::pack_with(k, n, |kk, col| bt[col * k + kk])
    }

    /// Reduction length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output column count `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Raw interleaved panel storage (`n.div_ceil(PANEL) * k * PANEL`
    /// elements; padded lanes hold `T::ZERO`). Crate-internal: the
    /// quantized GEMM micro-kernels stream panels directly.
    pub(crate) fn panels(&self) -> &[T] {
        &self.panels
    }
}

/// One register tile: [`PANEL`] dot products of `a` against the panel's
/// interleaved columns, every lane following the scalar sequential order
/// (`acc += a[i] * b[i]`, or FMA-contracted when `fma`).
fn seq_tile<T: Element>(a: &[T], panel: &[T], fma: bool) -> [T; PANEL] {
    let mut acc = [T::ZERO; PANEL];
    if fma {
        for (kk, &av) in a.iter().enumerate() {
            let row = &panel[kk * PANEL..(kk + 1) * PANEL];
            for (lane, &bv) in acc.iter_mut().zip(row) {
                *lane = av.mul_add(bv, *lane);
            }
        }
    } else {
        for (kk, &av) in a.iter().enumerate() {
            let row = &panel[kk * PANEL..(kk + 1) * PANEL];
            for (lane, &bv) in acc.iter_mut().zip(row) {
                *lane += av * bv;
            }
        }
    }
    acc
}

/// Pairwise (balanced-tree) register tile; the recursion splits at the same
/// midpoints as the scalar `pairwise_dot`, so every lane reduces its
/// products in the identical tree shape.
fn pairwise_tile<T: Element>(a: &[T], panel: &[T], fma: bool) -> [T; PANEL] {
    let mut out = [T::ZERO; PANEL];
    match a.len() {
        0 => {}
        1 => {
            for (lane, &bv) in out.iter_mut().zip(&panel[..PANEL]) {
                *lane = a[0] * bv;
            }
        }
        2 => {
            let (r0, r1) = panel[..2 * PANEL].split_at(PANEL);
            for ((lane, &b0), &b1) in out.iter_mut().zip(r0).zip(r1) {
                *lane = if fma {
                    a[1].mul_add(b1, a[0] * b0)
                } else {
                    a[0] * b0 + a[1] * b1
                };
            }
        }
        n => {
            let mid = n / 2;
            let left = pairwise_tile(&a[..mid], &panel[..mid * PANEL], fma);
            let right = pairwise_tile(&a[mid..], &panel[mid * PANEL..], fma);
            for ((lane, &l), &r) in out.iter_mut().zip(&left).zip(&right) {
                *lane = l + r;
            }
        }
    }
    out
}

/// Blocked register tile: sequential partials per `block`-sized chunk, then
/// a strict left-to-right reduction of the partials — the exact structure
/// of the scalar `AccumMode::Blocked` dot, lane by lane.
fn blocked_tile<T: Element>(block: usize, a: &[T], panel: &[T], fma: bool) -> [T; PANEL] {
    let block = block.max(1);
    let k = a.len();
    if k <= block {
        return seq_tile(a, panel, fma);
    }
    let mut acc = [T::ZERO; PANEL];
    let mut i = 0;
    while i < k {
        let end = (i + block).min(k);
        let partial = seq_tile(&a[i..end], &panel[i * PANEL..end * PANEL], fma);
        for (lane, &p) in acc.iter_mut().zip(&partial) {
            *lane += p;
        }
        i = end;
    }
    acc
}

/// Kahan-compensated register tile; products round individually and the
/// compensated update sequence per lane matches the scalar Kahan dot.
fn kahan_tile<T: Element>(a: &[T], panel: &[T]) -> [T; PANEL] {
    let mut acc = [T::ZERO; PANEL];
    let mut comp = [T::ZERO; PANEL];
    for (kk, &av) in a.iter().enumerate() {
        let row = &panel[kk * PANEL..(kk + 1) * PANEL];
        for ((lane, c), &bv) in acc.iter_mut().zip(comp.iter_mut()).zip(row) {
            let x = av * bv;
            let y = x - *c;
            let t = *lane + y;
            *c = (t - *lane) - y;
            *lane = t;
        }
    }
    acc
}

/// Dispatches one register tile under `cfg`'s accumulation order and FMA
/// setting. `f32` tiles use the AVX2/FMA vector micro-kernel when the host
/// supports it: [`PANEL`] is exactly one 256-bit vector, and per-lane
/// vector multiply/add/fused-multiply-add are the *same* IEEE-754
/// operations as their scalar counterparts, so the specialization is
/// bit-identical (covered by the same differential tests).
fn dot_tile<T: Element>(cfg: &KernelConfig, a: &[T], panel: &[T]) -> [T; PANEL] {
    #[cfg(target_arch = "x86_64")]
    if core::any::TypeId::of::<T>() == core::any::TypeId::of::<f32>() && x86::have_fma_simd() {
        // SAFETY: `T` is `f32` (checked above), so the slices reinterpret
        // losslessly and the result array transmutes element-for-element;
        // the target features were runtime-detected.
        unsafe {
            let a32 = core::slice::from_raw_parts(a.as_ptr().cast::<f32>(), a.len());
            let p32 = core::slice::from_raw_parts(panel.as_ptr().cast::<f32>(), panel.len());
            let tile = x86::dot_tile_f32(cfg, a32, p32);
            return core::mem::transmute_copy(&tile);
        }
    }
    match cfg.accum {
        AccumMode::Sequential => seq_tile(a, panel, cfg.fma),
        AccumMode::Pairwise => pairwise_tile(a, panel, cfg.fma),
        AccumMode::Blocked(block) => blocked_tile(block, a, panel, cfg.fma),
        AccumMode::Kahan => kahan_tile(a, panel),
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::have_fma_simd;

/// AVX2/FMA register-tile specialization for `f32`.
///
/// Each 256-bit vector holds the [`PANEL`] independent accumulator lanes;
/// `vmulps`/`vaddps`/`vfmadd231ps` apply the identical IEEE-754 rounding
/// per lane as the scalar `*`/`+`/`mul_add`, so every micro-kernel below is
/// a transliteration of its scalar counterpart, not a reassociation.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AccumMode, KernelConfig, MR, PANEL};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps,
    };
    use std::sync::OnceLock;

    /// Runtime AVX2+FMA detection, cached after the first call.
    pub(crate) fn have_fma_simd() -> bool {
        static HAVE: OnceLock<bool> = OnceLock::new();
        *HAVE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA (checked by [`have_fma_simd`]) and
    /// `panel.len() == a.len() * PANEL`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_tile_f32(
        cfg: &KernelConfig,
        a: &[f32],
        panel: &[f32],
    ) -> [f32; PANEL] {
        debug_assert_eq!(panel.len(), a.len() * PANEL);
        let acc = match cfg.accum {
            AccumMode::Sequential => seq_v(a, panel, cfg.fma),
            AccumMode::Pairwise => pairwise_v(a, panel, cfg.fma),
            AccumMode::Blocked(block) => blocked_v(block, a, panel, cfg.fma),
            AccumMode::Kahan => kahan_v(a, panel),
        };
        let mut out = [0f32; PANEL];
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
        out
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn seq_v(a: &[f32], panel: &[f32], fma: bool) -> __m256 {
        let mut acc = _mm256_setzero_ps();
        let p = panel.as_ptr();
        if fma {
            for (kk, &av) in a.iter().enumerate() {
                let row = _mm256_loadu_ps(p.add(kk * PANEL));
                acc = _mm256_fmadd_ps(_mm256_set1_ps(av), row, acc);
            }
        } else {
            for (kk, &av) in a.iter().enumerate() {
                let row = _mm256_loadu_ps(p.add(kk * PANEL));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), row));
            }
        }
        acc
    }

    /// Pairwise tile: recursion splits at the scalar midpoints down to
    /// four terms, whose subtrees [`pairwise_leaf`] evaluates inline.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and `panel.len() >= a.len() * PANEL`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn pairwise_v(a: &[f32], panel: &[f32], fma: bool) -> __m256 {
        if a.len() <= 4 {
            return pairwise_leaf::<1>(a, panel, fma)[0];
        }
        let mid = a.len() / 2;
        let left = pairwise_v(&a[..mid], &panel[..mid * PANEL], fma);
        let right = pairwise_v(&a[mid..], &panel[mid * PANEL..], fma);
        _mm256_add_ps(left, right)
    }

    /// The scalar `pairwise_dot` tree for `k <= 4` terms, unrolled, for
    /// `R` interleaved rows (`a[kk * R + r]` is term `kk` of row `r`):
    /// `k = 3` splits as `[0] + [1, 2]`, `k = 4` as `[0, 1] + [2, 3]`, and
    /// a two-term pair is `a0*b0 + a1*b1` (or `fma(a1, b1, a0*b0)`).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `a.len() / R <= 4`, and
    /// `panel.len() >= (a.len() / R) * PANEL`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn pairwise_leaf<const R: usize>(a: &[f32], panel: &[f32], fma: bool) -> [__m256; R] {
        let p = panel.as_ptr();
        let prod = |kk: usize, r: usize| {
            _mm256_mul_ps(
                _mm256_set1_ps(a[kk * R + r]),
                _mm256_loadu_ps(p.add(kk * PANEL)),
            )
        };
        let pair = |kk: usize, r: usize| {
            let row = _mm256_loadu_ps(p.add((kk + 1) * PANEL));
            let av = _mm256_set1_ps(a[(kk + 1) * R + r]);
            if fma {
                _mm256_fmadd_ps(av, row, prod(kk, r))
            } else {
                _mm256_add_ps(prod(kk, r), _mm256_mul_ps(av, row))
            }
        };
        let mut acc = [_mm256_setzero_ps(); R];
        for (r, lane) in acc.iter_mut().enumerate() {
            *lane = match a.len() / R {
                0 => _mm256_setzero_ps(),
                1 => prod(0, r),
                2 => pair(0, r),
                3 => _mm256_add_ps(prod(0, r), pair(1, r)),
                _ => _mm256_add_ps(pair(0, r), pair(2, r)),
            };
        }
        acc
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn blocked_v(block: usize, a: &[f32], panel: &[f32], fma: bool) -> __m256 {
        let block = block.max(1);
        let k = a.len();
        if k <= block {
            return seq_v(a, panel, fma);
        }
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < k {
            let end = (i + block).min(k);
            let partial = seq_v(&a[i..end], &panel[i * PANEL..end * PANEL], fma);
            acc = _mm256_add_ps(acc, partial);
            i = end;
        }
        acc
    }

    /// [`MR`]-row register block for the packed-lhs path. Zero-padded
    /// block rows are computed and discarded by the caller.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (checked by [`have_fma_simd`]),
    /// `panel.len() == (block.len() / MR) * PANEL`, and an accumulation
    /// mode in `cfg` that [`super::lhs_pack_applies`] admits.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mr_tile_f32(
        cfg: &KernelConfig,
        block: &[f32],
        rows: usize,
        panel: &[f32],
    ) -> [[f32; PANEL]; MR] {
        let _ = rows; // All MR lanes are computed; padded rows are discarded.
        let acc = match cfg.accum {
            AccumMode::Sequential => seq_mr_v(block, panel, cfg.fma),
            AccumMode::Blocked(kblock) => blocked_mr_v(kblock, block, panel, cfg.fma),
            AccumMode::Pairwise => pairwise_mr_v(block, panel, cfg.fma),
            AccumMode::Kahan => unreachable!("lhs_pack_applies gates the packed-lhs path"),
        };
        let mut out = [[0f32; PANEL]; MR];
        for (slot, lane) in out.iter_mut().zip(&acc) {
            _mm256_storeu_ps(slot.as_mut_ptr(), *lane);
        }
        out
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn seq_mr_v(block: &[f32], panel: &[f32], fma: bool) -> [__m256; MR] {
        let k = block.len() / MR;
        let mut acc = [_mm256_setzero_ps(); MR];
        let p = panel.as_ptr();
        let b = block.as_ptr();
        if fma {
            for kk in 0..k {
                let row = _mm256_loadu_ps(p.add(kk * PANEL));
                for (r, lane) in acc.iter_mut().enumerate() {
                    *lane = _mm256_fmadd_ps(_mm256_set1_ps(*b.add(kk * MR + r)), row, *lane);
                }
            }
        } else {
            for kk in 0..k {
                let row = _mm256_loadu_ps(p.add(kk * PANEL));
                for (r, lane) in acc.iter_mut().enumerate() {
                    *lane = _mm256_add_ps(
                        *lane,
                        _mm256_mul_ps(_mm256_set1_ps(*b.add(kk * MR + r)), row),
                    );
                }
            }
        }
        acc
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn blocked_mr_v(kblock: usize, block: &[f32], panel: &[f32], fma: bool) -> [__m256; MR] {
        let kblock = kblock.max(1);
        let k = block.len() / MR;
        if k <= kblock {
            return seq_mr_v(block, panel, fma);
        }
        let mut acc = [_mm256_setzero_ps(); MR];
        let mut i = 0;
        while i < k {
            let end = (i + kblock).min(k);
            let partial = seq_mr_v(
                &block[i * MR..end * MR],
                &panel[i * PANEL..end * PANEL],
                fma,
            );
            for (lane, part) in acc.iter_mut().zip(&partial) {
                *lane = _mm256_add_ps(*lane, *part);
            }
            i = end;
        }
        acc
    }

    /// [`MR`]-row mirror of [`pairwise_v`]: the recursion splits `k` at the
    /// same midpoints, and each level handles all [`MR`] rows at once.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and `panel.len() >= (block.len() / MR) * PANEL`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn pairwise_mr_v(block: &[f32], panel: &[f32], fma: bool) -> [__m256; MR] {
        let k = block.len() / MR;
        if k <= 4 {
            return pairwise_leaf::<MR>(block, panel, fma);
        }
        let mid = k / 2;
        let left = pairwise_mr_v(&block[..mid * MR], &panel[..mid * PANEL], fma);
        let right = pairwise_mr_v(&block[mid * MR..], &panel[mid * PANEL..], fma);
        let mut acc = left;
        for (lane, r) in acc.iter_mut().zip(right) {
            *lane = _mm256_add_ps(*lane, r);
        }
        acc
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn kahan_v(a: &[f32], panel: &[f32]) -> __m256 {
        let mut acc = _mm256_setzero_ps();
        let mut comp = _mm256_setzero_ps();
        let p = panel.as_ptr();
        for (kk, &av) in a.iter().enumerate() {
            let x = _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(p.add(kk * PANEL)));
            let y = _mm256_sub_ps(x, comp);
            let t = _mm256_add_ps(acc, y);
            comp = _mm256_sub_ps(_mm256_sub_ps(t, acc), y);
            acc = t;
        }
        acc
    }
}

/// Computes one output row: `out_row[col] = cfg.dot(a_row, column col)`.
fn gemm_row<T: Element>(cfg: &KernelConfig, a_row: &[T], rhs: &PackedRhs<T>, out_row: &mut [T]) {
    if rhs.k == 0 {
        out_row.fill(T::ZERO);
        return;
    }
    let panel_len = rhs.k * PANEL;
    for (p, panel) in rhs.panels.chunks(panel_len).enumerate() {
        let tile = dot_tile(cfg, a_row, panel);
        let col0 = p * PANEL;
        let width = PANEL.min(rhs.n - col0);
        out_row[col0..col0 + width].copy_from_slice(&tile[..width]);
    }
}

/// Worker-thread count appropriate for `flops` multiply-accumulates: 1
/// below the fan-out threshold, otherwise the host parallelism capped at
/// [`MAX_KERNEL_THREADS`].
pub fn auto_threads(flops: u64) -> usize {
    if flops < PAR_MIN_FLOPS {
        return 1;
    }
    host_threads().min(MAX_KERNEL_THREADS)
}

/// The host's available parallelism (at least 1), queried once per
/// process. `std::thread::available_parallelism` reads cgroup files on
/// every call, which costs tens of microseconds; every auto-threaded site
/// (kernels, Merkle trees, calibration, the scheduler) reads this cached
/// value instead.
pub fn host_threads() -> usize {
    static HOST_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Splits `out` into contiguous bands of whole `unit`-element chunks and
/// runs `f(first_unit_index, band)` for each band on a scoped worker
/// thread (or inline when one worker suffices). Units are never split
/// across workers, so any per-unit computation is identical at every
/// thread count.
pub(crate) fn par_bands<T, F>(out: &mut [T], unit: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let units = out.len().checked_div(unit).unwrap_or(0);
    let workers = threads.clamp(1, MAX_KERNEL_THREADS).min(units.max(1));
    if workers <= 1 {
        f(0, out);
        return;
    }
    let per = units.div_ceil(workers);
    std::thread::scope(|scope| {
        for (wi, band) in out.chunks_mut(per * unit).enumerate() {
            let f = &f;
            scope.spawn(move || f(wi * per, band));
        }
    });
}

/// Blocked GEMM into a preallocated buffer: `out[row * n + col] =
/// cfg.dot(a[row*k..][..k], column col of rhs)` for every row and column,
/// bit-identical to the scalar oracle at any `threads` count.
///
/// # Panics
///
/// Panics if `a` is not `m * rhs.k()` long or `out` is not
/// `m * rhs.n()` long.
pub fn gemm_into<T: Element>(
    cfg: &KernelConfig,
    a: &[T],
    m: usize,
    rhs: &PackedRhs<T>,
    out: &mut [T],
    threads: usize,
) {
    assert_eq!(a.len(), m * rhs.k, "lhs length mismatch");
    assert_eq!(out.len(), m * rhs.n, "out length mismatch");
    if rhs.n == 0 {
        return;
    }
    par_bands(out, rhs.n, threads, |row0, band| {
        for (i, out_row) in band.chunks_mut(rhs.n).enumerate() {
            let row = row0 + i;
            gemm_row(cfg, &a[row * rhs.k..(row + 1) * rhs.k], rhs, out_row);
        }
    });
}

/// Allocating convenience wrapper around [`gemm_into`] (used by the kernel
/// microbenchmarks to pin an explicit thread count).
pub fn gemm<T: Element>(
    cfg: &KernelConfig,
    a: &[T],
    m: usize,
    rhs: &PackedRhs<T>,
    threads: usize,
) -> Vec<T> {
    let mut out = vec![T::ZERO; m * rhs.n];
    gemm_into(cfg, a, m, rhs, &mut out, threads);
    out
}

/// Row-block height of the packed-lhs micro-kernel: how many output rows
/// one [`PackedLhs`] panel interleaves, i.e. how many independent
/// accumulator chains share each streamed rhs panel load.
pub const MR: usize = 8;

/// The left-hand operand of a GEMM, repacked into row blocks of [`MR`]
/// interleaved rows (`panel[kk * MR + r]` holds reduction index `kk` of
/// block-row `r`; rows past `m` are zero-padded, computed and discarded).
///
/// Packing the lhs buys two things the row-at-a-time `gemm_row` path
/// cannot: each rhs panel row is loaded once and reused across [`MR`]
/// output rows, and [`MR`] independent accumulation chains run per column
/// lane instead of one, which hides the FP-add/FMA latency.
/// Like rhs packing, this moves bytes, not arithmetic: every output
/// element's dot product still reduces in the exact scalar-oracle order.
#[derive(Debug, Clone)]
pub struct PackedLhs<T: Scalar> {
    m: usize,
    k: usize,
    panels: Vec<T>,
}

impl<T: Scalar> PackedLhs<T> {
    /// Packs a row-major `[m, k]` matrix (the `A` of `A @ B`).
    pub fn from_row_major(a: &[T], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "lhs length mismatch");
        let mut panels = vec![T::ZERO; m.div_ceil(MR) * k * MR];
        for (row, vals) in a.chunks_exact(k.max(1)).take(m).enumerate() {
            let base = (row / MR) * k * MR + row % MR;
            for (kk, &v) in vals[..k].iter().enumerate() {
                panels[base + kk * MR] = v;
            }
        }
        PackedLhs { m, k, panels }
    }

    /// Output row count `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction length `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Whether `cfg` has a packed-lhs [`MR`]-row micro-kernel. Sequential and
/// blocked accumulation tile directly (their per-row chains are plain
/// left-to-right folds the block kernel replays verbatim), and pairwise
/// tiles recurse over `k` with the same midpoints for all [`MR`] rows at
/// once; Kahan configs keep the row-at-a-time path.
pub fn lhs_pack_applies(cfg: &KernelConfig) -> bool {
    !matches!(cfg.accum, AccumMode::Kahan)
}

/// One [`MR`]x[`PANEL`] sequential register block: `rows` dot products per
/// column lane, every row following the scalar sequential order.
fn seq_mr_tile<T: Element>(
    block: &[T],
    rows: usize,
    panel: &[T],
    fma: bool,
    acc: &mut [[T; PANEL]; MR],
) {
    let k = block.len() / MR;
    for kk in 0..k {
        let brow = &panel[kk * PANEL..(kk + 1) * PANEL];
        let arow = &block[kk * MR..kk * MR + rows];
        for (r, &av) in arow.iter().enumerate() {
            for (lane, &bv) in acc[r].iter_mut().zip(brow) {
                *lane = if fma {
                    av.mul_add(bv, *lane)
                } else {
                    *lane + av * bv
                };
            }
        }
    }
}

/// Blocked variant of [`seq_mr_tile`]: per-row sequential partials per
/// `block`-sized `k` chunk with a strict left-to-right partial reduction —
/// the exact scalar `AccumMode::Blocked` structure, row by row.
fn blocked_mr_tile<T: Element>(
    kblock: usize,
    lhs_block: &[T],
    rows: usize,
    panel: &[T],
    fma: bool,
) -> [[T; PANEL]; MR] {
    let kblock = kblock.max(1);
    let k = lhs_block.len() / MR;
    let mut acc = [[T::ZERO; PANEL]; MR];
    if k <= kblock {
        seq_mr_tile(lhs_block, rows, panel, fma, &mut acc);
        return acc;
    }
    let mut i = 0;
    while i < k {
        let end = (i + kblock).min(k);
        let mut partial = [[T::ZERO; PANEL]; MR];
        seq_mr_tile(
            &lhs_block[i * MR..end * MR],
            rows,
            &panel[i * PANEL..end * PANEL],
            fma,
            &mut partial,
        );
        for (accr, partr) in acc.iter_mut().zip(&partial) {
            for (lane, &p) in accr.iter_mut().zip(partr) {
                *lane += p;
            }
        }
        i = end;
    }
    acc
}

/// Pairwise variant of [`seq_mr_tile`]: the recursion splits `k` at the
/// same midpoints as the scalar `pairwise_dot`, so each of the `rows`
/// rows reduces its products in the identical tree shape.
fn pairwise_mr_tile<T: Element>(
    block: &[T],
    rows: usize,
    panel: &[T],
    fma: bool,
) -> [[T; PANEL]; MR] {
    let mut acc = [[T::ZERO; PANEL]; MR];
    match block.len() / MR {
        0 => {}
        1 => {
            for (accr, &av) in acc.iter_mut().zip(&block[..rows]) {
                for (lane, &bv) in accr.iter_mut().zip(&panel[..PANEL]) {
                    *lane = av * bv;
                }
            }
        }
        2 => {
            let (r0, r1) = panel[..2 * PANEL].split_at(PANEL);
            for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                let (a0, a1) = (block[r], block[MR + r]);
                for ((lane, &b0), &b1) in accr.iter_mut().zip(r0).zip(r1) {
                    *lane = if fma {
                        a1.mul_add(b1, a0 * b0)
                    } else {
                        a0 * b0 + a1 * b1
                    };
                }
            }
        }
        k => {
            let mid = k / 2;
            let left = pairwise_mr_tile(&block[..mid * MR], rows, &panel[..mid * PANEL], fma);
            let right = pairwise_mr_tile(&block[mid * MR..], rows, &panel[mid * PANEL..], fma);
            for ((accr, l), r) in acc.iter_mut().zip(&left).zip(&right).take(rows) {
                for ((lane, &lv), &rv) in accr.iter_mut().zip(l).zip(r) {
                    *lane = lv + rv;
                }
            }
        }
    }
    acc
}

/// Dispatches one [`MR`]-row register block under `cfg` (every
/// accumulation mode but Kahan; see [`lhs_pack_applies`]). `f32` blocks use
/// the AVX2/FMA vector micro-kernel when the host supports it, under the
/// same per-lane IEEE-754-equivalence argument as [`dot_tile`].
fn mr_tile<T: Element>(
    cfg: &KernelConfig,
    lhs_block: &[T],
    rows: usize,
    panel: &[T],
) -> [[T; PANEL]; MR] {
    #[cfg(target_arch = "x86_64")]
    if core::any::TypeId::of::<T>() == core::any::TypeId::of::<f32>() && x86::have_fma_simd() {
        // SAFETY: `T` is `f32` (checked above), so the slices reinterpret
        // losslessly and the result transmutes element-for-element; the
        // target features were runtime-detected.
        unsafe {
            let b32 =
                core::slice::from_raw_parts(lhs_block.as_ptr().cast::<f32>(), lhs_block.len());
            let p32 = core::slice::from_raw_parts(panel.as_ptr().cast::<f32>(), panel.len());
            let tile = x86::mr_tile_f32(cfg, b32, rows, p32);
            return core::mem::transmute_copy(&tile);
        }
    }
    match cfg.accum {
        AccumMode::Sequential => {
            let mut acc = [[T::ZERO; PANEL]; MR];
            seq_mr_tile(lhs_block, rows, panel, cfg.fma, &mut acc);
            acc
        }
        AccumMode::Blocked(kblock) => blocked_mr_tile(kblock, lhs_block, rows, panel, cfg.fma),
        AccumMode::Pairwise => pairwise_mr_tile(lhs_block, rows, panel, cfg.fma),
        AccumMode::Kahan => unreachable!("lhs_pack_applies gates the packed-lhs path"),
    }
}

/// Blocked GEMM from a packed lhs into a preallocated buffer, bit-identical
/// to [`gemm_into`] on the unpacked operand at any thread count.
///
/// # Panics
///
/// Panics if `lhs.k() != rhs.k()`, if `out` is not `lhs.m() * rhs.n()`
/// long, or if `cfg` has no packed-lhs micro-kernel
/// (see [`lhs_pack_applies`]).
pub fn gemm_packed_into<T: Element>(
    cfg: &KernelConfig,
    lhs: &PackedLhs<T>,
    rhs: &PackedRhs<T>,
    out: &mut [T],
    threads: usize,
) {
    assert_eq!(lhs.k, rhs.k, "reduction length mismatch");
    assert_eq!(out.len(), lhs.m * rhs.n, "out length mismatch");
    assert!(lhs_pack_applies(cfg), "no packed-lhs kernel for {cfg:?}");
    if rhs.n == 0 {
        return;
    }
    if rhs.k == 0 {
        out.fill(T::ZERO);
        return;
    }
    let (n, k) = (rhs.n, rhs.k);
    let panel_len = k * PANEL;
    par_bands(out, MR * n, threads, |block0, band| {
        for (bi, chunk) in band.chunks_mut(MR * n).enumerate() {
            let block = block0 + bi;
            let rows = chunk.len() / n;
            let lhs_block = &lhs.panels[block * k * MR..(block + 1) * k * MR];
            for (p, panel) in rhs.panels.chunks(panel_len).enumerate() {
                let tile = mr_tile(cfg, lhs_block, rows, panel);
                let col0 = p * PANEL;
                let width = PANEL.min(n - col0);
                for (r, tile_row) in tile.iter().enumerate().take(rows) {
                    chunk[r * n + col0..r * n + col0 + width].copy_from_slice(&tile_row[..width]);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::MathLib;

    fn all_cfgs() -> Vec<KernelConfig> {
        let mut cfgs = Vec::new();
        for accum in [
            AccumMode::Sequential,
            AccumMode::Pairwise,
            AccumMode::Blocked(1),
            AccumMode::Blocked(7),
            AccumMode::Blocked(32),
            AccumMode::Kahan,
        ] {
            for fma in [false, true] {
                cfgs.push(KernelConfig {
                    accum,
                    fma,
                    math: MathLib::Reference,
                });
            }
        }
        cfgs
    }

    fn ill_conditioned(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if state & 2 == 0 { 1.0 } else { -1.0 };
                (sign * 10f64.powf(unit * 6.0 - 3.0)) as f32
            })
            .collect()
    }

    #[test]
    fn packed_layout_roundtrips() {
        let (k, n) = (5, 11);
        let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
        let packed = PackedRhs::from_row_major(&b, k, n);
        assert_eq!(packed.k(), k);
        assert_eq!(packed.n(), n);
        for col in 0..n {
            let p = col / PANEL;
            let j = col % PANEL;
            for kk in 0..k {
                assert_eq!(
                    packed.panels[p * k * PANEL + kk * PANEL + j],
                    b[kk * n + col]
                );
            }
        }
    }

    #[test]
    fn tiles_match_scalar_dot_for_every_mode() {
        for k in [0usize, 1, 2, 3, 7, 8, 31, 33, 97] {
            let a = ill_conditioned(k, 11);
            let n = PANEL + 3;
            let b = ill_conditioned(k * n, 23);
            let packed = PackedRhs::from_row_major(&b, k, n);
            for cfg in all_cfgs() {
                let fast = gemm(&cfg, &a, 1, &packed, 1);
                for col in 0..n {
                    let col_vals: Vec<f32> = (0..k).map(|kk| b[kk * n + col]).collect();
                    let oracle = cfg.dot(&a, &col_vals);
                    assert_eq!(
                        fast[col].to_bits(),
                        oracle.to_bits(),
                        "k={k} col={col} {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_bits() {
        let (m, k, n) = (13, 57, 19);
        let a = ill_conditioned(m * k, 5);
        let b = ill_conditioned(k * n, 9);
        let packed = PackedRhs::from_row_major(&b, k, n);
        for cfg in all_cfgs() {
            let one = gemm(&cfg, &a, m, &packed, 1);
            for threads in [2, 3, 8, 64] {
                let many = gemm(&cfg, &a, m, &packed, threads);
                let same = one
                    .iter()
                    .zip(&many)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "threads={threads} {cfg:?}");
            }
        }
    }

    #[test]
    fn transposed_packing_matches_row_major() {
        let (k, n) = (9, 14);
        let b = ill_conditioned(k * n, 77);
        let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
        let from_b = PackedRhs::from_row_major(&b, k, n);
        let from_bt = PackedRhs::from_transposed(&bt, n, k);
        assert_eq!(from_b.panels, from_bt.panels);
    }

    #[test]
    fn degenerate_shapes() {
        let cfg = KernelConfig::reference();
        // k = 0: all dots are empty sums.
        let packed = PackedRhs::from_row_major(&[], 0, 4);
        assert_eq!(gemm::<f32>(&cfg, &[], 3, &packed, 2), vec![0.0; 12]);
        // n = 0: empty output.
        let packed = PackedRhs::from_row_major(&[], 5, 0);
        assert!(gemm::<f32>(&cfg, &[1.0; 10], 2, &packed, 2).is_empty());
        // m = 0: empty output.
        let packed = PackedRhs::from_row_major(&[1.0, 2.0], 1, 2);
        assert!(gemm::<f32>(&cfg, &[], 0, &packed, 2).is_empty());
    }

    #[test]
    fn packed_lhs_layout_roundtrips() {
        let (m, k) = (7, 5);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
        let lhs = PackedLhs::from_row_major(&a, m, k);
        assert_eq!(lhs.m(), m);
        assert_eq!(lhs.k(), k);
        for row in 0..m {
            let p = row / MR;
            let r = row % MR;
            for kk in 0..k {
                assert_eq!(lhs.panels[p * k * MR + kk * MR + r], a[row * k + kk]);
            }
        }
        // Padded block rows are zero.
        assert_eq!(lhs.panels[(m / MR) * k * MR + m % MR], 0.0);
    }

    #[test]
    fn packed_lhs_matches_row_gemm_bitwise() {
        // Ragged everywhere: m % MR != 0, n % PANEL != 0, odd k.
        let (m, k, n) = (11, 37, 19);
        let a = ill_conditioned(m * k, 3);
        let b = ill_conditioned(k * n, 13);
        let rhs = PackedRhs::from_row_major(&b, k, n);
        let lhs = PackedLhs::from_row_major(&a, m, k);
        for cfg in all_cfgs().into_iter().filter(lhs_pack_applies) {
            let base = gemm(&cfg, &a, m, &rhs, 1);
            for threads in [1usize, 2, 5] {
                let mut out = vec![0f32; m * n];
                gemm_packed_into(&cfg, &lhs, &rhs, &mut out, threads);
                let same = base
                    .iter()
                    .zip(&out)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "threads={threads} {cfg:?}");
            }
        }
    }

    #[test]
    fn packed_lhs_degenerate_shapes() {
        let cfg = KernelConfig::reference();
        // k = 0: all dots are empty sums.
        let rhs = PackedRhs::from_row_major(&[], 0, 4);
        let lhs = PackedLhs::<f32>::from_row_major(&[], 3, 0);
        let mut out = vec![1.0f32; 12];
        gemm_packed_into(&cfg, &lhs, &rhs, &mut out, 2);
        assert_eq!(out, vec![0.0; 12]);
        // m smaller than one MR block.
        let (m, k, n) = (2, 9, 10);
        let a = ill_conditioned(m * k, 21);
        let b = ill_conditioned(k * n, 22);
        let rhs = PackedRhs::from_row_major(&b, k, n);
        let lhs = PackedLhs::from_row_major(&a, m, k);
        let mut out = vec![0f32; m * n];
        gemm_packed_into(&cfg, &lhs, &rhs, &mut out, 4);
        let base = gemm(&cfg, &a, m, &rhs, 1);
        assert!(base
            .iter()
            .zip(&out)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn auto_threads_thresholds() {
        assert_eq!(auto_threads(0), 1);
        assert_eq!(auto_threads(PAR_MIN_FLOPS - 1), 1);
        assert!(auto_threads(1 << 24) >= 1);
        assert!(auto_threads(u64::MAX) <= MAX_KERNEL_THREADS);
        assert!(host_threads() >= 1);
        assert_eq!(host_threads(), host_threads());
    }
}
