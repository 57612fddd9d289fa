//! Cache-blocked, register-tiled kernel core.
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
//! There is one GEMM driver, [`gemm_packed_into`], and it accepts every
//! [`KernelConfig`]. The freedoms a faithful kernel does have are exactly
//! the ones real BLAS implementations exploit *between* dot products, never
//! inside one:
//!
//! * **Packing.** The right-hand side is repacked once into column panels of
//!   [`PANEL`] interleaved columns (`panel[kk * PANEL + j]` holds row `kk` of
//!   panel-column `j`), and the left-hand side into blocks of up to [`MR`]
//!   interleaved rows ([`PackedLhs`]), so the inner loop streams both
//!   operands contiguously. Packing moves bytes, not arithmetic: no rounding
//!   changes.
//! * **Register tiling.** The micro-kernel evaluates one lhs row block
//!   against one rhs panel: up to [`MR`]x[`PANEL`] *independent* dot
//!   products at once. Each row is one accumulator chain of [`PANEL`]
//!   lanes, and every lane steps through `k` in precisely the order the
//!   scalar [`AccumMode`] definition dictates. The speedup comes from
//!   running [`MR`] dependency chains in parallel instead of waiting out the
//!   FP add latency of a single chain; no chain is ever reassociated. A
//!   block holds only real rows, so a one-row operand runs the one-row
//!   instance of the same tile.
//!
//! Every kernel runs on the calling thread: parallelism lives one level
//! up (sessions, calibration samples, screened claims), so no result can
//! depend on a thread count.
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

use std::borrow::Cow;

use crate::accum::{AccumMode, KernelConfig};
use crate::element::Element;

/// Register-tile width: how many output columns one micro-kernel call
/// produces, i.e. how many independent accumulation chains run in flight.
pub const PANEL: usize = 8;

/// The right-hand operand of a GEMM, repacked into interleaved column
/// panels of width [`PANEL`] (zero-padded past `n`; padded lanes are
/// computed and discarded, never observable).
#[derive(Debug, Clone)]
pub struct PackedRhs<T: Element> {
    k: usize,
    n: usize,
    panels: Vec<T>,
}

impl<T: Element> PackedRhs<T> {
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
}

/// Row-block height of the packed lhs: how many output rows one
/// [`PackedLhs`] block interleaves, i.e. how many independent accumulator
/// chains share each streamed rhs panel load.
pub const MR: usize = 8;

/// The left-hand operand of a GEMM, repacked into blocks of [`MR`]
/// interleaved rows; the last block holds the `m % MR` leftover rows, if
/// any. A block of `rows` rows stores reduction index `kk` of its row `r`
/// at `block[kk * rows + r]`, so the packing holds exactly `m * k` values:
/// no padded rows, and a one-row operand is its own row, so it borrows the
/// caller's slice instead of copying it.
///
/// Packing the lhs buys two things: each rhs panel row is loaded once and
/// reused across a block's rows, and up to [`MR`] independent accumulation
/// chains run per column lane instead of one, which hides the FP-add/FMA
/// latency. Like rhs packing, this moves bytes, not arithmetic: every
/// output element's dot product still reduces in the exact scalar-oracle
/// order.
#[derive(Debug, Clone)]
pub struct PackedLhs<'a, T: Element> {
    m: usize,
    k: usize,
    panels: Cow<'a, [T]>,
}

impl<'a, T: Element> PackedLhs<'a, T> {
    /// Packs a row-major `[m, k]` matrix (the `A` of `A @ B`); a matrix of
    /// at most one row is already packed and is borrowed.
    pub fn from_row_major(a: &'a [T], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "lhs length mismatch");
        if m <= 1 {
            return PackedLhs {
                m,
                k,
                panels: Cow::Borrowed(a),
            };
        }
        let mut panels = vec![T::ZERO; m * k];
        if k > 0 {
            for (src, dst) in a.chunks(MR * k).zip(panels.chunks_mut(MR * k)) {
                // Constant row counts for the common blocks, so the
                // interleave compiles to a fixed-stride (or plain) copy.
                match src.len() / k {
                    1 => interleave(src, k, 1, dst),
                    MR => interleave(src, k, MR, dst),
                    rows => interleave(src, k, rows, dst),
                }
            }
        }
        PackedLhs {
            m,
            k,
            panels: Cow::Owned(panels),
        }
    }

    /// The same operand owning its packed values.
    pub fn into_owned(self) -> PackedLhs<'static, T> {
        PackedLhs {
            m: self.m,
            k: self.k,
            panels: Cow::Owned(self.panels.into_owned()),
        }
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

/// Interleaves the `rows` rows of `k` values in `src` into one packed lhs
/// block: `dst[kk * rows + r] = src[r * k + kk]`.
#[inline(always)]
fn interleave<T: Copy>(src: &[T], k: usize, rows: usize, dst: &mut [T]) {
    for (r, row) in src.chunks_exact(k).enumerate() {
        for (kk, &v) in row.iter().enumerate() {
            dst[kk * rows + r] = v;
        }
    }
}

/// Sequential register block: `rows` dot products per column lane against
/// the `rows`-row interleaved `block`, every row following the scalar
/// sequential order (`acc += a * b`, or FMA-contracted when `fma`).
fn seq_mr_tile<T: Element>(
    block: &[T],
    rows: usize,
    panel: &[T],
    fma: bool,
    acc: &mut [[T; PANEL]; MR],
) {
    for (kk, arow) in block.chunks_exact(rows).enumerate() {
        let brow = &panel[kk * PANEL..(kk + 1) * PANEL];
        for (accr, &av) in acc.iter_mut().zip(arow) {
            for (lane, &bv) in accr.iter_mut().zip(brow) {
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
/// `kblock`-sized `k` chunk with a strict left-to-right partial reduction —
/// the exact scalar `AccumMode::Blocked` structure, row by row.
fn blocked_mr_tile<T: Element>(
    kblock: usize,
    block: &[T],
    rows: usize,
    panel: &[T],
    fma: bool,
) -> [[T; PANEL]; MR] {
    let kblock = kblock.max(1);
    let k = block.len() / rows;
    let mut acc = [[T::ZERO; PANEL]; MR];
    if k <= kblock {
        seq_mr_tile(block, rows, panel, fma, &mut acc);
        return acc;
    }
    let mut i = 0;
    while i < k {
        let end = (i + kblock).min(k);
        let mut partial = [[T::ZERO; PANEL]; MR];
        seq_mr_tile(
            &block[i * rows..end * rows],
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
    match block.len() / rows {
        0 => {}
        1 => {
            for (accr, &av) in acc.iter_mut().zip(block) {
                for (lane, &bv) in accr.iter_mut().zip(&panel[..PANEL]) {
                    *lane = av * bv;
                }
            }
        }
        2 => {
            let (r0, r1) = panel[..2 * PANEL].split_at(PANEL);
            for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                let (a0, a1) = (block[r], block[rows + r]);
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
            let left = pairwise_mr_tile(&block[..mid * rows], rows, &panel[..mid * PANEL], fma);
            let right = pairwise_mr_tile(&block[mid * rows..], rows, &panel[mid * PANEL..], fma);
            for ((accr, l), r) in acc.iter_mut().zip(&left).zip(&right).take(rows) {
                for ((lane, &lv), &rv) in accr.iter_mut().zip(l).zip(r) {
                    *lane = lv + rv;
                }
            }
        }
    }
    acc
}

/// Computes one row block of the output: `out` (`rows * rhs.n()` values)
/// receives the `rows` (1..=[`MR`]) rows of the interleaved `block`
/// against every rhs panel, under `cfg`. `f32` blocks use the AVX2/FMA
/// vector micro-kernel when the host supports it: [`PANEL`] is exactly one
/// 256-bit vector, and per-lane vector multiply/add/fused multiply-add are
/// the *same* IEEE-754 operations as their scalar counterparts, so the
/// specialization is bit-identical (covered by the same differential
/// tests).
fn block_into<T: Element>(
    cfg: &KernelConfig,
    block: &[T],
    rows: usize,
    rhs: &PackedRhs<T>,
    out: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    if core::any::TypeId::of::<T>() == core::any::TypeId::of::<f32>() && x86::have_fma_simd() {
        // SAFETY: `T` is `f32` (checked above), so the slices reinterpret
        // losslessly; the target features were runtime-detected.
        unsafe {
            let b32 = core::slice::from_raw_parts(block.as_ptr().cast::<f32>(), block.len());
            let p32 =
                core::slice::from_raw_parts(rhs.panels.as_ptr().cast::<f32>(), rhs.panels.len());
            let o32 = core::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<f32>(), out.len());
            x86::block_f32(cfg, b32, rows, p32, rhs.n, o32);
        }
        return;
    }
    let n = rhs.n;
    for (p, panel) in rhs.panels.chunks(rhs.k * PANEL).enumerate() {
        let tile = match cfg.accum {
            AccumMode::Sequential => {
                let mut acc = [[T::ZERO; PANEL]; MR];
                seq_mr_tile(block, rows, panel, cfg.fma, &mut acc);
                acc
            }
            AccumMode::Blocked(kblock) => blocked_mr_tile(kblock, block, rows, panel, cfg.fma),
            AccumMode::Pairwise => pairwise_mr_tile(block, rows, panel, cfg.fma),
        };
        let col0 = p * PANEL;
        let width = PANEL.min(n - col0);
        for (r, tile_row) in tile.iter().enumerate().take(rows) {
            out[r * n + col0..r * n + col0 + width].copy_from_slice(&tile_row[..width]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::have_fma_simd;

/// AVX2/FMA register-block specialization for `f32`.
///
/// Each 256-bit vector holds the [`PANEL`] lanes of one row's accumulator
/// chain; `vmulps`/`vaddps`/`vfmadd231ps` apply the identical IEEE-754
/// rounding per lane as the scalar `*`/`+`/`mul_add`, so every
/// micro-kernel below is a transliteration of its scalar counterpart, not a
/// reassociation. Each is generic over the block's row count `R`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AccumMode, KernelConfig, MR, PANEL};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };
    use std::sync::OnceLock;

    /// Runtime AVX2+FMA detection, cached after the first call.
    pub(crate) fn have_fma_simd() -> bool {
        static HAVE: OnceLock<bool> = OnceLock::new();
        *HAVE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// One `rows`-row output block (see [`super::block_into`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA (checked by [`have_fma_simd`]), `1 <= rows <= MR`,
    /// `panels` holding `n.div_ceil(PANEL)` panels of `block.len() / rows`
    /// rows, and `out.len() == rows * n`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn block_f32(
        cfg: &KernelConfig,
        block: &[f32],
        rows: usize,
        panels: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        match rows {
            1 => rows_block::<1>(cfg, block, panels, n, out),
            2 => rows_block::<2>(cfg, block, panels, n, out),
            3 => rows_block::<3>(cfg, block, panels, n, out),
            4 => rows_block::<4>(cfg, block, panels, n, out),
            5 => rows_block::<5>(cfg, block, panels, n, out),
            6 => rows_block::<6>(cfg, block, panels, n, out),
            7 => rows_block::<7>(cfg, block, panels, n, out),
            // A block never holds more than MR rows.
            _ => rows_block::<MR>(cfg, block, panels, n, out),
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn rows_block<const R: usize>(
        cfg: &KernelConfig,
        block: &[f32],
        panels: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let panel_len = (block.len() / R) * PANEL;
        for (p, panel) in panels.chunks(panel_len).enumerate() {
            let acc = match cfg.accum {
                AccumMode::Sequential => seq_mr_v::<R>(block, panel, cfg.fma),
                AccumMode::Blocked(kblock) => blocked_mr_v::<R>(kblock, block, panel, cfg.fma),
                AccumMode::Pairwise => pairwise_mr_v::<R>(block, panel, cfg.fma),
            };
            let col0 = p * PANEL;
            let width = PANEL.min(n - col0);
            for (r, lane) in acc.iter().enumerate() {
                let dst = &mut out[r * n + col0..r * n + col0 + width];
                if width == PANEL {
                    _mm256_storeu_ps(dst.as_mut_ptr(), *lane);
                } else {
                    let mut tail = [0f32; PANEL];
                    _mm256_storeu_ps(tail.as_mut_ptr(), *lane);
                    dst.copy_from_slice(&tail[..width]);
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn seq_mr_v<const R: usize>(block: &[f32], panel: &[f32], fma: bool) -> [__m256; R] {
        let k = block.len() / R;
        let mut acc = [_mm256_setzero_ps(); R];
        let p = panel.as_ptr();
        let b = block.as_ptr();
        if fma {
            for kk in 0..k {
                let row = _mm256_loadu_ps(p.add(kk * PANEL));
                for (r, lane) in acc.iter_mut().enumerate() {
                    *lane = _mm256_fmadd_ps(_mm256_set1_ps(*b.add(kk * R + r)), row, *lane);
                }
            }
        } else {
            for kk in 0..k {
                let row = _mm256_loadu_ps(p.add(kk * PANEL));
                for (r, lane) in acc.iter_mut().enumerate() {
                    *lane = _mm256_add_ps(
                        *lane,
                        _mm256_mul_ps(_mm256_set1_ps(*b.add(kk * R + r)), row),
                    );
                }
            }
        }
        acc
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn blocked_mr_v<const R: usize>(
        kblock: usize,
        block: &[f32],
        panel: &[f32],
        fma: bool,
    ) -> [__m256; R] {
        let kblock = kblock.max(1);
        let k = block.len() / R;
        if k <= kblock {
            return seq_mr_v::<R>(block, panel, fma);
        }
        let mut acc = [_mm256_setzero_ps(); R];
        let mut i = 0;
        while i < k {
            let end = (i + kblock).min(k);
            let partial =
                seq_mr_v::<R>(&block[i * R..end * R], &panel[i * PANEL..end * PANEL], fma);
            for (lane, part) in acc.iter_mut().zip(&partial) {
                *lane = _mm256_add_ps(*lane, *part);
            }
            i = end;
        }
        acc
    }

    /// Pairwise block: the recursion splits `k` at the scalar midpoints for
    /// all `R` rows at once, down to four terms, whose subtrees
    /// [`pairwise_leaf`] evaluates inline.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and `panel.len() >= (block.len() / R) * PANEL`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn pairwise_mr_v<const R: usize>(
        block: &[f32],
        panel: &[f32],
        fma: bool,
    ) -> [__m256; R] {
        let k = block.len() / R;
        if k <= 4 {
            return pairwise_leaf::<R>(block, panel, fma);
        }
        let mid = k / 2;
        let left = pairwise_mr_v::<R>(&block[..mid * R], &panel[..mid * PANEL], fma);
        let right = pairwise_mr_v::<R>(&block[mid * R..], &panel[mid * PANEL..], fma);
        let mut acc = left;
        for (lane, r) in acc.iter_mut().zip(right) {
            *lane = _mm256_add_ps(*lane, r);
        }
        acc
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
}

/// Worker cap of every compute-bound fan-out: calibration samples, batch
/// screening and the scheduler's prepare and screen + dispute phases.
/// Kernels run on the calling thread, so this also caps how many threads
/// run forward passes at once.
pub const MAX_PAR_THREADS: usize = 8;

/// The host's available parallelism (at least 1), queried once per
/// process. `std::thread::available_parallelism` reads cgroup files on
/// every call, which costs tens of microseconds; every site that sizes a
/// worker pool (calibration, the scheduler, the benches) reads this cached
/// value instead.
pub fn host_threads() -> usize {
    static HOST_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The GEMM driver: `out[row * n + col] = cfg.dot(row of lhs, column col
/// of rhs)` for every row and column, under every [`KernelConfig`],
/// bit-identical to the scalar oracle.
///
/// # Panics
///
/// Panics if `lhs.k() != rhs.k()` or if `out` is not `lhs.m() * rhs.n()`
/// long.
pub fn gemm_packed_into<T: Element>(
    cfg: &KernelConfig,
    lhs: &PackedLhs<T>,
    rhs: &PackedRhs<T>,
    out: &mut [T],
) {
    assert_eq!(lhs.k, rhs.k, "reduction length mismatch");
    assert_eq!(out.len(), lhs.m * rhs.n, "out length mismatch");
    if rhs.n == 0 {
        return;
    }
    if rhs.k == 0 {
        out.fill(T::ZERO);
        return;
    }
    let (n, k) = (rhs.n, rhs.k);
    for (bi, chunk) in out.chunks_mut(MR * n).enumerate() {
        let rows = chunk.len() / n;
        let start = bi * MR * k;
        block_into(cfg, &lhs.panels[start..start + rows * k], rows, rhs, chunk);
    }
}

/// Allocating convenience wrapper around [`gemm_packed_into`] (used by the
/// kernel microbenchmarks and tests).
pub fn gemm<T: Element>(cfg: &KernelConfig, lhs: &PackedLhs<T>, rhs: &PackedRhs<T>) -> Vec<T> {
    let mut out = vec![T::ZERO; lhs.m * rhs.n];
    gemm_packed_into(cfg, lhs, rhs, &mut out);
    out
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

    fn ill_conditioned_f64(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if state & 2 == 0 { 1.0 } else { -1.0 };
                sign * 10f64.powf(unit * 6.0 - 3.0)
            })
            .collect()
    }

    fn ill_conditioned(n: usize, seed: u64) -> Vec<f32> {
        ill_conditioned_f64(n, seed)
            .into_iter()
            .map(|v| v as f32)
            .collect()
    }

    /// `cfg.dot` of every row of the row-major `[m, k]` `a` against every
    /// column of the row-major `[k, n]` `b`, row-major.
    fn oracle<T: Element>(
        cfg: &KernelConfig,
        a: &[T],
        b: &[T],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(m * n);
        for row in 0..m {
            for col in 0..n {
                let col_vals: Vec<T> = (0..k).map(|kk| b[kk * n + col]).collect();
                out.push(cfg.dot(&a[row * k..(row + 1) * k], &col_vals));
            }
        }
        out
    }

    fn same_bits<T: Element>(x: &[T], y: &[T]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits())
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
            let n = PANEL + 3;
            let b = ill_conditioned(k * n, 23);
            let rhs = PackedRhs::from_row_major(&b, k, n);
            for m in [1, MR, MR + 1] {
                let a = ill_conditioned(m * k, 11);
                let lhs = PackedLhs::from_row_major(&a, m, k);
                for cfg in all_cfgs() {
                    let fast = gemm(&cfg, &lhs, &rhs);
                    assert!(
                        same_bits(&fast, &oracle(&cfg, &a, &b, m, k, n)),
                        "m={m} k={k} {cfg:?}"
                    );
                }
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
        let rhs = PackedRhs::from_row_major(&[], 0, 4);
        let lhs = PackedLhs::<f32>::from_row_major(&[], 3, 0);
        assert_eq!(gemm(&cfg, &lhs, &rhs), vec![0.0; 12]);
        // n = 0: empty output.
        let rhs = PackedRhs::from_row_major(&[], 5, 0);
        let lhs = PackedLhs::from_row_major(&[1.0f32; 10], 2, 5);
        assert!(gemm(&cfg, &lhs, &rhs).is_empty());
        // m = 0: empty output.
        let rhs = PackedRhs::from_row_major(&[1.0f32, 2.0], 1, 2);
        let lhs = PackedLhs::from_row_major(&[], 0, 1);
        assert!(gemm(&cfg, &lhs, &rhs).is_empty());
    }

    #[test]
    fn packed_lhs_layout_roundtrips() {
        for m in [1, 7, MR, 2 * MR + 3] {
            let k = 5;
            let a: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
            let lhs = PackedLhs::from_row_major(&a, m, k);
            assert_eq!(lhs.m(), m);
            assert_eq!(lhs.k(), k);
            // No padded rows: the packing holds exactly the operand.
            assert_eq!(lhs.panels.len(), m * k);
            for row in 0..m {
                let block0 = row - row % MR;
                let rows = MR.min(m - block0);
                for kk in 0..k {
                    assert_eq!(
                        lhs.panels[block0 * k + kk * rows + row % MR],
                        a[row * k + kk]
                    );
                }
            }
        }
        // A one-row operand is its own row.
        let row = [3.0f32, -1.0, 2.5];
        let one = PackedLhs::from_row_major(&row, 1, 3);
        assert!(matches!(one.panels, Cow::Borrowed(p) if p.as_ptr() == row.as_ptr()));
        assert_eq!(one.into_owned().panels[..], row);
    }

    #[test]
    fn packed_lhs_matches_scalar_dot_bitwise() {
        // Ragged everywhere: m % MR != 0, n % PANEL != 0, odd k.
        for (m, k, n, seed_a, seed_b) in [(11, 37, 19, 3, 13), (13, 57, 19, 5, 9)] {
            let a = ill_conditioned(m * k, seed_a);
            let b = ill_conditioned(k * n, seed_b);
            let rhs = PackedRhs::from_row_major(&b, k, n);
            let lhs = PackedLhs::from_row_major(&a, m, k);
            for cfg in all_cfgs() {
                let mut out = vec![f32::NAN; m * n];
                gemm_packed_into(&cfg, &lhs, &rhs, &mut out);
                assert!(
                    same_bits(&out, &oracle(&cfg, &a, &b, m, k, n)),
                    "{m}x{k}x{n} {cfg:?}"
                );
            }
        }
    }

    /// The generic scalar tiles (which an AVX2 host runs for no `f32`
    /// config) through the driver in `f64`: every accumulation mode,
    /// one-row operands and one-row tail blocks.
    #[test]
    fn f64_driver_matches_scalar_dot_for_every_mode_and_row_count() {
        let n = PANEL + 5;
        for k in [1usize, 2, 3, 5, 33, 70] {
            let b = ill_conditioned_f64(k * n, 31 + k as u64);
            let rhs = PackedRhs::from_row_major(&b, k, n);
            for m in 1..=17 {
                let a = ill_conditioned_f64(m * k, 41 + m as u64);
                let lhs = PackedLhs::from_row_major(&a, m, k);
                for cfg in all_cfgs() {
                    let mut out = vec![f64::NAN; m * n];
                    gemm_packed_into(&cfg, &lhs, &rhs, &mut out);
                    assert!(
                        same_bits(&out, &oracle(&cfg, &a, &b, m, k, n)),
                        "f64 {m}x{k}x{n} {cfg:?}"
                    );
                }
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
        gemm_packed_into(&cfg, &lhs, &rhs, &mut out);
        assert_eq!(out, vec![0.0; 12]);
        // m smaller than one MR block.
        let (m, k, n) = (2, 9, 10);
        let a = ill_conditioned(m * k, 21);
        let b = ill_conditioned(k * n, 22);
        let rhs = PackedRhs::from_row_major(&b, k, n);
        let lhs = PackedLhs::from_row_major(&a, m, k);
        let mut out = vec![0f32; m * n];
        gemm_packed_into(&cfg, &lhs, &rhs, &mut out);
        assert!(same_bits(&out, &oracle(&cfg, &a, &b, m, k, n)));
    }
}
