//! Differential kernel-equivalence harness: the blocked/packed
//! hot-path kernels must be **bit-identical** to the scalar oracle kernels
//! for every `KernelConfig` — accumulation order and FMA contraction are
//! part of the committed numeric contract the TAO protocol verifies, so a
//! reassociated addition here is a consensus bug, not a speedup.
//!
//! Two layers of coverage:
//!
//! * exhaustive sweeps over every accumulation mode × FMA setting (and
//!   intrinsic family for the transcendental-bearing kernels) at fixed
//!   ragged shapes chosen to cross every block/panel boundary;
//! * proptests sampling shapes (ragged, batched, broadcast), seeds and
//!   configurations jointly;
//! * the layout ops (`permute`, `slice`, `broadcast_to`, ...) against a
//!   per-element multi-index oracle, and the ISA-dispatched elementwise
//!   maps against a plain per-element loop over the same `_with(lib)`
//!   calls, both on inputs that include NaN payloads, signed zeros,
//!   subnormals and infinities.

use proptest::prelude::*;
use tao_tensor::kernel::{gemm, gemm_packed_into, PackedLhs, PackedRhs, MR, PANEL};
use tao_tensor::{AccumMode, Conv2dParams, KernelConfig, MathElement, MathLib, Shape, Tensor};

/// Every accumulation mode × FMA combination the fleet can express,
/// including block sizes that divide, straddle and exceed the panel width.
fn all_configs() -> Vec<KernelConfig> {
    let mut cfgs = Vec::new();
    for accum in [
        AccumMode::Sequential,
        AccumMode::Pairwise,
        AccumMode::Blocked(1),
        AccumMode::Blocked(7),
        AccumMode::Blocked(8),
        AccumMode::Blocked(32),
        AccumMode::Blocked(64),
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

fn assert_bits_eq(fast: &Tensor<f32>, slow: &Tensor<f32>, what: &str) {
    assert_eq!(fast.dims(), slow.dims(), "{what}: dims");
    for (i, (f, s)) in fast.data().iter().zip(slow.data()).enumerate() {
        assert_eq!(
            f.to_bits(),
            s.to_bits(),
            "{what}: element {i} blocked {f:e} vs oracle {s:e}"
        );
    }
}

fn bits_eq(fast: &Tensor<f32>, slow: &Tensor<f32>) -> bool {
    fast.dims() == slow.dims()
        && fast
            .data()
            .iter()
            .zip(slow.data())
            .all(|(f, s)| f.to_bits() == s.to_bits())
}

/// Mixed-magnitude operands: rounding differences between accumulation
/// orders show up in the last bits, so any reassociation in the blocked
/// kernels would be caught, not masked by exact arithmetic.
fn operand(dims: &[usize], seed: u64) -> Tensor<f32> {
    Tensor::<f32>::rand_uniform(dims, -100.0, 100.0, seed)
}

// ---------------------------------------------------------------------------
// Exhaustive mode × FMA sweeps at boundary-crossing shapes.
// ---------------------------------------------------------------------------

#[test]
fn matmul_every_mode_and_fma_bit_equal() {
    // k values straddle the Blocked(7/8/32/64) chunk edges and the PANEL
    // register-tile width; m/n values straddle the panel count.
    for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (5, 33, 9), (4, 65, 17), (2, 129, 8)] {
        let a = operand(&[m, k], 1000 + k as u64);
        let b = operand(&[k, n], 2000 + n as u64);
        for cfg in all_configs() {
            let fast = a.matmul(&b, &cfg).unwrap();
            let slow = a.matmul_reference(&b, &cfg).unwrap();
            assert_bits_eq(&fast, &slow, &format!("matmul {m}x{k}x{n} {cfg:?}"));
        }
    }
}

#[test]
fn linear_every_mode_and_fma_bit_equal() {
    let x = operand(&[3, 4, 33], 31);
    let w = operand(&[19, 33], 32);
    let bias = operand(&[19], 33);
    for cfg in all_configs() {
        for b in [None, Some(&bias)] {
            let fast = x.linear(&w, b, &cfg).unwrap();
            let slow = x.linear_reference(&w, b, &cfg).unwrap();
            assert_bits_eq(
                &fast,
                &slow,
                &format!("linear bias={} {cfg:?}", b.is_some()),
            );
        }
    }
}

#[test]
fn conv2d_every_mode_and_fma_bit_equal() {
    let x = operand(&[2, 3, 9, 8], 41);
    let w = operand(&[5, 3, 3, 3], 42);
    let bias = operand(&[5], 43);
    let params = Conv2dParams {
        stride: 2,
        padding: 1,
    };
    for cfg in all_configs() {
        let fast = x.conv2d(&w, Some(&bias), params, &cfg).unwrap();
        let slow = x.conv2d_reference(&w, Some(&bias), params, &cfg).unwrap();
        assert_bits_eq(&fast, &slow, &format!("conv2d {cfg:?}"));
    }
}

#[test]
fn norms_every_mode_fma_and_intrinsic_family_bit_equal() {
    let x = operand(&[6, 37], 51);
    let gamma = Tensor::<f32>::rand_uniform(&[37], 0.5, 1.5, 52);
    let beta = Tensor::<f32>::rand_uniform(&[37], -0.5, 0.5, 53);
    for mut cfg in all_configs() {
        for math in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
            cfg.math = math;
            assert_bits_eq(
                &x.softmax_last(&cfg).unwrap(),
                &x.softmax_last_reference(&cfg).unwrap(),
                &format!("softmax {cfg:?}"),
            );
            assert_bits_eq(
                &x.layer_norm(&gamma, &beta, 1e-5, &cfg).unwrap(),
                &x.layer_norm_reference(&gamma, &beta, 1e-5, &cfg).unwrap(),
                &format!("layer_norm {cfg:?}"),
            );
            assert_bits_eq(
                &x.rms_norm(&gamma, 1e-6, &cfg).unwrap(),
                &x.rms_norm_reference(&gamma, 1e-6, &cfg).unwrap(),
                &format!("rms_norm {cfg:?}"),
            );
        }
    }
}

#[test]
fn gemm_row_blocks_bit_equal_to_matmul_oracle() {
    // One row, a one-row tail block after two full blocks, a 7-row tail.
    for m in [1, 2 * MR + 1, 23] {
        let (k, n) = (77, 29);
        let a = operand(&[m, k], 61);
        let b = operand(&[k, n], 62);
        let packed = PackedRhs::from_row_major(b.data(), k, n);
        let lhs = PackedLhs::from_row_major(a.data(), m, k);
        for cfg in all_configs() {
            let fast = gemm(&cfg, &lhs, &packed);
            let oracle = a.matmul_reference(&b, &cfg).unwrap();
            assert!(
                fast.iter()
                    .zip(oracle.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "m={m} {cfg:?}"
            );
        }
    }
}

/// Pairwise accumulation, fma on and off, through the packed-lhs MR-row
/// tile: every reduction length the recursion treats specially (0, 1, 2,
/// 3, odd, past 64) and ragged `m`/`n`, against the scalar `cfg.dot`
/// oracle.
#[test]
fn pairwise_packed_lhs_matches_scalar_dot() {
    for fma in [false, true] {
        let cfg = KernelConfig {
            accum: AccumMode::Pairwise,
            fma,
            math: MathLib::Reference,
        };
        for k in [0usize, 1, 2, 3, 5, 17, 33, 65, 97, 130] {
            for (m, n) in [(1, 1), (3, 9), (4, 8), (7, 17), (13, 5)] {
                let a = operand(&[m, k], 90 + k as u64);
                let b = operand(&[k, n], 190 + n as u64);
                let rhs = PackedRhs::from_row_major(b.data(), k, n);
                let lhs = PackedLhs::from_row_major(a.data(), m, k);
                let mut oracle = Vec::with_capacity(m * n);
                for row in a.data().chunks(k.max(1)).take(m) {
                    let row = &row[..k];
                    for col in 0..n {
                        let col_vals: Vec<f32> = (0..k).map(|kk| b.data()[kk * n + col]).collect();
                        oracle.push(cfg.dot(row, &col_vals));
                    }
                }
                let mut out = vec![f32::NAN; m * n];
                gemm_packed_into(&cfg, &lhs, &rhs, &mut out);
                assert!(
                    out.iter()
                        .zip(&oracle)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "pairwise fma={fma} {m}x{k}x{n}"
                );
            }
        }
    }
}

/// `linear` packs the lhs for every mode and row count (one row packs as
/// itself); pin pairwise at the reduction-length edges against the
/// scalar oracle.
#[test]
fn linear_pairwise_reduction_edges_bit_equal() {
    for fma in [false, true] {
        let cfg = KernelConfig {
            accum: AccumMode::Pairwise,
            fma,
            math: MathLib::VariantA,
        };
        for in_f in [0usize, 1, 2, 3, 7, 64, 65, 97] {
            for rows in [1usize, 2, 5, 9] {
                let x = operand(&[rows, in_f], 300 + in_f as u64);
                let w = operand(&[11, in_f], 400 + in_f as u64);
                let bias = operand(&[11], 500);
                assert_bits_eq(
                    &x.linear(&w, Some(&bias), &cfg).unwrap(),
                    &x.linear_reference(&w, Some(&bias), &cfg).unwrap(),
                    &format!("pairwise linear fma={fma} {rows}x{in_f}->11"),
                );
            }
        }
    }
}

#[test]
fn large_reductions_bit_equal_to_scalar_oracles() {
    // A 256x256x256 matmul (32 full row blocks, 32 full panels, eight
    // Blocked(32) chunks per dot) and 512 lanes of 128 through softmax and
    // layer_norm, each against its scalar seed loop.
    let cfg = KernelConfig {
        accum: AccumMode::Blocked(32),
        fma: true,
        math: MathLib::VariantA,
    };
    let a = operand(&[256, 256], 71);
    let b = operand(&[256, 256], 72);
    assert_bits_eq(
        &a.matmul(&b, &cfg).unwrap(),
        &a.matmul_reference(&b, &cfg).unwrap(),
        "matmul 256^3",
    );
    let x = Tensor::<f32>::rand_uniform(&[512, 128], -4.0, 4.0, 73);
    assert_bits_eq(
        &x.softmax_last(&cfg).unwrap(),
        &x.softmax_last_reference(&cfg).unwrap(),
        "softmax 512x128",
    );
    let gamma = Tensor::<f32>::rand_uniform(&[128], 0.5, 1.5, 74);
    let beta = Tensor::<f32>::rand_uniform(&[128], -0.5, 0.5, 75);
    assert_bits_eq(
        &x.layer_norm(&gamma, &beta, 1e-5, &cfg).unwrap(),
        &x.layer_norm_reference(&gamma, &beta, 1e-5, &cfg).unwrap(),
        "layer_norm 512x128",
    );
}

// ---------------------------------------------------------------------------
// Proptests over joint (shape, seed, config) space.
// ---------------------------------------------------------------------------

/// Samples one of the full mode × FMA configuration set.
fn config_strategy() -> impl Strategy<Value = KernelConfig> {
    let cfgs = all_configs();
    (0..cfgs.len()).prop_map(move |i| cfgs[i].clone())
}

proptest! {
    #[test]
    fn prop_matmul_ragged_shapes_bit_equal(
        m in 1usize..24,
        k in 1usize..150,
        n in 1usize..24,
        seed in 0u64..1_000_000,
        cfg in config_strategy(),
    ) {
        let a = operand(&[m, k], seed);
        let b = operand(&[k, n], seed ^ 0xabcd);
        let fast = a.matmul(&b, &cfg).unwrap();
        let slow = a.matmul_reference(&b, &cfg).unwrap();
        prop_assert!(bits_eq(&fast, &slow), "matmul {m}x{k}x{n} seed {seed} {cfg:?}");
    }

    #[test]
    fn prop_batched_and_broadcast_matmul_bit_equal(
        batch in 1usize..5,
        m in 1usize..10,
        k in 1usize..40,
        n in 1usize..10,
        mode in 0usize..3,
        seed in 0u64..1_000_000,
        cfg in config_strategy(),
    ) {
        // mode 0: both batched; 1: rhs broadcast; 2: lhs broadcast.
        let (a_dims, b_dims): (Vec<usize>, Vec<usize>) = match mode {
            0 => (vec![batch, m, k], vec![batch, k, n]),
            1 => (vec![batch, m, k], vec![k, n]),
            _ => (vec![m, k], vec![batch, k, n]),
        };
        let a = operand(&a_dims, seed);
        let b = operand(&b_dims, seed ^ 0x77);
        let fast = a.matmul(&b, &cfg).unwrap();
        let slow = a.matmul_reference(&b, &cfg).unwrap();
        prop_assert!(
            bits_eq(&fast, &slow),
            "batched matmul mode {mode} b={batch} {m}x{k}x{n} {cfg:?}"
        );
    }

    #[test]
    fn prop_linear_bit_equal(
        rows in 1usize..12,
        in_f in 1usize..80,
        out_f in 1usize..20,
        with_bias in 0usize..2,
        seed in 0u64..1_000_000,
        cfg in config_strategy(),
    ) {
        let x = operand(&[rows, in_f], seed);
        let w = operand(&[out_f, in_f], seed ^ 0x1111);
        let b = operand(&[out_f], seed ^ 0x2222);
        let bias = (with_bias == 1).then_some(&b);
        let fast = x.linear(&w, bias, &cfg).unwrap();
        let slow = x.linear_reference(&w, bias, &cfg).unwrap();
        prop_assert!(bits_eq(&fast, &slow), "linear {rows}x{in_f}->{out_f} {cfg:?}");
    }

    #[test]
    fn prop_conv2d_bit_equal(
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..5,
        hw in 3usize..9,
        ks in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        with_bias in 0usize..2,
        seed in 0u64..1_000_000,
        cfg in config_strategy(),
    ) {
        let x = operand(&[n, c_in, hw, hw + 1], seed);
        let w = operand(&[c_out, c_in, ks, ks], seed ^ 0x3333);
        let b = operand(&[c_out], seed ^ 0x4444);
        let bias = (with_bias == 1).then_some(&b);
        let params = Conv2dParams { stride, padding };
        let fast = x.conv2d(&w, bias, params, &cfg).unwrap();
        let slow = x.conv2d_reference(&w, bias, params, &cfg).unwrap();
        prop_assert!(
            bits_eq(&fast, &slow),
            "conv2d n={n} c={c_in}->{c_out} hw={hw} k={ks} s={stride} p={padding} {cfg:?}"
        );
    }

    #[test]
    fn prop_norm_lanes_bit_equal(
        rows in 1usize..16,
        d in 1usize..130,
        math in 0usize..3,
        seed in 0u64..1_000_000,
        mut cfg in config_strategy(),
    ) {
        cfg.math = [MathLib::Reference, MathLib::VariantA, MathLib::VariantB][math];
        let x = Tensor::<f32>::rand_uniform(&[rows, d], -6.0, 6.0, seed);
        let gamma = Tensor::<f32>::rand_uniform(&[d], 0.5, 1.5, seed ^ 0x5555);
        let beta = Tensor::<f32>::rand_uniform(&[d], -0.5, 0.5, seed ^ 0x6666);
        prop_assert!(bits_eq(
            &x.softmax_last(&cfg).unwrap(),
            &x.softmax_last_reference(&cfg).unwrap(),
        ), "softmax {rows}x{d} {cfg:?}");
        prop_assert!(bits_eq(
            &x.layer_norm(&gamma, &beta, 1e-5, &cfg).unwrap(),
            &x.layer_norm_reference(&gamma, &beta, 1e-5, &cfg).unwrap(),
        ), "layer_norm {rows}x{d} {cfg:?}");
        prop_assert!(bits_eq(
            &x.rms_norm(&gamma, 1e-6, &cfg).unwrap(),
            &x.rms_norm_reference(&gamma, 1e-6, &cfg).unwrap(),
        ), "rms_norm {rows}x{d} {cfg:?}");
    }

    #[test]
    fn prop_axis_reductions_bit_equal(
        d0 in 1usize..8,
        d1 in 1usize..40,
        d2 in 1usize..8,
        axis in 0usize..3,
        seed in 0u64..1_000_000,
        cfg in config_strategy(),
    ) {
        // Oracle: materialize each lane and reduce it with the scalar
        // `cfg.sum`, exactly as the kernel contract specifies.
        let t = operand(&[d0, d1, d2], seed);
        let fast = t.sum_axis(axis, &cfg).unwrap();
        let dims = [d0, d1, d2];
        let extent = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let outer: usize = dims[..axis].iter().product();
        let mut slow = Vec::with_capacity(outer * inner);
        let mut lane = vec![0f32; extent];
        for o in 0..outer {
            for i in 0..inner {
                for (k, slot) in lane.iter_mut().enumerate() {
                    *slot = t.data()[o * extent * inner + k * inner + i];
                }
                slow.push(cfg.sum(&lane));
            }
        }
        prop_assert!(
            fast.data().iter().zip(&slow).all(|(f, s)| f.to_bits() == s.to_bits()),
            "sum_axis {d0}x{d1}x{d2} axis {axis} {cfg:?}"
        );
    }

    #[test]
    fn prop_gemm_panel_tail_and_k_boundaries(
        k in 1usize..140,
        n_off in 0usize..(2 * PANEL),
        seed in 0u64..1_000_000,
        cfg in config_strategy(),
    ) {
        // n deliberately sweeps the panel remainder 0..PANEL-1 twice.
        let n = 1 + n_off;
        let a = operand(&[1, k], seed);
        let b = operand(&[k, n], seed ^ 0x9999);
        let packed = PackedRhs::from_row_major(b.data(), k, n);
        let lhs = PackedLhs::from_row_major(a.data(), 1, k);
        let fast = gemm(&cfg, &lhs, &packed);
        for (col, f) in fast.iter().enumerate() {
            let col_vals: Vec<f32> = (0..k).map(|kk| b.data()[kk * n + col]).collect();
            let oracle = cfg.dot(a.data(), &col_vals);
            prop_assert!(
                f.to_bits() == oracle.to_bits(),
                "gemm k={k} n={n} col={col} {cfg:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The register tile against the scalar `cfg.dot` oracle: every
    /// accumulation mode, FMA on and off, ragged `m = 1..=17` around the
    /// [`MR`]-row block (one-row operands and one-row tail blocks
    /// included), `n` around the [`PANEL`] width, `Blocked` block sizes
    /// mostly below `k`.
    #[test]
    fn prop_register_tile_matches_scalar_dot(
        m in 1usize..18,
        k in 0usize..100,
        n in 1usize..(2 * PANEL + 2),
        mode in 0usize..3,
        block in 1usize..33,
        fma in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let accum = match mode {
            0 => AccumMode::Sequential,
            1 => AccumMode::Pairwise,
            _ => AccumMode::Blocked(block),
        };
        let cfg = KernelConfig { accum, fma: fma == 1, math: MathLib::Reference };
        let a = operand(&[m, k], seed);
        let b = operand(&[k, n], seed ^ 0x5a5a);
        let rhs = PackedRhs::from_row_major(b.data(), k, n);
        let lhs = PackedLhs::from_row_major(a.data(), m, k);
        let mut oracle = Vec::with_capacity(m * n);
        for row in 0..m {
            let a_row = &a.data()[row * k..(row + 1) * k];
            for col in 0..n {
                let col_vals: Vec<f32> = (0..k).map(|kk| b.data()[kk * n + col]).collect();
                oracle.push(cfg.dot(a_row, &col_vals));
            }
        }
        let mut out = vec![f32::NAN; m * n];
        gemm_packed_into(&cfg, &lhs, &rhs, &mut out);
        prop_assert!(
            out.iter().zip(&oracle).all(|(x, y)| x.to_bits() == y.to_bits()),
            "tile {m}x{k}x{n} MR={MR} {cfg:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Layout ops against a per-element multi-index oracle.
// ---------------------------------------------------------------------------

/// SplitMix64 stream for deriving shapes and values from one sampled seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Quiet and signalling NaNs with distinct payloads and signs.
const NAN_BITS: [u32; 4] = [0x7fc0_0001, 0x7f80_0001, 0xffc1_2345, 0x7fff_ffff];

/// Values whose bits a data-movement bug would be most likely to lose:
/// NaN payloads, signed zeros, infinities and subnormals, mixed with
/// ordinary numbers.
fn special_value(rng: &mut Mix, with_nan: bool) -> f32 {
    match rng.below(if with_nan { 10 } else { 8 }) {
        0 => -0.0,
        1 => 0.0,
        2 => f32::INFINITY,
        3 => f32::from_bits(1 + rng.below(0x007f_ffff) as u32),
        8 | 9 => f32::from_bits(NAN_BITS[rng.below(NAN_BITS.len())]),
        _ => (rng.next() % 20_000) as f32 / 100.0 - 100.0,
    }
}

fn special_tensor(rng: &mut Mix, dims: &[usize], with_nan: bool) -> Tensor<f32> {
    let len = dims.iter().product();
    let data = (0..len).map(|_| special_value(rng, with_nan)).collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// Every multi-index of `dims` in row-major order, by odometer.
fn multi_indices(dims: &[usize]) -> Vec<Vec<usize>> {
    let mut all = Vec::new();
    if dims.contains(&0) {
        return all;
    }
    let mut idx = vec![0usize; dims.len()];
    loop {
        all.push(idx.clone());
        let mut axis = dims.len();
        loop {
            if axis == 0 {
                return all;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < dims[axis] {
                break;
            }
            idx[axis] = 0;
        }
    }
}

/// Element of `t` at `idx`, where `idx` may carry extra leading axes and
/// `t` broadcasts along its size-1 axes.
fn at_broadcast(t: &Tensor<f32>, idx: &[usize]) -> f32 {
    let pad = idx.len() - t.rank();
    let strides = t.shape().strides();
    let off: usize = t
        .dims()
        .iter()
        .zip(&strides)
        .enumerate()
        .map(|(a, (&d, &s))| if d == 1 { 0 } else { idx[pad + a] * s })
        .sum();
    t.data()[off]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A shape of rank 0..=5 with extents 0..=4 (zero-length axes included).
fn random_dims(rng: &mut Mix) -> Vec<usize> {
    let rank = rng.below(6);
    (0..rank)
        .map(|_| {
            if rng.below(8) == 0 {
                0
            } else {
                1 + rng.below(4)
            }
        })
        .collect()
}

/// A shape that broadcasts to `dims`: some axes set to 1 and some leading
/// axes dropped (rank padding).
fn broadcast_source(rng: &mut Mix, dims: &[usize]) -> Vec<usize> {
    let drop = rng.below(dims.len() + 1);
    dims[drop..]
        .iter()
        .map(|&d| if rng.below(2) == 0 { 1 } else { d })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_layout_ops_match_per_element_oracle(seed in 0u64..u64::MAX) {
        let mut rng = Mix(seed);
        let dims = random_dims(&mut rng);
        let rank = dims.len();
        let t = special_tensor(&mut rng, &dims, true);
        let strides = t.shape().strides();
        let read = |idx: &[usize]| -> f32 {
            t.data()[idx.iter().zip(&strides).map(|(i, s)| i * s).sum::<usize>()]
        };

        // permute and transpose.
        let permute_oracle = |perm: &[usize]| -> Vec<f32> {
            let out_dims: Vec<usize> = perm.iter().map(|&a| dims[a]).collect();
            multi_indices(&out_dims)
                .iter()
                .map(|o| {
                    let mut src = vec![0; rank];
                    for (oa, &ia) in perm.iter().enumerate() {
                        src[ia] = o[oa];
                    }
                    read(&src)
                })
                .collect()
        };
        let mut perm: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let p = t.permute(&perm).unwrap();
        let out_dims: Vec<usize> = perm.iter().map(|&a| dims[a]).collect();
        prop_assert_eq!(p.dims(), &out_dims[..]);
        prop_assert_eq!(bits(p.data()), bits(&permute_oracle(&perm)), "permute {:?} by {:?}", dims, perm);
        if rank > 0 {
            let (a, b) = (rng.below(rank), rng.below(rank));
            let mut swapped: Vec<usize> = (0..rank).collect();
            swapped.swap(a, b);
            prop_assert_eq!(
                bits(t.transpose(a, b).unwrap().data()),
                bits(&permute_oracle(&swapped)),
                "transpose {:?} ({}, {})", dims, a, b
            );
        }

        // slice and select along every axis.
        for axis in 0..rank {
            let extent = dims[axis];
            let start = rng.below(extent + 1);
            let end = start + rng.below(extent - start + 1);
            let sl = t.slice(axis, start, end).unwrap();
            let mut sl_dims = dims.clone();
            sl_dims[axis] = end - start;
            let oracle: Vec<f32> = multi_indices(&sl_dims)
                .iter()
                .map(|o| {
                    let mut src = o.clone();
                    src[axis] += start;
                    read(&src)
                })
                .collect();
            prop_assert_eq!(sl.dims(), &sl_dims[..]);
            prop_assert_eq!(bits(sl.data()), bits(&oracle), "slice {:?} axis {} [{}, {})", dims, axis, start, end);
            if extent > 0 {
                let i = rng.below(extent);
                let sel = t.select(axis, i).unwrap();
                let mut sel_dims = dims.clone();
                sel_dims.remove(axis);
                let oracle: Vec<f32> = multi_indices(&sel_dims)
                    .iter()
                    .map(|o| {
                        let mut src = o.clone();
                        src.insert(axis, i);
                        read(&src)
                    })
                    .collect();
                prop_assert_eq!(sel.dims(), &sel_dims[..]);
                prop_assert_eq!(bits(sel.data()), bits(&oracle), "select {:?} axis {} at {}", dims, axis, i);
            }
        }

        // broadcast_to, masked_fill and broadcasting add/mul from a
        // rank-padded, size-1-axis source.
        let src_dims = broadcast_source(&mut rng, &dims);
        let small = special_tensor(&mut rng, &src_dims, true);
        let target = Shape::new(&dims);
        let all = multi_indices(&dims);
        let bc = small.broadcast_to(&target).unwrap();
        let oracle: Vec<f32> = all.iter().map(|i| at_broadcast(&small, i)).collect();
        prop_assert_eq!(bits(bc.data()), bits(&oracle), "broadcast {:?} -> {:?}", src_dims, dims);

        let mask = special_tensor(&mut rng, &src_dims, true);
        let filled = t.masked_fill(&mask, -7.5).unwrap();
        let oracle: Vec<f32> = all
            .iter()
            .map(|i| if at_broadcast(&mask, i) != 0.0 { -7.5 } else { read(i) })
            .collect();
        prop_assert_eq!(bits(filled.data()), bits(&oracle), "masked_fill {:?} over {:?}", src_dims, dims);

        // NaN payloads on one operand only: with two NaN operands IEEE-754
        // leaves the propagated payload to the implementation.
        let rhs = special_tensor(&mut rng, &src_dims, false);
        for (name, op, f) in [
            ("add", Tensor::add as fn(&Tensor<f32>, &Tensor<f32>) -> tao_tensor::Result<Tensor<f32>>, (|x, y| x + y) as fn(f32, f32) -> f32),
            ("mul", Tensor::mul, |x, y| x * y),
        ] {
            let fwd = op(&t, &rhs).unwrap();
            let oracle: Vec<f32> = all.iter().map(|i| f(read(i), at_broadcast(&rhs, i))).collect();
            prop_assert_eq!(fwd.dims(), &dims[..]);
            prop_assert_eq!(bits(fwd.data()), bits(&oracle), "{} {:?} with {:?}", name, dims, src_dims);
            let rev = op(&rhs, &t).unwrap();
            let oracle: Vec<f32> = all.iter().map(|i| f(at_broadcast(&rhs, i), read(i))).collect();
            prop_assert_eq!(bits(rev.data()), bits(&oracle), "{} {:?} with {:?}", name, src_dims, dims);
        }
    }
}

// ---------------------------------------------------------------------------
// ISA-dispatched elementwise math against a plain per-element loop.
// ---------------------------------------------------------------------------

/// Inputs at every branch edge of the `MathLib` kernels (the ±88 overflow
/// cut-offs, the 0.625 / 8 / 0.25 / 9 tanh regimes), their neighbours, and
/// the IEEE specials.
fn transcendental_edges() -> Vec<f32> {
    let mut xs = Vec::new();
    for x in [
        88.0f32, 88.0001, 0.625, 8.0, 0.25, 9.0, 1.0, 0.5, 44.0, 87.5,
    ] {
        for v in [x, -x] {
            xs.extend([
                v,
                f32::from_bits(v.to_bits() + 1),
                f32::from_bits(v.to_bits() - 1),
            ]);
        }
    }
    xs.extend([
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
    ]);
    xs.extend([
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x0040_0000),
    ]);
    xs.extend([f32::MAX, f32::MIN, 1e-30, -1e-30, 1e30, -1e30]);
    xs.extend(NAN_BITS.iter().map(|&b| f32::from_bits(b)));
    xs
}

/// Bits of an arithmetic result, with every NaN mapped to one token.
///
/// When two NaNs of different sign or payload meet in one `*` or `+`,
/// IEEE-754 lets the result carry either, and Rust leaves the choice to
/// code generation: in release builds the seed `collect`-based map and a
/// plain loop already disagree there. So a computed NaN is compared as
/// "NaN", and every other result bit for bit. The layout ops only move
/// values and keep the strict payload comparison.
fn value_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
        .collect()
}

fn per_element(xs: &[f32], f: impl Fn(f32) -> f32) -> Vec<u32> {
    let mut out = Vec::with_capacity(xs.len());
    for &x in xs {
        out.push(f(x));
    }
    value_bits(&out)
}

/// Per-lane scalar softmax, layer norm and RMS norm over the same
/// `_with(lib)` calls and `cfg.sum` reductions the kernels specify.
fn lane_oracles(x: &[f32], d: usize, g: &[f32], b: &[f32], cfg: &KernelConfig) -> [Vec<u32>; 3] {
    let nd = d as f32;
    let (mut sm, mut ln, mut rms) = (Vec::new(), Vec::new(), Vec::new());
    for lane in x.chunks(d) {
        let m = lane.iter().copied().fold(lane[0], f32::max);
        let mut e = Vec::with_capacity(d);
        for &v in lane {
            e.push((v - m).exp_with(cfg.math));
        }
        let s = cfg.sum(&e);
        for &v in &e {
            sm.push(v / s);
        }
        let mean = cfg.sum(lane) / nd;
        let mut centered = Vec::with_capacity(d);
        let mut sq = Vec::with_capacity(d);
        for &v in lane {
            centered.push(v - mean);
            sq.push((v - mean) * (v - mean));
        }
        let inv = (cfg.sum(&sq) / nd + 1e-5f32).rsqrt_with(cfg.math);
        for i in 0..d {
            ln.push(centered[i] * inv * g[i] + b[i]);
        }
        let mut sq = Vec::with_capacity(d);
        for &v in lane {
            sq.push(v * v);
        }
        let inv = (cfg.sum(&sq) / nd + 1e-6f32).rsqrt_with(cfg.math);
        for i in 0..d {
            rms.push(lane[i] * inv * g[i]);
        }
    }
    [value_bits(&sm), value_bits(&ln), value_bits(&rms)]
}

#[test]
fn transcendental_edges_bit_equal_for_every_mathlib() {
    let xs = transcendental_edges();
    let t = Tensor::from_vec(xs.clone(), &[xs.len()]).unwrap();
    check_transcendentals(&t, &KernelConfig::reference());
}

fn check_transcendentals(t: &Tensor<f32>, base: &KernelConfig) {
    let xs = t.data();
    let (c, k) = (0.797_884_560_802_865_4f64 as f32, 0.044_715f64 as f32);
    for math in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
        let cfg = KernelConfig {
            math,
            ..base.clone()
        };
        let cases: [(&str, Tensor<f32>, Vec<u32>); 8] = [
            ("exp", t.exp(&cfg), per_element(xs, |x| x.exp_with(math))),
            ("ln", t.ln(&cfg), per_element(xs, |x| x.ln_with(math))),
            ("tanh", t.tanh(&cfg), per_element(xs, |x| x.tanh_with(math))),
            (
                "sigmoid",
                t.sigmoid(&cfg),
                per_element(xs, |x| x.sigmoid_with(math)),
            ),
            (
                "silu",
                t.silu(&cfg),
                per_element(xs, |x| x * x.sigmoid_with(math)),
            ),
            (
                "gelu",
                t.gelu(&cfg),
                per_element(xs, |x| {
                    0.5 * x * (1.0 + (c * (x + k * x * x * x)).tanh_with(math))
                }),
            ),
            (
                "rsqrt",
                t.rsqrt(&cfg),
                per_element(xs, |x| x.rsqrt_with(math)),
            ),
            ("relu", t.relu(), per_element(xs, |x| x.max(0.0))),
        ];
        for (name, fast, oracle) in cases {
            assert_eq!(value_bits(fast.data()), oracle, "{name} {math:?}");
        }
    }
}

proptest! {
    #[test]
    fn prop_transcendental_dispatch_bit_equal(
        rows in 1usize..6,
        d in 1usize..40,
        seed in 0u64..u64::MAX,
        cfg in config_strategy(),
    ) {
        let mut rng = Mix(seed);
        let edges = transcendental_edges();
        let data: Vec<f32> = (0..rows * d)
            .map(|_| match rng.below(3) {
                0 => edges[rng.below(edges.len())],
                1 => special_value(&mut rng, true),
                _ => (rng.next() % 200_000) as f32 / 1000.0 - 100.0,
            })
            .collect();
        let t = Tensor::from_vec(data, &[rows, d]).unwrap();
        check_transcendentals(&t, &cfg);
        let g = Tensor::<f32>::rand_uniform(&[d], 0.5, 1.5, seed ^ 1);
        let b = Tensor::<f32>::rand_uniform(&[d], -0.5, 0.5, seed ^ 2);
        for math in [MathLib::Reference, MathLib::VariantA, MathLib::VariantB] {
            let cfg = KernelConfig { math, ..cfg.clone() };
            let [sm, ln, rms] = lane_oracles(t.data(), d, g.data(), b.data(), &cfg);
            prop_assert_eq!(value_bits(t.softmax_last(&cfg).unwrap().data()), sm, "softmax {:?}", cfg);
            prop_assert_eq!(
                value_bits(t.layer_norm(&g, &b, 1e-5, &cfg).unwrap().data()),
                ln,
                "layer_norm {:?}", cfg
            );
            prop_assert_eq!(value_bits(t.rms_norm(&g, 1e-6, &cfg).unwrap().data()), rms, "rms_norm {:?}", cfg);
        }
    }
}
