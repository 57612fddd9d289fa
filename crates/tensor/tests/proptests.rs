//! Property-based tests for core tensor invariants.

use proptest::prelude::*;
use tao_tensor::{AccumMode, KernelConfig, Shape, Tensor};

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_f32(dims: Vec<usize>) -> impl Strategy<Value = Tensor<f32>> {
    let n: usize = dims.iter().product();
    prop::collection::vec(-100.0f32..100.0, n)
        .prop_map(move |data| Tensor::from_vec(data, &dims).expect("volume matches"))
}

proptest! {
    #[test]
    fn offset_unravel_roundtrip(dims in small_dims(), salt in 0usize..1000) {
        let shape = Shape::new(&dims);
        let flat = salt % shape.volume();
        let idx = shape.unravel(flat);
        prop_assert_eq!(shape.offset(&idx).unwrap(), flat);
    }

    #[test]
    fn add_commutes(dims in small_dims(), seed in 0u64..1000) {
        let a = Tensor::<f32>::rand_uniform(&dims, -10.0, 10.0, seed);
        let b = Tensor::<f32>::rand_uniform(&dims, -10.0, 10.0, seed + 1);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn transpose_involution(t in small_dims().prop_filter("rank 2", |d| d.len() == 2).prop_flat_map(tensor_f32)) {
        let tt = t.transpose(0, 1).unwrap().transpose(0, 1).unwrap();
        prop_assert_eq!(tt.data(), t.data());
    }

    #[test]
    fn reshape_preserves_data(dims in small_dims(), seed in 0u64..100) {
        let t = Tensor::<f32>::rand_uniform(&dims, -1.0, 1.0, seed);
        let flat = t.reshape(&[t.len()]).unwrap();
        prop_assert_eq!(flat.data(), t.data());
    }

    #[test]
    fn all_accum_orders_within_error_bound(n in 1usize..512, seed in 0u64..50) {
        // Every accumulation order must land within the deterministic
        // gamma_{n-1} * sum|x| worst-case envelope of the f64 reference.
        let t = Tensor::<f32>::rand_uniform(&[n], -100.0, 100.0, seed);
        let reference: f64 = t.data().iter().map(|&x| x as f64).sum();
        let abs_sum: f64 = t.data().iter().map(|&x| (x as f64).abs()).sum();
        let u = 5.960_464_477_539_063e-8; // 2^-24
        let k = (n.saturating_sub(1)) as f64;
        let gamma = (k * u) / (1.0 - k * u);
        let bound = gamma * abs_sum + 1e-30;
        for mode in [AccumMode::Sequential, AccumMode::Pairwise, AccumMode::Blocked(32)] {
            let cfg = KernelConfig { accum: mode, ..KernelConfig::reference() };
            let got = t.sum_all(&cfg) as f64;
            prop_assert!((got - reference).abs() <= bound + reference.abs() * u,
                "{mode:?}: |{got} - {reference}| > {bound}");
        }
    }

    #[test]
    fn matmul_distributes_over_identity(m in 1usize..6, k in 1usize..6, seed in 0u64..50) {
        let a = Tensor::<f32>::rand_uniform(&[m, k], -5.0, 5.0, seed);
        let i = Tensor::<f32>::eye(k);
        let prod = a.matmul(&i, &KernelConfig::reference()).unwrap();
        prop_assert_eq!(prod.data(), a.data());
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..5, cols in 1usize..16, seed in 0u64..50) {
        let t = Tensor::<f32>::rand_uniform(&[rows, cols], -10.0, 10.0, seed);
        let s = t.softmax_last(&KernelConfig::reference()).unwrap();
        for lane in s.data().chunks(cols) {
            let sum: f32 = lane.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(lane.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn cat_then_slice_recovers(rows_a in 1usize..4, rows_b in 1usize..4, cols in 1usize..4, seed in 0u64..20) {
        let a = Tensor::<f32>::rand_uniform(&[rows_a, cols], -1.0, 1.0, seed);
        let b = Tensor::<f32>::rand_uniform(&[rows_b, cols], -1.0, 1.0, seed + 7);
        let c = Tensor::cat(&[&a, &b], 0).unwrap();
        let a2 = c.slice(0, 0, rows_a).unwrap();
        let b2 = c.slice(0, rows_a, rows_a + rows_b).unwrap();
        prop_assert_eq!(a2.data(), a.data());
        prop_assert_eq!(b2.data(), b.data());
    }

    #[test]
    fn broadcast_matches_manual_loop(rows in 1usize..5, cols in 1usize..5, seed in 0u64..20) {
        let col = Tensor::<f32>::rand_uniform(&[rows, 1], -3.0, 3.0, seed);
        let target = Shape::new(&[rows, cols]);
        let b = col.broadcast_to(&target).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(b.at(&[r, c]).unwrap(), col.at(&[r, 0]).unwrap());
            }
        }
    }

    #[test]
    fn relu_idempotent(dims in small_dims(), seed in 0u64..50) {
        let t = Tensor::<f32>::rand_uniform(&dims, -10.0, 10.0, seed);
        let once = t.relu();
        let twice = once.relu();
        prop_assert_eq!(once.data(), twice.data());
    }
}
