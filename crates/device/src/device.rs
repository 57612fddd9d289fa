//! Named simulated accelerator profiles.

use tao_tensor::{AccumMode, KernelConfig, MathLib};

/// A simulated accelerator: a name plus the kernel configuration describing
/// how its kernels round.
///
/// Profiles mirror the paper's calibration fleet. Each differs from the
/// others in at least one of: reduction order (thread-sequential vs. warp
/// pairwise tree vs. block-tiled), FMA contraction, and intrinsic family.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    config: KernelConfig,
}

impl Device {
    /// Canonical reference device (sequential, no FMA, reference libm).
    ///
    /// Leaf adjudication and theoretical-bound checks re-execute here.
    pub fn reference() -> Self {
        Device {
            name: "reference".into(),
            config: KernelConfig::reference(),
        }
    }

    /// RTX 4090-like profile: blocked reductions with small tiles, FMA on,
    /// Cephes-style fast intrinsics.
    pub fn rtx4090_like() -> Self {
        Device {
            name: "sim-rtx4090".into(),
            config: KernelConfig {
                accum: AccumMode::Blocked(32),
                fma: true,
                math: MathLib::VariantA,
            },
        }
    }

    /// RTX 6000-like profile: blocked reductions with larger tiles, FMA on,
    /// base-2 intrinsic family.
    pub fn rtx6000_like() -> Self {
        Device {
            name: "sim-rtx6000".into(),
            config: KernelConfig {
                accum: AccumMode::Blocked(64),
                fma: true,
                math: MathLib::VariantB,
            },
        }
    }

    /// A100-like profile: pairwise (warp-tree) reductions, FMA on,
    /// Cephes-style intrinsics.
    pub fn a100_like() -> Self {
        Device {
            name: "sim-a100".into(),
            config: KernelConfig {
                accum: AccumMode::Pairwise,
                fma: true,
                math: MathLib::VariantA,
            },
        }
    }

    /// H100-like profile: pairwise reductions, FMA on, base-2 intrinsics.
    pub fn h100_like() -> Self {
        Device {
            name: "sim-h100".into(),
            config: KernelConfig {
                accum: AccumMode::Pairwise,
                fma: true,
                math: MathLib::VariantB,
            },
        }
    }

    /// The paper's four-GPU calibration fleet.
    pub fn standard_fleet() -> Vec<Device> {
        vec![
            Self::rtx4090_like(),
            Self::rtx6000_like(),
            Self::a100_like(),
            Self::h100_like(),
        ]
    }

    /// Device name (e.g. `"sim-a100"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel configuration: how this device's kernels round.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_tensor::Tensor;

    #[test]
    fn fleet_has_four_distinct_devices() {
        let fleet = Device::standard_fleet();
        assert_eq!(fleet.len(), 4);
        for i in 0..fleet.len() {
            for j in i + 1..fleet.len() {
                assert_ne!(fleet[i].name(), fleet[j].name());
                assert_ne!(fleet[i].config(), fleet[j].config(), "{} vs {}", i, j);
            }
        }
    }

    #[test]
    fn devices_produce_different_bits_on_reductions() {
        let x = Tensor::<f32>::rand_uniform(&[4096], -1e3, 1e3, 42);
        let fleet = Device::standard_fleet();
        let sums: Vec<u32> = fleet
            .iter()
            .map(|d| x.sum_all(d.config()).to_bits())
            .collect();
        // At least two devices must disagree in the last bits.
        assert!(sums.windows(2).any(|w| w[0] != w[1]), "sums {sums:?}");
    }

    #[test]
    fn devices_agree_within_tolerance() {
        let x = Tensor::<f32>::rand_uniform(&[4096], -1.0, 1.0, 7);
        let reference: f64 = x.data().iter().map(|&v| v as f64).sum();
        for d in Device::standard_fleet() {
            let got = x.sum_all(d.config()) as f64;
            assert!(
                (got - reference).abs() < 1e-2,
                "{}: {got} vs {reference}",
                d.name()
            );
        }
    }

    #[test]
    fn reference_is_sequential_no_fma() {
        let r = Device::reference();
        assert_eq!(r.config(), &KernelConfig::reference());
    }
}
