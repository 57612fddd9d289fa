//! A named collection of devices used for calibration and committees.

use crate::device::Device;

/// An ordered, named collection of simulated devices.
///
/// Calibration (in `tao-calib`) sweeps every unordered device *pair* of a
/// fleet; committee sampling (in `tao-protocol`) draws adjudicators from a
/// fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    devices: Vec<Device>,
}

impl Fleet {
    /// Creates a fleet from a device list.
    pub fn new(devices: Vec<Device>) -> Self {
        Fleet { devices }
    }

    /// The paper's four-GPU calibration fleet.
    pub fn standard() -> Self {
        Fleet {
            devices: Device::standard_fleet(),
        }
    }

    /// Devices in order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the fleet has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Deterministically samples one device from a 64-bit seed (SplitMix64
    /// finalizer over the seed, reduced modulo the fleet size). Campaign
    /// harnesses use this to assign heterogeneous operator hardware
    /// reproducibly: the same seed always lands on the same device.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet.
    pub fn sample_device(&self, seed: u64) -> &Device {
        assert!(!self.devices.is_empty(), "cannot sample an empty fleet");
        // SplitMix64 finalizer: full-avalanche mix so consecutive seeds
        // don't stripe across the (small) fleet.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        &self.devices[(z % self.devices.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fleet_pairs() {
        let f = Fleet::standard();
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_covers_the_fleet() {
        let f = Fleet::standard();
        for seed in 0..16u64 {
            assert_eq!(f.sample_device(seed).name(), f.sample_device(seed).name());
        }
        // Consecutive seeds must reach every device of the small fleet.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            seen.insert(f.sample_device(seed).name().to_string());
        }
        assert_eq!(seen.len(), f.len(), "sampler missed devices: {seen:?}");
    }

    #[test]
    fn empty_fleet() {
        let f = Fleet::new(vec![]);
        assert!(f.is_empty());
    }
}
