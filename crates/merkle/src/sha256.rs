//! SHA-256 implemented from scratch per FIPS 180-4.
//!
//! The protocol needs a collision-resistant hash for tensor canonical
//! serialization, Merkle trees, and claim commitments. Implemented here
//! rather than pulled in as a dependency, and validated against the NIST
//! test vectors.
//!
//! [`Sha256`] is the portable **scalar oracle**: one message, one block at
//! a time, exactly the seed implementation. It stays in-tree permanently as
//! the differential reference (the kernel-oracle idiom) for
//! [`FastSha256`], the hasher every commitment path uses, whose digests
//! must be bit-identical.
//!
//! [`FastSha256`] compresses whole blocks straight from the caller's slice
//! through one dispatch, `compress_blocks`: the Intel SHA extension rounds
//! when a once-cached CPU feature check passes, the scalar rounds
//! otherwise. Nothing else in the crate knows which compressor runs.

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One scalar compression round sequence over a 64-byte block (FIPS 180-4
/// §6.2.2): the oracle's compressor and the portable arm of
/// [`compress_blocks`].
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The big-endian digest bytes of a final compression state.
pub(crate) fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The padding tail of a message whose byte length is `total_len` and
/// whose last partial block holds `buffered` bytes: `0x80`, zeros, then
/// the 64-bit big-endian bit length, sized so that absorbing the first
/// `len` bytes of the returned buffer ends exactly on a block boundary.
fn padding(buffered: usize, total_len: u64) -> ([u8; 72], usize) {
    // 1..=64 bytes of 0x80 + zeros bring the buffer to 56 mod 64.
    let zeros_end = 1 + (119 - buffered) % 64;
    let mut pad = [0u8; 72];
    pad[0] = 0x80;
    pad[zeros_end..zeros_end + 8].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    (pad, zeros_end + 8)
}

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80 then zeros then the 64-bit big-endian length.
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        // Append length without recounting it into total_len.
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        state_digest(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_scalar(&mut self.state, block);
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hex encoding of a digest (lowercase).
pub fn to_hex(d: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in d {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Compresses `data` (a whole number of 64-byte blocks) into `state`: the
/// SHA extension rounds when the host has them, the scalar rounds
/// otherwise. Both arms implement the FIPS 180-4 round function, so the
/// state is the same on every host.
pub(crate) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if ni::supported() {
        // SAFETY: `ni::supported` checked every feature the rounds need;
        // the rounds walk `data.chunks_exact(64)`, so every load is in
        // bounds whatever the length.
        unsafe { ni::compress_blocks(state, data) };
        return;
    }
    compress_blocks_scalar(state, data);
}

/// The portable arm of [`compress_blocks`].
fn compress_blocks_scalar(state: &mut [u32; 8], data: &[u8]) {
    for block in data.chunks_exact(64) {
        compress_scalar(state, block.try_into().expect("64-byte chunk"));
    }
}

/// Incremental SHA-256 on the host's fastest compressor (SHA-NI rounds
/// when the CPU has them, scalar rounds otherwise): the hasher every
/// commitment path uses.
///
/// Same `update`/`finalize` surface and identical digests as the scalar
/// [`Sha256`]; bulk input (whole 64-byte blocks) bypasses the staging
/// buffer and compresses straight from the caller's slice.
#[derive(Debug, Clone)]
pub struct FastSha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for FastSha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl FastSha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        FastSha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                compress_blocks(&mut self.state, &block);
                self.buffered = 0;
            }
        }
        let bulk = data.len() - data.len() % 64;
        if bulk > 0 {
            compress_blocks(&mut self.state, &data[..bulk]);
            data = &data[bulk..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes and returns the digest. The whole padding tail is absorbed
    /// in one `update`, which ends on a block boundary.
    pub fn finalize(mut self) -> Digest {
        let (pad, len) = padding(self.buffered, self.total_len);
        self.update(&pad[..len]);
        debug_assert_eq!(self.buffered, 0);
        state_digest(&self.state)
    }
}

/// Intel SHA extensions single-stream compressor.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// True when the host has `sha`, `sse2`, `ssse3` and `sse4.1`; detected
    /// once per process.
    pub(super) fn supported() -> bool {
        static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *SUPPORTED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("sse2")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// Compresses every 64-byte block of `data` into `state` with the SHA
    /// extension instructions. Bit-identical to the scalar rounds: the
    /// instructions implement the FIPS 180-4 round function directly.
    ///
    /// # Safety
    ///
    /// Requires runtime support for `sha`, `sse2`, `ssse3` and `sse4.1`,
    /// and `data.len() % 64 == 0`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        // Big-endian 32-bit word loads.
        let shuf = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );
        // Repack [a,b,c,d|e,f,g,h] into the ABEF/CDGH layout the
        // sha256rnds2 instruction consumes.
        let abcd = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
        let efgh = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
        let tmp = _mm_shuffle_epi32::<0xB1>(abcd);
        let efgh = _mm_shuffle_epi32::<0x1B>(efgh);
        let mut state0 = _mm_alignr_epi8::<8>(tmp, efgh); // ABEF
        let mut state1 = _mm_blend_epi16::<0xF0>(efgh, tmp); // CDGH
        for block in data.chunks_exact(64) {
            let save0 = state0;
            let save1 = state1;
            let p = block.as_ptr();
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p.cast::<__m128i>()), shuf),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast::<__m128i>()), shuf),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast::<__m128i>()), shuf),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast::<__m128i>()), shuf),
            ];
            for i in 0..16 {
                let wi = if i < 4 {
                    w[i]
                } else {
                    // W(i) = msg2(msg1(W(i-4), W(i-3)) + alignr(W(i-1),
                    // W(i-2), 4), W(i-1)) — the 4-word schedule step.
                    let wn = _mm_sha256msg2_epu32(
                        _mm_add_epi32(
                            _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
                            _mm_alignr_epi8::<4>(w[(i + 3) % 4], w[(i + 2) % 4]),
                        ),
                        w[(i + 3) % 4],
                    );
                    w[i % 4] = wn;
                    wn
                };
                let msg = _mm_add_epi32(wi, _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
                state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
                state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32::<0x0E>(msg));
            }
            state0 = _mm_add_epi32(state0, save0);
            state1 = _mm_add_epi32(state1, save1);
        }
        let tmp = _mm_shuffle_epi32::<0x1B>(state0); // FEBA
        let st1 = _mm_shuffle_epi32::<0xB1>(state1); // DCHG
        let abcd = _mm_blend_epi16::<0xF0>(tmp, st1); // DCBA
        let efgh = _mm_alignr_epi8::<8>(st1, tmp); // HGFE
        _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), efgh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_sha256(data: &[u8]) -> Digest {
        let mut h = FastSha256::new();
        h.update(data);
        h.finalize()
    }

    fn msg(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    // NIST FIPS 180-4 / well-known reference vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The same vectors through [`FastSha256`] (SHA-NI where the host has
    /// it, else the portable compressor).
    #[test]
    fn fast_hasher_nist_vectors() {
        assert_eq!(
            to_hex(&fast_sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&fast_sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fast_hasher_million_a() {
        let chunk = [b'a'; 1000];
        let mut h = FastSha256::new();
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        let oneshot = sha256(&data);
        for split in [1usize, 17, 63, 64, 65, 500] {
            let mut h = Sha256::new();
            for chunk in data.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "split {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // 55/56/64-byte messages exercise all padding branches.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"tao"), sha256(b"oat"));
    }

    #[test]
    fn fast_hasher_matches_scalar_oracle() {
        for len in [0usize, 1, 3, 55, 56, 63, 64, 65, 119, 127, 128, 1000, 4096] {
            let data = msg(len, 7);
            assert_eq!(fast_sha256(&data), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn fast_hasher_incremental_split_points() {
        let data = msg(1_000, 3);
        let want = sha256(&data);
        for split in [1usize, 17, 63, 64, 65, 500] {
            let mut h = FastSha256::new();
            for chunk in data.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    /// The dispatched compressor equals its portable arm, so the scalar
    /// fallback is checked on hosts that dispatch to SHA-NI too.
    #[test]
    fn compress_blocks_matches_scalar_arm() {
        for blocks in [1usize, 2, 3, 16] {
            let data = msg(64 * blocks, blocks as u8);
            let mut fast = H0;
            compress_blocks(&mut fast, &data);
            let mut scalar = H0;
            compress_blocks_scalar(&mut scalar, &data);
            assert_eq!(fast, scalar, "{blocks} blocks");
        }
    }
}
