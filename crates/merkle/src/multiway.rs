//! Multi-way SHA-256: runtime-dispatched fast compressors for the
//! commitment hot path.
//!
//! The scalar [`Sha256`](crate::Sha256) stays in-tree as the permanent
//! differential oracle; everything here must be **bit-identical** to it
//! (enforced by this module's tests and `tests/tests/commit_equiv.rs`).
//! Two mechanically different ways to go faster, selected at runtime by
//! [`Backend`]:
//!
//! * **SHA-NI** (`x86_64`, runtime-detected): one message at a time, but
//!   the `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions compress a
//!   block in a few dozen cycles — the fastest single-stream path, used by
//!   [`FastSha256`] for bulk input.
//! * **AVX2 8-lane** (`x86_64`, runtime-detected): eight *independent*
//!   messages compressed per call, one message per 32-bit SIMD lane. All
//!   lanes run the identical FIPS 180-4 round function, so each lane's
//!   digest equals the scalar result exactly.
//!
//! Hosts with neither extension use the scalar compressor.
//!
//! Multi-message batching ([`sha256_batch_with`], [`MultiSha256`]) requires
//! equal-length lanes — every lane must consume the same block schedule and
//! padding layout. [`sha256_batch_with`] therefore groups its inputs by
//! length and falls back to single-stream hashing for ragged remainders,
//! which keeps its result equal to `msgs.map(sha256)` for *any* input mix.

use crate::sha256::{compress_scalar, padding, sha256, state_digest, Digest, H0};

/// A SHA-256 compressor implementation, selected at runtime.
///
/// Every backend produces digests bit-identical to the scalar oracle; they
/// differ only in throughput. Unsupported hardware backends silently fall
/// back to the scalar path when invoked, so forcing a backend is always
/// *correct* — [`Backend::is_supported`] tells you whether it is also
/// *fast*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The seed scalar compressor (the oracle path and the fallback).
    Scalar,
    /// AVX2 8-lane SIMD compressor (`x86_64` with `avx2`).
    Avx2,
    /// Intel SHA extensions single-stream compressor (`x86_64` with `sha`).
    ShaNi,
}

impl Backend {
    /// The fastest supported backend on this host: SHA-NI, then AVX2, then
    /// the scalar compressor.
    pub fn auto() -> Backend {
        static AUTO: std::sync::OnceLock<Backend> = std::sync::OnceLock::new();
        *AUTO.get_or_init(|| {
            if Backend::ShaNi.is_supported() {
                Backend::ShaNi
            } else if Backend::Avx2.is_supported() {
                Backend::Avx2
            } else {
                Backend::Scalar
            }
        })
    }

    /// True when this backend's specialized code path can run on this host
    /// (the scalar backend is always supported).
    pub fn is_supported(&self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => {
                std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("sse2")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 | Backend::ShaNi => false,
        }
    }

    /// All backends supported on this host (used by the differential tests
    /// and the microbenchmarks to sweep every compiled path).
    pub fn available() -> Vec<Backend> {
        [Backend::Scalar, Backend::Avx2, Backend::ShaNi]
            .into_iter()
            .filter(Backend::is_supported)
            .collect()
    }

    /// How many independent messages one compressor call advances.
    pub fn lanes(&self) -> usize {
        match self {
            Backend::Scalar | Backend::ShaNi => 1,
            Backend::Avx2 => 8,
        }
    }

    /// Short display name (bench tables, CSV ids).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2x8",
            Backend::ShaNi => "sha-ni",
        }
    }
}

/// Compresses `data` (length a multiple of 64) into `state` on the fastest
/// single-stream path the backend offers. Multi-lane backends have no
/// single-stream advantage and use the scalar rounds.
pub(crate) fn compress_blocks(backend: Backend, state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::ShaNi && backend.is_supported() {
        // SAFETY: feature support checked at runtime just above.
        unsafe { ni::compress_blocks(state, data) };
        return;
    }
    let _ = backend;
    for block in data.chunks_exact(64) {
        compress_scalar(state, block.try_into().expect("64-byte chunk"));
    }
}

/// Compresses one 64-byte block per lane. All lanes advance together, so
/// callers must keep lanes in lockstep (equal message lengths).
fn compress_lanes<const N: usize>(backend: Backend, states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    for b in blocks {
        debug_assert_eq!(b.len(), 64);
    }
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2 && N == 8 && backend.is_supported() {
        let states8: &mut [[u32; 8]; 8] = (&mut states[..]).try_into().expect("N == 8");
        let blocks8: &[&[u8]; 8] = (&blocks[..]).try_into().expect("N == 8");
        // SAFETY: AVX2 support checked at runtime just above.
        unsafe { avx2::compress8(states8, blocks8) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::ShaNi && backend.is_supported() {
        for (state, block) in states.iter_mut().zip(blocks) {
            // SAFETY: feature support checked at runtime just above.
            unsafe { ni::compress_blocks(state, block) };
        }
        return;
    }
    for (state, block) in states.iter_mut().zip(blocks) {
        compress_scalar(state, block.try_into().expect("64-byte block"));
    }
}

/// Incremental single-stream SHA-256 with a runtime-dispatched compressor.
///
/// Same `update`/`finalize` surface and identical digests as the scalar
/// [`Sha256`](crate::Sha256); bulk input (whole 64-byte blocks) bypasses
/// the staging buffer and compresses straight from the caller's slice.
#[derive(Debug, Clone)]
pub struct FastSha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
    backend: Backend,
}

impl Default for FastSha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl FastSha256 {
    /// A fresh hasher on the fastest supported backend.
    pub fn new() -> Self {
        Self::with_backend(Backend::auto())
    }

    /// A fresh hasher pinned to `backend`.
    pub fn with_backend(backend: Backend) -> Self {
        FastSha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
            backend,
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
                compress_blocks(self.backend, &mut self.state, &block);
                self.buffered = 0;
            }
        }
        let bulk = data.len() - data.len() % 64;
        if bulk > 0 {
            compress_blocks(self.backend, &mut self.state, &data[..bulk]);
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

/// One-shot SHA-256 on a pinned backend.
pub fn sha256_with(backend: Backend, data: &[u8]) -> Digest {
    let mut h = FastSha256::with_backend(backend);
    h.update(data);
    h.finalize()
}

/// Incremental SHA-256 over `N` independent equal-length messages, one per
/// lane, with a runtime-dispatched multi-lane compressor.
///
/// Every [`update`](Self::update) feeds all lanes the same number of bytes,
/// which keeps the lanes' block schedules — and final padding — in
/// lockstep, so one compressor call advances all `N` states at once.
#[derive(Debug, Clone)]
pub struct MultiSha256<const N: usize> {
    states: [[u32; 8]; N],
    buffers: [[u8; 64]; N],
    buffered: usize,
    total_len: u64,
    backend: Backend,
}

impl<const N: usize> MultiSha256<N> {
    /// Fresh lane states on `backend`.
    pub fn new(backend: Backend) -> Self {
        MultiSha256 {
            states: [H0; N],
            buffers: [[0u8; 64]; N],
            buffered: 0,
            total_len: 0,
            backend,
        }
    }

    /// Absorbs one equal-length slice per lane.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn update(&mut self, mut parts: [&[u8]; N]) {
        let len = parts.first().map_or(0, |p| p.len());
        assert!(
            parts.iter().all(|p| p.len() == len),
            "MultiSha256 lanes must advance in lockstep"
        );
        if N == 0 {
            return;
        }
        self.total_len = self.total_len.wrapping_add(len as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(len);
            for (buf, part) in self.buffers.iter_mut().zip(parts.iter()) {
                buf[self.buffered..self.buffered + take].copy_from_slice(&part[..take]);
            }
            self.buffered += take;
            for part in parts.iter_mut() {
                *part = &part[take..];
            }
            if self.buffered == 64 {
                let buffers = self.buffers;
                let blocks: [&[u8]; N] = std::array::from_fn(|j| &buffers[j][..]);
                compress_lanes(self.backend, &mut self.states, blocks);
                self.buffered = 0;
            }
        }
        while parts[0].len() >= 64 {
            let blocks: [&[u8]; N] = std::array::from_fn(|j| &parts[j][..64]);
            compress_lanes(self.backend, &mut self.states, blocks);
            for part in parts.iter_mut() {
                *part = &part[64..];
            }
        }
        let rem = parts[0].len();
        if rem > 0 {
            for (buf, part) in self.buffers.iter_mut().zip(parts.iter()) {
                buf[..rem].copy_from_slice(part);
            }
            self.buffered = rem;
        }
    }

    /// Absorbs the same bytes into every lane (shared prefixes such as
    /// domain-separation tags).
    pub fn update_all(&mut self, data: &[u8]) {
        self.update([data; N]);
    }

    /// Finishes all lanes and returns their digests. The lanes share one
    /// length, so one padding tail, absorbed in one `update_all`, closes
    /// every lane on a block boundary.
    pub fn finalize(mut self) -> [Digest; N] {
        let (pad, len) = padding(self.buffered, self.total_len);
        self.update_all(&pad[..len]);
        debug_assert!(N == 0 || self.buffered == 0);
        std::array::from_fn(|j| state_digest(&self.states[j]))
    }
}

/// Hashes `N` equal-length messages in one multi-lane pass.
pub fn sha256_many_equal<const N: usize>(backend: Backend, msgs: [&[u8]; N]) -> [Digest; N] {
    let mut h = MultiSha256::<N>::new(backend);
    h.update(msgs);
    h.finalize()
}

/// Groups the indices `0..n` by a key, preserving first-seen order — the
/// shared grouping step of every multi-lane batcher (messages by length,
/// leaves by length, tensors by shape): only same-key items can share a
/// block schedule and advance in lockstep.
pub(crate) fn group_indices_by<K: PartialEq>(
    n: usize,
    key: impl Fn(usize) -> K,
) -> Vec<(K, Vec<usize>)> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for i in 0..n {
        let k = key(i);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((k, vec![i])),
        }
    }
    groups
}

/// Hashes a batch of independent messages, equal to
/// `msgs.iter().map(sha256)` for any input mix.
///
/// The 8-lane backend groups the messages by length (lanes must share a
/// block schedule) and hashes full groups eight at a time; ragged
/// remainders fall back to the single-stream path.
pub fn sha256_batch_with<B: AsRef<[u8]>>(backend: Backend, msgs: &[B]) -> Vec<Digest> {
    let lanes = backend.lanes();
    if lanes == 1 {
        return msgs
            .iter()
            .map(|m| match backend {
                Backend::Scalar => sha256(m.as_ref()),
                _ => sha256_with(backend, m.as_ref()),
            })
            .collect();
    }
    let mut out = vec![[0u8; 32]; msgs.len()];
    for (_, idxs) in &group_indices_by(msgs.len(), |i| msgs[i].as_ref().len()) {
        let mut chunks = idxs.chunks_exact(lanes);
        for chunk in &mut chunks {
            let batch: [&[u8]; 8] = std::array::from_fn(|j| msgs[chunk[j]].as_ref());
            for (j, d) in sha256_many_equal(backend, batch).into_iter().enumerate() {
                out[chunk[j]] = d;
            }
        }
        for &i in chunks.remainder() {
            out[i] = sha256_with(backend, msgs[i].as_ref());
        }
    }
    out
}

/// Hashes a batch of independent messages on the fastest supported
/// backend.
pub fn sha256_batch<B: AsRef<[u8]>>(msgs: &[B]) -> Vec<Digest> {
    sha256_batch_with(Backend::auto(), msgs)
}

/// Intel SHA extensions single-stream compressor.
#[cfg(target_arch = "x86_64")]
mod ni {
    use crate::sha256::K;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

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
        let shuf = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203u64 as i64);
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

/// AVX2 eight-lane interleaved compressor.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::sha256::K;
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_or_si256,
        _mm256_set1_epi32, _mm256_setr_epi32, _mm256_slli_epi32, _mm256_srli_epi32,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    macro_rules! rotr {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_srli_epi32::<$n>($x),
                _mm256_slli_epi32::<{ 32 - $n }>($x),
            )
        };
    }

    #[inline]
    unsafe fn load_w(blocks: &[&[u8]; 8], t: usize) -> __m256i {
        let g = |j: usize| {
            let b = blocks[j];
            u32::from_be_bytes([b[4 * t], b[4 * t + 1], b[4 * t + 2], b[4 * t + 3]]) as i32
        };
        _mm256_setr_epi32(g(0), g(1), g(2), g(3), g(4), g(5), g(6), g(7))
    }

    /// Compresses one 64-byte block per lane: eight independent messages,
    /// message `j` in 32-bit lane `j` of every vector. Per-lane, the
    /// operations are the identical FIPS 180-4 round function.
    ///
    /// # Safety
    ///
    /// Requires runtime AVX2 support; every block must be 64 bytes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compress8(states: &mut [[u32; 8]; 8], blocks: &[&[u8]; 8]) {
        let mut w = [_mm256_set1_epi32(0); 64];
        for (t, wt) in w.iter_mut().enumerate().take(16) {
            *wt = load_w(blocks, t);
        }
        for t in 16..64 {
            let x = w[t - 15];
            let y = w[t - 2];
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(x, 7), rotr!(x, 18)),
                _mm256_srli_epi32::<3>(x),
            );
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(y, 17), rotr!(y, 19)),
                _mm256_srli_epi32::<10>(y),
            );
            w[t] = _mm256_add_epi32(
                _mm256_add_epi32(w[t - 16], s0),
                _mm256_add_epi32(w[t - 7], s1),
            );
        }
        let gather = |r: usize| {
            _mm256_setr_epi32(
                states[0][r] as i32,
                states[1][r] as i32,
                states[2][r] as i32,
                states[3][r] as i32,
                states[4][r] as i32,
                states[5][r] as i32,
                states[6][r] as i32,
                states[7][r] as i32,
            )
        };
        let init: [__m256i; 8] = [
            gather(0),
            gather(1),
            gather(2),
            gather(3),
            gather(4),
            gather(5),
            gather(6),
            gather(7),
        ];
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = init;
        for (i, &wi) in w.iter().enumerate() {
            let s1 = _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 6), rotr!(e, 11)), rotr!(e, 25));
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let t1 = _mm256_add_epi32(
                _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, wi)),
                _mm256_set1_epi32(K[i] as i32),
            );
            let s0 = _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 2), rotr!(a, 13)), rotr!(a, 22));
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let t2 = _mm256_add_epi32(s0, maj);
            h = g;
            g = f;
            f = e;
            e = _mm256_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm256_add_epi32(t1, t2);
        }
        for (r, v) in [a, b, c, d, e, f, g, h].into_iter().enumerate() {
            let sum = _mm256_add_epi32(init[r], v);
            let mut out = [0u32; 8];
            _mm256_storeu_si256(out.as_mut_ptr().cast(), sum);
            for (j, &lane) in out.iter().enumerate() {
                states[j][r] = lane;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn msg(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect()
    }

    #[test]
    fn auto_backend_is_supported() {
        assert!(Backend::auto().is_supported());
        assert!(Backend::available().contains(&Backend::Scalar));
    }

    #[test]
    fn fast_hasher_matches_scalar_oracle_on_every_backend() {
        for backend in Backend::available() {
            for len in [0usize, 1, 3, 55, 56, 63, 64, 65, 119, 127, 128, 1000, 4096] {
                let data = msg(len, 7);
                assert_eq!(
                    sha256_with(backend, &data),
                    sha256(&data),
                    "{backend:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn fast_hasher_incremental_split_points() {
        let data = msg(1_000, 3);
        let want = sha256(&data);
        for backend in Backend::available() {
            for split in [1usize, 17, 63, 64, 65, 500] {
                let mut h = FastSha256::with_backend(backend);
                for chunk in data.chunks(split) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), want, "{backend:?} split {split}");
            }
        }
    }

    #[test]
    fn nist_vectors_on_every_backend() {
        for backend in Backend::available() {
            assert_eq!(
                to_hex(&sha256_with(backend, b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{backend:?}"
            );
            assert_eq!(
                to_hex(&sha256_with(backend, b"")),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{backend:?}"
            );
        }
    }

    #[test]
    fn multiway_equal_lanes_match_scalar() {
        for backend in Backend::available() {
            for len in [0usize, 5, 55, 64, 65, 130, 640] {
                let msgs: Vec<Vec<u8>> = (0..8).map(|j| msg(len, j as u8)).collect();
                let refs: [&[u8]; 8] = std::array::from_fn(|j| msgs[j].as_slice());
                let got = sha256_many_equal(backend, refs);
                for (j, m) in msgs.iter().enumerate() {
                    assert_eq!(got[j], sha256(m), "{backend:?} len {len} lane {j}");
                }
            }
        }
    }

    #[test]
    fn multiway_incremental_shared_prefix() {
        let bodies: Vec<Vec<u8>> = (0..8).map(|j| msg(300, 100 + j as u8)).collect();
        for backend in Backend::available() {
            let mut h = MultiSha256::<8>::new(backend);
            h.update_all(b"prefix");
            h.update(std::array::from_fn(|j| bodies[j].as_slice()));
            let got = h.finalize();
            for (j, body) in bodies.iter().enumerate() {
                let mut oracle = crate::Sha256::new();
                oracle.update(b"prefix");
                oracle.update(body);
                assert_eq!(got[j], oracle.finalize(), "{backend:?} lane {j}");
            }
        }
    }

    #[test]
    fn batch_matches_scalar_for_ragged_lengths() {
        let msgs: Vec<Vec<u8>> = (0..23)
            .map(|i| msg([0, 1, 33, 64, 65, 129, 250][i % 7], i as u8))
            .collect();
        let want: Vec<Digest> = msgs.iter().map(|m| sha256(m)).collect();
        for backend in Backend::available() {
            assert_eq!(sha256_batch_with(backend, &msgs), want, "{backend:?}");
        }
        assert_eq!(sha256_batch(&msgs), want);
    }

    #[test]
    fn million_a_on_fast_paths() {
        let chunk = [b'a'; 1000];
        for backend in Backend::available() {
            let mut h = FastSha256::with_backend(backend);
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                to_hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{backend:?}"
            );
        }
    }
}
