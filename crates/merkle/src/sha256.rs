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
//!
//! [`sha256_batch`] hashes many independent `head ‖ body` messages at
//! once: a lane scheduler feeds them, longest first, to a 16-lane AVX-512
//! compressor (one message per 32-bit lane) when a second once-cached
//! check passes, and hashes them one at a time on `compress_blocks`
//! otherwise. A trace commitment is one such batch: one message per
//! node value, then one per Merkle leaf and one per interior node of each
//! tree level.

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

/// SHA-256 of every `head ‖ body` message, in input order; equal to
/// [`sha256`] of each concatenation.
///
/// On hosts with AVX-512 the messages share a 16-lane compressor through
/// the lane scheduler; elsewhere each is hashed on its own with the
/// compressor [`FastSha256`] uses. Either way only the blocks that hold
/// head bytes or padding are copied; blocks that lie inside `body` are
/// read in place.
pub fn sha256_batch(messages: &[(&[u8], &[u8])]) -> Vec<Digest> {
    #[cfg(target_arch = "x86_64")]
    if let Some(mut lanes) = x16::Lanes16::new() {
        return hash_lanes(&mut lanes, messages);
    }
    messages
        .iter()
        .map(|&(head, body)| Layout::new(head, body).finish(H0, 0))
        .collect()
}

/// Messages in flight in one batch compression.
const LANES: usize = 16;

/// Once the queue is empty and at most this many lanes are busy, the
/// stragglers finish one at a time on `compress_blocks`: a 16-lane round
/// costs about as much as seven or eight SHA-NI blocks (the batch hashes
/// at about 2.1x SHA-NI's rate), so six lanes finish sooner on their own.
const TAIL_LANES: usize = 6;

/// A 16-lane compressor: one SHA-256 state per lane.
trait Lanes {
    /// Compresses `blocks[l]` into lane `l`'s state for every lane, after
    /// resetting the lanes whose bit is set in `fresh` to the initial
    /// state.
    fn compress(&mut self, blocks: [&[u8; 64]; LANES], fresh: u16);

    /// Lane `lane`'s current state.
    fn state(&self, lane: usize) -> [u32; 8];
}

/// The portable arm: sixteen scalar compressions. The oracle the unit
/// tests drive the lane scheduler with on every host.
#[cfg(test)]
#[derive(Default)]
struct PortableLanes([[u32; 8]; LANES]);

#[cfg(test)]
impl Lanes for PortableLanes {
    fn compress(&mut self, blocks: [&[u8; 64]; LANES], fresh: u16) {
        for (lane, (state, block)) in self.0.iter_mut().zip(blocks).enumerate() {
            if fresh >> lane & 1 == 1 {
                *state = H0;
            }
            compress_scalar(state, block);
        }
    }

    fn state(&self, lane: usize) -> [u32; 8] {
        self.0[lane]
    }
}

/// The block layout of one padded `head ‖ body` message.
struct Layout<'a> {
    head: &'a [u8],
    body: &'a [u8],
    /// Padded length in 64-byte blocks.
    blocks: usize,
    /// The blocks that lie wholly inside `body`.
    direct: core::ops::Range<usize>,
}

impl<'a> Layout<'a> {
    fn new(head: &'a [u8], body: &'a [u8]) -> Self {
        let len = head.len() + body.len();
        let first = head.len().div_ceil(64);
        Layout {
            head,
            body,
            blocks: (len + 9).div_ceil(64),
            direct: first..(len / 64).max(first),
        }
    }

    /// Block `i` read in place from `body`, when it lies inside it.
    fn direct(&self, i: usize) -> Option<&'a [u8; 64]> {
        if !self.direct.contains(&i) {
            return None;
        }
        let at = 64 * i - self.head.len();
        Some(self.body[at..at + 64].try_into().expect("64-byte block"))
    }

    /// Writes block `i` of the padded message into `out`: head bytes,
    /// body bytes, the `0x80` terminator and, in the last block, the
    /// big-endian bit length.
    fn stage(&self, i: usize, out: &mut [u8; 64]) {
        let (start, head) = (64 * i, self.head.len());
        let len = head + self.body.len();
        *out = [0; 64];
        if start < head {
            let n = (head - start).min(64);
            out[..n].copy_from_slice(&self.head[start..start + n]);
        }
        let (from, to) = (start.max(head), (start + 64).min(len));
        if from < to {
            out[from - start..to - start].copy_from_slice(&self.body[from - head..to - head]);
        }
        if (start..start + 64).contains(&len) {
            out[len - start] = 0x80;
        }
        if i + 1 == self.blocks {
            out[56..].copy_from_slice(&(len as u64).wrapping_mul(8).to_be_bytes());
        }
    }

    /// Compresses blocks `from..` into `state` on `compress_blocks`, the
    /// in-place run in one call, and returns the digest.
    fn finish(&self, mut state: [u32; 8], from: usize) -> Digest {
        let mut staged = [0u8; 64];
        let mut i = from;
        while i < self.blocks {
            if self.direct.contains(&i) {
                let at = 64 * i - self.head.len();
                let end = 64 * self.direct.end - self.head.len();
                compress_blocks(&mut state, &self.body[at..end]);
                i = self.direct.end;
            } else {
                self.stage(i, &mut staged);
                compress_blocks(&mut state, &staged);
                i += 1;
            }
        }
        state_digest(&state)
    }
}

/// The lane scheduler: runs `messages` through `lanes`, longest first.
/// A lane whose message ends takes the next one and restarts from the
/// initial state; once the queue is empty and at most [`TAIL_LANES`]
/// lanes are busy, each straggler finishes on `compress_blocks` from its
/// state part-way through its message.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn hash_lanes(lanes: &mut impl Lanes, messages: &[(&[u8], &[u8])]) -> Vec<Digest> {
    let layouts: Vec<Layout> = messages
        .iter()
        .map(|&(head, body)| Layout::new(head, body))
        .collect();
    let mut order: Vec<usize> = (0..layouts.len()).collect();
    order.sort_by_key(|&m| core::cmp::Reverse(layouts[m].blocks));
    let mut queue = order.into_iter();
    let mut out = vec![[0u8; 32]; layouts.len()];
    // Each busy lane's message and the next block it compresses.
    let mut busy: [Option<(usize, usize)>; LANES] = [None; LANES];
    let mut staged = [[0u8; 64]; LANES];
    let mut fresh = 0u16;
    loop {
        for (lane, slot) in busy.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some(m) = queue.next() {
                    *slot = Some((m, 0));
                    fresh |= 1 << lane;
                }
            }
        }
        if queue.len() == 0 && busy.iter().flatten().count() <= TAIL_LANES {
            for (lane, slot) in busy.iter().enumerate() {
                if let Some((m, i)) = *slot {
                    let state = if fresh >> lane & 1 == 1 {
                        H0
                    } else {
                        lanes.state(lane)
                    };
                    out[m] = layouts[m].finish(state, i);
                }
            }
            return out;
        }
        for (slot, buf) in busy.iter().zip(&mut staged) {
            if let Some((m, i)) = *slot {
                if layouts[m].direct(i).is_none() {
                    layouts[m].stage(i, buf);
                }
            }
        }
        // Idle lanes compress their stale staging block; their state is
        // reset before they take a message.
        let blocks = core::array::from_fn(|lane| {
            busy[lane]
                .and_then(|(m, i)| layouts[m].direct(i))
                .unwrap_or(&staged[lane])
        });
        lanes.compress(blocks, fresh);
        fresh = 0;
        for (lane, slot) in busy.iter_mut().enumerate() {
            if let Some((m, i)) = slot {
                *i += 1;
                if *i == layouts[*m].blocks {
                    out[*m] = state_digest(&lanes.state(lane));
                    *slot = None;
                }
            }
        }
    }
}

/// The 16-lane AVX-512 compressor: lane `l` of vector `j` holds word `j`
/// of lane `l`'s state, rotates are `vprord` and Σ/σ, Ch and Maj are one
/// `vpternlogd` each.
#[cfg(target_arch = "x86_64")]
mod x16 {
    use super::{Lanes, H0, K, LANES};
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_mask_mov_epi32, _mm512_ror_epi32,
        _mm512_set1_epi32, _mm512_set4_epi32, _mm512_shuffle_epi8, _mm512_shuffle_i32x4,
        _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32,
        _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
    };

    /// True when the host has `avx512f` and `avx512bw`; detected once per
    /// process.
    fn supported() -> bool {
        static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *SUPPORTED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
        })
    }

    /// Word-major lane states; only constructed on a host that has the
    /// features [`compress16`] needs.
    pub(super) struct Lanes16 {
        words: [[u32; LANES]; 8],
    }

    impl Lanes16 {
        /// The compressor, or `None` on a host without AVX-512.
        pub(super) fn new() -> Option<Self> {
            supported().then_some(Lanes16 {
                words: [[0; LANES]; 8],
            })
        }
    }

    impl Lanes for Lanes16 {
        fn compress(&mut self, blocks: [&[u8; 64]; LANES], fresh: u16) {
            // SAFETY: `Lanes16::new` checked `avx512f` and `avx512bw`;
            // every load reads one whole 64-byte block.
            unsafe { compress16(&mut self.words, &blocks, fresh) }
        }

        fn state(&self, lane: usize) -> [u32; 8] {
            core::array::from_fn(|j| self.words[j][lane])
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
        _mm512_add_epi32(_mm512_add_epi32(a, b), c)
    }

    /// `a ^ b ^ c`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(a, b, c)
    }

    /// One round on the named state words: `d += T1`, `h = T1 + T2`; the
    /// caller rotates the names. With `$next`, message word `$i` first
    /// advances sixteen places: `w[i] += σ0(w[i+1]) + w[i+9] + σ1(w[i+14])`
    /// (indices mod 16), in place and in order.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $w:ident, $k:ident, $i:expr, $next:ident) => {
            if $next {
                let x = $w[($i + 1) % 16];
                let y = $w[($i + 14) % 16];
                let s0 = xor3(
                    _mm512_ror_epi32::<7>(x),
                    _mm512_ror_epi32::<18>(x),
                    _mm512_srli_epi32::<3>(x),
                );
                let s1 = xor3(
                    _mm512_ror_epi32::<17>(y),
                    _mm512_ror_epi32::<19>(y),
                    _mm512_srli_epi32::<10>(y),
                );
                $w[$i] = _mm512_add_epi32(add3($w[$i], s0, $w[($i + 9) % 16]), s1);
            }
            let kw = _mm512_add_epi32($w[$i], _mm512_set1_epi32($k[$i] as i32));
            let sigma1 = xor3(
                _mm512_ror_epi32::<6>($e),
                _mm512_ror_epi32::<11>($e),
                _mm512_ror_epi32::<25>($e),
            );
            // Ch(e, f, g) = e ? f : g.
            let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
            let t1 = _mm512_add_epi32(add3($h, sigma1, ch), kw);
            let sigma0 = xor3(
                _mm512_ror_epi32::<2>($a),
                _mm512_ror_epi32::<13>($a),
                _mm512_ror_epi32::<22>($a),
            );
            // Maj(a, b, c) = at least two of a, b, c.
            let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
            $d = _mm512_add_epi32($d, t1);
            $h = add3(t1, sigma0, maj);
        };
    }

    /// Compresses `blocks[l]` into lane `l` of `words` for all sixteen
    /// lanes, first resetting the lanes set in `fresh` to the initial
    /// state with a masked move. Bit-identical to sixteen scalar
    /// compressions: the same FIPS 180-4 round function, lane-wise.
    ///
    /// # Safety
    ///
    /// Requires runtime support for `avx512f` and `avx512bw`.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn compress16(words: &mut [[u32; LANES]; 8], blocks: &[&[u8; 64]; LANES], fresh: u16) {
        let mut s = [_mm512_set1_epi32(0); 8];
        for (j, v) in s.iter_mut().enumerate() {
            let loaded = _mm512_loadu_si512(words[j].as_ptr().cast());
            *v = _mm512_mask_mov_epi32(loaded, fresh, _mm512_set1_epi32(H0[j] as i32));
        }
        // Rows of big-endian words, then a 16x16 transpose so that
        // `w[k]` holds message word `k` of every lane.
        let bswap = _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b, 0x04050607, 0x00010203);
        let mut r = [_mm512_set1_epi32(0); 16];
        for (row, block) in r.iter_mut().zip(blocks) {
            *row = _mm512_shuffle_epi8(_mm512_loadu_si512(block.as_ptr().cast()), bswap);
        }
        // Within each 128-bit lane q: u[4g + j] = word 4q + j of rows
        // 4g..4g + 4.
        let mut u = [_mm512_set1_epi32(0); 16];
        for g in 0..4 {
            let [r0, r1, r2, r3] = [r[4 * g], r[4 * g + 1], r[4 * g + 2], r[4 * g + 3]];
            let (t0, t1) = (_mm512_unpacklo_epi32(r0, r1), _mm512_unpackhi_epi32(r0, r1));
            let (t2, t3) = (_mm512_unpacklo_epi32(r2, r3), _mm512_unpackhi_epi32(r2, r3));
            u[4 * g] = _mm512_unpacklo_epi64(t0, t2);
            u[4 * g + 1] = _mm512_unpackhi_epi64(t0, t2);
            u[4 * g + 2] = _mm512_unpacklo_epi64(t1, t3);
            u[4 * g + 3] = _mm512_unpackhi_epi64(t1, t3);
        }
        let mut w = [_mm512_set1_epi32(0); 16];
        for j in 0..4 {
            let v0 = _mm512_shuffle_i32x4::<0x88>(u[j], u[4 + j]);
            let v1 = _mm512_shuffle_i32x4::<0x88>(u[8 + j], u[12 + j]);
            let v2 = _mm512_shuffle_i32x4::<0xDD>(u[j], u[4 + j]);
            let v3 = _mm512_shuffle_i32x4::<0xDD>(u[8 + j], u[12 + j]);
            w[j] = _mm512_shuffle_i32x4::<0x88>(v0, v1);
            w[8 + j] = _mm512_shuffle_i32x4::<0xDD>(v0, v1);
            w[4 + j] = _mm512_shuffle_i32x4::<0x88>(v2, v3);
            w[12 + j] = _mm512_shuffle_i32x4::<0xDD>(v2, v3);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = s;
        for chunk in 0..4 {
            let k = &K[16 * chunk..16 * chunk + 16];
            // From the second chunk on, w[i] becomes W[16 * chunk + i]
            // just before round i uses it.
            let next = chunk > 0;
            round!(a, b, c, d, e, f, g, h, w, k, 0, next);
            round!(h, a, b, c, d, e, f, g, w, k, 1, next);
            round!(g, h, a, b, c, d, e, f, w, k, 2, next);
            round!(f, g, h, a, b, c, d, e, w, k, 3, next);
            round!(e, f, g, h, a, b, c, d, w, k, 4, next);
            round!(d, e, f, g, h, a, b, c, w, k, 5, next);
            round!(c, d, e, f, g, h, a, b, w, k, 6, next);
            round!(b, c, d, e, f, g, h, a, w, k, 7, next);
            round!(a, b, c, d, e, f, g, h, w, k, 8, next);
            round!(h, a, b, c, d, e, f, g, w, k, 9, next);
            round!(g, h, a, b, c, d, e, f, w, k, 10, next);
            round!(f, g, h, a, b, c, d, e, w, k, 11, next);
            round!(e, f, g, h, a, b, c, d, w, k, 12, next);
            round!(d, e, f, g, h, a, b, c, w, k, 13, next);
            round!(c, d, e, f, g, h, a, b, w, k, 14, next);
            round!(b, c, d, e, f, g, h, a, w, k, 15, next);
        }
        for (j, v) in [a, b, c, d, e, f, g, h].into_iter().enumerate() {
            _mm512_storeu_si512(words[j].as_mut_ptr().cast(), _mm512_add_epi32(s[j], v));
        }
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

    /// Digests of `messages` on the scalar oracle.
    fn oracle(messages: &[(&[u8], &[u8])]) -> Vec<Digest> {
        messages
            .iter()
            .map(|(head, body)| sha256(&[*head, *body].concat()))
            .collect()
    }

    /// The lane scheduler on the portable arm, on the AVX-512 arm where
    /// the host has it, and the public dispatch, each against the oracle.
    fn check_batch(messages: &[(&[u8], &[u8])], what: &str) {
        let want = oracle(messages);
        assert_eq!(
            hash_lanes(&mut PortableLanes::default(), messages),
            want,
            "portable: {what}"
        );
        #[cfg(target_arch = "x86_64")]
        if let Some(mut lanes) = x16::Lanes16::new() {
            assert_eq!(hash_lanes(&mut lanes, messages), want, "avx512: {what}");
        }
        assert_eq!(sha256_batch(messages), want, "dispatch: {what}");
    }

    /// Every total length 0–300 with heads of 0–130 bytes, so block edges
    /// fall inside the head, the body and the padding; 300 messages keep
    /// all sixteen lanes refilling.
    #[test]
    fn batch_matches_oracle_for_every_head_and_body_split() {
        let data = msg(300, 5);
        for head_len in [0usize, 1, 7, 55, 56, 63, 64, 65, 100, 127, 128, 130] {
            let messages: Vec<(&[u8], &[u8])> = (0..=300)
                .filter(|&len| len >= head_len)
                .map(|len| (&data[..head_len], &data[head_len..len]))
                .collect();
            check_batch(&messages, &format!("head {head_len}"));
        }
        for len in [0usize, 55, 56, 64, 119, 300] {
            let messages: Vec<(&[u8], &[u8])> = (0..=len.min(130))
                .map(|head_len| (&data[..head_len], &data[head_len..len]))
                .collect();
            check_batch(&messages, &format!("total {len}"));
        }
    }

    /// Fewer messages than lanes, one message, none, and a mix of 4 KB and
    /// 40 B messages, whose long lanes finish on the straggler tail.
    #[test]
    fn batch_matches_oracle_on_partial_batches_and_stragglers() {
        let long = msg(4096, 1);
        let short = msg(40, 2);
        check_batch(&[], "empty");
        check_batch(&[(&short[..3], &long)], "one");
        for n in [
            2usize,
            TAIL_LANES,
            TAIL_LANES + 1,
            LANES - 1,
            LANES,
            LANES + 1,
        ] {
            let messages: Vec<(&[u8], &[u8])> = (0..n)
                .map(|i| (&short[..i % 40], &long[..64 * i + i]))
                .collect();
            check_batch(&messages, &format!("{n} messages"));
        }
        for n_long in [1usize, 3, 8, 17] {
            let mut messages: Vec<(&[u8], &[u8])> = vec![(&short[..8], &short[8..]); 50];
            for i in 0..n_long {
                messages.insert(3 * i, (&short[..i], &long[i..]));
            }
            check_batch(&messages, &format!("{n_long} long among short"));
        }
    }

    /// The AVX-512 compressor equals the portable arm on one round of
    /// sixteen random blocks from random states, with every reset mask
    /// shape.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_lanes_match_portable_lanes() {
        let Some(mut simd) = x16::Lanes16::new() else {
            return;
        };
        let mut portable = PortableLanes::default();
        let data = msg(64 * LANES, 9);
        let blocks: [&[u8; 64]; LANES] =
            core::array::from_fn(|l| data[64 * l..64 * l + 64].try_into().unwrap());
        for fresh in [0xffffu16, 0x0001, 0x8000, 0xa5a5, 0x0000, 0x7ffe] {
            simd.compress(blocks, fresh);
            portable.compress(blocks, fresh);
            for lane in 0..LANES {
                assert_eq!(simd.state(lane), portable.state(lane), "{fresh:#x} {lane}");
            }
        }
    }
}
