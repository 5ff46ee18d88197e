//! SHA-256 (FIPS 180-4).
//!
//! The CASU secure-update protocol authenticates update requests with
//! HMAC-SHA-256. The offline dependency set contains no cryptography crate,
//! so this module provides a small, self-contained implementation validated
//! against the FIPS 180-4 / NIST CAVP test vectors.
//!
//! On x86-64 CPUs that expose the SHA extensions, the compression
//! function runs through the `SHA256RNDS2`/`SHA256MSG*` instructions
//! (detected once at runtime, scalar fallback otherwise). The fast path
//! computes standard SHA-256 — same digests bit for bit, pinned by the
//! CAVP vectors and a scalar-vs-accelerated equivalence test — so
//! nothing above this module can observe which path ran, except the
//! clock.

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_SIZE: usize = 32;

/// Size of a SHA-256 input block in bytes.
pub const BLOCK_SIZE: usize = 64;

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use eilid_casu::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_SIZE],
    buffer_len: usize,
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_SIZE],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// The state after compressing one `block` from the initial state:
    /// a prefix that many messages share, computed once (the HMAC key
    /// schedule in [`crate::hmac::HmacKey`]).
    pub(crate) fn state_after_block(block: &[u8; BLOCK_SIZE]) -> [u32; 8] {
        let mut hasher = Sha256::new();
        hasher.compress(block);
        hasher.state
    }

    /// A hasher that has absorbed exactly one block, leaving `state`
    /// (as [`Sha256::state_after_block`] returns it).
    pub(crate) fn resume_after_block(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buffer: [0; BLOCK_SIZE],
            buffer_len: 0,
            total_len: BLOCK_SIZE as u64,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (BLOCK_SIZE - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == BLOCK_SIZE {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while input.len() >= BLOCK_SIZE {
            let mut block = [0u8; BLOCK_SIZE];
            block.copy_from_slice(&input[..BLOCK_SIZE]);
            self.compress(&block);
            input = &input[BLOCK_SIZE..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, then zeros up to 56 mod 64, then the 64-bit
        // big-endian length, in one update. Adding the padding to
        // total_len is harmless: bit_len is already taken.
        let zeros = (BLOCK_SIZE + 55 - self.buffer_len) % BLOCK_SIZE;
        let mut padding = [0u8; 1 + 63 + 8];
        padding[0] = 0x80;
        padding[1 + zeros..1 + zeros + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..1 + zeros + 8]);
        debug_assert_eq!(self.buffer_len, 0);

        let mut digest = [0u8; DIGEST_SIZE];
        for (i, word) in self.state.iter().enumerate() {
            digest[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        digest
    }

    fn compress(&mut self, block: &[u8; BLOCK_SIZE]) {
        #[cfg(target_arch = "x86_64")]
        if shani::try_compress(&mut self.state, block) {
            return;
        }
        self.compress_scalar(block);
    }

    fn compress_scalar(&mut self, block: &[u8; BLOCK_SIZE]) {
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

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// The SHA-NI compression path (Intel SHA extensions). The round
/// sequence follows Intel's reference `sha256_ni_transform`: state is
/// re-packed into the ABEF/CDGH lane order the `SHA256RNDS2`
/// instruction wants, four rounds retire per instruction pair, and the
/// `SHA256MSG1`/`SHA256MSG2` pair expands the message schedule.
#[cfg(target_arch = "x86_64")]
mod shani {
    // The one unsafe island in this crate: CPU feature detection plus
    // the feature-gated intrinsics it guards. Everything else stays
    // safe code.
    #![allow(unsafe_code)]

    use super::{BLOCK_SIZE, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Runs the accelerated compression if this CPU supports it.
    /// Returns `false` (state untouched) when it does not.
    pub fn try_compress(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available` confirmed the sha/sse4.1/ssse3 features.
        unsafe { compress(state, block) };
        true
    }

    /// Whether this CPU exposes the SHA extensions (checked once; the
    /// answer cannot change while the process runs).
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("sse4.1")
                && std::arch::is_x86_feature_detected!("ssse3")
        })
    }

    /// Four-round constant vector `{K[i+3], K[i+2], K[i+1], K[i]}`.
    #[inline]
    fn k4(i: usize) -> __m128i {
        // SAFETY: `_mm_set_epi32` is plain SSE2 register construction.
        unsafe {
            _mm_set_epi32(
                K[i + 3] as i32,
                K[i + 2] as i32,
                K[i + 1] as i32,
                K[i] as i32,
            )
        }
    }

    /// One SHA-256 compression over `block`.
    ///
    /// # Safety
    ///
    /// The caller must have confirmed [`available`] returns `true`.
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    pub unsafe fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
        // Big-endian word loads via one byte shuffle per 16 bytes.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b_u64 as i64, 0x0405_0607_0001_0203);
        let p = block.as_ptr();
        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), mask);
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), mask);
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), mask);
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), mask);

        // Re-pack {a..h} into the ABEF/CDGH lanes SHA256RNDS2 consumes.
        let tmp = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xB1); // CDAB
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1B); // EFGH
        let mut abef = _mm_alignr_epi8(tmp, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);
        let abef_save = abef;
        let cdgh_save = cdgh;

        // Four rounds: the low two K+W words feed the CDGH update, the
        // high two (shuffled down) feed the ABEF update.
        macro_rules! rounds4 {
            ($msg:expr, $k_base:expr) => {{
                let wk = _mm_add_epi32($msg, k4($k_base));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }
        // W[i..i+4] from the previous four message vectors.
        macro_rules! schedule {
            ($m0:expr, $m1:expr, $m2:expr, $m3:expr) => {{
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($m0, $m1), _mm_alignr_epi8($m3, $m2, 4));
                _mm_sha256msg2_epu32(t, $m3)
            }};
        }

        rounds4!(msg0, 0);
        rounds4!(msg1, 4);
        rounds4!(msg2, 8);
        rounds4!(msg3, 12);
        for chunk in 1..4 {
            msg0 = schedule!(msg0, msg1, msg2, msg3);
            rounds4!(msg0, 16 * chunk);
            msg1 = schedule!(msg1, msg2, msg3, msg0);
            rounds4!(msg1, 16 * chunk + 4);
            msg2 = schedule!(msg2, msg3, msg0, msg1);
            rounds4!(msg2, 16 * chunk + 8);
            msg3 = schedule!(msg3, msg0, msg1, msg2);
            rounds4!(msg3, 16 * chunk + 12);
        }

        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);

        // Unpack ABEF/CDGH back to {a..h} memory order.
        let tmp = _mm_shuffle_epi32(abef, 0x1B); // FEBA
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1); // DCHG
        let abcd = _mm_blend_epi16(tmp, dchg, 0xF0);
        let efgh = _mm_alignr_epi8(dchg, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), efgh);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_SIZE] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_input_vector() {
        // One million 'a' characters (FIPS 180-4 appendix vector).
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1_000).collect();
        let mut hasher = Sha256::new();
        for chunk in data.chunks(7) {
            hasher.update(chunk);
        }
        assert_eq!(hasher.finalize(), sha256(&data));
    }

    #[test]
    fn block_boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65, 127, 128] {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // The point is that padding logic terminates and matches one-shot.
            assert_eq!(h.finalize(), sha256(&data), "length {len}");
        }
    }

    /// `0xAB` repeated around each padding boundary, digests from
    /// coreutils `sha256sum`: the padding fits the last block (55),
    /// fills it exactly (56), or spills into one more (57..=63), for a
    /// message of one block and of two.
    #[test]
    fn padding_boundaries_match_known_digests() {
        let known = [
            "55 48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d",
            "56 a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55",
            "57 21d063693fbba44f9ffa966466e2f94d9931b9c9519120c3804ef1ceafd989b5",
            "63 d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b",
            "64 ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61",
            "65 39cd843414d5125dd308568ace26d04e60b7fa6d2b1a901fb5184fa2eae0598b",
            "119 a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7",
            "120 3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922",
            "127 f7488c3608a1dd18b17578527c61e872803356b6b8302bc3e0f0e4ce8ad1148d",
            "128 80125c62d518fac6f8b487e1f784c1f12a6acc5d607d554f2e3cccf5342dd29a",
        ];
        for line in known {
            let (len, digest) = line.split_once(' ').unwrap();
            let data = vec![0xABu8; len.parse().unwrap()];
            assert_eq!(hex(&sha256(&data)), digest, "length {len}");
        }
    }

    /// On SHA-NI hardware, the accelerated compression must agree with
    /// the scalar FIPS implementation on every state/block pair — not
    /// just the digests the other vectors pin, but raw compression
    /// outputs over varied inputs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_compression() {
        if !super::shani::available() {
            return; // nothing to compare on this CPU
        }
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 24) as u8
        };
        for _ in 0..64 {
            let mut block = [0u8; BLOCK_SIZE];
            block.fill_with(&mut next);
            let mut scalar = Sha256::new();
            let mut accel_state = scalar.state;
            scalar.compress_scalar(&block);
            assert!(super::shani::try_compress(&mut accel_state, &block));
            assert_eq!(scalar.state, accel_state);
        }
    }
}
