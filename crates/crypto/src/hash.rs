//! SHA-256, implemented from scratch per FIPS 180-4.
//!
//! Used for request/batch digests, state-machine digests, checkpoint
//! identity, and as the compression function underneath HMAC and the
//! simulated signature scheme. Verified against the NIST test vectors in the
//! unit tests below.
//!
//! The compression function has two implementations of the same rounds. On
//! an x86-64 CPU with the SHA extensions (SHA-NI) each block runs on
//! `sha256rnds2` / `sha256msg1` / `sha256msg2`; everywhere else it runs the
//! portable rounds, which are also the reference the tests hold the hardware
//! path to. The choice is made per block from the CPU's feature flags (which
//! std caches after the first query), so digests are byte-identical on every
//! machine and there is nothing to configure.

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
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

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression function: fold one 64-byte block into the chaining state.
type Compress = fn(&mut [u32; 8], &[u8; 64]);

/// Incremental SHA-256 hasher.
///
/// ```
/// use bft_crypto::hash::Hasher;
/// let mut h = Hasher::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone)]
pub struct Hasher {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    /// Buffered partial block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Hasher {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress)
    }

    #[inline]
    fn update_with(&mut self, mut data: &[u8], compress: Compress) {
        self.len += data.len() as u64;
        // fill pending buffer first
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // whole blocks straight from input
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        // stash the tail
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    #[inline]
    fn finalize_with(mut self, compress: Compress) -> [u8; 32] {
        // padding: 0x80, zeros, 8-byte big-endian bit length — in a second
        // block when the length no longer fits behind the tail
        let bit_len = self.len * 8;
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Does this CPU run `compress_sha_ni`? Every feature it enables beyond
/// the x86-64 baseline (which includes SSE2) is checked.
fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The compression function this CPU runs best.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni() {
        // SAFETY: `compress_sha_ni` has no precondition beyond its target
        // features, and `sha_ni` has just confirmed the CPU supports them.
        unsafe { compress_sha_ni(state, block) };
        return;
    }
    compress_portable(state, block);
}

/// The SHA-256 rounds in plain integer arithmetic: the fallback on every CPU
/// without SHA-NI and the reference the hardware path is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
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
        let ch = (e & f) ^ (!e & g);
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

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The SHA-256 rounds on the SHA extensions, two rounds per `sha256rnds2`.
///
/// The instructions keep the working variables as two vectors, `abef` and
/// `cdgh` (highest lane first), and extend the message schedule four words
/// at a time with `sha256msg1` / `sha256msg2`. Every operand is a value, so
/// the body needs no `unsafe`: calling it is the one obligation, met by
/// [`compress`] checking the CPU first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    let lanes = |hi: u32, mid_hi: u32, mid_lo: u32, lo: u32| {
        _mm_set_epi32(hi as i32, mid_hi as i32, mid_lo as i32, lo as i32)
    };
    // message words are big-endian: byte-swap each 32-bit lane
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let message = |i: usize| {
        let bytes: [u8; 16] = block[16 * i..16 * i + 16].try_into().expect("16 bytes");
        let v = u128::from_le_bytes(bytes);
        _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), bswap)
    };

    let [a, b, c, d, e, f, g, h] = *state;
    let (abef_in, cdgh_in) = (lanes(a, b, e, f), lanes(c, d, g, h));
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);
    // the last four schedule vectors: w[j % 4] holds words 4j..4j+4
    let mut w = [message(0), message(1), message(2), message(3)];
    for j in 0..16 {
        if j >= 4 {
            let (w0, w1, w2, w3) = (w[j % 4], w[(j + 1) % 4], w[(j + 2) % 4], w[(j + 3) % 4]);
            let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
            w[j % 4] = _mm_sha256msg2_epu32(t, w3);
        }
        let k = lanes(K[4 * j + 3], K[4 * j + 2], K[4 * j + 1], K[4 * j]);
        let wk = _mm_add_epi32(w[j % 4], k);
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    let (abef, cdgh) = (_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in));

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|x| x as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 forced onto the portable rounds, whatever the CPU.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        let mut h = Hasher::new();
        h.update_with(data, compress_portable);
        h.finalize_with(compress_portable)
    }

    /// NIST FIPS 180-4 / de-facto standard test vectors, through the
    /// dispatched path and through the portable rounds.
    #[test]
    fn nist_vectors_through_both_paths() {
        let vectors: [(Vec<u8>, &str); 4] = [
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (data, want) in &vectors {
            assert_eq!(hex(&sha256(data)), *want, "{} bytes", data.len());
            assert_eq!(hex(&sha256_portable(data)), *want, "{} bytes", data.len());
        }
    }

    /// The hardware rounds equal the portable rounds on random blocks from
    /// random chaining states.
    #[test]
    fn hardware_rounds_equal_portable_rounds() {
        if !sha_ni() {
            eprintln!(
                "skipped: this CPU has no SHA extensions, so compress() is the portable path"
            );
            return;
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(256);
        for _ in 0..10_000 {
            let start: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let (mut hw, mut sw) = (start, start);
            compress(&mut hw, &block);
            compress_portable(&mut sw, &block);
            assert_eq!(hw, sw, "state {start:08x?} block {}", hex(&block));
        }
    }

    proptest! {
        /// Any split of a message into `update`s hashes like the one-shot
        /// call and like the portable rounds, for every length below 300 —
        /// so across the padding edges at 55/56, 63/64 and 119/120 bytes.
        #[test]
        fn chunked_updates_equal_one_shot(
            cuts in prop::collection::vec(1usize..130, 1..6),
            fill: u8,
        ) {
            let message: Vec<u8> = (0..300u32).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect();
            for len in 0..300 {
                let data = &message[..len];
                let mut h = Hasher::new();
                let mut rest = data;
                for &cut in cuts.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                    h.update(chunk);
                    rest = tail;
                }
                let one_shot = sha256(data);
                prop_assert_eq!(h.finalize(), one_shot, "len {} cuts {:?}", len, cuts);
                prop_assert_eq!(sha256_portable(data), one_shot, "len {}", len);
            }
        }
    }
}
