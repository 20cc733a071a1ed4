//! SipHash-2-4 with 128-bit output and domain separation.
//!
//! Snapshot bundles carry two content hashes with distinct domains: the
//! *bundle hash* (over the raw bundle bytes — detects corruption and
//! mixed-format artifacts) and the *state hash* (over the canonical
//! semantic sections only — the value replay recovery must reproduce
//! exactly). Domain separation guarantees the two can never be confused
//! for one another even over identical input bytes.
//!
//! SipHash is not collision-resistant against adversaries who know the
//! key; here it serves as a fast, well-distributed content fingerprint
//! for *accident* detection (bit rot, torn writes, version mixing), the
//! same role the CRC layer plays per-section.

/// Fixed keys: "rdfviews" / "durable!" as little-endian u64s. The hash is
/// a public content fingerprint, not a MAC, so the key is a constant.
const K0: u64 = u64::from_le_bytes(*b"rdfviews");
const K1: u64 = u64::from_le_bytes(*b"durable!");

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// Streaming SipHash-2-4 producing a 128-bit digest.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    v: [u64; 4],
    buf: [u8; 8],
    buf_len: usize,
    total: u64,
}

impl Hasher128 {
    /// A hasher keyed with the crate's fixed keys.
    pub fn new() -> Self {
        Self::keyed(K0, K1)
    }

    /// A hasher with explicit keys (used by the test vectors).
    pub fn keyed(k0: u64, k1: u64) -> Self {
        Hasher128 {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                // 128-bit variant: v1 is additionally xored with 0xee.
                k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            buf: [0; 8],
            buf_len: 0,
            total: 0,
        }
    }

    /// A hasher whose input stream starts with the length-prefixed domain
    /// string — two hashers with different domains can never collide by
    /// concatenation tricks.
    pub fn with_domain(domain: &str) -> Self {
        let mut h = Self::new();
        h.update(&(domain.len() as u64).to_le_bytes());
        h.update(domain.as_bytes());
        h
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        sipround(&mut self.v);
        sipround(&mut self.v);
        self.v[0] ^= m;
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        if self.buf_len > 0 {
            let need = 8 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 8 {
                // `bytes` did not complete the pending word: keep it.
                return;
            }
            let m = u64::from_le_bytes(self.buf);
            self.compress(m);
            self.buf_len = 0;
        }
        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.compress(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finalizes and returns the 128-bit digest (low half first).
    pub fn finish(mut self) -> u128 {
        let mut last = [0u8; 8];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[7] = (self.total & 0xFF) as u8;
        self.compress(u64::from_le_bytes(last));

        self.v[2] ^= 0xee;
        for _ in 0..4 {
            sipround(&mut self.v);
        }
        let h1 = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        self.v[1] ^= 0xdd;
        for _ in 0..4 {
            sipround(&mut self.v);
        }
        let h2 = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        (h1 as u128) | ((h2 as u128) << 64)
    }
}

impl Default for Hasher128 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot domain-separated 128-bit hash.
pub fn hash128(domain: &str, data: &[u8]) -> u128 {
    let mut h = Hasher128::with_domain(domain);
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Official SipHash-2-4-128 test vectors: key `0x0f0e...0100`, input
    /// the byte sequence `00 01 02 ...` of growing length.
    fn reference(input: &[u8]) -> u128 {
        let mut h = Hasher128::keyed(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        h.update(input);
        h.finish()
    }

    #[test]
    fn official_vectors() {
        assert_eq!(
            reference(&[]),
            u128::from_le_bytes([
                0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
                0x02, 0x93
            ])
        );
        assert_eq!(
            reference(&[0x00]),
            u128::from_le_bytes([
                0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b, 0x22,
                0xfc, 0x45
            ])
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Hasher128::with_domain("test");
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), hash128("test", &data));
        // Two calls that leave the pending word partial, against one call.
        let mut h = Hasher128::new();
        h.update(&[1, 2, 3]);
        h.update(&[4, 5]);
        let mut one = Hasher128::new();
        one.update(&[1, 2, 3, 4, 5]);
        assert_eq!(h.finish(), one.finish());
    }

    #[test]
    fn domains_separate() {
        assert_ne!(hash128("a", b"payload"), hash128("b", b"payload"));
        // Concatenation cannot smuggle the domain into the data.
        assert_ne!(hash128("ab", b"cd"), hash128("abc", b"d"));
    }
}
