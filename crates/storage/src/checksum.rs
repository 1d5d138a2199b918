//! CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the integrity
//! primitive shared by [`crate::page`] (per-page seals) and [`crate::wal`]
//! (per-record frames). Implemented from scratch: the build environment is
//! offline, so no `crc32fast`.

/// Lookup tables for slicing-by-8: `TABLES[0]` is the classic one-byte
/// reflected table; `TABLES[j][b]` advances the CRC of byte `b` by `j`
/// further zero bytes, letting [`Crc32::update`] fold eight input bytes per
/// step instead of one. Same polynomial, same checksums — only faster,
/// which matters because every buffer-pool page fault verifies a full page.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = (tables[j - 1][i] >> 8) ^ tables[0][(tables[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Carry-less-multiply (PCLMULQDQ) folding for the same reflected CRC32,
/// after Intel's "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ" white paper. The kernel folds the bulk of the input down to
/// one 128-bit residue **congruent to the whole message mod the CRC
/// polynomial**; the residue's 16 bytes then go through the ordinary table
/// loop, so the result is bit-identical to the table path while the bulk
/// runs at multiple bytes per cycle. Runtime-detected: non-x86_64 hosts and
/// CPUs without the instruction keep the slicing-by-8 loop.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Folding constants for the reflected polynomial 0xEDB88320:
    // K1 = x^(4·128+32) mod P, K2 = x^(4·128-32) mod P (512-bit stride),
    // K3 = x^(128+32) mod P,   K4 = x^(128-32) mod P  (128-bit stride).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;

    /// Whether this CPU can run [`fold_blocks`].
    #[inline]
    pub fn supported() -> bool {
        // `is_x86_feature_detected!` caches the cpuid result internally.
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// One fold step: advances accumulator `a` over 128 input bits and
    /// absorbs the next block — `a.lo · K_lo ⊕ a.hi · K_hi ⊕ b` in GF(2).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn reduce128(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let t1 = _mm_clmulepi64_si128(a, keys, 0x00);
        let t2 = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, t1), t2)
    }

    /// Folds `data` (length a multiple of 16 and at least 64) into `out`:
    /// feeding `out` through the table loop **with state 0** yields the same
    /// state as feeding all of `data` with state `state`. The running state
    /// is injected by XOR into the first four message bytes (the classic
    /// init-state identity for reflected CRCs).
    ///
    /// # Safety
    /// The caller must check [`supported`] first.
    #[target_feature(enable = "pclmulqdq")]
    pub unsafe fn fold_blocks(state: u32, data: &[u8], out: &mut [u8; 16]) {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let mut ptr = data.as_ptr().cast::<__m128i>();
        let mut blocks = data.len() / 16 - 4;
        let mut x3 = _mm_loadu_si128(ptr);
        let mut x2 = _mm_loadu_si128(ptr.add(1));
        let mut x1 = _mm_loadu_si128(ptr.add(2));
        let mut x0 = _mm_loadu_si128(ptr.add(3));
        ptr = ptr.add(4);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));
        // Four independent accumulators hide the multiplier latency.
        let k1k2 = _mm_set_epi64x(K2, K1);
        while blocks >= 4 {
            x3 = reduce128(x3, _mm_loadu_si128(ptr), k1k2);
            x2 = reduce128(x2, _mm_loadu_si128(ptr.add(1)), k1k2);
            x1 = reduce128(x1, _mm_loadu_si128(ptr.add(2)), k1k2);
            x0 = reduce128(x0, _mm_loadu_si128(ptr.add(3)), k1k2);
            ptr = ptr.add(4);
            blocks -= 4;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = reduce128(x3, x2, k3k4);
        x = reduce128(x, x1, k3k4);
        x = reduce128(x, x0, k3k4);
        while blocks > 0 {
            x = reduce128(x, _mm_loadu_si128(ptr), k3k4);
            ptr = ptr.add(1);
            blocks -= 1;
        }
        _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), x);
    }
}

/// Incremental CRC32 state, for checksums over scattered byte ranges.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum. Large inputs on CPUs with
    /// carry-less multiply go through the `clmul` folding kernel (the
    /// residue and any tail finish in the table loop); everything else uses
    /// slicing-by-8 over the bulk and the classic byte loop over the
    /// remainder. All paths produce identical checksums.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64 && clmul::supported() {
            let cut = bytes.len() & !15;
            let mut residue = [0u8; 16];
            // SAFETY: `supported()` checked pclmulqdq; `cut` is a multiple
            // of 16 and at least 64.
            unsafe { clmul::fold_blocks(self.state, &bytes[..cut], &mut residue) };
            let mut c = Self::table_update(0, &residue);
            c = Self::table_update(c, &bytes[cut..]);
            self.state = c;
            return;
        }
        self.state = Self::table_update(self.state, bytes);
    }

    /// The slicing-by-8 table loop over `bytes`, starting from `state`.
    fn table_update(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            c = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// Final checksum value.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, 20, data.len()] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn sliced_update_matches_byte_at_a_time() {
        // Reference: the classic one-byte table loop the sliced kernel
        // replaced. Every length exercises a different bulk/remainder split.
        fn reference(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        }
        // 4096 covers a full page through the clmul kernel; 63/64/65 and
        // the odd tails cover every dispatch boundary and remainder split.
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 79, 80, 100, 127, 128, 1024, 4092, 4096] {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn streaming_resumes_through_every_kernel() {
        // A second `update` call starts from a nonzero running state; the
        // folding kernel must inject it exactly like the table loop does.
        let data: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(40_503) >> 7) as u8).collect();
        let whole = crc32(&data);
        for split in [1, 8, 63, 64, 65, 500, 936, 999] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0x5Au8; 256];
        let base = crc32(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
