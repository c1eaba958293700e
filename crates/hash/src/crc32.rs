//! 32-bit IEEE cyclic redundancy checksum, from scratch.
//!
//! The paper's request router hashes the QoS key with "a 32-bit cyclic
//! redundancy checksum (CRC) algorithm". This module implements CRC-32/ISO-HDLC
//! (the ubiquitous IEEE 802.3 polynomial `0xEDB88320`, reflected, init and
//! xorout `0xFFFFFFFF`) — the same function PHP's `crc32()` computes, which
//! is what the paper's PHP router used.
//!
//! Three implementations are provided:
//!
//! * [`crc32_bitwise`] — the textbook bit-at-a-time reference, used as the
//!   oracle in tests.
//! * [`crc32_sarwate`] — the classic single-table byte-at-a-time form.
//! * [`crc32`] — slicing-by-8, processing 8 bytes per step; the hot-path
//!   implementation the router uses. All three agree on every input.

/// The reflected IEEE 802.3 polynomial.
pub const POLY: u32 = 0xEDB8_8320;

/// Sarwate lookup table plus the seven derived tables for slicing-by-8.
/// `TABLES[0]` is the classic table; `TABLES[k][b] = ` CRC of byte `b`
/// followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        t += 1;
    }
    tables
}

/// One-shot CRC32 evaluable in `const` context (Sarwate over the const
/// table). Lets callers bake checksums of fixed labels into constants; at
/// runtime prefer [`crc32`], whose slicing-by-8 loop is faster.
pub const fn crc32_const(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut i = 0;
    while i < data.len() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ data[i] as u32) & 0xff) as usize];
        i += 1;
    }
    !crc
}

// Compile-time known-answer check: a regression in the const table build
// fails `cargo build` itself, not just the test suite. 0xCBF4_3926 is the
// standard CRC-32/ISO-HDLC "check" value.
const _: () = assert!(crc32_const(b"123456789") == 0xCBF4_3926);
const _: () = assert!(crc32_const(b"") == 0);

/// Bit-at-a-time reference implementation (test oracle; do not use on the
/// hot path).
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Classic Sarwate single-table implementation.
pub fn crc32_sarwate(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    !crc
}

/// CRC-32/ISO-HDLC of `data` via slicing-by-8. Matches PHP `crc32()`,
/// zlib's `crc32()` and POSIX `cksum -o3`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut state = Crc32::new();
    state.update(data);
    state.finalize()
}

/// Incremental CRC32 state, for hashing a key assembled from fragments
/// (e.g. `user` + `:` + `database`) without concatenating.
#[derive(Debug, Clone)]
pub struct Crc32 {
    crc: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32 { crc: 0xFFFF_FFFF }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.crc;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            // Fold the current CRC into the first 4 bytes, then look all 8
            // bytes up in the 8 tables simultaneously.
            let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
            crc = TABLES[7][(lo & 0xff) as usize]
                ^ TABLES[6][((lo >> 8) & 0xff) as usize]
                ^ TABLES[5][((lo >> 16) & 0xff) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][chunk[4] as usize]
                ^ TABLES[2][chunk[5] as usize]
                ^ TABLES[1][chunk[6] as usize]
                ^ TABLES[0][chunk[7] as usize];
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
        }
        self.crc = crc;
    }

    /// Final checksum. The state may continue to absorb data afterwards;
    /// `finalize` is a pure read.
    pub fn finalize(&self) -> u32 {
        !self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Known-answer vectors, cross-checked against PHP `crc32()` / zlib.
    #[test]
    fn known_answer_vectors() {
        let vectors: &[(&[u8], u32)] = &[
            (b"", 0x0000_0000),
            (b"a", 0xE8B7_BE43),
            (b"abc", 0x3524_41C2),
            (b"123456789", 0xCBF4_3926), // the CRC-32 "check" value
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (b"hello world", 0x0D4A_1185),
        ];
        for &(input, expected) in vectors {
            assert_eq!(crc32(input), expected, "slicing mismatch for {input:?}");
            assert_eq!(
                crc32_sarwate(input),
                expected,
                "sarwate mismatch for {input:?}"
            );
            assert_eq!(
                crc32_bitwise(input),
                expected,
                "bitwise mismatch for {input:?}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"alice:photos:2018-09-10";
        let mut inc = Crc32::new();
        inc.update(&data[..5]);
        inc.update(&data[5..12]);
        inc.update(&data[12..]);
        assert_eq!(inc.finalize(), crc32(data));
    }

    #[test]
    fn finalize_is_nondestructive() {
        let mut state = Crc32::new();
        state.update(b"abc");
        let first = state.finalize();
        assert_eq!(state.finalize(), first);
        state.update(b"def");
        assert_eq!(state.finalize(), crc32(b"abcdef"));
    }

    #[test]
    fn empty_update_is_identity() {
        let mut state = Crc32::new();
        state.update(b"janus");
        let before = state.finalize();
        state.update(b"");
        assert_eq!(state.finalize(), before);
    }

    fn random_bytes(rng: &mut Rng, min: u64, max: u64) -> Vec<u8> {
        (0..rng.gen_range_inclusive(min, max))
            .map(|_| rng.next_u64() as u8)
            .collect()
    }

    #[test]
    fn all_implementations_agree() {
        let mut rng = Rng::seed_from_u64(0xC4C3_2001);
        for _ in 0..256 {
            let data = random_bytes(&mut rng, 0, 511);
            let expected = crc32_bitwise(&data);
            assert_eq!(crc32_sarwate(&data), expected);
            assert_eq!(crc32(&data), expected);
            assert_eq!(crc32_const(&data), expected);
        }
    }

    #[test]
    fn arbitrary_splits_agree() {
        let mut rng = Rng::seed_from_u64(0xC4C3_2002);
        for _ in 0..256 {
            let data = random_bytes(&mut rng, 0, 255);
            let split = rng.gen_range_inclusive(0, data.len() as u64) as usize;
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finalize(), crc32(&data));
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        // CRC32 detects all single-bit errors by construction.
        let mut rng = Rng::seed_from_u64(0xC4C3_2003);
        for _ in 0..256 {
            let data = random_bytes(&mut rng, 1, 127);
            let mut flipped = data.clone();
            flipped[rng.gen_range(data.len() as u64) as usize] ^= 1 << rng.gen_range(8);
            assert_ne!(crc32(&data), crc32(&flipped));
        }
    }
}
