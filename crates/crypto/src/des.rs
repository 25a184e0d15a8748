//! The Data Encryption Standard (FIPS PUB 46), implemented from the
//! specification.
//!
//! The paper (§5) names DES as one of the two cryptosystems suitable for
//! enciphering node and data blocks. Built for fidelity to the 1977
//! standard, **not** for protecting real data.
//!
//! The FIPS tables below are the only source of the cipher. At compile
//! time `const fn`s fold them into lookup tables: IP, FP, PC1 and PC2
//! become one table per input byte (`out = OR over j of T[j][byte j]`),
//! and each S-box merges with P into one `[u32; 64]` table whose six input
//! bits are read straight off a rotation of R, so E is never evaluated.
//! The bit-at-a-time cipher those tables are derived from lives on in the
//! tests as their oracle, next to the published test vectors.

use crate::cipher::BlockCipher64;

/// Initial permutation IP.
#[rustfmt::skip]
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17,  9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation IP⁻¹.
#[rustfmt::skip]
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41,  9, 49, 17, 57, 25,
];

/// Permutation P applied to the S-box output.
#[rustfmt::skip]
const P: [u8; 32] = [
    16,  7, 20, 21,
    29, 12, 28, 17,
     1, 15, 23, 26,
     5, 18, 31, 10,
     2,  8, 24, 14,
    32, 27,  3,  9,
    19, 13, 30,  6,
    22, 11,  4, 25,
];

/// Permuted choice 1 (key schedule): 64 → 56 bits.
#[rustfmt::skip]
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17,  9,
     1, 58, 50, 42, 34, 26, 18,
    10,  2, 59, 51, 43, 35, 27,
    19, 11,  3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
     7, 62, 54, 46, 38, 30, 22,
    14,  6, 61, 53, 45, 37, 29,
    21, 13,  5, 28, 20, 12,  4,
];

/// Permuted choice 2 (key schedule): 56 → 48 bits.
#[rustfmt::skip]
const PC2: [u8; 48] = [
    14, 17, 11, 24,  1,  5,
     3, 28, 15,  6, 21, 10,
    23, 19, 12,  4, 26,  8,
    16,  7, 27, 20, 13,  2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
];

/// Left-rotation schedule for the 16 rounds.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes, each 4 rows × 16 columns.
#[rustfmt::skip]
const SBOX: [[u8; 64]; 8] = [
    [
        14,  4, 13,  1,  2, 15, 11,  8,  3, 10,  6, 12,  5,  9,  0,  7,
         0, 15,  7,  4, 14,  2, 13,  1, 10,  6, 12, 11,  9,  5,  3,  8,
         4,  1, 14,  8, 13,  6,  2, 11, 15, 12,  9,  7,  3, 10,  5,  0,
        15, 12,  8,  2,  4,  9,  1,  7,  5, 11,  3, 14, 10,  0,  6, 13,
    ],
    [
        15,  1,  8, 14,  6, 11,  3,  4,  9,  7,  2, 13, 12,  0,  5, 10,
         3, 13,  4,  7, 15,  2,  8, 14, 12,  0,  1, 10,  6,  9, 11,  5,
         0, 14,  7, 11, 10,  4, 13,  1,  5,  8, 12,  6,  9,  3,  2, 15,
        13,  8, 10,  1,  3, 15,  4,  2, 11,  6,  7, 12,  0,  5, 14,  9,
    ],
    [
        10,  0,  9, 14,  6,  3, 15,  5,  1, 13, 12,  7, 11,  4,  2,  8,
        13,  7,  0,  9,  3,  4,  6, 10,  2,  8,  5, 14, 12, 11, 15,  1,
        13,  6,  4,  9,  8, 15,  3,  0, 11,  1,  2, 12,  5, 10, 14,  7,
         1, 10, 13,  0,  6,  9,  8,  7,  4, 15, 14,  3, 11,  5,  2, 12,
    ],
    [
         7, 13, 14,  3,  0,  6,  9, 10,  1,  2,  8,  5, 11, 12,  4, 15,
        13,  8, 11,  5,  6, 15,  0,  3,  4,  7,  2, 12,  1, 10, 14,  9,
        10,  6,  9,  0, 12, 11,  7, 13, 15,  1,  3, 14,  5,  2,  8,  4,
         3, 15,  0,  6, 10,  1, 13,  8,  9,  4,  5, 11, 12,  7,  2, 14,
    ],
    [
         2, 12,  4,  1,  7, 10, 11,  6,  8,  5,  3, 15, 13,  0, 14,  9,
        14, 11,  2, 12,  4,  7, 13,  1,  5,  0, 15, 10,  3,  9,  8,  6,
         4,  2,  1, 11, 10, 13,  7,  8, 15,  9, 12,  5,  6,  3,  0, 14,
        11,  8, 12,  7,  1, 14,  2, 13,  6, 15,  0,  9, 10,  4,  5,  3,
    ],
    [
        12,  1, 10, 15,  9,  2,  6,  8,  0, 13,  3,  4, 14,  7,  5, 11,
        10, 15,  4,  2,  7, 12,  9,  5,  6,  1, 13, 14,  0, 11,  3,  8,
         9, 14, 15,  5,  2,  8, 12,  3,  7,  0,  4, 10,  1, 13, 11,  6,
         4,  3,  2, 12,  9,  5, 15, 10, 11, 14,  1,  7,  6,  0,  8, 13,
    ],
    [
         4, 11,  2, 14, 15,  0,  8, 13,  3, 12,  9,  7,  5, 10,  6,  1,
        13,  0, 11,  7,  4,  9,  1, 10, 14,  3,  5, 12,  2, 15,  8,  6,
         1,  4, 11, 13, 12,  3,  7, 14, 10, 15,  6,  8,  0,  5,  9,  2,
         6, 11, 13,  8,  1,  4, 10,  7,  9,  5,  0, 15, 14,  2,  3, 12,
    ],
    [
        13,  2,  8,  4,  6, 15, 11,  1, 10,  9,  3, 14,  5,  0, 12,  7,
         1, 15, 13,  8, 10,  3,  7,  4, 12,  5,  6, 11,  0, 14,  9,  2,
         7, 11,  4,  1,  9, 12, 14,  2,  0,  6, 10, 13, 15,  3,  5,  8,
         2,  1, 14,  7,  4, 10,  8, 13, 15, 12,  9,  0,  3,  5,  6, 11,
    ],
];

/// Applies a 1-indexed bit permutation table: output bit `i` (MSB-first) is
/// input bit `table[i]` of a `width`-bit word (also MSB-first).
const fn permute(input: u64, width: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((input >> (width - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// `permute` as one lookup per input byte: entry `[j][b]` is the image of
/// the `width`-bit word whose byte `j` (most significant first) is `b` and
/// whose other bits are 0. A bit permutation distributes over OR, so a
/// word's image is the OR of its bytes' entries ([`lookup`]).
const fn byte_tables<const BYTES: usize>(table: &[u8], width: u32) -> [[u64; 256]; BYTES] {
    let mut out = [[0u64; 256]; BYTES];
    let mut j = 0;
    while j < BYTES {
        let shift = width - 8 * (j as u32 + 1);
        let mut b = 1usize;
        while b < 256 {
            // `b` is `b & (b - 1)`, built already, plus its lowest set bit.
            let low = b.trailing_zeros();
            out[j][b] = out[j][b & (b - 1)] | permute(1 << (shift + low), width, table);
            b += 1;
        }
        j += 1;
    }
    out
}

/// The low `BYTES` bytes of `input` pushed through their [`byte_tables`].
fn lookup<const BYTES: usize>(tables: &[[u64; 256]; BYTES], input: u64) -> u64 {
    let bytes = input.to_be_bytes();
    tables
        .iter()
        .zip(&bytes[8 - BYTES..])
        .fold(0, |out, (table, &b)| out | table[b as usize])
}

static IP_TABLES: [[u64; 256]; 8] = byte_tables(&IP, 64);
static FP_TABLES: [[u64; 256]; 8] = byte_tables(&FP, 64);
static PC1_TABLES: [[u64; 256]; 8] = byte_tables(&PC1, 64);
static PC2_TABLES: [[u64; 256]; 7] = byte_tables(&PC2, 56);

/// S-box `i` followed by P: entry `[i][x]` is P applied to the 32-bit word
/// holding S-box `i`'s output for the six-bit input `x` in nibble `i`
/// (most significant first) and zeros elsewhere. P distributes over OR, so
/// f is the OR of one entry per S-box.
static SP_TABLES: [[u32; 64]; 8] = {
    let mut out = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut x = 0;
        while x < 64 {
            let row = ((x & 0x20) >> 4) | (x & 0x01);
            let col = (x >> 1) & 0x0f;
            let s = SBOX[i][row * 16 + col] as u64;
            out[i][x] = permute(s << (28 - 4 * i), 32, &P) as u32;
            x += 1;
        }
        i += 1;
    }
    out
};

/// The DES round function f(R, K), `subkey` as its eight six-bit chunks.
/// E's row `i` is bits 4i … 4i + 5 of R (1-indexed, wrapping 0 → 32 and
/// 33 → 1): the top six bits of R rotated left by 4i − 1.
fn feistel_f(r: u32, subkey: &[u8; 8]) -> u32 {
    let mut out = 0;
    for (i, (sp, &k)) in SP_TABLES.iter().zip(subkey).enumerate() {
        let x = (r.rotate_left((4 * i as u32 + 31) % 32) >> 26) as u8 ^ k;
        out |= sp[(x & 0x3f) as usize];
    }
    out
}

/// A DES key schedule: 16 round subkeys, each as the eight six-bit chunks
/// its S-boxes read.
#[derive(Clone)]
pub struct Des {
    subkeys: [[u8; 8]; 16],
}

impl std::fmt::Debug for Des {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Des { subkeys: <redacted> }")
    }
}

impl Des {
    /// Expands a 64-bit key (parity bits ignored, per the standard).
    pub fn new(key: u64) -> Self {
        let permuted = lookup(&PC1_TABLES, key); // 56 bits
        let mut c = ((permuted >> 28) & 0x0fff_ffff) as u32;
        let mut d = (permuted & 0x0fff_ffff) as u32;
        let mut subkeys = [[0u8; 8]; 16];
        for (subkey, &shift) in subkeys.iter_mut().zip(&SHIFTS) {
            let shift = shift as u32;
            c = ((c << shift) | (c >> (28 - shift))) & 0x0fff_ffff;
            d = ((d << shift) | (d >> (28 - shift))) & 0x0fff_ffff;
            let k = lookup(&PC2_TABLES, ((c as u64) << 28) | d as u64); // 48 bits
            for (i, chunk) in subkey.iter_mut().enumerate() {
                *chunk = (k >> (42 - 6 * i)) as u8 & 0x3f;
            }
        }
        Des { subkeys }
    }

    fn crypt<'a>(block: u64, subkeys: impl Iterator<Item = &'a [u8; 8]>) -> u64 {
        let permuted = lookup(&IP_TABLES, block);
        let (mut l, mut r) = ((permuted >> 32) as u32, permuted as u32);
        for subkey in subkeys {
            (l, r) = (r, l ^ feistel_f(r, subkey));
        }
        // Note the swap: the final round output is (R16, L16).
        lookup(&FP_TABLES, ((r as u64) << 32) | l as u64)
    }
}

impl BlockCipher64 for Des {
    fn encrypt_block(&self, block: u64) -> u64 {
        Des::crypt(block, self.subkeys.iter())
    }

    fn decrypt_block(&self, block: u64) -> u64 {
        Des::crypt(block, self.subkeys.iter().rev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Classic published test vectors (key, plaintext, ciphertext).
    const VECTORS: [(u64, u64, u64); 4] = [
        // The worked example from many textbooks.
        (0x133457799BBCDFF1, 0x0123456789ABCDEF, 0x85E813540F0AB405),
        // All-zero key and plaintext.
        (0x0000000000000000, 0x0000000000000000, 0x8CA64DE9C1B123A7),
        // All-ones.
        (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7359B2163E4EDC58),
        // "Now is t" under the sequential key.
        (0x0123456789ABCDEF, 0x4E6F772069732074, 0x3FA40E8A984D4815),
    ];

    /// Expansion E: 32 → 48 bits.
    #[rustfmt::skip]
    const E: [u8; 48] = [
        32,  1,  2,  3,  4,  5,
         4,  5,  6,  7,  8,  9,
         8,  9, 10, 11, 12, 13,
        12, 13, 14, 15, 16, 17,
        16, 17, 18, 19, 20, 21,
        20, 21, 22, 23, 24, 25,
        24, 25, 26, 27, 28, 29,
        28, 29, 30, 31, 32,  1,
    ];

    /// The oracle: DES straight from FIPS 46, one bit at a time — every
    /// permutation (IP, FP, E, P, PC1, PC2) through `permute`, the S-boxes
    /// indexed by row and column. The lookup tables must agree with it.
    fn oracle_subkeys(key: u64) -> [u64; 16] {
        let permuted = permute(key, 64, &PC1);
        let mut c = ((permuted >> 28) & 0x0fff_ffff) as u32;
        let mut d = (permuted & 0x0fff_ffff) as u32;
        let mut subkeys = [0u64; 16];
        for round in 0..16 {
            let shift = SHIFTS[round] as u32;
            c = ((c << shift) | (c >> (28 - shift))) & 0x0fff_ffff;
            d = ((d << shift) | (d >> (28 - shift))) & 0x0fff_ffff;
            let cd = ((c as u64) << 28) | d as u64;
            subkeys[round] = permute(cd, 56, &PC2);
        }
        subkeys
    }

    fn oracle_f(r: u32, subkey: u64) -> u32 {
        let x = permute(r as u64, 32, &E) ^ subkey;
        let mut out = 0u32;
        for (i, sbox) in SBOX.iter().enumerate() {
            let chunk = ((x >> (42 - 6 * i)) & 0x3f) as u8;
            let row = ((chunk & 0x20) >> 4) | (chunk & 0x01);
            let col = (chunk >> 1) & 0x0f;
            out = (out << 4) | sbox[(row * 16 + col) as usize] as u32;
        }
        permute(out as u64, 32, &P) as u32
    }

    fn oracle_crypt(subkeys: &[u64; 16], block: u64, decrypt: bool) -> u64 {
        let permuted = permute(block, 64, &IP);
        let mut l = (permuted >> 32) as u32;
        let mut r = permuted as u32;
        for round in 0..16 {
            let subkey = subkeys[if decrypt { 15 - round } else { round }];
            let new_r = l ^ oracle_f(r, subkey);
            l = r;
            r = new_r;
        }
        permute(((r as u64) << 32) | l as u64, 64, &FP)
    }

    /// The lookup tables against the bit-at-a-time oracle on 20 000 seeded
    /// (key, block) pairs, in both directions; the oracle itself is pinned
    /// to the published vectors first.
    #[test]
    fn tables_match_the_bit_at_a_time_oracle() {
        for &(key, pt, ct) in &VECTORS {
            let subkeys = oracle_subkeys(key);
            assert_eq!(oracle_crypt(&subkeys, pt, false), ct);
            assert_eq!(oracle_crypt(&subkeys, ct, true), pt);
        }
        // SplitMix64, so the pairs are the same on every run.
        let mut state = 0x5EED_0DE5_0000_0001u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..20_000 {
            let (key, block) = (next(), next());
            let (des, subkeys) = (Des::new(key), oracle_subkeys(key));
            assert_eq!(
                des.encrypt_block(block),
                oracle_crypt(&subkeys, block, false),
                "encrypt key={key:016X} block={block:016X}"
            );
            assert_eq!(
                des.decrypt_block(block),
                oracle_crypt(&subkeys, block, true),
                "decrypt key={key:016X} block={block:016X}"
            );
        }
    }

    #[test]
    fn debug_redacts_the_key() {
        let key = 0xA5A5_5A5A_DEAD_BEEFu64;
        let shown = format!("{:?}", Des::new(key)).to_lowercase();
        assert!(shown.contains("des { subkeys: <redacted> }"), "{shown}");
        assert!(!shown.contains("{{"), "{shown}");
        assert!(!shown.contains(&key.to_string()), "{shown}");
        assert!(!shown.contains(&format!("{key:x}")), "{shown}");
    }

    #[test]
    fn known_answer_tests() {
        for &(key, pt, ct) in &VECTORS {
            let des = Des::new(key);
            assert_eq!(des.encrypt_block(pt), ct, "encrypt key={key:016X}");
            assert_eq!(des.decrypt_block(ct), pt, "decrypt key={key:016X}");
        }
    }

    #[test]
    fn parity_bits_ignored() {
        // Keys differing only in parity bits (LSB of each byte) are equivalent.
        let a = Des::new(0x0123456789ABCDEF);
        let b = Des::new(0x0123456789ABCDEF ^ 0x0101010101010101);
        for pt in [0u64, 1, 0xdead_beef_0bad_cafe] {
            assert_eq!(a.encrypt_block(pt), b.encrypt_block(pt));
        }
    }

    #[test]
    fn complementation_property() {
        // DES(k̄, p̄) = DES(k, p)̄ — a structural property of the cipher that
        // only holds if the whole round network is correct.
        let k = 0x133457799BBCDFF1u64;
        let p = 0x0123456789ABCDEFu64;
        let c = Des::new(k).encrypt_block(p);
        let c_comp = Des::new(!k).encrypt_block(!p);
        assert_eq!(c_comp, !c);
    }

    #[test]
    fn weak_key_is_self_inverse() {
        // 0x0101...01 is a DES weak key: encryption == decryption.
        let weak = Des::new(0x0101010101010101);
        for pt in [0x0011223344556677u64, 0xffeeddccbbaa9988] {
            assert_eq!(weak.encrypt_block(weak.encrypt_block(pt)), pt);
        }
    }

    #[test]
    fn avalanche_on_plaintext() {
        let des = Des::new(0x133457799BBCDFF1);
        let base = des.encrypt_block(0x0123456789ABCDEF);
        let flipped = des.encrypt_block(0x0123456789ABCDEF ^ 1);
        let diff = (base ^ flipped).count_ones();
        assert!((20..=44).contains(&diff), "poor avalanche: {diff} bits");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_roundtrip(key in any::<u64>(), pt in any::<u64>()) {
            let des = Des::new(key);
            prop_assert_eq!(des.decrypt_block(des.encrypt_block(pt)), pt);
        }
    }
}
