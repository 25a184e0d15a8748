//! Speck64/128 — a lightweight ARX block cipher (Beaulieu et al., NSA 2013).
//!
//! The paper predates Speck by two decades; it is included as the "fast
//! software cipher" arm of experiment E7 (DES is slow in software, and the
//! paper assumes *hardware* DES — a modern ARX cipher is the honest software
//! stand-in for that assumption) and as a second, independent
//! `BlockCipher64` to keep the codecs honestly generic.
//!
//! [`BlockCipher64::encrypt_blocks`] runs many blocks through the rounds
//! side by side: the blocks are independent, so a round's additions,
//! rotations and XORs run on whole vectors instead of waiting on one
//! block's dependency chain. The kernel lives in `lanes`, the crate's one
//! module allowed `unsafe`: plain Rust compiled at 4 lanes for any
//! target, and on x86-64 also at 16 lanes under AVX2 and 32 under
//! AVX-512, the widest the processor runs chosen at run time. Each lane
//! computes exactly what [`BlockCipher64::encrypt_block`] computes, so a
//! CTR keystream drawn many counters at a time is bit-identical to one
//! drawn a counter at a time.

use crate::cipher::BlockCipher64;

mod lanes;

const ROUNDS: usize = 27;

/// Speck64/128: 64-bit blocks, 128-bit keys.
#[derive(Clone)]
pub struct Speck64 {
    round_keys: [u32; ROUNDS],
}

impl std::fmt::Debug for Speck64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Speck64 {{ round_keys: <redacted> }}")
    }
}

#[inline(always)]
fn round_enc(x: &mut u32, y: &mut u32, k: u32) {
    *x = x.rotate_right(8).wrapping_add(*y) ^ k;
    *y = y.rotate_left(3) ^ *x;
}

#[inline]
fn round_dec(x: &mut u32, y: &mut u32, k: u32) {
    *y = (*y ^ *x).rotate_right(3);
    *x = (*x ^ k).wrapping_sub(*y).rotate_left(8);
}

impl Speck64 {
    /// Key words in the paper's notation `(K3, K2, K1, K0)`, i.e. the
    /// 128-bit key is `K3 ‖ K2 ‖ K1 ‖ K0` big-endian.
    pub fn new(key: [u32; 4]) -> Self {
        let [k3, k2, k1, k0] = key;
        let mut ks = [0u32; ROUNDS];
        let mut l = [k1, k2, k3];
        let mut k = k0;
        for i in 0..ROUNDS {
            ks[i] = k;
            let li = l[i % 3];
            let new_l = k.wrapping_add(li.rotate_right(8)) ^ (i as u32);
            l[i % 3] = new_l;
            k = k.rotate_left(3) ^ new_l;
        }
        Speck64 { round_keys: ks }
    }

    /// Builds from a 128-bit key value (big-endian word split).
    pub fn from_u128(key: u128) -> Self {
        Speck64::new([
            (key >> 96) as u32,
            (key >> 64) as u32,
            (key >> 32) as u32,
            key as u32,
        ])
    }
}

impl BlockCipher64 for Speck64 {
    fn encrypt_block(&self, block: u64) -> u64 {
        let mut x = (block >> 32) as u32;
        let mut y = block as u32;
        for &k in &self.round_keys {
            round_enc(&mut x, &mut y, k);
        }
        ((x as u64) << 32) | y as u64
    }

    fn decrypt_block(&self, block: u64) -> u64 {
        let mut x = (block >> 32) as u32;
        let mut y = block as u32;
        for &k in self.round_keys.iter().rev() {
            round_dec(&mut x, &mut y, k);
        }
        ((x as u64) << 32) | y as u64
    }

    /// The widest lane kernel the processor runs, except that a lone
    /// block takes the scalar rounds: a whole vector for one block costs
    /// about four single-block encryptions (≈ 120 ns against ≈ 30 on a
    /// 2-core x86-64 host with AVX-512), and a point read's owner check
    /// is one block.
    fn encrypt_blocks(&self, blocks: &mut [u64]) {
        if let [one] = blocks {
            *one = self.encrypt_block(*one);
            return;
        }
        lanes::encrypt_blocks(&self.round_keys, blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn official_test_vector() {
        // Speck64/128 vector from the Speck paper (ePrint 2013/404):
        // key = 1b1a1918 13121110 0b0a0908 03020100
        // pt  = 3b726574 7475432d, ct = 8c6fa548 454e028b
        let cipher = Speck64::new([0x1b1a1918, 0x13121110, 0x0b0a0908, 0x03020100]);
        let pt = 0x3b7265747475432du64;
        let ct = 0x8c6fa548454e028bu64;
        assert_eq!(cipher.encrypt_block(pt), ct);
        assert_eq!(cipher.decrypt_block(ct), pt);
    }

    /// The wide path is one single-block encryption per block, on the
    /// official vector in every position of a 40-block run (a whole
    /// vector and a ragged tail for every kernel) and among mixed blocks.
    #[test]
    fn encrypt_blocks_equals_one_encrypt_block_call_per_block() {
        let cipher = Speck64::new([0x1b1a1918, 0x13121110, 0x0b0a0908, 0x03020100]);
        let (pt, ct) = (0x3b7265747475432du64, 0x8c6fa548454e028bu64);
        for at in 0..40 {
            let mut blocks: Vec<u64> = (0..40u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            blocks[at] = pt;
            let want: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
            cipher.encrypt_blocks(&mut blocks);
            assert_eq!(blocks, want, "position {at}");
            assert_eq!(blocks[at], ct, "position {at}");
        }
    }

    #[test]
    fn from_u128_matches_words() {
        let a = Speck64::new([0x1b1a1918, 0x13121110, 0x0b0a0908, 0x03020100]);
        let b = Speck64::from_u128(0x1b1a1918_13121110_0b0a0908_03020100u128);
        assert_eq!(a.encrypt_block(99), b.encrypt_block(99));
    }

    #[test]
    fn avalanche() {
        let cipher = Speck64::from_u128(0x0011223344556677_8899aabbccddeeffu128);
        let base = cipher.encrypt_block(0);
        let diff = (base ^ cipher.encrypt_block(1)).count_ones();
        assert!((20..=44).contains(&diff), "poor avalanche: {diff}");
    }

    proptest! {
        #[test]
        fn prop_roundtrip(key in any::<u128>(), pt in any::<u64>()) {
            let cipher = Speck64::from_u128(key);
            prop_assert_eq!(cipher.decrypt_block(cipher.encrypt_block(pt)), pt);
        }

        #[test]
        fn prop_blocks_match_single_blocks(key in any::<u128>(), blocks in proptest::collection::vec(any::<u64>(), 0..80)) {
            let cipher = Speck64::from_u128(key);
            let mut wide = blocks.clone();
            cipher.encrypt_blocks(&mut wide);
            let single: Vec<u64> = blocks.iter().map(|&b| cipher.encrypt_block(b)).collect();
            prop_assert_eq!(wide, single);
        }

        #[test]
        fn prop_distinct_keys_distinct_ciphertexts(key in any::<u128>(), pt in any::<u64>()) {
            let a = Speck64::from_u128(key);
            let b = Speck64::from_u128(key ^ 1);
            // Not a guarantee in theory, but a collision here would indicate a
            // key-schedule bug in practice.
            prop_assert_ne!(a.encrypt_block(pt), b.encrypt_block(pt));
        }
    }
}
