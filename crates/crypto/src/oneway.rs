//! One-way functions.
//!
//! §3 of the paper: *"The function f can be a one way function, or even an
//! encryption function."* We provide a Davies–Meyer compression function
//! over Speck64 (one-way under the ideal-cipher model) and a 64-bit hash
//! chained from it.

use crate::cipher::BlockCipher64;
use crate::speck::Speck64;

/// Davies–Meyer over Speck64/128 (input expanded to the 128-bit key by
/// concatenating `x` with its bitwise complement).
pub fn davies_meyer_speck(x: u64, m: u64) -> u64 {
    let key = ((x as u128) << 64) | (!x as u128);
    Speck64::from_u128(key).encrypt_block(m) ^ m
}

/// A Merkle–Damgård style 64-bit hash of a byte string, chaining
/// Davies–Meyer compressions. Good enough for fingerprints and cache keys in
/// the experiments; *not* collision-resistant at a modern security level
/// (64-bit output).
pub fn hash64(data: &[u8]) -> u64 {
    let mut state = 0x6a09e667f3bcc908u64; // sqrt(2) fractional bits
    for chunk in data.chunks(8) {
        let mut block = [0u8; 8];
        block[..chunk.len()].copy_from_slice(chunk);
        block[7] ^= chunk.len() as u8; // length tweak distinguishes short tails
        state = davies_meyer_speck(state, u64::from_be_bytes(block));
    }
    // Finalise with the total length to prevent extension-style collisions.
    davies_meyer_speck(state, data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn davies_meyer_is_deterministic_and_spread() {
        let a = davies_meyer_speck(1, 0);
        assert_eq!(a, davies_meyer_speck(1, 0));
        assert_ne!(a, davies_meyer_speck(2, 0));
        assert_ne!(a, davies_meyer_speck(1, 1));
        // Speck keys every bit, so sequential inputs must not collide.
        let outs: HashSet<u64> = (0..512u64).map(|x| davies_meyer_speck(x, 0)).collect();
        assert_eq!(outs.len(), 512, "no collisions among 512 sequential inputs");
    }

    #[test]
    fn hash64_sensitivity() {
        assert_ne!(hash64(b"record-a"), hash64(b"record-b"));
        assert_ne!(hash64(b""), hash64(b"\0"));
        assert_ne!(hash64(b"ab"), hash64(b"a\0b"));
        // Length-tail discrimination: same prefix, different tail lengths.
        assert_ne!(
            hash64(&[1, 2, 3, 4, 5, 6, 7, 8]),
            hash64(&[1, 2, 3, 4, 5, 6, 7, 8, 0])
        );
        assert_eq!(hash64(b"stable"), hash64(b"stable"));
    }

    proptest! {
        #[test]
        fn prop_hash64_no_trivial_collisions(a in any::<u64>(), b in any::<u64>()) {
            prop_assume!(a != b);
            prop_assert_ne!(hash64(&a.to_be_bytes()), hash64(&b.to_be_bytes()));
        }
    }
}
