//! RSA in "secret-parameter" mode (§5 of the paper).
//!
//! The paper points out that when RSA enciphers database pointers *without
//! publishing any parameters* — modulus, exponents, everything stays secret —
//! the usual public-key attacks have nothing to work from. This module
//! implements textbook RSA over the in-crate [`BigUint`](crate::bignum) with
//! Miller–Rabin key generation, plus fixed-width block encoding so that node
//! codecs can compute cryptogram sizes exactly (experiment E3 measures the
//! node-layout cost of RSA-sized fields).

use rand::Rng;

use crate::bignum::BigUint;

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Message value is not strictly below the modulus.
    MessageTooLarge,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLarge => write!(f, "RSA message must be less than the modulus"),
        }
    }
}

impl std::error::Error for RsaError {}

/// A full RSA key pair. In the paper's usage *all* fields are secret.
#[derive(Debug, Clone)]
pub struct RsaKey {
    n: BigUint,
    e: BigUint,
    d: BigUint,
    modulus_bytes: usize,
}

impl RsaKey {
    /// Generates a key with a modulus of exactly `bits` bits.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 32, "modulus below 32 bits cannot encode a pointer");
        let half = bits / 2;
        let e = BigUint::from_u64(65537);
        loop {
            let p = BigUint::random_prime(rng, half);
            let q = BigUint::random_prime(rng, bits - half);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_length() != bits {
                continue;
            }
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&phi) else {
                continue; // gcd(e, phi) != 1; re-draw primes
            };
            let modulus_bytes = bits.div_ceil(8);
            return RsaKey {
                n,
                e,
                d,
                modulus_bytes,
            };
        }
    }

    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Ciphertext width in bytes for this key.
    pub fn ciphertext_len(&self) -> usize {
        self.modulus_bytes
    }

    /// Largest plaintext block width (bytes) guaranteed to be below `n`.
    pub fn max_plaintext_len(&self) -> usize {
        self.modulus_bytes - 1
    }

    /// `m^e mod n` on numeric values.
    pub fn encrypt_value(&self, m: &BigUint) -> Result<BigUint, RsaError> {
        if m.cmp_val(&self.n) != std::cmp::Ordering::Less {
            return Err(RsaError::MessageTooLarge);
        }
        Ok(m.modpow(&self.e, &self.n))
    }

    /// `c^d mod n` on numeric values.
    pub fn decrypt_value(&self, c: &BigUint) -> Result<BigUint, RsaError> {
        if c.cmp_val(&self.n) != std::cmp::Ordering::Less {
            return Err(RsaError::MessageTooLarge);
        }
        Ok(c.modpow(&self.d, &self.n))
    }

    /// Enciphers at most [`Self::max_plaintext_len`] bytes into a fixed
    /// [`Self::ciphertext_len`]-byte cryptogram. A one-byte length prefix
    /// makes the encoding injective for variable-length inputs.
    pub fn encrypt_bytes(&self, plaintext: &[u8]) -> Result<Vec<u8>, RsaError> {
        if plaintext.len() + 1 > self.max_plaintext_len() {
            return Err(RsaError::MessageTooLarge);
        }
        let mut framed = Vec::with_capacity(plaintext.len() + 1);
        framed.push(plaintext.len() as u8);
        framed.extend_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&framed);
        let c = self.encrypt_value(&m)?;
        Ok(c.to_bytes_be_padded(self.ciphertext_len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key(bits: usize, seed: u64) -> RsaKey {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKey::generate(&mut rng, bits)
    }

    /// Deciphers `ct` and checks it is the frame `encrypt_bytes` builds
    /// for `msg`: the length byte, then the message.
    fn deciphers_to(key: &RsaKey, ct: &[u8], msg: &[u8]) -> bool {
        let mut frame = vec![msg.len() as u8];
        frame.extend_from_slice(msg);
        key.decrypt_value(&BigUint::from_bytes_be(ct)).unwrap() == BigUint::from_bytes_be(&frame)
    }

    #[test]
    fn textbook_toy_key() {
        // p = 61, q = 53 → n = 3233, φ = 3120, e = 17, d = 2753.
        let key = RsaKey {
            n: BigUint::from_u64(3233),
            e: BigUint::from_u64(17),
            d: BigUint::from_u64(2753),
            modulus_bytes: 2,
        };
        let m = BigUint::from_u64(65);
        let c = key.encrypt_value(&m).unwrap();
        assert_eq!(c, BigUint::from_u64(2790)); // classic worked example
        assert_eq!(key.decrypt_value(&c).unwrap(), m);
    }

    #[test]
    fn generate_and_roundtrip_values() {
        let key = test_key(128, 1);
        assert_eq!(key.modulus().bit_length(), 128);
        for v in [0u64, 1, 0xdeadbeef, u64::MAX] {
            let m = BigUint::from_u64(v);
            let c = key.encrypt_value(&m).unwrap();
            assert_eq!(key.decrypt_value(&c).unwrap(), m);
        }
    }

    #[test]
    fn message_size_guard() {
        let key = test_key(64, 2);
        let too_big = key.modulus().clone();
        assert_eq!(key.encrypt_value(&too_big), Err(RsaError::MessageTooLarge));
    }

    #[test]
    fn bytes_roundtrip_fixed_width() {
        let key = test_key(256, 3);
        assert_eq!(key.ciphertext_len(), 32);
        for msg in [&b""[..], b"x", b"pointer:00042", &[0u8, 0, 0, 7]] {
            let ct = key.encrypt_bytes(msg).unwrap();
            assert_eq!(ct.len(), 32, "cryptograms are fixed width");
            assert!(deciphers_to(&key, &ct, msg), "{msg:?}");
        }
    }

    #[test]
    fn bytes_with_leading_zeros_survive() {
        let key = test_key(128, 4);
        let msg = [0u8, 0, 0, 0, 1, 2];
        let ct = key.encrypt_bytes(&msg).unwrap();
        assert!(deciphers_to(&key, &ct, &msg));
    }

    #[test]
    fn oversize_plaintext_rejected() {
        let key = test_key(64, 5);
        let msg = vec![1u8; key.max_plaintext_len()];
        assert_eq!(key.encrypt_bytes(&msg), Err(RsaError::MessageTooLarge));
    }

    #[test]
    fn deterministic_textbook_property() {
        // Textbook RSA is deterministic — the paper leans on the secrecy of
        // all parameters instead of randomised padding. Documented behaviour.
        let key = test_key(128, 7);
        let a = key.encrypt_bytes(b"same").unwrap();
        let b = key.encrypt_bytes(b"same").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_keys_produce_distinct_cryptograms() {
        let k1 = test_key(128, 8);
        let k2 = test_key(128, 9);
        let c1 = k1.encrypt_bytes(b"ptr").unwrap();
        let c2 = k2.encrypt_bytes(b"ptr").unwrap();
        assert_ne!(c1, c2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_roundtrip_256(data in proptest::collection::vec(any::<u8>(), 0..30)) {
            let key = test_key(256, 42);
            let ct = key.encrypt_bytes(&data).unwrap();
            prop_assert!(deciphers_to(&key, &ct, &data));
        }
    }
}
