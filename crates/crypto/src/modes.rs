//! Block-cipher modes of operation over [`BlockCipher64`]: CBC and CTR
//! with PKCS#7-style padding where applicable, and a CBC-MAC.
//!
//! Bayer & Metzger propose both block and progressive (stream) encipherment
//! of pages; our node codecs use CBC for whole-page encipherment (a block
//! mode with position dependence) and a single block per unit for the lazily
//! decrypted triplet scheme, and CTR stands in for their progressive cipher.
//!
//! CTR draws its keystream many counters at a time, in fixed stack chunks
//! through [`BlockCipher64::encrypt_blocks`], which a cipher such as
//! Speck64 runs as wide vector lanes. [`ctr_xor_each`] draws the counters
//! of several buffers in one such pass. The output is bit-identical to a
//! pass that enciphers one counter per block: only the order of the work
//! changes.

use crate::cipher::BlockCipher64;

/// Errors from mode-level decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModeError {
    /// Ciphertext length is not a whole number of blocks.
    RaggedCiphertext,
    /// Padding bytes are inconsistent (wrong key or corrupted data).
    BadPadding,
}

impl std::fmt::Display for ModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModeError::RaggedCiphertext => write!(f, "ciphertext is not block-aligned"),
            ModeError::BadPadding => write!(f, "invalid padding after decryption"),
        }
    }
}

impl std::error::Error for ModeError {}

const BLOCK: usize = 8;

/// PKCS#7 pad to a multiple of 8 bytes (always adds at least one byte).
pub fn pad(data: &[u8]) -> Vec<u8> {
    let pad_len = BLOCK - (data.len() % BLOCK);
    let mut out = Vec::with_capacity(data.len() + pad_len);
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(pad_len as u8, pad_len));
    out
}

/// Removes and validates PKCS#7 padding.
pub fn unpad(data: &[u8]) -> Result<Vec<u8>, ModeError> {
    if data.is_empty() || !data.len().is_multiple_of(BLOCK) {
        return Err(ModeError::RaggedCiphertext);
    }
    let pad_len = *data.last().unwrap() as usize;
    if pad_len == 0 || pad_len > BLOCK || pad_len > data.len() {
        return Err(ModeError::BadPadding);
    }
    let (body, padding) = data.split_at(data.len() - pad_len);
    if padding.iter().any(|&b| b as usize != pad_len) {
        return Err(ModeError::BadPadding);
    }
    Ok(body.to_vec())
}

fn blocks_of(data: &[u8]) -> impl Iterator<Item = u64> + '_ {
    data.chunks_exact(BLOCK)
        .map(|c| u64::from_be_bytes(c.try_into().expect("exact chunk")))
}

/// CBC encryption with PKCS#7 padding and an explicit 64-bit IV.
pub fn cbc_encrypt<C: BlockCipher64>(cipher: &C, iv: u64, plaintext: &[u8]) -> Vec<u8> {
    let padded = pad(plaintext);
    let mut out = Vec::with_capacity(padded.len());
    let mut prev = iv;
    for b in blocks_of(&padded) {
        let ct = cipher.encrypt_block(b ^ prev);
        out.extend_from_slice(&ct.to_be_bytes());
        prev = ct;
    }
    out
}

/// CBC decryption with padding validation.
pub fn cbc_decrypt<C: BlockCipher64>(
    cipher: &C,
    iv: u64,
    ciphertext: &[u8],
) -> Result<Vec<u8>, ModeError> {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK) {
        return Err(ModeError::RaggedCiphertext);
    }
    let mut out = Vec::with_capacity(ciphertext.len());
    let mut prev = iv;
    for b in blocks_of(ciphertext) {
        let pt = cipher.decrypt_block(b) ^ prev;
        out.extend_from_slice(&pt.to_be_bytes());
        prev = b;
    }
    unpad(&out)
}

/// CTR keystream XOR — encryption and decryption are the same operation; no
/// padding, output length equals input length. This is the "progressive
/// cipher" stand-in.
pub fn ctr_xor<C: BlockCipher64>(cipher: &C, nonce: u64, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    ctr_xor_in_place(cipher, nonce, &mut out);
    out
}

/// [`ctr_xor`] over a buffer the caller owns, for data too large to hold
/// twice (the plaintext is overwritten, so there is no copy left to wipe).
/// Counter `nonce + i` (wrapping) keys block `i`; see [`ctr_xor_each`].
pub fn ctr_xor_in_place<C: BlockCipher64>(cipher: &C, nonce: u64, data: &mut [u8]) {
    ctr_xor_each(cipher, [(nonce, data)]);
}

/// Counters drawn per [`BlockCipher64::encrypt_blocks`] call: a 256-byte
/// stack buffer, a whole number of vectors for every Speck64 kernel. (64
/// measured slower: setting up and wiping the larger buffers costs more
/// than the extra calls save, most on the one-block and 100-byte calls a
/// point read makes.)
const CHUNK: usize = 32;

/// CTR over several buffers in one keystream pass, each buffer under its
/// own first counter: block `i` of a buffer given `nonce` is XORed with
/// `E(nonce + i)` (wrapping), the bytes [`ctr_xor_in_place`] would give it
/// alone. The counters of consecutive buffers share each stack chunk, so
/// many short buffers (the records of one data block) cost one wide pass
/// rather than a ragged pass each. Each chunk of keystream is wiped from
/// the stack once used.
pub fn ctr_xor_each<'a, C: BlockCipher64>(
    cipher: &C,
    buffers: impl IntoIterator<Item = (u64, &'a mut [u8])>,
) {
    let mut keystream = [0u64; CHUNK];
    // The pieces of buffers whose counters fill `keystream[..drawn]`, in
    // order: each whole blocks but for a buffer's short last one.
    let mut pieces: [&mut [u8]; CHUNK] = std::array::from_fn(|_| Default::default());
    let (mut drawn, mut held) = (0, 0);
    for (nonce, mut data) in buffers {
        let mut counter = nonce;
        while !data.is_empty() {
            let blocks = data.len().div_ceil(BLOCK).min(CHUNK - drawn);
            let (piece, rest) = data.split_at_mut((blocks * BLOCK).min(data.len()));
            for (i, slot) in (0u64..).zip(&mut keystream[drawn..drawn + blocks]) {
                *slot = counter.wrapping_add(i);
            }
            pieces[held] = piece;
            (drawn, held, data) = (drawn + blocks, held + 1, rest);
            counter = counter.wrapping_add(blocks as u64);
            if drawn == CHUNK {
                xor_chunk(cipher, &mut keystream, &mut pieces[..held]);
                (drawn, held) = (0, 0);
            }
        }
    }
    xor_chunk(cipher, &mut keystream[..drawn], &mut pieces[..held]);
}

/// Enciphers a chunk's counters into keystream, XORs it over the pieces
/// they were drawn for, in order, and wipes it.
fn xor_chunk<C: BlockCipher64>(cipher: &C, keystream: &mut [u64], pieces: &mut [&mut [u8]]) {
    cipher.encrypt_blocks(keystream);
    let mut at = 0;
    for piece in pieces {
        let blocks = piece.len().div_ceil(BLOCK);
        for (block, k) in piece.chunks_mut(BLOCK).zip(&keystream[at..at + blocks]) {
            xor_block(block, *k);
        }
        at += blocks;
    }
    keystream.fill(0);
    std::hint::black_box(keystream);
}

/// XORs one cipher block of data (the last of a buffer may be short) with
/// the big-endian bytes of its keystream word.
fn xor_block(block: &mut [u8], k: u64) {
    match <&mut [u8; BLOCK]>::try_from(&mut *block) {
        Ok(whole) => *whole = (u64::from_be_bytes(*whole) ^ k).to_be_bytes(),
        Err(_) => {
            for (b, k) in block.iter_mut().zip(k.to_be_bytes()) {
                *b ^= k;
            }
        }
    }
}

/// CBC-MAC over the data with a zero IV — Denning-style cryptographic
/// checksum used by the high-level security filter (§4.3 / ref. 2).
pub fn cbc_mac<C: BlockCipher64>(cipher: &C, data: &[u8]) -> u64 {
    let padded = pad(data);
    let mut mac = 0u64;
    for b in blocks_of(&padded) {
        mac = cipher.encrypt_block(b ^ mac);
    }
    mac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::Des;
    use crate::speck::Speck64;
    use proptest::prelude::*;

    fn des() -> Des {
        Des::new(0x133457799BBCDFF1)
    }

    #[test]
    fn pad_unpad_roundtrip_all_lengths() {
        for len in 0..64 {
            let data: Vec<u8> = (0..len as u8).collect();
            assert_eq!(unpad(&pad(&data)).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn unpad_rejects_garbage() {
        assert_eq!(unpad(&[]), Err(ModeError::RaggedCiphertext));
        assert_eq!(unpad(&[1, 2, 3]), Err(ModeError::RaggedCiphertext));
        assert_eq!(unpad(&[0; 8]), Err(ModeError::BadPadding)); // pad byte 0
        let mut bad = pad(b"hello");
        bad[7] = 9; // pad length > block
        assert_eq!(unpad(&bad), Err(ModeError::BadPadding));
        let mut inconsistent = pad(b"hello");
        inconsistent[5] = 0xAA; // pad bytes disagree
        assert_eq!(unpad(&inconsistent), Err(ModeError::BadPadding));
    }

    #[test]
    fn cbc_hides_equal_blocks() {
        let c = des();
        let data = [0x42u8; 32]; // four identical blocks
        let cbc = cbc_encrypt(&c, 0xdeadbeef, &data);
        assert_ne!(cbc[0..8], cbc[8..16], "CBC hides repetition");
    }

    #[test]
    fn cbc_iv_changes_ciphertext() {
        let c = des();
        let a = cbc_encrypt(&c, 1, b"same plaintext");
        let b = cbc_encrypt(&c, 2, b"same plaintext");
        assert_ne!(a, b);
        assert_eq!(cbc_decrypt(&c, 1, &a).unwrap(), b"same plaintext");
        assert_eq!(cbc_decrypt(&c, 2, &b).unwrap(), b"same plaintext");
    }

    #[test]
    fn decrypt_with_wrong_key_fails_or_garbles() {
        let a = des();
        let b = Des::new(0x0123456789ABCDEF);
        let ct = cbc_encrypt(&a, 7, b"a secret record payload");
        match cbc_decrypt(&b, 7, &ct) {
            Err(_) => {}                                          // padding caught it
            Ok(pt) => assert_ne!(pt, b"a secret record payload"), // or it garbled
        }
    }

    #[test]
    fn ctr_is_length_preserving_and_involutive() {
        let c = des();
        let data = b"stream of thirteen"; // 18 bytes, not block aligned
        let ct = ctr_xor(&c, 99, data);
        assert_eq!(ct.len(), data.len());
        assert_eq!(ctr_xor(&c, 99, &ct), data);
        assert_ne!(ctr_xor(&c, 100, &ct), data); // nonce matters
        let mut in_place = data.to_vec();
        ctr_xor_in_place(&c, 99, &mut in_place);
        assert_eq!(in_place, ct);
    }

    #[test]
    fn cbc_mac_detects_tampering() {
        let c = des();
        let mac = cbc_mac(&c, b"employee=17;salary=90000");
        assert_ne!(mac, cbc_mac(&c, b"employee=17;salary=90001"));
        assert_ne!(
            mac,
            cbc_mac(&Des::new(0x1111111111111111), b"employee=17;salary=90000")
        );
        // Deterministic.
        assert_eq!(mac, cbc_mac(&c, b"employee=17;salary=90000"));
    }

    /// The keystream one counter per block, as CTR is defined: the oracle
    /// the chunked keystream must reproduce byte for byte.
    fn ctr_reference<C: BlockCipher64>(cipher: &C, nonce: u64, data: &[u8]) -> Vec<u8> {
        data.chunks(BLOCK)
            .enumerate()
            .flat_map(|(i, chunk)| {
                let ks = cipher.encrypt_block(nonce.wrapping_add(i as u64));
                chunk
                    .iter()
                    .zip(ks.to_be_bytes())
                    .map(|(b, k)| b ^ k)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Every length from empty to 25 blocks, at nonces where the counter
    /// wraps inside a lane group (`u64::MAX - 2`), for an overriding
    /// cipher, the default lanes and a trait object.
    #[test]
    fn ctr_keystream_equals_one_counter_per_block() {
        let speck = Speck64::from_u128(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        let des = des();
        let dynamic: &dyn BlockCipher64 = &speck;
        let data: Vec<u8> = (0..=200u8).map(|b| b.wrapping_mul(37)).collect();
        for nonce in [0, 1, u64::MAX - 2] {
            for len in 0..=200 {
                let plain = &data[..len];
                let check = |name: &str, got: Vec<u8>, want: Vec<u8>| {
                    assert_eq!(got, want, "{name}: nonce {nonce:#x}, {len} bytes");
                };
                check(
                    "speck",
                    ctr_xor(&speck, nonce, plain),
                    ctr_reference(&speck, nonce, plain),
                );
                check(
                    "des",
                    ctr_xor(&des, nonce, plain),
                    ctr_reference(&des, nonce, plain),
                );
                check(
                    "dyn",
                    ctr_xor(&dynamic, nonce, plain),
                    ctr_reference(&speck, nonce, plain),
                );
            }
        }
    }

    /// One pass over many buffers gives each buffer the bytes a pass of
    /// its own gives it: empty, short, ragged and multi-chunk buffers, and
    /// first counters that wrap, whatever chunk boundaries they straddle.
    #[test]
    fn ctr_xor_each_equals_each_buffer_alone() {
        let speck = Speck64::from_u128(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        let lens = [0usize, 1, 8, 9, 100, 108, 513, 7, 0, 16, 600, 3];
        for shift in 0..lens.len() {
            let nonces: Vec<u64> = (0..lens.len() as u64)
                .map(|i| (i << 13).wrapping_sub(shift as u64 * 3))
                .collect();
            let plain: Vec<Vec<u8>> = (0..lens.len())
                .map(|i| {
                    let len = lens[(i + shift) % lens.len()];
                    (0..len).map(|b| (b * 31 + i) as u8).collect()
                })
                .collect();
            let mut together = plain.clone();
            ctr_xor_each(
                &speck,
                nonces
                    .iter()
                    .zip(&mut together)
                    .map(|(&n, b)| (n, &mut b[..])),
            );
            for ((n, p), got) in nonces.iter().zip(&plain).zip(&together) {
                assert_eq!(got, &ctr_reference(&speck, *n, p), "shift {shift}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_cbc_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256), key in any::<u128>(), iv in any::<u64>()) {
            let c = Speck64::from_u128(key);
            prop_assert_eq!(cbc_decrypt(&c, iv, &cbc_encrypt(&c, iv, &data)).unwrap(), data);
        }

        #[test]
        fn prop_ctr_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256), key in any::<u64>(), nonce in any::<u64>()) {
            let c = Des::new(key);
            prop_assert_eq!(ctr_xor(&c, nonce, &ctr_xor(&c, nonce, &data)), data);
        }
    }
}
