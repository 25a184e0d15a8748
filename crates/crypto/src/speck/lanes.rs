//! Speck64's wide keystream kernel and the run-time choice of its width:
//! the crate's one module allowed `unsafe`.
//!
//! One generic kernel runs `L` blocks through the rounds side by side. It
//! is plain safe Rust with no intrinsics, instantiated three times: at 4
//! lanes for any target, and on x86-64 at 16 lanes under `avx2` and at 32
//! under `avx512f,avx512vl`, where the compiler packs the lanes into 256-
//! and 512-bit registers. A ragged tail is padded up to one whole vector,
//! so every call runs the kernel at its own width only.
//!
//! A `#[target_feature]` function may be called without `unsafe` only
//! from code compiled with the same features. The crate is compiled for
//! the baseline target, so the two wide kernels are reached through one
//! `unsafe` call each, taken only for a kernel `is_x86_feature_detected!`
//! found on the running processor. No build flag, Cargo feature or
//! setting is involved; other targets compile only the portable kernel.

#![allow(unsafe_code)]

use super::{round_enc, ROUNDS};

type RoundKeys = [u32; ROUNDS];

/// A width of the lane kernel, narrowest first. (Other targets only ever
/// run the portable one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(super) enum Kernel {
    /// 4 lanes, plain Rust on any target.
    Portable,
    /// 16 lanes under AVX2.
    Avx2,
    /// 32 lanes under AVX-512 (foundation and vector-length extensions).
    Avx512,
}

/// The widest kernel this processor runs (the standard library caches
/// what it detects, so a call costs a few loads).
fn widest() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            return Kernel::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
    }
    Kernel::Portable
}

/// Encrypts `blocks` in place with the widest kernel this processor runs.
pub(super) fn encrypt_blocks(keys: &RoundKeys, blocks: &mut [u64]) {
    with_kernel(Kernel::Avx512, keys, blocks);
}

/// Encrypts `blocks` in place with `kernel`, or with the widest narrower
/// one when this processor lacks its features, and returns the kernel that
/// ran.
pub(super) fn with_kernel(kernel: Kernel, keys: &RoundKeys, blocks: &mut [u64]) -> Kernel {
    let kernel = kernel.min(widest());
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `avx512` needs avx512f and avx512vl, and `kernel` is at
        // most what `widest` detected on this processor.
        Kernel::Avx512 => unsafe { avx512(keys, blocks) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `avx2` needs avx2, and `kernel` is at most what
        // `widest` detected on this processor.
        Kernel::Avx2 => unsafe { avx2(keys, blocks) },
        _ => kernel_of::<4>(keys, blocks),
    }
    kernel
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2(keys: &RoundKeys, blocks: &mut [u64]) {
    kernel_of::<16>(keys, blocks);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn avx512(keys: &RoundKeys, blocks: &mut [u64]) {
    kernel_of::<32>(keys, blocks);
}

/// The kernel at `L` lanes: whole vectors, then the tail padded to one.
#[inline(always)]
fn kernel_of<const L: usize>(keys: &RoundKeys, blocks: &mut [u64]) {
    let mut vectors = blocks.chunks_exact_mut(L);
    for vector in &mut vectors {
        lanes::<L>(keys, vector.try_into().expect("a whole vector"));
    }
    let tail = vectors.into_remainder();
    if !tail.is_empty() {
        let mut padded = [0u64; L];
        padded[..tail.len()].copy_from_slice(tail);
        lanes(keys, &mut padded);
        tail.copy_from_slice(&padded[..tail.len()]);
    }
}

/// `L` blocks through every round side by side; lane `i` computes what
/// `encrypt_block(blocks[i])` computes.
#[inline(always)]
fn lanes<const L: usize>(keys: &RoundKeys, blocks: &mut [u64; L]) {
    let mut x = blocks.map(|b| (b >> 32) as u32);
    let mut y = blocks.map(|b| b as u32);
    for &k in keys {
        for (x, y) in x.iter_mut().zip(&mut y) {
            round_enc(x, y, k);
        }
    }
    for ((b, x), y) in blocks.iter_mut().zip(x).zip(y) {
        *b = ((x as u64) << 32) | y as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::BlockCipher64;
    use crate::speck::Speck64;

    /// Every kernel this processor runs equals `encrypt_block` for every
    /// length 0..=100 (whole vectors and every ragged tail), on counters
    /// that wrap past `u64::MAX`. The portable kernel always runs; a wide
    /// kernel the processor lacks is reported and skipped, never passed
    /// off as tested.
    #[test]
    fn every_detected_kernel_equals_encrypt_block() {
        let cipher = Speck64::from_u128(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        let mut ran = Vec::new();
        for kernel in [Kernel::Portable, Kernel::Avx2, Kernel::Avx512] {
            if with_kernel(kernel, &cipher.round_keys, &mut []) != kernel {
                println!("{kernel:?} kernel: not on this processor, skipped");
                continue;
            }
            for start in [0, u64::MAX - 40] {
                for len in 0..=100u64 {
                    let counters: Vec<u64> = (0..len).map(|i| start.wrapping_add(i)).collect();
                    let want: Vec<u64> =
                        counters.iter().map(|&c| cipher.encrypt_block(c)).collect();
                    let mut got = counters;
                    assert_eq!(with_kernel(kernel, &cipher.round_keys, &mut got), kernel);
                    assert_eq!(got, want, "{kernel:?}: start {start:#x}, {len} blocks");
                }
            }
            ran.push(kernel);
        }
        assert_eq!(ran.first(), Some(&Kernel::Portable));
        println!("kernels checked: {ran:?}");
    }
}
