//! Zeroing plaintext before its memory is freed.
//!
//! The opponent reads the medium, not RAM, but freed heap is re-used and
//! can be swapped or dumped; every buffer that held decoded keys, pointers
//! or record bytes is wiped here on its way out. The stores are volatile
//! so the compiler cannot drop a write to memory that is about to die.

/// Zeroes a buffer of integer words (`u64` keys and record pointers, `u32`
/// block numbers) that held plaintext.
pub fn words<T: Copy + Default>(buf: &mut [T]) {
    for x in buf.iter_mut() {
        // SAFETY: `x` comes from iterating an exclusive slice borrow, so it
        // is valid for writes, aligned and aliased by nothing; `T: Copy`
        // has no destructor for the overwrite to skip.
        unsafe { std::ptr::write_volatile(x, T::default()) };
    }
}

/// Zeroes a byte buffer that held plaintext.
pub fn bytes(buf: &mut [u8]) {
    words(buf);
}

#[cfg(test)]
mod tests {
    #[test]
    fn buffers_read_zero_afterwards() {
        let mut b = vec![0xA5u8; 33];
        super::bytes(&mut b);
        assert!(b.iter().all(|&x| x == 0));
        let mut w = vec![u64::MAX; 5];
        super::words(&mut w);
        assert!(w.iter().all(|&x| x == 0));
    }
}
