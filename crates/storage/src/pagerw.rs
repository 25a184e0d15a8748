//! Bounds-checked cursors for serialising structures into fixed-size pages.
//!
//! All on-disk integers are big-endian. Node codecs use these instead of raw
//! slice indexing so that layout bugs surface as typed errors, not panics.

/// Error from page serialisation/deserialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageOverflow {
    pub offset: usize,
    pub requested: usize,
    pub page_len: usize,
}

impl std::fmt::Display for PageOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "page access of {} bytes at offset {} exceeds page of {} bytes",
            self.requested, self.offset, self.page_len
        )
    }
}

impl std::error::Error for PageOverflow {}

/// Sequential writer over a page buffer.
#[derive(Debug)]
pub struct PageWriter<'a> {
    page: &'a mut [u8],
    pos: usize,
}

impl<'a> PageWriter<'a> {
    pub fn new(page: &'a mut [u8]) -> Self {
        PageWriter { page, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.page.len() - self.pos
    }

    #[inline]
    fn claim(&mut self, n: usize) -> Result<&mut [u8], PageOverflow> {
        if self.pos + n > self.page.len() {
            return Err(PageOverflow {
                offset: self.pos,
                requested: n,
                page_len: self.page.len(),
            });
        }
        let slice = &mut self.page[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) -> Result<(), PageOverflow> {
        self.claim(1)?[0] = v;
        Ok(())
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) -> Result<(), PageOverflow> {
        self.claim(2)?.copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) -> Result<(), PageOverflow> {
        self.claim(4)?.copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) -> Result<(), PageOverflow> {
        self.claim(8)?.copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) -> Result<(), PageOverflow> {
        self.claim(v.len())?.copy_from_slice(v);
        Ok(())
    }

    /// Zero-fills the rest of the page.
    pub fn pad_remaining(&mut self) {
        let pos = self.pos;
        self.page[pos..].fill(0);
        self.pos = self.page.len();
    }
}

/// Sequential reader over a page buffer.
#[derive(Debug)]
pub struct PageReader<'a> {
    page: &'a [u8],
    pos: usize,
}

impl<'a> PageReader<'a> {
    pub fn new(page: &'a [u8]) -> Self {
        PageReader { page, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.page.len() - self.pos
    }

    /// Repositions the cursor (for lazily probing fixed-offset layouts).
    #[inline]
    pub fn seek(&mut self, pos: usize) -> Result<(), PageOverflow> {
        if pos > self.page.len() {
            return Err(PageOverflow {
                offset: pos,
                requested: 0,
                page_len: self.page.len(),
            });
        }
        self.pos = pos;
        Ok(())
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], PageOverflow> {
        // `n` can come straight from medium bytes; the bound must hold
        // even when `pos + n` would overflow.
        if n > self.page.len().saturating_sub(self.pos) {
            return Err(PageOverflow {
                offset: self.pos,
                requested: n,
                page_len: self.page.len(),
            });
        }
        let slice = &self.page[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, PageOverflow> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, PageOverflow> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, PageOverflow> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, PageOverflow> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], PageOverflow> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_mixed_fields() {
        let mut page = vec![0u8; 64];
        {
            let mut w = PageWriter::new(&mut page);
            w.put_u8(0x01).unwrap();
            w.put_u16(0x0203).unwrap();
            w.put_u32(0x04050607).unwrap();
            w.put_u64(0x08090a0b0c0d0e0f).unwrap();
            w.put_bytes(b"hello").unwrap();
            w.pad_remaining();
            assert_eq!(w.remaining(), 0);
        }
        let mut r = PageReader::new(&page);
        assert_eq!(r.get_u8().unwrap(), 0x01);
        assert_eq!(r.get_u16().unwrap(), 0x0203);
        assert_eq!(r.get_u32().unwrap(), 0x04050607);
        assert_eq!(r.get_u64().unwrap(), 0x08090a0b0c0d0e0f);
        assert_eq!(r.get_bytes(5).unwrap(), b"hello");
        assert_eq!(r.get_u8().unwrap(), 0, "padding is zero");
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let mut page = vec![0u8; 4];
        let mut w = PageWriter::new(&mut page);
        w.put_u32(7).unwrap();
        let err = w.put_u8(1).unwrap_err();
        assert_eq!(err.offset, 4);
        let mut r = PageReader::new(&page);
        r.get_u32().unwrap();
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn seek_supports_fixed_offset_probing() {
        let mut page = vec![0u8; 32];
        {
            let mut w = PageWriter::new(&mut page);
            w.put_bytes(&[0; 16]).unwrap();
            w.put_u64(42).unwrap();
        }
        let mut r = PageReader::new(&page);
        r.seek(16).unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);
        assert!(r.seek(33).is_err());
        r.seek(32).unwrap(); // end is a valid position
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn big_endian_on_disk() {
        let mut page = vec![0u8; 8];
        PageWriter::new(&mut page)
            .put_u64(0x0102030405060708)
            .unwrap();
        assert_eq!(page, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..8)) {
            let mut page = vec![0u8; 64];
            {
                let mut w = PageWriter::new(&mut page);
                for &v in &vals {
                    w.put_u64(v).unwrap();
                }
            }
            let mut r = PageReader::new(&page);
            for &v in &vals {
                prop_assert_eq!(r.get_u64().unwrap(), v);
            }
        }
    }
}
