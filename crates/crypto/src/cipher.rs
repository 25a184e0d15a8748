//! Core cipher traits shared across the crate.

/// A 64-bit block cipher. DES and Speck64 implement this; the
/// Bayer–Metzger page scheme and all block modes are generic over it.
pub trait BlockCipher64 {
    fn encrypt_block(&self, block: u64) -> u64;
    fn decrypt_block(&self, block: u64) -> u64;

    /// Encrypts every block of `blocks` in place — the CTR keystream's
    /// unit of work, however many blocks it holds. The default is one
    /// [`Self::encrypt_block`] call per block; a cipher whose rounds can
    /// run several blocks side by side overrides it, and must write
    /// exactly what the default writes.
    fn encrypt_blocks(&self, blocks: &mut [u64]) {
        for b in blocks {
            *b = self.encrypt_block(*b);
        }
    }
}

/// Blanket impl so `&C` works wherever `C` does.
impl<C: BlockCipher64 + ?Sized> BlockCipher64 for &C {
    fn encrypt_block(&self, block: u64) -> u64 {
        (**self).encrypt_block(block)
    }

    fn decrypt_block(&self, block: u64) -> u64 {
        (**self).decrypt_block(block)
    }

    fn encrypt_blocks(&self, blocks: &mut [u64]) {
        (**self).encrypt_blocks(blocks)
    }
}

impl<C: BlockCipher64 + ?Sized> BlockCipher64 for Box<C> {
    fn encrypt_block(&self, block: u64) -> u64 {
        (**self).encrypt_block(block)
    }

    fn decrypt_block(&self, block: u64) -> u64 {
        (**self).decrypt_block(block)
    }

    fn encrypt_blocks(&self, blocks: &mut [u64]) {
        (**self).encrypt_blocks(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::Des;

    #[test]
    fn trait_objects_and_refs_work() {
        let des = Des::new(0x0123456789ABCDEF);
        let by_ref: &dyn BlockCipher64 = &des;
        let boxed: Box<dyn BlockCipher64> = Box::new(Des::new(0x0123456789ABCDEF));
        assert_eq!(by_ref.encrypt_block(5), boxed.encrypt_block(5));
        assert_eq!((&&des).encrypt_block(5), des.encrypt_block(5));
    }
}
