//! Link words: tagged descriptor references and heap offsets.
//!
//! Each node's `info` field holds a reference to the [`crate::engine::Info`]
//! structure of the last operation that affected the node, with a **tag** in
//! bit 0 (all Info structures are 64-aligned). A *tagged* reference acts as a
//! soft lock on the node ("tagging a node acts like locking it", Section 3);
//! nodes tagged **for deletion** stay tagged forever and double as Harris
//! mark bits.
//!
//! Every durable link word — a node's links and `info`, a root word, `RD_q`,
//! an Info's cells and the values it expects and installs — is an **offset
//! from the base** of the memory the structure lives in, and [`Base`] is the
//! one codec between such a word and a pointer. Under the mapped backend the
//! base is where the heap is mapped, so a word means the same thing at every
//! attach; the in-process models run at [`Base`]`(0)`, where an offset is the
//! address. Offset 0 is null (page 0 of a heap is its superblock, which
//! holds no object). User keys and values are never links.

/// Tag bit.
pub const TAG: u64 = 1;

/// Returns a tagged version of `p` without changing the referent.
#[inline]
pub const fn tagged(p: u64) -> u64 {
    p | TAG
}

/// Returns an untagged version of `p` without changing the referent.
#[inline]
pub const fn untagged(p: u64) -> u64 {
    p & !TAG
}

/// Whether `p` is tagged (the node is soft-locked).
#[inline]
pub const fn is_tagged(p: u64) -> bool {
    p & TAG == TAG
}

/// The address link words are offsets from (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct Base(pub usize);

impl Base {
    /// The object a (possibly tagged) link word names; null for offset 0.
    #[inline]
    pub fn at<T>(self, word: u64) -> *mut T {
        let off = untagged(word) as usize;
        // Branch-free: the base is added only to a non-null offset.
        (self.0 & 0usize.wrapping_sub((off != 0) as usize)).wrapping_add(off) as *mut T
    }

    /// The link word naming `p`; 0 for null.
    #[inline]
    pub fn word<T>(self, p: *const T) -> u64 {
        let a = p as usize;
        a.wrapping_sub(self.0 & 0usize.wrapping_sub((a != 0) as usize)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        let p = 0x1000u64;
        assert!(!is_tagged(p));
        let t = tagged(p);
        assert!(is_tagged(t));
        assert_eq!(untagged(t), p);
        assert_eq!(tagged(t), t, "tagging is idempotent");
        assert_eq!(untagged(untagged(t)), p);
    }

    #[test]
    fn null_is_untagged() {
        assert!(!is_tagged(0));
        for b in [Base(0), Base(0x7f00_0000_0000)] {
            assert!(b.at::<u8>(0).is_null());
            assert!(b.at::<u8>(tagged(0)).is_null(), "tagged null still points nowhere");
            assert_eq!(b.word::<u8>(std::ptr::null()), 0);
        }
    }

    #[test]
    fn a_word_names_the_same_object_at_every_base() {
        let x = Box::into_raw(Box::new(7u64));
        let w = tagged(Base(0).word(x));
        assert_eq!(Base(0).at::<u64>(w), x, "at base 0 an offset is the address");
        // The same word read through a mapping 64 KiB lower.
        let low = Base(x as usize - 0x1_0000);
        let off = low.word(x);
        assert_eq!(off, 0x1_0000);
        assert_eq!(low.at::<u64>(tagged(off)), x, "the tag is stripped");
        assert_eq!(Base(0x5000).at::<u64>(off) as usize, 0x5000 + 0x1_0000);
        unsafe { drop(Box::from_raw(x)) };
    }
}
