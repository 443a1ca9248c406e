//! Tagged info pointers.
//!
//! Each node's `info` field holds a pointer to the [`crate::engine::Info`]
//! structure of the last operation that affected the node, with a **tag** in
//! bit 0 (all Info structures are ≥8-aligned). A *tagged* pointer acts as a
//! soft lock on the node ("tagging a node acts like locking it", Section 3);
//! nodes tagged **for deletion** stay tagged forever and double as Harris
//! mark bits.

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

/// The raw pointer part of a (possibly tagged) info word.
#[inline]
pub fn ptr_of<T>(p: u64) -> *mut T {
    untagged(p) as *mut T
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
        assert!(ptr_of::<u8>(0).is_null());
        assert!(ptr_of::<u8>(tagged(0)).is_null(), "tagged null still points nowhere");
    }

    #[test]
    fn ptr_of_strips_tag_only() {
        let x = Box::into_raw(Box::new(7u64));
        let w = tagged(x as u64);
        assert_eq!(ptr_of::<u64>(w), x);
        assert_eq!(ptr_of::<u64>(x as u64), x);
        unsafe { drop(Box::from_raw(x)) };
    }
}
