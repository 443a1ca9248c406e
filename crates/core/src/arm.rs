//! Tuning arms: the persistence-placement variants a structure can be
//! instantiated with.
//!
//! Every structure takes a `const ARM: u8` parameter selecting how persist
//! instructions are placed. Arms are **cumulative** — each level keeps
//! everything below it:
//!
//! | arm | name | adds |
//! |-----|------|------|
//! | [`PAPER`]     | `Isb`      | the paper's per-CAS `pwb` + per-phase `psync` placement |
//! | [`TUNED`]     | `Isb-Opt`  | batched tag-loop flushes, merged barriers (PR 2) |
//! | [`COALESCED`] | `Isb-Coal` | per-op cache-line dedupe via [`nvm::coalesce`]; the `RD_q`/`CP_q` line is reset whole by the invocation glue's one barrier and written once more, `CP_q := 1` with `RD_q := opInfo`, by the first publish; an operation that finds nothing to change takes no descriptor and publishes nothing |
//! | [`LP`]        | `Isb-LP`   | link-persist: cleanup write-backs elided (re-swept by scrub / lazy helping); for single-affect ops (enqueue) the tag-phase `psync` merged into the update-phase `psync`; the queue's tail hint never written back (`heal_tail` and `find_last` re-derive it). The arm the KV service and `Store`-based workloads ship (`kvserve::server::ARM`) |
//!
//! The `u8` encoding (rather than a second `bool`) exists because stable
//! Rust cannot derive one const generic from another; call sites write the
//! level directly (`RQueue<M, { arm::LP }>` or simply `RQueue<M, 3>`).
//! Arms `0`/`1` are bit-for-bit the old `TUNED = false`/`true` placements —
//! including the mapped-heap config word, which stores the arm in the same
//! byte the bool used to occupy.
//!
//! Arms `0`–`2` are kept as the frozen reproductions (figures, placement
//! goldens); soundness arguments for arms `2` and `3` are in `DESIGN.md` §12.

/// The paper's placement (`Isb`): `pwb` after every CAS, `psync` per phase.
pub const PAPER: u8 = 0;
/// Hand-tuned placement (`Isb-Opt`): batched tag flushes, merged barriers.
pub const TUNED: u8 = 1;
/// `Isb-Coal`: TUNED plus per-operation cache-line flush coalescing.
pub const COALESCED: u8 = 2;
/// `Isb-LP`: COALESCED plus link-persist elisions (see module docs).
pub const LP: u8 = 3;

/// Does `arm` use the hand-tuned (batched) placement?
#[inline]
pub const fn is_tuned(arm: u8) -> bool {
    arm >= TUNED
}

/// Does `arm` route batched flushes through the coalescing line set?
#[inline]
pub const fn coalesces(arm: u8) -> bool {
    arm >= COALESCED
}

/// Does `arm` apply the link-persist elisions?
#[inline]
pub const fn is_lp(arm: u8) -> bool {
    arm >= LP
}

/// Display name of the arm (benchmark legends, diagnostics).
pub const fn name(arm: u8) -> &'static str {
    match arm {
        PAPER => "Isb",
        TUNED => "Isb-Opt",
        COALESCED => "Isb-Coal",
        _ => "Isb-LP",
    }
}

use nvm::{PWord, Persist, PersistWords};

/// Arm-dispatched stand-alone flush: coalescing arms defer into the line
/// set, lower arms flush immediately. Monomorphises to one call either way.
#[inline]
pub(crate) fn pwb_arm<M: Persist, const ARM: u8>(w: &PWord<M>) {
    if coalesces(ARM) {
        M::pwb_coal(w);
    } else {
        M::pwb(w);
    }
}

/// Arm-dispatched whole-object flush (see [`pwb_arm`]).
#[inline]
pub(crate) fn pwb_obj_arm<M: Persist, T: PersistWords<M> + ?Sized, const ARM: u8>(obj: &T) {
    if coalesces(ARM) {
        M::pwb_obj_coal(obj);
    } else {
        M::pwb_obj(obj);
    }
}

/// A structure's persisted configuration word
/// ([`crate::recovery::MappedLayout::cfg_word`]) as an operator reads it in
/// an error: every kind stores its arm in bits 32.., named here through
/// [`name`]; the low word is a shard count where it is one — a power of two
/// (the hash map's `validate_cfg`), which the fixed per-kind marker bytes of
/// the other kinds (`0x51`, `0x42`, `0x4C`, `0x53`) are not.
#[derive(Clone, Copy)]
pub(crate) struct CfgWord(pub(crate) u64);

impl CfgWord {
    pub(crate) fn arm(self) -> u64 {
        self.0 >> 32
    }

    pub(crate) fn low(self) -> u64 {
        self.0 & 0xFFFF_FFFF
    }

    pub(crate) fn shards(self) -> Option<u64> {
        self.low().is_power_of_two().then_some(self.low())
    }

    /// The arm's display name; an arm byte no build ever stamped, in hex.
    pub(crate) fn arm_name(self) -> String {
        match u8::try_from(self.arm()) {
            Ok(a) if a <= LP => name(a).to_string(),
            _ => format!("{:#x}", self.arm()),
        }
    }
}

impl std::fmt::Display for CfgWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arm {}", self.arm_name())?;
        match self.shards() {
            Some(n) => write!(f, " ({n} shards)"),
            None => Ok(()),
        }
    }
}

/// A structure-kind tag — a catalog entry's
/// ([`crate::recovery::MappedLayout::KIND`]) or a heap's superblock kind —
/// as an operator reads it in an error: its name beside the number.
#[derive(Clone, Copy)]
pub(crate) struct KindTag(pub(crate) u64);

impl KindTag {
    /// The kind's name; `None` for a tag no build ever stamped.
    pub(crate) fn name(self) -> Option<&'static str> {
        Some(match self.0 {
            crate::hashmap::KIND_MAP => "hashmap",
            crate::queue::KIND_QUEUE => "queue",
            crate::list::KIND_LIST => "list",
            crate::bst::KIND_BST => "bst",
            crate::stack::KIND_STACK => "stack",
            crate::store::KIND_STORE => "store",
            _ => return None,
        })
    }
}

impl std::fmt::Display for KindTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.name() {
            Some(name) => write!(f, "a {name} (kind {})", self.0),
            None => write!(f, "an unknown kind ({})", self.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        assert!(!is_tuned(PAPER) && !coalesces(PAPER) && !is_lp(PAPER));
        assert!(is_tuned(TUNED) && !coalesces(TUNED));
        assert!(is_tuned(COALESCED) && coalesces(COALESCED) && !is_lp(COALESCED));
        assert!(is_tuned(LP) && coalesces(LP) && is_lp(LP));
        assert_eq!(name(PAPER), "Isb");
        assert_eq!(name(TUNED), "Isb-Opt");
        assert_eq!(name(COALESCED), "Isb-Coal");
        assert_eq!(name(LP), "Isb-LP");
    }
}
