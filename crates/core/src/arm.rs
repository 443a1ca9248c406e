//! Tuning arms: the persistence-placement variants a structure can be
//! instantiated with.
//!
//! Every structure takes a `const ARM: u8` parameter selecting how persist
//! instructions are placed. Arms are **cumulative** — each level keeps
//! everything below it:
//!
//! | arm | name | adds |
//! |-----|------|------|
//! | [`PAPER`] | `Isb`     | the paper's per-CAS `pwb` + per-phase `psync` placement |
//! | [`TUNED`] | `Isb-Opt` | batched tag-loop flushes, merged barriers |
//! | [`LP`]    | `Isb-LP`  | per-op cache-line dedupe via [`nvm::coalesce`]; the `RD_q`/`CP_q` line is reset whole by the invocation glue's one barrier and written once more, `CP_q := 1` with `RD_q := opInfo`, by the first publish; an operation that finds nothing to change takes no descriptor and publishes nothing. Link-persist: cleanup write-backs elided (re-swept by scrub / lazy helping); for link ops (the enqueue, whose descriptor carries the `LINK` bit) the tag-phase `psync` merged into the update-phase `psync`; the queue's tail hint never written back (`heal_tail` and `find_last` re-derive it). The one arm of a mapped structure: every [`crate::store::Store`] entry, and so the KV service (`kvserve::server::ARM`), is placed, replayed and scrubbed at it |
//!
//! Level `2` was `Isb-Coal`, the coalescing glue without the link-persist
//! elisions. It was retired once `Isb-LP` shipped; its measurements are the
//! committed `bench_results/BENCH_2026-08-08_fig12.json` and
//! `BENCH_2026-10-04_lp-shipped.json`. A structure cannot be built at it:
//!
//! ```
//! let map = isb::hashmap::RHashMap::<nvm::CountingNvm, { isb::arm::LP }>::with_shards(8);
//! # drop(map);
//! ```
//!
//! ```compile_fail
//! let map = isb::hashmap::RHashMap::<nvm::CountingNvm, 2>::with_shards(8);
//! # drop(map);
//! ```
//!
//! A catalog entry a build of that arm stamped is refused, typed and named
//! ([`crate::recovery::AttachError::CfgMismatch`]), as is one stamped with
//! arm `0` or `1`.
//!
//! The `u8` encoding (rather than a second `bool`) exists because stable
//! Rust cannot derive one const generic from another; call sites write the
//! level directly (`RQueue<M, { arm::LP }>` or simply `RQueue<M, 3>`).
//! Arms `0`/`1` are bit-for-bit the old `TUNED = false`/`true` placements.
//! They are kept as the paper's reproduction (figures, placement goldens,
//! the crash simulator's sweeps) and run in process only: a store places,
//! replays and scrubs at arm `3` alone. The soundness argument for arm `3`
//! is in `DESIGN.md` §12.

/// The paper's placement (`Isb`): `pwb` after every CAS, `psync` per phase.
pub const PAPER: u8 = 0;
/// Hand-tuned placement (`Isb-Opt`): batched tag flushes, merged barriers.
pub const TUNED: u8 = 1;
/// `Isb-LP`: TUNED plus the coalescing glue and the link-persist elisions
/// (see module docs).
pub const LP: u8 = 3;

/// The retired `Isb-Coal` level: still decoded in a catalog entry, never
/// placed.
pub(crate) const RETIRED: u8 = 2;

/// Does `arm` use the hand-tuned (batched) placement?
#[inline]
pub const fn is_tuned(arm: u8) -> bool {
    arm >= TUNED
}

/// Does `arm` route batched flushes through the coalescing line set and
/// apply the link-persist elisions?
#[inline]
pub const fn is_lp(arm: u8) -> bool {
    arm >= LP
}

/// Display name of the arm (benchmark legends, diagnostics).
pub const fn name(arm: u8) -> &'static str {
    match arm {
        PAPER => "Isb",
        TUNED => "Isb-Opt",
        _ => "Isb-LP",
    }
}

/// Fails the build unless `ARM` is a level this build places. Every armed
/// structure draws its node pool through [`crate::env::Env::pool`], which
/// calls this, so a structure built at the retired level is a compile error
/// rather than `Isb-Opt`'s placement running under arm 2's catalog stamp.
pub(crate) const fn placed<const ARM: u8>() {
    const {
        assert!(
            matches!(ARM, PAPER | TUNED | LP),
            "this build places arms 0, 1 and 3 (arm 2, Isb-Coal, is retired)"
        )
    }
}

use nvm::{PWord, Persist, PersistWords};

/// Arm-dispatched stand-alone flush: `Isb-LP` defers into the line set,
/// lower arms flush immediately. Monomorphises to one call either way.
#[inline]
pub(crate) fn pwb_arm<M: Persist, const ARM: u8>(w: &PWord<M>) {
    if is_lp(ARM) {
        M::pwb_coal(w);
    } else {
        M::pwb(w);
    }
}

/// Arm-dispatched whole-object flush (see [`pwb_arm`]).
#[inline]
pub(crate) fn pwb_obj_arm<M: Persist, T: PersistWords<M> + ?Sized, const ARM: u8>(obj: &T) {
    if is_lp(ARM) {
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

    /// The arm's display name — the retired level's too; an arm byte no
    /// build ever stamped, in hex.
    pub(crate) fn arm_name(self) -> String {
        match u8::try_from(self.arm()) {
            Ok(RETIRED) => "Isb-Coal".to_string(),
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
        assert!(!is_tuned(PAPER) && !is_lp(PAPER));
        assert!(is_tuned(TUNED) && !is_lp(TUNED));
        assert!(is_tuned(LP) && is_lp(LP));
        assert_eq!(name(PAPER), "Isb");
        assert_eq!(name(TUNED), "Isb-Opt");
        assert_eq!(name(LP), "Isb-LP");
        assert_eq!(CfgWord((RETIRED as u64) << 32).arm_name(), "Isb-Coal");
    }
}
