//! Multi-structure persistent store: one [`MappedHeap`], many **named**
//! detectably recoverable structures. A mapped structure lives nowhere
//! else: each one is an entry of a store's catalog.
//!
//! Real persistent-memory pools (memento's typed pool roots, PAPERS.md) host
//! *several* root objects per pool; this module is that shape for the ISB
//! stack:
//!
//! * a **catalog** root block maps names to `(kind, cfg, root block)`
//!   entries ([`nvm::mapped::CatalogEntry`]; entry creation stamps the kind
//!   word last, so a torn creation leaves an empty slot plus an orphaned —
//!   and swept — root block, never a half-valid entry);
//! * **one shared recovery area** serves every structure: the tracking
//!   model allows a single pending operation per process, regardless of
//!   which structure it touches, so `RD_q`/`CP_q` are per-*process*, not
//!   per-structure (descriptor hand-over across structures routes through
//!   one shared Info pool);
//! * attach-time recovery is one generic driver over every entry
//!   ([`crate::recovery::finish_attach`]): validation, one Op-Recover
//!   replay over the shared area, per-structure scrub, and a census/sweep
//!   computed over the **union** of every entry's live set;
//! * every structure is placed at `Isb-LP` ([`crate::arm::LP`]), and the
//!   replay, the scrub and online peer recovery help at it too. The paper's
//!   arms 0 / 1 run in process only; a catalog entry stamped with one is
//!   refused ([`AttachError::CfgMismatch`]).
//!
//! ```no_run
//! use isb::arm::LP;
//! use isb::store::Store;
//!
//! nvm::tid::set_tid(0);
//! let store = Store::open("/tmp/app.heap").unwrap();
//! let users = store.hashmap::<LP>("users", 8).unwrap();
//! let jobs = store.queue::<LP>("jobs").unwrap();
//! users.insert(0, 42);
//! jobs.enqueue(0, 7);
//! // After a kill, Store::open replays recovery for every structure and
//! // store.summary().decision(pid) resolves the in-flight operation.
//! ```

use crate::arm::LP;
use crate::bst::RBst;
use crate::hashmap::RHashMap;
use crate::list::RList;
use crate::queue::RQueue;
use crate::recovery::{
    finish_attach, recover_dead_pid_with, rootkeys, AttachEnv, AttachError, AttachSummary,
    MappedLayout, SlotOps,
};
use crate::resptable::ResponseTable;
use crate::stack::RStack;
use nvm::mapped::{
    CatalogEntry, LeaseOutcome, MapError, MappedHeap, MappedNvm, DEFAULT_HEAP_BYTES,
};
use reclaim::Collector;
use std::any::Any;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Superblock structure-kind tag of a multi-structure store heap.
pub const KIND_STORE: u64 = 6;

/// A constructed, type-erased catalog entry.
struct Entry {
    kind: u64,
    cfg: u64,
    handle: Arc<dyn Any + Send + Sync>,
}

/// One mapped heap hosting many named recoverable structures (see module
/// docs). Handles returned by the typed accessors are `Arc`s that keep the
/// heap alive independently of the `Store`.
pub struct Store {
    /// What every handle is built in — the heap, the shared recovery area,
    /// the heap-wide Info pool and (shared heaps) the epoch region — and the
    /// store's own [`crate::env::Env`] in it, which peer recovery runs on.
    env: AttachEnv,
    catalog: *mut u8,
    entries: Mutex<HashMap<String, Entry>>,
    summary: AttachSummary,
    /// The KV-service response table hosted by this heap (always present;
    /// ~16 KiB). Validated/healed by the single-owner attach, left
    /// untouched by joiners.
    resptab: ResponseTable,
}

// SAFETY: the raw pointers are into the heap mapping, which `env.heap` keeps
// alive; all mutation goes through the entries mutex or the (internally
// synchronized) catalog/allocator.
unsafe impl Send for Store {}
unsafe impl Sync for Store {}

/// The catalog block and every cataloged entry, constructed.
type Cataloged = (*mut u8, Vec<CatalogEntry>, Vec<Box<dyn SlotOps>>);

impl Store {
    /// Opens (or creates, at [`DEFAULT_HEAP_BYTES`]) the store heap at
    /// `path`, constructing every cataloged structure and running the full
    /// generic restart-recovery sequence over the union of them. The
    /// calling thread must be registered ([`nvm::tid::set_tid`]); one
    /// process attaches a heap at a time.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, AttachError> {
        Self::open_sized(path, DEFAULT_HEAP_BYTES)
    }

    /// [`Store::open`] with an explicit heap size for creation (ignored
    /// when the heap already exists).
    pub fn open_sized(path: impl AsRef<Path>, heap_bytes: usize) -> Result<Self, AttachError> {
        let heap = MappedHeap::open(path.as_ref(), heap_bytes)?;
        Self::attach_heap(heap)
    }

    /// Opens the store heap at `path` for **shared multi-process** use
    /// (at [`DEFAULT_HEAP_BYTES`] on creation): up to
    /// [`nvm::mapped::PART_SLOTS`] processes attach the same heap
    /// concurrently. The *initial* attacher (file absent, or no live
    /// participant registered) runs the full restart-recovery sequence
    /// under the heap file's attach lock before admitting joiners; a
    /// *joiner* adopts the already-recovered image without replaying.
    ///
    /// Every thread of a shared-mode process must register a tid inside the
    /// process's participant band ([`MappedHeap::tid_band`] of
    /// [`MappedHeap::my_participant`]) so recovery slots, epoch announce
    /// words and allocator caches stay per-process disjoint.
    pub fn open_shared(path: impl AsRef<Path>) -> Result<Self, AttachError> {
        Self::open_shared_sized(path, DEFAULT_HEAP_BYTES)
    }

    /// [`Store::open_shared`] with an explicit creation size.
    pub fn open_shared_sized(
        path: impl AsRef<Path>,
        heap_bytes: usize,
    ) -> Result<Self, AttachError> {
        Self::open_shared_with(path, heap_bytes, nvm::liveness::default_probe())
    }

    /// [`Store::open_shared`] with an injected pid-liveness probe (tests
    /// drive "falsely dead" / pid-reuse verdicts through this).
    pub fn open_shared_with(
        path: impl AsRef<Path>,
        heap_bytes: usize,
        live: Arc<dyn nvm::liveness::PidLiveness>,
    ) -> Result<Self, AttachError> {
        let heap = MappedHeap::open_shared_with(path.as_ref(), heap_bytes, live)?;
        if heap.report().joined {
            return Self::join_shared(heap);
        }
        // Initial attacher: full recovery runs while the attach flock is
        // still held, so joiners only ever see a recovered, serviceable
        // image. Release it even when recovery fails — a wedged lock would
        // otherwise block every future open until this process exits.
        let store = Self::attach_heap(Arc::clone(&heap));
        heap.release_attach_lock();
        store
    }

    /// The catalog block and every existing entry constructed
    /// (kind-dispatched), so recovery can run over the complete structure
    /// set. A root in a segment a peer grew after this process mapped the
    /// heap needs no step of its own: the heap adopts segments when it is
    /// asked about an address past the ones it knows.
    fn open_catalog(env: &AttachEnv) -> Result<Cataloged, AttachError> {
        let catalog = env.heap.catalog_root(rootkeys::CATALOG)?;
        // SAFETY: `catalog` is this heap's committed catalog block.
        let metas = unsafe { env.heap.catalog_entries(catalog) }?;
        let slots = metas.iter().map(|e| construct_entry(env, e)).collect::<Result<_, _>>()?;
        Ok((catalog, metas, slots))
    }

    /// The common single-owner attach body: construct every cataloged
    /// entry, then (unless fresh) run the full recovery sequence. Works for
    /// exclusive heaps and for the shared-mode *initial* attacher (which at
    /// this point is the sole live participant, serialized by the attach
    /// flock).
    fn attach_heap(heap: Arc<MappedHeap>) -> Result<Self, AttachError> {
        let (env, fresh) = AttachEnv::open(Arc::clone(&heap))?;
        // The KV response table rides every store heap: allocate (or
        // re-open) and validate/heal it here, where access is exclusive
        // (attach flock held / exclusive heap). In-flight op-IDs are
        // resolved below, once the replay decisions exist.
        let (resptab, _heal) = ResponseTable::attach_excl(&heap)?;
        let (catalog, metas, mut slots) = Self::open_catalog(&env)?;
        let mut summary = AttachSummary::of(&heap);
        if fresh {
            heap.set_kind(KIND_STORE);
        } else {
            let resptab_root = heap.root_get(rootkeys::RESPTAB).expect("attach_excl registered it");
            let mut extra_live = vec![catalog as usize, resptab_root as usize];
            extra_live.extend(metas.iter().map(|e| e.root as usize));
            // SAFETY: quiescent attach (no structure operation runs); the
            // driver may fan validation/census out over attach-scoped worker
            // threads per structure work unit. `slots` covers every
            // structure in the heap (the complete catalog), `extra_live`
            // every root/metadata block.
            (summary.recovered, summary.swept) =
                unsafe { finish_attach(&env, &mut slots, &extra_live)? };
        }
        // Resolve every in-flight op-ID against the replay's per-pid
        // decisions: Completed finalizes the response into the client's
        // slot, Restart clears its `pending` word so the retry re-applies.
        // Idempotent — a crash mid-resolution leaves the rec slots intact
        // (the attach replay never clears them), so the next attach
        // recomputes the same decisions and resumes.
        let resolved = (0..nvm::MAX_PROCS)
            .filter(|&pid| resptab.resolve(pid, summary.decision(pid)).is_some())
            .count() as u64;
        if resolved > 0 {
            nvm::stats::count_kv_intents_resolved(resolved);
        }
        Ok(Self::assemble(env, (catalog, metas, slots), summary, resptab))
    }

    /// A joiner's attach: the heap is live and already recovered (the
    /// initial attacher held the attach lock through recovery), so this
    /// builds per-process volatile state only — no replay, no scrub, no
    /// sweep — and adopts every cataloged structure.
    fn join_shared(heap: Arc<MappedHeap>) -> Result<Self, AttachError> {
        let (env, _) = AttachEnv::open(Arc::clone(&heap))?;
        // Joiners adopt the response table as-is: the initial attacher
        // validated/healed it, and live peers are mid-write in their slots.
        let resptab = ResponseTable::open(&heap)?;
        // Under the lock `Store::get` creates entries under: a peer may be
        // between stamping an entry and installing its roots, and a joiner
        // that opened it then would install roots of its own — and run on a
        // private structure the catalog no longer names.
        let cataloged = heap.with_file_lock(|| Self::open_catalog(&env))??;
        Ok(Self::assemble(env, cataloged, AttachSummary::of(&heap), resptab))
    }

    fn assemble(
        env: AttachEnv,
        (catalog, metas, slots): Cataloged,
        summary: AttachSummary,
        resptab: ResponseTable,
    ) -> Self {
        let entries = metas
            .into_iter()
            .zip(slots)
            .map(|(e, s)| {
                let handle: Box<dyn Any + Send + Sync> = s;
                (e.name, Entry { kind: e.kind, cfg: e.cfg, handle: Arc::from(handle) })
            })
            .collect();
        Self { env, catalog, entries: Mutex::new(entries), summary, resptab }
    }

    /// What this attach found and did: the heap-level report, the per-pid
    /// recovery decisions of the shared replay (spanning every structure),
    /// and the union sweep count.
    pub fn summary(&self) -> &AttachSummary {
        &self.summary
    }

    /// The persistent heap backing this store.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        &self.env.heap
    }

    /// The KV-service response table hosted by this heap. By the time the
    /// constructor returns, every in-flight op-ID left by a crash has been
    /// resolved against the replay decisions (single-owner attach) or was
    /// resolved by the initial attacher before this joiner could see the
    /// heap — the handle is ready for request traffic.
    pub fn response_table(&self) -> ResponseTable {
        self.resptab.clone()
    }

    /// Names, kinds and configuration words of every cataloged structure.
    pub fn entries(&self) -> Vec<(String, u64, u64)> {
        self.entries.lock().unwrap().iter().map(|(n, e)| (n.clone(), e.kind, e.cfg)).collect()
    }

    /// Opens (or creates) the named structure with layout `L`. Typed
    /// errors: [`AttachError::WrongKind`] when the name exists with a
    /// different kind, [`AttachError::CfgMismatch`] when it exists with a
    /// different configuration (shards/tuning).
    pub fn get<L: MappedLayout + Send + Sync>(
        &self,
        name: &str,
        cfg: L::Cfg,
    ) -> Result<Arc<L>, AttachError> {
        // Reject unusable arguments BEFORE anything durable happens: a bad
        // name/config must never reach the catalog, where it would be
        // permanent (and fail every future Store::open of this heap).
        if name.is_empty() || name.len() > nvm::mapped::CATALOG_NAME_BYTES {
            return Err(AttachError::InvalidName { name: name.to_string() });
        }
        L::validate_cfg(cfg)?;
        let mut entries = self.entries.lock().unwrap();
        let cfg_word = L::cfg_word(cfg);
        // An entry that exists must be what the caller asked for, whether it
        // is found in this handle's cache or, just created by a peer, in the
        // catalog.
        let check = |kind: u64, found_cfg: u64| {
            if kind != L::KIND {
                return Err(AttachError::WrongKind {
                    name: name.to_string(),
                    expected: L::KIND,
                    found: kind,
                });
            }
            if found_cfg != cfg_word {
                return Err(AttachError::CfgMismatch {
                    name: name.to_string(),
                    expected: cfg_word,
                    found: found_cfg,
                });
            }
            Ok(())
        };
        if let Some(e) = entries.get(name) {
            check(e.kind, e.cfg)?;
            return Ok(Arc::clone(&e.handle).downcast::<L>().expect("kind/cfg imply the type"));
        }
        let heap = &self.env.heap;
        let open_or_create = || -> Result<L, AttachError> {
            if heap.is_shared() {
                // A peer may have created this entry since our attach; the
                // caller holds the file lock, so what the catalog says now
                // is final.
                // SAFETY: committed catalog block.
                let cataloged = unsafe { heap.catalog_entries(self.catalog) }?;
                if let Some(e) = cataloged.into_iter().find(|e| e.name == name) {
                    check(e.kind, e.cfg)?;
                    return open_root(&self.env, cfg, &e);
                }
            }
            // New entry: root block + catalog record (kind word last), then
            // the structure's own idempotent root install. No recovery
            // needed — the entry cannot predate this attach.
            // SAFETY: committed catalog block; one writer (the attach owner,
            // or the file lock on a shared heap).
            let root = unsafe {
                heap.catalog_append(self.catalog, name, L::KIND, cfg_word, L::root_bytes(cfg))
            }?;
            // SAFETY: the root block `catalog_append` just committed, under
            // the creation serialization described below.
            unsafe { L::open(&self.env, cfg, root) }
        };
        // Shared heaps serialize creation (catalog append + root install)
        // and the re-scan before it under the cross-process file lock — so
        // two processes racing on one name produce exactly one entry, and
        // the loser adopts it fully installed.
        let s = Arc::new(if heap.is_shared() {
            heap.with_file_lock(open_or_create)??
        } else {
            open_or_create()?
        });
        entries.insert(
            name.to_string(),
            Entry {
                kind: L::KIND,
                cfg: cfg_word,
                handle: Arc::clone(&s) as Arc<dyn Any + Send + Sync>,
            },
        );
        Ok(s)
    }

    /// Typed handle: sharded hash map (`shards` must match on re-open).
    ///
    /// `ARM` can only be [`crate::arm::LP`], the one placement a mapped
    /// structure has (the module example builds at it); any other level
    /// fails to build. The parameter stays because the benchmark names
    /// `store.hashmap::<ARM>` (ROADMAP 0(e)).
    ///
    /// ```compile_fail
    /// let store = isb::store::Store::open("/tmp/app.heap").unwrap();
    /// let users = store.hashmap::<0>("users", 8).unwrap();
    /// ```
    pub fn hashmap<const ARM: u8>(
        &self,
        name: &str,
        shards: usize,
    ) -> Result<Arc<RHashMap<MappedNvm, ARM>>, AttachError>
    where
        RHashMap<MappedNvm, ARM>: MappedLayout<Cfg = usize>,
    {
        self.get(name, shards)
    }

    /// Typed handle: FIFO queue (`ARM` as for [`Store::hashmap`]).
    pub fn queue<const ARM: u8>(
        &self,
        name: &str,
    ) -> Result<Arc<RQueue<MappedNvm, ARM>>, AttachError>
    where
        RQueue<MappedNvm, ARM>: MappedLayout<Cfg = ()>,
    {
        self.get(name, ())
    }

    /// Typed handle: sorted list (`ARM` as for [`Store::hashmap`]).
    pub fn list<const ARM: u8>(&self, name: &str) -> Result<Arc<RList<MappedNvm, ARM>>, AttachError>
    where
        RList<MappedNvm, ARM>: MappedLayout<Cfg = ()>,
    {
        self.get(name, ())
    }

    /// Typed handle: external BST (`ARM` as for [`Store::hashmap`]).
    pub fn bst<const ARM: u8>(&self, name: &str) -> Result<Arc<RBst<MappedNvm, ARM>>, AttachError>
    where
        RBst<MappedNvm, ARM>: MappedLayout<Cfg = ()>,
    {
        self.get(name, ())
    }

    /// Typed handle: stack (placed at `Isb-LP`, the one arm it runs at).
    pub fn stack(&self, name: &str) -> Result<Arc<RStack<MappedNvm>>, AttachError> {
        self.get(name, ())
    }

    // -- online peer recovery (shared heaps) --------------------------------

    /// Participant slots whose process is dead (SIGKILLed, pid recycled,
    /// zombie, or a claim torn mid-flight). Empty on an exclusive heap.
    pub fn dead_peers(&self) -> Vec<usize> {
        if !self.env.heap.is_shared() {
            return Vec::new();
        }
        self.env.heap.dead_participants()
    }

    /// Tries to take the recovery lease on dead participant `slot` without
    /// recovering yet (test harnesses use the split to widen the window in
    /// which the recoverer itself can be killed; production code calls
    /// [`Store::recover_peer`]). Re-entrant for the current holder. Returns
    /// `false` when another *live* survivor holds the lease, the slot is
    /// already reclaimed, its participant turns out to be alive (stale
    /// dead-list), or the slot is torn mid-claim (no state to recover;
    /// [`Store::recover_peer`] reclaims those under the attach flock).
    pub fn claim_recovery(&self, slot: usize) -> bool {
        matches!(self.env.heap.lease_try_claim(slot), LeaseOutcome::Won { .. })
    }

    /// Recovers dead participant `slot` under a CAS-claimed recovery lease,
    /// **while this process keeps serving**: replays Op-Recover for every
    /// recovery slot in the dead process's tid band, releases its pinned
    /// epochs (un-wedging reclamation), and reclaims its registry slot.
    /// Returns the per-tid recovery decisions on success (empty for a slot
    /// that was merely torn mid-claim — nothing ran under it, so there is
    /// nothing to replay), or `None` when another live survivor holds the
    /// lease (it will finish the job — a recoverer that dies mid-lease is
    /// detected and superseded by the next caller), the slot is already
    /// reclaimed, or its participant turns out to be **alive** — a live
    /// peer's slot is never recovered, however stale the caller's dead-list.
    pub fn recover_peer(
        &self,
        slot: usize,
    ) -> Result<Option<Vec<(usize, crate::recovery::Recovered)>>, AttachError> {
        match self.env.heap.lease_try_claim(slot) {
            LeaseOutcome::Won { .. } => {}
            // A claim torn mid-flight holds no recoverable state and may be
            // a live joiner mid-stamp: reclaim it under the attach flock
            // (which serializes all claims) instead of leasing it.
            LeaseOutcome::Torn => {
                return Ok(if self.env.heap.reclaim_torn_claim(slot)? {
                    nvm::stats::count_peers_recovered(1);
                    Some(Vec::new())
                } else {
                    None
                });
            }
            LeaseOutcome::Held { .. } | LeaseOutcome::Gone | LeaseOutcome::Live { .. } => {
                return Ok(None);
            }
        }
        // Replay the dead process's (at most one per thread) pending
        // operations. Help is the ordinary lock-free helping path, so this
        // runs against live traffic from every survivor.
        let (rec, col) = (&self.env.own.rec, &self.env.own.collector);
        let mut decisions = Vec::new();
        let mut resolved = 0u64;
        for pid in MappedHeap::tid_band(slot) {
            let g = col.pin();
            // SAFETY: `slot` is liveness-probed dead and we hold its
            // recovery lease; published descriptors are valid per the
            // tracking protocol (persisted before publication, never freed
            // while published).
            decisions.push((pid, unsafe {
                // The on-decision hook mirrors the verdict into the KV
                // response table *before* the rec slot is cleared: if this
                // recoverer dies inside the hook, a successor recomputes
                // the same decision and re-resolves (idempotent); after the
                // clear, the dead peer's client can be served again.
                recover_dead_pid_with(rec, pid, &g, |d| {
                    if self.resptab.resolve(pid, d).is_some() {
                        resolved += 1;
                    }
                })
            }));
        }
        if resolved > 0 {
            nvm::stats::count_kv_intents_resolved(resolved);
        }
        // The dead process can no longer be inside a read-side critical
        // section: drop its pinned epochs so reclamation advances again.
        let epochs = self.env.epoch_region;
        if !epochs.is_null() {
            // SAFETY: the band's announce words belong exclusively to the
            // dead process's threads.
            let stalls =
                unsafe { Collector::release_shared_band(epochs, MappedHeap::tid_band(slot)) };
            nvm::stats::count_epoch_stalls(stalls as u64);
        }
        // Registry slot last: clearing it retires the lease with it, and
        // only a fully-resolved slot may be re-claimed by a new process.
        self.env.heap.clear_participant(slot);
        nvm::stats::count_peers_recovered(1);
        Ok(Some(decisions))
    }

    /// Probes for dead peers and recovers each under a lease (the
    /// "survivor notices a SIGKILLed neighbour" entry point — call it
    /// periodically, or when an operation observes suspicious stalls).
    /// Returns the slots this process recovered.
    pub fn heal_peers(&self) -> Result<Vec<usize>, AttachError> {
        let mut healed = Vec::new();
        for slot in self.dead_peers() {
            if self.recover_peer(slot)?.is_some() {
                healed.push(slot);
            }
        }
        Ok(healed)
    }
}

/// Opens the structure of catalog entry `e` as an `L`. The entry is the
/// image's word, not ours: before `L::open` touches the root it must be the
/// payload of a committed block that covers the structure's root — otherwise
/// a damaged `cfg` or root offset would have `open` read, and install fresh
/// roots, past a block's end.
fn open_root<L: MappedLayout>(
    env: &AttachEnv,
    cfg: L::Cfg,
    e: &CatalogEntry,
) -> Result<L, AttachError> {
    if env.heap.committed_payload_bytes(e.root).is_none_or(|b| b < L::root_bytes(cfg)) {
        return Err(MapError::CorruptCatalog { slot: e.slot }.into());
    }
    // SAFETY: checked above — a committed block covering the root.
    unsafe { L::open(env, cfg, e.root) }
}

/// Kind-dispatched construction of an existing catalog entry, at `Isb-LP`.
fn construct_entry(env: &AttachEnv, e: &CatalogEntry) -> Result<Box<dyn SlotOps>, AttachError> {
    fn open_as<L: MappedLayout>(
        env: &AttachEnv,
        cfg: L::Cfg,
        e: &CatalogEntry,
    ) -> Result<Box<dyn SlotOps>, AttachError> {
        Ok(Box::new(open_root::<L>(env, cfg, e)?))
    }
    // The arm rides in bits 32..40 of the configuration word. An entry of
    // another level — the paper's arms, which run in process only, or the
    // retired one — is refused by name, as the build that opens it would be
    // told; a value outside the ladder means the catalog record was written
    // by an incompatible (newer) build — reject rather than guess a placement.
    let placed = || match (e.cfg >> 32) as u8 {
        LP => Ok(()),
        crate::arm::PAPER | crate::arm::TUNED | crate::arm::RETIRED => {
            Err(AttachError::CfgMismatch {
                name: e.name.clone(),
                expected: e.cfg & !(0xFF << 32) | (LP as u64) << 32,
                found: e.cfg,
            })
        }
        _ => Err(MapError::CorruptCatalog { slot: e.slot }.into()),
    };
    match e.kind {
        crate::hashmap::KIND_MAP => {
            let shards = (e.cfg & 0xFFFF_FFFF) as usize;
            if !shards.is_power_of_two() {
                return Err(MapError::CorruptCatalog { slot: e.slot }.into());
            }
            placed()?;
            open_as::<RHashMap<MappedNvm, LP>>(env, shards, e)
        }
        crate::queue::KIND_QUEUE => {
            placed().and_then(|()| open_as::<RQueue<MappedNvm, LP>>(env, (), e))
        }
        crate::list::KIND_LIST => {
            placed().and_then(|()| open_as::<RList<MappedNvm, LP>>(env, (), e))
        }
        crate::bst::KIND_BST => placed().and_then(|()| open_as::<RBst<MappedNvm, LP>>(env, (), e)),
        crate::stack::KIND_STACK => match e.cfg {
            crate::stack::RETIRED_CFG => Err(AttachError::RetiredFormat {
                name: e.name.clone(),
                format: "a direct-tracked stack",
            }),
            cfg if cfg == RStack::<MappedNvm>::cfg_word(()) => {
                open_as::<RStack<MappedNvm>>(env, (), e)
            }
            _ => Err(MapError::CorruptCatalog { slot: e.slot }.into()),
        },
        _ => Err(MapError::CorruptCatalog { slot: e.slot }.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RES_TRUE;
    use crate::env::Env;
    use crate::recovery::Recovered;

    /// The client of the response-table tests, and its map.
    const CLIENT: u64 = 7;
    type LpMap = RHashMap<MappedNvm, LP>;

    /// Alive: this process alone.
    struct OnlyUs;
    impl nvm::liveness::PidLiveness for OnlyUs {
        fn is_alive(&self, pid: u64, _birth: u64) -> bool {
            pid == std::process::id() as u64
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "isb_store_{}_{}_{name}.heap",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn five_kinds_roundtrip_one_heap() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("five");
        {
            let store = Store::open_sized(&path, 8 << 20).unwrap();
            assert!(store.summary().heap.created);
            let m = store.hashmap::<LP>("users", 4).unwrap();
            let q = store.queue::<LP>("jobs").unwrap();
            let l = store.list::<LP>("index").unwrap();
            let t = store.bst::<LP>("tree").unwrap();
            let s = store.stack("undo").unwrap();
            for k in 1..=100u64 {
                assert!(m.insert(0, k));
            }
            for v in 1..=50u64 {
                q.enqueue(0, v);
            }
            assert_eq!(q.dequeue(0), Some(1));
            for k in (1..=40u64).step_by(2) {
                assert!(l.insert(0, k));
            }
            for k in [9u64, 3, 12, 7] {
                assert!(t.insert(0, k));
            }
            s.push(0, 11);
            s.push(0, 22);
            assert_eq!(s.pop(0), Some(22));
        }
        {
            let store = Store::open_sized(&path, 8 << 20).unwrap();
            assert!(!store.summary().heap.created);
            assert_eq!(store.summary().heap.poisoned, 0, "clean detach leaves no torn blocks");
            assert_eq!(store.entries().len(), 5);
            let m = store.hashmap::<LP>("users", 4).unwrap();
            let q = store.queue::<LP>("jobs").unwrap();
            let l = store.list::<LP>("index").unwrap();
            let t = store.bst::<LP>("tree").unwrap();
            let s = store.stack("undo").unwrap();
            for k in 1..=100u64 {
                assert!(m.find(0, k), "map key {k} lost");
            }
            for v in 2..=50u64 {
                assert_eq!(q.dequeue(0), Some(v), "queue order after re-attach");
            }
            assert_eq!(q.dequeue(0), None);
            for k in 1..=40u64 {
                assert_eq!(l.find(0, k), k % 2 == 1, "list key {k}");
            }
            for k in [9u64, 3, 12, 7] {
                assert!(t.find(0, k), "bst key {k} lost");
            }
            assert_eq!(s.pop(0), Some(11));
            assert_eq!(s.pop(0), None);
            // The recovered store keeps serving, every kind mutating.
            assert!(m.insert(0, 1000) && m.delete(0, 2));
            q.enqueue(0, 99);
            assert!(l.insert(0, 1000) && l.delete(0, 3));
            assert!(t.insert(0, 60) && t.delete(0, 12));
            s.push(0, 99);
        }
        // A third open finds those mutations, and with the store gone the
        // handles are the last owners: every structure passes its quiescent
        // checks.
        let store = Store::open_sized(&path, 8 << 20).unwrap();
        let m = store.hashmap::<LP>("users", 4).unwrap();
        let q = store.queue::<LP>("jobs").unwrap();
        let l = store.list::<LP>("index").unwrap();
        let t = store.bst::<LP>("tree").unwrap();
        let s = store.stack("undo").unwrap();
        drop(store);
        fn last<T>(h: Arc<T>) -> T {
            Arc::into_inner(h).expect("the last handle")
        }
        let (mut m, mut q, mut l, mut t, mut s) = (last(m), last(q), last(l), last(t), last(s));
        let mut want: Vec<u64> = (1..=100).filter(|&k| k != 2).collect();
        want.push(1000);
        assert_eq!(m.snapshot_keys(), want);
        m.check_invariants();
        assert_eq!(q.snapshot_vals(), [99]);
        q.check_invariants();
        let mut want: Vec<u64> = (5..=39).step_by(2).collect();
        want.insert(0, 1);
        want.push(1000);
        assert_eq!(l.snapshot_keys(), want);
        l.check_invariants();
        assert_eq!(t.snapshot_keys(), [3, 7, 9, 60]);
        t.check_invariants();
        assert_eq!(s.snapshot_vals(), [99]);
        drop((m, q, l, t, s));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_kind_and_cfg_mismatch_are_typed() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("typed");
        let store = Store::open_sized(&path, 4 << 20).unwrap();
        store.hashmap::<LP>("users", 4).unwrap();
        match store.queue::<LP>("users") {
            Err(e @ AttachError::WrongKind { .. }) => {
                let text = "entry \"users\" hosts a hashmap (kind 1), expected a queue (kind 2)";
                assert_eq!(e.to_string(), text);
                let AttachError::WrongKind { name, expected, found } = e else { unreachable!() };
                assert_eq!(name, "users");
                assert_eq!(expected, crate::queue::KIND_QUEUE);
                assert_eq!(found, crate::hashmap::KIND_MAP);
            }
            other => panic!("expected WrongKind, got {other:?}", other = other.err()),
        }
        match store.hashmap::<LP>("users", 8) {
            Err(AttachError::CfgMismatch { name, .. }) => assert_eq!(name, "users"),
            other => panic!("expected CfgMismatch, got {other:?}", other = other.err()),
        }
        // The matching handle still opens, and is the same object.
        let a = store.hashmap::<LP>("users", 4).unwrap();
        let b = store.hashmap::<LP>("users", 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        drop((a, b, store));
        let _ = std::fs::remove_file(&path);
    }

    /// Unusable arguments are rejected BEFORE anything durable happens: no
    /// catalog entry is stamped, and the heap stays fully usable.
    #[test]
    fn invalid_cfg_and_name_are_rejected_before_the_catalog() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("precheck");
        {
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            match store.hashmap::<LP>("m", 3) {
                Err(AttachError::InvalidCfg { kind, .. }) => assert_eq!(kind, "hashmap"),
                other => panic!("expected InvalidCfg, got {:?}", other.err()),
            }
            let long = "x".repeat(nvm::mapped::CATALOG_NAME_BYTES + 1);
            match store.queue::<LP>(&long) {
                Err(AttachError::InvalidName { .. }) => {}
                other => panic!("expected InvalidName, got {:?}", other.err()),
            }
            match store.queue::<LP>("") {
                Err(AttachError::InvalidName { .. }) => {}
                other => panic!("expected InvalidName, got {:?}", other.err()),
            }
            assert!(store.entries().is_empty(), "nothing durable was written");
            // A valid handle still works after the rejections.
            store.hashmap::<LP>("m", 4).unwrap().insert(0, 7);
        }
        // ...and the heap re-opens cleanly (a durable bad entry would brick
        // every future open with CorruptCatalog).
        let store = Store::open_sized(&path, 4 << 20).unwrap();
        assert!(store.hashmap::<LP>("m", 4).unwrap().find(0, 7));
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    /// Shared open → fake dead peer with a published pending operation →
    /// a survivor's `heal_peers` resolves it online (service never stops)
    /// and reclaims the registry slot; the data survives a full reopen.
    #[test]
    fn shared_heal_recovers_fake_dead_peer_online() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("sharedheal");
        let before = nvm::stats::snapshot();
        {
            let store = Store::open_shared_sized(&path, 8 << 20).unwrap();
            assert!(store.heap().is_shared());
            let slot = store.heap().my_participant().expect("registered");
            nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
            let m = store.hashmap::<LP>("m", 2).unwrap();
            let q = store.queue::<LP>("q").unwrap();
            for i in 1..=20u64 {
                assert!(m.insert(nvm::tid::tid(), i));
                q.enqueue(nvm::tid::tid(), i);
            }
            // A "peer" that died with a pending operation: claim a second
            // registry slot for a dead pid and publish an operation under a
            // tid in ITS band (the completed dequeue leaves RD_q holding the
            // descriptor reference a real SIGKILLed peer would leave).
            let dead_slot = store.heap().debug_register_peer(u32::MAX as u64 - 7, 1).unwrap();
            let dead_tid = MappedHeap::tid_band(dead_slot).start;
            nvm::tid::set_tid(dead_tid);
            assert_eq!(q.dequeue(dead_tid), Some(1));
            nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
            assert_eq!(store.dead_peers(), vec![dead_slot]);
            let healed = store.heal_peers().unwrap();
            assert_eq!(healed, vec![dead_slot], "survivor recovered the dead peer");
            assert!(store.dead_peers().is_empty(), "registry slot reclaimed");
            assert!(
                !store.heap().participants().iter().any(|&(s, _, _)| s == dead_slot),
                "dead peer's slot is free again"
            );
            // Service continued throughout: the survivor keeps mutating.
            assert!(m.insert(nvm::tid::tid(), 1000));
            // Recovering an already-reclaimed slot is a no-op, not an error.
            assert!(store.recover_peer(dead_slot).unwrap().is_none());
        }
        let after = nvm::stats::snapshot();
        assert!(after.since(&before).peers_recovered >= 1, "counter surfaced the recovery");
        {
            // Full reopen (initial attacher again: no live participants).
            let store = Store::open_shared_sized(&path, 8 << 20).unwrap();
            assert!(!store.summary().heap.joined, "no live peers: full attach");
            let slot = store.heap().my_participant().unwrap();
            let t = MappedHeap::tid_band(slot).start;
            nvm::tid::set_tid(t);
            let m = store.hashmap::<LP>("m", 2).unwrap();
            let q = store.queue::<LP>("q").unwrap();
            for i in 1..=20u64 {
                assert!(m.find(t, i), "map key {i} lost");
            }
            assert!(m.find(t, 1000));
            // Queue: 1 was dequeued by the dead peer (resolved); 2.. remain.
            for i in 2..=20u64 {
                assert_eq!(q.dequeue(t), Some(i), "queue order after heal + reopen");
            }
            assert_eq!(q.dequeue(t), None);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A dead peer's stack operations resolve online like any other kind's:
    /// a completed push and a completed pop left published on two tids of
    /// its band answer `Completed` — unit, and the popped value — and both
    /// slots are cleared.
    #[test]
    fn recover_peer_completes_a_dead_peers_stack_operations() {
        use crate::engine::{res_val, RES_UNIT};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("peerstack");
        let store = Store::open_shared_with(&path, 4 << 20, Arc::new(OnlyUs)).unwrap();
        let me = MappedHeap::tid_band(store.heap().my_participant().unwrap()).start;
        nvm::tid::set_tid(me);
        let s = store.stack("s").unwrap();
        s.push(me, 41);
        let dead = store.heap().debug_register_peer(u32::MAX as u64 - 13, 1).unwrap();
        let (pusher, popper) =
            (MappedHeap::tid_band(dead).start, MappedHeap::tid_band(dead).start + 1);
        nvm::tid::set_tid(pusher);
        s.push(pusher, 42);
        nvm::tid::set_tid(popper);
        assert_eq!(s.pop(popper), Some(42));
        nvm::tid::set_tid(me);
        let rec = &s.0.env.rec;
        assert_eq!((rec.read(pusher).0, rec.read(popper).0), (1, 1), "both published");
        let decisions = store.recover_peer(dead).unwrap().expect("recovered under the lease");
        let of = |t: usize| decisions.iter().find(|(p, _)| *p == t).map(|&(_, d)| d);
        assert_eq!(of(pusher), Some(Recovered::Completed(RES_UNIT)), "the push");
        assert_eq!(of(popper), Some(Recovered::Completed(res_val(42))), "the pop");
        assert_eq!((rec.read(pusher), rec.read(popper)), ((0, 0), (0, 0)), "both slots cleared");
        assert_eq!((s.pop(me), s.pop(me)), (Some(41), None));
        drop((s, store));
        let _ = std::fs::remove_file(&path);
    }

    /// The lease split: `claim_recovery` is re-entrant for its holder, and
    /// `recover_peer` finishes under an already-held lease.
    #[test]
    fn claim_then_recover_is_reentrant() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("lease");
        let store = Store::open_shared_sized(&path, 4 << 20).unwrap();
        let slot = store.heap().my_participant().unwrap();
        nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
        let dead = store.heap().debug_register_peer(u32::MAX as u64 - 9, 1).unwrap();
        assert!(store.claim_recovery(dead));
        assert!(store.claim_recovery(dead), "re-entrant for the holder");
        let decisions = store.recover_peer(dead).unwrap().expect("recovery under the held lease");
        assert_eq!(decisions.len(), nvm::mapped::PART_TIDS, "one decision per band tid");
        assert!(!store.claim_recovery(dead), "slot reclaimed: lease is gone");
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    /// A live peer's slot is never recovered (a stale dead-list must not
    /// erase a live registration), and a claim torn mid-flight is reclaimed
    /// under the attach flock — reported as a recovery with nothing to
    /// replay — instead of being leased.
    #[test]
    fn recover_refuses_live_peers_and_reclaims_torn_claims() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("tornlive");
        let store = Store::open_shared_sized(&path, 4 << 20).unwrap();
        let slot = store.heap().my_participant().unwrap();
        nvm::tid::set_tid(MappedHeap::tid_band(slot).start);
        // A registration that probes as *alive* (our own pid and birth):
        // never in the dead list, and recovery must refuse it even when
        // named directly.
        let live = store
            .heap()
            .debug_register_peer(std::process::id() as u64, nvm::liveness::self_birth())
            .unwrap();
        assert!(store.dead_peers().is_empty());
        assert!(store.recover_peer(live).unwrap().is_none(), "live peer refused");
        assert!(!store.claim_recovery(live));
        assert!(
            store.heap().participants().iter().any(|&(s, _, _)| s == live),
            "live registration untouched"
        );
        store.heap().clear_participant(live);
        // A claim torn mid-flight: listed dead, reclaimed with an empty
        // replay (no tid of its band ever ran).
        let torn = store.heap().debug_register_peer(u32::MAX as u64 - 11, 1).unwrap();
        store.heap().debug_tear_claim(torn);
        assert_eq!(store.dead_peers(), vec![torn]);
        let decisions = store.recover_peer(torn).unwrap().expect("torn claim reclaimed");
        assert!(decisions.is_empty(), "nothing ran under a torn claim");
        assert!(!store.heap().participants().iter().any(|&(s, _, _)| s == torn));
        assert!(store.recover_peer(torn).unwrap().is_none(), "second reclaim is a no-op");
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    /// A request recorded on lane `pid` behind an acknowledged one: request
    /// 1, a put, published its descriptor and was acknowledged; request 2
    /// was recorded and died before it published anything. Returns the
    /// handles the caller keeps alive.
    fn ack_then_record(store: &Store, pid: usize) -> Arc<LpMap> {
        let (m, tab) = (store.get::<LpMap>("kv", 2).unwrap(), store.response_table());
        let idx = tab.register(CLIENT).unwrap();
        tab.begin_op(pid, CLIENT, 1, 0, 42);
        assert!(m.insert(pid, 42));
        tab.finish_op(pid, idx, 1, RES_TRUE);
        m.release_prior(pid, tab.prior(idx));
        tab.begin_op(pid, CLIENT, 2, 0, 43);
        let rd = m.env.rec.published(pid);
        assert!(rd != 0 && rd == tab.prior(idx), "RD_q names request 1's descriptor, as prior");
        m
    }

    /// Recovery behind a completed `RD_q`: Op-Recover answers request 1's
    /// `Completed`, and request 2 — in flight with its `prior` equal to
    /// `RD_q` — must resolve `Restarted`, not finalize request 1's answer
    /// as its own. Online, by a survivor's `recover_peer`, and on an
    /// exclusive reopen.
    #[test]
    fn a_recorded_request_that_published_nothing_restarts() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let restarted = |store: &Store, pid: usize, decision: Recovered| {
            assert_eq!(decision, Recovered::Completed(RES_TRUE), "request 1's verdict");
            let tab = store.response_table();
            assert_eq!(tab.lookup(CLIENT), Some((1, RES_TRUE)), "finalized request 1's answer");
            assert_eq!(tab.inflight(pid), None);
        };
        let path = tmp("recorded_peer");
        let store = Store::open_shared_with(&path, 4 << 20, Arc::new(OnlyUs)).unwrap();
        let me = MappedHeap::tid_band(store.heap().my_participant().unwrap()).start;
        let dead = store.heap().debug_register_peer(u32::MAX as u64 - 17, 1).unwrap();
        let lane = MappedHeap::tid_band(dead).start;
        nvm::tid::set_tid(lane);
        let m = ack_then_record(&store, lane);
        nvm::tid::set_tid(me);
        let decisions = store.recover_peer(dead).unwrap().expect("recovered under the lease");
        let decision = decisions.iter().find(|(p, _)| *p == lane).expect("the lane's").1;
        restarted(&store, lane, decision);
        drop((m, store));
        let _ = std::fs::remove_file(&path);

        let path = tmp("recorded_reopen");
        {
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            drop(ack_then_record(&store, 1));
        }
        let store = Store::open_sized(&path, 4 << 20).unwrap();
        restarted(&store, 1, store.summary().decision(1));
        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_recovery_area_spans_structures() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let path = tmp("sharedrec");
        {
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            let m = store.hashmap::<LP>("m", 2).unwrap();
            let q = store.queue::<LP>("q").unwrap();
            // Alternating ops hand the shared RD_q across structures.
            for i in 1..=50u64 {
                assert!(m.insert(0, i));
                q.enqueue(0, i);
                assert_eq!(q.dequeue(0), Some(i));
            }
            // Last mutating op was a dequeue: its response is recoverable.
            assert_eq!(q.recover_dequeue(0), Some(50));
        }
        {
            // Across a restart, the shared replay resolves the last op too.
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            match store.summary().decision(0) {
                Recovered::Completed(_) | Recovered::Restart => {}
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// In a store an operation's prologue can perform the last release of
    /// *another* structure's descriptor (the shared `RD_q` hands it over),
    /// which then waits in **this** structure's collector. When this
    /// structure is the last of its store to drop, that collector's drain
    /// recycles the descriptor into the heap-wide pool — which must still be
    /// alive, held by nothing but this structure's `Env` (it was freed by
    /// then, once, for the stack: the drain pushed onto a freed free list,
    /// the malloc corruption behind the `restart.rs` aborts).
    fn dropped_last_still_has_the_pool<K: MappedLayout + Send + Sync>(
        kind: &str,
        cfg: K::Cfg,
        op_by_pid_1: impl Fn(&K),
        env: impl Fn(&mut K) -> &mut Env<MappedNvm>,
    ) {
        // Once observing the drain, once dropping for real (freed memory is
        // poisoned under `MALLOC_PERTURB_`, so a drain into it aborts).
        for observe in [true, false] {
            let path = tmp(kind);
            let store = Store::open_sized(&path, 4 << 20).unwrap();
            let q = store.queue::<LP>("q").unwrap();
            let k = store.get::<K>("k", cfg).unwrap();
            // Process 1's enqueue descriptor ends up referenced by its `RD_q`
            // alone: process 2's dequeue and enqueue overwrite the two cells.
            q.enqueue(1, 10);
            assert_eq!(q.dequeue(2), Some(10));
            q.enqueue(2, 11);
            op_by_pid_1(&k); // releases it — through K's collector
            drop((q, store));
            let mut k = Arc::into_inner(k).expect("the last handle");
            let env = env(&mut k);
            assert!(env.collector.pending() >= 1, "{kind}: the descriptor waits in K's collector");
            assert_eq!(env.infos.holders(), 1, "{kind}: the pool is alive, and K's alone");
            if observe {
                assert!(env.drain_observed() >= 1, "{kind}: recycled into the live pool");
            }
            drop(k);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn any_kind_dropped_last_still_has_the_descriptor_pool() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        type M = MappedNvm;
        let ins = |did: bool| assert!(did);
        dropped_last_still_has_the_pool::<RList<M, LP>>(
            "l",
            (),
            |l| ins(l.insert(1, 5)),
            |l| &mut l.env,
        );
        dropped_last_still_has_the_pool::<RHashMap<M, LP>>(
            "m",
            2,
            |m| ins(m.insert(1, 5)),
            |m| &mut m.env,
        );
        dropped_last_still_has_the_pool::<RBst<M, LP>>(
            "t",
            (),
            |t| ins(t.insert(1, 5)),
            |t| &mut t.env,
        );
        dropped_last_still_has_the_pool::<RQueue<M, LP>>(
            "k",
            (),
            |k| k.enqueue(1, 5),
            |k| &mut k.env,
        );
        dropped_last_still_has_the_pool::<RStack<M>>("s", (), |s| s.push(1, 5), |s| &mut s.0.env);
    }

    /// A mapped `Env`'s pools draw from the arena, and refuse — rather than
    /// fall back to `Box` — where a volatile one would go passthrough.
    #[test]
    fn mapped_env_pools_are_arena_backed_or_refuse() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        type Node = crate::set_core::Node<MappedNvm>;
        let path = tmp("envarena");
        let store = Store::open_sized(&path, 4 << 20).unwrap();
        let mut env = store.env.env();
        assert!(env.infos.arena_backed() && env.pool::<Node, LP>().arena_backed());
        let (infos, heap) = (Some(env.infos.clone()), Arc::clone(store.heap()));
        // SAFETY: the store's recovery-slot block, alive with `store`.
        let rec = unsafe {
            crate::recovery::RecArea::attach_raw(store.env.rec_base, store.env.own.rec.base)
        };
        let mut parked = Env::mapped(rec, Collector::disabled(), infos, heap);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parked.pool::<Node, LP>();
        }));
        assert!(refused.is_err(), "an arena pool under a disabled collector must not exist");
        drop((env, parked, store));
        let _ = std::fs::remove_file(&path);
    }
}
