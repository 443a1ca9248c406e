//! The named-structure catalog: a fixed array of [`CATALOG_SLOTS`] 64-byte
//! entries `(kind, cfg, root offset, name length, name[32])` in one root
//! block, mapping *names* to structures so one heap can host many (the store
//! layer interprets kind and cfg).
//!
//! Invariants this file owns:
//!
//! * **Kind word last.** Creation allocates, zeroes and commits the root
//!   block, makes every field durable, and stamps the kind word — the valid
//!   flag — last. A creation cut short by a kill leaves the slot empty and
//!   the orphaned root block unreferenced, which the next attach sweeps.
//! * **Entries are untrusted until checked.** A kind word with inconsistent
//!   fields (name length, root offset outside the published bytes) is a shape
//!   no crash ordering produces: typed [`MapError::CorruptCatalog`]. Whether
//!   the root offset names a committed block large enough for the structure
//!   is the reader's check ([`MappedHeap::committed_payload_bytes`]), made
//!   before the root is touched.

use super::superblock::{persist, persist_all};
use super::{MapError, MappedHeap};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed};

/// Catalog geometry: entries per heap and bytes per entry / name.
pub const CATALOG_SLOTS: usize = 16;
/// Bytes of one catalog entry (one allocation granule).
pub const CATALOG_ENTRY_BYTES: usize = 64;
/// Maximum name length in bytes (UTF-8).
pub const CATALOG_NAME_BYTES: usize = 32;

/// One decoded catalog entry: a named structure hosted by the heap.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Catalog slot index (error reporting).
    pub slot: usize,
    /// The structure's name (unique per heap).
    pub name: String,
    /// Structure-kind tag (the store layer interprets it).
    pub kind: u64,
    /// Configuration word recorded at creation.
    pub cfg: u64,
    /// The structure's root block payload.
    pub root: *mut u8,
}

impl MappedHeap {
    /// Returns (allocating on first use) the catalog block. The caller
    /// registers it under its own root key.
    pub fn catalog_root(&self, key: u64) -> Result<*mut u8, MapError> {
        let (p, _) = self.root_alloc(key, CATALOG_SLOTS * CATALOG_ENTRY_BYTES)?;
        Ok(p)
    }

    /// Word `word` of entry `slot` of the catalog block at `cat`.
    ///
    /// # Safety
    /// `cat` must be the committed catalog block of this heap.
    unsafe fn catalog_word(&self, cat: *mut u8, slot: usize, word: usize) -> &AtomicU64 {
        debug_assert!(slot < CATALOG_SLOTS && word < CATALOG_ENTRY_BYTES / 8);
        // SAFETY: in-bounds word of the committed catalog block.
        unsafe { &*(cat.add(slot * CATALOG_ENTRY_BYTES + word * 8) as *const AtomicU64) }
    }

    /// Decodes every valid catalog entry, or a typed
    /// [`MapError::CorruptCatalog`] naming the first inconsistent slot.
    ///
    /// # Safety
    /// `cat` must be the committed catalog block of this heap.
    pub unsafe fn catalog_entries(&self, cat: *mut u8) -> Result<Vec<CatalogEntry>, MapError> {
        // SAFETY: forwarded contract.
        (0..CATALOG_SLOTS)
            .filter_map(|slot| unsafe { self.catalog_read(cat, slot) }.transpose())
            .collect()
    }

    /// Decodes one catalog slot (`None` when empty).
    ///
    /// # Safety
    /// As [`MappedHeap::catalog_entries`].
    unsafe fn catalog_read(
        &self,
        cat: *mut u8,
        slot: usize,
    ) -> Result<Option<CatalogEntry>, MapError> {
        // SAFETY: in-bounds catalog words per CATALOG_SLOTS.
        let w = |i: usize| unsafe { self.catalog_word(cat, slot, i) }.load(Acquire);
        let kind = w(0);
        if kind == 0 {
            return Ok(None);
        }
        let (cfg, root_off, name_len) = (w(1), w(2) as usize, w(3) as usize);
        // `contains_span` adopts a segment a peer grew (and put this root
        // in) since our last look.
        if name_len == 0
            || name_len > CATALOG_NAME_BYTES
            || root_off < self.segs[0].data_off.load(Relaxed)
            || !self.contains_span(root_off, 1)
        {
            return Err(MapError::CorruptCatalog { slot });
        }
        let mut raw = [0u8; CATALOG_NAME_BYTES];
        for (i, chunk) in raw.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&w(4 + i).to_le_bytes());
        }
        let Ok(name) = std::str::from_utf8(&raw[..name_len]) else {
            return Err(MapError::CorruptCatalog { slot });
        };
        Ok(Some(CatalogEntry {
            slot,
            name: name.to_string(),
            kind,
            cfg,
            // SAFETY: offset bounds-checked above.
            root: unsafe { self.base.add(root_off) },
        }))
    }

    /// Appends a named entry with a fresh zeroed, committed root block of
    /// `root_bytes` (see the module docs for the crash ordering). The caller
    /// must have checked the name is not already present.
    ///
    /// # Safety
    /// `cat` must be the committed catalog block of this heap; one catalog
    /// writer at a time (the initial attacher under the attach flock, or the
    /// holder of the file lock).
    pub unsafe fn catalog_append(
        &self,
        cat: *mut u8,
        name: &str,
        kind: u64,
        cfg: u64,
        root_bytes: usize,
    ) -> Result<*mut u8, MapError> {
        assert!(kind != 0, "kind 0 is the empty-slot marker");
        assert!(
            !name.is_empty() && name.len() <= CATALOG_NAME_BYTES,
            "catalog names must be 1..={CATALOG_NAME_BYTES} bytes, got {:?}",
            name
        );
        // SAFETY (here and below): in-bounds catalog words.
        let word = |slot, i| unsafe { self.catalog_word(cat, slot, i) };
        let slot = (0..CATALOG_SLOTS)
            .find(|&s| word(s, 0).load(Acquire) == 0)
            .ok_or(MapError::CatalogFull)?;
        let root = self.alloc_zeroed(root_bytes)?;
        let mut raw = [0u8; CATALOG_NAME_BYTES];
        raw[..name.len()].copy_from_slice(name.as_bytes());
        let name_words = raw
            .chunks(8)
            .enumerate()
            .map(|(i, c)| (4 + i, u64::from_le_bytes(c.try_into().unwrap())));
        let fields =
            [(1, cfg), (2, (root as usize - self.base as usize) as u64), (3, name.len() as u64)];
        persist_all(fields.into_iter().chain(name_words).map(|(i, v)| (word(slot, i), v)));
        persist(word(slot, 0), kind);
        Ok(root)
    }
}
