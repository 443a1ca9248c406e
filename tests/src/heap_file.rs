//! Heap-file helpers of the attach tests (`mapped_attach.rs`,
//! `mapped_growth.rs`): a fresh temp path, a `Store` opened for one handle,
//! and raw reads and patches of a heap file's words.

use isb::arm::LP;
use isb::recovery::AttachError;
use isb::store::Store;
use std::path::PathBuf;
use std::sync::Arc;

/// Shards of the map most images hold.
pub const SHARDS: usize = 4;
/// Size a test heap is opened with.
pub const HEAP_BYTES: usize = 2 * 1024 * 1024;
/// Catalog name of the one structure most images hold.
pub const NAME: &str = "s";

/// A heap path of its own in the temp directory, `name` in it; no file
/// there yet.
pub fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "isb_corrupt_{}_{}_{name}.heap",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().subsec_nanos()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Opens the store at `path`, takes one handle and closes the store again:
/// the returned structure is the handle's last owner (so `&mut` quiescent
/// checks run on it), and dropping it detaches the heap.
pub fn sole<T>(
    path: &PathBuf,
    get: impl FnOnce(&Store) -> Result<Arc<T>, AttachError>,
) -> Result<T, AttachError> {
    let store = Store::open_sized(path, HEAP_BYTES)?;
    let handle = get(&store)?;
    drop(store);
    Ok(Arc::into_inner(handle).expect("the store's last handle"))
}

/// Overwrites `bytes` at `offset` in the heap file.
pub fn patch(path: &PathBuf, offset: u64, bytes: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(bytes).unwrap();
}

/// The word at byte `offset` of the heap file.
pub fn read_at(path: &PathBuf, offset: u64) -> u64 {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 8];
    f.read_exact(&mut b).unwrap();
    u64::from_le_bytes(b)
}

/// Word `word` of the heap file.
pub fn read_word(path: &PathBuf, word: u64) -> u64 {
    read_at(path, word * 8)
}

/// Root-directory scan (superblock words 16..): payload offset for `key`.
pub fn root_offset(path: &PathBuf, key: u64) -> u64 {
    for s in 0..16u64 {
        if read_word(path, 16 + 2 * s) == key {
            return read_word(path, 16 + 2 * s + 1);
        }
    }
    panic!("root key {key:#x} not registered");
}

/// Attaches the map named [`NAME`] and detaches again.
pub fn attach(path: &PathBuf) -> Result<(), AttachError> {
    sole(path, |s| s.hashmap::<LP>(NAME, SHARDS)).map(drop)
}
