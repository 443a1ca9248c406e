//! Integration-test helpers (see tests/).

pub mod heap_file;
pub mod kv;
pub mod sigkill;
