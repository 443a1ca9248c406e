//! Integration-test helpers (see tests/).

pub mod kv;
pub mod sigkill;
