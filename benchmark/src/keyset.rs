//! The sequential model every map answer is checked against.

/// A set of keys from the dense key space `1..=space`.
#[derive(Debug)]
pub struct KeySet {
    present: Vec<bool>,
    live: u64,
}

impl KeySet {
    /// The empty set over `1..=space`.
    pub fn new(space: u64) -> Self {
        KeySet { present: vec![false; space as usize + 1], live: 0 }
    }

    /// Inserts `key`; whether it was absent.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        let fresh = !std::mem::replace(&mut self.present[key as usize], true);
        self.live += fresh as u64;
        fresh
    }

    /// Removes `key`; whether it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        let was = std::mem::replace(&mut self.present[key as usize], false);
        self.live -= was as u64;
        was
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.present[key as usize]
    }

    /// Keys present.
    pub fn live(&self) -> u64 {
        self.live
    }
}
