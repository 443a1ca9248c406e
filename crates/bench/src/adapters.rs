//! Uniform benchmark view over every evaluated implementation.
//!
//! Implementations are added here as the baselines land; the `figures`
//! binary selects them by the names used in the paper's plots
//! (`Isb`, `Isb-Opt`, `Capsules`, `Capsules-Opt`, `DT-Opt`, `Harris-LL`, …).

use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::queue::RQueue;
use nvm::Persist;

/// A concurrent set (the list benchmarks).
pub trait SetBench: Send + Sync {
    /// Insert `k`; false if present.
    fn insert(&self, pid: usize, k: u64) -> bool;
    /// Delete `k`; false if absent.
    fn delete(&self, pid: usize, k: u64) -> bool;
    /// Membership test.
    fn find(&self, pid: usize, k: u64) -> bool;
}

/// A sharded concurrent map (the hash-map benchmarks): the set surface plus
/// shard introspection, so sweeps can label series by shard count.
pub trait MapBench: SetBench {
    /// Number of shards the keys are routed over.
    fn shard_count(&self) -> usize;
}

/// A concurrent FIFO queue (the queue benchmarks).
pub trait QueueBench: Send + Sync {
    /// Enqueue `v`.
    fn enqueue(&self, pid: usize, v: u64);
    /// Dequeue; `None` when empty.
    fn dequeue(&self, pid: usize) -> Option<u64>;
}

impl<M: Persist> SetBench for baselines::harris::HarrisList<M> {
    fn insert(&self, pid: usize, k: u64) -> bool {
        baselines::harris::HarrisList::insert(self, pid, k)
    }
    fn delete(&self, pid: usize, k: u64) -> bool {
        baselines::harris::HarrisList::delete(self, pid, k)
    }
    fn find(&self, pid: usize, k: u64) -> bool {
        baselines::harris::HarrisList::find(self, pid, k)
    }
}

impl<M: Persist> SetBench for baselines::dt_list::DtList<M> {
    fn insert(&self, pid: usize, k: u64) -> bool {
        baselines::dt_list::DtList::insert(self, pid, k)
    }
    fn delete(&self, pid: usize, k: u64) -> bool {
        baselines::dt_list::DtList::delete(self, pid, k)
    }
    fn find(&self, pid: usize, k: u64) -> bool {
        baselines::dt_list::DtList::find(self, pid, k)
    }
}

impl<M: Persist, const OPT: bool> SetBench for baselines::capsules_list::CapsulesList<M, OPT> {
    fn insert(&self, pid: usize, k: u64) -> bool {
        baselines::capsules_list::CapsulesList::insert(self, pid, k)
    }
    fn delete(&self, pid: usize, k: u64) -> bool {
        baselines::capsules_list::CapsulesList::delete(self, pid, k)
    }
    fn find(&self, pid: usize, k: u64) -> bool {
        baselines::capsules_list::CapsulesList::find(self, pid, k)
    }
}

impl<M: Persist> QueueBench for baselines::ms_queue::MsQueue<M> {
    fn enqueue(&self, pid: usize, v: u64) {
        baselines::ms_queue::MsQueue::enqueue(self, pid, v)
    }
    fn dequeue(&self, pid: usize) -> Option<u64> {
        baselines::ms_queue::MsQueue::dequeue(self, pid)
    }
}

impl<M: Persist> QueueBench for baselines::log_queue::LogQueue<M> {
    fn enqueue(&self, pid: usize, v: u64) {
        baselines::log_queue::LogQueue::enqueue(self, pid, v)
    }
    fn dequeue(&self, pid: usize) -> Option<u64> {
        baselines::log_queue::LogQueue::dequeue(self, pid)
    }
}

impl<M: Persist, const N: bool> QueueBench for baselines::capsules_queue::CapsulesQueue<M, N> {
    fn enqueue(&self, pid: usize, v: u64) {
        baselines::capsules_queue::CapsulesQueue::enqueue(self, pid, v)
    }
    fn dequeue(&self, pid: usize) -> Option<u64> {
        baselines::capsules_queue::CapsulesQueue::dequeue(self, pid)
    }
}

impl<M: Persist, const ARM: u8> SetBench for RList<M, ARM> {
    fn insert(&self, pid: usize, k: u64) -> bool {
        RHashMap::insert(self, pid, k)
    }
    fn delete(&self, pid: usize, k: u64) -> bool {
        RHashMap::delete(self, pid, k)
    }
    fn find(&self, pid: usize, k: u64) -> bool {
        RHashMap::find(self, pid, k)
    }
}

impl<M: Persist, const ARM: u8> SetBench for RHashMap<M, ARM> {
    fn insert(&self, pid: usize, k: u64) -> bool {
        RHashMap::insert(self, pid, k)
    }
    fn delete(&self, pid: usize, k: u64) -> bool {
        RHashMap::delete(self, pid, k)
    }
    fn find(&self, pid: usize, k: u64) -> bool {
        RHashMap::find(self, pid, k)
    }
}

impl<M: Persist, const ARM: u8> MapBench for RHashMap<M, ARM> {
    fn shard_count(&self) -> usize {
        self.shards()
    }
}

impl<M: Persist, const ARM: u8> QueueBench for RQueue<M, ARM> {
    fn enqueue(&self, pid: usize, v: u64) {
        RQueue::enqueue(self, pid, v)
    }
    fn dequeue(&self, pid: usize) -> Option<u64> {
        RQueue::dequeue(self, pid)
    }
}
