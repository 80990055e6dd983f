//! Per-thread lanes any thread may read: the one seqlock and lane registry behind
//! the profiler's stack mirrors ([`crate::profile`]) and the flight recorder's
//! ring slots ([`crate::trace`]).

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::LocalKey;

/// `N` atomic words guarded by a sequence tag.  Only the owning thread writes; the
/// tag is odd while a write is in flight, and a reader that sees an odd tag, or a
/// tag change across its copy, discards the copy.
///
/// The fences make this a sound seqlock: the writer's `Release` fence after the
/// odd tag orders that tag before its relaxed word stores, and the reader's
/// `Acquire` fence before the re-check orders its relaxed word loads before the
/// second tag load.  So a reader that saw any of a write's words also sees the
/// tag change, and discards the copy.
pub(crate) struct SeqLock<const N: usize> {
    tag: AtomicU64,
    words: [AtomicU64; N],
}

impl<const N: usize> SeqLock<N> {
    pub(crate) fn new() -> Self {
        SeqLock {
            tag: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Runs `write` over the words with the tag odd (owning thread only).  `write`
    /// uses relaxed loads and stores.
    pub(crate) fn write<R>(&self, write: impl FnOnce(&[AtomicU64; N]) -> R) -> R {
        let tag = self.tag.load(Ordering::Relaxed);
        self.tag.store(tag.wrapping_add(1), Ordering::Release);
        fence(Ordering::Release);
        let out = write(&self.words);
        self.tag.store(tag.wrapping_add(2), Ordering::Release);
        out
    }

    /// Copies out of the words with `read` (any thread), which uses relaxed loads.
    /// `None` when a write was in flight or landed during the copy.
    pub(crate) fn read<R>(&self, read: impl FnOnce(&[AtomicU64; N]) -> R) -> Option<R> {
        let before = self.tag.load(Ordering::Acquire);
        if before & 1 == 1 {
            return None;
        }
        let out = read(&self.words);
        fence(Ordering::Acquire);
        (self.tag.load(Ordering::Acquire) == before).then_some(out)
    }
}

/// The thread-local slot that holds one thread's lane.
pub(crate) type LocalLane<T> = RefCell<Option<Arc<T>>>;

/// Every thread's lane, in registration order.  A thread registers its lane on
/// first use; `const`-constructible, so a registry is a plain `static`.
pub(crate) struct Lanes<T> {
    all: Mutex<Vec<Arc<T>>>,
}

impl<T> Lanes<T> {
    pub(crate) const fn new() -> Self {
        Lanes {
            all: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` on this thread's lane in `local`, first registering `make(index)`
    /// when the thread has none.  `None` once the thread's locals are torn down.
    pub(crate) fn with_local<R>(
        &self,
        local: &'static LocalKey<LocalLane<T>>,
        make: impl FnOnce(usize) -> T,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        local
            .try_with(|cell| {
                let mut slot = cell.borrow_mut();
                let lane = slot.get_or_insert_with(|| {
                    let mut all = self.all.lock().expect("obs lane registry poisoned");
                    let lane = Arc::new(make(all.len()));
                    all.push(Arc::clone(&lane));
                    lane
                });
                f(lane)
            })
            .ok()
    }

    /// Every registered lane.
    pub(crate) fn snapshot(&self) -> Vec<Arc<T>> {
        self.all.lock().expect("obs lane registry poisoned").clone()
    }
}
