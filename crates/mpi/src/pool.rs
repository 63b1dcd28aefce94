//! Persistent compute-phase helpers for [`crate::Cluster::step_round`].
//!
//! A round's compute phase is tens of microseconds of guest work, so a
//! `thread::scope` per round costs more than it buys. The helpers here live
//! as long as their cluster: each owns one [`ChunkJob`] slot, the round
//! owner *moves* a chunk of nodes into the slot, the helper runs the chunk's
//! slices and the owner moves the nodes back — ownership transfer instead of
//! borrowed `&mut` across threads, so the crate stays free of `unsafe`.
//!
//! Handoff is *bounded spin → `yield_now` → `park`* in both directions. The
//! gap between two posts (the serial exchange phase) and the wait for a
//! helper's half of a round are both a few microseconds, far below a futex
//! round trip, so waiting starts as a spin. The spin is bounded because the
//! waited-for thread may not be on a core at all (`parallelism ×
//! rank_threads` above the core count): yielding hands it the core, and a
//! helper whose cluster has gone serial (or idle) ends up parked and free.

use crate::cluster::run_chunk;
use chaser_vm::{Node, SliceExit};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

/// `pause`-loop iterations before a waiter starts yielding its core.
const SPIN_ITERS: u32 = 128;
/// `yield_now` calls before a waiter parks.
const YIELD_ITERS: u32 = 512;

/// Slot states. The owner moves `IDLE → POSTED` and `DONE → IDLE`, the
/// helper `POSTED → DONE`; `SHUTDOWN` is terminal. Every transition is a
/// `Release` store (or `AcqRel` read-modify-write) paired with the
/// `Acquire` load in [`wait_until`], which orders the job mutex's contents
/// as well — the mutex is never contended, it only makes the slot `Sync`.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const DONE: u8 = 2;
const SHUTDOWN: u8 = 3;

/// A panic payload carried from a helper back to the round owner.
pub(crate) type Payload = Box<dyn Any + Send + 'static>;

/// One chunk's worth of a compute phase. Every buffer is reused across
/// rounds: the owner fills `nodes`/`ranks` and empties `nodes`/`exits`, the
/// helper fills `exits`.
#[derive(Default)]
pub(crate) struct ChunkJob {
    /// The lent nodes, in cluster order.
    pub nodes: Vec<Node>,
    /// Per lent node, its runnable `(rank, pid)`s in ascending rank order.
    pub ranks: Vec<Vec<(u32, u64)>>,
    /// Instructions per slice.
    pub quantum: u64,
    /// Per-slice instruction allowance (`u64::MAX` = none).
    pub slice_budget: u64,
    /// The slice exits the helper recorded.
    pub exits: Vec<(u32, SliceExit)>,
    /// A panic raised by one of the chunk's slices, to be re-raised
    /// unchanged on the owner.
    pub panic: Option<Payload>,
    /// Who to wake when the job is done.
    owner: Option<Thread>,
}

struct Slot {
    state: AtomicU8,
    job: Mutex<ChunkJob>,
}

struct Helper {
    slot: Arc<Slot>,
    thread: JoinHandle<()>,
}

/// The helpers of one cluster. Spawned once, joined on drop.
pub(crate) struct RankPool {
    helpers: Vec<Helper>,
}

impl RankPool {
    /// Spawns up to `helpers` threads. A host that refuses a spawn just
    /// yields a smaller pool; the owner runs whatever is not lent.
    pub fn spawn(helpers: usize) -> RankPool {
        let mut pool = RankPool {
            helpers: Vec::with_capacity(helpers),
        };
        for i in 0..helpers {
            let slot = Arc::new(Slot {
                state: AtomicU8::new(IDLE),
                job: Mutex::new(ChunkJob::default()),
            });
            let theirs = Arc::clone(&slot);
            match thread::Builder::new()
                .name(format!("chaser-rank-{}", i + 1))
                .spawn(move || helper_loop(&theirs))
            {
                Ok(thread) => pool.helpers.push(Helper { slot, thread }),
                Err(_) => break,
            }
        }
        pool
    }

    /// Number of live helper threads.
    pub fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Hands helper `i` a job: `fill` loads the (idle) slot's buffers, then
    /// the helper is released.
    pub fn post(&self, i: usize, fill: impl FnOnce(&mut ChunkJob)) {
        let helper = &self.helpers[i];
        {
            let mut job = helper.slot.job.lock();
            job.owner = Some(thread::current());
            fill(&mut job);
        }
        helper.slot.state.store(POSTED, Ordering::Release);
        helper.thread.thread().unpark();
    }

    /// Waits for helper `i` to finish the job it was posted, lets `take`
    /// unload the slot, and returns the panic the chunk raised, if any.
    pub fn collect(&self, i: usize, take: impl FnOnce(&mut ChunkJob)) -> Option<Payload> {
        let slot = &self.helpers[i].slot;
        wait_until(&slot.state, |s| s == DONE);
        let mut job = slot.job.lock();
        take(&mut job);
        let payload = job.panic.take();
        drop(job);
        slot.state.store(IDLE, Ordering::Release);
        payload
    }
}

impl Drop for RankPool {
    fn drop(&mut self) {
        for helper in &self.helpers {
            helper.slot.state.store(SHUTDOWN, Ordering::Release);
            helper.thread.thread().unpark();
        }
        for helper in self.helpers.drain(..) {
            // Helpers catch their slices' panics, and `drop` must not
            // raise one of its own.
            let _ = helper.thread.join();
        }
    }
}

/// Blocks until `ready(state)`: bounded spin, bounded yield, then park (the
/// writer unparks after every transition the waiter can be waiting for).
fn wait_until(state: &AtomicU8, ready: impl Fn(u8) -> bool) -> u8 {
    let mut tries = 0u32;
    loop {
        let now = state.load(Ordering::Acquire);
        if ready(now) {
            return now;
        }
        if tries < SPIN_ITERS {
            std::hint::spin_loop();
        } else if tries < SPIN_ITERS + YIELD_ITERS {
            thread::yield_now();
        } else {
            thread::park();
            continue;
        }
        tries += 1;
    }
}

fn helper_loop(slot: &Slot) {
    loop {
        if wait_until(&slot.state, |s| s == POSTED || s == SHUTDOWN) == SHUTDOWN {
            return;
        }
        let owner = {
            let mut job = slot.job.lock();
            let job = &mut *job;
            // The nodes stay in the slot across an unwind, so the owner
            // gets them back whatever the slices did.
            job.panic = catch_unwind(AssertUnwindSafe(|| {
                run_chunk(
                    &mut job.nodes,
                    &job.ranks,
                    job.quantum,
                    job.slice_budget,
                    &mut job.exits,
                );
            }))
            .err();
            job.owner.take()
        };
        if slot
            .state
            .compare_exchange(POSTED, DONE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // shut down mid-job
        }
        if let Some(owner) = owner {
            owner.unpark();
        }
    }
}
