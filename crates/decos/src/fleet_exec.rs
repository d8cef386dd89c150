//! Sharded work-stealing execution over a dense index space — the one
//! parallel executor of the workspace (fleets, the stored fleet and
//! experiment sweeps all run on it).
//!
//! It has two primitives:
//!
//! - [`run_sharded`] for **streaming aggregation** — a shard folds each
//!   finished item into its own accumulator immediately instead of
//!   materializing a fleet-sized `Vec` of per-item results. Shards claim
//!   index *blocks* of a caller-chosen size from a shared atomic cursor
//!   (**work stealing**), so an expensive item idles one shard for one
//!   block, not a whole contiguous range. The in-memory fleet claims
//!   single vehicles (block size 1): a claim is one atomic add against
//!   milliseconds of simulation, and the slowest vehicle, not the slowest
//!   block of vehicles, sets the tail.
//! - `for_each_ordered` for **ordered streaming** — workers claim one
//!   index at a time and the results reach a sink on the calling thread
//!   in index order, within a bounded window ahead of the sink. The
//!   stored fleet journals through it (the sink owns the store, which
//!   need not be `Send`), and [`map_ordered`] collects through it with a
//!   window spanning every item.
//!
//! Determinism contract: every index is processed by exactly one shard;
//! which shard got which index varies between runs. Aggregates that are
//! order-invariant (integer counters), that the caller folds in a fixed
//! index order (`FleetAccumulator` sorts its per-vehicle delivery
//! qualities by index before it folds them), or that a sink receives in
//! index order are therefore bit-identical for any shard count,
//! including 1.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Runs `work` over `0..items` split into `block`-sized index blocks,
/// dealt to `shards` worker threads through an atomic cursor.
///
/// `init` builds one accumulator per shard; `work` processes one
/// ascending index block into the shard's accumulator. Returns the
/// per-shard accumulators in shard-index order (the caller merges them
/// in that order so any order-sensitive fold stays deterministic).
///
/// `shards` is clamped to the number of blocks (an idle shard would only
/// return an empty accumulator) and to a minimum of 1; with one shard
/// the blocks run sequentially on the calling thread — same block
/// bookkeeping, no thread machinery.
pub fn run_sharded<A, I, W>(items: u64, block: u64, shards: usize, init: I, work: W) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    W: Fn(&mut A, Range<u64>) + Sync,
{
    let block = block.max(1);
    let blocks = items.div_ceil(block);
    let shards = shards.clamp(1, blocks.max(1).min(usize::MAX as u64) as usize);
    let block_range = |b: u64| {
        let lo = b * block;
        lo..(lo + block).min(items)
    };
    if shards <= 1 {
        let mut acc = init();
        for b in 0..blocks {
            work(&mut acc, block_range(b));
        }
        return vec![acc];
    }
    let cursor = AtomicU64::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|_| {
                let (cursor, init, work) = (&cursor, &init, &work);
                s.spawn(move || {
                    let mut acc = init();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= blocks {
                            break;
                        }
                        work(&mut acc, block_range(b));
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("fleet shard panicked")).collect()
    })
}

/// What the workers and the caller of `for_each_ordered` share, under
/// one mutex.
struct Stream<R> {
    /// Next index a worker claims. Claiming and the window test are one
    /// step under the lock, so a worker waiting on the window holds no
    /// index.
    claimed: u64,
    /// Finished results the caller has not taken yet: `done[k]` holds the
    /// result of index `taken + k` once a worker produced it.
    done: VecDeque<Option<R>>,
    /// Results the caller has taken off `done`.
    taken: u64,
    /// Results the sink has accepted: the lowest index not yet sunk, the
    /// base of the window.
    sunk: u64,
    /// No worker starts another index: the caller stopped early (sink
    /// error or unwinding) or a worker panicked.
    stop: bool,
    /// A worker panicked, so its index will never arrive.
    panicked: bool,
}

struct Shared<R> {
    stream: Mutex<Stream<R>>,
    /// Wakes the caller: index `taken` is done, or a worker panicked.
    ready: Condvar,
    /// Wakes waiting workers: the window moved, or the run stopped.
    room: Condvar,
}

impl<R> Shared<R> {
    /// Locks the stream. Neither `work` nor the sink runs under the lock
    /// and every update below leaves the stream consistent, so a poisoned
    /// lock (a panic in an allocation) is safe to recover; the panic
    /// itself still surfaces through the worker's join.
    fn lock(&self) -> MutexGuard<'_, Stream<R>> {
        self.stream.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stop(&self, panicked: bool) {
        let mut s = self.lock();
        s.stop = true;
        s.panicked |= panicked;
        drop(s);
        self.room.notify_all();
        self.ready.notify_all();
    }
}

/// Stops the stream when dropped: on a worker only while it unwinds (its
/// index is lost, so the caller must not wait for it), on the caller
/// always (every index is sunk, the sink failed, or the sink panicked —
/// in each case no worker may wait on a window that will not move).
struct StopOnDrop<'a, R> {
    shared: &'a Shared<R>,
    worker: bool,
}

impl<R> Drop for StopOnDrop<'_, R> {
    fn drop(&mut self) {
        let panicked = std::thread::panicking();
        if panicked || !self.worker {
            self.shared.stop(self.worker && panicked);
        }
    }
}

/// Streams `work` over `0..items` on `shards` worker threads and hands
/// every result to `sink` on the calling thread, in ascending index
/// order, while the workers go on with later indices.
///
/// The workers live for the whole call and claim one index at a time;
/// no worker starts an index at or beyond the lowest index not yet sunk
/// plus `window`, so at most `window` results (finished or in flight)
/// wait for the sink. A sink error stops further claims and is returned
/// once the workers have finished the indices they hold. A panic in
/// `work` stops the stream and is resumed on the calling thread; a panic
/// in `sink` stops the workers before it unwinds out of the call.
///
/// `shards` is clamped to `items` and `window` (an extra worker would
/// only wait) and to a minimum of 1; with one shard every index runs on
/// the calling thread, each sunk before the next starts.
pub(crate) fn for_each_ordered<R, E, W, S>(
    items: u64,
    shards: usize,
    window: u64,
    work: W,
    mut sink: S,
) -> Result<(), E>
where
    R: Send,
    W: Fn(u64) -> R + Sync,
    S: FnMut(u64, R) -> Result<(), E>,
{
    let window = window.max(1);
    let shards = shards.clamp(1, items.min(window).max(1).min(usize::MAX as u64) as usize);
    if shards <= 1 {
        return (0..items).try_for_each(|i| sink(i, work(i)));
    }
    let shared = Shared {
        stream: Mutex::new(Stream {
            claimed: 0,
            done: VecDeque::new(),
            taken: 0,
            sunk: 0,
            stop: false,
            panicked: false,
        }),
        ready: Condvar::new(),
        room: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|_| {
                let (shared, work) = (&shared, &work);
                scope.spawn(move || {
                    let _guard = StopOnDrop { shared, worker: true };
                    let mut s = shared.lock();
                    loop {
                        if s.stop || s.claimed >= items {
                            return;
                        }
                        let i = s.claimed;
                        if i >= s.sunk.saturating_add(window) {
                            s = shared.room.wait(s).unwrap_or_else(PoisonError::into_inner);
                            continue;
                        }
                        s.claimed += 1;
                        drop(s);
                        let r = work(i);
                        s = shared.lock();
                        let k = (i - s.taken) as usize;
                        if s.done.len() <= k {
                            s.done.resize_with(k + 1, || None);
                        }
                        s.done[k] = Some(r);
                        if k == 0 {
                            shared.ready.notify_one();
                        }
                    }
                })
            })
            .collect();
        let result = {
            let _guard = StopOnDrop { shared: &shared, worker: false };
            sink_in_order(&shared, items, window, &mut sink)
        };
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
        result
    })
}

/// The calling thread's half of `for_each_ordered`: takes each run of
/// consecutive finished results off the stream and sinks it outside the
/// lock, moving the window after every item.
fn sink_in_order<R, E>(
    shared: &Shared<R>,
    items: u64,
    window: u64,
    sink: &mut impl FnMut(u64, R) -> Result<(), E>,
) -> Result<(), E> {
    let mut next = 0;
    while next < items {
        let run: Vec<R> = {
            let mut s = shared.lock();
            while !s.panicked && !matches!(s.done.front(), Some(Some(_))) {
                s = shared.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            if s.panicked {
                // The join resumes the worker's panic.
                return Ok(());
            }
            let n = s.done.iter().take_while(|r| r.is_some()).count();
            s.taken += n as u64;
            s.done.drain(..n).flatten().collect()
        };
        for r in run {
            sink(next, r)?;
            next += 1;
            // With the window at every item no worker ever waits on it.
            if window < items {
                shared.lock().sunk = next;
                shared.room.notify_all();
            }
        }
    }
    Ok(())
}

/// Maps `f` over `0..items` on `for_each_ordered` and returns the
/// results in index order. The window spans every item, so no worker
/// ever waits for the caller.
pub fn map_ordered<R, F>(items: u64, shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let mut out = Vec::new();
    let Ok(()) = for_each_ordered(items, shards, items, f, |_, r| {
        out.push(r);
        Ok::<(), Infallible>(())
    });
    out
}

/// One shard per available core: the executor's default when the caller
/// pins no shard count.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Collects every processed index; merging in shard order must
    /// reconstruct a permutation of the input space with no duplicates.
    fn indices(items: u64, block: u64, shards: usize) -> Vec<Vec<u64>> {
        run_sharded(items, block, shards, Vec::new, |acc: &mut Vec<u64>, r| acc.extend(r))
    }

    fn flatten_sorted(parts: Vec<Vec<u64>>) -> Vec<u64> {
        let mut all: Vec<u64> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn empty_input_yields_one_empty_shard() {
        let parts = indices(0, 64, 8);
        assert_eq!(parts.len(), 1, "no items → no idle shard fan-out");
        assert!(parts[0].is_empty());
    }

    #[test]
    fn fewer_items_than_shards_covers_exactly_once() {
        let parts = indices(3, 1, 8);
        assert_eq!(parts.len(), 3, "shards clamp to block count");
        assert_eq!(flatten_sorted(parts), vec![0, 1, 2]);
    }

    #[test]
    fn one_more_item_than_shards_covers_exactly_once() {
        let parts = indices(5, 1, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(flatten_sorted(parts), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_shard_runs_blocks_in_ascending_order() {
        let parts = indices(10, 3, 1);
        assert_eq!(parts, vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]);
    }

    #[test]
    fn partial_trailing_block_is_not_overrun() {
        let parts = indices(130, 64, 2);
        assert_eq!(flatten_sorted(parts), (0..130).collect::<Vec<_>>());
    }

    #[test]
    fn shard_indices_are_strictly_increasing_within_a_shard() {
        for shards in [1, 2, 3, 7] {
            for part in indices(200, 8, shards) {
                assert!(part.windows(2).all(|w| w[0] < w[1]), "shard saw {part:?}");
            }
        }
    }

    #[test]
    fn straggler_block_does_not_idle_the_other_shard() {
        // Index 0 sleeps long enough for the other shard to drain every
        // remaining near-instant block off the shared cursor.
        let parts = run_sharded(8, 1, 2, Vec::new, |acc: &mut Vec<u64>, r| {
            for i in r {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(150));
                }
                acc.push(i);
            }
        });
        assert_eq!(flatten_sorted(parts.clone()), (0..8).collect::<Vec<_>>());
        let straggler =
            parts.iter().find(|p| p.contains(&0)).expect("some shard processed index 0");
        assert_eq!(
            straggler,
            &vec![0],
            "work stealing must let the free shard take the remaining blocks"
        );
    }

    #[test]
    fn map_ordered_keeps_input_order_behind_a_straggler() {
        // Index 0 waits until the last index has finished (the other
        // shard drains the remaining blocks), so it finishes last; the
        // output must still be in index order.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let done_rx = std::sync::Mutex::new(done_rx);
        let xs = map_ordered(64, 2, |i| {
            match i {
                0 => {
                    let rx = done_rx.lock().expect("only index 0 takes the receiver");
                    rx.recv_timeout(Duration::from_secs(10)).expect("index 63 finishes first");
                }
                63 => done_tx.send(()).expect("index 0 is still waiting"),
                _ => {}
            }
            i * i
        });
        assert_eq!(xs, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_ordered_of_empty_input_is_empty() {
        assert!(map_ordered(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_ordered_with_fewer_items_than_shards_covers_every_item() {
        for n in 1..=4 {
            assert_eq!(map_ordered(n, 8, |i| i + 1), (1..=n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn map_ordered_with_one_more_item_than_shards_covers_every_item() {
        for shards in [1, 2, 3, 7] {
            let n = shards as u64 + 1;
            assert_eq!(
                map_ordered(n, shards, |i| i * 2),
                (0..n).map(|i| i * 2).collect::<Vec<_>>()
            );
        }
    }

    /// Index 0 of a `for_each_ordered` run blocks until every other
    /// index its window admits has finished; returns the sunk indices and
    /// the highest index any worker had started when index 0 resumed.
    fn ordered_behind_blocked_zero(items: u64, shards: usize, window: u64) -> (Vec<u64>, u64) {
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc;
        let started = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let (tx, rx) = mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let seen_at_resume = AtomicU64::new(0);
        let mut sunk = Vec::new();
        let ok: Result<(), ()> = for_each_ordered(
            items,
            shards,
            window,
            |i| {
                started.fetch_max(i, Ordering::SeqCst);
                if i == 0 {
                    let rx = rx.lock().expect("only index 0 takes the receiver");
                    rx.recv_timeout(Duration::from_secs(10))
                        .expect("indices 1..window finish while index 0 waits");
                    // Give a worker that ignored the window the time to
                    // start a further index before looking.
                    std::thread::sleep(Duration::from_millis(30));
                    seen_at_resume.store(started.load(Ordering::SeqCst), Ordering::SeqCst);
                } else if finished.fetch_add(1, Ordering::SeqCst) + 2 == window.min(items) {
                    tx.lock().expect("one sender").send(()).expect("index 0 is waiting");
                }
                i * 3
            },
            |i, r| {
                assert_eq!(r, i * 3, "result {r} sunk as index {i}");
                sunk.push(i);
                Ok(())
            },
        );
        assert!(ok.is_ok());
        (sunk, seen_at_resume.load(Ordering::SeqCst))
    }

    #[test]
    fn for_each_ordered_sinks_in_index_order_behind_a_blocked_index() {
        for (items, shards, window) in [(40, 3, 8), (40, 2, 40), (5, 4, 3)] {
            let (sunk, _) = ordered_behind_blocked_zero(items, shards, window);
            assert_eq!(sunk, (0..items).collect::<Vec<_>>(), "{items} items, {shards} shards");
        }
    }

    #[test]
    fn for_each_ordered_starts_nothing_past_the_window_of_an_unsunk_index() {
        let (sunk, highest) = ordered_behind_blocked_zero(64, 3, 8);
        assert_eq!(highest, 7, "index 0 unsunk: workers start exactly indices 1..8");
        assert_eq!(sunk.len(), 64);
    }

    #[test]
    fn for_each_ordered_returns_a_sink_error_and_stops_claiming() {
        use std::sync::atomic::AtomicU64;
        let started = AtomicU64::new(0);
        let window = 4;
        let mut sunk = Vec::new();
        let err = for_each_ordered(
            1_000,
            2,
            window,
            |i| {
                started.fetch_add(1, Ordering::SeqCst);
                i
            },
            |i, _| {
                if i == 5 {
                    return Err(format!("sink refused {i}"));
                }
                sunk.push(i);
                Ok(())
            },
        );
        assert_eq!(err, Err("sink refused 5".to_string()));
        assert_eq!(sunk, vec![0, 1, 2, 3, 4]);
        // Index 5 was never sunk, so nothing at or past 5 + window started.
        assert!(started.load(Ordering::SeqCst) <= 5 + window, "started past the stop");
    }

    #[test]
    fn for_each_ordered_on_one_shard_sinks_each_index_before_the_next_starts() {
        let log = Mutex::new(Vec::new());
        let ok: Result<(), ()> = for_each_ordered(
            4,
            1,
            2,
            |i| log.lock().expect("no panics").push(format!("w{i}")),
            |i, ()| {
                log.lock().expect("no panics").push(format!("s{i}"));
                Ok(())
            },
        );
        assert!(ok.is_ok());
        let log = log.into_inner().expect("no panics");
        assert_eq!(log, ["w0", "s0", "w1", "s1", "w2", "s2", "w3", "s3"]);
        let mut none = 0;
        let empty: Result<(), ()> = for_each_ordered(
            0,
            1,
            2,
            |_| (),
            |_, ()| {
                none += 1;
                Ok(())
            },
        );
        assert_eq!((empty, none), (Ok(()), 0));
    }

    /// Runs `f` on its own thread and returns its panic message, failing
    /// the test if it neither panics nor returns within a few seconds.
    fn panic_message_within_bound(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(caught);
        });
        let caught = rx.recv_timeout(Duration::from_secs(10)).expect("the call hung");
        let payload = caught.expect_err("the call must panic");
        payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default()
    }

    #[test]
    fn for_each_ordered_panics_instead_of_hanging_when_an_item_panics() {
        use std::sync::atomic::AtomicU64;
        // Index 0 panics once the other workers sit on the window, so
        // neither they nor the caller may wait for it.
        let msg = panic_message_within_bound(|| {
            let finished = AtomicU64::new(0);
            let _: Result<(), ()> = for_each_ordered(
                100,
                3,
                4,
                |i| {
                    if i == 0 {
                        while finished.load(Ordering::SeqCst) < 3 {
                            std::thread::yield_now();
                        }
                        panic!("vehicle 0 panicked");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                },
                |_, ()| Ok(()),
            );
        });
        assert_eq!(msg, "vehicle 0 panicked");
        // A panicking sink must release the workers waiting on its window.
        let msg = panic_message_within_bound(|| {
            let _: Result<(), ()> =
                for_each_ordered(100, 2, 2, |_| (), |_, ()| panic!("sink panicked"));
        });
        assert_eq!(msg, "sink panicked");
    }
}
