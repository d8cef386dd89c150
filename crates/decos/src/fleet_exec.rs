//! Sharded work-stealing execution over a dense index space — the one
//! parallel executor of the workspace (fleets, stored-fleet batches and
//! experiment sweeps all run on it).
//!
//! The fleet path needs two properties a static contiguous split cannot
//! give it at 10⁶ vehicles:
//!
//! 1. **Streaming aggregation** — a shard folds each finished item into
//!    its own accumulator immediately instead of materializing a
//!    fleet-sized `Vec` of per-item results.
//! 2. **Work stealing** — shards claim index *blocks* of a caller-chosen
//!    size from a shared atomic cursor, so an expensive item idles one
//!    shard for one block, not a whole contiguous range. The in-memory
//!    fleet claims single vehicles (block size 1): a claim is one atomic
//!    add against milliseconds of simulation, and the slowest vehicle,
//!    not the slowest block of vehicles, sets the tail.
//!
//! Callers that do want every result back, in order, use [`map_ordered`]
//! on top of the same executor.
//!
//! Determinism contract: every index is processed by exactly one shard;
//! which shard got which block varies between runs. Aggregates that are
//! order-invariant (integer counters), or that the caller folds in a
//! fixed index order (`FleetAccumulator` sorts its per-vehicle delivery
//! qualities by index before it folds them), are therefore bit-identical
//! for any shard count, including 1.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Blocks dealt per shard by [`map_ordered`]: enough that a straggler
/// block leaves the other shards something to steal, few enough that the
/// cursor is not contended on cheap items.
const MAP_BLOCKS_PER_SHARD: u64 = 4;

/// Maps `f` over `0..items` on [`run_sharded`] and returns the results in
/// index order, whichever shard finished which block first.
///
/// The block size follows from `items` and `shards` (about
/// `MAP_BLOCKS_PER_SHARD` blocks per shard); since every result lands
/// at its own index, it never shows in the output.
pub fn map_ordered<R, F>(items: u64, shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let block = items.div_ceil(shards.max(1) as u64 * MAP_BLOCKS_PER_SHARD);
    let parts = run_sharded(items, block, shards, Vec::new, |acc: &mut Vec<(u64, R)>, r| {
        acc.extend(r.map(|i| (i, f(i))));
    });
    let mut pairs: Vec<(u64, R)> = parts.into_iter().flatten().collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
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
}
