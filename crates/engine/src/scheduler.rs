//! The fan-out: how a batched call that spans shards runs its legs.
//!
//! Every engine call runs on its caller's thread, and the engine starts no
//! thread. A batched call that **spans shards**, and every piece of
//! maintenance work (flush passes, checkpoints, recovery), splits its work by
//! shard and hands it to
//! [`ShardedPioEngine::fan_out_tasks`], which locks every member shard's tree in
//! ascending shard order and then runs the legs one after another, lowest
//! shard first. A batched call **one shard owns** (`multi_search`,
//! `insert_batch`, `range_search` whose keys all route to it) skips the
//! partition and runs its one leg ([`ShardedPioEngine::run_leg`]) as single-key
//! calls do, under the same contract — accounting, health and panics below.
//!
//! * **Ordering.** A fan-out holds every member's tree lock before its first
//!   leg starts, and takes them lowest shard first, so calls that share **two
//!   or more** shards are ordered the same way on every shard they share: the
//!   one that got the lowest shared lock first gets the others first too, and
//!   no two fan-outs can wait on each other. A leg lets its shard go as soon
//!   as it finishes. A call one shard owns takes that shard's tree lock like a
//!   single-key call — it shares no second shard with anyone, so there is no
//!   order to break.
//! * **Results** are ordered by shard index, and of several failures the
//!   lowest shard index's is the one surfaced.
//! * **Accounting.** The stores simulate time rather than sleep, so overlap is
//!   charged explicitly: the **maximum** per-shard I/O delta of a call is added
//!   to the schedule makespan ([`crate::EngineStats::scheduled_io_us`]), on
//!   success and on error alike. Legs run in turn on one thread submit the
//!   same tickets as legs run side by side, so the charge is the same.
//! * **Health.** Every leg's outcome feeds its shard's circuit breaker, exactly
//!   as a single-key call's does: batched calls are what a service front end
//!   issues, so they are what must notice a dying device.
//! * **Panics.** A leg that panics is caught with its shard's lock released;
//!   the legs after it still run, and the panic is re-raised on the caller
//!   once the call is counted.

use crate::sharded::ShardedPioEngine;
use pio::{IoError, IoResult};
use pio_btree::PioBTree;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

impl ShardedPioEngine {
    /// Runs each `(shard, task)` of `work` on its shard, on the calling thread,
    /// and returns the results ordered by shard index. No shard may appear
    /// twice.
    pub(crate) fn fan_out_tasks<T, F>(&self, mut work: Vec<(usize, F)>) -> IoResult<Vec<(usize, T)>>
    where
        F: FnOnce(&mut PioBTree) -> IoResult<T>,
    {
        if work.is_empty() {
            return Ok(Vec::new());
        }
        work.sort_unstable_by_key(|&(shard, _)| shard);
        debug_assert!(work.windows(2).all(|pair| pair[0].0 < pair[1].0), "one leg per shard");
        // The lock point: every member's tree, lowest shard first.
        let legs: Vec<_> = work
            .into_iter()
            .map(|(shard, task)| (shard, task, self.shards[shard].tree.lock()))
            .collect();
        let mut results = Vec::with_capacity(legs.len());
        // Legs run lowest shard first, so the first failure is the lowest
        // shard's: its error, or the payload of its panic.
        let mut failure: Option<std::thread::Result<IoError>> = None;
        let mut makespan_us = 0.0f64;
        for (shard, task, mut tree) in legs {
            // The delta is taken on error and panic too: any I/O the task did
            // is in the shard's elapsed time and the makespan must follow it.
            let before = tree.io_elapsed_us();
            let outcome = catch_unwind(AssertUnwindSafe(|| task(&mut tree)));
            makespan_us = makespan_us.max(tree.io_elapsed_us() - before);
            drop(tree);
            match outcome {
                Ok(result) => {
                    self.shards[shard].health.observe(&result);
                    match result {
                        Ok(value) => results.push((shard, value)),
                        Err(e) => {
                            failure.get_or_insert(Ok(e));
                        }
                    }
                }
                Err(panic) => {
                    failure.get_or_insert(Err(panic));
                }
            }
        }
        self.charge(makespan_us);
        self.counters.scheduled_batches.fetch_add(1, Ordering::Relaxed);
        match failure {
            Some(Ok(e)) => Err(e),
            Some(Err(panic)) => resume_unwind(panic),
            None => Ok(results),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, ShardedPioEngine};
    use pio::{IoError, IoResult};
    use pio_btree::{PioBTree, PioConfig};
    use ssd_sim::DeviceProfile;
    use std::cell::{Cell, RefCell};
    use std::sync::{Arc, Barrier};

    /// A boxed task, so one fan-out can carry a different closure per shard.
    type Task<'a, T> = Box<dyn FnOnce(&mut PioBTree) -> IoResult<T> + 'a>;

    /// One thread's call of a round of the ordering test.
    type Call = Box<dyn Fn(&ShardedPioEngine, u64) + Send>;

    /// A bulk-loaded engine whose shard `i` owns the keys `[i * 1000, (i + 1) * 1000)`.
    fn engine(shards: usize) -> ShardedPioEngine {
        let config = EngineConfig::builder()
            .shards(shards)
            .profile(DeviceProfile::F120)
            .shard_capacity_bytes(1 << 30)
            .base(PioConfig::builder().page_size(2048).opq_pages(1).pool_pages(64).build())
            .build();
        let entries: Vec<(u64, u64)> = (0..shards as u64 * 1_000).map(|k| (k, k)).collect();
        let engine = ShardedPioEngine::bulk_load(config, &entries).unwrap();
        for shard in 0..shards {
            assert_eq!(engine.shard_for(shard as u64 * 1_000), shard);
        }
        engine
    }

    #[test]
    fn results_are_in_shard_order_when_the_work_comes_in_descending() {
        let engine = engine(3);
        let ran = RefCell::new(Vec::new());
        let work: Vec<(usize, Task<usize>)> = [2, 1, 0]
            .into_iter()
            .map(|shard| -> (usize, Task<usize>) {
                let ran = &ran;
                (
                    shard,
                    Box::new(move |_| {
                        ran.borrow_mut().push(shard);
                        Ok(shard)
                    }),
                )
            })
            .collect();
        let results = engine.fan_out_tasks(work).unwrap();
        assert_eq!(results, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(ran.into_inner(), [0, 1, 2], "legs run lowest shard first");
    }

    #[test]
    fn the_lowest_failing_shard_wins_and_the_makespan_is_still_charged() {
        let engine = engine(3);
        let before = engine.stats();
        let shard_2_ran = Cell::new(false);
        let work: Vec<(usize, Task<u64>)> = vec![
            (
                2,
                Box::new(|_| {
                    shard_2_ran.set(true);
                    Err(IoError::InvalidConfig("shard 2 failed".into()))
                }),
            ),
            // Fails before shard 2 and must be the error surfaced.
            (1, Box::new(|_| Err(IoError::InvalidConfig("shard 1 failed".into())))),
            // Real device work, so the call has a makespan to charge.
            (0, Box::new(|tree| tree.count_entries())),
        ];
        let err = engine.fan_out_tasks(work).unwrap_err();
        assert!(err.to_string().contains("shard 1 failed"), "{err}");
        assert!(shard_2_ran.get(), "a leg after a failed one still runs");
        let after = engine.stats();
        assert!(
            after.scheduled_io_us > before.scheduled_io_us,
            "shard 0's I/O is charged"
        );
        assert_eq!(after.scheduled_batches, before.scheduled_batches + 1);
    }

    #[test]
    fn a_panicking_task_panics_the_caller_once_every_leg_has_run() {
        let engine = engine(3);
        let shard_2_ran = Cell::new(false);
        let work: Vec<(usize, Task<u64>)> = vec![
            (0, Box::new(|tree| tree.count_entries())),
            (1, Box::new(|_| panic!("task blew up on shard 1"))),
            (
                2,
                Box::new(|tree| {
                    shard_2_ran.set(true);
                    tree.count_entries()
                }),
            ),
        ];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.fan_out_tasks(work)))
            .expect_err("the task's panic must reach the caller");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .expect("a message payload");
        assert!(message.contains("task blew up on shard 1"), "{message}");
        assert!(shard_2_ran.get(), "the legs after the panic still ran");
        // Same shard, next call: its tree lock was let go.
        let counts = engine
            .fan_out_tasks(vec![(1, |tree: &mut PioBTree| tree.count_entries())])
            .unwrap();
        assert_eq!(counts, vec![(1, 1_000)]);
        assert_eq!(engine.search(1_500).unwrap(), Some(1_500));
    }

    /// The contract of a fan-out's leg, kept by the one leg of a call one shard
    /// owns.
    #[test]
    fn an_inline_leg_panics_its_caller_frees_the_shard_and_is_charged() {
        let engine = engine(2);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_leg(1, |_| -> IoResult<()> { panic!("leg blew up on shard 1") })
        }))
        .expect_err("the leg's panic must reach the caller");
        let message = panic.downcast_ref::<&str>().expect("a message payload");
        assert!(message.contains("leg blew up on shard 1"), "{message}");
        // Same shard, next call, both routes: the tree lock was let go.
        assert_eq!(engine.run_leg(1, |tree| tree.count_entries()).unwrap(), 1_000);
        assert_eq!(
            engine.multi_search(&[1_500, 1_501]).unwrap(),
            [Some(1_500), Some(1_501)]
        );
        assert_eq!(engine.count_entries().unwrap(), 2_000);

        let before = engine.stats();
        let found = engine.multi_search(&(1_000..1_064).collect::<Vec<_>>()).unwrap();
        assert!(found.iter().all(Option::is_some));
        let after = engine.stats();
        assert_eq!(after.scheduled_batches, before.scheduled_batches + 1);
        let io_us = after.shards[1].io_elapsed_us - before.shards[1].io_elapsed_us;
        assert!(io_us > 0.0, "a cold search reads the device");
        assert!(
            (after.scheduled_io_us - before.scheduled_io_us - io_us).abs() < 1e-6,
            "the leg's whole I/O delta is the call's makespan"
        );
        // An error is charged and counted like a success.
        let err = engine.run_leg(0, |tree| {
            tree.count_entries()?;
            Err::<(), _>(IoError::InvalidConfig("leg failed on shard 0".into()))
        });
        assert!(err.unwrap_err().to_string().contains("leg failed on shard 0"));
        let failed = engine.stats();
        assert_eq!(failed.scheduled_batches, after.scheduled_batches + 1);
        assert!(failed.scheduled_io_us > after.scheduled_io_us);
    }

    /// Calls that share two shards take their locks in one order; calls one
    /// shard owns run beside them, overtake nothing they share a second shard
    /// with, and hold nobody up.
    #[test]
    fn overlapping_batches_end_with_the_same_winner_on_every_shard() {
        let engine = Arc::new(engine(2));
        let rounds = 2_000u64;
        let barrier = Arc::new(Barrier::new(5));
        // The two-shard writers, then other keys of the same two shards with
        // every call owned by one shard: batches into shard 0, searches in
        // shard 1. Each round, between the barriers, every thread makes one call.
        let two_shard_writer = |writer: u64| -> Call {
            Box::new(move |engine, round| {
                let value = round * 2 + writer;
                engine.insert_batch(&[(10, value), (1_010, value)]).unwrap();
            })
        };
        let calls: Vec<Call> = vec![
            two_shard_writer(0),
            two_shard_writer(1),
            Box::new(|engine, round| engine.insert_batch(&[(20, round), (21, round)]).unwrap()),
            Box::new(|engine, _| {
                assert_eq!(
                    engine.multi_search(&[1_020, 1_021]).unwrap(),
                    [Some(1_020), Some(1_021)]
                );
            }),
        ];
        let threads: Vec<_> = calls
            .into_iter()
            .map(|call| {
                let (engine, barrier) = (Arc::clone(&engine), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        barrier.wait();
                        call(&engine, round);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for round in 0..rounds {
            barrier.wait(); // every thread issues its call
            barrier.wait(); // every call has returned: no two-shard batch was held up
            let winners = engine.multi_search(&[10, 1_010]).unwrap();
            assert_eq!(
                winners[0], winners[1],
                "round {round}: the shards disagree on the last batch"
            );
            let local = engine.multi_search(&[20, 21]).unwrap();
            assert_eq!(
                local,
                [Some(round), Some(round)],
                "the single-shard writer's last batch"
            );
        }
        for thread in threads {
            thread.join().unwrap();
        }
    }
}
