//! The per-shard worker pool and the fan-out that feeds it.
//!
//! One long-lived worker thread per shard executes that shard's fan-out work,
//! in the order it was queued. A batched engine call that **spans shards**, and
//! every piece of background work (maintenance flush passes, checkpoints,
//! recovery), talks to those workers directly ([`EngineInner::fan_out_tasks`]):
//! it wraps each shard's task in a job, sends the jobs under the pool's
//! dispatch lock, and reaps exactly as many replies as it sent from a reply
//! channel of its own. There is no thread in between and no table of calls in
//! flight — a call's state lives on its caller's stack. A batched call **one
//! shard owns** (`multi_search`, `insert_batch`, `range_search` whose keys all
//! route to it) crosses to nobody: it runs on its caller's thread
//! ([`EngineInner::run_leg`]), as single-key calls always have, under the same
//! contract as a worker's leg — accounting, health and panics below.
//!
//! * **Ordering.** All of one call's sends happen under the dispatch lock, so
//!   calls that share **two or more** shards are queued in one global order: if
//!   call A is ahead of call B on one shard's queue it is ahead of B on every
//!   shard they share. Each worker runs its queue first-in first-out. A call
//!   one shard owns takes that shard's tree lock like a single-key call and may
//!   overtake a queued leg — harmless, it shares no second shard with anyone.
//! * **Results** are ordered by shard index, never by completion order, and of
//!   several failures the lowest shard index's is the one surfaced.
//! * **Accounting.** The stores simulate time rather than sleep, so overlap is
//!   charged explicitly: the **maximum** per-shard I/O delta of a call is added
//!   to the schedule makespan ([`crate::EngineStats::scheduled_io_us`]), on
//!   success and on error alike.
//! * **Health.** Every reaped outcome feeds its shard's circuit breaker, exactly
//!   as a single-key call's does: batched calls are what a service front end
//!   issues, so they are what must notice a dying device.
//! * **Panics.** A task that panics unwinds on its caller's thread; the worker
//!   that ran it lives on.
//!
//! The threads of an engine are therefore its shard workers plus, when
//! configured, the maintenance worker; batched calls spawn none.

use crate::shard::Shard;
use crate::sharded::EngineInner;
use parking_lot::Mutex;
use pio::{IoError, IoResult};
use pio_btree::PioBTree;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a worker runs: one task of one fan-out, already wrapped to run on the
/// shard ([`Shard::run`]) and to reply to its caller.
type ShardJob = Box<dyn FnOnce(&Shard) + Send>;

/// The shard workers of one engine. Dropping the pool closes the queues and
/// joins the workers; jobs already queued run first.
pub(crate) struct WorkerPool {
    /// Each shard's job queue. The lock is the dispatch lock: a fan-out holds it
    /// across all of its sends (see the module docs).
    queues: Mutex<Vec<Sender<ShardJob>>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns one worker per shard; worker `i` is the only thread that runs
    /// fan-out tasks on `shards[i]`.
    pub(crate) fn spawn(shards: impl Iterator<Item = Arc<Shard>>) -> Self {
        let (queues, handles) = shards
            .enumerate()
            .map(|(index, shard)| {
                let (tx, rx) = channel::<ShardJob>();
                let handle = std::thread::Builder::new()
                    .name(format!("engine-shard-{index}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job(&shard);
                        }
                    })
                    .expect("spawn shard worker");
                (tx, handle)
            })
            .unzip();
        Self {
            queues: Mutex::new(queues),
            handles,
        }
    }

    /// Number of worker threads (one per shard).
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queues.get_mut().clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl EngineInner {
    /// Runs each `(shard, task)` of `work` on its shard's worker and blocks until
    /// all have finished. Results come back ordered by shard index.
    pub(crate) fn fan_out_tasks<T, F>(&self, work: Vec<(usize, F)>) -> IoResult<Vec<(usize, T)>>
    where
        T: Send + 'static,
        F: FnOnce(&mut PioBTree) -> IoResult<T> + Send + 'static,
    {
        if work.is_empty() {
            return Ok(Vec::new());
        }
        let tasks = work.len();
        let (reply_tx, reply_rx) = channel();
        let mut results = Vec::with_capacity(tasks);
        // Per failed shard, its error or the payload of its panic.
        let mut failures: Vec<(usize, std::thread::Result<IoError>)> = Vec::new();
        let mut sent = 0;
        {
            let queues = self.pool.queues.lock();
            for (shard, task) in work {
                let reply = reply_tx.clone();
                let job: ShardJob = Box::new(move |on: &Shard| {
                    // The delta is taken on error and panic too: any I/O the task
                    // did is in the shard's elapsed time and the makespan must
                    // follow it.
                    let (outcome, io_delta_us) =
                        on.run(|tree| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(tree))));
                    // A caller that stopped listening is not the worker's problem.
                    let _ = reply.send((shard, io_delta_us, outcome));
                });
                match queues[shard].send(job) {
                    Ok(()) => sent += 1,
                    Err(_) => failures.push((
                        shard,
                        Ok(IoError::WorkerFailed(format!("shard {shard} worker is gone"))),
                    )),
                }
            }
        }
        drop(reply_tx);
        let mut makespan_us = 0.0f64;
        // Every queued job replies, so the channel closes before `sent` replies
        // only if a worker died with jobs still queued.
        for (shard, io_delta_us, outcome) in reply_rx.iter().take(sent) {
            makespan_us = makespan_us.max(io_delta_us);
            match outcome {
                Ok(result) => {
                    self.shards[shard].health.observe(&result);
                    match result {
                        Ok(value) => results.push((shard, value)),
                        Err(e) => failures.push((shard, Ok(e))),
                    }
                }
                Err(panic) => failures.push((shard, Err(panic))),
            }
        }
        self.charge(makespan_us);
        self.counters.scheduled_batches.fetch_add(1, Ordering::Relaxed);
        match failures.into_iter().min_by_key(|&(shard, _)| shard) {
            Some((_, Ok(e))) => return Err(e),
            Some((_, Err(panic))) => std::panic::resume_unwind(panic),
            None if results.len() < tasks => {
                return Err(IoError::WorkerFailed("a shard worker dropped the call".into()))
            }
            None => {}
        }
        results.sort_by_key(|&(shard, _)| shard);
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, ShardedPioEngine};
    use pio::{IoError, IoResult};
    use pio_btree::{PioBTree, PioConfig};
    use ssd_sim::DeviceProfile;
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Barrier};

    /// A boxed task, so one fan-out can carry a different closure per shard.
    type Task<T> = Box<dyn FnOnce(&mut PioBTree) -> IoResult<T> + Send>;

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
    fn results_are_in_shard_order_when_the_lowest_shard_finishes_last() {
        let engine = engine(3);
        let (done_tx, done_rx) = channel();
        let mut work: Vec<(usize, Task<usize>)> = vec![(
            0,
            Box::new(move |_| {
                // Shard 0 finishes only after both other shards' tasks have.
                done_rx.recv().unwrap();
                done_rx.recv().unwrap();
                Ok(0)
            }),
        )];
        for shard in [2, 1] {
            let done = done_tx.clone();
            work.push((
                shard,
                Box::new(move |_| {
                    done.send(()).unwrap();
                    Ok(shard)
                }),
            ));
        }
        let results = engine.inner().fan_out_tasks(work).unwrap();
        assert_eq!(results, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn the_lowest_failing_shard_wins_and_the_makespan_is_still_charged() {
        let engine = engine(3);
        let before = engine.stats();
        let (failed_tx, failed_rx) = channel();
        let work: Vec<(usize, Task<u64>)> = vec![
            // Real device work, so the call has a makespan to charge.
            (0, Box::new(|tree| tree.count_entries())),
            (
                1,
                Box::new(move |_| {
                    // Fails second, yet must be the error surfaced.
                    failed_rx.recv().unwrap();
                    Err(IoError::InvalidConfig("shard 1 failed".into()))
                }),
            ),
            (
                2,
                Box::new(move |_| {
                    failed_tx.send(()).unwrap();
                    Err(IoError::InvalidConfig("shard 2 failed".into()))
                }),
            ),
        ];
        let err = engine.inner().fan_out_tasks(work).unwrap_err();
        assert!(err.to_string().contains("shard 1 failed"), "{err}");
        let after = engine.stats();
        assert!(
            after.scheduled_io_us > before.scheduled_io_us,
            "shard 0's I/O is charged"
        );
        assert_eq!(after.scheduled_batches, before.scheduled_batches + 1);
    }

    #[test]
    fn a_panicking_task_panics_the_caller_and_the_worker_lives_on() {
        let engine = engine(2);
        let work: Vec<(usize, Task<u64>)> = vec![
            (0, Box::new(|tree| tree.count_entries())),
            (1, Box::new(|_| panic!("task blew up on shard 1"))),
        ];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.inner().fan_out_tasks(work)))
            .expect_err("the task's panic must reach the caller");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .expect("a message payload");
        assert!(message.contains("task blew up on shard 1"), "{message}");
        // Same shard, same worker, next call.
        let counts = engine
            .inner()
            .fan_out_tasks(vec![(1, |tree: &mut PioBTree| tree.count_entries())])
            .unwrap();
        assert_eq!(counts, vec![(1, 1_000)]);
        assert_eq!(engine.search(1_500).unwrap(), Some(1_500));
    }

    /// The contract of a worker's leg, kept by a leg run on its caller.
    #[test]
    fn an_inline_leg_panics_its_caller_frees_the_shard_and_is_charged() {
        let engine = engine(2);
        let inner = engine.inner();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.run_leg(1, |_| -> IoResult<()> { panic!("leg blew up on shard 1") })
        }))
        .expect_err("the leg's panic must reach the caller");
        let message = panic.downcast_ref::<&str>().expect("a message payload");
        assert!(message.contains("leg blew up on shard 1"), "{message}");
        // Same shard, next call, both routes: the tree lock was let go.
        assert_eq!(inner.run_leg(1, |tree| tree.count_entries()).unwrap(), 1_000);
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
        let err = inner.run_leg(0, |tree| {
            tree.count_entries()?;
            Err::<(), _>(IoError::InvalidConfig("leg failed on shard 0".into()))
        });
        assert!(err.unwrap_err().to_string().contains("leg failed on shard 0"));
        let failed = engine.stats();
        assert_eq!(failed.scheduled_batches, after.scheduled_batches + 1);
        assert!(failed.scheduled_io_us > after.scheduled_io_us);
    }

    /// Calls that share two shards are queued in one order; calls one shard
    /// owns run beside them on their callers' threads, overtake nothing they
    /// share a second shard with, and hold nobody up.
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
