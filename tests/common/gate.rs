//! A gate in front of an [`IoQueue`]'s writes, so a test can hold an engine
//! call *inside* its I/O for as long as it likes — deterministically, with no
//! sleeps: the service parks requests only behind a batch that is executing,
//! and a put batch whose shard-WAL force waits at a shut gate is exactly that.

#![allow(dead_code)]

use engine::{EngineBackends, EngineBuilder, EngineConfig, ShardedPioEngine};
use pio::{Completion, IoQueue, IoResult, IoStats, ReadRequest, SimPsyncIo, Ticket, WriteRequest};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Default)]
struct GateState {
    shut: bool,
    /// Write submissions waiting at the gate right now.
    waiting: usize,
}

/// The gate itself: open when built. Shared by every [`GateIo`] it guards.
#[derive(Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
    /// Wall-clock time every write submission spends at the gate, open or not.
    toll: Duration,
}

impl Gate {
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// A gate every write submission takes `toll` of wall-clock time to pass:
    /// a device that is slow for real. The simulated backends complete at
    /// once, so without it nothing inside an engine call gives up the CPU —
    /// and on one CPU nobody ever finds a batch executing.
    pub fn with_toll(toll: Duration) -> Arc<Self> {
        Arc::new(Self {
            toll,
            ..Self::default()
        })
    }

    /// From now on write submissions block at the gate.
    pub fn shut(&self) {
        self.state.lock().unwrap().shut = true;
    }

    /// Lets every waiting (and later) write submission through.
    pub fn open(&self) {
        self.state.lock().unwrap().shut = false;
        self.changed.notify_all();
    }

    /// Returns once `writers` write submissions are waiting at the gate.
    pub fn wait_until_blocked(&self, writers: usize) {
        let mut state = self.state.lock().unwrap();
        while state.waiting < writers {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn pass(&self) {
        if !self.toll.is_zero() {
            std::thread::sleep(self.toll);
        }
        let mut state = self.state.lock().unwrap();
        state.waiting += 1;
        self.changed.notify_all();
        while state.shut {
            state = self.changed.wait(state).unwrap();
        }
        state.waiting -= 1;
    }
}

/// An [`IoQueue`] whose write submissions wait at a [`Gate`]; everything else
/// passes straight through.
pub struct GateIo {
    inner: Arc<dyn IoQueue>,
    gate: Arc<Gate>,
}

impl GateIo {
    pub fn wrap(inner: Arc<dyn IoQueue>, gate: &Arc<Gate>) -> Arc<dyn IoQueue> {
        let gate = Arc::clone(gate);
        Arc::new(Self { inner, gate })
    }
}

impl IoQueue for GateIo {
    fn submit_read(&self, reqs: &[ReadRequest]) -> IoResult<Ticket> {
        self.inner.submit_read(reqs)
    }

    fn submit_write(&self, reqs: &[WriteRequest<'_>]) -> IoResult<Ticket> {
        self.gate.pass();
        self.inner.submit_write(reqs)
    }

    fn wait(&self, ticket: Ticket) -> IoResult<Completion> {
        self.inner.wait(ticket)
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }

    fn queue_depth_hint(&self) -> Option<usize> {
        self.inner.queue_depth_hint()
    }

    fn reclaim_to(&self, len: u64) -> IoResult<()> {
        self.inner.reclaim_to(len)
    }
}

/// An empty engine on simulated devices whose every shard WAL sits behind
/// `gate` (`config` must enable the WAL: a put batch then blocks in its
/// shard-WAL force while the gate is shut). Gets never touch a WAL.
pub fn gated_engine(config: EngineConfig, key_sample: &[u64], gate: &Arc<Gate>) -> ShardedPioEngine {
    let sim = |bytes| -> Arc<dyn IoQueue> { Arc::new(SimPsyncIo::with_profile(config.profile, bytes)) };
    let backends = EngineBackends {
        shard_stores: (0..config.shards).map(|_| sim(config.shard_capacity_bytes)).collect(),
        shard_wals: (0..config.shards)
            .map(|_| GateIo::wrap(sim(config.wal_capacity_bytes), gate))
            .collect(),
        engine_wal: None,
    };
    EngineBuilder::new(config)
        .topology(backends)
        .key_sample(key_sample)
        .build()
        .expect("engine build")
}
