//! A closed-loop multi-client driver: N client threads × think time × a key
//! distribution.
//!
//! The paper's *open* model has one caller hand pre-formed batches to the
//! index. A serving system is evaluated the other way around (Didona et al.'s critique in `PAPERS.md`): many
//! independent clients each submit **one** request, wait for its response,
//! optionally think, and submit the next — the concurrency the system sees is
//! whatever the clients' closed loops produce, and the honest metrics are
//! per-request latency percentiles, not makespan.
//!
//! This module is deliberately index-agnostic: anything implementing
//! [`ServiceTarget`] (shared-reference operations, thread-safe) can be driven.
//! The sharded engine's service front end implements it for its handles; tests
//! implement it over plain maps.

use crate::keyspace::{KeyDistribution, KeyGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A concurrently callable request target: the closed-loop clients call these
/// from many threads at once through one shared reference.
pub trait ServiceTarget: Sync {
    /// Error produced by the underlying service (crosses client-thread
    /// boundaries, hence `Send`).
    type Error: std::fmt::Debug + Send;

    /// Point lookup.
    fn get(&self, key: u64) -> Result<Option<u64>, Self::Error>;
    /// Insert-or-update, durable (to the target's ack contract) when it returns.
    fn put(&self, key: u64, value: u64) -> Result<(), Self::Error>;
    /// Range scan over `[lo, hi)`; returns the number of live entries seen.
    fn scan(&self, lo: u64, hi: u64) -> Result<usize, Self::Error>;

    /// Classifies a request error so the closed loop can keep running through
    /// transient failures (tallied in the report) and abort only on fatal
    /// ones. The default treats every error as [`ErrorClass::Fatal`] — the
    /// conservative choice for targets without a transient-error vocabulary;
    /// the engine's service handle overrides this with its own
    /// retryable/timeout/overloaded classification.
    fn classify(&self, _error: &Self::Error) -> ErrorClass {
        ErrorClass::Fatal
    }
}

/// Coarse classification of a request error, from [`ServiceTarget::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// A clean transient rejection (degraded shard, injected blip): counted,
    /// the client moves on to its next request.
    Retryable,
    /// The request's deadline expired — outcome unknown, wait cleanly over.
    Timeout,
    /// The target shed the request under load.
    Overloaded,
    /// Not transient: the whole run aborts with this error.
    Fatal,
}

/// Operation mix of one closed-loop client (fractions are normalised over their
/// sum; the remainder after `put` and `scan` is `get`).
#[derive(Debug, Clone, Copy)]
pub struct ClientMix {
    /// Fraction of requests that are puts.
    pub put: f64,
    /// Fraction of requests that are scans.
    pub scan: f64,
    /// Span of each scan in keys (`[k, k + scan_span)`).
    pub scan_span: u64,
}

impl ClientMix {
    /// A read-heavy serving mix: 10% puts, 2% scans of 100 keys, 88% gets.
    pub fn read_heavy() -> Self {
        Self {
            put: 0.10,
            scan: 0.02,
            scan_span: 100,
        }
    }
}

/// Specification of one closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopSpec {
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Requests each client submits (the run issues `clients × ops_per_client`).
    pub ops_per_client: usize,
    /// Pause between a client's response and its next request (`ZERO` = a tight
    /// closed loop, the maximum pressure `clients` threads can generate).
    pub think_time: Duration,
    /// Key space the clients draw from.
    pub key_space: u64,
    /// Key distribution (each client gets its own deterministic stream).
    pub distribution: KeyDistribution,
    /// Operation mix.
    pub mix: ClientMix,
    /// Base seed; client `i` derives its streams from `seed + i`.
    pub seed: u64,
}

/// Aggregate outcome of a closed-loop run (per-request latency lives in the
/// target's own accounting — e.g. the service front end's histograms).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosedLoopReport {
    /// Point lookups answered successfully.
    pub gets: u64,
    /// Lookups that found a value.
    pub get_hits: u64,
    /// Puts acked by the target.
    pub puts: u64,
    /// Scans answered successfully.
    pub scans: u64,
    /// Entries returned by scans in total.
    pub scanned_entries: u64,
    /// Gets that failed with a clean non-fatal error (the client moved on).
    pub get_errors: u64,
    /// Puts that failed with a clean non-fatal error — **not** acked; a report
    /// consumer checking durability must only expect the `puts` ones back.
    pub put_errors: u64,
    /// Scans that failed with a clean non-fatal error.
    pub scan_errors: u64,
    /// Of the failed requests, how many were deadline expiries
    /// ([`ErrorClass::Timeout`]).
    pub timeouts: u64,
    /// Of the failed requests, how many were shed under load
    /// ([`ErrorClass::Overloaded`]).
    pub overloads: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl ClosedLoopReport {
    /// Total requests submitted (answered and cleanly failed alike).
    pub fn total_ops(&self) -> u64 {
        self.gets + self.puts + self.scans + self.total_errors()
    }

    /// Requests that failed with a clean non-fatal error in total.
    pub fn total_errors(&self) -> u64 {
        self.get_errors + self.put_errors + self.scan_errors
    }

    /// Fraction of submitted requests that were answered successfully
    /// (1.0 for an error-free run, and for an empty one).
    pub fn availability(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            return 1.0;
        }
        (total - self.total_errors()) as f64 / total as f64
    }

    /// Requests per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_ops() as f64 / secs
    }

    fn merge(&mut self, other: &ClosedLoopReport) {
        self.gets += other.gets;
        self.get_hits += other.get_hits;
        self.puts += other.puts;
        self.scans += other.scans;
        self.scanned_entries += other.scanned_entries;
        self.get_errors += other.get_errors;
        self.put_errors += other.put_errors;
        self.scan_errors += other.scan_errors;
        self.timeouts += other.timeouts;
        self.overloads += other.overloads;
    }
}

/// Runs `spec.clients` closed-loop clients against `target` and merges their
/// tallies. Every request is submitted, awaited, and (optionally) followed by
/// `think_time`. Errors the target classifies as non-fatal (see
/// [`ServiceTarget::classify`]) are tallied per class in the report and the
/// client moves on — a serving system under transient faults is *supposed* to
/// keep answering; only a [`ErrorClass::Fatal`] error aborts the run.
///
/// Each client's value payload encodes `(client, sequence)` so concurrent puts
/// from different clients never collide on the value they write for a shared
/// key — last-writer-wins stays observable.
pub fn run_closed_loop<T: ServiceTarget>(target: &T, spec: &ClosedLoopSpec) -> Result<ClosedLoopReport, T::Error> {
    assert!(spec.clients >= 1, "a closed loop needs at least one client");
    let started = Instant::now();
    let mut report = ClosedLoopReport::default();
    let results: Vec<Result<ClosedLoopReport, T::Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|client| {
                let spec = spec.clone();
                scope.spawn(move || client_loop(target, &spec, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    for outcome in results {
        report.merge(&outcome?);
    }
    report.wall = started.elapsed();
    Ok(report)
}

/// One client's closed loop: draw, submit, await, think, repeat.
fn client_loop<T: ServiceTarget>(
    target: &T,
    spec: &ClosedLoopSpec,
    client: usize,
) -> Result<ClosedLoopReport, T::Error> {
    let seed = spec.seed.wrapping_add(client as u64);
    let mut keys = KeyGenerator::new(seed, spec.key_space, spec.distribution);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut report = ClosedLoopReport::default();
    let put_cut = spec.mix.put.max(0.0);
    let scan_cut = put_cut + spec.mix.scan.max(0.0);
    for seq in 0..spec.ops_per_client {
        let dice: f64 = rng.gen();
        // Writes and reads draw through different generator entry points so
        // `Latest` can append on puts while skewing gets/scans to recent keys
        // (for every other distribution the two are the same stream).
        if dice < put_cut {
            let key = keys.next_insert_key();
            match target.put(key, ((client as u64) << 32) | seq as u64) {
                Ok(()) => report.puts += 1,
                Err(e) => note_error(target, &mut report, Op::Put, e)?,
            }
        } else if dice < scan_cut {
            let key = keys.next_key();
            let hi = key.saturating_add(spec.mix.scan_span.max(1));
            match target.scan(key, hi) {
                Ok(seen) => {
                    report.scanned_entries += seen as u64;
                    report.scans += 1;
                }
                Err(e) => note_error(target, &mut report, Op::Scan, e)?,
            }
        } else {
            let key = keys.next_key();
            match target.get(key) {
                Ok(value) => {
                    if value.is_some() {
                        report.get_hits += 1;
                    }
                    report.gets += 1;
                }
                Err(e) => note_error(target, &mut report, Op::Get, e)?,
            }
        }
        if !spec.think_time.is_zero() {
            std::thread::sleep(spec.think_time);
        }
    }
    Ok(report)
}

/// Request class of a failed operation, for the per-class error tallies.
enum Op {
    Get,
    Put,
    Scan,
}

/// Tallies a non-fatal request error into the report; a fatal one is returned
/// and aborts the client's loop.
fn note_error<T: ServiceTarget>(
    target: &T,
    report: &mut ClosedLoopReport,
    op: Op,
    error: T::Error,
) -> Result<(), T::Error> {
    let class = target.classify(&error);
    if class == ErrorClass::Fatal {
        return Err(error);
    }
    match op {
        Op::Get => report.get_errors += 1,
        Op::Put => report.put_errors += 1,
        Op::Scan => report.scan_errors += 1,
    }
    match class {
        ErrorClass::Timeout => report.timeouts += 1,
        ErrorClass::Overloaded => report.overloads += 1,
        ErrorClass::Retryable | ErrorClass::Fatal => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::convert::Infallible;
    use std::sync::Mutex;

    /// A mutex-wrapped map: the simplest possible [`ServiceTarget`].
    #[derive(Default)]
    struct MapService {
        map: Mutex<BTreeMap<u64, u64>>,
    }

    impl ServiceTarget for MapService {
        type Error = Infallible;

        fn get(&self, key: u64) -> Result<Option<u64>, Infallible> {
            Ok(self.map.lock().unwrap().get(&key).copied())
        }

        fn put(&self, key: u64, value: u64) -> Result<(), Infallible> {
            self.map.lock().unwrap().insert(key, value);
            Ok(())
        }

        fn scan(&self, lo: u64, hi: u64) -> Result<usize, Infallible> {
            Ok(self.map.lock().unwrap().range(lo..hi).count())
        }
    }

    #[test]
    fn closed_loop_submits_the_specified_load() {
        let service = MapService::default();
        let spec = ClosedLoopSpec {
            clients: 4,
            ops_per_client: 500,
            think_time: Duration::ZERO,
            key_space: 10_000,
            distribution: KeyDistribution::Uniform,
            mix: ClientMix {
                put: 0.3,
                scan: 0.1,
                scan_span: 50,
            },
            seed: 99,
        };
        let report = run_closed_loop(&service, &spec).unwrap();
        assert_eq!(report.total_ops(), 2_000);
        // The mix fractions hold roughly (4 × 500 draws).
        assert!((400..=800).contains(&report.puts), "puts {}", report.puts);
        assert!((100..=300).contains(&report.scans), "scans {}", report.scans);
        assert!(report.throughput() > 0.0);
        // The run actually wrote: the map holds every put's key.
        assert!(service.map.lock().unwrap().len() as u64 <= report.puts);
        assert!(!service.map.lock().unwrap().is_empty());
    }

    #[test]
    fn clients_are_deterministic_per_seed() {
        let run = || {
            let service = MapService::default();
            let spec = ClosedLoopSpec {
                clients: 2,
                ops_per_client: 300,
                think_time: Duration::ZERO,
                key_space: 1_000,
                distribution: KeyDistribution::Zipfian { theta: 0.9 },
                mix: ClientMix::read_heavy(),
                seed: 7,
            };
            let report = run_closed_loop(&service, &spec).unwrap();
            (
                report.gets,
                report.puts,
                report.scans,
                service.map.into_inner().unwrap(),
            )
        };
        let (g1, p1, s1, m1) = run();
        let (g2, p2, s2, m2) = run();
        assert_eq!((g1, p1, s1), (g2, p2, s2));
        assert_eq!(m1.keys().collect::<Vec<_>>(), m2.keys().collect::<Vec<_>>());
    }

    /// A map service that fails every `period`-th request with an error the
    /// classifier maps per its embedded tag.
    struct FlakyService {
        inner: MapService,
        period: u64,
        calls: std::sync::atomic::AtomicU64,
        class: ErrorClass,
    }

    impl FlakyService {
        fn new(period: u64, class: ErrorClass) -> Self {
            Self {
                inner: MapService::default(),
                period,
                calls: std::sync::atomic::AtomicU64::new(0),
                class,
            }
        }

        fn trip(&self) -> Result<(), String> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if n.is_multiple_of(self.period) {
                Err(format!("injected failure on call {n}"))
            } else {
                Ok(())
            }
        }
    }

    impl ServiceTarget for FlakyService {
        type Error = String;

        fn get(&self, key: u64) -> Result<Option<u64>, String> {
            self.trip()?;
            Ok(self.inner.get(key).unwrap())
        }

        fn put(&self, key: u64, value: u64) -> Result<(), String> {
            self.trip()?;
            self.inner.put(key, value).unwrap();
            Ok(())
        }

        fn scan(&self, lo: u64, hi: u64) -> Result<usize, String> {
            self.trip()?;
            Ok(self.inner.scan(lo, hi).unwrap())
        }

        fn classify(&self, _error: &String) -> ErrorClass {
            self.class
        }
    }

    fn flaky_spec() -> ClosedLoopSpec {
        ClosedLoopSpec {
            clients: 2,
            ops_per_client: 400,
            think_time: Duration::ZERO,
            key_space: 1_000,
            distribution: KeyDistribution::Uniform,
            mix: ClientMix {
                put: 0.3,
                scan: 0.1,
                scan_span: 20,
            },
            seed: 42,
        }
    }

    #[test]
    fn transient_errors_are_tallied_and_the_run_completes() {
        let service = FlakyService::new(10, ErrorClass::Retryable);
        let report = run_closed_loop(&service, &flaky_spec()).unwrap();
        // Every issued request is accounted: success + failure = clients × ops.
        assert_eq!(report.total_ops(), 800);
        let failed = report.total_errors();
        assert!(failed > 0, "the flaky target must have tripped");
        assert!(report.availability() < 1.0);
        assert!(report.availability() > 0.85, "availability {}", report.availability());
        // Plain retryable errors carry no timeout/overload breakdown.
        assert_eq!(report.timeouts, 0);
        assert_eq!(report.overloads, 0);
        assert_eq!(failed, report.get_errors + report.put_errors + report.scan_errors);
    }

    #[test]
    fn timeouts_and_overloads_get_their_own_tallies() {
        let timeouts = FlakyService::new(7, ErrorClass::Timeout);
        let report = run_closed_loop(&timeouts, &flaky_spec()).unwrap();
        assert!(report.timeouts > 0);
        assert_eq!(report.timeouts, report.total_errors());

        let sheds = FlakyService::new(7, ErrorClass::Overloaded);
        let report = run_closed_loop(&sheds, &flaky_spec()).unwrap();
        assert!(report.overloads > 0);
        assert_eq!(report.overloads, report.total_errors());
    }

    #[test]
    fn fatal_errors_still_abort_the_run() {
        // `classify` defaults to Fatal when a target doesn't override it; here
        // the override itself says Fatal — either way the run must stop.
        let service = FlakyService::new(5, ErrorClass::Fatal);
        let err = run_closed_loop(&service, &flaky_spec()).unwrap_err();
        assert!(err.contains("injected failure"), "unexpected error: {err}");
    }

    #[test]
    fn availability_is_one_for_clean_runs_and_reports_merge() {
        let clean = ClosedLoopReport::default();
        assert_eq!(clean.availability(), 1.0);

        let mut a = ClosedLoopReport {
            gets: 10,
            get_errors: 2,
            timeouts: 1,
            ..ClosedLoopReport::default()
        };
        let b = ClosedLoopReport {
            puts: 5,
            put_errors: 3,
            overloads: 2,
            scan_errors: 1,
            ..ClosedLoopReport::default()
        };
        a.merge(&b);
        assert_eq!(a.total_errors(), 6);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.overloads, 2);
        assert_eq!(a.total_ops(), 10 + 5 + 6);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_is_rejected() {
        let service = MapService::default();
        let spec = ClosedLoopSpec {
            clients: 0,
            ops_per_client: 1,
            think_time: Duration::ZERO,
            key_space: 10,
            distribution: KeyDistribution::Uniform,
            mix: ClientMix::read_heavy(),
            seed: 0,
        };
        let _ = run_closed_loop(&service, &spec);
    }
}
