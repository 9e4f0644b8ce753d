//! `pio-perf`: the repository's benchmark.
//!
//! ```text
//! pio-perf --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One process runs one workload on one CPU: it builds and warms the engine (three
//! times, reporting the median set-up time), runs fixed-op segments for `--seconds`,
//! checks every answer against an oracle derived from the seed, and prints one
//! JSON object as its last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced pass instead — an untraced
//! reference window, the traced window, the direct-core leg and the `ssd-sim`
//! replay leg — reports the per-layer metrics and writes the spans to
//! `<target dir>/perf-trace/trace-<workload>.json`. Progress goes to standard
//! error. See `perf/README.md` for the workloads and every metric's definition.

mod alloc;
mod gen;
mod layers;
mod metered;
mod run;
mod setup;
mod sys;
mod trace;

use layers::{Counted, Counters, Extras};
use run::{Direct, Segment, Serve, Window, Workload};
use setup::{Kind, Rig, Spec};
use ssd_sim::{DeviceProfile, SsdDevice, SsdRequest};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; the median is reported.
const SETUP_REPS: usize = 3;
/// Segments at the start of the untraced window that the count metrics cover.
const COUNTED_SEGMENTS: usize = 32;
/// Shares of `--seconds` in the traced pass: reference window, traced window,
/// direct-core leg. The replay leg takes what its recorded trace needs.
const TRACE_SHARES: [f64; 3] = [0.25, 0.45, 0.3];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, None, false);
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |value: &str| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad(&value))?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad(&value))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&value)),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
            return Err("--workload, --seed, --seconds and --trace are all required".into());
        };
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        })
    }
}

/// What a run reports: the last line of standard output.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    units: &'static [(&'static str, &'static str)],
}

impl Report {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in self.units.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not a number: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// The workload's driver over a live rig.
enum Driver {
    Direct(Direct<Arc<engine::ShardedPioEngine>>),
    Serve(Serve),
}

impl Driver {
    fn start(spec: &Spec, rig: &Rig, seed: u64, tracer: Option<Arc<Tracer>>) -> Driver {
        let engine = Arc::clone(&rig.engine);
        match spec.kind {
            Kind::Serve => Driver::Serve(Serve::start(engine, *spec, seed, tracer)),
            _ => Driver::Direct(Direct::new(engine, *spec, seed, tracer)),
        }
    }

    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Driver::Direct(d) => d,
            Driver::Serve(s) => s,
        }
    }

    /// Distinct keys written so far that were not preloaded.
    fn new_keys(&self) -> u64 {
        match self {
            Driver::Direct(d) => run::distinct_new_keys(&d.inserted),
            Driver::Serve(s) => s.acked_keys(),
        }
    }

    fn service_stats(&self) -> Option<service::ServiceStats> {
        match self {
            Driver::Direct(_) => None,
            Driver::Serve(s) => Some(s.stats()),
        }
    }
}

/// Ops attempted and failed outside the timed windows (warm-up, final checks).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, seg: &Segment) {
        self.attempted += seg.ops;
        self.failed += seg.failed;
    }
}

/// Looks up every preloaded key once, so every leaf is resident afterwards.
fn touch_every_leaf(target: &mut impl run::Target, spec: &Spec, tally: &mut Tally) {
    let keys: Vec<u64> = (0..spec.entries).map(|i| i * gen::KEY_STRIDE).collect();
    let calls: Vec<run::Call> = keys.chunks(1024).map(|c| run::Call::Lookup(c.to_vec())).collect();
    tally.add(&run::run_calls(target, &calls, None, &mut Vec::new()));
}

/// Generates the data, bulk loads the engine and warms it.
fn set_up(spec: &Spec, seed: u64, tracer: Option<&Arc<Tracer>>, tally: &mut Tally) -> Result<(Rig, Driver), String> {
    let entries = gen::preload(spec.entries);
    let rig = Rig::build(spec, &entries, tracer).map_err(|e| format!("building the engine: {e}"))?;
    drop(entries);
    if spec.touch_every_leaf {
        touch_every_leaf(&mut Arc::clone(&rig.engine), spec, tally);
    }
    let mut driver = Driver::start(spec, &rig, seed, tracer.cloned());
    for _ in 0..spec.warm_segments {
        tally.add(&driver.workload().segment());
    }
    Ok((rig, driver))
}

/// The final checks: `write_flush` crashes and recovers first; every acked key
/// is read back; the engine's invariants hold and its entry count is the oracle's.
/// Returns how long the recovery took, in seconds.
fn finish(spec: &Spec, rig: &Rig, driver: Driver, tally: &mut Tally) -> Result<f64, String> {
    let engine = &rig.engine;
    let mut recover_s = 0.0;
    let written = match driver {
        Driver::Direct(direct) => {
            if spec.kind == Kind::Write {
                engine.simulate_crash();
                let start = Instant::now();
                engine.recover().map_err(|e| format!("recovery failed: {e}"))?;
                recover_s = start.elapsed().as_secs_f64();
            }
            direct.inserted
        }
        Driver::Serve(serve) => serve.finish(),
    };
    tally.attempted += written.len() as u64;
    tally.failed += run::lost_keys(engine, &written);
    let live_entries = spec.entries + run::distinct_new_keys(&written);
    engine
        .check_invariants()
        .map_err(|e| format!("check_invariants failed: {e}"))?;
    let counted = engine
        .count_entries()
        .map_err(|e| format!("count_entries failed: {e}"))?;
    tally.attempted += 1;
    if counted != live_entries {
        eprintln!("pio-perf: engine holds {counted} entries, the oracle {live_entries}");
        tally.failed += 1;
    }
    Ok(recover_s)
}

fn untraced(spec: &Spec, args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    let start = Instant::now();
    let (rig, mut driver) = set_up(spec, args.seed, None, &mut tally)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];

    // Counts come from a fixed number of segments, so they depend on the seed
    // and not on how fast the host happens to be; times come from every
    // segment run before `--seconds` is up.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let before = Counters::capture(&rig, None);
    let mut window = Window::default();
    run::run_segments(driver.workload(), &mut window, COUNTED_SEGMENTS);
    let after = Counters::capture(&rig, None);
    let counted = Counted {
        ops: window.all.ops,
        allocs: window.all.allocs,
        live_entries: spec.entries + driver.new_keys(),
        peak_rss_mib: sys::peak_rss_mib(),
    };
    run::run_until(driver.workload(), &mut window, deadline);
    report_window(&window);
    finish(spec, &rig, driver, &mut tally)?;
    drop(rig);

    // The remaining set-ups are only timed. They come last so that peak memory
    // above is that of one engine, not of whatever the allocator kept of three.
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let live = set_up(spec, args.seed, None, &mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(live);
    }
    eprintln!("pio-perf: set-ups took {setup_s:.3?} s");
    Ok(Report {
        attempted: tally.attempted + window.all.ops,
        failed: tally.failed + window.all.failed,
        metrics: layers::end_to_end(run::median(&setup_s), &window, &before, &after, &counted),
        units: &layers::END_TO_END,
    })
}

fn report_window(window: &Window) {
    eprintln!(
        "pio-perf: window: {} segments, {} calls, {} ops in {:.2} s",
        window.seg_ops_per_s.len(),
        window.all.call_us.len(),
        window.all.ops,
        window.all.wall_s
    );
    let rates = &window.seg_ops_per_s;
    eprintln!(
        "pio-perf: segment ops/s: min {:.0}, quartiles {:.0} {:.0} {:.0}, max {:.0}",
        run::quantile(rates, 0.0),
        run::quantile(rates, 0.25),
        run::median(rates),
        run::quantile(rates, 0.75),
        run::quantile(rates, 1.0)
    );
}

/// The direct-core leg: the same inputs against one standalone `PioBTree`.
fn core_leg(spec: &Spec, seed: u64, seconds: f64, extras: &mut Extras, tally: &mut Tally) -> Result<(), String> {
    let entries = gen::preload(spec.entries);
    let mut tree = setup::build_core_tree(spec, &entries).map_err(|e| format!("building the leg: {e}"))?;
    drop(entries);
    if spec.touch_every_leaf {
        touch_every_leaf(&mut tree, spec, tally);
    }
    let mut leg = Direct::new(tree, *spec, seed, None);
    for _ in 0..spec.warm_segments {
        tally.add(&leg.segment());
    }
    let sim_before = run::Target::sim_us(&leg.target);
    let window = run::run_for(&mut leg, seconds);
    tally.add(&window.all);
    extras.leg_cpu_us_per_op = window.cpu_us_per_op();
    extras.leg_call_p50_us = run::median(&window.all.call_us);
    extras.leg_call_p99_us = run::quantile(&window.all.call_us, 0.99);
    extras.leg_sim_us_per_op = (run::Target::sim_us(&leg.target) - sim_before) / window.all.ops as f64;
    Ok(())
}

/// The `ssd-sim` replay leg: the recorded device requests against a fresh
/// simulator, so its own host cost is told apart from the tree's.
fn replay_leg(batches: &[Vec<SsdRequest>]) -> f64 {
    let requests: usize = batches.iter().map(Vec::len).sum();
    if requests == 0 {
        return 0.0;
    }
    let mut device = SsdDevice::new(DeviceProfile::P300.build());
    let start = Instant::now();
    for batch in batches {
        black_box(device.submit_batch(black_box(batch)));
    }
    start.elapsed().as_secs_f64() * 1e6 / requests as f64
}

fn traced(spec: &Spec, args: &Args) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::new());
    let mut tally = Tally::default();
    let (rig, mut driver) = set_up(spec, args.seed, Some(&tracer), &mut tally)?;
    let meters = rig.meters.as_ref().expect("a traced rig is metered");

    let reference = run::run_for(driver.workload(), args.seconds * TRACE_SHARES[0]);
    let before = Counters::capture(&rig, driver.service_stats());
    tracer.snapshot("window_start", before.trace_values());
    tracer.set_enabled(true);
    let window = run::run_for(driver.workload(), args.seconds * TRACE_SHARES[1]);
    tracer.set_enabled(false);
    let after = Counters::capture(&rig, driver.service_stats());
    tracer.snapshot("window_end", after.trace_values());
    report_window(&window);

    let device = meters.device.take_counts();
    let mut partitions = metered::MeterCounts::default();
    for meter in &meters.partitions {
        partitions.merge(&meter.take_counts());
    }
    let batches = meters.device.take_batches();
    let recover_s = finish(spec, &rig, driver, &mut tally)?;
    let mut extras = Extras {
        reference_cpu_us_per_op: reference.cpu_us_per_op(),
        recover_s,
        recovery_replayed_records: rig.engine.stats().recovery_replayed_records,
        spans: tracer.span_count(),
        ..Extras::default()
    };
    drop(rig);
    core_leg(spec, args.seed, args.seconds * TRACE_SHARES[2], &mut extras, &mut tally)?;
    extras.replay_us_per_req = replay_leg(&batches);

    let path = trace_dir()?.join(format!("trace-{}.json", spec.name));
    tracer
        .write_json(&path, spec.name, args.seed)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("pio-perf: {} spans written to {}", extras.spans, path.display());
    Ok(Report {
        attempted: tally.attempted + reference.all.ops + window.all.ops,
        failed: tally.failed + reference.all.failed + window.all.failed,
        metrics: layers::per_layer(spec, &window, &before, &after, &device, &partitions, &extras),
        units: &layers::PER_LAYER,
    })
}

/// `<target dir>/perf-trace`, next to the profile directory the binary runs from.
fn trace_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("the binary is not inside a cargo target directory")?;
    Ok(target.join("perf-trace"))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("pio-perf: {msg}");
            eprintln!("usage: pio-perf --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--smoke]");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        let names: Vec<&str> = setup::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "pio-perf: unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let spec = if args.smoke { spec.smoke() } else { spec };
    let nproc = sys::nproc();
    // Before any other thread exists: they all inherit the one CPU.
    let cpu = sys::pin_to_one_cpu().map_or("none".to_string(), |cpu| cpu.to_string());
    eprintln!(
        "pio-perf: workload={} seed={} seconds={} trace={} smoke={} nproc={nproc} pinned_cpu={cpu} load_1m={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        sys::load_average_1m()
    );
    let report = if args.trace {
        traced(&spec, &args)
    } else {
        untraced(&spec, &args)
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("pio-perf: {} of {} ops failed", report.failed, report.attempted);
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("pio-perf: {msg}");
            ExitCode::FAILURE
        }
    }
}
