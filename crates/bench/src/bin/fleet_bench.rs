//! `fleet-bench` — the recorded performance trajectory of the fleet hot path.
//!
//! Runs the standard mixed fleet end to end (shared and isolated repository
//! modes), the work-stealing thread-count sweep (the 1000-tenant fleet on
//! pools of 1/2/4 workers vs the lock-step barrier, with a `k = 0`
//! bit-match check), the flight-recorder overhead comparison (the same
//! work-stealing fleet with the obs recorder off and on), the serving
//! measurement (the wait-free read path under mixed read/publish load, plus
//! wire round trips through a live `dejavu-serve` daemon), the single-epoch
//! scale scenario (100k tenants in one 24 h commit window on a pool with one
//! worker per host core), and a shared-repository lookup microbenchmark,
//! then emits `BENCH_fleet.json` so every perf PR leaves comparable
//! numbers behind.
//! Each recorded run is labelled with the git revision and the host's core
//! count, so trajectory numbers from different machines stay attributable.
//!
//! ```text
//! cargo run --release -p dejavu-bench --bin fleet-bench            # full: 200 and 1000 tenants
//! cargo run --release -p dejavu-bench --bin fleet-bench -- --quick # CI smoke: 40 tenants
//! ```
//!
//! Flags:
//!
//! * `--quick` — small fleet (40 tenants, 1 day) and fewer microbench samples.
//! * `--fleet TENANTS:DAYS` — override the fleet configurations (repeatable).
//! * `--scale-tenants N` — tenant count for the single-epoch scale scenario
//!   (default 10k under `--quick`, 100k otherwise).
//! * `--out PATH` — where to write the JSON (default `BENCH_fleet.json`).
//! * `--label NAME` — label recorded with this run (default `current`).
//! * `--append` — append this run to an existing trajectory file instead of
//!   overwriting it.
//! * `--baseline PATH` — compare against a previously recorded file and exit
//!   non-zero if `shared_lookup_hit_per_sec` regressed more than
//!   `--max-regress` (default 0.30, i.e. 30%).
//!
//! A missing or malformed flag value, a `--baseline` file that cannot be
//! read or lacks `shared_lookup_hit_per_sec`, or an `--append` target that
//! exists but is not a fleet-bench trajectory, exits 2 before anything runs.

use dejavu_cloud::ResourceAllocation;
use dejavu_core::{RepositoryKey, SignatureRepository};
use dejavu_fleet::{
    standard_fleet, FaultSpec, FleetConfig, FleetEngine, SharedRepoConfig,
    SharedSignatureRepository, SharingMode, TransportConfig,
};
use dejavu_obs::Recorder;
use dejavu_simcore::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    quick: bool,
    out: String,
    label: String,
    /// Under `--append`, the existing trajectory at `out`, cut open before
    /// its closing brackets so this run can be spliced into its `runs`
    /// array. `None` writes a fresh file.
    prior_runs: Option<String>,
    /// `shared_lookup_hit_per_sec` of the `--baseline` file.
    baseline: Option<f64>,
    max_regress: f64,
    fleets: Vec<(usize, usize)>,
    scale_tenants: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_fleet.json".to_string(),
        label: "current".to_string(),
        prior_runs: None,
        baseline: None,
        max_regress: 0.30,
        fleets: Vec::new(),
        scale_tenants: None,
    };
    let mut append = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--append" => append = true,
            "--out" => args.out = flag_value(&mut it, "--out needs a path"),
            "--label" => args.label = flag_value(&mut it, "--label needs a name"),
            "--baseline" => {
                let path = flag_value(&mut it, "--baseline needs a path");
                args.baseline = Some(read_baseline(&path));
            }
            "--fleet" => {
                let size = it.next().and_then(|spec| {
                    let (t, d) = spec.split_once(':')?;
                    Some((t.parse().ok()?, d.parse().ok()?))
                });
                match size {
                    Some((t, d)) if t > 0 && d > 0 => args.fleets.push((t, d)),
                    _ => usage_error("--fleet needs TENANTS:DAYS, both positive integers"),
                }
            }
            "--scale-tenants" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => args.scale_tenants = Some(n),
                _ => usage_error("--scale-tenants needs a positive tenant count"),
            },
            "--max-regress" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => args.max_regress = f,
                _ => usage_error("--max-regress needs a fraction in [0, 1]"),
            },
            other => usage_error(&format!("unknown flag '{other}'")),
        }
    }
    if append {
        args.prior_runs = read_trajectory(&args.out);
    }
    args
}

/// Prints `message` and exits with status 2: a missing or malformed flag
/// value is a usage error, never a panic or a silent default.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// The `shared_lookup_hit_per_sec` recorded in a `--baseline` file, read
/// before any benchmark runs; an unreadable file or one without the figure
/// is a usage error.
fn read_baseline(path: &str) -> f64 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("--baseline {path}: {e}")));
    extract_number(&text, "shared_lookup_hit_per_sec").unwrap_or_else(|| {
        usage_error(&format!(
            "--baseline {path}: no shared_lookup_hit_per_sec figure"
        ))
    })
}

/// The trajectory at `path` that `--append` extends, without its closing
/// `]}`. A missing file starts a fresh trajectory; an unreadable one, or one
/// that is not a fleet-bench trajectory, is a usage error.
fn read_trajectory(path: &str) -> Option<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => usage_error(&format!("--append {path}: {e}")),
    };
    let trimmed = text.trim();
    let body = trimmed
        .strip_suffix("]\n}")
        .or_else(|| trimmed.strip_suffix("]}"));
    match body {
        Some(body) if body.starts_with('{') && body.contains("\"runs\": [") => {
            Some(body.trim_end().to_string())
        }
        _ => usage_error(&format!(
            "--append {path}: not a fleet-bench trajectory file"
        )),
    }
}

/// The value of a path- or name-taking flag; a missing value, or the next
/// flag in its place, is a usage error.
fn flag_value(it: &mut impl Iterator<Item = String>, message: &str) -> String {
    match it.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => usage_error(message),
    }
}

/// One end-to-end fleet measurement.
struct FleetMeasurement {
    tenants: usize,
    days: usize,
    mode: &'static str,
    epochs: usize,
    secs: f64,
    epochs_per_sec: f64,
    hit_rate: f64,
}

fn run_fleet(tenants: usize, days: usize, sharing: SharingMode) -> FleetMeasurement {
    let scenario = standard_fleet(tenants, days, 11);
    let engine = FleetEngine::new(
        scenario,
        FleetConfig {
            sharing,
            ..Default::default()
        },
    );
    let start = Instant::now();
    let report = engine.run();
    let secs = start.elapsed().as_secs_f64();
    FleetMeasurement {
        tenants,
        days,
        mode: match sharing {
            SharingMode::Shared => "shared",
            SharingMode::Isolated => "isolated",
        },
        epochs: report.epochs,
        secs,
        epochs_per_sec: report.epochs as f64 / secs.max(1e-12),
        hit_rate: report.fleet_hit_rate(),
    }
}

/// The warm-vs-cold convergence measurement: how many epochs a newcomer
/// fleet needs to reach its first `FleetReuse`, starting cold vs starting
/// from a snapshot of a previously-run seed fleet. This is the paper's
/// central claim (a tuned cache lets newcomers skip the learning phase),
/// measured at fleet scale.
struct WarmStartMeasurement {
    seed_tenants: usize,
    seed_days: usize,
    newcomers: usize,
    days: usize,
    snapshot_bytes: usize,
    cold_first_reuse_epochs: Option<f64>,
    cold_reusing_tenants: usize,
    warm_first_reuse_epochs: Option<f64>,
    warm_reusing_tenants: usize,
    cold_hit_rate: f64,
    warm_hit_rate: f64,
}

fn warm_vs_cold(
    seed_tenants: usize,
    seed_days: usize,
    newcomers: usize,
    days: usize,
) -> WarmStartMeasurement {
    // Seed fleet: run it shared and persist the tuned repository.
    let seed_engine = FleetEngine::new(
        standard_fleet(seed_tenants, seed_days, 11),
        FleetConfig::default(),
    );
    let repo = Arc::new(SharedSignatureRepository::new(
        seed_engine.config().repo.clone(),
    ));
    seed_engine.run_on(Arc::clone(&repo));
    let snapshot = repo.save_snapshot();

    // Newcomer fleet (different seed → different tenants), cold vs warm.
    let newcomer_engine =
        FleetEngine::new(standard_fleet(newcomers, days, 23), FleetConfig::default());
    let cold = newcomer_engine.run();
    let (warm, _) = newcomer_engine
        .run_warm(&snapshot)
        .expect("snapshot produced by this process loads");
    WarmStartMeasurement {
        seed_tenants,
        seed_days,
        newcomers,
        days,
        snapshot_bytes: snapshot.len(),
        cold_first_reuse_epochs: cold.mean_epochs_to_first_reuse(),
        cold_reusing_tenants: cold.tenants_with_fleet_reuse(),
        warm_first_reuse_epochs: warm.mean_epochs_to_first_reuse(),
        warm_reusing_tenants: warm.tenants_with_fleet_reuse(),
        cold_hit_rate: cold.fleet_hit_rate(),
        warm_hit_rate: warm.fleet_hit_rate(),
    }
}

/// The work-stealing thread-count sweep: the same fleet under the barrier
/// and under the work-stealing pool at several thread counts — the
/// configuration meant for 1000+-tenant fleets on small hosts. Also verifies
/// that `staleness = 0` on the pool bit-matches the barrier, so the recorded
/// throughput is attributable to scheduling alone.
struct WorkStealingMeasurement {
    tenants: usize,
    days: usize,
    staleness: usize,
    bsp_epochs_per_sec: f64,
    /// `(thread count, epochs/s)` per sweep point.
    caps: Vec<(usize, f64)>,
    steal0_bit_match: bool,
}

fn work_stealing_sweep(
    tenants: usize,
    days: usize,
    staleness: usize,
    caps: &[usize],
) -> WorkStealingMeasurement {
    let run = |transport: TransportConfig| {
        let engine = FleetEngine::new(
            standard_fleet(tenants, days, 11),
            FleetConfig {
                transport,
                ..Default::default()
            },
        );
        let start = Instant::now();
        let report = engine.run();
        (report, start.elapsed().as_secs_f64())
    };
    let (bsp_report, bsp_secs) = run(TransportConfig::Bsp);
    let mut cap_rates = Vec::new();
    for &threads in caps {
        let (report, secs) = run(TransportConfig::WorkStealing { threads, staleness });
        cap_rates.push((threads, report.epochs as f64 / secs.max(1e-12)));
    }
    let (steal0_report, _) = run(TransportConfig::WorkStealing {
        threads: *caps.last().unwrap_or(&2),
        staleness: 0,
    });
    let steal0_bit_match = steal0_report.hit_rate_curve == bsp_report.hit_rate_curve
        && bsp_report
            .tenants
            .iter()
            .zip(&steal0_report.tenants)
            .all(|(a, b)| {
                a.dejavu.total_cost == b.dejavu.total_cost
                    && a.stats.tunings == b.stats.tunings
                    && a.cross_tenant_hits == b.cross_tenant_hits
            });
    WorkStealingMeasurement {
        tenants,
        days,
        staleness,
        bsp_epochs_per_sec: bsp_report.epochs as f64 / bsp_secs.max(1e-12),
        caps: cap_rates,
        steal0_bit_match,
    }
}

/// The flight-recorder overhead comparison: the same work-stealing fleet
/// with the obs recorder disabled and enabled. The disabled path compiles to
/// null checks, so `overhead_pct` should sit well inside the CI gate's
/// existing 30% lookup-regression headroom; the enabled run also yields the
/// recorder's own telemetry (peek latency quantiles, park/steal counts,
/// event volume) for the trajectory file.
struct ObsMeasurement {
    tenants: usize,
    days: usize,
    off_epochs_per_sec: f64,
    on_epochs_per_sec: f64,
    /// `(off/on - 1) * 100`: positive when recording costs throughput.
    overhead_pct: f64,
    peek_p50_ns: u64,
    peek_p90_ns: u64,
    peek_p99_ns: u64,
    parks: u64,
    steals: u64,
    events: u64,
}

fn obs_compare(tenants: usize, days: usize) -> ObsMeasurement {
    let run = |recorder: Recorder| {
        let engine = FleetEngine::new(
            standard_fleet(tenants, days, 11),
            FleetConfig {
                transport: TransportConfig::WorkStealing {
                    threads: 4,
                    staleness: 1,
                },
                recorder: recorder.clone(),
                ..Default::default()
            },
        );
        let start = Instant::now();
        let report = engine.run();
        (
            report.epochs as f64 / start.elapsed().as_secs_f64().max(1e-12),
            recorder,
        )
    };
    let (off_epochs_per_sec, _) = run(Recorder::disabled());
    let (on_epochs_per_sec, recorder) = run(Recorder::enabled());
    let metrics = recorder.metrics().expect("enabled recorder has metrics");
    ObsMeasurement {
        tenants,
        days,
        off_epochs_per_sec,
        on_epochs_per_sec,
        overhead_pct: (off_epochs_per_sec / on_epochs_per_sec.max(1e-12) - 1.0) * 100.0,
        peek_p50_ns: metrics.peek_ns.p50(),
        peek_p90_ns: metrics.peek_ns.p90(),
        peek_p99_ns: metrics.peek_ns.p99(),
        parks: metrics.parks.get(),
        steals: metrics.steals.get(),
        events: recorder.events().len() as u64 + recorder.dropped_events(),
    }
}

/// The fault-injection recovery-cost comparison: the same work-stealing
/// fleet clean and under an all-kinds deterministic fault schedule (tenant
/// crashes with checkpoint replay, committer restarts, dropped/duplicated/
/// reordered reports, shard losses). At `staleness = 0` recovery must be
/// invisible — the faulty run bit-matches the clean one and reconverges in
/// zero epochs — so the recorded overhead is the price of the fault model
/// itself (delta capture, replay, re-assembly).
struct FaultMeasurement {
    tenants: usize,
    days: usize,
    spec: String,
    clean_epochs_per_sec: f64,
    faulty_epochs_per_sec: f64,
    /// `(clean/faulty - 1) * 100`: positive when recovery costs throughput.
    recovery_overhead_pct: f64,
    injected: u64,
    tenants_crashed: u64,
    replayed_epochs: u64,
    committer_restarts: u64,
    shard_losses: u64,
    checkpoints: u64,
    /// Epochs after the last hit-rate-curve divergence from the clean run
    /// (0 = the curves never diverged, i.e. instant reconvergence).
    epochs_to_reconverge: usize,
    bit_match: bool,
}

fn fault_compare(tenants: usize, days: usize) -> FaultMeasurement {
    let run = |faults: Option<FaultSpec>| {
        let engine = FleetEngine::new(
            standard_fleet(tenants, days, 11),
            FleetConfig {
                transport: TransportConfig::WorkStealing {
                    threads: 4,
                    staleness: 0,
                },
                faults,
                checkpoint_every: 8,
                ..Default::default()
            },
        );
        let start = Instant::now();
        let report = engine.run();
        (report, start.elapsed().as_secs_f64())
    };
    let spec = FaultSpec::all(42);
    let (clean_report, clean_secs) = run(None);
    let (faulty_report, faulty_secs) = run(Some(spec));
    let bit_match = faulty_report.hit_rate_curve == clean_report.hit_rate_curve
        && clean_report
            .tenants
            .iter()
            .zip(&faulty_report.tenants)
            .all(|(a, b)| {
                a.dejavu.total_cost == b.dejavu.total_cost
                    && a.stats.tunings == b.stats.tunings
                    && a.cross_tenant_hits == b.cross_tenant_hits
            });
    let epochs_to_reconverge = clean_report
        .hit_rate_curve
        .iter()
        .zip(&faulty_report.hit_rate_curve)
        .rposition(|(a, b)| a != b)
        .map(|last| last + 1)
        .unwrap_or(0);
    let summary = faulty_report
        .faults
        .clone()
        .expect("fault runs carry a summary");
    let clean_epochs_per_sec = clean_report.epochs as f64 / clean_secs.max(1e-12);
    let faulty_epochs_per_sec = faulty_report.epochs as f64 / faulty_secs.max(1e-12);
    FaultMeasurement {
        tenants,
        days,
        spec: spec.render(),
        clean_epochs_per_sec,
        faulty_epochs_per_sec,
        recovery_overhead_pct: (clean_epochs_per_sec / faulty_epochs_per_sec.max(1e-12) - 1.0)
            * 100.0,
        injected: summary.injected,
        tenants_crashed: summary.tenants_crashed,
        replayed_epochs: summary.replayed_epochs,
        committer_restarts: summary.committer_restarts,
        shard_losses: summary.shard_losses,
        checkpoints: summary.checkpoints,
        epochs_to_reconverge,
        bit_match,
    }
}

/// The serving measurement: the shared repository as an online service.
///
/// The number that matters is the **wait-free read path under mixed
/// read/publish load** — `readers` threads hammering `lookup` while a
/// publisher re-publishes into the same namespace at a defined ~1k/s
/// cadence (every publish takes the shard write lock and swings the
/// snapshot cell).
/// Before the wait-free read path, those readers would have serialized
/// against the publisher on a shard `RwLock`; now the sustained aggregate
/// throughput must stay at or above the old single-threaded read-locked
/// baseline (~477k lookups/s from PR 2), and the latency tail (p999) is
/// the stall evidence the reader-never-blocks test pins qualitatively.
/// The repository is obs-instrumented (PR 6 recorder) so the section also
/// carries the recorder's own lookup-latency quantiles; wire round trips
/// through a live `dejavu-serve` daemon are recorded as an informational
/// extra (syscall-bound, not comparable to the in-process number).
struct ServingMeasurement {
    anchors: usize,
    readers: usize,
    samples_per_reader: usize,
    /// Aggregate in-process lookups/s across all readers, publisher live.
    sustained_lookups_per_sec: f64,
    p50_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
    /// Publishes the concurrent writer landed while the readers ran.
    publishes: u64,
    /// The recorder's own lookup-latency quantiles (obs instrumentation).
    obs_lookup_p50_ns: u64,
    obs_lookup_p99_ns: u64,
    /// Wire round trips against a live dejavu-serve daemon (informational).
    wire_lookups_per_sec: f64,
    wire_p50_ns: f64,
    wire_p99_ns: f64,
}

fn serving_bench(
    anchors: usize,
    readers: usize,
    samples_per_reader: usize,
    wire_samples: usize,
) -> ServingMeasurement {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let recorder = Recorder::enabled();
    let shared = Arc::new(
        SharedSignatureRepository::new(SharedRepoConfig::default()).with_recorder(recorder.clone()),
    );
    for a in 0..anchors {
        shared.insert(
            0,
            7,
            &signature(a),
            (a % 3) as u32,
            ResourceAllocation::large(1 + (a % 9) as u32),
            SimTime::ZERO,
        );
    }
    let hit_sigs: Vec<Vec<f64>> = (0..64.min(anchors)).map(signature).collect();

    let stop = AtomicBool::new(false);
    let publishes = AtomicU64::new(0);
    let mut all_ns: Vec<f64> = Vec::new();
    let read_secs = std::thread::scope(|scope| {
        // The mixed-load publisher: every insert takes the shard write lock
        // and republishes the snapshot — the exact interference the
        // wait-free read path must be immune to.
        let publisher = scope.spawn(|| {
            let mut j = 0usize;
            while !stop.load(Ordering::Acquire) {
                shared.insert(
                    0,
                    7,
                    &signature(j % anchors),
                    (j % 3) as u32,
                    ResourceAllocation::large(1 + (j % 9) as u32),
                    SimTime::ZERO,
                );
                publishes.fetch_add(1, Ordering::Relaxed);
                j += 1;
                // A defined ~1k/s publish cadence: a serving mixed load has
                // a write *rate*, not a saturating writer — an unthrottled
                // publish loop on a small host measures the scheduler's
                // timeslicing, not the read path it is meant to interfere
                // with. One snapshot swing per millisecond still lands mid-
                // lookup hundreds of times per run.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let reader_threads: Vec<_> = (0..readers)
            .map(|r| {
                let hit_sigs = &hit_sigs;
                let shared = &shared;
                scope.spawn(move || {
                    // Per-op latency is sampled (every 8th lookup) so the
                    // two clock reads per sample don't tax the throughput
                    // number; sustained comes from the wall time of the
                    // whole loop.
                    const LAT_EVERY: usize = 8;
                    let mut ns: Vec<f64> = Vec::with_capacity(samples_per_reader / LAT_EVERY + 1);
                    let start = Instant::now();
                    for i in 0..samples_per_reader {
                        let sig = &hit_sigs[(i + r) % hit_sigs.len()];
                        if i % LAT_EVERY == 0 {
                            let t = Instant::now();
                            std::hint::black_box(shared.lookup(
                                1,
                                7,
                                sig,
                                (i % 3) as u32,
                                SimTime::ZERO,
                            ));
                            ns.push(t.elapsed().as_nanos() as f64);
                        } else {
                            std::hint::black_box(shared.lookup(
                                1,
                                7,
                                sig,
                                (i % 3) as u32,
                                SimTime::ZERO,
                            ));
                        }
                    }
                    (ns, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        let mut slowest = 0.0f64;
        for thread in reader_threads {
            let (ns, secs) = thread.join().expect("reader thread");
            all_ns.extend(ns);
            slowest = slowest.max(secs);
        }
        stop.store(true, Ordering::Release);
        publisher.join().expect("publisher thread");
        slowest
    });
    all_ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let total_ops = (readers * samples_per_reader) as f64;
    let metrics = recorder.metrics().expect("enabled recorder has metrics");

    // Informational wire round trips: the same repository, served.
    let handle = dejavu_serve::serve_tcp(
        Arc::clone(&shared),
        "127.0.0.1:0",
        dejavu_serve::ServeConfig::default(),
    )
    .expect("serving bench server binds");
    let client = dejavu_serve::RemoteRepository::connect_tcp(
        &handle.tcp_addr().expect("tcp server").to_string(),
        1,
    )
    .expect("serving bench session opens");
    let wire = measure(wire_samples, |i| {
        let sig = &hit_sigs[i % hit_sigs.len()];
        std::hint::black_box(
            client
                .lookup(1, 7, sig, (i % 3) as u32, SimTime::ZERO)
                .expect("wire lookup"),
        );
    });
    drop(client);
    handle.stop();

    ServingMeasurement {
        anchors,
        readers,
        samples_per_reader,
        sustained_lookups_per_sec: total_ops / read_secs.max(1e-12),
        p50_ns: percentile(&all_ns, 0.50),
        p99_ns: percentile(&all_ns, 0.99),
        p999_ns: percentile(&all_ns, 0.999),
        publishes: publishes.load(Ordering::Relaxed),
        obs_lookup_p50_ns: metrics.lookup_ns.p50(),
        obs_lookup_p99_ns: metrics.lookup_ns.p99(),
        wire_lookups_per_sec: wire.per_sec,
        wire_p50_ns: wire.p50_ns,
        wire_p99_ns: wire.p99_ns,
    }
}

/// The scale measurement: the full mixed fleet at 100k tenants (10k under
/// `--quick`) squeezed into a single 24 h epoch. The whole simulated day is
/// one commit window and every tenant observes hourly, so the run stresses
/// tenant *count* — per-tenant signature prep, work-stealing scheduling, and
/// commit batching — rather than epoch count. Runs on a pool with one worker
/// per host core (the multi-core recording mode), surfacing the scheduling
/// and scratch-reuse counters from the flight recorder.
struct ScaleMeasurement {
    tenants: usize,
    epochs: usize,
    threads: usize,
    secs: f64,
    epochs_per_sec: f64,
    /// `tenants * epochs / secs`: the throughput axis that actually grows
    /// with fleet size when the epoch count is pinned at one.
    tenant_epochs_per_sec: f64,
    hit_rate: f64,
    parks: u64,
    steals: u64,
    scratch_bytes_saved: u64,
}

fn scale_bench(tenants: usize) -> ScaleMeasurement {
    let scenario = || {
        let mut s = standard_fleet(tenants, 1, 17);
        s.name = format!("scale-{tenants}");
        // One fleet-wide epoch covering the whole day; hourly observation
        // keeps per-tenant work proportional to the standard fleets.
        s.epoch = SimDuration::from_hours(24.0);
        s.tick = SimDuration::from_hours(1.0);
        s
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let recorder = Recorder::enabled();
    let engine = FleetEngine::new(
        scenario(),
        FleetConfig {
            transport: TransportConfig::WorkStealing {
                threads,
                staleness: 1,
            },
            recorder: recorder.clone(),
            ..Default::default()
        },
    );
    let start = Instant::now();
    let report = engine.run();
    let secs = start.elapsed().as_secs_f64();
    let metrics = recorder.metrics().expect("enabled recorder has metrics");
    let epochs = report.epochs;
    ScaleMeasurement {
        tenants,
        epochs,
        threads,
        secs,
        epochs_per_sec: epochs as f64 / secs.max(1e-12),
        tenant_epochs_per_sec: (tenants * epochs) as f64 / secs.max(1e-12),
        hit_rate: report.fleet_hit_rate(),
        parks: metrics.parks.get(),
        steals: metrics.steals.get(),
        scratch_bytes_saved: metrics.scratch_bytes_saved.get(),
    }
}

/// A 30-metric signature for anchor `a`, shaped like the profiler's output:
/// magnitudes spread over decades, distinct anchors well beyond the match
/// tolerance.
fn signature(a: usize) -> Vec<f64> {
    let base = 10.0 * 1.17f64.powi(a as i32 % 64);
    (0..30)
        .map(|m| base * (0.05 + ((m * 7 + a * 3) % 13) as f64 * 0.4))
        .collect()
}

struct LookupMeasurement {
    samples: usize,
    per_sec: f64,
    p50_ns: f64,
    p99_ns: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn measure<F: FnMut(usize)>(samples: usize, mut op: F) -> LookupMeasurement {
    let mut ns: Vec<f64> = Vec::with_capacity(samples);
    let total = Instant::now();
    for i in 0..samples {
        let t = Instant::now();
        op(i);
        ns.push(t.elapsed().as_nanos() as f64);
    }
    let secs = total.elapsed().as_secs_f64();
    ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    LookupMeasurement {
        samples,
        per_sec: samples as f64 / secs.max(1e-12),
        p50_ns: percentile(&ns, 0.50),
        p99_ns: percentile(&ns, 0.99),
    }
}

/// Microbenchmarks the shared repository (signature-matched lookups over a
/// realistically anchor-heavy namespace) against the isolated per-tenant
/// repository (key-direct lookups).
fn lookup_microbench(anchors: usize, samples: usize) -> Vec<(String, LookupMeasurement)> {
    let shared = SharedSignatureRepository::new(SharedRepoConfig::default());
    for a in 0..anchors {
        shared.insert(
            0,
            7,
            &signature(a),
            (a % 3) as u32,
            ResourceAllocation::large(1 + (a % 9) as u32),
            SimTime::ZERO,
        );
    }
    let hit_sigs: Vec<Vec<f64>> = (0..64).map(signature).collect();
    let miss_sig: Vec<f64> = (0..30).map(|m| 1.0 + m as f64 * 1e6).collect();

    let mut results = Vec::new();
    results.push((
        "shared_lookup_hit".to_string(),
        measure(samples, |i| {
            let sig = &hit_sigs[i % hit_sigs.len()];
            std::hint::black_box(shared.lookup(1, 7, sig, (i % 3) as u32, SimTime::ZERO));
        }),
    ));
    results.push((
        "shared_lookup_miss".to_string(),
        measure(samples, |_| {
            std::hint::black_box(shared.lookup(1, 7, &miss_sig, 0, SimTime::ZERO));
        }),
    ));
    results.push((
        "shared_peek".to_string(),
        measure(samples, |i| {
            let sig = &hit_sigs[i % hit_sigs.len()];
            std::hint::black_box(shared.peek(7, sig, (i % 3) as u32, SimTime::ZERO, Some(99)));
        }),
    ));

    let mut isolated = SignatureRepository::new();
    for a in 0..anchors {
        isolated.insert(
            RepositoryKey {
                class: a,
                interference_bucket: (a % 3) as u32,
            },
            ResourceAllocation::large(1 + (a % 9) as u32),
            SimTime::ZERO,
        );
    }
    results.push((
        "isolated_lookup_hit".to_string(),
        measure(samples, |i| {
            let key = RepositoryKey {
                class: i % anchors,
                interference_bucket: ((i % anchors) % 3) as u32,
            };
            std::hint::black_box(isolated.lookup(key));
        }),
    ));
    results
}

/// Extracts the number following the LAST occurrence of `"key":` in a
/// hand-rolled JSON file — for trajectory files holding several runs, that is
/// the most recent one.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.rfind(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args = parse_args();
    let (default_sizes, anchors, samples): (&[(usize, usize)], usize, usize) = if args.quick {
        (&[(40, 1)], 128, 2_000)
    } else {
        (&[(200, 3), (1000, 1)], 512, 20_000)
    };
    let fleet_sizes: &[(usize, usize)] = if args.fleets.is_empty() {
        default_sizes
    } else {
        &args.fleets
    };

    let mut fleets = Vec::new();
    for &(tenants, days) in fleet_sizes {
        for sharing in [SharingMode::Shared, SharingMode::Isolated] {
            let m = run_fleet(tenants, days, sharing);
            eprintln!(
                "fleet {:>5} tenants x {} day(s) [{:>8}]: {:>7.2} epochs/s ({} epochs in {:.3}s, hit rate {:.1}%)",
                m.tenants, m.days, m.mode, m.epochs_per_sec, m.epochs, m.secs, m.hit_rate * 100.0
            );
            fleets.push(m);
        }
    }

    let warm = if args.quick {
        warm_vs_cold(24, 1, 8, 1)
    } else {
        warm_vs_cold(48, 2, 16, 1)
    };
    let fmt_epochs = |e: Option<f64>| match e {
        Some(v) => format!("{v:.1}"),
        None => "never".to_string(),
    };
    eprintln!(
        "warm-start: first reuse after {} epochs ({}/{} tenants) vs cold {} epochs ({}/{}); hit rate {:.1}% vs {:.1}% ({} B snapshot)",
        fmt_epochs(warm.warm_first_reuse_epochs),
        warm.warm_reusing_tenants,
        warm.newcomers,
        fmt_epochs(warm.cold_first_reuse_epochs),
        warm.cold_reusing_tenants,
        warm.newcomers,
        warm.warm_hit_rate * 100.0,
        warm.cold_hit_rate * 100.0,
        warm.snapshot_bytes,
    );

    let steal = if args.quick {
        work_stealing_sweep(40, 1, 1, &[2])
    } else {
        work_stealing_sweep(1000, 1, 1, &[1, 2, 4])
    };
    let caps_text: Vec<String> = steal
        .caps
        .iter()
        .map(|(threads, rate)| format!("{threads}T {rate:.2}"))
        .collect();
    eprintln!(
        "work-stealing {:>4} tenants x {} day(s) (k={}): bsp {:>7.2} epochs/s vs steal [{}] (k=0 bit-match {})",
        steal.tenants,
        steal.days,
        steal.staleness,
        steal.bsp_epochs_per_sec,
        caps_text.join(", "),
        steal.steal0_bit_match,
    );

    let obs = if args.quick {
        obs_compare(40, 1)
    } else {
        obs_compare(200, 1)
    };
    eprintln!(
        "observability {:>4} tenants x {} day(s): off {:>7.2} epochs/s vs on {:>7.2} ({:+.1}% overhead; peek p50/p90/p99 {}/{}/{} ns; {} parks, {} steals, {} events)",
        obs.tenants,
        obs.days,
        obs.off_epochs_per_sec,
        obs.on_epochs_per_sec,
        obs.overhead_pct,
        obs.peek_p50_ns,
        obs.peek_p90_ns,
        obs.peek_p99_ns,
        obs.parks,
        obs.steals,
        obs.events,
    );

    let faults = if args.quick {
        fault_compare(40, 1)
    } else {
        fault_compare(200, 1)
    };
    eprintln!(
        "faults {:>4} tenants x {} day(s) (spec '{}'): clean {:>7.2} epochs/s vs faulty {:>7.2} ({:+.1}% recovery overhead; {} injected: {} crashes/{} replayed epochs, {} restarts, {} shard losses, {} checkpoints; reconverged after {} epochs; bit-match {})",
        faults.tenants,
        faults.days,
        faults.spec,
        faults.clean_epochs_per_sec,
        faults.faulty_epochs_per_sec,
        faults.recovery_overhead_pct,
        faults.injected,
        faults.tenants_crashed,
        faults.replayed_epochs,
        faults.committer_restarts,
        faults.shard_losses,
        faults.checkpoints,
        faults.epochs_to_reconverge,
        faults.bit_match,
    );

    // Readers scale with the host: on a 1-core recording container extra
    // reader threads only add scheduling overhead over the wait-free path,
    // while a multi-core host should demonstrate read scaling.
    let serving_readers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4);
    let serving = if args.quick {
        serving_bench(anchors, serving_readers, samples, 2_000)
    } else {
        serving_bench(anchors, serving_readers, 100_000, 10_000)
    };
    eprintln!(
        "serving {} readers x {} lookups ({} anchors, publisher live): {:>10.0} lookups/s sustained (p50/p99/p999 {:.0}/{:.0}/{:.0} ns; {} publishes; obs lookup p50/p99 {}/{} ns); wire {:>8.0} lookups/s (p50/p99 {:.0}/{:.0} ns)",
        serving.readers,
        serving.samples_per_reader,
        serving.anchors,
        serving.sustained_lookups_per_sec,
        serving.p50_ns,
        serving.p99_ns,
        serving.p999_ns,
        serving.publishes,
        serving.obs_lookup_p50_ns,
        serving.obs_lookup_p99_ns,
        serving.wire_lookups_per_sec,
        serving.wire_p50_ns,
        serving.wire_p99_ns,
    );

    let scale_tenants = args
        .scale_tenants
        .unwrap_or(if args.quick { 10_000 } else { 100_000 });
    let scale = scale_bench(scale_tenants);
    eprintln!(
        "scale {:>6} tenants x {} epoch ({} threads): {:>9.0} tenant-epochs/s in {:.3}s (hit rate {:.1}%); {} parks, {} steals, {} scratch bytes saved",
        scale.tenants,
        scale.epochs,
        scale.threads,
        scale.tenant_epochs_per_sec,
        scale.secs,
        scale.hit_rate * 100.0,
        scale.parks,
        scale.steals,
        scale.scratch_bytes_saved,
    );

    let lookups = lookup_microbench(anchors, samples);
    for (name, m) in &lookups {
        eprintln!(
            "{name:>22}: {:>12.0} ops/s  p50 {:>7.0} ns  p99 {:>7.0} ns  ({} samples, {anchors} anchors)",
            m.per_sec, m.p50_ns, m.p99_ns, m.samples
        );
    }

    // The headline number the CI regression gate watches.
    let shared_hit_per_sec = lookups
        .iter()
        .find(|(n, _)| n == "shared_lookup_hit")
        .map(|(_, m)| m.per_sec)
        .expect("shared_lookup_hit always measured");

    // The label is spliced into hand-rolled JSON: escape the two characters
    // that would break the string literal.
    let label = args.label.replace('\\', "\\\\").replace('"', "\\\"");
    // Attribution labels: the git revision this run measured and the host's
    // core count, so trajectory numbers from different checkouts/machines
    // stay comparable. Outside a git checkout the revision reads "unknown".
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty() && rev.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut run = String::new();
    let _ = write!(
        run,
        "    {{\n      \"label\": \"{}\",\n      \"mode\": \"{}\",\n      \"git_rev\": \"{}\",\n      \"host_cores\": {},\n      \"workers\": {},\n      \"shared_lookup_hit_per_sec\": {:.0},\n      \"fleets\": [\n",
        label,
        if args.quick { "quick" } else { "full" },
        git_rev,
        host_cores,
        host_cores,
        shared_hit_per_sec,
    );
    for (i, m) in fleets.iter().enumerate() {
        let _ = writeln!(
            run,
            "        {{\"tenants\": {}, \"days\": {}, \"mode\": \"{}\", \"epochs\": {}, \"secs\": {:.4}, \"epochs_per_sec\": {:.2}, \"hit_rate\": {:.4}}}{}",
            m.tenants, m.days, m.mode, m.epochs, m.secs, m.epochs_per_sec, m.hit_rate,
            if i + 1 < fleets.len() { "," } else { "" }
        );
    }
    let json_epochs = |e: Option<f64>| match e {
        Some(v) => format!("{v:.2}"),
        None => "null".to_string(),
    };
    run.push_str("      ],\n");
    let _ = writeln!(
        run,
        "      \"warm_start\": {{\"seed_tenants\": {}, \"seed_days\": {}, \"newcomers\": {}, \"days\": {}, \"snapshot_bytes\": {}, \"warm_first_reuse_epochs\": {}, \"warm_reusing_tenants\": {}, \"cold_first_reuse_epochs\": {}, \"cold_reusing_tenants\": {}, \"warm_hit_rate\": {:.4}, \"cold_hit_rate\": {:.4}}},",
        warm.seed_tenants,
        warm.seed_days,
        warm.newcomers,
        warm.days,
        warm.snapshot_bytes,
        json_epochs(warm.warm_first_reuse_epochs),
        warm.warm_reusing_tenants,
        json_epochs(warm.cold_first_reuse_epochs),
        warm.cold_reusing_tenants,
        warm.warm_hit_rate,
        warm.cold_hit_rate,
    );
    let caps_json: Vec<String> = steal
        .caps
        .iter()
        .map(|(threads, rate)| format!("{{\"threads\": {threads}, \"epochs_per_sec\": {rate:.2}}}"))
        .collect();
    let _ = writeln!(
        run,
        "      \"work_stealing\": {{\"tenants\": {}, \"days\": {}, \"staleness\": {}, \"bsp_epochs_per_sec\": {:.2}, \"caps\": [{}], \"steal0_bit_match\": {}}},",
        steal.tenants,
        steal.days,
        steal.staleness,
        steal.bsp_epochs_per_sec,
        caps_json.join(", "),
        steal.steal0_bit_match,
    );
    let _ = writeln!(
        run,
        "      \"observability\": {{\"tenants\": {}, \"days\": {}, \"off_epochs_per_sec\": {:.2}, \"on_epochs_per_sec\": {:.2}, \"overhead_pct\": {:.2}, \"peek_p50_ns\": {}, \"peek_p90_ns\": {}, \"peek_p99_ns\": {}, \"parks\": {}, \"steals\": {}, \"events\": {}}},",
        obs.tenants,
        obs.days,
        obs.off_epochs_per_sec,
        obs.on_epochs_per_sec,
        obs.overhead_pct,
        obs.peek_p50_ns,
        obs.peek_p90_ns,
        obs.peek_p99_ns,
        obs.parks,
        obs.steals,
        obs.events,
    );
    let _ = writeln!(
        run,
        "      \"faults\": {{\"tenants\": {}, \"days\": {}, \"spec\": \"{}\", \"clean_epochs_per_sec\": {:.2}, \"faulty_epochs_per_sec\": {:.2}, \"recovery_overhead_pct\": {:.2}, \"injected\": {}, \"tenants_crashed\": {}, \"replayed_epochs\": {}, \"committer_restarts\": {}, \"shard_losses\": {}, \"checkpoints\": {}, \"epochs_to_reconverge\": {}, \"bit_match\": {}}},",
        faults.tenants,
        faults.days,
        faults.spec,
        faults.clean_epochs_per_sec,
        faults.faulty_epochs_per_sec,
        faults.recovery_overhead_pct,
        faults.injected,
        faults.tenants_crashed,
        faults.replayed_epochs,
        faults.committer_restarts,
        faults.shard_losses,
        faults.checkpoints,
        faults.epochs_to_reconverge,
        faults.bit_match,
    );
    let _ = writeln!(
        run,
        "      \"serving\": {{\"anchors\": {}, \"readers\": {}, \"samples_per_reader\": {}, \"sustained_lookups_per_sec\": {:.0}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"p999_ns\": {:.0}, \"publishes\": {}, \"obs_lookup_p50_ns\": {}, \"obs_lookup_p99_ns\": {}, \"wire_lookups_per_sec\": {:.0}, \"wire_p50_ns\": {:.0}, \"wire_p99_ns\": {:.0}}},",
        serving.anchors,
        serving.readers,
        serving.samples_per_reader,
        serving.sustained_lookups_per_sec,
        serving.p50_ns,
        serving.p99_ns,
        serving.p999_ns,
        serving.publishes,
        serving.obs_lookup_p50_ns,
        serving.obs_lookup_p99_ns,
        serving.wire_lookups_per_sec,
        serving.wire_p50_ns,
        serving.wire_p99_ns,
    );
    let _ = writeln!(
        run,
        "      \"scale\": {{\"tenants\": {}, \"epochs\": {}, \"threads\": {}, \"secs\": {:.4}, \"epochs_per_sec\": {:.2}, \"tenant_epochs_per_sec\": {:.0}, \"hit_rate\": {:.4}, \"parks\": {}, \"steals\": {}, \"scratch_bytes_saved\": {}}},",
        scale.tenants,
        scale.epochs,
        scale.threads,
        scale.secs,
        scale.epochs_per_sec,
        scale.tenant_epochs_per_sec,
        scale.hit_rate,
        scale.parks,
        scale.steals,
        scale.scratch_bytes_saved,
    );
    run.push_str("      \"lookups\": [\n");
    for (i, (name, m)) in lookups.iter().enumerate() {
        let _ = writeln!(
            run,
            "        {{\"name\": \"{name}\", \"anchors\": {anchors}, \"samples\": {}, \"per_sec\": {:.0}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}}}{}",
            m.samples, m.per_sec, m.p50_ns, m.p99_ns,
            if i + 1 < lookups.len() { "," } else { "" }
        );
    }
    run.push_str("      ]\n    }");

    let json = match &args.prior_runs {
        // Splice the new run into the existing trajectory's `runs` array.
        Some(body) => format!("{body},\n{run}\n  ]\n}}\n"),
        None => format!("{{\n  \"runs\": [\n{run}\n  ]\n}}\n"),
    };
    std::fs::write(&args.out, &json).expect("write BENCH_fleet.json");
    eprintln!("wrote {}", args.out);

    if let Some(base_per_sec) = args.baseline {
        let floor = base_per_sec * (1.0 - args.max_regress);
        eprintln!(
            "regression gate: {shared_hit_per_sec:.0} ops/s vs baseline {base_per_sec:.0} (floor {floor:.0})"
        );
        if shared_hit_per_sec < floor {
            eprintln!(
                "FAIL: shared_lookup_hit_per_sec regressed more than {:.0}%",
                args.max_regress * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("regression gate passed");
    }
}
