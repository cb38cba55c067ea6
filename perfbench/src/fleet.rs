//! The two fleet workloads, `fleet-learn` and `fleet-reuse`: untraced
//! end-to-end runs and the traced layer split.

use crate::stats::{self, mean, median, p50_p99, ReportDigest};
use crate::trace::{
    clock_read_ns, ns_since, PipelineProbes, ProbeLevel, ProbedClient, Spans, TimedBsp,
    TimedController, TimedService, TimedStore, TransportPhases, OUT_DIR,
};
use crate::{fleet_seed, Budget, Outcome, Workload, FLEETS_PER_RUN};
use dejavu_cloud::ProvisioningController;
use dejavu_core::{DejaVuConfig, DejaVuController};
use dejavu_fleet::{
    standard_fleet, FleetConfig, FleetEngine, FleetReport, Outbox, PendingOp, RepositoryClient,
    RunState, Scenario, ShardStats, SharedSignatureRepository, SimulationEngine, TenantOutcome,
    TenantRepoView, TransportSummary,
};
use dejavu_simcore::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs per invocation, at least, however short `--seconds` is: every fleet
/// of the run once, and the first one again for the determinism check.
pub const MIN_ITERATIONS: usize = FLEETS_PER_RUN + 1;
/// Scenario and engine builds per run; the run reports their median.
const SETUP_REPEATS: usize = 9;
/// Largest share of the replay's worker time the timed tenant ticks may
/// leave unaccounted before the traced run fails its layer-sum check.
const LAYER_GAP_LIMIT_PCT: f64 = 5.0;

/// Worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fleet configuration every workload runs under: shared repository,
/// BSP barrier, one worker per core.
pub fn fleet_config(workers: usize) -> FleetConfig {
    FleetConfig {
        workers,
        ..FleetConfig::default()
    }
}

/// Fleet-level science numbers: deterministic for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Science {
    hit_rate: f64,
    slo_violation_pct: f64,
    tunings_per_tenant: f64,
    cost_per_tenant_day: f64,
}

impl Science {
    pub fn of(report: &FleetReport, days: usize) -> Self {
        let tenants = report.tenants.len().max(1) as f64;
        Science {
            hit_rate: report.fleet_hit_rate(),
            slo_violation_pct: report.aggregate_slo_violation() * 100.0,
            tunings_per_tenant: report.total_tunings() as f64 / tenants,
            cost_per_tenant_day: report.total_cost() / (tenants * days as f64),
        }
    }

    /// The mean over several fleets.
    pub fn mean(all: &[Science]) -> Self {
        let n = all.len().max(1) as f64;
        let avg = |f: fn(&Science) -> f64| all.iter().map(f).sum::<f64>() / n;
        Science {
            hit_rate: avg(|s| s.hit_rate),
            slo_violation_pct: avg(|s| s.slo_violation_pct),
            tunings_per_tenant: avg(|s| s.tunings_per_tenant),
            cost_per_tenant_day: avg(|s| s.cost_per_tenant_day),
        }
    }

    pub fn push(self, out: &mut Outcome) {
        out.push("hit_rate", self.hit_rate, "fraction");
        out.push("slo_violation_pct", self.slo_violation_pct, "%");
        out.push("tunings_per_tenant", self.tunings_per_tenant, "count");
        out.push(
            "cost_per_tenant_day",
            self.cost_per_tenant_day,
            "cost-units",
        );
    }
}

/// Tenant-epochs actually stepped.
pub fn tenant_epochs(report: &FleetReport) -> f64 {
    report.tenants.iter().map(|t| t.active_epochs as f64).sum()
}

/// One untraced fleet run.
struct Run {
    setup_s: f64,
    wall_s: f64,
    report: FleetReport,
    /// The fleet's repository reads: per-peek latencies.
    client: Arc<ProbedClient>,
}

fn build(w: Workload, seed: u64) -> (FleetEngine, Arc<SharedSignatureRepository>) {
    let (tenants, days) = w.size();
    let engine = FleetEngine::new(standard_fleet(tenants, days, seed), fleet_config(nproc()));
    let repo = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
    (engine, repo)
}

/// Builds the fleet (several times, for a steady set-up figure) and runs it
/// once through the program's own BSP barrier. The only bench code in the
/// path is a client that times each peek on its way to the repository.
fn run_once(w: Workload, seed: u64) -> Run {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // The previous build is dropped outside the timed region.
        drop(built.take());
        let setup = Instant::now();
        built = Some(build(w, seed));
        setups.push(setup.elapsed().as_secs_f64());
    }
    let (engine, repo) = built.expect("at least one setup");
    let client = Arc::new(ProbedClient::new(repo, ProbeLevel::Peeks));
    let started = Instant::now();
    let report = engine.run_on_client(Arc::clone(&client) as _);
    let wall_s = started.elapsed().as_secs_f64();
    Run {
        setup_s: median(&setups),
        wall_s,
        report,
        client,
    }
}

/// The fleet's own repository reads in `run`: median peek latency (µs) and
/// peeks per second of the fleet's wall time.
fn peek_figures(run: &Run) -> (f64, f64) {
    let log = run.client.log.lock().expect("client log poisoned");
    let us: Vec<f64> = log.peek_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    (median(&us), us.len() as f64 / run.wall_s)
}

/// The untraced run: end-to-end metrics, medians over repeated fleet runs.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let (_, days) = w.size();
    let mut out = Outcome::default();
    let mut references: Vec<(ReportDigest, Science)> = Vec::new();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    // Per fleet of the run: each iteration's peek p50 and peeks per second.
    let mut peek_p50s = vec![Vec::new(); FLEETS_PER_RUN];
    let mut peek_rates = vec![Vec::new(); FLEETS_PER_RUN];
    let mut budget = Budget::new(seconds, MIN_ITERATIONS);
    while budget.start_iteration() {
        let k = rates.len() % FLEETS_PER_RUN;
        let run = run_once(w, fleet_seed(seed, k));
        rates.push(tenant_epochs(&run.report) / run.wall_s);
        setups.push(run.setup_s);
        out.attempted += run.report.tenants.len() as u64;
        out.failed += run.report.tenants_failed() as u64;
        let (p50, per_s) = peek_figures(&run);
        out.check(per_s > 0.0, || {
            format!("fleet {k} made no repository reads")
        });
        peek_p50s[k].push(p50);
        peek_rates[k].push(per_s);
        eprintln!(
            "  iteration {} (fleet {k}): {:.0} tenant-epochs/s, \
             peek p50 {p50:.2} us, {per_s:.0} peeks/s, setup {:.4} s",
            rates.len(),
            rates.last().copied().unwrap_or(0.0),
            run.setup_s,
        );
        match references.get(k) {
            None => references.push((
                ReportDigest::of(&run.report),
                Science::of(&run.report, days),
            )),
            Some((first, _)) => {
                let diff = first.diff("repeat run", &run.report);
                out.check(diff.is_none(), || diff.unwrap_or_default());
            }
        }
    }
    let science: Vec<Science> = references.iter().map(|r| r.1).collect();
    out.push("tenant_epochs_per_s", median(&rates), "tenant-epochs/s");
    Science::mean(&science).push(&mut out);
    // Fleets never call `lookup`; their repository reads are peeks. Read
    // cost depends on each fleet's repository, so these are the mean over
    // the run's fleets of each fleet's median.
    let per_fleet = |runs: &[Vec<f64>]| mean(&runs.iter().map(|r| median(r)).collect::<Vec<_>>());
    out.push("lookup_p50_us", per_fleet(&peek_p50s), "us");
    out.push("lookups_per_s", per_fleet(&peek_rates), "lookups/s");
    out.push("setup_s", median(&setups), "s");
    out.push("peak_rss_mb", stats::peak_rss_mb(), "MB");
    eprintln!(
        "perfbench {w:?} seed {seed}: {} runs, {:.1} tenant-epochs/s median",
        rates.len(),
        median(&rates)
    );
    out
}

// ---------------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------------

/// One tenant of the pipeline replay: the same construction as the fleet
/// engine's, with the service model, controller and store wrapped.
struct ReplayTenant {
    engine: SimulationEngine,
    service: TimedService,
    controller: TimedController,
    state: RunState,
    start_epoch: usize,
    stop_epoch: Option<usize>,
    active_epochs: usize,
    retired: bool,
    first_reuse_epoch: Option<usize>,
    failed_epoch: Option<usize>,
    cross_tenant_hits: u64,
    outbox: Outbox,
    probes: Arc<PipelineProbes>,
}

impl ReplayTenant {
    fn new(
        scenario: &Scenario,
        config: &FleetConfig,
        index: usize,
        client: &Arc<dyn RepositoryClient>,
        origin_secs: f64,
    ) -> Self {
        let epoch_secs = scenario.epoch.as_secs();
        let window = scenario.epoch_windows()[index];
        let spec = &scenario.tenants[index];
        let probes = Arc::new(PipelineProbes::default());
        let engine = SimulationEngine::new(spec.run_config(scenario.tick));
        let space = engine.config().space.clone();
        let dv_config = DejaVuConfig::builder()
            .learning_hours(config.learning_hours)
            .seed(spec.seed)
            .build();
        let tuner_model = TimedService {
            inner: spec.service.build(),
            probes: Arc::clone(&probes),
            tuner: true,
        };
        let (view, outbox) = TenantRepoView::new_with_offset(
            Arc::clone(client),
            spec.id,
            spec.namespace(),
            SimDuration::from_secs(origin_secs + epoch_secs * window.start as f64),
        );
        let controller = DejaVuController::new(dv_config, Box::new(tuner_model), space)
            .with_name(format!("dejavu-{}", spec.name))
            .with_store(Box::new(TimedStore {
                inner: Box::new(view),
                probes: Arc::clone(&probes),
            }));
        let state = engine.begin();
        ReplayTenant {
            engine,
            service: TimedService {
                inner: spec.service.build(),
                probes: Arc::clone(&probes),
                tuner: false,
            },
            controller: TimedController {
                inner: controller,
                probes: Arc::clone(&probes),
            },
            state,
            start_epoch: window.start,
            stop_epoch: window.stop,
            active_epochs: 0,
            retired: false,
            first_reuse_epoch: None,
            failed_epoch: None,
            cross_tenant_hits: 0,
            outbox,
            probes,
        }
    }

    /// Steps through global epoch `epoch` exactly as the fleet's tenant runs
    /// do (local clock, tenancy window), timing each engine tick.
    fn step_epoch(&mut self, epoch: usize, epoch_secs: f64) {
        if self.retired || epoch < self.start_epoch {
            return;
        }
        let mut local_epochs = epoch + 1 - self.start_epoch;
        if let Some(stop) = self.stop_epoch {
            let cap = stop.saturating_sub(self.start_epoch);
            if cap == 0 {
                return;
            }
            local_epochs = local_epochs.min(cap);
        }
        if local_epochs <= self.active_epochs {
            return;
        }
        self.active_epochs = local_epochs;
        let epoch_end = epoch_secs * local_epochs as f64;
        let (mut ticks, mut tick_ns) = (0, 0);
        while let Some(t) = self.state.next_tick_time() {
            if t.as_secs() >= epoch_end {
                break;
            }
            let started = Instant::now();
            self.engine
                .step(&mut self.state, &self.service, &mut self.controller);
            tick_ns += ns_since(started);
            ticks += 1;
        }
        self.probes.tick.add_many(ticks, tick_ns);
    }

    /// The barrier bookkeeping after a commit: first fleet reuse, retirement.
    fn end_epoch(&mut self, epoch: usize) {
        if self.retired {
            return;
        }
        if self.first_reuse_epoch.is_none()
            && epoch + 1 > self.start_epoch
            && self.controller.inner.stats().fleet_reuses > 0
        {
            self.first_reuse_epoch = Some(epoch + 1 - self.start_epoch);
        }
        let end = epoch + 1;
        if end > self.start_epoch
            && (self.state.is_done() || self.stop_epoch.is_some_and(|stop| end >= stop))
        {
            self.retired = true;
        }
    }

    fn finish(self, scenario: &Scenario, index: usize) -> TenantOutcome {
        let spec = &scenario.tenants[index];
        let name = self.controller.name().to_string();
        TenantOutcome {
            id: spec.id,
            name: spec.name.clone(),
            namespace: spec.namespace(),
            stats: self.controller.inner.stats().clone(),
            cross_tenant_hits: self.cross_tenant_hits,
            joined_epoch: self.start_epoch,
            active_epochs: self.active_epochs,
            first_fleet_reuse_epoch: self.first_reuse_epoch,
            failed_epoch: self.failed_epoch,
            dejavu: self.engine.finish(self.state, &name),
            fixed_max: None,
            rightscale: None,
        }
    }
}

/// What the pipeline replay measured.
struct Replay {
    outcomes: Vec<TenantOutcome>,
    probes: PipelineTotals,
    client: Arc<ProbedClient>,
    repo: Arc<SharedSignatureRepository>,
    /// Worker time stepping tenants, summed across workers, ns.
    step_busy_ns: u64,
}

/// Pipeline probe totals over every replayed tenant, ns and calls.
#[derive(Default)]
struct PipelineTotals {
    tick: (u64, u64),
    engine_evaluate: (u64, u64),
    tuner_evaluate: (u64, u64),
    decide: (u64, u64),
    store_get: (u64, u64),
    store_put: (u64, u64),
}

fn totals(tenants: &[ReplayTenant]) -> PipelineTotals {
    let mut t = PipelineTotals::default();
    let add = |acc: &mut (u64, u64), p: &crate::trace::Probe| {
        acc.0 += p.calls();
        acc.1 += p.busy_ns.load(std::sync::atomic::Ordering::Relaxed);
    };
    for tenant in tenants {
        let p = &tenant.probes;
        add(&mut t.tick, &p.tick);
        add(&mut t.engine_evaluate, &p.engine_evaluate);
        add(&mut t.tuner_evaluate, &p.tuner_evaluate);
        add(&mut t.decide, &p.decide);
        add(&mut t.store_get, &p.store_get);
        add(&mut t.store_put, &p.store_put);
    }
    t
}

/// Replays the whole fleet with every tenant's pipeline wrapped, stepping it
/// in lock-step epochs over a timing client on a fresh repository.
fn replay(w: Workload, seed: u64, spans: &Spans, parent: usize) -> Replay {
    let (engine, repo) = build(w, seed);
    let scenario = engine.scenario();
    let config = engine.config();
    let client = Arc::new(ProbedClient::new(
        Arc::clone(&repo) as Arc<dyn RepositoryClient>,
        ProbeLevel::Calls,
    ));
    let dyn_client: Arc<dyn RepositoryClient> = Arc::clone(&client) as _;
    let origin_secs = dyn_client.clock().as_secs();
    let epoch_secs = scenario.epoch.as_secs();
    let epochs = scenario
        .epoch_windows()
        .iter()
        .map(|w| w.end)
        .max()
        .unwrap_or(0);
    let mut tenants: Vec<ReplayTenant> = (0..scenario.tenants.len())
        .map(|i| ReplayTenant::new(scenario, config, i, &dyn_client, origin_secs))
        .collect();
    let chunk = tenants.len().div_ceil(nproc()).max(1);
    let mut step_busy_ns = 0u64;
    for epoch in 0..epochs {
        let epoch_start = Instant::now();
        let busy: Vec<u64> = std::thread::scope(|scope| {
            let joins: Vec<_> = tenants
                .chunks_mut(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let started = Instant::now();
                        for t in part {
                            let stepped =
                                catch_unwind(AssertUnwindSafe(|| t.step_epoch(epoch, epoch_secs)));
                            if stepped.is_err() && t.failed_epoch.is_none() {
                                t.failed_epoch = Some(epoch);
                                t.retired = true;
                            }
                        }
                        ns_since(started)
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("replay worker panicked"))
                .collect()
        });
        step_busy_ns += busy.iter().sum::<u64>();
        let commit_start = Instant::now();
        let mut ops: Vec<PendingOp> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for (i, t) in tenants.iter().enumerate() {
            let mut outbox = t.outbox.lock().expect("tenant outbox poisoned");
            if t.failed_epoch.is_some() {
                outbox.clear();
                continue;
            }
            owners.resize(owners.len() + outbox.len(), i);
            ops.append(&mut outbox);
        }
        if !ops.is_empty() {
            let applied = dyn_client.apply_batch(&ops);
            for ((op, &owner), applied) in ops.iter().zip(&owners).zip(applied) {
                if applied && matches!(op, PendingOp::RecordHit { .. }) {
                    tenants[owner].cross_tenant_hits += 1;
                }
            }
        }
        dyn_client.evict_stale(SimTime::from_secs(
            origin_secs + epoch_secs * (epoch + 1) as f64,
        ));
        for t in &mut tenants {
            t.end_epoch(epoch);
        }
        let epoch_span = spans.record("replay.epoch", epoch_start, Instant::now(), Some(parent));
        spans.record(
            "replay.commit",
            commit_start,
            Instant::now(),
            Some(epoch_span),
        );
    }
    let probes = totals(&tenants);
    let outcomes = tenants
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.finish(scenario, i))
        .collect();
    Replay {
        outcomes,
        probes,
        client,
        repo,
        step_busy_ns,
    }
}

/// One traced round's timings.
struct Round {
    untraced_wall_s: f64,
    traced_wall_s: f64,
    prepare_s: f64,
    finalize_s: f64,
    phases: TransportPhases,
}

/// What a traced pass must reproduce: the untraced run's fingerprint, kept
/// without the report itself so two fleets are never in memory at once.
struct Expected {
    digest: ReportDigest,
    transport: TransportSummary,
    repo: RepoView,
}

/// The final repository counters a fleet report records.
type RepoView = Option<(usize, usize, ShardStats, Vec<ShardStats>)>;

fn repo_view(report: &FleetReport) -> RepoView {
    report
        .shared_repo
        .as_ref()
        .map(|s| (s.entries, s.anchors, s.stats, s.shard_stats.clone()))
}

/// Runs the fleet through [`TimedBsp`] and checks its report against the
/// untraced reference. Returns `(wall, prepare, finalize)` seconds and the
/// phase totals.
fn timed_barrier_run(
    w: Workload,
    seed: u64,
    expected: &Expected,
    spans: &Arc<Spans>,
    out: &mut Outcome,
) -> (f64, f64, f64, TransportPhases) {
    let (engine, repo) = build(w, seed);
    let run_start = Instant::now();
    let root = spans.open("fleet.run", run_start, None);
    let transport = TimedBsp {
        spans: Arc::clone(spans),
        parent: Some(root),
        phases: Mutex::new(TransportPhases::default()),
    };
    let report = engine.run_on_with(Arc::clone(&repo), &transport);
    let run_end = Instant::now();
    let phases = transport
        .phases
        .into_inner()
        .expect("phase totals poisoned");
    let drive_start = phases.drive_start.expect("barrier drove");
    let drive_end = phases.drive_end.expect("barrier drove");
    spans.record("fleet.prepare", run_start, drive_start, Some(root));
    spans.record("fleet.finalize", drive_end, run_end, Some(root));
    spans.close(root, run_end);
    let diff = expected.digest.diff("timed barrier", &report);
    out.check(diff.is_none(), || diff.unwrap_or_default());
    out.check(report.transport == expected.transport, || {
        "timed barrier: transport summary differs from the program's barrier".into()
    });
    out.check(repo_view(&report) == expected.repo, || {
        "timed barrier: final repository differs from the program's barrier".into()
    });
    (
        run_end.duration_since(run_start).as_secs_f64(),
        drive_start.duration_since(run_start).as_secs_f64(),
        run_end.duration_since(drive_end).as_secs_f64(),
        phases,
    )
}

/// The traced run: per-layer metrics from bench-side wrappers.
pub fn trace(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let spans = Arc::new(Spans::new());
    let mut rounds: Vec<Round> = Vec::new();
    let mut layers: Vec<crate::Metric> = Vec::new();
    let mut gaps = Vec::new();
    // The last replay's sampled peeks and final repository, for the kernels.
    let mut resolve_inputs = None;
    let clock_ns = clock_read_ns();
    let mut budget = Budget::new(seconds, 1);
    while budget.start_iteration() {
        let reference = run_once(w, seed);
        out.attempted += reference.report.tenants.len() as u64;
        out.failed += reference.report.tenants_failed() as u64;
        let expected = Expected {
            digest: ReportDigest::of(&reference.report),
            transport: reference.report.transport.clone(),
            repo: repo_view(&reference.report),
        };
        let mut layer = Outcome::default();
        push_controller_counts(&mut layer, &reference.report);
        let untraced_wall_s = reference.wall_s;
        drop(reference);

        let (traced_wall_s, prepare_s, finalize_s, phases) =
            timed_barrier_run(w, seed, &expected, &spans, &mut out);
        rounds.push(Round {
            untraced_wall_s,
            traced_wall_s,
            prepare_s,
            finalize_s,
            phases,
        });
        let replay_start = Instant::now();
        let replay_root = spans.open("replay.run", replay_start, None);
        let replayed = replay(w, seed, &spans, replay_root);
        spans.close(replay_root, Instant::now());
        let diff = expected
            .digest
            .diff_tenants("pipeline replay", &replayed.outcomes);
        out.check(diff.is_none(), || diff.unwrap_or_default());
        let gap = layer_sum_gap_pct(&replayed, clock_ns);
        out.check(gap.abs() <= LAYER_GAP_LIMIT_PCT, || {
            format!(
                "layer sum: timed tenant ticks leave {gap:.2}% of the replay's worker time \
                 unaccounted (limit {LAYER_GAP_LIMIT_PCT}%)"
            )
        });
        gaps.push(gap);
        push_shared_repo(&mut layer, &replayed);
        push_pipeline(&mut layer, &replayed);
        layers = layer.metrics;
        let queries = replayed
            .client
            .log
            .lock()
            .expect("client log poisoned")
            .queries
            .clone();
        resolve_inputs = Some((queries, replayed.repo.to_snapshot()));
    }
    push_transport(&mut out, &rounds);
    out.metrics.extend(layers);
    out.push("layer_sum_gap_pct", median(&gaps), "%");
    out.push("trace.clock_read_ns", clock_ns, "ns");
    if let Some((queries, snapshot)) = resolve_inputs {
        crate::kernels::measure(&mut out, &queries, &snapshot);
    }
    let path = format!("{OUT_DIR}/spans-{w:?}-{seed}.tsv");
    if let Err(e) = spans.write(&path) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    out
}

fn push_transport(out: &mut Outcome, rounds: &[Round]) {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let s = |ns: u64| ns as f64 / 1e9;
    out.push(
        "transport.step_busy_s",
        med(&|r| s(r.phases.step_busy_ns)),
        "s",
    );
    out.push(
        "transport.step_wall_s",
        med(&|r| s(r.phases.step_wall_ns)),
        "s",
    );
    out.push(
        "transport.worker_imbalance",
        med(&|r| r.phases.step_max_worker_ns as f64 / r.phases.step_mean_worker_ns.max(1.0)),
        "ratio",
    );
    out.push("transport.drain_s", med(&|r| s(r.phases.drain_ns)), "s");
    out.push("transport.commit_s", med(&|r| s(r.phases.commit_ns)), "s");
    out.push(
        "transport.commit_ops",
        med(&|r| r.phases.commit_ops as f64),
        "count",
    );
    out.push("transport.sweep_s", med(&|r| s(r.phases.sweep_ns)), "s");
    out.push(
        "transport.sweep_evicted",
        med(&|r| r.phases.sweep_evicted as f64),
        "count",
    );
    out.push(
        "transport.barrier_serial_s",
        med(&|r| s(r.phases.barrier_serial_ns)),
        "s",
    );
    out.push("fleet.prepare_s", med(&|r| r.prepare_s), "s");
    out.push("fleet.finalize_s", med(&|r| r.finalize_s), "s");
    out.push(
        "trace_overhead_pct",
        med(&|r| (r.traced_wall_s - r.untraced_wall_s) / r.untraced_wall_s * 100.0),
        "%",
    );
}

/// The replay's worker time stepping tenants that its timed tenant ticks do
/// not account for, as a percentage: two clocks read independently (around
/// each worker's share of an epoch, and around each `SimulationEngine::step`),
/// so a tenant-step phase that escaped the tick timer shows here. The tick
/// timer's own clock read between ticks (`clock_ns` each) is not a phase, so
/// it is taken out.
fn layer_sum_gap_pct(replayed: &Replay, clock_ns: f64) -> f64 {
    let busy = replayed.step_busy_ns as f64;
    let (ticks, tick_ns) = replayed.probes.tick;
    (busy - tick_ns as f64 - ticks as f64 * clock_ns) / busy.max(1.0) * 100.0
}

fn push_shared_repo(out: &mut Outcome, replayed: &Replay) {
    let log = replayed.client.log.lock().expect("client log poisoned");
    let mut peeks: Vec<f64> = log.peek_ns.iter().map(|&ns| ns as f64).collect();
    let peek_busy_ns: f64 = peeks.iter().sum();
    let (p50, p99) = p50_p99(&mut peeks);
    let calls = peeks.len() as f64;
    out.push("shared_repo.peek_calls", calls, "count");
    out.push(
        "shared_repo.peek_hit_ratio",
        log.peek_hits as f64 / calls.max(1.0),
        "ratio",
    );
    out.push("shared_repo.peek_busy_s", peek_busy_ns / 1e9, "s");
    out.push(
        "shared_repo.peek_share_pct",
        peek_busy_ns / replayed.probes.tick.1.max(1) as f64 * 100.0,
        "%",
    );
    out.push("shared_repo.peek_p50_ns", p50, "ns");
    out.push("shared_repo.peek_p99_ns", p99, "ns");
    let commit_ns: u64 = log.commits.iter().map(|c| c.0).sum();
    let ops: u64 = log.commits.iter().map(|c| c.1).sum();
    let applied: u64 = log.commits.iter().map(|c| c.2).sum();
    out.push("shared_repo.commit_busy_s", commit_ns as f64 / 1e9, "s");
    out.push(
        "shared_repo.commit_applied_ratio",
        applied as f64 / ops.max(1) as f64,
        "ratio",
    );
    out.push(
        "shared_repo.anchors",
        replayed.repo.anchor_count() as f64,
        "count",
    );
    out.push("shared_repo.entries", replayed.repo.len() as f64, "count");
}

fn push_pipeline(out: &mut Outcome, replayed: &Replay) {
    let p = &replayed.probes;
    let s = |ns: u64| ns as f64 / 1e9;
    out.push("engine.tick_busy_s", s(p.tick.1), "s");
    out.push("engine.ticks", p.tick.0 as f64, "count");
    out.push(
        "engine.self_s",
        s(p.tick.1.saturating_sub(p.decide.1 + p.engine_evaluate.1)),
        "s",
    );
    out.push("controller.decide_busy_s", s(p.decide.1), "s");
    out.push("controller.decide_calls", p.decide.0 as f64, "count");
    out.push(
        "controller.self_s",
        s(p.decide
            .1
            .saturating_sub(p.tuner_evaluate.1 + p.store_get.1 + p.store_put.1)),
        "s",
    );
    out.push(
        "services.evaluate_busy_s",
        s(p.engine_evaluate.1 + p.tuner_evaluate.1),
        "s",
    );
    out.push(
        "services.evaluate_calls",
        (p.engine_evaluate.0 + p.tuner_evaluate.0) as f64,
        "count",
    );
    out.push("store.get_calls", p.store_get.0 as f64, "count");
    out.push("store.put_calls", p.store_put.0 as f64, "count");
    out.push("store.busy_s", s(p.store_get.1 + p.store_put.1), "s");
    out.push("replay.step_busy_s", s(replayed.step_busy_ns), "s");
}

/// Exact controller counts summed over the fleet's `DejaVuStats`.
pub fn push_controller_counts(out: &mut Outcome, report: &FleetReport) {
    let sum = |f: &dyn Fn(&TenantOutcome) -> u64| report.tenants.iter().map(f).sum::<u64>();
    let hits = sum(&|t| t.stats.cache_hits);
    let classified = hits + sum(&|t| t.stats.unforeseen + t.stats.repository_misses);
    out.push(
        "controller.tunings",
        sum(&|t| t.stats.tunings as u64) as f64,
        "count",
    );
    out.push(
        "controller.reclusterings",
        sum(&|t| t.stats.reclusterings as u64) as f64,
        "count",
    );
    out.push(
        "controller.unforeseen",
        sum(&|t| t.stats.unforeseen) as f64,
        "count",
    );
    out.push(
        "controller.cache_hit_ratio",
        hits as f64 / classified.max(1) as f64,
        "ratio",
    );
}
