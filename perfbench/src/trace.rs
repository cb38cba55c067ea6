//! Bench-side tracing: a span log kept in memory and written out when the run
//! ends, call probes, and the wrappers that time each layer through its public
//! interface — a [`CommitTransport`] for the barrier, a [`RepositoryClient`]
//! for the shared repository and the wire client, and a [`ServiceModel`],
//! [`ProvisioningController`] and [`AllocationStore`] for the tenant pipeline.
//! Nothing here changes what the wrapped layer computes.

use dejavu_cloud::{ControllerDecision, Observation, ProvisioningController, ResourceAllocation};
use dejavu_core::{AllocationStore, DejaVuController, RepositoryEntry, RepositoryKey};
use dejavu_core::{RepositoryStats, StoreContext};
use dejavu_fleet::{
    BspBarrier, CommitTransport, FleetHarness, PendingOp, RepositoryClient, ResolveMemo,
    ShardStats, SharedEntry, StalenessHistogram, TenantId, TransportOutcome, TransportSummary,
};
use dejavu_serve::{Request, Response};
use dejavu_services::service::EvalContext;
use dejavu_services::{PerfSample, ServiceModel, Slo};
use dejavu_simcore::SimTime;
use dejavu_traces::{RequestMix, ServiceKind};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Directory, relative to the working directory, for span logs, sockets and
/// checkpoint directories.
pub const OUT_DIR: &str = ".bench_out";

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The cost of one `Instant::now()`, ns: the fastest of several rounds of
/// back-to-back reads (a busy host only ever makes a round slower).
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            ns_since(started) as f64 / f64::from(READS)
        })
        .collect();
    rounds.into_iter().fold(f64::INFINITY, f64::min)
}

/// One recorded span. `parent` indexes the enclosing span in the same log.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span log; [`Spans::write`] dumps it as TSV at the end.
pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end)` under `parent`; returns the span's id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
        });
        spans.len() - 1
    }

    /// Opens a span that encloses spans recorded before it ends; returns its
    /// id for [`Spans::close`] and for its children's `parent`.
    pub fn open(&self, name: &'static str, start: Instant, parent: Option<usize>) -> usize {
        self.record(name, start, start, parent)
    }

    /// Ends the span `id` at `end`.
    pub fn close(&self, id: usize, end: Instant) {
        let end_ns = self.offset_ns(end);
        self.spans.lock().expect("span log poisoned")[id].end_ns = end_ns;
    }

    /// Writes `id name start_ns end_ns parent` lines to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A call counter with accumulated busy time.
#[derive(Default)]
pub struct Probe {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl Probe {
    pub fn add(&self, ns: u64) {
        self.add_many(1, ns);
    }

    /// Adds `calls` calls that took `ns` in total.
    pub fn add_many(&self, calls: u64, ns: u64) {
        self.calls.fetch_add(calls, Relaxed);
        self.busy_ns.fetch_add(ns, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// fleet.transport: the barrier, timed from a bench-side CommitTransport.
// ---------------------------------------------------------------------------

/// Per-phase totals of one [`TimedBsp`] drive, in nanoseconds.
#[derive(Default, Debug, Clone)]
pub struct TransportPhases {
    /// Worker time stepping tenants, summed across workers.
    pub step_busy_ns: u64,
    /// Wall time of the stepping phase, summed across epochs.
    pub step_wall_ns: u64,
    /// Sum over epochs of the slowest worker's busy time.
    pub step_max_worker_ns: u64,
    /// Sum over epochs of the mean worker busy time.
    pub step_mean_worker_ns: f64,
    pub drain_ns: u64,
    pub commit_ns: u64,
    pub commit_ops: u64,
    pub sweep_ns: u64,
    pub sweep_evicted: u64,
    /// Everything between the end of stepping and the end of the epoch:
    /// drain, commit, sweep and the convergence bookkeeping.
    pub barrier_serial_ns: u64,
    pub drive_start: Option<Instant>,
    pub drive_end: Option<Instant>,
}

/// The lock-step barrier of [`BspBarrier`], re-implemented over the public
/// `TenantHandle`/`FleetContext` calls with a timer around each phase. Its
/// report must bit-match the program's own barrier.
pub struct TimedBsp {
    pub spans: Arc<Spans>,
    /// Parent span id for the epochs (the enclosing run span).
    pub parent: Option<usize>,
    pub phases: Mutex<TransportPhases>,
}

impl CommitTransport for TimedBsp {
    fn name(&self) -> String {
        BspBarrier.name()
    }

    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome {
        let drive_start = Instant::now();
        let (ctx, mut handles) = harness.split();
        let tenants = handles.len();
        let mut out = TransportOutcome {
            summary: TransportSummary {
                name: self.name(),
                view_staleness: StalenessHistogram::default(),
                reuse_staleness: StalenessHistogram::default(),
            },
            hit_rate_curve: Vec::new(),
            cross_tenant_hits: vec![0; tenants],
            failed: vec![None; tenants],
            faults: None,
        };
        let mut p = TransportPhases::default();
        let chunk_size = tenants.div_ceil(ctx.workers().max(1)).max(1);
        let mut ops: Vec<PendingOp> = Vec::new();
        let mut op_tenants: Vec<usize> = Vec::new();
        for epoch in 0..ctx.epochs() {
            let epoch_start = Instant::now();
            let worker_results: Vec<(Vec<usize>, Instant, Instant)> = std::thread::scope(|scope| {
                let joins: Vec<_> = handles
                    .chunks_mut(chunk_size)
                    .map(|chunk| {
                        scope.spawn(move || {
                            let started = Instant::now();
                            let mut failed = Vec::new();
                            for handle in chunk {
                                let stepped = catch_unwind(AssertUnwindSafe(|| {
                                    handle.step_epoch(epoch, &ctx)
                                }));
                                if stepped.is_err() {
                                    failed.push(handle.index());
                                }
                            }
                            (failed, started, Instant::now())
                        })
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("barrier worker panicked"))
                    .collect()
            });
            let step_end = Instant::now();
            let mut max_worker = 0u64;
            let mut sum_worker = 0u64;
            for (_, started, ended) in &worker_results {
                let busy = ended.saturating_duration_since(*started).as_nanos() as u64;
                max_worker = max_worker.max(busy);
                sum_worker += busy;
            }
            p.step_busy_ns += sum_worker;
            p.step_max_worker_ns += max_worker;
            p.step_mean_worker_ns += sum_worker as f64 / worker_results.len().max(1) as f64;
            p.step_wall_ns += step_end.saturating_duration_since(epoch_start).as_nanos() as u64;
            for tenant in worker_results.into_iter().flat_map(|(failed, _, _)| failed) {
                out.failed[tenant] = Some(epoch);
                handles[tenant].retire();
                handles[tenant].discard_outbox();
            }

            let drain_start = Instant::now();
            ops.clear();
            op_tenants.clear();
            for handle in &mut handles {
                if out.failed[handle.index()].is_some() {
                    continue;
                }
                let drained = handle.drain_outbox();
                op_tenants.resize(op_tenants.len() + drained.len(), handle.index());
                ops.extend(drained);
            }
            let commit_start = Instant::now();
            if !ops.is_empty() {
                let applied = ctx.commit(&ops);
                for ((op, &tenant), applied) in ops.iter().zip(&op_tenants).zip(applied) {
                    if applied && matches!(op, PendingOp::RecordHit { .. }) {
                        out.cross_tenant_hits[tenant] += 1;
                        out.summary.reuse_staleness.record(0);
                    }
                }
            }
            let sweep_start = Instant::now();
            p.sweep_evicted += ctx.sweep(epoch);
            let sweep_end = Instant::now();
            p.commit_ops += ops.len() as u64;

            let mut hits = 0u64;
            let mut misses = 0u64;
            for handle in &mut handles {
                let (h, m) = handle.repo_stats();
                hits += h;
                misses += m;
                if !handle.retired() {
                    if epoch >= handle.start_epoch() && epoch < handle.end_epoch() {
                        out.summary.view_staleness.record(0);
                    }
                    handle.observe_reuse(epoch);
                    if handle.retires_at(epoch) {
                        handle.retire();
                    }
                }
            }
            out.hit_rate_curve.push(if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            });
            let epoch_end = Instant::now();

            p.drain_ns += commit_start
                .saturating_duration_since(drain_start)
                .as_nanos() as u64;
            p.commit_ns += sweep_start
                .saturating_duration_since(commit_start)
                .as_nanos() as u64;
            p.sweep_ns += sweep_end.saturating_duration_since(sweep_start).as_nanos() as u64;
            p.barrier_serial_ns += epoch_end.saturating_duration_since(step_end).as_nanos() as u64;
            let epoch_span =
                self.spans
                    .record("transport.epoch", epoch_start, epoch_end, self.parent);
            let s = &self.spans;
            s.record("transport.step", epoch_start, step_end, Some(epoch_span));
            s.record(
                "transport.drain",
                drain_start,
                commit_start,
                Some(epoch_span),
            );
            s.record(
                "transport.commit",
                commit_start,
                sweep_start,
                Some(epoch_span),
            );
            s.record("transport.sweep", sweep_start, sweep_end, Some(epoch_span));
        }
        p.drive_start = Some(drive_start);
        p.drive_end = Some(Instant::now());
        *self.phases.lock().expect("phase totals poisoned") = p;
        out
    }
}

// ---------------------------------------------------------------------------
// fleet.shared_repo and the serve client: a timing RepositoryClient.
// ---------------------------------------------------------------------------

/// How much a [`ProbedClient`] records; each level records everything the
/// levels before it do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProbeLevel {
    /// Only commit round trips.
    Commits,
    /// Plus per-peek latencies and hits (cheap enough for untraced runs).
    Peeks,
    /// Plus every other call and a sample of the peeked signatures.
    Calls,
    /// Plus a sample of the wire frames the calls correspond to.
    Frames,
}

/// Peeks whose request/response frames are kept for the codec re-run.
const FRAME_SAMPLE: usize = 4_096;
/// Every `QUERY_STRIDE`-th peek's signature is kept, up to `QUERY_SAMPLE`.
const QUERY_STRIDE: usize = 8;
const QUERY_SAMPLE: usize = 1_024;

/// Call log of a [`ProbedClient`].
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Per-peek latency, ns.
    pub peek_ns: Vec<u64>,
    pub peek_hits: u64,
    /// `(namespace, signature)` of a sample of the peeks, in call order.
    pub queries: Vec<(u64, Vec<f64>)>,
    /// Per-commit `(latency ns, ops, applied ops)`.
    pub commits: Vec<(u64, u64, u64)>,
    pub sweeps: u64,
    pub sweep_ns: u64,
    /// Calls that are neither peeks, commits nor sweeps (meta and stats).
    pub other_calls: u64,
    pub frames: Vec<(Request, Response)>,
}

/// A [`RepositoryClient`] that forwards every call to `inner` and logs its
/// latency.
#[derive(Debug)]
pub struct ProbedClient {
    inner: Arc<dyn RepositoryClient>,
    level: ProbeLevel,
    pub log: Mutex<ClientLog>,
}

impl ProbedClient {
    pub fn new(inner: Arc<dyn RepositoryClient>, level: ProbeLevel) -> Self {
        ProbedClient {
            inner,
            level,
            log: Mutex::new(ClientLog::default()),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, ClientLog> {
        self.log.lock().expect("client log poisoned")
    }

    fn other(&self) {
        if self.level >= ProbeLevel::Calls {
            self.log().other_calls += 1;
        }
    }
}

impl RepositoryClient for ProbedClient {
    fn peek_resolved_cached(
        &self,
        namespace: u64,
        signature: &[f64],
        interference_bucket: u32,
        now: SimTime,
        exclude_owner: Option<TenantId>,
        memo: &mut ResolveMemo,
    ) -> Option<(SharedEntry, (u32, u32, f64))> {
        if self.level < ProbeLevel::Peeks {
            return self.inner.peek_resolved_cached(
                namespace,
                signature,
                interference_bucket,
                now,
                exclude_owner,
                memo,
            );
        }
        let started = Instant::now();
        let result = self.inner.peek_resolved_cached(
            namespace,
            signature,
            interference_bucket,
            now,
            exclude_owner,
            memo,
        );
        let ns = ns_since(started);
        let mut log = self.log();
        log.peek_ns.push(ns);
        log.peek_hits += u64::from(result.is_some());
        if self.level >= ProbeLevel::Calls
            && log.peek_ns.len() % QUERY_STRIDE == 1
            && log.queries.len() < QUERY_SAMPLE
        {
            log.queries.push((namespace, signature.to_vec()));
        }
        if self.level == ProbeLevel::Frames && log.frames.len() < FRAME_SAMPLE {
            log.frames.push((
                Request::Peek {
                    namespace,
                    signature: signature.to_vec(),
                    interference_bucket,
                    now,
                    exclude_owner,
                },
                Response::Peeked(result),
            ));
        }
        result
    }

    fn apply_batch(&self, ops: &[PendingOp]) -> Vec<bool> {
        let started = Instant::now();
        let applied = self.inner.apply_batch(ops);
        let ns = ns_since(started);
        let mut log = self.log();
        let applied_ops = applied.iter().filter(|&&a| a).count() as u64;
        log.commits.push((ns, ops.len() as u64, applied_ops));
        if self.level == ProbeLevel::Frames {
            log.frames.push((
                Request::CommitBatch { ops: ops.to_vec() },
                Response::Applied(applied.clone()),
            ));
        }
        applied
    }

    fn evict_stale(&self, now: SimTime) -> u64 {
        let started = Instant::now();
        let evicted = self.inner.evict_stale(now);
        let ns = ns_since(started);
        if self.level >= ProbeLevel::Calls {
            let mut log = self.log();
            log.sweeps += 1;
            log.sweep_ns += ns;
        }
        evicted
    }

    fn evict_stale_shard(&self, shard: usize, now: SimTime) -> u64 {
        self.other();
        self.inner.evict_stale_shard(shard, now)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_index(&self, namespace: u64) -> usize {
        self.inner.shard_index(namespace)
    }

    fn clock(&self) -> SimTime {
        self.other();
        self.inner.clock()
    }

    fn len(&self) -> usize {
        self.other();
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.other();
        self.inner.is_empty()
    }

    fn anchor_count(&self) -> usize {
        self.other();
        self.inner.anchor_count()
    }

    fn stats(&self) -> ShardStats {
        self.other();
        self.inner.stats()
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.other();
        self.inner.shard_stats()
    }
}

// ---------------------------------------------------------------------------
// The tenant pipeline: service model, controller and store wrappers.
// ---------------------------------------------------------------------------

/// Pipeline probes of one tenant (summed over tenants after the replay).
#[derive(Default)]
pub struct PipelineProbes {
    /// `SimulationEngine::step` calls.
    pub tick: Probe,
    /// `ServiceModel::evaluate` from the engine's client emulator.
    pub engine_evaluate: Probe,
    /// `ServiceModel::evaluate` from the controller's tuner.
    pub tuner_evaluate: Probe,
    /// `DejaVuController::decide`.
    pub decide: Probe,
    pub store_get: Probe,
    pub store_put: Probe,
}

/// A [`ServiceModel`] that times `evaluate` into one of the probes.
pub struct TimedService {
    pub inner: Box<dyn ServiceModel>,
    pub probes: Arc<PipelineProbes>,
    /// True for the copy inside the controller (its tuner's evaluations).
    pub tuner: bool,
}

impl ServiceModel for TimedService {
    fn kind(&self) -> ServiceKind {
        self.inner.kind()
    }

    fn default_mix(&self) -> RequestMix {
        self.inner.default_mix()
    }

    fn slo(&self) -> Slo {
        self.inner.slo()
    }

    fn evaluate(&self, intensity: f64, ctx: &EvalContext) -> PerfSample {
        let started = Instant::now();
        let sample = self.inner.evaluate(intensity, ctx);
        let probe = if self.tuner {
            &self.probes.tuner_evaluate
        } else {
            &self.probes.engine_evaluate
        };
        probe.add(ns_since(started));
        sample
    }

    fn required_capacity(&self, intensity: f64) -> f64 {
        self.inner.required_capacity(intensity)
    }
}

/// The tenant's [`DejaVuController`], seen through [`ProvisioningController`]
/// with `decide` timed.
pub struct TimedController {
    pub inner: DejaVuController,
    pub probes: Arc<PipelineProbes>,
}

impl ProvisioningController for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, observation: &Observation) -> ControllerDecision {
        let started = Instant::now();
        let decision = self.inner.decide(observation);
        self.probes.decide.add(ns_since(started));
        decision
    }
}

/// An [`AllocationStore`] that times `get` and `put` of the wrapped store.
pub struct TimedStore {
    pub inner: Box<dyn AllocationStore>,
    pub probes: Arc<PipelineProbes>,
}

impl AllocationStore for TimedStore {
    fn put(&mut self, ctx: StoreContext<'_>, allocation: ResourceAllocation, tuned_at: SimTime) {
        let started = Instant::now();
        self.inner.put(ctx, allocation, tuned_at);
        self.probes.store_put.add(ns_since(started));
    }

    fn get(&mut self, ctx: StoreContext<'_>) -> Option<RepositoryEntry> {
        let started = Instant::now();
        let entry = self.inner.get(ctx);
        self.probes.store_get.add(ns_since(started));
        entry
    }

    fn clear(&mut self) {
        self.inner.clear()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn stats(&self) -> RepositoryStats {
        self.inner.stats()
    }

    fn entries(&self) -> Vec<(RepositoryKey, RepositoryEntry)> {
        self.inner.entries()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}
