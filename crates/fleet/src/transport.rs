//! The commit-transport layer: **how** tenant-buffered repository operations
//! reach the shared store, and what consistency tenants observe while they
//! run.
//!
//! The fleet engine used to hard-code one coordination strategy — the
//! bulk-synchronous epoch barrier — inside its run loop. This module turns
//! that strategy into a pluggable [`CommitTransport`] with two backends:
//!
//! * [`BspBarrier`] is the classic engine: worker threads pull tenants one
//!   at a time from a shared cursor and step them through an epoch, the
//!   barrier drains every outbox in tenant order, commits one batch per
//!   shard, then runs the TTL sweep. Mid-epoch the store is frozen, so runs
//!   are **bit-deterministic** for any worker count. It is the golden
//!   reference.
//! * [`WorkStealing`] is the asynchronous backend: a fixed pool of workers
//!   pulls per-epoch tenant tasks from shared queues (a global injector
//!   plus one deque per worker), so a 1000-tenant fleet runs on a handful of
//!   threads. A tenant may run up to `K` epochs ahead of the commit frontier
//!   **of its own shard**, so fast tenants never wait at a barrier for slow
//!   ones. Each tenant's view of the shared repository is **at most `K`
//!   epochs stale** (enforced by parking the tenant on the frontier,
//!   measured in [`TransportOutcome`]'s staleness histograms). With `K = 0`
//!   a tenant may not enter an epoch until every prior epoch its shard can
//!   observe is fully committed — no tenant can observe or miss anything a
//!   BSP run would not — so the output provably **bit-matches**
//!   [`BspBarrier`] (property-tested in `tests/properties.rs` and fuzzed
//!   across scenarios in `tests/differential.rs`). With `K > 0` the store
//!   changes underneath running tenants, trading the bitwise
//!   reproducibility of results for pipeline parallelism; the commit
//!   *sequence* itself stays deterministic (per shard: epoch by epoch,
//!   tenant order within each epoch). Tenant stepping, commit order and
//!   sweep times are all independent of which worker executes what, so the
//!   results are **invariant to the thread count**.
//!
//! The asynchronous committer keeps **per-shard commit frontiers**: a tenant
//! only ever reads and writes the shard its namespace routes to, so a
//! `(shard, epoch)` batch commits — and that shard's TTL sweep runs, at that
//! epoch's timestamp — as soon as all of the epoch's reports *touching the
//! shard* are in, instead of waiting for the whole fleet's slowest shard. On
//! skewed scenarios that shrinks commit latency without weakening any bound
//! a tenant can observe.
//!
//! Epoch reports travel over a `std::sync::mpsc` channel. New consistency
//! models (e.g. quorum commits) are one [`CommitTransport`] impl away — the
//! engine only prepares tenants and consumes the [`TransportOutcome`].

use crate::durable::DurableCheckpointStore;
use crate::engine::{RunState, SimulationEngine};
use crate::faults::{FaultInjector, FaultKind, FaultSpec, FaultSpecError};
use crate::repo_client::RepositoryClient;
use crate::shared_repo::{DeltaCursor, PendingOp, SharedSignatureRepository};
use crate::snapshot::{CheckpointStore, DeltaSnapshot};
use crate::tenant_view::TenantRepoView;
use dejavu_baselines::{FixedMax, RightScale};
use dejavu_cloud::ProvisioningController;
use dejavu_core::DejaVuController;
use dejavu_obs::{Event, Recorder};
use dejavu_services::ServiceModel;
use dejavu_simcore::SimTime;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Shared handle to a tenant's buffered operations; the transport drains it
/// at every epoch boundary of that tenant.
pub type Outbox = Arc<Mutex<Vec<PendingOp>>>;

/// One tenant's complete in-flight simulation plus its tenancy window in
/// epochs. Built by the fleet engine, stepped by a transport through a
/// [`TenantHandle`], finalized by the engine.
pub(crate) struct TenantRun {
    pub(crate) engine: SimulationEngine,
    pub(crate) service: Box<dyn ServiceModel>,
    pub(crate) controller: DejaVuController,
    pub(crate) state: RunState,
    pub(crate) fixed: Option<(FixedMax, RunState)>,
    pub(crate) rightscale: Option<(RightScale, RunState)>,
    /// First global epoch in which the tenant steps (its join barrier).
    pub(crate) start_epoch: usize,
    /// Global epoch count at whose barrier the tenant retires, if it leaves.
    pub(crate) stop_epoch: Option<usize>,
    /// Nominal end of the tenancy window: `min(stop, start + trace epochs)`.
    pub(crate) end_epoch: usize,
    /// Epochs since join at which the first `FleetReuse` fired (1-based).
    pub(crate) first_reuse_epoch: Option<usize>,
    /// Epochs this tenant has actually been stepped through.
    pub(crate) active_epochs: usize,
    /// Set at the barrier that retires the tenant; freezes all stepping.
    pub(crate) retired: bool,
    /// The namespace the tenant reads and publishes under. Fixed for the
    /// whole run, so every operation the tenant buffers routes to one shard —
    /// the invariant the per-shard commit frontiers rest on.
    pub(crate) namespace: u64,
    /// The tenant's buffered shared-store operations (None when isolated).
    pub(crate) outbox: Option<Outbox>,
}

/// Steps one run up to (excluding) `epoch_end`.
fn step_until(
    engine: &SimulationEngine,
    service: &dyn ServiceModel,
    state: &mut RunState,
    controller: &mut dyn ProvisioningController,
    epoch_end: SimTime,
) {
    while let Some(t) = state.next_tick_time() {
        if t.as_secs() >= epoch_end.as_secs() {
            break;
        }
        engine.step(state, service, controller);
    }
}

impl TenantRun {
    /// Steps every in-flight run of this tenant up to the barrier ending
    /// global epoch `epoch` (0-based), honouring the tenancy window. Times
    /// handed to the tenant are **local** (zero at its join barrier), so a
    /// late joiner steps exactly like a tenant that started a fresh fleet.
    fn step_epoch(&mut self, epoch: usize, epoch_secs: f64) {
        if self.retired {
            return;
        }
        let end_epoch = epoch + 1;
        if end_epoch <= self.start_epoch {
            return; // not admitted yet
        }
        let mut local_epochs = end_epoch - self.start_epoch;
        if let Some(stop) = self.stop_epoch {
            let cap = stop.saturating_sub(self.start_epoch);
            if cap == 0 {
                return;
            }
            local_epochs = local_epochs.min(cap);
        }
        if local_epochs <= self.active_epochs {
            return; // already stepped past its retirement barrier
        }
        self.active_epochs = local_epochs;
        let epoch_end = SimTime::from_secs(epoch_secs * local_epochs as f64);
        let service = self.service.as_ref();
        step_until(
            &self.engine,
            service,
            &mut self.state,
            &mut self.controller,
            epoch_end,
        );
        if let Some((controller, state)) = &mut self.fixed {
            step_until(&self.engine, service, state, controller, epoch_end);
        }
        if let Some((controller, state)) = &mut self.rightscale {
            step_until(&self.engine, service, state, controller, epoch_end);
        }
    }

    /// Whether the tenant retires at the barrier ending global epoch `epoch`.
    fn retires_at(&self, epoch: usize) -> bool {
        let end_epoch = epoch + 1;
        end_epoch > self.start_epoch
            && (self.state.is_done() || self.stop_epoch.is_some_and(|stop| end_epoch >= stop))
    }
}

/// A transport's per-tenant handle: the only surface through which a backend
/// steps a tenant, drains its outbox and keeps its convergence bookkeeping.
/// `Send`, so backends can move tenants onto worker threads.
pub struct TenantHandle<'a> {
    index: usize,
    run: &'a mut TenantRun,
}

impl TenantHandle<'_> {
    /// The tenant's position in the scenario (also its commit order).
    pub fn index(&self) -> usize {
        self.index
    }

    /// First global epoch in which the tenant steps.
    pub fn start_epoch(&self) -> usize {
        self.run.start_epoch
    }

    /// Nominal end of the tenancy window (exclusive global epoch).
    pub fn end_epoch(&self) -> usize {
        self.run.end_epoch
    }

    /// Whether the tenant has been retired by a previous barrier.
    pub fn retired(&self) -> bool {
        self.run.retired
    }

    /// The namespace the tenant reads and publishes under. Every operation
    /// the tenant buffers touches this namespace — and therefore exactly one
    /// shard — which is what lets a transport commit per-shard batches
    /// without changing anything any tenant can observe.
    pub fn namespace(&self) -> u64 {
        self.run.namespace
    }

    /// Steps the tenant (and its ride-along baselines) through global epoch
    /// `epoch`. A retired or not-yet-admitted tenant is a no-op.
    pub fn step_epoch(&mut self, epoch: usize, ctx: &FleetContext<'_>) {
        self.run.step_epoch(epoch, ctx.epoch_secs);
    }

    /// Takes every operation the tenant buffered since the last drain.
    pub fn drain_outbox(&mut self) -> Vec<PendingOp> {
        match &self.run.outbox {
            Some(outbox) => std::mem::take(&mut *outbox.lock().expect("tenant outbox poisoned")),
            None => Vec::new(),
        }
    }

    /// Discards whatever a failed tenant buffered — tolerating an outbox
    /// lock poisoned by the panic itself — so a partial epoch never commits.
    pub fn discard_outbox(&mut self) {
        if let Some(outbox) = &self.run.outbox {
            match outbox.lock() {
                Ok(mut ops) => ops.clear(),
                Err(poisoned) => poisoned.into_inner().clear(),
            }
        }
    }

    /// The tenant's cumulative repository `(hits, misses)`.
    pub fn repo_stats(&self) -> (u64, u64) {
        let stats = self.run.controller.stats();
        (stats.repository.hits, stats.repository.misses)
    }

    /// Records the epoch of the tenant's first `FleetReuse`, if it just
    /// happened — the newcomer-convergence metric.
    pub fn observe_reuse(&mut self, epoch: usize) {
        if self.run.first_reuse_epoch.is_none()
            && epoch + 1 > self.run.start_epoch
            && self.run.controller.stats().fleet_reuses > 0
        {
            self.run.first_reuse_epoch = Some(epoch + 1 - self.run.start_epoch);
        }
    }

    /// Whether the tenant retires at the barrier ending `epoch`.
    pub fn retires_at(&self, epoch: usize) -> bool {
        self.run.retires_at(epoch)
    }

    /// Retires the tenant: all subsequent stepping becomes a no-op and its
    /// bookkeeping freezes, exactly as when the barrier engine dropped
    /// retired tenants from its run set.
    pub fn retire(&mut self) {
        self.run.retired = true;
    }

    /// Swaps in a freshly respawned run — the crash-recovery path: the old
    /// in-memory state is "lost" with the crash, and the replacement (already
    /// replayed up to the crash epoch) takes over the tenant's slot.
    pub(crate) fn replace(&mut self, run: TenantRun) {
        *self.run = run;
    }
}

/// The respawn hook of crash recovery: builds a fresh [`TenantRun`] for the
/// given tenant index, reading through the given repository (the private
/// replay clone during recovery). Provided by the fleet engine for
/// shared-mode runs.
pub(crate) type RespawnFn<'a> =
    dyn Fn(usize, Arc<SharedSignatureRepository>) -> TenantRun + Sync + 'a;

/// The shared, thread-safe side of a fleet run a transport commits through.
#[derive(Clone, Copy)]
pub struct FleetContext<'a> {
    shared: &'a Arc<dyn RepositoryClient>,
    /// The in-process repository behind `shared`, when there is one. The
    /// crash-recovery machinery (checkpoint capture, shard restore) needs the
    /// concrete snapshot/delta surface; a remote client doesn't export it, so
    /// fault injection and checkpointing stay inert on remote runs.
    concrete: Option<&'a Arc<SharedSignatureRepository>>,
    epochs: usize,
    epoch_secs: f64,
    origin_secs: f64,
    workers: usize,
    recorder: &'a Recorder,
    /// The seeded fault injector (the always-benign no-op by default).
    faults: FaultInjector,
    /// Delta-chain compaction cadence (0 = retain the full chain).
    checkpoint_every: usize,
    /// Spill the delta chain to a durable on-disk store at this directory
    /// (committer writes become crash-safe; `None` = in-memory only).
    checkpoint_dir: Option<&'a str>,
    /// Crash-recovery respawn hook; `None` when tenants are isolated.
    respawn: Option<&'a RespawnFn<'a>>,
}

impl FleetContext<'_> {
    /// The fleet horizon in epochs.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Length of one epoch in simulated seconds.
    pub fn epoch_secs(&self) -> f64 {
        self.epoch_secs
    }

    /// Worker threads the engine was configured with (advisory: a transport
    /// may use its own threading model).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The fleet flight recorder (disabled by default — every probe on a
    /// disabled recorder folds to a null check, so transports can instrument
    /// unconditionally).
    pub fn recorder(&self) -> &Recorder {
        self.recorder
    }

    /// Applies one epoch's operations (in the given order) through the
    /// shared repository's batched commit path — one write lock per touched
    /// shard. Returns one applied-flag per operation.
    pub fn commit(&self, ops: &[PendingOp]) -> Vec<bool> {
        self.shared.apply_batch(ops)
    }

    /// Runs the TTL sweep for the barrier ending global epoch `epoch`.
    /// Returns the number of entries reclaimed.
    pub fn sweep(&self, epoch: usize) -> u64 {
        self.shared.evict_stale(SimTime::from_secs(
            self.origin_secs + self.epoch_secs * (epoch + 1) as f64,
        ))
    }

    /// Number of lock-striped shards in the shared repository.
    pub fn shard_count(&self) -> usize {
        self.shared.shard_count()
    }

    /// The shard `namespace` routes to.
    pub fn shard_of(&self, namespace: u64) -> usize {
        self.shared.shard_index(namespace)
    }

    /// Runs the TTL sweep of a single shard for the barrier ending global
    /// epoch `epoch` — the frontier-aware sweep of the per-shard committer:
    /// a shard whose batch commits ahead of the fleet is swept at **its own**
    /// epoch's timestamp, so a deferred-stale entry BSP would have reclaimed
    /// can never resurface in a later commit of that shard.
    /// Returns the number of entries reclaimed.
    pub fn sweep_shard(&self, shard: usize, epoch: usize) -> u64 {
        self.shared.evict_stale_shard(
            shard,
            SimTime::from_secs(self.origin_secs + self.epoch_secs * (epoch + 1) as f64),
        )
    }
}

/// Everything a transport needs to drive one fleet run: the tenants and the
/// shared-store context. Built by the fleet engine.
pub struct FleetHarness<'a> {
    pub(crate) runs: &'a mut [TenantRun],
    pub(crate) shared: &'a Arc<dyn RepositoryClient>,
    /// See [`FleetContext`]: the in-process repository when `shared` is one.
    pub(crate) concrete: Option<&'a Arc<SharedSignatureRepository>>,
    pub(crate) epochs: usize,
    pub(crate) epoch_secs: f64,
    pub(crate) origin_secs: f64,
    pub(crate) workers: usize,
    pub(crate) recorder: &'a Recorder,
    pub(crate) faults: FaultInjector,
    pub(crate) checkpoint_every: usize,
    pub(crate) checkpoint_dir: Option<&'a str>,
    pub(crate) respawn: Option<&'a RespawnFn<'a>>,
}

impl FleetHarness<'_> {
    /// Splits the harness into the shared context and one handle per tenant,
    /// so a backend can distribute tenants across threads.
    pub fn split(&mut self) -> (FleetContext<'_>, Vec<TenantHandle<'_>>) {
        let ctx = FleetContext {
            shared: self.shared,
            concrete: self.concrete,
            epochs: self.epochs,
            epoch_secs: self.epoch_secs,
            origin_secs: self.origin_secs,
            workers: self.workers,
            recorder: self.recorder,
            faults: self.faults,
            checkpoint_every: self.checkpoint_every,
            checkpoint_dir: self.checkpoint_dir,
            respawn: self.respawn,
        };
        let handles = self
            .runs
            .iter_mut()
            .enumerate()
            .map(|(index, run)| TenantHandle { index, run })
            .collect();
        (ctx, handles)
    }
}

/// Histogram over observed staleness values (in epochs).
///
/// An alias of the shared exact-count histogram from `dejavu-obs` — the
/// hand-rolled implementation that used to live here migrated into the
/// flight-recorder crate so the transport layer and the obs report agree on
/// one set of summary semantics (`counts`/`total`/`max`/`mean`).
pub use dejavu_obs::ExactHistogram as StalenessHistogram;

/// What a transport reports about its own behaviour: which backend ran, how
/// stale tenant views were, and how stale the views serving fleet reuses
/// were. Carried into [`crate::FleetReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportSummary {
    /// Backend label (`"bsp"`, `"steal(threads=N,staleness=K)"`).
    pub name: String,
    /// Observed view staleness, one observation per tenant-epoch actually
    /// stepped: how many epochs the commit frontier trailed the tenant when
    /// it entered the epoch. All-zero under [`BspBarrier`].
    pub view_staleness: StalenessHistogram,
    /// Reuse latency: for every committed cross-tenant hit, the view
    /// staleness of the epoch that produced it — how fresh the shared
    /// knowledge serving reuses actually was.
    pub reuse_staleness: StalenessHistogram,
}

impl TransportSummary {
    /// The summary of a barrier run that never left epoch lock-step (also the
    /// placeholder for hand-built reports).
    pub fn bsp() -> Self {
        TransportSummary {
            name: "bsp".to_string(),
            view_staleness: StalenessHistogram::default(),
            reuse_staleness: StalenessHistogram::default(),
        }
    }
}

/// What a fault-injected (or checkpointing) run did to itself and how much
/// recovering cost — carried into [`crate::FleetReport`] and rendered as its
/// "recovery" section. Counters are plain (non-recorder) tallies, so they are
/// reported identically with observability on or off; they are a pure
/// function of the fault plan and the scenario, hence deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// The rendered fault spec (`"SEED:kind,…"`), empty for
    /// checkpoint-only runs.
    pub spec: String,
    /// Total faults injected, all kinds.
    pub injected: u64,
    /// Tenants crashed (and recovered) mid-epoch.
    pub tenants_crashed: u64,
    /// Epoch reports dropped in flight (then retransmitted).
    pub reports_dropped: u64,
    /// Epoch reports delivered twice.
    pub reports_duplicated: u64,
    /// Epoch reports delayed past later arrivals.
    pub reports_reordered: u64,
    /// Committer restarts (volatile assembly state lost and re-assembled).
    pub committer_restarts: u64,
    /// Shards wiped and warm re-seeded from their delta chains.
    pub shard_losses: u64,
    /// Epochs deterministically replayed by crashed tenants.
    pub replayed_epochs: u64,
    /// Delta checkpoints captured at commit boundaries.
    pub checkpoints: u64,
    /// Delta-chain compaction passes.
    pub compactions: u64,
    /// Peak un-compacted delta-chain length any shard reached: the store's
    /// memory high-water mark, bounded on long runs by the dynamic floor.
    pub chain_peak: u64,
}

/// Everything a transport hands back to the engine after driving a fleet.
#[derive(Debug, Clone)]
pub struct TransportOutcome {
    /// Transport self-telemetry (label + staleness histograms).
    pub summary: TransportSummary,
    /// Fleet-wide cumulative repository hit rate after each epoch.
    pub hit_rate_curve: Vec<f64>,
    /// Per-tenant committed cross-tenant hits, in tenant order.
    pub cross_tenant_hits: Vec<u64>,
    /// Per tenant: the epoch at which it panicked (and was retired so the
    /// rest of the fleet could finish), in tenant order. All `None` on a
    /// healthy run.
    pub failed: Vec<Option<usize>>,
    /// Fault-injection and recovery tallies; `None` when neither faults nor
    /// checkpointing were configured.
    pub faults: Option<FaultSummary>,
}

impl TransportOutcome {
    fn new(name: String, tenants: usize) -> Self {
        TransportOutcome {
            summary: TransportSummary {
                name,
                view_staleness: StalenessHistogram::default(),
                reuse_staleness: StalenessHistogram::default(),
            },
            hit_rate_curve: Vec::new(),
            cross_tenant_hits: vec![0; tenants],
            failed: vec![None; tenants],
            faults: None,
        }
    }
}

/// Lock-free fault/recovery tallies, incremented from tenant threads, pool
/// workers and the committer alike; folded into the [`FaultSummary`] once
/// the drive finishes.
#[derive(Default)]
struct FaultTallies {
    injected: AtomicU64,
    tenants_crashed: AtomicU64,
    reports_dropped: AtomicU64,
    reports_duplicated: AtomicU64,
    reports_reordered: AtomicU64,
    committer_restarts: AtomicU64,
    shard_losses: AtomicU64,
    replayed_epochs: AtomicU64,
}

impl FaultTallies {
    /// Counts one injected fault of the given kind tally.
    fn fault(&self, which: &AtomicU64) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        which.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a drive's checkpoints live: in memory (the PR 7 recovery layer) or
/// written through to disk first (`--checkpoint-dir`). Either way the
/// in-memory [`CheckpointStore`] is the read surface — the durable wrapper
/// only adds the write-ahead spill.
enum CheckpointSink {
    Memory(CheckpointStore),
    Durable(DurableCheckpointStore),
}

impl CheckpointSink {
    /// The in-memory store, for reads (materialize, telemetry).
    fn store(&self) -> &CheckpointStore {
        match self {
            CheckpointSink::Memory(store) => store,
            CheckpointSink::Durable(durable) => durable.store(),
        }
    }

    fn into_store(self) -> CheckpointStore {
        match self {
            CheckpointSink::Memory(store) => store,
            CheckpointSink::Durable(durable) => durable.into_store(),
        }
    }

    fn set_floor(&mut self, shard: usize, epoch: usize) -> usize {
        match self {
            CheckpointSink::Memory(store) => store.set_floor(shard, epoch),
            CheckpointSink::Durable(durable) => durable.set_floor(shard, epoch),
        }
    }

    /// Records one commit's delta; the durable receipt (zeroed for the
    /// in-memory sink) feeds the flight recorder's durability counters.
    /// Fail-stop on durable errors, like every other committer invariant:
    /// a committer that cannot persist what it acknowledged must not keep
    /// acknowledging.
    fn record(&mut self, delta: DeltaSnapshot) -> crate::durable::RecordReceipt {
        match self {
            CheckpointSink::Memory(store) => {
                store.record(delta).expect("commit order is chain order");
                crate::durable::RecordReceipt::default()
            }
            CheckpointSink::Durable(durable) => durable
                .record(delta)
                .expect("durable checkpoint write failed; checkpoint directory is fail-stop"),
        }
    }
}

/// The fault/recovery domain of one asynchronous drive: the seeded injector,
/// the checkpoint store (run-start base snapshot plus per-shard delta
/// chains, optionally written through to disk), the respawn hook recovery
/// rebuilds crashed tenants through, and the shared tallies. Built once per
/// drive when fault injection, checkpointing or a checkpoint directory is
/// configured; absent (and costing nothing) otherwise.
struct FaultDomain<'h> {
    injector: FaultInjector,
    store: Mutex<CheckpointSink>,
    respawn: &'h RespawnFn<'h>,
    shared_arc: &'h Arc<SharedSignatureRepository>,
    tallies: FaultTallies,
    /// Per shard: the tenancy windows of its crash-scheduled tenants, the
    /// input to the dynamic compaction floor ([`FaultDomain::crash_floor`]).
    crash_windows: Vec<Vec<(usize, usize)>>,
}

impl FaultDomain<'_> {
    /// The compaction floor `shard` needs once its commit frontier reached
    /// `frontier`: the earliest window start among crash-scheduled tenants
    /// whose windows are still open (`end > frontier`). A crash recovers
    /// before its own epoch's report is admitted, so once the frontier
    /// passes a window's end no recovery can ever again materialize from
    /// that window's start — the floor advances and the chain behind it
    /// becomes compactable.
    fn crash_floor(&self, shard: usize, frontier: usize) -> usize {
        self.crash_windows[shard]
            .iter()
            .filter(|&&(_, end)| end > frontier)
            .map(|&(start, _)| start)
            .min()
            .unwrap_or(usize::MAX)
    }
}

/// Builds the fault domain of one async drive, or `None` when neither fault
/// injection nor checkpointing is configured (or the fleet has no respawn
/// path, i.e. isolated tenants).
fn fault_domain<'h>(
    ctx: &FleetContext<'h>,
    windows: &[(usize, usize)],
    tenant_shard: &[usize],
) -> Option<FaultDomain<'h>> {
    let injector = ctx.faults;
    if !injector.enabled() && ctx.checkpoint_every == 0 && ctx.checkpoint_dir.is_none() {
        return None;
    }
    let respawn = ctx.respawn?;
    // Checkpoint capture and shard restore go through the concrete
    // repository's snapshot surface; a remote client has none.
    let concrete = ctx.concrete?;
    // The base image and the capture cursors (primed by the committer) both
    // anchor at this quiescent point: nothing mutates the shared repository
    // before the committer applies the first batch.
    let store = match ctx.checkpoint_dir {
        Some(dir) => CheckpointSink::Durable(
            DurableCheckpointStore::create(
                std::path::Path::new(dir),
                concrete.to_snapshot(),
                ctx.checkpoint_every,
            )
            .unwrap_or_else(|e| panic!("cannot initialize checkpoint directory {dir}: {e}")),
        ),
        None => CheckpointSink::Memory(CheckpointStore::new(
            concrete.to_snapshot(),
            ctx.checkpoint_every,
        )),
    };
    // Compaction must never fold an epoch a planned crash still needs to
    // replay from: pin each shard's floor at the earliest join epoch among
    // its crash-scheduled tenants whose windows are still open. The
    // committer re-evaluates the floor at every commit, so long churn runs
    // compact past windows that have closed instead of pinning the whole
    // run at the earliest one.
    let mut crash_windows = vec![Vec::new(); ctx.shard_count()];
    for (tenant, &(start, end)) in windows.iter().enumerate() {
        if injector.crash_epoch(tenant, start, end).is_some() {
            crash_windows[tenant_shard[tenant]].push((start, end));
        }
    }
    let domain = FaultDomain {
        injector,
        store: Mutex::new(store),
        respawn,
        shared_arc: concrete,
        tallies: FaultTallies::default(),
        crash_windows,
    };
    {
        let mut store = domain.store.lock().expect("checkpoint store poisoned");
        for shard in 0..ctx.shard_count() {
            store.set_floor(shard, domain.crash_floor(shard, 0));
        }
    }
    Some(domain)
}

/// Folds a finished drive's fault domain into the outcome's summary.
fn summarize_faults(domain: FaultDomain<'_>) -> FaultSummary {
    let FaultDomain {
        injector,
        store,
        tallies,
        ..
    } = domain;
    let store = store
        .into_inner()
        .expect("checkpoint store poisoned")
        .into_store();
    FaultSummary {
        spec: injector.spec().map(FaultSpec::render).unwrap_or_default(),
        injected: tallies.injected.into_inner(),
        tenants_crashed: tallies.tenants_crashed.into_inner(),
        reports_dropped: tallies.reports_dropped.into_inner(),
        reports_duplicated: tallies.reports_duplicated.into_inner(),
        reports_reordered: tallies.reports_reordered.into_inner(),
        committer_restarts: tallies.committer_restarts.into_inner(),
        shard_losses: tallies.shard_losses.into_inner(),
        replayed_epochs: tallies.replayed_epochs.into_inner(),
        checkpoints: store.checkpoints(),
        compactions: store.compactions(),
        chain_peak: store.chain_peak() as u64,
    }
}

/// A commit transport: the strategy that schedules tenant stepping and moves
/// buffered operations into the shared repository.
///
/// Implementations must commit each epoch's operations **in tenant order**
/// (ties in the scenario's commit sequence are what keep shard-level results
/// reproducible) and run the TTL sweep once per epoch; beyond that they are
/// free to choose any consistency model between tenants and the store.
pub trait CommitTransport: Send + Sync {
    /// Label recorded in reports and benchmarks.
    fn name(&self) -> String;

    /// Drives every tenant from its join barrier to its retirement,
    /// committing outboxes along the way.
    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome;
}

/// Which transport a fleet run uses (the cloneable configuration surface;
/// [`TransportConfig::backend`] materializes the backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportConfig {
    /// The lock-step BSP epoch barrier: bit-deterministic for any worker
    /// count. The default.
    #[default]
    Bsp,
    /// A fixed pool of `threads` workers pulls per-epoch tenant tasks from a
    /// shared work-stealing deque; tenants observe the shared repository at
    /// most `staleness` epochs stale. Results are invariant to the thread
    /// count; `staleness = 0` bit-matches [`TransportConfig::Bsp`], larger
    /// values trade bitwise result reproducibility for pipeline parallelism.
    WorkStealing {
        /// Worker threads in the pool (clamped to `1..=tenants`).
        threads: usize,
        /// Maximum number of epochs a tenant's view may trail its shard's
        /// commit frontier.
        staleness: usize,
    },
}

impl TransportConfig {
    /// Materializes the configured backend.
    pub fn backend(self) -> Box<dyn CommitTransport> {
        match self {
            TransportConfig::Bsp => Box::new(BspBarrier),
            TransportConfig::WorkStealing { threads, staleness } => {
                Box::new(WorkStealing { threads, staleness })
            }
        }
    }

    /// Parses a CLI transport choice (the `fleet` experiment's
    /// `--transport`) into a configuration — the typed front door, so an
    /// unknown backend name is a proper error listing the valid choices
    /// instead of a panic, and extending the backend set cannot leave a
    /// stale catch-all match arm behind. `threads` and `staleness` carry
    /// the values of `--threads` / `--staleness`; backends that do not use
    /// them ignore them.
    pub fn parse(backend: &str, threads: usize, staleness: usize) -> Result<Self, String> {
        match backend {
            "bsp" => Ok(TransportConfig::Bsp),
            "steal" => Ok(TransportConfig::WorkStealing { threads, staleness }),
            other => Err(format!(
                "unknown transport '{other}': valid backends are 'bsp' (lock-step epoch \
                 barrier) and 'steal' (work-stealing pool with bounded staleness; \
                 --threads N --staleness K)"
            )),
        }
    }

    /// Whether this backend can host the given fault plan. The BSP barrier
    /// has no report channel, no committer process and no frontier to
    /// recover — fault injection is an asynchronous-transport concept — so
    /// requesting faults under `bsp` is a configuration error, caught here
    /// (typed) instead of silently injecting nothing.
    pub fn check_faults(&self, _spec: &FaultSpec) -> Result<(), FaultSpecError> {
        match self {
            TransportConfig::Bsp => Err(FaultSpecError::BackendUnsupported {
                backend: "bsp".to_string(),
            }),
            TransportConfig::WorkStealing { .. } => Ok(()),
        }
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Commits one epoch's operations and accounts applied cross-tenant hits.
/// `op_tenants[i]`/`op_staleness[i]` describe which tenant buffered `ops[i]`
/// and how stale its view was during that epoch.
fn commit_epoch(
    ctx: &FleetContext<'_>,
    ops: &[PendingOp],
    op_tenants: &[usize],
    op_staleness: &[usize],
    out: &mut TransportOutcome,
) {
    if ops.is_empty() {
        return;
    }
    let recorder = ctx.recorder();
    let started = recorder.start();
    let applied = ctx.commit(ops);
    recorder.observe(started, |m| &m.commit_batch_ns);
    recorder.with(|m| m.commit_batch_ops.record(ops.len() as u64));
    for (((op, &tenant), &staleness), applied) in
        ops.iter().zip(op_tenants).zip(op_staleness).zip(applied)
    {
        // A hit only counts if the store still held the entry at commit time
        // (an earlier publish in the same barrier can have re-anchored the
        // namespace), keeping the engine-side and store-side cross-tenant
        // counters consistent.
        if applied && matches!(op, PendingOp::RecordHit { .. }) {
            out.cross_tenant_hits[tenant] += 1;
            out.summary.reuse_staleness.record(staleness);
        }
    }
}

/// One [`BspBarrier`] worker's share of an epoch: pulls tenants from the
/// shared `cursor` until it is empty and steps each through `epoch`. Tenant
/// families occupy contiguous id ranges, so a fixed contiguous share per
/// worker would leave the worker holding the cheap families idle at the
/// barrier; pulling one tenant at a time lets every worker run until the
/// epoch's work is gone. Returns the tenants whose step panicked.
fn step_tenants(
    cursor: &Mutex<std::slice::IterMut<'_, TenantHandle<'_>>>,
    epoch: usize,
    ctx: &FleetContext<'_>,
) -> Vec<usize> {
    let mut failed = Vec::new();
    loop {
        // Bind the tenant first so the cursor is released before stepping.
        let next = cursor.lock().expect("step cursor poisoned").next();
        let Some(handle) = next else {
            return failed;
        };
        if catch_unwind(AssertUnwindSafe(|| handle.step_epoch(epoch, ctx))).is_err() {
            failed.push(handle.index());
        }
    }
}

/// The classic bulk-synchronous barrier transport.
///
/// Within an epoch worker threads pull tenants one at a time from a shared
/// cursor until every tenant has stepped, reading the shared repository
/// through read-only, epoch-frozen snapshots while buffering writes in
/// per-tenant outboxes. At the epoch barrier the
/// outboxes are drained **in tenant order**, applied through one batched
/// commit per shard, and the TTL sweep runs. Mid-epoch the shared store never
/// changes and commits have a fixed order, so the fleet result is a pure
/// function of the scenario — it does not depend on thread count or OS
/// scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct BspBarrier;

impl CommitTransport for BspBarrier {
    fn name(&self) -> String {
        "bsp".to_string()
    }

    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome {
        let (ctx, mut handles) = harness.split();
        let mut out = TransportOutcome::new(self.name(), handles.len());
        let workers = ctx.workers.clamp(1, handles.len().max(1));
        let recorder = ctx.recorder();
        // Per-epoch commit scratch, hoisted out of the epoch loop so capacity
        // carries over: after the first epoch the barrier commit allocates
        // nothing.
        let mut ops: Vec<PendingOp> = Vec::new();
        let mut op_tenants: Vec<usize> = Vec::new();
        let mut op_staleness: Vec<usize> = Vec::new();
        for epoch in 0..ctx.epochs {
            recorder.event(|| Event::EpochBegin {
                epoch: epoch as u64,
            });
            let epoch_started = recorder.start();
            // A panicking tenant (service model or poisoned outbox) is
            // caught on its worker, retired at this barrier and surfaced in
            // the outcome — the rest of the fleet finishes its run.
            let mut failed_now: Vec<usize> = {
                let cursor = Mutex::new(handles.iter_mut());
                std::thread::scope(|scope| {
                    let joins: Vec<_> = (0..workers)
                        .map(|_| scope.spawn(|| step_tenants(&cursor, epoch, &ctx)))
                        .collect();
                    joins
                        .into_iter()
                        .flat_map(|join| join.join().expect("barrier worker panicked"))
                        .collect()
                })
            };
            // Which worker stepped a failed tenant depends on scheduling;
            // retire in tenant order regardless.
            failed_now.sort_unstable();
            for tenant in failed_now {
                out.failed[tenant] = Some(epoch);
                handles[tenant].retire();
                // The partial epoch's publishes die with the tenant.
                handles[tenant].discard_outbox();
            }
            // Epoch barrier: publish buffered writes in tenant order, then
            // age out stale entries. This is the only place the shared store
            // changes under this transport.
            let ops_retained = ops.capacity();
            let cols_retained = op_tenants.capacity().min(op_staleness.capacity());
            ops.clear();
            op_tenants.clear();
            op_staleness.clear();
            for handle in &mut handles {
                if out.failed[handle.index()].is_some() {
                    continue;
                }
                let drained = handle.drain_outbox();
                op_tenants.resize(op_tenants.len() + drained.len(), handle.index());
                ops.extend(drained);
            }
            op_staleness.resize(ops.len(), 0);
            let saved = (ops.len().min(ops_retained) * std::mem::size_of::<PendingOp>()
                + op_tenants.len().min(cols_retained) * 2 * std::mem::size_of::<usize>())
                as u64;
            recorder.with(|m| m.scratch_bytes_saved.add(saved));
            commit_epoch(&ctx, &ops, &op_tenants, &op_staleness, &mut out);
            let reclaimed = ctx.sweep(epoch);
            recorder.with(|m| m.sweep_reclaimed.add(reclaimed));

            // Convergence bookkeeping, then barrier-aligned retirement.
            let mut hits = 0u64;
            let mut misses = 0u64;
            for handle in &mut handles {
                let (h, m) = handle.repo_stats();
                hits += h;
                misses += m;
                if !handle.retired() {
                    // Mirror the bounded-staleness tenant loop exactly: one
                    // observation per epoch inside the tenancy window (a
                    // zero-length window — start == stop — steps nothing
                    // and records nothing).
                    if epoch >= handle.start_epoch() && epoch < handle.end_epoch() {
                        out.summary.view_staleness.record(0);
                    }
                    handle.observe_reuse(epoch);
                    if handle.retires_at(epoch) {
                        handle.retire();
                    }
                }
            }
            out.hit_rate_curve.push(hit_rate(hits, misses));
            recorder.observe(epoch_started, |m| &m.epoch_ns);
            recorder.event(|| Event::EpochCommit {
                epoch: epoch as u64,
            });
        }
        out
    }
}

/// The per-shard commit frontiers: how many epochs each shard has fully
/// committed (batch applied, TTL sweep run). A tenant only ever reads and
/// writes the shard its namespace routes to, so its staleness bound is
/// enforced against **that shard's** frontier rather than a fleet-wide one —
/// a tenant behind a fast shard never waits for a slow shard it cannot
/// observe.
///
/// The [`WorkStealing`] scheduler must never block a pool worker on a
/// tenant's behalf, so it parks the tenant as data through [`enter_or_park`]
/// and re-injects whatever [`advance`] releases. The frontiers can be
/// **poisoned** when the committer unwinds: pool workers must wake up and
/// die rather than sleep forever, so the original panic — not a deadlock —
/// reaches the caller.
///
/// [`advance`]: ShardFrontiers::advance
/// [`enter_or_park`]: ShardFrontiers::enter_or_park
struct ShardFrontiers {
    /// Maximum number of epochs a tenant may lead its shard's frontier.
    bound: usize,
    state: Mutex<FrontierState>,
}

struct FrontierState {
    /// Per shard: the number of fully committed epochs.
    committed: Vec<usize>,
    /// Per shard: parked `(enter_epoch, tenant)` pairs awaiting `advance`.
    parked: Vec<Vec<(usize, usize)>>,
    poisoned: bool,
}

impl ShardFrontiers {
    fn new(shards: usize, bound: usize) -> Self {
        ShardFrontiers {
            bound,
            state: Mutex::new(FrontierState {
                committed: vec![0; shards],
                parked: vec![Vec::new(); shards],
                poisoned: false,
            }),
        }
    }

    /// Admission for the work-stealing scheduler: returns the observed
    /// staleness (how many epochs the frontier trailed the tenant at
    /// admission) if the tenant may enter `epoch` now, otherwise
    /// parks `(epoch, tenant)` — to be handed back by [`advance`] once the
    /// shard catches up — and returns `None`. The caller must have returned
    /// the tenant's task to its slot *before* calling, so a release that
    /// races the answer finds the tenant where the next worker will look.
    ///
    /// [`advance`]: ShardFrontiers::advance
    fn enter_or_park(&self, shard: usize, epoch: usize, tenant: usize) -> Option<usize> {
        let mut state = self.state.lock().expect("frontier poisoned");
        assert!(
            !state.poisoned,
            "transport committer unwound; worker aborting"
        );
        if epoch <= state.committed[shard] + self.bound {
            Some(epoch.saturating_sub(state.committed[shard]))
        } else {
            state.parked[shard].push((epoch, tenant));
            None
        }
    }

    /// Advances `shard`'s frontier to `committed` epochs and returns the
    /// parked tenants the new frontier admits (for the caller to
    /// reschedule).
    fn advance(&self, shard: usize, committed: usize) -> Vec<usize> {
        let mut state = self.state.lock().expect("frontier poisoned");
        state.committed[shard] = committed;
        let bound = self.bound;
        let parked = &mut state.parked[shard];
        let mut released = Vec::new();
        let mut i = 0;
        while i < parked.len() {
            if parked[i].0 <= committed + bound {
                released.push(parked.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        released
    }

    /// Marks the frontiers dead (see [`PoisonOnDrop`]).
    fn poison(&self) {
        self.state.lock().expect("frontier poisoned").poisoned = true;
    }

    fn poisoned(&self) -> bool {
        // A worker that panics while holding the guard poisons the std mutex
        // itself; either way, the frontiers are dead.
        match self.state.lock() {
            Ok(state) => state.poisoned,
            Err(_) => true,
        }
    }
}

/// Wakes idle work-stealing workers when tasks may have (re)appeared. A
/// worker reads the generation **before** scanning the queues and only
/// sleeps if the generation is still unchanged, so a task injected after an
/// empty scan can never be missed: either the scan saw it, or the ring bumps
/// the generation and the sleep returns immediately.
#[derive(Default)]
struct Doorbell {
    generation: Mutex<u64>,
    bell: Condvar,
}

impl Doorbell {
    fn generation(&self) -> u64 {
        *self.generation.lock().expect("doorbell poisoned")
    }

    fn ring(&self) {
        *self.generation.lock().expect("doorbell poisoned") += 1;
        self.bell.notify_all();
    }

    /// Sleeps until the generation moves past `seen`.
    fn wait_beyond(&self, seen: u64) {
        let mut generation = self.generation.lock().expect("doorbell poisoned");
        while *generation == seen {
            generation = self.bell.wait(generation).expect("doorbell poisoned");
        }
    }
}

/// Poisons the frontiers if dropped while armed — the committer holds one so
/// that its own unwind (a lost report, a panic surfaced by a tenant) wakes
/// every idle pool worker (via the doorbell) into a dead pool before
/// `thread::scope` starts joining; without it, a committer panic would
/// deadlock the scope.
struct PoisonOnDrop<'a> {
    frontiers: &'a ShardFrontiers,
    doorbell: &'a Doorbell,
    armed: bool,
}

impl Drop for PoisonOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.frontiers.poison();
            self.doorbell.ring();
        }
    }
}

/// One tenant's end-of-epoch report to the committer. `Clone` so a
/// restart-tolerant committer can retain delivered reports for re-assembly
/// (and the fault injector can duplicate one in flight).
#[derive(Clone)]
struct EpochReport {
    tenant: usize,
    epoch: usize,
    /// Frontier lag observed when the tenant entered the epoch.
    staleness: usize,
    ops: Vec<PendingOp>,
    /// Cumulative repository stats after this epoch.
    hits: u64,
    misses: u64,
    /// This is the tenant's final report (retirement or window end).
    last: bool,
    /// The tenant panicked mid-epoch: the committer retires it and stops
    /// expecting its reports from this epoch onwards, instead of waiting
    /// forever for reports that will never come.
    aborted: bool,
}

impl EpochReport {
    /// The death notice of a tenant that panicked while stepping `epoch`.
    fn abort(tenant: usize, epoch: usize) -> Self {
        EpochReport {
            tenant,
            epoch,
            staleness: 0,
            ops: Vec::new(),
            hits: 0,
            misses: 0,
            last: true,
            aborted: true,
        }
    }
}

/// Why a delivered report is being held back by the fault injector.
enum Held {
    /// The original delivery was dropped; this copy is the retransmission.
    Dropped,
    /// A duplicate copy of a report that was also delivered normally.
    Extra,
    /// Delivery delayed past later arrivals (reordering), not lost.
    Reordered,
}

/// The committer's faulty report channel: a deterministic message-loss layer
/// between the mpsc receiver and the committer. Reports the injector marks
/// as dropped or reordered are held back for a seeded number of subsequent
/// deliveries (drops become retransmissions — the paper-world "resend on
/// commit timeout" — so no information is ever truly lost); duplicated
/// reports are delivered twice. The committer's idempotent admission makes
/// all three shuffles invisible in the committed results.
struct FaultyInbox<'a> {
    rx: &'a Receiver<EpochReport>,
    injector: FaultInjector,
    tallies: &'a FaultTallies,
    recorder: &'a Recorder,
    /// Held-back reports with their remaining-delivery countdowns.
    delayed: Vec<(usize, Held, EpochReport)>,
    /// Reports ready for the committer.
    due: VecDeque<EpochReport>,
    disconnected: bool,
}

impl<'a> FaultyInbox<'a> {
    fn new(
        rx: &'a Receiver<EpochReport>,
        injector: FaultInjector,
        tallies: &'a FaultTallies,
        recorder: &'a Recorder,
    ) -> Self {
        FaultyInbox {
            rx,
            injector,
            tallies,
            recorder,
            delayed: Vec::new(),
            due: VecDeque::new(),
            disconnected: false,
        }
    }

    /// Releases a held report to the committer, counting retransmissions.
    fn release(&mut self, held: Held, report: EpochReport) {
        if matches!(held, Held::Dropped | Held::Extra) {
            self.recorder.with(|m| m.retransmits.inc());
            self.recorder.event(|| Event::ReportRetransmit {
                tenant: report.tenant as u64,
                epoch: report.epoch as u64,
            });
        }
        self.due.push_back(report);
    }

    /// One delivery elapsed: age every held report, releasing the expired.
    fn tick(&mut self) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= 1 {
                let (_, held, report) = self.delayed.swap_remove(i);
                self.release(held, report);
            } else {
                self.delayed[i].0 -= 1;
                i += 1;
            }
        }
    }

    /// Classifies one freshly received report: pass through, hold back, or
    /// duplicate, as the seeded plan dictates.
    fn admit(&mut self, report: EpochReport) {
        self.tick();
        if report.aborted {
            // Abort notices bypass injection: the committer must learn about
            // a dead tenant promptly no matter what the plan says.
            self.due.push_back(report);
            return;
        }
        let (tenant, epoch) = (report.tenant, report.epoch);
        if let Some(delay) = self.injector.drop_delay(tenant, epoch) {
            self.tallies.fault(&self.tallies.reports_dropped);
            self.recorder.with(|m| m.faults_injected.inc());
            self.delayed.push((delay, Held::Dropped, report));
        } else if let Some(delay) = self.injector.reorder_delay(tenant, epoch) {
            self.tallies.fault(&self.tallies.reports_reordered);
            self.recorder.with(|m| m.faults_injected.inc());
            self.delayed.push((delay, Held::Reordered, report));
        } else {
            if self.injector.duplicate(tenant, epoch) {
                self.tallies.fault(&self.tallies.reports_duplicated);
                self.recorder.with(|m| m.faults_injected.inc());
                self.delayed.push((2, Held::Extra, report.clone()));
            }
            self.due.push_back(report);
        }
    }

    /// Liveness valve: when the channel has gone quiet but reports are still
    /// held back, force the earliest (by `(epoch, tenant)` — deterministic)
    /// out, so a held report whose countdown is pinned on deliveries that
    /// will never come cannot stall the fleet. Commit order is independent
    /// of arrival order, so early release never changes results.
    fn force_release_earliest(&mut self) {
        let Some(earliest) = self
            .delayed
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, r))| (r.epoch, r.tenant))
            .map(|(i, _)| i)
        else {
            return;
        };
        let (_, held, report) = self.delayed.swap_remove(earliest);
        self.release(held, report);
    }

    fn recv(&mut self) -> Option<EpochReport> {
        loop {
            if let Some(report) = self.due.pop_front() {
                return Some(report);
            }
            if self.disconnected {
                if self.delayed.is_empty() {
                    return None;
                }
                // Every sender is gone: flush the held tail in
                // deterministic order.
                self.delayed
                    .sort_by_key(|(_, _, r)| std::cmp::Reverse((r.epoch, r.tenant)));
                while let Some((_, held, report)) = self.delayed.pop() {
                    self.release(held, report);
                }
                continue;
            }
            match self.rx.try_recv() {
                Ok(report) => self.admit(report),
                Err(TryRecvError::Empty) => {
                    if self.delayed.is_empty() {
                        match self.rx.recv() {
                            Ok(report) => self.admit(report),
                            Err(_) => self.disconnected = true,
                        }
                    } else {
                        // Senders may be blocked on a frontier that only a
                        // held report can advance — release rather than
                        // block on them.
                        self.force_release_earliest();
                    }
                }
                Err(TryRecvError::Disconnected) => self.disconnected = true,
            }
        }
    }
}

/// The committer's report source: the raw channel, or the fault-injecting
/// wrapper.
enum Inbox<'a> {
    Plain(&'a Receiver<EpochReport>),
    Faulty(FaultyInbox<'a>),
}

impl Inbox<'_> {
    fn recv(&mut self) -> Option<EpochReport> {
        match self {
            Inbox::Plain(rx) => rx.recv().ok(),
            Inbox::Faulty(inbox) => inbox.recv(),
        }
    }
}

/// The committer of the asynchronous transport, with **per-shard
/// commit frontiers**: epoch reports arrive over the channel, and a
/// `(shard, epoch)` batch commits — in tenant order, followed by the
/// frontier-aware TTL sweep of exactly that shard at that epoch's timestamp
/// — as soon as **all of the epoch's reports touching the shard** are in.
/// A shard therefore never waits for the fleet's slowest shard, which is
/// what shrinks commit latency on skewed scenarios; and because a tenant
/// only ever observes its own shard, no consistency bound weakens.
///
/// Fleet-wide bookkeeping (the hit-rate curve) folds once **every** shard
/// has passed an epoch, in epoch order, so it is identical to a whole-epoch
/// committer's. Everything the committer does depends only on report
/// contents and tenant order — never on arrival order across shards — so
/// results are invariant to thread scheduling and to the worker cap.
///
/// `on_release` receives the tenants a frontier advance un-parked; the
/// work-stealing scheduler re-injects them.
///
/// Under a fault domain the committer additionally (a) captures one delta
/// checkpoint per `(shard, epoch)` commit into the [`CheckpointStore`],
/// (b) admits reports **idempotently** (each `(tenant, epoch)` counts once,
/// so duplicated or reordered deliveries are safe by construction),
/// (c) survives its own injected **restarts** — all volatile assembly state
/// is rebuilt from first principles plus the retained already-delivered
/// reports, exactly what a failover committer would re-assemble from
/// re-sent reports — and (d) wipes and warm re-seeds a shard from its delta
/// chain on an injected shard loss.
struct Committer<'a, 'h> {
    ctx: &'a FleetContext<'h>,
    windows: &'a [(usize, usize)],
    tenant_shard: &'a [usize],
    frontiers: &'a ShardFrontiers,
    domain: Option<&'a FaultDomain<'h>>,
    epochs: usize,
    /// How many tenants the nominal tenancy windows promise each
    /// `(epoch, shard)` — the pristine ledger restarts rebuild from.
    nominal: Vec<Vec<usize>>,
    /// `nominal` adjusted for early retirements and tenant deaths: how many
    /// reports each `(epoch, shard)` still waits for before committing.
    expected: Vec<Vec<usize>>,
    received: Vec<Vec<usize>>,
    pending: Vec<Vec<Vec<EpochReport>>>,
    /// Per-epoch cumulative tenant stats, folded into `cached` (and the
    /// hit-rate curve) once the whole epoch has committed across shards.
    epoch_stats: Vec<Vec<(usize, u64, u64)>>,
    cached: Vec<(u64, u64)>,
    /// Per shard: the next epoch whose batch has not committed yet. This is
    /// the committer's only *durable* state — everything else is rebuilt on
    /// an injected restart.
    shard_next: Vec<usize>,
    completed: usize,
    /// Per tenant: the epoch of its early `last` report, if any — the guard
    /// that keeps the expected-count adjustment idempotent under duplicated
    /// deliveries and restart re-admission.
    early_last: Vec<Option<usize>>,
    /// Per tenant: the epoch at which it aborted (panicked), if any.
    failed: Vec<Option<usize>>,
    /// Per `(tenant, epoch)`: whether a report was already admitted — the
    /// sequence-number dedup that makes commit idempotent.
    enqueued: Vec<Vec<bool>>,
    /// Uncommitted delivered reports, kept only when committer restarts are
    /// being injected: the re-sent-report pool a failover re-assembles from.
    retained: Vec<EpochReport>,
    /// Per-shard change cursors for delta capture (empty without a domain).
    cursors: Vec<DeltaCursor>,
    /// Shards whose readiness may have changed. Seeded with every shard:
    /// epochs expecting no reports from a shard (no tenant routes there, or
    /// everyone already retired) commit empty batches immediately — their
    /// TTL sweeps still run on schedule, exactly as the whole-fleet
    /// barrier's sweep would have covered them.
    work: Vec<usize>,
    /// Commit-batch scratch reused across `(shard, epoch)` commits: the flat
    /// op list and its parallel tenant/staleness columns. Capacity is
    /// retained between commits, so steady-state commits allocate nothing.
    scratch_ops: Vec<PendingOp>,
    scratch_tenants: Vec<usize>,
    scratch_staleness: Vec<usize>,
}

impl<'a, 'h> Committer<'a, 'h> {
    fn new(
        ctx: &'a FleetContext<'h>,
        windows: &'a [(usize, usize)],
        tenant_shard: &'a [usize],
        frontiers: &'a ShardFrontiers,
        domain: Option<&'a FaultDomain<'h>>,
    ) -> Self {
        let epochs = ctx.epochs();
        let shards = ctx.shard_count();
        let mut nominal = vec![vec![0usize; shards]; epochs];
        for (tenant, &(start, end)) in windows.iter().enumerate() {
            for slot in &mut nominal[start.min(epochs)..end.min(epochs)] {
                slot[tenant_shard[tenant]] += 1;
            }
        }
        // The cursors anchor at the same quiescent point as the store's base
        // image: nothing has committed yet, so the first captured delta
        // covers exactly the first commit.
        let cursors = match domain {
            Some(domain) => (0..shards)
                .map(|shard| {
                    let mut cursor = DeltaCursor::default();
                    domain.shared_arc.prime_delta_cursor(shard, &mut cursor);
                    cursor
                })
                .collect(),
            None => Vec::new(),
        };
        Committer {
            ctx,
            windows,
            tenant_shard,
            frontiers,
            domain,
            epochs,
            expected: nominal.clone(),
            nominal,
            received: vec![vec![0usize; shards]; epochs],
            pending: (0..epochs)
                .map(|_| (0..shards).map(|_| Vec::new()).collect())
                .collect(),
            epoch_stats: vec![Vec::new(); epochs],
            cached: vec![(0, 0); windows.len()],
            shard_next: vec![0usize; shards],
            completed: 0,
            early_last: vec![None; windows.len()],
            failed: vec![None; windows.len()],
            enqueued: vec![vec![false; epochs]; windows.len()],
            retained: Vec::new(),
            cursors,
            work: (0..shards).collect(),
            scratch_ops: Vec::new(),
            scratch_tenants: Vec::new(),
            scratch_staleness: Vec::new(),
        }
    }

    /// Whether delivered reports must be retained for restart re-assembly.
    fn retains(&self) -> bool {
        self.domain.is_some_and(|d| {
            d.injector
                .spec()
                .is_some_and(|s| s.enables(FaultKind::CommitterRestart))
        })
    }

    fn run(
        mut self,
        mut inbox: Inbox<'_>,
        out: &mut TransportOutcome,
        on_release: &mut dyn FnMut(Vec<usize>),
    ) {
        let recorder = self.ctx.recorder();
        // Fold-to-fold wall time per fleet-wide epoch (the async analogue of
        // the barrier's per-epoch wall clock).
        let mut fold_started = recorder.start();
        loop {
            self.commit_ready(out, on_release);
            // Fold fully committed epochs into the fleet-wide curve, in
            // order.
            while self.completed < self.epochs
                && self.shard_next.iter().all(|&next| next > self.completed)
            {
                let folded = self.completed;
                for (tenant, hits, misses) in std::mem::take(&mut self.epoch_stats[folded]) {
                    self.cached[tenant] = (hits, misses);
                }
                let hits: u64 = self.cached.iter().map(|&(h, _)| h).sum();
                let misses: u64 = self.cached.iter().map(|&(_, m)| m).sum();
                out.hit_rate_curve.push(hit_rate(hits, misses));
                recorder.observe(fold_started, |m| &m.epoch_ns);
                fold_started = recorder.start();
                recorder.event(|| Event::EpochCommit {
                    epoch: folded as u64,
                });
                self.completed += 1;
                if let Some(domain) = self.domain {
                    if domain.injector.committer_restart(folded) {
                        self.restart(folded, domain, out);
                    }
                }
            }
            if self.completed >= self.epochs {
                return;
            }
            if !self.work.is_empty() {
                // A restart re-admitted reports; drain them before blocking
                // on the channel (which may already be empty and closed).
                continue;
            }
            let Some(report) = inbox.recv() else {
                panic!(
                    "async transport lost epoch reports ({} of {} epochs committed)",
                    self.completed, self.epochs
                );
            };
            self.admit(report, out);
        }
    }

    /// Admits one delivered report: dedups by `(tenant, epoch)` (the
    /// idempotence that makes duplicated and reordered deliveries safe),
    /// handles abort notices by releasing the dead tenant's future slots,
    /// and queues the report for its shard's commit.
    fn admit(&mut self, report: EpochReport, out: &mut TransportOutcome) {
        let tenant = report.tenant;
        let shard = self.tenant_shard[tenant];
        let nominal_end = self.windows[tenant].1.min(self.epochs);
        if report.aborted {
            if self.failed[tenant].is_none() && self.early_last[tenant].is_none() {
                self.failed[tenant] = Some(report.epoch);
                out.failed[tenant] = Some(report.epoch);
                // The dead tenant reported every epoch before the abort, so
                // its shard stops waiting for it from the abort epoch on.
                let lo = report.epoch.max(self.windows[tenant].0).min(nominal_end);
                for slot in &mut self.expected[lo..nominal_end] {
                    slot[shard] -= 1;
                }
                self.work.push(shard);
            }
            return;
        }
        if report.epoch >= self.epochs || self.enqueued[tenant][report.epoch] {
            return; // duplicate delivery: already admitted once
        }
        self.enqueued[tenant][report.epoch] = true;
        if report.last && self.early_last[tenant].is_none() {
            // The tenant retired before its nominal window end: its shard's
            // later epochs no longer wait for it.
            self.early_last[tenant] = Some(report.epoch);
            let lo = (report.epoch + 1).min(nominal_end);
            for slot in &mut self.expected[lo..nominal_end] {
                slot[shard] -= 1;
            }
        }
        if self.retains() {
            self.retained.push(report.clone());
        }
        self.received[report.epoch][shard] += 1;
        self.pending[report.epoch][shard].push(report);
        self.work.push(shard);
    }

    /// Drains the shard worklist: commits every ready `(shard, epoch)`
    /// batch, in tenant order within the batch, sweeps the shard, captures
    /// its delta checkpoint, and advances its frontier.
    fn commit_ready(&mut self, out: &mut TransportOutcome, on_release: &mut dyn FnMut(Vec<usize>)) {
        let recorder = self.ctx.recorder();
        while let Some(shard) = self.work.pop() {
            while self.shard_next[shard] < self.epochs
                && self.received[self.shard_next[shard]][shard]
                    == self.expected[self.shard_next[shard]][shard]
            {
                let epoch = self.shard_next[shard];
                let mut batch = std::mem::take(&mut self.pending[epoch][shard]);
                batch.sort_by_key(|r| r.tenant);
                let ops_retained = self.scratch_ops.capacity();
                let cols_retained = self
                    .scratch_tenants
                    .capacity()
                    .min(self.scratch_staleness.capacity());
                self.scratch_ops.clear();
                self.scratch_tenants.clear();
                self.scratch_staleness.clear();
                for report in &mut batch {
                    let drained = std::mem::take(&mut report.ops);
                    self.scratch_tenants
                        .resize(self.scratch_tenants.len() + drained.len(), report.tenant);
                    self.scratch_staleness.resize(
                        self.scratch_staleness.len() + drained.len(),
                        report.staleness,
                    );
                    self.scratch_ops.extend(drained);
                }
                let saved = (self.scratch_ops.len().min(ops_retained)
                    * std::mem::size_of::<PendingOp>()
                    + self.scratch_tenants.len().min(cols_retained)
                        * 2
                        * std::mem::size_of::<usize>()) as u64;
                recorder.with(|m| m.scratch_bytes_saved.add(saved));
                commit_epoch(
                    self.ctx,
                    &self.scratch_ops,
                    &self.scratch_tenants,
                    &self.scratch_staleness,
                    out,
                );
                recorder.event(|| Event::ShardCommit {
                    shard: shard as u64,
                    epoch: epoch as u64,
                    ops: self.scratch_ops.len() as u64,
                });
                let reclaimed = self.ctx.sweep_shard(shard, epoch);
                recorder.with(|m| m.sweep_reclaimed.add(reclaimed));
                recorder.event(|| Event::TtlSweep {
                    shard: shard as u64,
                    epoch: epoch as u64,
                    reclaimed,
                });
                for report in &batch {
                    self.epoch_stats[epoch].push((report.tenant, report.hits, report.misses));
                    out.summary.view_staleness.record(report.staleness);
                }
                self.shard_next[shard] = epoch + 1;
                if !self.retained.is_empty() {
                    // Committed reports are durable; only uncommitted ones
                    // need re-assembly after a restart.
                    let tenant_shard = self.tenant_shard;
                    self.retained
                        .retain(|r| !(r.epoch == epoch && tenant_shard[r.tenant] == shard));
                }
                if let Some(domain) = self.domain {
                    // Checkpoint at the commit boundary: the delta captures
                    // exactly this commit (batch + sweep), because tenants
                    // never mutate the shared store and no other commit of
                    // this shard can run concurrently.
                    let delta = domain.shared_arc.capture_shard_delta(
                        shard,
                        epoch,
                        &mut self.cursors[shard],
                    );
                    recorder.with(|m| m.checkpoints.inc());
                    recorder.event(|| Event::CheckpointSave {
                        shard: shard as u64,
                        epoch: epoch as u64,
                        namespaces: delta.namespaces.len() as u64,
                    });
                    {
                        let mut store = domain.store.lock().expect("checkpoint store poisoned");
                        // Advance the compaction floor past tenancy windows
                        // this commit closed, *before* recording: the
                        // record's compaction pass then folds the newly
                        // released backlog immediately.
                        store.set_floor(shard, domain.crash_floor(shard, epoch + 1));
                        let receipt = store.record(delta);
                        if receipt.bytes() > 0 {
                            recorder.with(|m| {
                                m.durable_segments.inc();
                                m.durable_bytes.add(receipt.bytes());
                                if receipt.folded {
                                    m.durable_folds.inc();
                                }
                            });
                        }
                    }
                    if domain.injector.shard_loss(shard, epoch) {
                        // Shard-level repository loss: wipe the shard and
                        // warm re-seed it from the delta chain — before the
                        // frontier advances, so no tenant can observe the
                        // gap.
                        domain.tallies.fault(&domain.tallies.shard_losses);
                        recorder.with(|m| m.faults_injected.inc());
                        let image = domain
                            .store
                            .lock()
                            .expect("checkpoint store poisoned")
                            .store()
                            .materialize(shard, epoch + 1)
                            .expect("the delta chain always reaches its own head");
                        domain
                            .shared_arc
                            .restore_shard(shard, &image)
                            .expect("checkpoint images restore cleanly");
                        recorder.with(|m| m.recoveries.inc());
                    }
                }
                if recorder.is_enabled() {
                    // Frontier lag: how far this shard's frontier trails the
                    // fleet's most advanced shard after this commit.
                    let lead = self.shard_next.iter().copied().max().unwrap_or(0);
                    let lag = (lead - self.shard_next[shard]) as u64;
                    recorder.with(|m| m.shard_lag.observe(shard, lag));
                    recorder.event(|| Event::FrontierAdvance {
                        shard: shard as u64,
                        epoch: epoch as u64,
                        lag,
                    });
                }
                // Advancing after the sweep keeps `staleness = 0` exact: no
                // tenant enters its shard's next epoch while that shard
                // still moves.
                on_release(self.frontiers.advance(shard, epoch + 1));
            }
        }
    }

    /// An injected committer crash-and-failover: every piece of volatile
    /// assembly state (expected counts, received counts, pending batches,
    /// dedup bits) is discarded and rebuilt from the nominal windows, the
    /// durable per-shard frontiers, the early-retirement/death ledgers, and
    /// the retained (conceptually re-sent) reports. Committed state — the
    /// shared store, the checkpoint chains, `shard_next` — survives, exactly
    /// as a real failover inherits the durable log but not the assembler's
    /// memory.
    fn restart(&mut self, epoch: usize, domain: &FaultDomain<'_>, out: &mut TransportOutcome) {
        let recorder = self.ctx.recorder();
        domain.tallies.fault(&domain.tallies.committer_restarts);
        recorder.with(|m| {
            m.faults_injected.inc();
            m.committer_restarts.inc();
        });
        recorder.event(|| Event::CommitterRestart {
            epoch: epoch as u64,
        });
        let shards = self.shard_next.len();
        for shard in 0..shards {
            for e in self.shard_next[shard]..self.epochs {
                self.received[e][shard] = 0;
                self.pending[e][shard].clear();
                self.expected[e][shard] = self.nominal[e][shard];
            }
        }
        for tenant in 0..self.windows.len() {
            let shard = self.tenant_shard[tenant];
            let nominal_end = self.windows[tenant].1.min(self.epochs);
            if let Some(last) = self.early_last[tenant] {
                let lo = (last + 1).min(nominal_end);
                for e in lo..nominal_end {
                    if e >= self.shard_next[shard] {
                        self.expected[e][shard] -= 1;
                    }
                }
            }
            if let Some(failed) = self.failed[tenant] {
                let lo = failed.max(self.windows[tenant].0).min(nominal_end);
                for e in lo..nominal_end {
                    if e >= self.shard_next[shard] {
                        self.expected[e][shard] -= 1;
                    }
                }
            }
            for e in self.shard_next[shard]..self.epochs {
                self.enqueued[tenant][e] = false;
            }
        }
        // Re-assemble from the retained pool — the reports tenants would
        // re-send to a failover committer. `admit` re-retains each one, so a
        // second restart can re-assemble again.
        for report in std::mem::take(&mut self.retained) {
            self.admit(report, out);
        }
        self.work.extend(0..shards);
    }
}

/// Crashes a tenant mid-epoch and rebuilds it from the checkpoint chain: the
/// tenant's in-memory state is lost with the crash, so recovery materializes
/// its shard's image at the tenant's join epoch, replays every epoch up to
/// the crash **deterministically** against a private clone advanced delta by
/// delta (each replayed epoch reads exactly the repository state its
/// original execution read — under `staleness = 0` this makes recovery
/// bit-exact), then switches the rebuilt tenant's view back to the live
/// shared repository. Replayed publishes are discarded: they were already
/// committed the first time round, and the idempotent committer would drop
/// re-sent ones anyway.
///
/// With `staleness > 0` tail deltas the committer has not captured yet may
/// be missing; replay then reads a slightly older image — still within the
/// transport's staleness bound, so no consistency guarantee weakens.
///
/// Returns the number of epochs replayed.
fn crash_and_recover(
    ctx: &FleetContext<'_>,
    domain: &FaultDomain<'_>,
    handle: &mut TenantHandle<'_>,
    epoch: usize,
) -> u64 {
    let recorder = ctx.recorder();
    let tenant = handle.index();
    domain.tallies.fault(&domain.tallies.tenants_crashed);
    recorder.with(|m| m.faults_injected.inc());
    recorder.event(|| Event::TenantCrash {
        tenant: tenant as u64,
        epoch: epoch as u64,
    });
    let start = handle.start_epoch();
    let shard = ctx.shard_of(handle.namespace());
    let (base, deltas) = {
        let store = domain.store.lock().expect("checkpoint store poisoned");
        let store = store.store();
        // With `staleness > 0` a free-running tenant can crash before the
        // committer has committed (hence checkpointed) epochs up to its own
        // window start; replay then begins from the newest image the chain
        // can produce — still within the staleness bound. Under K = 0 the
        // frontier gate keeps the chain complete through the crash epoch,
        // so the clamp is a no-op and replay stays bit-exact.
        let base_epoch = start.min(store.chain_end(shard));
        let base = store
            .materialize(shard, base_epoch)
            .expect("compaction floors pin every crash-scheduled tenancy window");
        let deltas: Vec<Option<DeltaSnapshot>> =
            (start..epoch).map(|e| store.delta(shard, e).ok()).collect();
        (base, deltas)
    };
    let replay_repo = Arc::new(
        SharedSignatureRepository::from_snapshot(&base)
            .expect("checkpoint images are valid snapshots"),
    );
    let mut run = (domain.respawn)(tenant, Arc::clone(&replay_repo));
    let mut replayed = 0u64;
    for (e, delta) in (start..epoch).zip(deltas) {
        run.step_epoch(e, ctx.epoch_secs);
        if run.first_reuse_epoch.is_none()
            && e + 1 > run.start_epoch
            && run.controller.stats().fleet_reuses > 0
        {
            run.first_reuse_epoch = Some(e + 1 - run.start_epoch);
        }
        if let Some(outbox) = &run.outbox {
            // Replayed publishes were already committed the first time.
            outbox.lock().expect("tenant outbox poisoned").clear();
        }
        if let Some(delta) = delta {
            replay_repo
                .apply_shard_delta(&delta)
                .expect("replay follows the chain in epoch order");
        }
        replayed += 1;
        recorder.with(|m| m.replayed_epochs.inc());
    }
    domain
        .tallies
        .replayed_epochs
        .fetch_add(replayed, Ordering::Relaxed);
    // Switch the rebuilt tenant from its private replay clone to the live
    // shared repository; recovery guarantees the anchor state it resolved
    // against matches what the live store holds (exactly, under K = 0).
    run.controller
        .store_mut()
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<TenantRepoView>())
        .expect("shared-mode tenants read through a TenantRepoView")
        .retarget(Arc::clone(domain.shared_arc) as _);
    handle.replace(run);
    recorder.with(|m| m.recoveries.inc());
    recorder.event(|| Event::TenantRecover {
        tenant: tenant as u64,
        epoch: epoch as u64,
        replayed,
    });
    replayed
}

/// The work-stealing pool's task queues of tenant indices: a FIFO injector
/// the committer feeds, and one deque per worker. The owner pushes and pops
/// the back of its own deque, so a hot tenant stays on its worker; a thief
/// takes the front of a peer's deque, the oldest task; a worker whose deque
/// is empty refills from the injector in batches. One mutex per queue is
/// plenty: the pool schedules one task per tenant-epoch, each worth
/// milliseconds of simulation.
struct TaskQueues {
    injector: Mutex<VecDeque<usize>>,
    workers: Box<[Mutex<VecDeque<usize>>]>,
}

/// Most tasks one injector refill moves onto a worker's deque besides the
/// one it returns.
const MAX_STEAL_BATCH: usize = 16;

impl TaskQueues {
    fn new(workers: usize) -> Self {
        TaskQueues {
            injector: Mutex::new(VecDeque::new()),
            workers: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    fn lock(queue: &Mutex<VecDeque<usize>>) -> MutexGuard<'_, VecDeque<usize>> {
        queue.lock().expect("task queue poisoned")
    }

    /// Queues `tenant` at the back of the injector.
    fn inject(&self, tenant: usize) {
        Self::lock(&self.injector).push_back(tenant);
    }

    /// Pushes `tenant` onto the back of `worker`'s deque.
    fn push(&self, worker: usize, tenant: usize) {
        Self::lock(&self.workers[worker]).push_back(tenant);
    }

    /// The newest task on `worker`'s own deque.
    fn pop(&self, worker: usize) -> Option<usize> {
        Self::lock(&self.workers[worker]).pop_back()
    }

    /// Takes the oldest injected task for `worker` and moves up to
    /// `min(16, ceil(rest / 2))` of the tasks behind it, in order, onto the
    /// back of the worker's deque.
    fn steal_batch(&self, worker: usize) -> Option<usize> {
        let mut injector = Self::lock(&self.injector);
        let task = injector.pop_front()?;
        let batch = injector.len().div_ceil(2).min(MAX_STEAL_BATCH);
        Self::lock(&self.workers[worker]).extend(injector.drain(..batch));
        Some(task)
    }

    /// The oldest task of the first non-empty worker deque, in worker order.
    fn steal_peer(&self) -> Option<usize> {
        self.workers
            .iter()
            .find_map(|queue| Self::lock(queue).pop_front())
    }
}

/// One tenant's schedulable state under [`WorkStealing`]: its handle plus
/// the next epoch it will step. Lives in the tenant's slot whenever the
/// tenant is queued (injector or a worker deque) or parked on a frontier; a
/// worker takes it out only to run one epoch.
struct TenantTask<'a> {
    handle: TenantHandle<'a>,
    next_epoch: usize,
    /// Whether this tenant's scheduled crash already fired (the re-executed
    /// crash epoch must not re-trigger it).
    crashed: bool,
}

/// Everything a pool worker shares with its peers and the committer.
struct StealPool<'a, 'h> {
    ctx: &'a FleetContext<'h>,
    frontiers: &'a ShardFrontiers,
    doorbell: &'a Doorbell,
    queues: &'a TaskQueues,
    slots: &'a [Mutex<Option<TenantTask<'h>>>],
    windows: &'a [(usize, usize)],
    tenant_shard: &'a [usize],
    /// Tenants that have not sent their `last` report yet; the pool drains
    /// when it reaches zero.
    remaining: &'a AtomicUsize,
    /// The drive's fault/recovery domain, when configured.
    domain: Option<&'a FaultDomain<'h>>,
}

impl<'h> StealPool<'_, 'h> {
    /// One worker's scheduling loop: pop the local deque, then steal from
    /// the shared injector (batch) or a peer's deque; run the claimed
    /// tenant's next epoch; sleep on the doorbell only when every queue was
    /// observed empty at an unchanged doorbell generation.
    fn run_worker(&self, worker: usize, tx: &Sender<EpochReport>) {
        let recorder = self.ctx.recorder();
        loop {
            // Snapshot the doorbell before scanning: a task injected after an
            // empty scan bumps the generation, so the sleep below returns
            // immediately instead of missing the wakeup.
            let heard = self.doorbell.generation();
            assert!(
                !self.frontiers.poisoned(),
                "transport committer unwound; worker aborting"
            );
            // A task that did not come off the local deque was stolen — from
            // the shared injector or a peer's cold end.
            let mut stolen = false;
            let task = self.queues.pop(worker).or_else(|| {
                stolen = true;
                self.queues
                    .steal_batch(worker)
                    .or_else(|| self.queues.steal_peer())
            });
            match task {
                Some(tenant) => {
                    if stolen {
                        recorder.with(|m| m.steals.inc());
                        recorder.event(|| Event::WorkerSteal {
                            worker: worker as u64,
                        });
                    }
                    self.run_tenant(tenant, worker, tx)
                }
                None => {
                    if self.remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    self.doorbell.wait_beyond(heard);
                    recorder.with(|m| m.wakes.inc());
                    recorder.event(|| Event::WorkerWake {
                        worker: worker as u64,
                    });
                }
            }
        }
    }

    /// Steps one epoch of `tenant` (or parks it on its shard's frontier) and
    /// reschedules the continuation through the local deque, where an idle
    /// peer can steal it.
    fn run_tenant(&self, tenant: usize, worker: usize, tx: &Sender<EpochReport>) {
        let mut task = self.slots[tenant]
            .lock()
            .expect("tenant slot poisoned")
            .take()
            .expect("tenant scheduled while not in its slot");
        let shard = self.tenant_shard[tenant];
        let epoch = task.next_epoch;
        // Park point: the task must be back in its slot before asking the
        // frontier, so a release racing the answer finds the tenant where
        // the next worker will look for it.
        *self.slots[tenant].lock().expect("tenant slot poisoned") = Some(task);
        let Some(staleness) = self.frontiers.enter_or_park(shard, epoch, tenant) else {
            // Parked; the committer re-injects it on advance.
            let recorder = self.ctx.recorder();
            recorder.with(|m| m.parks.inc());
            recorder.event(|| Event::WorkerPark {
                tenant: tenant as u64,
                epoch: epoch as u64,
            });
            return;
        };
        task = self.slots[tenant]
            .lock()
            .expect("tenant slot poisoned")
            .take()
            .expect("admitted tenant missing from its slot");
        // A panicking tenant (service model or poisoned outbox) must kill
        // only itself, never the pool: the epoch body runs under
        // `catch_unwind`, the worker reports the abort to the committer
        // (which retires the tenant and releases its slots) and keeps the
        // drain accounting right.
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            if !task.crashed {
                if let Some(domain) = self.domain {
                    let (start, end) = self.windows[tenant];
                    if domain.injector.crash_epoch(tenant, start, end) == Some(epoch) {
                        task.crashed = true;
                        // The doomed attempt: mid-epoch work that dies with
                        // the crash, publishes and all.
                        task.handle.step_epoch(epoch, self.ctx);
                        let _ = task.handle.drain_outbox();
                        crash_and_recover(self.ctx, domain, &mut task.handle, epoch);
                    }
                }
            }
            task.handle.step_epoch(epoch, self.ctx);
            task.handle.observe_reuse(epoch);
            task.handle.drain_outbox()
        }));
        let Ok(ops) = stepped else {
            // Send the abort notice, then retire this tenant from the pool's
            // drain accounting so idle workers can still exit. A failed send
            // means the committer is already gone; nothing to notify.
            let _ = tx.send(EpochReport::abort(tenant, epoch));
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.doorbell.ring();
            }
            return;
        };
        let retiring = task.handle.retires_at(epoch);
        if retiring {
            task.handle.retire();
        }
        let (hits, misses) = task.handle.repo_stats();
        let last = retiring || epoch + 1 == self.windows[tenant].1;
        let sent = tx
            .send(EpochReport {
                tenant,
                epoch,
                staleness,
                ops,
                hits,
                misses,
                last,
                aborted: false,
            })
            .is_ok();
        if last || !sent {
            // The tenant is done (or the committer is gone — the poisoned
            // frontiers panic this worker on its next loop). The final
            // finisher rings the doorbell so idle peers notice the pool is
            // drained and exit.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.doorbell.ring();
            }
            return;
        }
        task.next_epoch = epoch + 1;
        // Reschedule through the local deque: LIFO keeps the hot tenant on
        // this worker when nobody is idle, while an idle peer steals it from
        // the cold end.
        *self.slots[tenant].lock().expect("tenant slot poisoned") = Some(task);
        self.queues.push(worker, tenant);
    }
}

/// The asynchronous bounded-staleness transport on a **fixed worker pool**.
///
/// [`threads`](Self::threads) workers pull per-epoch tenant tasks from a
/// global injector plus one deque per worker that idle peers steal from, so
/// a 1000-tenant fleet runs on a handful of threads. Every tenant may
/// advance up to [`staleness`](Self::staleness) epochs beyond **its
/// shard's** commit frontier; a tenant whose frontier is too far behind is
/// **parked as data** (never blocking a pool worker) and re-injected by the
/// committer when its shard catches up. The committer assembles each shard's
/// epoch reports (arriving over an mpsc channel), applies them in tenant
/// order, runs that shard's TTL sweep and advances its frontier. Views are
/// therefore never more than `staleness` epochs stale, and with
/// `staleness = 0` the schedule collapses to the BSP barrier per shard: no
/// tenant may enter an epoch before every prior epoch of the only shard it
/// can observe committed, so the store is frozen while anyone reads it and
/// the run bit-matches [`BspBarrier`].
///
/// Tenant stepping is sequential per tenant, commits are per shard in tenant
/// order, and sweep times are fixed by the epoch grid — none of it depends
/// on which worker executes what — so the results are **invariant to the
/// thread count** (fuzzed across scenarios in `tests/differential.rs`).
#[derive(Debug, Clone, Copy)]
pub struct WorkStealing {
    /// Worker threads in the pool (clamped to `1..=tenants`).
    pub threads: usize,
    /// Maximum number of epochs a tenant's view may trail its shard's commit
    /// frontier.
    pub staleness: usize,
}

impl CommitTransport for WorkStealing {
    fn name(&self) -> String {
        format!(
            "steal(threads={},staleness={})",
            self.threads, self.staleness
        )
    }

    fn drive(&self, harness: &mut FleetHarness<'_>) -> TransportOutcome {
        let (ctx, handles) = harness.split();
        let tenant_count = handles.len();
        let mut out = TransportOutcome::new(self.name(), tenant_count);
        if ctx.epochs() == 0 || tenant_count == 0 {
            return out;
        }
        let windows: Vec<(usize, usize)> = handles
            .iter()
            .map(|h| (h.start_epoch(), h.end_epoch()))
            .collect();
        let tenant_shard: Vec<usize> = handles
            .iter()
            .map(|h| ctx.shard_of(h.namespace()))
            .collect();
        let threads = self.threads.clamp(1, tenant_count);
        let frontiers = ShardFrontiers::new(ctx.shard_count(), self.staleness);
        let domain = fault_domain(&ctx, &windows, &tenant_shard);
        let domain_ref = domain.as_ref();
        let queues = TaskQueues::new(threads);
        let doorbell = Doorbell::default();
        let mut active = 0usize;
        let slots: Vec<Mutex<Option<TenantTask<'_>>>> = handles
            .into_iter()
            .map(|handle| {
                let index = handle.index();
                let (start, end) = windows[index];
                // Zero-length windows never step and never report; everyone
                // else starts queued at their join epoch.
                let task = (start < end).then_some(TenantTask {
                    handle,
                    next_epoch: start,
                    crashed: false,
                });
                if task.is_some() {
                    active += 1;
                    queues.inject(index);
                }
                Mutex::new(task)
            })
            .collect();
        let remaining = AtomicUsize::new(active);
        let (tx, rx) = mpsc::channel::<EpochReport>();
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let tx = tx.clone();
                let pool = StealPool {
                    ctx: &ctx,
                    frontiers: &frontiers,
                    doorbell: &doorbell,
                    queues: &queues,
                    slots: &slots,
                    windows: &windows,
                    tenant_shard: &tenant_shard,
                    remaining: &remaining,
                    domain: domain_ref,
                };
                scope.spawn(move || pool.run_worker(worker, &tx));
            }
            drop(tx);

            // Committer on this thread; its unwind poisons the frontiers and
            // rings the doorbell so both parked tenants and idle workers die
            // instead of deadlocking the scope.
            let mut poison_guard = PoisonOnDrop {
                frontiers: &frontiers,
                doorbell: &doorbell,
                armed: true,
            };
            let inbox = match domain_ref {
                Some(domain) if domain.injector.enabled() => Inbox::Faulty(FaultyInbox::new(
                    &rx,
                    domain.injector,
                    &domain.tallies,
                    ctx.recorder(),
                )),
                _ => Inbox::Plain(&rx),
            };
            Committer::new(&ctx, &windows, &tenant_shard, &frontiers, domain_ref).run(
                inbox,
                &mut out,
                &mut |released| {
                    // An empty release set means no tenant became runnable
                    // (the frontier mutex orders park vs advance), so idle
                    // workers have nothing to find — don't wake them.
                    if released.is_empty() {
                        return;
                    }
                    for tenant in released {
                        queues.inject(tenant);
                    }
                    doorbell.ring();
                },
            );
            poison_guard.armed = false;
        });
        if let Some(domain) = domain {
            out.faults = Some(summarize_faults(domain));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_histogram_summarizes() {
        let mut h = StalenessHistogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(0);
        h.record(0);
        h.record(2);
        assert_eq!(h.counts(), &[2, 0, 1]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.max(), 2);
        assert!((h.mean() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn transport_config_materializes_named_backends() {
        assert_eq!(TransportConfig::default(), TransportConfig::Bsp);
        assert_eq!(TransportConfig::Bsp.backend().name(), "bsp");
        assert_eq!(
            TransportConfig::WorkStealing {
                threads: 4,
                staleness: 1
            }
            .backend()
            .name(),
            "steal(threads=4,staleness=1)"
        );
    }

    #[test]
    fn transport_parse_accepts_every_backend_and_rejects_the_rest() {
        assert_eq!(
            TransportConfig::parse("bsp", 4, 2),
            Ok(TransportConfig::Bsp)
        );
        assert_eq!(
            TransportConfig::parse("steal", 4, 2),
            Ok(TransportConfig::WorkStealing {
                threads: 4,
                staleness: 2
            })
        );
        for retired in ["quorum", "async"] {
            let err = TransportConfig::parse(retired, 4, 2).expect_err("unknown backend");
            assert!(err.contains(&format!("'{retired}'")), "{err}");
            for valid in ["'bsp'", "'steal'"] {
                assert!(err.contains(valid), "{err} should list {valid}");
            }
        }
    }

    #[test]
    fn fault_injection_is_rejected_on_bsp_and_accepted_on_the_pool() {
        let spec = FaultSpec::parse("7:crash,drop").expect("valid spec");
        assert_eq!(
            TransportConfig::Bsp.check_faults(&spec),
            Err(FaultSpecError::BackendUnsupported {
                backend: "bsp".to_string()
            })
        );
        assert_eq!(
            TransportConfig::WorkStealing {
                threads: 2,
                staleness: 1
            }
            .check_faults(&spec),
            Ok(())
        );
    }

    #[test]
    fn poisoned_frontiers_kill_workers_asking_for_admission() {
        let frontiers = ShardFrontiers::new(2, 0);
        frontiers.poison();
        assert!(frontiers.poisoned());
        let admitted = catch_unwind(AssertUnwindSafe(|| frontiers.enter_or_park(0, 0, 3)));
        assert!(
            admitted.is_err(),
            "poisoned frontiers must panic their workers, not admit or park tenants"
        );
    }

    #[test]
    fn shard_frontiers_gate_per_shard() {
        let frontiers = ShardFrontiers::new(2, 1);
        assert_eq!(frontiers.enter_or_park(0, 0, 0), Some(0));
        assert!(frontiers.advance(0, 2).is_empty());
        assert_eq!(frontiers.enter_or_park(0, 3, 0), Some(1));
        // Shard 1's frontier is untouched by shard 0's advance.
        assert_eq!(frontiers.enter_or_park(1, 1, 1), Some(1));
        assert_eq!(frontiers.enter_or_park(1, 3, 1), None);
        // Advancing the *other* shard must not release it; advancing its own
        // does.
        assert!(frontiers.advance(0, 9).is_empty());
        assert_eq!(frontiers.advance(1, 2), vec![1]);
        assert_eq!(frontiers.enter_or_park(1, 3, 1), Some(1));
    }

    #[test]
    fn parked_tenants_release_only_when_their_shard_catches_up() {
        let frontiers = ShardFrontiers::new(2, 0);
        assert_eq!(frontiers.enter_or_park(0, 0, 7), Some(0));
        // Too far ahead: parked instead of admitted.
        assert_eq!(frontiers.enter_or_park(0, 2, 7), None);
        assert_eq!(frontiers.enter_or_park(0, 1, 8), None);
        // The other shard's advance releases nobody.
        assert!(frontiers.advance(1, 5).is_empty());
        // Advancing shard 0 to one committed epoch admits only tenant 8.
        assert_eq!(frontiers.advance(0, 1), vec![8]);
        assert_eq!(frontiers.advance(0, 2), vec![7]);
        assert_eq!(frontiers.enter_or_park(0, 2, 7), Some(0));
    }

    #[test]
    fn owners_pop_the_newest_task_and_thieves_steal_the_oldest() {
        let queues = TaskQueues::new(2);
        for tenant in 1..=3 {
            queues.push(0, tenant);
        }
        assert_eq!(queues.steal_peer(), Some(1), "thieves take the old end");
        assert_eq!(queues.pop(0), Some(3), "the owner takes the new end");
        assert_eq!(queues.pop(0), Some(2));
        assert_eq!(queues.pop(0), None);
        assert_eq!(queues.steal_peer(), None);
        // Thieves scan the workers in order.
        queues.push(1, 9);
        queues.push(0, 8);
        assert_eq!(queues.steal_peer(), Some(8));
        assert_eq!(queues.steal_peer(), Some(9));
    }

    #[test]
    fn injector_refills_move_at_most_half_the_rest_capped_at_16() {
        // (queued, expected batch riding along with the returned task)
        for (queued, batch) in [(1, 0), (2, 1), (3, 1), (4, 2), (10, 5), (33, 16), (100, 16)] {
            let queues = TaskQueues::new(1);
            for tenant in 0..queued {
                queues.inject(tenant);
            }
            assert_eq!(queues.steal_batch(0), Some(0), "FIFO injector");
            let moved: Vec<usize> = std::iter::from_fn(|| queues.steal_peer()).collect();
            assert_eq!(moved, (1..=batch).collect::<Vec<_>>(), "{queued} queued");
            assert_eq!(
                TaskQueues::lock(&queues.injector).len(),
                queued - 1 - batch,
                "{queued} queued"
            );
        }
        assert_eq!(TaskQueues::new(1).steal_batch(0), None);
    }

    #[test]
    fn concurrent_stealing_loses_no_task() {
        let workers = 4;
        let total = 1000usize;
        let queues = TaskQueues::new(workers);
        for tenant in 0..total {
            queues.inject(tenant);
        }
        let start = std::sync::Barrier::new(workers);
        let mut got: Vec<usize> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..workers)
                .map(|worker| {
                    let (queues, start) = (&queues, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut taken = Vec::new();
                        loop {
                            let task = queues
                                .pop(worker)
                                .or_else(|| queues.steal_batch(worker))
                                .or_else(|| queues.steal_peer());
                            match task {
                                Some(tenant) => taken.push(tenant),
                                None if TaskQueues::lock(&queues.injector).is_empty() => break,
                                None => {}
                            }
                        }
                        taken
                    })
                })
                .collect();
            runs.into_iter()
                .flat_map(|run| run.join().expect("worker finished"))
                .collect()
        });
        got.sort_unstable();
        assert_eq!(got, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn doorbell_never_misses_a_ring() {
        let doorbell = Doorbell::default();
        let heard = doorbell.generation();
        doorbell.ring();
        // A ring after the snapshot makes the wait return immediately.
        doorbell.wait_beyond(heard);
        let heard = doorbell.generation();
        std::thread::scope(|scope| {
            let sleeper = scope.spawn(|| doorbell.wait_beyond(heard));
            doorbell.ring();
            sleeper.join().expect("sleeper woke");
        });
    }
}
