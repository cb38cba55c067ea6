//! The fleet engine: runs every tenant of a [`Scenario`] concurrently over
//! the shared simulated clock, with all DejaVu controllers reading and
//! writing one [`SharedSignatureRepository`].
//!
//! # Transports
//!
//! How tenant-buffered operations reach the shared store — and what
//! consistency tenants observe — is the job of the pluggable
//! [`crate::transport`] layer. The engine prepares tenants (admission
//! windows, clock offsets, outboxes), hands them to a
//! [`CommitTransport`], and turns the driven runs into a [`FleetReport`]:
//!
//! * [`TransportConfig::Bsp`] (default) — the lock-step epoch barrier.
//!   Tenants advance in epochs; at each barrier the transport drains the
//!   outboxes **in tenant order** and applies them, then runs TTL eviction.
//!   Mid-epoch the shared store never changes, so the fleet result is a pure
//!   function of the scenario — independent of thread count or OS scheduling.
//! * [`TransportConfig::WorkStealing`] — the asynchronous backend: a fixed
//!   pool of worker threads pulls per-epoch tenant tasks from a shared
//!   deque, and each tenant's view trails its shard's commit frontier by at
//!   most `K` epochs. `K = 0` bit-matches the barrier; `K > 0` trades
//!   bitwise result reproducibility for pipeline parallelism. Results are
//!   invariant to the thread count (fuzzed across scenarios in
//!   `tests/differential.rs`).
//!
//! # Elastic tenancy
//!
//! Tenants may join and leave mid-run ([`crate::TenantSpec::start`] /
//! [`crate::TenantSpec::stop`]). Admission and retirement happen **at epoch
//! boundaries only** — a joining tenant takes its first observation tick in
//! the epoch after the barrier at (or right after) its start time, and a
//! leaving tenant retires at the barrier ending the epoch that reaches its
//! stop time — so churn never perturbs the deterministic commit order. A
//! tenant's trace and local clock begin at its join barrier; because
//! admission is barrier-aligned, a tenant joining an otherwise quiescent
//! fleet behaves bit-identically to a tenant running alone against a
//! repository warm-started from a snapshot of that fleet (property-tested in
//! `tests/properties.rs`).
//!
//! # Warm starts
//!
//! [`FleetEngine::run_on`] runs the fleet against a caller-provided (e.g.
//! snapshot-loaded) repository, and the caller can persist the final state
//! with [`SharedSignatureRepository::save_snapshot`];
//! [`FleetEngine::run_warm`] wires both ends. A warm run **resumes the global
//! fleet clock at the snapshot's clock** (the seeding run's high-water mark),
//! so entry ages — and TTL expiry — carry over restarts rather than letting
//! arbitrarily old entries masquerade as fresh. [`FleetReport`] records
//! per-tenant epochs-to-first-fleet-reuse and the fleet-wide hit-rate curve,
//! which is how warm-start convergence is measured against cold starts.

use crate::faults::{FaultInjector, FaultSpec};
use crate::repo_client::RepositoryClient;
use crate::report::{FleetReport, SharedRepoSnapshot, TenantOutcome};
use crate::scenario::{EpochWindow, Scenario};
use crate::shared_repo::{SharedRepoConfig, SharedSignatureRepository};
use crate::snapshot::SnapshotError;
use crate::tenant_view::TenantRepoView;
use crate::transport::{CommitTransport, FleetHarness, RespawnFn, TenantRun, TransportConfig};
use dejavu_baselines::{FixedMax, RightScale, RightScaleConfig};
use dejavu_core::{DejaVuConfig, DejaVuController};
use dejavu_obs::{Event, Recorder};
use std::sync::Arc;

/// Whether tenants share one repository or each keep their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// All tenants read/write the fleet-shared repository.
    Shared,
    /// Every tenant keeps a private `SignatureRepository` (the ablation the
    /// fleet experiment compares against).
    Isolated,
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Repository sharing mode.
    pub sharing: SharingMode,
    /// Worker threads for the barrier transport and tenant finalization;
    /// 0 means "one per available core". The work-stealing transport sizes
    /// its pool from its own `threads` field.
    pub workers: usize,
    /// Shared-repository sharding/TTL configuration.
    pub repo: SharedRepoConfig,
    /// Learning-phase length handed to every tenant's DejaVu controller.
    pub learning_hours: u64,
    /// Also run the `FixedMax` and `RightScale` baselines for every tenant
    /// (for the fleet-wide cost comparison). Roughly triples the work.
    pub run_baselines: bool,
    /// The commit transport coordinating tenants and the shared store.
    pub transport: TransportConfig,
    /// The fleet flight recorder. Disabled by default — every probe folds to
    /// a null check, and an enabled recorder never feeds back into the
    /// simulation, so results are bit-identical either way. [`FleetEngine::run`]
    /// and [`FleetEngine::run_warm`] attach it to the repository they build;
    /// callers of [`FleetEngine::run_on`] attach a clone to their own
    /// repository via
    /// [`SharedSignatureRepository::with_recorder`] if they want store-level
    /// probes too (clones share storage).
    pub recorder: Recorder,
    /// Deterministic fault plan injected into the work-stealing transport
    /// (`None` — the default — injects nothing and costs nothing). Requires
    /// a shared-mode fleet on that transport; see
    /// [`TransportConfig::check_faults`].
    pub faults: Option<FaultSpec>,
    /// Delta-checkpoint chain compaction cadence for fault-injected (or
    /// checkpoint-profiled) runs: fold the chain every N checkpoints per
    /// shard. 0 (the default) retains the full chain.
    pub checkpoint_every: usize,
    /// Spill the delta chain to a durable on-disk checkpoint store at this
    /// directory (see `dejavu_fleet::durable`): every committer checkpoint
    /// is crash-safe on disk before the commit acknowledges, and the
    /// directory replays to the final repository state. `None` (the
    /// default) keeps checkpoints in memory. Requires a shared-mode fleet
    /// on the work-stealing transport with an in-process repository.
    pub checkpoint_dir: Option<String>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sharing: SharingMode::Shared,
            workers: 0,
            repo: SharedRepoConfig::default(),
            learning_hours: 24,
            run_baselines: false,
            transport: TransportConfig::Bsp,
            recorder: Recorder::disabled(),
            faults: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
        }
    }
}

/// Test seam: a hook that sabotages prepared tenant runs before the
/// transport drives them (e.g. poisoning an outbox to force a mid-epoch
/// panic). Production runs never install one.
type TamperFn = dyn Fn(&mut [TenantRun]);

/// Runs a whole fleet deterministically.
#[derive(Debug)]
pub struct FleetEngine {
    scenario: Scenario,
    config: FleetConfig,
}

impl FleetEngine {
    /// Creates an engine for `scenario` under `config`.
    pub fn new(scenario: Scenario, config: FleetConfig) -> Self {
        FleetEngine { scenario, config }
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    fn worker_count(&self, tenants: usize) -> usize {
        let configured = if self.config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.workers
        };
        configured.clamp(1, tenants.max(1))
    }

    /// Runs the fleet to completion against a fresh, cold repository.
    pub fn run(&self) -> FleetReport {
        self.run_on(Arc::new(
            SharedSignatureRepository::new(self.config.repo.clone())
                .with_recorder(self.config.recorder.clone()),
        ))
    }

    /// Loads `snapshot` (see [`crate::snapshot`]) and runs the fleet against
    /// the warm repository it describes. The snapshot's own configuration
    /// (sharding, TTL, tolerance) governs the repository, not
    /// [`FleetConfig::repo`]. Returns the report and the repository so the
    /// caller can persist the post-run state.
    pub fn run_warm(
        &self,
        snapshot: &str,
    ) -> Result<(FleetReport, Arc<SharedSignatureRepository>), SnapshotError> {
        let shared = Arc::new(
            SharedSignatureRepository::load_snapshot(snapshot)?
                .with_recorder(self.config.recorder.clone()),
        );
        self.config.recorder.event(|| Event::SnapshotLoad {
            bytes: snapshot.len() as u64,
        });
        let report = self.run_on(Arc::clone(&shared));
        Ok((report, shared))
    }

    /// Runs the fleet against a caller-provided repository (cold or
    /// snapshot-loaded) over the configured transport. Keep a clone of the
    /// `Arc` to call [`SharedSignatureRepository::save_snapshot`] afterwards.
    pub fn run_on(&self, shared: Arc<SharedSignatureRepository>) -> FleetReport {
        self.run_on_with(shared, self.config.transport.backend().as_ref())
    }

    /// Runs the fleet through any [`RepositoryClient`] — the entry point
    /// `dejavu-serve`'s wire client uses to drive a fleet against a
    /// repository living in another process. Works over every transport;
    /// fault injection and checkpointing need the in-process repository's
    /// snapshot/restore surface, so they stay inert here (crash recovery is
    /// the serving process's business, not its clients').
    pub fn run_on_client(&self, client: Arc<dyn RepositoryClient>) -> FleetReport {
        self.run_on_inner(client, None, self.config.transport.backend().as_ref(), None)
    }

    /// [`run_on`](Self::run_on) over an explicit transport — the extension
    /// point for consistency models beyond the built-in pair: implement
    /// [`CommitTransport`] and hand it in here.
    pub fn run_on_with(
        &self,
        shared: Arc<SharedSignatureRepository>,
        transport: &dyn CommitTransport,
    ) -> FleetReport {
        self.run_on_inner(Arc::clone(&shared) as _, Some(&shared), transport, None)
    }

    /// Test seam: runs the fleet but lets the caller tamper with the
    /// prepared tenant runs first (e.g. poison an outbox so a tenant panics
    /// mid-step — the fault the transports must survive by retiring the
    /// tenant instead of aborting the fleet).
    #[cfg(test)]
    pub(crate) fn run_tampered(
        &self,
        shared: Arc<SharedSignatureRepository>,
        transport: &dyn CommitTransport,
        tamper: &TamperFn,
    ) -> FleetReport {
        self.run_on_inner(
            Arc::clone(&shared) as _,
            Some(&shared),
            transport,
            Some(tamper),
        )
    }

    fn run_on_inner(
        &self,
        shared: Arc<dyn RepositoryClient>,
        concrete: Option<&Arc<SharedSignatureRepository>>,
        transport: &dyn CommitTransport,
        tamper: Option<&TamperFn>,
    ) -> FleetReport {
        let warm_start = !shared.is_empty();
        let epoch_secs = self.scenario.epoch.as_secs();
        // A warm-started fleet resumes the global clock where the snapshot
        // left it (the repository's high-water mark): entry ages, and with
        // them TTL expiry, carry over restarts instead of resetting to zero.
        // Cold repositories have a zero clock, so nothing changes for them.
        let origin_secs = shared.clock().as_secs();
        let windows = self.scenario.epoch_windows();
        let epochs = windows.iter().map(|w| w.end).max().unwrap_or(0);
        let shared_view = (self.config.sharing == SharingMode::Shared).then_some(&shared);
        let mut runs: Vec<TenantRun> = (0..self.scenario.tenants.len())
            .map(|index| self.build_run(index, windows[index], shared_view, origin_secs))
            .collect();
        if let Some(tamper) = tamper {
            tamper(&mut runs);
        }

        // The crash-recovery respawn hook: rebuilds tenant `index` from
        // scratch, reading through `repo` (the recovery replay clone).
        // Deterministic — the same spec, seed and clock offset as the
        // original build above — so replaying the same epochs reproduces the
        // pre-crash state bit for bit.
        let respawn_closure = |index: usize, repo: Arc<SharedSignatureRepository>| -> TenantRun {
            let replay: Arc<dyn RepositoryClient> = repo;
            self.build_run(index, windows[index], Some(&replay), origin_secs)
        };
        let respawn: Option<&RespawnFn<'_>> = match self.config.sharing {
            SharingMode::Shared => Some(&respawn_closure),
            SharingMode::Isolated => None,
        };

        let workers = self.worker_count(runs.len());
        let outcome = {
            let mut harness = FleetHarness {
                runs: &mut runs,
                shared: &shared,
                concrete,
                epochs,
                epoch_secs,
                origin_secs,
                workers,
                recorder: &self.config.recorder,
                faults: FaultInjector::from_spec(self.config.faults),
                checkpoint_every: self.config.checkpoint_every,
                checkpoint_dir: self.config.checkpoint_dir.as_deref(),
                respawn,
            };
            transport.drive(&mut harness)
        };
        let finalize_started = self.config.recorder.start();
        let tenants = self.finish(runs, &outcome.cross_tenant_hits, &outcome.failed);
        if let Some(started) = finalize_started {
            let elapsed = started.elapsed().as_nanos() as u64;
            self.config.recorder.with(|m| m.finalize_ns.set(elapsed));
        }

        let shared_repo =
            (self.config.sharing == SharingMode::Shared).then(|| SharedRepoSnapshot {
                entries: shared.len(),
                anchors: shared.anchor_count(),
                stats: shared.stats(),
                shard_stats: shared.shard_stats(),
            });

        FleetReport {
            scenario: self.scenario.name.clone(),
            sharing: self.config.sharing,
            epochs,
            warm_start,
            tenants,
            shared_repo,
            hit_rate_curve: outcome.hit_rate_curve,
            transport: outcome.summary,
            faults: outcome.faults,
        }
    }

    /// Builds one tenant's complete in-flight run — engine, DejaVu
    /// controller, baselines, tenancy window, repository view. Used both by
    /// the initial prepare pass and by crash recovery (which rebuilds a
    /// tenant against a private replay repository); everything here is a
    /// pure function of the scenario, `window` (the tenant's entry of
    /// [`Scenario::epoch_windows`], computed once per run by the caller) and
    /// `origin_secs`, so a rebuilt tenant replayed over the same epochs is
    /// bit-identical to the original.
    pub(crate) fn build_run(
        &self,
        index: usize,
        window: EpochWindow,
        shared: Option<&Arc<dyn RepositoryClient>>,
        origin_secs: f64,
    ) -> TenantRun {
        let epoch_secs = self.scenario.epoch.as_secs();
        let spec = &self.scenario.tenants[index];
        let engine = crate::engine::SimulationEngine::new(spec.run_config(self.scenario.tick));
        let namespace = spec.namespace();
        let space = engine.config().space.clone();
        let dv_config = DejaVuConfig::builder()
            .learning_hours(self.config.learning_hours)
            .seed(spec.seed)
            .build();
        let mut controller = DejaVuController::new(dv_config, spec.service.build(), space.clone())
            .with_name(format!("dejavu-{}", spec.name));
        let outbox = match shared {
            Some(shared) => {
                // The view maps this tenant's local clock onto the global
                // fleet clock (its join barrier), so shared-store
                // timestamps — and with them TTL staleness — stay
                // coherent across tenants that joined at different times.
                let (view, outbox) = TenantRepoView::new_with_offset(
                    Arc::clone(shared),
                    spec.id,
                    namespace,
                    dejavu_simcore::SimDuration::from_secs(
                        origin_secs + epoch_secs * window.start as f64,
                    ),
                );
                controller = controller.with_store(Box::new(view));
                Some(outbox)
            }
            None => None,
        };
        let state = engine.begin();
        let fixed = self
            .config
            .run_baselines
            .then(|| (FixedMax::new(&space), engine.begin()));
        let rightscale = self.config.run_baselines.then(|| {
            (
                RightScale::new(space.clone(), RightScaleConfig::default()),
                engine.begin(),
            )
        });
        TenantRun {
            engine,
            service: spec.service.build(),
            controller,
            state,
            fixed,
            rightscale,
            start_epoch: window.start,
            stop_epoch: window.stop,
            end_epoch: window.end,
            first_reuse_epoch: None,
            active_epochs: 0,
            retired: false,
            namespace,
            outbox,
        }
    }

    /// Finalizes every driven tenant run into its outcome record. On
    /// multi-worker configurations the per-tenant finalization (settling-time
    /// extraction, cost metering) fans out across worker threads; outcomes
    /// are reassembled **by tenant index**, so the report order — and every
    /// value in it — is identical to a serial finalization pass.
    fn finish(
        &self,
        runs: Vec<TenantRun>,
        cross_tenant_hits: &[u64],
        failed: &[Option<usize>],
    ) -> Vec<TenantOutcome> {
        let tenant_count = runs.len();
        let workers = self.worker_count(tenant_count);
        if workers <= 1 || tenant_count <= 1 {
            return runs
                .into_iter()
                .enumerate()
                .map(|(i, run)| self.finalize(i, run, cross_tenant_hits[i], failed[i]))
                .collect();
        }
        let chunk_size = tenant_count.div_ceil(workers);
        let mut rest: Vec<(usize, TenantRun)> = runs.into_iter().enumerate().collect();
        let mut chunks: Vec<Vec<(usize, TenantRun)>> = Vec::new();
        while !rest.is_empty() {
            let tail = rest.split_off(chunk_size.min(rest.len()));
            chunks.push(std::mem::replace(&mut rest, tail));
        }
        let finalized: Vec<Vec<(usize, TenantOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|(i, run)| {
                                (i, self.finalize(i, run, cross_tenant_hits[i], failed[i]))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("finalization worker panicked"))
                .collect()
        });
        let mut outcomes: Vec<Option<TenantOutcome>> = (0..tenant_count).map(|_| None).collect();
        for (i, outcome) in finalized.into_iter().flatten() {
            outcomes[i] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every tenant finalized"))
            .collect()
    }

    /// Turns a finished (or retired) tenant run into its outcome record.
    fn finalize(
        &self,
        index: usize,
        run: TenantRun,
        cross_tenant_hits: u64,
        failed_epoch: Option<usize>,
    ) -> TenantOutcome {
        let TenantRun {
            engine,
            controller,
            state,
            fixed,
            rightscale,
            start_epoch,
            first_reuse_epoch,
            active_epochs,
            ..
        } = run;
        let name = controller.name().to_string();
        let dejavu = engine.finish(state, &name);
        let fixed_max = fixed.map(|(c, s)| {
            let n = c.name().to_string();
            engine.finish(s, &n)
        });
        let rightscale = rightscale.map(|(c, s)| {
            let n = c.name().to_string();
            engine.finish(s, &n)
        });
        let spec = &self.scenario.tenants[index];
        TenantOutcome {
            id: spec.id,
            name: spec.name.clone(),
            namespace: spec.namespace(),
            stats: controller.stats().clone(),
            cross_tenant_hits,
            joined_epoch: start_epoch,
            active_epochs,
            first_fleet_reuse_epoch: first_reuse_epoch,
            failed_epoch,
            dejavu,
            fixed_max,
            rightscale,
        }
    }
}

// `ProvisioningController::name` is on the trait; bring the concrete baseline
// types' trait methods into scope for the `finish` calls above.
use dejavu_cloud::ProvisioningController;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use dejavu_simcore::SimDuration;

    fn tiny_scenario(n: usize) -> Scenario {
        ScenarioBuilder::new("tiny", 11, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(n)
            .build()
    }

    #[test]
    fn fleet_runs_are_deterministic_across_worker_counts() {
        // Workers pull tenants from a shared cursor, so which worker steps
        // which tenant varies from run to run; 50 tenants mix every family.
        // The output must not vary.
        let cases = [
            (tiny_scenario(4), &[4][..]),
            (crate::scenario::standard_fleet(50, 1, 5), &[2, 3][..]),
        ];
        for (scenario, worker_counts) in cases {
            let mk = |workers| {
                FleetEngine::new(
                    scenario.clone(),
                    FleetConfig {
                        workers,
                        ..Default::default()
                    },
                )
                .run()
            };
            let one = mk(1);
            assert!(one.total_fleet_reuses() > 0, "fleet reuse never fired");
            for &workers in worker_counts {
                let other = mk(workers);
                for (a, b) in one.tenants.iter().zip(&other.tenants) {
                    let label = format!("workers={workers} tenant {}", a.name);
                    assert_eq!(a.dejavu.total_cost, b.dejavu.total_cost, "{label}");
                    assert_eq!(
                        a.dejavu.slo_violation_fraction, b.dejavu.slo_violation_fraction,
                        "{label}"
                    );
                    assert_eq!(a.stats.tunings, b.stats.tunings, "{label}");
                    assert_eq!(a.cross_tenant_hits, b.cross_tenant_hits, "{label}");
                    assert_eq!(
                        a.dejavu.latency_ms.values(),
                        b.dejavu.latency_ms.values(),
                        "{label}"
                    );
                }
                assert_eq!(
                    one.hit_rate_curve, other.hit_rate_curve,
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn sharing_reduces_cold_start_tunings_and_lifts_hit_rate() {
        let shared = FleetEngine::new(tiny_scenario(6), FleetConfig::default()).run();
        let isolated = FleetEngine::new(
            tiny_scenario(6),
            FleetConfig {
                sharing: SharingMode::Isolated,
                ..Default::default()
            },
        )
        .run();
        assert!(shared.total_fleet_reuses() > 0, "fleet reuse never fired");
        assert!(
            shared.total_tunings() < isolated.total_tunings(),
            "sharing did not avoid tunings: {} vs {}",
            shared.total_tunings(),
            isolated.total_tunings()
        );
        assert!(
            shared.fleet_hit_rate() > isolated.fleet_hit_rate(),
            "sharing did not lift hit rate: {} vs {}",
            shared.fleet_hit_rate(),
            isolated.fleet_hit_rate()
        );
        let snapshot = shared.shared_repo.as_ref().expect("shared snapshot");
        assert!(snapshot.entries > 0);
        assert!(snapshot.stats.cross_tenant_hits > 0);
        assert!(isolated.shared_repo.is_none());
        assert!(!shared.warm_start);
        assert_eq!(shared.hit_rate_curve.len(), shared.epochs);
        assert_eq!(shared.transport.name, "bsp");
        // A barrier fleet's views are always perfectly fresh, and it records
        // one observation per tenant-epoch actually stepped.
        assert_eq!(shared.transport.view_staleness.max(), 0);
        assert_eq!(
            shared.transport.view_staleness.total(),
            (6 * shared.epochs) as u64
        );
    }

    #[test]
    fn baselines_ride_along_when_requested() {
        let report = FleetEngine::new(
            tiny_scenario(2),
            FleetConfig {
                run_baselines: true,
                ..Default::default()
            },
        )
        .run();
        for t in &report.tenants {
            let fixed = t.fixed_max.as_ref().expect("fixed baseline present");
            assert!(fixed.total_cost >= t.dejavu.total_cost * 0.5);
            assert!(t.rightscale.is_some());
        }
        assert!(report.total_fixed_max_cost().unwrap() > 0.0);
    }

    #[test]
    fn a_panicking_tenant_is_retired_and_the_rest_finish() {
        // Poisoning a tenant's outbox makes its first buffered publish panic
        // mid-step. Every transport must catch the unwind, retire just that
        // tenant (surfacing the epoch in the report), and let the survivors
        // run to completion. The 50-tenant case poisons a tenant deep in the
        // BSP step cursor, long after every worker has pulled its first one.
        for (tenants, poisoned) in [(3, 1), (50, 37)] {
            let poison = move |runs: &mut [TenantRun]| {
                let outbox =
                    Arc::clone(runs[poisoned].outbox.as_ref().expect("shared-mode outbox"));
                std::thread::spawn(move || {
                    let _guard = outbox.lock().unwrap();
                    panic!("poison tenant {poisoned}'s outbox");
                })
                .join()
                .unwrap_err();
            };
            for transport in [
                TransportConfig::Bsp,
                TransportConfig::WorkStealing {
                    threads: 1,
                    staleness: 1,
                },
                TransportConfig::WorkStealing {
                    threads: 2,
                    staleness: 0,
                },
            ] {
                let config = FleetConfig {
                    workers: 3,
                    ..Default::default()
                };
                let engine = FleetEngine::new(tiny_scenario(tenants), config);
                let shared = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
                let report = engine.run_tampered(shared, transport.backend().as_ref(), &poison);
                let label = format!("{transport:?} tenant {poisoned} of {tenants}");
                assert_eq!(report.tenants_failed(), 1, "{label}");
                assert!(
                    report.tenants[poisoned].failed_epoch.is_some(),
                    "{label}: the poisoned tenant never failed"
                );
                for (i, t) in report.tenants.iter().enumerate() {
                    if i == poisoned {
                        continue;
                    }
                    assert_eq!(t.failed_epoch, None, "{label}: tenant {i}");
                    assert!(
                        t.active_epochs == report.epochs,
                        "{label}: survivor {i} stepped {} of {} epochs",
                        t.active_epochs,
                        report.epochs
                    );
                }
                assert!(
                    report.render().contains("tenants failed"),
                    "{label}: report hides the failure"
                );
            }
        }
    }

    #[test]
    fn staggered_arrivals_and_departures_shape_the_run() {
        let scenario = ScenarioBuilder::new("churn", 5, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .stagger_arrivals(
                2,
                SimDuration::from_hours(6.0),
                SimDuration::from_hours(3.0),
            )
            .depart_at(0, SimDuration::from_hours(12.0))
            .build();
        let report = FleetEngine::new(scenario, FleetConfig::default()).run();
        // 2 days + the latest joiner's 9 h offset = 57 one-hour epochs.
        assert_eq!(report.epochs, 57);
        let t = &report.tenants;
        assert_eq!((t[0].joined_epoch, t[1].joined_epoch), (0, 0));
        assert_eq!((t[2].joined_epoch, t[3].joined_epoch), (6, 9));
        // The departing tenant simulated only 12 of its 48 hours.
        assert_eq!(t[0].active_epochs, 12);
        assert_eq!(t[0].dejavu.load.len(), 12 * 6);
        assert_eq!(t[1].active_epochs, 48);
        // Late joiners still complete their full trace, shifted.
        assert_eq!(t[3].active_epochs, 48);
        assert_eq!(t[3].dejavu.load.len(), 48 * 6);
    }

    #[test]
    fn late_joiner_entries_survive_ttl_sweeps_on_the_global_clock() {
        // Tenant 1 joins at hour 30 with a 24 h TTL in force. Its publishes
        // must carry *global* timestamps: were they tenant-local, the first
        // barrier sweep after its join (global hour 31+) would see them as
        // 30-hours-old and reap them on sight.
        let scenario = ScenarioBuilder::new("ttl-churn", 11, 1)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(2)
            .arrive_at(1, SimDuration::from_hours(30.0))
            .build();
        let engine = FleetEngine::new(
            scenario,
            FleetConfig {
                repo: SharedRepoConfig {
                    ttl: Some(SimDuration::from_hours(24.0)),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let repo = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
        engine.run_on(Arc::clone(&repo));
        let snapshot = repo.to_snapshot();
        let late_entries: Vec<_> = snapshot
            .namespaces
            .iter()
            .flat_map(|ns| &ns.entries)
            .filter(|e| e.owner == 1)
            .collect();
        assert!(
            !late_entries.is_empty(),
            "the late joiner's entries were swept away"
        );
        // Its timestamps are global: at or after its hour-30 join barrier.
        for e in &late_entries {
            assert!(
                e.tuned_at_secs >= 30.0 * 3600.0,
                "tenant-local timestamp {} leaked into the shared store",
                e.tuned_at_secs
            );
        }
        // The founder's day-one entries aged out under the same TTL.
        assert!(repo.stats().evictions > 0, "TTL never evicted anything");
    }

    #[test]
    fn warm_start_resumes_the_fleet_clock_so_ttls_span_restarts() {
        let ttl_config = || FleetConfig {
            repo: SharedRepoConfig {
                ttl: Some(SimDuration::from_hours(24.0)),
                ..Default::default()
            },
            ..Default::default()
        };
        // Seed fleet: 2 days with a 24 h TTL; its clock ends at hour 48.
        let seed = FleetEngine::new(tiny_scenario(3), ttl_config());
        let repo = Arc::new(SharedSignatureRepository::new(seed.config().repo.clone()));
        seed.run_on(Arc::clone(&repo));
        assert_eq!(repo.clock().as_secs(), 48.0 * 3600.0);
        let evictions_at_snapshot = repo.stats().evictions;
        let entries_at_snapshot = repo.len();
        assert!(entries_at_snapshot > 0, "seed fleet left no entries");
        let snapshot = repo.save_snapshot();

        // Warm run: its barrier sweeps continue at hour 49, 50, …, so the
        // seeded day-two entries age past the TTL *during* the warm run
        // instead of being treated as freshly tuned at warm hour zero.
        let newcomer = FleetEngine::new(tiny_scenario(1), ttl_config());
        let (_, warm_repo) = newcomer.run_warm(&snapshot).expect("snapshot loads");
        assert_eq!(warm_repo.clock().as_secs(), (48.0 + 48.0) * 3600.0);
        assert!(
            warm_repo.stats().evictions > evictions_at_snapshot,
            "seeded entries never aged out during the warm run ({} vs {})",
            warm_repo.stats().evictions,
            evictions_at_snapshot
        );
    }

    #[test]
    fn warm_start_round_trips_through_snapshots() {
        let seeding = FleetEngine::new(tiny_scenario(4), FleetConfig::default());
        let repo = Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default()));
        let cold = seeding.run_on(Arc::clone(&repo));
        assert!(!cold.warm_start);
        let snapshot = repo.save_snapshot();

        let newcomer = FleetEngine::new(tiny_scenario(1), FleetConfig::default());
        let (warm, warm_repo) = newcomer.run_warm(&snapshot).expect("snapshot loads");
        assert!(warm.warm_start);
        // The newcomer converges faster than a cold-started twin.
        let cold_single = newcomer.run();
        let warm_first = warm.tenants[0].first_fleet_reuse_epoch.expect("warm reuse");
        // When the cold twin never reused, warm is strictly better already.
        if let Some(cold_first) = cold_single.tenants[0].first_fleet_reuse_epoch {
            assert!(warm_first <= cold_first);
        }
        assert!(warm.total_fleet_reuses() > 0);
        // The repository kept evolving and can be persisted again.
        assert!(warm_repo.save_snapshot().len() >= snapshot.len());
    }

    #[test]
    fn work_stealing_zero_staleness_matches_the_barrier_at_any_thread_cap() {
        let bsp = FleetEngine::new(tiny_scenario(4), FleetConfig::default()).run();
        for threads in [1, 3, 8] {
            let steal = FleetEngine::new(
                tiny_scenario(4),
                FleetConfig {
                    transport: TransportConfig::WorkStealing {
                        threads,
                        staleness: 0,
                    },
                    ..Default::default()
                },
            )
            .run();
            assert_eq!(
                steal.transport.name,
                format!("steal(threads={threads},staleness=0)")
            );
            assert_eq!(
                steal.hit_rate_curve, bsp.hit_rate_curve,
                "{threads} threads"
            );
            for (a, b) in bsp.tenants.iter().zip(&steal.tenants) {
                assert_eq!(
                    a.dejavu.total_cost, b.dejavu.total_cost,
                    "{threads} threads"
                );
                assert_eq!(a.stats.tunings, b.stats.tunings, "{threads} threads");
                assert_eq!(
                    a.cross_tenant_hits, b.cross_tenant_hits,
                    "{threads} threads"
                );
            }
            assert_eq!(steal.transport.view_staleness.max(), 0);
        }
    }

    #[test]
    fn work_stealing_respects_its_bound_on_a_capped_pool() {
        let k = 2;
        let report = FleetEngine::new(
            tiny_scenario(5),
            FleetConfig {
                transport: TransportConfig::WorkStealing {
                    threads: 2,
                    staleness: k,
                },
                ..Default::default()
            },
        )
        .run();
        assert!(report.transport.view_staleness.max() <= k);
        assert_eq!(
            report.transport.view_staleness.total(),
            (5 * report.epochs) as u64
        );
        assert!(report.transport.reuse_staleness.max() <= k);
        assert_eq!(report.hit_rate_curve.len(), report.epochs);
        assert!(report.total_fleet_reuses() > 0);
    }
}
