//! Cross-transport differential scenario fuzzer.
//!
//! The fleet has two commit transports — the lock-step BSP barrier and the
//! work-stealing pool — and the pool promises that at `staleness = 0` a run
//! is **bit-identical** to the barrier, for any thread count, on any
//! scenario. The only way to trust that promise is the Anvil discipline:
//! generate scenarios covering the whole configuration space (tenant counts,
//! family mixes, churn windows, TTLs, shard counts, snapshot warm-starts),
//! run every transport over each one, and check the invariant.
//!
//! The fuzzer here is seeded and deterministic (the same hand-rolled `cases`
//! harness as `tests/properties.rs`): every failure reproduces exactly from
//! its case index. `DEJAVU_PROPTEST_CASES` raises the per-property case
//! count — the nightly CI job runs it at 256.
//!
//! Invariants pinned, per fuzzed scenario:
//!
//! * **K = 0 bit-match.** BSP and `WorkStealing` at thread counts 1/2/4
//!   produce byte-identical reports — every per-tenant
//!   result, the hit-rate curve, and the shared repository's entry/anchor
//!   counts and statistics (hits, misses, insertions, **evictions** — the
//!   eviction equality is what pins the frontier-aware per-shard TTL sweep).
//! * **Thread-cap invariance.** The work-stealing caps are compared to each
//!   other, not just to BSP, so a cap-dependent divergence cannot hide
//!   behind a loose reference.
//! * **Staleness bound for K > 0.** View- and reuse-staleness histograms
//!   never exceed the bound, one view observation is recorded per
//!   tenant-epoch actually stepped, and the schedule-determined fields
//!   (admission epoch, active epochs, horizon, curve length) still match the
//!   barrier bit for bit even though `K > 0` results are allowed to drift.
//! * **Warm starts.** All of the above also holds when every transport
//!   resumes from the same snapshot of a seed fleet — including TTL expiry
//!   of seeded entries in shards the fuzzed tenants never touch, which only
//!   the per-shard sweep schedule keeps identical to the barrier's.
//! * **Observability is invisible.** Running any transport with the fleet
//!   flight recorder enabled produces the bit-identical report of the same
//!   run with the recorder disabled — the probes only ever write obs state —
//!   and the recorder's simulation-determined report subset is itself
//!   deterministic for a fixed seed.

use dejavu::fleet::{
    FleetConfig, FleetEngine, FleetReport, Scenario, ScenarioBuilder, SharedRepoConfig,
    SharedSignatureRepository, TransportConfig,
};
use dejavu::obs::Recorder;
use dejavu::simcore::SimDuration;
use std::cell::Cell;
use std::sync::Arc;

mod common;
use common::{assert_reports_bit_match, cases, fuzz_repo, fuzz_scenario, THREAD_CAPS};

fn run(scenario: &Scenario, repo: &SharedRepoConfig, transport: TransportConfig) -> FleetReport {
    FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            transport,
            ..Default::default()
        },
    )
    .run()
}

fn run_warm(
    scenario: &Scenario,
    repo: &SharedRepoConfig,
    transport: TransportConfig,
    snapshot: &str,
) -> FleetReport {
    let engine = FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            transport,
            ..Default::default()
        },
    );
    let (report, _) = engine.run_warm(snapshot).expect("fuzzer snapshot loads");
    report
}

/// The work-stealing pool at `staleness = 0` and at each thread count
/// produces the barrier's bit-identical run on every fuzzed scenario, and
/// the staleness telemetry agrees exactly.
fn assert_zero_staleness_family_matches(
    bsp: &FleetReport,
    scenario: &Scenario,
    repo: &SharedRepoConfig,
    runner: impl Fn(TransportConfig) -> FleetReport,
    label: &str,
) {
    let _ = (scenario, repo);
    let mut steal_runs = Vec::new();
    for threads in THREAD_CAPS {
        let steal = runner(TransportConfig::WorkStealing {
            threads,
            staleness: 0,
        });
        assert_reports_bit_match(bsp, &steal, &format!("{label} steal{threads}T"));
        assert_eq!(
            steal.transport.view_staleness.max(),
            0,
            "{label} steal{threads}T"
        );
        assert_eq!(
            steal.transport.view_staleness.total(),
            bsp.transport.view_staleness.total(),
            "{label} steal{threads}T telemetry totals"
        );
        steal_runs.push((threads, steal));
    }
    // Thread-cap invariance checked pairwise, not just against the (already
    // matching) reference — a cap-dependent divergence cannot hide.
    for window in steal_runs.windows(2) {
        let (ta, a) = &window[0];
        let (tb, b) = &window[1];
        assert_reports_bit_match(a, b, &format!("{label} steal {ta}T vs {tb}T"));
    }
}

#[test]
fn fuzzed_scenarios_bit_match_across_transports_at_zero_staleness() {
    cases(6, |rng, case| {
        let scenario = fuzz_scenario(rng, case);
        let repo = fuzz_repo(rng);
        let bsp = run(&scenario, &repo, TransportConfig::Bsp);
        assert_eq!(bsp.epochs, scenario.horizon_epochs(), "case {case}");
        assert_zero_staleness_family_matches(
            &bsp,
            &scenario,
            &repo,
            |transport| run(&scenario, &repo, transport),
            &format!("case {case}"),
        );
    });
}

#[test]
fn fuzzed_warm_starts_bit_match_across_transports_at_zero_staleness() {
    cases(4, |rng, case| {
        // A seed fleet tunes a repository (TTL always on, so seeded entries
        // age out *during* the warm run — including in shards the fuzzed
        // tenants never touch, whose sweeps only the per-shard frontier
        // schedule keeps on time); every transport then resumes from the
        // same snapshot.
        let seed_repo = SharedRepoConfig {
            shards: 1 + rng.uniform_usize(16),
            ttl: Some(SimDuration::from_hours(rng.uniform(20.0, 40.0))),
            ..Default::default()
        };
        let seed_scenario = ScenarioBuilder::new(format!("fuzz-seed-{case}"), 91 ^ case, 1)
            .tick(SimDuration::from_secs(900.0))
            .diurnal_fleet(2)
            .specweb_fleet(1)
            .build();
        let seeding = FleetEngine::new(
            seed_scenario,
            FleetConfig {
                repo: seed_repo.clone(),
                ..Default::default()
            },
        );
        let shared = Arc::new(SharedSignatureRepository::new(seed_repo.clone()));
        seeding.run_on(Arc::clone(&shared));
        let snapshot = shared.save_snapshot();

        let scenario = fuzz_scenario(rng, case);
        let bsp = run_warm(&scenario, &seed_repo, TransportConfig::Bsp, &snapshot);
        assert!(bsp.warm_start, "case {case}: seed fleet left no entries");
        assert_zero_staleness_family_matches(
            &bsp,
            &scenario,
            &seed_repo,
            |transport| run_warm(&scenario, &seed_repo, transport, &snapshot),
            &format!("warm case {case}"),
        );
    });
}

#[test]
fn staleness_bound_holds_and_schedule_fields_stay_deterministic_for_positive_k() {
    cases(4, |rng, case| {
        let scenario = fuzz_scenario(rng, case);
        let repo = fuzz_repo(rng);
        let k = 1 + rng.uniform_usize(3);
        let bsp = run(&scenario, &repo, TransportConfig::Bsp);
        let expected_views: u64 = bsp.tenants.iter().map(|t| t.active_epochs as u64).sum();
        for threads in [1, 2, 3] {
            let report = run(
                &scenario,
                &repo,
                TransportConfig::WorkStealing {
                    threads,
                    staleness: k,
                },
            );
            let label = format!("case {case} k={k} {}", report.transport.name);
            assert!(
                report.transport.view_staleness.max() <= k,
                "{label}: view staleness {} exceeded the bound",
                report.transport.view_staleness.max()
            );
            assert!(
                report.transport.reuse_staleness.max() <= k,
                "{label}: reuse staleness {} exceeded the bound",
                report.transport.reuse_staleness.max()
            );
            // K > 0 results may drift bitwise, but everything the epoch grid
            // determines — admission, retirement, horizon, telemetry volume —
            // must still match the barrier exactly.
            assert_eq!(report.epochs, bsp.epochs, "{label}: horizon");
            assert_eq!(
                report.hit_rate_curve.len(),
                bsp.epochs,
                "{label}: curve length"
            );
            assert_eq!(
                report.transport.view_staleness.total(),
                expected_views,
                "{label}: one view observation per stepped tenant-epoch"
            );
            for (x, y) in bsp.tenants.iter().zip(&report.tenants) {
                assert_eq!(x.joined_epoch, y.joined_epoch, "{label} {}", x.name);
                assert_eq!(x.active_epochs, y.active_epochs, "{label} {}", x.name);
            }
        }
    });
}

/// Regression pin for the frontier-aware TTL sweep: with per-shard commit
/// frontiers, a shard whose epoch batch commits ahead of the fleet must be
/// swept at **its own** epoch's timestamp. Were the sweep still fleet-wide
/// per whole epoch, a deferred-stale entry in a leading shard would survive
/// into that shard's next commit, where a buffered `RecordHit` would land on
/// it and diverge the hit/eviction statistics from the barrier's. The
/// scenarios here force the failure shape: a short TTL (entries expire
/// mid-run), skewed namespaces (a big diurnal family and a small SPECweb one
/// in different shards, so frontiers genuinely decouple), and churn.
#[test]
fn frontier_aware_ttl_sweep_cannot_resurrect_deferred_stale_entries() {
    cases(4, |rng, case| {
        let days = 2;
        let mut builder = ScenarioBuilder::new(format!("ttl-skew-{case}"), 7 ^ case, days)
            .tick(SimDuration::from_secs(900.0))
            .diurnal_fleet(3 + rng.uniform_usize(2))
            .specweb_fleet(1);
        if rng.uniform01() < 0.5 {
            builder = builder.stagger_arrivals(
                2,
                SimDuration::from_hours(4.0),
                SimDuration::from_hours(3.0),
            );
        }
        let scenario = builder.build();
        let repo = SharedRepoConfig {
            shards: 1 + rng.uniform_usize(16),
            ttl: Some(SimDuration::from_hours(rng.uniform(8.0, 16.0))),
            ..Default::default()
        };
        let bsp = run(&scenario, &repo, TransportConfig::Bsp);
        let evictions = bsp
            .shared_repo
            .as_ref()
            .expect("shared run")
            .stats
            .evictions;
        assert!(
            evictions > 0,
            "case {case}: the TTL never fired — the regression scenario is vacuous"
        );
        assert_zero_staleness_family_matches(
            &bsp,
            &scenario,
            &repo,
            |transport| run(&scenario, &repo, transport),
            &format!("ttl case {case}"),
        );
    });
}

/// Runs a fleet with the flight recorder explicitly enabled or disabled on
/// both the repository and the transport layer — the obs-invisibility
/// fuzzing hook.
fn run_with_obs(
    scenario: &Scenario,
    repo: &SharedRepoConfig,
    transport: TransportConfig,
    obs: bool,
) -> (FleetReport, Recorder) {
    let recorder = if obs {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let engine = FleetEngine::new(
        scenario.clone(),
        FleetConfig {
            repo: repo.clone(),
            transport,
            recorder: recorder.clone(),
            ..Default::default()
        },
    );
    let report = engine.run_on(Arc::new(
        SharedSignatureRepository::new(repo.clone()).with_recorder(recorder.clone()),
    ));
    (report, recorder)
}

/// The flight recorder never perturbs results: an obs-on run bit-matches the
/// obs-off barrier reference for both transports at `staleness = 0`, on
/// fuzzed scenarios, with the toggle itself randomized per family member so
/// both recorder paths keep getting exercised across the whole matrix.
#[test]
fn obs_recording_is_invisible_to_results_across_transports() {
    cases(4, |rng, case| {
        let scenario = fuzz_scenario(rng, case);
        let repo = fuzz_repo(rng);
        let bsp = run(&scenario, &repo, TransportConfig::Bsp);
        let (bsp_obs, recorder) = run_with_obs(&scenario, &repo, TransportConfig::Bsp, true);
        assert_reports_bit_match(&bsp, &bsp_obs, &format!("obs case {case} bsp"));
        let report = recorder.report().expect("enabled recorder reports");
        assert!(
            report.render().contains("epoch_commit"),
            "obs case {case}: the enabled recorder saw no epochs"
        );
        // Deterministically alternate the toggle across the family members
        // (steal at each thread count), seeded by the case index.
        let draws = Cell::new(0u64);
        assert_zero_staleness_family_matches(
            &bsp,
            &scenario,
            &repo,
            |transport| {
                let i = draws.get();
                draws.set(i + 1);
                run_with_obs(&scenario, &repo, transport, (case + i).is_multiple_of(2)).0
            },
            &format!("obs case {case}"),
        );
    });
}

/// The simulation-determined subset of the obs report (`render_stable`) is
/// bit-stable for a fixed seed under the BSP transport: two identical runs
/// render identical stable reports, and the report actually has content.
#[test]
fn obs_stable_report_is_deterministic_for_a_fixed_seed() {
    let scenario = ScenarioBuilder::new("obs-det", 11, 1)
        .tick(SimDuration::from_secs(900.0))
        .diurnal_fleet(3)
        .specweb_fleet(1)
        .build();
    let repo = SharedRepoConfig {
        ttl: Some(SimDuration::from_hours(12.0)),
        ..Default::default()
    };
    let render = || {
        let (_, recorder) = run_with_obs(&scenario, &repo, TransportConfig::Bsp, true);
        recorder
            .report()
            .expect("enabled recorder reports")
            .render_stable()
    };
    let first = render();
    let second = render();
    assert_eq!(first, second, "stable obs report drifted between runs");
    assert!(first.contains("epoch_commit"), "{first}");
    assert!(first.contains("tree_visits"), "{first}");
    assert!(first.contains("peek_ns"), "{first}");
}
