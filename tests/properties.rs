//! Property-based tests over the core invariants, spanning crates.
//!
//! The properties are exercised with a small hand-rolled harness (`cases`)
//! driven by the workspace's own deterministic [`SimRng`] rather than an
//! external property-testing crate: the build is hermetic, and determinism
//! matters more here than shrinking — every failure reproduces exactly.

use dejavu::cloud::{AllocationSpace, CostMeter, ResourceAllocation};
use dejavu::core::{DejaVuConfig, DejaVuController};
use dejavu::fleet::{
    FleetConfig, FleetEngine, FleetReport, ResolveMemo, ScenarioBuilder, SharedRepoConfig,
    SharedSignatureRepository, SimulationEngine, TransportConfig,
};
use dejavu::metrics::WorkloadSignature;
use dejavu::ml::kmeans::{KMeans, KMeansConfig};
use dejavu::ml::Dataset;
use dejavu::services::service::EvalContext;
use dejavu::services::{CassandraService, ServiceModel};
use dejavu::simcore::{SimDuration, SimRng, SimTime};
use dejavu::traces::LoadTrace;

/// Runs `body` for `n` deterministic random cases, labelling failures with the
/// case index so they can be replayed. `DEJAVU_PROPTEST_CASES` (the
/// `PROPTEST_CASES` equivalent of this hand-rolled harness) overrides the
/// per-property default — the nightly CI job raises it.
fn cases(n: u64, mut body: impl FnMut(&mut SimRng, u64)) {
    let n = std::env::var("DEJAVU_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(n);
    for case in 0..n {
        let mut rng = SimRng::seed_from_u64(P_SEED ^ case);
        body(&mut rng, case);
    }
}

const P_SEED: u64 = 0x5EED_0F20_7E57_CA5E;

/// Signature normalization makes signatures invariant to how long the
/// profiler sampled.
#[test]
fn signature_is_sampling_duration_invariant() {
    cases(64, |rng, case| {
        let len = 1 + rng.uniform_usize(19);
        let values: Vec<f64> = (0..len).map(|_| rng.uniform(0.0, 10_000.0)).collect();
        let short = rng.uniform(1.0, 100.0);
        let factor = rng.uniform(1.1, 50.0);
        let names: Vec<String> = (0..len).map(|i| format!("m{i}")).collect();
        let long_values: Vec<f64> = values.iter().map(|v| v * factor).collect();
        let a = WorkloadSignature::from_raw(names.clone(), values, SimDuration::from_secs(short));
        let b =
            WorkloadSignature::from_raw(names, long_values, SimDuration::from_secs(short * factor));
        let tolerance = 1e-6 * (1.0 + a.values().iter().sum::<f64>().abs());
        assert!(
            a.distance(&b) < tolerance,
            "case {case}: distance {}",
            a.distance(&b)
        );
    });
}

/// The queueing model is monotone: more load never reduces latency, more
/// capacity never increases it.
#[test]
fn latency_is_monotone() {
    let svc = CassandraService::update_heavy();
    let ctx = |cap| EvalContext::steady(SimTime::ZERO, cap);
    cases(64, |rng, case| {
        let load_a = rng.uniform(0.05, 1.2);
        let load_b = rng.uniform(0.05, 1.2);
        let cap_a = rng.uniform(1.0, 12.0);
        let cap_b = rng.uniform(1.0, 12.0);
        let (lo_load, hi_load) = if load_a <= load_b {
            (load_a, load_b)
        } else {
            (load_b, load_a)
        };
        let (lo_cap, hi_cap) = if cap_a <= cap_b {
            (cap_a, cap_b)
        } else {
            (cap_b, cap_a)
        };
        assert!(
            svc.evaluate(hi_load, &ctx(5.0)).latency_ms
                >= svc.evaluate(lo_load, &ctx(5.0)).latency_ms - 1e-9,
            "case {case}: latency not monotone in load"
        );
        assert!(
            svc.evaluate(0.7, &ctx(lo_cap)).latency_ms
                >= svc.evaluate(0.7, &ctx(hi_cap)).latency_ms - 1e-9,
            "case {case}: latency not antitone in capacity"
        );
    });
}

/// Cost metering is additive over adjacent time windows.
#[test]
fn cost_meter_is_additive() {
    cases(64, |rng, case| {
        let n = 1 + rng.uniform_usize(7);
        let counts: Vec<u32> = (0..n).map(|_| 1 + rng.uniform_usize(9) as u32).collect();
        let split = rng.uniform(0.1, 0.9);
        let mut meter = CostMeter::new();
        for (i, &c) in counts.iter().enumerate() {
            meter.record(SimTime::from_hours(i as f64), ResourceAllocation::large(c));
        }
        let end = SimTime::from_hours(counts.len() as f64);
        let mid = SimTime::from_hours(counts.len() as f64 * split);
        let total = meter.cost_between(SimTime::ZERO, end);
        let parts = meter.cost_between(SimTime::ZERO, mid) + meter.cost_between(mid, end);
        assert!(
            (total - parts).abs() < 1e-9,
            "case {case}: {total} != {parts}"
        );
        assert!(total >= 0.0);
    });
}

/// The allocation space's cheapest_with_capacity always returns an allocation
/// that actually provides the requested capacity (or the maximum available).
#[test]
fn cheapest_with_capacity_is_sufficient() {
    let space = AllocationSpace::scale_out(1, 10).unwrap();
    cases(64, |rng, case| {
        let capacity = rng.uniform(0.0, 15.0);
        let chosen = space.cheapest_with_capacity(capacity);
        if capacity <= 10.0 {
            assert!(chosen.capacity_units() >= capacity - 1e-9, "case {case}");
        } else {
            assert_eq!(chosen, space.full_capacity(), "case {case}");
        }
    });
}

/// k-means assignments always point at the nearest centroid.
#[test]
fn kmeans_assignments_are_nearest() {
    cases(24, |rng, case| {
        let n = 8 + rng.uniform_usize(32);
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)))
            .collect();
        let k = (2 + rng.uniform_usize(3)).min(points.len());
        let mut data = Dataset::new(vec!["x".into(), "y".into()]);
        for (x, y) in &points {
            data.push_unlabeled(vec![*x, *y]);
        }
        let model = KMeans::fit(
            &data,
            &KMeansConfig {
                k,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        for (i, inst) in data.instances().iter().enumerate() {
            let assigned = model.assignments()[i];
            let d_assigned =
                dejavu::ml::dataset::distance(&inst.features, &model.centroids()[assigned]);
            for c in model.centroids() {
                assert!(
                    d_assigned <= dejavu::ml::dataset::distance(&inst.features, c) + 1e-9,
                    "case {case}: point {i} not assigned to nearest centroid"
                );
            }
        }
    });
}

/// Shard routing of the fleet-shared repository is stable: the same namespace
/// always lands in the same in-range shard, across repository instances.
#[test]
fn shared_repo_shard_routing_is_stable() {
    let a = SharedSignatureRepository::new(SharedRepoConfig::default());
    let b = SharedSignatureRepository::new(SharedRepoConfig::default());
    let mut populated = vec![false; a.shard_count()];
    cases(64, |rng, case| {
        for _ in 0..64 {
            let ns = rng.uniform01().to_bits();
            let shard = a.shard_index(ns);
            assert!(shard < a.shard_count(), "case {case}: shard out of range");
            assert_eq!(shard, a.shard_index(ns), "case {case}: routing not stable");
            assert_eq!(
                shard,
                b.shard_index(ns),
                "case {case}: routing differs per instance"
            );
            populated[shard] = true;
        }
    });
    assert!(
        populated.iter().all(|&p| p),
        "4096 random namespaces should touch every one of {} shards",
        a.shard_count()
    );
}

/// Concurrent inserts and lookups from many threads never lose entries: after
/// the threads join, every inserted signature is retrievable and the entry
/// count matches what was inserted.
#[test]
fn shared_repo_concurrent_inserts_lose_nothing() {
    let repo = SharedSignatureRepository::new(SharedRepoConfig {
        shards: 8,
        ..Default::default()
    });
    let threads = 8usize;
    let per_thread = 200usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let repo = &repo;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let ns = (t * per_thread + i) as u64;
                    // Signatures far apart so every insert is its own anchor.
                    let sig = [1000.0 * (i + 1) as f64, 10.0 * (t + 1) as f64];
                    repo.insert(
                        t,
                        ns,
                        &sig,
                        0,
                        ResourceAllocation::large(1 + (i % 9) as u32),
                        SimTime::ZERO,
                    );
                    // Interleave lookups of our own writes while others write.
                    assert!(repo.lookup(t, ns, &sig, 0, SimTime::ZERO).is_some());
                }
            });
        }
    });
    assert_eq!(repo.len(), threads * per_thread, "entries were lost");
    for t in 0..threads {
        for i in 0..per_thread {
            let ns = (t * per_thread + i) as u64;
            let sig = [1000.0 * (i + 1) as f64, 10.0 * (t + 1) as f64];
            let entry = repo
                .lookup(0, ns, &sig, 0, SimTime::ZERO)
                .unwrap_or_else(|| panic!("entry of thread {t} op {i} lost"));
            assert_eq!(
                entry.allocation,
                ResourceAllocation::large(1 + (i % 9) as u32)
            );
        }
    }
}

/// A single-tenant fleet bit-matches a stand-alone `SimulationEngine` run with
/// the same seed: the shared repository degenerates to the tenant's private
/// overlay, the epoch loop to plain sequential stepping.
#[test]
fn single_tenant_fleet_bit_matches_single_controller_run() {
    let scenario = ScenarioBuilder::new("solo", 21, 2)
        .tick(SimDuration::from_secs(300.0))
        .diurnal_fleet(1)
        .build();
    let spec = scenario.tenants[0].clone();

    // Stand-alone run, exactly as the classic experiments drive it.
    let engine = SimulationEngine::new(spec.run_config(scenario.tick));
    let service = CassandraService::update_heavy();
    let mut controller = DejaVuController::new(
        DejaVuConfig::builder()
            .learning_hours(24)
            .seed(spec.seed)
            .build(),
        Box::new(service),
        engine.config().space.clone(),
    );
    let solo = engine.run(&service, &mut controller);

    // The same tenant as a one-member fleet, shared repository enabled.
    let report = FleetEngine::new(scenario, FleetConfig::default()).run();
    let fleet = &report.tenants[0];

    assert_eq!(fleet.dejavu.load.values(), solo.load.values());
    assert_eq!(
        fleet.dejavu.instance_count.values(),
        solo.instance_count.values()
    );
    assert_eq!(fleet.dejavu.latency_ms.values(), solo.latency_ms.values());
    assert_eq!(fleet.dejavu.total_cost, solo.total_cost);
    assert_eq!(fleet.dejavu.reuse_cost, solo.reuse_cost);
    assert_eq!(
        fleet.dejavu.slo_violation_fraction,
        solo.slo_violation_fraction
    );
    assert_eq!(fleet.dejavu.adaptations.len(), solo.adaptations.len());
    assert_eq!(fleet.stats.tunings, controller.stats().tunings);
    assert_eq!(fleet.cross_tenant_hits, 0);
}

/// The indexed anchor resolution of the shared repository returns exactly
/// what a brute-force linear scan over all anchors would: the nearest anchor
/// within tolerance, ties broken toward the lowest anchor id. The reference
/// model below mirrors anchor accretion (a signature farther than the
/// tolerance from every anchor becomes a new anchor) with plain linear
/// scans, while the repository exercises its φ-space ball tree, linear tail
/// and early-exit distance over hundreds of anchors and rebuilds.
#[test]
fn indexed_anchor_resolution_matches_brute_force() {
    use dejavu::fleet::shared_repo::normalized_distance;

    struct RefModel {
        anchors: Vec<Vec<f64>>,
        tolerance: f64,
    }
    impl RefModel {
        fn resolve(&self, sig: &[f64]) -> Option<u32> {
            let mut best: Option<(u32, f64)> = None;
            for (id, anchor) in self.anchors.iter().enumerate() {
                let d = normalized_distance(anchor, sig);
                if d <= self.tolerance && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((id as u32, d));
                }
            }
            best.map(|(id, _)| id)
        }
        fn resolve_or_create(&mut self, sig: &[f64]) -> u32 {
            match self.resolve(sig) {
                Some(id) => id,
                None => {
                    self.anchors.push(sig.to_vec());
                    (self.anchors.len() - 1) as u32
                }
            }
        }
    }

    cases(12, |rng, case| {
        let tolerance = rng.uniform(0.02, 0.5);
        let dims = 1 + rng.uniform_usize(34);
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            match_tolerance: tolerance,
            ..Default::default()
        });
        let mut reference = RefModel {
            anchors: Vec::new(),
            tolerance,
        };
        let namespace = case;
        let sig = |rng: &mut SimRng| -> Vec<f64> {
            (0..dims)
                .map(|_| {
                    // Mixed magnitudes, signs and exact zeros stress the
                    // log-magnitude mapping underneath the index.
                    match rng.uniform_usize(8) {
                        0 => 0.0,
                        1 => -rng.uniform(0.0, 10.0),
                        2 => rng.uniform(0.0, 1e-8),
                        3 => rng.uniform(0.0, 1e6),
                        _ => rng.uniform(0.1, 100.0),
                    }
                })
                .collect()
        };
        let mut bases: Vec<Vec<f64>> = Vec::new();
        for step in 0..400 {
            // Mostly perturbations of earlier signatures (to land near
            // existing anchors and exercise tie-breaking in dense regions),
            // sometimes brand-new points.
            let q: Vec<f64> = if bases.is_empty() || rng.uniform_usize(4) == 0 {
                sig(rng)
            } else {
                let base = &bases[rng.uniform_usize(bases.len())];
                let scale = rng.uniform(0.0, 2.5 * tolerance);
                base.iter()
                    .map(|&v| v * (1.0 + rng.uniform(-scale, scale)))
                    .collect()
            };
            assert_eq!(
                repo.resolve_anchor(namespace, &q),
                reference.resolve(&q),
                "case {case} step {step}: indexed resolve diverged from brute force"
            );
            repo.insert(
                0,
                namespace,
                &q,
                0,
                ResourceAllocation::large(1),
                SimTime::ZERO,
            );
            reference.resolve_or_create(&q);
            assert_eq!(
                repo.anchor_count(),
                reference.anchors.len(),
                "case {case} step {step}: anchor accretion diverged"
            );
            bases.push(q);
        }
    });
}

/// Exact distance ties resolve toward the lowest anchor id through the index,
/// just as the brute-force scan's strict-`<` comparison does.
#[test]
fn anchor_resolution_ties_break_toward_lowest_id() {
    let repo = SharedSignatureRepository::new(SharedRepoConfig {
        match_tolerance: 0.4,
        ..Default::default()
    });
    // Anchors at [2.0] and [4.5]: the query [3.0] is exactly 1/3 away
    // (relative) from both — IEEE division rounds both quotients from the
    // same real value, so the distances are bit-equal.
    repo.insert(0, 1, &[2.0], 0, ResourceAllocation::large(1), SimTime::ZERO);
    repo.insert(7, 1, &[4.5], 0, ResourceAllocation::large(2), SimTime::ZERO);
    assert_eq!(repo.anchor_count(), 2, "anchors must not merge");
    assert_eq!(repo.resolve_anchor(1, &[3.0]), Some(0));
}

/// The read path is genuinely read-only: concurrent lookups and peeks from
/// many threads proceed under the shard read lock, and the relaxed-atomic
/// statistics lose no updates. (Before the read-only read path, every lookup
/// took the shard write lock and serialized all readers.)
#[test]
fn concurrent_lookups_and_peeks_lose_no_statistics() {
    let repo = SharedSignatureRepository::new(SharedRepoConfig::default());
    let sig = [100.0, 5.0, 0.3];
    repo.insert(0, 1, &sig, 0, ResourceAllocation::large(4), SimTime::ZERO);
    let threads = 8;
    let per_thread = 500;
    std::thread::scope(|scope| {
        for t in 1..=threads {
            let repo = &repo;
            let sig = &sig;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let hit = repo
                        .lookup(t, 1, sig, 0, SimTime::ZERO)
                        .expect("entry stays visible under concurrency");
                    assert!(hit.hits > 0);
                    // Peeks interleave with the lookups on the same shard;
                    // they must see the entry and move no statistics.
                    if i % 3 == 0 {
                        assert!(repo.peek(1, sig, 0, SimTime::ZERO, Some(99)).is_some());
                    }
                }
            });
        }
    });
    let stats = repo.stats();
    let expected = (threads * per_thread) as u64;
    assert_eq!(stats.hits, expected, "relaxed counters must not lose hits");
    assert_eq!(stats.cross_tenant_hits, expected);
    assert_eq!(stats.misses, 0);
}

/// Snapshot round-trip: after an arbitrary operation sequence, saving and
/// loading the shared repository yields a repository that behaves **bit
/// identically** — every subsequent resolve/lookup/insert/eviction produces
/// the same results and statistics on both, and after those subsequent
/// operations the two repositories still serialize to byte-identical
/// snapshots.
#[test]
fn shared_repo_snapshot_round_trip_is_bit_identical() {
    use dejavu::fleet::SharedRepoConfig;

    cases(16, |rng, case| {
        let ttl = if rng.uniform01() < 0.5 {
            Some(SimDuration::from_hours(rng.uniform(12.0, 72.0)))
        } else {
            None
        };
        let tolerance = rng.uniform(0.05, 0.3);
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(16),
            ttl,
            match_tolerance: tolerance,
        });
        let dims = 2 + rng.uniform_usize(6);
        let mut bases: Vec<Vec<f64>> = Vec::new();
        let mut op = |rng: &mut SimRng,
                      repo: &SharedSignatureRepository,
                      probe_twin: Option<&SharedSignatureRepository>| {
            let sig: Vec<f64> = if bases.is_empty() || rng.uniform_usize(3) == 0 {
                (0..dims).map(|_| rng.uniform(0.1, 1e4)).collect()
            } else {
                let base = &bases[rng.uniform_usize(bases.len())];
                let scale = rng.uniform(0.0, 2.0 * tolerance);
                base.iter()
                    .map(|&v| v * (1.0 + rng.uniform(-scale, scale)))
                    .collect()
            };
            bases.push(sig.clone());
            let ns = rng.uniform_usize(5) as u64;
            let bucket = rng.uniform_usize(3) as u32;
            let tenant = rng.uniform_usize(4);
            let now = SimTime::from_hours(rng.uniform(0.0, 96.0));
            match rng.uniform_usize(4) {
                0 => {
                    let alloc = ResourceAllocation::large(1 + rng.uniform_usize(9) as u32);
                    repo.insert(tenant, ns, &sig, bucket, alloc, now);
                    if let Some(twin) = probe_twin {
                        twin.insert(tenant, ns, &sig, bucket, alloc, now);
                    }
                }
                1 => {
                    let got = repo.lookup(tenant, ns, &sig, bucket, now);
                    if let Some(twin) = probe_twin {
                        assert_eq!(got, twin.lookup(tenant, ns, &sig, bucket, now));
                    }
                }
                2 => {
                    let got = repo.peek(ns, &sig, bucket, now, Some(tenant));
                    if let Some(twin) = probe_twin {
                        assert_eq!(got, twin.peek(ns, &sig, bucket, now, Some(tenant)));
                    }
                }
                _ => {
                    let got = repo.resolve_anchor(ns, &sig);
                    if let Some(twin) = probe_twin {
                        assert_eq!(got, twin.resolve_anchor(ns, &sig));
                    }
                }
            }
        };
        for _ in 0..120 {
            op(rng, &repo, None);
        }
        let text = repo.save_snapshot();
        let loaded = SharedSignatureRepository::load_snapshot(&text)
            .unwrap_or_else(|e| panic!("case {case}: snapshot failed to load: {e}"));
        assert_eq!(loaded.save_snapshot(), text, "case {case}: re-save differs");
        assert_eq!(loaded.stats(), repo.stats(), "case {case}");
        assert_eq!(loaded.shard_stats(), repo.shard_stats(), "case {case}");
        // All subsequent operations behave identically on both repositories…
        for _ in 0..80 {
            op(rng, &repo, Some(&loaded));
        }
        let sweep_at = SimTime::from_hours(rng.uniform(0.0, 120.0));
        assert_eq!(
            repo.evict_stale(sweep_at),
            loaded.evict_stale(sweep_at),
            "case {case}: TTL sweeps diverged"
        );
        assert_eq!(loaded.stats(), repo.stats(), "case {case}: stats diverged");
        // …and the evolved repositories still serialize identically.
        assert_eq!(
            loaded.save_snapshot(),
            repo.save_snapshot(),
            "case {case}: snapshots diverged after subsequent ops"
        );
    });
}

/// Snapshot **error paths** return the right typed error on arbitrary
/// repositories — not just the hand-written samples in `snapshot.rs`'s unit
/// tests. For every randomly built repository the property corrupts the
/// serialized text four ways and checks the decoder's verdict:
///
/// * **Truncation** (dropping a random number of trailing lines, losing the
///   `end` terminator) → `SnapshotError::Inconsistent` naming truncation;
/// * **A wrong version line** → `SnapshotError::Version` carrying what was
///   found;
/// * **A shard-bound violation** (`config shards=` beyond `MAX_SHARDS`) →
///   `SnapshotError::Inconsistent` naming the shard count;
/// * **A corrupted IEEE hex float** (a random `fb…` token mangled) →
///   `SnapshotError::Format` pointing at the exact line.
#[test]
fn snapshot_error_paths_return_typed_errors() {
    use dejavu::fleet::snapshot::{decode, SnapshotError, MAX_SHARDS};

    cases(16, |rng, case| {
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ttl: (rng.uniform01() < 0.5).then(|| SimDuration::from_hours(24.0)),
            match_tolerance: 0.1,
        });
        let n = 1 + rng.uniform_usize(20);
        for i in 0..n {
            let sig = vec![1000.0 * 1.5f64.powi(i as i32), rng.uniform(0.1, 1e4)];
            repo.insert(
                i % 3,
                rng.uniform_usize(4) as u64,
                &sig,
                (i % 2) as u32,
                ResourceAllocation::large(1 + (i % 9) as u32),
                SimTime::from_hours(rng.uniform(0.0, 48.0)),
            );
        }
        let text = repo.save_snapshot();
        let lines: Vec<&str> = text.lines().collect();

        // Truncation: drop 1..n trailing lines (always at least the `end`
        // terminator), keeping the version and config lines intact.
        let keep = 2 + rng.uniform_usize(lines.len() - 2);
        let truncated: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        match decode(&truncated) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("truncated"), "case {case}: {message}");
            }
            other => panic!("case {case}: truncation decoded to {other:?}"),
        }

        // Wrong version line: the error carries what was actually found.
        let mangled_version = format!(
            "dejavu-fleet-snapshot v999\n{}",
            &text[lines[0].len() + 1..]
        );
        match decode(&mangled_version) {
            Err(SnapshotError::Version { found }) => {
                assert_eq!(found, "dejavu-fleet-snapshot v999", "case {case}");
            }
            other => panic!("case {case}: version mismatch decoded to {other:?}"),
        }

        // Shard-bound violation: a huge `config shards=` is rejected before
        // any allocation, as an inconsistency naming the count.
        let bound = MAX_SHARDS + 1 + rng.uniform_usize(1000);
        let shard_bomb = text.replacen(
            &format!("config shards={}", repo.shard_count()),
            &format!("config shards={bound}"),
            1,
        );
        match decode(&shard_bomb) {
            Err(SnapshotError::Inconsistent { message }) => {
                assert!(message.contains("shard count"), "case {case}: {message}");
            }
            other => panic!("case {case}: shard bomb decoded to {other:?}"),
        }

        // Corrupted IEEE hex float: pick a random data line holding an
        // `fb<16 hex>` token and mangle the token; the error is a Format
        // error pointing at exactly that line.
        let float_lines: Vec<usize> = lines
            .iter()
            .enumerate()
            .skip(2) // leave the config line to the dedicated checks above
            .filter(|(_, l)| l.split_whitespace().any(|tok| tok.starts_with("fb")))
            .map(|(i, _)| i)
            .collect();
        if let Some(&line_idx) = float_lines.get(rng.uniform_usize(float_lines.len().max(1))) {
            let victim = lines[line_idx];
            let token = victim
                .split_whitespace()
                .find(|tok| tok.starts_with("fb") && tok.len() == 18)
                .expect("a float token on the chosen line");
            let corrupted_line = match rng.uniform_usize(3) {
                0 => victim.replacen(token, "fbZZ", 1), // bad length + bad hex
                1 => victim.replacen(token, &token[..17], 1), // 15 hex digits
                _ => victim.replacen(token, &format!("fbx{}", &token[3..]), 1), // non-hex
            };
            let corrupted: String = lines
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    if i == line_idx {
                        format!("{corrupted_line}\n")
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            match decode(&corrupted) {
                Err(SnapshotError::Format { line, message }) => {
                    assert_eq!(line, line_idx + 1, "case {case}: wrong line in {message}");
                    assert!(
                        message.contains("fb<16 hex digits>"),
                        "case {case}: {message}"
                    );
                }
                other => panic!("case {case}: corrupted float decoded to {other:?}"),
            }
        }

        // The untouched text still decodes — the corruptions above, not some
        // latent strictness, produced the errors.
        assert!(decode(&text).is_ok(), "case {case}");
    });
}

/// Elastic-tenancy determinism: a scenario with staggered joins and mid-run
/// departures is bit-identical across 1, 2 and 8 worker threads.
#[test]
fn churn_scenarios_are_deterministic_across_worker_counts() {
    let scenario = || {
        ScenarioBuilder::new("churn-prop", 17, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(5)
            .stagger_arrivals(
                3,
                SimDuration::from_hours(5.0),
                SimDuration::from_hours(2.0),
            )
            .depart_at(1, SimDuration::from_hours(13.0))
            .build()
    };
    let run = |workers| {
        FleetEngine::new(
            scenario(),
            FleetConfig {
                workers,
                ..Default::default()
            },
        )
        .run()
    };
    let one = run(1);
    for workers in [2, 8] {
        let other = run(workers);
        assert_eq!(one.epochs, other.epochs);
        assert_eq!(
            one.hit_rate_curve, other.hit_rate_curve,
            "{workers} workers"
        );
        for (a, b) in one.tenants.iter().zip(&other.tenants) {
            assert_eq!(a.joined_epoch, b.joined_epoch, "{workers} workers");
            assert_eq!(a.active_epochs, b.active_epochs, "{workers} workers");
            assert_eq!(
                a.first_fleet_reuse_epoch, b.first_fleet_reuse_epoch,
                "{workers} workers"
            );
            assert_eq!(
                a.dejavu.total_cost, b.dejavu.total_cost,
                "{workers} workers"
            );
            assert_eq!(a.dejavu.latency_ms.values(), b.dejavu.latency_ms.values());
            assert_eq!(a.stats.tunings, b.stats.tunings);
            assert_eq!(a.cross_tenant_hits, b.cross_tenant_hits);
        }
    }
}

/// A tenant that joins a fleet whose other members have already retired
/// behaves bit-identically to a fresh tenant running alone against a
/// repository warm-started from a snapshot of that fleet: admission is
/// epoch-barrier-aligned and tenant clocks are local, so the late joiner sees
/// exactly the snapshot state.
#[test]
fn rejoining_tenant_matches_fresh_tenant_warm_started_from_snapshot() {
    use std::sync::Arc;

    for seed in [21u64, 33] {
        // Fleet F: tenants 0–2 run day one (tenant 0 departs early at 12 h);
        // tenant 3 "rejoins" at hour 24, once everyone else is gone.
        let full = ScenarioBuilder::new("rejoin", seed, 1)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .depart_at(0, SimDuration::from_hours(12.0))
            .arrive_at(3, SimDuration::from_hours(24.0))
            .build();
        let full_report = FleetEngine::new(full.clone(), FleetConfig::default()).run();

        // Prefix fleet G: the same first day without tenant 3; snapshot it.
        let mut prefix = ScenarioBuilder::new("rejoin", seed, 1)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .depart_at(0, SimDuration::from_hours(12.0))
            .build();
        prefix.tenants.truncate(3);
        let engine = FleetEngine::new(prefix, FleetConfig::default());
        let repo = Arc::new(SharedSignatureRepository::new(SharedRepoConfig::default()));
        engine.run_on(Arc::clone(&repo));
        let snapshot = repo.save_snapshot();

        // Warm fleet H: tenant 3 alone (same spec, immediate start) against
        // the loaded snapshot.
        let mut solo = full.clone();
        solo.tenants = vec![{
            let mut spec = full.tenants[3].clone();
            spec.start = SimDuration::from_secs(0.0);
            spec
        }];
        let (warm_report, _) = FleetEngine::new(solo, FleetConfig::default())
            .run_warm(&snapshot)
            .expect("snapshot loads");

        let rejoined = &full_report.tenants[3];
        let fresh = &warm_report.tenants[0];
        assert_eq!(
            rejoined.dejavu.total_cost, fresh.dejavu.total_cost,
            "seed {seed}"
        );
        assert_eq!(
            rejoined.dejavu.latency_ms.values(),
            fresh.dejavu.latency_ms.values(),
            "seed {seed}"
        );
        assert_eq!(
            rejoined.dejavu.instance_count.values(),
            fresh.dejavu.instance_count.values(),
            "seed {seed}"
        );
        assert_eq!(rejoined.stats.tunings, fresh.stats.tunings, "seed {seed}");
        assert_eq!(
            rejoined.stats.fleet_reuses, fresh.stats.fleet_reuses,
            "seed {seed}"
        );
        assert_eq!(
            rejoined.first_fleet_reuse_epoch, fresh.first_fleet_reuse_epoch,
            "seed {seed}"
        );
        assert_eq!(
            rejoined.cross_tenant_hits, fresh.cross_tenant_hits,
            "seed {seed}"
        );
    }
}

/// The TTL sweep reclaims exactly the entries that lookups and peeks deferred
/// as stale (the PR 2 read-only read path defers eviction to the sweep), and
/// every counter stays consistent: misses accrue at lookup time, evictions
/// only at sweep time.
#[test]
fn ttl_sweep_reclaims_deferred_stale_entries_with_consistent_counters() {
    use dejavu::fleet::SharedRepoConfig;

    cases(32, |rng, case| {
        let ttl_hours = rng.uniform(6.0, 48.0);
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ttl: Some(SimDuration::from_hours(ttl_hours)),
            ..Default::default()
        });
        let n = 1 + rng.uniform_usize(40);
        let mut tuned: Vec<(u64, Vec<f64>, SimTime)> = Vec::new();
        for i in 0..n {
            // One namespace per entry keeps the reference model trivial.
            let sig = vec![100.0 + i as f64, 55.0];
            let at = SimTime::from_hours(rng.uniform(0.0, 72.0));
            repo.insert(0, i as u64, &sig, 0, ResourceAllocation::large(2), at);
            tuned.push((i as u64, sig, at));
        }
        let now = SimTime::from_hours(rng.uniform(0.0, 120.0));
        let stale = |at: SimTime| now.saturating_since(at).as_secs() > ttl_hours * 3600.0;
        let expected_stale = tuned.iter().filter(|(_, _, at)| stale(*at)).count() as u64;

        // Lookups and peeks defer staleness: they miss but evict nothing.
        for (ns, sig, at) in &tuned {
            let hit = repo.lookup(1, *ns, sig, 0, now);
            assert_eq!(hit.is_none(), stale(*at), "case {case} ns {ns}");
            assert_eq!(
                repo.peek(*ns, sig, 0, now, None).is_none(),
                stale(*at),
                "case {case} ns {ns}"
            );
        }
        assert_eq!(repo.len(), n, "case {case}: lookups must not evict");
        let stats = repo.stats();
        assert_eq!(stats.misses, expected_stale, "case {case}");
        assert_eq!(stats.hits, n as u64 - expected_stale, "case {case}");
        assert_eq!(stats.evictions, 0, "case {case}");

        // The sweep reclaims exactly the deferred entries.
        assert_eq!(repo.evict_stale(now), expected_stale, "case {case}");
        assert_eq!(repo.len(), n - expected_stale as usize, "case {case}");
        let stats = repo.stats();
        assert_eq!(stats.evictions, expected_stale, "case {case}");
        assert_eq!(
            stats.misses, expected_stale,
            "case {case}: the sweep must not count misses"
        );
        // Evicted entries are really gone; fresh ones still hit.
        for (ns, sig, at) in &tuned {
            assert_eq!(
                repo.lookup(1, *ns, sig, 0, now).is_none(),
                stale(*at),
                "case {case} ns {ns} after sweep"
            );
        }
        // A second sweep at the same time is a no-op.
        assert_eq!(repo.evict_stale(now), 0, "case {case}");
    });
}

/// Asserts that two fleet reports describe bit-identical runs: every
/// per-tenant result, the convergence bookkeeping and the hit-rate curve.
fn assert_reports_bit_match(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_eq!(a.epochs, b.epochs, "{label}: epochs");
    assert_eq!(a.hit_rate_curve, b.hit_rate_curve, "{label}: curve");
    assert_eq!(a.tenants.len(), b.tenants.len(), "{label}: tenant count");
    for (x, y) in a.tenants.iter().zip(&b.tenants) {
        let t = &x.name;
        assert_eq!(x.dejavu.total_cost, y.dejavu.total_cost, "{label} {t}");
        assert_eq!(x.dejavu.reuse_cost, y.dejavu.reuse_cost, "{label} {t}");
        assert_eq!(
            x.dejavu.slo_violation_fraction, y.dejavu.slo_violation_fraction,
            "{label} {t}"
        );
        assert_eq!(
            x.dejavu.latency_ms.values(),
            y.dejavu.latency_ms.values(),
            "{label} {t}"
        );
        assert_eq!(
            x.dejavu.instance_count.values(),
            y.dejavu.instance_count.values(),
            "{label} {t}"
        );
        assert_eq!(x.stats.tunings, y.stats.tunings, "{label} {t}");
        assert_eq!(x.stats.fleet_reuses, y.stats.fleet_reuses, "{label} {t}");
        assert_eq!(
            x.stats.repository.hits, y.stats.repository.hits,
            "{label} {t}"
        );
        assert_eq!(
            x.stats.repository.misses, y.stats.repository.misses,
            "{label} {t}"
        );
        assert_eq!(x.cross_tenant_hits, y.cross_tenant_hits, "{label} {t}");
        assert_eq!(x.joined_epoch, y.joined_epoch, "{label} {t}");
        assert_eq!(x.active_epochs, y.active_epochs, "{label} {t}");
        assert_eq!(
            x.first_fleet_reuse_epoch, y.first_fleet_reuse_epoch,
            "{label} {t}"
        );
    }
    let (ra, rb) = (a.shared_repo.as_ref(), b.shared_repo.as_ref());
    assert_eq!(ra.is_some(), rb.is_some(), "{label}: repo snapshot");
    if let (Some(ra), Some(rb)) = (ra, rb) {
        assert_eq!(ra.entries, rb.entries, "{label}: repo entries");
        assert_eq!(ra.anchors, rb.anchors, "{label}: repo anchors");
        assert_eq!(ra.stats, rb.stats, "{label}: repo stats");
        assert_eq!(ra.shard_stats, rb.shard_stats, "{label}: shard stats");
    }
}

/// The churn scenario both transport properties run: staggered joiners, a
/// mid-run departure, mixed service families.
fn transport_scenario(seed: u64) -> dejavu::fleet::Scenario {
    ScenarioBuilder::new("transport-prop", seed, 2)
        .tick(SimDuration::from_secs(600.0))
        .diurnal_fleet(4)
        .sine_sweep(2)
        .stagger_arrivals(
            4,
            SimDuration::from_hours(6.0),
            SimDuration::from_hours(4.0),
        )
        .depart_at(1, SimDuration::from_hours(20.0))
        .build()
}

/// `WorkStealing` at staleness 0 bit-matches the BSP barrier: with a zero
/// bound no tenant may enter an epoch before every prior epoch is fully
/// committed, so the store is frozen whenever anyone reads it — exactly the
/// barrier's schedule, modulo which threads execute it.
#[test]
fn work_stealing_zero_bit_matches_the_bsp_barrier() {
    for seed in [13u64, 29] {
        let run = |transport| {
            FleetEngine::new(
                transport_scenario(seed),
                FleetConfig {
                    transport,
                    ..Default::default()
                },
            )
            .run()
        };
        let bsp = run(TransportConfig::Bsp);
        let steal0 = run(TransportConfig::WorkStealing {
            threads: 2,
            staleness: 0,
        });
        assert_reports_bit_match(&bsp, &steal0, &format!("seed {seed}"));
        // The zero-bound schedule also never observed a stale view.
        assert_eq!(steal0.transport.view_staleness.max(), 0, "seed {seed}");
        assert_eq!(
            steal0.transport.view_staleness.total(),
            bsp.transport.view_staleness.total(),
            "seed {seed}"
        );
    }
}

/// `WorkStealing` at staleness `K` never serves a view staler than `K`
/// epochs: the observed-staleness histogram (one observation per
/// tenant-epoch, recorded when the tenant enters the epoch) never exceeds
/// the bound, and neither does the staleness of any view that produced a
/// committed reuse.
#[test]
fn work_stealing_never_exceeds_its_staleness_bound() {
    for k in [0usize, 1, 3] {
        let report = FleetEngine::new(
            transport_scenario(13),
            FleetConfig {
                transport: TransportConfig::WorkStealing {
                    threads: 2,
                    staleness: k,
                },
                ..Default::default()
            },
        )
        .run();
        assert!(
            report.transport.view_staleness.max() <= k,
            "k = {k}: view staleness {} exceeded the bound",
            report.transport.view_staleness.max()
        );
        assert!(
            report.transport.reuse_staleness.max() <= k,
            "k = {k}: reuse staleness {} exceeded the bound",
            report.transport.reuse_staleness.max()
        );
        // One observation per tenant-epoch actually stepped: every tenant
        // covers its whole window (tenant 1 departs at hour 20).
        let expected: u64 = report.tenants.iter().map(|t| t.active_epochs as u64).sum();
        assert_eq!(report.transport.view_staleness.total(), expected, "k = {k}");
        // The run still produces a working fleet.
        assert!(report.total_fleet_reuses() > 0, "k = {k}");
        assert_eq!(report.hit_rate_curve.len(), report.epochs, "k = {k}");
    }
}

/// The BSP backend's fleet output is pinned to the pre-transport engine
/// (PR 3): these constants were produced by the epoch-barrier loop before
/// the commit path moved into `dejavu_fleet::transport`, so any behavioural
/// drift in the refactored barrier — stepping, commit order, sweep timing,
/// bookkeeping — fails this test. The integer bookkeeping (tunings, reuses,
/// hits, windows, repository stats) is pinned everywhere; the exact f64 bit
/// patterns flow through platform-`libm` transcendentals (`sin`/`ln`/`exp`
/// in the trace, RNG and service models) and so are pinned only on the
/// platform that recorded them — elsewhere a last-ulp `libm` difference
/// would fail them without any behavioural change.
#[test]
fn bsp_fleet_output_is_byte_identical_to_the_pre_transport_engine() {
    let report = FleetEngine::new(
        ScenarioBuilder::new("golden", 13, 2)
            .tick(SimDuration::from_secs(600.0))
            .diurnal_fleet(4)
            .sine_sweep(2)
            .stagger_arrivals(
                4,
                SimDuration::from_hours(6.0),
                SimDuration::from_hours(4.0),
            )
            .depart_at(1, SimDuration::from_hours(20.0))
            .build(),
        FleetConfig::default(),
    )
    .run();
    assert_eq!(report.epochs, 58);
    struct GoldenTenant {
        cost_bits: u64,
        slo_bits: u64,
        tunings: usize,
        reuses: u64,
        hits: u64,
        misses: u64,
        cross: u64,
        first_reuse: Option<usize>,
        joined: usize,
        active: usize,
    }
    #[rustfmt::skip]
    let golden = [
        GoldenTenant { cost_bits: 0x4054bd32beb109c9, slo_bits: 0x3fa8e38e38e38e39, tunings: 16, reuses: 8, hits: 31, misses: 16, cross: 8, first_reuse: Some(3), joined: 0, active: 48 },
        GoldenTenant { cost_bits: 0x405fb7d5acb6f467, slo_bits: 0x3fbc71c71c71c71c, tunings: 13, reuses: 7, hits: 7, misses: 13, cross: 7, first_reuse: Some(6), joined: 0, active: 20 },
        GoldenTenant { cost_bits: 0x4054a54adda39cca, slo_bits: 0x3fa71c71c71c71c7, tunings: 20, reuses: 4, hits: 27, misses: 20, cross: 4, first_reuse: Some(3), joined: 0, active: 48 },
        GoldenTenant { cost_bits: 0x40587597530eca87, slo_bits: 0x3fb471c71c71c71c, tunings: 14, reuses: 10, hits: 34, misses: 14, cross: 10, first_reuse: Some(8), joined: 0, active: 48 },
        GoldenTenant { cost_bits: 0x405a8119b6ba23f6, slo_bits: 0x3fa0000000000000, tunings: 23, reuses: 1, hits: 7, misses: 23, cross: 1, first_reuse: Some(14), joined: 6, active: 48 },
        GoldenTenant { cost_bits: 0x405cbf0cf87d9c56, slo_bits: 0x3fb0e38e38e38e39, tunings: 28, reuses: 2, hits: 16, misses: 22, cross: 2, first_reuse: Some(10), joined: 10, active: 48 },
    ];
    // The bit-exact pins: recorded on x86_64 Linux (the CI platform).
    let pin_bits = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    for (t, g) in report.tenants.iter().zip(&golden) {
        if pin_bits {
            assert_eq!(
                t.dejavu.total_cost.to_bits(),
                g.cost_bits,
                "{} cost",
                t.name
            );
            assert_eq!(
                t.dejavu.slo_violation_fraction.to_bits(),
                g.slo_bits,
                "{} slo",
                t.name
            );
        }
        assert_eq!(t.stats.tunings, g.tunings, "{} tunings", t.name);
        assert_eq!(t.stats.fleet_reuses, g.reuses, "{} reuses", t.name);
        assert_eq!(t.stats.repository.hits, g.hits, "{} hits", t.name);
        assert_eq!(t.stats.repository.misses, g.misses, "{} misses", t.name);
        assert_eq!(t.cross_tenant_hits, g.cross, "{} cross", t.name);
        assert_eq!(t.first_fleet_reuse_epoch, g.first_reuse, "{} first", t.name);
        assert_eq!(t.joined_epoch, g.joined, "{} joined", t.name);
        assert_eq!(t.active_epochs, g.active, "{} active", t.name);
    }
    if pin_bits {
        let curve_xor = report
            .hit_rate_curve
            .iter()
            .fold(0u64, |acc, v| acc ^ v.to_bits().rotate_left(17));
        assert_eq!(curve_xor, 0x6e803bd257300001, "hit-rate curve drifted");
    }
    let repo = report.shared_repo.as_ref().expect("shared snapshot");
    assert_eq!((repo.entries, repo.anchors), (55, 55));
    assert_eq!(repo.stats.hits, 32);
    assert_eq!(repo.stats.misses, 108);
    assert_eq!(repo.stats.insertions, 132);
    assert_eq!(repo.stats.cross_tenant_hits, 32);
}

/// The memoized peek path serves bit-identical answers — entries *and*
/// resolution witnesses — to the uncached path, across anchor accretion:
/// a memo recorded against `n` anchors is revalidated against only the
/// anchors created since, which must never change the outcome.
#[test]
fn memoized_peek_resolution_matches_uncached_peeks() {
    cases(12, |rng, case| {
        let tolerance = rng.uniform(0.05, 0.4);
        let ttl = if rng.uniform01() < 0.5 {
            Some(SimDuration::from_hours(rng.uniform(12.0, 72.0)))
        } else {
            None
        };
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ttl,
            match_tolerance: tolerance,
        });
        let namespace = case;
        let dims = 2 + rng.uniform_usize(10);
        let mut memo = ResolveMemo::default();
        // A small recurring pool plays the role of class medoids: the same
        // signatures are peeked over and over while anchors accrete.
        let mut pool: Vec<Vec<f64>> = Vec::new();
        for step in 0..300 {
            let sig: Vec<f64> = if pool.is_empty() || rng.uniform_usize(3) == 0 {
                let fresh: Vec<f64> = (0..dims).map(|_| rng.uniform(0.1, 1e4)).collect();
                pool.push(fresh.clone());
                fresh
            } else {
                pool[rng.uniform_usize(pool.len())].clone()
            };
            let bucket = rng.uniform_usize(3) as u32;
            let tenant = rng.uniform_usize(4);
            let now = SimTime::from_hours(rng.uniform(0.0, 96.0));
            let exclude = if rng.uniform01() < 0.5 {
                Some(tenant)
            } else {
                None
            };
            let cached =
                repo.peek_resolved_cached(namespace, &sig, bucket, now, exclude, &mut memo);
            let plain = repo.peek_resolved(namespace, &sig, bucket, now, exclude);
            assert_eq!(
                cached, plain,
                "case {case} step {step}: memoized peek diverged"
            );
            // Keep anchors accreting underneath the memo.
            if rng.uniform_usize(2) == 0 {
                let publish: Vec<f64> = if rng.uniform01() < 0.5 {
                    sig.iter()
                        .map(|&v| v * (1.0 + rng.uniform(-2.0 * tolerance, 2.0 * tolerance)))
                        .collect()
                } else {
                    (0..dims).map(|_| rng.uniform(0.1, 1e4)).collect()
                };
                repo.insert(
                    tenant,
                    namespace,
                    &publish,
                    bucket,
                    ResourceAllocation::large(1 + rng.uniform_usize(9) as u32),
                    now,
                );
            }
        }
        assert!(!memo.is_empty(), "case {case}: the memo never filled");
    });
}

/// Compacted snapshots drop exactly the never-hit entries, keep every anchor
/// (resolution is untouched), and the loaded repository equals what a
/// straight save of the compacted state would produce.
#[test]
fn compacted_snapshots_drop_only_never_hit_entries() {
    cases(16, |rng, case| {
        let repo = SharedSignatureRepository::new(SharedRepoConfig {
            shards: 1 + rng.uniform_usize(8),
            ..Default::default()
        });
        let n = 5 + rng.uniform_usize(30);
        let mut inserted: Vec<(u64, Vec<f64>, bool)> = Vec::new();
        for i in 0..n {
            let ns = rng.uniform_usize(4) as u64;
            // Exponentially spaced signatures: consecutive magnitudes differ
            // by 50%, far beyond the match tolerance, so every insert is its
            // own anchor × entry.
            let sig = vec![1000.0 * 1.5f64.powi(i as i32), 55.0 + ns as f64];
            repo.insert(
                0,
                ns,
                &sig,
                0,
                ResourceAllocation::large(1 + (i % 9) as u32),
                SimTime::ZERO,
            );
            let hit = rng.uniform01() < 0.5;
            if hit {
                assert!(repo.lookup(1, ns, &sig, 0, SimTime::ZERO).is_some());
            }
            inserted.push((ns, sig, hit));
        }
        let hit_count = inserted.iter().filter(|(_, _, hit)| *hit).count();
        let compacted = repo.save_snapshot_compact();
        let loaded = SharedSignatureRepository::load_snapshot(&compacted)
            .unwrap_or_else(|e| panic!("case {case}: compacted snapshot failed to load: {e}"));
        assert_eq!(loaded.len(), hit_count, "case {case}: wrong entries kept");
        assert_eq!(
            loaded.anchor_count(),
            repo.anchor_count(),
            "case {case}: compaction must keep anchors"
        );
        assert_eq!(loaded.stats(), repo.stats(), "case {case}: stats drifted");
        for (ns, sig, hit) in &inserted {
            assert_eq!(
                loaded.resolve_anchor(*ns, sig),
                repo.resolve_anchor(*ns, sig),
                "case {case}: resolution drifted"
            );
            assert_eq!(
                loaded.peek(*ns, sig, 0, SimTime::ZERO, None).is_some(),
                *hit,
                "case {case}: entry survival mismatched its hit state"
            );
        }
        // A loaded compacted repository re-saves to the same bytes: every
        // surviving entry has hits, so compaction is idempotent.
        assert_eq!(loaded.save_snapshot(), compacted, "case {case}");
        assert_eq!(loaded.save_snapshot_compact(), compacted, "case {case}");
    });
}

/// Load traces never produce levels outside the valid range, under any
/// rescaling.
#[test]
fn trace_rescaling_stays_in_range() {
    cases(64, |rng, case| {
        let n = 1 + rng.uniform_usize(47);
        let levels: Vec<f64> = (0..n).map(|_| rng.uniform01()).collect();
        let new_peak = rng.uniform(0.05, 1.5);
        let trace = LoadTrace::hourly("prop", levels).unwrap();
        let rescaled = trace.rescaled_to_peak(new_peak);
        assert!(
            rescaled.levels().iter().all(|&l| (0.0..=1.5).contains(&l)),
            "case {case}: level out of range"
        );
        assert!((rescaled.peak() - new_peak).abs() < 1e-9, "case {case}");
    });
}

/// The chunked (lane-parallel) distance kernels agree with the exact-order
/// serial kernels to 1e-9 relative error on every length — including the
/// remainder shapes `len % LANES ∈ {0, 1, LANES - 1}` that exercise the
/// scalar tail — and the early-exit variants agree on *whether* a bound is
/// exceeded whenever the margin is clear.
#[test]
fn chunked_kernels_agree_with_exact_order_within_1e9_relative() {
    use dejavu::ml::kernels;

    let rel_close = |a: f64, b: f64| {
        let scale = a.abs().max(b.abs()).max(1e-300);
        (a - b).abs() / scale <= 1e-9
    };
    cases(24, |rng, case| {
        // Lengths straddling the block/lane boundaries: multiples of LANES,
        // one past, and one short (len % LANES ∈ {0, 1, LANES - 1}).
        for base in [0usize, kernels::LANES, kernels::BLOCK, 3 * kernels::BLOCK] {
            for len in [base, base + 1, (base + kernels::LANES) - 1] {
                let mut a = Vec::with_capacity(len);
                let mut b = Vec::with_capacity(len);
                for _ in 0..len {
                    let mag = 10f64.powi(rng.uniform_usize(7) as i32 - 3);
                    let x = rng.uniform(-1.0, 1.0) * mag;
                    a.push(x);
                    b.push(x + rng.uniform(-0.5, 0.5) * mag);
                }
                let label = format!("case {case} len {len}");

                let exact = kernels::squared_distance_exact(&a, &b);
                let chunked = kernels::squared_distance_chunked(&a, &b);
                assert!(rel_close(exact, chunked), "{label}: {exact} vs {chunked}");

                // Early-exit variants: with a bound clearly above the true
                // sum both must return it; clearly below (and a nonempty
                // vector, so the bound check actually runs), both must bail.
                let mut bounds = vec![(exact * 2.0 + 1.0, true)];
                if exact > 2.0 {
                    bounds.push((exact * 0.5 - 1.0, false));
                }
                for (bound, expect_some) in bounds {
                    let we = kernels::squared_distance_within_exact(&a, &b, bound);
                    let wc = kernels::squared_distance_within_chunked(&a, &b, bound);
                    assert_eq!(we.is_some(), expect_some, "{label} bound {bound}");
                    assert_eq!(wc.is_some(), expect_some, "{label} bound {bound}");
                    if let (Some(ve), Some(vc)) = (we, wc) {
                        assert!(rel_close(ve, vc), "{label}: {ve} vs {vc}");
                    }
                }

                let floor = 1e-9;
                let ne = kernels::normalized_sq_sum_exact(&a, &b, floor, f64::INFINITY)
                    .expect("infinite bound");
                let nc = kernels::normalized_sq_sum_chunked(&a, &b, floor, f64::INFINITY)
                    .expect("infinite bound");
                assert!(rel_close(ne, nc), "{label}: {ne} vs {nc}");
                let below = kernels::normalized_sq_sum_chunked(&a, &b, floor, ne * 0.5 - 1.0);
                if len > 0 && ne > 2.0 {
                    assert!(below.is_none(), "{label}: chunked ignored the bound");
                }
            }
        }
    });
}
