//! The `serve-durable` workload: a warm `dejavu-serve` daemon with a durable
//! checkpoint directory, started in process on a Unix socket. Session A drives
//! a fleet through the wire client (peeks, plus one captured-and-fsynced
//! `CommitBatch` per barrier); session B is a closed-loop `Lookup` reader
//! over the warm snapshot's entries for as long as the fleet runs.

use crate::fleet::MIN_ITERATIONS;
use crate::fleet::{fleet_config, nproc, push_controller_counts, Science};
use crate::stats::{self, median, p50_p99, ReportDigest};
use crate::trace::{ns_since, ProbeLevel, ProbedClient, Spans, OUT_DIR};
use crate::{fleet_seed, Budget, Outcome, Workload, FLEETS_PER_RUN};
use dejavu_fleet::snapshot::RepoSnapshot;
use dejavu_fleet::{
    standard_fleet, FleetEngine, FleetReport, RepositoryClient, SharedSignatureRepository,
};
use dejavu_serve::{
    serve_unix, serve_unix_persistent, RemoteRepository, Request, Response, ServeConfig,
    ServePersistence, ServerHandle, WireError,
};
use dejavu_simcore::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The warm seed fleet the daemon boots from.
const SEED_FLEET: (usize, usize) = (200, 1);
/// Mixed into the workload seed so the seed fleet differs from the measured one.
const SEED_SALT: u64 = 0x5EED_F1EE_7000_0001;
/// On-disk delta-chain compaction cadence (the daemon's default).
const CHECKPOINT_EVERY: usize = 64;
/// Session ids on the wire.
const FLEET_SESSION: usize = 0;
const READER_SESSION: usize = 1;

/// The warm snapshot: a different-seed fleet run to completion in process.
fn seed_snapshot(seed: u64) -> String {
    let (tenants, days) = SEED_FLEET;
    let engine = FleetEngine::new(
        standard_fleet(tenants, days, seed ^ SEED_SALT),
        fleet_config(nproc()),
    );
    let repo = Arc::new(SharedSignatureRepository::new(engine.config().repo.clone()));
    engine.run_on(Arc::clone(&repo));
    repo.save_snapshot()
}

/// `(namespace, anchor signature, interference bucket)` of every stored entry:
/// the keys the lookup reader cycles through.
fn lookup_keys(snapshot: &RepoSnapshot) -> Vec<(u64, Vec<f64>, u32)> {
    let mut keys = Vec::new();
    for ns in &snapshot.namespaces {
        for entry in &ns.entries {
            if let Some(anchor) = ns.anchors.iter().find(|a| a.id == entry.anchor) {
                keys.push((ns.id, anchor.values.clone(), entry.bucket));
            }
        }
    }
    keys
}

/// A booted daemon and the files it owns.
struct Daemon {
    handle: ServerHandle,
    socket: PathBuf,
    /// The checkpoint directory; `None` for an in-memory daemon.
    dir: Option<PathBuf>,
    keys: Vec<(u64, Vec<f64>, u32)>,
    /// The warm snapshot's clock: the reader looks up at this time.
    clock: SimTime,
}

impl Daemon {
    /// Loads `snapshot` and serves it on a fresh socket, with a fresh
    /// checkpoint directory when `durable`.
    fn boot(snapshot: &str, tag: &str, durable: bool) -> Result<Daemon, String> {
        let repo = SharedSignatureRepository::load_snapshot(snapshot)
            .map_err(|e| format!("seed snapshot does not load: {e}"))?;
        let keys = lookup_keys(&repo.to_snapshot());
        let clock = repo.clock();
        let repo = Arc::new(repo);
        let base = format!("{OUT_DIR}/serve-{}-{tag}", std::process::id());
        // A relative socket path stays within the platform's length limit
        // however deep the working directory is.
        let socket = PathBuf::from(format!("{base}.sock"));
        let _ = std::fs::remove_file(&socket);
        let (handle, dir) = if durable {
            let dir = PathBuf::from(&base);
            let _ = std::fs::remove_dir_all(&dir);
            let persistence = ServePersistence::create(&dir, &repo, CHECKPOINT_EVERY)
                .map_err(|e| format!("checkpoint directory: {e}"))?;
            let handle = serve_unix_persistent(repo, &socket, ServeConfig::default(), persistence)
                .map_err(|e| format!("bind {}: {e}", socket.display()))?;
            (handle, Some(dir))
        } else {
            let handle = serve_unix(repo, &socket, ServeConfig::default())
                .map_err(|e| format!("bind {}: {e}", socket.display()))?;
            (handle, None)
        };
        Ok(Daemon {
            handle,
            socket,
            dir,
            keys,
            clock,
        })
    }

    /// Stops the daemon and removes its socket and checkpoint directory.
    fn stop(self) {
        self.handle.stop();
        let _ = std::fs::remove_file(&self.socket);
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What one served fleet did.
struct Session {
    report: Option<FleetReport>,
    fleet_wall_s: f64,
    client: Arc<ProbedClient>,
    lookups_us: Vec<f64>,
    lookup_wall_s: f64,
    wire_errors: u64,
    denied: u64,
}

fn connect(socket: &Path, session: usize) -> Result<RemoteRepository, WireError> {
    RemoteRepository::connect_unix(socket, session)
}

/// Runs session A (the fleet) and session B (the reader) against `daemon`,
/// then one last mutating call so the reader's hit counters are captured.
fn drive(daemon: &Daemon, seed: u64, level: ProbeLevel) -> Session {
    let (tenants, days) = Workload::ServeDurable.size();
    let mut session = Session {
        report: None,
        fleet_wall_s: 0.0,
        // An empty log until session A connects.
        client: Arc::new(ProbedClient::new(
            Arc::new(SharedSignatureRepository::new(Default::default())),
            level,
        )),
        lookups_us: Vec::new(),
        lookup_wall_s: 0.0,
        wire_errors: 0,
        denied: 0,
    };
    let remote = match connect(&daemon.socket, FLEET_SESSION) {
        Ok(remote) => Arc::new(remote),
        Err(e) => {
            count_error(&mut session, &e);
            return session;
        }
    };
    session.client = Arc::new(ProbedClient::new(
        Arc::clone(&remote) as Arc<dyn RepositoryClient>,
        level,
    ));
    let engine = FleetEngine::new(standard_fleet(tenants, days, seed), fleet_config(1));
    let stop = AtomicBool::new(false);
    let keys = &daemon.keys;
    let now = daemon.clock;
    let reader = |stop: &AtomicBool| -> (Vec<f64>, f64, Option<WireError>) {
        let reader = match connect(&daemon.socket, READER_SESSION) {
            Ok(reader) => reader,
            Err(e) => return (Vec::new(), 0.0, Some(e)),
        };
        let mut samples = Vec::new();
        let started = Instant::now();
        let mut i = 0usize;
        while !stop.load(Ordering::Acquire) && !keys.is_empty() {
            let (namespace, signature, bucket) = &keys[i % keys.len()];
            let t = Instant::now();
            if let Err(e) = reader.lookup(READER_SESSION, *namespace, signature, *bucket, now) {
                return (samples, started.elapsed().as_secs_f64(), Some(e));
            }
            samples.push(ns_since(t) as f64 / 1e3);
            i += 1;
        }
        (samples, started.elapsed().as_secs_f64(), None)
    };
    let client: Arc<dyn RepositoryClient> = Arc::clone(&session.client) as _;
    let (fleet, read) = std::thread::scope(|scope| {
        let read = scope.spawn(|| reader(&stop));
        let started = Instant::now();
        let fleet = catch_unwind(AssertUnwindSafe(|| engine.run_on_client(client)));
        let wall = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        (
            fleet.map(|r| (r, wall)),
            read.join().expect("reader thread panicked"),
        )
    });
    match fleet {
        Ok((report, wall)) => {
            session.report = Some(report);
            session.fleet_wall_s = wall;
        }
        Err(_) => session.wire_errors += 1,
    }
    let (samples, wall, error) = read;
    session.lookups_us = samples;
    session.lookup_wall_s = wall;
    if let Some(e) = error {
        count_error(&mut session, &e);
    }
    // The reader's hit counters ride the next mutating capture: sweep at the
    // repository's own clock (evicts nothing the fleet's last sweep did not).
    let sync = catch_unwind(AssertUnwindSafe(|| remote.evict_stale(remote.clock())));
    if sync.is_err() {
        session.wire_errors += 1;
    }
    session
}

fn count_error(session: &mut Session, e: &WireError) {
    eprintln!("perfbench: wire error: {e}");
    match e {
        WireError::Denied { .. } => session.denied += 1,
        _ => session.wire_errors += 1,
    }
}

/// Checks that the checkpoint directory replays to the daemon's state;
/// returns the replay time.
fn check_replay(daemon: &Daemon, out: &mut Outcome) -> f64 {
    let Some(dir) = &daemon.dir else { return 0.0 };
    let started = Instant::now();
    let resumed = ServePersistence::resume(dir, CHECKPOINT_EVERY);
    let replay_s = started.elapsed().as_secs_f64();
    match resumed {
        Ok((repo, _, _)) => out.check(
            repo.to_snapshot() == daemon.handle.repository().to_snapshot(),
            || "checkpoint directory does not replay to the daemon's final state".into(),
        ),
        Err(e) => out.check(false, || {
            format!("checkpoint directory does not replay: {e}")
        }),
    }
    replay_s
}

/// The same fleet in process on the same warm snapshot: the reference the
/// served fleet must bit-match.
fn in_process_reference(seed: u64, snapshot: &str) -> FleetReport {
    let (tenants, days) = Workload::ServeDurable.size();
    // Results are invariant to the worker count, so the reference uses all.
    let engine = FleetEngine::new(standard_fleet(tenants, days, seed), fleet_config(nproc()));
    engine.run_warm(snapshot).expect("seed snapshot loads").0
}

/// Median per-commit round trip of a session, ms.
fn commit_p50_ms(session: &Session) -> f64 {
    let log = session.client.log.lock().expect("client log poisoned");
    let ns: Vec<f64> = log.commits.iter().map(|c| c.0 as f64).collect();
    median(&ns) / 1e6
}

/// Accounts a finished session's operations and failures; returns the
/// served fleet's digest, `None` if the fleet did not complete.
fn account(out: &mut Outcome, session: &Session, daemon: &Daemon) -> Option<ReportDigest> {
    // The reader's lookups, plus the final capturing sweep.
    out.attempted += session.lookups_us.len() as u64 + 1;
    out.failed += session.wire_errors + session.denied + daemon.handle.denied_sessions();
    out.check(!session.lookups_us.is_empty(), || {
        "the lookup reader made no lookups".into()
    });
    let commits = session
        .client
        .log
        .lock()
        .expect("client log poisoned")
        .commits
        .len();
    out.attempted += commits as u64;
    let Some(report) = &session.report else {
        out.check(false, || "served fleet did not complete".into());
        return None;
    };
    out.attempted += report.tenants.len() as u64;
    out.failed += report.tenants_failed() as u64;
    Some(ReportDigest::of(report))
}

/// The untraced run: end-to-end metrics, medians over repeated daemon boots.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let (_, days) = Workload::ServeDurable.size();
    let mut out = Outcome::default();
    // Per fleet of the run: its warm snapshot, served digests and science.
    let mut snapshots: Vec<String> = Vec::new();
    let mut served: Vec<(usize, ReportDigest)> = Vec::new();
    let mut science: Vec<Science> = Vec::new();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let (mut p50s, mut lookup_rates) = (Vec::new(), Vec::new());
    let mut iteration = 0;
    let mut budget = Budget::new(seconds, MIN_ITERATIONS);
    while budget.start_iteration() {
        let k = iteration % FLEETS_PER_RUN;
        let fleet = fleet_seed(seed, k);
        iteration += 1;
        let setup = Instant::now();
        let snapshot = seed_snapshot(fleet);
        let daemon = match Daemon::boot(&snapshot, &iteration.to_string(), true) {
            Ok(daemon) => daemon,
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };
        setups.push(setup.elapsed().as_secs_f64());
        let mut session = drive(&daemon, fleet, ProbeLevel::Commits);
        if let Some(digest) = account(&mut out, &session, &daemon) {
            served.push((k, digest));
        }
        check_replay(&daemon, &mut out);
        daemon.stop();
        if let Some(report) = &session.report {
            rates.push(crate::fleet::tenant_epochs(report) / session.fleet_wall_s);
            if science.len() == k {
                science.push(Science::of(report, days));
            }
        }
        if snapshots.len() == k {
            snapshots.push(snapshot);
        }
        lookup_rates.push(session.lookups_us.len() as f64 / session.lookup_wall_s.max(1e-9));
        let (p50, p99) = p50_p99(&mut session.lookups_us);
        p50s.push(p50);
        eprintln!(
            "  iteration {iteration}: {:.0} tenant-epochs/s, commit p50 {:.2} ms, \
             lookup p50 {p50:.1} us p99 {p99:.1} us, {:.0} lookups/s",
            rates.last().copied().unwrap_or(0.0),
            commit_p50_ms(&session),
            lookup_rates.last().copied().unwrap_or(0.0),
        );
    }
    // The same fleets in process, outside the measured loop.
    for (k, snapshot) in snapshots.iter().enumerate() {
        let reference = ReportDigest::of(&in_process_reference(fleet_seed(seed, k), snapshot));
        for (_, digest) in served.iter().filter(|(fk, _)| *fk == k) {
            out.check(reference == *digest, || {
                format!("served fleet {k} differs from the same fleet run in process")
            });
        }
    }
    out.push("tenant_epochs_per_s", median(&rates), "tenant-epochs/s");
    Science::mean(&science).push(&mut out);
    out.push("lookup_p50_us", median(&p50s), "us");
    out.push("lookups_per_s", median(&lookup_rates), "lookups/s");
    out.push("setup_s", median(&setups), "s");
    out.push("peak_rss_mb", stats::peak_rss_mb(), "MB");
    eprintln!(
        "perfbench serve-durable seed {seed}: {iteration} runs, {:.1} tenant-epochs/s",
        median(&rates)
    );
    out
}

/// Directory size in bytes and file count (one level deep is all the
/// checkpoint store writes).
fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    bytes += meta.len();
                    files += 1;
                }
            }
        }
    }
    (bytes, files)
}

/// One traced round's measurements.
#[derive(Default)]
struct Round {
    lookup_p50_us: f64,
    lookup_p99_us: f64,
    untraced_wall_s: f64,
    traced_wall_s: f64,
    durable_commit_ms: f64,
    memory_commit_ms: f64,
    replay_s: f64,
    dir_bytes: f64,
    base_bytes: f64,
    files: f64,
    commits: f64,
}

/// Runs one daemon boot + session and folds it into the outcome; returns the
/// session and the daemon (still running) for the caller's extra probes.
fn traced_session(
    snapshot: &str,
    tag: &str,
    durable: bool,
    seed: u64,
    level: ProbeLevel,
    reference: &ReportDigest,
    out: &mut Outcome,
) -> Option<(Session, Daemon)> {
    let daemon = match Daemon::boot(snapshot, tag, durable) {
        Ok(daemon) => daemon,
        Err(e) => {
            out.check(false, || e);
            return None;
        }
    };
    let session = drive(&daemon, seed, level);
    if let Some(digest) = account(out, &session, &daemon) {
        out.check(digest == *reference, || {
            "served fleet differs from the same fleet run in process".into()
        });
    }
    Some((session, daemon))
}

/// The traced run: serve, protocol and durable layers from client-side
/// wrappers, plus the exact controller counts of the served fleet.
pub fn trace(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new();
    let snapshot = seed_snapshot(seed);
    let reference = in_process_reference(seed, &snapshot);
    let digest = ReportDigest::of(&reference);
    let mut rounds: Vec<Round> = Vec::new();
    let mut framed: Option<(Session, Arc<SharedSignatureRepository>)> = None;
    let mut budget = Budget::new(seconds, 1);
    while budget.start_iteration() {
        let mut round = Round::default();
        let tag = rounds.len();
        let t = Instant::now();
        let Some((plain, daemon)) = traced_session(
            &snapshot,
            &format!("p{tag}"),
            true,
            seed,
            ProbeLevel::Commits,
            &digest,
            &mut out,
        ) else {
            break;
        };
        spans.record("serve.untraced", t, Instant::now(), None);
        let mut lookups = plain.lookups_us.clone();
        (round.lookup_p50_us, round.lookup_p99_us) = p50_p99(&mut lookups);
        round.untraced_wall_s = plain.fleet_wall_s;
        round.durable_commit_ms = commit_p50_ms(&plain);
        round.commits = plain
            .client
            .log
            .lock()
            .expect("client log poisoned")
            .commits
            .len() as f64;
        if let Some(dir) = &daemon.dir {
            let (bytes, files) = dir_usage(dir);
            round.dir_bytes = bytes as f64;
            round.files = files as f64;
            round.base_bytes = std::fs::metadata(dir.join(dejavu_fleet::BASE_FILE))
                .map_or(0.0, |m| m.len() as f64);
        }
        let t = Instant::now();
        round.replay_s = check_replay(&daemon, &mut out);
        spans.record("durable.replay", t, Instant::now(), None);
        daemon.stop();

        let t = Instant::now();
        let Some((traced, daemon)) = traced_session(
            &snapshot,
            &format!("t{tag}"),
            true,
            seed,
            ProbeLevel::Frames,
            &digest,
            &mut out,
        ) else {
            break;
        };
        spans.record("serve.traced", t, Instant::now(), None);
        round.traced_wall_s = traced.fleet_wall_s;
        let repo = Arc::clone(daemon.handle.repository());
        daemon.stop();
        framed = Some((traced, repo));

        let t = Instant::now();
        let Some((memory, daemon)) = traced_session(
            &snapshot,
            &format!("m{tag}"),
            false,
            seed,
            ProbeLevel::Commits,
            &digest,
            &mut out,
        ) else {
            break;
        };
        spans.record("serve.in_memory", t, Instant::now(), None);
        round.memory_commit_ms = commit_p50_ms(&memory);
        daemon.stop();
        rounds.push(round);
    }
    push_controller_counts(&mut out, &reference);
    if let Some((session, repo)) = &framed {
        push_serve(&mut out, session, repo);
        let log = session.client.log.lock().expect("client log poisoned");
        crate::kernels::measure(&mut out, &log.queries, &repo.to_snapshot());
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.push("serve.lookup_p50_us", med(&|r| r.lookup_p50_us), "us");
    out.push("serve.lookup_p99_us", med(&|r| r.lookup_p99_us), "us");
    out.push(
        "durable.capture_ms_per_commit",
        med(&|r| r.durable_commit_ms - r.memory_commit_ms),
        "ms",
    );
    out.push("durable.dir_bytes", med(&|r| r.dir_bytes), "bytes");
    out.push("durable.files", med(&|r| r.files), "count");
    out.push(
        "durable.bytes_per_commit",
        med(&|r| (r.dir_bytes - r.base_bytes) / r.commits.max(1.0)),
        "bytes",
    );
    out.push("durable.replay_s", med(&|r| r.replay_s), "s");
    out.push(
        "trace_overhead_pct",
        med(&|r| (r.traced_wall_s - r.untraced_wall_s) / r.untraced_wall_s.max(1e-9) * 100.0),
        "%",
    );
    let path = format!("{OUT_DIR}/spans-ServeDurable-{seed}.tsv");
    if let Err(e) = spans.write(&path) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
    out
}

/// Wire-level metrics of the framed session: round trips by opcode, the
/// codec re-run over the recorded frames, and the socket-plus-server share of
/// a peek.
fn push_serve(out: &mut Outcome, session: &Session, repo: &SharedSignatureRepository) {
    let log = session.client.log.lock().expect("client log poisoned");
    let mut peeks: Vec<f64> = log.peek_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let (peek_p50, peek_p99) = p50_p99(&mut peeks);
    let mut commit_ms: Vec<f64> = log.commits.iter().map(|c| c.0 as f64 / 1e6).collect();
    let (commit_p50, _) = p50_p99(&mut commit_ms);
    out.push("serve.peek_rtt_p50_us", peek_p50, "us");
    out.push("serve.peek_rtt_p99_us", peek_p99, "us");
    out.push("serve.commit_rtt_p50_ms", commit_p50, "ms");
    out.push("serve.calls_peek", peeks.len() as f64, "count");
    out.push(
        "serve.calls_commit_batch",
        log.commits.len() as f64,
        "count",
    );
    out.push("serve.calls_evict_stale", log.sweeps as f64, "count");
    out.push("serve.calls_other", log.other_calls as f64, "count");
    out.push(
        "serve.calls_lookup",
        session.lookups_us.len() as f64,
        "count",
    );

    // Codec: every recorded frame encoded and decoded again, both directions.
    let frames = &log.frames;
    let (encode_ns, decode_ns, decode_ok) = codec_ns(frames.iter());
    out.check(decode_ok, || "recorded frames do not decode".into());
    out.push("protocol.encode_ns_per_frame", encode_ns, "ns");
    out.push("protocol.decode_ns_per_frame", decode_ns, "ns");
    let bytes_of = |peek: bool| {
        let sizes: Vec<f64> = frames
            .iter()
            .filter(|(request, _)| matches!(request, Request::Peek { .. }) == peek)
            .map(|(request, response)| {
                (request.encode().len() + response.encode().len() + 2 * FRAME_HEADER) as f64
            })
            .collect();
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64
    };
    out.push("protocol.bytes_per_peek", bytes_of(true), "bytes");
    out.push("protocol.bytes_per_commit", bytes_of(false), "bytes");
    let (peek_encode_ns, peek_decode_ns, _) = codec_ns(
        frames
            .iter()
            .filter(|(r, _)| matches!(r, Request::Peek { .. })),
    );

    // The recorded peeks again, in process against the daemon's final state.
    let mut local_ns = Vec::new();
    for (request, _) in frames {
        if let Request::Peek {
            namespace,
            signature,
            interference_bucket,
            now,
            exclude_owner,
        } = request
        {
            let t = Instant::now();
            std::hint::black_box(repo.peek_resolved(
                *namespace,
                signature,
                *interference_bucket,
                *now,
                *exclude_owner,
            ));
            local_ns.push(ns_since(t) as f64);
        }
    }
    // A peek round trip encodes and decodes one request and one response.
    let codec_us_per_peek = 2.0 * (peek_encode_ns + peek_decode_ns) / 1e3;
    out.push(
        "serve.socket_server_us_per_peek",
        peek_p50 - codec_us_per_peek - median(&local_ns) / 1e3,
        "us",
    );
}

/// Length prefix of every wire frame, bytes.
const FRAME_HEADER: usize = 4;

/// Mean ns to encode and to decode one frame over `frames` (requests and
/// responses alike, five passes), and whether every frame decoded.
fn codec_ns<'a>(frames: impl Iterator<Item = &'a (Request, Response)> + Clone) -> (f64, f64, bool) {
    const PASSES: usize = 5;
    let count = frames.clone().count() * 2 * PASSES;
    let mut encoded: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let started = Instant::now();
    for _ in 0..PASSES {
        encoded.clear();
        for (request, response) in frames.clone() {
            encoded.push((request.encode(), response.encode()));
        }
    }
    let encode_ns = ns_since(started) as f64 / count.max(1) as f64;
    let mut ok = true;
    let started = Instant::now();
    for _ in 0..PASSES {
        for (request, response) in &encoded {
            ok &= Request::decode(request).is_ok() && Response::decode(response).is_ok();
        }
    }
    let decode_ns = ns_since(started) as f64 / count.max(1) as f64;
    (encode_ns, decode_ns, ok)
}
