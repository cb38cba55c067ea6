//! The repository benchmark: three named workloads over the fleet, the shared
//! repository and the `dejavu-serve` daemon.
//!
//! ```text
//! perfbench --workload <fleet-learn|fleet-reuse|serve-durable> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation in the
//! program's path; `--trace 1` runs the per-layer split from bench-side
//! wrappers around the layers' public interfaces. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; a failed correctness check prints `"correct": false` and
//! exits with code 1. See `perfbench/README.md` for the workload and metric
//! definitions.

mod fleet;
mod kernels;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// Every end-to-end metric, `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tenant_epochs_per_s", "tenant-epochs/s"),
    ("hit_rate", "fraction"),
    ("slo_violation_pct", "%"),
    ("tunings_per_tenant", "count"),
    ("cost_per_tenant_day", "cost-units"),
    ("lookup_p50_us", "us"),
    ("lookups_per_s", "lookups/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, `(name, unit)`, printed by traced runs. A layer a
/// workload does not exercise reads 0 there (README.md lists which).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("transport.step_busy_s", "s"),
    ("transport.step_wall_s", "s"),
    ("transport.worker_imbalance", "ratio"),
    ("transport.drain_s", "s"),
    ("transport.commit_s", "s"),
    ("transport.commit_ops", "count"),
    ("transport.sweep_s", "s"),
    ("transport.sweep_evicted", "count"),
    ("transport.barrier_serial_s", "s"),
    ("fleet.prepare_s", "s"),
    ("fleet.finalize_s", "s"),
    ("shared_repo.peek_calls", "count"),
    ("shared_repo.peek_hit_ratio", "ratio"),
    ("shared_repo.peek_busy_s", "s"),
    ("shared_repo.peek_share_pct", "%"),
    ("shared_repo.peek_p50_ns", "ns"),
    ("shared_repo.peek_p99_ns", "ns"),
    ("shared_repo.commit_busy_s", "s"),
    ("shared_repo.commit_applied_ratio", "ratio"),
    ("shared_repo.anchors", "count"),
    ("shared_repo.entries", "count"),
    ("engine.tick_busy_s", "s"),
    ("engine.ticks", "count"),
    ("engine.self_s", "s"),
    ("controller.decide_busy_s", "s"),
    ("controller.decide_calls", "count"),
    ("controller.self_s", "s"),
    ("services.evaluate_busy_s", "s"),
    ("services.evaluate_calls", "count"),
    ("store.get_calls", "count"),
    ("store.put_calls", "count"),
    ("store.busy_s", "s"),
    ("replay.step_busy_s", "s"),
    ("controller.tunings", "count"),
    ("controller.reclusterings", "count"),
    ("controller.unforeseen", "count"),
    ("controller.cache_hit_ratio", "ratio"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.peek_rtt_p50_us", "us"),
    ("serve.peek_rtt_p99_us", "us"),
    ("serve.commit_rtt_p50_ms", "ms"),
    ("serve.calls_peek", "count"),
    ("serve.calls_commit_batch", "count"),
    ("serve.calls_evict_stale", "count"),
    ("serve.calls_other", "count"),
    ("serve.calls_lookup", "count"),
    ("serve.socket_server_us_per_peek", "us"),
    ("protocol.encode_ns_per_frame", "ns"),
    ("protocol.decode_ns_per_frame", "ns"),
    ("protocol.bytes_per_peek", "bytes"),
    ("protocol.bytes_per_commit", "bytes"),
    ("durable.capture_ms_per_commit", "ms"),
    ("durable.dir_bytes", "bytes"),
    ("durable.files", "count"),
    ("durable.bytes_per_commit", "bytes"),
    ("durable.replay_s", "s"),
    ("ml.resolve_dims", "count"),
    ("ml.sq_within_ns_chunked", "ns"),
    ("ml.sq_within_ns_exact", "ns"),
    ("ml.sq_within_calls", "count"),
    ("ml.norm_sum_ns_chunked", "ns"),
    ("ml.norm_sum_ns_exact", "ns"),
    ("ml.norm_sum_calls", "count"),
    ("ml.kernel_spread_pct", "%"),
    ("trace.clock_read_ns", "ns"),
    ("trace_overhead_pct", "%"),
    ("layer_sum_gap_pct", "%"),
];

/// One named metric value as printed in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted: tenant runs, wire lookups and wire commits. A
    /// run that attempted nothing has failed a check already.
    pub attempted: u64,
    /// Operations that failed: panicked or retired tenants, wire errors,
    /// denied sessions.
    pub failed: u64,
    /// Correctness checks that did not hold, one line each.
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// The fleet size and horizon of each workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// 5,000 tenants x 1 day: the whole run is DejaVu's learning phase, so the
    /// shared repository and the barrier commit do the most work.
    FleetLearn,
    /// 1,000 tenants x 7 days: after day 1 tenants classify locally and reuse
    /// their own cache, so the tenant pipeline does the work.
    FleetReuse,
    /// A warm persistent daemon: one fleet over a Unix socket plus a
    /// closed-loop lookup reader.
    ServeDurable,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet-learn" => Some(Workload::FleetLearn),
            "fleet-reuse" => Some(Workload::FleetReuse),
            "serve-durable" => Some(Workload::ServeDurable),
            _ => None,
        }
    }

    /// `(tenants, days)` of the measured fleet.
    pub fn size(self) -> (usize, usize) {
        match self {
            Workload::FleetLearn => (5_000, 1),
            Workload::FleetReuse => (1_000, 7),
            Workload::ServeDurable => (1_000, 1),
        }
    }
}

/// Distinct fleets an untraced run cycles through, all drawn from `--seed`:
/// the run's science metrics are their mean and its timings summarize every
/// iteration, which keeps one run's figures from hinging on one draw.
pub const FLEETS_PER_RUN: usize = 5;

/// The seed of fleet `k` of a run: `seed` itself for the first, SplitMix64
/// derivations for the rest.
pub fn fleet_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The measuring loop's clock: an iteration starts only if the run still
/// has room for one more, judged by the slowest iteration so far, once the
/// minimum count is done.
pub struct Budget {
    started: std::time::Instant,
    seconds: f64,
    min: usize,
    done: usize,
    slowest_s: f64,
    last: std::time::Instant,
}

impl Budget {
    pub fn new(seconds: f64, min: usize) -> Self {
        let now = std::time::Instant::now();
        Budget {
            started: now,
            seconds,
            min,
            done: 0,
            slowest_s: 0.0,
            last: now,
        }
    }

    /// Call before each iteration; false once the run is over.
    pub fn start_iteration(&mut self) -> bool {
        let now = std::time::Instant::now();
        if self.done > 0 {
            self.slowest_s = self
                .slowest_s
                .max(now.duration_since(self.last).as_secs_f64());
        }
        self.last = now;
        let elapsed = now.duration_since(self.started).as_secs_f64();
        let go = self.done < self.min || elapsed + self.slowest_s <= self.seconds;
        self.done += usize::from(go);
        go
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatches.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet-learn|fleet-reuse|serve-durable> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(trace::OUT_DIR) {
        eprintln!("perfbench: cannot create {}: {e}", trace::OUT_DIR);
        return ExitCode::from(2);
    }
    let mut outcome = match (args.workload, args.trace) {
        (Workload::ServeDurable, false) => serve::measure(args.seed, args.seconds),
        (Workload::ServeDurable, true) => serve::trace(args.seed, args.seconds),
        (w, false) => fleet::measure(w, args.seed, args.seconds),
        (w, true) => fleet::trace(w, args.seed, args.seconds),
    };
    outcome.check(outcome.attempted > 0, || {
        "no operation was attempted".into()
    });
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    canonicalize(&mut outcome, expected);
    for line in &outcome.mismatches {
        eprintln!("perfbench: check failed: {line}");
    }
    println!("{}", result_line(&outcome));
    if outcome.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Puts the metrics in `expected` order, fills a metric the workload does
/// not exercise with 0, and flags unknown, duplicate, mis-unit or non-finite
/// values as failed checks.
fn canonicalize(outcome: &mut Outcome, expected: &[(&'static str, &'static str)]) {
    let mut measured = std::mem::take(&mut outcome.metrics);
    for m in &measured {
        let known = expected
            .iter()
            .any(|&(name, unit)| name == m.name && unit == m.unit);
        let count = measured.iter().filter(|o| o.name == m.name).count();
        if !known || count > 1 || !m.value.is_finite() {
            outcome.mismatches.push(format!(
                "metric {} = {} {} is unknown, repeated or not finite",
                m.name, m.value, m.unit
            ));
        }
    }
    for &(name, unit) in expected {
        let value = measured
            .iter()
            .position(|m| m.name == name)
            .map_or(0.0, |i| measured.swap_remove(i).value);
        outcome.push(name, value, unit);
    }
}
