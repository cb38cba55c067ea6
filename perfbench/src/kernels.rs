//! `ml.kernels`: the two distance kernels signature resolution runs, timed in
//! their chunked and exact arms on the calls resolution makes.
//!
//! Resolution checks a candidate anchor in two steps (`AnchorSet::
//! consider_slot` in `crates/fleet/src/shared_repo.rs`): a φ-space screen,
//! `squared_distance_within(query φ, anchor φ, threshold²)`, and, for a
//! candidate the screen does not reject, the exact check
//! `normalized_sq_sum(anchor, query, floor, limit² · dims)`. The operands here
//! are the workload's own: signatures its tenants peeked with (the full
//! 30-metric catalogue, so one 16-wide chunked block plus a 14-element tail,
//! not the ≤ 8-metric signatures the tenants' own classifiers use), each against
//! the nearest anchors of its namespace in the final repository, visited
//! nearest first with the bound tightening as the best match improves, as
//! the ball tree's leaf scan does. The tree's unbounded node-centre distances
//! are not in the mix.
//!
//! The arms of a kernel are timed in the same loop over the same calls,
//! through `black_box`, rotating which one runs first in each round. A null
//! kernel that reads one element runs in the same rotation; its time (the
//! loop, operand selection and `black_box`) is subtracted, so the figures are
//! the kernels' own. The spread across rounds is reported with the medians.

use crate::stats::{median, quantile};
use crate::Outcome;
use dejavu_fleet::snapshot::RepoSnapshot;
use dejavu_ml::kernels::{
    normalized_sq_sum_chunked, normalized_sq_sum_exact, squared_distance_within_chunked,
    squared_distance_within_exact,
};
use std::hint::black_box;
use std::time::Instant;

/// A bounded kernel under test: `(a, b, bound)`.
type Kernel = fn(&[f64], &[f64], f64) -> Option<f64>;

/// Candidates per query: the two leaves (8 anchors each) nearest to it.
const NEAREST: usize = 16;
const ROUNDS: usize = 21;
const CALLS_PER_ROUND: usize = 500_000;
/// The repository's magnitude floor (`MAG_FLOOR` in `shared_repo.rs`).
const MAG_FLOOR: f64 = 1e-9;

fn norm_chunked(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    normalized_sq_sum_chunked(a, b, MAG_FLOOR, bound)
}

fn norm_exact(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    normalized_sq_sum_exact(a, b, MAG_FLOOR, bound)
}

/// The loop's own cost: reads one element, so the operands stay live.
fn null_kernel(a: &[f64], b: &[f64], _bound: f64) -> Option<f64> {
    Some(a[0] - b[0])
}

/// Log-magnitude coordinate of the anchor index (`log_mag` in
/// `shared_repo.rs`).
fn log_mag(v: f64) -> f64 {
    v.abs().max(MAG_FLOOR).ln()
}

/// The φ-space screen radius for match limit `limit` (`phi_threshold` in
/// `shared_repo.rs`).
fn phi_threshold(limit: f64, dims: usize) -> f64 {
    let x = limit * (dims as f64).sqrt();
    if x >= 1.0 {
        f64::INFINITY
    } else {
        -(1.0 - x).ln() * (1.0 + 1e-12) + 1e-12
    }
}

/// Kernel calls as flat operand slabs, `dims` values per operand.
struct Calls {
    dims: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    bounds: Vec<f64>,
}

impl Calls {
    fn new(dims: usize) -> Self {
        Calls {
            dims,
            a: Vec::new(),
            b: Vec::new(),
            bounds: Vec::new(),
        }
    }

    fn push(&mut self, a: &[f64], b: &[f64], bound: f64) {
        self.a.extend_from_slice(a);
        self.b.extend_from_slice(b);
        self.bounds.push(bound);
    }

    fn len(&self) -> usize {
        self.bounds.len()
    }

    fn get(&self, i: usize) -> (&[f64], &[f64], f64) {
        let at = i * self.dims;
        (
            &self.a[at..at + self.dims],
            &self.b[at..at + self.dims],
            self.bounds[i],
        )
    }
}

/// The screen and exact-check calls resolution makes for the `dims`-wide
/// `queries` against the anchors of `snapshot`.
fn resolve_calls(
    queries: &[(u64, Vec<f64>)],
    snapshot: &RepoSnapshot,
    dims: usize,
) -> (Calls, Calls) {
    let tolerance = snapshot.match_tolerance;
    let (mut screen, mut check) = (Calls::new(dims), Calls::new(dims));
    for (namespace, query) in queries.iter().filter(|q| q.1.len() == dims) {
        let Some(ns) = snapshot.namespaces.iter().find(|n| n.id == *namespace) else {
            continue;
        };
        let q_phi: Vec<f64> = query.iter().map(|&v| log_mag(v)).collect();
        let mut candidates: Vec<(f64, Vec<f64>, &[f64])> = ns
            .anchors
            .iter()
            .filter(|a| a.values.len() == dims)
            .map(|a| {
                let phi: Vec<f64> = a.values.iter().map(|&v| log_mag(v)).collect();
                let d = squared_distance_within_exact(&q_phi, &phi, f64::INFINITY)
                    .expect("unbounded distance");
                (d, phi, a.values.as_slice())
            })
            .collect();
        candidates.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut best: Option<f64> = None;
        for (_, phi, values) in candidates.iter().take(NEAREST) {
            let limit = best.map_or(tolerance, |d| d.min(tolerance));
            let threshold = phi_threshold(limit, dims);
            if threshold.is_finite() {
                let bound = threshold * threshold;
                screen.push(&q_phi, phi, bound);
                if squared_distance_within_exact(&q_phi, phi, bound).is_none() {
                    continue;
                }
            }
            let bound = limit * limit * dims as f64 * (1.0 + 1e-12);
            check.push(values, query, bound);
            if let Some(sum) = norm_exact(values, query, bound) {
                let d = (sum / dims as f64).sqrt();
                if d <= limit && best.is_none_or(|b| d < b) {
                    best = Some(d);
                }
            }
        }
    }
    (screen, check)
}

/// ns per call of `kernel` over `CALLS_PER_ROUND` calls cycling through
/// `calls`.
fn time_round(kernel: Kernel, calls: &Calls) -> f64 {
    let mut acc = 0.0;
    let n = calls.len();
    let started = Instant::now();
    for i in 0..CALLS_PER_ROUND {
        let (a, b, bound) = calls.get(i % n);
        acc += kernel(black_box(a), black_box(b), black_box(bound)).unwrap_or(1.0);
    }
    let ns = started.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / CALLS_PER_ROUND as f64
}

/// Interquartile range over median, in percent.
fn spread_pct(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (quantile(&sorted, 0.75) - quantile(&sorted, 0.25)) / median(values).abs().max(1e-12) * 100.0
}

/// Times the chunked and exact arms of one kernel over `calls`; returns
/// their median ns per call and the larger spread. The arms must agree on
/// every call.
fn compare(
    name: &str,
    chunked: Kernel,
    exact: Kernel,
    calls: &Calls,
    out: &mut Outcome,
) -> (f64, f64, f64) {
    for i in 0..calls.len() {
        let (a, b, bound) = calls.get(i);
        let (c, e) = (chunked(a, b, bound), exact(a, b, bound));
        let agree = match (c, e) {
            (Some(c), Some(e)) => (c - e).abs() <= 1e-12 * e.abs().max(1.0),
            (None, None) => true,
            _ => false,
        };
        out.check(agree, || {
            format!(
                "ml {name} arms disagree at dims {}: chunked {c:?} vs exact {e:?}",
                calls.dims
            )
        });
    }
    let kernels: [Kernel; 3] = [chunked, exact, null_kernel];
    // One warm-up round, then `ROUNDS` rounds in rotating order. Each round's
    // null time is subtracted from that round's kernel times, so a slow
    // stretch of the host cancels out of the pair.
    let (mut c, mut e) = (Vec::new(), Vec::new());
    for round in 0..=ROUNDS {
        let mut times = [0.0; 3];
        for k in 0..3 {
            let which = (round + k) % 3;
            times[which] = time_round(kernels[which], calls);
        }
        if round > 0 {
            c.push(times[0] - times[2]);
            e.push(times[1] - times[2]);
        }
    }
    (median(&c), median(&e), spread_pct(&c).max(spread_pct(&e)))
}

/// Times both kernels on the calls resolving `queries` against `snapshot`
/// makes, at the queries' most common width.
pub fn measure(out: &mut Outcome, queries: &[(u64, Vec<f64>)], snapshot: &RepoSnapshot) {
    let mut widths: Vec<usize> = queries.iter().map(|q| q.1.len()).collect();
    widths.sort_unstable();
    let dims = widths
        .chunk_by(|a, b| a == b)
        .max_by_key(|run| run.len())
        .map_or(0, |run| run[0]);
    let (screen, check) = resolve_calls(queries, snapshot, dims);
    out.check(screen.len() > 0 && check.len() > 0, || {
        format!(
            "ml: no resolve calls from {} sampled queries of width {dims}",
            queries.len()
        )
    });
    if screen.len() == 0 || check.len() == 0 {
        return;
    }
    let (screen_c, screen_e, screen_spread) = compare(
        "squared_distance_within",
        squared_distance_within_chunked,
        squared_distance_within_exact,
        &screen,
        out,
    );
    let (check_c, check_e, check_spread) =
        compare("normalized_sq_sum", norm_chunked, norm_exact, &check, out);
    out.push("ml.resolve_dims", dims as f64, "count");
    out.push("ml.sq_within_ns_chunked", screen_c, "ns");
    out.push("ml.sq_within_ns_exact", screen_e, "ns");
    out.push("ml.sq_within_calls", screen.len() as f64, "count");
    out.push("ml.norm_sum_ns_chunked", check_c, "ns");
    out.push("ml.norm_sum_ns_exact", check_e, "ns");
    out.push("ml.norm_sum_calls", check.len() as f64, "count");
    out.push("ml.kernel_spread_pct", screen_spread.max(check_spread), "%");
}
