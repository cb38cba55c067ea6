//! Chunked, autovectorizable distance-accumulation kernels.
//!
//! A textbook Euclidean distance loop is a serial dependency chain — every
//! `sum += d * d` waits on the previous one — so the compiler cannot issue
//! the independent per-dimension work as vector lanes. The kernels here
//! restructure that accumulation into fixed-width lanes ([`LANES`]) with an
//! explicit accumulator array, processed in [`BLOCK`]-element super-blocks
//! with the remainder handled scalar. The compiler autovectorizes the block
//! body (independent subtract/multiply/add per lane — and for the normalized
//! kernel, independent divides), which is where the signature-resolution and
//! k-means hot paths spend their time at fleet scale.
//!
//! Chunking changes floating-point summation order, so results differ from
//! the exact serial kernels in the last ulps. Every kernel ships in two
//! forms:
//!
//! * `*_chunked` — the lane-parallel form, which the unsuffixed names
//!   (`squared_distance`, `squared_distance_within`, `normalized_sq_sum`)
//!   the program calls run;
//! * `*_exact` — bit-identical to the historical serial loops, kept as the
//!   reference the property tests and benchmarks compare against.
//!
//! Below one [`BLOCK`] (the ≤ 8-metric signatures of the default
//! configuration) the chunked kernels only run their serial tail, so both
//! forms return the same bits there.
//!
//! The chunked and exact forms agree within 1e-9 relative error (pinned by a
//! property test across random dims and lengths, including remainder edge
//! cases), and bounded kernels only ever disagree on `Some`-vs-`None` when
//! the true sum sits within rounding distance of the bound — callers treat
//! the bound as a tolerance, never as a semantic cliff.

/// Accumulator-array width: 4 × f64 fills a 256-bit vector register (AVX2),
/// and narrower SIMD ISAs split it into two 128-bit halves for free.
pub const LANES: usize = 4;

/// Super-block length between early-exit checks of the bounded kernels: four
/// [`LANES`]-wide chunks, so the horizontal reduction (which serializes) is
/// paid once per 16 dimensions instead of once per element.
pub const BLOCK: usize = 4 * LANES;

/// Horizontal sum of the accumulator array, pairwise so the reduction tree
/// is fixed regardless of how the lanes were filled.
#[inline(always)]
fn hsum(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Squared Euclidean distance, lane-parallel accumulation.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn squared_distance_chunked(a: &[f64], b: &[f64]) -> f64 {
    squared_distance_within_chunked(a, b, f64::INFINITY).expect("infinite bound never exits early")
}

/// Squared Euclidean distance, exact serial order — bit-identical to
/// [`crate::dataset::squared_distance`].
#[inline]
pub fn squared_distance_exact(a: &[f64], b: &[f64]) -> f64 {
    crate::dataset::squared_distance(a, b)
}

/// Squared Euclidean distance: the chunked kernel.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance_chunked(a, b)
}

/// Early-exit squared distance, lane-parallel: accumulates [`BLOCK`]-element
/// super-blocks and abandons the pair once the partial sum exceeds `bound`
/// (checked per block rather than per element, so the block body stays
/// branch-free and vectorizable).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance_within_chunked(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let n = a.len();
    let mut sum = 0.0;
    let mut idx = 0;
    while n - idx >= BLOCK {
        let xa = &a[idx..idx + BLOCK];
        let xb = &b[idx..idx + BLOCK];
        let mut acc = [0.0f64; LANES];
        for c in 0..BLOCK / LANES {
            for l in 0..LANES {
                let d = xa[c * LANES + l] - xb[c * LANES + l];
                acc[l] += d * d;
            }
        }
        sum += hsum(acc);
        if sum > bound {
            return None;
        }
        idx += BLOCK;
    }
    for (x, y) in a[idx..].iter().zip(&b[idx..]) {
        let d = x - y;
        sum += d * d;
        if sum > bound {
            return None;
        }
    }
    Some(sum)
}

/// Early-exit squared distance, exact serial order — bit-identical to
/// [`crate::dataset::squared_distance_within`].
#[inline]
pub fn squared_distance_within_exact(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    crate::dataset::squared_distance_within(a, b, bound)
}

/// Early-exit squared distance: the chunked kernel.
#[inline]
pub fn squared_distance_within(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    squared_distance_within_chunked(a, b, bound)
}

/// Early-exit *normalized* squared-difference sum, lane-parallel: accumulates
/// `((x - y) / max(|x|, |y|, floor))²` per dimension — the scale-invariant
/// distance of the shared signature repository. The per-dimension divides are
/// independent across lanes, which is exactly what a serial formulation
/// denies the vector units.
///
/// Returns `None` once the partial sum exceeds `bound` (checked per
/// [`BLOCK`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn normalized_sq_sum_chunked(a: &[f64], b: &[f64], floor: f64, bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let n = a.len();
    let mut sum = 0.0;
    let mut idx = 0;
    while n - idx >= BLOCK {
        let xa = &a[idx..idx + BLOCK];
        let xb = &b[idx..idx + BLOCK];
        let mut acc = [0.0f64; LANES];
        for c in 0..BLOCK / LANES {
            for l in 0..LANES {
                let x = xa[c * LANES + l];
                let y = xb[c * LANES + l];
                let scale = x.abs().max(y.abs()).max(floor);
                let d = (x - y) / scale;
                acc[l] += d * d;
            }
        }
        sum += hsum(acc);
        if sum > bound {
            return None;
        }
        idx += BLOCK;
    }
    for (&x, &y) in a[idx..].iter().zip(&b[idx..]) {
        let scale = x.abs().max(y.abs()).max(floor);
        let d = (x - y) / scale;
        sum += d * d;
        if sum > bound {
            return None;
        }
    }
    Some(sum)
}

/// Early-exit normalized squared-difference sum, exact serial order —
/// bit-identical to the historical signature-resolution loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn normalized_sq_sum_exact(a: &[f64], b: &[f64], floor: f64, bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let mut sum = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let scale = x.abs().max(y.abs()).max(floor);
        let d = (x - y) / scale;
        sum += d * d;
        if sum > bound {
            return None;
        }
    }
    Some(sum)
}

/// Early-exit normalized squared-difference sum: the chunked kernel.
#[inline]
pub fn normalized_sq_sum(a: &[f64], b: &[f64], floor: f64, bound: f64) -> Option<f64> {
    normalized_sq_sum_chunked(a, b, floor, bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(len: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = dejavu_simcore::SimRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..len)
            .map(|_| rng.uniform(-100.0, 100.0) * 10f64.powi(rng.uniform_usize(6) as i32 - 3))
            .collect();
        let b: Vec<f64> = a
            .iter()
            .map(|x| x + rng.uniform(-1.0, 1.0) * x.abs().max(1.0) * 0.3)
            .collect();
        (a, b)
    }

    fn rel_close(a: f64, b: f64) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!(
            ((a - b) / scale).abs() <= 1e-9,
            "chunked {a} vs exact {b} diverged"
        );
    }

    #[test]
    fn chunked_matches_exact_across_remainders() {
        // Cover len % LANES ∈ {0, 1, LANES-1}, sub-block lengths, and the
        // empty vector.
        for len in [0, 1, 3, 4, 5, 7, 8, 15, 16, 17, 19, 30, 32, 33, 128] {
            let (a, b) = vecs(len, 0x5EED ^ len as u64);
            rel_close(
                squared_distance_chunked(&a, &b),
                squared_distance_exact(&a, &b),
            );
            let exact = normalized_sq_sum_exact(&a, &b, 1e-9, f64::INFINITY).unwrap();
            let chunked = normalized_sq_sum_chunked(&a, &b, 1e-9, f64::INFINITY).unwrap();
            rel_close(chunked, exact);
        }
    }

    #[test]
    fn bounded_kernels_exit_on_far_pairs() {
        let a = vec![0.0; 64];
        let b = vec![10.0; 64];
        assert_eq!(squared_distance_within_chunked(&a, &b, 1.0), None);
        assert_eq!(normalized_sq_sum_chunked(&a, &b, 1e-9, 1.0), None);
        assert!(squared_distance_within_chunked(&a, &a, 1.0).is_some());
        assert_eq!(normalized_sq_sum_chunked(&a, &a, 1e-9, 1.0), Some(0.0));
    }

    #[test]
    fn bounded_chunked_sum_is_independent_of_the_bound() {
        // The returned value must not depend on where the early-exit checks
        // landed: a surviving pair yields the same sum under any bound.
        let (a, b) = vecs(37, 77);
        let loose = squared_distance_within_chunked(&a, &b, f64::INFINITY).unwrap();
        let tight = squared_distance_within_chunked(&a, &b, loose * (1.0 + 1e-12)).unwrap();
        assert_eq!(loose.to_bits(), tight.to_bits());
    }
}
