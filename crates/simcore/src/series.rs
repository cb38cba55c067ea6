//! Time series of `(SimTime, value)` points with the reductions the experiment
//! reports need (hourly averages, time-weighted integrals, SLO-violation
//! fractions).

use crate::time::{SimTime, SECS_PER_HOUR};

/// An append-only series of timestamped values.
///
/// Values are expected to be appended in non-decreasing time order; the series
/// enforces this because out-of-order points would silently corrupt the
/// time-weighted reductions used for cost accounting.
///
/// # Example
///
/// ```
/// use dejavu_simcore::{SimTime, TimeSeries};
/// let mut s = TimeSeries::new("latency_ms");
/// s.push(SimTime::from_secs(0.0), 10.0);
/// s.push(SimTime::from_secs(60.0), 20.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.mean(), 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a human-readable name (used in reports).
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty series preallocated for `capacity` samples — use when
    /// the sample count is known up front (one per observation tick).
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last appended point.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(
                time.as_secs() >= last,
                "time series {} must be appended in order ({} < {})",
                self.name,
                time.as_secs(),
                last
            );
        }
        self.times.push(time.as_secs());
        self.values.push(value);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over `(SimTime, value)` points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times
            .iter()
            .zip(self.values.iter())
            .map(|(&t, &v)| (SimTime::from_secs(t), v))
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The raw timestamps, in seconds.
    pub fn times_secs(&self) -> &[f64] {
        &self.times
    }

    /// Unweighted mean of the values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum value, if any.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.max(v)),
        })
    }

    /// Minimum value, if any.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.min(v)),
        })
    }

    /// Fraction of points whose value exceeds `threshold` (0.0 if empty).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v > threshold).count() as f64 / self.values.len() as f64
    }

    /// Fraction of points whose value is below `threshold` (0.0 if empty).
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v < threshold).count() as f64 / self.values.len() as f64
    }

    /// Time-weighted integral of the series (each value held until the next
    /// point), i.e. `sum(value_i * (t_{i+1} - t_i))`. The last point contributes
    /// until `end`.
    ///
    /// This is what turns an instance-count series into instance-hours for the
    /// cost reports.
    pub fn integral_until(&self, end: SimTime) -> f64 {
        let mut total = 0.0;
        for i in 0..self.times.len() {
            let t0 = self.times[i];
            let t1 = if i + 1 < self.times.len() {
                self.times[i + 1]
            } else {
                end.as_secs().max(t0)
            };
            total += self.values[i] * (t1 - t0);
        }
        total
    }

    /// Averages the series into per-hour buckets covering `[0, hours)`.
    /// Hours with no points get the previous hour's last value (or 0.0 at the
    /// start), matching how a step-valued allocation series behaves.
    pub fn hourly_means(&self, hours: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; hours];
        let mut sums = vec![0.0; hours];
        let mut counts = vec![0usize; hours];
        for (&t, &v) in self.times.iter().zip(self.values.iter()) {
            let h = (t / SECS_PER_HOUR) as usize;
            if h < hours {
                sums[h] += v;
                counts[h] += 1;
            }
        }
        let mut last = 0.0;
        for h in 0..hours {
            if counts[h] > 0 {
                last = sums[h] / counts[h] as f64;
            }
            out[h] = last;
        }
        out
    }

    /// Value in effect at `time` (the latest point at or before `time`), if any.
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        let t = time.as_secs();
        let idx = self.times.partition_point(|&x| x <= t);
        if idx == 0 {
            None
        } else {
            Some(self.values[idx - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("test");
        for &(t, v) in points {
            s.push(SimTime::from_secs(t), v);
        }
        s
    }

    #[test]
    fn basic_reductions() {
        let s = series(&[(0.0, 1.0), (10.0, 3.0), (20.0, 5.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.name(), "test");
    }

    #[test]
    fn fraction_above_and_below() {
        let s = series(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]);
        assert!((s.fraction_above(2.5) - 0.5).abs() < 1e-12);
        assert!((s.fraction_below(1.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn integral_holds_last_value() {
        // 2 instances for 100 s then 4 instances for 100 s.
        let s = series(&[(0.0, 2.0), (100.0, 4.0)]);
        let integral = s.integral_until(SimTime::from_secs(200.0));
        assert!((integral - (2.0 * 100.0 + 4.0 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn hourly_means_forward_fill() {
        let mut s = TimeSeries::new("alloc");
        s.push(SimTime::from_hours(0.0), 2.0);
        s.push(SimTime::from_hours(2.0), 6.0);
        let means = s.hourly_means(4);
        assert_eq!(means, vec![2.0, 2.0, 6.0, 6.0]);
    }

    #[test]
    fn value_at_lookup() {
        let s = series(&[(10.0, 1.0), (20.0, 2.0)]);
        assert_eq!(s.value_at(SimTime::from_secs(5.0)), None);
        assert_eq!(s.value_at(SimTime::from_secs(10.0)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(15.0)), Some(1.0));
        assert_eq!(s.value_at(SimTime::from_secs(25.0)), Some(2.0));
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new("bad");
        s.push(SimTime::from_secs(10.0), 1.0);
        s.push(SimTime::from_secs(5.0), 2.0);
    }

    #[test]
    fn empty_series_reductions() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), None);
        assert_eq!(s.integral_until(SimTime::from_secs(100.0)), 0.0);
        assert_eq!(s.hourly_means(3), vec![0.0, 0.0, 0.0]);
    }
}
