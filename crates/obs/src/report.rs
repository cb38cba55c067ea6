//! Canonical-order export of a recorder's contents.
//!
//! Like the snapshot format, the report is a versioned, deterministic text
//! layout: sections and keys appear in a fixed order, floats are printed
//! with fixed precision, and nothing depends on map iteration order. Two
//! classes of values are distinguished:
//!
//! * **simulation-determined** — counters, value-domain histograms (ball-tree
//!   visits, batch op counts), event counts of deterministic kinds. Under
//!   the BSP transport these are bit-stable for a fixed seed; the stable
//!   rendering ([`ObsReport::render_stable`]) contains only these.
//! * **wall-clock / scheduling** — `*_ns` histograms, park/steal/wake
//!   counters, frontier-lag observations. These vary run to run and appear
//!   only in the full rendering ([`ObsReport::render`]).

use crate::{Event, Metrics, ShardLag};

/// Number of trailing trace events the full rendering includes.
const TRACE_TAIL: usize = 16;

/// Deterministic summary of one [`crate::LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Largest observed value.
    pub max: u64,
    /// Mean observed value.
    pub mean: f64,
    /// p50 bucket lower bound.
    pub p50: u64,
    /// p90 bucket lower bound.
    pub p90: u64,
    /// p99 bucket lower bound.
    pub p99: u64,
}

impl HistogramSummary {
    fn of(h: &crate::LogHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            max: h.max(),
            mean: h.mean(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
        }
    }
}

/// A snapshot of everything a [`crate::Recorder`] collected, in canonical
/// order, ready to render as text or JSON.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// `(name, value)` counters, sorted by name. Callers may append extra
    /// domain counters (e.g. per-shard repository stats) before rendering.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` histograms, sorted by name; names ending in `_ns`
    /// hold wall-clock values.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-shard frontier lag, indexed by shard.
    pub shard_lag: Vec<ShardLag>,
    /// `(kind, count)` trace-event counts, sorted by kind.
    pub event_counts: Vec<(String, u64)>,
    /// Events evicted from the ring buffer.
    pub events_dropped: u64,
    /// The last few retained events, rendered, oldest first.
    pub trace_tail: Vec<String>,
}

/// Counters whose values depend on thread scheduling, not the simulation.
/// `scratch_bytes_saved` is here because capacity reuse depends on the order
/// buffers fill, which the async transport leaves to arrival order. The
/// `durable_*` trio is here because fold sizes and byte counts track the
/// commit interleaving, which K > 0 runs leave to scheduling.
const SCHEDULING_COUNTERS: [&str; 7] = [
    "durable_bytes",
    "durable_folds",
    "durable_segments",
    "parks",
    "scratch_bytes_saved",
    "steals",
    "wakes",
];

/// Event kinds whose counts are simulation-determined under BSP. Fault and
/// recovery kinds are excluded: they only occur on the async transport,
/// where the stable rendering makes no bit-stability promise.
const STABLE_EVENT_KINDS: [&str; 6] = [
    "epoch_begin",
    "epoch_commit",
    "shard_commit",
    "snapshot_load",
    "snapshot_save",
    "ttl_sweep",
];

impl ObsReport {
    pub(crate) fn build(metrics: &Metrics, events: Vec<Event>, dropped: u64) -> Self {
        let counters = vec![
            ("checkpoints".to_string(), metrics.checkpoints.get()),
            (
                "committer_restarts".to_string(),
                metrics.committer_restarts.get(),
            ),
            ("durable_bytes".to_string(), metrics.durable_bytes.get()),
            ("durable_folds".to_string(), metrics.durable_folds.get()),
            (
                "durable_segments".to_string(),
                metrics.durable_segments.get(),
            ),
            ("faults_injected".to_string(), metrics.faults_injected.get()),
            ("memo_hits".to_string(), metrics.memo_hits.get()),
            ("memo_misses".to_string(), metrics.memo_misses.get()),
            ("parks".to_string(), metrics.parks.get()),
            ("recoveries".to_string(), metrics.recoveries.get()),
            ("replayed_epochs".to_string(), metrics.replayed_epochs.get()),
            ("retransmits".to_string(), metrics.retransmits.get()),
            (
                "scratch_bytes_saved".to_string(),
                metrics.scratch_bytes_saved.get(),
            ),
            ("steals".to_string(), metrics.steals.get()),
            ("sweep_reclaimed".to_string(), metrics.sweep_reclaimed.get()),
            ("wakes".to_string(), metrics.wakes.get()),
        ];
        let gauges = vec![("finalize_ns".to_string(), metrics.finalize_ns.get())];
        let histograms = vec![
            (
                "commit_batch_ns".to_string(),
                HistogramSummary::of(&metrics.commit_batch_ns),
            ),
            (
                "commit_batch_ops".to_string(),
                HistogramSummary::of(&metrics.commit_batch_ops),
            ),
            (
                "epoch_ns".to_string(),
                HistogramSummary::of(&metrics.epoch_ns),
            ),
            (
                "lookup_ns".to_string(),
                HistogramSummary::of(&metrics.lookup_ns),
            ),
            (
                "peek_ns".to_string(),
                HistogramSummary::of(&metrics.peek_ns),
            ),
            (
                "publish_ns".to_string(),
                HistogramSummary::of(&metrics.publish_ns),
            ),
            (
                "tree_visits".to_string(),
                HistogramSummary::of(&metrics.tree_visits),
            ),
        ];
        let mut event_counts: Vec<(String, u64)> = Vec::new();
        for event in &events {
            let kind = event.kind();
            match event_counts.iter_mut().find(|(name, _)| name == kind) {
                Some((_, count)) => *count += 1,
                None => event_counts.push((kind.to_string(), 1)),
            }
        }
        event_counts.sort();
        let trace_tail = events
            .iter()
            .rev()
            .take(TRACE_TAIL)
            .rev()
            .map(Event::render)
            .collect();
        ObsReport {
            counters,
            gauges,
            histograms,
            shard_lag: metrics.shard_lag.snapshot(),
            event_counts,
            events_dropped: dropped,
            trace_tail,
        }
    }

    /// Appends a caller-provided counter (re-sorted into canonical order).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
        self.counters.sort();
    }

    /// The full canonical text rendering (includes wall-clock and
    /// scheduling values, which vary run to run).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("dejavu-obs report v1\n");
        out.push_str("counters\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name} {value}\n"));
        }
        out.push_str("gauges\n");
        for (name, value) in &self.gauges {
            out.push_str(&format!("  {name} {value}\n"));
        }
        out.push_str("histograms\n");
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  {name} count={} max={} mean={:.3} p50={} p90={} p99={}\n",
                h.count, h.max, h.mean, h.p50, h.p90, h.p99
            ));
        }
        out.push_str("shard_lag\n");
        for (shard, lag) in self.shard_lag.iter().enumerate() {
            out.push_str(&format!(
                "  shard {shard} observations={} mean={:.3} max={}\n",
                lag.observations,
                lag.mean(),
                lag.max
            ));
        }
        let total: u64 = self.event_counts.iter().map(|(_, c)| c).sum();
        out.push_str(&format!(
            "events total={total} dropped={}\n",
            self.events_dropped
        ));
        for (kind, count) in &self.event_counts {
            out.push_str(&format!("  {kind} {count}\n"));
        }
        out.push_str(&format!("trace tail (last {})\n", self.trace_tail.len()));
        for line in &self.trace_tail {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }

    /// The simulation-determined subset: counters minus scheduling ones,
    /// value-domain histograms in full, `*_ns` histograms by count only,
    /// and deterministic event kinds. Bit-stable for a fixed seed under the
    /// BSP transport.
    pub fn render_stable(&self) -> String {
        let mut out = String::new();
        out.push_str("dejavu-obs stable v1\n");
        out.push_str("counters\n");
        for (name, value) in &self.counters {
            if !SCHEDULING_COUNTERS.contains(&name.as_str()) {
                out.push_str(&format!("  {name} {value}\n"));
            }
        }
        out.push_str("histograms\n");
        for (name, h) in &self.histograms {
            if name.ends_with("_ns") {
                out.push_str(&format!("  {name} count={}\n", h.count));
            } else {
                out.push_str(&format!(
                    "  {name} count={} max={} mean={:.3} p50={} p90={} p99={}\n",
                    h.count, h.max, h.mean, h.p50, h.p90, h.p99
                ));
            }
        }
        out.push_str("events\n");
        for (kind, count) in &self.event_counts {
            if STABLE_EVENT_KINDS.contains(&kind.as_str()) {
                out.push_str(&format!("  {kind} {count}\n"));
            }
        }
        out
    }

    /// The full report as a single canonical JSON object (sorted keys,
    /// fixed float precision) — the same data as [`ObsReport::render`].
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"version\": 1, \"counters\": {");
        push_pairs(&mut out, &self.counters);
        out.push_str("}, \"gauges\": {");
        push_pairs(&mut out, &self.gauges);
        out.push_str("}, \"histograms\": {");
        for (index, (name, h)) in self.histograms.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"count\": {}, \"max\": {}, \"mean\": {:.3}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count, h.max, h.mean, h.p50, h.p90, h.p99
            ));
        }
        out.push_str("}, \"shard_lag\": [");
        for (shard, lag) in self.shard_lag.iter().enumerate() {
            if shard > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"shard\": {shard}, \"observations\": {}, \"mean\": {:.3}, \"max\": {}}}",
                lag.observations,
                lag.mean(),
                lag.max
            ));
        }
        out.push_str(&format!(
            "], \"events\": {{\"dropped\": {}, \"counts\": {{",
            self.events_dropped
        ));
        push_pairs(&mut out, &self.event_counts);
        out.push_str("}}}");
        out
    }
}

fn push_pairs(out: &mut String, pairs: &[(String, u64)]) {
    for (index, (name, value)) in pairs.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {value}"));
    }
}

#[cfg(test)]
mod tests {
    use crate::{Event, Recorder};

    fn sample() -> Recorder {
        let rec = Recorder::enabled();
        rec.with(|m| {
            m.memo_hits.add(7);
            m.memo_misses.add(3);
            m.steals.add(2);
            m.tree_visits.record(5);
            m.tree_visits.record(9);
            m.lookup_ns.record(1000);
            m.finalize_ns.set(42);
            m.shard_lag.observe(0, 1);
        });
        rec.event(|| Event::EpochBegin { epoch: 0 });
        rec.event(|| Event::WorkerSteal { worker: 1 });
        rec.event(|| Event::TtlSweep {
            shard: 0,
            epoch: 0,
            reclaimed: 4,
        });
        rec
    }

    #[test]
    fn render_is_canonical_and_complete() {
        let report = sample().report().unwrap();
        let text = report.render();
        assert!(text.starts_with("dejavu-obs report v1\n"));
        assert!(text.contains("  memo_hits 7\n"));
        assert!(text.contains("  steals 2\n"));
        assert!(text.contains("  finalize_ns 42\n"));
        assert!(text.contains("  tree_visits count=2 max=9 mean=7.000 p50=4 p90=8 p99=8\n"));
        assert!(text.contains("  shard 0 observations=1 mean=1.000 max=1\n"));
        assert!(text.contains("events total=3 dropped=0\n"));
        assert!(text.contains("  ttl_sweep 1\n"));
        assert!(text.contains("  ttl_sweep shard=0 epoch=0 reclaimed=4\n"));
        // Rendering twice is byte-identical (no map iteration order leaks).
        assert_eq!(text, report.render());
    }

    #[test]
    fn stable_render_omits_wall_clock_and_scheduling_values() {
        let report = sample().report().unwrap();
        let stable = report.render_stable();
        assert!(stable.starts_with("dejavu-obs stable v1\n"));
        assert!(stable.contains("  memo_hits 7\n"));
        assert!(!stable.contains("steals"));
        assert!(stable.contains("  lookup_ns count=1\n"));
        assert!(!stable.contains("lookup_ns count=1 max"));
        assert!(stable.contains("  tree_visits count=2 max=9"));
        assert!(stable.contains("  ttl_sweep 1\n"));
        assert!(!stable.contains("worker_steal"));
    }

    #[test]
    fn extra_counters_sort_into_place() {
        let mut report = sample().report().unwrap();
        report.push_counter("aaa_first", 1);
        report.push_counter("zzz_last", 2);
        let text = report.render();
        let a = text.find("aaa_first").unwrap();
        let m = text.find("memo_hits").unwrap();
        let z = text.find("zzz_last").unwrap();
        assert!(a < m && m < z);
    }

    #[test]
    fn json_render_is_wellformed_enough_to_grep() {
        let json = sample().report().unwrap().render_json();
        assert!(json.starts_with("{\"version\": 1, "));
        assert!(json.contains("\"memo_hits\": 7"));
        assert!(json.contains("\"tree_visits\": {\"count\": 2"));
        assert!(json.contains("\"shard_lag\": [{\"shard\": 0"));
        assert!(json.contains("\"counts\": {\"epoch_begin\": 1"));
        assert!(json.ends_with("}}}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
