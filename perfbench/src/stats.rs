//! Small statistics and process helpers shared by the workloads.

use dejavu_fleet::{FleetReport, TenantOutcome};

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean of `values`; 0 if empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice; 0 if empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its `(p50, p99)`.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (quantile(samples, 0.50), quantile(samples, 0.99))
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

/// A bit-exact digest of one tenant's outcome: its DejaVu run (every
/// recorded series, cost, SLO and adaptation), its controller statistics and
/// its fleet bookkeeping.
pub fn tenant_digest(t: &TenantOutcome) -> u64 {
    let mut h = Fnv::new();
    h.word(t.id as u64);
    h.word(t.namespace);
    let run = &t.dejavu;
    h.word(run.slo_violation_fraction.to_bits());
    h.word(run.total_cost.to_bits());
    h.word(run.reuse_cost.to_bits());
    h.floats(run.load.values());
    h.floats(run.instance_count.values());
    h.floats(run.capacity_units.values());
    h.floats(run.latency_ms.values());
    h.floats(run.qos_percent.values());
    h.floats(&run.settle_times_secs);
    h.word(run.adaptations.len() as u64);
    for a in &run.adaptations {
        h.word(a.started_at.as_secs().to_bits());
        h.word(a.completed_at.as_secs().to_bits());
        h.word(a.to.capacity_units().to_bits());
    }
    h.word(run.end.as_secs().to_bits());
    digest_stats(&mut h, t);
    h.0
}

fn digest_stats(h: &mut Fnv, t: &TenantOutcome) {
    let s = &t.stats;
    for w in [
        s.signatures_collected as u64,
        s.tunings as u64,
        s.cache_hits,
        s.unforeseen,
        s.repository_misses,
        s.num_classes as u64,
        s.reclusterings as u64,
        s.interference_compensations,
        s.fleet_reuses,
        s.repository.hits,
        s.repository.misses,
        s.repository.insertions,
        t.cross_tenant_hits,
        t.joined_epoch as u64,
        t.active_epochs as u64,
        t.first_fleet_reuse_epoch.map_or(u64::MAX, |e| e as u64),
        t.failed_epoch.map_or(u64::MAX, |e| e as u64),
    ] {
        h.word(w);
    }
    h.floats(&s.adaptation_times_secs);
}

/// The bit-exact fingerprint of a fleet report: one digest per tenant, in
/// tenant order, and the fleet hit-rate curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportDigest {
    tenants: Vec<u64>,
    curve: Vec<u64>,
}

impl ReportDigest {
    pub fn of(report: &FleetReport) -> Self {
        ReportDigest {
            tenants: report.tenants.iter().map(tenant_digest).collect(),
            curve: report.hit_rate_curve.iter().map(|v| v.to_bits()).collect(),
        }
    }

    /// Describes the first tenant of `outcomes` that differs from this
    /// reference, if any.
    pub fn diff_tenants(&self, what: &str, outcomes: &[TenantOutcome]) -> Option<String> {
        if self.tenants.len() != outcomes.len() {
            return Some(format!(
                "{what}: {} tenants vs {} in the reference",
                outcomes.len(),
                self.tenants.len()
            ));
        }
        let i = self
            .tenants
            .iter()
            .zip(outcomes)
            .position(|(&d, t)| d != tenant_digest(t))?;
        Some(format!(
            "{what}: tenant {i} outcome differs from the reference"
        ))
    }

    /// Describes the first difference of `report` from this reference, if any.
    pub fn diff(&self, what: &str, report: &FleetReport) -> Option<String> {
        if let Some(d) = self.diff_tenants(what, &report.tenants) {
            return Some(d);
        }
        if self.curve != ReportDigest::of(report).curve {
            return Some(format!("{what}: hit-rate curve differs from the reference"));
        }
        None
    }
}
