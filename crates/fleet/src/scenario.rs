//! Fleet scenarios: which tenants run, on what traces, with what services.
//!
//! A [`Scenario`] is a reproducible description of a whole fleet: every tenant
//! gets a deterministic seed derived from the scenario seed, so two runs of
//! the same scenario are bit-identical. The [`ScenarioBuilder`] composes
//! tenant *families* — groups whose workloads genuinely recur across members
//! (same service, same request mix, traces drawn from a small seed pool) —
//! because recurrence is precisely what makes a shared signature repository
//! pay off.

use crate::engine::RunConfig;
use crate::shared_repo::{namespace_for, TenantId};
use dejavu_cloud::{AllocationSpace, InterferenceSchedule};
use dejavu_services::{
    CassandraService, RubisService, ServiceModel, SpecWebService, SpecWebWorkload,
};
use dejavu_simcore::SimDuration;
use dejavu_traces::{
    hotmail_week, messenger_week, sine_trace, spikes::with_flash_crowds, LoadTrace, RequestMix,
    ServiceKind,
};

/// Which allocation lattice a tenant scales over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// Horizontal scaling over `min..=max` large instances.
    ScaleOut {
        /// Minimum instance count.
        min: u32,
        /// Maximum instance count.
        max: u32,
    },
    /// Vertical scaling of a fixed instance count (large ↔ extra-large).
    ScaleUp {
        /// The fixed instance count.
        instances: u32,
    },
}

impl SpaceKind {
    /// Materializes the allocation space.
    pub fn space(self) -> AllocationSpace {
        match self {
            SpaceKind::ScaleOut { min, max } => {
                AllocationSpace::scale_out(min, max).expect("builder ranges are valid")
            }
            SpaceKind::ScaleUp { instances } => {
                AllocationSpace::scale_up(instances).expect("builder counts are valid")
            }
        }
    }
}

/// Which service model a tenant deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceSpec {
    /// Cassandra-like store under the YCSB update-heavy mix.
    CassandraUpdateHeavy,
    /// SPECweb-like 3-tier web service.
    SpecWeb(SpecWebWorkload),
    /// RUBiS-like auction site with the default browsing mix.
    RubisBrowsing,
}

impl ServiceSpec {
    /// Builds the service model.
    pub fn build(self) -> Box<dyn ServiceModel> {
        match self {
            ServiceSpec::CassandraUpdateHeavy => Box::new(CassandraService::update_heavy()),
            ServiceSpec::SpecWeb(workload) => Box::new(SpecWebService::new(workload)),
            ServiceSpec::RubisBrowsing => Box::new(RubisService::default_browsing()),
        }
    }

    /// The service kind, for namespacing.
    pub fn kind(self) -> ServiceKind {
        match self {
            ServiceSpec::CassandraUpdateHeavy => ServiceKind::Cassandra,
            ServiceSpec::SpecWeb(_) => ServiceKind::SpecWeb,
            ServiceSpec::RubisBrowsing => ServiceKind::Rubis,
        }
    }

    /// The request mix the family's clients offer.
    pub fn mix(self) -> RequestMix {
        self.build().default_mix()
    }
}

/// One tenant of the fleet.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Fleet-wide tenant id (also the deterministic commit order).
    pub id: TenantId,
    /// Label used in reports.
    pub name: String,
    /// The deployed service.
    pub service: ServiceSpec,
    /// The load trace driving this tenant.
    pub trace: LoadTrace,
    /// Request mix offered by the tenant's clients.
    pub mix: RequestMix,
    /// The allocation lattice the tenant scales over.
    pub space: SpaceKind,
    /// Interference injected by the tenant's co-located neighbours.
    pub interference: InterferenceSchedule,
    /// Deterministic per-tenant seed (client noise, profiling, clustering).
    pub seed: u64,
    /// Fleet time at which the tenant joins. The BSP engine admits tenants at
    /// epoch barriers, so the effective join is the first barrier at or after
    /// this time; the tenant's trace (and local clock) starts there.
    pub start: SimDuration,
    /// Fleet time at which the tenant retires (truncating its trace), if it
    /// leaves mid-run. Retirement also happens at the next epoch barrier.
    pub stop: Option<SimDuration>,
}

impl TenantSpec {
    /// The namespace this tenant shares entries under: tenants with the same
    /// service kind, request mix and allocation space can reuse each other's
    /// tuning decisions; everyone else is isolated by construction.
    pub fn namespace(&self) -> u64 {
        namespace_for(self.service.kind(), self.mix, &self.space.space())
    }

    /// Builds the single-tenant run configuration.
    pub fn run_config(&self, tick: SimDuration) -> RunConfig {
        let base = match self.space {
            SpaceKind::ScaleOut { .. } => {
                RunConfig::scale_out(self.name.clone(), self.trace.clone(), self.mix, self.seed)
            }
            SpaceKind::ScaleUp { .. } => {
                RunConfig::scale_up(self.name.clone(), self.trace.clone(), self.mix, self.seed)
            }
        };
        base.with_interference(self.interference.clone())
            .with_tick(tick)
    }
}

/// A reproducible fleet description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label.
    pub name: String,
    /// The tenants, in commit order.
    pub tenants: Vec<TenantSpec>,
    /// Observation tick of every tenant engine.
    pub tick: SimDuration,
    /// Epoch length: worker threads synchronize on the shared repository at
    /// every epoch boundary.
    pub epoch: SimDuration,
}

/// One tenant's nominal tenancy window in whole epochs, derived from its
/// start/stop times and trace duration. Admission and retirement are
/// epoch-aligned, so these windows are what every commit transport schedules
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochWindow {
    /// First global epoch in which the tenant steps (its join barrier).
    pub start: usize,
    /// Global epoch count at whose barrier the tenant retires, if it leaves
    /// before its trace runs out.
    pub stop: Option<usize>,
    /// Nominal end of the window (exclusive): `min(stop, start + trace
    /// epochs)`.
    pub end: usize,
}

impl Scenario {
    /// Every tenant's [`EpochWindow`], in tenant order.
    pub fn epoch_windows(&self) -> Vec<EpochWindow> {
        let epoch_secs = self.epoch.as_secs();
        let to_epochs = |secs: f64| (secs / epoch_secs).ceil() as usize;
        self.tenants
            .iter()
            .map(|spec| {
                let start = to_epochs(spec.start.as_secs());
                let stop = spec.stop.map(|stop| to_epochs(stop.as_secs()).max(start));
                let trace_epochs = to_epochs(spec.trace.duration().as_secs());
                let end = match stop {
                    Some(stop) => stop.min(start + trace_epochs),
                    None => start + trace_epochs,
                };
                EpochWindow { start, stop, end }
            })
            .collect()
    }

    /// The fleet horizon: the epoch count covering every tenant's window.
    pub fn horizon_epochs(&self) -> usize {
        self.epoch_windows()
            .iter()
            .map(|w| w.end)
            .max()
            .unwrap_or(0)
    }
}

/// SplitMix64 — derives stable per-tenant seeds from the scenario seed.
fn mix_seed(base: u64, salt: u64) -> u64 {
    let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds scenarios out of tenant families.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    seed: u64,
    days: usize,
    tick: SimDuration,
    epoch: SimDuration,
    tenants: Vec<TenantSpec>,
}

impl ScenarioBuilder {
    /// Starts a scenario with the given label and master seed, simulating
    /// `days` days per tenant (capped at the week the traces cover).
    pub fn new(name: impl Into<String>, seed: u64, days: usize) -> Self {
        ScenarioBuilder {
            name: name.into(),
            seed,
            days: days.clamp(1, 7),
            tick: SimDuration::from_secs(120.0),
            epoch: SimDuration::from_hours(1.0),
            tenants: Vec::new(),
        }
    }

    /// Overrides the observation tick (default 120 s).
    pub fn tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }

    /// Overrides the epoch length (default 1 h).
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    fn push(
        &mut self,
        family: &str,
        service: ServiceSpec,
        trace: LoadTrace,
        space: SpaceKind,
        interference: InterferenceSchedule,
    ) {
        let id = self.tenants.len();
        self.tenants.push(TenantSpec {
            id,
            name: format!("{family}-{id}"),
            service,
            mix: service.mix(),
            trace,
            space,
            interference,
            seed: mix_seed(self.seed, id as u64 + 1),
            start: SimDuration::from_secs(0.0),
            stop: None,
        });
    }

    /// Adds `n` Cassandra tenants on diurnal HotMail/Messenger-style traces —
    /// the bread-and-butter fleet whose day-to-day workloads recur across
    /// members (traces come from a pool of 3 seeds per family).
    pub fn diurnal_fleet(mut self, n: usize) -> Self {
        for i in 0..n {
            let trace_seed = 1 + (i % 3) as u64;
            let trace = if i % 2 == 0 {
                hotmail_week(trace_seed)
            } else {
                messenger_week(trace_seed)
            };
            self.push(
                "diurnal",
                ServiceSpec::CassandraUpdateHeavy,
                trace.days(0, self.days),
                SpaceKind::ScaleOut { min: 1, max: 10 },
                InterferenceSchedule::none(),
            );
        }
        self
    }

    /// Adds `n` Cassandra tenants whose diurnal traces are hit by flash
    /// crowds, exercising the unforeseen-workload fallback fleet-wide.
    pub fn spike_storm(mut self, n: usize) -> Self {
        for i in 0..n {
            let trace_seed = 1 + (i % 3) as u64;
            let base = messenger_week(trace_seed).days(0, self.days);
            let trace = with_flash_crowds(&base, 2, 1.35, mix_seed(self.seed, 0x5710 + i as u64));
            self.push(
                "spike",
                ServiceSpec::CassandraUpdateHeavy,
                trace,
                SpaceKind::ScaleOut { min: 1, max: 10 },
                InterferenceSchedule::none(),
            );
        }
        self
    }

    /// Adds `n` RUBiS tenants under sine-wave loads with a small pool of
    /// periods/amplitudes (Figure 1's workload, fleet-sized).
    pub fn sine_sweep(mut self, n: usize) -> Self {
        for i in 0..n {
            let period_hours = [6.0, 8.0, 12.0][i % 3];
            let base = [0.45, 0.55][i % 2];
            let amplitude = [0.3, 0.35][(i / 2) % 2];
            let trace = sine_trace(
                &format!("sine-{period_hours}h"),
                SimDuration::from_hours(1.0),
                SimDuration::from_days(self.days as f64),
                SimDuration::from_hours(period_hours),
                base,
                amplitude,
            )
            .expect("builder sine parameters are valid");
            self.push(
                "sine",
                ServiceSpec::RubisBrowsing,
                trace,
                SpaceKind::ScaleOut { min: 1, max: 10 },
                InterferenceSchedule::none(),
            );
        }
        self
    }

    /// Adds `n` Cassandra tenants co-located with noisy neighbours (the
    /// paper's §4.3 interference microbenchmark, fleet-sized).
    pub fn interference_heavy(mut self, n: usize) -> Self {
        for i in 0..n {
            let trace_seed = 1 + (i % 3) as u64;
            self.push(
                "interference",
                ServiceSpec::CassandraUpdateHeavy,
                hotmail_week(trace_seed).days(0, self.days),
                SpaceKind::ScaleOut { min: 1, max: 10 },
                InterferenceSchedule::paper_scenario(),
            );
        }
        self
    }

    /// Adds `n` SPECweb tenants (support/banking/e-commerce rotating) on the
    /// scale-up lattice.
    pub fn specweb_fleet(mut self, n: usize) -> Self {
        let workloads = [
            SpecWebWorkload::Support,
            SpecWebWorkload::Banking,
            SpecWebWorkload::Ecommerce,
        ];
        for i in 0..n {
            let trace_seed = 1 + (i % 3) as u64;
            self.push(
                "specweb",
                ServiceSpec::SpecWeb(workloads[i % workloads.len()]),
                hotmail_week(trace_seed).days(0, self.days),
                SpaceKind::ScaleUp { instances: 5 },
                InterferenceSchedule::none(),
            );
        }
        self
    }

    /// Schedules a staggered start for every tenant from id `from` onward:
    /// the first joins the fleet at `first_at`, each subsequent one `every`
    /// later. Tenants added by later family calls keep their default
    /// immediate start unless scheduled again.
    pub fn stagger_arrivals(
        mut self,
        from: usize,
        first_at: SimDuration,
        every: SimDuration,
    ) -> Self {
        for t in self.tenants.iter_mut().skip(from) {
            let wave = t.id - from;
            t.start = first_at + every * wave as f64;
        }
        self
    }

    /// Schedules tenant `tenant` to join the fleet at `at` (effective at the
    /// first epoch barrier at or after `at`).
    pub fn arrive_at(mut self, tenant: usize, at: SimDuration) -> Self {
        self.tenants[tenant].start = at;
        self
    }

    /// Schedules tenant `tenant` to leave the fleet at `at` (effective at the
    /// first epoch barrier at or after `at`), truncating its run.
    pub fn depart_at(mut self, tenant: usize, at: SimDuration) -> Self {
        self.tenants[tenant].stop = Some(at);
        self
    }

    /// Finishes the scenario.
    pub fn build(self) -> Scenario {
        Scenario {
            name: self.name,
            tenants: self.tenants,
            tick: self.tick,
            epoch: self.epoch,
        }
    }
}

/// The standard mixed fleet the `fleet` experiment runs: mostly diurnal
/// tenants, plus spike storms, sine sweeps, interference-heavy co-location and
/// a SPECweb contingent.
///
/// # Panics
///
/// If `tenants` is 0.
pub fn standard_fleet(tenants: usize, days: usize, seed: u64) -> Scenario {
    assert!(
        tenants > 0,
        "standard_fleet: a fleet needs at least one tenant"
    );
    let diurnal = (tenants * 40).div_ceil(100);
    let spike = tenants * 15 / 100;
    let sine = tenants * 15 / 100;
    let interference = tenants * 15 / 100;
    let specweb = tenants - diurnal - spike - sine - interference;
    ScenarioBuilder::new(format!("standard-fleet-{tenants}"), seed, days)
        .diurnal_fleet(diurnal)
        .spike_storm(spike)
        .sine_sweep(sine)
        .interference_heavy(interference)
        .specweb_fleet(specweb)
        .build()
}

/// The standard fleet under churn: the last quarter of the tenants join
/// staggered (one per epoch, starting after `warmup_hours`), and every tenth
/// of the founding tenants departs at the halfway point. Exercises elastic
/// tenancy: newcomers measure how fast the warm shared cache converges them,
/// and departures verify their knowledge survives them.
pub fn churn_fleet(tenants: usize, days: usize, seed: u64, warmup_hours: u64) -> Scenario {
    let mut scenario = standard_fleet(tenants, days, seed);
    scenario.name = format!("churn-fleet-{tenants}");
    let mut builder_tenants = std::mem::take(&mut scenario.tenants);
    let late_from = builder_tenants.len() - builder_tenants.len() / 4;
    for t in builder_tenants.iter_mut().skip(late_from) {
        let wave = t.id - late_from;
        t.start = SimDuration::from_hours(warmup_hours as f64) + scenario.epoch * wave as f64;
    }
    let half = SimDuration::from_hours(days as f64 * 12.0);
    for t in builder_tenants.iter_mut().take(late_from).step_by(10) {
        t.stop = Some(half);
    }
    scenario.tenants = builder_tenants;
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "standard_fleet: a fleet needs at least one tenant")]
    fn standard_fleet_rejects_an_empty_fleet() {
        standard_fleet(0, 1, 7);
    }

    #[test]
    fn standard_fleet_has_requested_size_and_unique_ids() {
        let s = standard_fleet(20, 2, 7);
        assert_eq!(s.tenants.len(), 20);
        for (i, t) in s.tenants.iter().enumerate() {
            assert_eq!(t.id, i);
        }
        let seeds: std::collections::HashSet<u64> = s.tenants.iter().map(|t| t.seed).collect();
        assert_eq!(seeds.len(), 20, "per-tenant seeds must be distinct");
    }

    #[test]
    fn scenarios_are_reproducible() {
        let a = standard_fleet(8, 2, 42);
        let b = standard_fleet(8, 2, 42);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.trace.levels(), y.trace.levels());
        }
    }

    #[test]
    fn same_family_tenants_share_a_namespace() {
        let s = ScenarioBuilder::new("ns", 1, 2)
            .diurnal_fleet(4)
            .specweb_fleet(4)
            .build();
        assert_eq!(s.tenants[0].namespace(), s.tenants[1].namespace());
        assert_ne!(s.tenants[0].namespace(), s.tenants[4].namespace());
        // SPECweb workloads rotate every 3 tenants: 4 and 7 run Support again.
        assert_eq!(s.tenants[4].namespace(), s.tenants[7].namespace());
        assert_ne!(s.tenants[4].namespace(), s.tenants[5].namespace());
    }

    #[test]
    fn churn_fleet_staggers_late_joiners_and_schedules_departures() {
        let s = churn_fleet(20, 2, 7, 24);
        assert_eq!(s.tenants.len(), 20);
        // Founding tenants start immediately; the last quarter is staggered.
        assert!(s.tenants[..15].iter().all(|t| t.start.is_zero()));
        for (i, t) in s.tenants[15..].iter().enumerate() {
            let expected = SimDuration::from_hours(24.0) + s.epoch * i as f64;
            assert_eq!(t.start.as_secs(), expected.as_secs(), "tenant {}", t.id);
            assert!(t.stop.is_none(), "late joiners stay");
        }
        // Every tenth founder departs at the halfway point.
        let leavers: Vec<usize> = s
            .tenants
            .iter()
            .filter(|t| t.stop.is_some())
            .map(|t| t.id)
            .collect();
        assert_eq!(leavers, vec![0, 10]);
        assert_eq!(
            s.tenants[0].stop.unwrap().as_secs(),
            SimDuration::from_hours(24.0).as_secs()
        );
        // The schedule is derived deterministically from the scenario.
        let again = churn_fleet(20, 2, 7, 24);
        for (a, b) in s.tenants.iter().zip(&again.tenants) {
            assert_eq!(a.start.as_secs(), b.start.as_secs());
            assert_eq!(a.stop.map(|d| d.as_secs()), b.stop.map(|d| d.as_secs()));
        }
    }

    #[test]
    fn stagger_and_window_builders_set_tenant_schedules() {
        let s = ScenarioBuilder::new("windows", 1, 2)
            .diurnal_fleet(4)
            .stagger_arrivals(
                2,
                SimDuration::from_hours(2.0),
                SimDuration::from_hours(1.0),
            )
            .arrive_at(1, SimDuration::from_hours(5.0))
            .depart_at(0, SimDuration::from_hours(30.0))
            .build();
        assert!(s.tenants[0].start.is_zero());
        assert_eq!(s.tenants[1].start.as_hours(), 5.0);
        assert_eq!(s.tenants[2].start.as_hours(), 2.0);
        assert_eq!(s.tenants[3].start.as_hours(), 3.0);
        assert_eq!(s.tenants[0].stop.unwrap().as_hours(), 30.0);
        assert!(s.tenants[3].stop.is_none());
    }

    #[test]
    fn epoch_windows_are_barrier_aligned() {
        let s = ScenarioBuilder::new("win", 1, 2)
            .diurnal_fleet(3)
            .arrive_at(1, SimDuration::from_hours(5.5))
            .depart_at(2, SimDuration::from_hours(30.0))
            .build();
        let w = s.epoch_windows();
        assert_eq!(
            w[0],
            EpochWindow {
                start: 0,
                stop: None,
                end: 48
            }
        );
        // A mid-epoch arrival is admitted at the next barrier; the trace
        // still runs in full, shifted.
        assert_eq!(
            w[1],
            EpochWindow {
                start: 6,
                stop: None,
                end: 54
            }
        );
        assert_eq!(
            w[2],
            EpochWindow {
                start: 0,
                stop: Some(30),
                end: 30
            }
        );
        assert_eq!(s.horizon_epochs(), 54);
    }

    #[test]
    fn run_configs_follow_the_space_kind() {
        let s = ScenarioBuilder::new("rc", 1, 1)
            .diurnal_fleet(1)
            .specweb_fleet(1)
            .build();
        let out = s.tenants[0].run_config(s.tick);
        assert_eq!(out.space.len(), 10);
        let up = s.tenants[1].run_config(s.tick);
        assert_eq!(up.space.len(), 2);
        assert_eq!(out.tick, s.tick);
    }
}
