//! The served Equation 8 and failure-probability answers come from one table type,
//! `tcp_core::AgeCurves`, shared with `TabulatedLifetime`.  These tests pin that path:
//! served answers equal the engine's earlier bare-interpolant evaluation bit for bit,
//! and every non-bathtub cell pack answers exactly what its winner's
//! `TabulatedLifetime` answers, apart from the one documented deadline window.

use proptest::prelude::*;
use std::sync::OnceLock;
use tcp_advisor::{
    AdviceRequest, AdviceResponse, ModelPack, MultiAdvisor, MultiPack, PackBuilder, RegimePack,
};
use tcp_numerics::interp::LinearInterp;
use tcp_scenarios::SweepSpec;

/// The served Equation 8 and failure probability as the engine evaluated them before
/// `AgeCurves`: bare interpolant lookups over the pack's curves, no clamps.
struct ReferenceEngine {
    horizon: f64,
    survival: LinearInterp,
    first_moment: LinearInterp,
}

impl ReferenceEngine {
    fn new(regime: &RegimePack) -> Self {
        ReferenceEngine {
            horizon: regime.horizon_hours,
            survival: LinearInterp::new(regime.ages.clone(), regime.survival.clone()).unwrap(),
            first_moment: LinearInterp::new(regime.ages.clone(), regime.first_moment.clone())
                .unwrap(),
        }
    }

    fn makespan(&self, vm_age: f64, job_len: f64) -> f64 {
        let s = vm_age.min(self.horizon);
        let u = (vm_age + job_len).min(self.horizon);
        job_len + self.first_moment.eval(u) - self.first_moment.eval(s)
    }

    fn failure_probability(&self, vm_age: f64, job_len: f64) -> f64 {
        if vm_age + job_len >= self.horizon {
            return 1.0;
        }
        let alive = self.survival.eval(vm_age);
        if alive <= 1e-12 {
            return 1.0;
        }
        ((alive - self.survival.eval(vm_age + job_len)) / alive).clamp(0.0, 1.0)
    }

    /// The five Equation 8 / failure fields, in the order [`served_fields`] reads them.
    fn fields(&self, vm_age: f64, job_len: f64) -> [Option<u64>; 5] {
        let live = vm_age < self.horizon;
        [
            live.then(|| self.makespan(vm_age, job_len)),
            Some(self.makespan(0.0, job_len)),
            live.then(|| self.makespan(vm_age, job_len)),
            Some(self.failure_probability(vm_age, job_len)),
            Some(self.survival.eval(vm_age)),
        ]
        .map(|v| v.map(f64::to_bits))
    }
}

/// `reuse_makespan_hours`, `fresh_makespan_hours` (should-reuse),
/// `expected_makespan_hours`, `failure_probability` and `survival_probability`
/// (expected-cost-makespan), as bits.
fn served_fields(reuse: &AdviceResponse<'_>, cost: &AdviceResponse<'_>) -> [Option<u64>; 5] {
    [
        reuse.reuse_makespan_hours,
        reuse.fresh_makespan_hours,
        cost.expected_makespan_hours,
        cost.failure_probability,
        cost.survival_probability,
    ]
    .map(|v| v.map(f64::to_bits))
}

/// One served regime: the router that answers it, how to address it, and its tables.
struct Served {
    advisor: &'static MultiAdvisor,
    cell: Option<String>,
    regime: &'static RegimePack,
}

impl Served {
    fn ask(&self, request: AdviceRequest) -> AdviceResponse<'static> {
        let mut request = request;
        request.regime = Some(self.regime.name.clone());
        request.cell = self.cell.clone();
        self.advisor.advise(&request).unwrap()
    }

    fn fields(&self, vm_age: f64, job_len: f64) -> [Option<u64>; 5] {
        let reuse = self.ask(AdviceRequest::should_reuse("", vm_age, job_len));
        let cost = self.ask(AdviceRequest::expected_cost_makespan("", vm_age, job_len));
        served_fields(&reuse, &cost)
    }

    /// The last knot interval below the horizon, `(L − h, L)`.
    fn last_interval(&self) -> (f64, f64) {
        let ages = &self.regime.ages;
        (ages[ages.len() - 2], self.regime.horizon_hours)
    }
}

/// A spec pack at the production 1441 knots: the `paper` bathtub and an exponential.
fn spec_pack() -> &'static ModelPack {
    static PACK: OnceLock<ModelPack> = OnceLock::new();
    PACK.get_or_init(|| {
        let spec = SweepSpec::from_toml(
            r#"
[sweep]
name = "age-curves"
base_seed = 2020

[[regime]]
name = "paper"
kind = "bathtub"
a = 0.45
tau1 = 1.0
tau2 = 0.8

[[regime]]
name = "exp8"
kind = "exponential"
mean_hours = 8.0

[workload]
checkpoint_cost_minutes = [1.0]
dp_step_minutes = 15.0
"#,
        )
        .unwrap();
        PackBuilder {
            max_checkpoint_job_hours: 2.0,
            ..PackBuilder::default()
        }
        .build_from_spec(&spec)
        .unwrap()
    })
}

/// The family-showcase catalog (seed 8, 300 records per cell): its winners span the
/// bathtub, Weibull, exponential, phased and empirical families.
fn showcase_catalog() -> &'static tcp_calibrate::RegimeCatalog {
    static CATALOG: OnceLock<tcp_calibrate::RegimeCatalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let records = tcp_trace::TraceGenerator::new(8)
            .generate_family_showcase(300)
            .unwrap();
        tcp_calibrate::Calibrator::new("showcase")
            .calibrate(&records, "showcase", 0)
            .unwrap()
    })
}

/// Knots of the showcase packs' age grid, as in the CI showcase build.
const SHOWCASE_AGE_POINTS: usize = 241;

/// The showcase per-cell pack set, built with the CI showcase step's knobs.
fn showcase_packs() -> &'static MultiPack {
    static MULTI: OnceLock<MultiPack> = OnceLock::new();
    MULTI.get_or_init(|| {
        PackBuilder {
            age_points: SHOWCASE_AGE_POINTS,
            checkpoint_age_points: 4,
            checkpoint_job_points: 5,
            max_checkpoint_job_hours: 4.0,
            ..PackBuilder::default()
        }
        .build_from_catalog(showcase_catalog(), &[1.0], 15.0, 0)
        .unwrap()
    })
}

/// Every served regime of both pack sets.
fn served_regimes() -> &'static [Served] {
    static SERVED: OnceLock<Vec<Served>> = OnceLock::new();
    SERVED.get_or_init(|| {
        static SPEC: OnceLock<MultiAdvisor> = OnceLock::new();
        static SHOWCASE: OnceLock<MultiAdvisor> = OnceLock::new();
        let spec = SPEC.get_or_init(|| MultiAdvisor::from_pack(spec_pack().clone()).unwrap());
        let showcase =
            SHOWCASE.get_or_init(|| MultiAdvisor::from_multi(showcase_packs().clone()).unwrap());
        let mut served: Vec<Served> = spec_pack()
            .regimes
            .iter()
            .map(|regime| Served {
                advisor: spec,
                cell: None,
                regime,
            })
            .collect();
        let multi = showcase_packs();
        served.push(Served {
            advisor: showcase,
            cell: None,
            regime: &multi.pooled.regimes[0],
        });
        for entry in &multi.cells {
            served.push(Served {
                advisor: showcase,
                cell: Some(entry.cell.clone()),
                regime: &entry.pack.regimes[0],
            });
        }
        served
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn served_answers_equal_the_reference_bit_for_bit(
        age in 0.0f64..30.0,
        job in 0.0f64..30.0,
        frac in 0.0f64..1.0,
        mode in 0usize..4,
    ) {
        // Ages in [0, 30) h, jobs in (0, 30] h; a quarter of the cases put `age + T`
        // inside the last knot interval below L, a quarter put it at or past L.
        let job = 30.0 - job;
        for served in served_regimes() {
            let (lo, horizon) = served.last_interval();
            let (vm_age, job_len) = match mode {
                0 => {
                    let end = lo + (horizon - lo) * frac;
                    let vm_age = end * age / 30.0;
                    (vm_age, (end - vm_age).max(1e-9))
                }
                1 => {
                    let remaining = (horizon - age).max(0.0);
                    (age, (remaining + (30.0 - remaining) * frac).max(1e-3))
                }
                _ => (age, job),
            };
            let reference = ReferenceEngine::new(served.regime);
            prop_assert!(
                served.fields(vm_age, job_len) == reference.fields(vm_age, job_len),
                "{} age {vm_age} job {job_len}: served {:?} reference {:?}",
                served.regime.name,
                served.fields(vm_age, job_len),
                reference.fields(vm_age, job_len)
            );
        }
    }
}

#[test]
fn non_bathtub_cells_answer_what_their_winner_model_answers() {
    let catalog = showcase_catalog();
    let horizon = catalog.horizon_hours;
    let mut families = std::collections::BTreeSet::new();
    let mut window_queries = 0;
    for served in served_regimes() {
        let Some(cell) = &served.cell else { continue };
        if served.regime.served_family == "bathtub" {
            continue;
        }
        families.insert(served.regime.served_family.clone());
        let model = catalog
            .find(cell)
            .unwrap()
            .model
            .to_lifetime_model(horizon, SHOWCASE_AGE_POINTS)
            .unwrap();
        let (lo, _) = served.last_interval();
        let mut queries: Vec<(f64, f64)> = Vec::new();
        for i in 0..=60 {
            for j in 1..=40 {
                queries.push((i as f64 * 0.4, j as f64 * 0.37));
            }
        }
        // Queries ending inside the last knot interval below L.
        for i in 0..24 {
            let vm_age = i as f64;
            for frac in [0.1, 0.5, 0.9] {
                queries.push((vm_age, lo + (horizon - lo) * frac - vm_age));
            }
        }
        for (vm_age, job_len) in queries {
            let reuse = served.ask(AdviceRequest::should_reuse("", vm_age, job_len));
            let cost = served.ask(AdviceRequest::expected_cost_makespan("", vm_age, job_len));
            let direct = |age: f64| model.makespan_from_age(age, job_len).to_bits();
            let live = vm_age < horizon;
            assert_eq!(
                reuse.fresh_makespan_hours.map(f64::to_bits),
                Some(direct(0.0)),
                "{cell}: fresh makespan, job {job_len}"
            );
            for (field, value) in [
                ("reuse", reuse.reuse_makespan_hours),
                ("expected", cost.expected_makespan_hours),
            ] {
                assert_eq!(
                    value.map(f64::to_bits),
                    live.then(|| direct(vm_age)),
                    "{cell}: {field} makespan, age {vm_age} job {job_len}"
                );
            }
            // The one place the tables differ by design (ROADMAP item 16): the pack
            // stores S(L) = 0 at the horizon knot, `TabulatedLifetime` stores S(L⁻).
            let end = vm_age + job_len;
            if end > lo && end < horizon {
                window_queries += 1;
                continue;
            }
            let served_p = cost.failure_probability.unwrap();
            let direct_p = model.conditional_failure_probability(vm_age, job_len);
            assert_eq!(
                served_p.to_bits(),
                direct_p.to_bits(),
                "{cell}: failure probability, age {vm_age} job {job_len}: {served_p} vs {direct_p}"
            );
        }
    }
    for family in ["weibull", "exponential", "phased", "empirical"] {
        assert!(families.contains(family), "missing {family}: {families:?}");
    }
    assert!(window_queries > 0);
}
