//! Declarative scenario-sweep specifications.
//!
//! A [`SweepSpec`] is the deserialized form of a TOML (or JSON) sweep file.  It names the
//! sweep, fixes the trial budget and base seed, and lists the *axes* of the experiment
//! grid: preemption regimes, workload mixes, cluster shapes, and policy choices.  Every
//! axis is a list of values; the grid layer (see [`crate::grid`]) expands the cross
//! product into concrete scenarios.
//!
//! ```toml
//! [sweep]
//! name = "paper-figures"
//! trials = 5
//! base_seed = 2020
//!
//! [[regime]]
//! name = "gcp-day-busy"
//! kind = "catalog"
//! time_of_day = "day"
//! workload = "non-idle"
//!
//! [[regime]]
//! name = "memoryless-8h"
//! kind = "exponential"
//! mean_hours = 8.0
//!
//! [workload]
//! application = ["nanoconfinement", "lulesh"]
//! jobs = [60]
//!
//! [cluster]
//! size = [8]
//!
//! [policy]
//! scheduling = ["model-driven", "memoryless"]
//! checkpointing = ["none", "model-driven", "young-daly"]
//! ```

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tcp_calibrate::{CellFit, RegimeCatalog};
use tcp_cloudsim::{PricingModel, ProviderTemplate};
use tcp_core::LifetimeModel;
use tcp_dists::{
    ConstrainedBathtub, EmpiricalLifetime, Exponential, LifetimeDistribution, LogNormal,
    PhasedHazard, UniformLifetime, Weibull,
};
use tcp_numerics::{NumericsError, Result};
use tcp_trace::{ConfigKey, TimeOfDay, TraceCatalog, WorkloadKind};

/// Default number of Monte-Carlo trials per scenario.
pub const DEFAULT_TRIALS: usize = 5;

/// Most Monte-Carlo trials per scenario: [`crate::trial_seed`] packs the trial index
/// into the low 20 bits beside the scenario id, so a larger trial count would make two
/// scenarios share provider seeds.
pub const MAX_TRIALS: usize = 1 << 20;

/// Default base seed when the spec does not pin one.
pub const DEFAULT_BASE_SEED: u64 = 2020;

/// The top-level sweep specification (one TOML/JSON file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// Sweep-wide settings.
    pub sweep: SweepSettings,
    /// Preemption-regime axis (`[[regime]]` tables).  Empty list → the default catalog
    /// regime (day / non-idle, as in the paper's service experiments).
    pub regime: Option<Vec<RegimeSpec>>,
    /// Workload axes.
    pub workload: Option<WorkloadAxes>,
    /// Cluster axes.
    pub cluster: Option<ClusterAxes>,
    /// Policy axes.
    pub policy: Option<PolicyAxes>,
}

/// Sweep-wide settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSettings {
    /// Name of the sweep; used for report files and headers.
    pub name: String,
    /// Monte-Carlo trials per scenario (default 5).
    pub trials: Option<usize>,
    /// Base seed from which every scenario × trial RNG stream is derived (default 2020).
    pub base_seed: Option<u64>,
    /// How the policies' preemption model is obtained per regime:
    /// `"paper-representative"` (default) uses the paper's fitted parameters;
    /// `"fitted"` samples lifetimes from the regime's ground truth and refits;
    /// `"calibrated"` uses the per-cell bathtub fit stored in a `calibrated` regime's
    /// catalog (other regime kinds, and cells too small for a parametric fit, fall back
    /// to the paper's representative parameters).
    pub model: Option<String>,
    /// Lifetimes sampled per regime when `model = "fitted"` (default 600).
    pub fit_samples: Option<usize>,
}

/// One preemption regime: the provider-side ground truth the scenario runs against.
///
/// `kind` selects the family; the remaining fields parameterise it (unused fields are
/// rejected only when they would be ambiguous — validation happens in
/// [`RegimeSpec::build_template`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RegimeSpec {
    /// Regime label used in reports and rankings.
    pub name: String,
    /// Family: `catalog` (a.k.a. `phased`), `exponential`, `weibull`, `bathtub`,
    /// `uniform`, `lognormal`, `trace`, or `calibrated`.
    pub kind: String,
    /// `catalog`: time of day (`day`/`night`, default day).
    pub time_of_day: Option<String>,
    /// `catalog`: workload kind (`idle`/`non-idle`, default non-idle).
    pub workload: Option<String>,
    /// `catalog`: extra multiplicative hazard scale (default 1.0).
    pub hazard_scale: Option<f64>,
    /// `exponential`: mean lifetime in hours (MTTF).
    pub mean_hours: Option<f64>,
    /// `weibull`: rate parameter.
    pub rate: Option<f64>,
    /// `weibull`: shape parameter.
    pub shape: Option<f64>,
    /// `bathtub`: early-failure mass `a`.
    pub a: Option<f64>,
    /// `bathtub`: early-failure time constant `tau1` (hours).
    pub tau1: Option<f64>,
    /// `bathtub`: deadline time constant `tau2` (hours).
    pub tau2: Option<f64>,
    /// `bathtub` / `uniform`: horizon `b` (hours, default 24).
    pub horizon: Option<f64>,
    /// `lognormal`: location parameter `mu` (of log-hours).
    pub mu: Option<f64>,
    /// `lognormal`: scale parameter `sigma`.
    pub sigma: Option<f64>,
    /// `trace`: path to a preemption-record CSV; the empirical lifetime distribution of
    /// its records becomes the ground truth.
    pub trace_csv: Option<String>,
    /// `calibrated`: path to a regime catalog JSON produced by `calibrate fit`.
    pub catalog: Option<String>,
    /// `calibrated`: pin one catalog cell (`vm-type/zone/time-of-day`, or `pooled`).
    /// When omitted, grid expansion replaces this regime with one pinned regime per
    /// catalog cell (named `<name>/<cell>`).
    pub cell: Option<String>,
    /// `calibrated`: expand only this subset of catalog cells (mutually exclusive with
    /// `cell`).
    pub cells: Option<Vec<String>>,
    /// Pricing: preemptible discount factor (on-demand price ÷ preemptible price);
    /// default is the GCP ~5×.
    pub preemptible_discount: Option<f64>,
    /// Provider: provisioning delay in minutes (default 1).
    pub provisioning_delay_minutes: Option<f64>,
    /// Provider: maximum preemptible lifetime in hours (default 24).
    pub max_lifetime_hours: Option<f64>,
}

/// Workload axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadAxes {
    /// Application profiles by name (`nanoconfinement`, `shapes`, `lulesh`).
    pub application: Option<Vec<String>>,
    /// Bag sizes (number of jobs per bag).
    pub jobs: Option<Vec<usize>>,
    /// Checkpoint cost axis, minutes per checkpoint.
    pub checkpoint_cost_minutes: Option<Vec<f64>>,
    /// Per-bag runtime jitter fraction (scalar, default 0.05).
    pub runtime_jitter: Option<f64>,
    /// DP planning step in minutes (scalar, default 5 — the paper's setting).
    pub dp_step_minutes: Option<f64>,
}

/// Cluster axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterAxes {
    /// Cluster sizes (concurrent VM slots).
    pub size: Option<Vec<usize>>,
    /// VM types by GCP name (e.g. `n1-highcpu-16`).
    pub vm_type: Option<Vec<String>>,
    /// Zones by GCP name (e.g. `us-east1-b`).
    pub zone: Option<Vec<String>>,
    /// Hot-spare retention values, hours.
    pub hot_spare_hours: Option<Vec<f64>>,
    /// Billing axis: `true` = preemptible, `false` = on-demand comparator.
    pub use_preemptible: Option<Vec<bool>>,
}

/// Policy axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PolicyAxes {
    /// Scheduling modes (`model-driven`, `memoryless`).
    pub scheduling: Option<Vec<String>>,
    /// Checkpointing modes (`none`, `model-driven`, `young-daly`).
    pub checkpointing: Option<Vec<String>>,
}

impl SweepSpec {
    /// Parses a spec from TOML text.
    pub fn from_toml(text: &str) -> Result<Self> {
        let spec: SweepSpec =
            toml::from_str(text).map_err(|e| NumericsError::invalid(format!("sweep spec: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self> {
        let spec: SweepSpec = serde_json::from_str(text)
            .map_err(|e| NumericsError::invalid(format!("sweep spec: {e}")))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from a file, dispatching on the `.json` extension (TOML otherwise).
    pub fn from_path(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| NumericsError::invalid(format!("cannot read {}: {e}", path.display())))?;
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            SweepSpec::from_json(&text)
        } else {
            SweepSpec::from_toml(&text)
        }
    }

    /// Trials per scenario.
    pub fn trials(&self) -> usize {
        self.sweep.trials.unwrap_or(DEFAULT_TRIALS)
    }

    /// Base seed.
    pub fn base_seed(&self) -> u64 {
        self.sweep.base_seed.unwrap_or(DEFAULT_BASE_SEED)
    }

    /// Basic sanity checks shared by every entry point.
    pub fn validate(&self) -> Result<()> {
        if self.sweep.name.trim().is_empty() {
            return Err(NumericsError::invalid("sweep.name must not be empty"));
        }
        if self.trials() == 0 {
            return Err(NumericsError::invalid("sweep.trials must be at least 1"));
        }
        if self.trials() > MAX_TRIALS {
            return Err(NumericsError::invalid(format!(
                "sweep.trials must be at most {MAX_TRIALS} (2^20): trial seeds hold the \
                 trial index in 20 bits, got {}",
                self.trials()
            )));
        }
        match self.sweep.model.as_deref() {
            None | Some("paper-representative") | Some("fitted") | Some("calibrated") => {}
            Some(other) => {
                return Err(NumericsError::invalid(format!(
                    "sweep.model must be `paper-representative`, `fitted` or `calibrated`, \
                     got `{other}`"
                )))
            }
        }
        if let Some(regimes) = &self.regime {
            for r in regimes {
                r.build_ground_truth()?;
            }
        }
        Ok(())
    }
}

/// A fully built preemption regime: provider template plus the model the policies use.
#[derive(Clone)]
pub struct Regime {
    /// Regime label.
    pub name: String,
    /// Provider recipe (ground truth, pricing, provisioning).
    pub template: ProviderTemplate,
    /// The preemption model driving the scheduling/checkpointing policies — any
    /// lifetime family, carried through the model-generic [`LifetimeModel`] surface.
    pub model: Arc<dyn LifetimeModel>,
}

impl std::fmt::Debug for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Regime")
            .field("name", &self.name)
            .field("template", &self.template)
            .finish()
    }
}

impl RegimeSpec {
    fn field(&self, value: Option<f64>, name: &str) -> Result<f64> {
        value.ok_or_else(|| {
            NumericsError::invalid(format!(
                "regime `{}` ({}) requires `{name}`",
                self.name, self.kind
            ))
        })
    }

    fn conditions(&self) -> Result<(TimeOfDay, WorkloadKind)> {
        let tod = match self.time_of_day.as_deref() {
            None => TimeOfDay::Day,
            Some(s) => s
                .parse::<TimeOfDay>()
                .map_err(|e| NumericsError::invalid(format!("regime `{}`: {e}", self.name)))?,
        };
        let wk = match self.workload.as_deref() {
            None => WorkloadKind::NonIdle,
            Some(s) => s
                .parse::<WorkloadKind>()
                .map_err(|e| NumericsError::invalid(format!("regime `{}`: {e}", self.name)))?,
        };
        Ok((tod, wk))
    }

    /// Builds the explicit ground-truth distribution for non-catalog kinds; `None` means
    /// the provider should keep using its trace catalog (scaled per VM type and zone).
    pub fn build_ground_truth(&self) -> Result<Option<Arc<dyn LifetimeDistribution>>> {
        let dist: Arc<dyn LifetimeDistribution> = match self.kind.as_str() {
            "catalog" | "phased" => {
                // Validate the conditions even though the catalog is used lazily.
                self.conditions()?;
                if let Some(scale) = self.hazard_scale {
                    if !(scale > 0.0) || !scale.is_finite() {
                        return Err(NumericsError::invalid(format!(
                            "regime `{}`: hazard_scale must be positive",
                            self.name
                        )));
                    }
                }
                return Ok(None);
            }
            "exponential" => {
                let mean = self.field(self.mean_hours, "mean_hours")?;
                if !(mean > 0.0) {
                    return Err(NumericsError::invalid(format!(
                        "regime `{}`: mean_hours must be positive",
                        self.name
                    )));
                }
                Arc::new(Exponential::new(1.0 / mean)?)
            }
            "weibull" => Arc::new(Weibull::new(
                self.field(self.rate, "rate")?,
                self.field(self.shape, "shape")?,
            )?),
            "bathtub" => Arc::new(ConstrainedBathtub::from_parts(
                self.field(self.a, "a")?,
                self.field(self.tau1, "tau1")?,
                self.field(self.tau2, "tau2")?,
                self.horizon.unwrap_or(24.0),
            )?),
            "uniform" => Arc::new(UniformLifetime::new(self.horizon.unwrap_or(24.0))?),
            "lognormal" => Arc::new(LogNormal::new(
                self.field(self.mu, "mu")?,
                self.field(self.sigma, "sigma")?,
            )?),
            "trace" => {
                let path = self.trace_csv.as_deref().ok_or_else(|| {
                    NumericsError::invalid(format!(
                        "regime `{}` (trace) requires `trace_csv`",
                        self.name
                    ))
                })?;
                let records = tcp_trace::load_records_csv(std::path::Path::new(path))
                    .map_err(|e| NumericsError::invalid(format!("regime `{}`: {e}", self.name)))?;
                let lifetimes: Vec<f64> = records.iter().map(|r| r.lifetime_hours).collect();
                Arc::new(EmpiricalLifetime::new(&lifetimes, Some(24.0))?)
            }
            "calibrated" => {
                let catalog = self.load_catalog()?;
                let fit = self.calibrated_cell_fit(&catalog)?;
                fit.model
                    .to_distribution(catalog.horizon_hours)
                    .map_err(|e| NumericsError::invalid(format!("regime `{}`: {e}", self.name)))?
            }
            other => {
                return Err(NumericsError::invalid(format!(
                    "regime `{}`: unknown kind `{other}` (expected catalog, exponential, weibull, \
                     bathtub, uniform, lognormal, trace or calibrated)",
                    self.name
                )))
            }
        };
        Ok(Some(dist))
    }

    /// Loads the regime catalog a `calibrated` regime points at.
    ///
    /// Loads are memoized per path for the life of the process: expansion turns one
    /// calibrated regime into one pinned regime per cell, and validation, template
    /// building and model building each consult the catalog — without the cache a
    /// 40-cell sweep would re-read and re-parse the same self-contained JSON dozens
    /// of times.  Catalogs are treated as immutable build artifacts while a process
    /// runs (regenerate the catalog, rerun the sweep).
    fn load_catalog(&self) -> Result<Arc<RegimeCatalog>> {
        static CACHE: std::sync::OnceLock<
            std::sync::Mutex<std::collections::BTreeMap<String, Arc<RegimeCatalog>>>,
        > = std::sync::OnceLock::new();
        let path = self.catalog.as_deref().ok_or_else(|| {
            NumericsError::invalid(format!(
                "regime `{}` (calibrated) requires `catalog`",
                self.name
            ))
        })?;
        let cache = CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::BTreeMap::new()));
        if let Some(catalog) = cache.lock().expect("catalog cache lock").get(path) {
            return Ok(catalog.clone());
        }
        let catalog = Arc::new(
            RegimeCatalog::load(std::path::Path::new(path))
                .map_err(|e| NumericsError::invalid(format!("regime `{}`: {e}", self.name)))?,
        );
        cache
            .lock()
            .expect("catalog cache lock")
            .insert(path.to_string(), catalog.clone());
        Ok(catalog)
    }

    /// The catalog entry this regime answers from: the pinned `cell`, or the pooled
    /// all-records fit when no cell is pinned (grid expansion pins cells before runs).
    fn calibrated_cell_fit<'a>(&self, catalog: &'a RegimeCatalog) -> Result<&'a CellFit> {
        if self.cell.is_some() && self.cells.is_some() {
            return Err(NumericsError::invalid(format!(
                "regime `{}`: `cell` and `cells` are mutually exclusive",
                self.name
            )));
        }
        match self.cell.as_deref() {
            None => Ok(&catalog.pooled),
            Some(cell) => catalog.find(cell).ok_or_else(|| {
                NumericsError::invalid(format!(
                    "regime `{}`: catalog has no cell `{cell}` (available: {})",
                    self.name,
                    catalog.cell_names().join(", ")
                ))
            }),
        }
    }

    /// The cell's goodness-of-fit *winner* as a policy-ready [`LifetimeModel`] —
    /// closed-form for a bathtub winner, tabulated by quadrature for every other
    /// family.  `Ok(None)` when this is not a calibrated regime.
    pub fn calibrated_model(&self) -> Result<Option<Arc<dyn LifetimeModel>>> {
        if self.kind != "calibrated" {
            return Ok(None);
        }
        let catalog = self.load_catalog()?;
        let fit = self.calibrated_cell_fit(&catalog)?;
        let model = fit
            .model
            .to_lifetime_model(
                catalog.horizon_hours,
                tcp_core::lifetime::DEFAULT_TABLE_POINTS,
            )
            .map_err(|e| NumericsError::invalid(format!("regime `{}`: {e}", self.name)))?;
        Ok(Some(model))
    }

    /// Expands a `calibrated` regime without a pinned cell into one pinned regime per
    /// catalog cell (honouring a `cells` subset); every other regime passes through
    /// unchanged.
    pub fn expand_calibrated(&self) -> Result<Vec<RegimeSpec>> {
        if self.kind != "calibrated" || self.cell.is_some() {
            return Ok(vec![self.clone()]);
        }
        let catalog = self.load_catalog()?;
        let selected: Vec<String> = match &self.cells {
            Some(cells) => {
                if cells.is_empty() {
                    return Err(NumericsError::invalid(format!(
                        "regime `{}`: `cells` must not be empty",
                        self.name
                    )));
                }
                cells.clone()
            }
            None => catalog.cell_names(),
        };
        let mut out = Vec::with_capacity(selected.len());
        for cell in selected {
            if catalog.find(&cell).is_none() {
                return Err(NumericsError::invalid(format!(
                    "regime `{}`: catalog has no cell `{cell}` (available: {})",
                    self.name,
                    catalog.cell_names().join(", ")
                )));
            }
            let mut pinned = self.clone();
            pinned.name = format!("{}/{cell}", self.name);
            pinned.cell = Some(cell);
            pinned.cells = None;
            out.push(pinned);
        }
        Ok(out)
    }

    /// The provider template for this regime (ground truth + pricing + provisioning).
    pub fn build_template(&self) -> Result<ProviderTemplate> {
        let mut template = match self.build_ground_truth()? {
            Some(dist) => ProviderTemplate::from_distribution(dist),
            None => {
                let (tod, wk) = self.conditions()?;
                let mut template = ProviderTemplate::from_conditions(tod, wk);
                // The scale multiplies every catalog cell lazily, so the per-(VM type,
                // zone) structure of the catalog still shapes preemptions.
                template.catalog_scale = self.hazard_scale.unwrap_or(1.0);
                template
            }
        };
        if let Some(discount) = self.preemptible_discount {
            if !(discount >= 1.0) || !discount.is_finite() {
                return Err(NumericsError::invalid(format!(
                    "regime `{}`: preemptible_discount must be >= 1",
                    self.name
                )));
            }
            let on_demand = PricingModel::gcp_n1_highcpu().on_demand_per_vcpu_hour;
            template.config.pricing = PricingModel::new(on_demand, on_demand / discount)?;
        }
        if let Some(minutes) = self.provisioning_delay_minutes {
            if !(minutes >= 0.0) || !minutes.is_finite() {
                return Err(NumericsError::invalid(format!(
                    "regime `{}`: provisioning_delay_minutes must be non-negative",
                    self.name
                )));
            }
            template.config.provisioning_delay_hours = minutes / 60.0;
        }
        if let Some(hours) = self.max_lifetime_hours {
            if !(hours > 0.0) || !hours.is_finite() {
                return Err(NumericsError::invalid(format!(
                    "regime `{}`: max_lifetime_hours must be positive",
                    self.name
                )));
            }
            template.config.max_preemptible_lifetime_hours = hours;
        }
        Ok(template)
    }

    /// The representative lifetime distribution of this regime, used for model fitting
    /// (for catalog regimes this is the figure-1 catalog cell under the regime's
    /// conditions).
    pub fn representative_distribution(&self) -> Result<Arc<dyn LifetimeDistribution>> {
        match self.build_ground_truth()? {
            Some(dist) => Ok(dist),
            None => {
                let (tod, wk) = self.conditions()?;
                let key = ConfigKey {
                    time_of_day: tod,
                    workload: wk,
                    ..ConfigKey::figure1()
                };
                let truth: PhasedHazard = TraceCatalog::new().ground_truth(&key)?;
                let truth = match self.hazard_scale {
                    Some(scale) => truth.scale_rates(scale)?,
                    None => truth,
                };
                Ok(Arc::new(truth))
            }
        }
    }

    /// The default regime used when a spec lists none: the paper's day / non-idle
    /// catalog conditions.
    pub fn default_catalog() -> Self {
        RegimeSpec {
            name: "gcp-catalog".to_string(),
            kind: "catalog".to_string(),
            time_of_day: None,
            workload: None,
            hazard_scale: None,
            mean_hours: None,
            rate: None,
            shape: None,
            a: None,
            tau1: None,
            tau2: None,
            horizon: None,
            mu: None,
            sigma: None,
            trace_csv: None,
            catalog: None,
            cell: None,
            cells: None,
            preemptible_discount: None,
            provisioning_delay_minutes: None,
            max_lifetime_hours: None,
        }
    }
}

/// The resolved regime axis of a spec: the declared regimes (or the default catalog
/// regime when none are listed), with every unpinned `calibrated` regime expanded into
/// one pinned regime per catalog cell.  Both the sweep grid and the advisor's pack
/// builder resolve through here, so they agree on regime order and names.
pub fn resolve_regimes(spec: &SweepSpec) -> Result<Vec<RegimeSpec>> {
    let declared: Vec<RegimeSpec> = match &spec.regime {
        Some(regimes) if !regimes.is_empty() => regimes.clone(),
        _ => vec![RegimeSpec::default_catalog()],
    };
    let mut resolved = Vec::with_capacity(declared.len());
    for regime in &declared {
        resolved.extend(regime.expand_calibrated()?);
    }
    Ok(resolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "
[sweep]
name = \"mini\"
";

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = SweepSpec::from_toml(MINIMAL).unwrap();
        assert_eq!(spec.sweep.name, "mini");
        assert_eq!(spec.trials(), DEFAULT_TRIALS);
        assert_eq!(spec.base_seed(), DEFAULT_BASE_SEED);
        assert!(spec.regime.is_none());
    }

    #[test]
    fn json_spec_parses() {
        let spec = SweepSpec::from_json(r#"{"sweep": {"name": "j", "trials": 3}}"#).unwrap();
        assert_eq!(spec.trials(), 3);
    }

    #[test]
    fn full_spec_parses() {
        let text = r#"
[sweep]
name = "full"
trials = 2
base_seed = 7

[[regime]]
name = "cat"
kind = "catalog"
time_of_day = "night"
workload = "idle"

[[regime]]
name = "exp8"
kind = "exponential"
mean_hours = 8.0
preemptible_discount = 4.0

[workload]
application = ["nanoconfinement", "shapes"]
jobs = [12, 24]
checkpoint_cost_minutes = [1.0]

[cluster]
size = [4, 8]
vm_type = ["n1-highcpu-16"]
zone = ["us-east1-b"]
hot_spare_hours = [1.0]
use_preemptible = [true]

[policy]
scheduling = ["model-driven", "memoryless"]
checkpointing = ["none", "young-daly"]
"#;
        let spec = SweepSpec::from_toml(text).unwrap();
        let regimes = spec.regime.as_ref().unwrap();
        assert_eq!(regimes.len(), 2);
        assert!(
            regimes[0].build_ground_truth().unwrap().is_none(),
            "catalog stays lazy"
        );
        let exp = regimes[1].build_ground_truth().unwrap().unwrap();
        assert!((exp.mean() - 8.0).abs() < 0.2, "mean = {}", exp.mean());
        let template = regimes[1].build_template().unwrap();
        let pricing = &template.config.pricing;
        let discount = pricing.on_demand_per_vcpu_hour / pricing.preemptible_per_vcpu_hour;
        assert!((discount - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(SweepSpec::from_toml("[sweep]\nname = \"\"\n").is_err());
        assert!(SweepSpec::from_toml("[sweep]\nname = \"x\"\ntrials = 0\n").is_err());
        // Trial seeds pack the trial index into 20 bits: one more would collide.
        let trials =
            |n: usize| SweepSpec::from_toml(&format!("[sweep]\nname = \"x\"\ntrials = {n}\n"));
        assert_eq!(trials(MAX_TRIALS).unwrap().trials(), 1 << 20);
        let err = trials(MAX_TRIALS + 1).unwrap_err().to_string();
        assert!(
            err.contains("sweep.trials must be at most 1048576"),
            "{err}"
        );
        assert!(SweepSpec::from_toml("[sweep]\nname = \"x\"\nmodel = \"psychic\"\n").is_err());
        // Unknown keys are typos, not extensions.
        assert!(SweepSpec::from_toml("[sweep]\nname = \"x\"\ntrails = 3\n").is_err());
        // A regime missing its parameters fails at validation time.
        let bad = "[sweep]\nname = \"x\"\n[[regime]]\nname = \"w\"\nkind = \"weibull\"\n";
        assert!(SweepSpec::from_toml(bad).is_err());
        let unknown = "[sweep]\nname = \"x\"\n[[regime]]\nname = \"q\"\nkind = \"quantum\"\n";
        assert!(SweepSpec::from_toml(unknown).is_err());
    }

    #[test]
    fn regime_families_build() {
        let mut r = RegimeSpec::default_catalog();
        assert!(r.build_template().unwrap().ground_truth.is_none());

        r.kind = "bathtub".into();
        r.a = Some(0.4);
        r.tau1 = Some(1.0);
        r.tau2 = Some(0.8);
        let d = r.build_ground_truth().unwrap().unwrap();
        assert_eq!(d.upper_bound(), 24.0);

        let mut u = RegimeSpec::default_catalog();
        u.kind = "uniform".into();
        let d = u.build_ground_truth().unwrap().unwrap();
        assert!((d.mean() - 12.0).abs() < 0.1);

        let mut scaled = RegimeSpec::default_catalog();
        scaled.hazard_scale = Some(2.0);
        let t = scaled.build_template().unwrap();
        assert!(
            t.ground_truth.is_none(),
            "scaled catalog stays lazy so VM-type/zone structure survives"
        );
        assert_eq!(t.catalog_scale, 2.0);
    }

    /// Writes a small calibrated catalog to a unique temp file and returns its path.
    fn temp_catalog(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tcp_scenarios_calibrated_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("catalog-{tag}.json"));
        let records = tcp_trace::TraceGenerator::new(42)
            .generate_study(600, 80)
            .unwrap();
        let catalog = tcp_calibrate::Calibrator::new("spec-test")
            .calibrate(&records, "synthetic", 0)
            .unwrap();
        std::fs::write(&path, catalog.to_json().unwrap()).unwrap();
        path
    }

    fn calibrated_spec(tag: &str) -> RegimeSpec {
        let mut spec = RegimeSpec::default_catalog();
        spec.name = "cal".into();
        spec.kind = "calibrated".into();
        spec.catalog = Some(temp_catalog(tag).display().to_string());
        spec
    }

    #[test]
    fn calibrated_regime_requires_a_catalog() {
        let mut spec = RegimeSpec::default_catalog();
        spec.kind = "calibrated".into();
        let err = spec.build_ground_truth().err().expect("must fail");
        assert!(err.to_string().contains("catalog"), "{err}");
    }

    #[test]
    fn calibrated_regime_builds_from_pooled_and_pinned_cells() {
        let spec = calibrated_spec("pooled");
        // Unpinned: answers from the pooled fit.
        let pooled = spec.build_ground_truth().unwrap().unwrap();
        assert!(pooled.mean() > 0.0 && pooled.mean() < 24.0);
        // Pinned to the (oversampled) Figure 1 cell.
        let mut pinned = spec.clone();
        pinned.cell = Some("n1-highcpu-16/us-east1-b/day".into());
        let cell = pinned.build_ground_truth().unwrap().unwrap();
        assert!(cell.mean() > 0.0 && cell.mean() < 24.0);
        // Unknown cells are rejected with the available names.
        let mut unknown = spec.clone();
        unknown.cell = Some("n1-highcpu-16/mars-east1-z/day".into());
        let err = unknown.build_ground_truth().err().expect("must fail");
        assert!(err.to_string().contains("no cell"), "{err}");
        // `cell` and `cells` cannot be combined.
        let mut both = pinned.clone();
        both.cells = Some(vec!["n1-highcpu-16/us-east1-b/day".into()]);
        assert!(both.build_ground_truth().is_err());
    }

    #[test]
    fn calibrated_regime_expands_one_regime_per_cell() {
        let spec = calibrated_spec("expand");
        let expanded = spec.expand_calibrated().unwrap();
        assert!(expanded.len() > 10, "expanded {} regimes", expanded.len());
        for regime in &expanded {
            let cell = regime.cell.as_deref().unwrap();
            assert_eq!(regime.name, format!("cal/{cell}"));
            assert!(regime.build_ground_truth().unwrap().is_some());
        }
        // A subset expands exactly the named cells, in order.
        let mut subset = spec.clone();
        subset.cells = Some(vec![
            "n1-highcpu-16/us-east1-b/day".into(),
            "n1-highcpu-2/us-west1-a/night".into(),
        ]);
        let expanded = subset.expand_calibrated().unwrap();
        assert_eq!(expanded.len(), 2);
        assert_eq!(expanded[0].name, "cal/n1-highcpu-16/us-east1-b/day");
        // A pinned regime passes through unchanged.
        let mut pinned = spec.clone();
        pinned.cell = Some("n1-highcpu-16/us-east1-b/day".into());
        assert_eq!(pinned.expand_calibrated().unwrap(), vec![pinned.clone()]);
        // Unknown subset entries are rejected.
        let mut bad = spec.clone();
        bad.cells = Some(vec!["n1-highcpu-16/us-east1-b/noon".into()]);
        assert!(bad.expand_calibrated().is_err());
    }

    #[test]
    fn representative_distribution_reflects_conditions() {
        let day = RegimeSpec::default_catalog()
            .representative_distribution()
            .unwrap();
        let mut night_spec = RegimeSpec::default_catalog();
        night_spec.time_of_day = Some("night".into());
        night_spec.workload = Some("idle".into());
        let night = night_spec.representative_distribution().unwrap();
        assert!(night.mean() > day.mean(), "idle nights preempt less");
    }
}
