//! The query engine and its hot-reload slot.
//!
//! [`MultiAdvisor`] answers every request.  It keeps the regimes of a whole pack set in
//! one table — the pooled pack's first, then each cell pack's — and routes each
//! request by its optional `cell` field: a request carrying a cell is answered from
//! that cell pack's regimes, a request without one from the pooled pack's, and an
//! unknown cell is a typed error listing what is loaded.  A single [`ModelPack`] loads
//! as a pooled-only router, so every serving path speaks the same type.
//!
//! [`AdvisorHandle`] adds hot reload on top: the current router lives behind an
//! `RwLock<Arc<…>>`, readers snapshot the `Arc` (lock held only for the clone), and a
//! reload swaps the `Arc` — in-flight batches keep answering from the snapshot they
//! took, untouched by the swap.

use crate::engine::{
    AdviceRequest, AdviceResponse, AdvisorCounters, AdvisorStats, FamilyStats, RegimeEngine,
};
use crate::error::{AdvisorError, Result};
use crate::pack::{CellPackEntry, ModelPack, MultiPack};
use std::ops::Range;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The query engine: the regimes of a pooled pack and its per-cell packs in one table,
/// a routing index over it, and one set of serving counters.
pub struct MultiAdvisor {
    name: String,
    /// Format version of the pooled pack, reported by `!stats` and `!health`.
    format_version: u32,
    /// Every regime of the set: the pooled pack's first, then each cell pack's in cell
    /// order.
    regimes: Vec<RegimeEngine>,
    /// The pooled pack's regimes in `regimes`: the fallback for requests without a cell.
    pooled: Range<usize>,
    /// `(cell name, the cell pack's regimes in `regimes`)`, sorted by cell name for
    /// binary-search routing.
    cells: Vec<(String, Range<usize>)>,
    counters: AdvisorCounters,
}

/// Validates `pack` and appends an engine per regime to `regimes`, returning where
/// they landed.
fn push_pack(regimes: &mut Vec<RegimeEngine>, pack: ModelPack) -> Result<Range<usize>> {
    pack.validate()?;
    let start = regimes.len();
    for regime in pack.regimes {
        regimes.push(RegimeEngine::new(regime)?);
    }
    Ok(start..regimes.len())
}

impl MultiAdvisor {
    /// Builds a router from a per-cell pack set.
    pub fn from_multi(multi: MultiPack) -> Result<Self> {
        // Only the routing invariant (strictly sorted cell names, for binary search)
        // is checked here; each pack is validated as its regimes are loaded, and
        // documents arriving through `from_json` were already fully validated.
        if !multi.cells.windows(2).all(|w| match w {
            [a, b] => a.cell < b.cell,
            _ => true,
        }) {
            return Err(AdvisorError::Pack(
                "cell packs must be unique and sorted by cell name".to_string(),
            ));
        }
        MultiAdvisor::load(multi.name, multi.pooled, multi.cells)
    }

    /// Wraps a single pack as a pooled-only router (no routable cells).
    pub fn from_pack(pack: ModelPack) -> Result<Self> {
        MultiAdvisor::load(pack.name.clone(), pack, Vec::new())
    }

    fn load(name: String, pooled: ModelPack, cells: Vec<CellPackEntry>) -> Result<Self> {
        let format_version = pooled.format_version;
        let mut regimes = Vec::new();
        let pooled = push_pack(&mut regimes, pooled)?;
        let cells = cells
            .into_iter()
            .map(|entry| Ok((entry.cell, push_pack(&mut regimes, entry.pack)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiAdvisor {
            name,
            format_version,
            regimes,
            pooled,
            cells,
            counters: AdvisorCounters::new(),
        })
    }

    /// Loads a router from JSON, accepting either a [`MultiPack`] or a plain
    /// [`ModelPack`] document.
    pub fn from_json(text: &str) -> Result<Self> {
        match MultiPack::from_json(text) {
            Ok(multi) => MultiAdvisor::from_multi(multi),
            Err(multi_err) => match ModelPack::from_json(text) {
                Ok(pack) => MultiAdvisor::from_pack(pack),
                Err(pack_err) => Err(AdvisorError::Pack(format!(
                    "not a loadable pack (as a multi-pack: {multi_err}; as a single \
                     pack: {pack_err})"
                ))),
            },
        }
    }

    /// The pack-set name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pooled pack's format version.
    pub fn format_version(&self) -> u32 {
        self.format_version
    }

    /// Number of routable cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Answers one request, routing by its `cell` field.  The answer borrows its
    /// names, schedule and card from this router; its `cell` is the routed cell's
    /// name, which has the request's bytes.
    pub fn advise<S: AsRef<str>>(&self, request: &AdviceRequest<S>) -> Result<AdviceResponse<'_>> {
        let (route, regimes, cell) = match request.cell.as_ref().map(AsRef::as_ref) {
            None => (0, self.pooled.clone(), None),
            Some(cell) => {
                let index = self
                    .cells
                    .binary_search_by(|(name, _)| name.as_str().cmp(cell))
                    .map_err(|_| AdvisorError::UnknownCell {
                        cell: cell.to_string(),
                        available: self.cells.iter().map(|(name, _)| name.clone()).collect(),
                    })?;
                let (name, regimes) = &self.cells[index];
                (index as u64 + 1, regimes.clone(), Some(name.as_str()))
            }
        };
        // Pack/cell resolution span: arg 0 = pooled fallback, arg = cell index + 1
        // for a routed request (inert unless this thread is tracing a request).
        let _span = tcp_obs::span!("advisor.route", route);
        let mut response = self.lookup(&self.regimes[regimes], request)?;
        response.cell = cell;
        Ok(response)
    }

    /// Answers `request` from the regimes of one pack: the one it names, or the pack's
    /// first.
    fn lookup<'a, S: AsRef<str>>(
        &self,
        regimes: &'a [RegimeEngine],
        request: &AdviceRequest<S>,
    ) -> Result<AdviceResponse<'a>> {
        // lint:allow(determinism) latency metric only: `started` feeds the query-stats histogram, never a response field
        let started = Instant::now();
        let _span = self.counters.lookup_span(request.kind);
        let regime = match request.regime.as_ref().map(AsRef::as_ref) {
            None => regimes
                .first()
                .ok_or_else(|| AdvisorError::Pack("pack contains no regimes".to_string()))?,
            Some(name) => regimes.iter().find(|r| r.name == name).ok_or_else(|| {
                AdvisorError::UnknownRegime {
                    regime: name.to_string(),
                    available: regimes.iter().map(|r| r.name.clone()).collect(),
                }
            })?,
        };
        let response = regime.answer(request)?;
        // Count (and time) only successfully answered queries, after validation: every
        // error class (parse, unknown regime, invalid input) is excluded uniformly, so
        // the serving counters and latency histograms mean one thing.
        self.counters.record(request.kind, regime, started);
        Ok(response)
    }

    /// Per-family counters of every query this router answered.
    pub fn family_stats(&self) -> FamilyStats {
        self.counters.family_stats()
    }

    /// Serving statistics of every query this router answered.
    pub fn stats(&self) -> AdvisorStats {
        self.counters.stats()
    }
}

/// A hot-reloadable slot holding the current [`MultiAdvisor`].
///
/// Readers call [`AdvisorHandle::current`] to snapshot an `Arc` and serve from it; a
/// [`AdvisorHandle::reload`] swaps the slot without disturbing snapshots already taken.
pub struct AdvisorHandle {
    current: RwLock<Arc<MultiAdvisor>>,
}

/// Records the pack swap in gauges: `advisor.pack.loaded_at_secs` (monotonic
/// timestamp, the basis for `pack_age_secs` in `!health`/`!stats` and for
/// `age`-kind SLO rules) and `advisor.pack.format_version`.
fn publish_pack_gauges(advisor: &MultiAdvisor) {
    tcp_obs::gauge("advisor.pack.loaded_at_secs").set(tcp_obs::log::now_monotonic_secs());
    tcp_obs::gauge("advisor.pack.format_version").set(advisor.format_version() as f64);
}

impl AdvisorHandle {
    /// Creates a handle serving `advisor`.  Stamps the pack gauges, so serving
    /// starts with a fresh `pack_age_secs`.
    pub fn new(advisor: MultiAdvisor) -> Self {
        publish_pack_gauges(&advisor);
        AdvisorHandle {
            current: RwLock::new(Arc::new(advisor)),
        }
    }

    /// Snapshots the advisor currently being served.
    pub fn current(&self) -> Arc<MultiAdvisor> {
        // A writer can only panic between the lock and the store, in which case the
        // previous advisor snapshot is still intact: recover it rather than abort.
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Atomically replaces the served advisor.  In-flight work keeps the snapshot it
    /// already holds; only requests routed after the swap see the new packs.  The
    /// pack gauges are re-stamped, resetting `pack_age_secs` to zero.
    pub fn reload(&self, advisor: MultiAdvisor) {
        publish_pack_gauges(&advisor);
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(advisor);
    }

    /// Loads a pack (single or multi) from a JSON file and swaps it in.  On failure the
    /// previous advisor keeps serving.
    pub fn reload_from_path(&self, path: &std::path::Path) -> Result<Arc<MultiAdvisor>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| AdvisorError::Pack(format!("cannot read {}: {e}", path.display())))?;
        self.reload(MultiAdvisor::from_json(&text)?);
        Ok(self.current())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::tests::{tiny_builder, tiny_spec};
    use tcp_calibrate::Calibrator;
    use tcp_trace::TraceGenerator;

    /// Names of the routable cells, in sorted order.
    fn cell_names(m: &MultiAdvisor) -> Vec<String> {
        m.cells.iter().map(|(cell, _)| cell.clone()).collect()
    }

    /// `m`'s answers to `requests`, in order.
    fn answers<'a>(
        m: &'a MultiAdvisor,
        requests: &[AdviceRequest],
    ) -> Vec<Result<AdviceResponse<'a>>> {
        requests.iter().map(|r| m.advise(r)).collect()
    }

    /// A per-cell pack set over a small synthetic trace, built on `threads` threads.
    pub(crate) fn multi_pack(threads: usize) -> MultiPack {
        let records = TraceGenerator::new(11).generate_study(600, 90).unwrap();
        let catalog = Calibrator::new("router-test")
            .calibrate(&records, "synthetic", 0)
            .unwrap();
        crate::builder::PackBuilder {
            age_points: 121,
            checkpoint_age_points: 3,
            checkpoint_job_points: 4,
            max_checkpoint_job_hours: 4.0,
            ..Default::default()
        }
        .build_from_catalog(&catalog, &[5.0], 30.0, threads)
        .unwrap()
    }

    fn multi() -> MultiAdvisor {
        MultiAdvisor::from_multi(multi_pack(0)).unwrap()
    }

    #[test]
    fn requests_route_by_cell_and_fall_back_to_pooled() {
        let m = multi();
        let cells = cell_names(&m);
        assert!(!cells.is_empty());
        // No cell: pooled pack answers.
        let mut req = AdviceRequest::should_reuse("pooled", 8.0, 3.0);
        req.regime = None;
        let pooled = m.advise(&req).unwrap();
        assert_eq!(pooled.regime, "pooled");
        assert_eq!(pooled.cell, None);
        // Cell-tagged: the cell's pack answers and echoes the cell.
        let routed = m.advise(&req.clone().with_cell(cells[0].clone())).unwrap();
        assert_eq!(routed.regime, cells[0]);
        assert_eq!(routed.cell, Some(cells[0].as_str()));
        // Unknown cells are typed errors listing what is loaded.
        let err = m
            .advise(&req.clone().with_cell("n1-highcpu-16/mars-east1-z/day"))
            .unwrap_err();
        match err {
            AdvisorError::UnknownCell { cell, available } => {
                assert_eq!(cell, "n1-highcpu-16/mars-east1-z/day");
                assert_eq!(available, cells);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn routed_answers_differ_across_cells() {
        // Observation 4: the 32-vCPU day cell must look riskier than the 2-vCPU night
        // cell — routing to different cells must actually change the answer.
        let m = multi();
        let cells = cell_names(&m);
        let risky = "n1-highcpu-32/us-central1-f/day";
        let calm = "n1-highcpu-2/us-west1-a/night";
        if !cells.iter().any(|c| c == risky) || !cells.iter().any(|c| c == calm) {
            // Cell sampling is uneven; skip quietly when either cell lacked records.
            return;
        }
        let query = |cell: &str| {
            let mut req = AdviceRequest::expected_cost_makespan("x", 6.0, 4.0);
            req.regime = None;
            m.advise(&req.with_cell(cell)).unwrap()
        };
        let risky_resp = query(risky);
        let calm_resp = query(calm);
        assert_ne!(
            risky_resp.failure_probability, calm_resp.failure_probability,
            "per-cell packs must answer from different models"
        );
    }

    #[test]
    fn single_pack_loads_as_pooled_only_router() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let m = MultiAdvisor::from_json(&pack.to_json().unwrap()).unwrap();
        assert_eq!(m.cell_count(), 0);
        let mut req = AdviceRequest::should_reuse("gcp-day", 8.0, 3.0);
        assert!(m.advise(&req).is_ok());
        req = req.with_cell("n1-highcpu-2/us-west1-a/night");
        let err = m.advise(&req).unwrap_err();
        assert!(err.to_string().contains("no per-cell packs"), "{err}");
    }

    #[test]
    fn multi_pack_json_round_trips_with_identical_answers() {
        let multi_pack = multi_pack(2);
        let json = multi_pack.to_json().unwrap();
        let reparsed = MultiPack::from_json(&json).unwrap();
        assert_eq!(reparsed, multi_pack);
        let a = MultiAdvisor::from_multi(multi_pack).unwrap();
        let b = MultiAdvisor::from_json(&json).unwrap();
        let mut requests = Vec::new();
        for (i, cell) in cell_names(&a).into_iter().enumerate() {
            let mut req = AdviceRequest::expected_cost_makespan("x", i as f64, 2.0);
            req.regime = None;
            requests.push(req.with_cell(cell));
        }
        assert_eq!(answers(&a, &requests), answers(&b, &requests));
    }

    #[test]
    fn hot_reload_leaves_in_flight_snapshots_untouched() {
        let pack_a = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let handle = AdvisorHandle::new(MultiAdvisor::from_pack(pack_a.clone()).unwrap());

        // An in-flight batch snapshots the advisor before the reload...
        let snapshot = handle.current();
        let requests: Vec<AdviceRequest> = (0..64)
            .map(|i| AdviceRequest::should_reuse("gcp-day", (i % 24) as f64, 3.0))
            .collect();

        // ...then the pack is swapped for one with different regimes...
        let spec_b = tcp_scenarios::SweepSpec::from_toml(
            r#"
[sweep]
name = "reloaded"

[[regime]]
name = "exp12"
kind = "exponential"
mean_hours = 12.0

[workload]
dp_step_minutes = 30.0
"#,
        )
        .unwrap();
        let pack_b = tiny_builder().build_from_spec(&spec_b).unwrap();
        handle.reload(MultiAdvisor::from_pack(pack_b).unwrap());

        // ...and the snapshot still answers exactly like a fresh advisor on the old
        // pack, while new lookups see the new one.
        let expected = MultiAdvisor::from_pack(pack_a).unwrap();
        assert_eq!(answers(&snapshot, &requests), answers(&expected, &requests));
        assert_eq!(handle.current().name(), "reloaded");
        let old_regime = snapshot.advise(&requests[0]).unwrap().regime;
        assert_eq!(old_regime, "gcp-day");
        assert!(
            handle.current().advise(&requests[0]).is_err(),
            "gcp-day is gone"
        );
    }

    #[test]
    fn v2_multi_packs_load_with_bathtub_dp_families() {
        // A multi-pack written by a v2 build: inner packs at format 2, no dp_family.
        let multi_pack = multi_pack(0);
        let mut v2 = multi_pack.to_json().unwrap().replace(
            &format!("\"format_version\":{}", crate::pack::PACK_FORMAT_VERSION),
            "\"format_version\":2",
        );
        for family in [
            "bathtub",
            "weibull",
            "exponential",
            "phased",
            "empirical",
            "mixture",
        ] {
            v2 = v2.replace(&format!("\"dp_family\":\"{family}\","), "");
        }
        assert!(!v2.contains("dp_family"));
        let upgraded = MultiPack::from_json(&v2).unwrap();
        assert_eq!(upgraded.pooled.regimes[0].dp_family, "bathtub");
        for entry in &upgraded.cells {
            assert_eq!(entry.pack.regimes[0].dp_family, "bathtub");
            // The served family survives the upgrade untouched.
            assert_eq!(
                entry.pack.regimes[0].served_family,
                multi_pack
                    .cells
                    .iter()
                    .find(|c| c.cell == entry.cell)
                    .unwrap()
                    .pack
                    .regimes[0]
                    .served_family
            );
        }
        // The upgraded set routes and answers.
        let m = MultiAdvisor::from_multi(upgraded).unwrap();
        let mut req = AdviceRequest::should_reuse("pooled", 6.0, 3.0);
        req.regime = None;
        assert!(m.advise(&req).is_ok());
    }

    #[test]
    fn family_stats_follow_the_answering_regime() {
        let m = multi();
        assert_eq!(m.family_stats(), FamilyStats::default());
        let cells = cell_names(&m);
        let mut req = AdviceRequest::expected_cost_makespan("x", 5.0, 2.0);
        req.regime = None;
        // Two pooled answers (mixture curves) and one per-cell answer.
        m.advise(&req).unwrap();
        m.advise(&req).unwrap();
        m.advise(&req.clone().with_cell(cells[0].clone())).unwrap();
        let stats = m.family_stats();
        assert_eq!(stats.served.get("mixture"), Some(&2));
        assert_eq!(stats.dp.get("mixture"), Some(&2));
        let per_cell_total: u64 = stats
            .served
            .iter()
            .filter(|(family, _)| family.as_str() != "mixture")
            .map(|(_, n)| n)
            .sum();
        assert_eq!(per_cell_total, 1);
        // dp histograms mirror served histograms for v3 packs.
        assert_eq!(stats.served, stats.dp);
    }

    #[test]
    fn reload_from_a_bad_path_keeps_the_old_advisor() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let handle = AdvisorHandle::new(MultiAdvisor::from_pack(pack).unwrap());
        let before = handle.current().name().to_string();
        assert!(handle
            .reload_from_path(std::path::Path::new("/nonexistent/pack.json"))
            .is_err());
        assert_eq!(handle.current().name(), before);
    }

    #[test]
    fn stats_aggregate_across_packs() {
        let m = multi();
        let cells = cell_names(&m);
        let mut req = AdviceRequest::best_policy("pooled");
        req.regime = None;
        m.advise(&req).unwrap();
        m.advise(&req.clone().with_cell(cells[0].clone())).unwrap();
        let stats = m.stats();
        assert_eq!(stats.best_policy, 2);
        assert_eq!(stats.total(), 2);
    }
}
