//! The versioned, serializable "model pack" — the artifact `advise build` produces and
//! `advise serve` loads.
//!
//! A pack holds one [`RegimePack`] per preemption regime (distribution × pricing), each
//! with dense grids of the quantities the paper's policies are built on: VM survival
//! (Equation 1), expected makespan from age (Equation 8), conditional job-failure
//! probability (Section 4.2), and the DP checkpoint value function (Section 4.3), plus a
//! precomputed policy-ranking card.  Grids are plain `Vec<f64>` so the pack serializes to
//! self-contained JSON; the query engine rebuilds fast interpolants on load.

use crate::error::{AdvisorError, Result};
use serde::{Deserialize, Serialize};
use tcp_dists::ConstrainedBathtub;

/// Current pack format version. Bumped whenever the schema changes shape.
/// Version 2 added [`RegimePack::served_family`]; version 3 added
/// [`RegimePack::dp_family`] (the DP checkpoint tables and policy card now come from
/// the same winner family as the served curves) and made the bathtub reference fit
/// optional.  Version 2 documents still load: see [`ModelPack::from_json`].
pub const PACK_FORMAT_VERSION: u32 = 3;

/// Oldest pack format version the loader still accepts (upgraded in place on load).
pub const MIN_PACK_FORMAT_VERSION: u32 = 2;

/// A complete serialized advisory model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelPack {
    /// Schema version; [`ModelPack::from_json`] rejects mismatches.
    pub format_version: u32,
    /// Pack name (from the sweep spec it was built from).
    pub name: String,
    /// Base seed used for any fitted models inside the pack.
    pub base_seed: u64,
    /// How the per-regime models were obtained (`paper-representative` or `fitted`).
    pub model_mode: String,
    /// One table set per preemption regime, in spec order.
    pub regimes: Vec<RegimePack>,
}

/// How a pack file records the bathtub reference fit: `{"dist": {"params": …,
/// "saturation": …}}`.  A method-less record of the file format, not a model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BathtubReference {
    /// The Equation 1 fit.
    pub dist: ConstrainedBathtub,
}

/// Precomputed tables for one preemption regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimePack {
    /// Regime name (the request routing key).
    pub name: String,
    /// The cell's bathtub candidate fit (Equation 1), kept as a reference point for
    /// audits and drift comparisons.  `None` when the cell had no bathtub candidate
    /// (e.g. too few records for parametric fits) — since format v3 the policy tables
    /// no longer need one.
    pub model: Option<BathtubReference>,
    /// Which distribution family the `survival`/`first_moment` curves were tabulated
    /// from: `bathtub` for spec-built packs, the cell's goodness-of-fit winner
    /// (`empirical`, `phased`, `weibull`, `exponential`, `bathtub`) for catalog-built
    /// cell packs, and `mixture` for the record-weighted pooled fallback.
    pub served_family: String,
    /// Which family the DP checkpoint tables and the policy card were computed from.
    /// Equal to [`RegimePack::served_family`] for every pack built at format v3 (the
    /// generic-hazard DP runs on the winner); `bathtub` for upgraded v2 packs, whose
    /// DP tables were always bathtub-driven.
    pub dp_family: String,
    /// Temporal constraint `L` in hours (24 for GCP preemptible VMs).
    pub horizon_hours: f64,
    /// End of the early high-hazard phase (hours), from the fitted parameters.
    pub phase_early_end_hours: f64,
    /// Start of the deadline phase (hours).
    pub phase_deadline_start_hours: f64,
    /// VM type the cost tables assume (GCP name).
    pub vm_type: String,
    /// vCPUs of that VM type.
    pub vcpus: u32,
    /// On-demand price per vCPU-hour, USD.
    pub on_demand_per_vcpu_hour: f64,
    /// Preemptible price per vCPU-hour, USD.
    pub preemptible_per_vcpu_hour: f64,
    /// Age grid (hours), strictly increasing, covering `[0, horizon]`, dense (default
    /// one-minute spacing).
    pub ages: Vec<f64>,
    /// VM survival probability `S(age)` on the age grid.
    pub survival: Vec<f64>,
    /// First-moment table `W(age) = ∫_0^age t f(t) dt` on the age grid (the deadline
    /// atom included once `age` reaches the horizon).
    ///
    /// Every age/job-length query decomposes over this 1-D curve through
    /// [`tcp_core::AgeCurves`], so no 2-D interpolation smears the diagonal `s + T = L`.
    /// The kink there is still not exact (ROADMAP item 16): over the last knot interval
    /// below `L` the makespan reads up to `L·S(L⁻)` high and the failure probability up
    /// to 0.18 high.
    pub first_moment: Vec<f64>,
    /// DP checkpoint tables, one cell per checkpoint-cost value.
    pub checkpoint_cells: Vec<CheckpointCell>,
    /// Precomputed best-policy ranking for this regime, lent to every best-policy
    /// answer.
    pub policy_card: PolicyCard,
}

/// DP checkpoint tables for one checkpoint-cost setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCell {
    /// Cost of writing one checkpoint, minutes.
    pub checkpoint_cost_minutes: f64,
    /// DP work-step granularity, minutes.
    pub dp_step_minutes: f64,
    /// Restart overhead after a preemption, minutes.
    pub restart_overhead_minutes: f64,
    /// Start-age grid (hours) of the expected-makespan table.
    pub ages: Vec<f64>,
    /// Job-length grid (hours).
    pub job_lens: Vec<f64>,
    /// DP expected makespan, row-major over `ages × job_lens`.
    pub expected_makespan: Vec<f64>,
    /// Fresh-VM checkpoint schedules, one per job-length grid point.
    pub schedules: Vec<PackSchedule>,
}

/// One precomputed checkpoint schedule (fresh VM).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackSchedule {
    /// Job length the schedule covers (hours, after DP step quantisation).
    pub job_len_hours: f64,
    /// Work executed before each checkpoint, in order (hours).
    pub intervals_hours: Vec<f64>,
    /// DP expected makespan of the job under this schedule (hours).
    pub expected_makespan_hours: f64,
}

/// One policy's standing in a [`PolicyCard`] ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyScore {
    /// Policy name (e.g. `model-driven`, `memoryless`, `young-daly`, `none`).
    pub name: String,
    /// Ranking score; lower is better. Scheduling scores are average job-failure
    /// probabilities, checkpointing scores are expected makespans in hours.
    pub score: f64,
}

/// Precomputed best-policy answer for one regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCard {
    /// Job length (hours) the comparison was evaluated at.
    pub reference_job_len_hours: f64,
    /// Scheduling policies ranked by average failure probability (ascending).
    pub scheduling: Vec<PolicyScore>,
    /// Checkpointing policies ranked by expected makespan (ascending).
    pub checkpointing: Vec<PolicyScore>,
    /// The winning scheduling policy.
    pub recommended_scheduling: String,
    /// The winning checkpointing policy.
    pub recommended_checkpointing: String,
}

/// Upgrades a format-v2 pack document in place: v2 packs always computed their DP
/// checkpoint tables and policy cards from the bathtub fit, so each regime gains an
/// explicit `dp_family = "bathtub"` and the version advances to the current one.
/// Documents at any other version pass through untouched (and fail version validation
/// later if unsupported).
fn upgrade_pack_value(value: &mut serde::Value) -> Result<()> {
    let is_v2 = value
        .get("format_version")
        .and_then(|v| v.as_u64())
        .map(|v| v == 2)
        .unwrap_or(false);
    if !is_v2 {
        return Ok(());
    }
    let serde::Value::Map(entries) = value else {
        return Ok(());
    };
    for (key, entry) in entries.iter_mut() {
        match key.as_str() {
            "format_version" => *entry = serde::Value::Int(PACK_FORMAT_VERSION as i64),
            "regimes" => {
                if let serde::Value::Seq(regimes) = entry {
                    for regime in regimes.iter_mut() {
                        if let serde::Value::Map(fields) = regime {
                            if !fields.iter().any(|(k, _)| k == "dp_family") {
                                fields.push((
                                    "dp_family".to_string(),
                                    serde::Value::Str("bathtub".to_string()),
                                ));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

impl ModelPack {
    /// Serializes the pack to compact JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| AdvisorError::Pack(e.to_string()))
    }

    /// Parses a pack from JSON, rejecting format-version mismatches.
    ///
    /// Format v2 packs (whose DP tables were always computed from the bathtub fit)
    /// are upgraded in place: each regime gains `dp_family = "bathtub"` and the
    /// document re-serializes at the current version.
    pub fn from_json(text: &str) -> Result<Self> {
        let mut value: serde::Value =
            serde_json::from_str(text).map_err(|e| AdvisorError::Pack(e.to_string()))?;
        upgrade_pack_value(&mut value)?;
        let pack: ModelPack = serde::Deserialize::deserialize(&value)
            .map_err(|e| AdvisorError::Pack(e.to_string()))?;
        if pack.format_version != PACK_FORMAT_VERSION {
            return Err(AdvisorError::Pack(format!(
                "pack format version {} is not supported (this build reads versions \
                 {MIN_PACK_FORMAT_VERSION}-{PACK_FORMAT_VERSION})",
                pack.format_version
            )));
        }
        pack.validate()?;
        Ok(pack)
    }

    /// Structural sanity checks shared by the builder and the loader.
    pub fn validate(&self) -> Result<()> {
        if self.regimes.is_empty() {
            return Err(AdvisorError::Pack("pack contains no regimes".to_string()));
        }
        let mut names: Vec<&str> = self.regimes.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.regimes.len() {
            return Err(AdvisorError::Pack(
                "regime names must be unique".to_string(),
            ));
        }
        for regime in &self.regimes {
            regime.validate()?;
        }
        Ok(())
    }
}

impl RegimePack {
    fn validate(&self) -> Result<()> {
        let grid = |name: &str, len: usize, expected: usize| -> Result<()> {
            if len != expected {
                return Err(AdvisorError::Pack(format!(
                    "regime `{}`: {name} has {len} entries, expected {expected}",
                    self.name
                )));
            }
            Ok(())
        };
        if self.ages.len() < 2 {
            return Err(AdvisorError::Pack(format!(
                "regime `{}`: age grid needs at least two knots",
                self.name
            )));
        }
        if self.served_family.is_empty() {
            return Err(AdvisorError::Pack(format!(
                "regime `{}` does not record its served family",
                self.name
            )));
        }
        if self.dp_family.is_empty() {
            return Err(AdvisorError::Pack(format!(
                "regime `{}` does not record its DP family",
                self.name
            )));
        }
        grid("survival", self.survival.len(), self.ages.len())?;
        grid("first_moment", self.first_moment.len(), self.ages.len())?;
        if self.checkpoint_cells.is_empty() {
            return Err(AdvisorError::Pack(format!(
                "regime `{}` has no checkpoint cells",
                self.name
            )));
        }
        for cell in &self.checkpoint_cells {
            let dp_cells = cell.ages.len() * cell.job_lens.len();
            if cell.expected_makespan.len() != dp_cells {
                return Err(AdvisorError::Pack(format!(
                    "regime `{}`: checkpoint cell has {} makespan entries, expected {dp_cells}",
                    self.name,
                    cell.expected_makespan.len()
                )));
            }
            if cell.schedules.len() != cell.job_lens.len() {
                return Err(AdvisorError::Pack(format!(
                    "regime `{}`: checkpoint cell has {} schedules for {} job lengths",
                    self.name,
                    cell.schedules.len(),
                    cell.job_lens.len()
                )));
            }
        }
        Ok(())
    }
}

/// Current multi-pack format version. Bumped whenever the schema changes shape.
pub const MULTI_PACK_FORMAT_VERSION: u32 = 1;

/// One per-cell pack inside a [`MultiPack`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellPackEntry {
    /// Calibration cell name (`vm-type/zone/time-of-day`) — the routing key.
    pub cell: String,
    /// The cell's model pack (one regime, named after the cell).
    pub pack: ModelPack,
}

/// A pack set for per-cell routing: the pooled all-records pack plus one pack per
/// calibration cell, built from a `calibrate fit` regime catalog.
///
/// The query engine routes requests carrying a `cell` field to the matching cell's
/// pack and everything else to the pooled pack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiPack {
    /// Schema version; [`MultiPack::from_json`] rejects mismatches.
    pub format_version: u32,
    /// Pack-set name (the catalog name).
    pub name: String,
    /// Name of the catalog the packs were built from.
    pub catalog: String,
    /// The pooled (all-records) pack — the routing fallback.
    pub pooled: ModelPack,
    /// Per-cell packs, sorted by cell name.
    pub cells: Vec<CellPackEntry>,
}

impl MultiPack {
    /// Serializes the pack set to compact JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| AdvisorError::Pack(e.to_string()))
    }

    /// Parses a pack set from JSON, rejecting format-version mismatches.  Inner packs
    /// written at format v2 are upgraded exactly like [`ModelPack::from_json`] does.
    pub fn from_json(text: &str) -> Result<Self> {
        let mut value: serde::Value =
            serde_json::from_str(text).map_err(|e| AdvisorError::Pack(e.to_string()))?;
        if let serde::Value::Map(entries) = &mut value {
            for (key, entry) in entries.iter_mut() {
                match key.as_str() {
                    "pooled" => upgrade_pack_value(entry)?,
                    "cells" => {
                        if let serde::Value::Seq(cells) = entry {
                            for cell in cells.iter_mut() {
                                if let serde::Value::Map(cell_fields) = cell {
                                    for (field, pack) in cell_fields.iter_mut() {
                                        if field == "pack" {
                                            upgrade_pack_value(pack)?;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let multi: MultiPack = serde::Deserialize::deserialize(&value)
            .map_err(|e| AdvisorError::Pack(e.to_string()))?;
        if multi.format_version != MULTI_PACK_FORMAT_VERSION {
            return Err(AdvisorError::Pack(format!(
                "multi-pack format version {} is not supported (this build reads version {})",
                multi.format_version, MULTI_PACK_FORMAT_VERSION
            )));
        }
        multi.validate()?;
        Ok(multi)
    }

    /// Structural sanity checks shared by the builder and the loader.
    pub fn validate(&self) -> Result<()> {
        self.pooled.validate()?;
        if self.cells.is_empty() {
            return Err(AdvisorError::Pack(
                "multi-pack contains no cell packs".to_string(),
            ));
        }
        let names: Vec<&str> = self.cells.iter().map(|c| c.cell.as_str()).collect();
        if !names.windows(2).all(|w| w[0] < w[1]) {
            return Err(AdvisorError::Pack(
                "cell packs must be unique and sorted by cell name".to_string(),
            ));
        }
        for entry in &self.cells {
            entry
                .pack
                .validate()
                .map_err(|e| AdvisorError::Pack(format!("cell `{}`: {e}", entry.cell)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{tiny_builder, tiny_spec};

    /// Rewrites a current-format pack JSON into the exact shape a v2 build produced:
    /// version 2, no `dp_family` field (v2 DP tables were always bathtub-driven).
    pub(crate) fn downgrade_to_v2(json: &str) -> String {
        json.replace(
            &format!("\"format_version\":{PACK_FORMAT_VERSION}"),
            "\"format_version\":2",
        )
        .replace("\"dp_family\":\"bathtub\",", "")
    }

    #[test]
    fn bathtub_reference_keeps_its_file_shape() {
        let reference = BathtubReference {
            dist: ConstrainedBathtub::paper_representative(),
        };
        let json = r#"{"dist":{"params":{"a":0.45,"tau1":1.0,"tau2":0.8,"b":24.0,"horizon":24.0},"saturation":24.0}}"#;
        assert_eq!(serde_json::to_string(&reference).unwrap(), json);
        let read: BathtubReference = serde_json::from_str(json).unwrap();
        assert_eq!(read, reference);
        assert_eq!(serde_json::to_string(&read).unwrap(), json);
        let missing =
            r#"{"dist":{"params":{"a":0.45,"tau1":1.0,"tau2":0.8,"b":24.0,"horizon":24.0}}}"#;
        assert_eq!(
            serde_json::from_str::<BathtubReference>(missing)
                .unwrap_err()
                .to_string(),
            "BathtubReference.dist: missing field `saturation` in ConstrainedBathtub"
        );
    }

    #[test]
    fn v2_packs_load_with_a_bathtub_dp_family() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let v2 = downgrade_to_v2(&pack.to_json().unwrap());
        assert!(v2.contains("\"format_version\":2"));
        assert!(!v2.contains("dp_family"));
        let upgraded = ModelPack::from_json(&v2).unwrap();
        assert_eq!(upgraded.format_version, PACK_FORMAT_VERSION);
        for regime in &upgraded.regimes {
            assert_eq!(regime.dp_family, "bathtub");
        }
        // Round trip: the upgraded pack re-serializes at the current version and
        // reloads to the same document.
        let rewritten = upgraded.to_json().unwrap();
        assert_eq!(ModelPack::from_json(&rewritten).unwrap(), upgraded);
        // And it answers queries identically to the original (same tables).
        let requests = crate::serve::generate_requests(&pack, 200, 4);
        let a = crate::MultiAdvisor::from_pack(pack).unwrap();
        let b = crate::MultiAdvisor::from_pack(upgraded).unwrap();
        for request in &requests {
            assert_eq!(a.advise(request), b.advise(request));
        }
    }

    #[test]
    fn unsupported_versions_are_still_rejected() {
        let pack = tiny_builder().build_from_spec(&tiny_spec()).unwrap();
        let v1 = pack.to_json().unwrap().replace(
            &format!("\"format_version\":{PACK_FORMAT_VERSION}"),
            "\"format_version\":1",
        );
        let err = ModelPack::from_json(&v1).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = format!(
            "{{\"format_version\":{},\"name\":\"x\",\"base_seed\":1,\"model_mode\":\"m\",\"regimes\":[]}}",
            PACK_FORMAT_VERSION + 1
        );
        let err = ModelPack::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");
    }

    #[test]
    fn empty_pack_is_rejected() {
        let json = format!(
            "{{\"format_version\":{PACK_FORMAT_VERSION},\"name\":\"x\",\"base_seed\":1,\"model_mode\":\"m\",\"regimes\":[]}}"
        );
        let err = ModelPack::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("no regimes"), "{err}");
    }
}
