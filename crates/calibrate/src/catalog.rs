//! The calibrated regime catalog — the versioned JSON artifact `calibrate fit` produces.
//!
//! A catalog is the dataset's model per cell plus a pooled all-records fit, with every
//! candidate's goodness-of-fit scores preserved so `calibrate inspect`/`compare` (and
//! later re-anchors) can audit the selection.  Catalogs are **self-contained**: each
//! entry carries its observed lifetimes, so consumers (sweeps, advisor packs, refits)
//! never go back to the CSV.  Serialization is deterministic — the same records and
//! options produce byte-identical JSON for every thread count.

use crate::cell::{CellKey, TodSlot};
use crate::fit::{bathtub_from_params, CalibratedModel, CandidateFit, FitOptions};
use serde::{Deserialize, Serialize};
use std::path::Path;
use tcp_dists::ConstrainedBathtub;
use tcp_numerics::{NumericsError, Result};
use tcp_trace::{VmType, Zone};

/// Current catalog format version; bumped whenever the schema changes shape.
pub const CATALOG_FORMAT_VERSION: u32 = 1;

/// The name of the pooled (all-records) pseudo-cell.
pub const POOLED_CELL: &str = "pooled";

/// One calibrated cell (or the pooled entry, whose dimension fields are `None`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFit {
    /// Cell name: `vm-type/zone/time-of-day`, or `pooled` for the all-records entry.
    pub cell: String,
    /// Machine type (absent for the pooled entry).
    pub vm_type: Option<VmType>,
    /// Zone (absent for the pooled entry).
    pub zone: Option<Zone>,
    /// Time-of-day slot — `day`/`night`, or a launch-hour bucket like `h08-12` when the
    /// catalog was fitted with `--tod-hours` (absent for the pooled entry).
    pub time_of_day: Option<TodSlot>,
    /// Number of observed records in the cell.
    pub records: usize,
    /// How many of them survived to the deadline (right-censored observations).
    pub deadline_survivals: usize,
    /// Mean observed lifetime, hours.
    pub mean_lifetime_hours: f64,
    /// Every parametric candidate that fitted, sorted by ascending K-S statistic.
    pub candidates: Vec<CandidateFit>,
    /// Why the winning model was selected.
    pub selection: String,
    /// The winning model (self-contained, lifetimes included).
    pub model: CalibratedModel,
}

impl CellFit {
    /// The cell's bathtub fit as a [`ConstrainedBathtub`], regardless of which family won
    /// the selection — the Equation 1 parameters a pack records next to its winner as an
    /// audit reference.  `None` when the cell was too small for parametric fits.
    pub fn bathtub_model(&self) -> Option<ConstrainedBathtub> {
        self.model.bathtub().or_else(|| {
            let candidate = self.candidates.iter().find(|c| c.family == "bathtub")?;
            bathtub_from_params(&candidate.params)
        })
    }

    /// The cell key, when this is a real cell (not the pooled entry).
    pub fn key(&self) -> Option<CellKey> {
        Some(CellKey {
            vm_type: self.vm_type?,
            zone: self.zone?,
            time_of_day: self.time_of_day?,
        })
    }

    fn validate(&self) -> Result<()> {
        if self.records == 0 {
            return Err(NumericsError::invalid(format!(
                "catalog cell `{}` has zero records",
                self.cell
            )));
        }
        if self.model.lifetimes.len() != self.records {
            return Err(NumericsError::invalid(format!(
                "catalog cell `{}` stores {} lifetimes for {} records",
                self.cell,
                self.model.lifetimes.len(),
                self.records
            )));
        }
        if self.cell != POOLED_CELL {
            let key = self.key().ok_or_else(|| {
                NumericsError::invalid(format!(
                    "catalog cell `{}` is missing its dimension fields",
                    self.cell
                ))
            })?;
            if key.to_string() != self.cell {
                return Err(NumericsError::invalid(format!(
                    "catalog cell name `{}` does not match its dimensions `{key}`",
                    self.cell
                )));
            }
        }
        Ok(())
    }
}

/// A complete calibrated regime catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeCatalog {
    /// Schema version; [`RegimeCatalog::from_json`] rejects mismatches.
    pub format_version: u32,
    /// Catalog name (CLI `--name`, defaults to the CSV stem).
    pub name: String,
    /// Where the records came from (CSV path or a generator description).
    pub source: String,
    /// Temporal constraint `L` in hours.
    pub horizon_hours: f64,
    /// Total records calibrated (across all cells).
    pub total_records: usize,
    /// The fitting options the catalog was built with.
    pub options: FitOptions,
    /// The pooled all-records fit — what `kind = "trace"` would have used, kept as the
    /// routing fallback and the baseline the per-cell fits improve on.
    pub pooled: CellFit,
    /// Per-cell fits, sorted by cell key (canonical order).
    pub cells: Vec<CellFit>,
}

impl RegimeCatalog {
    /// Serializes the catalog to compact JSON (deterministic byte-for-byte).
    pub fn to_json(&self) -> Result<String> {
        // The stored lifetimes are most of the bytes: reserve ~20 per lifetime (a
        // full-precision float and its comma) plus 2 KiB per entry for the rest, so a
        // large catalog is written without growing its buffer step by step.
        let lifetimes: usize = std::iter::once(&self.pooled)
            .chain(&self.cells)
            .map(|cell| cell.model.lifetimes.len())
            .sum();
        let mut out = String::with_capacity(20 * lifetimes + 2048 * (self.cells.len() + 1));
        serde_json::append(self, &mut out);
        out.shrink_to_fit();
        Ok(out)
    }

    /// Writes the catalog's JSON to a file, returning its length in bytes.
    pub fn save(&self, path: &Path) -> Result<usize> {
        let _span = tcp_obs::span!("calibrate.catalog.write");
        let json = self.to_json()?;
        std::fs::write(path, &json)
            .map_err(|e| NumericsError::invalid(format!("cannot write {}: {e}", path.display())))?;
        Ok(json.len())
    }

    /// Parses a catalog from JSON, rejecting format-version mismatches.
    pub fn from_json(text: &str) -> Result<Self> {
        let catalog: RegimeCatalog = serde_json::from_str(text)
            .map_err(|e| NumericsError::invalid(format!("catalog: {e}")))?;
        if catalog.format_version != CATALOG_FORMAT_VERSION {
            return Err(NumericsError::invalid(format!(
                "catalog format version {} is not supported (this build reads version {})",
                catalog.format_version, CATALOG_FORMAT_VERSION
            )));
        }
        catalog.validate()?;
        Ok(catalog)
    }

    /// Loads a catalog from a JSON file.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| NumericsError::invalid(format!("cannot read {}: {e}", path.display())))?;
        Self::from_json(&text)
    }

    /// Structural sanity checks shared by the builder and the loader.
    pub fn validate(&self) -> Result<()> {
        if self.cells.is_empty() {
            return Err(NumericsError::invalid("catalog contains no cells"));
        }
        if self.pooled.cell != POOLED_CELL {
            return Err(NumericsError::invalid(
                "the pooled entry must be named `pooled`",
            ));
        }
        self.pooled.validate()?;
        let mut keys = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            cell.validate()?;
            keys.push(cell.key().expect("validated as a real cell"));
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(NumericsError::invalid(
                "catalog cells must be unique and sorted by cell key",
            ));
        }
        let cell_total: usize = self.cells.iter().map(|c| c.records).sum();
        if cell_total != self.total_records || self.pooled.records != self.total_records {
            return Err(NumericsError::invalid(format!(
                "catalog record counts disagree: total {} vs cells {} vs pooled {}",
                self.total_records, cell_total, self.pooled.records
            )));
        }
        Ok(())
    }

    /// Looks up a cell by name (`vm-type/zone/time-of-day`, or `pooled`).
    pub fn find(&self, cell: &str) -> Option<&CellFit> {
        if cell == POOLED_CELL {
            return Some(&self.pooled);
        }
        self.cells.iter().find(|c| c.cell == cell)
    }

    /// Names of every real cell, in catalog order.
    pub fn cell_names(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.cell.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_mismatch_is_rejected() {
        let json = format!("{{\"format_version\":{}}}", CATALOG_FORMAT_VERSION + 1);
        // Even a structurally incomplete catalog with the wrong version should fail on
        // deserialization (missing fields) or version — either way, an error.
        assert!(RegimeCatalog::from_json(&json).is_err());
    }

    #[test]
    fn loading_a_missing_file_errors() {
        assert!(RegimeCatalog::load(Path::new("/nonexistent/catalog.json")).is_err());
    }
}
