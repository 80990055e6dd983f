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
use std::sync::mpsc;
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
    /// Serializes the catalog to compact JSON (deterministic byte-for-byte): the bytes
    /// of the derived `Serialize`.
    ///
    /// The stored lifetimes, most of the bytes, are printed on the available CPUs: a
    /// second thread prints part of them while the calling thread writes the rest.  The
    /// bytes are the same either way.
    pub fn to_json(&self) -> Result<String> {
        // Reserve ~20 bytes per lifetime (a full-precision float and its comma) plus
        // 2 KiB per entry for the rest, so a large catalog is written without growing
        // its buffer step by step.
        let lifetimes: usize = self.entries().map(|cell| cell.model.lifetimes.len()).sum();
        let mut out = String::with_capacity(20 * lifetimes + 2048 * (self.cells.len() + 1));
        // More than one chunk's worth of lifetimes makes at least two chunks.
        let split = lifetimes > CHUNK
            && std::thread::available_parallelism().is_ok_and(|cpus| cpus.get() > 1);
        self.encode(&mut out, split);
        out.shrink_to_fit();
        Ok(out)
    }

    /// The pooled entry, then the cells.
    fn entries(&self) -> impl Iterator<Item = &CellFit> {
        std::iter::once(&self.pooled).chain(&self.cells)
    }

    /// Appends the catalog's JSON to `out`, its lifetimes in chunks of [`CHUNK`].
    /// With `split`, a scoped worker prints the chunks [`worker_prints`] names into a
    /// fixed pool of [`BUFFERS`] recycled buffers, sent in order over a channel, and
    /// this thread appends them between its own.
    fn encode(&self, out: &mut String, split: bool) {
        let chunks: usize = self
            .entries()
            .map(|cell| cell.model.lifetimes.len().div_ceil(CHUNK))
            .sum();
        let buffers = BUFFERS.min((0..chunks).filter(|&j| worker_prints(j)).count());
        std::thread::scope(|scope| {
            let worker = (split && buffers > 0).then(|| {
                let (printed, take) = mpsc::channel::<String>();
                let (give_back, returned) = mpsc::channel::<String>();
                for _ in 0..buffers {
                    let _ = give_back.send(String::with_capacity(CHUNK_BYTES));
                }
                scope.spawn(move || {
                    let _span = tcp_obs::span!("calibrate.catalog_encode.part");
                    let mine = self
                        .entries()
                        .flat_map(|cell| cell.model.lifetimes.chunks(CHUNK).enumerate())
                        .enumerate()
                        .filter(|&(j, _)| worker_prints(j));
                    for (_, (k, chunk)) in mine {
                        let Ok(mut text) = returned.recv() else {
                            return;
                        };
                        text.clear();
                        print_lifetimes(chunk, k == 0, &mut text);
                        if printed.send(text).is_err() {
                            return;
                        }
                    }
                });
                (take, give_back)
            });
            let mut j = 0;
            for (e, cell) in self.entries().enumerate() {
                // Each head ends with its entry's empty lifetime array and the objects
                // it closes; the lifetimes go in between.
                if e == 0 {
                    serde_json::append(&CatalogHead::of(self), out);
                    trim_suffix(out, "]}}}");
                } else {
                    if e > 1 {
                        out.push(',');
                    }
                    serde_json::append(&CellHead::of(cell), out);
                    trim_suffix(out, "]}}");
                }
                for (k, chunk) in cell.model.lifetimes.chunks(CHUNK).enumerate() {
                    match &worker {
                        Some((take, give_back)) if worker_prints(j) => {
                            // The worker hangs up only by panicking, and the scope
                            // re-raises that panic once this returns.
                            let Ok(text) = take.recv() else {
                                return;
                            };
                            out.push_str(&text);
                            let _ = give_back.send(text);
                        }
                        _ => print_lifetimes(chunk, k == 0, out),
                    }
                    j += 1;
                }
                out.push_str(if e == 0 { "]}},\"cells\":[" } else { "]}}" });
            }
            out.push_str("]}");
        });
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

/// Lifetimes per chunk: the unit of work [`RegimeCatalog::to_json`] splits.
const CHUNK: usize = 4096;

/// The capacity of a worker's chunk buffer: a full-precision float and its comma
/// per lifetime, with room to spare.
const CHUNK_BYTES: usize = 24 * CHUNK;

/// The worker's chunk buffers: it waits for one to come back when all are printed
/// and not yet appended, which bounds the encoder's extra memory (and makes its
/// allocations the same on every run).
const BUFFERS: usize = 4;

/// Whether the worker prints the `j`-th lifetime chunk: two of every three.  The
/// calling thread prints the rest, and it also first-touches the output and copies
/// the worker's text into it, so it takes the smaller share.
fn worker_prints(j: usize) -> bool {
    !j.is_multiple_of(3)
}

/// Appends `lifetimes` as JSON array elements, with a comma before each but a
/// chunk's first in its entry.
fn print_lifetimes(lifetimes: &[f64], first: bool, out: &mut String) {
    for (i, lifetime) in lifetimes.iter().enumerate() {
        if i > 0 || !first {
            out.push(',');
        }
        serde_json::append(lifetime, out);
    }
}

/// Drops `suffix` from the end of `out`.
fn trim_suffix(out: &mut String, suffix: &str) {
    assert!(
        out.ends_with(suffix),
        "a catalog head must end with {suffix}"
    );
    out.truncate(out.len() - suffix.len());
}

/// [`RegimeCatalog`]'s fields in the derived order, without the cells and with the
/// pooled entry's lifetimes left empty.
#[derive(Serialize)]
struct CatalogHead<'a> {
    format_version: u32,
    name: &'a str,
    source: &'a str,
    horizon_hours: f64,
    total_records: usize,
    options: &'a FitOptions,
    pooled: CellHead<'a>,
}

impl<'a> CatalogHead<'a> {
    fn of(catalog: &'a RegimeCatalog) -> Self {
        // No `..`: a new catalog field fails to compile here until the view has it.
        let RegimeCatalog {
            format_version,
            name,
            source,
            horizon_hours,
            total_records,
            options,
            pooled,
            cells: _,
        } = catalog;
        CatalogHead {
            format_version: *format_version,
            name,
            source,
            horizon_hours: *horizon_hours,
            total_records: *total_records,
            options,
            pooled: CellHead::of(pooled),
        }
    }
}

/// [`CellFit`]'s fields in the derived order, with the lifetimes left empty.
#[derive(Serialize)]
struct CellHead<'a> {
    cell: &'a str,
    vm_type: Option<VmType>,
    zone: Option<Zone>,
    time_of_day: Option<TodSlot>,
    records: usize,
    deadline_survivals: usize,
    mean_lifetime_hours: f64,
    candidates: &'a [CandidateFit],
    selection: &'a str,
    model: ModelHead<'a>,
}

impl<'a> CellHead<'a> {
    fn of(fit: &'a CellFit) -> Self {
        let CellFit {
            cell,
            vm_type,
            zone,
            time_of_day,
            records,
            deadline_survivals,
            mean_lifetime_hours,
            candidates,
            selection,
            model,
        } = fit;
        let CalibratedModel {
            family,
            params,
            lifetimes: _,
        } = model;
        CellHead {
            cell,
            vm_type: *vm_type,
            zone: *zone,
            time_of_day: *time_of_day,
            records: *records,
            deadline_survivals: *deadline_survivals,
            mean_lifetime_hours: *mean_lifetime_hours,
            candidates,
            selection,
            model: ModelHead {
                family,
                params,
                lifetimes: [],
            },
        }
    }
}

/// [`CalibratedModel`]'s fields in the derived order, with the lifetimes left empty.
#[derive(Serialize)]
struct ModelHead<'a> {
    family: &'a str,
    params: &'a [f64],
    lifetimes: [f64; 0],
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

    /// An entry of `lifetimes` lifetimes won by `family`, with one bathtub candidate
    /// unless the family is the empirical fallback.
    fn entry(cell: &str, key: Option<CellKey>, lifetimes: usize, family: &str) -> CellFit {
        let lifetimes: Vec<f64> = (0..lifetimes)
            .map(|i| match i % 5 {
                0 => 24.0,
                1 => (i as f64 * 0.618_033_988_749_894_8).fract() * 24.0,
                2 => 1e-7 * i as f64,
                3 => 23.999_999,
                _ => (i % 97) as f64 / 8.0,
            })
            .collect();
        let bathtub = vec![0.45, 1.0, 0.8, 24.0];
        let (candidates, params) = if family == "empirical" {
            (Vec::new(), Vec::new())
        } else {
            let candidate = CandidateFit {
                family: "bathtub".to_string(),
                params: bathtub.clone(),
                ks_statistic: 0.05,
                log_likelihood: -12.5,
                aic: 33.0,
                r_squared: 0.99,
                rmse: 0.01,
            };
            (vec![candidate], bathtub)
        };
        CellFit {
            cell: cell.to_string(),
            vm_type: key.map(|k| k.vm_type),
            zone: key.map(|k| k.zone),
            time_of_day: key.map(|k| k.time_of_day),
            records: lifetimes.len(),
            deadline_survivals: lifetimes.len() / 5,
            mean_lifetime_hours: 3.25,
            candidates,
            selection: format!("{family} selected"),
            model: CalibratedModel {
                family: family.to_string(),
                params,
                lifetimes,
            },
        }
    }

    fn catalog(pooled: usize, cells: Vec<CellFit>) -> RegimeCatalog {
        RegimeCatalog {
            format_version: CATALOG_FORMAT_VERSION,
            name: "chunks".to_string(),
            source: "a \"quoted\" source".to_string(),
            horizon_hours: 24.0,
            total_records: pooled,
            options: FitOptions {
                tod_hours: Some(6),
                ..FitOptions::default()
            },
            pooled: entry(POOLED_CELL, None, pooled, "phased"),
            cells,
        }
    }

    /// `to_json`, and the encoder with and without its worker, print the derived bytes.
    fn assert_encodes_like_the_derived_impl(catalog: &RegimeCatalog) {
        let mut want = String::new();
        serde_json::append(catalog, &mut want);
        for split in [false, true] {
            let mut got = String::new();
            catalog.encode(&mut got, split);
            assert_eq!(got, want, "split {split}");
        }
        assert_eq!(catalog.to_json().unwrap(), want);
    }

    #[test]
    fn chunked_encoding_matches_the_derived_impl() {
        let day = CellKey::all()[0];
        let night = CellKey::all()[1];
        let hours = |start| CellKey {
            time_of_day: TodSlot::Hours { start, width: 6 },
            ..day
        };
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK] {
            let named = catalog(
                2 * n + 1,
                vec![
                    entry(&day.to_string(), Some(day), n, "bathtub"),
                    entry(&night.to_string(), Some(night), 1, "empirical"),
                    entry(&night.to_string(), Some(night), n, "weibull"),
                ],
            );
            assert_encodes_like_the_derived_impl(&named);
            let hour_cells = catalog(
                2 * n + 1,
                vec![
                    entry(&hours(0).to_string(), Some(hours(0)), 1, "empirical"),
                    entry(&hours(6).to_string(), Some(hours(6)), n, "empirical"),
                    entry(&hours(18).to_string(), Some(hours(18)), n, "phased"),
                ],
            );
            assert_encodes_like_the_derived_impl(&hour_cells);
        }
    }

    #[test]
    fn a_pooled_entry_alone_encodes_like_the_derived_impl() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK] {
            assert_encodes_like_the_derived_impl(&catalog(n, Vec::new()));
        }
    }

    #[test]
    fn loading_a_missing_file_errors() {
        assert!(RegimeCatalog::load(Path::new("/nonexistent/catalog.json")).is_err());
    }
}
