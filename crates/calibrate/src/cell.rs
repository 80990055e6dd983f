//! The calibration cell key.
//!
//! Calibration partitions a dataset along the three dimensions the paper's Figure 2
//! breaks preemptions down by: VM type (2a), time of day (2b) and zone (2c).  Idle and
//! non-idle records are pooled per cell — the workload split is a property of the
//! *tenant*, not of the provider-side regime the catalog models.
//!
//! The time-of-day dimension has two granularities: the paper's day/night split
//! ([`TodSlot::Named`]), and finer launch-hour buckets ([`TodSlot::Hours`]) produced by
//! `calibrate fit --tod-hours N` for datasets whose records carry a launch hour.  The
//! day/night cell keys are unchanged by the finer mode — `n1-highcpu-16/us-east1-b/day`
//! keeps meaning exactly what it always has — and hour cells render as
//! `n1-highcpu-16/us-east1-b/h08-12`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use tcp_trace::{TimeOfDay, VmType, Zone};

/// The time-of-day slot of a calibration cell: the paper's day/night bucket, or one of
/// the finer launch-hour buckets of `--tod-hours N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TodSlot {
    /// The day/night split of Figure 2b (day = 8 AM – 8 PM local).
    Named(TimeOfDay),
    /// A launch-hour bucket `[start, start + width)` in local hours.
    Hours {
        /// First hour of the bucket (0–23).
        start: u32,
        /// Bucket width in hours (divides 24).
        width: u32,
    },
}

impl TodSlot {
    /// The bucket a launch hour falls into for width `width` (which must divide 24).
    pub fn hour_bucket(hour: u32, width: u32) -> TodSlot {
        let width = width.clamp(1, 24);
        TodSlot::Hours {
            start: (hour % 24) / width * width,
            width,
        }
    }
}

impl fmt::Display for TodSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TodSlot::Named(tod) => write!(f, "{tod}"),
            TodSlot::Hours { start, width } => write!(f, "h{:02}-{:02}", start, start + width),
        }
    }
}

impl FromStr for TodSlot {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Ok(tod) = s.parse::<TimeOfDay>() {
            return Ok(TodSlot::Named(tod));
        }
        let hours = s
            .strip_prefix('h')
            .or_else(|| s.strip_prefix('H'))
            .ok_or_else(|| format!("unknown time-of-day slot: {s}"))?;
        let (start, end) = hours
            .split_once('-')
            .ok_or_else(|| format!("hour slot `{s}` must have the form hSS-EE (e.g. h08-12)"))?;
        let start: u32 = start
            .parse()
            .map_err(|_| format!("bad start hour in slot `{s}`"))?;
        let end: u32 = end
            .parse()
            .map_err(|_| format!("bad end hour in slot `{s}`"))?;
        if start >= 24 || end <= start || end > 24 {
            return Err(format!(
                "hour slot `{s}` must satisfy 0 <= start < end <= 24"
            ));
        }
        Ok(TodSlot::Hours {
            start,
            width: end - start,
        })
    }
}

// Hand-written serde: `Named` keeps the exact encoding the old `TimeOfDay` field used
// ("Day"/"Night" variant strings), so catalogs written before the launch-hour mode
// existed load unchanged; `Hours` serializes as its display form ("h08-12").
impl Serialize for TodSlot {
    fn serialize<S: serde::Serializer>(&self, out: &mut S) {
        match self {
            TodSlot::Named(TimeOfDay::Day) => out.str("Day"),
            TodSlot::Named(TimeOfDay::Night) => out.str("Night"),
            TodSlot::Hours { .. } => out.str(&self.to_string()),
        }
    }
}

impl<'de> Deserialize<'de> for TodSlot {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("a string", "TodSlot", value))?;
        s.parse()
            .map_err(|e: String| serde::Error::custom(format!("TodSlot: {e}")))
    }
}

/// Why a record cannot join a launch-hour cell.
pub(crate) const MISSING_LAUNCH_HOUR: &str =
    "launch-hour cells need records with a launch_hour column \
     (regenerate the dataset with hours, e.g. `trace gen --launch-hours`)";

/// One calibration cell: `(VM type, zone, time-of-day slot)`.
///
/// Renders as (and parses from) `vm-type/zone/time-of-day` using the GCP names, e.g.
/// `n1-highcpu-16/us-east1-b/day` (or `…/h08-12` for launch-hour cells) — the form
/// CLIs, sweep specs and advisory requests use to name cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellKey {
    /// Machine type.
    pub vm_type: VmType,
    /// Zone.
    pub zone: Zone,
    /// Time-of-day slot at launch.
    pub time_of_day: TodSlot,
}

impl CellKey {
    /// The cell a record falls into under an optional launch-hour split: `None` keeps
    /// the day/night bucket, `Some(width)` buckets by the record's `launch_hour`
    /// (an error when the record carries none).  The reference keying that
    /// `CellPartition`'s dense slots are tested against.
    #[cfg(test)]
    pub(crate) fn of_with(
        record: &tcp_trace::PreemptionRecord,
        tod_hours: Option<u32>,
    ) -> Result<Self, String> {
        let time_of_day = match tod_hours {
            None => TodSlot::Named(record.time_of_day),
            Some(width) => {
                let hour = record
                    .launch_hour
                    .ok_or_else(|| MISSING_LAUNCH_HOUR.to_string())?;
                TodSlot::hour_bucket(hour, width)
            }
        };
        Ok(CellKey {
            vm_type: record.vm_type,
            zone: record.zone,
            time_of_day,
        })
    }

    /// Every day/night cell, in the catalog's canonical (sorted) order.
    pub fn all() -> Vec<CellKey> {
        let mut out = Vec::with_capacity(5 * 4 * 2);
        for vm_type in VmType::all() {
            for zone in Zone::all() {
                for time_of_day in TimeOfDay::all() {
                    out.push(CellKey {
                        vm_type,
                        zone,
                        time_of_day: TodSlot::Named(time_of_day),
                    });
                }
            }
        }
        out.sort();
        out
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.vm_type, self.zone, self.time_of_day)
    }
}

impl FromStr for CellKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.trim().split('/').collect();
        let [vm, zone, tod] = parts[..] else {
            return Err(format!(
                "cell key `{s}` must have the form vm-type/zone/time-of-day \
                 (e.g. n1-highcpu-16/us-east1-b/day)"
            ));
        };
        Ok(CellKey {
            vm_type: vm.parse()?,
            zone: zone.parse()?,
            time_of_day: tod.parse()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_trace::{PreemptionRecord, WorkloadKind};

    #[test]
    fn display_round_trips_through_from_str() {
        for cell in CellKey::all() {
            assert_eq!(cell.to_string().parse::<CellKey>().unwrap(), cell);
        }
        let hour_cell = CellKey {
            vm_type: VmType::N1HighCpu16,
            zone: Zone::UsEast1B,
            time_of_day: TodSlot::Hours { start: 8, width: 4 },
        };
        assert_eq!(hour_cell.to_string(), "n1-highcpu-16/us-east1-b/h08-12");
        assert_eq!(hour_cell.to_string().parse::<CellKey>().unwrap(), hour_cell);
    }

    #[test]
    fn all_cells_are_distinct_sorted_and_complete() {
        let all = CellKey::all();
        assert_eq!(all.len(), 5 * 4 * 2);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn malformed_keys_are_rejected() {
        assert!("n1-highcpu-16/us-east1-b".parse::<CellKey>().is_err());
        assert!("n1-highcpu-16/us-east1-b/day/extra"
            .parse::<CellKey>()
            .is_err());
        assert!("n9-mega-64/us-east1-b/day".parse::<CellKey>().is_err());
        assert!("n1-highcpu-16/mars-east1-z/day".parse::<CellKey>().is_err());
        assert!("n1-highcpu-16/us-east1-b/dusk".parse::<CellKey>().is_err());
        assert!("n1-highcpu-16/us-east1-b/h12-08"
            .parse::<CellKey>()
            .is_err());
        assert!("n1-highcpu-16/us-east1-b/h00-25"
            .parse::<CellKey>()
            .is_err());
    }

    #[test]
    fn tod_slot_serde_is_back_compatible() {
        // Old catalogs stored the derived `TimeOfDay` encoding ("Day"/"Night").
        for (text, slot) in [
            ("Day", TodSlot::Named(TimeOfDay::Day)),
            ("day", TodSlot::Named(TimeOfDay::Day)),
            ("Night", TodSlot::Named(TimeOfDay::Night)),
            ("h00-06", TodSlot::Hours { start: 0, width: 6 }),
        ] {
            let value = serde::Value::Str(text.to_string());
            assert_eq!(TodSlot::deserialize(&value).unwrap(), slot);
        }
        // Round trip through the Serialize impl, on both deserialization paths.
        for (slot, json) in [
            (TodSlot::Named(TimeOfDay::Day), "\"Day\""),
            (TodSlot::Named(TimeOfDay::Night), "\"Night\""),
            (
                TodSlot::Hours {
                    start: 18,
                    width: 6,
                },
                "\"h18-24\"",
            ),
        ] {
            assert_eq!(serde_json::to_string(&slot).unwrap(), json);
            assert_eq!(serde_json::from_str::<TodSlot>(json).unwrap(), slot);
            let value = serde_json::parse_value(json).unwrap();
            assert_eq!(TodSlot::deserialize(&value).unwrap(), slot);
        }
    }

    #[test]
    fn hour_buckets_partition_the_day() {
        for hour in 0..24 {
            let TodSlot::Hours { start, width } = TodSlot::hour_bucket(hour, 6) else {
                panic!("expected an hour bucket");
            };
            assert_eq!(width, 6);
            assert!(start <= hour && hour < start + width);
            assert_eq!(start % 6, 0);
        }
    }

    #[test]
    fn records_map_to_their_cell_ignoring_workload() {
        let mk = |workload| {
            PreemptionRecord::new(
                VmType::N1HighCpu8,
                Zone::UsWest1A,
                TimeOfDay::Night,
                workload,
                2.0,
            )
            .unwrap()
        };
        let idle = CellKey::of_with(&mk(WorkloadKind::Idle), None).unwrap();
        let busy = CellKey::of_with(&mk(WorkloadKind::NonIdle), None).unwrap();
        assert_eq!(idle, busy);
        assert_eq!(idle.to_string(), "n1-highcpu-8/us-west1-a/night");
    }

    #[test]
    fn hour_split_requires_launch_hours() {
        let record = PreemptionRecord::new(
            VmType::N1HighCpu8,
            Zone::UsWest1A,
            TimeOfDay::Night,
            WorkloadKind::Idle,
            2.0,
        )
        .unwrap();
        // Day/night split never needs hours.
        assert!(CellKey::of_with(&record, None).is_ok());
        // Hour split without a launch hour is a descriptive error.
        let err = CellKey::of_with(&record, Some(6)).unwrap_err();
        assert!(err.contains("launch_hour"), "{err}");
        // With a launch hour the record lands in its bucket, keys stay parseable.
        let with_hour = record.with_launch_hour(22).unwrap();
        let key = CellKey::of_with(&with_hour, Some(6)).unwrap();
        assert_eq!(
            key.time_of_day,
            TodSlot::Hours {
                start: 18,
                width: 6
            }
        );
        assert_eq!(key.to_string().parse::<CellKey>().unwrap(), key);
    }
}
