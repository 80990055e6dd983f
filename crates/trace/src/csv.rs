//! CSV persistence for preemption datasets.
//!
//! The published dataset accompanying the paper is a simple tabular file of one VM per row;
//! this module reads and writes the same layout without pulling in a CSV dependency:
//!
//! ```csv
//! vm_type,zone,time_of_day,workload,lifetime_hours,preempted_before_deadline
//! n1-highcpu-16,us-east1-b,day,non-idle,3.274,true
//! ```

use crate::record::PreemptionRecord;
use std::fs;
use std::path::Path;
use tcp_numerics::{NumericsError, Result};

/// Header row written and expected by the CSV routines (datasets without launch hours).
pub const CSV_HEADER: &str =
    "vm_type,zone,time_of_day,workload,lifetime_hours,preempted_before_deadline";

/// Header row of datasets carrying a launch-hour column (written whenever any record
/// has one; the column is blank for records without).
pub const CSV_HEADER_HOURS: &str =
    "vm_type,zone,time_of_day,workload,lifetime_hours,preempted_before_deadline,launch_hour";

/// The largest lifetime a preempted record is written with: the last six-decimal value
/// below the 24 h deadline.
const MAX_PREEMPTED_LIFETIME: f64 = 23.999_999;

/// Serialises records to a CSV string (with header).  The launch-hour column appears
/// only when at least one record carries a launch hour, so hour-free datasets keep the
/// original six-column layout byte for byte.
pub fn records_to_csv_string(records: &[PreemptionRecord]) -> String {
    let with_hours = records.iter().any(|r| r.launch_hour.is_some());
    let mut out = String::with_capacity(64 * (records.len() + 1));
    out.push_str(if with_hours {
        CSV_HEADER_HOURS
    } else {
        CSV_HEADER
    });
    out.push('\n');
    for r in records {
        // `{:.6}` rounds a preempted lifetime within 5e-7 h of the deadline up to
        // `24.000000`, which reads back as a deadline survival; such rows are written
        // as the largest six-decimal value below the deadline instead.  Every other
        // row renders exactly as plain `{:.6}` would.
        let lifetime = if r.preempted_before_deadline {
            r.lifetime_hours.min(MAX_PREEMPTED_LIFETIME)
        } else {
            r.lifetime_hours
        };
        out.push_str(&format!(
            "{},{},{},{},{:.6},{}",
            r.vm_type, r.zone, r.time_of_day, r.workload, lifetime, r.preempted_before_deadline
        ));
        if with_hours {
            out.push(',');
            if let Some(hour) = r.launch_hour {
                out.push_str(&hour.to_string());
            }
        }
        out.push('\n');
    }
    out
}

/// Parses records from CSV text (header required, blank lines ignored).  Both the
/// six-column layout and the launch-hour layout are accepted.
pub fn records_from_csv_str(text: &str) -> Result<Vec<PreemptionRecord>> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| NumericsError::invalid("empty CSV input"))?;
    let expected_fields = match header.trim() {
        h if h == CSV_HEADER => 6,
        h if h == CSV_HEADER_HOURS => 7,
        _ => {
            return Err(NumericsError::invalid(format!(
                "unexpected CSV header: {header:?} (expected {CSV_HEADER:?} or \
                 {CSV_HEADER_HOURS:?})"
            )))
        }
    };
    // Each record is one line, so the newline count bounds the record count.
    let mut records = Vec::with_capacity(text.bytes().filter(|&b| b == b'\n').count());
    let mut fields = [""; 7];
    for (line_no, line) in lines.enumerate() {
        let mut found = 0;
        for field in line.split(',') {
            if let Some(slot) = fields.get_mut(found) {
                *slot = field;
            }
            found += 1;
        }
        if found != expected_fields {
            return Err(NumericsError::invalid(format!(
                "line {}: expected {expected_fields} fields, found {found}",
                line_no + 2,
            )));
        }
        let parse_err = |what: &str, detail: String| {
            NumericsError::invalid(format!("line {}: bad {what}: {detail}", line_no + 2))
        };
        let vm_type = fields[0]
            .parse()
            .map_err(|e: String| parse_err("vm_type", e))?;
        let zone = fields[1]
            .parse()
            .map_err(|e: String| parse_err("zone", e))?;
        let time_of_day = fields[2]
            .parse()
            .map_err(|e: String| parse_err("time_of_day", e))?;
        let workload = fields[3]
            .parse()
            .map_err(|e: String| parse_err("workload", e))?;
        let lifetime: f64 = fields[4]
            .trim()
            .parse()
            .map_err(|e: std::num::ParseFloatError| parse_err("lifetime_hours", e.to_string()))?;
        let record = PreemptionRecord::new(vm_type, zone, time_of_day, workload, lifetime)
            .map_err(|e| parse_err("record", e))?;
        // `preempted_before_deadline` is derived from the lifetime; the stored flag is
        // validated for consistency rather than trusted.
        let stored_flag: bool =
            fields[5]
                .trim()
                .parse()
                .map_err(|e: std::str::ParseBoolError| {
                    parse_err("preempted_before_deadline", e.to_string())
                })?;
        if stored_flag != record.preempted_before_deadline {
            return Err(parse_err(
                "preempted_before_deadline",
                format!("inconsistent with lifetime {lifetime}"),
            ));
        }
        let record = if expected_fields == 7 && !fields[6].trim().is_empty() {
            let hour: u32 = fields[6]
                .trim()
                .parse()
                .map_err(|e: std::num::ParseIntError| parse_err("launch_hour", e.to_string()))?;
            record
                .with_launch_hour(hour)
                .map_err(|e| parse_err("launch_hour", e))?
        } else {
            record
        };
        records.push(record);
    }
    Ok(records)
}

/// Writes records to a CSV file, creating parent directories as needed.
pub fn save_records_csv(path: &Path, records: &[PreemptionRecord]) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)
                .map_err(|e| NumericsError::invalid(format!("cannot create {parent:?}: {e}")))?;
        }
    }
    fs::write(path, records_to_csv_string(records))
        .map_err(|e| NumericsError::invalid(format!("cannot write {path:?}: {e}")))
}

/// Loads records from a CSV file.
pub fn load_records_csv(path: &Path) -> Result<Vec<PreemptionRecord>> {
    let text = fs::read_to_string(path)
        .map_err(|e| NumericsError::invalid(format!("cannot read {path:?}: {e}")))?;
    records_from_csv_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ConfigKey;
    use crate::generator::TraceGenerator;
    use crate::record::{TimeOfDay, VmType, WorkloadKind, Zone};

    fn sample_records() -> Vec<PreemptionRecord> {
        vec![
            PreemptionRecord::new(
                VmType::N1HighCpu16,
                Zone::UsEast1B,
                TimeOfDay::Day,
                WorkloadKind::NonIdle,
                3.25,
            )
            .unwrap(),
            PreemptionRecord::new(
                VmType::N1HighCpu2,
                Zone::UsWest1A,
                TimeOfDay::Night,
                WorkloadKind::Idle,
                24.0,
            )
            .unwrap(),
        ]
    }

    #[test]
    fn round_trip_string() {
        let records = sample_records();
        let csv = records_to_csv_string(&records);
        assert!(csv.starts_with(CSV_HEADER));
        let parsed = records_from_csv_str(&csv).unwrap();
        assert_eq!(parsed.len(), records.len());
        for (a, b) in parsed.iter().zip(&records) {
            assert_eq!(a.vm_type, b.vm_type);
            assert_eq!(a.zone, b.zone);
            assert!((a.lifetime_hours - b.lifetime_hours).abs() < 1e-6);
            assert_eq!(a.preempted_before_deadline, b.preempted_before_deadline);
        }
    }

    #[test]
    fn lifetime_just_under_the_deadline_round_trips() {
        let make = |lifetime| {
            PreemptionRecord::new(
                VmType::N1HighCpu16,
                Zone::UsEast1B,
                TimeOfDay::Day,
                WorkloadKind::NonIdle,
                lifetime,
            )
            .unwrap()
        };
        let records = vec![make(24.0 - 1e-7), make(23.999_999_4), make(24.0)];
        assert!(records[0].preempted_before_deadline);
        let csv = records_to_csv_string(&records);
        let tails: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|row| row.split_once(",non-idle,").unwrap().1)
            .collect();
        // The first row is clamped below the deadline; the other two already
        // round-tripped and keep their bytes.
        assert_eq!(
            tails,
            ["23.999999,true", "23.999999,true", "24.000000,false"]
        );
        let parsed = records_from_csv_str(&csv).unwrap();
        let flags: Vec<bool> = parsed.iter().map(|r| r.preempted_before_deadline).collect();
        assert_eq!(flags, [true, true, false]);
        assert!((parsed[0].lifetime_hours - records[0].lifetime_hours).abs() < 1e-6);
    }

    #[test]
    fn round_trip_file() {
        let dir = std::env::temp_dir().join("tcp_trace_csv_test");
        let path = dir.join("records.csv");
        let mut gen = TraceGenerator::new(9);
        let records = gen.generate_for(ConfigKey::figure1(), 40).unwrap();
        save_records_csv(&path, &records).unwrap();
        let loaded = load_records_csv(&path).unwrap();
        assert_eq!(loaded.len(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn launch_hour_column_round_trips() {
        let records: Vec<PreemptionRecord> = sample_records()
            .into_iter()
            .map(|r| {
                let hour = match r.time_of_day {
                    TimeOfDay::Day => 9,
                    TimeOfDay::Night => 22,
                };
                r.with_launch_hour(hour).unwrap()
            })
            .collect();
        let csv = records_to_csv_string(&records);
        assert!(csv.starts_with(CSV_HEADER_HOURS), "{csv}");
        let parsed = records_from_csv_str(&csv).unwrap();
        assert_eq!(parsed.len(), records.len());
        for (a, b) in parsed.iter().zip(&records) {
            assert_eq!(a.launch_hour, b.launch_hour);
        }
        // Hour-free datasets keep the six-column layout byte for byte.
        let plain = records_to_csv_string(&sample_records());
        assert!(plain.starts_with(CSV_HEADER));
        assert!(!plain.contains("launch_hour"));
        // Inconsistent hours are rejected on load.
        let bad =
            format!("{CSV_HEADER_HOURS}\nn1-highcpu-16,us-east1-b,day,non-idle,3.2,true,23\n");
        assert!(records_from_csv_str(&bad).is_err());
        // A blank hour field parses as "no hour".
        let blank =
            format!("{CSV_HEADER_HOURS}\nn1-highcpu-16,us-east1-b,day,non-idle,3.2,true,\n");
        assert_eq!(records_from_csv_str(&blank).unwrap()[0].launch_hour, None);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(records_from_csv_str("a,b,c\n1,2,3\n").is_err());
        assert!(records_from_csv_str("").is_err());
    }

    #[test]
    fn rejects_malformed_rows() {
        let bad_fields = format!("{CSV_HEADER}\nn1-highcpu-16,us-east1-b,day,non-idle,3.2\n");
        assert!(records_from_csv_str(&bad_fields).is_err());

        let bad_type = format!("{CSV_HEADER}\nn9-mega-64,us-east1-b,day,non-idle,3.2,true\n");
        assert!(records_from_csv_str(&bad_type).is_err());

        let bad_lifetime =
            format!("{CSV_HEADER}\nn1-highcpu-16,us-east1-b,day,non-idle,notanumber,true\n");
        assert!(records_from_csv_str(&bad_lifetime).is_err());

        let too_long = format!("{CSV_HEADER}\nn1-highcpu-16,us-east1-b,day,non-idle,31.0,true\n");
        assert!(records_from_csv_str(&too_long).is_err());

        let inconsistent_flag =
            format!("{CSV_HEADER}\nn1-highcpu-16,us-east1-b,day,non-idle,3.0,false\n");
        assert!(records_from_csv_str(&inconsistent_flag).is_err());
    }

    #[test]
    fn error_messages_are_pinned() {
        let cases = [
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.2",
                "line 2: expected 6 fields, found 5",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true,1,2",
                "line 2: expected 6 fields, found 8",
            ),
            (
                CSV_HEADER_HOURS,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true",
                "line 2: expected 7 fields, found 6",
            ),
            (
                CSV_HEADER,
                "n9-mega-64,us-east1-b,day,non-idle,3.2,true",
                "line 2: bad vm_type: unknown VM type: n9-mega-64",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16, Mars-1a ,day,non-idle,3.2,true",
                "line 2: bad zone: unknown zone: Mars-1a",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,Dusk,non-idle,3.2,true",
                "line 2: bad time_of_day: unknown time of day: dusk",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day, Sleeping ,3.2,true",
                "line 2: bad workload: unknown workload kind: sleeping",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day,non-idle,notanumber,true",
                "line 2: bad lifetime_hours: invalid float literal",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day,non-idle,31.0,true",
                "line 2: bad record: lifetime 31 exceeds the 24 h constraint",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.0,false",
                "line 2: bad preempted_before_deadline: inconsistent with lifetime 3",
            ),
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.0,yes",
                "line 2: bad preempted_before_deadline: provided string was not `true` or \
                 `false`",
            ),
            (
                CSV_HEADER_HOURS,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true,noon",
                "line 2: bad launch_hour: invalid digit found in string",
            ),
            (
                CSV_HEADER_HOURS,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true,24",
                "line 2: bad launch_hour: launch hour must lie in 0..24, got 24",
            ),
            (
                CSV_HEADER_HOURS,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true,23",
                "line 2: bad launch_hour: launch hour 23 is inconsistent with time of day `day`",
            ),
            // Blank lines are not counted: the bad row after one is still "line 3".
            (
                CSV_HEADER,
                "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true\n\nbad",
                "line 3: expected 6 fields, found 1",
            ),
        ];
        for (header, rows, want) in cases {
            let err = records_from_csv_str(&format!("{header}\n{rows}\n")).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid argument: {want}"),
                "{rows:?}"
            );
        }
    }

    #[test]
    fn lenient_rows_are_accepted() {
        let csv = format!(
            "{CSV_HEADER}\r\n\
             n1-highcpu-16,us-east1-b,DAY,non-idle,3.2,true\r\n\
             \r\n\
             n1-highcpu-2,us-west1-a,Night,Non-Idle,24,false\n\
             \n\
             n1-highcpu-4,us-central1-c,night,BUSY,1.5,true\n\
             \x20n1-highcpu-8 , us-central1-f ,\tday , idle , 2.25 , true \n"
        );
        let parsed = records_from_csv_str(&csv).unwrap();
        let got: Vec<(VmType, Zone, TimeOfDay, WorkloadKind, f64, bool)> = parsed
            .iter()
            .map(|r| {
                (
                    r.vm_type,
                    r.zone,
                    r.time_of_day,
                    r.workload,
                    r.lifetime_hours,
                    r.preempted_before_deadline,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (
                    VmType::N1HighCpu16,
                    Zone::UsEast1B,
                    TimeOfDay::Day,
                    WorkloadKind::NonIdle,
                    3.2,
                    true
                ),
                (
                    VmType::N1HighCpu2,
                    Zone::UsWest1A,
                    TimeOfDay::Night,
                    WorkloadKind::NonIdle,
                    24.0,
                    false
                ),
                (
                    VmType::N1HighCpu4,
                    Zone::UsCentral1C,
                    TimeOfDay::Night,
                    WorkloadKind::NonIdle,
                    1.5,
                    true
                ),
                (
                    VmType::N1HighCpu8,
                    Zone::UsCentral1F,
                    TimeOfDay::Day,
                    WorkloadKind::Idle,
                    2.25,
                    true
                ),
            ]
        );
        // A padded, mixed-case launch-hour row parses too.
        let hours =
            format!("{CSV_HEADER_HOURS}\nn1-highcpu-16,us-east1-b,Day,Idle,3.2,true, 9 \r\n");
        assert_eq!(
            records_from_csv_str(&hours).unwrap()[0].launch_hour,
            Some(9)
        );
    }

    #[test]
    fn blank_lines_ignored() {
        let csv = format!("{CSV_HEADER}\n\nn1-highcpu-16,us-east1-b,day,non-idle,3.2,true\n\n");
        let parsed = records_from_csv_str(&csv).unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_records_csv(Path::new("/nonexistent/definitely/missing.csv")).is_err());
    }
}
