//! CSV persistence for preemption datasets.
//!
//! The published dataset accompanying the paper is a simple tabular file of one VM per row;
//! this module reads and writes the same layout without pulling in a CSV dependency:
//!
//! ```csv
//! vm_type,zone,time_of_day,workload,lifetime_hours,preempted_before_deadline
//! n1-highcpu-16,us-east1-b,day,non-idle,3.274,true
//! ```

use crate::record::{PreemptionRecord, TimeOfDay, VmType, WorkloadKind, Zone};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::str::FromStr;
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
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{},{},{},{},{:.6},{}",
            r.vm_type, r.zone, r.time_of_day, r.workload, lifetime, r.preempted_before_deadline
        );
        if with_hours {
            out.push(',');
            if let Some(hour) = r.launch_hour {
                let _ = write!(out, "{hour}");
            }
        }
        out.push('\n');
    }
    out
}

/// The widest row layout (the launch-hour layout's seven columns).
const MAX_FIELDS: usize = 7;

/// One line of CSV text, found by a single byte scan: its bounds and the positions of
/// its first commas.
struct Line {
    /// First byte of the line.
    start: usize,
    /// One past its last byte; a `\r` before the line's `\n` is excluded, as in
    /// [`str::lines`].
    end: usize,
    /// First byte of the following line.
    next: usize,
    /// Byte positions of the first `MAX_FIELDS - 1` commas.
    commas: [usize; MAX_FIELDS - 1],
    /// Comma count plus one: the line's field count.
    fields: usize,
}

impl Line {
    /// Scans the line starting at byte `start` (which must be below `bytes.len()`):
    /// eight bytes at a time while a whole word remains, then byte by byte.
    fn scan(bytes: &[u8], start: usize) -> Line {
        let mut line = Line {
            start,
            end: bytes.len(),
            next: bytes.len() + 1,
            commas: [0; MAX_FIELDS - 1],
            fields: 1,
        };
        let mut at = start;
        while let Some(word) = bytes[at..].first_chunk::<8>() {
            let word = u64::from_le_bytes(*word);
            let newlines = byte_matches(word, b'\n');
            // Only the commas before the first newline belong to this line.
            let mut commas = byte_matches(word, b',') & newlines.wrapping_sub(1) & !newlines;
            while commas != 0 {
                line.comma(at + commas.trailing_zeros() as usize / 8);
                commas &= commas - 1;
            }
            if newlines != 0 {
                return line.ended(bytes, at + newlines.trailing_zeros() as usize / 8);
            }
            at += 8;
        }
        for (offset, &byte) in bytes[at..].iter().enumerate() {
            if byte == b'\n' {
                return line.ended(bytes, at + offset);
            }
            if byte == b',' {
                line.comma(at + offset);
            }
        }
        line
    }

    fn comma(&mut self, at: usize) {
        if let Some(slot) = self.commas.get_mut(self.fields - 1) {
            *slot = at;
        }
        self.fields += 1;
    }

    /// The line ends at the `\n` at byte `newline`.
    fn ended(mut self, bytes: &[u8], newline: usize) -> Line {
        self.next = newline + 1;
        self.end = if newline > self.start && bytes[newline - 1] == b'\r' {
            newline - 1
        } else {
            newline
        };
        self
    }

    /// The line's text.
    fn text<'a>(&self, text: &'a str) -> &'a str {
        &text[self.start..self.end]
    }

    /// Whether the line is blank (`line.trim().is_empty()`); only a line opening with
    /// whitespace or a non-ASCII character needs the `trim`.
    fn is_blank(&self, text: &str) -> bool {
        match text.as_bytes()[self.start..self.end].first() {
            None => true,
            Some(&b) if b.is_ascii() && !char::from(b).is_whitespace() => false,
            Some(_) => self.text(text).trim().is_empty(),
        }
    }

    /// The line's fields; call only when `fields <= MAX_FIELDS`.
    fn split<'a>(&self, text: &'a str) -> [&'a str; MAX_FIELDS] {
        let mut out = [""; MAX_FIELDS];
        let mut from = self.start;
        for (slot, &comma) in out.iter_mut().zip(&self.commas[..self.fields - 1]) {
            *slot = &text[from..comma];
            from = comma + 1;
        }
        out[self.fields - 1] = &text[from..self.end];
        out
    }
}

/// The high bit of each byte of `word` that equals `byte`, and no other bit.
fn byte_matches(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    // A byte of `x` is zero exactly when neither its low seven bits (which carry into
    // bit 7 when added to 0x7f, never past it) nor its high bit are set.
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The number of `\n` bytes in `bytes`, counted per 255-byte chunk in a `u8` so the
/// loop vectorises.
fn count_newlines(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|chunk| {
            chunk
                .iter()
                .fold(0u8, |n, &b| n.wrapping_add(u8::from(b == b'\n'))) as usize
        })
        .sum()
}

/// A table of canonical spellings, each at slot `(last byte + length) % N`.
type Spellings<T, const N: usize> = [Option<(&'static str, T)>; N];

const fn spelling_slot(spelling: &[u8], slots: usize) -> usize {
    match spelling.last() {
        Some(&last) => (last as usize + spelling.len()) % slots,
        None => 0,
    }
}

/// Lays spellings out by slot; two spellings sharing a slot fail the build.
const fn spellings<T: Copy, const K: usize, const N: usize>(
    entries: [(&'static str, T); K],
) -> Spellings<T, N> {
    let mut table = [None; N];
    let mut i = 0;
    while i < K {
        let slot = spelling_slot(entries[i].0.as_bytes(), N);
        assert!(table[slot].is_none(), "two spellings share a slot");
        table[slot] = Some(entries[i]);
        i += 1;
    }
    table
}

// The canonical spelling of every enum and flag value: what `records_to_csv_string`
// writes.  A lookup is one load and one comparison, with no chain of comparisons to
// mispredict on shuffled rows.
const VM_TYPES: Spellings<VmType, 8> = spellings([
    ("n1-highcpu-2", VmType::N1HighCpu2),
    ("n1-highcpu-4", VmType::N1HighCpu4),
    ("n1-highcpu-8", VmType::N1HighCpu8),
    ("n1-highcpu-16", VmType::N1HighCpu16),
    ("n1-highcpu-32", VmType::N1HighCpu32),
]);
const ZONES: Spellings<Zone, 16> = spellings([
    ("us-central1-c", Zone::UsCentral1C),
    ("us-central1-f", Zone::UsCentral1F),
    ("us-west1-a", Zone::UsWest1A),
    ("us-east1-b", Zone::UsEast1B),
]);
const TIMES_OF_DAY: Spellings<TimeOfDay, 8> =
    spellings([("day", TimeOfDay::Day), ("night", TimeOfDay::Night)]);
const WORKLOADS: Spellings<WorkloadKind, 8> = spellings([
    ("idle", WorkloadKind::Idle),
    ("non-idle", WorkloadKind::NonIdle),
]);
const FLAGS: Spellings<bool, 8> = spellings([("true", true), ("false", false)]);

/// The value `field` spells canonically, if it does.
fn canonical<T: Copy, const N: usize>(field: &str, table: &Spellings<T, N>) -> Option<T> {
    match table[spelling_slot(field.as_bytes(), N)] {
        Some((spelling, value)) if spelling == field => Some(value),
        _ => None,
    }
}

/// An enum field: its canonical spelling, or else the type's `FromStr`, which trims,
/// folds case, knows the aliases and words the errors.
fn enum_field<T: Copy + FromStr<Err = String>, const N: usize>(
    field: &str,
    table: &Spellings<T, N>,
) -> std::result::Result<T, String> {
    canonical(field, table).map_or_else(|| field.parse(), Ok)
}

/// The smallest share of a CSV body worth a thread of its own: smaller inputs, and
/// every test document, parse on the calling thread.
const MIN_PART_BYTES: usize = 1 << 20;

/// Parses records from CSV text (header required, blank lines ignored).  Both the
/// six-column layout and the launch-hour layout are accepted.
///
/// One byte scan finds each line and its commas.  Lines are those of [`str::lines`]
/// (split at `\n`, a `\r` before it dropped); a line is blank when its `trim` is
/// empty, and errors number a line by its count of non-blank lines.
///
/// The body after the header is parsed on the available CPUs, in line-aligned parts
/// of at least 1 MiB each, so a body under 2 MiB stays on the calling thread.  The
/// records, and the error of the first failing line, are the same for every number of
/// parts.
pub fn records_from_csv_str(text: &str) -> Result<Vec<PreemptionRecord>> {
    parse_records(text, |body_len| match body_len / MIN_PART_BYTES {
        0 | 1 => 1,
        parts => parts.min(std::thread::available_parallelism().map_or(1, usize::from)),
    })
}

/// [`records_from_csv_str`] with the body cut into `parts(body length)` parts (at least
/// one).
fn parse_records(text: &str, parts: impl FnOnce(usize) -> usize) -> Result<Vec<PreemptionRecord>> {
    let bytes = text.as_bytes();
    let mut at = 0;
    let header = loop {
        if at >= bytes.len() {
            return Err(NumericsError::invalid("empty CSV input"));
        }
        let line = Line::scan(bytes, at);
        at = line.next;
        if !line.is_blank(text) {
            break line.text(text);
        }
    };
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
    if at >= bytes.len() {
        return Ok(Vec::new());
    }
    let parts = Part::cut(bytes, at, parts(bytes.len() - at).max(1));
    // Each record is one line, so a part's line count bounds its records.  The
    // capacity is the text's newline count: the header's own newline covers an
    // unterminated last line.
    let lines = on_threads(&parts, |part| part.lines(bytes));
    let slots: usize = lines.iter().sum();
    let unterminated = usize::from(!text.ends_with('\n'));
    let mut records = Vec::with_capacity(count_newlines(&bytes[..at]) + slots - unterminated);
    records.resize(slots, FILLER);
    let mut rest = records.as_mut_slice();
    let shares = lines.iter().map(|&count| {
        let (share, tail) = std::mem::take(&mut rest).split_at_mut(count);
        rest = tail;
        share
    });
    let parsed = on_threads(parts.iter().zip(shares), |(part, share)| {
        part.parse(text, expected_fields, 1, share)
    });
    // Close the gaps the blank lines left, in part order.  The first failing part's
    // error wins; its line numbers count from the part's start, so it is parsed again
    // from the count of the non-blank lines before it: every earlier part parsed, one
    // record per non-blank line.
    let (mut filled, mut from) = (0, 0);
    for ((part, slots), parsed) in parts.iter().zip(lines).zip(parsed) {
        match parsed {
            Ok(count) => {
                if from != filled {
                    records.copy_within(from..from + count, filled);
                }
                filled += count;
                from += slots;
            }
            Err(err) => {
                return part
                    .parse(text, expected_fields, 1 + filled, &mut records[filled..])
                    .and(Err(err));
            }
        }
    }
    records.truncate(filled);
    Ok(records)
}

/// Runs `work` on every input, the first on the calling thread and each other on a
/// scoped thread of its own; returns the results in input order.
fn on_threads<I: Send, T: Send>(
    inputs: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let work = &work;
    std::thread::scope(|scope| {
        let mut inputs = inputs.into_iter();
        let first = inputs.next();
        let workers: Vec<_> = inputs
            .map(|input| {
                scope.spawn(move || {
                    let _span = tcp_obs::span!("trace.csv_parse.part");
                    work(input)
                })
            })
            .collect();
        first
            .map(work)
            .into_iter()
            .chain(workers.into_iter().map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }))
            .collect()
    })
}

/// What a record slot holds until its part's parse overwrites it.
const FILLER: PreemptionRecord = PreemptionRecord {
    vm_type: VmType::N1HighCpu2,
    zone: Zone::UsCentral1C,
    time_of_day: TimeOfDay::Day,
    workload: WorkloadKind::Idle,
    lifetime_hours: 0.0,
    preempted_before_deadline: true,
    launch_hour: None,
};

/// A line-aligned share of a CSV body.
struct Part {
    /// First byte of its first line.
    start: usize,
    /// One past its last byte: just after a `\n`, or the end of the text.
    end: usize,
}

impl Part {
    /// Cuts the body starting at byte `body` into `parts` parts of about equal length,
    /// each ending just after a newline or at the end of the text; a part may be empty.
    fn cut(bytes: &[u8], body: usize, parts: usize) -> Vec<Part> {
        let len = bytes.len() - body;
        let mut out = Vec::with_capacity(parts);
        let mut start = body;
        for k in 1..=parts {
            let end = if k == parts {
                bytes.len()
            } else {
                let aim = (body + k * len / parts).max(start);
                bytes[aim..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |newline| aim + newline + 1)
            };
            out.push(Part { start, end });
            start = end;
        }
        out
    }

    /// Its line count, an upper bound on its records.
    fn lines(&self, bytes: &[u8]) -> usize {
        let own = &bytes[self.start..self.end];
        count_newlines(own) + usize::from(own.last().is_some_and(|&b| b != b'\n'))
    }

    /// Parses the part's rows into `slots`, numbering lines on from `line_no`, the
    /// count of non-blank lines before the part; returns the number of records.
    fn parse(
        &self,
        text: &str,
        expected_fields: usize,
        mut line_no: usize,
        slots: &mut [PreemptionRecord],
    ) -> Result<usize> {
        let bytes = text.as_bytes();
        let mut records = 0;
        let mut at = self.start;
        while at < self.end {
            let line = Line::scan(bytes, at);
            at = line.next;
            if line.is_blank(text) {
                continue;
            }
            line_no += 1;
            slots[records] = parse_row(text, &line, expected_fields, line_no)?;
            records += 1;
        }
        Ok(records)
    }
}

/// Parses one non-blank row, numbered `line_no` in errors.
fn parse_row(
    text: &str,
    line: &Line,
    expected_fields: usize,
    line_no: usize,
) -> Result<PreemptionRecord> {
    if line.fields != expected_fields {
        return Err(NumericsError::invalid(format!(
            "line {line_no}: expected {expected_fields} fields, found {}",
            line.fields
        )));
    }
    let fields = line.split(text);
    let parse_err = |what: &str, detail: String| {
        NumericsError::invalid(format!("line {line_no}: bad {what}: {detail}"))
    };
    let vm_type = enum_field(fields[0], &VM_TYPES).map_err(|e| parse_err("vm_type", e))?;
    let zone = enum_field(fields[1], &ZONES).map_err(|e| parse_err("zone", e))?;
    let time_of_day =
        enum_field(fields[2], &TIMES_OF_DAY).map_err(|e| parse_err("time_of_day", e))?;
    let workload = enum_field(fields[3], &WORKLOADS).map_err(|e| parse_err("workload", e))?;
    let lifetime: f64 = fields[4]
        .trim()
        .parse()
        .map_err(|e: std::num::ParseFloatError| parse_err("lifetime_hours", e.to_string()))?;
    let record = PreemptionRecord::new(vm_type, zone, time_of_day, workload, lifetime)
        .map_err(|e| parse_err("record", e))?;
    // `preempted_before_deadline` is derived from the lifetime; the stored flag is
    // validated for consistency rather than trusted.
    let stored_flag = canonical(fields[5], &FLAGS)
        .map_or_else(|| fields[5].trim().parse(), Ok)
        .map_err(|e: std::str::ParseBoolError| {
            parse_err("preempted_before_deadline", e.to_string())
        })?;
    if stored_flag != record.preempted_before_deadline {
        return Err(parse_err(
            "preempted_before_deadline",
            format!("inconsistent with lifetime {lifetime}"),
        ));
    }
    if expected_fields == 7 && !fields[6].trim().is_empty() {
        let hour: u32 = fields[6]
            .trim()
            .parse()
            .map_err(|e: std::num::ParseIntError| parse_err("launch_hour", e.to_string()))?;
        return record
            .with_launch_hour(hour)
            .map_err(|e| parse_err("launch_hour", e));
    }
    Ok(record)
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The line-iterator parser `records_from_csv_str` replaced, kept as the oracle of
    /// the differential test below: `str::lines`, `split(',')` and `FromStr` per field.
    fn reference_records_from_csv_str(text: &str) -> Result<Vec<PreemptionRecord>> {
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
            let lifetime: f64 =
                fields[4]
                    .trim()
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| {
                        parse_err("lifetime_hours", e.to_string())
                    })?;
            let record = PreemptionRecord::new(vm_type, zone, time_of_day, workload, lifetime)
                .map_err(|e| parse_err("record", e))?;
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
                let hour: u32 =
                    fields[6]
                        .trim()
                        .parse()
                        .map_err(|e: std::num::ParseIntError| {
                            parse_err("launch_hour", e.to_string())
                        })?;
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

    /// Whitespace `str::trim` strips: ASCII (vertical tab included) and Unicode.
    const SPACES: [&str; 9] = [
        " ", "\t", "\x0b", "\x0c", "\u{a0}", "\u{85}", "\u{2028}", "\u{3000}", "\u{1680}",
    ];

    fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
        options[rng.gen_range(0..options.len())]
    }

    /// A random case variant of `field` (ASCII letters only change).
    fn recase(field: &str, rng: &mut StdRng) -> String {
        field
            .chars()
            .map(|c| {
                if rng.gen_range(0..2) == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    /// One field mutation: padding, case, aliases, junk, or odd numbers and flags.
    fn mutate_field(field: &str, column: usize, rng: &mut StdRng) -> String {
        match rng.gen_range(0..6) {
            0 => format!("{}{field}{}", pick(rng, &SPACES), pick(rng, &SPACES)),
            1 => recase(field, rng),
            2 => match column {
                3 => pick(rng, &["busy", "nonidle", "Busy", " NONIDLE ", "sleeping"]).into(),
                4 => pick(
                    rng,
                    &[
                        "",
                        "nan",
                        "inf",
                        "-0",
                        "1e400",
                        "-1",
                        "24.0000001",
                        "24",
                        "23.9999999999",
                        "0x10",
                        "1.",
                        ".5",
                        "+3.5",
                        "3,5",
                        "３",
                    ],
                )
                .into(),
                5 => pick(rng, &["yes", "TRUE", "False", " true", "1", ""]).into(),
                6 => pick(rng, &["", " ", "noon", "24", "-1", "+9", "07", "23", "12"]).into(),
                _ => pick(rng, &["", "x", "n1-highcpu-64", "us-east1", "dusk", "é"]).into(),
            },
            3 => format!("{field}{}", pick(rng, &["x", "é", "\u{3000}y", "\r"])),
            4 => String::new(),
            _ => field.to_ascii_uppercase(),
        }
    }

    /// A random document: a (sometimes damaged) header, rows drawn around a valid
    /// record with occasional field, count and line-ending damage, and blank lines.
    fn random_document(rng: &mut StdRng) -> String {
        let hours = rng.gen_range(0..2) == 1;
        let header = if hours { CSV_HEADER_HOURS } else { CSV_HEADER };
        let mut doc = String::new();
        let push_line = |doc: &mut String, line: &str, rng: &mut StdRng| {
            doc.push_str(line);
            doc.push_str(pick(rng, &["\n", "\n", "\r\n"]));
            if rng.gen_range(0..8) == 0 {
                let blank = format!("{}{}", pick(rng, &["", " ", "\r"]), pick(rng, &SPACES));
                doc.push_str(pick(rng, &["", "\r", &blank]));
                doc.push('\n');
            }
        };
        let header = match rng.gen_range(0..12) {
            0 => format!(" {header}\t"),
            1 => header.to_ascii_uppercase(),
            2 => header.replace(",launch_hour", ""),
            3 => String::new(),
            _ => header.to_string(),
        };
        push_line(&mut doc, &header, rng);
        for _ in 0..rng.gen_range(0..10usize) {
            let vm = pick(
                rng,
                &[
                    "n1-highcpu-2",
                    "n1-highcpu-4",
                    "n1-highcpu-8",
                    "n1-highcpu-16",
                    "n1-highcpu-32",
                ],
            );
            let zone = pick(
                rng,
                &["us-central1-c", "us-central1-f", "us-west1-a", "us-east1-b"],
            );
            let tod = pick(rng, &["day", "night"]);
            let workload = pick(rng, &["idle", "non-idle"]);
            let lifetime = match rng.gen_range(0..4) {
                0 => "24".to_string(),
                1 => format!("{:.6}", rng.gen_range(0.0..24.0)),
                _ => format!("{}", rng.gen_range(0.0..24.0)),
            };
            let flag = if lifetime == "24" { "false" } else { "true" };
            let hour = match (tod, rng.gen_range(0..4)) {
                (_, 0) => String::new(),
                ("day", _) => (8 + rng.gen_range(0..12u32)).to_string(),
                _ => ((20 + rng.gen_range(0..12u32)) % 24).to_string(),
            };
            let mut fields: Vec<String> = [vm, zone, tod, workload, &lifetime, flag, &hour]
                .iter()
                .map(|f| f.to_string())
                .collect();
            if !hours {
                fields.pop();
            }
            for (column, field) in fields.iter_mut().enumerate() {
                if rng.gen_range(0..10) == 0 {
                    *field = mutate_field(field, column, rng);
                }
            }
            match rng.gen_range(0..25) {
                0 => {
                    fields.pop();
                }
                1 => fields.push("extra".to_string()),
                2 => fields.insert(0, String::new()),
                _ => {}
            }
            push_line(&mut doc, &fields.join(","), rng);
        }
        match rng.gen_range(0..6) {
            0 => {
                doc.pop();
            }
            1 => doc.push('\r'),
            2 => doc.push_str("\u{3000}\r"),
            _ => {}
        }
        doc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn byte_scanner_matches_the_reference_loop(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let doc = random_document(&mut rng);
            match (records_from_csv_str(&doc), reference_records_from_csv_str(&doc)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => panic!("{doc:?}: scanner {got:?}, reference {want:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn split_parse_matches_the_reference_loop(seed in 0u64..u64::MAX, parts in 2usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            let doc = random_document(&mut rng);
            assert_parses_like_the_reference(&doc, parts);
        }
    }

    /// Parses `doc` in `parts` parts and checks the records, or the error text, against
    /// the reference loop.
    fn assert_parses_like_the_reference(doc: &str, parts: usize) {
        match (
            parse_records(doc, |_| parts),
            reference_records_from_csv_str(doc),
        ) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{doc:?} in {parts} parts"),
            (Err(got), Err(want)) => {
                assert_eq!(
                    got.to_string(),
                    want.to_string(),
                    "{doc:?} in {parts} parts"
                )
            }
            (got, want) => panic!("{doc:?} in {parts} parts: split {got:?}, reference {want:?}"),
        }
    }

    /// `rows` under `header`, with the first row's lifetime padded by `pad` spaces: each
    /// pad shifts every later byte by one, so over a line's length of pads the cuts
    /// between parts land on every line boundary (and inside every line) in turn.
    fn padded_document(header: &str, rows: &[&str], pad: usize) -> String {
        let mut doc = format!("{header}\n");
        for (i, row) in rows.iter().enumerate() {
            if i == 0 {
                doc.push_str(&row.replacen(",3.2,", &format!(",{}3.2,", " ".repeat(pad)), 1));
            } else {
                doc.push_str(row);
            }
        }
        doc
    }

    const ROW: &str = "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true\n";

    #[test]
    fn split_parse_cuts_between_any_two_lines() {
        let blank_and_crlf = [
            ROW,
            "\n",
            "n1-highcpu-2,us-west1-a,night,idle,24.000000,false\r\n",
            "   \n",
            "\r\n",
            "\u{3000}\t\r\n",
            ROW,
            "\n",
            "n1-highcpu-4,us-central1-c,Night,BUSY,1.5,true\r\n",
            "\x0b\n",
            ROW,
        ];
        let hours = [
            "n1-highcpu-16,us-east1-b,day,non-idle,3.2,true,9\n",
            "\n",
            "n1-highcpu-2,us-west1-a,night,idle,24.000000,false,\r\n",
            "n1-highcpu-4,us-central1-c,night,idle,1.5,true, 22 \n",
            "  \r\n",
            "n1-highcpu-8,us-central1-f,day,idle,2.25,true,12",
        ];
        // A bad last row: its line number counts the rows of every earlier part.
        let bad_last = [ROW, "\n", ROW, "  \n", ROW, ROW, "\r\n", ROW, "bad\n"];
        // Two bad rows: the earlier one wins wherever the cuts fall.
        let two_bad = [
            ROW,
            ROW,
            "n1-highcpu-16,us-east1-b,day,non-idle,3.2,yes\n",
            "\n",
            ROW,
            ROW,
            ROW,
            "n1-highcpu-16,us-east1-b,dusk,non-idle,3.2,true\n",
            ROW,
        ];
        for (header, rows) in [
            (CSV_HEADER, &blank_and_crlf[..]),
            (CSV_HEADER_HOURS, &hours[..]),
            (CSV_HEADER, &bad_last[..]),
            (CSV_HEADER, &two_bad[..]),
        ] {
            for pad in 0..64 {
                let doc = padded_document(header, rows, pad);
                for parts in 2..6 {
                    assert_parses_like_the_reference(&doc, parts);
                }
            }
        }
        let last = parse_records(&padded_document(CSV_HEADER, &bad_last, 0), |_| 3);
        assert_eq!(
            last.unwrap_err().to_string(),
            "invalid argument: line 7: expected 6 fields, found 1"
        );
        let first = parse_records(&padded_document(CSV_HEADER, &two_bad, 0), |_| 4);
        assert_eq!(
            first.unwrap_err().to_string(),
            "invalid argument: line 4: bad preempted_before_deadline: provided string was not \
             `true` or `false`"
        );
    }

    #[test]
    fn split_parse_of_a_header_alone() {
        for doc in [
            CSV_HEADER.to_string(),
            format!("{CSV_HEADER}\n"),
            format!("\n {CSV_HEADER_HOURS}\r\n\n  \r\n\n"),
            format!("{CSV_HEADER_HOURS}\n\u{3000}"),
        ] {
            for parts in 1..6 {
                assert_parses_like_the_reference(&doc, parts);
            }
        }
    }

    #[test]
    fn parts_are_line_aligned_and_cover_the_body() {
        let doc = padded_document(CSV_HEADER, &[ROW, "\r\n", ROW, ROW, "\n", ROW], 0);
        let bytes = doc.as_bytes();
        let body = CSV_HEADER.len() + 1;
        for count in 1..6 {
            let parts = Part::cut(bytes, body, count);
            assert_eq!(parts.len(), count);
            assert_eq!(parts[0].start, body);
            assert_eq!(parts[count - 1].end, bytes.len());
            for pair in parts.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert_eq!(bytes[pair[0].end - 1], b'\n');
            }
            let lines: usize = parts.iter().map(|part| part.lines(bytes)).sum();
            assert_eq!(lines, doc[body..].lines().count());
        }
    }

    #[test]
    fn canonical_spellings_are_what_the_writer_writes() {
        for v in VmType::all() {
            assert_eq!(canonical(&v.to_string(), &VM_TYPES), Some(v));
        }
        for z in Zone::all() {
            assert_eq!(canonical(&z.to_string(), &ZONES), Some(z));
        }
        for t in TimeOfDay::all() {
            assert_eq!(canonical(&t.to_string(), &TIMES_OF_DAY), Some(t));
        }
        for w in WorkloadKind::all() {
            assert_eq!(canonical(&w.to_string(), &WORKLOADS), Some(w));
        }
        for flag in [true, false] {
            assert_eq!(canonical(&flag.to_string(), &FLAGS), Some(flag));
        }
        // Other spellings miss, so they reach `FromStr`.
        for other in [
            "",
            "Day",
            " day",
            "busy",
            "n1-highcpu-3",
            "TRUE",
            "us-east1-c",
        ] {
            assert_eq!(canonical(other, &TIMES_OF_DAY), None);
            assert_eq!(canonical(other, &WORKLOADS), None);
            assert_eq!(canonical(other, &VM_TYPES), None);
            assert_eq!(canonical(other, &ZONES), None);
            assert_eq!(canonical(other, &FLAGS), None);
        }
    }

    #[test]
    fn newline_count_matches_a_plain_filter() {
        for len in [0, 1, 254, 255, 256, 510, 511, 1000] {
            for text in ["\n".repeat(len), "a\n".repeat(len), "é,\r\n\n".repeat(len)] {
                let plain = text.bytes().filter(|&b| b == b'\n').count();
                assert_eq!(count_newlines(text.as_bytes()), plain, "{len}");
            }
        }
    }

    #[test]
    fn every_generated_record_parses_to_itself() {
        let records = TraceGenerator::new(5)
            .with_launch_hours(true)
            .generate_study(400, 40)
            .unwrap();
        for csv in [
            records_to_csv_string(&records),
            records_to_csv_string(&TraceGenerator::new(5).generate_study(400, 40).unwrap()),
        ] {
            assert_eq!(
                records_from_csv_str(&csv).unwrap(),
                reference_records_from_csv_str(&csv).unwrap()
            );
        }
    }

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
