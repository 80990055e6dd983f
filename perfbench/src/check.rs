//! Output correctness: golden digests and operation accounting.
//!
//! Each workload runs a fixed-seed golden probe on every run (outside the timings)
//! and compares the digest of its output bytes against `expected-digests.txt`;
//! a mismatch counts every operation of the probe as failed.  The timed outputs of
//! the run's own seed are checked line by line (serving) or round against round
//! (refresh, sweep).

use std::collections::BTreeMap;

/// The seed of the golden probes whose digests are recorded.
pub const GOLDEN_SEED: u64 = 1;

const BUILTIN: &str = include_str!("../expected-digests.txt");

/// A streaming FNV-1a 64-bit digest.
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut d = Digest::new();
    d.update(bytes);
    d.hex()
}

/// Expected golden digests by key.
pub struct Expected(BTreeMap<String, String>);

impl Expected {
    /// The digests recorded beside the benchmark.
    pub fn builtin() -> Result<Expected, String> {
        Expected::parse(BUILTIN)
    }

    /// Parses `key digest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(key), Some(digest), None) => {
                    map.insert(key.to_string(), digest.to_string());
                }
                _ => return Err(format!("bad digest line `{line}`")),
            }
        }
        Ok(Expected(map))
    }
}

/// Attempted/failed operation counts and the digests seen.
#[derive(Default)]
pub struct Checks {
    /// Operations attempted (timed operations plus golden-probe operations).
    pub attempted: u64,
    /// Operations whose output was missing or wrong.
    pub failed: u64,
    /// Every digest computed, in order: the golden ones and the run's own.
    pub digests: Vec<(String, String)>,
}

impl Checks {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Counts `attempted` operations of which `failed` went wrong.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Checks a golden probe of `ops` operations whose output is `bytes` against the
    /// recorded digest `key`.
    pub fn golden(&mut self, expected: &Expected, key: &str, bytes: &[u8], ops: u64) {
        let actual = digest(bytes);
        let ok = expected.0.get(key).is_some_and(|want| *want == actual);
        if !ok {
            eprintln!(
                "perfbench: golden digest `{key}` is {actual}, expected {}",
                expected
                    .0
                    .get(key)
                    .map_or("(none recorded)", String::as_str)
            );
        }
        self.ops(ops, if ok { 0 } else { ops });
        self.digests.push((key.to_string(), actual));
    }

    /// Records the digest of this run's own output under `key` (no expectation:
    /// the self-test checks that it repeats).
    pub fn record(&mut self, key: &str, digest: String) {
        self.digests.push((key.to_string(), digest));
    }
}

/// A small deterministic generator (SplitMix64) for the benchmark's own input
/// perturbations.
pub struct Mix(u64);

impl Mix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix(seed ^ 0x0005_eed0_fbec_4a11)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
