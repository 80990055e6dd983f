//! Continuous profiling: a wall-clock span-stack sampler and an allocation
//! profiler, with collapsed-stack / flamegraph-SVG / JSON exporters.
//!
//! Metrics (registry) say *how much*, traces ([`crate::trace`]) say *which
//! request* — this module says **where the time and memory go**, cheaply enough
//! to leave on in production.  Two independent sources feed one profile:
//!
//! * **Wall-clock sampler** — every span guard additionally maintains a
//!   per-thread **stack mirror**: a fixed-depth array of interned site ids that
//!   any thread can read, guarded by the same seqlock that guards the flight
//!   recorder's slots.  A background thread ([`arm`]) wakes
//!   `hz` times a second, snapshots every live thread's mirror, and folds each
//!   non-empty stack into a collapsed-stack table keyed by the site path.  The
//!   cost on instrumented threads is two short seqlock writes per span; threads
//!   that are idle (empty stack) contribute nothing.
//! * **Allocation profiler** — [`CountingAlloc`] is a counting
//!   `#[global_allocator]` wrapper over [`System`] (the *only* unsafe code in
//!   this crate, and it only delegates).  When counting is switched on
//!   ([`set_counting`]) it attributes allocation counts and bytes to the
//!   innermost active span site via a const-initialised thread-local — no
//!   allocation, no locks, nothing that could re-enter the allocator — and
//!   tracks process-wide live/peak bytes.  Frees are counted globally (the
//!   freeing site is rarely the allocating site, so per-site free attribution
//!   would mislead).
//!
//! # Reading a profile
//!
//! [`snapshot`] resolves site ids to names; [`collapsed`] renders
//! inferno-compatible `frame;frame;frame count` lines, [`flamegraph_svg`]
//! renders a standalone SVG flamegraph (no external tooling — open the file in
//! a browser), and [`profile_json`] is the sorted-key JSON object the serve
//! layer's `!profile` control line returns.
//!
//! # Determinism and honesty
//!
//! Profiling never changes what a run produces — mirrors and counters live
//! strictly outside result streams.  The sampler is *statistical*: a sample
//! that races a stack push/pop is detected by the sequence tag and dropped
//! (counted in the `torn` field), and stacks deeper than
//! [`MAX_STACK_DEPTH`] are truncated at the mirror's capacity.

use crate::lane::{Lanes, LocalLane, SeqLock};
use crate::Periodic;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Deepest span stack the cross-thread mirror records; deeper frames still
/// count toward depth but their site ids are not stored (samples truncate).
pub const MAX_STACK_DEPTH: usize = 48;

/// Per-site allocation table capacity: slot 0 is "no active span", the last
/// slot pools every site id past the capacity, the rest map site `i` to slot
/// `i + 1`.
pub const MAX_ALLOC_SITES: usize = 512;

/// Sentinel for "no active span site" in the thread-local attribution cell.
const NO_SITE: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// The per-thread stack mirror (seqlock-guarded, any-thread readable)
// ---------------------------------------------------------------------------

/// One thread's span stack, mirrored as seqlock-guarded words so the sampler can
/// read it from outside: word 0 holds the depth, words `1..=MAX_STACK_DEPTH` the
/// site ids, outermost first.  Only the owning thread writes; a sample that races
/// a push/pop is dropped as torn.
struct StackMirror(SeqLock<{ MAX_STACK_DEPTH + 1 }>);

enum Sampled {
    Idle,
    Torn,
    Stack(Vec<u32>),
}

impl StackMirror {
    fn new() -> StackMirror {
        StackMirror(SeqLock::new())
    }

    /// Pushes `site` (owning thread only).
    fn push(&self, site: u32) {
        self.0.write(|words| {
            let depth = words[0].load(Ordering::Relaxed) as usize;
            if depth < MAX_STACK_DEPTH {
                words[depth + 1].store(site as u64, Ordering::Relaxed);
            }
            words[0].store(depth as u64 + 1, Ordering::Relaxed);
        });
    }

    /// Pops one frame (owning thread only); returns the new innermost site,
    /// or [`NO_SITE`] when the stack empties.
    fn pop(&self) -> u32 {
        self.0.write(|words| {
            let depth = words[0].load(Ordering::Relaxed).saturating_sub(1);
            words[0].store(depth, Ordering::Relaxed);
            if depth == 0 {
                NO_SITE
            } else {
                words[(depth as usize).min(MAX_STACK_DEPTH)].load(Ordering::Relaxed) as u32
            }
        })
    }

    /// Copies the stack (any thread); torn and idle reads are distinguished.
    fn sample(&self) -> Sampled {
        let copied = self.0.read(|words| {
            let depth = (words[0].load(Ordering::Relaxed) as usize).min(MAX_STACK_DEPTH);
            words[1..=depth]
                .iter()
                .map(|site| site.load(Ordering::Relaxed) as u32)
                .collect::<Vec<u32>>()
        });
        match copied {
            None => Sampled::Torn,
            Some(path) if path.is_empty() => Sampled::Idle,
            Some(path) => Sampled::Stack(path),
        }
    }
}

static MIRRORS: Lanes<StackMirror> = Lanes::new();

thread_local! {
    static THREAD_MIRROR: LocalLane<StackMirror> = const { RefCell::new(None) };
    /// The innermost active span site, for allocation attribution.  Const-
    /// initialised: reading it from inside the allocator cannot allocate.
    static CURRENT_SITE: Cell<u32> = const { Cell::new(NO_SITE) };
}

/// Mirrors a span entry (called by the trace layer when the profiler gate is
/// on).  Returns whether a matching [`pop_site`] is owed — false only when the
/// thread is shutting down and its thread-locals are gone.
pub(crate) fn push_site(site: u32) -> bool {
    let pushed = MIRRORS
        .with_local(
            &THREAD_MIRROR,
            |_| StackMirror::new(),
            |mirror| mirror.push(site),
        )
        .is_some();
    if pushed {
        let _ = CURRENT_SITE.try_with(|cell| cell.set(site));
    }
    pushed
}

/// Mirrors a span exit; the inverse of [`push_site`].
pub(crate) fn pop_site() {
    let top = MIRRORS.with_local(&THREAD_MIRROR, |_| StackMirror::new(), StackMirror::pop);
    if let Some(site) = top {
        let _ = CURRENT_SITE.try_with(|cell| cell.set(site));
    }
}

// ---------------------------------------------------------------------------
// The wall-clock sampler
// ---------------------------------------------------------------------------

struct WallState {
    /// Collapsed stacks: interned-site path (outermost first) -> sample count.
    stacks: BTreeMap<Vec<u32>, u64>,
    ticks: u64,
    samples: u64,
    torn: u64,
    hz: u64,
}

static WALL: Mutex<WallState> = Mutex::new(WallState {
    stacks: BTreeMap::new(),
    ticks: 0,
    samples: 0,
    torn: 0,
    hz: 0,
});

static SAMPLER: Mutex<Option<Periodic>> = Mutex::new(None);

/// One sampler tick: snapshot every mirror, fold non-empty stacks.  Factored
/// out of the thread loop so tests can drive it deterministically.
pub(crate) fn tick() {
    let snapshot = MIRRORS.snapshot();
    let mut folded: Vec<Vec<u32>> = Vec::new();
    let mut torn = 0u64;
    for mirror in &snapshot {
        match mirror.sample() {
            Sampled::Idle => {}
            Sampled::Torn => torn += 1,
            Sampled::Stack(path) => folded.push(path),
        }
    }
    let mut wall = WALL.lock().expect("profile wall state poisoned");
    wall.ticks += 1;
    wall.torn += torn;
    for path in folded {
        *wall.stacks.entry(path).or_insert(0) += 1;
        wall.samples += 1;
    }
}

/// Arms the wall-clock sampler at `hz` samples per second (clamped to
/// `1..=10_000`) on a [`Periodic`] thread and opens the profiler gate so span
/// guards start maintaining their stack mirrors.  Returns `false` (and changes
/// nothing) if already armed.  Counting allocation is a separate switch:
/// [`set_counting`].
pub fn arm(hz: u64) -> bool {
    let hz = hz.clamp(1, 10_000);
    let mut guard = SAMPLER.lock().expect("profile sampler state poisoned");
    if guard.is_some() {
        return false;
    }
    WALL.lock().expect("profile wall state poisoned").hz = hz;
    crate::trace::set_profile_gate(true);
    let period = Duration::from_nanos(1_000_000_000 / hz);
    *guard = Some(Periodic::spawn("tcp-obs-profiler", period, tick));
    true
}

/// Disarms the sampler: closes the profiler gate, then stops and joins the
/// sampler thread at once; no sample is taken after this returns.  Accumulated
/// profile data is retained (dump then [`reset`] if you want a fresh window).
/// No-op when not armed.
pub fn disarm() {
    let sampler = SAMPLER
        .lock()
        .expect("profile sampler state poisoned")
        .take();
    crate::trace::set_profile_gate(false);
    drop(sampler);
}

/// Whether the wall-clock sampler is currently armed.
pub fn armed() -> bool {
    SAMPLER
        .lock()
        .expect("profile sampler state poisoned")
        .is_some()
}

/// Clears accumulated wall samples and allocation counters (mirrors and the
/// armed state are untouched).  Intended for tests and benchmarks.
// lint:allow(dead-api) tcp-serve tests/profile.rs resets the process-wide profile
pub fn reset() {
    let mut wall = WALL.lock().expect("profile wall state poisoned");
    wall.stacks.clear();
    wall.ticks = 0;
    wall.samples = 0;
    wall.torn = 0;
    drop(wall);
    TOTAL_ALLOCS.store(0, Ordering::Relaxed);
    TOTAL_BYTES.store(0, Ordering::Relaxed);
    TOTAL_FREES.store(0, Ordering::Relaxed);
    FREED_BYTES.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    for slot in 0..MAX_ALLOC_SITES {
        SITE_ALLOCS[slot].store(0, Ordering::Relaxed);
        SITE_BYTES[slot].store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The allocation profiler
// ---------------------------------------------------------------------------

/// Master switch for allocation counting; off means the wrapper costs one
/// relaxed load per allocator call.
static COUNTING: AtomicBool = AtomicBool::new(false);

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_FREES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed: frees of allocations made before counting was switched on are
/// still subtracted, so a mid-run window can legitimately go negative.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Fixed tables (slot layout documented on [`MAX_ALLOC_SITES`]): plain static
/// arrays, so recording from inside the allocator touches no lazily-initialised
/// state and can never re-enter `alloc`.
static SITE_ALLOCS: [AtomicU64; MAX_ALLOC_SITES] = [const { AtomicU64::new(0) }; MAX_ALLOC_SITES];
static SITE_BYTES: [AtomicU64; MAX_ALLOC_SITES] = [const { AtomicU64::new(0) }; MAX_ALLOC_SITES];

fn alloc_slot(site: u32) -> usize {
    if site == NO_SITE {
        0
    } else if (site as usize) < MAX_ALLOC_SITES - 2 {
        site as usize + 1
    } else {
        MAX_ALLOC_SITES - 1
    }
}

/// Switches allocation counting on or off (off by default).  Only effective
/// in binaries that install [`CountingAlloc`] as their `#[global_allocator]`.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn on_alloc(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    if live > 0 {
        PEAK_BYTES.fetch_max(live as u64, Ordering::Relaxed);
    }
    let site = CURRENT_SITE.try_with(Cell::get).unwrap_or(NO_SITE);
    let slot = alloc_slot(site);
    SITE_ALLOCS[slot].fetch_add(1, Ordering::Relaxed);
    SITE_BYTES[slot].fetch_add(size as u64, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    TOTAL_FREES.fetch_add(1, Ordering::Relaxed);
    FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// A counting `#[global_allocator]` wrapper over the system allocator.
///
/// Install it in a binary with
/// `#[global_allocator] static ALLOC: tcp_obs::profile::CountingAlloc =
/// tcp_obs::profile::CountingAlloc::new();` — counting stays off (one relaxed
/// load per call) until [`set_counting`]`(true)`.  Allocations are attributed
/// to the innermost active span site on the allocating thread; frees are
/// counted globally only.
pub struct CountingAlloc;

impl CountingAlloc {
    /// The wrapper (stateless — all counters are module statics).
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: every method delegates verbatim to `System` and only increments
// atomic counters on the side; layout contracts are passed through untouched.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Process-wide allocation totals while counting was on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocTotals {
    /// Allocation calls (alloc + alloc_zeroed + the alloc half of realloc).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Deallocation calls.
    pub frees: u64,
    /// Bytes released by those deallocations.
    pub freed_bytes: u64,
    /// `bytes - freed_bytes` as a signed value (see [`profile_json`] notes:
    /// frees of pre-counting allocations can drive a window negative).
    pub live_bytes: i64,
    /// High-water mark of `live_bytes` while counting.
    pub peak_bytes: u64,
}

/// Reads the current [`AllocTotals`] (cheap: six relaxed loads).
pub fn alloc_totals() -> AllocTotals {
    AllocTotals {
        allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
        bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        frees: TOTAL_FREES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Allocation totals attributed to one span site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Site name (`"(untracked)"` = no active span, `"(overflow)"` = site ids
    /// past the fixed table).
    pub site: String,
    /// Allocation calls attributed to the site.
    pub allocs: u64,
    /// Bytes attributed to the site.
    pub bytes: u64,
}

/// A resolved, export-ready copy of the profile state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Whether the sampler was armed when the snapshot was taken.
    pub armed: bool,
    /// Configured sampling rate (last armed value; 0 = never armed).
    pub hz: u64,
    /// Sampler wake-ups so far.
    pub ticks: u64,
    /// Non-empty stacks folded (one per busy thread per tick).
    pub samples: u64,
    /// Samples dropped because a mirror was mid-write.
    pub torn: u64,
    /// Collapsed stacks, site names resolved, sorted by path.
    pub stacks: Vec<(Vec<String>, u64)>,
    /// Process-wide allocation totals.
    pub alloc: AllocTotals,
    /// Per-site allocation attribution (non-zero sites only, sorted by name).
    pub alloc_sites: Vec<AllocSite>,
}

/// Takes a [`ProfileSnapshot`] of everything accumulated so far.
pub fn snapshot() -> ProfileSnapshot {
    let (hz, ticks, samples, torn, raw_stacks) = {
        let wall = WALL.lock().expect("profile wall state poisoned");
        (
            wall.hz,
            wall.ticks,
            wall.samples,
            wall.torn,
            wall.stacks.clone(),
        )
    };
    let mut stacks: Vec<(Vec<String>, u64)> = raw_stacks
        .into_iter()
        .map(|(path, count)| {
            (
                path.into_iter()
                    .map(crate::trace::site_name)
                    .collect::<Vec<String>>(),
                count,
            )
        })
        .collect();
    stacks.sort();
    // Merge paths whose distinct site ids resolved to the same names (possible
    // only for the "?" placeholder of never-issued ids).
    stacks.dedup_by(|next, kept| {
        if next.0 == kept.0 {
            kept.1 += next.1;
            true
        } else {
            false
        }
    });
    let mut alloc_sites = Vec::new();
    for slot in 0..MAX_ALLOC_SITES {
        let allocs = SITE_ALLOCS[slot].load(Ordering::Relaxed);
        let bytes = SITE_BYTES[slot].load(Ordering::Relaxed);
        if allocs == 0 && bytes == 0 {
            continue;
        }
        let site = if slot == 0 {
            "(untracked)".to_string()
        } else if slot == MAX_ALLOC_SITES - 1 {
            "(overflow)".to_string()
        } else {
            crate::trace::site_name(slot as u32 - 1)
        };
        alloc_sites.push(AllocSite {
            site,
            allocs,
            bytes,
        });
    }
    alloc_sites.sort_by(|a, b| a.site.cmp(&b.site));
    ProfileSnapshot {
        armed: armed(),
        hz,
        ticks,
        samples,
        torn,
        stacks,
        alloc: alloc_totals(),
        alloc_sites,
    }
}

// ---------------------------------------------------------------------------
// Derived views: stack tree and hot sites
// ---------------------------------------------------------------------------

/// One frame of the folded stack tree ([`stack_tree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameNode {
    /// Site name (the synthetic root is `"all"`).
    pub name: String,
    /// Inclusive samples: every sample whose path passes through this frame.
    pub count: u64,
    /// Samples whose path *ends* at this frame (self samples).
    pub terminal: u64,
    /// Child frames by name (sorted, so traversal is deterministic).
    pub children: BTreeMap<String, FrameNode>,
}

/// Folds collapsed stacks into a prefix tree rooted at a synthetic `"all"`
/// frame.  Invariants (the proptests hold these): the root count equals the
/// total sample count, and every node's count equals its terminal samples plus
/// the sum of its children's counts.
pub fn stack_tree(stacks: &[(Vec<String>, u64)]) -> FrameNode {
    let mut root = FrameNode {
        name: "all".to_string(),
        count: 0,
        terminal: 0,
        children: BTreeMap::new(),
    };
    for (path, count) in stacks {
        if path.is_empty() {
            continue;
        }
        root.count += count;
        let mut node = &mut root;
        for frame in path {
            node = node
                .children
                .entry(frame.clone())
                .or_insert_with(|| FrameNode {
                    name: frame.clone(),
                    count: 0,
                    terminal: 0,
                    children: BTreeMap::new(),
                });
            node.count += count;
        }
        node.terminal += count;
    }
    root
}

/// One row of the hot-sites ranking ([`hot_sites`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSite {
    /// Site name.
    pub name: String,
    /// Samples where this site was the innermost frame (self time).
    pub self_samples: u64,
    /// Samples whose stack contains this site anywhere (inclusive time).
    pub total_samples: u64,
}

/// Ranks sites by self samples (ties broken by name), the view the `advise
/// top` hot-sites panel renders.
pub fn hot_sites(stacks: &[(Vec<String>, u64)]) -> Vec<HotSite> {
    let mut by_site: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (path, count) in stacks {
        if let Some(last) = path.last() {
            by_site.entry(last).or_insert((0, 0)).0 += count;
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for frame in path {
            if seen.insert(frame) {
                by_site.entry(frame).or_insert((0, 0)).1 += count;
            }
        }
    }
    let mut rows: Vec<HotSite> = by_site
        .into_iter()
        .map(|(name, (self_samples, total_samples))| HotSite {
            name: name.to_string(),
            self_samples,
            total_samples,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.self_samples
            .cmp(&a.self_samples)
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Renders collapsed stacks as inferno-compatible text: one
/// `frame;frame;frame count` line per distinct stack, sorted by path.
pub fn collapsed(snapshot: &ProfileSnapshot) -> String {
    let mut out = String::with_capacity(32 * snapshot.stacks.len());
    for (path, count) in &snapshot.stacks {
        out.push_str(&path.join(";"));
        let _ = writeln!(out, " {count}");
    }
    out
}

/// Renders the profile as one line of sorted-key JSON — the payload of the
/// serve layer's `!profile` control line:
/// `{"alloc":{"allocs":…,"bytes":…,…,"sites":{…}},"wall":{"armed":…,"hz":…,
/// "samples":…,"stacks":{"a;b;c":n,…},"ticks":…,"torn":…}}`.
pub fn profile_json(snapshot: &ProfileSnapshot) -> String {
    let mut out = String::with_capacity(256 + 48 * snapshot.stacks.len());
    let a = &snapshot.alloc;
    let _ = write!(
        out,
        "{{\"alloc\":{{\"allocs\":{},\"bytes\":{},\"frees\":{},\"freed_bytes\":{},\
         \"live_bytes\":{},\"peak_bytes\":{},\"sites\":{{",
        a.allocs, a.bytes, a.frees, a.freed_bytes, a.live_bytes, a.peak_bytes
    );
    for (i, site) in snapshot.alloc_sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::append(&site.site, &mut out);
        let _ = write!(
            out,
            ":{{\"allocs\":{},\"bytes\":{}}}",
            site.allocs, site.bytes
        );
    }
    let _ = write!(
        out,
        "}}}},\"wall\":{{\"armed\":{},\"hz\":{},\"samples\":{},\"stacks\":{{",
        snapshot.armed, snapshot.hz, snapshot.samples
    );
    for (i, (path, count)) in snapshot.stacks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::append(&path.join(";"), &mut out);
        let _ = write!(out, ":{count}");
    }
    let _ = write!(
        out,
        "}},\"ticks\":{},\"torn\":{}}}}}",
        snapshot.ticks, snapshot.torn
    );
    out
}

fn xml_escape(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(ch),
        }
    }
}

/// Deterministic warm fill colour for a frame, keyed by the site name alone so
/// the same site has the same colour in every render.
fn frame_color(name: &str) -> (u8, u8, u8) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mixed = crate::trace::mix64(hash);
    let r = 200 + (mixed % 55) as u8;
    let g = 60 + ((mixed >> 8) % 130) as u8;
    let b = ((mixed >> 16) % 55) as u8;
    (r, g, b)
}

fn tree_depth(node: &FrameNode) -> usize {
    1 + node.children.values().map(tree_depth).max().unwrap_or(0)
}

const SVG_WIDTH: f64 = 1200.0;
const SVG_PAD: f64 = 10.0;
const FRAME_H: f64 = 17.0;
const TITLE_H: f64 = 28.0;

#[allow(clippy::too_many_arguments)]
fn render_frame(
    node: &FrameNode,
    depth: usize,
    x: f64,
    width: f64,
    total: u64,
    height: f64,
    out: &mut String,
) {
    let y = height - SVG_PAD - (depth as f64 + 1.0) * FRAME_H;
    if width >= 0.8 {
        let (r, g, b) = frame_color(&node.name);
        let pct = 100.0 * node.count as f64 / total as f64;
        out.push_str("<g>");
        out.push_str("<title>");
        xml_escape(&node.name, out);
        let _ = write!(out, " ({} samples, {:.2}%)</title>", node.count, pct);
        let _ = write!(
            out,
            "<rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
             fill=\"rgb({},{},{})\" rx=\"2\"/>",
            x,
            y,
            width,
            FRAME_H - 1.0,
            r,
            g,
            b
        );
        if width >= 40.0 {
            let budget = ((width - 6.0) / 7.0) as usize;
            let label: String = if node.name.chars().count() > budget {
                node.name
                    .chars()
                    .take(budget.saturating_sub(2))
                    .collect::<String>()
                    + ".."
            } else {
                node.name.clone()
            };
            let _ = write!(
                out,
                "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" \
                 font-family=\"monospace\" fill=\"#000\">",
                x + 3.0,
                y + FRAME_H - 5.0
            );
            xml_escape(&label, out);
            out.push_str("</text>");
        }
        out.push_str("</g>");
    }
    let scale = width / node.count.max(1) as f64;
    let mut child_x = x;
    for child in node.children.values() {
        let child_width = child.count as f64 * scale;
        render_frame(child, depth + 1, child_x, child_width, total, height, out);
        child_x += child_width;
    }
}

/// Renders a standalone flamegraph SVG (well-formed XML, no scripts, no
/// external references — open the file directly in a browser).  Frames grow
/// upward from the synthetic `all` root; width is proportional to inclusive
/// samples; hovering a frame shows `name (count samples, pct%)` via its
/// `<title>` element.  Layout and colours are pure functions of the snapshot,
/// so the same profile renders byte-identically.
pub fn flamegraph_svg(snapshot: &ProfileSnapshot) -> String {
    let root = stack_tree(&snapshot.stacks);
    let depth = tree_depth(&root);
    let height = 2.0 * SVG_PAD + TITLE_H + depth as f64 * FRAME_H;
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"no\"?>\
         <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h:.0}\" \
         viewBox=\"0 0 {w} {h:.0}\">\
         <rect x=\"0\" y=\"0\" width=\"{w}\" height=\"{h:.0}\" fill=\"#f8f8f8\"/>",
        w = SVG_WIDTH,
        h = height
    );
    let _ = write!(
        out,
        "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"14\" font-family=\"monospace\" \
         fill=\"#333\">tcp wall-clock profile \u{2014} {} samples over {} ticks @ {} Hz</text>",
        SVG_PAD,
        SVG_PAD + 14.0,
        snapshot.samples,
        snapshot.ticks,
        snapshot.hz
    );
    if root.count > 0 {
        render_frame(
            &root,
            0,
            SVG_PAD,
            SVG_WIDTH - 2.0 * SVG_PAD,
            root.count,
            height,
            &mut out,
        );
    } else {
        let _ = write!(
            out,
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"12\" font-family=\"monospace\" \
             fill=\"#999\">no samples</text>",
            SVG_PAD,
            height - SVG_PAD - 5.0
        );
    }
    out.push_str("</svg>");
    out
}

/// Dumps the current profile next to `path`: with `--profile-file out.svg`
/// this writes `out.folded` (collapsed stacks), `out.svg` (flamegraph) and
/// `out.json` (the `!profile` JSON), each atomically (tmp + rename, so a
/// reader never sees a torn file).  Returns the paths written.
pub fn dump_to(path: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let snap = snapshot();
    let base = path.with_extension("");
    let mut json = profile_json(&snap);
    json.push('\n');
    let mut written = Vec::new();
    for (ext, text) in [
        ("folded", collapsed(&snap)),
        ("svg", flamegraph_svg(&snap)),
        ("json", json),
    ] {
        let target = base.with_extension(ext);
        let tmp = base.with_extension(format!("{ext}.tmp"));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &target)?;
        written.push(target);
    }
    Ok(written)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// Depth of the calling thread's stack mirror: the span guards it holds open
    /// while the profiler gate is on.
    pub(crate) fn thread_mirror_depth() -> u64 {
        MIRRORS
            .with_local(
                &THREAD_MIRROR,
                |_| StackMirror::new(),
                |mirror| mirror.0.read(|words| words[0].load(Ordering::Relaxed)),
            )
            .flatten()
            .expect("the owning thread reads its own mirror untorn")
    }

    fn stacks(raw: &[(&[&str], u64)]) -> Vec<(Vec<String>, u64)> {
        raw.iter()
            .map(|(path, n)| (path.iter().map(|s| s.to_string()).collect(), *n))
            .collect()
    }

    #[test]
    fn mirror_push_pop_and_sample() {
        let mirror = StackMirror::new();
        assert!(matches!(mirror.sample(), Sampled::Idle));
        mirror.push(3);
        mirror.push(7);
        match mirror.sample() {
            Sampled::Stack(path) => assert_eq!(path, vec![3, 7]),
            _ => panic!("expected a stack"),
        }
        assert_eq!(mirror.pop(), 3);
        assert_eq!(mirror.pop(), NO_SITE);
        assert!(matches!(mirror.sample(), Sampled::Idle));
    }

    #[test]
    fn concurrent_samples_never_return_a_torn_stack() {
        // The writer builds generation `g` as `DEPTH` frames of site `g`, then pops
        // them all, until the reader has checked enough stacks; every stack it ever
        // exposes is 1..=DEPTH copies of one site.  A copy that mixed two generations
        // would be a torn read the tag missed.
        const DEPTH: u32 = 6;
        const STACKS: u32 = 5_000;
        let mirror = Arc::new(StackMirror::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (mirror, stop) = (Arc::clone(&mirror), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut g = 0u32;
                while !stop.load(Ordering::Acquire) {
                    for _ in 0..DEPTH {
                        mirror.push(g);
                    }
                    for _ in 0..DEPTH {
                        mirror.pop();
                    }
                    g = g.wrapping_add(1);
                }
            })
        };
        let mut stacks = 0;
        while stacks < STACKS {
            if let Sampled::Stack(path) = mirror.sample() {
                assert!((1..=DEPTH as usize).contains(&path.len()), "{path:?}");
                assert!(path.iter().all(|&site| site == path[0]), "torn: {path:?}");
                stacks += 1;
            }
        }
        stop.store(true, Ordering::Release);
        writer.join().unwrap();
        assert!(matches!(mirror.sample(), Sampled::Idle));
    }

    #[test]
    fn mirror_depth_overflow_truncates_but_balances() {
        let mirror = StackMirror::new();
        for i in 0..(MAX_STACK_DEPTH as u32 + 5) {
            mirror.push(i);
        }
        match mirror.sample() {
            Sampled::Stack(path) => {
                assert_eq!(path.len(), MAX_STACK_DEPTH);
                assert_eq!(path[MAX_STACK_DEPTH - 1], MAX_STACK_DEPTH as u32 - 1);
            }
            _ => panic!("expected a stack"),
        }
        for _ in 0..(MAX_STACK_DEPTH as u32 + 5) {
            mirror.pop();
        }
        assert!(matches!(mirror.sample(), Sampled::Idle));
    }

    #[test]
    fn stack_tree_counts_are_prefix_sums() {
        let tree = stack_tree(&stacks(&[
            (&["a", "b"], 3),
            (&["a", "b", "c"], 2),
            (&["a", "d"], 1),
            (&["e"], 4),
        ]));
        assert_eq!(tree.count, 10);
        let a = &tree.children["a"];
        assert_eq!(a.count, 6);
        assert_eq!(a.terminal, 0);
        let b = &a.children["b"];
        assert_eq!(b.count, 5);
        assert_eq!(b.terminal, 3);
        assert_eq!(b.children["c"].count, 2);
        assert_eq!(tree.children["e"].terminal, 4);
    }

    #[test]
    fn hot_sites_rank_by_self_samples() {
        let rows = hot_sites(&stacks(&[(&["a", "b"], 5), (&["a", "c"], 2), (&["a"], 1)]));
        assert_eq!(rows[0].name, "b");
        assert_eq!(rows[0].self_samples, 5);
        assert_eq!(rows[0].total_samples, 5);
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.self_samples, 1);
        assert_eq!(a.total_samples, 8);
    }

    #[test]
    fn collapsed_and_json_and_svg_are_deterministic_and_well_formed() {
        let snap = ProfileSnapshot {
            armed: false,
            hz: 97,
            ticks: 10,
            samples: 9,
            torn: 1,
            stacks: stacks(&[(&["serve.request", "advisor.lookup"], 6), (&["idle<&>"], 3)]),
            alloc: AllocTotals {
                allocs: 4,
                bytes: 256,
                frees: 2,
                freed_bytes: 64,
                live_bytes: 192,
                peak_bytes: 200,
            },
            alloc_sites: vec![AllocSite {
                site: "serve.request".to_string(),
                allocs: 4,
                bytes: 256,
            }],
        };
        let folded = collapsed(&snap);
        assert!(folded.contains("serve.request;advisor.lookup 6"));
        let json = profile_json(&snap);
        assert!(json.starts_with("{\"alloc\":{\"allocs\":4,\"bytes\":256,"));
        assert!(json.contains("\"wall\":{\"armed\":false,\"hz\":97,"));
        assert!(json.contains("\"serve.request;advisor.lookup\":6"));
        assert_eq!(json, profile_json(&snap), "export must be deterministic");
        let svg = flamegraph_svg(&snap);
        assert!(svg.starts_with("<?xml version=\"1.0\""));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("serve.request"));
        // The angle brackets in the site name must have been escaped.
        assert!(svg.contains("idle&lt;&amp;&gt;"));
        assert!(!svg.contains("idle<&>"));
        assert_eq!(svg, flamegraph_svg(&snap));
    }

    #[test]
    fn empty_profile_svg_is_still_valid() {
        let snap = ProfileSnapshot {
            armed: false,
            hz: 0,
            ticks: 0,
            samples: 0,
            torn: 0,
            stacks: Vec::new(),
            alloc: AllocTotals::default(),
            alloc_sites: Vec::new(),
        };
        let svg = flamegraph_svg(&snap);
        assert!(svg.contains("no samples"));
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn sampler_folds_live_span_stacks() {
        // Drive the tick function directly (no background thread): hold a
        // mirrored stack on this thread and verify folding.
        let before = snapshot().ticks;
        assert!(push_site(crate::trace::site_id("profile.test.outer")));
        assert!(push_site(crate::trace::site_id("profile.test.inner")));
        tick();
        pop_site();
        pop_site();
        let snap = snapshot();
        assert!(snap.ticks > before);
        let path = snap
            .stacks
            .iter()
            .find(|(path, _)| path.contains(&"profile.test.inner".to_string()))
            .expect("folded stack recorded");
        let outer_pos = path
            .0
            .iter()
            .position(|f| f == "profile.test.outer")
            .expect("outer frame present");
        let inner_pos = path
            .0
            .iter()
            .position(|f| f == "profile.test.inner")
            .unwrap();
        assert!(outer_pos < inner_pos, "outermost frame first");
    }

    #[test]
    fn alloc_slot_layout() {
        assert_eq!(alloc_slot(NO_SITE), 0);
        assert_eq!(alloc_slot(0), 1);
        assert_eq!(alloc_slot(5), 6);
        assert_eq!(alloc_slot(MAX_ALLOC_SITES as u32), MAX_ALLOC_SITES - 1);
        assert_eq!(alloc_slot(u32::MAX - 1), MAX_ALLOC_SITES - 1);
    }

    #[test]
    fn dump_to_writes_three_files_atomically() {
        let dir = std::env::temp_dir().join("tcp-obs-profile-test");
        let _ = std::fs::create_dir_all(&dir);
        let target = dir.join("profile.svg");
        let written = dump_to(&target).expect("dump profile");
        assert_eq!(written.len(), 3);
        for path in &written {
            assert!(path.exists(), "{} missing", path.display());
        }
        let svg = std::fs::read_to_string(dir.join("profile.svg")).unwrap();
        assert!(svg.ends_with("</svg>"));
        let json = std::fs::read_to_string(dir.join("profile.json")).unwrap();
        assert!(json.starts_with("{\"alloc\":"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
