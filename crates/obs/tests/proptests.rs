//! Property-based tests for the observability core: histogram quantile accuracy
//! against exact sorted-sample quantiles, concurrent-recording consistency, and
//! the continuous profiler's collapsed-stack invariants.

use proptest::prelude::*;
use tcp_obs::{Counter, Histogram};

/// Frame alphabet for synthetic span stacks: interned-looking dotted names the
/// draw indices below map onto.
const FRAMES: [&str; 6] = [
    "serve.connection",
    "serve.batch.flush",
    "serve.request",
    "advisor.route",
    "advisor.lookup",
    "advisor.build.dp",
];

/// Maps drawn frame indices (one inner vec = the stack one tick sampled) onto
/// named stacks, outermost frame first.
fn to_stacks(raw: &[Vec<u64>]) -> Vec<Vec<String>> {
    raw.iter()
        .map(|stack| {
            stack
                .iter()
                .map(|&i| FRAMES[i as usize % FRAMES.len()].to_string())
                .collect()
        })
        .collect()
}

/// Folds one sampled stack per tick the way the sampler does, returning the
/// collapsed map.
fn fold(ticks: &[Vec<String>]) -> Vec<(Vec<String>, u64)> {
    let mut map: std::collections::BTreeMap<Vec<String>, u64> = std::collections::BTreeMap::new();
    for stack in ticks {
        *map.entry(stack.clone()).or_insert(0) += 1;
    }
    map.into_iter().collect()
}

/// Checks the prefix-closure invariant on a frame tree: every node's inclusive
/// count equals its terminal samples plus the sum of its children's counts,
/// and no child outweighs its parent.
fn assert_prefix_closed(node: &tcp_obs::profile::FrameNode) {
    let child_sum: u64 = node.children.values().map(|c| c.count).sum();
    assert_eq!(
        node.count,
        node.terminal + child_sum,
        "frame {} is not prefix-closed",
        node.name
    );
    for child in node.children.values() {
        assert!(child.count <= node.count);
        assert_prefix_closed(child);
    }
}

/// Nearest-rank exact quantile of a sorted sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Bucket-midpoint quantile estimates stay within the 1/16 relative error bound
    // implied by ≤ 1/8-wide buckets, across seven orders of magnitude.
    #[test]
    fn quantiles_match_exact_within_bound(
        values in proptest::collection::vec(1u64..10_000_000, 1..400),
        q in 0.0f64..1.0,
    ) {
        let mut values = values.clone();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snap.max, *values.last().unwrap());
        let exact = exact_quantile(&values, q) as f64;
        let estimate = snap.quantile(q);
        let rel = (estimate - exact).abs() / exact;
        prop_assert!(rel <= 1.0 / 16.0 + 1e-12, "q={} estimate={} exact={} rel={}", q, estimate, exact, rel);
    }

    // Values below 16 are recovered exactly, whatever the mix.
    #[test]
    fn small_values_round_trip_exactly(values in proptest::collection::vec(0u64..16, 1..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        for q in [0.1, 0.5, 0.9] {
            prop_assert_eq!(snap.quantile(q) as u64, exact_quantile(&sorted, q));
        }
    }

    // Merging per-thread snapshots equals recording everything into one histogram,
    // and the sharded totals lose nothing under concurrency.
    #[test]
    fn concurrent_shards_sum_to_total(
        per_thread in proptest::collection::vec(1u64..1_000_000, 1..50),
        threads in 2usize..6,
    ) {
        let h = Histogram::new();
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let h = &h;
                let c = &c;
                let per_thread = &per_thread;
                scope.spawn(move || {
                    for &v in per_thread {
                        h.record(v);
                        c.incr();
                    }
                });
            }
        });
        let snap = h.snapshot();
        let n = (threads * per_thread.len()) as u64;
        prop_assert_eq!(snap.count, n);
        prop_assert_eq!(c.get(), n);
        prop_assert_eq!(snap.sum, per_thread.iter().sum::<u64>() * threads as u64);
        prop_assert_eq!(snap.max, *per_thread.iter().max().unwrap());
    }

    // delta_since / merge round-trip under concurrent recording: with one
    // histogram shard per thread, the delta of the merged shards equals the merge
    // of the per-shard deltas — so sharded collection and interval measurement
    // commute, which is what lets the SLO engine difference a merged advisor
    // snapshot per window.
    #[test]
    fn delta_of_merge_equals_merge_of_deltas(
        warmup in proptest::collection::vec(1u64..1_000_000, 0..60),
        interval in proptest::collection::vec(1u64..1_000_000, 1..60),
        threads in 2usize..5,
    ) {
        let shards: Vec<Histogram> = (0..threads).map(|_| Histogram::new()).collect();
        std::thread::scope(|scope| {
            for shard in &shards {
                let warmup = &warmup;
                scope.spawn(move || {
                    for &v in warmup {
                        shard.record(v);
                    }
                });
            }
        });
        let baselines: Vec<_> = shards.iter().map(|s| s.snapshot()).collect();
        let mut merged_baseline = tcp_obs::HistogramSnapshot::empty();
        for b in &baselines {
            merged_baseline.merge(b);
        }
        std::thread::scope(|scope| {
            for shard in &shards {
                let interval = &interval;
                scope.spawn(move || {
                    for &v in interval {
                        shard.record(v);
                    }
                });
            }
        });
        let finals: Vec<_> = shards.iter().map(|s| s.snapshot()).collect();
        let mut merged_final = tcp_obs::HistogramSnapshot::empty();
        for f in &finals {
            merged_final.merge(f);
        }
        let delta_of_merge = merged_final.delta_since(&merged_baseline);
        let mut merge_of_deltas = tcp_obs::HistogramSnapshot::empty();
        for (f, b) in finals.iter().zip(&baselines) {
            merge_of_deltas.merge(&f.delta_since(b));
        }
        prop_assert_eq!(delta_of_merge.count, merge_of_deltas.count);
        prop_assert_eq!(delta_of_merge.count, (threads * interval.len()) as u64);
        prop_assert_eq!(delta_of_merge.sum, merge_of_deltas.sum);
        prop_assert_eq!(
            delta_of_merge.sum,
            interval.iter().sum::<u64>() * threads as u64
        );
        for q in [0.5, 0.9, 0.99, 0.999] {
            prop_assert_eq!(delta_of_merge.quantile(q), merge_of_deltas.quantile(q));
        }
        prop_assert_eq!(delta_of_merge.quantile(1.0), merge_of_deltas.quantile(1.0));
    }

    // The SLO engine's windowed quantiles agree with exact quantiles: record
    // samples in tick-sized chunks, snapshot after each tick (the evaluator's
    // delta ring), then for every possible window start the quantile of
    // `latest.delta_since(ring[start])` matches the exact nearest-rank quantile
    // of precisely the samples recorded inside that window, within the 1/16
    // bucket-midpoint bound.
    #[test]
    fn windowed_quantiles_from_delta_ring_match_exact(
        ticks in proptest::collection::vec(
            proptest::collection::vec(1u64..10_000_000, 1..40), 2..8),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        let mut ring = vec![h.snapshot()]; // baseline before any tick
        for chunk in &ticks {
            for &v in chunk {
                h.record(v);
            }
            ring.push(h.snapshot());
        }
        let latest = ring.last().unwrap();
        for start in 0..ticks.len() {
            let delta = latest.delta_since(&ring[start]);
            let mut window: Vec<u64> = ticks[start..].iter().flatten().copied().collect();
            window.sort_unstable();
            prop_assert_eq!(delta.count, window.len() as u64);
            let exact = exact_quantile(&window, q) as f64;
            let estimate = delta.quantile(q);
            let rel = (estimate - exact).abs() / exact;
            prop_assert!(
                rel <= 1.0 / 16.0 + 1e-12,
                "window [{}..]: q={} estimate={} exact={} rel={}",
                start, q, estimate, exact, rel
            );
        }
    }

    // delta_since(earlier) recovers exactly the samples recorded in between.
    #[test]
    fn delta_recovers_interval_samples(
        before in proptest::collection::vec(1u64..1_000_000, 0..100),
        after in proptest::collection::vec(1u64..1_000_000, 1..100),
    ) {
        let h = Histogram::new();
        for &v in &before {
            h.record(v);
        }
        let earlier = h.snapshot();
        for &v in &after {
            h.record(v);
        }
        let delta = h.snapshot().delta_since(&earlier);
        prop_assert_eq!(delta.count, after.len() as u64);
        prop_assert_eq!(delta.sum, after.iter().sum::<u64>());
        let mut sorted = after.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, 0.5) as f64;
        let rel = (delta.quantile(0.5) - exact).abs() / exact;
        prop_assert!(rel <= 1.0 / 16.0 + 1e-12);
    }

    // Collapsed-stack totals equal the sampler's tick count: folding one
    // sampled stack per tick, the sum of collapsed counts — and equivalently
    // the root of the frame tree — recovers exactly the number of ticks, and
    // the collapsed text round-trips the same totals.
    #[test]
    fn collapsed_totals_equal_tick_count(
        raw in proptest::collection::vec(proptest::collection::vec(0u64..6, 1..6), 1..120),
    ) {
        let ticks = to_stacks(&raw);
        let stacks = fold(&ticks);
        let total: u64 = stacks.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(total, ticks.len() as u64);
        let tree = tcp_obs::profile::stack_tree(&stacks);
        prop_assert_eq!(tree.count, ticks.len() as u64);
        let snap = tcp_obs::profile::ProfileSnapshot {
            armed: false,
            hz: 997,
            ticks: ticks.len() as u64,
            samples: total,
            torn: 0,
            stacks: stacks.clone(),
            alloc: Default::default(),
            alloc_sites: Vec::new(),
        };
        let mut parsed_total = 0u64;
        for line in tcp_obs::profile::collapsed(&snap).lines() {
            let (_, count) = line.rsplit_once(' ').expect("`path count` shape");
            parsed_total += count.parse::<u64>().expect("integer count");
        }
        prop_assert_eq!(parsed_total, snap.ticks);
    }

    // Every frame path in the folded tree is a prefix-closed chain: a node's
    // samples are exactly its terminal samples plus its children's, so every
    // sampled path's prefixes all exist with consistent weights (what the
    // flamegraph renderer relies on for widths to nest).
    #[test]
    fn frame_paths_are_prefix_closed_chains(
        raw in proptest::collection::vec(proptest::collection::vec(0u64..6, 1..6), 1..120),
    ) {
        let ticks = to_stacks(&raw);
        let stacks = fold(&ticks);
        let tree = tcp_obs::profile::stack_tree(&stacks);
        assert_prefix_closed(&tree);
        // And every sampled path is reachable: walking the tree along the path
        // never misses a node.
        for (path, count) in &stacks {
            let mut node = &tree;
            for frame in path {
                node = node.children.get(frame).expect("prefix chain unbroken");
                prop_assert!(node.count >= *count);
            }
            prop_assert!(node.terminal >= *count);
        }
    }
}
