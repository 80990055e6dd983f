//! Parallel experiment drivers.
//!
//! Policy evaluations (Figures 8 and 9) average over many independent simulation trials,
//! and scenario sweeps fan whole grids of configurations out over the same machinery.
//! [`run_tasks`] is the shared work-stealing driver: it executes `count` independent
//! tasks on scoped `std::thread` workers (stable since Rust 1.63 — no external
//! dependency), pulling task indices from a shared atomic counter so threads steal work
//! from a common queue, and returns the results **in task order**.  Because every task is
//! seeded from its index and the reduction happens sequentially over the ordered results,
//! every aggregate is bit-identical regardless of thread count or scheduling.
//! [`MonteCarloSummary`] is the per-metric record of such an aggregate; the scenario
//! reports build it from the ordered trial results.

use serde::{Deserialize, Serialize};

/// Summary of a Monte-Carlo experiment over a scalar metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloSummary {
    /// Number of trials that produced a value.
    pub trials: usize,
    /// Mean of the metric.
    pub mean: f64,
    /// Unbiased standard deviation across trials.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

/// Resolves a `threads` argument: `0` selects the number of available CPUs, and the
/// worker count never exceeds the task count.
pub fn resolve_threads(threads: usize, tasks: usize) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    threads.min(tasks).max(1)
}

/// Runs `count` independent tasks on `threads` scoped worker threads and returns their
/// results in task order.
///
/// Workers pull the next task index from a shared atomic counter (work stealing), so a
/// handful of slow tasks cannot serialise the rest of the batch.  `task(index)` must be
/// deterministic given the index for results to be reproducible; because results are
/// returned in index order, any sequential reduction over them is bit-identical for every
/// thread count.  `threads = 0` selects the number of available CPUs.
pub fn run_tasks<T, F>(count: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    let threads = resolve_threads(threads, count);
    if count == 0 {
        return Vec::new();
    }
    if threads == 1 {
        return (0..count).map(task).collect();
    }

    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..count).map(|_| std::sync::Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // lint:allow(ordering-audit) work-stealing index: atomicity alone guarantees each task runs once; result order comes from the slots
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                let value = task(idx);
                *slots[idx].lock().expect("task slot") = Some(value);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("task slot")
                .expect("every index ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tcp_numerics::stats::Welford;

    #[test]
    fn result_independent_of_thread_count() {
        let f = |i: usize| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            rng.gen::<f64>() * 10.0
        };
        let reduce = |values: Vec<f64>| {
            let mut welford = Welford::new();
            values.into_iter().for_each(|v| welford.add(v));
            (welford.mean().to_bits(), welford.std_dev().to_bits())
        };
        // Sequential reduction over index-ordered results makes this exact, not
        // approximate: the float operations happen in the same order for any thread count.
        assert_eq!(reduce(run_tasks(500, 1, f)), reduce(run_tasks(500, 8, f)));
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        let results = run_tasks(64, 0, |i| i % 7);
        assert_eq!(results.len(), 64);
        assert_eq!(results[13], 6);
    }

    #[test]
    fn run_tasks_returns_results_in_task_order() {
        let results = run_tasks(257, 8, |i| i * 3);
        assert_eq!(results.len(), 257);
        for (i, v) in results.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
        assert!(run_tasks(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_tasks_handles_non_copy_results_and_more_threads_than_tasks() {
        let results = run_tasks(3, 64, |i| format!("task-{i}"));
        assert_eq!(results, vec!["task-0", "task-1", "task-2"]);
    }

    #[test]
    fn resolve_threads_bounds() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(16, 3), 3);
        assert!(resolve_threads(0, 1000) >= 1);
    }
}
