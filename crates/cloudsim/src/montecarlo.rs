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
//!
//! [`run_monte_carlo`] keeps the original trial-averaging interface on top: one
//! deterministic RNG stream per trial, merged with the numerically stable Welford
//! reduction.

use serde::{Deserialize, Serialize};
use tcp_numerics::stats::Welford;
use tcp_numerics::{NumericsError, Result};

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

/// Runs `trials` independent trials of `trial_fn` in parallel and summarises the scalar
/// metric each returns.
///
/// `trial_fn(trial_index)` must be deterministic given the index (seed its RNG from the
/// index) so experiments are reproducible regardless of thread scheduling.  Non-finite
/// trial values are dropped from the summary.  `threads = 0` selects the number of
/// available CPUs.
// lint:allow(dead-api) no caller outside montecarlo::tests (7 tests pin it); delete with them
pub fn run_monte_carlo<F>(trials: usize, threads: usize, trial_fn: F) -> Result<MonteCarloSummary>
where
    F: Fn(usize) -> f64 + Send + Sync,
{
    if trials == 0 {
        return Err(NumericsError::invalid("need at least one trial"));
    }
    // Convert trial panics into an Err instead of unwinding through the public Result
    // API (run_tasks itself re-raises worker panics on join).
    let values = run_tasks(trials, threads, |i| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| trial_fn(i)))
    });

    let mut welford = Welford::new();
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for value in values {
        let Ok(value) = value else {
            return Err(NumericsError::invalid("a Monte-Carlo trial panicked"));
        };
        if !value.is_finite() {
            continue;
        }
        welford.add(value);
        min = min.min(value);
        max = max.max(value);
    }
    if welford.count() == 0 {
        return Err(NumericsError::invalid(
            "all trials returned non-finite values",
        ));
    }
    Ok(MonteCarloSummary {
        trials: welford.count() as usize,
        mean: welford.mean(),
        std_dev: welford.std_dev(),
        std_error: welford.std_error(),
        min,
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn deterministic_metric_summary() {
        let summary = run_monte_carlo(100, 4, |i| i as f64).unwrap();
        assert_eq!(summary.trials, 100);
        assert!((summary.mean - 49.5).abs() < 1e-9);
        assert_eq!(summary.min, 0.0);
        assert_eq!(summary.max, 99.0);
        assert!(summary.std_dev > 0.0);
        assert!(summary.std_error > 0.0);
    }

    #[test]
    fn result_independent_of_thread_count() {
        let f = |i: usize| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            rng.gen::<f64>() * 10.0
        };
        let one = run_monte_carlo(500, 1, f).unwrap();
        let many = run_monte_carlo(500, 8, f).unwrap();
        // Sequential reduction over index-ordered results makes this exact, not
        // approximate: the float operations happen in the same order for any thread count.
        assert_eq!(one, many);
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        let summary = run_monte_carlo(64, 0, |i| (i % 7) as f64).unwrap();
        assert_eq!(summary.trials, 64);
    }

    #[test]
    fn non_finite_trials_are_dropped() {
        let summary = run_monte_carlo(10, 2, |i| if i % 2 == 0 { f64::NAN } else { 1.0 }).unwrap();
        assert_eq!(summary.trials, 5);
        assert_eq!(summary.mean, 1.0);
    }

    #[test]
    fn argument_validation() {
        assert!(run_monte_carlo(0, 1, |_| 0.0).is_err());
        assert!(run_monte_carlo(4, 2, |_| f64::NAN).is_err());
    }

    #[test]
    fn panicking_trial_becomes_an_error() {
        let result = run_monte_carlo(8, 2, |i| {
            assert!(i != 3, "simulated trial failure");
            1.0
        });
        let err = result.expect_err("panic must surface as Err");
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn monte_carlo_estimates_a_known_expectation() {
        // E[U^2] for U ~ Uniform(0,1) is 1/3.
        let summary = run_monte_carlo(20_000, 0, |i| {
            let mut rng = StdRng::seed_from_u64(i as u64 ^ 0xBEEF);
            let u: f64 = rng.gen();
            u * u
        })
        .unwrap();
        assert!(
            (summary.mean - 1.0 / 3.0).abs() < 0.01,
            "mean = {}",
            summary.mean
        );
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
