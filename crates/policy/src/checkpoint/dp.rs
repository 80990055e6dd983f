//! The dynamic-programming checkpointing policy (Section 4.3, Equations 9–13).
//!
//! The job is divided into steps of `step_hours` each.  From a checkpointed state with `j`
//! steps remaining and VM age `t`, the policy chooses how many steps `i` to run before the
//! next checkpoint (cost `δ`).  Over that window the job either succeeds (no preemption)
//! and continues from age `t + iΔ + δ` with `j − i` steps left, or is preempted, loses the
//! un-checkpointed work, and resumes from the most recent checkpoint on a **fresh VM**
//! (age 0), exactly as the paper's prose describes.  The expected-makespan recursion is
//!
//! ```text
//! V(0, t) = 0
//! V(j, t) = min_{1 ≤ i ≤ j}  p_succ(t, w) · ( w + V(j−i, t+w) )
//!                          + p_fail(t, w) · ( E[lost | fail] + restart + V(j, 0) )
//! with w = iΔ + δ
//! ```
//!
//! The self-reference through `V(j, 0)` (a failure sends the job back to a fresh VM with
//! the same remaining work) is resolved by a fixed-point iteration per `j`; the map is a
//! contraction because the failure probability of the chosen action is strictly below one.
//!
//! The transition terms `p_succ(t, w)`, `p_fail(t, w)`, `E[lost | fail]` and the age bin
//! of `t + w` depend only on the window (the step count `i`) and the age bin, never on
//! `j` or `V(j, 0)`.  A solve therefore tabulates them once per `(i, bin)` — `J · bins`
//! model evaluations in one flat table — and runs the recursion over that table, instead
//! of re-querying the model for every `(j, i, bin)`.
//!
//! The DP is **generic in the hazard**: it consumes any [`LifetimeModel`] — the
//! closed-form bathtub fit (the fast path, via [`DpCheckpointPolicy::new`]), or any
//! other family materialised as quadrature tables
//! ([`tcp_core::TabulatedLifetime`], via [`DpCheckpointPolicy::from_model`]).  Every
//! probability and expectation below is expressed through survival `S(t)`, the
//! first-moment curve `W(t)` and the deadline atom, which is exactly the interface the
//! trait carries; for the bathtub model those calls resolve to Equation 1's
//! antiderivatives, so the generic recursion reproduces the historical bathtub-only DP
//! bit for bit.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tcp_core::LifetimeModel;
use tcp_dists::ConstrainedBathtub;
use tcp_numerics::{NumericsError, Result};

/// Configuration of the checkpointing policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Cost of writing one checkpoint, in hours (the paper uses 1 minute).
    pub checkpoint_cost_hours: f64,
    /// Work-step granularity of the dynamic program, in hours.
    pub step_hours: f64,
    /// Time to acquire and boot a replacement VM after a preemption, in hours.
    pub restart_overhead_hours: f64,
}

impl CheckpointConfig {
    /// The paper's evaluation settings: 1-minute checkpoints, 5-minute DP steps, 1-minute
    /// restart overhead.
    pub fn paper_defaults() -> Self {
        CheckpointConfig {
            checkpoint_cost_hours: 1.0 / 60.0,
            step_hours: 5.0 / 60.0,
            restart_overhead_hours: 1.0 / 60.0,
        }
    }

    /// A coarse configuration (15-minute steps) suitable for unit tests and quick sweeps.
    // lint:allow(dead-api) fast DP grid for tests in tcp-policy, tcp-advisor, tcp-calibrate and the root tests
    pub fn coarse() -> Self {
        CheckpointConfig {
            checkpoint_cost_hours: 1.0 / 60.0,
            step_hours: 0.25,
            restart_overhead_hours: 1.0 / 60.0,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.checkpoint_cost_hours > 0.0) || !self.checkpoint_cost_hours.is_finite() {
            return Err(NumericsError::invalid("checkpoint cost must be positive"));
        }
        if !(self.step_hours > 0.0) || !self.step_hours.is_finite() {
            return Err(NumericsError::invalid("step size must be positive"));
        }
        if !(self.restart_overhead_hours >= 0.0) || !self.restart_overhead_hours.is_finite() {
            return Err(NumericsError::invalid(
                "restart overhead must be non-negative",
            ));
        }
        Ok(())
    }
}

/// A concrete checkpoint schedule for one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSchedule {
    /// Amount of work (hours) executed before each checkpoint, in order.  Sums to the job
    /// length (up to step-quantisation).
    pub intervals_hours: Vec<f64>,
    /// Expected makespan (hours) of the job under this policy, from the DP value function.
    pub expected_makespan: f64,
    /// The job length the schedule was computed for (hours, after step quantisation).
    pub job_len: f64,
    /// The VM age (hours) the job was assumed to start at.
    pub start_age: f64,
}

impl CheckpointSchedule {
    /// Number of checkpoints taken (= number of intervals).
    pub fn checkpoint_count(&self) -> usize {
        self.intervals_hours.len()
    }

    /// Expected fractional increase in running time over the bare job length.
    pub fn expected_overhead_fraction(&self) -> f64 {
        if self.job_len <= 0.0 {
            return 0.0;
        }
        (self.expected_makespan - self.job_len) / self.job_len
    }
}

/// The model-driven DP checkpointing policy, generic over the lifetime model.
pub struct DpCheckpointPolicy {
    model: Arc<dyn LifetimeModel>,
    config: CheckpointConfig,
    age_step: f64,
    age_bins: usize,
    /// Cache of solved DP tables, keyed by the number of job steps they cover.  Row `j`
    /// depends only on rows below it, so the tables for `J` steps answer every job of at
    /// most `J` steps bit-identically to a solve of that job alone: one solve for the
    /// largest job serves all later (re-)planning calls — which the Monte-Carlo
    /// evaluator, the batch service and the pack builder issue constantly.  A longer
    /// job re-solves from scratch.
    cache: std::sync::Mutex<Option<SolvedTables>>,
}

/// DP value table `V[j][age-index]`, shared between clones of the policy.
type ValueTable = std::sync::Arc<Vec<Vec<f64>>>;
/// DP argmin table (steps to run before the next checkpoint), aligned with [`ValueTable`].
type ChoiceTable = std::sync::Arc<Vec<Vec<usize>>>;

/// One precomputed step of the recursion: from a checkpoint at age `t`, run `i` steps
/// and checkpoint again (window `w = iΔ + δ`).  These terms depend only on `(i, t)`,
/// never on the remaining work `j` or on `V(j, 0)`, so [`DpCheckpointPolicy::solve`]
/// evaluates the model once per entry instead of once per `(j, i, t)`.
#[derive(Debug, Clone, Copy)]
struct Transition {
    /// Probability the window completes without a preemption.
    p_succ: f64,
    /// `1 − p_succ`.
    p_fail: f64,
    /// Expected work lost (hours since the window start) given a preemption.
    lost: f64,
    /// Age bin of `t + w`, where the success branch continues.
    next_bin: usize,
}

#[derive(Debug, Clone)]
struct SolvedTables {
    job_steps: usize,
    value: ValueTable,
    choice: ChoiceTable,
}

impl Clone for DpCheckpointPolicy {
    fn clone(&self) -> Self {
        DpCheckpointPolicy {
            model: self.model.clone(),
            config: self.config,
            age_step: self.age_step,
            age_bins: self.age_bins,
            cache: std::sync::Mutex::new(self.cache.lock().expect("cache lock").clone()),
        }
    }
}

impl std::fmt::Debug for DpCheckpointPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpCheckpointPolicy")
            .field("family", &self.model.family())
            .field("config", &self.config)
            .field("age_bins", &self.age_bins)
            .finish()
    }
}

impl DpCheckpointPolicy {
    /// Creates a policy for a fitted bathtub model — the closed-form fast path.
    pub fn new(model: ConstrainedBathtub, config: CheckpointConfig) -> Result<Self> {
        Self::from_model(Arc::new(model), config)
    }

    /// Creates a policy for *any* lifetime model — the generic-hazard DP.  The model's
    /// survival, first-moment curve and deadline atom fully determine the recursion, so
    /// Weibull/exponential/phased/empirical winners (tabulated by
    /// [`tcp_core::TabulatedLifetime`]) plan checkpoints exactly like the bathtub fit
    /// plans its own.
    pub fn from_model(model: Arc<dyn LifetimeModel>, config: CheckpointConfig) -> Result<Self> {
        config.validate()?;
        let horizon = model.horizon();
        if !(horizon > 0.0) || !horizon.is_finite() {
            return Err(NumericsError::invalid("model horizon must be positive"));
        }
        // Age grid resolution: half a work step is plenty (ages only influence the DP
        // through the slowly varying CDF), capped to at most ~2000 bins.
        let age_step = (0.5 * config.step_hours).clamp(horizon / 2000.0, 0.25);
        let age_bins = (horizon / age_step).ceil() as usize + 1;
        Ok(DpCheckpointPolicy {
            model,
            config,
            age_step,
            age_bins,
            cache: std::sync::Mutex::new(None),
        })
    }

    /// The policy configuration.
    pub fn config(&self) -> CheckpointConfig {
        self.config
    }

    /// The preemption model driving the policy.
    pub fn model(&self) -> &dyn LifetimeModel {
        self.model.as_ref()
    }

    fn age_of_bin(&self, bin: usize) -> f64 {
        (bin as f64 * self.age_step).min(self.model.horizon())
    }

    fn bin_of_age(&self, age: f64) -> usize {
        ((age / self.age_step).round() as usize).min(self.age_bins - 1)
    }

    /// Conditional survival of the window `(t, t+w]` given the VM is alive at age `t`.
    fn window_survival(&self, t: f64, w: f64) -> f64 {
        let horizon = self.model.horizon();
        if t + w >= horizon {
            return 0.0;
        }
        let s_t = self.model.survival(t);
        if s_t <= 1e-12 {
            return 0.0;
        }
        (self.model.survival(t + w) / s_t).clamp(0.0, 1.0)
    }

    /// Expected time lost (hours since the window start) given a preemption occurs inside
    /// the window `(t, t+w]` — Equation 13 adapted to the conditional setting, expressed
    /// entirely through the model-generic surface (CDF, `W`, deadline atom).
    ///
    /// The target is `E[(X − t)·1{fail}] = ∫_t^{L⁻} (x − t) f(x) dx + atom·(L − t)` for
    /// deadline-crossing windows.  `partial_expectation(t, L)` already carries the
    /// atom's `atom·L` term (the [`LifetimeModel`] first-moment contract), so the
    /// crossing branch only subtracts the `atom·t` shift — adding `atom·(L − t)` on
    /// top, as an earlier revision did, double-counts the atom by `atom·L`.
    fn expected_lost_given_failure(&self, t: f64, w: f64) -> f64 {
        let model = self.model.as_ref();
        let horizon = model.horizon();
        let u = (t + w).min(horizon);
        let mut mass = model.cdf(u) - model.cdf(t);
        // `cdf(L − ε)` excludes the atom, so the `t`-shift below only covers the
        // continuous mass; the atom's shift is handled in the crossing branch.
        let mut first_moment =
            model.partial_expectation(t, u) - t * (model.cdf(u.min(horizon - 1e-9)) - model.cdf(t));
        if t + w >= horizon {
            // Window crosses the deadline: every survivor is reclaimed at the horizon.
            let atom = model.deadline_atom();
            mass = (1.0 - model.cdf(t)).max(mass);
            first_moment -= atom * t;
        }
        if mass <= 1e-12 {
            return 0.5 * w;
        }
        (first_moment / mass).clamp(0.0, w)
    }

    /// Tabulates every transition the recursion can take for jobs of up to
    /// `job_steps` steps: entry `bin * job_steps + (i − 1)` describes running `i` steps
    /// plus one checkpoint from the age of `bin`.  Only these `job_steps · bins`
    /// entries touch the model; the recursion itself is arithmetic over the table.
    fn transitions(&self, job_steps: usize) -> Vec<Transition> {
        let delta = self.config.checkpoint_cost_hours;
        let step = self.config.step_hours;
        let mut table = Vec::with_capacity(job_steps * self.age_bins);
        for bin in 0..self.age_bins {
            let t = self.age_of_bin(bin);
            for i in 1..=job_steps {
                let w = i as f64 * step + delta;
                let p_succ = self.window_survival(t, w);
                table.push(Transition {
                    p_succ,
                    p_fail: 1.0 - p_succ,
                    lost: self.expected_lost_given_failure(t, w),
                    next_bin: self.bin_of_age(t + w),
                });
            }
        }
        table
    }

    /// Computes the full DP tables for a job of `job_steps` steps.  Returns
    /// `(value, choice)` tables indexed `[j][age_bin]`.
    fn solve(&self, job_steps: usize) -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
        let delta = self.config.checkpoint_cost_hours;
        let step = self.config.step_hours;
        let bins = self.age_bins;
        let transitions = self.transitions(job_steps);
        // The first `j` transitions out of `bin`: the actions open to a `j`-step job.
        let actions = |bin: usize, j: usize| &transitions[bin * job_steps..bin * job_steps + j];

        let mut value = vec![vec![0.0f64; bins]; job_steps + 1];
        let mut choice = vec![vec![1usize; bins]; job_steps + 1];

        for j in 1..=job_steps {
            // Fixed-point for v0 = V(j, 0): the failure branch of every state returns to a
            // fresh VM with the same remaining work.  Age 0 is exactly bin 0.
            let mut v0 = j as f64 * step + delta; // optimistic seed
            for _ in 0..60 {
                let (new_v0, _) = self.best_action(actions(0, j), v0, &value);
                if (new_v0 - v0).abs() < 1e-9 {
                    v0 = new_v0;
                    break;
                }
                v0 = new_v0;
            }
            // Fill the row with v0 fixed.
            for bin in 0..bins {
                let (v, best_i) = self.best_action(actions(bin, j), v0, &value);
                value[j][bin] = v;
                choice[j][bin] = best_i;
            }
        }
        (value, choice)
    }

    /// Evaluates `min_i Q(j, t, i)` over the `j` transitions out of one age bin, given
    /// the lower rows of the value table and the current estimate of `V(j, 0)`.
    fn best_action(&self, actions: &[Transition], v0: f64, value: &[Vec<f64>]) -> (f64, usize) {
        let delta = self.config.checkpoint_cost_hours;
        let step = self.config.step_hours;
        let restart = self.config.restart_overhead_hours;
        let j = actions.len();

        let mut best = f64::INFINITY;
        let mut best_i = 1;
        for (i, action) in (1..=j).zip(actions) {
            let w = i as f64 * step + delta;
            let cont = if j - i == 0 {
                0.0
            } else {
                value[j - i][action.next_bin]
            };
            let q = action.p_succ * (w + cont) + action.p_fail * (action.lost + restart + v0);
            if q < best {
                best = q;
                best_i = i;
            }
        }
        (best, best_i)
    }

    /// Returns cached DP tables covering at least `job_steps` steps, solving if necessary.
    fn solved(&self, job_steps: usize) -> (ValueTable, ChoiceTable) {
        let mut guard = self.cache.lock().expect("cache lock");
        if let Some(tables) = guard.as_ref() {
            if tables.job_steps >= job_steps {
                return (tables.value.clone(), tables.choice.clone());
            }
        }
        let (value, choice) = self.solve(job_steps);
        let tables = SolvedTables {
            job_steps,
            value: std::sync::Arc::new(value),
            choice: std::sync::Arc::new(choice),
        };
        let out = (tables.value.clone(), tables.choice.clone());
        *guard = Some(tables);
        out
    }

    /// Computes the optimal checkpoint schedule for a job of length `job_len` hours
    /// starting at VM age `start_age` hours.
    pub fn schedule(&self, job_len: f64, start_age: f64) -> Result<CheckpointSchedule> {
        self.schedule_into(job_len, start_age, Vec::new())
    }

    /// [`DpCheckpointPolicy::schedule`], building the intervals in `intervals` (cleared
    /// first) so a caller that plans repeatedly can hand the same allocation back in.
    pub(crate) fn schedule_into(
        &self,
        job_len: f64,
        start_age: f64,
        mut intervals: Vec<f64>,
    ) -> Result<CheckpointSchedule> {
        if !(job_len > 0.0) || !job_len.is_finite() {
            return Err(NumericsError::invalid("job length must be positive"));
        }
        if !(0.0..self.model.horizon()).contains(&start_age) {
            return Err(NumericsError::invalid(format!(
                "start age {start_age} must lie in [0, horizon)"
            )));
        }
        let step = self.config.step_hours;
        let job_steps = (job_len / step).round().max(1.0) as usize;
        let (value, choice) = self.solved(job_steps);

        // Extract the success-path schedule.
        intervals.clear();
        let mut j = job_steps;
        let mut age = start_age;
        while j > 0 {
            let bin = self.bin_of_age(age);
            let i = choice[j][bin].clamp(1, j);
            intervals.push(i as f64 * step);
            age = (age + i as f64 * step + self.config.checkpoint_cost_hours)
                .min(self.model.horizon());
            j -= i;
        }

        let start_bin = self.bin_of_age(start_age);
        Ok(CheckpointSchedule {
            intervals_hours: intervals,
            expected_makespan: value[job_steps][start_bin],
            job_len: job_steps as f64 * step,
            start_age,
        })
    }

    /// Expected makespan only (no schedule extraction).
    pub fn expected_makespan(&self, job_len: f64, start_age: f64) -> Result<f64> {
        Ok(self.schedule(job_len, start_age)?.expected_makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(config: CheckpointConfig) -> DpCheckpointPolicy {
        DpCheckpointPolicy::new(ConstrainedBathtub::paper_representative(), config).unwrap()
    }

    /// The evaluation `solve` replaced: every `(j, i, bin)` queries the model directly.
    /// Kept only as the oracle the tabulated recursion must match bit for bit.
    fn reference_best_action(
        p: &DpCheckpointPolicy,
        j: usize,
        t: f64,
        v0: f64,
        value: &[Vec<f64>],
    ) -> (f64, usize) {
        let delta = p.config.checkpoint_cost_hours;
        let step = p.config.step_hours;
        let restart = p.config.restart_overhead_hours;
        let mut best = f64::INFINITY;
        let mut best_i = 1;
        for i in 1..=j {
            let w = i as f64 * step + delta;
            let p_succ = p.window_survival(t, w);
            let p_fail = 1.0 - p_succ;
            let lost = p.expected_lost_given_failure(t, w);
            let cont = if j - i == 0 {
                0.0
            } else {
                value[j - i][p.bin_of_age(t + w)]
            };
            let q = p_succ * (w + cont) + p_fail * (lost + restart + v0);
            if q < best {
                best = q;
                best_i = i;
            }
        }
        (best, best_i)
    }

    fn reference_solve(
        p: &DpCheckpointPolicy,
        job_steps: usize,
    ) -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
        let bins = p.age_bins;
        let mut value = vec![vec![0.0f64; bins]; job_steps + 1];
        let mut choice = vec![vec![1usize; bins]; job_steps + 1];
        for j in 1..=job_steps {
            let mut v0 = j as f64 * p.config.step_hours + p.config.checkpoint_cost_hours;
            for _ in 0..60 {
                let (new_v0, _) = reference_best_action(p, j, 0.0, v0, &value);
                if (new_v0 - v0).abs() < 1e-9 {
                    v0 = new_v0;
                    break;
                }
                v0 = new_v0;
            }
            for bin in 0..bins {
                let (v, best_i) = reference_best_action(p, j, p.age_of_bin(bin), v0, &value);
                value[j][bin] = v;
                choice[j][bin] = best_i;
            }
        }
        (value, choice)
    }

    /// Every family the advisor serves: the bathtub closed form plus tabulated
    /// Weibull, exponential, phased, empirical and mixture models.
    fn served_families() -> Vec<Arc<dyn tcp_core::LifetimeModel>> {
        let horizon = 24.0;
        let exponential: Arc<dyn tcp_dists::LifetimeDistribution> =
            Arc::new(tcp_dists::Exponential::new(1.0 / 8.0).unwrap());
        let weibull: Arc<dyn tcp_dists::LifetimeDistribution> =
            Arc::new(tcp_dists::Weibull::new(0.12, 1.4).unwrap());
        let phased: Arc<dyn tcp_dists::LifetimeDistribution> =
            Arc::new(tcp_dists::PhasedHazard::representative());
        let empirical: Arc<dyn tcp_dists::LifetimeDistribution> = Arc::new(
            tcp_dists::EmpiricalLifetime::new(
                &[0.4, 1.1, 2.0, 3.5, 5.0, 7.5, 11.0, 16.0, 21.0, 24.0],
                Some(horizon),
            )
            .unwrap(),
        );
        let tabulate = |family: &str, dist: &Arc<dyn tcp_dists::LifetimeDistribution>| {
            Arc::new(
                tcp_core::TabulatedLifetime::from_distribution(family, dist.as_ref(), horizon, 241)
                    .unwrap(),
            ) as Arc<dyn tcp_core::LifetimeModel>
        };
        vec![
            Arc::new(ConstrainedBathtub::paper_representative()),
            tabulate("weibull", &weibull),
            tabulate("exponential", &exponential),
            tabulate("phased", &phased),
            tabulate("empirical", &empirical),
            Arc::new(
                tcp_core::TabulatedLifetime::from_mixture(
                    &[(0.5, weibull), (0.3, phased), (0.2, empirical)],
                    horizon,
                    241,
                )
                .unwrap(),
            ),
        ]
    }

    #[test]
    fn tabulated_solve_matches_the_per_state_evaluation_bit_for_bit() {
        let configs = [
            // (config, job steps): 15-minute steps with 1-minute checkpoints, and
            // 5-minute steps with 5-minute checkpoints.
            (CheckpointConfig::coarse(), 24),
            (
                CheckpointConfig {
                    checkpoint_cost_hours: 5.0 / 60.0,
                    step_hours: 5.0 / 60.0,
                    restart_overhead_hours: 1.0 / 60.0,
                },
                16,
            ),
        ];
        for model in served_families() {
            let family = model.family().to_string();
            for &(config, job_steps) in &configs {
                let p = DpCheckpointPolicy::from_model(model.clone(), config).unwrap();
                let (value, choice) = p.solve(job_steps);
                let (want_value, want_choice) = reference_solve(&p, job_steps);
                assert_eq!(choice, want_choice, "{family} {config:?}: choice");
                for (j, (row, want_row)) in value.iter().zip(&want_value).enumerate() {
                    let bits: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = want_row.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, want, "{family} {config:?}: value row {j}");
                }
            }
        }
    }

    #[test]
    fn age_zero_is_exactly_bin_zero() {
        // The `V(j, 0)` fixed point reads the bin-0 transitions in place of age 0.
        for model in served_families() {
            let p =
                DpCheckpointPolicy::from_model(model, CheckpointConfig::paper_defaults()).unwrap();
            assert_eq!(p.age_of_bin(0).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn config_validation() {
        let model = ConstrainedBathtub::paper_representative();
        let mut bad = CheckpointConfig::coarse();
        bad.checkpoint_cost_hours = 0.0;
        assert!(DpCheckpointPolicy::new(model, bad).is_err());
        let mut bad = CheckpointConfig::coarse();
        bad.step_hours = -1.0;
        assert!(DpCheckpointPolicy::new(model, bad).is_err());
        let mut bad = CheckpointConfig::coarse();
        bad.restart_overhead_hours = f64::NAN;
        assert!(DpCheckpointPolicy::new(model, bad).is_err());
    }

    #[test]
    fn schedule_covers_the_whole_job() {
        let p = policy(CheckpointConfig::coarse());
        let sched = p.schedule(4.0, 0.0).unwrap();
        let total: f64 = sched.intervals_hours.iter().sum();
        assert!((total - sched.job_len).abs() < 1e-9);
        assert!(
            sched.checkpoint_count() >= 2,
            "expected multiple checkpoints, got {sched:?}"
        );
        assert!(sched.intervals_hours.iter().all(|&i| i > 0.0));
        assert!(sched.expected_makespan >= sched.job_len);
    }

    #[test]
    fn plan_into_a_dirty_buffer_matches_a_fresh_schedule() {
        use crate::CheckpointPlanner;
        let reused = policy(CheckpointConfig::coarse());
        let mut out = vec![f64::NAN; 300];
        for job_len in [2.75, 0.1, 9.5, 0.6, 4.0, 1.0] {
            for age in [0.0, 0.3, 3.0, 12.5, 23.9] {
                reused.plan_into(job_len, age, &mut out).unwrap();
                let fresh = policy(CheckpointConfig::coarse())
                    .schedule(job_len, age)
                    .unwrap()
                    .intervals_hours;
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&fresh), "job {job_len} h at age {age} h");
                out.resize(out.len() + 7, -1.0);
            }
        }
    }

    #[test]
    fn schedule_argument_validation() {
        let p = policy(CheckpointConfig::coarse());
        assert!(p.schedule(0.0, 0.0).is_err());
        assert!(p.schedule(-1.0, 0.0).is_err());
        assert!(p.schedule(2.0, 25.0).is_err());
    }

    #[test]
    fn intervals_grow_as_the_vm_stabilises() {
        // The paper's example: a 5-hour job on a fresh VM gets increasing intervals
        // (15, 28, 38, 59, 128 minutes) because the failure rate drops after the early
        // phase.  Exact values depend on the fitted parameters; the qualitative property is
        // that the first interval is the shortest and the last is the longest.
        let p = policy(CheckpointConfig::paper_defaults());
        let sched = p.schedule(5.0, 0.0).unwrap();
        let first = sched.intervals_hours[0];
        let last = *sched.intervals_hours.last().unwrap();
        assert!(sched.checkpoint_count() >= 3, "{sched:?}");
        assert!(
            last > first,
            "expected increasing intervals: {:?}",
            sched.intervals_hours
        );
        // first interval should be well under an hour on a fresh VM
        assert!(first <= 0.75, "first interval = {first}");
    }

    #[test]
    fn stable_phase_jobs_checkpoint_less() {
        let p = policy(CheckpointConfig::coarse());
        let fresh = p.schedule(3.0, 0.0).unwrap();
        let stable = p.schedule(3.0, 8.0).unwrap();
        // In the stable phase the failure rate is low, so the DP takes fewer checkpoints
        // and expects a lower makespan.
        assert!(stable.expected_makespan <= fresh.expected_makespan + 1e-9);
        assert!(stable.checkpoint_count() <= fresh.checkpoint_count());
    }

    #[test]
    fn overhead_fraction_small_in_stable_phase() {
        // Figure 8a: with the model-driven policy the increase in running time is ~1-5 %
        // when the job starts in the stable phase.
        let p = policy(CheckpointConfig::paper_defaults());
        let sched = p.schedule(4.0, 8.0).unwrap();
        let overhead = sched.expected_overhead_fraction();
        assert!(overhead < 0.06, "overhead = {overhead}");
        assert!(overhead > 0.0);
    }

    #[test]
    fn near_deadline_start_is_expensive() {
        let p = policy(CheckpointConfig::coarse());
        let stable = p.expected_makespan(4.0, 8.0).unwrap();
        let late = p.expected_makespan(4.0, 21.0).unwrap();
        assert!(late > stable, "late {late} stable {stable}");
    }

    #[test]
    fn expected_lost_is_bounded_by_window() {
        let p = policy(CheckpointConfig::coarse());
        for &t in &[0.0, 2.0, 10.0, 22.0, 23.5] {
            for &w in &[0.25, 1.0, 3.0] {
                let lost = p.expected_lost_given_failure(t, w);
                assert!(lost >= 0.0 && lost <= w + 1e-9, "t={t} w={w} lost={lost}");
            }
        }
    }

    #[test]
    fn generic_hazard_dp_matches_the_bathtub_closed_form() {
        // The acceptance bar of the model-generic redesign: running the DP against the
        // bathtub fit *tabulated by quadrature* (the exact path every non-bathtub
        // winner takes) reproduces the closed-form DP within 5e-3 across the grid,
        // including start ages whose windows cross the deadline.
        let model = ConstrainedBathtub::paper_representative();
        let closed = DpCheckpointPolicy::new(model, CheckpointConfig::coarse()).unwrap();
        let tabulated = tcp_core::TabulatedLifetime::from_distribution(
            "bathtub",
            &model,
            model.horizon(),
            1441,
        )
        .unwrap();
        let generic =
            DpCheckpointPolicy::from_model(Arc::new(tabulated), CheckpointConfig::coarse())
                .unwrap();
        for &job in &[1.0, 3.0, 6.0] {
            for &age in &[0.0, 2.0, 8.0, 16.0, 21.5, 23.0] {
                let a = closed.expected_makespan(job, age).unwrap();
                let b = generic.expected_makespan(job, age).unwrap();
                assert!(
                    (a - b).abs() <= 5e-3 * a.max(1.0),
                    "job {job} age {age}: closed {a} vs generic {b}"
                );
            }
        }
    }

    #[test]
    fn bathtub_fast_path_is_bitwise_identical_through_the_trait() {
        // `new` wraps the same model the generic entry point receives; because every
        // bathtub trait method resolves to the Equation 1 antiderivatives, both paths
        // produce the *same* value table, not merely a close one.
        let model = ConstrainedBathtub::paper_representative();
        let a = DpCheckpointPolicy::new(model, CheckpointConfig::coarse()).unwrap();
        let b =
            DpCheckpointPolicy::from_model(Arc::new(model), CheckpointConfig::coarse()).unwrap();
        for &(job, age) in &[(2.0, 0.0), (4.0, 7.0), (5.0, 20.0)] {
            assert_eq!(
                a.expected_makespan(job, age).unwrap(),
                b.expected_makespan(job, age).unwrap()
            );
        }
    }

    #[test]
    fn value_function_monotone_in_checkpoint_cost_for_every_family() {
        // A more expensive checkpoint can never make the optimal plan cheaper.
        let horizon = 24.0;
        let models: Vec<Arc<dyn tcp_core::LifetimeModel>> = vec![
            Arc::new(ConstrainedBathtub::paper_representative()),
            Arc::new(
                tcp_core::TabulatedLifetime::from_distribution(
                    "exponential",
                    &tcp_dists::Exponential::new(1.0 / 8.0).unwrap(),
                    horizon,
                    241,
                )
                .unwrap(),
            ),
            Arc::new(
                tcp_core::TabulatedLifetime::from_distribution(
                    "weibull",
                    &tcp_dists::Weibull::new(0.12, 1.4).unwrap(),
                    horizon,
                    241,
                )
                .unwrap(),
            ),
            Arc::new(
                tcp_core::TabulatedLifetime::from_distribution(
                    "phased",
                    &tcp_dists::PhasedHazard::representative(),
                    horizon,
                    241,
                )
                .unwrap(),
            ),
            Arc::new(
                tcp_core::TabulatedLifetime::from_distribution(
                    "empirical",
                    &tcp_dists::EmpiricalLifetime::new(
                        &[0.4, 1.1, 2.0, 3.5, 5.0, 7.5, 11.0, 16.0, 21.0, 24.0],
                        Some(horizon),
                    )
                    .unwrap(),
                    horizon,
                    241,
                )
                .unwrap(),
            ),
        ];
        for model in models {
            let family = model.family().to_string();
            let mut prev = 0.0f64;
            for &cost_minutes in &[0.5, 2.0, 8.0] {
                let config = CheckpointConfig {
                    checkpoint_cost_hours: cost_minutes / 60.0,
                    step_hours: 0.25,
                    restart_overhead_hours: 1.0 / 60.0,
                };
                let policy = DpCheckpointPolicy::from_model(model.clone(), config).unwrap();
                let v = policy.expected_makespan(4.0, 0.0).unwrap();
                assert!(
                    v >= prev - 1e-9,
                    "{family}: cost {cost_minutes}min gave {v} < previous {prev}"
                );
                assert!(v >= 4.0, "{family}: makespan below job length");
                prev = v;
            }
        }
    }

    #[test]
    fn window_survival_monotone_in_window_length() {
        let p = policy(CheckpointConfig::coarse());
        for &t in &[0.0, 5.0, 15.0] {
            let mut prev = 1.0;
            for k in 1..10 {
                let s = p.window_survival(t, k as f64 * 0.5);
                assert!(s <= prev + 1e-12);
                prev = s;
            }
        }
        // windows crossing the deadline never survive
        assert_eq!(p.window_survival(23.0, 2.0), 0.0);
    }
}
