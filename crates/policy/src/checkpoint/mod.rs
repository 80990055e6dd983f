//! Checkpointing policies for constrained preemptions (Section 4.3).
//!
//! * [`dp`] — the paper's dynamic-programming policy producing non-uniform,
//!   failure-rate-dependent checkpoint intervals.
//! * [`young_daly`] — the classical periodic baseline `τ = √(2 δ MTTF)` that assumes
//!   memoryless failures.
//! * [`simulate`] — a Monte-Carlo evaluator of checkpointed execution under any preemption
//!   model, used to produce the Figure 8 comparisons and to validate the DP analytically.
//! * [`PlannedRun`] — the one rule of a checkpointed run, which the evaluator and the
//!   Section 5 batch controller both replay.

pub mod dp;
pub mod simulate;
pub mod young_daly;

/// Slack, hours, within which an elapsed time reaches a segment's end.
const TOLERANCE_HOURS: f64 = 1e-12;

/// One planned run of a checkpointed job on one VM, borrowed from a planner's output:
/// work intervals, in order, with a checkpoint after each one but the last.
///
/// * The last segment is the plan's last interval, chosen by index.  It carries no
///   checkpoint.
/// * A segment that ends `t` hours into the run is done after `elapsed` hours iff
///   `t <= elapsed + 1e-12`.  A preemption keeps the work of the done segments.  Once
///   the last segment is done (at [`PlannedRun::duration`], within the same slack) the
///   run has finished, even if a preemption comes at that instant.
/// * The plan is the job: a finished run has done all its work.  The DP plans whole
///   `step_hours`, so a DP run does `round(remaining / step_hours)` steps of work rather
///   than exactly `remaining` hours, a known approximation of both replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedRun<'a> {
    /// Work (hours) between consecutive checkpoints, in order.
    pub intervals: &'a [f64],
    /// Cost of writing one checkpoint, hours.
    pub checkpoint_cost: f64,
}

impl PlannedRun<'_> {
    /// Wall time (hours) the run takes if no preemption interrupts it.
    pub fn duration(&self) -> f64 {
        let work: f64 = self.intervals.iter().sum();
        work + self.intervals.len().saturating_sub(1) as f64 * self.checkpoint_cost
    }

    /// Whether the run has finished after `elapsed` hours.
    pub fn is_done_at(&self, elapsed: f64) -> bool {
        self.duration() <= elapsed + TOLERANCE_HOURS
    }

    /// Work (hours) safely done after `elapsed` hours: the whole plan once the run has
    /// finished, otherwise the intervals of the checkpointed segments done by then.
    pub fn progress_at(&self, elapsed: f64) -> f64 {
        if self.is_done_at(elapsed) {
            return self.intervals.iter().sum();
        }
        let checkpointed = &self.intervals[..self.intervals.len().saturating_sub(1)];
        let mut t = 0.0;
        checkpointed
            .iter()
            .take_while(|&&work| {
                t += work + self.checkpoint_cost;
                t <= elapsed + TOLERANCE_HOURS
            })
            .sum()
    }
}
