//! What a batch run produced: per-job results and aggregate statistics.

use std::collections::BTreeMap;
use std::fmt;

use gpu_sim::SimTime;

use crate::result::{LpSolution, Status};

/// How one job of a batch ended.
#[derive(Debug)]
pub enum JobOutcome {
    /// The solver returned (any [`Status`], including `Infeasible` and
    /// `Unbounded` — those are *answers*, not failures). Boxed: a solution
    /// is an order of magnitude larger than the failure messages.
    Solved(Box<LpSolution>),
    /// The resilience layer exhausted its retries and degradation ladder
    /// without a result; the final [`crate::SolveError`]'s message is
    /// preserved. Only produced when [`crate::BatchOptions::resilience`]
    /// is set.
    Failed(String),
    /// The solve panicked — or, on the direct path, returned a
    /// [`crate::SolveError`] — and the pool kept going. The payload or
    /// error message is preserved for the report. Terminal: a job that panics is
    /// never silently re-run as `Solved`.
    Panicked(String),
}

impl JobOutcome {
    /// The solution, if the job did not fail or panic.
    pub fn solution(&self) -> Option<&LpSolution> {
        match self {
            JobOutcome::Solved(sol) => Some(sol),
            JobOutcome::Failed(_) | JobOutcome::Panicked(_) => None,
        }
    }

    /// Short status tag for tables: the solve status, `failed`, or
    /// `panicked`.
    pub fn status_label(&self) -> &'static str {
        match self {
            JobOutcome::Solved(sol) => match sol.status {
                Status::Optimal => "optimal",
                Status::Infeasible => "infeasible",
                Status::Unbounded => "unbounded",
                Status::IterationLimit => "iteration-limit",
                Status::SingularBasis => "singular-basis",
            },
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Panicked(_) => "panicked",
        }
    }
}

/// One job's record in the batch report.
#[derive(Debug)]
pub struct JobResult {
    /// Index of the job in the submitted batch (results are returned in
    /// submission order regardless of completion order).
    pub index: usize,
    /// Label of the backend the placement policy chose
    /// ([`crate::BackendKind::label`]).
    pub backend: &'static str,
    /// Worker thread (0-based) that ran the job.
    pub worker: usize,
    /// Host wall-clock seconds for this solve.
    pub wall_seconds: f64,
    /// Simulated/modeled solve time ([`crate::SolveStats::total_time`]);
    /// zero for failed and panicked jobs.
    pub sim_time: SimTime,
    /// Device faults observed across every attempt of this job (0 without
    /// fault injection).
    pub faults: u64,
    /// Attempts beyond the first that the resilience layer spent on this
    /// job (0 on the direct path).
    pub retries: usize,
    /// Degradation-ladder rungs this job descended below its placed
    /// backend (0 = ran as placed).
    pub degradations: usize,
    /// The solver *accepted* a cached family basis for this job (it passed
    /// refactorization + feasibility validation and phase 1 was skipped).
    pub warm_hit: bool,
    /// A cached basis was offered but failed validation; the job fell back
    /// to a cold start (and still produced a correct answer).
    pub warm_rejected: bool,
    /// Iterations the accepted warm start saved vs the family's recorded
    /// cold solve (0 for cold or rejected jobs).
    pub warm_iterations_saved: u64,
    /// A mid-round device fault kicked this job out of its mega-batch
    /// group *before it had a checkpoint*; it restarted from scratch as a
    /// stream-per-job solve. Disjoint from `resumed`.
    pub evacuated: bool,
    /// The job continued from a checkpoint instead of restarting: either a
    /// mega lane evacuated *with* a snapshot, or a stream job whose
    /// resilient retry/degradation resumed mid-solve. Disjoint from
    /// `evacuated`.
    pub resumed: bool,
    /// Pivots this job re-did because of faults: work completed past the
    /// latest checkpoint when an attempt (or its mega group) died.
    pub wasted_iterations: u64,
    /// The outcome.
    pub outcome: JobOutcome,
}

/// Per-backend tallies within a batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendTally {
    /// Jobs placed on this backend.
    pub jobs: usize,
    /// Simulated time accumulated on this backend. Failed and panicked
    /// jobs contribute zero here (they produced no modeled solve).
    pub sim_time: SimTime,
    /// Host wall-clock seconds the backend was actively occupied,
    /// *including* failed and panicked jobs — a job that burned 2 s of
    /// retries before failing still occupied its backend for 2 s. This is
    /// the denominator-correct basis for occupancy
    /// ([`BatchStats::active_utilization`]).
    pub wall_seconds: f64,
}

/// Aggregate statistics for one batch run.
///
/// Two clocks, deliberately:
///
/// * **Simulated time** is the primary metric, as everywhere in this
///   reproduction. `sim_total` is the sequential cost (the sum of per-job
///   modeled times — what one worker would take); `sim_makespan` is the
///   parallel cost (the max over workers of the modeled time each executed).
///   Their ratio [`BatchStats::speedup`] is scheduler speedup on the
///   simulated hardware, independent of how many host cores the
///   reproduction machine happens to have.
/// * **Host wall-clock** (`wall_seconds`, [`BatchStats::throughput`]) is
///   reported alongside as the secondary, machine-dependent metric.
#[derive(Debug, Default)]
pub struct BatchStats {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs that returned a solution (any status) rather than panicking.
    pub solved: usize,
    /// Jobs whose resilience budget (retries + degradation) ran out.
    pub failed: usize,
    /// Jobs that panicked (caught; pool survived).
    pub panicked: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Device faults observed across all jobs and attempts.
    pub device_faults: u64,
    /// Retry attempts spent by the resilience layer across all jobs.
    pub retries: usize,
    /// Degradation-ladder rungs descended across all jobs.
    pub degradations: usize,
    /// Host wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Sum of per-job simulated times — the sequential (1-worker) cost.
    pub sim_total: SimTime,
    /// Max over workers of the simulated time that worker executed — the
    /// parallel cost under this schedule.
    pub sim_makespan: SimTime,
    /// Basis-cache lookups that handed out a candidate basis, from the
    /// cache's own counters (authoritative even when a job later panicked
    /// and reported no stats). 0 with warm starts off.
    pub warm_hits: u64,
    /// Basis-cache lookups that found nothing usable.
    pub warm_misses: u64,
    /// Candidate bases the solver rejected at validation (each one is a
    /// recorded cold fallback, summed from per-job stats).
    pub warm_rejected: u64,
    /// Total iterations saved by accepted warm starts across the batch.
    pub warm_iterations_saved: u64,
    /// Jobs solved inside an SoA mega-batch group (backend `batch-kernel`).
    /// Disjoint from `ungrouped_jobs`; the two always sum to `jobs`.
    pub grouped_jobs: usize,
    /// Jobs that ran stream-per-job: mega batching off, out-of-scope
    /// options, shape singletons, presolve-decided models, or members of a
    /// group that fell back whole.
    pub ungrouped_jobs: usize,
    /// Same-shape SoA super-jobs executed ([`crate::BatchOptions::mega_batch`]).
    pub mega_groups: usize,
    /// Mega lanes a device fault kicked out *without* a checkpoint (they
    /// restarted stream-per-job from scratch). Disjoint from
    /// `resumed_jobs`.
    pub evacuated_jobs: usize,
    /// Jobs that continued from a checkpoint instead of restarting
    /// (evacuated mega lanes with a snapshot, plus stream jobs resumed by
    /// the resilience layer). Disjoint from `evacuated_jobs`.
    pub resumed_jobs: usize,
    /// Pivots re-done because of faults, summed across jobs — the raw
    /// numerator of the chaos experiment's wasted-iteration ratio.
    pub wasted_iterations: u64,
    /// Tallies keyed by backend label.
    pub per_backend: BTreeMap<&'static str, BackendTally>,
}

impl BatchStats {
    /// Host throughput, LPs per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            0.0
        } else {
            self.jobs as f64 / self.wall_seconds
        }
    }

    /// Simulated throughput, LPs per simulated second of makespan.
    pub fn sim_throughput(&self) -> f64 {
        let s = self.sim_makespan.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.jobs as f64 / s
        }
    }

    /// Scheduler speedup on simulated time: sequential cost over parallel
    /// makespan. 1.0 for a single worker; bounded above by `workers`.
    pub fn speedup(&self) -> f64 {
        let makespan = self.sim_makespan.as_nanos();
        if makespan == 0.0 {
            1.0
        } else {
            self.sim_total.as_nanos() / makespan
        }
    }

    /// Fraction of the batch's simulated time spent on backend `label`
    /// (0 when the batch did no simulated work).
    ///
    /// Caveat: failed/panicked jobs carry zero simulated time, so a
    /// backend that spent its whole batch on doomed jobs shows 0 here.
    /// [`BatchStats::active_utilization`] measures real occupancy.
    pub fn utilization(&self, label: &str) -> f64 {
        let total = self.sim_total.as_nanos();
        if total == 0.0 {
            return 0.0;
        }
        self.per_backend
            .get(label)
            .map(|t| t.sim_time.as_nanos() / total)
            .unwrap_or(0.0)
    }

    /// Basis-cache hit rate over all lookups this batch made (0 when warm
    /// starts were off or the batch was empty).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// Fraction of the batch's *active host time* spent on backend `label`:
    /// the backend's occupied wall seconds over the sum of occupied wall
    /// seconds across all backends (0 when no backend recorded active
    /// time). Unlike [`BatchStats::utilization`], failed and panicked jobs
    /// count — they occupied the backend even though they produced no
    /// simulated solve time — so the shares reflect where host time
    /// actually went.
    pub fn active_utilization(&self, label: &str) -> f64 {
        let total: f64 = self.per_backend.values().map(|t| t.wall_seconds).sum();
        if total == 0.0 {
            return 0.0;
        }
        self.per_backend
            .get(label)
            .map(|t| t.wall_seconds / total)
            .unwrap_or(0.0)
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch: {} jobs ({} solved, {} failed, {} panicked) on {} workers",
            self.jobs, self.solved, self.failed, self.panicked, self.workers
        )?;
        writeln!(
            f,
            "  wall: {:.3} s ({:.1} LPs/s)",
            self.wall_seconds,
            self.throughput()
        )?;
        if self.device_faults > 0 || self.retries > 0 || self.degradations > 0 {
            writeln!(
                f,
                "  resilience: {} device faults, {} retries, {} degradations",
                self.device_faults, self.retries, self.degradations
            )?;
        }
        if self.warm_hits + self.warm_misses > 0 {
            writeln!(
                f,
                "  warm start: {} hits / {} lookups ({:.0}%), {} rejected, {} iterations saved",
                self.warm_hits,
                self.warm_hits + self.warm_misses,
                100.0 * self.warm_hit_rate(),
                self.warm_rejected,
                self.warm_iterations_saved
            )?;
        }
        if self.mega_groups > 0 {
            writeln!(
                f,
                "  mega-batch: {} groups ({} jobs grouped, {} stream-per-job)",
                self.mega_groups, self.grouped_jobs, self.ungrouped_jobs
            )?;
        }
        if self.evacuated_jobs > 0 || self.resumed_jobs > 0 || self.wasted_iterations > 0 {
            writeln!(
                f,
                "  recovery: {} resumed from checkpoint, {} restarted cold, {} iterations wasted",
                self.resumed_jobs, self.evacuated_jobs, self.wasted_iterations
            )?;
        }
        writeln!(
            f,
            "  simulated: total {}, makespan {}, speedup {:.2}x",
            self.sim_total,
            self.sim_makespan,
            self.speedup()
        )?;
        for (label, tally) in &self.per_backend {
            writeln!(
                f,
                "    {:<12} {:>4} jobs  {:>12}  {:5.1}%",
                label,
                tally.jobs,
                format!("{}", tally.sim_time),
                100.0 * self.utilization(label)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> BatchStats {
        let mut per_backend = BTreeMap::new();
        per_backend.insert(
            "cpu-dense",
            BackendTally {
                jobs: 3,
                sim_time: SimTime::from_us(30.0),
                wall_seconds: 0.3,
            },
        );
        per_backend.insert(
            "gpu-dense",
            BackendTally {
                jobs: 1,
                sim_time: SimTime::from_us(10.0),
                wall_seconds: 0.1,
            },
        );
        BatchStats {
            jobs: 4,
            solved: 4,
            failed: 0,
            panicked: 0,
            workers: 2,
            device_faults: 0,
            retries: 0,
            degradations: 0,
            wall_seconds: 0.5,
            sim_total: SimTime::from_us(40.0),
            sim_makespan: SimTime::from_us(25.0),
            warm_hits: 0,
            warm_misses: 0,
            warm_rejected: 0,
            warm_iterations_saved: 0,
            grouped_jobs: 0,
            ungrouped_jobs: 4,
            mega_groups: 0,
            evacuated_jobs: 0,
            resumed_jobs: 0,
            wasted_iterations: 0,
            per_backend,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = stats();
        assert!((s.throughput() - 8.0).abs() < 1e-12);
        assert!((s.speedup() - 1.6).abs() < 1e-12);
        assert!((s.utilization("cpu-dense") - 0.75).abs() < 1e-12);
        assert_eq!(s.utilization("cpu-sparse"), 0.0);
        assert!((s.active_utilization("cpu-dense") - 0.75).abs() < 1e-12);
        assert_eq!(s.active_utilization("cpu-sparse"), 0.0);
        assert!(s.sim_throughput() > 0.0);
    }

    /// A backend whose only job failed has zero *simulated* time but real
    /// host occupancy: `utilization` under-reports it to 0 while
    /// `active_utilization` charges the time where it was actually spent.
    #[test]
    fn active_utilization_counts_failed_jobs() {
        let mut s = stats();
        s.per_backend.insert(
            "gpu-shared",
            BackendTally {
                jobs: 1,
                sim_time: SimTime::ZERO, // failed job: no modeled solve
                wall_seconds: 0.6,
            },
        );
        s.jobs += 1;
        s.failed += 1;
        assert_eq!(s.utilization("gpu-shared"), 0.0);
        assert!((s.active_utilization("gpu-shared") - 0.6).abs() < 1e-12);
        assert!((s.active_utilization("cpu-dense") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_guards() {
        let s = BatchStats {
            jobs: 0,
            solved: 0,
            failed: 0,
            panicked: 0,
            workers: 1,
            device_faults: 0,
            retries: 0,
            degradations: 0,
            wall_seconds: 0.0,
            sim_total: SimTime::ZERO,
            sim_makespan: SimTime::ZERO,
            warm_hits: 0,
            warm_misses: 0,
            warm_rejected: 0,
            warm_iterations_saved: 0,
            grouped_jobs: 0,
            ungrouped_jobs: 0,
            mega_groups: 0,
            evacuated_jobs: 0,
            resumed_jobs: 0,
            wasted_iterations: 0,
            per_backend: BTreeMap::new(),
        };
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.speedup(), 1.0);
        assert_eq!(s.utilization("cpu-dense"), 0.0);
        assert_eq!(s.warm_hit_rate(), 0.0);
    }

    #[test]
    fn display_renders() {
        let text = format!("{}", stats());
        assert!(text.contains("4 jobs"));
        assert!(text.contains("cpu-dense"));
        assert!(text.contains("speedup 1.60x"));
        // Resilience line only appears when something happened.
        assert!(!text.contains("resilience:"));
        let mut busy = stats();
        busy.device_faults = 5;
        busy.retries = 2;
        busy.degradations = 1;
        let text = format!("{busy}");
        assert!(text.contains("resilience: 5 device faults, 2 retries, 1 degradations"));
        // Warm line only appears when the cache was consulted at all.
        assert!(!text.contains("warm start:"));
        let mut warm = stats();
        warm.warm_hits = 3;
        warm.warm_misses = 1;
        warm.warm_iterations_saved = 42;
        let text = format!("{warm}");
        assert!(
            text.contains("warm start: 3 hits / 4 lookups (75%), 0 rejected, 42 iterations saved")
        );
        assert!((warm.warm_hit_rate() - 0.75).abs() < 1e-12);
        // Recovery line only appears when a fault forced a resume/restart.
        assert!(!text.contains("recovery:"));
        let mut rec = stats();
        rec.resumed_jobs = 3;
        rec.evacuated_jobs = 1;
        rec.wasted_iterations = 17;
        let text = format!("{rec}");
        assert!(text.contains(
            "recovery: 3 resumed from checkpoint, 1 restarted cold, 17 iterations wasted"
        ));
    }

    #[test]
    fn failed_outcome_labels() {
        let out = JobOutcome::Failed("simulated stream died; context is lost".into());
        assert_eq!(out.status_label(), "failed");
        assert!(out.solution().is_none());
    }
}
