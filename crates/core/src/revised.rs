//! The two-phase revised simplex driver.
//!
//! The driver runs the hot loop of one solve — BTRAN and pricing (with
//! partial-pricing windows), FTRAN, the ratio test and the basis update —
//! with all linear algebra going through a [`Backend`]. Every decision
//! between those steps (start, phase transitions, periodic reinversion,
//! recovery, the degeneracy ladder, checkpoints, the terminal result)
//! belongs to the `SimplexLane` it shares with the lockstep mega-batch
//! driver. Time is sampled from the backend's modeled clock around every
//! step, producing the per-step breakdown of experiment F2 for CPU and GPU
//! uniformly.
//!
//! Observability: the driver is generic over a [`Recorder`]. Every backend
//! call is bracketed in a span carrying the step kind, the simulated
//! interval, the host wall time, and the iteration/phase position. The
//! default [`NoopRecorder`] advertises `ENABLED = false`, so on the default
//! path the extra work (including the host-clock reads) is folded away at
//! monomorphization — the legacy [`Step`] accounting is unconditional.
//!
//! Fallibility: [`RevisedSimplex::try_solve`] surfaces device failures,
//! deadline overruns and unrecoverable numerical collapse as
//! [`SolveError`]s instead of panicking, and repairs transient NaN/Inf
//! corruption (e.g. an injected kernel corruption) with emergency
//! reinversions — the same machinery periodic refactorization already
//! uses — up to a small consecutive budget per phase.

use std::time::Instant;

use linalg::Scalar;
use lp::StandardForm;

use crate::backend::{Backend, RatioOutcome};
use crate::checkpoint::{CheckpointSlot, SolveCheckpoint};
use crate::error::SolveError;
use crate::lane::{BoundLane, Next, SimplexLane, Span};
use crate::options::{PivotRule, SolverOptions};
use crate::result::{Status, StdResult};
use crate::stats::Step;
use crate::trace::{NoopRecorder, Recorder, StepKind};

/// Two-phase revised simplex over an abstract backend.
pub struct RevisedSimplex<'a, T: Scalar, B: Backend<T>, R: Recorder = NoopRecorder> {
    backend: &'a mut B,
    opts: &'a SolverOptions,
    rec: Option<&'a mut R>,
    lane: SimplexLane<'a, T>,
    /// Warm-start candidate, validated and installed when the solve starts.
    warm_basis: Option<Vec<usize>>,
    /// Snapshot to resume from instead of a cold or warm start.
    resume: Option<SolveCheckpoint>,
}

impl<'a, T: Scalar, B: Backend<T>> RevisedSimplex<'a, T, B> {
    /// Create a driver. The backend must have been constructed from the
    /// same standard form (`sf.a`, `sf.b`, `sf.basis0`).
    pub fn new(backend: &'a mut B, sf: &'a StandardForm<T>, opts: &'a SolverOptions) -> Self {
        Self::build(backend, sf, opts, None)
    }
}

impl<'a, T: Scalar, B: Backend<T>, R: Recorder> RevisedSimplex<'a, T, B, R> {
    /// Like [`RevisedSimplex::new`], with spans reported to `rec`. The
    /// caller keeps ownership of the recorder, so a solve that errors out
    /// (device fault, timeout) leaves its partial trace available for
    /// post-mortem.
    pub fn with_recorder(
        backend: &'a mut B,
        sf: &'a StandardForm<T>,
        opts: &'a SolverOptions,
        rec: &'a mut R,
    ) -> Self {
        Self::build(backend, sf, opts, Some(rec))
    }

    fn build(
        backend: &'a mut B,
        sf: &'a StandardForm<T>,
        opts: &'a SolverOptions,
        rec: Option<&'a mut R>,
    ) -> Self {
        // The representation must be chosen before the first pivot; routing
        // it through the driver covers every construction path (direct,
        // warm, resumed) with one call site.
        backend.set_representation(opts.basis_representation);
        RevisedSimplex {
            backend,
            opts,
            rec,
            lane: SimplexLane::new(sf, opts, None),
            warm_basis: None,
            resume: None,
        }
    }

    /// Start phase 2 directly from a caller-supplied basis (e.g. the final
    /// basis of a previous solve of a perturbed model). The basis must have
    /// one non-artificial column per row; if it is malformed, singular or
    /// primal-infeasible, the driver records the rejection and falls back
    /// to the cold two-phase start — a warm start is an optimization, never
    /// a correctness risk.
    pub fn set_start_basis(&mut self, basis: Vec<usize>) {
        self.warm_basis = Some(basis);
    }

    /// Attach a caller-owned checkpoint slot. The driver stores a
    /// [`SolveCheckpoint`] into it at every refactorization boundary at
    /// least `opts.checkpoint_interval` iterations past the previous
    /// snapshot (0 disables), and reports per-iteration progress so the
    /// recovery layer can account wasted work after a fault.
    pub fn attach_checkpoint_slot(&mut self, slot: &'a CheckpointSlot) {
        self.lane.slot = Some(slot);
    }

    /// Resume from `cp` instead of a cold or warm start: the basis is
    /// reinstalled through the same host reinversion path a periodic
    /// refactorize uses, so the continued pivot walk is bitwise-identical
    /// to the uninterrupted solve from that boundary onward — on any
    /// backend sharing that path, not just the one that took the snapshot.
    /// Mutually exclusive with a warm-start basis (the checkpoint wins).
    pub fn resume_from(&mut self, cp: SolveCheckpoint) {
        self.resume = Some(cp);
    }

    /// The lane bound to this solve's backend and recorder.
    fn bound(&mut self) -> BoundLane<'_, 'a, T, B, R> {
        self.lane.on(self.backend, self.rec.as_deref_mut())
    }

    #[inline]
    fn span_begin(&self) -> Span {
        Span::open::<R>(self.backend.clock())
    }

    #[inline]
    fn span_close(&mut self, kind: StepKind, step: Step, span: Span) {
        self.bound().close(kind, step, span);
    }

    /// Deadline enforcement (wall clock: the deadline bounds *host*
    /// resources, not modeled device time). Called between backend steps so
    /// a stalled kernel or a long refactorize cannot overshoot `time_limit`
    /// by a whole iteration.
    #[inline]
    fn check_deadline(&self, wall: Instant) -> Result<(), SolveError> {
        if let Some(limit) = self.opts.time_limit {
            let elapsed = wall.elapsed().as_secs_f64();
            if elapsed > limit {
                return Err(SolveError::Timeout {
                    elapsed_seconds: elapsed,
                    limit_seconds: limit,
                });
            }
        }
        Ok(())
    }

    /// Run to completion, surfacing machinery failures as [`SolveError`]s.
    /// Mathematical outcomes (optimal/infeasible/unbounded/limits) are
    /// `Ok` with the corresponding [`Status`].
    pub fn try_solve(mut self) -> Result<StdResult<T>, SolveError> {
        let wall = Instant::now();
        let warm = self.warm_basis.take();
        match self.resume.take() {
            Some(cp) => self.bound().resume(cp)?,
            None => self.bound().start(warm)?,
        }
        let status = self.run(wall)?;
        self.bound().finish(status, wall)
    }

    /// The iteration loop, across both phases, up to a terminal status.
    fn run(&mut self, wall: Instant) -> Result<Status, SolveError> {
        let opt_tol = self.opts.opt_tol_for::<T>();
        let pivot_tol = self.opts.pivot_tol_for::<T>();
        // Act on a lane verdict: price again, or end with its status.
        macro_rules! settle {
            ($next:expr) => {
                match $next {
                    Next::Reprice => continue,
                    Next::Done(status) => return Ok(status),
                }
            };
        }

        loop {
            if self.lane.at_iteration_limit() {
                return Ok(Status::IterationLimit);
            }
            self.check_deadline(wall)?;
            if self.lane.boundary_due() {
                if !self.bound().periodic_boundary()? {
                    return Ok(Status::SingularBasis);
                }
                self.check_deadline(wall)?;
            }

            // Pricing + entering-variable selection.
            let use_bland = self.lane.bland_mode;
            let entering = self.price_and_select(opt_tol, use_bland)?;
            self.check_deadline(wall)?;
            let Some((q, dq)) = entering else {
                settle!(self.bound().converged()?)
            };
            // Corruption check *before* the improvement assertion: a NaN
            // reduced cost is a repairable fault, not a driver bug.
            if !dq.is_finite() {
                settle!(self
                    .bound()
                    .recover_or_fail(format!("reduced cost d[{q}]"))?);
            }
            debug_assert!(dq < T::ZERO, "entering column must improve");

            // FTRAN.
            let span = self.span_begin();
            self.backend.compute_alpha(q)?;
            self.span_close(StepKind::Ftran, Step::Ftran, span);
            self.check_deadline(wall)?;

            // Ratio test.
            let span = self.span_begin();
            let mut outcome = self.backend.ratio_test(pivot_tol)?;
            self.span_close(StepKind::RatioTest, Step::RatioTest, span);
            self.check_deadline(wall)?;
            if matches!(outcome, RatioOutcome::Unbounded) && self.lane.spend_retest() {
                match self.bound().retest(q)? {
                    Some(retested) => outcome = retested,
                    None => return Ok(Status::SingularBasis),
                }
                self.check_deadline(wall)?;
            }
            let (p, theta) = match outcome {
                RatioOutcome::Unbounded => {
                    settle!(self.bound().unbounded()?)
                }
                RatioOutcome::Pivot { p, theta } => (p, theta),
            };
            if !theta.is_finite() {
                settle!(self.bound().recover_or_fail("step length")?);
            }

            // Update.
            let span = self.span_begin();
            self.backend.update(p, theta)?;
            self.backend.set_basic_col(p, q)?;
            self.backend.set_basic_cost(p, self.lane.entering_cost(q))?;
            self.span_close(StepKind::UpdateBasis, Step::Update, span);
            self.check_deadline(wall)?;
            self.bound().after_pivot(q, p, theta, use_bland)?;
        }
    }

    /// Price and select the entering variable under the active rule.
    ///
    /// Full rules (Dantzig/Bland/Hybrid, or any rule in Bland fallback mode)
    /// price every active column. Partial pricing walks `window`-sized
    /// column blocks from a rotating cursor and takes the first block that
    /// yields a candidate; optimality is declared only after a full pass
    /// comes up dry (each block's reduced costs are recomputed against the
    /// current basis, so the certificate is sound).
    ///
    /// BTRAN runs before every pricing window — the multipliers must be
    /// current against the basis — and is traced as its own span; the
    /// selection scan is folded into the pricing step it serves.
    fn price_and_select(
        &mut self,
        opt_tol: T,
        use_bland: bool,
    ) -> Result<Option<(usize, T)>, SolveError> {
        let n = self.backend.n_active();
        let window = match self.opts.pivot_rule {
            PivotRule::PartialDantzig { window } if !use_bland && n > 0 => Some(window.clamp(1, n)),
            _ => None,
        };
        match window {
            Some(w) if w < n => {
                let mut scanned = 0;
                while scanned < n {
                    let start = self.lane.price_cursor % n;
                    let len = w.min(n - start);
                    let span = self.span_begin();
                    self.backend.compute_btran()?;
                    self.span_close(StepKind::Btran, Step::Pricing, span);
                    let span = self.span_begin();
                    self.backend.compute_pricing_window(start, len)?;
                    self.span_close(StepKind::Pricing, Step::Pricing, span);

                    let span = self.span_begin();
                    let hit = self.backend.entering_dantzig_window(opt_tol, start, len)?;
                    self.span_close(StepKind::Pricing, Step::Selection, span);
                    if hit.is_some() {
                        // Stay on this window: it likely has more candidates.
                        return Ok(hit);
                    }
                    self.lane.price_cursor = (start + len) % n;
                    scanned += len;
                }
                Ok(None)
            }
            _ => {
                let span = self.span_begin();
                self.backend.compute_btran()?;
                self.span_close(StepKind::Btran, Step::Pricing, span);
                let span = self.span_begin();
                self.backend.compute_pricing_window(0, n)?;
                self.span_close(StepKind::Pricing, Step::Pricing, span);

                let span = self.span_begin();
                let entering = if use_bland {
                    self.backend.entering_bland(opt_tol)?
                } else {
                    self.backend.entering_dantzig(opt_tol)?
                };
                self.span_close(StepKind::Pricing, Step::Selection, span);
                Ok(entering)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::CpuDenseBackend;
    use crate::lane::tests::degenerate_lp;
    use lp::StandardForm;

    /// The perturbation policy terminates at the same optimum as the Bland
    /// ladder on a degenerate two-phase instance, with the exact objective
    /// restored before the certificate.
    #[test]
    fn perturbation_policy_matches_bland_ladder_optimum() {
        let lp = degenerate_lp();
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        let n_active = sf.num_cols() - sf.num_artificials;

        let baseline = {
            let opts = SolverOptions {
                stall_threshold: 1,
                ..SolverOptions::default()
            };
            let mut be = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
            RevisedSimplex::new(&mut be, &sf, &opts)
                .try_solve()
                .unwrap()
        };
        let perturbed = {
            let opts = SolverOptions {
                stall_threshold: 1,
                degeneracy: crate::options::DegeneracyPolicy::Perturb { scale: 1e-7 },
                ..SolverOptions::default()
            };
            let mut be = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
            RevisedSimplex::new(&mut be, &sf, &opts)
                .try_solve()
                .unwrap()
        };
        assert_eq!(baseline.status, Status::Optimal);
        assert_eq!(perturbed.status, Status::Optimal);
        assert!(
            (baseline.z_std - perturbed.z_std).abs() < 1e-9,
            "{} vs {}",
            baseline.z_std,
            perturbed.z_std
        );
        perturbed.stats.check_invariants().unwrap();
    }

    /// The carry does not hurt termination or correctness on a degenerate
    /// two-phase instance with a hair-trigger stall threshold.
    #[test]
    fn degenerate_two_phase_solve_stays_optimal_with_carry() {
        let lp = degenerate_lp();
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        let opts = SolverOptions {
            stall_threshold: 1,
            ..SolverOptions::default()
        };
        let n_active = sf.num_cols() - sf.num_artificials;
        let mut be = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
        let res = RevisedSimplex::new(&mut be, &sf, &opts)
            .try_solve()
            .unwrap();
        assert_eq!(res.status, Status::Optimal);
        res.stats.check_invariants().unwrap();
        assert!(res.stats.phase1_iterations > 0, "fixture needs a phase 1");
        assert_eq!(
            res.stats.iterations,
            res.stats.phase1_iterations + res.stats.phase2_iterations()
        );
    }
}
