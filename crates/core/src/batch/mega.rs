//! Lockstep mega-batch driver: one [`BatchKernelBackend`] family advanced
//! one simplex iteration per *round*, every live lane together.
//!
//! Structure of a round (four kernel chains for the whole family, versus
//! four-plus launches *per member* on the stream-per-job path):
//!
//! 1. per-lane admission — iteration limit, periodic reinversion,
//!    convergence-mask assembly (`CTL_ACTIVE` | `CTL_BLAND`);
//! 2. `mega_price` — fused BTRAN + reduced costs + entering selection for
//!    every active lane, one launch, then one download of `(q, d_q)`;
//! 3. per-lane verdicts — converged lanes leave the block or enter phase 2;
//!    corrupted lanes run an emergency reinversion and sit the round out;
//! 4. `mega_ftran` + `mega_ratio` for the pivoting lanes, one launch each;
//! 5. `mega_update` — fused `B⁻¹`/β pivot + basis bookkeeping, one launch,
//!    then each lane's post-pivot bookkeeping.
//!
//! Finished lanes idle without desynchronizing the block: their `ctl` bit is
//! clear, so the batched kernels skip them (and the per-round idle count
//! lands in the device's `batch_rounds` counters).
//!
//! **Parity.** Each member is a `SimplexLane` — the same host decision
//! procedure the solo [`crate::RevisedSimplex`] runs — whose transitions go
//! through that member's [`crate::LaneView`]; only the hot kernels are
//! batched. Each lane executes the CPU dense backend's arithmetic in the
//! same serial order as a solo drive, and `tests/mega_batch.rs` pins every
//! member's status, basis, counters, objective bits and pivot fingerprint
//! to the solo `cpu-dense` solve.
//!
//! **Accounting.** Per-lane irregular work is charged to that lane alone.
//! Shared rounds are charged *fair-share*: the round stage's simulated
//! interval divides evenly over the lanes that participated, so idle and
//! finished members stop accruing step time — `StepTimings` per lane then
//! sums to (approximately) the device interval without double counting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gpu_sim::{Gpu, SimTime};
use linalg::gpu::{CTL_ACTIVE, CTL_BLAND};
use linalg::Scalar;
use lp::StandardForm;

use crate::backend::RatioOutcome;
use crate::backends::{BatchKernelBackend, BatchMember, LaneView};
use crate::checkpoint::{CheckpointSlot, SolveCheckpoint};
use crate::error::SolveError;
use crate::lane::{BoundLane, Next, SimplexLane, Span};
use crate::options::{BasisRepresentation, DegeneracyPolicy, PivotRule, SolverOptions};
use crate::result::{Status, StdResult};
use crate::stats::Step;
use crate::trace::{Recorder, StepKind};

/// Whether this option set can run on the lockstep mega path at all.
/// Partial pricing rotates a per-solve cursor (lanes would desynchronize)
/// and wall-clock deadlines need the per-solve machinery of the stream
/// path. The SoA kernels maintain one explicit per-lane `B⁻¹` and the
/// control mask only encodes the Bland escalation, so the product-form
/// representation and the perturbation policy also fall back to
/// stream-per-job. Incompatible batches do exactly that. Fault injection
/// *is* in scope: a mid-round device fault evacuates the live lanes as
/// checkpointed stream-per-job resumes (see [`LaneOutcome::Evacuated`]).
pub fn mega_compatible(opts: &SolverOptions) -> bool {
    opts.time_limit.is_none()
        && !matches!(opts.pivot_rule, PivotRule::PartialDantzig { .. })
        && opts.basis_representation == BasisRepresentation::ExplicitInverse
        && matches!(opts.degeneracy, DegeneracyPolicy::BlandFallback)
}

/// Terminal state of one lane after a mega family run that may have been
/// interrupted by a device fault.
pub enum LaneOutcome<T: Scalar> {
    /// The lane drained normally (solved, or failed on its own terms).
    Done(Result<Box<StdResult<T>>, SolveError>),
    /// A mid-round device fault stopped the family before this lane
    /// converged. The lane carries its latest checkpoint so the caller can
    /// re-dispatch it as a *resumed* stream-per-job solve — salvage, never
    /// an error. `checkpoint` is `None` when the fault struck before the
    /// first snapshot (the re-dispatch then restarts from scratch).
    Evacuated {
        /// Latest snapshot taken at a reinversion boundary, if any.
        checkpoint: Option<Box<SolveCheckpoint>>,
        /// Solve-wide iterations this lane had completed when the fault
        /// struck (for wasted-work accounting).
        died_at_iteration: usize,
    },
}

/// What a mega family run produced: one [`LaneOutcome`] per member (order
/// preserved), plus the device fault that interrupted the family when an
/// evacuation occurred.
pub struct MegaFamilyRun<T: Scalar> {
    /// Per-member outcomes, order preserved.
    pub lanes: Vec<LaneOutcome<T>>,
    /// The device fault that triggered lane evacuation (`None` = the run
    /// drained cleanly and every lane is [`LaneOutcome::Done`]).
    pub fault: Option<SolveError>,
}

/// Solve a same-shape family in lockstep on `gpu`. `warm[b]` optionally
/// seeds lane `b` with a basis candidate (same validation and cold-fallback
/// semantics as [`crate::RevisedSimplex::set_start_basis`]); `recs[b]`, when
/// given, receives lane `b`'s spans — fair-share for the shared round
/// stages, solo for that lane's irregular work.
///
/// A lane that collapses numerically fails alone. A mid-round device fault
/// does not discard the family: lanes that already drained keep their
/// outcomes, and lanes still in flight come back as
/// [`LaneOutcome::Evacuated`] carrying their latest reinversion-boundary
/// checkpoint, ready for a resumed stream-per-job re-dispatch. The outer
/// error is reserved for failures *before* any lane state exists (family
/// upload / backend construction), where whole-group stream fallback is the
/// right recovery.
pub fn solve_family_mega<T: Scalar, R: Recorder>(
    gpu: &Gpu,
    sfs: &[&StandardForm<T>],
    opts: &SolverOptions,
    warm: Vec<Option<Vec<usize>>>,
    recs: Option<&mut [R]>,
) -> Result<MegaFamilyRun<T>, SolveError> {
    assert!(!sfs.is_empty(), "empty mega family");
    assert_eq!(warm.len(), sfs.len(), "one warm slot per member");
    assert!(
        mega_compatible(opts),
        "options are out of mega scope (caller must fall back to stream-per-job)"
    );
    let slots: Vec<CheckpointSlot> = sfs.iter().map(|_| CheckpointSlot::new()).collect();
    let mut driver = MegaDriver::new(gpu, sfs, opts, &slots, recs)?;
    let fault = match driver.init(warm).and_then(|()| driver.run()) {
        Ok(()) => None,
        // Lane evacuation: a device fault mid-run loses no completed work.
        // Drained lanes keep their outcomes; live lanes leave with their
        // latest checkpoint for a resumed stream-per-job solve.
        Err(fault @ SolveError::Device(_)) => Some(fault),
        Err(e) => return Err(e),
    };
    let lanes = driver
        .outcomes
        .into_iter()
        .zip(&driver.lanes)
        .zip(&slots)
        .map(|((outcome, lane), slot)| match outcome {
            Some(r) => LaneOutcome::Done(r.map(Box::new)),
            None => LaneOutcome::Evacuated {
                checkpoint: slot.checkpoint().map(Box::new),
                died_at_iteration: lane.stats.iterations,
            },
        })
        .collect();
    Ok(MegaFamilyRun { lanes, fault })
}

struct MegaDriver<'a, 'g, T: Scalar, R: Recorder> {
    be: BatchKernelBackend<'g, T>,
    opts: &'a SolverOptions,
    lanes: Vec<SimplexLane<'a, T>>,
    /// Terminal result per lane; `None` while the lane is live.
    outcomes: Vec<Option<Result<StdResult<T>, SolveError>>>,
    recs: Option<&'a mut [R]>,
    wall: Instant,
}

impl<'a, 'g, T: Scalar, R: Recorder> MegaDriver<'a, 'g, T, R> {
    /// Upload the family and give member `b` a fresh lane that checkpoints
    /// into `slots[b]`.
    fn new(
        gpu: &'g Gpu,
        sfs: &[&'a StandardForm<T>],
        opts: &'a SolverOptions,
        slots: &'a [CheckpointSlot],
        recs: Option<&'a mut [R]>,
    ) -> Result<Self, SolveError> {
        let n_active = sfs[0].num_cols() - sfs[0].num_artificials;
        let members: Vec<BatchMember<'_, T>> = sfs
            .iter()
            .map(|sf| {
                assert_eq!(
                    sf.num_cols() - sf.num_artificials,
                    n_active,
                    "mega family members must agree on active columns"
                );
                BatchMember {
                    a: &sf.a,
                    b: &sf.b,
                    n_active,
                    basis0: &sf.basis0,
                }
            })
            .collect();
        let be = BatchKernelBackend::try_new(gpu, &members)?;
        Ok(MegaDriver {
            be,
            opts,
            lanes: sfs
                .iter()
                .zip(slots)
                .map(|(&sf, slot)| SimplexLane::new(sf, opts, Some(slot)))
                .collect(),
            outcomes: sfs.iter().map(|_| None).collect(),
            recs,
            wall: Instant::now(),
        })
    }

    /// Run one transition of lane `b` through its view of the family
    /// backend and its recorder.
    fn with_lane<X>(
        &mut self,
        b: usize,
        f: impl FnOnce(&mut BoundLane<'_, 'a, T, LaneView<'_, 'g, T>, R>) -> X,
    ) -> X {
        let rec = self.recs.as_deref_mut().map(|recs| &mut recs[b]);
        let mut view = self.be.lane(b);
        f(&mut self.lanes[b].on(&mut view, rec))
    }

    fn span_begin(&self) -> Span {
        Span::open::<R>(self.be.gpu().elapsed())
    }

    /// Close a span fair-share across the lanes that participated: each is
    /// charged `dt / participants`, so members that idled this round accrue
    /// nothing.
    fn share_close(&mut self, participants: &[usize], kind: StepKind, step: Step, span: Span) {
        if participants.is_empty() {
            return;
        }
        let t1 = self.be.gpu().elapsed();
        let n = participants.len() as f64;
        let share = SimTime::from_ns((t1 - span.t0).as_nanos() / n);
        let wall_share = span.wall() / n;
        let end = SimTime::from_ns(span.t0.as_nanos() + share.as_nanos());
        for &b in participants {
            let lane = &mut self.lanes[b];
            lane.stats.charge(step, share);
            if R::ENABLED {
                let (iteration, tag) = (lane.stats.iterations, lane.phase_tag);
                if let Some(recs) = self.recs.as_deref_mut() {
                    recs[b].span(kind, span.t0, end, wall_share, iteration, tag);
                }
            }
        }
    }

    /// Act on lane `b`'s verdict: keep it pricing, or record its terminal
    /// result — a numerical collapse fails the lane alone, its siblings
    /// keep running. A device error belongs to the family, not the lane: it
    /// propagates (and evacuates the live lanes).
    fn settle(&mut self, b: usize, next: Result<Next, SolveError>) -> Result<(), SolveError> {
        let wall = self.wall;
        let outcome = match next {
            Ok(Next::Reprice) => return Ok(()),
            Ok(Next::Done(status)) => self.with_lane(b, |l| l.finish(status, wall)),
            Err(e) => Err(e),
        };
        match outcome {
            Err(e @ SolveError::Device(_)) => Err(e),
            r => {
                self.outcomes[b] = Some(r);
                Ok(())
            }
        }
    }

    /// A host transition for lane `b` panicked: poison that lane alone and
    /// keep its siblings in the block (the stream path gets the same
    /// containment from the worker-pool `catch_unwind`).
    fn poison(&mut self, b: usize, payload: &(dyn std::any::Any + Send)) {
        self.outcomes[b] = Some(Err(SolveError::Panicked(super::panic_message(payload))));
    }

    /// Per-lane start: warm install (or its cold fallback) and the first
    /// phase's objective. A panic inside one lane's start poisons that lane
    /// alone; device errors still abort the family (start precedes any
    /// pivots, so there is no completed work to salvage — the caller
    /// evacuates whatever lanes did get set up).
    fn init(&mut self, warm: Vec<Option<Vec<usize>>>) -> Result<(), SolveError> {
        for (b, seed) in warm.into_iter().enumerate() {
            let started = catch_unwind(AssertUnwindSafe(|| self.with_lane(b, |l| l.start(seed))));
            match started {
                Ok(r) => r?,
                Err(payload) => self.poison(b, payload.as_ref()),
            }
        }
        Ok(())
    }

    /// Stage-1 transition for one live lane: iteration limit, then the
    /// periodic reinversion boundary. Returns the lane's control word for
    /// this round (0: it does not price).
    fn admit(&mut self, b: usize) -> Result<u32, SolveError> {
        let lane = &mut self.lanes[b];
        let status = if lane.at_iteration_limit() {
            Status::IterationLimit
        } else if lane.boundary_due() && !self.with_lane(b, |l| l.periodic_boundary())? {
            Status::SingularBasis
        } else {
            let bland = self.lanes[b].bland_mode;
            return Ok(CTL_ACTIVE | if bland { CTL_BLAND } else { 0 });
        };
        self.settle(b, Ok(Next::Done(status)))?;
        Ok(0)
    }

    /// Stage-3 transition for one lane off its pricing result. `Ok(true)`:
    /// the lane pivots this round.
    fn transition(&mut self, b: usize, q: u32, dq: T) -> Result<bool, SolveError> {
        let next = if q == u32::MAX {
            self.with_lane(b, |l| l.converged())
        } else if !dq.is_finite() {
            self.with_lane(b, |l| l.recover_or_fail(format!("reduced cost d[{q}]")))
        } else {
            return Ok(true);
        };
        self.settle(b, next)?;
        Ok(false)
    }

    /// The lockstep round loop.
    fn run(&mut self) -> Result<(), SolveError> {
        let opt_tol = self.opts.opt_tol_for::<T>();
        let pivot_tol = self.opts.pivot_tol_for::<T>();
        let width = self.lanes.len();

        while self.outcomes.iter().any(Option::is_none) {
            // ---- stage 1: limits, reinversion cadence, convergence mask --
            // Each lane's transitions run under `catch_unwind`: a panic in
            // one lane's host bookkeeping poisons that lane alone.
            let mut ctl = vec![0u32; width];
            for b in 0..width {
                if self.outcomes[b].is_some() {
                    continue;
                }
                match catch_unwind(AssertUnwindSafe(|| self.admit(b))) {
                    Ok(word) => ctl[b] = word?,
                    Err(payload) => self.poison(b, payload.as_ref()),
                }
            }
            let active: Vec<usize> = (0..width).filter(|&b| ctl[b] & CTL_ACTIVE != 0).collect();
            self.be
                .gpu()
                .record_batch_round(active.len() as u64, (width - active.len()) as u64);
            if active.is_empty() {
                continue;
            }

            // ---- stage 2: fused pricing chain over every active lane -----
            let span = self.span_begin();
            self.be.upload_ctl(&ctl)?;
            let (q, dq) = self.be.mega_price(active.len() as u64, opt_tol)?;
            self.share_close(&active, StepKind::Pricing, Step::Pricing, span);

            // ---- stage 3: per-lane verdicts off the pricing result -------
            let mut mask = vec![0u32; width];
            for &b in &active {
                match catch_unwind(AssertUnwindSafe(|| self.transition(b, q[b], dq[b]))) {
                    Ok(pivots) => mask[b] = pivots? as u32,
                    Err(payload) => self.poison(b, payload.as_ref()),
                }
            }
            let pivoting: Vec<usize> = (0..width).filter(|&b| mask[b] != 0).collect();
            if pivoting.is_empty() {
                continue;
            }

            // ---- stage 4: FTRAN + ratio test for the pivoting lanes ------
            let span = self.span_begin();
            self.be.upload_mask(&mask)?;
            self.be.mega_ftran(pivoting.len() as u64)?;
            self.share_close(&pivoting, StepKind::Ftran, Step::Ftran, span);

            let span = self.span_begin();
            let (mut p, mut theta) = self.be.mega_ratio(pivoting.len() as u64, pivot_tol)?;
            self.share_close(&pivoting, StepKind::RatioTest, Step::RatioTest, span);

            let mut upd = mask.clone();
            for &b in &pivoting {
                if p[b] == u32::MAX && self.lanes[b].spend_retest() {
                    match self.with_lane(b, |l| l.retest(q[b] as usize))? {
                        None => {
                            self.settle(b, Ok(Next::Done(Status::SingularBasis)))?;
                            upd[b] = 0;
                            continue;
                        }
                        // The lane's device-side α is fresh, so the fused
                        // update below recomputes the same pivot.
                        Some(RatioOutcome::Pivot { p: pv, theta: th }) => {
                            p[b] = pv as u32;
                            theta[b] = th;
                        }
                        Some(RatioOutcome::Unbounded) => {}
                    }
                }
                let next = if p[b] == u32::MAX {
                    self.with_lane(b, |l| l.unbounded())
                } else if !theta[b].is_finite() {
                    self.with_lane(b, |l| l.recover_or_fail("step length"))
                } else {
                    continue;
                };
                self.settle(b, next)?;
                upd[b] = 0;
            }
            let updating: Vec<usize> = (0..width).filter(|&b| upd[b] != 0).collect();
            if updating.is_empty() {
                continue;
            }

            // ---- stage 5: fused pivot + bookkeeping chain ----------------
            let span = self.span_begin();
            self.be.upload_mask(&upd)?;
            self.be.mega_update(updating.len() as u64, &upd, &q, &p)?;
            self.share_close(&updating, StepKind::UpdateBasis, Step::Update, span);

            for &b in &updating {
                let used_bland = ctl[b] & CTL_BLAND != 0;
                let (qb, pb, th) = (q[b] as usize, p[b] as usize, theta[b]);
                self.with_lane(b, |l| l.after_pivot(qb, pb, th, used_bland))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::try_solve_standard;
    use crate::solver::BackendKind;
    use crate::trace::NoopRecorder;
    use gpu_sim::DeviceSpec;
    use lp::generator;

    /// Satellite regression (per-round containment): a host-transition
    /// panic in one lane mid-round — here a corrupted basis that makes the
    /// periodic refactorize index far out of bounds — poisons that lane
    /// alone. The siblings keep their lockstep rounds, drain to optimality
    /// bitwise-equal to solo, and the family run itself returns cleanly.
    #[test]
    fn panicking_lane_poisons_only_itself_mid_round() {
        let jobs: Vec<_> = (0..4)
            .map(|s| generator::dense_random(8, 12, s + 60))
            .collect();
        let sfs: Vec<StandardForm<f64>> = jobs
            .iter()
            .map(|j| StandardForm::from_lp(j).expect("standardizes"))
            .collect();
        let refs: Vec<&StandardForm<f64>> = sfs.iter().collect();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            refactor_period: 2,
            ..Default::default()
        };
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let slots: Vec<CheckpointSlot> = refs.iter().map(|_| CheckpointSlot::new()).collect();
        let mut driver = MegaDriver::<f64, NoopRecorder>::new(&gpu, &refs, &opts, &slots, None)
            .expect("fault-free construction");
        driver.init(vec![None; 4]).expect("init succeeds");
        // Corrupt lane 1's host basis mirror: the next periodic refactorize
        // (iters_here = 2) indexes column 10_000 of an 8-row matrix and
        // panics inside the stage-1 `catch_unwind`.
        driver.lanes[1].xb[0] = 10_000;
        driver
            .run()
            .expect("a lane panic must not fail the family run");
        for (b, outcome) in driver.outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("every lane terminates");
            if b == 1 {
                assert!(
                    matches!(outcome, Err(SolveError::Panicked(_))),
                    "lane 1 must be poisoned by its own panic"
                );
            } else {
                let r = outcome.as_ref().expect("sibling lane solved");
                let solo = try_solve_standard::<f64, _>(
                    &sfs[b],
                    &opts,
                    &BackendKind::CpuDense,
                    None,
                    None,
                    &mut NoopRecorder,
                )
                .unwrap();
                assert_eq!(r.status, solo.status, "lane {b} status");
                assert_eq!(
                    r.z_std.to_bits(),
                    solo.z_std.to_bits(),
                    "lane {b} objective bits"
                );
                assert_eq!(
                    r.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
                    "lane {b} fingerprint"
                );
            }
        }
    }
}
