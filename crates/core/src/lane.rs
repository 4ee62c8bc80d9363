//! One revised simplex lane: the host-side decision procedure of a single
//! solve, shared by the solo driver ([`crate::RevisedSimplex`]) and the
//! lockstep mega-batch driver ([`crate::batch::mega`]).
//!
//! A [`SimplexLane`] owns what a solve decides on the host — the basis
//! mirror, statistics, phase, recovery budget, anti-cycling state (stall
//! streak, Bland escalation, cost perturbation, bound shift) and checkpoint
//! cadence. Bound to a backend and a recorder ([`SimplexLane::on`]), it runs
//! every transition between pivots: warm or cold start, objective installs,
//! the periodic reinversion boundary, emergency recovery, convergence
//! (phase-1 feasibility, artificial drive-out, phase-2 entry), the
//! post-pivot bookkeeping and the terminal result. The solo driver binds
//! the solve's own backend, the lockstep driver one [`crate::LaneView`] of
//! the family backend. The drivers keep only their hot paths (pricing,
//! FTRAN, ratio test, update) and ask the lane for every decision, so the
//! two make the same decisions by construction.
//!
//! Every transition's device work is bracketed in a [`Span`] on the
//! backend's clock, charged to the lane's [`SolveStats`] and reported to the
//! recorder when one is live.

use std::fmt::Display;
use std::time::Instant;

use gpu_sim::SimTime;
use linalg::Scalar;
use lp::StandardForm;

use crate::backend::{Backend, RatioOutcome};
use crate::checkpoint::{CheckpointSlot, SolveCheckpoint};
use crate::error::{BackendError, SolveError};
use crate::options::{BasisRepresentation, DegeneracyPolicy, PivotRule, SolverOptions};
use crate::result::{Status, StdResult};
use crate::stats::{SolveStats, Step};
use crate::trace::{Recorder, StepKind};

/// Consecutive emergency reinversions tolerated before a phase gives up
/// and reports numerical failure.
const MAX_CONSECUTIVE_RECOVERIES: usize = 3;

/// Deterministic per-column jitter in `[0.5, 1.5)` for the cost
/// perturbation (FNV-1a over the column index). Pure function of `j`, so
/// the perturbed walk — and its deterministic reset — replays identically
/// across runs and backends.
fn column_jitter(j: usize) -> f64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in (j as u64).to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Host-side primal feasibility probe for a warm-start candidate: solve
/// `B x_B = b` in f64 and require every component ≥ `-tol`. A singular or
/// non-finite solve counts as infeasible.
///
/// This cannot use the backend's post-`refactorize` β: refactorization
/// exists to purge accumulated error mid-solve, so every backend clamps β at
/// zero on that path — which would make a genuinely infeasible basis
/// (negative true β) look feasible and let phase 2 "converge" at an
/// infeasible point.
fn warm_basis_feasible<T: Scalar>(sf: &StandardForm<T>, basis: &[usize], tol: f64) -> bool {
    let m = sf.num_rows();
    if m == 0 {
        return true;
    }
    let mut bmat = linalg::DenseMatrix::<f64>::zeros(m, m);
    for (col, &j) in basis.iter().enumerate() {
        for i in 0..m {
            bmat.set(i, col, sf.a.get(i, j).to_f64());
        }
    }
    let rhs: Vec<f64> = sf.b.iter().map(|v| v.to_f64()).collect();
    match linalg::blas::lu_solve(&bmat, &rhs) {
        Some(xb) => xb.iter().all(|v| v.is_finite() && *v >= -tol),
        None => false,
    }
}

/// `refactorize` with singularity as a value: `Ok(false)` when `basis` is
/// singular; device failures propagate.
fn refactor<T: Scalar, B: Backend<T>>(be: &mut B, basis: &[usize]) -> Result<bool, SolveError> {
    match be.refactorize(basis) {
        Ok(()) => Ok(true),
        Err(BackendError::Singular) => Ok(false),
        Err(e @ BackendError::Device(_)) => Err(e.into()),
    }
}

/// Which phase a lane is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    One = 0,
    Two = 1,
}

impl Phase {
    /// Index into [`SolveStats::phase`].
    fn index(self) -> usize {
        self as usize
    }

    /// Trace and checkpoint tag: 1 or 2 (0 is reserved for setup).
    fn tag(self) -> u8 {
        self.index() as u8 + 1
    }
}

/// What the driver does after a lane transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Next {
    /// Price again: the iterate was repaired, the exact objective was
    /// restored, or phase 2 just began.
    Reprice,
    /// The solve ends with this status; the driver calls
    /// [`BoundLane::finish`].
    Done(Status),
}

/// An open span: the simulated clock at entry, plus the host clock when a
/// live recorder wants wall time (`None` under [`crate::NoopRecorder`], so
/// the default path never reads the host clock).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) t0: SimTime,
    w0: Option<Instant>,
}

impl Span {
    #[inline]
    pub(crate) fn open<R: Recorder>(t0: SimTime) -> Self {
        Span {
            t0,
            w0: R::ENABLED.then(Instant::now),
        }
    }

    /// Host seconds since the span opened (0 when the clock was not read).
    #[inline]
    pub(crate) fn wall(&self) -> f64 {
        self.w0.map_or(0.0, |w| w.elapsed().as_secs_f64())
    }
}

/// The host state of one revised simplex solve.
pub(crate) struct SimplexLane<'a, T: Scalar> {
    sf: &'a StandardForm<T>,
    opts: &'a SolverOptions,
    /// Caller-owned checkpoint mailbox; `None` disables checkpointing.
    pub(crate) slot: Option<&'a CheckpointSlot>,
    /// Pricing-eligible (non-artificial) columns.
    n_active: usize,
    max_iters: usize,
    /// Basic column of each row.
    pub(crate) xb: Vec<usize>,
    pub(crate) stats: SolveStats,
    phase: Phase,
    /// Phase tag for trace events: 0 = setup, 1/2 = simplex phases.
    pub(crate) phase_tag: u8,
    /// Iterations in the current phase (drives the reinversion cadence).
    iters_here: usize,
    recoveries_left: usize,
    pub(crate) bland_mode: bool,
    /// Consecutive degenerate steps.
    pub(crate) stall: usize,
    /// A degeneracy cost perturbation is currently installed.
    perturbed: bool,
    /// An EXPAND-style ratio-test bound shift is currently installed.
    shifted: bool,
    /// A bound shift has already been tried since the last genuine
    /// (unshifted, nondegenerate) progress; the next stall escalates to
    /// Bland instead of shifting again.
    shift_spent: bool,
    /// Rotating start column for partial pricing.
    pub(crate) price_cursor: usize,
    /// Solve-wide iteration count at the most recent stored checkpoint.
    last_ckpt_iter: usize,
    /// The lane was just resumed at a reinversion boundary: the next
    /// boundary check skips the reinversion the resume already performed.
    just_resumed: bool,
}

impl<'a, T: Scalar> SimplexLane<'a, T> {
    /// A lane at the cold start (`sf.basis0`), not yet in a phase.
    pub(crate) fn new(
        sf: &'a StandardForm<T>,
        opts: &'a SolverOptions,
        slot: Option<&'a CheckpointSlot>,
    ) -> Self {
        SimplexLane {
            sf,
            opts,
            slot,
            n_active: sf.num_cols() - sf.num_artificials,
            max_iters: opts.max_iters_for(sf.num_rows(), sf.num_cols()),
            xb: sf.basis0.clone(),
            stats: SolveStats::default(),
            phase: Phase::Two,
            phase_tag: 0,
            iters_here: 0,
            recoveries_left: MAX_CONSECUTIVE_RECOVERIES,
            bland_mode: matches!(opts.pivot_rule, PivotRule::Bland),
            stall: 0,
            perturbed: false,
            shifted: false,
            shift_spent: false,
            price_cursor: 0,
            last_ckpt_iter: 0,
            just_resumed: false,
        }
    }

    /// Bind the lane to the backend and recorder its next transitions run
    /// through.
    pub(crate) fn on<'l, B: Backend<T>, R: Recorder>(
        &'l mut self,
        be: &'l mut B,
        rec: Option<&'l mut R>,
    ) -> BoundLane<'l, 'a, T, B, R> {
        BoundLane {
            lane: self,
            be,
            rec,
        }
    }

    /// The phase has used its iteration budget.
    pub(crate) fn at_iteration_limit(&self) -> bool {
        self.iters_here >= self.max_iters
    }

    /// Whether the periodic reinversion is due before this iteration's
    /// pricing. A resume re-enters exactly at a boundary whose reinversion
    /// the resume install already performed (and the snapshot counted), so
    /// the first check after a resume says no.
    pub(crate) fn boundary_due(&mut self) -> bool {
        let resumed = std::mem::take(&mut self.just_resumed);
        !resumed
            && self.opts.refactor_period > 0
            && self.iters_here > 0
            && self.iters_here.is_multiple_of(self.opts.refactor_period)
    }

    /// Whether an unbounded ratio test earns a paranoid retest
    /// ([`BoundLane::retest`]): only under fault injection, and only while
    /// the recovery budget lasts — the retest spends one recovery.
    pub(crate) fn spend_retest(&mut self) -> bool {
        if self.opts.faults.is_none() || self.recoveries_left == 0 {
            return false;
        }
        self.recoveries_left -= 1;
        true
    }

    /// Basic cost of an entering column under the exact phase objective
    /// (phase 1 never enters an artificial, so it prices entering columns
    /// at zero).
    pub(crate) fn entering_cost(&self, q: usize) -> T {
        if self.phase == Phase::Two && q < self.n_active {
            self.sf.c[q]
        } else {
            T::ZERO
        }
    }

    fn has_fallback(&self) -> bool {
        matches!(
            self.opts.pivot_rule,
            PivotRule::Hybrid | PivotRule::PartialDantzig { .. }
        )
    }
}

/// A [`SimplexLane`] bound to the backend (and recorder) its transitions
/// run through. Built per transition; the state lives on in the lane.
pub(crate) struct BoundLane<'l, 'a, T: Scalar, B, R> {
    lane: &'l mut SimplexLane<'a, T>,
    be: &'l mut B,
    rec: Option<&'l mut R>,
}

impl<T: Scalar, B: Backend<T>, R: Recorder> BoundLane<'_, '_, T, B, R> {
    #[inline]
    pub(crate) fn open(&self) -> Span {
        Span::open::<R>(self.be.clock())
    }

    /// Close a span: charge the legacy [`Step`] accounting (always) and
    /// report the span to the recorder (compiled out when it is disabled).
    #[inline]
    pub(crate) fn close(&mut self, kind: StepKind, step: Step, span: Span) {
        let t1 = self.be.clock();
        let lane = &mut *self.lane;
        lane.stats.charge(step, t1 - span.t0);
        if R::ENABLED {
            let (iteration, tag) = (lane.stats.iterations, lane.phase_tag);
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.span(kind, span.t0, t1, span.wall(), iteration, tag);
            }
        }
    }

    /// Start the solve: try the warm basis when one is offered, then enter
    /// phase 1 — or phase 2 directly when the warm install succeeded or the
    /// form has no artificials.
    pub(crate) fn start(&mut self, warm: Option<Vec<usize>>) -> Result<(), SolveError> {
        let warm_ok = match warm {
            Some(basis) => self.warm_start(basis)?,
            None => false,
        };
        if warm_ok && self.lane.opts.checkpoint_interval > 0 {
            // An accepted warm install is itself a valid resume point
            // (phase 2, zero in-phase iterations): snapshot it so a fault
            // before the first reinversion still resumes warm.
            self.store_checkpoint(2, 0);
        }
        if warm_ok || self.lane.sf.num_artificials == 0 {
            self.enter_phase(Phase::Two)
        } else {
            self.enter_phase(Phase::One)
        }
    }

    /// Validate, probe and install a warm basis. Every supplied basis counts
    /// as an attempt; a malformed one (wrong length, or naming an
    /// artificial/out-of-range column) is rejected before it reaches the
    /// backend. On a *numerical* failure the backend is restored to the
    /// cold start (a warm start is an optimization, never a correctness
    /// risk); a device failure propagates.
    fn warm_start(&mut self, basis: Vec<usize>) -> Result<bool, SolveError> {
        let (sf, n_active) = (self.lane.sf, self.lane.n_active);
        self.lane.stats.warm_start_attempted = 1;
        if basis.len() != sf.num_rows() || basis.iter().any(|&j| j >= n_active) {
            self.lane.stats.warm_start_rejected = 1;
            return Ok(false);
        }
        let span = self.open();
        let feas_tol = self.lane.opts.feas_tol_for::<T>().to_f64();
        let ok = warm_basis_feasible(sf, &basis, feas_tol) && self.install_basis(&basis)?;
        if !ok {
            let cold = self.install_basis(&sf.basis0)?;
            assert!(cold, "identity start basis is never singular");
            self.lane.stats.warm_start_rejected = 1;
        }
        // One span covers the attempt *and* the fallback restore, so the
        // rejected path's device work lands on the ledger exactly once.
        self.close(StepKind::WarmStart, Step::Other, span);
        Ok(ok)
    }

    /// Refactorize onto `basis` and adopt it; `Ok(false)` (nothing adopted)
    /// when it is singular.
    fn install_basis(&mut self, basis: &[usize]) -> Result<bool, SolveError> {
        if !refactor(self.be, basis)? {
            return Ok(false);
        }
        for (r, &j) in basis.iter().enumerate() {
            self.be.set_basic_col(r, j)?;
        }
        self.lane.xb = basis.to_vec();
        Ok(true)
    }

    /// Resume from a checkpoint instead of a cold or warm start: the basis
    /// is reinstalled through the same host reinversion a periodic
    /// refactorize uses (so `B⁻¹` and the clamped β come out bitwise-equal
    /// to the snapshot point), the phase objective is reinstalled exactly as
    /// the live path did, and the pricing/anti-cycling state and statistics
    /// are restored. The reinversion is *not* counted in
    /// `stats.refactorizations` — the snapshot already counted the boundary
    /// reinversion this one mirrors.
    pub(crate) fn resume(&mut self, cp: SolveCheckpoint) -> Result<(), SolveError> {
        // Restore the stats first so the install's device work is charged
        // to the resumed ledger rather than thrown away.
        self.lane.stats = cp.stats;
        self.lane.stats.checkpoint_resumes += 1;
        // Resume on the snapshotting run's representation (it may differ
        // from this solve's options, e.g. evacuating to another backend).
        // The chain is empty at a boundary, so the install is legal here.
        debug_assert_eq!(cp.eta_len, 0, "snapshot taken off a boundary");
        self.be.set_representation(cp.representation);
        let span = self.open();
        if !self.install_basis(&cp.basis)? {
            return Err(SolveError::Numerical(
                "checkpoint basis is singular on resume".into(),
            ));
        }
        self.close(StepKind::WarmStart, Step::Other, span);
        self.enter_phase(if cp.phase == 1 {
            Phase::One
        } else {
            Phase::Two
        })?;
        let lane = &mut *self.lane;
        lane.bland_mode = cp.bland_mode;
        lane.stall = cp.stall;
        lane.price_cursor = cp.price_cursor;
        lane.iters_here = cp.iters_here;
        lane.just_resumed = true;
        lane.last_ckpt_iter = lane.stats.iterations;
        Ok(())
    }

    /// Enter `phase`: install its exact objective and restart the in-phase
    /// iteration count (the reinversion cadence) and the recovery budget.
    ///
    /// The stall counter and any Bland escalation deliberately *carry
    /// across* the phase boundary: a degenerate phase-1 endgame is exactly
    /// the state in which phase 2 would otherwise resume cycling, and the
    /// post-pivot de-escalation already returns to the fast rule on the
    /// first non-degenerate step.
    pub(crate) fn enter_phase(&mut self, phase: Phase) -> Result<(), SolveError> {
        self.lane.phase = phase;
        self.install_objective()?;
        let lane = &mut *self.lane;
        lane.phase_tag = phase.tag();
        lane.iters_here = 0;
        lane.recoveries_left = MAX_CONSECUTIVE_RECOVERIES;
        Ok(())
    }

    /// Install the current phase's exact objective: phase 1 minimizes the
    /// sum of artificials, phase 2 the model's costs. Unlike
    /// [`BoundLane::enter_phase`] this leaves the reinversion cadence
    /// alone — the perturbation reset calls it mid-phase.
    fn install_objective(&mut self) -> Result<(), SolveError> {
        let span = self.open();
        let sf = self.lane.sf;
        match self.lane.phase {
            Phase::One => self.install_costs(&vec![T::ZERO; self.lane.n_active])?,
            Phase::Two => self.install_costs(&sf.c)?,
        }
        self.close(StepKind::Transfer, Step::Other, span);
        Ok(())
    }

    /// Install `costs` over the active columns and the matching basic
    /// costs; a basic artificial costs 1 under the phase-1 objective and 0
    /// under phase 2.
    fn install_costs(&mut self, costs: &[T]) -> Result<(), SolveError> {
        self.be.set_phase_costs(costs)?;
        for (r, &col) in self.lane.xb.iter().enumerate() {
            let cost = if col < self.lane.n_active {
                costs[col]
            } else if self.lane.phase == Phase::One {
                T::ONE
            } else {
                T::ZERO
            };
            self.be.set_basic_cost(r, cost)?;
        }
        Ok(())
    }

    /// Install the bounded, deterministic cost perturbation: each active
    /// column's phase cost gets `+ scale · jitter(j)` with jitter in
    /// `[0.5, 1.5)`. The shifted reduced costs reorder Dantzig selection,
    /// which is what breaks a degenerate cycle; the exact objective is
    /// restored at the next reinversion boundary (and always before
    /// optimality is declared), so the terminal certificate is exact.
    fn apply_perturbation(&mut self, scale: f64) -> Result<(), SolveError> {
        let span = self.open();
        let pert: Vec<T> = (0..self.lane.n_active)
            .map(|j| {
                let base = match self.lane.phase {
                    Phase::One => T::ZERO,
                    Phase::Two => self.lane.sf.c[j],
                };
                base + T::from_f64(scale * column_jitter(j))
            })
            .collect();
        self.install_costs(&pert)?;
        self.lane.perturbed = true;
        self.lane.stats.perturbations += 1;
        self.close(StepKind::Transfer, Step::Other, span);
        Ok(())
    }

    /// Remove the perturbation by reinstalling the exact phase objective.
    /// `Ok(false)`: none was active.
    fn clear_perturbation(&mut self) -> Result<bool, SolveError> {
        if !self.lane.perturbed {
            return Ok(false);
        }
        self.lane.perturbed = false;
        self.install_objective()?;
        Ok(true)
    }

    /// Install the EXPAND-style ratio-test shift: the backend minimizes
    /// `(β_i + δ)/α_i` until the shift is withdrawn, so every pivot takes a
    /// strictly positive step. Backends without support keep their no-op
    /// default and the stall simply persists into the Bland escalation.
    fn apply_bound_shift(&mut self, delta: f64) {
        self.be.set_ratio_shift(delta.abs().max(1e-12));
        self.lane.shifted = true;
        self.lane.shift_spent = true;
        self.lane.stats.bound_shifts += 1;
    }

    /// Withdraw the ratio-test shift. `false`: none was active.
    fn clear_bound_shift(&mut self) -> bool {
        let was = std::mem::take(&mut self.lane.shifted);
        if was {
            self.be.set_ratio_shift(0.0);
        }
        was
    }

    /// The periodic reinversion boundary: refactorize, restore the exact
    /// objective and ratio test, then checkpoint if the cadence says so.
    /// `Ok(false)`: the basis is singular.
    pub(crate) fn periodic_boundary(&mut self) -> Result<bool, SolveError> {
        if !self.reinvert()? {
            return Ok(false);
        }
        // Deterministic perturbation reset: exact costs come back at every
        // reinversion boundary, so a snapshot never captures a perturbed
        // objective.
        self.clear_perturbation()?;
        // Bound-shift reset: the β = max(B⁻¹b, 0) clamp inside the
        // reinversion just purged whatever bounded infeasibility the
        // shifted steps accumulated, so the shift never outlives a boundary
        // either.
        self.clear_bound_shift();
        // `B⁻¹` is now a pure function of the basis — the one state a
        // snapshot can resume bitwise. Pure observation: the checkpoint
        // cadence never forces an extra reinversion.
        self.maybe_checkpoint();
        Ok(true)
    }

    /// Refactorize onto the current basis. `Ok(false)`: it is singular.
    fn reinvert(&mut self) -> Result<bool, SolveError> {
        let span = self.open();
        if !refactor(self.be, &self.lane.xb)? {
            return Ok(false);
        }
        self.lane.stats.refactorizations += 1;
        self.harvest_lu_stats();
        self.close(StepKind::Refactorize, Step::Refactor, span);
        Ok(true)
    }

    /// Emergency reinversion after detected corruption. `Ok(true)`: the
    /// basis was rebuilt and the iterate is clean again; `Ok(false)`: the
    /// basis is singular.
    pub(crate) fn recover(&mut self) -> Result<bool, SolveError> {
        if !self.reinvert()? {
            return Ok(false);
        }
        self.lane.stats.nan_recoveries += 1;
        // The stall streak was measured against the corrupted iterate; the
        // rebuilt basis starts a fresh streak, so stale evidence cannot
        // escalate the repaired walk to Bland.
        self.lane.stall = 0;
        Ok(true)
    }

    /// A non-finite iterate (`what`: a reduced cost or a step length):
    /// spend one emergency reinversion, or fail once the phase's budget of
    /// consecutive recoveries is gone.
    pub(crate) fn recover_or_fail(&mut self, what: impl Display) -> Result<Next, SolveError> {
        if self.lane.recoveries_left == 0 {
            return Err(SolveError::Numerical(format!(
                "{what} stayed non-finite after \
                 {MAX_CONSECUTIVE_RECOVERIES} emergency reinversions"
            )));
        }
        self.lane.recoveries_left -= 1;
        Ok(if self.recover()? {
            Next::Reprice
        } else {
            Next::Done(Status::SingularBasis)
        })
    }

    /// Paranoid retest of an unbounded ratio test for entering column `q`
    /// (gated by [`SimplexLane::spend_retest`]): a corrupted α (poisoned to
    /// NaN) makes every ratio non-finite and masquerades as unboundedness,
    /// so rebuild the basis and rerun FTRAN and the ratio test before
    /// believing it. `None`: the basis is singular.
    pub(crate) fn retest(&mut self, q: usize) -> Result<Option<RatioOutcome<T>>, SolveError> {
        if !self.recover()? {
            return Ok(None);
        }
        let span = self.open();
        self.be.compute_alpha(q)?;
        self.close(StepKind::Ftran, Step::Ftran, span);
        let span = self.open();
        let outcome = self.be.ratio_test(self.lane.opts.pivot_tol_for::<T>())?;
        self.close(StepKind::RatioTest, Step::RatioTest, span);
        Ok(Some(outcome))
    }

    /// Copy the backend's sparse-LU counters (peak fill-in, peak factor
    /// size, cumulative threshold rejections) into the solve stats. No-op
    /// for backends/representations without an LU engine.
    fn harvest_lu_stats(&mut self) {
        if let Some(r) = self.be.lu_stats() {
            let stats = &mut self.lane.stats;
            stats.lu_fill_in = r.fill_in;
            stats.lu_refactor_nnz = r.refactor_nnz;
            stats.markowitz_rejections = r.markowitz_rejections;
        }
    }

    /// Store a snapshot into the slot. Callers guarantee the backend sits
    /// at a refactorization boundary (`B⁻¹` is a pure function of `xb`),
    /// the precondition for a bitwise resume. The snapshot's own count is
    /// folded in *before* cloning the stats so a resumed run's final
    /// counters match the uninterrupted run's.
    fn store_checkpoint(&mut self, phase: u8, iters_here: usize) {
        let Some(slot) = self.lane.slot else { return };
        let eta_len = self.be.eta_chain_len();
        debug_assert_eq!(
            eta_len, 0,
            "checkpoints are only taken at refactorization boundaries, \
             where the eta chain has been folded into B₀⁻¹"
        );
        let lane = &mut *self.lane;
        lane.stats.checkpoints_taken += 1;
        slot.store(SolveCheckpoint {
            basis: lane.xb.clone(),
            phase,
            iters_here,
            stats: lane.stats.clone(),
            bland_mode: lane.bland_mode,
            stall: lane.stall,
            price_cursor: lane.price_cursor,
            representation: self.be.representation(),
            eta_len,
        });
        lane.last_ckpt_iter = lane.stats.iterations;
    }

    /// Snapshot at a reinversion boundary when at least
    /// `checkpoint_interval` iterations have passed since the previous
    /// snapshot (0 disables).
    fn maybe_checkpoint(&mut self) {
        let lane = &self.lane;
        let interval = lane.opts.checkpoint_interval;
        if interval > 0 && lane.stats.iterations - lane.last_ckpt_iter >= interval {
            self.store_checkpoint(lane.phase.tag(), lane.iters_here);
        }
    }

    /// Pricing found no entering column. Under a perturbation or a bound
    /// shift that is not yet a certificate: restore the exact problem and
    /// price again. Otherwise phase 1 checks feasibility, drives degenerate
    /// artificials out and enters phase 2; phase 2 is optimal unless an
    /// artificial survived with non-trivial value.
    pub(crate) fn converged(&mut self) -> Result<Next, SolveError> {
        // "Optimal" against perturbed costs is not a certificate.
        if self.clear_perturbation()? {
            return Ok(Next::Reprice);
        }
        // The pricing certificate is exact under a bound shift (shifts only
        // touch the ratio test), but β may carry the bounded infeasibility
        // the shifted steps accumulated. Withdraw the shift, purge β through
        // a reinversion's clamp, and re-verify before certifying.
        if self.clear_bound_shift() {
            return Ok(if self.reinvert()? {
                Next::Reprice
            } else {
                Next::Done(Status::SingularBasis)
            });
        }
        let (sf, feas_tol) = (self.lane.sf, self.lane.opts.feas_tol_for::<T>());
        match self.lane.phase {
            Phase::One => {
                let span = self.open();
                let z1 = self.be.objective_now()?;
                self.close(StepKind::Transfer, Step::Other, span);
                if z1 > feas_tol {
                    return Ok(Next::Done(Status::Infeasible));
                }
                // Best-effort removal of degenerate artificials from the
                // basis; any that remain sit at value ~0 with phase-2 cost 0
                // (their rows are linearly dependent) and stay there.
                self.drive_out_artificials()?;
                self.enter_phase(Phase::Two)?;
                Ok(Next::Reprice)
            }
            Phase::Two if sf.num_artificials == 0 => Ok(Next::Done(Status::Optimal)),
            Phase::Two => {
                // Guard: if artificials survived phase 2 with non-trivial
                // value, the "redundant row" assumption failed — report
                // infeasible rather than a wrong optimum.
                let span = self.open();
                let beta = self.be.beta()?;
                self.close(StepKind::Transfer, Step::Other, span);
                let xb = &self.lane.xb;
                let survivor = (0..xb.len()).any(|r| sf.is_artificial(xb[r]) && beta[r] > feas_tol);
                Ok(Next::Done(if survivor {
                    Status::Infeasible
                } else {
                    Status::Optimal
                }))
            }
        }
    }

    /// The ratio test found no leaving row. Under a perturbation or a
    /// bound shift, certify the ray against the exact problem first. In
    /// phase 1 the objective is bounded below, so a ray means the numerics
    /// collapsed.
    pub(crate) fn unbounded(&mut self) -> Result<Next, SolveError> {
        if self.clear_perturbation()? || self.clear_bound_shift() {
            return Ok(Next::Reprice);
        }
        Ok(Next::Done(match self.lane.phase {
            Phase::One => Status::SingularBasis,
            Phase::Two => Status::Unbounded,
        }))
    }

    /// Degenerate phase-1 cleanup: for each basic artificial, try to swap in
    /// a nonbasic structural column with a nonzero entry in that row.
    fn drive_out_artificials(&mut self) -> Result<(), SolveError> {
        let pivot_tol = self.lane.opts.pivot_tol_for::<T>();
        let span = self.open();
        let (sf, n, xb) = (self.lane.sf, self.lane.n_active, &mut self.lane.xb);
        let rows: Vec<usize> = (0..xb.len()).filter(|&r| sf.is_artificial(xb[r])).collect();
        for r in rows {
            let mut basic = vec![false; n];
            for &col in xb.iter().filter(|&&col| col < n) {
                basic[col] = true;
            }
            for q in (0..n).filter(|&q| !basic[q]) {
                self.be.compute_alpha(q)?;
                if self.be.alpha_at(r)?.abs() > pivot_tol {
                    // Degenerate pivot: θ = 0 keeps β unchanged, the basis
                    // swap is what we're after.
                    self.be.update(r, T::ZERO)?;
                    self.be.set_basic_col(r, q)?;
                    self.be.set_basic_cost(r, T::ZERO)?;
                    xb[r] = q;
                    break;
                }
            }
        }
        self.close(StepKind::Transfer, Step::Other, span);
        Ok(())
    }

    /// Book the pivot `q` enters at row `p` with step `theta`, which the
    /// backend has already applied, then climb the degeneracy ladder.
    /// `used_bland` is the rule that priced this iteration. Each counter
    /// bumps its solve-wide total and exactly one per-phase entry, keeping
    /// the phase split disjoint by construction.
    pub(crate) fn after_pivot(
        &mut self,
        q: usize,
        p: usize,
        theta: T,
        used_bland: bool,
    ) -> Result<(), SolveError> {
        let lane = &mut *self.lane;
        let pidx = lane.phase.index();
        lane.xb[p] = q;
        lane.stats
            .record_pivot(lane.stats.iterations, pidx, q, p, theta.to_f64());
        lane.recoveries_left = MAX_CONSECUTIVE_RECOVERIES;

        if !(theta > T::ZERO) {
            lane.stats.degenerate_steps += 1;
            lane.stats.phase[pidx].degenerate_steps += 1;
            lane.stall += 1;
        } else {
            lane.stall = 0;
            if !lane.shifted {
                // Genuine (unshifted) progress re-arms the one-shot bound
                // shift; progress under a shift proves nothing — shifted
                // steps are positive by construction.
                lane.shift_spent = false;
            }
            if lane.has_fallback() {
                // Progress resumed: go back to the fast rule.
                lane.bland_mode = false;
            }
        }
        if lane.stall >= lane.opts.stall_threshold {
            let escalate = match lane.opts.degeneracy {
                // Legacy ladder: stall straight into Bland's rule.
                DegeneracyPolicy::BlandFallback => lane.has_fallback(),
                // Perturb first (cheap, keeps the fast pricing rule),
                // escalate to Bland only if the stall outlives a full
                // perturbed window.
                DegeneracyPolicy::Perturb { scale } if !lane.perturbed => {
                    self.apply_perturbation(scale)?;
                    self.lane.stall = 0;
                    false
                }
                // EXPAND ladder: shift the ratio-test bounds so every pivot
                // takes a strictly positive step off the degenerate vertex.
                // One shot per stretch — a stall that outlives (or re-trips
                // after) a shifted stretch escalates to Bland.
                DegeneracyPolicy::BoundShift { delta } if !lane.shifted && !lane.shift_spent => {
                    self.apply_bound_shift(delta);
                    self.lane.stall = 0;
                    false
                }
                _ => true,
            };
            if escalate {
                self.lane.bland_mode = true;
            }
        }

        let lane = &mut *self.lane;
        if used_bland {
            lane.stats.bland_iterations += 1;
            lane.stats.phase[pidx].bland_iterations += 1;
        }
        if matches!(
            self.be.representation(),
            BasisRepresentation::ProductForm | BasisRepresentation::SparseLU
        ) {
            lane.stats.eta_pivots += 1;
            lane.stats.max_eta_chain = lane.stats.max_eta_chain.max(self.be.eta_chain_len());
        }
        self.harvest_lu_stats();
        let lane = &mut *self.lane;
        lane.stats.iterations += 1;
        lane.stats.phase[pidx].iterations += 1;
        if lane.phase == Phase::One {
            lane.stats.phase1_iterations += 1;
        }
        if let Some(slot) = lane.slot {
            slot.note_iteration(lane.stats.iterations);
        }
        lane.iters_here += 1;
        Ok(())
    }

    /// Terminate: download β, scatter the basic solution, close the books.
    /// `wall` is when the solve (or its family) started. The lane is spent
    /// afterwards — its basis and statistics move into the result.
    pub(crate) fn finish(
        &mut self,
        status: Status,
        wall: Instant,
    ) -> Result<StdResult<T>, SolveError> {
        // The terminal β download is device work like any other: charge it,
        // so the per-step totals account for the whole solve.
        let span = self.open();
        let beta = self.be.beta()?;
        self.close(StepKind::Transfer, Step::Other, span);
        let lane = &mut *self.lane;
        let mut x_std = vec![T::ZERO; lane.sf.num_cols()];
        for (r, &col) in lane.xb.iter().enumerate() {
            x_std[col] = beta[r];
        }
        let z_std: f64 = lane
            .sf
            .c
            .iter()
            .zip(&x_std)
            .map(|(&cj, &xj)| cj.to_f64() * xj.to_f64())
            .sum();
        // Paranoid terminal validation under fault injection: a corrupted
        // iterate can slip past pricing (NaN compares false everywhere, so
        // a poisoned reduced-cost vector looks "converged"). Refuse to
        // certify such a point as a mathematical outcome.
        if lane.opts.faults.is_some()
            && matches!(status, Status::Optimal | Status::Unbounded)
            && (!z_std.is_finite() || x_std.iter().any(|x| !x.is_finite()))
        {
            return Err(SolveError::Numerical(
                "terminal solution contains non-finite values (undetected corruption)".into(),
            ));
        }
        lane.stats.wall_seconds = wall.elapsed().as_secs_f64();
        debug_assert!(
            lane.stats.check_invariants().is_ok(),
            "per-phase counters must partition the totals: {:?}",
            lane.stats.check_invariants()
        );
        Ok(StdResult {
            status,
            x_std,
            z_std,
            basis: std::mem::take(&mut lane.xb),
            stats: std::mem::take(&mut lane.stats),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backends::{BatchKernelBackend, BatchMember, CpuDenseBackend};
    use crate::trace::NoopRecorder;
    use gpu_sim::{DeviceSpec, Gpu};
    use lp::{generator, LinearProgram, Rel, Sense};

    /// Degenerate two-phase fixture: the ≥ row rules out the slack basis
    /// (forcing a phase 1 with artificials) and three rows meet at the
    /// optimum (2, 2), so the endgame pivots are degenerate.
    pub(crate) fn degenerate_lp() -> LinearProgram {
        let mut lp = LinearProgram::new("two-phase-degenerate").with_sense(Sense::Max);
        let x = lp.add_var_nonneg("x", 1.0);
        let y = lp.add_var_nonneg("y", 1.0);
        lp.add_constraint("c1", &[(x, 1.0)], Rel::Le, 2.0);
        lp.add_constraint("c2", &[(y, 1.0)], Rel::Le, 2.0);
        lp.add_constraint("c3", &[(x, 1.0), (y, 1.0)], Rel::Le, 4.0);
        lp.add_constraint("c4", &[(x, 1.0), (y, 1.0)], Rel::Ge, 1.0);
        lp
    }

    fn quiet() -> Option<&'static mut NoopRecorder> {
        None
    }

    fn cpu_backend(sf: &StandardForm<f64>) -> CpuDenseBackend<f64> {
        let n_active = sf.num_cols() - sf.num_artificials;
        CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0)
    }

    /// Regression: a Bland escalation (and a live stall counter) earned in
    /// phase 1 must survive the phase-2 objective install.
    #[test]
    fn phase2_entry_preserves_anti_cycling_state() {
        let sf = StandardForm::<f64>::from_lp(&degenerate_lp()).unwrap();
        let opts = SolverOptions::default();
        let mut be = cpu_backend(&sf);
        let mut lane = SimplexLane::new(&sf, &opts, None);

        // Simulate a phase-1 endgame that escalated to Bland with a hot
        // stall counter.
        lane.bland_mode = true;
        lane.stall = 7;
        lane.on(&mut be, quiet()).enter_phase(Phase::Two).unwrap();
        assert!(
            lane.bland_mode,
            "phase-2 entry must not discard the Bland escalation"
        );
        assert_eq!(
            lane.stall, 7,
            "phase-2 entry must not reset the stall counter"
        );
        assert_eq!(lane.phase_tag, 2);
    }

    /// Regression (anti-cycling accounting): an emergency reinversion
    /// rebuilds the iterate from scratch, so the stall streak measured
    /// against the corrupted state must not survive it — letting it
    /// survive would trip the Bland escalation on stale evidence. Checked
    /// on a solo backend and on one lane of a lockstep family, where the
    /// sibling lane must be untouched.
    #[test]
    fn emergency_reinversion_resets_stall_counter() {
        let sfs: Vec<StandardForm<f64>> = (0..2)
            .map(|s| StandardForm::from_lp(&generator::dense_random(6, 9, s + 80)).unwrap())
            .collect();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        };

        let mut be = cpu_backend(&sfs[0]);
        let mut solo = SimplexLane::new(&sfs[0], &opts, None);
        solo.stall = 9;
        let rebuilt = solo.on(&mut be, quiet()).recover().unwrap();
        assert!(rebuilt, "identity basis refactors");
        assert_eq!(
            solo.stall, 0,
            "corruption-triggered reinversion must reset the stall streak"
        );
        assert_eq!(solo.stats.nan_recoveries, 1);

        let n_active = sfs[0].num_cols() - sfs[0].num_artificials;
        let members: Vec<BatchMember<'_, f64>> = sfs
            .iter()
            .map(|sf| BatchMember {
                a: &sf.a,
                b: &sf.b,
                n_active,
                basis0: &sf.basis0,
            })
            .collect();
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut family = BatchKernelBackend::try_new(&gpu, &members).unwrap();
        let mut lanes: Vec<SimplexLane<'_, f64>> = sfs
            .iter()
            .map(|sf| SimplexLane::new(sf, &opts, None))
            .collect();
        for (b, lane) in lanes.iter_mut().enumerate() {
            lane.on(&mut family.lane(b), quiet()).start(None).unwrap();
        }
        lanes[0].stall = 7;
        lanes[1].stall = 3;
        let live = lanes[0].on(&mut family.lane(0), quiet()).recover().unwrap();
        assert!(live, "recovered lane stays in the round loop");
        assert_eq!(
            lanes[0].stall, 0,
            "emergency reinversion must restart the degenerate streak"
        );
        assert_eq!(lanes[0].stats.nan_recoveries, 1);
        // The sibling lane's streak is untouched — recovery is lane-local.
        assert_eq!(lanes[1].stall, 3);
        assert_eq!(lanes[1].stats.nan_recoveries, 0);
    }
}
