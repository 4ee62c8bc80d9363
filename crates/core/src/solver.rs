//! High-level pipeline: presolve → standardize → scale → revised simplex →
//! recover, over a chosen backend.
//!
//! [`solve`] is the one-liner (dense CPU, panics on machinery failure).
//! Every other entry point returns `Result<_, SolveError>`, and callers
//! that want the panic `expect` it: [`try_solve_on`] picks the backend,
//! [`try_solve_on_recorded`] adds step spans, [`try_solve_on_warm`] adds
//! the family basis cache and checkpoint/resume, and [`try_solve_standard`]
//! solves a prepared standard form. When [`SolverOptions::faults`] is set,
//! the GPU arms arm a fresh [`FaultPlan`] on the device/stream before the
//! backend is built, and the observed fault count is folded into the
//! result's stats. [`crate::pdhg`] runs the same pipeline front, tail and
//! device setup around its first-order iteration.

use std::sync::Arc;

use gpu_sim::{DeviceSpec, FaultConfig, FaultPlan, Gpu, Stream};
use linalg::{CsrMatrix, Scalar};
use lp::presolve::{PresolveResult, Presolved};
use lp::scaling::ScalingKind;
use lp::{LinearProgram, StandardForm};

use crate::backends::{CpuDenseBackend, CpuSparseBackend, GpuDenseBackend};
use crate::batch::cache::{cache_key, BasisCache};
use crate::batch::policy::WarmStartPolicy;
use crate::checkpoint::{CheckpointSlot, SolveCheckpoint};
use crate::error::SolveError;
use crate::options::SolverOptions;
use crate::result::{LpSolution, Status, StdResult};
use crate::revised::RevisedSimplex;
use crate::stats::SolveStats;
use crate::trace::{NoopRecorder, Recorder};

/// Which backend the pipeline should run on.
#[derive(Clone)]
pub enum BackendKind {
    /// Serial dense CPU (the paper's baseline).
    CpuDense,
    /// Sparse-pricing CPU (extension).
    CpuSparse,
    /// Simulated GPU with the given device (a fresh device per solve).
    GpuDense(DeviceSpec),
    /// A shared simulated GPU: each solve runs on its own
    /// [`gpu_sim::Stream`] of this device, so many solves can interleave
    /// (e.g. from batch-scheduler workers) with per-solve counters intact
    /// and device-wide memory capacity enforced.
    GpuShared(Arc<Gpu>),
}

impl BackendKind {
    /// Short stable tag for stats keys and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::CpuDense => "cpu-dense",
            BackendKind::CpuSparse => "cpu-sparse",
            BackendKind::GpuDense(_) => "gpu-dense",
            BackendKind::GpuShared(_) => "gpu-shared",
        }
    }
}

impl std::fmt::Debug for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::CpuDense => write!(f, "CpuDense"),
            BackendKind::CpuSparse => write!(f, "CpuSparse"),
            BackendKind::GpuDense(spec) => write!(f, "GpuDense({})", spec.name),
            BackendKind::GpuShared(gpu) => write!(f, "GpuShared({})", gpu.spec().name),
        }
    }
}

/// Shared warm-start state for a run of related solves: the basis cache
/// plus the policy that keys instances into it. Threaded by reference, so
/// one cache serves many concurrent solves (the batch workers all borrow
/// the scheduler's cache).
#[derive(Debug, Clone, Copy)]
pub struct WarmContext<'a> {
    /// The shared basis cache consulted before, and fed after, each solve.
    pub cache: &'a BasisCache,
    /// How instances are keyed (see [`WarmStartPolicy`]).
    pub policy: WarmStartPolicy,
}

/// Solve an LP through the full pipeline on the dense CPU backend.
///
/// # Panics
/// On models that cannot be standardized (infinite right-hand sides) —
/// those are modeling errors, not solver outcomes — and on device failure
/// (impossible without fault injection).
pub fn solve<T: Scalar>(model: &LinearProgram, opts: &SolverOptions) -> LpSolution {
    try_solve_on::<T>(model, opts, &BackendKind::CpuDense).unwrap_or_else(|e| panic!("{e}"))
}

/// Solve an LP through the full pipeline on an explicit backend, surfacing
/// device faults, timeouts and numerical collapse as [`SolveError`]s.
pub fn try_solve_on<T: Scalar>(
    model: &LinearProgram,
    opts: &SolverOptions,
    kind: &BackendKind,
) -> Result<LpSolution, SolveError> {
    try_solve_on_warm::<T>(model, opts, kind, None, None)
}

/// [`try_solve_on`] with step spans reported to `rec` (see
/// [`crate::trace`]). The caller keeps the recorder, so a solve that errors
/// out leaves its partial trace available for post-mortem.
pub fn try_solve_on_recorded<T: Scalar, R: Recorder>(
    model: &LinearProgram,
    opts: &SolverOptions,
    kind: &BackendKind,
    rec: &mut R,
) -> Result<LpSolution, SolveError> {
    solve_model::<T, R>(model, opts, kind, None, None, rec)
}

/// [`try_solve_on`] consulting (and feeding) a shared [`BasisCache`], and
/// checkpointing per [`RecoveryContext`].
///
/// With `warm`, the standardized instance is keyed under the context's
/// [`WarmStartPolicy`], a cached family basis (if any) seeds the simplex,
/// and an `Optimal` terminal basis is written back for later family
/// members. A candidate that fails the solver-side validation is a
/// recorded cold fallback ([`crate::SolveStats::warm_start_rejected`]),
/// never a wrong answer.
///
/// With `rcv`, the simplex snapshots into `rcv.slot` per
/// [`SolverOptions::checkpoint_interval`] and resumes from `rcv.resume`
/// when supplied. The checkpoint basis lives in the post-presolve/post-scale
/// standard-form space, which is deterministic per model — so a checkpoint
/// taken by one attempt resumes correctly in a later attempt, even on a
/// different backend rung. On a resumed attempt the cache's warm candidate
/// is *not* offered (the checkpoint supersedes it); the cache is still fed
/// on success.
pub fn try_solve_on_warm<T: Scalar>(
    model: &LinearProgram,
    opts: &SolverOptions,
    kind: &BackendKind,
    warm: Option<&WarmContext<'_>>,
    rcv: Option<RecoveryContext<'_>>,
) -> Result<LpSolution, SolveError> {
    solve_model::<T, NoopRecorder>(model, opts, kind, warm, rcv, &mut NoopRecorder)
}

/// Outcome of the pre-simplex pipeline stages (presolve → standardize →
/// scale), shared by both algorithm families and by the batch mega path,
/// which runs them per member *before* shape-grouping same-shape jobs into
/// one SoA super-job.
pub(crate) enum Prepared<T: Scalar> {
    /// Presolve fully decided the model — no simplex needed.
    Early(Box<LpSolution>),
    /// Standardized (and scaled, per options) form ready for the simplex,
    /// plus the presolve restore context when presolve reduced the model.
    Ready {
        sf: Box<StandardForm<T>>,
        restore: Option<lp::presolve::Presolved>,
    },
}

/// Presolve (when `presolve`), standardize and scale (when `scale`)
/// `model`: the pipeline front both algorithm families share.
///
/// # Panics
/// On models that cannot be standardized (infinite coefficients) — same
/// contract as the solve entry points.
pub(crate) fn prepare<T: Scalar>(
    model: &LinearProgram,
    presolve: bool,
    scale: bool,
) -> Prepared<T> {
    let decided = |status, reason| {
        Prepared::Early(Box::new(LpSolution {
            status,
            x: vec![0.0; model.num_vars()],
            objective: f64::NAN,
            stats: SolveStats::default(),
            duals: None,
            reason: Some(reason),
        }))
    };
    let (work, restore) = if presolve {
        match lp::presolve::presolve(model) {
            PresolveResult::Infeasible(reason) => return decided(Status::Infeasible, reason),
            PresolveResult::Unbounded(reason) => return decided(Status::Unbounded, reason),
            PresolveResult::Reduced(p) => {
                let lp = p.lp.clone();
                (lp, Some(p))
            }
        }
    } else {
        (model.clone(), None)
    };
    let mut sf = StandardForm::<T>::from_lp(&work).expect("model must standardize");
    if scale {
        let _ = lp::scaling::scale(&mut sf, ScalingKind::GeometricMean);
    }
    Prepared::Ready {
        sf: Box::new(sf),
        restore,
    }
}

/// Fold warm-start accounting into `res` and write an `Optimal` terminal
/// basis back to the cache. `key` is the family key computed on the solved
/// form; `baseline` is the cached cold iteration count (if a candidate was
/// offered).
pub(crate) fn settle_warm<T: Scalar>(
    warm: Option<&WarmContext<'_>>,
    key: Option<u64>,
    baseline: Option<u64>,
    res: &mut StdResult<T>,
) {
    let warm_accepted = res.stats.warm_start_attempted > res.stats.warm_start_rejected;
    if warm_accepted {
        if let Some(cold) = baseline {
            res.stats.warm_iterations_saved = cold.saturating_sub(res.stats.iterations as u64);
        }
    }
    if let (Some(w), Some(k)) = (warm, key) {
        if res.status == Status::Optimal {
            // Carry the family's original cold cost forward through warm
            // inserts, so savings are always measured against a cold solve
            // rather than against the previous (already cheap) warm one.
            let cold_cost = match (warm_accepted, baseline) {
                (true, Some(cold)) => cold,
                _ => res.stats.iterations as u64,
            };
            w.cache.insert(k, res.basis.clone(), cold_cost);
        }
    }
}

/// Simplex pipeline tail: polish an optimal point, take standard-space
/// duals from the terminal basis, then [`recover`].
pub(crate) fn finalize<T: Scalar>(
    model: &LinearProgram,
    opts: &SolverOptions,
    sf: &StandardForm<T>,
    restore: &Option<Presolved>,
    mut res: StdResult<T>,
) -> LpSolution {
    let optimal = res.status == Status::Optimal;
    if opts.polish && optimal {
        polish_x_std(sf, &res.basis, &mut res.x_std);
    }
    let y_std = if optimal {
        basis_duals(sf, &res.basis)
    } else {
        None
    };
    recover(model, sf, restore, res.status, &res.x_std, y_std, res.stats)
}

/// Pipeline tail shared by both algorithm families: recover `x` through
/// scaling and presolve, evaluate the objective on the original model,
/// and — on an `Optimal` result — map the standard-space duals `y_std`
/// back onto the original rows (rows that presolve removed recover the
/// multiplier their bound earned).
pub(crate) fn recover<T: Scalar>(
    model: &LinearProgram,
    sf: &StandardForm<T>,
    restore: &Option<Presolved>,
    status: Status,
    x_std: &[T],
    y_std: Option<Vec<f64>>,
    stats: SolveStats,
) -> LpSolution {
    let x_red = sf.recover_x(x_std);
    let x = match restore {
        Some(p) => p.restore(&x_red),
        None => x_red,
    };
    let objective = match status {
        Status::Optimal | Status::IterationLimit => model.objective_value(&x),
        _ => f64::NAN,
    };
    let duals = y_std.filter(|_| status == Status::Optimal).map(|y| {
        let y_red = sf.recover_duals(&y);
        match restore {
            Some(p) => p.restore_duals(model, &x, &y_red),
            None => y_red,
        }
    });
    LpSolution {
        status,
        x,
        objective,
        stats,
        duals,
        reason: None,
    }
}

fn solve_model<T: Scalar, R: Recorder>(
    model: &LinearProgram,
    opts: &SolverOptions,
    kind: &BackendKind,
    warm: Option<&WarmContext<'_>>,
    rcv: Option<RecoveryContext<'_>>,
    rec: &mut R,
) -> Result<LpSolution, SolveError> {
    let (sf, restore) = match prepare::<T>(model, opts.presolve, opts.scale) {
        Prepared::Early(sol) => return Ok(*sol),
        Prepared::Ready { sf, restore } => (sf, restore),
    };

    // ---- consult the family basis cache -----------------------------------
    // The key is computed on the *post-presolve, post-scale* form: that is
    // the space the stored basis lives in, and geometric-mean scale factors
    // derive from `A` alone, so family members (same `A`, perturbed `b`/`c`)
    // still collapse onto one key after scaling.
    let key = warm.and_then(|w| cache_key(&sf, &w.policy));
    let cached = match (warm, key) {
        (Some(w), Some(k)) => {
            let n_active = sf.num_cols() - sf.num_artificials;
            w.cache.lookup(k, sf.num_rows(), n_active)
        }
        _ => None,
    };
    let baseline = cached.as_ref().map(|c| c.cold_iterations);
    // A resumed attempt must not also offer the cache's warm candidate:
    // the checkpoint already encodes more progress than any family basis,
    // and the driver's resume path supersedes the warm install anyway.
    let resuming = rcv.as_ref().is_some_and(|r| r.resume.is_some());
    let start = if resuming {
        None
    } else {
        cached.map(|c| c.basis)
    };

    let mut res = try_solve_standard::<T, R>(&sf, opts, kind, start, rcv, rec)?;
    settle_warm(warm, key, baseline, &mut res);
    Ok(finalize(model, opts, &sf, &restore, res))
}

/// Recompute the basic variables of an optimal point from a fresh f64
/// factorization of the terminal basis (`B x_B = b`), zeroing every
/// nonbasic entry. The result depends only on the terminal basis — not on
/// the pivot path, the backend's accumulated update error, or whether the
/// solve started warm — which is what makes warm-vs-cold objectives
/// bitwise-comparable. Left untouched when the factorization fails or
/// produces non-finite values (the iterate's own β is then the best
/// available answer).
fn polish_x_std<T: Scalar>(sf: &StandardForm<T>, basis: &[usize], x_std: &mut [T]) {
    let m = sf.num_rows();
    if m == 0 {
        return;
    }
    let mut bmat = linalg::DenseMatrix::<f64>::zeros(m, m);
    for (col, &j) in basis.iter().enumerate() {
        for i in 0..m {
            bmat.set(i, col, sf.a.get(i, j).to_f64());
        }
    }
    let rhs: Vec<f64> = sf.b.iter().map(|v| v.to_f64()).collect();
    let Some(xb) = linalg::blas::lu_solve(&bmat, &rhs) else {
        return;
    };
    if xb.iter().any(|v| !v.is_finite()) {
        return;
    }
    for v in x_std.iter_mut() {
        *v = T::ZERO;
    }
    for (col, &j) in basis.iter().enumerate() {
        x_std[j] = T::from_f64(xb[col]);
    }
}

/// Standard-space duals `y` with `yᵀB = c_Bᵀ`, from a fresh f64
/// factorization of the terminal basis (so the values are
/// backend-independent). `None` when the basis is singular (should not
/// happen on an optimal result).
fn basis_duals<T: Scalar>(sf: &StandardForm<T>, basis: &[usize]) -> Option<Vec<f64>> {
    let m = sf.num_rows();
    if m == 0 {
        return Some(Vec::new());
    }
    // Solve Bᵀ y = c_B in f64.
    let mut bt = linalg::DenseMatrix::<f64>::zeros(m, m);
    for (r, &j) in basis.iter().enumerate() {
        for i in 0..m {
            bt.set(r, i, sf.a.get(i, j).to_f64());
        }
    }
    let cb: Vec<f64> = basis.iter().map(|&j| sf.c[j].to_f64()).collect();
    linalg::blas::lu_solve(&bt, &cb)
}

/// Checkpoint/resume context threaded into a solve: the caller-owned slot
/// the driver snapshots into (per [`SolverOptions::checkpoint_interval`])
/// plus an optional checkpoint to resume from instead of starting cold.
pub struct RecoveryContext<'s> {
    /// Mailbox for snapshots and per-iteration progress.
    pub slot: &'s CheckpointSlot,
    /// Resume point; `None` starts the solve normally.
    pub resume: Option<SolveCheckpoint>,
}

/// Solve a prepared standard form on the chosen backend — the experiment
/// entry point: no presolve, scaling or recovery; the caller controls
/// everything.
///
/// * `start` warm-starts phase 2 from a basis (e.g. the final basis of a
///   previous solve of a perturbed model), falling back to the cold
///   two-phase start if it is singular or primal-infeasible.
/// * `rcv` snapshots into `rcv.slot` every `opts.checkpoint_interval`
///   iterations (at reinversion boundaries), and a supplied `rcv.resume`
///   checkpoint restarts the solve mid-flight — on *any* backend kind, not
///   just the one that took the snapshot. Pass `start = None` when
///   resuming (the checkpoint supersedes it).
/// * `rec` receives step spans (see [`crate::trace`]); untraced callers
///   pass `&mut NoopRecorder`, which compiles the spans out.
pub fn try_solve_standard<T: Scalar, R: Recorder>(
    sf: &StandardForm<T>,
    opts: &SolverOptions,
    kind: &BackendKind,
    start: Option<Vec<usize>>,
    rcv: Option<RecoveryContext<'_>>,
    rec: &mut R,
) -> Result<StdResult<T>, SolveError> {
    debug_assert!(
        start.is_none() || rcv.as_ref().is_none_or(|r| r.resume.is_none()),
        "a resumed solve must not also offer a warm-start basis"
    );
    let n_active = sf.num_cols() - sf.num_artificials;
    match kind {
        BackendKind::CpuDense => {
            let mut be = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
            drive(&mut be, sf, opts, start, rcv, rec)
        }
        BackendKind::CpuSparse => {
            let csr = CsrMatrix::from_dense(&sf.a, T::ZERO);
            let mut be = CpuSparseBackend::new(&csr, &sf.b, n_active, &sf.basis0);
            drive(&mut be, sf, opts, start, rcv, rec)
        }
        BackendKind::GpuDense(_) | BackendKind::GpuShared(_) => {
            let (mut res, faults) = on_device(kind, opts.faults.as_ref(), |gpu| {
                // Fallible construction: a device fault during the initial
                // uploads is a reportable device error, not a panic.
                let mut be = GpuDenseBackend::try_new(gpu, &sf.a, &sf.b, n_active, &sf.basis0)?;
                be.set_fuse_launches(opts.fuse_launches);
                drive(&mut be, sf, opts, start, rcv, rec)
            })?;
            res.stats.device_faults = faults;
            Ok(res)
        }
    }
}

/// Run a constructed backend to completion, wiring in the warm basis and
/// the recovery context when given.
fn drive<'a, T: Scalar, B: crate::backend::Backend<T>, R: Recorder>(
    be: &'a mut B,
    sf: &'a StandardForm<T>,
    opts: &'a SolverOptions,
    start: Option<Vec<usize>>,
    rcv: Option<RecoveryContext<'a>>,
    rec: &'a mut R,
) -> Result<StdResult<T>, SolveError> {
    let mut d = RevisedSimplex::with_recorder(be, sf, opts, rec);
    if let Some(basis) = start {
        d.set_start_basis(basis);
    }
    if let Some(rcv) = rcv {
        d.attach_checkpoint_slot(rcv.slot);
        if let Some(cp) = rcv.resume {
            d.resume_from(cp);
        }
    }
    d.try_solve()
}

/// The device setup both algorithm families share for a GPU `kind`: a
/// fresh [`Gpu`] for [`BackendKind::GpuDense`], or one [`Stream`] of the
/// shared device for [`BackendKind::GpuShared`] (`Stream` derefs to `Gpu`,
/// so the backend runs unchanged while its counters stay per-solve correct
/// and fold into the shared device on retirement). `faults` is armed as a
/// fresh [`FaultPlan`] before `body` builds anything — on the stream, so
/// injected faults stay per-solve and other jobs on the device are
/// untouched. Returns `body`'s output with the observed fault count.
///
/// # Panics
/// On a CPU `kind`.
pub(crate) fn on_device<O>(
    kind: &BackendKind,
    faults: Option<&FaultConfig>,
    body: impl FnOnce(&Gpu) -> Result<O, SolveError>,
) -> Result<(O, u64), SolveError> {
    let (fresh, stream);
    let gpu: &Gpu = match kind {
        BackendKind::GpuDense(spec) => {
            fresh = Gpu::new(spec.clone());
            &fresh
        }
        BackendKind::GpuShared(device) => {
            stream = Stream::on(device);
            &stream
        }
        BackendKind::CpuDense | BackendKind::CpuSparse => unreachable!("{kind:?} is not a GPU"),
    };
    if let Some(cfg) = faults {
        gpu.set_fault_plan(FaultPlan::new(cfg.clone()));
    }
    let out = body(gpu)?;
    Ok((out, gpu.fault_counts().total()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PivotRule;
    use lp::generator::{self, fixtures};

    fn all_kinds() -> Vec<BackendKind> {
        vec![
            BackendKind::CpuDense,
            BackendKind::CpuSparse,
            BackendKind::GpuDense(DeviceSpec::gtx280()),
        ]
    }

    #[test]
    fn wyndor_on_every_backend() {
        let (model, expected) = fixtures::wyndor();
        for kind in all_kinds() {
            let sol = try_solve_on::<f64>(&model, &SolverOptions::default(), &kind).unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kind:?}");
            assert!(
                (sol.objective - expected).abs() < 1e-8,
                "{kind:?}: {}",
                sol.objective
            );
            assert!((sol.x[0] - 2.0).abs() < 1e-8);
            assert!((sol.x[1] - 6.0).abs() < 1e-8);
        }
    }

    #[test]
    fn two_phase_on_every_backend() {
        let (model, expected) = fixtures::two_phase();
        for kind in all_kinds() {
            let sol = try_solve_on::<f64>(&model, &SolverOptions::default(), &kind).unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kind:?}");
            assert!(
                (sol.objective - expected).abs() < 1e-8,
                "{kind:?}: {}",
                sol.objective
            );
            assert!(model.check_feasible(&sol.x, 1e-7).is_none());
            assert!(sol.stats.phase1_iterations > 0);
        }
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let sol = solve::<f64>(&fixtures::infeasible(), &SolverOptions::default());
        assert_eq!(sol.status, Status::Infeasible);
        // Presolve caught it; reason recorded.
        assert!(sol.reason.is_some());

        // With presolve off, the simplex itself must catch both.
        let raw = SolverOptions {
            presolve: false,
            ..Default::default()
        };
        let sol = solve::<f64>(&fixtures::infeasible(), &raw);
        assert_eq!(sol.status, Status::Infeasible);
        let sol = solve::<f64>(&fixtures::unbounded(), &raw);
        assert_eq!(sol.status, Status::Unbounded);
    }

    #[test]
    fn diet_and_production_fixtures() {
        for (model, expected) in [
            fixtures::diet(),
            fixtures::production(),
            fixtures::degenerate(),
        ] {
            let sol = solve::<f64>(&model, &SolverOptions::default());
            assert_eq!(sol.status, Status::Optimal, "{}", model.name);
            assert!(
                (sol.objective - expected).abs() < 1e-7,
                "{}: {} vs {}",
                model.name,
                sol.objective,
                expected
            );
            assert!(model.check_feasible(&sol.x, 1e-7).is_none());
        }
    }

    #[test]
    fn beale_cycling_fixture_terminates() {
        let (model, expected) = fixtures::beale_cycling();
        for rule in [PivotRule::Bland, PivotRule::Hybrid] {
            let opts = SolverOptions {
                pivot_rule: rule,
                ..Default::default()
            };
            let sol = solve::<f64>(&model, &opts);
            assert_eq!(sol.status, Status::Optimal, "{rule:?}");
            assert!(
                (sol.objective - expected).abs() < 1e-8,
                "{rule:?}: {}",
                sol.objective
            );
        }
    }

    #[test]
    fn transportation_on_cpu_and_gpu() {
        // Equality rows + redundancy: the hard two-phase path.
        let model = generator::transportation(&[30.0, 70.0], &[40.0, 60.0], 3);
        let cpu =
            try_solve_on::<f64>(&model, &SolverOptions::default(), &BackendKind::CpuDense).unwrap();
        let gpu = try_solve_on::<f64>(
            &model,
            &SolverOptions::default(),
            &BackendKind::GpuDense(DeviceSpec::gtx280()),
        )
        .unwrap();
        assert_eq!(cpu.status, Status::Optimal);
        assert_eq!(gpu.status, Status::Optimal);
        assert!((cpu.objective - gpu.objective).abs() < 1e-6);
        assert!(model.check_feasible(&cpu.x, 1e-6).is_none());
    }

    #[test]
    fn dense_random_cpu_gpu_agree_with_tableau() {
        let model = generator::dense_random(12, 16, 9);
        let opts = SolverOptions::default();
        let (tstatus, _, tobj, _) = crate::tableau::solve_lp::<f64>(
            &model,
            &SolverOptions {
                presolve: false,
                scale: false,
                ..Default::default()
            },
        );
        assert_eq!(tstatus, Status::Optimal);
        for kind in all_kinds() {
            let sol = try_solve_on::<f64>(&model, &opts, &kind).unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kind:?}");
            assert!(
                (sol.objective - tobj).abs() / tobj.abs().max(1.0) < 1e-7,
                "{kind:?}: {} vs tableau {}",
                sol.objective,
                tobj
            );
        }
    }

    #[test]
    fn f32_pipeline_matches_f64_loosely() {
        let model = generator::dense_random(10, 12, 4);
        let s64 = solve::<f64>(&model, &SolverOptions::default());
        let s32 = solve::<f32>(&model, &SolverOptions::default());
        assert_eq!(s64.status, Status::Optimal);
        assert_eq!(s32.status, Status::Optimal);
        assert!(
            (s64.objective - s32.objective).abs() / s64.objective.abs().max(1.0) < 1e-3,
            "{} vs {}",
            s64.objective,
            s32.objective
        );
    }

    #[test]
    fn max_flow_lp_solves() {
        let model = generator::max_flow(7, 2, 11);
        let sol = solve::<f64>(&model, &SolverOptions::default());
        assert_eq!(sol.status, Status::Optimal);
        // Flow is positive (source always has a forward path).
        assert!(sol.objective > 0.0);
        assert!(model.check_feasible(&sol.x, 1e-7).is_none());
    }

    #[test]
    fn iteration_limit_reported() {
        let model = generator::dense_random(16, 20, 1);
        let opts = SolverOptions {
            max_iterations: Some(1),
            ..Default::default()
        };
        let sol = solve::<f64>(&model, &opts);
        assert_eq!(sol.status, Status::IterationLimit);
    }
}
