//! One pass of a workload: its job list solved on the CPU arm and on the
//! GPU arm, every job from model in to checked solution out.
//!
//! A (job, arm) *pair* fails when the solve errors or panics, ends in any
//! status but `Optimal`, fails an answer check, or disagrees with its
//! reference (the other arm, or the other algorithm). Failures are counted
//! and named; they never abort the run.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gplex::batch::BatchReport;
use gplex::pdhg::{self, PdhgOptions};
use gplex::verify::{check_complementary_slackness, check_solution};
use gplex::{
    BackendKind, BasisRepresentation, BatchOptions, BatchSolver, LpSolution, PlacementPolicy,
    SolverOptions, Status, TraceRecorder, WarmStartPolicy,
};
use gpu_sim::{Counters, Gpu};
use lp::LinearProgram;

use crate::inputs::{Inputs, Workload};
use crate::spans::Tracer;

/// Answer-check tolerance for f32 solves.
const TOL_F32: f64 = 1e-4;
/// Answer-check tolerance for f64 solves.
const TOL_F64: f64 = 1e-6;
/// paper_dense: CPU and GPU objectives agree within this relative gap.
const AGREE_PAPER: f64 = 1e-4;
/// sparse_pipeline: simplex and PDHG objectives agree within this.
const AGREE_SPARSE: f64 = 1e-6;
/// family_batch: CPU-arm and GPU-arm objectives agree within this.
const AGREE_FAMILY: f64 = 1e-9;

/// The two arms of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Arm {
    Cpu,
    Gpu,
}

impl Arm {
    pub const BOTH: [Arm; 2] = [Arm::Cpu, Arm::Gpu];

    pub fn label(self) -> &'static str {
        match self {
            Arm::Cpu => "cpu",
            Arm::Gpu => "gpu",
        }
    }
}

/// Floating-point lattice of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    F32,
    F64,
}

impl Precision {
    pub fn tol(self) -> f64 {
        match self {
            Precision::F32 => TOL_F32,
            Precision::F64 => TOL_F64,
        }
    }
}

/// Which algorithm family solves a job, with its options.
#[derive(Debug, Clone)]
pub enum Algo {
    Simplex(SolverOptions),
    Pdhg(PdhgOptions),
}

impl Algo {
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Simplex(_) => "simplex",
            Algo::Pdhg(_) => "pdhg",
        }
    }

    /// Whether the pipeline runs presolve and scaling under these options.
    pub fn presolve_and_scale(&self) -> (bool, bool) {
        match self {
            Algo::Simplex(o) => (o.presolve, o.scale),
            Algo::Pdhg(o) => (o.presolve, o.scale),
        }
    }
}

/// The algorithms a workload runs on every model, in order.
fn algos(workload: Workload) -> Vec<Algo> {
    match workload {
        Workload::PaperDense => vec![Algo::Simplex(gplex_bench::workload::paper_options())],
        Workload::SparsePipeline => vec![
            Algo::Simplex(SolverOptions {
                basis_representation: BasisRepresentation::SparseLU,
                ..Default::default()
            }),
            Algo::Pdhg(PdhgOptions::default()),
        ],
        // The batch solver owns the pipeline; see `batch_options`.
        Workload::FamilyBatch => vec![Algo::Simplex(SolverOptions::default())],
    }
}

fn precision(workload: Workload) -> Precision {
    match workload {
        Workload::PaperDense => Precision::F32,
        _ => Precision::F64,
    }
}

/// The backend an arm runs single solves on.
fn backend(workload: Workload, arm: Arm, gpu: &Arc<Gpu>) -> BackendKind {
    match (workload, arm) {
        (_, Arm::Gpu) => BackendKind::GpuShared(Arc::clone(gpu)),
        (Workload::SparsePipeline, Arm::Cpu) => BackendKind::CpuSparse,
        (_, Arm::Cpu) => BackendKind::CpuDense,
    }
}

/// family_batch options: one worker (so simulated time and the warm cache
/// repeat exactly), the family warm cache, and lockstep lanes on the GPU
/// arm only.
fn batch_options(arm: Arm, kind: BackendKind) -> BatchOptions {
    BatchOptions {
        workers: 1,
        policy: PlacementPolicy::Fixed(kind),
        solver: SolverOptions::default(),
        warm_start: WarmStartPolicy::Family { tol: 1e-6 },
        mega_batch: arm == Arm::Gpu,
        ..Default::default()
    }
}

/// Solve one model through the full pipeline, turning errors and panics
/// into a message. With a recorder, the solver's step spans go to it.
pub fn solve_job(
    model: &LinearProgram,
    algo: &Algo,
    kind: &BackendKind,
    precision: Precision,
    rec: Option<&mut TraceRecorder>,
) -> Result<LpSolution, String> {
    let run = || match (algo, precision, rec) {
        (Algo::Simplex(o), Precision::F32, None) => gplex::try_solve_on::<f32>(model, o, kind),
        (Algo::Simplex(o), Precision::F64, None) => gplex::try_solve_on::<f64>(model, o, kind),
        (Algo::Pdhg(o), Precision::F32, None) => pdhg::try_solve_on::<f32>(model, o, kind),
        (Algo::Pdhg(o), Precision::F64, None) => pdhg::try_solve_on::<f64>(model, o, kind),
        (Algo::Simplex(o), Precision::F32, Some(r)) => {
            gplex::try_solve_on_recorded::<f32, _>(model, o, kind, r)
        }
        (Algo::Simplex(o), Precision::F64, Some(r)) => {
            gplex::try_solve_on_recorded::<f64, _>(model, o, kind, r)
        }
        (Algo::Pdhg(o), Precision::F32, Some(r)) => {
            pdhg::try_solve_on_recorded::<f32, _>(model, o, kind, r)
        }
        (Algo::Pdhg(o), Precision::F64, Some(r)) => {
            pdhg::try_solve_on_recorded::<f64, _>(model, o, kind, r)
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(sol)) => Ok(sol),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(payload) => Err(format!("panicked: {}", panic_text(&*payload))),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Check an answer: `Optimal`, feasible with a matching objective, and
/// complementary-slack with its duals.
pub fn check(model: &LinearProgram, sol: &LpSolution, tol: f64) -> Result<(), String> {
    if sol.status != Status::Optimal {
        return Err(format!("status {}", sol.status.tag()));
    }
    check_solution(model, sol, tol).map_err(|e| format!("check_solution: {e}"))?;
    check_complementary_slackness(model, sol, tol)
        .map_err(|e| format!("complementary slackness: {e}"))
}

/// Relative objective gap, as the P1 experiment measures it.
fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(1.0)
}

/// How one (job, arm) pair ended.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Job name: model name, plus the algorithm where a model runs twice.
    pub job: String,
    pub objective: f64,
    /// Why the pair failed, if it did.
    pub failure: Option<String>,
    /// The failure is a wrong answer (a failed check or disagreement), not
    /// an honest non-answer such as an iteration limit.
    pub wrong: bool,
}

impl Pair {
    fn from_outcome(
        job: String,
        model: &LinearProgram,
        out: &Result<LpSolution, String>,
        tol: f64,
    ) -> Pair {
        match out {
            Err(msg) => Pair {
                job,
                objective: f64::NAN,
                failure: Some(msg.clone()),
                wrong: false,
            },
            Ok(sol) => {
                let verdict = check(model, sol, tol);
                Pair {
                    job,
                    objective: sol.objective,
                    wrong: verdict.is_err() && sol.status == Status::Optimal,
                    failure: verdict.err(),
                }
            }
        }
    }

    fn fail_wrong(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(why);
            self.wrong = true;
        }
    }
}

/// Counters of one arm that must repeat exactly from pass to pass.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub pivots: u64,
    pub pdhg_iterations: u64,
    pub restarts: u64,
    pub refactorizations: u64,
    pub degenerate_steps: u64,
    /// Peak `lu_refactor_nnz` over the arm's solves.
    pub lu_nnz: u64,
}

impl Counts {
    fn add(&mut self, sol: &LpSolution) {
        let s = &sol.stats;
        self.pivots += s.iterations as u64;
        self.pdhg_iterations += s.pdhg_iterations;
        self.restarts += s.restarts;
        self.refactorizations += s.refactorizations as u64;
        self.degenerate_steps += s.degenerate_steps as u64;
        self.lu_nnz = self.lu_nnz.max(s.lu_refactor_nnz);
    }
}

/// What the batch layer reported for one family_batch arm.
#[derive(Debug, Clone, Default)]
pub struct BatchFacts {
    pub jobs: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub warm_iterations_saved: u64,
    pub grouped_jobs: u64,
    /// Host seconds of lockstep-lane jobs and of stream-per-job jobs.
    pub mega_wall_s: f64,
    pub stream_wall_s: f64,
}

/// One arm of one pass.
#[derive(Debug, Clone)]
pub struct ArmRun {
    pub arm: Arm,
    /// Host seconds for the arm's whole job list, checks included (and, on
    /// a traced pass, the replayed stage calls excluded).
    pub wall_s: f64,
    /// Modelled seconds on the arm's clock.
    pub sim_s: f64,
    pub pairs: Vec<Pair>,
    pub counts: Counts,
    /// The GPU arm's device counters after the arm.
    pub gpu: Option<Counters>,
    pub batch: Option<BatchFacts>,
}

impl ArmRun {
    pub fn failed(&self) -> usize {
        self.pairs.iter().filter(|p| p.failure.is_some()).count()
    }

    /// Every value that must repeat exactly, as `(name, bits)`.
    pub fn digest(&self) -> Vec<(String, u64)> {
        let a = self.arm.label();
        let c = &self.counts;
        let mut d = vec![
            (format!("sim_s.{a}"), self.sim_s.to_bits()),
            (format!("failed.{a}"), self.failed() as u64),
            (format!("pivots.{a}"), c.pivots),
            (format!("pdhg_iterations.{a}"), c.pdhg_iterations),
            (format!("restarts.{a}"), c.restarts),
            (format!("refactorizations.{a}"), c.refactorizations),
            (format!("degenerate_steps.{a}"), c.degenerate_steps),
            (format!("lu_nnz.{a}"), c.lu_nnz),
        ];
        for p in &self.pairs {
            d.push((format!("objective.{a}.{}", p.job), p.objective.to_bits()));
        }
        if let Some(g) = &self.gpu {
            d.push(("gpu.launches".into(), g.kernels_launched));
            d.push(("gpu.pcie_bytes".into(), g.h2d_bytes + g.d2h_bytes));
            d.push(("gpu.mem_bytes".into(), g.mem_bytes));
            d.push(("gpu.flops".into(), g.flops));
            d.push(("gpu.batch_rounds".into(), g.batch_rounds));
            d.push(("gpu.batch_lanes_idle".into(), g.batch_lanes_idle));
        }
        if let Some(b) = &self.batch {
            d.push((format!("batch.warm_hits.{a}"), b.warm_hits));
            d.push((
                format!("batch.warm_iterations_saved.{a}"),
                b.warm_iterations_saved,
            ));
            d.push((format!("batch.grouped_jobs.{a}"), b.grouped_jobs));
        }
        d
    }
}

/// Both arms of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    pub cpu: ArmRun,
    pub gpu: ArmRun,
}

impl Pass {
    pub fn arms(&self) -> [&ArmRun; 2] {
        [&self.cpu, &self.gpu]
    }

    pub fn attempted(&self) -> usize {
        self.cpu.pairs.len() + self.gpu.pairs.len()
    }

    pub fn failed(&self) -> usize {
        self.cpu.failed() + self.gpu.failed()
    }

    pub fn digest(&self) -> Vec<(String, u64)> {
        let mut d = self.cpu.digest();
        d.extend(self.gpu.digest());
        d
    }
}

/// Run one pass: both arms (in the given order) on a fresh device, then
/// the cross-arm and cross-algorithm agreement checks. With a tracer, the
/// pass is the traced one.
pub fn run_pass(inputs: &Inputs, gpu_first: bool, mut tracer: Option<&mut Tracer>) -> Pass {
    let gpu = crate::inputs::gtx280();
    let order = if gpu_first {
        [Arm::Gpu, Arm::Cpu]
    } else {
        [Arm::Cpu, Arm::Gpu]
    };
    let mut runs: BTreeMap<Arm, ArmRun> = BTreeMap::new();
    for arm in order {
        let run = run_arm(inputs, arm, &gpu, tracer.as_deref_mut());
        runs.insert(arm, run);
    }
    let mut pass = Pass {
        cpu: runs.remove(&Arm::Cpu).expect("cpu arm ran"),
        gpu: runs.remove(&Arm::Gpu).expect("gpu arm ran"),
    };
    agree(inputs.workload, &mut pass);
    pass
}

/// Cross-checks between answers that must coincide.
fn agree(workload: Workload, pass: &mut Pass) {
    match workload {
        Workload::PaperDense | Workload::FamilyBatch => {
            let limit = if workload == Workload::PaperDense {
                AGREE_PAPER
            } else {
                AGREE_FAMILY
            };
            let cpu = &pass.cpu.pairs;
            for (g, c) in pass.gpu.pairs.iter_mut().zip(cpu) {
                if g.failure.is_none() && c.failure.is_none() {
                    let gap = rel_gap(c.objective, g.objective);
                    if gap.is_nan() || gap > limit {
                        g.fail_wrong(format!("disagrees with the cpu arm: rel gap {gap:.3e}"));
                    }
                }
            }
        }
        Workload::SparsePipeline => {
            for arm in [&mut pass.cpu, &mut pass.gpu] {
                for pair in arm.pairs.chunks_mut(2) {
                    if let [sx, fo] = pair {
                        if sx.failure.is_none() && fo.failure.is_none() {
                            let gap = rel_gap(sx.objective, fo.objective);
                            if gap.is_nan() || gap > AGREE_SPARSE {
                                fo.fail_wrong(format!("disagrees with simplex: rel gap {gap:.3e}"));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Run one arm of a pass.
fn run_arm(inputs: &Inputs, arm: Arm, gpu: &Arc<Gpu>, tracer: Option<&mut Tracer>) -> ArmRun {
    let workload = inputs.workload;
    let kind = backend(workload, arm, gpu);
    let mut run = ArmRun {
        arm,
        wall_s: 0.0,
        sim_s: 0.0,
        pairs: Vec::new(),
        counts: Counts::default(),
        gpu: None,
        batch: None,
    };
    let t0 = Instant::now();
    let mut replay_s = 0.0;
    match workload {
        Workload::FamilyBatch => run_batch_arm(inputs, arm, kind, &mut run, tracer),
        _ => replay_s = run_single_arm(inputs, arm, &kind, &mut run, tracer),
    }
    run.wall_s = t0.elapsed().as_secs_f64() - replay_s;
    if arm == Arm::Gpu {
        run.gpu = Some(gpu.counters());
    }
    run
}

/// paper_dense and sparse_pipeline: one pipeline call per (model, algo).
/// Returns the host seconds spent replaying stage calls for the tracer.
fn run_single_arm(
    inputs: &Inputs,
    arm: Arm,
    kind: &BackendKind,
    run: &mut ArmRun,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    let workload = inputs.workload;
    let precision = precision(workload);
    let algos = algos(workload);
    let mut replay_s = 0.0;
    for (i, reference) in inputs.models.iter().enumerate() {
        let job_span = tracer
            .as_deref_mut()
            .map(|t| t.open(arm, &reference.name, None));
        // sparse_pipeline arms start from MPS text; the parsed model is the
        // one solved and checked.
        let parsed;
        let model = if workload == Workload::SparsePipeline {
            let t = Instant::now();
            let out = lp::mps::parse(&inputs.mps[i]);
            if let (Some(tr), Some(job)) = (tracer.as_deref_mut(), job_span) {
                tr.stage(arm, job, "parse", t, t.elapsed().as_secs_f64());
            }
            match out {
                Ok(m) => {
                    parsed = m;
                    &parsed
                }
                Err(e) => {
                    for algo in &algos {
                        run.pairs.push(Pair {
                            job: job_name(&reference.name, algo, algos.len()),
                            objective: f64::NAN,
                            failure: Some(format!("mps parse: {e}")),
                            wrong: true,
                        });
                    }
                    continue;
                }
            }
        } else {
            reference
        };
        for algo in &algos {
            let name = job_name(&model.name, algo, algos.len());
            let (out, verify_start) = match (tracer.as_deref_mut(), job_span) {
                (Some(tr), Some(job)) => {
                    replay_s += tr.replay_stages(arm, job, model, algo, precision);
                    let out = tr.pipeline(arm, job, model, algo, kind, precision);
                    (out, Instant::now())
                }
                _ => (
                    solve_job(model, algo, kind, precision, None),
                    Instant::now(),
                ),
            };
            let pair = Pair::from_outcome(name, model, &out, precision.tol());
            if let (Some(tr), Some(job)) = (tracer.as_deref_mut(), job_span) {
                tr.stage(
                    arm,
                    job,
                    "verify",
                    verify_start,
                    verify_start.elapsed().as_secs_f64(),
                );
            }
            if let Ok(sol) = &out {
                run.sim_s += sol.stats.total_time().as_secs_f64();
                run.counts.add(sol);
            }
            run.pairs.push(pair);
        }
        if let (Some(tr), Some(job)) = (tracer.as_deref_mut(), job_span) {
            tr.close(job);
        }
    }
    replay_s
}

fn job_name(model: &str, algo: &Algo, algos: usize) -> String {
    if algos > 1 {
        format!("{model}/{}", algo.label())
    } else {
        model.to_string()
    }
}

/// family_batch: one `BatchSolver::solve` over the whole job list.
fn run_batch_arm(
    inputs: &Inputs,
    arm: Arm,
    kind: BackendKind,
    run: &mut ArmRun,
    mut tracer: Option<&mut Tracer>,
) {
    let solver = BatchSolver::new(batch_options(arm, kind));
    let job_span = tracer
        .as_deref_mut()
        .map(|t| t.open(arm, "family_batch", None));
    let t = Instant::now();
    let report: BatchReport = solver.solve::<f64>(&inputs.models);
    let solve_s = t.elapsed().as_secs_f64();
    if let (Some(tr), Some(job)) = (tracer.as_deref_mut(), job_span) {
        tr.batch(arm, job, t, solve_s, &report);
    }
    let verify_start = Instant::now();
    for (res, model) in report.results.iter().zip(&inputs.models) {
        let out = res
            .outcome
            .solution()
            .cloned()
            .ok_or_else(|| res.outcome.status_label().to_string());
        run.pairs
            .push(Pair::from_outcome(model.name.clone(), model, &out, TOL_F64));
        if let Ok(sol) = &out {
            run.counts.add(sol);
        }
    }
    if let (Some(tr), Some(job)) = (tracer, job_span) {
        tr.stage(
            arm,
            job,
            "verify",
            verify_start,
            verify_start.elapsed().as_secs_f64(),
        );
        tr.close(job);
    }
    let s = &report.stats;
    run.sim_s = s.sim_makespan.as_secs_f64();
    let mut facts = BatchFacts {
        jobs: s.jobs as u64,
        warm_hits: s.warm_hits,
        warm_misses: s.warm_misses,
        warm_iterations_saved: s.warm_iterations_saved,
        grouped_jobs: s.grouped_jobs as u64,
        ..Default::default()
    };
    for r in &report.results {
        if r.backend == "batch-kernel" {
            facts.mega_wall_s += r.wall_seconds;
        } else {
            facts.stream_wall_s += r.wall_seconds;
        }
    }
    run.batch = Some(facts);
}
