//! The traced pass's spans: job → stage → solver step, recorded from the
//! benchmark's own code around its calls into each layer, kept in memory
//! and written out as one JSON file when the benchmark ends.
//!
//! Stage spans for presolve, standardize and scale come from *replaying*
//! those public functions on the job's model just before the pipeline
//! call, because the pipeline runs them internally where no span can reach
//! them. The pipeline call carries a `TraceRecorder`, whose per-step
//! aggregates become one child span per `StepKind`. What the pipeline call
//! spends outside the replayed stages and the step spans is *finalize*
//! (polish, recovery through presolve and scaling, duals).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use gplex::batch::BatchReport;
use gplex::{BackendKind, LpSolution, StepKind, StepTimings, TraceRecorder};
use linalg::Scalar;
use lp::presolve::{presolve, PresolveResult};
use lp::scaling::{scale, ScalingKind};
use lp::{LinearProgram, StandardForm};

use crate::arms::{solve_job, Algo, Arm, Precision};

/// One recorded span. Step spans are aggregates: `count` solver steps of
/// one kind, with their summed host time and simulated time.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    /// The job span this span belongs to (its own id for a job span).
    job: u64,
    arm: Arm,
    name: String,
    /// Seconds since the tracer started.
    start_s: f64,
    dur_s: f64,
    sim_s: f64,
    count: u64,
}

/// Span store plus the per-arm aggregates the per-layer metrics read.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Host seconds per (arm, stage).
    pub(crate) stage_s: BTreeMap<(Arm, &'static str), f64>,
    /// Solver step aggregates per arm.
    pub(crate) steps: BTreeMap<Arm, StepTimings>,
    /// Host seconds inside pipeline (or batch) calls, per arm.
    pub(crate) pipeline_s: BTreeMap<Arm, f64>,
    /// The part of `pipeline_s` covered by stage and step spans.
    pub(crate) covered_s: BTreeMap<Arm, f64>,
    /// Replayed stage seconds of the job being traced.
    last_replay_s: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stage_s: BTreeMap::new(),
            steps: BTreeMap::new(),
            pipeline_s: BTreeMap::new(),
            covered_s: BTreeMap::new(),
            last_replay_s: 0.0,
        }
    }
}

impl Tracer {
    /// Aggregates of the last pass only; the span list keeps growing.
    pub fn reset_aggregates(&mut self) {
        self.stage_s.clear();
        self.steps.clear();
        self.pipeline_s.clear();
        self.covered_s.clear();
    }

    fn push(
        &mut self,
        arm: Arm,
        name: String,
        parent: Option<u64>,
        start: Instant,
        dur_s: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        let job = match parent {
            Some(p) => self.spans[p as usize].job,
            None => id,
        };
        self.spans.push(Span {
            id,
            parent,
            job,
            arm,
            name,
            start_s: start.saturating_duration_since(self.epoch).as_secs_f64(),
            dur_s,
            sim_s: 0.0,
            count: 1,
        });
        id
    }

    /// Open a span now; [`Tracer::close`] sets its duration.
    pub(crate) fn open(&mut self, arm: Arm, name: &str, parent: Option<u64>) -> u64 {
        self.push(arm, name.to_string(), parent, Instant::now(), 0.0)
    }

    pub(crate) fn close(&mut self, id: u64) {
        let now = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_secs_f64();
        let span = &mut self.spans[id as usize];
        span.dur_s = now - span.start_s;
    }

    /// Record a finished stage span under `parent`.
    pub(crate) fn stage(
        &mut self,
        arm: Arm,
        parent: u64,
        stage: &'static str,
        start: Instant,
        dur_s: f64,
    ) {
        self.push(arm, stage.to_string(), Some(parent), start, dur_s);
        *self.stage_s.entry((arm, stage)).or_default() += dur_s;
    }

    /// Replay the pipeline's front stages on `model` with the options of
    /// `algo`, timing each. Returns the seconds spent.
    pub(crate) fn replay_stages(
        &mut self,
        arm: Arm,
        job: u64,
        model: &LinearProgram,
        algo: &Algo,
        precision: Precision,
    ) -> f64 {
        let (do_presolve, do_scale) = algo.presolve_and_scale();
        let timed = match precision {
            Precision::F32 => replay::<f32>(model, do_presolve, do_scale),
            Precision::F64 => replay::<f64>(model, do_presolve, do_scale),
        };
        let mut total = 0.0;
        for (stage, start, dur) in timed {
            self.stage(arm, job, stage, start, dur);
            total += dur;
        }
        self.last_replay_s = total;
        total
    }

    /// Run the job's pipeline call with a step recorder and record it.
    pub(crate) fn pipeline(
        &mut self,
        arm: Arm,
        job: u64,
        model: &LinearProgram,
        algo: &Algo,
        kind: &BackendKind,
        precision: Precision,
    ) -> Result<LpSolution, String> {
        let mut rec = TraceRecorder::new();
        let start = Instant::now();
        let out = solve_job(model, algo, kind, precision, Some(&mut rec));
        let dur = start.elapsed().as_secs_f64();
        let id = self.push(
            arm,
            format!("pipeline.{}", algo.label()),
            Some(job),
            start,
            dur,
        );
        for k in StepKind::ALL {
            let st = rec.timings.get(k);
            if st.count > 0 {
                let step = self.push(
                    arm,
                    format!("step.{}", k.name()),
                    Some(id),
                    start,
                    st.wall_seconds,
                );
                self.spans[step as usize].sim_s = st.total.as_secs_f64();
                self.spans[step as usize].count = st.count;
            }
        }
        let step_wall = rec.timings.total_wall_seconds();
        let covered = self.last_replay_s + step_wall;
        *self.stage_s.entry((arm, "finalize")).or_default() += dur - covered;
        *self.pipeline_s.entry(arm).or_default() += dur;
        *self.covered_s.entry(arm).or_default() += covered;
        self.steps.entry(arm).or_default().merge(&rec.timings);
        self.last_replay_s = 0.0;
        out
    }

    /// Record a batch solve: one span for the call, one child per job
    /// with the host time the batch layer attributed to it.
    pub(crate) fn batch(
        &mut self,
        arm: Arm,
        job: u64,
        start: Instant,
        dur_s: f64,
        report: &BatchReport,
    ) {
        let id = self.push(arm, "batch.solve".into(), Some(job), start, dur_s);
        let mut covered = 0.0;
        for r in &report.results {
            self.push(
                arm,
                format!("batch.job.{}.{}", r.index, r.backend),
                Some(id),
                start,
                r.wall_seconds,
            );
            covered += r.wall_seconds;
        }
        *self.pipeline_s.entry(arm).or_default() += dur_s;
        *self.covered_s.entry(arm).or_default() += covered;
    }

    /// All spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}\n  {{\"id\": {}, \"parent\": {parent}, \"job\": {}, \"arm\": \"{}\", \"name\": \"{}\", \
                 \"start_s\": {}, \"dur_s\": {}, \"sim_s\": {}, \"count\": {}}}",
                if i == 0 { "" } else { "," },
                sp.id,
                sp.job,
                sp.arm.label(),
                escape(&sp.name),
                sp.start_s,
                sp.dur_s,
                sp.sim_s,
                sp.count,
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Time presolve → standardize → scale as the pipeline runs them.
fn replay<T: Scalar>(
    model: &LinearProgram,
    do_presolve: bool,
    do_scale: bool,
) -> Vec<(&'static str, Instant, f64)> {
    let mut timed = Vec::new();
    let reduced;
    let work = if do_presolve {
        let t = Instant::now();
        let out = presolve(model);
        timed.push(("presolve", t, t.elapsed().as_secs_f64()));
        match out {
            PresolveResult::Reduced(p) => {
                reduced = p.lp;
                &reduced
            }
            // Presolve decided the model: the pipeline stops here too.
            PresolveResult::Infeasible(_) | PresolveResult::Unbounded(_) => return timed,
        }
    } else {
        model
    };
    let t = Instant::now();
    let sf = StandardForm::<T>::from_lp(work);
    timed.push(("standardize", t, t.elapsed().as_secs_f64()));
    if let (Ok(mut sf), true) = (sf, do_scale) {
        let t = Instant::now();
        let _ = scale(&mut sf, ScalingKind::GeometricMean);
        timed.push(("scale", t, t.elapsed().as_secs_f64()));
    }
    timed
}
