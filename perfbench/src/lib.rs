//! Two-clock, layer-by-layer benchmark of the gplex workspace.
//!
//! A run generates one workload's job list from its seed, then repeats
//! *passes* until its time budget is spent. A pass solves the job list on
//! the CPU arm and on the GPU arm (alternating which goes first), checking
//! every answer. Untraced passes give the end-to-end metrics; with tracing
//! on, traced passes alternate with untraced ones and give the per-layer
//! metrics. See `README.md` for the metric table and the workloads.
//!
//! The load is a closed loop with one client in one process: every solve
//! is single-threaded and batches run with one worker.

pub mod arms;
pub mod inputs;
pub mod report;
pub mod spans;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use arms::{run_pass, Pass};
use inputs::{Inputs, Workload};
use report::{median, Metric};
use spans::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Passes per run, at least (the determinism guard compares them).
pub const MIN_PASSES: usize = 2;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Human-readable lines: the summary, and every failed pair by name.
    pub notes: Vec<String>,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(Metric, f64)>,
    /// FNV-1a hash of every value that must repeat exactly between runs
    /// of one seed: simulated times, counts, objectives.
    pub digest: u64,
    /// Spans of the traced passes (empty with tracing off).
    pub tracer: Tracer,
}

impl RunOutcome {
    pub fn result_line(&self) -> String {
        report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Run the benchmark.
pub fn run(cfg: &Config) -> RunOutcome {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let generated = Inputs::generate(cfg.workload, cfg.seed);
        std::hint::black_box(inputs::gtx280());
        setups.push(t.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");

    let budget = Duration::from_secs_f64(cfg.seconds);
    let measuring = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, BTreeMap<String, f64>)> = Vec::new();
    let mut tracer = Tracer::default();
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        if cfg.trace && traced.len() < untraced.len() {
            tracer.reset_aggregates();
            let pass = run_pass(&inputs, traced.len() % 2 == 1, Some(&mut tracer));
            let values = report::layer_values(&pass, &tracer);
            traced.push((pass, values));
        } else {
            untraced.push(run_pass(&inputs, untraced.len() % 2 == 1, None));
        }
        longest = longest.max(t.elapsed());
        let passes = untraced.len() + traced.len();
        if passes >= MIN_PASSES && measuring.elapsed() + longest > budget {
            break;
        }
    }

    let all: Vec<&Pass> = untraced
        .iter()
        .chain(traced.iter().map(|(p, _)| p))
        .collect();
    let mut notes = Vec::new();
    let deterministic = determinism_guard(&all, &mut notes);
    let attempted: usize = all.iter().map(|p| p.attempted()).sum();
    let failed: usize = all.iter().map(|p| p.failed()).sum();
    let wrong = all
        .iter()
        .flat_map(|p| p.arms())
        .flat_map(|a| &a.pairs)
        .any(|p| p.wrong);
    let first = all[0];
    for run in first.arms() {
        for p in run.pairs.iter().filter(|p| p.failure.is_some()) {
            notes.push(format!(
                "FAILED {} {} {}: {}",
                cfg.workload.name(),
                run.arm.label(),
                p.job,
                p.failure.as_deref().unwrap_or("")
            ));
        }
    }

    let wall = |pick: fn(&Pass) -> f64, passes: &mut dyn Iterator<Item = &Pass>| {
        median(&passes.map(pick).collect::<Vec<_>>())
    };
    let wall_cpu = wall(|p| p.cpu.wall_s, &mut untraced.iter());
    let wall_gpu = wall(|p| p.gpu.wall_s, &mut untraced.iter());
    notes.push(format!(
        "{} seed={} passes={}+{} traced: cpu wall {:.4} s sim {:.6} s | gpu wall {:.4} s sim {:.6} s | failed {}/{}",
        cfg.workload.name(),
        cfg.seed,
        untraced.len(),
        traced.len(),
        wall_cpu,
        first.cpu.sim_s,
        wall_gpu,
        first.gpu.sim_s,
        failed,
        attempted,
    ));

    let metrics: Vec<(Metric, f64)> = if cfg.trace {
        let untraced_wall = wall(|p| p.cpu.wall_s + p.gpu.wall_s, &mut untraced.iter());
        let traced_wall = wall(
            |p| p.cpu.wall_s + p.gpu.wall_s,
            &mut traced.iter().map(|(p, _)| p),
        );
        report::per_layer()
            .into_iter()
            .map(|m| {
                let v = match m.name.as_str() {
                    "trace.overhead_frac" => traced_wall / untraced_wall - 1.0,
                    "gpu.host_overhead_frac" => (wall_gpu - wall_cpu) / wall_gpu,
                    name => median(
                        &traced
                            .iter()
                            .map(|(_, vals)| vals[name])
                            .collect::<Vec<_>>(),
                    ),
                };
                (m, v)
            })
            .collect()
    } else {
        let values: BTreeMap<&str, f64> = BTreeMap::from([
            ("wall_s.cpu", wall_cpu),
            ("wall_s.gpu", wall_gpu),
            ("sim_s.cpu", first.cpu.sim_s),
            ("sim_s.gpu", first.gpu.sim_s),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN)),
            ("ok_frac", (attempted - failed) as f64 / attempted as f64),
        ]);
        report::end_to_end()
            .into_iter()
            .map(|m| {
                let v = values[m.name.as_str()];
                (m, v)
            })
            .collect()
    };

    RunOutcome {
        notes,
        correct: deterministic && !wrong,
        attempted,
        failed,
        metrics,
        digest: fnv(&first.digest()),
        tracer,
    }
}

/// Every pass must reproduce the first pass's simulated times, counts and
/// objectives bit for bit; a difference is reported by name.
fn determinism_guard(passes: &[&Pass], notes: &mut Vec<String>) -> bool {
    let reference = passes[0].digest();
    let mut ok = true;
    for (k, pass) in passes.iter().enumerate().skip(1) {
        let d = pass.digest();
        if d.len() != reference.len() {
            notes.push(format!(
                "NONDETERMINISTIC: pass {k} reports {} values, pass 0 {}",
                d.len(),
                reference.len()
            ));
            ok = false;
            continue;
        }
        for ((name, a), (_, b)) in reference.iter().zip(&d) {
            if a != b {
                notes.push(format!(
                    "NONDETERMINISTIC: {name} differs between pass 0 and pass {k}"
                ));
                ok = false;
            }
        }
    }
    ok
}

fn fnv(values: &[(String, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, v) in values {
        for b in name.as_bytes().iter().chain(&v.to_le_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use arms::{Arm, ArmRun, Counts};

    fn arm(arm: Arm, sim_s: f64) -> ArmRun {
        ArmRun {
            arm,
            wall_s: 1.0,
            sim_s,
            pairs: Vec::new(),
            counts: Counts::default(),
            gpu: None,
            batch: None,
        }
    }

    #[test]
    fn guard_names_a_simulated_time_that_moved() {
        let a = Pass {
            cpu: arm(Arm::Cpu, 0.5),
            gpu: arm(Arm::Gpu, 0.25),
        };
        let mut b = a.clone();
        let mut notes = Vec::new();
        assert!(determinism_guard(&[&a, &b], &mut notes));
        b.gpu.wall_s = 9.0;
        assert!(
            determinism_guard(&[&a, &b], &mut notes),
            "wall time may move"
        );
        b.gpu.sim_s = 0.25 + f64::EPSILON;
        assert!(!determinism_guard(&[&a, &b], &mut notes));
        assert_eq!(
            notes,
            ["NONDETERMINISTIC: sim_s.gpu differs between pass 0 and pass 1"]
        );
    }
}
