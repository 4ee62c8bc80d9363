//! O1 (observability): per-step profile of the solver through the trace
//! subsystem — the measurement that motivates the paper's offload story.
//!
//! The primary table profiles the **CPU reference model** (the paper's
//! serial baseline) on rectangular `n = 3m` dense instances: there, basis
//! update and pricing dominate the iteration — exactly the two steps the
//! paper moves to the GPU. The simulated-GPU profile is reported as a
//! supplement rather than the headline because the 2009-era cost model
//! deliberately makes FTRAN (a single `m`-thread gemv) latency-bound and
//! therefore the most expensive GPU step at these shapes; see
//! EXPERIMENTS.md §O1 for the discussion.
//!
//! Alongside the shares the run validates the trace subsystem itself:
//!
//! * **coverage** — summed per-span host wall time vs the solve's measured
//!   wall time (spans must account for ≥95% of where the time went);
//! * **consistency** — summed per-span simulated time vs the legacy
//!   [`gplex::Step`] accounting (byte-identical clock sampling);
//! * **determinism** — two same-seed GPU solves must produce bitwise-equal
//!   event-trace fingerprints.
//!
//! Writes `results/o1_step_breakdown.csv` (+ a GPU supplement CSV) and
//! `BENCH_o1.json` in the working directory for trend tracking.

use std::fmt::Write as _;

use gplex::trace::{StepKind, TraceRecorder};
use lp::{generator, StandardForm};

use crate::measure::{run_standard_traced, Measurement, Target};
use crate::table::Table;
use crate::workload;

use super::ExpReport;

/// One profiled solve: the measurement plus its recorder.
struct Profile {
    m: usize,
    n: usize,
    meas: Measurement,
    rec: TraceRecorder,
    /// Driver-measured wall seconds (excludes backend construction).
    solve_wall: f64,
}

/// Event-trace ring capacity: enough for the full tail of the largest run
/// while keeping the post-mortem buffer bounded.
const EVENT_CAP: usize = 4096;

fn profile(m: usize, n: usize, seed: u64, target: &Target) -> Profile {
    let model = generator::dense_random(m, n, seed);
    let sf = StandardForm::<f32>::from_lp(&model).expect("generated model standardizes");
    let opts = workload::paper_options();
    let mut rec = TraceRecorder::with_events(EVENT_CAP);
    let (meas, res) = run_standard_traced(&sf, target, &opts, &mut rec);
    Profile {
        m,
        n,
        meas,
        rec,
        solve_wall: res.stats.wall_seconds,
    }
}

fn share_row(p: &Profile) -> Vec<String> {
    let t = &p.rec.timings;
    let mut row = vec![
        p.m.to_string(),
        p.n.to_string(),
        p.meas.iterations.to_string(),
        format!("{:.6}", p.meas.sim_seconds),
    ];
    for kind in StepKind::ALL {
        row.push(format!("{:.1}", 100.0 * t.fraction(kind)));
    }
    let ranked = t.ranked();
    row.push(format!("{}+{}", ranked[0].name(), ranked[1].name()));
    row.push(format!("{:.1}", 100.0 * wall_coverage(p)));
    row
}

/// Fraction of the solve's wall time accounted for by spans.
fn wall_coverage(p: &Profile) -> f64 {
    if p.solve_wall == 0.0 {
        return 1.0;
    }
    p.rec.timings.total_wall_seconds() / p.solve_wall
}

/// Table columns; one share column per [`StepKind`], so a new step kind
/// widens the header and every row together.
fn headers() -> Vec<String> {
    let mut h: Vec<String> = ["m", "n", "iters", "sim-s"].map(String::from).into();
    h.extend(StepKind::ALL.iter().map(|k| format!("{}-%", k.name())));
    h.push("top-2".into());
    h.push("wall-cover-%".into());
    h
}

pub fn run(quick: bool) -> ExpReport {
    // Rectangular n = 3m: the paper's motivating shape (more columns than
    // rows keeps pricing honest while the m×m update still bites).
    let sizes: &[usize] = if quick { &[128, 256] } else { &[256, 512, 768] };
    let seed = 7;

    // ---- primary: CPU reference profile -----------------------------------
    let cpu_profiles: Vec<Profile> = sizes
        .iter()
        .map(|&m| profile(m, 3 * m, seed, &Target::cpu()))
        .collect();
    let mut t = Table::new(headers());
    for p in &cpu_profiles {
        t.push(share_row(p));
    }

    // ---- supplement: simulated-GPU profile --------------------------------
    // Smaller shapes: the GPU share pattern is shape-stable and the point
    // is the contrast with the CPU profile, not another full sweep.
    let gpu_sizes: &[usize] = if quick { &[96] } else { &[128, 256] };
    let gpu_profiles: Vec<Profile> = gpu_sizes
        .iter()
        .map(|&m| profile(m, 3 * m, seed, &Target::gpu()))
        .collect();
    let mut tg = Table::new(headers());
    for p in &gpu_profiles {
        tg.push(share_row(p));
    }

    // ---- determinism check: same-seed GPU traces are bitwise-equal --------
    let fp_m = 64;
    let fp_a = profile(fp_m, 3 * fp_m, seed, &Target::gpu());
    let fp_b = profile(fp_m, 3 * fp_m, seed, &Target::gpu());
    let fp = (fp_a.rec.events.fingerprint(), fp_b.rec.events.fingerprint());
    if fp.0 != fp.1 {
        eprintln!(
            "   !! determinism check FAILED: fingerprints {:016x} != {:016x}",
            fp.0, fp.1
        );
    }

    write_bench_json(&cpu_profiles, &gpu_profiles, fp);

    ExpReport {
        id: "o1",
        tables: vec![
            (
                "O1: per-step profile, CPU reference model (n = 3m dense) — update + pricing \
                 dominate the serial iteration"
                    .into(),
                "o1_step_breakdown".into(),
                t,
            ),
            (
                "O1b: per-step profile, simulated GPU (supplement — FTRAN is latency-bound \
                 by the 2009 cost model)"
                    .into(),
                "o1_gpu_supplement".into(),
                tg,
            ),
        ],
    }
}

/// Hand-rolled JSON (no serde in the tree): per-size share objects plus the
/// trace-validation numbers, written to `BENCH_o1.json` for trend tracking.
fn write_bench_json(cpu: &[Profile], gpu: &[Profile], fingerprints: (u64, u64)) {
    fn profile_json(p: &Profile) -> String {
        let t = &p.rec.timings;
        let shares: Vec<String> = StepKind::ALL
            .iter()
            .map(|k| format!("\"{}\": {:.4}", k.name(), t.fraction(*k)))
            .collect();
        let ranked = t.ranked();
        format!(
            "{{\"m\": {}, \"n\": {}, \"iterations\": {}, \"sim_seconds\": {:.9}, \
             \"wall_seconds\": {:.6}, \"wall_coverage\": {:.4}, \"spans\": {}, \
             \"events_seen\": {}, \"events_dropped\": {}, \"top2\": [\"{}\", \"{}\"], \
             \"shares\": {{{}}}}}",
            p.m,
            p.n,
            p.meas.iterations,
            p.meas.sim_seconds,
            p.solve_wall,
            wall_coverage(p),
            t.spans(),
            p.rec.events.seen(),
            p.rec.events.dropped(),
            ranked[0].name(),
            ranked[1].name(),
            shares.join(", "),
        )
    }

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"experiment\": \"o1\",");
    let _ = writeln!(s, "  \"cpu\": [");
    for (i, p) in cpu.iter().enumerate() {
        let comma = if i + 1 < cpu.len() { "," } else { "" };
        let _ = writeln!(s, "    {}{comma}", profile_json(p));
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"gpu\": [");
    for (i, p) in gpu.iter().enumerate() {
        let comma = if i + 1 < gpu.len() { "," } else { "" };
        let _ = writeln!(s, "    {}{comma}", profile_json(p));
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(
        s,
        "  \"determinism\": {{\"fingerprint_a\": \"{:016x}\", \"fingerprint_b\": \"{:016x}\", \
         \"equal\": {}}}",
        fingerprints.0,
        fingerprints.1,
        fingerprints.0 == fingerprints.1,
    );
    let _ = writeln!(s, "}}");
    match std::fs::write("BENCH_o1.json", &s) {
        Ok(()) => println!("   -> BENCH_o1.json"),
        Err(e) => eprintln!("   !! could not write BENCH_o1.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: the header once hard-coded seven step columns while
    /// every row carries one share per `StepKind::ALL` entry, so the first
    /// `Table::push` panicked with "row width mismatch".
    #[test]
    fn header_width_matches_row_width() {
        let p = profile(8, 24, 7, &Target::cpu());
        assert_eq!(headers().len(), share_row(&p).len());
        let mut t = Table::new(headers());
        t.push(share_row(&p));
    }
}
