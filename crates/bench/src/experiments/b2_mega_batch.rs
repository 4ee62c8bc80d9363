//! B2 (extension): the SoA mega-batch kernel backend vs stream-per-job.
//!
//! The block-per-LP backend ([`gplex::BatchKernelBackend`]) runs an entire
//! same-shape family in lockstep: one batched kernel chain per simplex
//! iteration for the *whole* family, against the stream-per-job baseline
//! that charges a full kernel chain per iteration *per member*. B2 sweeps
//! batch width × LP size and reports, per cell:
//!
//! * **launches/iter** for both paths — the mechanism. Stream-per-job is
//!   flat in width; the SoA path amortizes the chain over every active
//!   lane, so its per-iteration launch bill falls like `1/width`;
//! * **sim time & speedup** on the modeled clock — the consequence. The
//!   crossover where the SoA path overtakes stream-per-job (small LPs,
//!   width ≥ 16) is the headline table;
//! * **bitwise** — every mega member's objective is bit-identical to a
//!   solo cpu-dense solve of the same model (the lockstep kernels replay
//!   the serial arithmetic exactly), plus the worst stream-vs-solo
//!   relative divergence for context.
//!
//! Width 1 is kept in the sweep as a negative control: shape singletons
//! fall back to stream-per-job (`grouped = 0`), so both columns coincide.
//!
//! Writes `results/b2_mega_batch.csv` and `BENCH_b2.json`; the CI
//! guardrail parses the JSON and fails if, at width ≥ 16, the SoA path
//! does not charge strictly fewer launches/iter than stream-per-job, any
//! member goes unsolved, or bitwise parity with the solo solve breaks.

use std::fmt::Write as _;
use std::sync::Arc;

use gplex::batch::PlacementPolicy;
use gplex::{try_solve_on, BackendKind, BatchOptions, BatchReport, BatchSolver, Status};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;

use crate::table::{fmt_secs, Table};

use super::ExpReport;

/// One (batch width × LP size) cell: stream-per-job vs mega-batch.
struct CellPoint {
    width: usize,
    m: usize,
    n: usize,
    stream_launches: u64,
    mega_launches: u64,
    stream_iters: u64,
    mega_iters: u64,
    stream_sim: f64,
    mega_sim: f64,
    grouped: usize,
    mega_groups: usize,
    all_solved: bool,
    /// Every mega member bit-identical (status + objective) to solo cpu-dense.
    mega_bitwise: bool,
    /// Worst stream-vs-solo relative objective divergence (context only).
    stream_max_rel: f64,
}

impl CellPoint {
    fn stream_lpi(&self) -> f64 {
        self.stream_launches as f64 / self.stream_iters.max(1) as f64
    }
    fn mega_lpi(&self) -> f64 {
        self.mega_launches as f64 / self.mega_iters.max(1) as f64
    }
    fn sim_speedup(&self) -> f64 {
        if self.mega_sim == 0.0 {
            1.0
        } else {
            self.stream_sim / self.mega_sim
        }
    }
}

/// One cold batch run on a fresh shared device, so the device counters
/// are exactly this run's launch bill.
fn run_batch(jobs: &[lp::LinearProgram], dev: Arc<Gpu>, mega: bool) -> BatchReport {
    BatchSolver::new(BatchOptions {
        workers: 1,
        policy: PlacementPolicy::Fixed(BackendKind::GpuShared(dev)),
        mega_batch: mega,
        ..Default::default()
    })
    .solve::<f64>(jobs)
}

fn total_iters(rep: &BatchReport) -> u64 {
    rep.results
        .iter()
        .map(|r| {
            r.outcome
                .solution()
                .map(|s| s.stats.iterations as u64)
                .unwrap_or(0)
        })
        .sum()
}

fn measure_cell(width: usize, m: usize, n: usize, seed: u64) -> CellPoint {
    let jobs = generator::perturbed_family(width, m, n, seed, 1e-3);

    let solo: Vec<_> = jobs
        .iter()
        .map(|j| {
            try_solve_on::<f64>(j, &Default::default(), &BackendKind::CpuDense).expect("solve")
        })
        .collect();

    let stream_dev = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let stream = run_batch(&jobs, stream_dev.clone(), false);
    let mega_dev = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let mega = run_batch(&jobs, mega_dev.clone(), true);

    let mut mega_bitwise = true;
    let mut stream_max_rel = 0.0f64;
    for ((s, g), o) in stream.results.iter().zip(&mega.results).zip(&solo) {
        // Bitwise parity is a property of the lockstep kernels; members the
        // pre-pass sent down the stream fallback (shape singletons) are held
        // to the same rel tolerance as the stream column instead.
        if g.backend == "batch-kernel" {
            match g.outcome.solution() {
                Some(gs) if gs.status == o.status => {
                    mega_bitwise &= gs.objective.to_bits() == o.objective.to_bits();
                }
                _ => mega_bitwise = false,
            }
        }
        if let Some(ss) = s.outcome.solution() {
            if o.status == Status::Optimal {
                let rel = ((ss.objective - o.objective) / o.objective.abs().max(1.0)).abs();
                stream_max_rel = stream_max_rel.max(rel);
            }
        } else {
            stream_max_rel = f64::INFINITY;
        }
    }

    CellPoint {
        width,
        m,
        n,
        stream_launches: stream_dev.counters().kernels_launched,
        mega_launches: mega_dev.counters().kernels_launched,
        stream_iters: total_iters(&stream),
        mega_iters: total_iters(&mega),
        stream_sim: stream.stats.sim_total.as_secs_f64(),
        mega_sim: mega.stats.sim_total.as_secs_f64(),
        grouped: mega.stats.grouped_jobs,
        mega_groups: mega.stats.mega_groups,
        all_solved: stream.all_solved() && mega.all_solved(),
        mega_bitwise,
        stream_max_rel,
    }
}

pub fn run(quick: bool) -> ExpReport {
    let widths: &[usize] = if quick { &[4, 16] } else { &[1, 4, 16, 64] };
    let sizes: &[(usize, usize)] = if quick {
        &[(4, 6), (8, 12)]
    } else {
        &[(4, 6), (8, 12), (16, 24)]
    };

    let mut t = Table::new(vec![
        "width",
        "lp",
        "stream-l/it",
        "mega-l/it",
        "launch-ratio",
        "grouped",
        "stream-sim",
        "mega-sim",
        "sim-speedup",
        "winner",
        "bitwise",
        "stream-max-rel",
    ]);

    let mut points: Vec<CellPoint> = Vec::new();
    for &(m, n) in sizes {
        for &width in widths {
            let p = measure_cell(width, m, n, 2009 + width as u64);
            t.push(vec![
                p.width.to_string(),
                format!("{m}x{n}"),
                format!("{:.2}", p.stream_lpi()),
                format!("{:.2}", p.mega_lpi()),
                format!("{:.2}x", p.stream_lpi() / p.mega_lpi().max(1e-12)),
                format!("{}/{}", p.grouped, p.width),
                fmt_secs(p.stream_sim),
                fmt_secs(p.mega_sim),
                format!("{:.3}", p.sim_speedup()),
                if p.sim_speedup() > 1.0 {
                    "mega"
                } else {
                    "stream"
                }
                .into(),
                p.mega_bitwise.to_string(),
                format!("{:.1e}", p.stream_max_rel),
            ]);
            points.push(p);
        }
    }

    for p in &points {
        if !p.all_solved || !p.mega_bitwise {
            eprintln!(
                "   !! {}x({}x{}): all_solved={} mega_bitwise={}",
                p.width, p.m, p.n, p.all_solved, p.mega_bitwise
            );
        }
    }

    write_bench_json(&points);

    ExpReport {
        id: "b2",
        tables: vec![(
            "B2: SoA mega-batch vs stream-per-job — launches per iteration and \
             sim-time crossover over batch width × LP size (dense perturbed \
             families, f64, cold)"
                .into(),
            "b2_mega_batch".into(),
            t,
        )],
    }
}

/// Hand-rolled JSON (no serde in the tree), written to `BENCH_b2.json`.
/// CI parses `cells[].{width,stream_launches_per_iter,mega_launches_per_iter,
/// all_solved,mega_bitwise,grouped}` as the anti-regression guardrail.
fn write_bench_json(points: &[CellPoint]) {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"experiment\": \"b2\",");
    let _ = writeln!(s, "  \"cells\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"width\": {}, \"m\": {}, \"n\": {}, \
             \"stream_launches\": {}, \"mega_launches\": {}, \
             \"stream_iters\": {}, \"mega_iters\": {}, \
             \"stream_launches_per_iter\": {:.4}, \"mega_launches_per_iter\": {:.4}, \
             \"stream_sim_seconds\": {:.6e}, \"mega_sim_seconds\": {:.6e}, \
             \"sim_speedup\": {:.4}, \"grouped\": {}, \"mega_groups\": {}, \
             \"all_solved\": {}, \"mega_bitwise\": {}, \"stream_max_rel\": {:.6e}}}{comma}",
            p.width,
            p.m,
            p.n,
            p.stream_launches,
            p.mega_launches,
            p.stream_iters,
            p.mega_iters,
            p.stream_lpi(),
            p.mega_lpi(),
            p.stream_sim,
            p.mega_sim,
            p.sim_speedup(),
            p.grouped,
            p.mega_groups,
            p.all_solved,
            p.mega_bitwise,
            p.stream_max_rel
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    match std::fs::write("BENCH_b2.json", &s) {
        Ok(()) => println!("   -> BENCH_b2.json"),
        Err(e) => eprintln!("   !! could not write BENCH_b2.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_16_cell_meets_the_guardrail() {
        let p = measure_cell(16, 4, 6, 2025);
        assert!(p.all_solved);
        assert!(p.mega_bitwise);
        assert_eq!(p.grouped, 16);
        assert_eq!(p.mega_groups, 1);
        assert!(
            p.mega_lpi() < p.stream_lpi(),
            "SoA must charge strictly fewer launches/iter at width 16: \
             mega {:.3} vs stream {:.3}",
            p.mega_lpi(),
            p.stream_lpi()
        );
    }

    #[test]
    fn width_1_falls_back_to_stream_per_job() {
        let p = measure_cell(1, 4, 6, 7);
        assert!(p.all_solved);
        assert!(p.mega_bitwise);
        assert_eq!(p.grouped, 0);
        assert_eq!(p.mega_groups, 0);
    }
}
