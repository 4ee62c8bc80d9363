//! Fused-launch acceptance tests (experiment F6): fusing the per-iteration
//! kernel chains changes *accounting only*. The pivot path, the solution
//! bits, and the trace structure must be bitwise-identical between the
//! fused and unfused modes; the simulated time must be strictly lower with
//! fusion on; and the step spans must still cover (essentially) the whole
//! device clock.

use gplex::backends::GpuDenseBackend;
use gplex::trace::TraceRecorder;
use gplex::{try_solve_standard, BackendKind, RevisedSimplex, SolverOptions, Status};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;
use lp::StandardForm;

fn opts(fuse: bool) -> SolverOptions {
    SolverOptions {
        presolve: false,
        scale: false,
        fuse_launches: fuse,
        ..Default::default()
    }
}

/// The T1 grid shape (square dense_random instances, two seeds per size),
/// scaled down so the debug-mode suite stays fast.
const GRID: [(usize, u64); 6] = [(32, 1), (32, 7), (64, 1), (64, 7), (96, 1), (96, 7)];

/// Drive one solve on a dedicated device, returning the result plus the
/// device handle's final counters/clock (post-construction ops only).
fn gpu_solve(
    sf: &StandardForm<f64>,
    fuse: bool,
) -> (gplex::StdResult<f64>, gpu_sim::Counters, TraceRecorder) {
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let n_active = sf.num_cols() - sf.num_artificials;
    let mut be = GpuDenseBackend::try_new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0).unwrap();
    be.set_fuse_launches(fuse);
    // Measure the solve, not the (identical-in-both-modes) setup uploads.
    gpu.reset_counters();
    let mut rec = TraceRecorder::with_events(1 << 16);
    let res = RevisedSimplex::with_recorder(&mut be, sf, &opts(fuse), &mut rec)
        .try_solve()
        .unwrap();
    (res, gpu.counters(), rec)
}

/// (a) Bitwise parity: same pivot fingerprint, same structural trace
/// fingerprint, same solution bits, fused vs unfused, across the grid.
#[test]
fn fused_and_unfused_walk_identical_pivot_paths() {
    for &(m, seed) in &GRID {
        let model = generator::dense_random(m, m, seed);
        let sf = StandardForm::<f64>::from_lp(&model).unwrap();
        let kind = BackendKind::GpuDense(DeviceSpec::gtx280());

        let mut rec_f = TraceRecorder::with_events(1 << 16);
        let fused =
            try_solve_standard::<f64, _>(&sf, &opts(true), &kind, None, None, &mut rec_f).unwrap();
        let mut rec_u = TraceRecorder::with_events(1 << 16);
        let unfused =
            try_solve_standard::<f64, _>(&sf, &opts(false), &kind, None, None, &mut rec_u).unwrap();

        assert_eq!(fused.status, Status::Optimal, "m={m} seed={seed}");
        assert_eq!(fused.status, unfused.status, "m={m} seed={seed}");
        assert_eq!(
            fused.stats.iterations, unfused.stats.iterations,
            "m={m} seed={seed}: iteration counts diverge"
        );
        assert_ne!(fused.stats.pivot_fingerprint, 0, "pivots were recorded");
        assert_eq!(
            fused.stats.pivot_fingerprint, unfused.stats.pivot_fingerprint,
            "m={m} seed={seed}: pivot sequences diverge"
        );
        assert_eq!(
            rec_f.events.structural_fingerprint(),
            rec_u.events.structural_fingerprint(),
            "m={m} seed={seed}: trace structure diverges"
        );
        assert_eq!(
            fused.z_std.to_bits(),
            unfused.z_std.to_bits(),
            "m={m} seed={seed}: objective bits diverge"
        );
        assert_eq!(fused.x_std.len(), unfused.x_std.len());
        for (i, (a, b)) in fused.x_std.iter().zip(&unfused.x_std).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "m={m} seed={seed}: x_std[{i}] bits diverge"
            );
        }
    }
}

/// Within one mode the *full* (timing-sensitive) trace fingerprint is
/// reproducible run-to-run — fusion did not introduce nondeterminism.
#[test]
fn trace_fingerprints_are_deterministic_within_each_mode() {
    let model = generator::dense_random(48, 48, 5);
    let sf = StandardForm::<f64>::from_lp(&model).unwrap();
    for fuse in [true, false] {
        let (_, _, rec1) = gpu_solve(&sf, fuse);
        let (_, _, rec2) = gpu_solve(&sf, fuse);
        assert_eq!(rec1.events.len(), rec2.events.len(), "fuse={fuse}");
        assert_eq!(
            rec1.events.fingerprint(),
            rec2.events.fingerprint(),
            "fuse={fuse}: repeat solves must be bitwise identical"
        );
    }
}

/// (b) Fusion strictly lowers simulated time on every small square
/// instance (m = n well under the CPU/GPU crossover), and strictly lowers
/// the launch and D2H-transfer counts that caused the overhead.
#[test]
fn fusion_strictly_reduces_simulated_time_for_small_lps() {
    for m in [16usize, 48, 96, 160] {
        let model = generator::dense_random(m, m, 11);
        let sf = StandardForm::<f64>::from_lp(&model).unwrap();
        let (res_f, c_f, _) = gpu_solve(&sf, true);
        let (res_u, c_u, _) = gpu_solve(&sf, false);
        assert_eq!(res_f.status, Status::Optimal);
        assert_eq!(res_f.stats.iterations, res_u.stats.iterations, "m={m}");
        assert!(
            c_f.elapsed < c_u.elapsed,
            "m={m}: fused {} must beat unfused {}",
            c_f.elapsed,
            c_u.elapsed
        );
        assert!(
            c_f.kernels_launched < c_u.kernels_launched,
            "m={m}: fused {} launches vs unfused {}",
            c_f.kernels_launched,
            c_u.kernels_launched
        );
        assert!(
            c_f.d2h_count < c_u.d2h_count,
            "m={m}: fused {} D2H transfers vs unfused {}",
            c_f.d2h_count,
            c_u.d2h_count
        );
        assert!(c_f.fused_groups > 0, "m={m}: fusion actually engaged");
        assert_eq!(c_u.fused_groups, 0, "m={m}: ablation actually disabled");
    }
}

/// (c) With fusion on, the step spans still attribute ≥ 99.5% of the
/// device clock — fused groups charge inside the span that issued them,
/// so no time leaks out of the observability ledger.
#[test]
fn fused_span_coverage_stays_above_99_5_percent() {
    for &(m, seed) in &[(48usize, 3u64), (96, 5)] {
        let model = generator::dense_random(m, m, seed);
        let sf = StandardForm::<f64>::from_lp(&model).unwrap();
        let (res, counters, rec) = gpu_solve(&sf, true);
        assert_eq!(res.status, Status::Optimal);
        let clock = counters.elapsed.as_nanos();
        let spans = rec.timings.total_time().as_nanos();
        assert!(clock > 0.0);
        let coverage = spans / clock;
        assert!(
            coverage >= 0.995,
            "m={m} seed={seed}: span coverage {coverage:.4} below 99.5%"
        );
        assert!(
            coverage <= 1.0 + 1e-9,
            "m={m} seed={seed}: spans exceed the device clock ({coverage:.4})"
        );
    }
}
