//! The benchmark's job path against committed artifacts and known
//! baseline findings.

use std::sync::Arc;

use gplex::pdhg::PdhgOptions;
use gplex::{BackendKind, SolverOptions, Status};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;
use perfbench::arms::{check, solve_job, Algo, Precision};

/// One row of `results/p1_regime_split.csv`, as committed.
struct P1Row {
    backend: String,
    algo: String,
    status: String,
    iters: String,
    restarts: String,
    sim_ms: String,
    objective: String,
}

fn p1_rows(m: &str, density: &str) -> Vec<P1Row> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results/p1_regime_split.csv"
    );
    let text = std::fs::read_to_string(path).expect("committed P1 artifact");
    text.lines()
        .skip(1)
        .map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>())
        .filter(|f| f[0] == m && f[2] == density)
        .map(|f| P1Row {
            backend: f[3].clone(),
            algo: f[4].clone(),
            status: f[5].clone(),
            iters: f[6].clone(),
            restarts: f[7].clone(),
            sim_ms: f[8].clone(),
            objective: f[9].clone(),
        })
        .collect()
}

/// P1's options and corner model, run through the benchmark's own job
/// path, reproduce the committed rows digit for digit.
#[test]
fn p1_large_sparse_corner_reproduces_the_committed_rows() {
    let model = generator::sparse_random(512, 512, 0.005, 41);
    let simplex = Algo::Simplex(SolverOptions::default());
    let pdhg = Algo::Pdhg(PdhgOptions {
        max_iterations: Some(40_000),
        ..Default::default()
    });
    let rows = p1_rows("512", "0.005");
    let mut checked = 0;
    for (label, kind) in [
        ("cpu-sparse", BackendKind::CpuSparse),
        ("gpu-dense", BackendKind::GpuDense(DeviceSpec::gtx280())),
    ] {
        for algo in [&simplex, &pdhg] {
            let sol = solve_job(&model, algo, &kind, Precision::F64, None).expect("P1 solve");
            check(&model, &sol, 1e-6).expect("P1 answer checks");
            let s = &sol.stats;
            let (iters, restarts) = match algo {
                Algo::Simplex(_) => (s.iterations as u64, 0),
                Algo::Pdhg(_) => (s.pdhg_iterations, s.restarts),
            };
            let row = rows
                .iter()
                .find(|r| r.backend == label && r.algo == algo.label())
                .expect("row present in the artifact");
            assert_eq!(sol.status.tag(), row.status, "{label} {}", algo.label());
            assert_eq!(iters.to_string(), row.iters, "{label} {}", algo.label());
            assert_eq!(
                restarts.to_string(),
                row.restarts,
                "{label} {}",
                algo.label()
            );
            let sim_ms = format!("{:.3}", s.total_time().as_secs_f64() * 1e3);
            assert_eq!(sim_ms, row.sim_ms, "{label} {}", algo.label());
            assert_eq!(
                format!("{:.6}", sol.objective),
                row.objective,
                "{label} {}",
                algo.label()
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 4);
    // The figures the benchmark README quotes.
    let find = |b: &str, a: &str| rows.iter().find(|r| r.backend == b && r.algo == a).unwrap();
    assert_eq!(find("cpu-sparse", "simplex").iters, "240");
    assert_eq!(find("cpu-sparse", "pdhg").iters, "8416");
    assert_eq!(find("cpu-sparse", "pdhg").restarts, "10");
    assert_eq!(find("cpu-sparse", "pdhg").sim_ms, "100.474");
    assert_eq!(find("gpu-dense", "pdhg").sim_ms, "132.515");
    assert_eq!(find("gpu-dense", "pdhg").objective, "-232.112227");
}

/// The benchmark's GPU arm runs on a shared device; it charges the same
/// simulated time as a dedicated one.
#[test]
fn shared_device_charges_what_a_dedicated_device_charges() {
    let model = generator::sparse_random(512, 512, 0.005, 41);
    let pdhg = Algo::Pdhg(PdhgOptions {
        max_iterations: Some(40_000),
        ..Default::default()
    });
    let dedicated = BackendKind::GpuDense(DeviceSpec::gtx280());
    let shared = BackendKind::GpuShared(Arc::new(Gpu::new(DeviceSpec::gtx280())));
    let a = solve_job(&model, &pdhg, &dedicated, Precision::F64, None).unwrap();
    let b = solve_job(&model, &pdhg, &shared, Precision::F64, None).unwrap();
    assert_eq!(a.stats.total_time(), b.stats.total_time());
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
}

/// Baseline finding: on this m = 1024 sparse draw, default PDHG stops at
/// its 200,000-iteration cap. The benchmark counts such a pair as failed.
#[test]
fn pdhg_hits_its_iteration_cap_on_the_seed_3_sparse_draw() {
    let model = generator::sparse_random(1024, 1024, 0.005, 3);
    let pdhg = Algo::Pdhg(PdhgOptions::default());
    let sol = solve_job(&model, &pdhg, &BackendKind::CpuSparse, Precision::F64, None).unwrap();
    assert_eq!(sol.status, Status::IterationLimit);
    assert_eq!(sol.stats.pdhg_iterations, 200_000);
    let verdict = check(&model, &sol, 1e-6);
    assert_eq!(verdict, Err("status iter-limit".to_string()));
}
