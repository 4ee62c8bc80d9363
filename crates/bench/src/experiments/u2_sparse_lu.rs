//! U2 (extension): sparse-LU basis representation — the m × density sweep
//! against the explicit dense `B⁻¹` and the product-form eta file.
//!
//! Three questions, three tables:
//!
//! * **U2a — basis-operation cost vs (m, density).** Per pivot, the
//!   explicit representation pays two dense O(m²) kernels (FTRAN gemv +
//!   inverse update); the product form still pays a dense O(m²) FTRAN
//!   against `B₀⁻¹` and an O(m) eta append; SparseLU pays
//!   O(nnz(L+U) + m·k) level-scheduled triangular solves plus the same
//!   O(m) eta append. On sparse models the factors stay near the basis
//!   nnz, so the LU path's cost curve detaches from both dense curves as
//!   m grows — the headline crossover is SparseLU winning the
//!   basis-operation cost (FTRAN + update) on every sparse m ≥ 1024
//!   configuration. Runs share one iteration budget so all three
//!   representations price the same workload; reported costs are
//!   per-pivot (reinversion and setup excluded — amortized identically).
//! * **U2b — Markowitz fill-in control vs density.** The threshold-pivot
//!   ordering keeps nnz(L+U) within a small multiple of the basis nnz
//!   instead of the dense m² ceiling; rejections count the stability
//!   overrides. `lu_refactor_nnz` (peak factor size) and `lu_fill_in`
//!   (peak factor growth over the basis) come straight from
//!   `SolveStats`, same counters the metrics registry exports.
//! * **U2c — checkpoint purity.** The eta chain folds into the factors
//!   at every reinversion, so a snapshot is a pure function of the basis:
//!   a solve resumed from a mid-solve checkpoint must replay the tail
//!   pivot-for-pivot and land on bitwise-identical `z` and `x`.
//!
//! Alongside the CSVs, the run emits `BENCH_u2.json` so CI can assert the
//! headline (SparseLU < product-form and < explicit on the sparse
//! m ≥ 1024 rows; factors bounded well under dense; resume bitwise) and
//! track the trend across commits.

use std::fmt::Write as _;

use gplex::backends::GpuDenseBackend;
use gplex::{
    try_solve_standard, BackendKind, BasisRepresentation, CheckpointSlot, NoopRecorder,
    RecoveryContext, RevisedSimplex, SolverOptions, Status, Step,
};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;
use lp::StandardForm;

use crate::table::Table;

use super::ExpReport;

/// One timed solve on the simulated GPU under a chosen representation,
/// reduced to per-pivot step costs plus the LU counters.
struct RepRow {
    status: Status,
    iters: usize,
    /// FTRAN + update: the two steps the representation actually owns.
    basis_ns: f64,
    ftran_ns: f64,
    update_ns: f64,
    pricing_ns: f64,
    pivot_ns: f64,
    max_eta_chain: usize,
    lu_refactor_nnz: u64,
    lu_fill_in: u64,
    markowitz_rejections: u64,
    z_std: f64,
}

fn timed_solve(sf: &StandardForm<f64>, rep: BasisRepresentation, max_iters: usize) -> RepRow {
    let n_active = sf.num_cols() - sf.num_artificials;
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        basis_representation: rep,
        refactor_period: 16,
        max_iterations: Some(max_iters),
        ..Default::default()
    };
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let mut be = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
    let res = RevisedSimplex::new(&mut be, sf, &opts)
        .try_solve()
        .expect("solve");
    let iters = res.stats.iterations.max(1);
    let per_iter = |s: Step| res.stats.time(s).as_nanos() / iters as f64;
    let pivot_ns: f64 = [
        Step::Pricing,
        Step::Selection,
        Step::Ftran,
        Step::RatioTest,
        Step::Update,
    ]
    .iter()
    .map(|s| per_iter(*s))
    .sum();
    RepRow {
        status: res.status,
        iters: res.stats.iterations,
        basis_ns: per_iter(Step::Ftran) + per_iter(Step::Update),
        ftran_ns: per_iter(Step::Ftran),
        update_ns: per_iter(Step::Update),
        pricing_ns: per_iter(Step::Pricing),
        pivot_ns,
        max_eta_chain: res.stats.max_eta_chain,
        lu_refactor_nnz: res.stats.lu_refactor_nnz,
        lu_fill_in: res.stats.lu_fill_in,
        markowitz_rejections: res.stats.markowitz_rejections,
        z_std: res.z_std,
    }
}

/// One (m, density) sweep point: all three representations on one model.
struct SweepPoint {
    m: usize,
    n: usize,
    density: f64,
    explicit: RepRow,
    eta: RepRow,
    sparse_lu: RepRow,
}

struct FillRow {
    density: f64,
    iters: usize,
    refactorizations: usize,
    lu_refactor_nnz: u64,
    lu_fill_in: u64,
    markowitz_rejections: u64,
    /// Peak factor nnz over the dense ceiling m².
    dense_fraction: f64,
}

pub fn run(quick: bool) -> ExpReport {
    // U2a: the crossover sweep. The iteration budget crosses a
    // reinversion boundary (period 16) while keeping the 2048-row dense
    // baselines affordable; quick mode still includes the m = 1024
    // sparse row the CI guardrail pins.
    let sizes: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 2048]
    };
    let densities: &[f64] = if quick { &[0.02] } else { &[0.01, 0.05] };
    let max_iters = 24;

    let mut ta = Table::new(vec![
        "m",
        "n",
        "density",
        "rep",
        "status",
        "iters",
        "basis-us/iter",
        "ftran-us",
        "update-us",
        "pricing-us",
        "pivot-us/iter",
        "max-eta",
        "lu-nnz",
        "vs-explicit",
    ]);
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for &m in sizes {
        for &density in densities {
            let n = m / 2;
            let model = generator::sparse_random(m, n, density, 1);
            let sf = StandardForm::<f64>::from_lp(&model).expect("bench model standardizes");
            let ex = timed_solve(&sf, BasisRepresentation::ExplicitInverse, max_iters);
            let pf = timed_solve(&sf, BasisRepresentation::ProductForm, max_iters);
            let lu = timed_solve(&sf, BasisRepresentation::SparseLU, max_iters);
            for (label, r) in [("explicit", &ex), ("eta", &pf), ("sparse-lu", &lu)] {
                ta.push(vec![
                    m.to_string(),
                    n.to_string(),
                    format!("{density}"),
                    label.to_string(),
                    r.status.tag().to_string(),
                    r.iters.to_string(),
                    format!("{:.2}", r.basis_ns / 1e3),
                    format!("{:.2}", r.ftran_ns / 1e3),
                    format!("{:.2}", r.update_ns / 1e3),
                    format!("{:.2}", r.pricing_ns / 1e3),
                    format!("{:.2}", r.pivot_ns / 1e3),
                    r.max_eta_chain.to_string(),
                    r.lu_refactor_nnz.to_string(),
                    format!("{:.3}", r.basis_ns / ex.basis_ns),
                ]);
            }
            // One iteration budget, one model: a wildly diverging
            // objective would mean the representations priced different
            // workloads and the per-pivot comparison is void.
            let dz = (ex.z_std - lu.z_std).abs() / ex.z_std.abs().max(1.0);
            assert!(
                dz < 1e-6,
                "representations diverged at m={m} d={density}: dz {dz:.2e}"
            );
            sweep.push(SweepPoint {
                m,
                n,
                density,
                explicit: ex,
                eta: pf,
                sparse_lu: lu,
            });
        }
    }

    // U2b: fill-in control. CPU-sparse backend (SparseLU's natural home),
    // density sweep at fixed m, long enough to refactorize repeatedly.
    let fill_m = if quick { 256 } else { 512 };
    let fill_densities: &[f64] = &[0.01, 0.02, 0.05, 0.10];
    let mut tb = Table::new(vec![
        "density",
        "iters",
        "refactors",
        "lu-nnz",
        "fill-in",
        "rejections",
        "nnz/m^2",
    ]);
    let mut fill: Vec<FillRow> = Vec::new();
    for &density in fill_densities {
        let model = generator::sparse_random(fill_m, fill_m / 2, density, 2);
        let sf = StandardForm::<f64>::from_lp(&model).expect("bench model standardizes");
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            basis_representation: BasisRepresentation::SparseLU,
            refactor_period: 8,
            max_iterations: Some(96),
            ..Default::default()
        };
        let slot = CheckpointSlot::new();
        let res = try_solve_standard::<f64, _>(
            &sf,
            &opts,
            &BackendKind::CpuSparse,
            None,
            Some(RecoveryContext {
                slot: &slot,
                resume: None,
            }),
            &mut NoopRecorder,
        )
        .expect("fill sweep solve succeeds");
        let row = FillRow {
            density,
            iters: res.stats.iterations,
            refactorizations: res.stats.refactorizations,
            lu_refactor_nnz: res.stats.lu_refactor_nnz,
            lu_fill_in: res.stats.lu_fill_in,
            markowitz_rejections: res.stats.markowitz_rejections,
            dense_fraction: res.stats.lu_refactor_nnz as f64 / (fill_m * fill_m) as f64,
        };
        tb.push(vec![
            format!("{density}"),
            row.iters.to_string(),
            row.refactorizations.to_string(),
            row.lu_refactor_nnz.to_string(),
            row.lu_fill_in.to_string(),
            row.markowitz_rejections.to_string(),
            format!("{:.4}", row.dense_fraction),
        ]);
        fill.push(row);
    }

    // U2c: checkpoint purity. Snapshot cadence deliberately off the
    // reinversion beat (3 ∤ 7); resumed tail must land bitwise.
    let resume_m = if quick { 96 } else { 192 };
    let resume_bitwise = {
        let model = generator::sparse_random(resume_m, resume_m / 2, 0.05, 3);
        let sf = StandardForm::<f64>::from_lp(&model).expect("bench model standardizes");
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            basis_representation: BasisRepresentation::SparseLU,
            refactor_period: 3,
            checkpoint_interval: 7,
            ..Default::default()
        };
        let kind = BackendKind::CpuSparse;
        let slot = CheckpointSlot::new();
        let solo = try_solve_standard::<f64, _>(
            &sf,
            &opts,
            &kind,
            None,
            Some(RecoveryContext {
                slot: &slot,
                resume: None,
            }),
            &mut NoopRecorder,
        )
        .expect("uninterrupted solve succeeds");
        match slot.checkpoint() {
            None => false,
            Some(cp) => {
                let slot2 = CheckpointSlot::new();
                let resumed = try_solve_standard::<f64, _>(
                    &sf,
                    &opts,
                    &kind,
                    None,
                    Some(RecoveryContext {
                        slot: &slot2,
                        resume: Some(cp),
                    }),
                    &mut NoopRecorder,
                )
                .expect("resumed solve succeeds");
                resumed.status == solo.status
                    && resumed.stats.pivot_fingerprint == solo.stats.pivot_fingerprint
                    && resumed.z_std.to_bits() == solo.z_std.to_bits()
                    && resumed
                        .x_std
                        .iter()
                        .zip(&solo.x_std)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
        }
    };
    let mut tc = Table::new(vec!["m", "density", "resume-bitwise"]);
    tc.push(vec![
        resume_m.to_string(),
        "0.05".to_string(),
        if resume_bitwise { "yes" } else { "NO" }.to_string(),
    ]);

    write_bench_json(&sweep, &fill, fill_m, resume_m, resume_bitwise, max_iters);

    ExpReport {
        id: "u2",
        tables: vec![
            (
                "U2a: basis-op cost vs m × density — explicit vs eta vs sparse LU (GPU, f64)"
                    .into(),
                "u2_crossover".into(),
                ta,
            ),
            (
                format!("U2b: Markowitz fill-in control vs density (cpu-sparse, m={fill_m})"),
                "u2_fill_in".into(),
                tb,
            ),
            (
                "U2c: SparseLU checkpoint purity — resumed solve bitwise vs uninterrupted".into(),
                "u2_resume".into(),
                tc,
            ),
        ],
    }
}

/// Hand-rolled JSON (no serde in the tree), written to `BENCH_u2.json` for
/// the CI guardrail and trend tracking.
fn write_bench_json(
    sweep: &[SweepPoint],
    fill: &[FillRow],
    fill_m: usize,
    resume_m: usize,
    resume_bitwise: bool,
    max_iters: usize,
) {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"experiment\": \"u2\",");
    let _ = writeln!(s, "  \"max_iterations\": {max_iters},");
    let _ = writeln!(s, "  \"crossover\": [");
    for (i, p) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"m\": {}, \"n\": {}, \"density\": {}, \
             \"explicit_basis_ns_per_iter\": {:.3}, \"eta_basis_ns_per_iter\": {:.3}, \
             \"sparse_lu_basis_ns_per_iter\": {:.3}, \"sparse_lu_over_explicit\": {:.6}, \
             \"sparse_lu_over_eta\": {:.6}, \"lu_refactor_nnz\": {}, \"lu_fill_in\": {}, \
             \"markowitz_rejections\": {}}}{comma}",
            p.m,
            p.n,
            p.density,
            p.explicit.basis_ns,
            p.eta.basis_ns,
            p.sparse_lu.basis_ns,
            p.sparse_lu.basis_ns / p.explicit.basis_ns,
            p.sparse_lu.basis_ns / p.eta.basis_ns,
            p.sparse_lu.lu_refactor_nnz,
            p.sparse_lu.lu_fill_in,
            p.sparse_lu.markowitz_rejections,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"fill_in\": {{");
    let _ = writeln!(s, "    \"m\": {fill_m},");
    let _ = writeln!(s, "    \"rows\": [");
    for (i, r) in fill.iter().enumerate() {
        let comma = if i + 1 < fill.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"density\": {}, \"iters\": {}, \"refactorizations\": {}, \
             \"lu_refactor_nnz\": {}, \"lu_fill_in\": {}, \"markowitz_rejections\": {}, \
             \"dense_fraction\": {:.6}}}{comma}",
            r.density,
            r.iters,
            r.refactorizations,
            r.lu_refactor_nnz,
            r.lu_fill_in,
            r.markowitz_rejections,
            r.dense_fraction,
        );
    }
    let _ = writeln!(s, "    ]");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(
        s,
        "  \"resume\": {{\"m\": {resume_m}, \"density\": 0.05, \"bitwise\": {resume_bitwise}}}"
    );
    let _ = writeln!(s, "}}");
    match std::fs::write("BENCH_u2.json", &s) {
        Ok(()) => println!("   -> BENCH_u2.json"),
        Err(e) => eprintln!("   !! could not write BENCH_u2.json: {e}"),
    }
}
