//! End-to-end integration tests spanning every crate: model → presolve →
//! standard form → scaling → revised simplex (all backends) → recovery →
//! independent verification.

use gplex::{solve, tableau, try_solve_on, verify, BackendKind, PivotRule, SolverOptions, Status};
use gplex_suite::{paper_opts, rel_err};
use gpu_sim::DeviceSpec;
use lp::generator::{self, fixtures};
use lp::{LinearProgram, Rel, Sense, StandardForm};

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ]
}

#[test]
fn fixtures_solve_identically_on_every_backend_and_precision() {
    let cases = [
        fixtures::wyndor(),
        fixtures::two_phase(),
        fixtures::diet(),
        fixtures::production(),
        fixtures::degenerate(),
        fixtures::beale_cycling(),
    ];
    for (model, expected) in cases {
        for kind in backends() {
            let s64 = try_solve_on::<f64>(&model, &SolverOptions::default(), &kind).unwrap();
            assert_eq!(s64.status, Status::Optimal, "{} {kind:?} f64", model.name);
            assert!(
                rel_err(s64.objective, expected) < 1e-7,
                "{} {kind:?} f64: {} vs {expected}",
                model.name,
                s64.objective
            );
            verify::check_solution(&model, &s64, 1e-7).expect("f64 solution verifies");

            let s32 = try_solve_on::<f32>(&model, &SolverOptions::default(), &kind).unwrap();
            assert_eq!(s32.status, Status::Optimal, "{} {kind:?} f32", model.name);
            assert!(
                rel_err(s32.objective, expected) < 1e-3,
                "{} {kind:?} f32: {} vs {expected}",
                model.name,
                s32.objective
            );
        }
    }
}

#[test]
fn pipeline_toggles_do_not_change_the_optimum() {
    let model = generator::dense_random(20, 28, 11);
    let reference = solve::<f64>(&model, &SolverOptions::default());
    assert_eq!(reference.status, Status::Optimal);
    for presolve in [false, true] {
        for scale in [false, true] {
            for rule in [PivotRule::Dantzig, PivotRule::Bland, PivotRule::Hybrid] {
                let opts = SolverOptions {
                    presolve,
                    scale,
                    pivot_rule: rule,
                    ..Default::default()
                };
                let sol = solve::<f64>(&model, &opts);
                assert_eq!(
                    sol.status,
                    Status::Optimal,
                    "presolve={presolve} scale={scale}"
                );
                assert!(
                    rel_err(sol.objective, reference.objective) < 1e-7,
                    "presolve={presolve} scale={scale} rule={rule:?}: {} vs {}",
                    sol.objective,
                    reference.objective
                );
            }
        }
    }
}

#[test]
fn revised_simplex_agrees_with_tableau_oracle_on_random_instances() {
    for seed in 0..6 {
        let (m, n) = (10 + seed as usize * 5, 14 + seed as usize * 4);
        let model = generator::dense_random(m, n, seed);
        let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        let oracle = tableau::solve_standard(&sf, &paper_opts(m));
        assert_eq!(oracle.status, Status::Optimal);
        for kind in backends() {
            let sol = try_solve_on::<f64>(&model, &paper_opts(m), &kind).unwrap();
            assert_eq!(sol.status, Status::Optimal, "seed {seed} {kind:?}");
            assert!(
                rel_err(sol.objective, sf.objective_from_std(oracle.z_std)) < 1e-7,
                "seed {seed} {kind:?}"
            );
        }
    }
}

#[test]
fn infeasible_and_unbounded_agree_across_backends_without_presolve() {
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        ..Default::default()
    };
    for kind in backends() {
        let inf = try_solve_on::<f64>(&fixtures::infeasible(), &opts, &kind).unwrap();
        assert_eq!(inf.status, Status::Infeasible, "{kind:?}");
        let unb = try_solve_on::<f64>(&fixtures::unbounded(), &opts, &kind).unwrap();
        assert_eq!(unb.status, Status::Unbounded, "{kind:?}");
    }
}

#[test]
fn degenerate_network_problems_solve_on_gpu() {
    // Assignment problems are massively degenerate; transportation adds a
    // redundant row. Both must survive the GPU path end to end.
    let assign = generator::assignment(6, 3);
    let sol = try_solve_on::<f64>(
        &assign,
        &SolverOptions::default(),
        &BackendKind::GpuDense(DeviceSpec::gtx280()),
    )
    .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    verify::check_solution(&assign, &sol, 1e-6).expect("assignment verifies");
    // Integral optimum (total assignment cost is a sum of integer costs).
    assert!((sol.objective - sol.objective.round()).abs() < 1e-6);

    let transport = generator::transportation(&[5.0, 9.0, 6.0], &[7.0, 5.0, 8.0], 13);
    let sol = try_solve_on::<f64>(
        &transport,
        &SolverOptions::default(),
        &BackendKind::GpuDense(DeviceSpec::gtx280()),
    )
    .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    verify::check_solution(&transport, &sol, 1e-6).expect("transportation verifies");
}

#[test]
fn multi_period_staircase_solves_and_verifies_on_all_backends() {
    let model = generator::multi_period_production(10, 7);
    let mut objectives = Vec::new();
    for kind in backends() {
        let sol = try_solve_on::<f64>(&model, &SolverOptions::default(), &kind).unwrap();
        assert_eq!(sol.status, Status::Optimal, "{kind:?}");
        verify::check_solution(&model, &sol, 1e-6).expect("verifies");
        objectives.push(sol.objective);
    }
    for pair in objectives.windows(2) {
        assert!(rel_err(pair[0], pair[1]) < 1e-8);
    }
    // Sanity: total cost at least cheapest-rate × total demand.
    let total_demand: f64 = model.constraints().iter().map(|c| c.rhs).sum();
    assert!(objectives[0] >= total_demand * 1.0 - 1e-6);
}

#[test]
fn bounded_variables_and_free_variables_round_trip() {
    // min −x − 2y + z with −3 ≤ x ≤ 3, y free, z ≥ 1, x + y + z ≤ 10,
    // y ≤ 4. Optimum: x = 3, y = 4, z = 1 → −3 − 8 + 1 = −10.
    let mut model = LinearProgram::new("bounds");
    let x = model.add_var("x", -3.0, 3.0, -1.0);
    let y = model.add_var("y", f64::NEG_INFINITY, f64::INFINITY, -2.0);
    let z = model.add_var("z", 1.0, f64::INFINITY, 1.0);
    model.add_constraint("cap", &[(x, 1.0), (y, 1.0), (z, 1.0)], Rel::Le, 10.0);
    model.add_constraint("ycap", &[(y, 1.0)], Rel::Le, 4.0);
    for kind in backends() {
        let sol = try_solve_on::<f64>(&model, &SolverOptions::default(), &kind).unwrap();
        assert_eq!(sol.status, Status::Optimal, "{kind:?}");
        assert!(
            rel_err(sol.objective, -10.0) < 1e-8,
            "{kind:?}: {}",
            sol.objective
        );
        assert!((sol.x[0] - 3.0).abs() < 1e-8);
        assert!((sol.x[1] - 4.0).abs() < 1e-8);
        assert!((sol.x[2] - 1.0).abs() < 1e-8);
    }
}

#[test]
fn maximization_sign_handling_is_consistent() {
    let mut model = LinearProgram::new("max").with_sense(Sense::Max);
    let x = model.add_var_nonneg("x", 2.0);
    let y = model.add_var_nonneg("y", 3.0);
    model.add_constraint("c1", &[(x, 1.0), (y, 2.0)], Rel::Le, 14.0);
    model.add_constraint("c2", &[(x, 3.0), (y, -1.0)], Rel::Ge, 0.0);
    model.add_constraint("c3", &[(x, 1.0), (y, -1.0)], Rel::Le, 2.0);
    // Known optimum: x = 6, y = 4 → 24.
    let sol = solve::<f64>(&model, &SolverOptions::default());
    assert_eq!(sol.status, Status::Optimal);
    assert!(rel_err(sol.objective, 24.0) < 1e-8, "{}", sol.objective);
}

#[test]
fn mps_round_trip_preserves_the_optimum() {
    for seed in [3u64, 17] {
        let model = generator::dense_random(9, 13, seed);
        let text = lp::mps::write(&model);
        let reparsed = lp::mps::parse(&text).expect("round trip parses");
        let a = solve::<f64>(&model, &SolverOptions::default());
        let b = solve::<f64>(&reparsed, &SolverOptions::default());
        assert_eq!(a.status, Status::Optimal);
        assert_eq!(b.status, Status::Optimal);
        assert!(rel_err(a.objective, b.objective) < 1e-9);
    }
}

#[test]
fn klee_minty_is_exponential_under_dantzig_linear_under_bland() {
    let opts_d = SolverOptions {
        pivot_rule: PivotRule::Dantzig,
        presolve: false,
        scale: false,
        ..Default::default()
    };
    for n in [4usize, 6, 8] {
        let model = generator::klee_minty(n);
        let sol = solve::<f64>(&model, &opts_d);
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.stats.iterations, (1 << n) - 1, "KM({n}) under Dantzig");
        assert!(rel_err(sol.objective, generator::klee_minty_optimum(n)) < 1e-9);

        let opts_b = SolverOptions {
            pivot_rule: PivotRule::Bland,
            ..opts_d.clone()
        };
        let bl = solve::<f64>(&model, &opts_b);
        assert_eq!(bl.status, Status::Optimal);
        assert!(
            bl.stats.iterations < (1 << n) - 1 || n <= 4,
            "Bland should shortcut KM({n}): {} iterations",
            bl.stats.iterations
        );
    }
}

#[test]
fn gpu_sparse_and_dense_cpu_agree_on_sparse_instances() {
    let model = generator::sparse_random(40, 60, 0.1, 5);
    let opts = SolverOptions::default();
    let dense = try_solve_on::<f64>(&model, &opts, &BackendKind::CpuDense).unwrap();
    let sparse = try_solve_on::<f64>(&model, &opts, &BackendKind::CpuSparse).unwrap();
    let gpu =
        try_solve_on::<f64>(&model, &opts, &BackendKind::GpuDense(DeviceSpec::gtx280())).unwrap();
    assert_eq!(dense.status, Status::Optimal);
    assert_eq!(sparse.status, Status::Optimal);
    assert_eq!(gpu.status, Status::Optimal);
    assert!(rel_err(dense.objective, sparse.objective) < 1e-8);
    assert!(rel_err(dense.objective, gpu.objective) < 1e-8);
}
