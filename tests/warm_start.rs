//! Warm-start behavior: reusing a previous solve's basis skips phase 1 and
//! most of phase 2; invalid bases fall back to the cold start without
//! affecting correctness.

use gplex::backends::CpuDenseBackend;
use gplex::Backend as _;
use gplex::{
    try_solve_on, try_solve_on_warm, try_solve_standard, BackendKind, BasisCache, BatchOptions,
    BatchSolver, NoopRecorder, PlacementPolicy, RevisedSimplex, SolverOptions, Status, WarmContext,
    WarmStartPolicy,
};
use gpu_sim::DeviceSpec;
use lp::{generator, LinearProgram, Rel, StandardForm};

fn opts() -> SolverOptions {
    SolverOptions {
        presolve: false,
        scale: false,
        ..Default::default()
    }
}

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ]
}

#[test]
fn restarting_from_the_optimal_basis_takes_zero_iterations() {
    let model = generator::dense_random(20, 30, 8);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    for kind in backends() {
        let cold = try_solve_standard::<f64, _>(&sf, &opts(), &kind, None, None, &mut NoopRecorder)
            .unwrap();
        assert_eq!(cold.status, Status::Optimal, "{kind:?}");
        assert!(cold.stats.iterations > 0);

        let warm = try_solve_standard::<f64, _>(
            &sf,
            &opts(),
            &kind,
            Some(cold.basis.clone()),
            None,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(warm.status, Status::Optimal, "{kind:?}");
        assert_eq!(
            warm.stats.iterations, 0,
            "{kind:?}: optimal basis needs no pivots"
        );
        assert!(
            (warm.z_std - cold.z_std).abs() < 1e-9,
            "{kind:?}: {} vs {}",
            warm.z_std,
            cold.z_std
        );
    }
}

#[test]
fn warm_start_from_perturbed_model_converges_faster() {
    // Solve model A; warm-start model B (same structure, slightly different
    // costs) from A's basis — the classic reoptimization pattern.
    let a = generator::dense_random(24, 36, 5);
    let sf_a = StandardForm::<f64>::from_lp(&a).expect("standardizes");
    let base = try_solve_standard::<f64, _>(
        &sf_a,
        &opts(),
        &BackendKind::CpuDense,
        None,
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    assert_eq!(base.status, Status::Optimal);

    // Perturb the rhs by +5%: the optimal basis stays feasible (scaling b
    // scales β = B⁻¹b by the same positive factor), but the optimal point
    // moves — the classic reoptimization pattern.
    let mut sf_b = sf_a.clone();
    for v in sf_b.b.iter_mut() {
        *v *= 1.05;
    }

    let cold = try_solve_standard::<f64, _>(
        &sf_b,
        &opts(),
        &BackendKind::CpuDense,
        None,
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    let warm = try_solve_standard::<f64, _>(
        &sf_b,
        &opts(),
        &BackendKind::CpuDense,
        Some(base.basis.clone()),
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    assert_eq!(cold.status, Status::Optimal);
    assert_eq!(warm.status, Status::Optimal);
    assert!((cold.z_std - warm.z_std).abs() / cold.z_std.abs().max(1.0) < 1e-9);
    assert!(
        warm.stats.iterations <= cold.stats.iterations,
        "warm {} should not exceed cold {}",
        warm.stats.iterations,
        cold.stats.iterations
    );
}

#[test]
fn singular_warm_basis_falls_back_to_cold_start() {
    let model = generator::dense_random(12, 18, 3);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    let cold = try_solve_standard::<f64, _>(
        &sf,
        &opts(),
        &BackendKind::CpuDense,
        None,
        None,
        &mut NoopRecorder,
    )
    .unwrap();

    // Duplicate column → singular basis.
    let mut bad = cold.basis.clone();
    bad[1] = bad[0];
    let warm = try_solve_standard::<f64, _>(
        &sf,
        &opts(),
        &BackendKind::CpuDense,
        Some(bad),
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    assert_eq!(warm.status, Status::Optimal);
    assert!((warm.z_std - cold.z_std).abs() < 1e-9);
    assert!(warm.stats.iterations > 0, "fallback must actually re-solve");
}

#[test]
fn malformed_warm_basis_is_ignored() {
    let model = generator::dense_random(10, 14, 2);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    let cold = try_solve_standard::<f64, _>(
        &sf,
        &opts(),
        &BackendKind::CpuDense,
        None,
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    // Wrong length and out-of-range columns are both rejected up front.
    for bad in [vec![0usize; 3], vec![sf.num_cols() + 5; sf.num_rows()]] {
        let warm = try_solve_standard::<f64, _>(
            &sf,
            &opts(),
            &BackendKind::CpuDense,
            Some(bad),
            None,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(warm.status, Status::Optimal);
        assert!((warm.z_std - cold.z_std).abs() < 1e-9);
    }
}

#[test]
fn infeasible_warm_basis_falls_back() {
    // A feasible *basis* for the wrong vertex region: pick a basis whose
    // β has negative entries by solving a different rhs sign structure.
    let model = generator::dense_random(8, 12, 4);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    let cold = try_solve_standard::<f64, _>(
        &sf,
        &opts(),
        &BackendKind::CpuDense,
        None,
        None,
        &mut NoopRecorder,
    )
    .unwrap();

    // Shrink the rhs so the old optimal basis becomes primal-infeasible
    // with decent probability; whether or not it does, the answer must be
    // the true optimum of the new problem.
    let mut sf2 = sf.clone();
    for v in sf2.b.iter_mut() {
        *v *= 0.2;
    }
    let cold2 = try_solve_standard::<f64, _>(
        &sf2,
        &opts(),
        &BackendKind::CpuDense,
        None,
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    let warm2 = try_solve_standard::<f64, _>(
        &sf2,
        &opts(),
        &BackendKind::CpuDense,
        Some(cold.basis.clone()),
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    assert_eq!(warm2.status, cold2.status);
    if cold2.status == Status::Optimal {
        assert!((warm2.z_std - cold2.z_std).abs() / cold2.z_std.abs().max(1.0) < 1e-8);
    }
}

// ---------------------------------------------------------------------------
// Warm-path accounting (the invalid-basis fallback sweep).
// ---------------------------------------------------------------------------

/// Regression: an invalid candidate basis must leave a visible audit trail.
/// Before the counters existed, a rejected warm start was indistinguishable
/// from a cold solve in `SolveStats` — `warm_start_rejected` pins the
/// fallback, and `check_invariants` holds the counters to the solve shape.
#[test]
fn rejected_warm_basis_is_a_recorded_cold_fallback() {
    let model = generator::dense_random(12, 18, 3);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    for kind in backends() {
        let cold = try_solve_standard::<f64, _>(&sf, &opts(), &kind, None, None, &mut NoopRecorder)
            .unwrap();
        assert_eq!(cold.stats.warm_start_attempted, 0, "{kind:?}: cold solve");
        assert_eq!(cold.stats.warm_start_rejected, 0, "{kind:?}");

        // Duplicate column → singular candidate → validated, rejected once.
        let mut bad = cold.basis.clone();
        bad[1] = bad[0];
        let warm =
            try_solve_standard::<f64, _>(&sf, &opts(), &kind, Some(bad), None, &mut NoopRecorder)
                .unwrap();
        assert_eq!(warm.status, Status::Optimal, "{kind:?}");
        assert_eq!(warm.stats.warm_start_attempted, 1, "{kind:?}");
        assert_eq!(warm.stats.warm_start_rejected, 1, "{kind:?}");
        assert_eq!(warm.stats.warm_iterations_saved, 0, "{kind:?}");
        assert!(warm.stats.iterations > 0, "{kind:?}: fallback re-solves");
        warm.stats.check_invariants().unwrap();

        // Accepted warm start: attempted without rejection, phase 1 skipped.
        let ok = try_solve_standard::<f64, _>(
            &sf,
            &opts(),
            &kind,
            Some(cold.basis.clone()),
            None,
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(ok.stats.warm_start_attempted, 1, "{kind:?}");
        assert_eq!(ok.stats.warm_start_rejected, 0, "{kind:?}");
        assert_eq!(ok.stats.phase1_iterations, 0, "{kind:?}");
        ok.stats.check_invariants().unwrap();
    }
}

/// Pinning (audit follow-up): the rejected-candidate work — refactorize,
/// probe, restore — is charged exactly once. On the CPU backend the modeled
/// clock only advances inside charged ops, so the per-step totals must equal
/// the backend clock even on the reject-then-cold-solve path; double (or
/// dropped) charges would break the equality.
#[test]
fn rejected_warm_path_charges_land_exactly_once() {
    let model = generator::dense_random(14, 20, 6);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    let n_active = sf.num_cols() - sf.num_artificials;
    let cold = try_solve_standard::<f64, _>(
        &sf,
        &opts(),
        &BackendKind::CpuDense,
        None,
        None,
        &mut NoopRecorder,
    )
    .unwrap();
    let mut bad = cold.basis.clone();
    bad[1] = bad[0];

    let mut be = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
    let o = opts();
    let mut driver = RevisedSimplex::new(&mut be, &sf, &o);
    driver.set_start_basis(bad);
    let res = driver.try_solve().unwrap();
    assert_eq!(res.status, Status::Optimal);
    assert_eq!(res.stats.warm_start_rejected, 1);
    let clock = be.clock().as_nanos();
    let charged = res.stats.total_time().as_nanos();
    assert!(
        (clock - charged).abs() <= 1e-6 * clock.max(1.0),
        "backend clock {clock} ns vs charged {charged} ns — warm-reject work double- or un-charged"
    );
}

// ---------------------------------------------------------------------------
// The basis cache through the full pipeline.
// ---------------------------------------------------------------------------

/// One shared cache across sequential pipeline solves of a perturbed
/// family: the first member misses and seeds the cache, every later member
/// hits, converges in no more iterations, and reports its savings — with
/// objectives bitwise identical to the cold solves (the polish step makes
/// the reported point a pure function of the terminal basis).
#[test]
fn pipeline_cache_turns_family_members_into_warm_solves() {
    let family = generator::perturbed_family(6, 10, 14, 7, 1e-3);
    let opts = SolverOptions::default();
    for kind in backends() {
        let cache = BasisCache::new(16);
        let ctx = WarmContext {
            cache: &cache,
            policy: WarmStartPolicy::Family { tol: 1e-6 },
        };
        let mut iters = Vec::new();
        for (k, lp) in family.iter().enumerate() {
            let warm = try_solve_on_warm::<f64>(lp, &opts, &kind, Some(&ctx), None).unwrap();
            let cold = try_solve_on::<f64>(lp, &opts, &kind).unwrap();
            assert_eq!(warm.status, Status::Optimal, "{kind:?} member {k}");
            assert_eq!(
                warm.objective.to_bits(),
                cold.objective.to_bits(),
                "{kind:?} member {k}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            if k > 0 {
                assert_eq!(warm.stats.warm_start_attempted, 1, "{kind:?} member {k}");
                assert!(
                    warm.stats.iterations <= cold.stats.iterations,
                    "{kind:?} member {k}: warm {} > cold {}",
                    warm.stats.iterations,
                    cold.stats.iterations
                );
            }
            warm.stats.check_invariants().unwrap();
            iters.push(warm.stats.iterations);
        }
        let cs = cache.stats();
        assert_eq!(cs.misses, 1, "{kind:?}: only the seed member misses");
        assert_eq!(cs.hits, family.len() as u64 - 1, "{kind:?}");
        assert!(cs.len >= 1);
        // The family shares one key, so warm solves of sibling members need
        // strictly fewer iterations in aggregate than re-deriving each one.
        let saved: usize = iters[1..].iter().map(|&i| iters[0] - i.min(iters[0])).sum();
        assert!(saved > 0, "{kind:?}: no iterations saved across the family");
    }
}

/// `Exact` keying only re-uses bases across byte-identical re-solves: the
/// perturbed siblings all miss, the repeated member hits.
#[test]
fn exact_policy_only_hits_identical_instances() {
    let family = generator::perturbed_family(3, 8, 10, 11, 1e-3);
    let opts = SolverOptions::default();
    let cache = BasisCache::new(16);
    let ctx = WarmContext {
        cache: &cache,
        policy: WarmStartPolicy::Exact,
    };
    for lp in &family {
        let sol =
            try_solve_on_warm::<f64>(lp, &opts, &BackendKind::CpuDense, Some(&ctx), None).unwrap();
        assert_eq!(sol.status, Status::Optimal);
    }
    assert_eq!(cache.stats().hits, 0, "perturbed siblings are not exact");
    let again =
        try_solve_on_warm::<f64>(&family[0], &opts, &BackendKind::CpuDense, Some(&ctx), None)
            .unwrap();
    assert_eq!(again.stats.warm_start_attempted, 1);
    assert_eq!(again.stats.iterations, 0, "exact re-solve restarts at opt");
    assert_eq!(cache.stats().hits, 1);
}

// ---------------------------------------------------------------------------
// The batch scheduler's warm path.
// ---------------------------------------------------------------------------

/// The headline path: a single-worker batch over a perturbed family with
/// `Family` keying hits the cache on every member after the first, saves
/// iterations, and produces objectives bitwise identical to the same batch
/// run cold.
#[test]
fn batch_family_warm_start_hits_and_saves_iterations() {
    let jobs = generator::perturbed_family(8, 10, 14, 21, 1e-3);
    let mk = |warm_start| {
        BatchSolver::new(BatchOptions {
            workers: 1,
            policy: PlacementPolicy::Fixed(BackendKind::CpuDense),
            warm_start,
            ..Default::default()
        })
        .solve::<f64>(&jobs)
    };
    let cold = mk(WarmStartPolicy::Off);
    let warm = mk(WarmStartPolicy::Family { tol: 1e-6 });
    assert!(cold.all_solved() && warm.all_solved());

    // Off: the warm counters stay at their seed-behavior zeros.
    assert_eq!(cold.stats.warm_hits, 0);
    assert_eq!(cold.stats.warm_misses, 0);
    assert_eq!(cold.stats.warm_iterations_saved, 0);
    assert!(cold.results.iter().all(|r| !r.warm_hit && !r.warm_rejected));

    // Family: one seed miss, then hits all the way down.
    assert_eq!(warm.stats.warm_misses, 1);
    assert_eq!(warm.stats.warm_hits, jobs.len() as u64 - 1);
    assert!(warm.stats.warm_hit_rate() > 0.5);
    assert_eq!(warm.stats.warm_rejected, 0);
    assert!(warm.stats.warm_iterations_saved > 0);
    assert!(!warm.results[0].warm_hit);
    for r in &warm.results[1..] {
        assert!(r.warm_hit, "job {} missed within its family", r.index);
    }

    // Same answers, bit for bit.
    for (c, w) in cold.results.iter().zip(&warm.results) {
        let (cs, ws) = (c.outcome.solution().unwrap(), w.outcome.solution().unwrap());
        assert_eq!(cs.status, ws.status);
        assert_eq!(
            cs.objective.to_bits(),
            ws.objective.to_bits(),
            "job {}",
            c.index
        );
    }
    // And the warm batch did strictly less simplex work.
    let total_iters = |rep: &gplex::BatchReport| -> usize {
        rep.results
            .iter()
            .map(|r| r.outcome.solution().unwrap().stats.iterations)
            .sum()
    };
    assert!(total_iters(&warm) < total_iters(&cold));
}

/// Accounting sweep: warm-start bookkeeping must not double-charge the
/// batch clocks or leak into fault/quarantine accounting. Per-backend wall
/// seconds stay the exact sum of per-job wall seconds (cache-hit jobs
/// counted once), and a warm rejection is not a device fault.
#[test]
fn batch_warm_accounting_stays_single_counted() {
    let jobs = generator::perturbed_family(6, 9, 12, 33, 1e-3);
    let report = BatchSolver::new(BatchOptions {
        workers: 2,
        policy: PlacementPolicy::Fixed(BackendKind::CpuDense),
        warm_start: WarmStartPolicy::Family { tol: 1e-6 },
        ..Default::default()
    })
    .solve::<f64>(&jobs);
    assert!(report.all_solved());

    // Every job tallied exactly once under its backend.
    let tallied_jobs: usize = report.stats.per_backend.values().map(|t| t.jobs).sum();
    assert_eq!(tallied_jobs, jobs.len());
    let tallied_wall: f64 = report
        .stats
        .per_backend
        .values()
        .map(|t| t.wall_seconds)
        .sum();
    let job_wall: f64 = report.results.iter().map(|r| r.wall_seconds).sum();
    assert!(
        (tallied_wall - job_wall).abs() <= 1e-12 * job_wall.max(1.0),
        "per-backend wall {tallied_wall} vs per-job wall {job_wall}"
    );

    // Cache hits are not faults, retries, or degradations.
    assert!(report.stats.warm_hits > 0);
    assert_eq!(report.stats.device_faults, 0);
    assert_eq!(report.stats.retries, 0);
    assert_eq!(report.stats.degradations, 0);

    // Lookup ledger balances: every job looked up exactly once (no panics
    // in this batch), and per-job flags agree with the cache's counters.
    assert_eq!(
        report.stats.warm_hits + report.stats.warm_misses,
        jobs.len() as u64
    );
    let flagged_hits = report.results.iter().filter(|r| r.warm_hit).count() as u64;
    assert_eq!(flagged_hits, report.stats.warm_hits);
    let saved: u64 = report.results.iter().map(|r| r.warm_iterations_saved).sum();
    assert_eq!(saved, report.stats.warm_iterations_saved);
    for r in &report.results {
        r.outcome
            .solution()
            .unwrap()
            .stats
            .check_invariants()
            .unwrap();
    }
}

/// Regression: the warm-start feasibility probe must run against the
/// *unclamped* basic solution. Backends clamp β at zero inside
/// `refactorize` (reinversion exists to purge noise mid-solve), so a probe
/// that reads the backend's β back would accept a basis whose true
/// `B⁻¹ b` has negative components — and phase 2 would then "converge" in
/// zero pivots at a primal-infeasible point with a better-than-optimal
/// objective.
///
/// The pair below shares one constraint matrix (so the `Family` key
/// matches) but swaps the right-hand sides: the seed's optimal basis
/// binds the wrong row for the sibling and is primal-infeasible there
/// (basic slack value −1). The sibling's warm attempt must be rejected
/// and fall back cold to the true optimum.
#[test]
fn primal_infeasible_cached_basis_is_rejected_not_clamped_feasible() {
    let build = |name: &str, b0: f64, b1: f64| {
        let mut m = LinearProgram::new(name);
        let x = m.add_var_nonneg("x", -1.0);
        m.add_constraint("r0", &[(x, 1.0)], Rel::Le, b0);
        m.add_constraint("r1", &[(x, 1.0)], Rel::Le, b1);
        m
    };
    let seed = build("seed", 1.0, 2.0); // optimum x = 1, r0 binding
    let sibling = build("sibling", 2.0, 1.0); // optimum x = 1, r1 binding

    // Presolve/scale off: the tiny models must reach the solver verbatim
    // so both map to the same standard form shape and family key.
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        ..Default::default()
    };
    let cache = BasisCache::new(4);
    let ctx = WarmContext {
        cache: &cache,
        policy: WarmStartPolicy::Family { tol: 1e-6 },
    };

    let cold_seed =
        try_solve_on_warm::<f64>(&seed, &opts, &BackendKind::CpuDense, Some(&ctx), None).unwrap();
    assert_eq!(cold_seed.status, Status::Optimal);
    assert_eq!(cache.stats().insertions, 1, "seed optimum enters the cache");

    let warm = try_solve_on_warm::<f64>(&sibling, &opts, &BackendKind::CpuDense, Some(&ctx), None)
        .unwrap();
    let cold = try_solve_on::<f64>(&sibling, &opts, &BackendKind::CpuDense).unwrap();

    assert_eq!(cache.stats().hits, 1, "siblings share a family key");
    assert_eq!(warm.stats.warm_start_attempted, 1);
    assert_eq!(
        warm.stats.warm_start_rejected, 1,
        "infeasible cached basis must be rejected, not clamped feasible"
    );
    assert_eq!(warm.status, Status::Optimal);
    assert_eq!(
        warm.objective.to_bits(),
        cold.objective.to_bits(),
        "rejected warm start must reproduce the cold answer exactly: \
         warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert!(
        sibling.check_feasible(&warm.x, 1e-9).is_none(),
        "warm-path answer must satisfy the sibling's own constraints"
    );
    warm.stats.check_invariants().unwrap();
}
