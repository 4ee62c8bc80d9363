//! Quick calibration probe (not part of the repro suite).
use gplex::{try_solve_standard, BackendKind, NoopRecorder, PivotRule, SolverOptions};
use gpu_sim::DeviceSpec;
use lp::{generator, StandardForm};

fn main() {
    for &m in &[512usize, 1024] {
        let model = generator::dense_random(m, m, 1);
        let sf64 = StandardForm::<f64>::from_lp(&model).unwrap();
        let sf32 = StandardForm::<f32>::from_lp(&model).unwrap();
        let oracle = try_solve_standard::<f64, _>(
            &sf64,
            &SolverOptions {
                presolve: false,
                scale: false,
                ..Default::default()
            },
            &BackendKind::CpuDense,
            None,
            None,
            &mut NoopRecorder,
        )
        .expect("solve");
        for period in [0usize, 256] {
            let opts = SolverOptions {
                pivot_rule: PivotRule::Hybrid,
                presolve: false,
                scale: false,
                refactor_period: period,
                ..Default::default()
            };
            let c = try_solve_standard::<f32, _>(
                &sf32,
                &opts,
                &BackendKind::CpuDense,
                None,
                None,
                &mut NoopRecorder,
            )
            .expect("solve");
            let g = try_solve_standard::<f32, _>(
                &sf32,
                &opts,
                &BackendKind::GpuDense(DeviceSpec::gtx280()),
                None,
                None,
                &mut NoopRecorder,
            )
            .expect("solve");
            println!("m={m:4} p={period:3} cpu[{:?} it={} bland={} degen={} sim={:.2}s] gpu[{:?} it={} sim={:.2}s] spd={:.2} err32_64={:.1e} cpu_gpu_d={:.1e}",
                c.status, c.stats.iterations, c.stats.bland_iterations, c.stats.degenerate_steps,
                c.stats.total_time().as_secs_f64(),
                g.status, g.stats.iterations, g.stats.total_time().as_secs_f64(),
                c.stats.total_time().as_secs_f64() / g.stats.total_time().as_secs_f64(),
                (c.z_std as f64 - oracle.z_std).abs() / oracle.z_std.abs(),
                (c.z_std as f64 - g.z_std as f64).abs() / oracle.z_std.abs());
        }
        println!("    oracle it={} ", oracle.stats.iterations);
    }
}
