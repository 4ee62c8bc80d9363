//! The paper's experiment in miniature: solve the same dense random LP on
//! the CPU baseline and the simulated GTX 280, and print the simulated-time
//! comparison with the device counter report.
//!
//! ```text
//! cargo run --release --example gpu_vs_cpu [m] [n]
//! ```

use gplex::backends::GpuDenseBackend;
use gplex::{RevisedSimplex, Status};
use gplex_suite::paper_opts;
use gpu_sim::{DeviceSpec, Gpu};
use lp::{generator, StandardForm};

fn main() {
    let mut args = std::env::args().skip(1);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(m);

    println!("dense random LP, m = {m}, n = {n}, f32 (the paper's precision)\n");
    let model = generator::dense_random(m, n, 7);
    let sf = StandardForm::<f32>::from_lp(&model).expect("standardizes");
    let opts = paper_opts(m);

    // CPU baseline.
    let cpu = gplex::try_solve_standard::<f32, _>(
        &sf,
        &opts,
        &gplex::BackendKind::CpuDense,
        None,
        None,
        &mut gplex::NoopRecorder,
    )
    .expect("solve");
    assert_eq!(cpu.status, Status::Optimal);
    println!("CPU (modeled Core2-era single core)");
    println!("{}", cpu.stats);

    // Simulated GPU — keep the device handle to read its counters.
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let n_active = sf.num_cols() - sf.num_artificials;
    let mut backend = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
    let gres = RevisedSimplex::new(&mut backend, &sf, &opts)
        .try_solve()
        .expect("solve");
    assert_eq!(gres.status, Status::Optimal);
    println!("GPU (simulated GeForce GTX 280)");
    println!("{}", gres.stats);

    let tc = cpu.stats.total_time().as_secs_f64();
    let tg = gres.stats.total_time().as_secs_f64();
    println!(
        "objective: {:.6} (cpu) vs {:.6} (gpu)",
        cpu.z_std, gres.z_std
    );
    println!(
        "speedup (cpu/gpu): {:.2}x  — the paper's crossover means <1 for small m",
        tc / tg
    );

    println!("\ndevice counters:\n{}", gpu.counters());
}
