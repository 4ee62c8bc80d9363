//! Metric catalogue, per-layer metric assembly and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gplex::StepKind;
use gpu_sim::TimeCategory;

use crate::arms::{Arm, Pass};
use crate::spans::Tracer;

/// A metric's name, unit and direction.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, reported with tracing off.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("wall_s.cpu", "s", "lower"),
        metric("wall_s.gpu", "s", "lower"),
        metric("sim_s.cpu", "s", "lower"),
        metric("sim_s.gpu", "s", "lower"),
        metric("setup_s", "s", "lower"),
        metric("peak_rss_mb", "MB", "lower"),
        metric("ok_frac", "ratio", "higher"),
    ]
}

/// gpu-sim kernels (and fused launches) the three workloads run, by
/// falling simulated time on seed 1; any other kernel's time is folded into
/// `gpu.kernel.other.sim_s`.
pub const KERNELS: &[&str] = &[
    "pdhg_step",
    "gemv_n",
    "pricing_fused",
    "eta_ftran",
    "eta_btran",
    "update_fused",
    "btran_fused",
    "copy",
    "select_fused",
    "ratio_fused",
    "mega_price",
    "pivot_update",
    "lu_btran",
    "lu_ftran",
    "update_eta_fused",
    "mega_update",
    "batch_ftran",
    "row_extract",
    "eta",
    "lane_scatter",
    "batch_ratio",
    "lane_gather",
    "clamp_nonneg",
];

const STAGES: [&str; 6] = [
    "parse",
    "presolve",
    "standardize",
    "scale",
    "finalize",
    "verify",
];

/// The per-layer metrics, reported by the traced pass.
pub fn per_layer() -> Vec<Metric> {
    let mut v = Vec::new();
    for arm in Arm::BOTH {
        let a = arm.label();
        for stage in STAGES {
            v.push(metric(format!("stage.{stage}_ms.{a}"), "ms", "lower"));
        }
        for k in StepKind::ALL {
            v.push(metric(format!("step.{}.sim_s.{a}", k.name()), "s", "lower"));
            v.push(metric(
                format!("step.{}.wall_ms.{a}", k.name()),
                "ms",
                "lower",
            ));
        }
        for c in ["pivots", "pdhg_iterations", "restarts", "refactorizations"] {
            v.push(metric(format!("solver.{c}.{a}"), "count", "lower"));
        }
        v.push(metric(
            format!("solver.degenerate_frac.{a}"),
            "ratio",
            "lower",
        ));
        v.push(metric(format!("solver.lu_nnz.{a}"), "count", "lower"));
        v.push(metric(
            format!("batch.warm_hit_rate.{a}"),
            "ratio",
            "higher",
        ));
        v.push(metric(
            format!("batch.warm_iterations_saved.{a}"),
            "count",
            "higher",
        ));
    }
    v.extend([
        metric("gpu.kernel_sim_s", "s", "lower"),
        metric("gpu.launch_sim_s", "s", "lower"),
        metric("gpu.pcie_sim_s", "s", "lower"),
        metric("gpu.launches", "count", "lower"),
        metric("gpu.fused_kernels_folded", "count", "higher"),
        metric("gpu.pcie_bytes", "B", "lower"),
        metric("gpu.mem_bytes", "B", "lower"),
        metric("gpu.flops", "count", "lower"),
        metric("gpu.flops_per_byte", "flop/B", "higher"),
        metric("gpu.host_overhead_frac", "ratio", "lower"),
        metric("batch.grouped_frac", "ratio", "higher"),
        metric("batch.mega_rounds", "count", "lower"),
        metric("batch.lane_idle_frac", "ratio", "lower"),
        metric("batch.mega_wall_ms", "ms", "lower"),
        metric("batch.stream_wall_ms", "ms", "lower"),
        metric("trace.overhead_frac", "ratio", "lower"),
        metric("trace.coverage", "ratio", "higher"),
    ]);
    for k in KERNELS.iter().chain(&["other"]) {
        v.push(metric(format!("gpu.kernel.{k}.sim_s"), "s", "lower"));
    }
    v
}

/// Per-layer values of one traced pass. `trace.overhead_frac` and
/// `gpu.host_overhead_frac` compare passes, so the caller fills them in.
pub fn layer_values(pass: &Pass, tracer: &Tracer) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = per_layer().into_iter().map(|x| (x.name, 0.0)).collect();
    let mut set = |name: String, v: f64| {
        let slot = m
            .get_mut(&name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        *slot = v;
    };
    for run in pass.arms() {
        let a = run.arm.label();
        for stage in STAGES {
            let s = tracer
                .stage_s
                .get(&(run.arm, stage))
                .copied()
                .unwrap_or(0.0);
            set(format!("stage.{stage}_ms.{a}"), s * 1e3);
        }
        if let Some(t) = tracer.steps.get(&run.arm) {
            for k in StepKind::ALL {
                let st = t.get(k);
                set(
                    format!("step.{}.sim_s.{a}", k.name()),
                    st.total.as_secs_f64(),
                );
                set(
                    format!("step.{}.wall_ms.{a}", k.name()),
                    st.wall_seconds * 1e3,
                );
            }
        }
        let c = &run.counts;
        set(format!("solver.pivots.{a}"), c.pivots as f64);
        set(
            format!("solver.pdhg_iterations.{a}"),
            c.pdhg_iterations as f64,
        );
        set(format!("solver.restarts.{a}"), c.restarts as f64);
        set(
            format!("solver.refactorizations.{a}"),
            c.refactorizations as f64,
        );
        set(
            format!("solver.degenerate_frac.{a}"),
            ratio(c.degenerate_steps as f64, c.pivots as f64),
        );
        set(format!("solver.lu_nnz.{a}"), c.lu_nnz as f64);
        if let Some(b) = &run.batch {
            let lookups = (b.warm_hits + b.warm_misses) as f64;
            set(
                format!("batch.warm_hit_rate.{a}"),
                ratio(b.warm_hits as f64, lookups),
            );
            set(
                format!("batch.warm_iterations_saved.{a}"),
                b.warm_iterations_saved as f64,
            );
            if run.arm == Arm::Gpu {
                set(
                    "batch.grouped_frac".into(),
                    ratio(b.grouped_jobs as f64, b.jobs as f64),
                );
                set("batch.mega_wall_ms".into(), b.mega_wall_s * 1e3);
                set("batch.stream_wall_ms".into(), b.stream_wall_s * 1e3);
            }
        }
    }
    if let Some(g) = &pass.gpu.gpu {
        let b = &g.breakdown;
        set(
            "gpu.kernel_sim_s".into(),
            b.get(TimeCategory::KernelBody).as_secs_f64(),
        );
        set(
            "gpu.launch_sim_s".into(),
            b.get(TimeCategory::LaunchOverhead).as_secs_f64(),
        );
        set(
            "gpu.pcie_sim_s".into(),
            (b.get(TimeCategory::TransferH2D) + b.get(TimeCategory::TransferD2H)).as_secs_f64(),
        );
        set("gpu.launches".into(), g.kernels_launched as f64);
        set(
            "gpu.fused_kernels_folded".into(),
            g.fused_kernels_folded as f64,
        );
        set("gpu.pcie_bytes".into(), (g.h2d_bytes + g.d2h_bytes) as f64);
        set("gpu.mem_bytes".into(), g.mem_bytes as f64);
        set("gpu.flops".into(), g.flops as f64);
        set(
            "gpu.flops_per_byte".into(),
            ratio(g.flops as f64, g.mem_bytes as f64),
        );
        set("batch.mega_rounds".into(), g.batch_rounds as f64);
        let lanes = (g.batch_lanes_active + g.batch_lanes_idle) as f64;
        set(
            "batch.lane_idle_frac".into(),
            ratio(g.batch_lanes_idle as f64, lanes),
        );
        let mut other = 0.0;
        for (name, k) in &g.per_kernel {
            if KERNELS.contains(name) {
                set(format!("gpu.kernel.{name}.sim_s"), k.time.as_secs_f64());
            } else {
                other += k.time.as_secs_f64();
            }
        }
        set("gpu.kernel.other.sim_s".into(), other);
    }
    let pipeline: f64 = tracer.pipeline_s.values().sum();
    let covered: f64 = tracer.covered_s.values().sum();
    set("trace.coverage".into(), ratio(covered, pipeline));
    m
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(Metric, f64)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (m, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_fits_the_manifest_limits() {
        let mut names: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
        assert!(
            per_layer().len() <= 128,
            "{} per-layer metrics",
            per_layer().len()
        );
        names.extend(per_layer().into_iter().map(|m| m.name));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
