//! Determinism guard across runs: two processes given the same seed must
//! report bit-identical simulated times, counts and objectives.
//!
//! family_batch is the workload where this can break: with more than one
//! batch worker the warm cache is raced and pivots and simulated time move
//! between runs. The benchmark runs batches with one worker.

use std::process::Command;

use perfbench::report;

fn run(workload: &str, seed: u64) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest: "))
        .expect("digest line")
        .to_string();
    let result = stdout.lines().last().expect("result line").to_string();
    (digest, result)
}

/// The value of one metric in a result line, as printed.
fn printed(result: &str, metric: &str) -> String {
    let key = format!("\"{metric}\": {{\"value\": ");
    let at = result.find(&key).expect("metric present");
    let rest = &result[at + key.len()..];
    rest[..rest.find(',').expect("value ends")].to_string()
}

#[test]
fn two_runs_of_one_seed_agree_bit_for_bit() {
    let (d1, r1) = run("family_batch", 5);
    let (d2, r2) = run("family_batch", 5);
    assert!(r1.starts_with("{\"correct\": true"), "{r1}");
    assert!(r2.starts_with("{\"correct\": true"), "{r2}");
    assert_eq!(
        d1, d2,
        "simulated times, counts or objectives moved between runs"
    );
    for m in ["sim_s.cpu", "sim_s.gpu", "ok_frac"] {
        assert_eq!(printed(&r1, m), printed(&r2, m), "{m}");
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let (d1, _) = run("family_batch", 5);
    let (d2, _) = run("family_batch", 6);
    assert_ne!(d1, d2);
}

#[test]
fn manifest_lists_the_catalogue() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    let (end_to_end, per_layer) = manifest
        .split_once("\"per_layer\":")
        .expect("a per_layer section after end_to_end");
    let entry = |m: &report::Metric| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        )
    };
    for m in report::end_to_end() {
        let e = entry(&m) + ", \"bound\": ";
        assert!(end_to_end.contains(&e), "end_to_end lacks {e}");
    }
    for m in report::per_layer() {
        let e = entry(&m) + "}";
        assert!(per_layer.contains(&e), "per_layer lacks {e}");
    }
    let listed = manifest.matches("\"name\":").count();
    let catalogue = report::end_to_end().len() + report::per_layer().len();
    assert_eq!(
        listed,
        catalogue + 3,
        "manifest lists 3 workloads plus the catalogue"
    );
}
