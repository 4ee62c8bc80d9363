//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary, every failed pair by name, a `digest` line, and as
//! its last line one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. With `--trace 1` it also writes the traced passes' spans to
//! `perfbench/out/`.

use std::process::ExitCode;

use perfbench::inputs::Workload;
use perfbench::{run, Config};

const USAGE: &str = "usage: perfbench --workload <paper_dense|sparse_pipeline|family_batch> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    if cfg.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.json", cfg.workload.name(), cfg.seed);
        let written = std::fs::create_dir_all(dir).and_then(|_| {
            std::fs::write(&path, outcome.tracer.to_json(cfg.workload.name(), cfg.seed))
        });
        match written {
            Ok(()) => println!("spans: {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("digest: {:016x}", outcome.digest);
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
