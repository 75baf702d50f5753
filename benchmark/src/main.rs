//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (the driver's form)
//! benchmark run [--seed N] [--workload W] [--traced] [--seconds S] [--repeat R] [--out FILE]
//! benchmark selfcheck [--seed N] [--seconds S]
//! benchmark diff A.json B.json
//! benchmark spec [layers]      print BENCHMARK.json / the per-layer table
//! ```

mod compare;
mod harness;
mod json;
mod spans;
mod spec;
mod sqlutil;
mod stats;
mod workloads;

use harness::{RunOptions, RunOutput};
use json::Json;
use std::process::ExitCode;

/// Seconds a run measures unless told otherwise; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<String>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("--trace")? == "1",
            "--traced" => a.trace = true,
            "--quick" => a.quick = true,
            "--repeat" => {
                a.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => a.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => a.files.push(file.to_string()),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The metrics a run reports, in the order of the spec, with units.
/// The traced run reports every per-layer metric (0 where the layer
/// takes no part in the workload); the untraced run every end-to-end
/// metric.
fn reported(
    out: &RunOutput,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if trace {
        Ok(spec::PER_LAYER
            .iter()
            .map(|m| (m.name, out.metrics.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect())
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let v = out.metrics.get(m.name).copied().filter(|v| v.is_finite() && *v != 0.0);
                v.map(|v| (m.name, v, m.unit)).ok_or(format!("{} was not measured", m.name))
            })
            .collect()
    }
}

fn metrics_json(rows: &[(&'static str, f64, &'static str)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(name, value, unit)| {
                let m = Json::obj(vec![("value", Json::Num(*value)), ("unit", Json::str(unit))]);
                (name.to_string(), m)
            })
            .collect(),
    )
}

/// Run one workload in this process and print its result; the last line
/// of standard output is the result object.
fn run_one(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload.clone().ok_or("--workload is required")?;
    let opts =
        RunOptions { workload, seed: a.seed, seconds: a.seconds, trace: a.trace, quick: a.quick };
    let out = harness::run(&opts, workloads::build)?;
    let rows = reported(&out, a.trace)?;
    for (name, value, unit) in &rows {
        println!("{} {name} {value} {unit}", opts.workload);
    }
    println!("{} input_digest {:016x}", opts.workload, out.digest);
    for why in &out.complaints {
        eprintln!("{}: {why}", opts.workload);
    }
    if let Some(path) = &a.out {
        let full = Json::obj(vec![
            ("workload", Json::str(&opts.workload)),
            ("seed", Json::Num(a.seed as f64)),
            ("traced", Json::Bool(a.trace)),
            ("input_digest", Json::Str(format!("{:016x}", out.digest))),
            ("passes", Json::Num(out.passes as f64)),
            ("correct", Json::Bool(out.correct)),
            ("metrics", metrics_json(&rows)),
            ("spans", spans::to_json(&out.spans, 4096)),
        ]);
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, full.render()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(&rows)),
    ]);
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "selfcheck" | "diff" | "spec")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let outcome = parse_args(rest).and_then(|a| match command {
        "run" => compare::run_all(&a.into()),
        "selfcheck" => compare::selfcheck(&a.into()),
        "diff" => compare::diff(&a.files),
        "spec" => {
            let layers = a.files.first().is_some_and(|f| f == "layers");
            print!(
                "{}",
                if layers { spec::layer_table() } else { spec::benchmark_json().render_pretty() }
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => run_one(&a),
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

impl From<Args> for compare::Plan {
    fn from(a: Args) -> compare::Plan {
        compare::Plan {
            workload: a.workload,
            seed: a.seed,
            seconds: a.seconds,
            traced: a.trace,
            quick: a.quick,
            repeat: a.repeat.max(1),
            out: a.out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, seed: u64, trace: bool) -> RunOutput {
        let opts = RunOptions { workload: workload.into(), seed, seconds: 0.2, trace, quick: true };
        harness::run(&opts, workloads::build).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    /// Every workload at smoke sizes, all correctness checks on, both
    /// the seed the sizes were tuned on and a held-out one.
    #[test]
    fn every_workload_answers_correctly_at_smoke_sizes() {
        for (name, _) in workloads::WORKLOADS {
            for seed in [1, 2] {
                let out = quick(name, seed, false);
                assert!(out.correct, "{name} seed {seed}: {:?}", out.complaints);
                assert!(out.attempted >= 2 && out.failed == 0);
                let rows = reported(&out, false).unwrap();
                assert_eq!(rows.len(), spec::END_TO_END.len());
            }
        }
    }

    #[test]
    fn traced_runs_report_every_layer_metric_and_repeat_their_counts() {
        for (name, _) in workloads::WORKLOADS {
            let (a, b) = (quick(name, 1, true), quick(name, 1, true));
            assert!(a.correct, "{name}: {:?}", a.complaints);
            assert_eq!(a.digest, b.digest, "{name}: same seed, different inputs");
            assert_eq!(reported(&a, true).unwrap().len(), spec::PER_LAYER.len());
            for m in spec::PER_LAYER.iter().filter(|m| m.program_count) {
                assert_eq!(a.metrics.get(m.name), b.metrics.get(m.name), "{name}: {}", m.name);
            }
            for key in a.metrics.keys() {
                assert!(spec::per_layer(key).is_some(), "{name} reports unlisted metric {key}");
            }
            assert!(!a.spans.is_empty(), "{name} recorded no spans");
        }
        assert_ne!(quick("sql_mix", 1, false).digest, quick("sql_mix", 2, false).digest);
    }
}
