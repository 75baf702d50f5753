//! The commands that run more than one workload: `run` (every workload,
//! each in a child process of its own), `selfcheck` (two sets of runs of
//! the same build must agree) and `diff` (two `--out` files, metric by
//! metric, against the bounds).

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

pub struct Plan {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub repeat: usize,
    pub out: Option<String>,
}

impl Plan {
    fn workloads(&self) -> Result<Vec<&'static str>, String> {
        match &self.workload {
            None => Ok(WORKLOADS.iter().map(|w| w.0).collect()),
            Some(name) => WORKLOADS
                .iter()
                .find(|w| w.0 == name)
                .map(|w| vec![w.0])
                .ok_or(format!("unknown workload '{name}'")),
        }
    }
}

/// What one child run reported.
struct Child {
    correct: bool,
    digest: String,
    metrics: Vec<(String, f64, String)>,
    spans: Json,
}

/// Run one workload in a child of this binary, so peak memory and
/// allocator state are the workload's own. The child's metric lines are
/// passed through; its result comes back through a file.
fn child(plan: &Plan, workload: &str, traced: bool) -> Result<Child, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::fs::create_dir_all(".bench_tmp").map_err(|e| format!("create .bench_tmp: {e}"))?;
    let path = PathBuf::from(format!(".bench_tmp/run-{}-{n}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&path)
        .stdout(Stdio::piped());
    if plan.quick {
        cmd.arg("--quick");
    }
    let output = cmd.spawn().and_then(|c| c.wait_with_output()).map_err(|e| format!("spawn: {e}"));
    let text = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(".bench_tmp");
    let output = output?;
    // Everything but the closing result object is for the reader.
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let doc = Json::parse(&text.map_err(|e| format!("{workload}: no result file: {e}"))?)?;
    let metrics = doc
        .get("metrics")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| {
            Some((name.clone(), m.get("value")?.as_f64()?, m.get("unit")?.as_str()?.to_string()))
        })
        .collect();
    Ok(Child {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        digest: doc.get("input_digest").and_then(Json::as_str).unwrap_or("").to_string(),
        metrics,
        spans: doc.get("spans").cloned().unwrap_or(Json::Null),
    })
}

fn environment(plan: &Plan) -> Json {
    let tool = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(tool("rustc", &["--version"]))),
        ("commit", Json::Str(tool("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds)),
        ("traced", Json::Bool(plan.traced)),
        ("repeat", Json::Num(plan.repeat as f64)),
    ])
}

/// `run`: every workload (or one), `--repeat` times each, printing every
/// metric as `workload metric value unit`; `--out` keeps all values.
pub fn run_all(plan: &Plan) -> Result<ExitCode, String> {
    let mut all_correct = true;
    let mut docs = Vec::new();
    for workload in plan.workloads()? {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut digest, mut spans, mut correct) = (String::new(), Json::Null, true);
        for _ in 0..plan.repeat {
            let c = child(plan, workload, plan.traced)?;
            correct &= c.correct;
            for (i, (name, value, unit)) in c.metrics.into_iter().enumerate() {
                if values.len() <= i {
                    values.push((name, unit, Vec::new()));
                }
                values[i].2.push(value);
            }
            (digest, spans) = (c.digest, c.spans);
        }
        println!("{workload} answer_digest_ok {} bool", u8::from(correct));
        all_correct &= correct;
        let metrics = values
            .into_iter()
            .map(|(name, unit, v)| {
                let values = Json::Arr(v.into_iter().map(Json::Num).collect());
                (name, Json::obj(vec![("unit", Json::Str(unit)), ("values", values)]))
            })
            .collect();
        docs.push((
            workload.to_string(),
            Json::obj(vec![
                ("input_digest", Json::Str(digest)),
                ("correct", Json::Bool(correct)),
                ("metrics", Json::Obj(metrics)),
                ("spans", spans),
            ]),
        ));
    }
    if let Some(path) = &plan.out {
        let doc = Json::obj(vec![("env", environment(plan)), ("workloads", Json::Obj(docs))]);
        std::fs::write(path, doc.render()).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `selfcheck`: every workload twice on this build, the second set in
/// reverse order. Fails if an end-to-end metric differs by more than
/// its bound or a program count differs at all.
pub fn selfcheck(plan: &Plan) -> Result<ExitCode, String> {
    let order = plan.workloads()?;
    let mut sets: Vec<BTreeMap<(String, String), f64>> = Vec::new();
    let mut ok = true;
    for reversed in [false, true] {
        let mut set = BTreeMap::new();
        let mut names = order.clone();
        if reversed {
            names.reverse();
        }
        for workload in names {
            for traced in [false, true] {
                let c = child(plan, workload, traced)?;
                if !c.correct {
                    println!("{workload}: answers are wrong");
                    ok = false;
                }
                for (name, value, _) in c.metrics {
                    set.insert((workload.to_string(), name), value);
                }
            }
        }
        sets.push(set);
    }
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "spread"
    );
    for ((workload, name), a) in &sets[0] {
        let Some(b) = sets[1].get(&(workload.clone(), name.clone())) else { continue };
        let spread = if a == b { 0.0 } else { (b - a).abs() / a.abs().min(b.abs()).max(1e-12) };
        let verdict = match (spec::end_to_end(name), spec::per_layer(name)) {
            (Some(m), _) if spread > m.bound => "DIFFERS",
            (Some(_), _) => "ok",
            (_, Some(m)) if m.program_count && a != b => "DIFFERS",
            (_, Some(m)) if m.program_count => "exact",
            _ => "-",
        };
        ok &= verdict != "DIFFERS";
        println!(
            "{workload:<14} {name:<28} {a:>14.6} {b:>14.6} {:>8.2}%  {verdict}",
            spread * 100.0
        );
    }
    println!("selfcheck: {}", if ok { "the two sets agree" } else { "the two sets DISAGREE" });
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The base's own run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare the medians of `a` (base) and `b` (change) for a metric that
/// may worsen by `bound` (a share of the base) before it counts.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if stats::iqr_share(a) > bound || stats::iqr_share(b) > bound {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base.
    let base = ma.abs().max(1e-12);
    let worsening = match better {
        Better::Lower => (mb - ma) / base,
        Better::Higher => (ma - mb) / base,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Bound for per-layer timings, which carry none of their own.
const LAYER_BOUND: f64 = 0.10;

fn values_of(doc: &Json) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out = BTreeMap::new();
    for (workload, w) in doc.get("workloads").map(Json::as_obj).unwrap_or_default() {
        for (name, m) in w.get("metrics").map(Json::as_obj).unwrap_or_default() {
            let values: Vec<f64> = m
                .get("values")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            out.insert((workload.clone(), name.clone()), values);
        }
    }
    out
}

/// `diff A.json B.json`: one row per workload × metric.
pub fn diff(files: &[String]) -> Result<ExitCode, String> {
    let [a, b] = files else { return Err("diff needs exactly two files".into()) };
    let load = |path: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (values_of(&load(a)?), values_of(&load(b)?));
    let mut worse = false;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "change", "delta"
    );
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else { continue };
        let (better, bound) = match (spec::end_to_end(name), spec::per_layer(name)) {
            (Some(m), _) => (m.better, m.bound),
            (_, Some(m)) if m.program_count => (m.better, 0.0),
            (_, Some(m)) => (m.better, LAYER_BOUND),
            _ => continue,
        };
        let v = verdict(va, vb, better, bound);
        // Only a bounded (end-to-end) metric getting worse fails the diff.
        worse |= v == Verdict::Worse && spec::end_to_end(name).is_some();
        let (ma, mb) = (stats::median(va), stats::median(vb));
        let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() * 100.0 };
        println!("{workload:<14} {name:<28} {ma:>14.6} {mb:>14.6} {delta:>+8.2}%  {}", v.label());
    }
    Ok(if worse { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let up = [115.0, 116.0, 114.0, 115.0, 115.5];
        assert_eq!(verdict(&base, &up, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &up, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&up, &base, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &[105.0], Better::Lower, 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &up, Better::Lower, 0.20), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0, 70.0];
        assert_eq!(verdict(&noisy, &[100.0], Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0], &noisy, Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn counts_compare_exactly() {
        assert_eq!(verdict(&[2731.0], &[2731.0], Better::Lower, 0.0), Verdict::Same);
        assert_eq!(verdict(&[2731.0], &[2700.0], Better::Lower, 0.0), Verdict::Better);
        assert_eq!(verdict(&[2731.0], &[2732.0], Better::Lower, 0.0), Verdict::Worse);
    }

    #[test]
    fn diff_reads_out_files() {
        let doc = Json::parse(
            r#"{"workloads": {"sql_mix": {"metrics": {"op_p50_ms": {"unit": "ms", "values": [1.5, 2.5]}}}}}"#,
        )
        .unwrap();
        let v = values_of(&doc);
        assert_eq!(v[&("sql_mix".to_string(), "op_p50_ms".to_string())], vec![1.5, 2.5]);
    }
}
