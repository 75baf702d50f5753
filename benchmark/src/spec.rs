//! The metrics the benchmark reports: names, units, directions, bounds
//! and (per layer) the end-to-end metric each should move. The root
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Reported by every workload in the untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program itself reports; must repeat exactly between
    /// runs of the same code on the same seed.
    pub program_count: bool,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
}

const fn timing(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, program_count: false, moves }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, program_count: true, moves }
}

const fn share(name: &'static str, count: bool, moves: &'static str) -> PerLayer {
    PerLayer { name, unit: "share", better: Better::Higher, program_count: count, moves }
}

/// Reported by every workload in the traced run; 0 where a layer does
/// not take part in the workload.
pub const PER_LAYER: [PerLayer; 89] = [
    // The op-latency tail and the op classes: user-visible, but either
    // workload-specific or too unsteady between seeds to carry a bound.
    timing("op.tail_ms", "ms", "the tail behind op_p50_ms"),
    timing("op.tail_pct", "%", "which percentile op.tail_ms is"),
    timing("op.samples", "count", "sample count behind op_p50_ms"),
    timing("op.passes", "count", "whole passes over the ring that fitted"),
    timing("op.fail_share", "share", "failed or wrong-answer ops; 0 on a correct program"),
    timing("op.raw_p50_ms", "ms", "median op time as measured, before calibration"),
    timing(
        "box.slowdown",
        "x",
        "median slowdown of the calibration kernels: the box's speed, 1 = nominal",
    ),
    timing("read_p50_ms", "ms", "op_p50_ms on sql_mix, serve_mix"),
    timing("read_p90_ms", "ms", "op_p50_ms on sql_mix, serve_mix"),
    timing("write_p50_ms", "ms", "ops_per_s on sql_mix, serve_mix"),
    timing("solve_p50_ms", "ms", "ops_per_s on serve_mix"),
    timing("conn_open_p50_ms", "ms", "ops_per_s on serve_mix"),
    count("wal_bytes_per_row", "B", "write_p50_ms on serve_mix"),
    timing("obs.trace_overhead_share", "share", "what the benchmark's own spans cost"),
    // datagen
    timing("datagen.gen_ms", "ms", "setup_s everywhere"),
    // sqlengine.parser
    timing("parser.parse_us", "us", "read_p50_ms on sql_mix, serve_mix"),
    count("parser.stmts", "count", "statements behind parser.parse_us"),
    // sqlengine.plan + exec
    timing("exec.select_ms", "ms", "read_p50_ms on sql_mix"),
    timing("exec.plan_only_us", "us", "read_p50_ms on sql_mix"),
    timing("exec.insert_us_per_row", "us", "write_p50_ms on sql_mix"),
    timing("exec.delete_ms", "ms", "write_p50_ms on sql_mix"),
    count("exec.rows_out", "count", "rows behind exec.select_ms"),
    share("exec.plan_cache_hit_share", true, "read_p50_ms on sql_mix"),
    share("exec.columnar_share", true, "read_p50_ms on sql_mix"),
    // core
    timing("core.instantiate_ms", "ms", "op_p50_ms on uc1_plan"),
    count("core.vars", "count", "model size behind core.*"),
    count("core.relations", "count", "model size behind core.*"),
    timing("core.check_ms", "ms", "op_p50_ms on uc1_plan"),
    count("core.diagnostics", "count", "findings of the static checker"),
    timing("core.explain_ms", "ms", "op_p50_ms on uc1_plan"),
    timing("core.explain_presolve_ms", "ms", "op_p50_ms on uc1_plan"),
    // The program's own stage tree (mean per traced statement).
    timing("stage.total_ms", "ms", "the traced statement as a whole"),
    count("stage.statements", "count", "statements behind stage.* and solver.*"),
    timing("stage.parse_ms", "ms", "op_p50_ms; tiny everywhere"),
    timing("stage.instantiate_ms", "ms", "op_p50_ms on uc1_plan"),
    timing("stage.check_ms", "ms", "op_p50_ms on uc1_plan"),
    timing("stage.compile_ms", "ms", "op_p50_ms on uc1_plan"),
    timing("stage.presolve_ms", "ms", "op_p50_ms on uc1_plan"),
    timing("stage.matrixclass_ms", "ms", "op_p50_ms on uc1_plan"),
    timing("stage.solve_lp_ms", "ms", "op_p50_ms on uc1_regress, uc2_knapsack, uc1_plan"),
    timing("stage.build_ms", "ms", "op_p50_ms on uc1_fit"),
    timing("stage.search_ms", "ms", "op_p50_ms on uc1_fit"),
    timing("stage.post_process_ms", "ms", "op_p50_ms; tiny everywhere"),
    timing("stage.wal_append_ms", "ms", "write_p50_ms on serve_mix"),
    count("solver.pivots", "count", "op_p50_ms on uc1_regress, uc2_knapsack"),
    count("solver.nodes", "count", "op_p50_ms on uc2_knapsack"),
    count("solver.nodes_pruned", "count", "op_p50_ms on uc2_knapsack"),
    count("solver.evaluations", "count", "op_p50_ms on uc1_fit"),
    count("solver.presolve_rows", "count", "stage.solve_lp_ms"),
    count("solver.presolve_cols", "count", "stage.solve_lp_ms"),
    count("solver.presolve_bounds", "count", "stage.solve_lp_ms"),
    // lp, on problems the benchmark builds itself
    timing("lp.solve_ms", "ms", "op_p50_ms on uc1_regress"),
    timing("lp.solve_half_ms", "ms", "growth exponent of lp.solve_ms"),
    count("lp.pivots", "count", "op_p50_ms on uc1_regress, uc2_knapsack"),
    timing("lp.pivot_us", "us", "op_p50_ms on uc1_regress, uc2_knapsack"),
    timing("lp.mip_ms", "ms", "op_p50_ms on uc2_knapsack"),
    count("lp.mip_nodes", "count", "op_p50_ms on uc2_knapsack"),
    count("lp.pivots_per_node", "count", "op_p50_ms on uc2_knapsack"),
    timing("lp.analyze_us", "us", "stage.matrixclass_ms"),
    // core.blackbox
    timing("fitness.eval_ms", "ms", "op_p50_ms on uc1_fit"),
    timing("fitness.eval_half_ms", "ms", "growth exponent of fitness.eval_ms"),
    PerLayer {
        name: "fitness.evals_per_s",
        unit: "1/s",
        better: Better::Higher,
        program_count: false,
        moves: "ops_per_s on uc1_fit",
    },
    // globalopt
    timing("globalopt.sa_iter_us", "us", "shows the search loop is ~0 of uc1_fit"),
    // forecast
    timing("forecast.arima_item_ms", "ms", "setup_s on uc2_knapsack"),
    // sqlengine.wire
    timing("wire.encode_us", "us", "read_p50_ms on serve_mix"),
    timing("wire.decode_us", "us", "read_p50_ms on serve_mix"),
    count("wire.bytes_per_row", "B", "read_p50_ms on serve_mix"),
    // server
    timing("server.ping_us", "us", "the round-trip floor under read_p50_ms on serve_mix"),
    timing("server.conn_open_p90_us", "us", "conn_open_p50_ms on serve_mix"),
    timing("server.read_p99_ms", "ms", "read_p50_ms on serve_mix"),
    timing("server.write_p99_ms", "ms", "write_p50_ms on serve_mix"),
    timing("server.solve_p90_ms", "ms", "solve_p50_ms on serve_mix"),
    timing("server.local_read_p50_ms", "ms", "read_p50_ms on serve_mix minus server and wire"),
    timing("server.local_write_p50_ms", "ms", "write_p50_ms on serve_mix minus server and wire"),
    timing("server.local_solve_p50_ms", "ms", "solve_p50_ms on serve_mix minus server and wire"),
    // storage
    count("storage.wal_bytes", "B", "write_p50_ms on serve_mix"),
    count("storage.wal_records", "count", "write_p50_ms on serve_mix"),
    count("storage.commits", "count", "write_p50_ms on serve_mix"),
    count("storage.fsyncs", "count", "write_p50_ms on serve_mix; 0 under flush policy never"),
    timing("storage.append_us", "us", "write_p50_ms on serve_mix"),
    timing("storage.recover_ms", "ms", "conn_open_p50_ms on serve_mix"),
    timing(
        "storage.replayed_records",
        "count",
        "storage.recover_ms; grows with the passes that fitted",
    ),
    timing("storage.checkpoint_ms", "ms", "storage.recover_ms after a checkpoint"),
    timing(
        "storage.snapshot_bytes",
        "B",
        "storage.checkpoint_ms; grows with the passes that fitted",
    ),
    // The benchmark's own spans: self time per layer boundary, per op.
    timing("span.parser_self_ms", "ms", "self time of sqlengine.parser spans per op"),
    timing("span.session_self_ms", "ms", "self time of core.session spans per op"),
    timing("span.client_self_ms", "ms", "self time of server.client spans per op"),
    timing("span.connect_self_ms", "ms", "self time of server.connect spans per op"),
    timing("span.op_self_ms", "ms", "op time no layer span covers, per op"),
];

/// The benchmark's directory and the command that runs it, as the root
/// `BENCHMARK.json` states them.
pub const PATH: &str = "benchmark";
pub const COMMAND: [&str; 7] =
    ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// The root `BENCHMARK.json`, generated from the tables above so the
/// file and the binary cannot drift apart (`benchmark spec` prints it).
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(s)).collect());
    Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&[PATH])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The per-layer metrics as a table: what each is, whether the program
/// counts it, and which end-to-end metric it should move.
pub fn layer_table() -> String {
    let mut out =
        String::from("| metric | unit | program count | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        let counted = if m.program_count { "yes" } else { "" };
        out.push_str(&format!("| `{}` | {} | {counted} | {} |\n", m.name, m.unit, m.moves));
    }
    out
}

/// `input_digest` of the full-size inputs for the two seeds the sizes
/// were tuned and checked on. A run on one of these seeds whose digest
/// differs is not measuring the inputs its baseline was measured on
/// (a generator changed) and is marked incorrect.
const INPUT_DIGESTS: [(&str, u64, u64); 12] = [
    ("uc1_regress", 1, 0xac57d18f83a10d4d),
    ("uc1_fit", 1, 0x2247d12081ca840e),
    ("uc1_plan", 1, 0x573e0562c04a4f08),
    ("uc2_knapsack", 1, 0xb9ad9db2e467044c),
    ("sql_mix", 1, 0xa5d4f446ca6c1234),
    ("serve_mix", 1, 0x0ab17128a77eafd2),
    ("uc1_regress", 2, 0xd549c676abf10225),
    ("uc1_fit", 2, 0x77f197c97083b77e),
    ("uc1_plan", 2, 0x9072809139d3bf46),
    ("uc2_knapsack", 2, 0x4e9be6a4d98db8d5),
    ("sql_mix", 2, 0x874f686f77b56d6d),
    ("serve_mix", 2, 0x9e3087e3918554b1),
];

pub fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    INPUT_DIGESTS.iter().find(|d| d.0 == workload && d.1 == seed).map(|d| d.2)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for (name, why) in crate::workloads::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is too long");
        }
    }

    /// `BENCHMARK.json` at the repo root is `benchmark spec`, verbatim.
    #[test]
    fn root_benchmark_json_is_in_step() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).unwrap(),
            benchmark_json(),
            "run `benchmark spec > BENCHMARK.json`"
        );
        assert!(text.len() < 64 * 1024);
    }
}
