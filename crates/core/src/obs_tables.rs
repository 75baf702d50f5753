//! Queryable observability tables.
//!
//! The metrics the engine records (see the `obs` crate) surface as
//! virtual tables readable with plain `SELECT`, in the spirit of
//! PostgreSQL's `pg_stat_statements`:
//!
//! - `sdb_stat_statements` — per statement-shape execution statistics
//!   (including plan-cache hit/miss counters and latency quantiles);
//! - `sdb_solver_stats` — per (solver, method) telemetry aggregates,
//!   including the last run's incumbent trajectory;
//! - `sdb_metrics` — latency histograms (pipeline stages, WAL append /
//!   fsync, pooled statement latency) with p50/p90/p99/max;
//! - `sdb_sessions` — live connections (non-empty only under
//!   `solvedbd`), including the watchdog `kill` flag;
//! - `sdb_storage` — WAL/checkpoint/recovery state (rows only when a
//!   storage engine is attached, i.e. the session runs with a data
//!   directory).
//!
//! Ordinary tables, views and CTEs shadow these names; the provider is
//! consulted only on a catalog miss.

use obs::{MetricsRegistry, SessionRegistry};
use sqlengine::catalog::VirtualTableProvider;
use sqlengine::table::{Column, Schema, Table};
use sqlengine::types::{DataType, Value};
use std::sync::Arc;
use storage::StorageEngine;

/// Names of the observability tables, sorted.
pub const OBS_TABLE_NAMES: [&str; 5] =
    ["sdb_metrics", "sdb_sessions", "sdb_solver_stats", "sdb_stat_statements", "sdb_storage"];

/// The [`VirtualTableProvider`] exposing the metrics registry (and,
/// when attached by a server, the session registry; and, when running
/// with a data directory, the storage engine).
pub struct ObsTables {
    metrics: Arc<MetricsRegistry>,
    sessions: Option<Arc<SessionRegistry>>,
    storage: Option<Arc<StorageEngine>>,
}

impl ObsTables {
    pub fn new(
        metrics: Arc<MetricsRegistry>,
        sessions: Option<Arc<SessionRegistry>>,
        storage: Option<Arc<StorageEngine>>,
    ) -> ObsTables {
        ObsTables { metrics, sessions, storage }
    }
}

/// `sdb_storage` with no engine attached: same schema, zero rows, so
/// `SELECT * FROM sdb_storage` is valid in ephemeral sessions too.
fn empty_storage_table() -> Table {
    let mut t = StorageEngine::status_schema_table();
    t.rows.clear();
    t
}

fn ms(nanos: u64) -> Value {
    Value::Float(nanos as f64 / 1_000_000.0)
}

fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn stat_statements(metrics: &MetricsRegistry) -> Table {
    let schema = Schema::new(vec![
        Column::new("query", DataType::Text),
        Column::new("calls", DataType::Int),
        Column::new("errors", DataType::Int),
        Column::new("total_ms", DataType::Float),
        Column::new("mean_ms", DataType::Float),
        Column::new("min_ms", DataType::Float),
        Column::new("max_ms", DataType::Float),
        Column::new("p50_ms", DataType::Float),
        Column::new("p95_ms", DataType::Float),
        Column::new("p99_ms", DataType::Float),
        Column::new("rows", DataType::Int),
        Column::new("plan", DataType::Text),
        Column::new("cache_hits", DataType::Int),
        Column::new("cache_misses", DataType::Int),
    ]);
    let rows = metrics
        .statements()
        .into_iter()
        .map(|(shape, s)| {
            vec![
                Value::text(&shape),
                int(s.calls),
                int(s.errors),
                ms(s.total_nanos),
                ms(s.total_nanos.checked_div(s.calls).unwrap_or(0)),
                ms(s.min_nanos),
                ms(s.max_nanos),
                ms(s.latency.p50()),
                ms(s.latency.p95()),
                ms(s.latency.p99()),
                int(s.rows),
                s.last_plan.map(|p| Value::text(format!("{p:016x}"))).unwrap_or(Value::Null),
                int(s.cache_hits),
                int(s.cache_misses),
            ]
        })
        .collect();
    Table::with_rows(schema, rows)
}

fn solver_stats(metrics: &MetricsRegistry) -> Table {
    let schema = Schema::new(vec![
        Column::new("solver", DataType::Text),
        Column::new("method", DataType::Text),
        Column::new("runs", DataType::Int),
        Column::new("total_ms", DataType::Float),
        Column::new("iterations", DataType::Int),
        Column::new("nodes_explored", DataType::Int),
        Column::new("nodes_pruned", DataType::Int),
        Column::new("warm_starts", DataType::Int),
        Column::new("cold_starts", DataType::Int),
        Column::new("dual_pivots", DataType::Int),
        Column::new("refactorizations", DataType::Int),
        Column::new("evaluations", DataType::Int),
        Column::new("distinct_evaluations", DataType::Int),
        Column::new("evals_per_s", DataType::Float),
        Column::new("restarts", DataType::Int),
        Column::new("presolve_cols", DataType::Int),
        Column::new("presolve_rows", DataType::Int),
        Column::new("presolve_bounds", DataType::Int),
        Column::new("blocks", DataType::Int),
        Column::new("matrix_class", DataType::Text),
        Column::new("integrality_proof", DataType::Text),
        Column::new("last_objective", DataType::Float),
        Column::new("incumbents", DataType::Text),
    ]);
    let rows = metrics
        .solvers()
        .into_iter()
        .map(|((solver, method), a)| {
            vec![
                Value::text(&solver),
                Value::text(&method),
                int(a.runs),
                ms(a.total_nanos),
                int(a.iterations),
                int(a.nodes_explored),
                int(a.nodes_pruned),
                int(a.warm_starts),
                int(a.cold_starts),
                int(a.dual_pivots),
                int(a.refactorizations),
                int(a.evaluations),
                int(a.distinct_evaluations),
                if a.evaluations > 0 && a.total_nanos > 0 {
                    Value::Float(a.evaluations as f64 * 1e9 / a.total_nanos as f64)
                } else {
                    Value::Null
                },
                int(a.restarts),
                int(a.presolve_cols),
                int(a.presolve_rows),
                int(a.presolve_bounds),
                int(a.blocks),
                if a.last_matrix_class.is_empty() {
                    Value::Null
                } else {
                    Value::text(&a.last_matrix_class)
                },
                if a.last_integrality_proof.is_empty() {
                    Value::Null
                } else {
                    Value::text(&a.last_integrality_proof)
                },
                a.last_objective.map(Value::Float).unwrap_or(Value::Null),
                if a.last_incumbents.is_empty() {
                    Value::Null
                } else {
                    let traj: Vec<String> =
                        a.last_incumbents.iter().map(|&(at, obj)| format!("{obj}@{at}")).collect();
                    Value::text(format!("[{}]", traj.join(", ")))
                },
            ]
        })
        .collect();
    Table::with_rows(schema, rows)
}

/// One row per latency histogram: every pipeline-stage path recorded by
/// the tracer, plus the pooled per-statement latency as `statement`.
fn metrics_table(metrics: &MetricsRegistry) -> Table {
    let schema = Schema::new(vec![
        Column::new("name", DataType::Text),
        Column::new("count", DataType::Int),
        Column::new("total_ms", DataType::Float),
        Column::new("p50_ms", DataType::Float),
        Column::new("p90_ms", DataType::Float),
        Column::new("p99_ms", DataType::Float),
        Column::new("max_ms", DataType::Float),
    ]);
    let mut rows = Vec::new();
    let pooled = metrics.statement_latency();
    if !pooled.is_empty() {
        rows.push(hist_row("statement", &pooled));
    }
    for (name, h) in metrics.stages() {
        rows.push(hist_row(&name, &h));
    }
    // The plain counters: a count and no latencies, once they move.
    let counters = [
        ("columns_pivoted", metrics.columns_pivoted()),
        ("subqueries_reused", metrics.subqueries_reused()),
        ("rows_copied", metrics.rows_copied()),
    ];
    for (name, count) in counters.into_iter().filter(|(_, count)| *count > 0) {
        let mut row = vec![Value::text(name), int(count)];
        row.resize(schema.len(), Value::Null);
        rows.push(row);
    }
    Table::with_rows(schema, rows)
}

fn hist_row(name: &str, h: &obs::Histogram) -> Vec<Value> {
    vec![
        Value::text(name),
        int(h.count()),
        ms(h.sum()),
        ms(h.p50()),
        ms(h.p90()),
        ms(h.p99()),
        ms(h.max()),
    ]
}

fn sessions_table(sessions: Option<&SessionRegistry>) -> Table {
    let schema = Schema::new(vec![
        Column::new("session_id", DataType::Int),
        Column::new("uptime_ms", DataType::Float),
        Column::new("queries", DataType::Int),
        Column::new("bytes_in", DataType::Int),
        Column::new("bytes_out", DataType::Int),
        Column::new("kill", DataType::Bool),
    ]);
    let rows = sessions
        .map(|reg| {
            reg.snapshot()
                .into_iter()
                .map(|s| {
                    vec![
                        int(s.id),
                        ms(s.uptime_nanos),
                        int(s.queries),
                        int(s.bytes_in),
                        int(s.bytes_out),
                        Value::Bool(s.kill),
                    ]
                })
                .collect()
        })
        .unwrap_or_default();
    Table::with_rows(schema, rows)
}

impl VirtualTableProvider for ObsTables {
    fn names(&self) -> Vec<String> {
        OBS_TABLE_NAMES.iter().map(|s| s.to_string()).collect()
    }

    fn table(&self, name: &str) -> Option<Table> {
        match name {
            "sdb_stat_statements" => Some(stat_statements(&self.metrics)),
            "sdb_solver_stats" => Some(solver_stats(&self.metrics)),
            "sdb_metrics" => Some(metrics_table(&self.metrics)),
            "sdb_sessions" => Some(sessions_table(self.sessions.as_deref())),
            "sdb_storage" => Some(
                self.storage.as_ref().map(|e| e.status_table()).unwrap_or_else(empty_storage_table),
            ),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registries_yield_empty_tables() {
        let p = ObsTables::new(Arc::new(MetricsRegistry::default()), None, None);
        for name in OBS_TABLE_NAMES {
            let t = p.table(name).unwrap();
            assert_eq!(t.num_rows(), 0, "{name}");
            assert!(t.schema.len() >= 5, "{name}");
        }
        assert!(p.table("sdb_nothing").is_none());
    }

    #[test]
    fn solver_rows_carry_aggregates() {
        let metrics = Arc::new(MetricsRegistry::default());
        metrics.record_solver(
            &obs::SolverStats {
                solver: "solverlp".into(),
                method: "bb".into(),
                iterations: 7,
                nodes_explored: 3,
                warm_starts: 2,
                dual_pivots: 5,
                refactorizations: 2,
                presolve_cols: 2,
                presolve_bounds: 4,
                objective: Some(1.5),
                matrix_class: "setpart:2".into(),
                integrality_proof: "network-tu".into(),
                blocks: 3,
                ..obs::SolverStats::default()
            },
            2_000_000,
        );
        let t = ObsTables::new(metrics, None, None).table("sdb_solver_stats").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.rows[0][0], Value::text("solverlp"));
        assert_eq!(t.rows[0][2], Value::Int(1));
        let col = |name: &str| {
            let i = t.schema.columns.iter().position(|c| c.name == name).unwrap();
            t.rows[0][i].clone()
        };
        assert_eq!(col("iterations"), Value::Int(7));
        assert_eq!(col("warm_starts"), Value::Int(2));
        assert_eq!(col("cold_starts"), Value::Int(0));
        assert_eq!(col("dual_pivots"), Value::Int(5));
        assert_eq!(col("refactorizations"), Value::Int(2));
        assert_eq!(col("presolve_cols"), Value::Int(2));
        assert_eq!(col("presolve_bounds"), Value::Int(4));
        assert_eq!(col("blocks"), Value::Int(3));
        assert_eq!(col("matrix_class"), Value::text("setpart:2"));
        assert_eq!(col("integrality_proof"), Value::text("network-tu"));
        assert_eq!(col("last_objective"), Value::Float(1.5));
    }

    #[test]
    fn solver_rows_render_the_incumbent_trajectory() {
        let metrics = Arc::new(MetricsRegistry::default());
        metrics.record_solver(
            &obs::SolverStats {
                solver: "solverlp".into(),
                method: "bb".into(),
                objective: Some(6.5),
                incumbents: vec![(1, 4.0), (3, 6.5)],
                ..obs::SolverStats::default()
            },
            1_000,
        );
        let t = ObsTables::new(metrics, None, None).table("sdb_solver_stats").unwrap();
        let last = t.rows[0].last().unwrap();
        assert_eq!(last, &Value::text("[4@1, 6.5@3]"));
    }

    #[test]
    fn metrics_table_surfaces_stage_and_statement_histograms() {
        let metrics = Arc::new(MetricsRegistry::default());
        metrics.record_stage("wal.fsync", 2_000_000);
        metrics.record_stage("wal.fsync", 4_000_000);
        metrics.record_statement_exec("SELECT ?", 1_000_000, 1, false, None, None);
        metrics.add_columns_pivoted(3);
        metrics.add_subqueries_reused(5);
        metrics.add_rows_copied(7);
        let t = ObsTables::new(metrics, None, None).table("sdb_metrics").unwrap();
        assert_eq!(t.schema.columns[0].name, "name");
        let names: Vec<String> = t.rows.iter().map(|r| format!("{}", r[0])).collect();
        assert!(names.contains(&"statement".to_string()), "{names:?}");
        assert!(names.contains(&"wal.fsync".to_string()), "{names:?}");
        let fsync = t.rows.iter().find(|r| format!("{}", r[0]) == "wal.fsync").unwrap();
        assert_eq!(fsync[1], Value::Int(2));
        let pivoted = &t.rows[t.rows.len() - 3];
        assert_eq!(pivoted[..3], [Value::text("columns_pivoted"), Value::Int(3), Value::Null]);
        let reused = &t.rows[t.rows.len() - 2];
        assert_eq!(reused[..3], [Value::text("subqueries_reused"), Value::Int(5), Value::Null]);
        let copied = t.rows.last().unwrap();
        assert_eq!(copied[..3], [Value::text("rows_copied"), Value::Int(7), Value::Null]);
    }

    #[test]
    fn stat_statements_carry_latency_quantiles() {
        let metrics = Arc::new(MetricsRegistry::default());
        for _ in 0..10 {
            metrics.record_statement_exec("SELECT ?", 1_000_000, 1, false, None, None);
        }
        let t = ObsTables::new(metrics, None, None).table("sdb_stat_statements").unwrap();
        let p50_idx = t.schema.columns.iter().position(|c| c.name == "p50_ms").unwrap();
        match t.rows[0][p50_idx] {
            Value::Float(v) => assert!(v > 0.9 && v < 1.2, "p50 {v}"),
            ref other => panic!("got {other:?}"),
        }
    }
}
