//! Helpers shared by the workloads: running SQL text through a local
//! session under spans, reading result tables, digesting inputs, and
//! summing the program's own stage trees.

use crate::harness::{Digest, Metrics};
use crate::spans::Tracer;
use obs::{QueryTrace, Stage};
use solvedbplus_core::Session;
use sqlengine::{parser, ExecResult, Table, Value};
use std::collections::BTreeMap;

/// Parse `sql` and execute it statement by statement — the path a
/// script takes from text to result tables. One span per layer call.
pub fn run_script(s: &mut Session, sql: &str, tracer: &Tracer) -> Result<Vec<ExecResult>, String> {
    let stmts = tracer.span("sqlengine.parser", || parser::parse_statements(sql)).map_err(text)?;
    let mut out = Vec::with_capacity(stmts.len());
    for st in &stmts {
        out.push(tracer.span("core.session", || s.execute_statement(st)).map_err(text)?);
    }
    Ok(out)
}

/// [`run_script`] for a text of one statement: its only result.
pub fn run_statement(s: &mut Session, sql: &str, tracer: &Tracer) -> Result<ExecResult, String> {
    run_script(s, sql, tracer)?.pop().ok_or_else(|| "empty statement".to_string())
}

pub fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn query(s: &mut Session, sql: &str) -> Result<Table, String> {
    s.query(sql).map_err(|e| format!("{sql}: {e}"))
}

/// Column `col` of `t` as floats (NULL is an error).
pub fn floats(t: &Table, col: usize) -> Result<Vec<f64>, String> {
    t.rows.iter().map(|r| r[col].as_f64().map_err(text)).collect()
}

pub fn digest_table(d: &mut Digest, t: &Table) {
    for c in &t.schema.columns {
        d.str(&c.name);
    }
    for row in &t.rows {
        for v in row {
            match v {
                Value::Null => d.bytes(&[0]),
                Value::Int(i) | Value::Timestamp(i) | Value::Interval(i) => d.i64(*i),
                Value::Float(f) => d.f64(*f),
                Value::Bool(b) => d.bytes(&[1 + u8::from(*b)]),
                other => d.str(&format!("{other:?}")),
            }
        }
    }
}

pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// Sums of the program's own stage times and solver counters over a
/// fixed set of statements (so the counts repeat exactly).
#[derive(Debug, Default)]
pub struct StageSums {
    statements: u64,
    nanos: BTreeMap<String, u64>,
    pivots: u64,
    nodes: u64,
    nodes_pruned: u64,
    evaluations: u64,
    presolve_rows: u64,
    presolve_cols: u64,
    presolve_bounds: u64,
}

/// Program stage name → the per-layer metric it feeds.
const STAGES: [(&str, &str); 11] = [
    ("parse", "stage.parse_ms"),
    ("instantiate", "stage.instantiate_ms"),
    ("check", "stage.check_ms"),
    ("compile", "stage.compile_ms"),
    ("presolve", "stage.presolve_ms"),
    ("matrixclass", "stage.matrixclass_ms"),
    ("solve-lp", "stage.solve_lp_ms"),
    ("build", "stage.build_ms"),
    ("search", "stage.search_ms"),
    ("post-process", "stage.post_process_ms"),
    ("wal.append", "stage.wal_append_ms"),
];

impl StageSums {
    pub fn add(&mut self, trace: &QueryTrace) {
        fn walk(stages: &[Stage], into: &mut BTreeMap<String, u64>) {
            for s in stages {
                *into.entry(s.name.clone()).or_default() += s.nanos;
                walk(&s.children, into);
            }
        }
        self.statements += 1;
        *self.nanos.entry("total".into()).or_default() += trace.total_nanos;
        walk(&trace.stages, &mut self.nanos);
        for st in &trace.solvers {
            // `iterations` counts the innermost method's steps; only the
            // LP solver's are simplex pivots.
            if st.solver == "solverlp" {
                self.pivots += st.iterations;
            }
            self.nodes += st.nodes_explored;
            self.nodes_pruned += st.nodes_pruned;
            self.evaluations += st.evaluations;
            self.presolve_rows += st.presolve_rows;
            self.presolve_cols += st.presolve_cols;
            self.presolve_bounds += st.presolve_bounds;
        }
    }

    pub fn add_result(&mut self, r: &ExecResult) {
        if let Some(t) = &r.trace {
            self.add(t);
        }
    }

    fn ms(&self, stage: &str) -> f64 {
        self.nanos.get(stage).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Stage times as the mean per traced statement; solver counters as
    /// totals over the traced statements. Stages the program did not
    /// run are left out.
    pub fn metrics(&self, m: &mut Metrics) {
        if self.statements == 0 {
            return;
        }
        let n = self.statements as f64;
        for (stage, metric) in STAGES {
            if self.nanos.contains_key(stage) {
                m.insert(metric, self.ms(stage) / n);
            }
        }
        m.insert("stage.total_ms", self.ms("total") / n);
        m.insert("stage.statements", n);
        m.insert("solver.pivots", self.pivots as f64);
        m.insert("solver.nodes", self.nodes as f64);
        m.insert("solver.nodes_pruned", self.nodes_pruned as f64);
        m.insert("solver.evaluations", self.evaluations as f64);
        m.insert("solver.presolve_rows", self.presolve_rows as f64);
        m.insert("solver.presolve_cols", self.presolve_cols as f64);
        m.insert("solver.presolve_bounds", self.presolve_bounds as f64);
        if self.evaluations > 0 {
            m.insert("fitness.eval_ms", self.eval_ms());
            m.insert("fitness.evals_per_s", 1e3 / self.eval_ms().max(1e-9));
        }
    }

    /// Mean search time per fitness evaluation, in ms.
    pub fn eval_ms(&self) -> f64 {
        self.ms("search") / (self.evaluations.max(1)) as f64
    }
}

/// Parse time of `texts`, per layer probe: total µs and statements.
pub fn parser_probe(texts: &[&str], tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let t = std::time::Instant::now();
    let mut stmts = 0usize;
    for sql in texts {
        stmts += tracer.span("probe.parser", || parser::parse_statements(sql)).map_err(text)?.len();
    }
    m.insert("parser.parse_us", t.elapsed().as_secs_f64() * 1e6);
    m.insert("parser.stmts", stmts as f64);
    Ok(())
}

/// `core` layer probe on one `SOLVESELECT`: problem instantiation, the
/// static checker, and (for LP-solved statements) the two `EXPLAIN`s
/// that compile and presolve the model without solving it.
pub fn core_probe(
    s: &mut Session,
    solve: &str,
    explain: bool,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    use crate::harness::timed_ms;
    let stmt = match parser::parse_statement(solve).map_err(text)? {
        sqlengine::ast::Statement::Solve(stmt) => stmt,
        other => return Err(format!("expected a SOLVESELECT, parsed {other:?}")),
    };
    let ctes = sqlengine::Ctes::new();
    let (prob, ms) = timed_ms(|| {
        tracer.span("probe.core.problem", || solvedbplus_core::build_problem(s.db(), &ctes, &stmt))
    });
    let prob = prob.map_err(text)?;
    m.insert("core.instantiate_ms", ms);
    m.insert("core.vars", prob.num_vars() as f64);
    m.insert("core.relations", prob.relations.len() as f64);
    let (diags, ms) = timed_ms(|| {
        tracer.span("probe.core.check", || solvedbplus_core::check_stmt(s.db(), &ctes, &stmt))
    });
    m.insert("core.check_ms", ms);
    m.insert("core.diagnostics", diags.map_err(text)?.len() as f64);
    if explain {
        for (metric, prefix) in
            [("core.explain_ms", "EXPLAIN "), ("core.explain_presolve_ms", "EXPLAIN PRESOLVE ")]
        {
            let sql = format!("{prefix}{solve}");
            let (r, ms) = timed_ms(|| tracer.span("probe.core.explain", || s.execute(&sql)));
            r.map_err(text)?;
            m.insert(metric, ms);
        }
    }
    Ok(())
}
