//! End-to-end observability tests: `EXPLAIN ANALYZE`, execution traces
//! on results, and the queryable metrics tables.

use obs::Stage;
use solvedbplus_core::Session;
use sqlengine::{Table, Value};

const SETUP: &str = "CREATE TABLE vars (x float8, y float8); \
                     INSERT INTO vars VALUES (NULL, NULL)";

const SOLVE: &str = "SOLVESELECT v(x, y) AS (SELECT * FROM vars) \
                     MINIMIZE (SELECT 2*x + 3*y FROM v) \
                     SUBJECTTO (SELECT x + y >= 10, x >= 0, y >= 0 FROM v) \
                     USING solverlp()";

fn text_column(t: &Table, col: &str) -> Vec<String> {
    t.column_values(col)
        .unwrap()
        .iter()
        .map(|v| match v {
            Value::Text(s) => s.to_string(),
            other => other.to_string(),
        })
        .collect()
}

fn stage_names(stages: &[Stage], out: &mut Vec<String>) {
    for s in stages {
        out.push(s.name.clone());
        stage_names(&s.children, out);
    }
}

#[test]
fn solve_results_carry_a_trace() {
    let mut s = Session::new();
    s.execute_script(SETUP).unwrap();
    let res = s.execute(SOLVE).unwrap();
    let trace = res.trace.expect("SOLVESELECT should be traced");
    assert_eq!(trace.label, "SOLVESELECT");
    let mut names = Vec::new();
    stage_names(&trace.stages, &mut names);
    for expected in ["parse", "plan", "instantiate", "compile", "check", "solve", "post-process"] {
        assert!(names.iter().any(|n| n == expected), "missing stage {expected} in {names:?}");
    }
    // The analyzer's passes, one span each, in the order they run.
    let passes: Vec<&str> =
        names.iter().filter_map(|n| n.strip_prefix("check.")).collect::<Vec<_>>();
    assert_eq!(
        passes,
        [
            "constants",
            "duplicates",
            "unbounded",
            "unreferenced",
            "propagate",
            "structure",
            "matrix"
        ]
    );
    // Every stage took measurable time and the tree fits in the total.
    let root_sum: u64 = trace.stages.iter().map(|s| s.nanos).sum();
    assert!(trace.stages.iter().all(|s| s.nanos >= 1));
    assert!(root_sum <= trace.total_nanos, "{root_sum} > {}", trace.total_nanos);
    // The LP solver reported telemetry.
    assert_eq!(trace.solvers.len(), 1);
    let st = &trace.solvers[0];
    assert_eq!(st.solver, "solverlp");
    assert_eq!(st.method, "simplex");
    assert!(st.iterations > 0);
    assert_eq!(st.objective, Some(20.0));
}

#[test]
fn explain_analyze_renders_the_stage_tree() {
    let mut s = Session::new();
    s.execute_script(SETUP).unwrap();
    let t = s.query(&format!("EXPLAIN ANALYZE {SOLVE}")).unwrap();
    let plan = text_column(&t, "plan").join("\n");
    for expected in [
        "query: SOLVESELECT",
        "-> parse:",
        "    -> check.propagate:",
        "-> solve:",
        "solver solverlp",
        "rows out: 1",
    ] {
        assert!(plan.contains(expected), "missing {expected:?} in:\n{plan}");
    }
    // Timings render in milliseconds with nonzero precision.
    assert!(plan.contains(" ms"), "no timings in:\n{plan}");
    // EXPLAIN ANALYZE executed the statement, so the metrics saw a solver run.
    let runs = s.query("SELECT runs FROM sdb_solver_stats").unwrap();
    assert_eq!(runs.rows.len(), 1);
    assert_eq!(runs.rows[0][0], Value::Int(1));
}

#[test]
fn solve_lp_says_how_the_simplex_started() {
    // The P2 script of UC1 (paper §4.1) over six hours: free
    // coefficients and errors, two rows per hour.
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE hist (outtemp float8, hr float8, pvsupply float8);
         INSERT INTO hist VALUES (1, 0, 0), (2, 5, 2), (5, 9, 7), (4, 12, 9), (2, 15, 4), (1, 20, 0)",
    )
    .unwrap();
    let t = s
        .query(
            "EXPLAIN ANALYZE SOLVESELECT p(b0, b1, b2) AS                (SELECT NULL::float8 AS b0, NULL::float8 AS b1, NULL::float8 AS b2)              WITH e(err) AS (SELECT outtemp, hr, pvsupply, NULL::float8 AS err FROM hist)              MINIMIZE (SELECT sum(err) FROM e)              SUBJECTTO (SELECT -1*err <= (b0 + b1*outtemp + b2*hr - pvsupply) <= err FROM e, p)              USING solverlp.cbc()",
        )
        .unwrap();
    let plan = text_column(&t, "plan");
    // `start=S structural/C singleton/L slack/A artificial
    // phase1_pivots=P` over 12 rows: the six free error columns at least
    // start basic, no column is a singleton, and fewer rows than all
    // need an artificial.
    let note = start_note(&plan);
    let (start, phase1_pivots) = note.split_once("  phase1_pivots=").expect("phase1_pivots");
    let counts: Vec<(usize, &str)> = start
        .split('/')
        .map(|part| part.split_once(' ').expect("count and kind"))
        .map(|(count, kind)| (count.parse().expect("a count"), kind))
        .collect();
    let [(structural, "structural"), (singleton, "singleton"), (slack, "slack"), (artificial, "artificial")] =
        counts[..]
    else {
        panic!("start note: {note}");
    };
    assert_eq!(structural + singleton + slack + artificial, 12, "{note}");
    assert_eq!(singleton, 0, "{note}");
    assert!(structural >= 6 && artificial < 12, "{note}");
    let phase1_pivots: usize = phase1_pivots.trim().parse().expect("a pivot count");
    assert_eq!(phase1_pivots > 0, artificial > 0, "{note}");
}

/// The `start=` note of the `solve-lp` line of an `EXPLAIN ANALYZE`.
fn start_note(plan: &[String]) -> String {
    let line = plan.iter().find(|l| l.contains("-> solve-lp:")).expect("a solve-lp stage");
    let note = line.split("start=").nth(1).unwrap_or_else(|| panic!("no start note: {line}"));
    note.trim().to_string()
}

/// The inputs of UC1 P4 over a cold 24-hour horizon: the last known
/// indoor temperature, the outdoor forecast, the PV forecast and the
/// HVAC model's parameters.
fn hvac_plan_session() -> Session {
    let mut s = Session::new();
    let hour = |k: usize| format!("'2017-01-02 {k:02}:00'");
    let horizon: Vec<String> = (0..24)
        .map(|k| format!("({}, {}, NULL, NULL)", hour(k), 2.0 + 4.0 * (k as f64 / 4.0).sin()))
        .collect();
    let pv: Vec<String> = (0..24)
        .map(|k| format!("({}, {})", hour(k), (3000.0 * ((k as f64 - 6.0) / 4.0).sin()).max(0.0)))
        .collect();
    s.execute_script(&format!(
        "CREATE TABLE hist (time timestamp, intemp float8);
         INSERT INTO hist VALUES ('2017-01-01 23:00', 21.5);
         CREATE TABLE horizon (time timestamp, outtemp float8, intemp float8, hload float8);
         INSERT INTO horizon VALUES {};
         CREATE TABLE pv_forecast (time timestamp, pvsupply float8);
         INSERT INTO pv_forecast VALUES {};
         CREATE TABLE hvac_pars (a1 float8, b1 float8, b2 float8);
         INSERT INTO hvac_pars VALUES (0.9, 0.08, 0.00045)",
        horizon.join(", "),
        pv.join(", ")
    ))
    .unwrap();
    s
}

/// UC1 P4 as `benchmark/sql/s_3ss_p4.sql` states it (paper §4.4): the
/// dynamics a recursive CDTE, the temperature in [20, 25] and the load
/// in [0, 17 000].
const HVAC_PLAN: &str = "SOLVESELECT t(hload, intemp) AS
  (SELECT h.time, h.outtemp, h.intemp, h.hload, f.pvsupply
   FROM horizon h JOIN pv_forecast f ON f.time = h.time)
WITH sim AS (
  WITH RECURSIVE s(time, x) AS (
    SELECT (SELECT min(time) FROM t) AS time,
           (SELECT intemp FROM hist ORDER BY time DESC LIMIT 1) AS x
    UNION ALL
    SELECT s.time + interval '1 hour',
           hvac_pars.a1 * s.x + hvac_pars.b1 * n.outtemp + hvac_pars.b2 * n.hload
    FROM s JOIN t n ON n.time = s.time, hvac_pars)
  SELECT time, x FROM s)
MINIMIZE (SELECT sum((hload - pvsupply) * 0.12) FROM t)
SUBJECTTO (SELECT t.intemp = sim.x FROM sim, t WHERE t.time = sim.time),
          (SELECT 20 <= intemp <= 25, 0 <= hload <= 17000 FROM t)
USING solverlp.cbc()";

#[test]
fn the_hvac_plan_starts_on_its_load_singletons() {
    // The recursion compiles to one auxiliary column per hour; presolve
    // fixes the first hour's temperature and substitutes each column out
    // through its `intemp_k = x_k` row, leaving one row per hour,
    // `intemp_k − a1·intemp_{k−1} − b2·hload_{k−1} = b1·out`, in which
    // `hload_{k−1}` is a column singleton: every row starts on a load
    // but the one a slack fits.
    let mut s = hvac_plan_session();
    let on = s.query(&format!("EXPLAIN ANALYZE {HVAC_PLAN}")).unwrap();
    let on = start_note(&text_column(&on, "plan"));
    assert_eq!(on, "0 structural/22 singleton/1 slack/0 artificial  phase1_pivots=0");
    // Without presolve the auxiliary columns stay: free, they start
    // basic in their definitions, and each `intemp_k = x_k` row, whose
    // temperature at zero load runs below 20, starts on an artificial
    // but the first hour's, the known 21.5.
    let off =
        s.query(&format!("EXPLAIN ANALYZE {}", HVAC_PLAN.replace("cbc()", "cbc(presolve := off)")));
    let off = start_note(&text_column(&off.unwrap(), "plan"));
    assert_eq!(off, "23 structural/1 singleton/0 slack/23 artificial  phase1_pivots=31");
    // The same plan either way.
    let total_load = |s: &mut Session, sql: &str| {
        let t = s.query(sql).unwrap();
        let rows = t.column_values("hload").unwrap();
        rows.iter().map(|v| v.as_f64().unwrap()).sum::<f64>()
    };
    let (load_on, load_off) = (
        total_load(&mut s, HVAC_PLAN),
        total_load(&mut s, &HVAC_PLAN.replace("cbc()", "cbc(presolve := off)")),
    );
    assert!((load_on - load_off).abs() <= 1e-9 * load_on.abs().max(1.0), "{load_on} vs {load_off}");
}

#[test]
fn the_fitness_join_says_it_keys_on_time() {
    // The objective of UC1 P3 (`s_3ss_p3.sql`) at fixed parameters: the
    // simulated series joined back to the history on `time`, a lone
    // timestamp key.
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE hist (time timestamp, outtemp float8, hload float8, intemp float8);
         INSERT INTO hist VALUES ('2017-07-02 07:00', 5, 100, 21),
           ('2017-07-02 08:00', 6, 250, 20.5), ('2017-07-02 09:00', 6, 150, 21);
         CREATE TABLE t (a1 float8, b1 float8, b2 float8);
         INSERT INTO t VALUES (0.5, 0.05, 0.0005)",
    )
    .unwrap();
    let t = s
        .query(
            "EXPLAIN ANALYZE WITH sim AS (
               WITH RECURSIVE s(time, x, intemp) AS (
                 SELECT (SELECT min(time) FROM hist) AS time,
                        (SELECT intemp FROM hist ORDER BY time LIMIT 1) AS x,
                        (SELECT intemp FROM hist ORDER BY time LIMIT 1) AS intemp
                 UNION ALL
                 SELECT s.time + interval '1 hour', t.a1 * s.x + t.b1 * n.outtemp + t.b2 * n.hload,
                        n.intemp
                 FROM s JOIN hist n ON n.time = s.time, t)
               SELECT time, x, intemp FROM s)
             SELECT sum((sim.x - h.intemp)^2) FROM sim, hist h WHERE sim.time = h.time",
        )
        .unwrap();
    let plan = text_column(&t, "plan");
    let join = plan.iter().find(|l| l.contains("HashJoin")).expect("a hash join");
    assert!(join.contains("  keys=ts  "), "{}", plan.join("\n"));
}

#[test]
fn solve_lp_says_what_the_incumbent_bought() {
    // UC2 P4 (benchmark/sql/uc2_p4_knapsack.sql) over one warehouse of
    // 60 seeded items: rounding finds an incumbent at the root, and
    // reduced-cost fixing against it tightens bounds.
    let mut state = 7u64;
    let mut next = |lo: f64, hi: f64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let rows: Vec<String> =
        (0..60).map(|i| format!("(1, {i}, {}, {})", next(5.0, 400.0), next(0.5, 12.0))).collect();
    let mut s = Session::new();
    s.execute_script(&format!(
        "CREATE TABLE stock (warehouse_id int, item_id int, v float8, volume float8);
         INSERT INTO stock VALUES {}",
        rows.join(", ")
    ))
    .unwrap();
    let t = s
        .query(
            "EXPLAIN ANALYZE SOLVESELECT p(pick) AS \
               (SELECT item_id, v, volume, NULL::int AS pick FROM stock WHERE warehouse_id = 1) \
             MAXIMIZE (SELECT sum(v * pick) FROM p) \
             SUBJECTTO (SELECT sum(volume * pick) \
                          <= 0.4 * (SELECT sum(volume) FROM stock WHERE warehouse_id = 1) FROM p), \
                       (SELECT 0 <= pick <= 1 FROM p) \
             USING solverlp.cbc()",
        )
        .unwrap();
    let plan = text_column(&t, "plan");
    // The box rule `0 <= pick <= 1` is read as bounds without running.
    let compile = plan.iter().find(|l| l.contains("-> compile:")).expect("a compile stage");
    assert!(compile.ends_with("  bounds=1"), "{compile}");
    let line = plan.iter().find(|l| l.contains("-> solve-lp:")).expect("a solve-lp stage");
    let count = |key: &str| -> usize {
        let value = line.split(&format!("  {key}=")).nth(1);
        let value = value.and_then(|v| v.split_whitespace().next());
        value.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {key}= in {line}"))
    };
    assert!(count("fixed") > 0, "{line}");
    assert!(count("rounded_incumbents") >= 1, "{line}");
}

#[test]
fn mip_solves_report_branch_and_bound_telemetry() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE items (id int, value float8, weight float8, pick int);
         INSERT INTO items VALUES
           (1, 60, 10, NULL), (2, 100, 20, NULL), (3, 120, 30, NULL)",
    )
    .unwrap();
    let res = s
        .execute(
            "SOLVESELECT it(pick) AS (SELECT * FROM items) \
             MAXIMIZE (SELECT sum(value * pick) FROM it) \
             SUBJECTTO (SELECT sum(weight * pick) <= 50 FROM it), \
                       (SELECT 0 <= pick <= 1 FROM it) \
             USING solverlp.cbc()",
        )
        .unwrap();
    let trace = res.trace.unwrap();
    let st = &trace.solvers[0];
    assert_eq!(st.method, "bb");
    assert!(st.nodes_explored > 0);
    assert!(st.iterations >= st.nodes_explored, "{} < {}", st.iterations, st.nodes_explored);
    assert!(!st.incumbents.is_empty());
    assert_eq!(st.objective, Some(220.0));
}

#[test]
fn stat_statements_aggregates_by_shape() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x int)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    // Two executions of the same statement shape, different literals.
    s.query("SELECT x FROM t WHERE x > 1").unwrap();
    s.query("SELECT x FROM t WHERE x > 2").unwrap();
    let stats = s.query("SELECT query, calls, rows FROM sdb_stat_statements").unwrap();
    let shapes = text_column(&stats, "query");
    let target: Vec<usize> = shapes
        .iter()
        .enumerate()
        .filter(|(_, q)| q.contains("where ( x > ? )"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(target.len(), 1, "expected one aggregated row, got shapes {shapes:?}");
    let i = target[0];
    assert_eq!(stats.rows[i][1], Value::Int(2), "calls");
    // 2 rows matched the first filter, 1 the second.
    assert_eq!(stats.rows[i][2], Value::Int(3), "rows");
    // The metrics SELECTs themselves get recorded too, on the next read.
    let again = s.query("SELECT calls FROM sdb_stat_statements").unwrap();
    assert!(again.rows.len() >= stats.rows.len());
}

/// A plan that scanned a virtual table holds a snapshot no `ReadSet`
/// versions, so it is never cached: the same text read again with no
/// catalog change in between sees the statements run in between.
#[test]
fn virtual_table_reads_are_not_served_from_a_cached_plan() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE t (x int); INSERT INTO t VALUES (1)").unwrap();
    s.execute("CREATE VIEW calls_seen AS SELECT sum(calls) AS n FROM sdb_stat_statements").unwrap();
    for read in ["SELECT sum(calls) FROM sdb_stat_statements", "SELECT n FROM calls_seen"] {
        let before = s.query_scalar(read).unwrap().as_i64().unwrap();
        s.query("SELECT x FROM t").unwrap(); // no catalog change
        let after = s.query_scalar(read).unwrap().as_i64().unwrap();
        assert!(after > before, "{read}: {before} then {after}");
    }
}

#[test]
fn failed_statements_count_as_errors() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x int)").unwrap();
    assert!(s.execute("SELECT nope FROM t").is_err());
    let stats = s.query("SELECT query, errors FROM sdb_stat_statements").unwrap();
    let shapes = text_column(&stats, "query");
    let i = shapes.iter().position(|q| q.contains("nope")).expect("errored shape recorded");
    assert_eq!(stats.rows[i][1], Value::Int(1));
}

#[test]
fn solver_stats_aggregate_across_sessions_sharing_solvers() {
    use solvedbplus_core::SharedSolvers;
    let shared = SharedSolvers::new();
    let mut a = Session::with_solvers(&shared);
    let mut b = Session::with_solvers(&shared);
    for s in [&mut a, &mut b] {
        s.execute_script(SETUP).unwrap();
        s.query(SOLVE).unwrap();
    }
    // Both runs landed in the shared registry, visible from either session.
    let t = a.query("SELECT solver, method, runs, iterations FROM sdb_solver_stats").unwrap();
    assert_eq!(t.rows.len(), 1);
    assert_eq!(t.rows[0][0], Value::text("solverlp"));
    assert_eq!(t.rows[0][1], Value::text("simplex"));
    assert_eq!(t.rows[0][2], Value::Int(2));
}

/// `evals_per_s` is the black-box solvers' rate over their solve time;
/// a solver that evaluates no fitness has none.
#[test]
fn solver_stats_rate_fitness_evaluations() {
    let mut s = Session::new();
    s.execute_script(SETUP).unwrap();
    s.query(SOLVE).unwrap();
    s.query(
        "SOLVESELECT q(x) AS (SELECT x FROM vars) \
         MINIMIZE (SELECT (x - 4.0)^2 FROM q) \
         SUBJECTTO (SELECT 0 <= x <= 10 FROM q) \
         USING swarmops.pso(particles := 5, iterations := 5)",
    )
    .unwrap();
    let t = s
        .query(
            "SELECT solver, evaluations, evals_per_s, total_ms FROM sdb_solver_stats \
             ORDER BY solver",
        )
        .unwrap();
    assert_eq!(t.rows[0][0], Value::text("solverlp"));
    assert_eq!(t.rows[0][2], Value::Null);
    assert_eq!(t.rows[1][0], Value::text("swarmops"));
    let number = |v: &Value| v.as_f64().unwrap();
    let (evaluations, rate, ms) =
        (number(&t.rows[1][1]), number(&t.rows[1][2]), number(&t.rows[1][3]));
    assert!(evaluations > 0.0 && (rate - evaluations / (ms / 1e3)).abs() <= 1e-6 * rate, "{t:?}");
}

#[test]
fn real_tables_shadow_virtual_ones() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE sdb_stat_statements (note text); \
         INSERT INTO sdb_stat_statements VALUES ('mine')",
    )
    .unwrap();
    let t = s.query("SELECT note FROM sdb_stat_statements").unwrap();
    assert_eq!(t.rows, vec![vec![Value::text("mine")]]);
}

#[test]
fn sdb_sessions_is_empty_without_a_server() {
    let mut s = Session::new();
    let t = s.query("SELECT * FROM sdb_sessions").unwrap();
    assert_eq!(t.num_rows(), 0);
    assert_eq!(t.schema.len(), 6);
}

// ---------------------------------------------------------------------------
// Watchdog: solver timeouts, CANCEL, and the histogram tables
// ---------------------------------------------------------------------------

/// A knapsack hard enough that branch-and-bound reaches its progress
/// points many times before closing the gap: value = weight + 10, so
/// the relaxation bound barely separates the items (at n = 44 ≈ 2 600
/// nodes, ≈ 8 ms in release, with rounding and reduced-cost fixing;
/// 15 600 without; uncorrelated values close in a few dozen, inside any
/// budget).
fn hard_knapsack_setup(s: &mut Session, n: usize) {
    s.execute("CREATE TABLE items (id int, value float8, weight float8, pick int)").unwrap();
    let rows: Vec<String> = (0..n)
        .map(|i| {
            let weight = (i * 37) % 61 + 20;
            format!("({i}, {}, {weight}, NULL)", weight + 10)
        })
        .collect();
    s.execute(&format!("INSERT INTO items VALUES {}", rows.join(", "))).unwrap();
}

const HARD_SOLVE: &str = "SOLVESELECT it(pick) AS (SELECT * FROM items) \
     MAXIMIZE (SELECT sum(value * pick) FROM it) \
     SUBJECTTO (SELECT sum(weight * pick) <= 1074 FROM it), \
               (SELECT 0 <= pick <= 1 FROM it) \
     USING solverlp.cbc()";

#[test]
fn solver_timeout_returns_solve_timeout_and_session_stays_usable() {
    let mut s = Session::new();
    hard_knapsack_setup(&mut s, 44);
    s.execute("SET solver_timeout_ms = 1").unwrap();
    let err = s.execute(HARD_SOLVE).unwrap_err();
    assert!(matches!(err, sqlengine::Error::SolveTimeout(_)), "got {err}");
    assert!(err.to_string().contains("budget"), "{err}");
    // The budget can be cleared and the session keeps working.
    s.execute("SET solver_timeout_ms = 0").unwrap();
    assert_eq!(s.query_scalar("SELECT 1 + 1").unwrap(), Value::Int(2));
}

#[test]
fn pending_cancel_aborts_the_next_solve() {
    use obs::SessionRegistry;
    use std::sync::Arc;
    let registry = Arc::new(SessionRegistry::new());
    let counters = registry.open(7);
    let mut s = Session::new();
    s.attach_session_registry(registry.clone());
    s.attach_own_counters(counters.clone());
    hard_knapsack_setup(&mut s, 44);
    counters.request_kill();
    let err = s.execute(HARD_SOLVE).unwrap_err();
    assert!(matches!(err, sqlengine::Error::SolveTimeout(_)), "got {err}");
    assert!(err.to_string().contains("cancelled"), "{err}");
    // The abort consumed the kill flag: the session solves again.
    assert!(!counters.kill_requested());
    let t = s.query("SELECT session_id, kill FROM sdb_sessions").unwrap();
    assert_eq!(t.rows, vec![vec![Value::Int(7), Value::Bool(false)]]);
}

#[test]
fn cancel_statement_sets_the_kill_flag() {
    use obs::SessionRegistry;
    use std::sync::Arc;
    let registry = Arc::new(SessionRegistry::new());
    let victim = registry.open(3);
    let mut admin = Session::new();
    admin.attach_session_registry(registry.clone());
    admin.execute("CANCEL 3").unwrap();
    assert!(victim.kill_requested());
    // Unknown sessions error cleanly.
    let err = admin.execute("CANCEL 99").unwrap_err();
    assert!(err.to_string().contains("no live session"), "{err}");
}

/// `columns_pivoted` in `sdb_metrics` is the session's executor counter:
/// it moves when a read first needs a column of a table version and
/// stands still when the read repeats.
#[test]
fn sdb_metrics_counts_pivoted_column_chunks() {
    let mut s = Session::new();
    s.execute_script("CREATE TABLE m (a INT, b INT); INSERT INTO m VALUES (1, 2), (3, 4)").unwrap();
    // The probe scans a virtual table, which pivots columns of its own —
    // after it has read the row.
    let row = |s: &mut Session| -> u64 {
        let t = s.query("SELECT count FROM sdb_metrics WHERE name = 'columns_pivoted'").unwrap();
        t.rows.first().map_or(0, |r| r[0].as_i64().unwrap() as u64) // no row until it moves
    };
    let counter = |s: &Session| s.db().exec_counts().columns_pivoted;
    let start = counter(&s);
    assert_eq!(row(&mut s), start);
    let before = counter(&s);
    s.query("SELECT sum(a) FROM m WHERE b > 0").unwrap();
    assert_eq!(counter(&s), before + 2, "one chunk each of a and b");
    s.query("SELECT sum(a) FROM m WHERE b > 0").unwrap();
    s.query("SELECT max(b) FROM m").unwrap();
    assert_eq!(counter(&s), before + 2, "a repeat would mean the image is not shared");
    assert_eq!(row(&mut s), before + 2);
    // A write keeps what it did not touch: UPDATE the chunks of the
    // columns it does not assign, DELETE the chunks in front of its
    // first row — here none, the table is one chunk.
    let before = counter(&s);
    s.execute("UPDATE m SET b = 5 WHERE a = 3").unwrap();
    s.query("SELECT sum(a) FROM m").unwrap();
    assert_eq!(counter(&s), before, "`a` was not assigned");
    s.query("SELECT sum(a) FROM m WHERE b > 0").unwrap();
    assert_eq!(counter(&s), before + 1, "`b` was");
    s.execute("DELETE FROM m WHERE a = 1").unwrap();
    s.query("SELECT sum(a) FROM m WHERE b > 0").unwrap();
    assert_eq!(counter(&s), before + 3, "the only chunk of both columns");
}

/// `subqueries_reused` is a note on a black-box solve's `search` line and
/// a row of `sdb_metrics`: the subquery executions the session answered
/// from a kept result. A closed subquery in the objective runs at the
/// start point and is kept for every evaluation of the search.
#[test]
fn kept_subquery_results_are_counted_on_search_and_in_sdb_metrics() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE v0 (x float8); INSERT INTO v0 VALUES (NULL);
         CREATE TABLE k (k float8); INSERT INTO k VALUES (2), (4)",
    )
    .unwrap();
    let solve = "SOLVESELECT v(x) AS (SELECT * FROM v0) \
                 MINIMIZE (SELECT abs(x - (SELECT max(k) FROM k)) FROM v) \
                 SUBJECTTO (SELECT 0 <= x <= 9 FROM v) \
                 USING swarmops.sa(iterations := 20, seed := 3)";
    let t = s.query(&format!("EXPLAIN ANALYZE {solve}")).unwrap();
    let lines = text_column(&t, "plan");
    let search = lines.iter().find(|l| l.contains("-> search:")).expect("a search line");
    assert!(
        search.contains("evaluations=21") && search.contains("subqueries_reused=21"),
        "{search}"
    );
    let before = s.db().exec_counts().subqueries_reused;
    s.query(solve).unwrap();
    let counted = s.db().exec_counts().subqueries_reused;
    assert_eq!(counted - before, 21);
    let t = s.query("SELECT count FROM sdb_metrics WHERE name = 'subqueries_reused'").unwrap();
    assert_eq!(t.rows[0][0], Value::Int(counted as i64));
}

#[test]
fn sdb_metrics_exposes_stage_histograms_after_a_solve() {
    let mut s = Session::new();
    s.execute_script(SETUP).unwrap();
    s.query(SOLVE).unwrap();
    let t = s.query("SELECT name, count FROM sdb_metrics").unwrap();
    let names = text_column(&t, "name");
    for expected in ["statement", "compile", "solve", "solve/solve-lp"] {
        assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
    }
}

/// Every duration in a trace set to zero, so two recordings of the same
/// work compare equal.
fn untimed(mut trace: obs::QueryTrace) -> obs::QueryTrace {
    fn zero(stages: &mut [Stage]) {
        for s in stages {
            s.nanos = 0;
            zero(&mut s.children);
        }
    }
    trace.total_nanos = 0;
    zero(&mut trace.stages);
    trace
}

/// Two UC2-style knapsacks over different item sets, solved on two
/// worker threads over one shared catalog, each into a trace of its own:
/// adopted in key order inside the parent's open span, they read as the
/// same two solves run in sequence under one trace.
#[test]
fn worker_traces_adopted_in_key_order_equal_the_sequential_trace() {
    use obs::Trace;
    use sqlengine::ast::Statement;
    use sqlengine::catalog::Ctes;

    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE items (grp int, id int, value float8, weight float8, pick int);
         INSERT INTO items VALUES
           (1, 1, 60, 10, NULL), (1, 2, 100, 20, NULL), (1, 3, 120, 30, NULL),
           (2, 4, 30, 15, NULL), (2, 5, 45, 25, NULL), (2, 6, 70, 35, NULL),
           (2, 7, 20, 5, NULL)",
    )
    .unwrap();
    let solves: Vec<_> = [1, 2]
        .map(|grp| {
            let sql = format!(
                "SOLVESELECT it(pick) AS (SELECT * FROM items WHERE grp = {grp}) \
                 MAXIMIZE (SELECT sum(value * pick) FROM it) \
                 SUBJECTTO (SELECT sum(weight * pick) <= 50 FROM it), \
                           (SELECT 0 <= pick <= 1 FROM it) \
                 USING solverlp.cbc()"
            );
            match sqlengine::parser::parse_statement(&sql).unwrap() {
                Statement::Solve(st) => st,
                other => panic!("not a solve: {other:?}"),
            }
        })
        .into();
    let db = s.db();
    let handler = db.solve_handler().unwrap();
    let ctes = Ctes::new();
    // One warm-up run of each, so both forms meet the same cached plans.
    for st in &solves {
        handler.solve_select(db, st, &ctes, Some(&Trace::new("warm-up"))).unwrap();
    }

    let sequential = Trace::new("partitioned");
    {
        let _span = sequential.span("partition");
        for st in &solves {
            handler.solve_select(db, st, &ctes, Some(&sequential)).unwrap();
        }
    }
    let sequential = sequential.finish();

    let threaded = Trace::new("partitioned");
    {
        let _span = threaded.span("partition");
        let workers: Vec<Trace> = std::thread::scope(|scope| {
            let running: Vec<_> = solves
                .iter()
                .map(|st| {
                    let (handler, ctes) = (&handler, &ctes);
                    scope.spawn(move || {
                        let trace = Trace::new("worker");
                        handler.solve_select(db, st, ctes, Some(&trace)).unwrap();
                        trace
                    })
                })
                .collect();
            running.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for trace in workers {
            threaded.adopt(trace);
        }
    }
    let threaded = threaded.finish();

    let objectives: Vec<_> = threaded.solvers.iter().map(|st| st.objective).collect();
    assert_eq!(objectives, [Some(220.0), Some(100.0)]);
    assert_eq!(threaded.stages.len(), 1);
    let roots: Vec<&str> = threaded.stages[0].children.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(roots, ["plan", "compile", "check", "solve", "plan", "compile", "check", "solve"]);
    assert_eq!(untimed(threaded), untimed(sequential));
}

/// The notes of the `search` spans of two black-box solves — their
/// decision relations named `names`, their simulations stepping apart —
/// run one after the other and then on two worker threads over one
/// shared catalog while the first is compiled again and again, after one
/// warm-up run of each, so that both forms meet the same cached plans and
/// kept results.
fn searches_in_sequence_and_in_parallel(names: [&str; 2]) -> [Vec<Notes>; 2] {
    use obs::Trace;
    use sqlengine::ast::{ExplainMode, Statement};
    use sqlengine::catalog::Ctes;

    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE v0 (x float8); INSERT INTO v0 VALUES (NULL);
         CREATE TABLE k (k float8); INSERT INTO k VALUES (2), (4);
         CREATE TABLE h (n int8, w float8);
         INSERT INTO h VALUES (1, 0.5), (2, 0.25), (3, 0.125), (4, 0.75)",
    )
    .unwrap();
    let solves: Vec<_> = [(names[0], "0.5"), (names[1], "0.75")]
        .map(|(v, w)| {
            let sql = format!(
                "SOLVESELECT {v}(x) AS (SELECT * FROM v0) \
                 WITH {v}sim AS (WITH RECURSIVE s(n, y) AS (SELECT 1, x FROM {v} UNION ALL \
                   SELECT s.n + 1, s.y * h.w + {w} FROM s JOIN h ON h.n = s.n) SELECT n, y FROM s) \
                 MINIMIZE (SELECT sum((y - (SELECT max(k) FROM k))^2) FROM {v}sim) \
                 SUBJECTTO (SELECT 0 <= x <= 9 FROM {v}) \
                 USING swarmops.sa(iterations := 2000, seed := 3)"
            );
            match sqlengine::parser::parse_statement(&sql).unwrap() {
                Statement::Solve(st) => st,
                other => panic!("not a solve: {other:?}"),
            }
        })
        .into();
    let db = s.db();
    let handler = db.solve_handler().unwrap();
    let ctes = Ctes::new();
    let search = |trace: Trace| -> Notes {
        fn find(stages: &[Stage]) -> Option<&Stage> {
            stages.iter().find_map(|s| if s.name == "search" { Some(s) } else { find(&s.children) })
        }
        let trace = trace.finish();
        find(&trace.stages).expect("a search span").meta.clone()
    };
    let solve = |st| {
        let trace = Trace::new("solve");
        handler.solve_select(db, st, &ctes, Some(&trace)).unwrap();
        search(trace)
    };
    for st in &solves {
        solve(st);
    }
    let sequential: Vec<_> = solves.iter().map(solve).collect();
    let threaded: Vec<_> = std::thread::scope(|scope| {
        let running: Vec<_> = solves.iter().map(|st| scope.spawn(move || solve(st))).collect();
        // The first statement's symbolic pass, over custom-valued cells,
        // until both searches are done: it plans under the names the
        // searches evaluate under while they run.
        while !running.iter().all(|w| w.is_finished()) {
            handler.explain(db, &solves[0], &ctes, ExplainMode::Plan).unwrap();
        }
        running.into_iter().map(|w| w.join().unwrap()).collect()
    });
    [sequential, threaded]
}

/// A span's notes.
type Notes = Vec<(String, String)>;

/// The count `key` of a span's notes.
fn note(notes: &[(String, String)], key: &str) -> Option<u64> {
    notes.iter().find(|(k, _)| k == key).map(|(_, v)| v.parse::<u64>().unwrap())
}

/// Two black-box solves on worker threads over one shared catalog: the
/// work each notes on its `search` span is its own — what it notes when
/// the two run one after the other — though both count into the same
/// database's counters.
#[test]
fn concurrent_searches_each_note_their_own_work() {
    let [sequential, threaded] = searches_in_sequence_and_in_parallel(["v", "u"]);
    assert_eq!(threaded, sequential);
    for notes in &sequential {
        let evaluations = note(notes, "evaluations").unwrap();
        // The objective's subquery, once per row of the five-row sim.
        assert_eq!(note(notes, "subqueries_reused"), Some(5 * evaluations), "{notes:?}");
        assert!(note(notes, "typed_steps").unwrap() > 0, "{notes:?}");
        assert!(note(notes, "builds_kept").unwrap() > 0, "{notes:?}");
    }
}

/// Two black-box solves whose relations have the same names, so that
/// each runs the other's cached plans of the same text — its symbolic
/// pass's over custom-valued cells beside its evaluations' over floats —
/// on worker threads: each notes what it notes in sequence, `plans_built`
/// and `subqueries_reused` among it.
#[test]
fn concurrent_searches_of_the_same_names_each_note_their_own_work() {
    let [sequential, threaded] = searches_in_sequence_and_in_parallel(["v", "v"]);
    assert_eq!(threaded, sequential);
}
