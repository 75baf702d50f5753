//! One statement through every layer, so the root package's fast gate
//! (`cargo test -q`) fails when any of them does: parser, the planned
//! columnar executor, the reference row interpreter the planner is
//! tested against, the SELECT front end both share, a `SOLVESELECT`
//! under `solverlp` (presolve + matrix
//! classification) and under `swarmops`, a durable commit with reopen,
//! and a loopback round trip through `solvedbd`'s server and wire code.

use solvedbplus::obs::Stage;
use solvedbplus::server::{Client, Server, ServerConfig};
use solvedbplus::sqlengine::ast::Statement;
use solvedbplus::sqlengine::parser::parse_statement;
use solvedbplus::storage::{FsyncPolicy, StorageEngine};
use solvedbplus::{Session, Value};
use std::sync::Arc;

const SETUP: &str = "CREATE TABLE items (id int, grp text, w float8, v float8);
    INSERT INTO items VALUES
      (1, 'a', 4, 10), (2, 'a', 3, 7), (3, 'a', 2, 4),
      (4, 'b', 5, 9), (5, 'b', 4, 8), (6, 'b', 1, 1);
    CREATE TABLE caps (grp text, cap float8);
    INSERT INTO caps VALUES ('a', 5), ('b', 5)";

/// Total weight and item count per group: a join and a GROUP BY the planner takes.
const JOIN_GROUP: &str = "SELECT c.grp, sum(i.w) AS w, count(*) AS n \
    FROM items i JOIN caps c ON c.grp = i.grp GROUP BY c.grp ORDER BY 1";

/// The heaviest item per group: a dependent join, its subquery planned
/// once and run per group.
const LATERAL: &str = "SELECT c.grp, top.id FROM caps c, \
    LATERAL (SELECT id FROM items i WHERE i.grp = c.grp ORDER BY w DESC LIMIT 1) top \
    ORDER BY 1";

/// One 0/1 knapsack per group; rules are a join + GROUP BY over the
/// decision relation.
const KNAPSACK: &str =
    "SOLVESELECT k(take) AS (SELECT id, grp, w, v, NULL::int AS take FROM items) \
    MAXIMIZE (SELECT sum(v * take) FROM k) \
    SUBJECTTO (SELECT sum(k.w * k.take) <= c.cap FROM k JOIN caps c ON c.grp = k.grp \
               GROUP BY c.grp, c.cap), \
              (SELECT 0 <= take <= 1 FROM k) \
    USING solverlp()";

fn ints(rows: &[Vec<Value>], col: usize) -> Vec<i64> {
    rows.iter().map(|r| r[col].as_i64().unwrap()).collect()
}

fn stage_names(stages: &[Stage], out: &mut Vec<String>) {
    for s in stages {
        out.push(s.name.clone());
        stage_names(&s.children, out);
    }
}

#[test]
fn one_statement_through_every_local_layer() {
    assert!(matches!(parse_statement(JOIN_GROUP).unwrap(), Statement::Query(_)));
    let mut s = Session::new();
    s.execute_script(SETUP).unwrap();

    let planned = s.execute(JOIN_GROUP).unwrap();
    assert!(planned.plan_fingerprint.is_some(), "join + GROUP BY runs on the columnar executor");
    let t = planned.into_table().unwrap();
    assert_eq!(t.schema.names(), ["grp", "w", "n"]);
    assert_eq!(t.rows[0], [Value::text("a"), Value::Float(9.0), Value::Int(3)]);
    assert_eq!(t.rows[1], [Value::text("b"), Value::Float(10.0), Value::Int(3)]);

    let lateral = s.execute(LATERAL).unwrap();
    assert!(lateral.plan_fingerprint.is_some(), "LATERAL runs on the columnar executor too");
    assert_eq!(ints(&lateral.into_table().unwrap().rows, 1), [1, 4]);
    let was = s.db_mut().set_force_row_interpreter(true);
    let reference = s.execute(LATERAL);
    s.db_mut().set_force_row_interpreter(was);
    let reference = reference.unwrap();
    assert!(reference.plan_fingerprint.is_none(), "the hook reaches the reference interpreter");
    assert_eq!(ints(&reference.into_table().unwrap().rows, 1), [1, 4]);

    let solved = s.execute(KNAPSACK).unwrap();
    let trace = solved.trace.clone().expect("a solve is traced");
    let mut names = Vec::new();
    stage_names(&trace.stages, &mut names);
    for stage in ["compile", "check", "presolve", "matrixclass", "solve-lp"] {
        assert!(names.iter().any(|n| n == stage), "missing stage {stage} in {names:?}");
    }
    let k = solved.into_table().unwrap();
    let take = k.schema.index_of("take").unwrap();
    // a: items 2+3 (value 11) beat item 1 (10); b: item 4 (9) = 5+6 (9) — either.
    assert_eq!(ints(&k.rows, take)[..3], [0, 1, 1]);
    assert_eq!(trace.solvers[0].objective, Some(20.0));

    let fit = s
        .query(
            "SOLVESELECT t(x) AS (SELECT NULL::float8 AS x) \
             MINIMIZE (SELECT (x - 3) * (x - 3) FROM t) \
             SUBJECTTO (SELECT -10 <= x <= 10 FROM t) \
             USING swarmops.pso(iterations := 200, seed := 1)",
        )
        .unwrap();
    assert!((fit.value(0, 0).as_f64().unwrap() - 3.0).abs() < 0.05);
}

#[test]
fn a_durable_commit_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("sdb-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let open = || {
        let mut s = Session::new();
        s.attach_storage(Arc::new(StorageEngine::open(&dir, FsyncPolicy::Always).unwrap()))
            .unwrap();
        s
    };
    {
        let mut s = open();
        s.execute_script(SETUP).unwrap();
        s.execute(&format!("CREATE TABLE picked AS {KNAPSACK}")).unwrap();
    }
    let mut s = open();
    let t = s.query("SELECT sum(v * take) FROM picked").unwrap();
    assert_eq!(t.value(0, 0).as_f64().unwrap(), 20.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_loopback_server_round_trip() {
    let srv = Server::bind_with("127.0.0.1:0", ServerConfig { workers: 1, ..Default::default() })
        .expect("bind");
    let (addr, shutdown) = (srv.local_addr(), srv.shutdown_handle());
    let join = std::thread::spawn(move || srv.run());
    let mut client = Client::connect(addr).expect("connect");
    client.execute(SETUP).expect("setup");
    assert_eq!(ints(&client.query(JOIN_GROUP).unwrap().rows, 2), [3, 3]);
    assert_eq!(ints(&client.query(LATERAL).unwrap().rows, 1), [1, 4]);
    let total = format!("SELECT sum(v * take) FROM ({KNAPSACK}) s");
    assert_eq!(client.query_scalar(&total).unwrap().as_f64().unwrap(), 20.0);
    client.close().unwrap();
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
}
