//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, covering the handshake, remote SOLVESELECT parity with
//! a local session, batch error semantics, concurrent isolated
//! sessions, and graceful shutdown with port release.

use server::protocol::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use server::{Client, ClientError, Server, ServerConfig};
use solvedbplus_core::Session;
use sqlengine::{Outcome, Severity, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Overall deadline for anything that could deadlock.
const TEST_TIMEOUT: Duration = Duration::from_secs(60);

struct TestServer {
    addr: SocketAddr,
    shutdown: server::ShutdownHandle,
    join: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(workers: usize) -> TestServer {
        TestServer::start_with(ServerConfig { workers, backlog: 16, ..ServerConfig::default() }).0
    }

    fn start_with(config: ServerConfig) -> (TestServer, Option<SocketAddr>) {
        let srv = Server::bind_with("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = srv.local_addr();
        let metrics_addr = srv.metrics_addr();
        let shutdown = srv.shutdown_handle();
        let join = thread::spawn(move || srv.run());
        (TestServer { addr, shutdown, join: Some(join) }, metrics_addr)
    }

    fn stop(mut self) {
        self.shutdown.shutdown();
        let join = self.join.take().unwrap();
        join.join().expect("server thread").expect("server run");
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.shutdown.shutdown();
            let _ = join.join();
        }
    }
}

/// One `GET` against the metrics listener: the whole response.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TEST_TIMEOUT)).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    response
}

const LP_SETUP: &str = "CREATE TABLE v (x float8, y float8); INSERT INTO v VALUES (NULL, NULL)";
const LP_SOLVE: &str = "SOLVESELECT q(x, y) AS (SELECT * FROM v) \
     MAXIMIZE (SELECT x + y FROM q) \
     SUBJECTTO (SELECT x <= 4, y <= 2.5, x >= 0, y >= 0 FROM q) \
     USING solverlp()";

#[test]
fn remote_solveselect_matches_local_session() {
    let local_rows = {
        let mut s = Session::new();
        s.execute_script(LP_SETUP).unwrap();
        s.query(LP_SOLVE).unwrap().rows
    };

    let ts = TestServer::start(2);
    let mut client = Client::connect(ts.addr).expect("connect");
    client.execute(LP_SETUP).expect("setup");
    let remote = client.query(LP_SOLVE).expect("remote solve");
    assert_eq!(remote.rows, local_rows);
    assert_eq!(remote.rows, vec![vec![Value::Float(4.0), Value::Float(2.5)]]);
    client.close().unwrap();
    ts.stop();
}

#[test]
fn batch_reports_every_statement_and_stops_at_first_error() {
    let ts = TestServer::start(2);
    let mut client = Client::connect(ts.addr).unwrap();
    let results = client
        .execute(
            "CREATE TABLE t (x int); \
             INSERT INTO t VALUES (1), (2), (3); \
             SELECT sum(x) FROM t; \
             SELECT * FROM missing_table; \
             SELECT 'never runs'",
        )
        .unwrap();
    assert_eq!(results.len(), 4, "three successes then the failing statement");
    assert!(matches!(results[0].as_ref().unwrap().outcome, Outcome::Done));
    assert!(matches!(results[1].as_ref().unwrap().outcome, Outcome::Count(3)));
    match &results[2].as_ref().unwrap().outcome {
        Outcome::Table(t) => assert_eq!(t.scalar().unwrap(), Value::Int(6)),
        other => panic!("expected table, got {other:?}"),
    }
    // The engine error arrives with its category reconstructed.
    assert!(matches!(&results[3], Err(sqlengine::Error::Catalog(_))));
    ts.stop();
}

#[test]
fn analyzer_warnings_survive_the_wire_roundtrip() {
    let ts = TestServer::start(2);
    let mut client = Client::connect(ts.addr).unwrap();
    client.execute_script("CREATE TABLE w (x float8); INSERT INTO w VALUES (NULL)").expect("setup");
    // x has an upper bound but the objective maximizes it with no lower
    // bound relevance — use a model with a decision variable missing the
    // bound the objective pushes toward: maximize x with only x >= 0.
    let results = client
        .execute(
            "SOLVESELECT q(x) AS (SELECT * FROM w) \
             MAXIMIZE (SELECT x FROM q) \
             SUBJECTTO (SELECT x >= 0, x <= 10, x <= 20 FROM q) \
             USING solverlp()",
        )
        .expect("solve batch");
    assert_eq!(results.len(), 1);
    let r = results[0].as_ref().expect("solve succeeds");
    assert!(matches!(r.outcome, Outcome::Table(_)));
    // `x <= 20` is shadowed by `x <= 10` → SD005 note travels back.
    let sd005 = r
        .warnings
        .iter()
        .find(|d| d.code == "SD005")
        .unwrap_or_else(|| panic!("expected SD005 in warnings, got {:?}", r.warnings));
    assert_eq!(sd005.severity, Severity::Note);
    assert!(sd005.message.contains("shadowed"), "message: {}", sd005.message);
    client.close().unwrap();
    ts.stop();
}

#[test]
fn scriptcheck_findings_ride_the_warning_frames() {
    let ts = TestServer::start(2);
    let mut client = Client::connect(ts.addr).unwrap();
    // A multi-statement batch triggers the whole-script pre-flight:
    // replacing a never-read view fires SD016 on statement 2, attached
    // to that statement's result as a wire warning. Execution itself
    // succeeds throughout.
    let results = client
        .execute(
            "CREATE VIEW v AS SELECT 1 AS a; \
             CREATE OR REPLACE VIEW v AS SELECT 2 AS a; \
             SELECT * FROM v",
        )
        .expect("batch");
    assert_eq!(results.len(), 3);
    let first = results[0].as_ref().expect("create view succeeds");
    assert!(
        !first.warnings.iter().any(|d| d.code == "SD016"),
        "SD016 annotates the replacing statement, not the original: {:?}",
        first.warnings
    );
    let second = results[1].as_ref().expect("replace succeeds");
    let sd016 = second
        .warnings
        .iter()
        .find(|d| d.code == "SD016")
        .unwrap_or_else(|| panic!("expected SD016 in warnings, got {:?}", second.warnings));
    assert_eq!(sd016.severity, Severity::Warning);
    assert!(sd016.message.contains("replaced"), "message: {}", sd016.message);
    match &results[2].as_ref().expect("select succeeds").outcome {
        Outcome::Table(t) => assert_eq!(t.scalar().unwrap(), Value::Int(2)),
        other => panic!("expected table, got {other:?}"),
    }
    client.close().unwrap();
    ts.stop();
}

#[test]
fn presolve_warnings_survive_the_wire_roundtrip() {
    let ts = TestServer::start(2);
    let mut client = Client::connect(ts.addr).unwrap();
    client
        .execute_script("CREATE TABLE p (x float8, y float8); INSERT INTO p VALUES (NULL, NULL)")
        .expect("setup");
    // Coefficients spanning 12 orders of magnitude on a solvable model:
    // the presolve analyzer's SD012 warning must come back over SDBP.
    let results = client
        .execute(
            "SOLVESELECT q(x, y) AS (SELECT * FROM p) \
             MINIMIZE (SELECT sum(x + y) FROM q) \
             SUBJECTTO (SELECT 1000000000.0 * x + 0.001 * y <= 5, \
                        0 <= x <= 1, 0 <= y <= 1 FROM q) \
             USING solverlp()",
        )
        .expect("solve batch");
    assert_eq!(results.len(), 1);
    let r = results[0].as_ref().expect("solve succeeds");
    assert!(matches!(r.outcome, Outcome::Table(_)));
    let sd012 = r
        .warnings
        .iter()
        .find(|d| d.code == "SD012")
        .unwrap_or_else(|| panic!("expected SD012 in warnings, got {:?}", r.warnings));
    assert_eq!(sd012.severity, Severity::Warning);
    assert!(sd012.message.contains("orders of magnitude"), "message: {}", sd012.message);
    // The presolve counters ride along in the STATS frame.
    let trace = r.trace.as_ref().expect("trace travels with the result");
    let st = trace.solvers.first().expect("solver stats");
    assert!(st.presolve_bounds > 0, "presolve counters lost on the wire: {st:?}");
    client.close().unwrap();
    ts.stop();
}

#[test]
fn stats_frame_carries_the_execution_trace_over_the_wire() {
    let ts = TestServer::start(2);
    let mut client = Client::connect(ts.addr).unwrap();
    client.execute_script(LP_SETUP).expect("setup");
    let results = client.execute(LP_SOLVE).expect("solve batch");
    assert_eq!(results.len(), 1);
    let r = results[0].as_ref().expect("solve succeeds");
    let trace = r.trace.as_ref().expect("SOLVESELECT results carry a trace (protocol v3)");
    assert_eq!(trace.label, "SOLVESELECT");

    // Stage tree sanity: nonzero stage durations summing to at most the
    // total, and the canonical stages present.
    assert!(!trace.stages.is_empty());
    assert!(trace.stages.iter().all(|s| s.nanos >= 1), "zero-duration stage in {trace:?}");
    let root_sum: u64 = trace.stages.iter().map(|s| s.nanos).sum();
    assert!(
        root_sum <= trace.total_nanos,
        "stage sum {root_sum} exceeds total {}",
        trace.total_nanos
    );
    let names: Vec<&str> = trace.stages.iter().map(|s| s.name.as_str()).collect();
    for expected in ["plan", "check", "solve"] {
        assert!(names.contains(&expected), "missing stage {expected} in {names:?}");
    }

    // Solver telemetry survived the round-trip.
    assert_eq!(trace.solvers.len(), 1);
    let st = &trace.solvers[0];
    assert_eq!(st.solver, "solverlp");
    assert!(st.iterations > 0);
    assert_eq!(st.objective, Some(6.5));

    // Plain SQL is not traced: no STATS frame, no attached trace.
    let plain = client.execute("SELECT 1").unwrap();
    assert!(plain[0].as_ref().unwrap().trace.is_none());

    // The server-side metrics tables saw this connection's statements.
    let t = client.query("SELECT queries FROM sdb_sessions").unwrap();
    assert_eq!(t.num_rows(), 1, "one live session");
    assert!(t.rows[0][0].as_i64().unwrap() >= 3);
    let solver_runs = client.query_scalar("SELECT runs FROM sdb_solver_stats").unwrap();
    assert_eq!(solver_runs, Value::Int(1));
    client.close().unwrap();
    ts.stop();
}

#[test]
fn ping_and_session_state_persist_across_calls() {
    let ts = TestServer::start(2);
    let mut client = Client::connect(ts.addr).unwrap();
    client.ping().unwrap();
    client.execute_script("CREATE TABLE acc (x int); INSERT INTO acc VALUES (41)").unwrap();
    client.execute("INSERT INTO acc VALUES (1)").unwrap();
    assert_eq!(
        client.query_scalar("SELECT sum(x) FROM acc").unwrap(),
        Value::Int(42),
        "tables created earlier on this connection stay visible"
    );
    client.ping().unwrap();
    ts.stop();
}

#[test]
fn sessions_of_different_clients_are_isolated() {
    let ts = TestServer::start(4);
    let mut a = Client::connect(ts.addr).unwrap();
    let mut b = Client::connect(ts.addr).unwrap();
    a.execute("CREATE TABLE private_a (x int)").unwrap();
    let res = b.execute("SELECT * FROM private_a").unwrap();
    assert!(
        matches!(res.last(), Some(Err(sqlengine::Error::Catalog(_)))),
        "client B must not see client A's tables, got {res:?}"
    );
    ts.stop();
}

/// With a data directory the connections work on one catalog: each sees
/// what the other committed when its next statement starts, and a
/// statement in flight keeps the version it started with.
#[test]
fn durable_connections_share_one_catalog_under_statement_snapshots() {
    let dir = std::env::temp_dir().join(format!("sdb-loopback-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ts, metrics_addr) = TestServer::start_with(ServerConfig {
        workers: 3,
        data_dir: Some(dir.clone()),
        fsync: storage::FsyncPolicy::Never,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let mut a = Client::connect(ts.addr).unwrap();
    let mut b = Client::connect(ts.addr).unwrap();
    let int = |c: &mut Client, sql: &str| c.query_scalar(sql).unwrap().as_i64().unwrap();

    a.execute_script("CREATE TABLE t (x int)").unwrap();
    assert_eq!(int(&mut b, "SELECT count(*) FROM t"), 0, "b sees a's CREATE");
    b.execute_script("INSERT INTO t VALUES (1), (2)").unwrap();
    assert_eq!(int(&mut a, "SELECT sum(x) FROM t"), 3, "a sees b's INSERT");
    a.execute_script("UPDATE t SET x = 10 WHERE x = 1").unwrap();
    assert_eq!(int(&mut b, "SELECT sum(x) FROM t"), 12, "b sees a's UPDATE");
    b.execute_script("CREATE VIEW v AS SELECT sum(x) AS s FROM t").unwrap();
    assert_eq!(int(&mut a, "SELECT s FROM v"), 12, "a sees b's CREATE VIEW");
    a.execute_script("DROP VIEW v; DROP TABLE t").unwrap();
    let gone = b.execute("SELECT * FROM t").unwrap();
    assert!(matches!(gone.last(), Some(Err(sqlengine::Error::Catalog(_)))), "b sees a's DROP");

    // In flight: a's solve evaluates `aux` on every fitness call. Once it
    // reports progress b drops `aux`; the solve runs on to its budget as
    // if nothing happened, and a's next statement finds the table gone.
    a.execute_script(LONG_SOLVE_SETUP).unwrap();
    a.execute_script("CREATE TABLE aux (k int); SET solver_timeout_ms = 1500").unwrap();
    let mut dropped = false;
    let results = a
        .execute_with_progress(
            "SOLVESELECT q(x) AS (SELECT * FROM bb) \
             MINIMIZE (SELECT (x - 3) * (x - 3) + (SELECT count(*) FROM aux) FROM q) \
             SUBJECTTO (SELECT x >= -10, x <= 10 FROM q) \
             USING swarmops.pso(iterations := 100000000)",
            &mut |_| {
                if !std::mem::replace(&mut dropped, true) {
                    b.execute_script("DROP TABLE aux").expect("b drops aux mid-solve");
                }
            },
        )
        .unwrap();
    assert!(dropped, "the solve reported progress");
    match results.last() {
        Some(Err(sqlengine::Error::SolveTimeout(m))) => assert!(m.contains("budget"), "{m}"),
        other => panic!("the solve should have run to its budget, got {other:?}"),
    }
    let gone = a.execute("SELECT count(*) FROM aux").unwrap();
    assert!(matches!(gone.last(), Some(Err(sqlengine::Error::Catalog(_)))), "{gone:?}");

    // Nothing above raced on one relation.
    assert_eq!(int(&mut a, "SELECT commit_conflicts FROM sdb_storage"), 0);
    assert_eq!(int(&mut b, "SELECT catalog_version FROM sdb_storage"), 10);
    let metrics = http_get(metrics_addr.unwrap(), "/metrics");
    assert!(metrics.contains("\nsdb_storage_catalog_version 10\n"), "{metrics}");
    assert!(metrics.contains("\nsdb_storage_commit_conflicts 0\n"), "{metrics}");
    ts.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `i64::MIN / -1` between columns used to unwind the worker thread;
/// now the connection gets an ERROR frame and answers the next statement.
#[test]
fn integer_division_overflow_is_an_error_frame_and_the_connection_lives() {
    let ts = TestServer::start(1);
    let mut c = Client::connect(ts.addr).unwrap();
    c.execute_script(
        "CREATE TABLE edge (a int8, b int8); INSERT INTO edge VALUES (-9223372036854775808, -1)",
    )
    .unwrap();
    for sql in
        ["SELECT a / b FROM edge", "SELECT a % b FROM edge", "SELECT (SELECT a / b) FROM edge"]
    {
        match c.execute(sql).unwrap().last() {
            Some(Err(sqlengine::Error::Eval(m))) => assert_eq!(m, "integer overflow", "{sql}"),
            other => panic!("{sql}: expected an evaluation error, got {other:?}"),
        }
        assert_eq!(c.query_scalar("SELECT 1 + 1").unwrap(), Value::Int(2), "after {sql}");
    }
    ts.stop();
}

#[test]
fn unknown_protocol_version_is_rejected() {
    let ts = TestServer::start(1);
    let mut raw = TcpStream::connect(ts.addr).unwrap();
    write_frame(&mut raw, &Frame::Hello { version: PROTOCOL_VERSION + 41 }).unwrap();
    match read_frame(&mut raw).unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(
                message.contains("version"),
                "error should mention the version mismatch: {message}"
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The server must hang up after rejecting the handshake.
    assert!(read_frame(&mut raw).unwrap().is_none(), "connection should be closed");

    // And the Client constructor surfaces the same failure cleanly.
    let mut bad = TcpStream::connect(ts.addr).unwrap();
    write_frame(&mut bad, &Frame::Query("sneaking past the handshake".into())).unwrap();
    match read_frame(&mut bad).unwrap() {
        Some(Frame::Error { .. }) => {}
        other => panic!("expected an error frame for a missing HELLO, got {other:?}"),
    }
    ts.stop();
}

#[test]
fn malformed_frames_get_an_error_not_a_hang() {
    let ts = TestServer::start(1);
    let mut raw = TcpStream::connect(ts.addr).unwrap();
    write_frame(&mut raw, &Frame::Hello { version: PROTOCOL_VERSION }).unwrap();
    assert!(matches!(read_frame(&mut raw).unwrap(), Some(Frame::Hello { .. })));
    // A frame with an unknown type byte.
    use std::io::Write;
    raw.write_all(&2u32.to_le_bytes()).unwrap();
    raw.write_all(&[0x7E, 0x00]).unwrap();
    raw.flush().unwrap();
    raw.set_read_timeout(Some(TEST_TIMEOUT)).unwrap();
    match read_frame(&mut raw).unwrap() {
        Some(Frame::Error { .. }) => {}
        other => panic!("expected a protocol error frame, got {other:?}"),
    }
    ts.stop();
}

#[test]
fn eight_concurrent_clients_run_isolated_lp_problems() {
    let ts = TestServer::start(8);
    let addr = ts.addr;
    let (tx, rx) = mpsc::channel::<(usize, Result<Value, String>)>();

    for i in 0..8usize {
        let tx = tx.clone();
        thread::spawn(move || {
            let run = || -> Result<Value, ClientError> {
                let mut c = Client::connect(addr)?;
                // Every client gets its own namespace: same table name,
                // different bound, so cross-talk would be visible.
                let bound = (i + 1) as f64;
                c.execute_script("CREATE TABLE work (x float8); INSERT INTO work VALUES (NULL)")?;
                let v = c.query_scalar(&format!(
                    "SOLVESELECT q(x) AS (SELECT * FROM work) \
                     MAXIMIZE (SELECT x FROM q) \
                     SUBJECTTO (SELECT x <= {bound}, x >= 0 FROM q) \
                     USING solverlp()"
                ))?;
                c.close()?;
                Ok(v)
            };
            let _ = tx.send((i, run().map_err(|e| e.to_string())));
        });
    }
    drop(tx);

    let mut seen = [false; 8];
    for _ in 0..8 {
        let (i, outcome) = rx.recv_timeout(TEST_TIMEOUT).expect("a client deadlocked or timed out");
        let v = outcome.unwrap_or_else(|e| panic!("client {i} failed: {e}"));
        assert_eq!(v.as_f64().unwrap(), (i + 1) as f64, "client {i} read someone else's optimum");
        seen[i] = true;
    }
    assert!(seen.iter().all(|&s| s), "every client must report back");
    ts.stop();
}

#[test]
fn graceful_shutdown_releases_the_port() {
    let ts = TestServer::start(2);
    let addr = ts.addr;
    // Leave a live connection open to prove shutdown doesn't hang on it.
    let mut lingering = Client::connect(addr).unwrap();
    lingering.ping().unwrap();
    ts.stop();

    // The port must be immediately rebindable after run() returns.
    let again =
        Server::bind_with(addr, ServerConfig { workers: 1, backlog: 4, ..ServerConfig::default() })
            .expect("rebinding the released port");
    drop(again);

    // And new connections to the stopped server must fail.
    assert!(Client::connect(addr).is_err());
}

/// A solve that cannot finish on its own within test time: PSO with an
/// absurd iteration budget, so only the watchdog (budget or CANCEL)
/// ends it. Progress points fire every iteration.
const LONG_SOLVE_SETUP: &str = "CREATE TABLE bb (x float8); INSERT INTO bb VALUES (NULL)";
const LONG_SOLVE: &str = "SOLVESELECT q(x) AS (SELECT * FROM bb) \
     MINIMIZE (SELECT (x - 3) * (x - 3) FROM q) \
     SUBJECTTO (SELECT x >= -10, x <= 10 FROM q) \
     USING swarmops.pso(iterations := 100000000)";

#[test]
fn v4_clients_stream_progress_and_timeouts_are_clean() {
    let (ts, _) = TestServer::start_with(ServerConfig {
        workers: 2,
        solver_timeout_ms: Some(700),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(ts.addr).unwrap();
    assert_eq!(client.protocol_version(), PROTOCOL_VERSION);
    client.execute_script(LONG_SOLVE_SETUP).unwrap();
    let mut events = Vec::new();
    let results = client
        .execute_with_progress(LONG_SOLVE, &mut |ev| events.push(ev.clone()))
        .expect("transport survives the timeout");
    // The server-side default budget kills the solve cleanly.
    assert_eq!(results.len(), 1);
    match &results[0] {
        Err(sqlengine::Error::SolveTimeout(m)) => {
            assert!(m.contains("budget"), "timeout message: {m}");
            assert!(m.contains("incumbent"), "trajectory missing: {m}");
        }
        other => panic!("expected SolveTimeout, got {other:?}"),
    }
    // Live progress arrived mid-solve (first frame after the 100 ms
    // emit throttle, well inside the 700 ms budget).
    assert!(!events.is_empty(), "no PROGRESS frames for a 700 ms solve");
    assert!(events.iter().all(|e| e.solver == "swarmops" && e.method == "pso"));
    assert!(events.last().unwrap().evaluations > 0);
    // The session survives: same connection keeps working, and the
    // per-session override can lift the server default.
    assert_eq!(client.query_scalar("SELECT 1 + 1").unwrap(), Value::Int(2));
    client.execute("SET solver_timeout_ms = 0").unwrap();
    client.close().unwrap();
    ts.stop();
}

#[test]
fn cancel_from_another_session_kills_a_running_solve() {
    let ts = TestServer::start(2);
    let addr = ts.addr;
    let (started_tx, started_rx) = mpsc::channel::<u64>();
    let victim = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.execute_script(LONG_SOLVE_SETUP).unwrap();
        let id = c.query_scalar("SELECT session_id FROM sdb_sessions").unwrap();
        started_tx.send(id.as_i64().unwrap() as u64).unwrap();
        let results = c.execute(LONG_SOLVE).expect("transport survives the cancel");
        let _ = c.close();
        results
    });
    let victim_id = started_rx.recv_timeout(TEST_TIMEOUT).expect("victim started");
    // Give the victim a moment to be inside the solve; even if CANCEL
    // lands first, the pending kill aborts the next solve anyway.
    thread::sleep(Duration::from_millis(300));
    let mut killer = Client::connect(addr).unwrap();
    killer.execute(&format!("CANCEL {victim_id}")).expect("CANCEL executes");
    let results = victim.join().expect("victim thread");
    match results.last() {
        Some(Err(sqlengine::Error::SolveTimeout(m))) => {
            assert!(m.contains("cancelled"), "cancel message: {m}");
        }
        other => panic!("expected a cancelled SolveTimeout, got {other:?}"),
    }
    // Cancelling a dead session reports cleanly.
    let miss = killer.execute("CANCEL 9999").unwrap();
    assert!(matches!(miss.last(), Some(Err(_))), "CANCEL of unknown session should error");
    killer.close().unwrap();
    ts.stop();
}

#[test]
fn v3_clients_still_connect_and_never_see_progress_frames() {
    let ts = TestServer::start(1);
    let mut raw = TcpStream::connect(ts.addr).unwrap();
    raw.set_read_timeout(Some(TEST_TIMEOUT)).unwrap();
    write_frame(&mut raw, &Frame::Hello { version: 3 }).unwrap();
    match read_frame(&mut raw).unwrap() {
        Some(Frame::Hello { version }) => assert_eq!(version, 3, "server echoes the old version"),
        other => panic!("expected HELLO echo, got {other:?}"),
    }
    // Run a budgeted long solve on the v3 connection: the watchdog
    // still applies, but no PROGRESS frame may reach a v3 peer.
    write_frame(
        &mut raw,
        &Frame::Query(format!("{LONG_SOLVE_SETUP}; SET solver_timeout_ms = 400; {LONG_SOLVE}")),
    )
    .unwrap();
    let mut saw_timeout = false;
    loop {
        match read_frame(&mut raw).unwrap() {
            Some(Frame::Progress(ev)) => panic!("v3 peer received PROGRESS: {ev:?}"),
            Some(Frame::Error { message, .. }) => {
                assert!(message.contains("budget"), "expected the watchdog error: {message}");
                saw_timeout = true;
            }
            Some(Frame::End) => break,
            Some(_) => {}
            None => panic!("server hung up mid-batch"),
        }
    }
    assert!(saw_timeout, "the budget must fire on v3 connections too");
    write_frame(&mut raw, &Frame::Bye).unwrap();
    ts.stop();
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let (ts, metrics_addr) = TestServer::start_with(ServerConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    let metrics_addr = metrics_addr.expect("metrics listener bound");

    // Generate some traffic so histograms are non-empty.
    let mut client = Client::connect(ts.addr).unwrap();
    client.execute_script(LP_SETUP).unwrap();
    client.query(LP_SOLVE).unwrap();

    let scrape = |path: &str| http_get(metrics_addr, path);
    let response = scrape("/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("# TYPE sdb_statements_total counter"), "{response}");
    assert!(response.contains("# TYPE sdb_statement_latency_seconds histogram"), "{response}");
    assert!(response.contains("sdb_statement_latency_seconds_bucket"), "{response}");
    assert!(response.contains("sdb_stage_latency_seconds_bucket{stage=\"solve\","), "{response}");
    assert!(response.contains("sdb_solver_runs_total{solver=\"solverlp\""), "{response}");
    assert!(response.contains("sdb_sessions_active 1"), "{response}");

    let missing = scrape("/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    client.close().unwrap();
    ts.stop();
}

#[test]
fn accept_backlog_does_not_lose_connections() {
    // More clients than workers: the bounded pool must serve them all
    // eventually rather than dropping or deadlocking.
    let ts = TestServer::start(2);
    let addr = ts.addr;
    let (tx, rx) = mpsc::channel();
    for i in 0..6 {
        let tx = tx.clone();
        thread::spawn(move || {
            let ok = (|| -> Result<bool, ClientError> {
                let mut c = Client::connect(addr)?;
                let v = c.query_scalar(&format!("SELECT {i} * 2"))?;
                Ok(v == Value::Int(i * 2))
            })();
            let _ = tx.send(ok.unwrap_or(false));
        });
    }
    drop(tx);
    for _ in 0..6 {
        assert!(rx.recv_timeout(TEST_TIMEOUT).expect("client timed out"));
    }
    ts.stop();
}
