//! Crash-durability integration tests for the storage engine: a
//! kill-point torture test that truncates the WAL at every byte
//! boundary and asserts the recovered catalog equals the state after
//! some prefix of committed statements, a loopback server restart on
//! the same data directory, and what sessions attached to one engine see
//! of each other: one catalog under statement-level snapshots.

use solvedbplus::server::{Server, ServerConfig, ShutdownHandle};
use solvedbplus::sqlengine::{Error, Value};
use solvedbplus::storage::{FsyncPolicy, StorageEngine};
use solvedbplus::Session;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdb-durability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One mutation (and therefore one WAL record) per statement, covering
/// every record kind reachable from SQL: create/drop table, row
/// appends, full-table rewrites (UPDATE), and create view.
const TORTURE_STMTS: &[&str] = &[
    "CREATE TABLE a (x int8)",
    "INSERT INTO a VALUES (1), (2)",
    "CREATE TABLE b (y float8)",
    "INSERT INTO b VALUES (0.5)",
    "CREATE VIEW vw AS SELECT sum(x) AS s FROM a",
    "UPDATE a SET x = 10 WHERE x = 1",
    "DROP TABLE b",
    "INSERT INTO a VALUES (4)",
];

/// Canonical fingerprint of the user-visible catalog state: probe
/// results with missing relations rendered as `-`.
fn probe(s: &mut Session) -> String {
    let mut out = String::new();
    for q in ["SELECT x FROM a ORDER BY x", "SELECT y FROM b", "SELECT s FROM vw"] {
        match s.query(q) {
            Ok(r) => out.push_str(&format!("{:?};", r.rows)),
            Err(_) => out.push_str("-;"),
        }
    }
    out
}

/// Torture test: commit a statement sequence through a durable
/// session, then simulate a crash at *every* byte boundary of the WAL
/// by truncating a copy and recovering from it. Recovery must always
/// succeed, must truncate exactly the torn suffix, and must land on
/// the catalog state after the longest fully-logged statement prefix.
#[test]
fn wal_truncated_at_every_byte_recovers_a_statement_prefix() {
    let dir = tmp_dir("torture");
    let wal = dir.join("wal.log");

    // `fingerprints[k]` / `offsets[k]` = catalog state and WAL length
    // after the first k statements committed.
    let mut fingerprints = Vec::new();
    let mut offsets: Vec<u64> = Vec::new();
    {
        let mut s = Session::new();
        let engine = StorageEngine::open(&dir, FsyncPolicy::Never).unwrap();
        s.attach_storage(Arc::new(engine)).unwrap();
        fingerprints.push(probe(&mut s));
        offsets.push(0);
        for stmt in TORTURE_STMTS {
            s.execute(stmt).unwrap();
            fingerprints.push(probe(&mut s));
            offsets.push(fs::metadata(&wal).unwrap().len());
        }
    }
    let full = fs::read(&wal).unwrap();
    assert_eq!(full.len() as u64, *offsets.last().unwrap());
    assert!(full.len() > 100, "torture WAL suspiciously small: {} bytes", full.len());

    let scratch = tmp_dir("torture-scratch");
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(&scratch);
        fs::create_dir_all(&scratch).unwrap();
        fs::write(scratch.join("wal.log"), &full[..cut]).unwrap();

        let engine = StorageEngine::open(&scratch, FsyncPolicy::Never)
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        // Longest statement prefix whose final WAL offset fits in the cut.
        let k = offsets.iter().rposition(|&o| o <= cut as u64).unwrap();
        let stats = engine.recovery_stats();
        assert_eq!(stats.replayed_records, k as u64, "replayed records at cut {cut}");
        assert_eq!(stats.truncated_bytes, cut as u64 - offsets[k], "torn bytes at cut {cut}");
        assert_eq!(stats.snapshot_lsn, 0, "no snapshot in this scenario");

        let mut s = Session::new();
        s.attach_storage(Arc::new(engine)).unwrap();
        assert_eq!(probe(&mut s), fingerprints[k], "catalog state at cut {cut}");
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&scratch);
}

/// A nondeterministic-in-principle materialization (a SOLVESELECT
/// solution) must replay to exactly the committed rows: replay is
/// logical catalog mutations, never statement re-execution.
#[test]
fn solve_materialization_replays_to_committed_rows() {
    let dir = tmp_dir("solve-replay");
    let committed = {
        let mut s = Session::new();
        let engine = StorageEngine::open(&dir, FsyncPolicy::Always).unwrap();
        s.attach_storage(Arc::new(engine)).unwrap();
        s.execute("CREATE TABLE v (x float8)").unwrap();
        s.execute("INSERT INTO v VALUES (NULL), (NULL)").unwrap();
        s.execute(
            "CREATE TABLE plan AS SOLVESELECT t(x) AS (SELECT * FROM v) \
             MINIMIZE (SELECT sum(x) FROM t) \
             SUBJECTTO (SELECT x >= 3 FROM t) USING solverlp()",
        )
        .unwrap();
        s.query("SELECT x FROM plan").unwrap().rows
    };
    assert_eq!(committed, vec![vec![Value::Float(3.0)], vec![Value::Float(3.0)]]);

    let mut s = Session::new();
    let engine = StorageEngine::open(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(engine.recovery_stats().replayed_records, 3);
    s.attach_storage(Arc::new(engine)).unwrap();
    assert_eq!(s.query("SELECT x FROM plan").unwrap().rows, committed);
    let _ = fs::remove_dir_all(&dir);
}

/// CHECKPOINT mid-stream, then more DML: recovery must seed from the
/// snapshot and replay only the WAL tail past it.
#[test]
fn checkpoint_then_tail_replay_recovers_everything() {
    let dir = tmp_dir("checkpoint");
    {
        let mut s = Session::new();
        s.attach_storage(Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap())).unwrap();
        s.execute("CREATE TABLE t (x int8)").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        s.execute("CHECKPOINT").unwrap();
        s.execute("INSERT INTO t VALUES (3)").unwrap();
    }
    let mut s = Session::new();
    let engine = StorageEngine::open(&dir, FsyncPolicy::Never).unwrap();
    let stats = engine.recovery_stats();
    assert_eq!(stats.snapshot_lsn, 2);
    assert_eq!(stats.snapshot_tables, 1);
    assert_eq!(stats.replayed_records, 1);
    s.attach_storage(Arc::new(engine)).unwrap();
    assert_eq!(s.query("SELECT count(*) FROM t").unwrap().rows, vec![vec![Value::Int(3)]]);
    let _ = fs::remove_dir_all(&dir);
}

fn durable_session(engine: &Arc<StorageEngine>) -> Session {
    let mut s = Session::new();
    s.attach_storage(engine.clone()).unwrap();
    s
}

fn ints(s: &mut Session, sql: &str) -> Vec<i64> {
    s.query(sql).unwrap().rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
}

fn is_conflict(e: &Error) -> bool {
    matches!(e, Error::Catalog(m) if m.contains("concurrent commit"))
}

/// Two connections work on one catalog: a CREATE TABLE whose name
/// another connection already committed is rejected — no two schemas
/// under one name, nothing of the rejected statement in the WAL — and
/// recovery sees exactly the first writer's schema.
#[test]
fn cross_connection_create_table_conflict_is_rejected() {
    let dir = tmp_dir("conflict");
    {
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        // Both sessions attach before either writes.
        let (mut s1, mut s2) = (durable_session(&engine), durable_session(&engine));
        s1.execute("CREATE TABLE t (a int8)").unwrap();
        s1.execute("INSERT INTO t VALUES (1)").unwrap();

        let err = s2.execute("CREATE TABLE t (b float8, c float8)").unwrap_err();
        assert_eq!(err, Error::catalog("relation 't' already exists"));
        // IF NOT EXISTS is a no-op, as for any existing relation.
        s2.execute("CREATE TABLE IF NOT EXISTS t (b float8, c float8)").unwrap();
        assert_eq!(ints(&mut s2, "SELECT wal_records FROM sdb_storage"), [2]);
        assert_eq!(ints(&mut s2, "SELECT a FROM t"), [1], "one schema, the first writer's");
    }
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    assert_eq!(ints(&mut durable_session(&engine), "SELECT a FROM t"), [1]);
    let _ = fs::remove_dir_all(&dir);
}

/// The lost update of the per-connection catalogs: A inserts 1 and 2,
/// C inserts 3, A deletes 1. C's committed row must survive A's DELETE —
/// A reads C's row before it deletes — also after reopening.
#[test]
fn a_connection_opened_earlier_cannot_destroy_a_later_commit() {
    let dir = tmp_dir("lost-update");
    {
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let mut a = durable_session(&engine);
        let mut b = durable_session(&engine);
        a.execute("CREATE TABLE t (x int8)").unwrap();
        a.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        assert_eq!(ints(&mut b, "SELECT count(*) FROM t"), [2], "b sees what a committed");
        let mut c = durable_session(&engine);
        c.execute("INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(ints(&mut a, "SELECT count(*) FROM t"), [3], "a sees c's row");
        a.execute("DELETE FROM t WHERE x = 1").unwrap();
        for s in [&mut a, &mut b, &mut c, &mut durable_session(&engine)] {
            assert_eq!(ints(s, "SELECT x FROM t ORDER BY x"), [2, 3]);
        }
    }
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    assert_eq!(ints(&mut durable_session(&engine), "SELECT x FROM t ORDER BY x"), [2, 3]);
    let _ = fs::remove_dir_all(&dir);
}

/// A commit that fails leaves nothing behind in the session: its next
/// statement reads the engine's relations, so an un-logged change is
/// never visible and can never be persisted by a later statement.
#[test]
fn a_failed_commit_leaves_nothing_readable() {
    let dir = tmp_dir("failed-commit");
    {
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let (mut a, mut b) = (durable_session(&engine), durable_session(&engine));
        a.execute("CREATE TABLE t (x int8)").unwrap();
        a.execute("INSERT INTO t VALUES (1)").unwrap();
        // A replaces `t` outside a statement; before that is committed B
        // inserts. A's commit (with its next statement) must be refused.
        let replacement =
            solvedbplus::sqlengine::Table::from_rows(&["x"], vec![vec![Value::Int(9)]]);
        a.db_mut().put_table("t", replacement);
        b.execute("INSERT INTO t VALUES (2)").unwrap();
        let err = a.execute("SELECT 1").unwrap_err();
        assert!(is_conflict(&err), "{err}");
        assert_eq!(ints(&mut a, "SELECT x FROM t ORDER BY x"), [1, 2], "the 9 is gone, b's 2 here");
        a.execute("UPDATE t SET x = x + 10").unwrap();
    }
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    assert_eq!(ints(&mut durable_session(&engine), "SELECT x FROM t ORDER BY x"), [11, 12]);
    let _ = fs::remove_dir_all(&dir);
}

/// Relations a session holds when it attaches are committed by the
/// attach and shared from then on (an INSERT into one used to fail its
/// commit and stay visible un-logged); a name the engine already holds
/// refuses the attach, typed, and the session stays ephemeral.
#[test]
fn attach_commits_the_relations_a_session_already_holds() {
    let dir = tmp_dir("attach");
    {
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let mut a = Session::new();
        a.execute_script(
            "CREATE TABLE pre (x int8); CREATE VIEW pv AS SELECT sum(x) AS s FROM pre",
        )
        .unwrap();
        a.attach_storage(engine.clone()).unwrap();
        a.execute("INSERT INTO pre VALUES (5)").unwrap();
        assert_eq!(ints(&mut durable_session(&engine), "SELECT s FROM pv"), [5]);

        let mut late = Session::new();
        late.execute("CREATE TABLE pre (other text)").unwrap();
        let err = late.attach_storage(engine.clone()).unwrap_err();
        assert_eq!(err, Error::catalog("relation 'pre' already exists"));
        assert!(late.storage().is_none());
        late.execute("INSERT INTO pre VALUES ('mine')").unwrap();
        assert_eq!(ints(&mut a, "SELECT count(*) FROM pre"), [1]);
    }
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    assert_eq!(engine.recovery_stats().replayed_records, 3);
    assert_eq!(ints(&mut durable_session(&engine), "SELECT s FROM pv"), [5]);
    let _ = fs::remove_dir_all(&dir);
}

/// Two writers — 2000 single-row INSERTs each into a table of their own,
/// 500 each into a shared one — beside a third connection alternating a
/// DELETE of the shared table's multiples of 8 with a count(*). INSERTs
/// never fail; a DELETE fails only with the typed conflict, changes
/// nothing then, and goes through when retried uncontended. So every
/// multiple of 8 is deleted exactly once, and after reopening every other
/// acknowledged row is there.
#[test]
fn concurrent_writers_lose_nothing_and_conflicts_are_typed() {
    const OWN: i64 = 2000;
    const DELETE: &str = "DELETE FROM shared WHERE x % 8 = 0";
    let dir = tmp_dir("threads");
    {
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        durable_session(&engine)
            .execute_script(
                "CREATE TABLE own_1 (x int8); CREATE TABLE own_2 (x int8);
                 CREATE TABLE shared (x int8)",
            )
            .unwrap();
        let writers: Vec<_> = [1i64, 2]
            .into_iter()
            .map(|w| {
                let engine = engine.clone();
                thread::spawn(move || {
                    let mut s = durable_session(&engine);
                    for i in 0..OWN {
                        s.execute(&format!("INSERT INTO own_{w} VALUES ({i})")).unwrap();
                        if i % 4 == 0 {
                            let x = w * OWN + i;
                            s.execute(&format!("INSERT INTO shared VALUES ({x})")).unwrap();
                        }
                    }
                })
            })
            .collect();
        let mut s = durable_session(&engine);
        let (mut deleted, mut conflicts) = (0, 0);
        while !writers.iter().all(|w| w.is_finished()) {
            match s.execute(DELETE) {
                Ok(r) => deleted += r.row_count().unwrap(),
                Err(e) => {
                    assert!(is_conflict(&e), "a DELETE may only fail with the conflict: {e}");
                    conflicts += 1;
                }
            }
            assert!(ints(&mut s, "SELECT count(*) FROM shared")[0] <= 2 * OWN / 4);
        }
        for w in writers {
            w.join().expect("writer thread");
        }
        deleted += s.execute(DELETE).unwrap().row_count().unwrap();
        assert_eq!(deleted, 500, "each multiple of 8 exactly once ({conflicts} conflicts)");
        assert!(ints(&mut s, "SELECT commit_conflicts FROM sdb_storage")[0] >= conflicts);
    }
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    let mut s = durable_session(&engine);
    let all: Vec<i64> = (0..OWN).collect();
    assert_eq!(ints(&mut s, "SELECT x FROM own_1 ORDER BY x"), all);
    assert_eq!(ints(&mut s, "SELECT x FROM own_2 ORDER BY x"), all);
    let kept: Vec<i64> = (OWN..3 * OWN).filter(|x| x % 8 == 4).collect();
    assert_eq!(ints(&mut s, "SELECT x FROM shared ORDER BY x"), kept);
    let _ = fs::remove_dir_all(&dir);
}

/// What one connection derived from a table — its columnar image — is
/// there for the next: the first scan on a fresh connection pivots no
/// chunk, because both read the same handle.
#[test]
fn a_fresh_connection_reuses_the_image_another_connection_pivoted() {
    let dir = tmp_dir("shared-image");
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    let mut a = durable_session(&engine);
    let values: Vec<String> = (0..3000).map(|i| format!("({i})")).collect();
    a.execute_script(&format!(
        "CREATE TABLE t (x int8); INSERT INTO t VALUES {}",
        values.join(",")
    ))
    .unwrap();
    let before = a.db().exec_counts();
    assert_eq!(ints(&mut a, "SELECT sum(x) FROM t"), [2999 * 3000 / 2]);
    assert!(a.db().exec_counts().since(&before).columns_pivoted > 0);

    let mut b = durable_session(&engine);
    let before = b.db().exec_counts();
    assert_eq!(ints(&mut b, "SELECT sum(x) FROM t"), [2999 * 3000 / 2]);
    assert_eq!(b.db().exec_counts().since(&before).columns_pivoted, 0);
    assert!(Arc::ptr_eq(a.db().table("t").unwrap(), b.db().table("t").unwrap()));
    assert!(Arc::ptr_eq(a.db().relations(), b.db().relations()));
    let _ = fs::remove_dir_all(&dir);
}

/// One connection appends single rows to a 20 000-row table while a
/// second reads between the appends: every read sees exactly the rows
/// committed before it, an INSERT copies at most the chunk it lands in
/// (the reader's version holds the rest), and every row survives reopen.
/// Recovery keeps the chunks too: a table whose replayed appends began
/// below one chunk still copies one chunk on its first INSERT after the
/// restart, not the table.
#[test]
fn appends_beside_a_reader_copy_one_chunk_and_lose_nothing() {
    const BASE: i64 = 20_000;
    const INSERTS: i64 = 200;
    let dir = tmp_dir("shared-append");
    let small: Vec<String> = (0..300).map(|i| format!("({i})")).collect();
    let small = format!("INSERT INTO u VALUES {}", small.join(","));
    {
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let (mut a, mut b) = (durable_session(&engine), durable_session(&engine));
        let values: Vec<String> = (0..BASE).map(|i| format!("({i})")).collect();
        a.execute_script(&format!(
            "CREATE TABLE t (x int8); INSERT INTO t VALUES {}",
            values.join(",")
        ))
        .unwrap();
        let mut total = 0;
        for i in 0..INSERTS {
            let n = BASE + i;
            assert_eq!(ints(&mut b, "SELECT count(*) FROM t"), [n], "before insert {i}");
            assert_eq!(ints(&mut b, "SELECT sum(x) FROM t"), [n * (n - 1) / 2]);
            let before = a.db().exec_counts();
            a.execute(&format!("INSERT INTO t VALUES ({n})")).unwrap();
            let copied = a.db().exec_counts().since(&before).rows_copied;
            assert!(copied <= 1024, "insert {i} copied {copied} rows");
            assert_eq!(copied, n as u64 % 1024, "insert {i}: the shared last chunk only");
            total += copied as i64;
        }
        assert_eq!(ints(&mut b, "SELECT max(x) FROM t"), [BASE + INSERTS - 1]);
        let metric = "SELECT count FROM sdb_metrics WHERE name = 'rows_copied'";
        assert_eq!(ints(&mut a, metric), [total], "the session's sum, in sdb_metrics");
        a.execute("CREATE TABLE u (x int8)").unwrap();
        for _ in 0..10 {
            a.execute(&small).unwrap();
        }
    }
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    let (mut s, mut r) = (durable_session(&engine), durable_session(&engine));
    let n = BASE + INSERTS;
    assert_eq!(ints(&mut s, "SELECT count(*) FROM t"), [n]);
    assert_eq!(ints(&mut s, "SELECT sum(x) FROM t"), [n * (n - 1) / 2]);
    assert_eq!(ints(&mut r, "SELECT count(*) FROM u"), [3000]);
    let before = s.db().exec_counts();
    s.execute("INSERT INTO u VALUES (-1)").unwrap();
    let copied = s.db().exec_counts().since(&before).rows_copied;
    assert_eq!(copied, 3000 % 1024, "the first INSERT after reopen copied {copied} rows");
    assert_eq!(ints(&mut r, "SELECT count(*) FROM u"), [3001]);
    let _ = fs::remove_dir_all(&dir);
}

/// A read on `s`: whether its plan came from the plan cache, and the
/// first column of its rows.
fn read(s: &mut Session, sql: &str) -> (Option<bool>, Vec<i64>) {
    let r = s.execute(sql).unwrap();
    let hit = r.plan_cache_hit;
    (hit, r.into_table().unwrap().rows.iter().map(|r| r[0].as_i64().unwrap()).collect())
}

/// Connection A keeps its plan for a read of `items` across B's commit
/// to `events`, a table the plan does not read, and reads B's row of
/// `events`; B's commit to `items` retires the plan, and A's next read of
/// `items` plans again and sees the row.
#[test]
fn a_commit_retires_only_the_cached_plans_that_read_what_it_wrote() {
    let dir = tmp_dir("read-set");
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    let (mut a, mut b) = (durable_session(&engine), durable_session(&engine));
    a.execute_script(
        "CREATE TABLE items (id int8); INSERT INTO items VALUES (1), (2);
         CREATE TABLE events (id int8)",
    )
    .unwrap();
    let items = "SELECT id FROM items ORDER BY id";
    assert_eq!(read(&mut a, items), (Some(false), vec![1, 2]));
    assert_eq!(read(&mut a, items), (Some(true), vec![1, 2]));
    b.execute("INSERT INTO events VALUES (7)").unwrap();
    assert_eq!(read(&mut a, items), (Some(true), vec![1, 2]), "kept across a commit to events");
    assert_eq!(read(&mut a, "SELECT id FROM events").1, [7], "A reads B's row");
    b.execute("INSERT INTO items VALUES (3)").unwrap();
    assert_eq!(read(&mut a, items), (Some(false), vec![1, 2, 3]), "retired by a commit to items");
    let _ = fs::remove_dir_all(&dir);
}

/// The statements `tests/data/pr20_datadir` was written with — by the
/// commit before the one-catalog engine (`solvedb --data-dir`).
const PR20_STMTS: &[&str] = &[
    "CREATE TABLE a (x int8, label text)",
    "INSERT INTO a VALUES (1, 'one'), (2, 'two')",
    "CREATE TABLE gone (g float8)",
    "CREATE VIEW vw AS SELECT sum(x) AS s FROM a",
    "CHECKPOINT",
    "INSERT INTO a VALUES (3, 'three')",
    "UPDATE a SET label = 'TWO' WHERE x = 2",
    "DROP TABLE gone",
    "CREATE TABLE b (y float8)",
    "INSERT INTO b VALUES (0.5), (NULL)",
    "CREATE OR REPLACE VIEW vw AS SELECT sum(x) AS s, count(*) AS n FROM a",
];

/// WAL and snapshot formats are unchanged: a directory the previous
/// commit wrote opens and answers, and the same statements write the
/// same bytes today.
#[test]
fn a_data_directory_of_the_previous_format_opens_and_is_written_identically() {
    let checked_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/pr20_datadir");
    let files = ["snapshot-00000000000000000004.sdb", "wal.log"];
    let dir = tmp_dir("pr20-copy");
    for f in files {
        fs::copy(checked_in.join(f), dir.join(f)).unwrap();
    }
    let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
    let stats = engine.recovery_stats();
    assert_eq!((stats.snapshot_lsn, stats.replayed_records, stats.truncated_bytes), (4, 6, 0));
    let mut s = durable_session(&engine);
    let a = s.query("SELECT x, label FROM a ORDER BY x").unwrap().rows;
    let row = |x, label: &str| vec![Value::Int(x), Value::text(label)];
    assert_eq!(a, vec![row(1, "one"), row(2, "TWO"), row(3, "three")]);
    assert_eq!(s.query("SELECT y FROM b").unwrap().rows, [[Value::Float(0.5)], [Value::Null]]);
    assert_eq!(s.query("SELECT s, n FROM vw").unwrap().rows, [[Value::Int(6), Value::Int(3)]]);
    assert!(s.query("SELECT * FROM gone").is_err());

    let fresh = tmp_dir("pr20-fresh");
    {
        let engine = Arc::new(StorageEngine::open(&fresh, FsyncPolicy::Never).unwrap());
        let mut s = durable_session(&engine);
        for stmt in PR20_STMTS {
            s.execute(stmt).unwrap();
        }
    }
    for f in files {
        assert_eq!(fs::read(fresh.join(f)).unwrap(), fs::read(checked_in.join(f)).unwrap(), "{f}");
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&fresh);
}

struct DurableServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    join: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl DurableServer {
    fn start(dir: &Path) -> DurableServer {
        let srv = Server::bind_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                data_dir: Some(dir.to_path_buf()),
                fsync: FsyncPolicy::Always,
                ..ServerConfig::default()
            },
        )
        .expect("bind durable server");
        let addr = srv.local_addr();
        let shutdown = srv.shutdown_handle();
        let join = thread::spawn(move || srv.run());
        DurableServer { addr, shutdown, join: Some(join) }
    }

    fn stop(mut self) {
        self.shutdown.shutdown();
        let join = self.join.take().unwrap();
        join.join().expect("server thread").expect("server run");
    }
}

impl Drop for DurableServer {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.shutdown.shutdown();
            let _ = join.join();
        }
    }
}

/// Loopback restart: run a workload (DDL, DML, a solve, a view, a
/// mid-stream CHECKPOINT) against a durable server, restart the server
/// on the same data directory, and assert the recovered answers are
/// identical — including for a connection opened after the restart.
#[test]
fn server_restart_on_same_data_dir_recovers_catalog() {
    use solvedbplus::server::Client;

    let dir = tmp_dir("loopback");
    let check = |client: &mut Client| -> Vec<Vec<Value>> {
        let mut rows = client.query("SELECT s FROM total").unwrap().rows;
        rows.extend(client.query("SELECT count(*) FROM v").unwrap().rows);
        rows.extend(client.query("SELECT x FROM plan ORDER BY x").unwrap().rows);
        rows
    };

    let srv = DurableServer::start(&dir);
    let mut client = Client::connect(srv.addr).expect("connect");
    client
        .execute(
            "CREATE TABLE v (x float8); \
             INSERT INTO v VALUES (NULL), (NULL); \
             CREATE TABLE plan AS SOLVESELECT t(x) AS (SELECT * FROM v) \
               MINIMIZE (SELECT sum(x) FROM t) \
               SUBJECTTO (SELECT x >= 3 FROM t) USING solverlp(); \
             CREATE VIEW total AS SELECT sum(x) AS s FROM plan; \
             CHECKPOINT; \
             INSERT INTO v VALUES (NULL); \
             UPDATE v SET x = 9 WHERE x IS NULL",
        )
        .expect("workload");
    let before = check(&mut client);
    assert_eq!(before[0], vec![Value::Float(6.0)]);
    assert_eq!(before[1], vec![Value::Int(3)]);
    client.close().unwrap();
    srv.stop();

    let srv = DurableServer::start(&dir);
    let mut client = Client::connect(srv.addr).expect("reconnect");
    assert_eq!(check(&mut client), before);
    // The recovery counters are visible over the wire: the snapshot
    // from CHECKPOINT plus the two post-checkpoint statements.
    let row = client
        .query("SELECT recovered_snapshot_lsn, recovered_replayed FROM sdb_storage")
        .unwrap()
        .rows;
    assert_eq!(row, vec![vec![Value::Int(4), Value::Int(2)]]);
    client.close().unwrap();
    srv.stop();
    let _ = fs::remove_dir_all(&dir);
}
