//! The storage engine: the one catalog of every durable session, its
//! group-commit WAL, checkpointing and crash recovery.
//!
//! One [`StorageEngine`] owns a data directory (`wal.log` plus
//! `snapshot-<lsn>.sdb` files) and the *current version* of the durable
//! relations — tables with their columnar images and statistics, parsed
//! views — which every attached session reads. Per connection there is
//! only a [`SessionHook`]: the running statement's mutation buffer and
//! the version it started from (settings, UDF training data and the plan
//! cache stay in the session). A session adopts the current version when
//! a statement starts and keeps it to the statement's end; at the end all
//! of (and only) that statement's records go to the log in one contiguous
//! write — group commit, at most one fsync as the [`FsyncPolicy`]
//! dictates — and the version they lead to is published (`publish`
//! below). STORAGE.md states the rules in full.
//!
//! A WAL append I/O failure *poisons* the engine: after a partial
//! write the file offset is indeterminate, so appending more frames
//! could render every later record unrecoverable (replay stops at the
//! first torn frame). A poisoned engine refuses all further commits
//! and checkpoints; restarting the process recovers, truncating the
//! torn tail.

use crate::record::Record;
use crate::snapshot::{self, SnapshotData};
use crate::wal::Wal;
use obs::{QueryTrace, Stage, Trace};
use sqlengine::catalog::{CatalogMutation, Ctes, Database, DurabilityHook, ReadSet, Relations};
use sqlengine::error::{Error, Result};
use sqlengine::table::Table;
use sqlengine::types::Value;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When (if ever) WAL appends reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every group commit — survives power loss.
    Always,
    /// fsync at most once per the given window — bounded data loss,
    /// near-`Never` throughput. The deadline is enforced even when the
    /// engine goes idle: a background flusher thread syncs any
    /// unsynced tail once the window expires, and a clean shutdown
    /// (engine drop) syncs whatever remains.
    Interval(Duration),
    /// Never fsync — the OS page cache decides; survives process
    /// crashes (SIGKILL) but not power loss.
    Never,
}

impl FsyncPolicy {
    /// Parse `always` / `never` / `interval` / `interval:<ms>`.
    pub fn parse(s: &str) -> Result<FsyncPolicy> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(100))),
            other => {
                if let Some(ms) = other.strip_prefix("interval:") {
                    let ms: u64 = ms.parse().map_err(|_| {
                        Error::eval(format!("invalid fsync interval '{ms}' (want milliseconds)"))
                    })?;
                    return Ok(FsyncPolicy::Interval(Duration::from_millis(ms)));
                }
                Err(Error::eval(format!(
                    "unknown fsync policy '{other}' (want always | interval[:ms] | never)"
                )))
            }
        }
    }

    /// Canonical rendering (shown in `sdb_storage`).
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::Interval(d) => format!("interval:{}", d.as_millis()),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

/// What recovery found and did, frozen at open time.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// LSN of the snapshot that seeded recovery (0 = none found).
    pub snapshot_lsn: u64,
    /// Tables / views restored from the snapshot.
    pub snapshot_tables: u64,
    pub snapshot_views: u64,
    /// UDF names the snapshot recorded (informational — UDFs are code,
    /// re-registered by the session at startup).
    pub snapshot_udfs: Vec<String>,
    /// WAL records replayed (LSN > snapshot LSN).
    pub replayed_records: u64,
    /// WAL records skipped because the snapshot already covered them.
    pub skipped_records: u64,
    /// Bytes of torn WAL tail truncated at open.
    pub truncated_bytes: u64,
    /// Why the tail was torn, when it was.
    pub torn_reason: Option<String>,
    /// Snapshots that failed validation and were passed over.
    pub rejected_snapshots: Vec<(String, String)>,
    /// Wall-clock nanos spent recovering.
    pub recover_nanos: u64,
}

/// Mutable engine state behind one lock: the log, the catalog, and
/// cumulative counters.
struct EngineInner {
    wal: Wal,
    next_lsn: u64,
    last_checkpoint_lsn: u64,
    /// The catalog: the durable relations as of the last commit.
    current: Arc<Relations>,
    /// Cumulative counters (surfaced in `sdb_storage`). Every commit
    /// publishes a version, so `commits` is the catalog version too;
    /// `conflicts` are the commits that found a relation changed underneath.
    conflicts: u64,
    commits: u64,
    fsyncs: u64,
    wal_append_nanos: u64,
    checkpoints: u64,
    last_snapshot_bytes: u64,
    last_fsync: Instant,
    /// Appended bytes not yet covered by an fsync.
    dirty: bool,
    /// Set on a WAL append/sync I/O failure. A partial append leaves
    /// the file offset indeterminate, so every later write could be
    /// unrecoverable; the engine refuses further commits until the
    /// process restarts and recovery truncates the torn tail.
    poisoned: Option<String>,
}

impl EngineInner {
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(why) => Err(Error::eval(format!(
                "storage: engine poisoned by an earlier WAL I/O failure \
                 (restart to recover): {why}"
            ))),
            None => Ok(()),
        }
    }

    /// Interval-policy deadline: sync the unsynced tail once the
    /// window has expired. Called from the background flusher and at
    /// every statement start, so the bounded-loss window holds even when
    /// the last commits before an idle period never saw a follow-up.
    fn sync_if_due(&mut self, policy: FsyncPolicy) -> Result<()> {
        let FsyncPolicy::Interval(window) = policy else { return Ok(()) };
        if !self.dirty || self.last_fsync.elapsed() < window {
            return Ok(());
        }
        match self.wal.sync() {
            Ok(()) => {
                self.dirty = false;
                self.fsyncs += 1;
                self.last_fsync = Instant::now();
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }
}

/// The durable storage engine for one data directory.
pub struct StorageEngine {
    dir: PathBuf,
    policy: FsyncPolicy,
    inner: Arc<Mutex<EngineInner>>,
    recovery: RecoveryStats,
    recovery_trace: QueryTrace,
    /// Interval-policy deadline flusher: stop flag + condvar, joined
    /// on drop. `None` for `always`/`never` (nothing to flush late).
    flusher: Option<(Arc<(Mutex<bool>, Condvar)>, JoinHandle<()>)>,
    /// Latency sink for `wal.append` / `wal.fsync` histograms, attached
    /// once by the process that opened the engine.
    metrics: std::sync::OnceLock<Arc<obs::MetricsRegistry>>,
}

fn lock(inner: &Mutex<EngineInner>) -> MutexGuard<'_, EngineInner> {
    // A poisoning panic cannot leave the byte-level state torn worse
    // than a crash would, and recovery handles crashes; keep serving.
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

/// Background deadline enforcement for [`FsyncPolicy::Interval`]: wake
/// at least once per window and sync any unsynced tail whose deadline
/// has passed, so commits before an idle period still reach disk
/// within the documented bound.
fn flusher_loop(
    inner: Arc<Mutex<EngineInner>>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    window: Duration,
) {
    let sleep = window.max(Duration::from_millis(1));
    let (flag, cvar) = &*stop;
    let mut stopped = flag.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let Ok((guard, _)) = cvar.wait_timeout(stopped, sleep) else { return };
        stopped = guard;
        if *stopped {
            return;
        }
        let mut inner = lock(&inner);
        if inner.poisoned.is_none() {
            // An I/O failure here poisons the engine (inside
            // sync_if_due); the next commit reports it.
            let _ = inner.sync_if_due(FsyncPolicy::Interval(window));
        }
    }
}

impl StorageEngine {
    /// Open a data directory: load the newest valid snapshot, replay
    /// the WAL tail (truncating a torn final record), and position the
    /// log for appends. Records the `recover` stage tree.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> Result<StorageEngine> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::eval(format!("storage: create data dir: {e}")))?;
        let started = Instant::now();
        let trace = Trace::new("RECOVER");
        let mut stats = RecoveryStats::default();
        let mut relations = Relations::default();

        // Phase 1: newest valid snapshot.
        let snap: Option<SnapshotData> = trace.time("recover.snapshot", || {
            let mut rejected = Vec::new();
            let s = snapshot::load_latest(dir, &mut rejected);
            stats.rejected_snapshots = rejected;
            s
        });
        if let Some(snap) = snap {
            stats.snapshot_lsn = snap.last_lsn;
            stats.snapshot_tables = snap.tables.len() as u64;
            stats.snapshot_views = snap.views.len() as u64;
            stats.snapshot_udfs = snap.udfs;
            for (name, table) in snap.tables {
                relations.apply(&CatalogMutation::CreateTable { name, table }, false)?;
            }
            for (name, sql) in snap.views {
                relations.apply(&CatalogMutation::CreateView { name, sql }, false)?;
            }
        }
        let snapshot_lsn = stats.snapshot_lsn;

        // Phase 2: WAL tail. Records the snapshot already covers are
        // skipped; a torn final record was truncated by `Wal::open`.
        let (wal, scan) = trace.time("recover.wal", || Wal::open(&dir.join("wal.log")))?;
        stats.truncated_bytes = scan.truncated_bytes;
        stats.torn_reason = scan.torn_reason.clone();
        let mut max_lsn = snapshot_lsn;
        for Record { lsn, mutation } in &scan.records {
            max_lsn = max_lsn.max(*lsn);
            if *lsn <= snapshot_lsn {
                stats.skipped_records += 1;
                continue;
            }
            relations.apply(mutation, false)?;
            stats.replayed_records += 1;
        }
        let recovered = EngineInner {
            wal,
            next_lsn: max_lsn + 1,
            last_checkpoint_lsn: snapshot_lsn,
            current: Arc::new(relations),
            conflicts: 0,
            commits: 0,
            fsyncs: 0,
            wal_append_nanos: 0,
            checkpoints: 0,
            last_snapshot_bytes: 0,
            last_fsync: Instant::now(),
            dirty: false,
            poisoned: None,
        };
        stats.recover_nanos = started.elapsed().as_nanos() as u64;
        let recovery_trace = trace.finish();
        let inner = Arc::new(Mutex::new(recovered));
        let flusher = if let FsyncPolicy::Interval(window) = policy {
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let thread_inner = Arc::clone(&inner);
            let thread_stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sdb-wal-flusher".into())
                .spawn(move || flusher_loop(thread_inner, thread_stop, window))
                .ok()
                .map(|handle| (stop, handle))
        } else {
            None
        };
        Ok(StorageEngine {
            dir: dir.to_path_buf(),
            policy,
            inner,
            recovery: stats,
            recovery_trace,
            flusher,
            metrics: std::sync::OnceLock::new(),
        })
    }

    /// Attach the metrics registry that receives `wal.append` /
    /// `wal.fsync` latency distributions. Later calls are ignored (the
    /// engine is shared by every session of a process).
    pub fn attach_metrics(&self, metrics: Arc<obs::MetricsRegistry>) {
        let _ = self.metrics.set(metrics);
    }

    /// The data directory this engine owns.
    pub fn data_dir(&self) -> &Path {
        &self.dir
    }

    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Recovery outcome, frozen at open.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// The `recover` stage tree recorded while opening.
    pub fn recovery_trace(&self) -> &QueryTrace {
        &self.recovery_trace
    }

    /// The current version of the durable relations.
    pub fn current(&self) -> Arc<Relations> {
        lock(&self.inner).current.clone()
    }

    /// Make `db` read the current version (what it held is dropped).
    pub fn hydrate(&self, db: &mut Database) -> Result<()> {
        db.adopt(self.current());
        Ok(())
    }

    /// Statement start: the current version when it is no longer `base`;
    /// and the interval deadline (a failure poisons, the next commit says).
    fn moved_from(&self, base: &Arc<Relations>) -> Option<Arc<Relations>> {
        let mut inner = lock(&self.inner);
        if inner.poisoned.is_none() {
            let _ = inner.sync_if_due(self.policy);
        }
        (!Arc::ptr_eq(&inner.current, base)).then(|| inner.current.clone())
    }

    /// Group commit: log one statement's batch as one contiguous WAL write,
    /// fsyncing per the policy, then publish the version it leads to —
    /// `mine`, the committing session's relations, while the current
    /// version is still the `base` the statement started from. Otherwise
    /// each relation of the batch is taken from `mine` if nobody committed
    /// to it since `base`, and merged by the strict applier if somebody
    /// did. A conflict or a failed append changes neither log nor catalog.
    /// Returns the version and `(records, nanos)` for the `wal.append` stage.
    fn publish(
        &self,
        base: &Arc<Relations>,
        mine: &Arc<Relations>,
        batch: Vec<CatalogMutation>,
    ) -> Result<(Arc<Relations>, u64, u64)> {
        let mut inner = lock(&self.inner);
        inner.check_poisoned()?;
        let started = Instant::now();
        let next = if Arc::ptr_eq(&inner.current, base) {
            mine.clone()
        } else {
            let mut merged = Relations::clone(&inner.current);
            let mut contended = false;
            let none = Ctes::new();
            let applied = batch.iter().try_for_each(|m| {
                let read = ReadSet::of(base, &none, [m.relation().to_string()]);
                if read.still_valid(&inner.current, &none) {
                    merged.install(m.relation(), mine);
                    return Ok(());
                }
                contended = true;
                // A merge's copies are no session's write: not counted.
                merged.apply(m, true).map(drop)
            });
            inner.conflicts += contended as u64;
            applied?;
            Arc::new(merged)
        };
        let lsn_batch: Vec<(u64, CatalogMutation)> =
            batch.into_iter().enumerate().map(|(i, m)| (inner.next_lsn + i as u64, m)).collect();
        let fsync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Never => false,
            FsyncPolicy::Interval(window) => inner.last_fsync.elapsed() >= window,
        };
        let (_, fsync_nanos) = match inner.wal.append(&lsn_batch, fsync) {
            Ok(out) => out,
            Err(e) => {
                // A partial append leaves the file offset torn; any
                // further append could strand every record after it.
                inner.poisoned = Some(e.to_string());
                return Err(Error::eval(format!(
                    "storage: WAL append failed; engine poisoned, restart to recover: {e}"
                )));
            }
        };
        inner.next_lsn += lsn_batch.len() as u64;
        if fsync {
            inner.fsyncs += 1;
            inner.last_fsync = Instant::now();
            inner.dirty = false;
        } else {
            inner.dirty = true;
        }
        inner.current = next.clone();
        let n = lsn_batch.len() as u64;
        let nanos = started.elapsed().as_nanos() as u64;
        inner.commits += 1;
        inner.wal_append_nanos += nanos;
        if let Some(m) = self.metrics.get() {
            m.record_stage("wal.append", nanos);
            if fsync {
                m.record_stage("wal.fsync", fsync_nanos);
            }
        }
        Ok((next, n, nanos))
    }

    /// `CHECKPOINT`: snapshot the current version, rotate the log,
    /// prune superseded snapshots. The calling [`SessionHook`] flushes
    /// its pending batch first so the snapshot's LSN covers it. `udfs`
    /// is the checkpointing session's registered-UDF list (recorded in
    /// the snapshot for recovery reporting).
    pub fn do_checkpoint(&self, udfs: &[String], trace: Option<&Trace>) -> Result<Table> {
        let mut inner = lock(&self.inner);
        inner.check_poisoned()?;
        let started = Instant::now();
        let last_lsn = inner.next_lsn - 1;
        let (tables, views) = (inner.current.tables_snapshot(), inner.current.views_snapshot());

        let (path, bytes) = if let Some(tr) = trace {
            tr.time("checkpoint.snapshot", || {
                snapshot::write_snapshot_parts(&self.dir, last_lsn, &tables, &views, udfs)
            })?
        } else {
            snapshot::write_snapshot_parts(&self.dir, last_lsn, &tables, &views, udfs)?
        };
        // The snapshot is durably in place; the log can restart empty
        // (replay skips LSN ≤ snapshot anyway, so a crash between the
        // rename above and this truncation is safe).
        if let Some(tr) = trace {
            tr.time("checkpoint.rotate", || inner.wal.rotate())?;
        } else {
            inner.wal.rotate()?;
        }
        inner.dirty = false;
        snapshot::prune_snapshots(&self.dir, last_lsn);
        inner.last_checkpoint_lsn = last_lsn;
        inner.checkpoints += 1;
        inner.last_snapshot_bytes = bytes;
        let nanos = started.elapsed().as_nanos() as u64;
        Ok(Table::from_rows(
            &["checkpoint_lsn", "snapshot_file", "snapshot_bytes", "tables", "views", "ms"],
            vec![vec![
                Value::Int(last_lsn as i64),
                Value::text(path.to_string_lossy()),
                Value::Int(bytes as i64),
                Value::Int(tables.len() as i64),
                Value::Int(views.len() as i64),
                Value::Float(nanos as f64 / 1_000_000.0),
            ]],
        ))
    }

    #[cfg(test)]
    fn poison_for_test(&self, why: &str) {
        lock(&self.inner).poisoned = Some(why.to_string());
    }

    /// Column names of the `sdb_storage` relation.
    pub const STATUS_COLUMNS: [&'static str; 20] = [
        "data_dir",
        "fsync_policy",
        "wal_bytes",
        "wal_records",
        "last_lsn",
        "last_checkpoint_lsn",
        "commits",
        "fsyncs",
        "wal_append_ms",
        "checkpoints",
        "snapshot_bytes",
        "recovered_snapshot_lsn",
        "recovered_replayed",
        "recovered_skipped",
        "recovered_truncated_bytes",
        "recovered_torn_reason",
        "recover_ms",
        "poisoned",
        "catalog_version",
        "commit_conflicts",
    ];

    /// The `sdb_storage` relation with no rows — the shape served when
    /// no storage engine is attached (ephemeral sessions).
    pub fn status_schema_table() -> Table {
        Table::from_rows(&Self::STATUS_COLUMNS, Vec::new())
    }

    /// One-row relation backing the `sdb_storage` virtual table.
    pub fn status_table(&self) -> Table {
        let inner = lock(&self.inner);
        let r = &self.recovery;
        Table::from_rows(
            &Self::STATUS_COLUMNS,
            vec![vec![
                Value::text(self.dir.to_string_lossy()),
                Value::text(self.policy.label()),
                Value::Int(inner.wal.bytes() as i64),
                Value::Int(inner.wal.records() as i64),
                Value::Int((inner.next_lsn - 1) as i64),
                Value::Int(inner.last_checkpoint_lsn as i64),
                Value::Int(inner.commits as i64),
                Value::Int(inner.fsyncs as i64),
                Value::Float(inner.wal_append_nanos as f64 / 1_000_000.0),
                Value::Int(inner.checkpoints as i64),
                Value::Int(inner.last_snapshot_bytes as i64),
                Value::Int(r.snapshot_lsn as i64),
                Value::Int(r.replayed_records as i64),
                Value::Int(r.skipped_records as i64),
                Value::Int(r.truncated_bytes as i64),
                match &r.torn_reason {
                    Some(reason) => Value::text(reason),
                    None => Value::Null,
                },
                Value::Float(r.recover_nanos as f64 / 1_000_000.0),
                match &inner.poisoned {
                    Some(why) => Value::text(why),
                    None => Value::Null,
                },
                Value::Int(inner.commits as i64),
                Value::Int(inner.conflicts as i64),
            ]],
        )
    }

    /// A `wal.append` stage for the most useful unit: one commit call.
    pub fn append_stage(records: u64, nanos: u64) -> Stage {
        let mut s = Stage::leaf("wal.append", nanos);
        s.rows = Some(records);
        s
    }
}

impl Drop for StorageEngine {
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.flusher.take() {
            let (flag, cvar) = &*stop;
            *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cvar.notify_all();
            let _ = handle.join();
        }
        // Clean shutdown under the interval policy: sync the unsynced
        // tail so a stopped server never depends on OS writeback.
        // (`never` means never — shutdown honors it too.)
        if matches!(self.policy, FsyncPolicy::Interval(_)) {
            let mut inner = lock(&self.inner);
            if inner.poisoned.is_none() && inner.dirty && inner.wal.sync().is_ok() {
                inner.dirty = false;
                inner.fsyncs += 1;
            }
        }
    }
}

/// One session's side of the shared catalog: the mutations the running
/// statement made in memory (buffered per session, so a group commit
/// covers exactly one statement's records, never part of a concurrent
/// session's), and the engine version its relations derive from.
pub struct SessionHook {
    engine: Arc<StorageEngine>,
    state: Mutex<HookState>,
}

struct HookState {
    pending: Vec<CatalogMutation>,
    base: Arc<Relations>,
}

impl SessionHook {
    /// Make `db` durable over `engine`: it reads the engine's relations
    /// from here on and records its mutations into the returned hook. What
    /// `db` already holds is committed first (`CreateTable` / `CreateView`
    /// records); if the engine holds one of the names, `db` stays as it was.
    pub fn attach(engine: Arc<StorageEngine>, db: &mut Database) -> Result<Arc<SessionHook>> {
        let mine = db.relations().clone();
        let tables = mine.tables_snapshot().into_iter();
        let views = mine.views_snapshot().into_iter();
        let batch: Vec<CatalogMutation> = tables
            .map(|(name, table)| CatalogMutation::CreateTable { name, table })
            .chain(views.map(|(name, sql)| CatalogMutation::CreateView { name, sql }))
            .collect();
        let base = match batch.is_empty() {
            true => engine.current(),
            false => engine.publish(&Arc::default(), &mine, batch)?.0,
        };
        db.adopt(base.clone());
        let state = Mutex::new(HookState { pending: Vec::new(), base });
        let hook = Arc::new(SessionHook { engine, state });
        db.set_durability_hook(hook.clone());
        Ok(hook)
    }

    /// The shared engine this hook commits through.
    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    fn state(&self) -> MutexGuard<'_, HookState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Statement start: adopt the engine's current version if it moved
    /// (not over un-committed programmatic writes: the commit merges them).
    pub fn begin(&self, db: &mut Database) {
        let mut st = self.state();
        if !st.pending.is_empty() {
            return;
        }
        if let Some(current) = self.engine.moved_from(&st.base) {
            db.adopt(current.clone());
            st.base = current;
        }
    }

    /// Statement end: log and publish the pending batch as one group
    /// commit. On failure `db` moves to the engine's current version: what
    /// was not logged is not readable either.
    pub fn commit(&self, db: &mut Database) -> Result<(u64, u64)> {
        let mut st = self.state();
        if st.pending.is_empty() {
            return Ok((0, 0));
        }
        let batch = std::mem::take(&mut st.pending);
        let (published, out) = match self.engine.publish(&st.base, db.relations(), batch) {
            Ok((next, records, nanos)) => (next, Ok((records, nanos))),
            Err(e) => (self.engine.current(), Err(e)),
        };
        if !Arc::ptr_eq(&published, db.relations()) {
            db.adopt(published.clone());
        }
        st.base = published;
        out
    }
}

impl DurabilityHook for SessionHook {
    fn record(&self, mutation: CatalogMutation) {
        self.state().pending.push(mutation);
    }

    fn checkpoint(&self, db: &mut Database, trace: Option<&Trace>) -> Result<Table> {
        // Flush this session's buffer so the snapshot's LSN covers it.
        self.commit(db)?;
        self.engine.do_checkpoint(&db.udf_names(), trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::execute_sql;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdb-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A database attached to the engine, as a durable session holds one.
    struct Conn {
        db: Database,
        hook: Arc<SessionHook>,
    }

    impl Conn {
        fn open(engine: &Arc<StorageEngine>) -> Conn {
            let mut db = Database::new();
            let hook = SessionHook::attach(engine.clone(), &mut db).unwrap();
            Conn { db, hook }
        }

        /// One statement the way `Session` runs it: begin, execute, commit.
        fn run(&mut self, sql: &str) -> Result<sqlengine::ExecResult> {
            self.hook.begin(&mut self.db);
            let out = execute_sql(&mut self.db, sql);
            self.hook.commit(&mut self.db)?;
            out
        }

        fn scalar(&mut self, sql: &str) -> Value {
            self.run(sql).unwrap().into_table().unwrap().rows[0][0].clone()
        }
    }

    fn status(engine: &StorageEngine, column: &str) -> Value {
        let s = engine.status_table();
        s.rows[0][s.schema.index_of(column).unwrap()].clone()
    }

    #[test]
    fn statements_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Always).unwrap());
            let mut c = Conn::open(&engine);
            c.run("CREATE TABLE t (a INT, b TEXT)").unwrap();
            c.run("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
            c.run("CREATE VIEW v AS SELECT a FROM t WHERE b = 'y'").unwrap();
        }
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Always).unwrap());
        assert_eq!(engine.recovery_stats().replayed_records, 3);
        let mut c = Conn::open(&engine);
        let t = c.run("SELECT * FROM v").unwrap().into_table().unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(c.scalar("SELECT count(*) FROM t"), Value::Int(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_and_recovery_prefers_snapshot() {
        let dir = tmpdir("ckpt");
        {
            let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Always).unwrap());
            let mut c = Conn::open(&engine);
            c.run("CREATE TABLE t (a INT)").unwrap();
            c.run("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            let status = c.run("CHECKPOINT").unwrap().into_table().unwrap();
            assert_eq!(status.num_rows(), 1);
            // Post-checkpoint writes land in the fresh log.
            c.run("INSERT INTO t VALUES (4)").unwrap();
        }
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Always).unwrap());
        let r = engine.recovery_stats();
        assert!(r.snapshot_lsn > 0, "snapshot should seed recovery");
        assert_eq!(r.replayed_records, 1, "only the post-checkpoint insert replays");
        assert_eq!(Conn::open(&engine).scalar("SELECT count(*) FROM t"), Value::Int(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_delete_and_drop_replay() {
        let dir = tmpdir("dml");
        {
            let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
            let mut c = Conn::open(&engine);
            for sql in [
                "CREATE TABLE t (a INT, b TEXT)",
                "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')",
                "UPDATE t SET b = 'yy' WHERE a = 2",
                "DELETE FROM t WHERE a = 1",
                "CREATE TABLE gone (g INT)",
                "DROP TABLE gone",
            ] {
                c.run(sql).unwrap();
            }
        }
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let mut c = Conn::open(&engine);
        let t = c.run("SELECT a, b FROM t ORDER BY a").unwrap().into_table().unwrap();
        assert_eq!(
            t.rows,
            vec![vec![Value::Int(2), Value::text("yy")], vec![Value::Int(3), Value::text("z")],]
        );
        assert!(c.run("SELECT * FROM gone").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parse() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:250").unwrap(),
            FsyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::parse("interval:250").unwrap().label(), "interval:250");
    }

    #[test]
    fn status_table_reports_counters() {
        let dir = tmpdir("status");
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Always).unwrap());
        let mut c = Conn::open(&engine);
        c.run("CREATE TABLE t (a INT)").unwrap();
        c.run("SELECT * FROM t").unwrap();
        assert_eq!(engine.status_table().num_rows(), 1);
        assert_eq!(status(&engine, "commits"), Value::Int(1));
        assert_eq!(status(&engine, "fsyncs"), Value::Int(1));
        assert_eq!(status(&engine, "wal_records"), Value::Int(1));
        assert_eq!(status(&engine, "fsync_policy"), Value::text("always"));
        assert_eq!(status(&engine, "poisoned"), Value::Null);
        assert_eq!(status(&engine, "catalog_version"), Value::Int(1), "reads publish nothing");
        assert_eq!(status(&engine, "commit_conflicts"), Value::Int(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two connections read and write one catalog: a second CREATE TABLE
    /// of a name is rejected by the statement when it sees the first, and
    /// by the commit when the two race — no two schemas under one name,
    /// nothing of a rejected batch in the WAL, the first writer's schema
    /// after a restart.
    #[test]
    fn cross_session_create_table_conflict_is_rejected() {
        let dir = tmpdir("conflict");
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let (mut c1, mut c2) = (Conn::open(&engine), Conn::open(&engine));
        c1.run("CREATE TABLE t (a INT)").unwrap();

        // Statement level: connection 2 sees `t` at its next statement.
        let err = c2.run("CREATE TABLE t (b TEXT, c INT)").unwrap_err();
        assert_eq!(err, Error::catalog("relation 't' already exists"));
        c2.run("CREATE TABLE IF NOT EXISTS t (b TEXT, c INT)").unwrap();
        assert_eq!(status(&engine, "wal_records"), Value::Int(1), "a refused CREATE logs nothing");

        // Commit level (the race): both statements start before either
        // commits; the second commit is refused and leaves no trace.
        c1.hook.begin(&mut c1.db);
        c2.hook.begin(&mut c2.db);
        execute_sql(&mut c1.db, "CREATE TABLE u (a INT)").unwrap();
        execute_sql(&mut c2.db, "CREATE TABLE u (b TEXT, c INT)").unwrap();
        c1.hook.commit(&mut c1.db).unwrap();
        let err = c2.hook.commit(&mut c2.db).unwrap_err();
        assert_eq!(err, Error::catalog("relation 'u' already exists"));
        assert_eq!(status(&engine, "wal_records"), Value::Int(2));
        assert_eq!(status(&engine, "commit_conflicts"), Value::Int(1));
        // The loser now reads the winner's table.
        assert_eq!(c2.db.table("u").unwrap().schema.len(), 1);
        assert!(Arc::ptr_eq(c1.db.table("u").unwrap(), c2.db.table("u").unwrap()));

        drop((c1, c2, engine));
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let mut c3 = Conn::open(&engine);
        for name in ["t", "u"] {
            let t = c3.run(&format!("SELECT * FROM {name}")).unwrap().into_table().unwrap();
            assert_eq!(t.schema.len(), 1, "durable schema must be the first CREATE's");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Racing writers of one table: appends merge, while an INSERT into
    /// a table dropped underneath and a rewrite of a table that changed
    /// underneath fail typed — and leave the failed session on the
    /// engine's version, the un-logged effect gone.
    #[test]
    fn append_after_cross_session_drop_is_rejected() {
        let dir = tmpdir("appendconflict");
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let (mut c1, mut c2) = (Conn::open(&engine), Conn::open(&engine));
        c1.run("CREATE TABLE t (a INT)").unwrap();
        c1.run("CREATE TABLE u (a INT)").unwrap();

        // Both start; 1 inserts and commits; 2's insert merges behind it.
        c2.hook.begin(&mut c2.db);
        execute_sql(&mut c2.db, "INSERT INTO u VALUES (2)").unwrap();
        c1.run("INSERT INTO u VALUES (1)").unwrap();
        c2.hook.commit(&mut c2.db).unwrap();
        let rows = |c: &mut Conn| c.db.table("u").unwrap().rows.clone();
        assert_eq!(rows(&mut c2), vec![vec![Value::Int(1)], vec![Value::Int(2)]]);

        // 2 deletes from the version it started with while 1 inserts.
        c2.hook.begin(&mut c2.db);
        execute_sql(&mut c2.db, "DELETE FROM u WHERE a = 1").unwrap();
        c1.run("INSERT INTO u VALUES (3)").unwrap();
        let err = c2.hook.commit(&mut c2.db).unwrap_err();
        assert!(matches!(&err, Error::Catalog(m) if m.contains("concurrent commit")), "{err}");
        assert_eq!(rows(&mut c2).len(), 3, "the refused DELETE is undone, 1's row visible");
        assert_eq!(c2.run("DELETE FROM u WHERE a = 1").unwrap().row_count(), Some(1), "the retry");

        // 2 inserts into `t` while 1 drops it.
        c2.hook.begin(&mut c2.db);
        execute_sql(&mut c2.db, "INSERT INTO t VALUES (7)").unwrap();
        c1.run("DROP TABLE t").unwrap();
        let before = status(&engine, "wal_records");
        let err = c2.hook.commit(&mut c2.db).unwrap_err();
        assert!(matches!(&err, Error::Catalog(m) if m.contains("concurrent commit")), "{err}");
        assert_eq!(status(&engine, "wal_records"), before, "nothing of a rejected batch is logged");
        assert!(!c2.db.has_table("t"));

        // Arity divergence: a raw AppendRows of the wrong width against a
        // table that changed underneath.
        c2.hook.begin(&mut c2.db);
        c2.hook.record(CatalogMutation::AppendRows {
            name: "u".into(),
            rows: vec![vec![Value::Int(1), Value::Int(2)]],
        });
        c1.run("INSERT INTO u VALUES (4)").unwrap();
        let err = c2.hook.commit(&mut c2.db).unwrap_err();
        assert!(err.to_string().contains("columns"), "got: {err}");
        assert_eq!(status(&engine, "commit_conflicts"), Value::Int(4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tables a database holds when it attaches become durable and
    /// shared; a name the engine already holds refuses the attach.
    #[test]
    fn attach_commits_what_the_database_holds() {
        let dir = tmpdir("attach");
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).unwrap());
        let mut db = Database::new();
        execute_sql(&mut db, "CREATE TABLE pre (a INT)").unwrap();
        execute_sql(&mut db, "INSERT INTO pre VALUES (1)").unwrap();
        execute_sql(&mut db, "CREATE VIEW pv AS SELECT a FROM pre").unwrap();
        Conn::open(&engine).run("CREATE TABLE other (b INT)").unwrap();
        let hook = SessionHook::attach(engine.clone(), &mut db).unwrap();
        let mut c = Conn { db, hook };
        assert_eq!(status(&engine, "wal_records"), Value::Int(3));
        assert_eq!(c.scalar("SELECT count(*) FROM other"), Value::Int(0));
        assert_eq!(Conn::open(&engine).scalar("SELECT a FROM pv"), Value::Int(1));

        let mut db = Database::new();
        execute_sql(&mut db, "CREATE TABLE pre (z TEXT)").unwrap();
        let err = SessionHook::attach(engine.clone(), &mut db).err().unwrap();
        assert_eq!(err, Error::catalog("relation 'pre' already exists"));
        execute_sql(&mut db, "INSERT INTO pre VALUES ('still mine')").unwrap();
        assert_eq!(engine.current().tables_snapshot()[1].1.num_rows(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The interval policy's bounded-loss window is enforced even when
    /// no further commits arrive: the background flusher syncs the
    /// tail once the window expires.
    #[test]
    fn interval_deadline_fsyncs_idle_tail() {
        let dir = tmpdir("interval");
        let engine = Arc::new(
            StorageEngine::open(&dir, FsyncPolicy::Interval(Duration::from_millis(25))).unwrap(),
        );
        Conn::open(&engine).run("CREATE TABLE t (a INT)").unwrap();
        // No more commits: the flusher must sync within the window
        // (generous deadline to absorb scheduler noise).
        let deadline = Instant::now() + Duration::from_secs(10);
        while status(&engine, "fsyncs") == Value::Int(0) {
            assert!(Instant::now() < deadline, "flusher never synced the idle tail");
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After a WAL I/O failure the engine refuses further commits and
    /// checkpoints instead of durably persisting a log with a hole, and
    /// the refused row is not readable either.
    #[test]
    fn poisoned_engine_refuses_commits_and_checkpoints() {
        let dir = tmpdir("poison");
        let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Always).unwrap());
        let mut c = Conn::open(&engine);
        c.run("CREATE TABLE t (a INT)").unwrap();
        engine.poison_for_test("simulated append failure");

        let err = c.run("INSERT INTO t VALUES (1)").unwrap_err();
        assert!(err.to_string().contains("poisoned"), "got: {err}");
        assert_eq!(c.scalar("SELECT count(*) FROM t"), Value::Int(0));
        let err = engine.do_checkpoint(&[], None).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "got: {err}");
        assert_eq!(status(&engine, "poisoned"), Value::text("simulated append failure"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
