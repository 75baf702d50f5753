//! Per-connection session management.
//!
//! Mirrors the paper's deployment model: one PostgreSQL backend per
//! connection, all backends working on the one database and sharing the
//! installed solver set. Per connection: a [`Session`] with its own
//! settings, UDF training state and plan cache. Shared: one process-wide
//! [`SharedSolvers`] (solver registry + Predictive Advisor model cache)
//! and, with a data directory, the storage engine's relations — every
//! statement reads the version current when it starts. Without one each
//! connection keeps relations of its own.

use obs::{SessionCounters, SessionRegistry};
use solvedbplus_core::{Session, SharedSolvers};
use sqlengine::error::Result;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use storage::StorageEngine;

/// Creates sessions for incoming connections and tracks how many are
/// live. Cheap to share: hand an `Arc<SessionManager>` to every worker.
pub struct SessionManager {
    shared: SharedSolvers,
    active: AtomicUsize,
    opened: AtomicUsize,
    /// Live per-session counters, published to every session through
    /// the `sdb_sessions` virtual table.
    sessions: Arc<SessionRegistry>,
    /// The engine whose catalog every session reads and commits to
    /// (`solvedbd --data-dir`); `None` = ephemeral server.
    storage: Option<Arc<StorageEngine>>,
}

impl SessionManager {
    pub fn new() -> SessionManager {
        SessionManager::with_solvers(SharedSolvers::new())
    }

    /// Build a manager over pre-configured solver infrastructure (e.g.
    /// with extra solvers installed before the server starts).
    pub fn with_solvers(shared: SharedSolvers) -> SessionManager {
        SessionManager::with_storage(shared, None)
    }

    /// Build a manager whose sessions are durable: all of them read the
    /// engine's catalog and group-commit their statements to its WAL.
    pub fn with_storage(
        shared: SharedSolvers,
        storage: Option<Arc<StorageEngine>>,
    ) -> SessionManager {
        SessionManager {
            shared,
            active: AtomicUsize::new(0),
            opened: AtomicUsize::new(0),
            sessions: Arc::new(SessionRegistry::new()),
            storage,
        }
    }

    /// The solver infrastructure shared by all sessions.
    pub fn solvers(&self) -> &SharedSolvers {
        &self.shared
    }

    /// The live-session registry backing `sdb_sessions`.
    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        &self.sessions
    }

    /// The storage engine durable sessions share, if any.
    pub fn storage(&self) -> Option<&Arc<StorageEngine>> {
        self.storage.as_ref()
    }

    /// Open a session for a new connection. The returned handle derefs
    /// to [`Session`] and decrements the live count when dropped.
    pub fn open(self: &Arc<Self>) -> Result<SessionHandle> {
        let mut session = Session::with_solvers(&self.shared);
        session.attach_session_registry(self.sessions.clone());
        if let Some(engine) = &self.storage {
            session.attach_storage(engine.clone())?;
        }
        self.active.fetch_add(1, Ordering::SeqCst);
        let id = self.opened.fetch_add(1, Ordering::SeqCst) as u64 + 1;
        let counters = self.sessions.open(id);
        // The session watches its own kill flag (set by `CANCEL <id>`
        // from any session) at solver progress points.
        session.attach_own_counters(counters.clone());
        Ok(SessionHandle { session, manager: Arc::clone(self), counters, id })
    }

    /// Number of currently live sessions.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Total sessions opened over the manager's lifetime.
    pub fn total_opened(&self) -> usize {
        self.opened.load(Ordering::SeqCst)
    }
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

/// A live session tied back to its manager for liveness accounting.
pub struct SessionHandle {
    session: Session,
    manager: Arc<SessionManager>,
    counters: Arc<SessionCounters>,
    id: u64,
}

impl SessionHandle {
    /// This connection's live counters (queries, bytes in/out).
    pub fn counters(&self) -> &Arc<SessionCounters> {
        &self.counters
    }

    /// The server-assigned session id (1-based, monotonic).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Deref for SessionHandle {
    type Target = Session;
    fn deref(&self) -> &Session {
        &self.session
    }
}

impl DerefMut for SessionHandle {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.manager.sessions.close(self.id);
        self.manager.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::Value;

    #[test]
    fn handles_track_liveness() {
        let m = Arc::new(SessionManager::new());
        assert_eq!(m.active(), 0);
        let a = m.open().unwrap();
        let b = m.open().unwrap();
        assert_eq!(m.active(), 2);
        assert_eq!(m.total_opened(), 2);
        assert_eq!(m.sessions().len(), 2);
        drop(a);
        assert_eq!(m.active(), 1);
        assert_eq!(m.sessions().len(), 1);
        drop(b);
        assert_eq!(m.active(), 0);
        assert_eq!(m.total_opened(), 2);
        assert!(m.sessions().is_empty());
    }

    #[test]
    fn sessions_see_each_other_in_sdb_sessions() {
        let m = Arc::new(SessionManager::new());
        let mut a = m.open().unwrap();
        let _b = m.open().unwrap();
        a.counters().add_query();
        a.counters().add_bytes_in(10);
        let t = a.query("SELECT session_id, queries FROM sdb_sessions").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows[0][0], Value::Int(1));
        assert_eq!(t.rows[0][1], Value::Int(1));
        assert_eq!(t.rows[1][0], Value::Int(2));
    }

    #[test]
    fn ephemeral_sessions_are_namespaced_but_share_solvers() {
        let m = Arc::new(SessionManager::new());
        let mut a = m.open().unwrap();
        let mut b = m.open().unwrap();
        a.execute("CREATE TABLE t (x int)").unwrap();
        assert!(b.execute("SELECT * FROM t").is_err());
        b.execute_script("CREATE TABLE t (x int); INSERT INTO t VALUES (9)").unwrap();
        assert_eq!(b.query_scalar("SELECT x FROM t").unwrap(), Value::Int(9));
        // Both sessions see the same registry instance.
        assert_eq!(a.solver_names(), b.solver_names());
    }
}
