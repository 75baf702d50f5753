//! The solvedbd server: TCP accept loop, bounded worker pool, graceful
//! shutdown.
//!
//! Concurrency model: one accept thread feeds accepted connections into
//! a bounded crossbeam channel drained by a fixed pool of worker
//! threads; each worker serves one connection at a time, start to
//! finish, with its own [`crate::manager::SessionHandle`]. When all
//! workers are busy and the backlog is full, `accept` back-pressure is
//! applied at the channel (the accept thread blocks), bounding the
//! server's memory use under connection floods.
//!
//! Shutdown: any [`ShutdownHandle`] sets an atomic flag and then
//! self-connects to the listener to unblock `accept`. Workers poll the
//! flag on every read-timeout tick (250 ms), so live connections wind
//! down promptly and the listener socket is released when [`Server::run`]
//! returns.

use crate::manager::SessionManager;
use crate::protocol::{
    error_kind, error_to_frame, read_frame_interruptible, write_frame, Frame, ProtoError,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crossbeam::channel;
use solvedbplus_core::SharedSolvers;
use sqlengine::parser::split_statements;
use sqlengine::Outcome;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use storage::{FsyncPolicy, StorageEngine};

/// Poll granularity for shutdown checks on blocked reads.
const READ_TICK: Duration = Duration::from_millis(250);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= maximum concurrent connections being served).
    pub workers: usize,
    /// Accepted-but-unserved connections to queue before `accept`
    /// blocks.
    pub backlog: usize,
    /// Statements slower than this many milliseconds are written to the
    /// slow-query log on stderr, with their stage breakdown. `None`
    /// disables the log.
    pub slow_query_ms: Option<u64>,
    /// Run durably: recover from (and WAL-commit to) this directory.
    /// `None` = in-memory server, state dies with the process.
    pub data_dir: Option<PathBuf>,
    /// When WAL appends reach stable storage (only meaningful with
    /// `data_dir`).
    pub fsync: FsyncPolicy,
    /// Serve the Prometheus text exposition (`GET /metrics`) on this
    /// address (e.g. `127.0.0.1:9187`; port 0 for ephemeral). `None`
    /// disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Default solver wall-clock budget applied to every new session;
    /// sessions can override (or disable with 0) via
    /// `SET solver_timeout_ms`. `None` = no server-side budget.
    pub solver_timeout_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            backlog: 16,
            slow_query_ms: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            metrics_addr: None,
            solver_timeout_ms: None,
        }
    }
}

/// A bound, not-yet-running server. Call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    /// Bound metrics listener when `config.metrics_addr` is set.
    metrics: Option<(TcpListener, SocketAddr)>,
}

/// Cheap cloneable handle that can stop a running [`Server`] from any
/// thread (including a signal context via a pre-created clone).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Request shutdown: sets the flag and pokes the listener so the
    /// accept loop observes it immediately. Idempotent.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Unblock a blocking accept() with a throwaway connection; if
        // the listener is already gone this simply fails, which is fine.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
    }
}

impl Server {
    /// Bind with the default configuration.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Server> {
        Server::bind_with(addr, ServerConfig::default())
    }

    /// Bind a listener (use port 0 for an ephemeral port) without
    /// accepting yet.
    pub fn bind_with(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        if config.workers == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "workers must be >= 1"));
        }
        let storage = match &config.data_dir {
            Some(dir) => Some(Arc::new(
                StorageEngine::open(dir, config.fsync)
                    .map_err(|e| io::Error::other(format!("storage recovery failed: {e}")))?,
            )),
            None => None,
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = match &config.metrics_addr {
            Some(maddr) => {
                let l = TcpListener::bind(maddr.as_str())?;
                let bound = l.local_addr()?;
                Some((l, bound))
            }
            None => None,
        };
        Ok(Server {
            listener,
            addr,
            manager: Arc::new(SessionManager::with_storage(SharedSolvers::new(), storage)),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
            metrics,
        })
    }

    /// The bound metrics-exposition address, when configured (resolves
    /// ephemeral ports).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|(_, a)| *a)
    }

    /// The storage engine when running with `data_dir` (for recovery
    /// reporting at startup).
    pub fn storage(&self) -> Option<&Arc<StorageEngine>> {
        self.manager.storage()
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session manager (inspect counters, pre-install solvers).
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: self.shutdown.clone(), addr: self.addr }
    }

    /// Serve until a [`ShutdownHandle`] fires. Consumes the server; on
    /// return all workers have exited and the port is released.
    pub fn run(self) -> io::Result<()> {
        let (tx, rx) = channel::bounded::<TcpStream>(self.config.backlog.max(1));
        let metrics_thread = match self.metrics {
            Some((listener, _)) => {
                let manager = self.manager.clone();
                let flag = self.shutdown.clone();
                Some(
                    std::thread::Builder::new()
                        .name("solvedbd-metrics".into())
                        .spawn(move || crate::metrics_http::serve(listener, manager, flag))?,
                )
            }
            None => None,
        };
        let mut workers = Vec::with_capacity(self.config.workers);
        for i in 0..self.config.workers {
            let rx = rx.clone();
            let manager = self.manager.clone();
            let flag = self.shutdown.clone();
            let config = self.config.clone();
            workers.push(std::thread::Builder::new().name(format!("solvedbd-worker-{i}")).spawn(
                move || {
                    while let Ok(stream) = rx.recv() {
                        serve_connection(stream, &manager, &flag, &config);
                        if flag.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                },
            )?);
        }
        drop(rx);

        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        // The shutdown self-connect (or a raced client);
                        // either way we are done accepting.
                        break;
                    }
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Listener failure: stop serving rather than spin.
                    self.shutdown.store(true, Ordering::SeqCst);
                    drop(tx);
                    for w in workers {
                        let _ = w.join();
                    }
                    if let Some(m) = metrics_thread {
                        let _ = m.join();
                    }
                    return Err(e);
                }
            }
        }

        drop(tx);
        self.shutdown.store(true, Ordering::SeqCst);
        for w in workers {
            let _ = w.join();
        }
        if let Some(m) = metrics_thread {
            let _ = m.join();
        }
        // `self.listener` drops here, releasing the port.
        Ok(())
    }
}

/// Serve one connection to completion: handshake, then a
/// query/response loop. All errors terminate just this connection.
fn serve_connection(
    mut stream: TcpStream,
    manager: &Arc<SessionManager>,
    stop: &AtomicBool,
    config: &ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let stopped = || stop.load(Ordering::SeqCst);

    // Handshake: the client speaks first. The server accepts any
    // version in [MIN_PROTOCOL_VERSION, PROTOCOL_VERSION] and echoes
    // the client's version back — the negotiated version then gates
    // v4-only frames (PROGRESS) for the rest of the conversation.
    let negotiated = match read_frame_interruptible(&mut stream, stopped) {
        Ok(Some(Frame::Hello { version }))
            if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) =>
        {
            if write_frame(&mut stream, &Frame::Hello { version }).is_err() {
                return;
            }
            version
        }
        Ok(Some(Frame::Hello { version })) => {
            let _ = write_frame(
                &mut stream,
                &Frame::Error {
                    kind: error_kind::PROTOCOL,
                    message: format!(
                        "unsupported protocol version {version} (server speaks \
                         {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
                    ),
                },
            );
            return;
        }
        Ok(Some(_)) => {
            let _ = write_frame(
                &mut stream,
                &Frame::Error {
                    kind: error_kind::PROTOCOL,
                    message: "expected HELLO as the first frame".into(),
                },
            );
            return;
        }
        Ok(None) => return,
        Err(_) => {
            let _ = write_frame(
                &mut stream,
                &Frame::Error { kind: error_kind::PROTOCOL, message: "malformed handshake".into() },
            );
            return;
        }
    };

    let mut session = match manager.open() {
        Ok(s) => s,
        Err(e) => {
            let _ = write_frame(&mut stream, &error_to_frame(&e));
            return;
        }
    };
    if config.solver_timeout_ms.is_some() {
        session.set_solver_timeout_ms(config.solver_timeout_ms);
    }
    // v4 peers get live PROGRESS frames streamed mid-solve. The sink
    // writes through a cloned handle of the same socket; the solve runs
    // synchronously on this worker thread, so progress frames never
    // interleave with response frames.
    if negotiated >= 4 {
        if let Ok(peer) = stream.try_clone() {
            let peer = std::sync::Mutex::new(peer);
            session.set_progress_sink(Arc::new(move |ev: &obs::ProgressEvent| {
                if let Ok(mut s) = peer.lock() {
                    let _ = write_frame(&mut *s, &Frame::Progress(ev.clone()));
                }
            }));
        }
    }
    let counters = session.counters().clone();
    // Everything after the handshake flows through the metering wrapper
    // so the session's byte counters cover the whole conversation.
    let mut stream = Metered { stream: &stream, counters: &counters };

    loop {
        let frame = match read_frame_interruptible(&mut stream, stopped) {
            Ok(Some(f)) => f,
            Ok(None) => return, // EOF or shutdown
            Err(ProtoError::Io(_)) => return,
            Err(ProtoError::Malformed(m)) => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error { kind: error_kind::PROTOCOL, message: m },
                );
                return;
            }
        };
        match frame {
            Frame::Query(sql) => {
                if run_batch(&mut stream, &mut session, &sql, config).is_err() {
                    return;
                }
            }
            Frame::Ping => {
                if write_frame(&mut stream, &Frame::Pong).is_err() {
                    return;
                }
            }
            Frame::Bye => return,
            other => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        kind: error_kind::PROTOCOL,
                        message: format!("unexpected client frame: {other:?}"),
                    },
                );
                return;
            }
        }
    }
}

/// [`Read`]/[`Write`] adaptor that folds transferred byte counts into a
/// session's counters (the `bytes_in`/`bytes_out` of `sdb_sessions`).
struct Metered<'a> {
    stream: &'a TcpStream,
    counters: &'a obs::SessionCounters,
}

impl io::Read for Metered<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (&mut self.stream).read(buf)?;
        self.counters.add_bytes_in(n as u64);
        Ok(n)
    }
}

impl io::Write for Metered<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = (&mut self.stream).write(buf)?;
        self.counters.add_bytes_out(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&mut self.stream).flush()
    }
}

/// Execute one Query batch statement by statement, streaming one
/// response frame per statement and an END terminator. A statement
/// with analyzer warnings gets a WARNING frame immediately before its
/// result frame (protocol v2); a traced statement additionally gets a
/// STATS frame carrying its execution trace (protocol v3), after any
/// WARNING and still before the result. The batch stops at the first
/// failing statement (its error frame is the last response before END),
/// matching script-mode semantics in the CLI.
fn run_batch<W: io::Write>(
    stream: &mut W,
    session: &mut crate::manager::SessionHandle,
    sql: &str,
    config: &ServerConfig,
) -> io::Result<()> {
    let pieces = split_statements(sql);
    // Whole-script pre-flight: multi-statement batches run through the
    // dataflow analyzer (`sqlengine::script`, SD013–SD018) against the
    // session catalog, and each finding rides the WARNING frame of the
    // statement it annotates. Error-level findings are demoted to
    // warnings on the wire — the analyzer is advisory here; execution
    // reports the authoritative error when the statement actually runs.
    let mut script_warnings = match pieces.len() > 1 {
        true => session
            .check_script(sql)
            .ok()
            .filter(|a| a.statements.len() == pieces.len())
            .map(|a| a.by_statement(sqlengine::diag::Severity::Warning))
            .unwrap_or_default(),
        false => Default::default(),
    };
    for (idx, piece) in pieces.iter().enumerate() {
        session.counters().add_query();
        // `Session::execute` parses the piece itself so the measured
        // parse time lands in the trace's `parse` stage.
        let (outcome, elapsed) = obs::timed(|| session.execute(piece));
        if let Some(threshold) = config.slow_query_ms {
            let shape = sqlengine::parser::parse_statement(piece)
                .ok()
                .map(|s| sqlengine::statement_shape(&s));
            let line = obs::slow_query_line(
                threshold,
                elapsed,
                &obs::SlowQuery {
                    source: "solvedbd",
                    session: Some(session.id()),
                    sql: piece,
                    shape: shape.as_deref(),
                    trace: outcome.as_ref().ok().and_then(|r| r.trace.as_ref()),
                },
            );
            if let Some(line) = line {
                eprintln!("{line}");
            }
        }
        match outcome {
            Ok(r) => {
                let mut warnings: Vec<_> = script_warnings
                    .remove(&idx)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|mut d| {
                        d.severity = d.severity.min(sqlengine::diag::Severity::Warning);
                        d
                    })
                    .collect();
                warnings.extend(r.warnings);
                if !warnings.is_empty() {
                    write_frame(stream, &Frame::Warning(warnings))?;
                }
                if let Some(trace) = r.trace {
                    write_frame(stream, &Frame::Stats(trace))?;
                }
                match r.outcome {
                    Outcome::Table(t) => write_frame(stream, &Frame::ResultTable(t))?,
                    Outcome::Count(n) => write_frame(stream, &Frame::RowCount(n as u64))?,
                    Outcome::Done => write_frame(stream, &Frame::Done)?,
                }
            }
            Err(e) => {
                write_frame(stream, &error_to_frame(&e))?;
                break;
            }
        }
    }
    write_frame(stream, &Frame::End)
}
