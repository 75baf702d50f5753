//! `serve_mix`: the only workload through `server`, `sqlengine::wire`,
//! `storage` and per-connection catalog hydration. An in-process
//! `solvedbd` with two workers and a data directory (WAL flush policy
//! `never`, so no fsync jitter and exact WAL counts) serves two
//! closed-loop client connections; each runs a seeded statement list —
//! 70 % reads (15 % point lookups, 55 % aggregates over one item's
//! orders), 20 % single-row inserts into the client's own events table,
//! 10 % a 40-item knapsack `SOLVESELECT` — and reconnects every few
//! hundred statements. Afterwards the data directory is reopened and
//! every acknowledged insert must be there.

use crate::harness::{
    derive_seed, timed_ms, Built, Digest, Metrics, Recorder, Rng, RunOptions, Workload,
};
use crate::spans::Tracer;
use crate::sqlutil::{close, floats, text};
use crate::stats;
use crate::workloads::uc2::{check_plan, knapsack_sql, stock_table, Item};
use datagen::ScItem;
use server::{Client, Server, ServerConfig, ShutdownHandle};
use solvedbplus_core::Session;
use sqlengine::{wire, Database, ExecResult, Table};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use storage::{FsyncPolicy, StorageEngine};

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub items: usize,
    pub months: usize,
    pub warehouses: usize,
    pub knapsack_items: usize,
    /// Statements per client and pass.
    pub statements: usize,
    pub reconnect_every: usize,
}

pub fn size(quick: bool) -> Size {
    if quick {
        Size {
            items: 20,
            months: 12,
            warehouses: 4,
            knapsack_items: 12,
            statements: 50,
            reconnect_every: 20,
        }
    } else {
        Size {
            items: 100,
            months: 80,
            warehouses: 64,
            knapsack_items: 40,
            statements: 4500,
            reconnect_every: 500,
        }
    }
}

const CLIENTS: usize = 2;

/// Statements a client runs between two calibration samples: they take
/// a tenth of a millisecond each, a sample four times that.
const CALIBRATE_EVERY: usize = 100;

#[derive(Debug, Clone, Copy)]
enum Stmt {
    Point(i64),
    Aggregate(i64),
    Insert(i64, f64),
    Solve(usize),
}

impl Stmt {
    fn class(self) -> &'static str {
        match self {
            Stmt::Point(_) | Stmt::Aggregate(_) => "read",
            Stmt::Insert(..) => "write",
            Stmt::Solve(_) => "solve",
        }
    }

    /// `seq` numbers a client's inserts, so every row is distinct.
    fn sql(self, client: usize, seq: u64) -> String {
        match self {
            Stmt::Point(id) => format!("SELECT size, price, cost FROM items WHERE item_id = {id}"),
            Stmt::Aggregate(id) => {
                format!("SELECT count(*), sum(quantity) FROM orders WHERE item_id = {id}")
            }
            Stmt::Insert(id, qty) => {
                format!("INSERT INTO events_{client} VALUES ({seq}, {id}, {qty:?})")
            }
            Stmt::Solve(w) => knapsack_sql(w),
        }
    }
}

/// What the seeded tables hold, for checking answers natively.
struct Model {
    items: Vec<ScItem>,
    stock: Vec<Vec<Item>>,
}

impl Model {
    fn check(&self, stmt: Stmt, res: ExecResult) -> Result<(), String> {
        match stmt {
            Stmt::Insert(..) => match res.row_count() {
                Some(1) => Ok(()),
                other => Err(format!("insert affected {other:?} rows")),
            },
            Stmt::Point(id) => {
                let (t, it) = (res.into_table().map_err(text)?, &self.items[(id - 1) as usize]);
                let got = (floats(&t, 0)?, floats(&t, 1)?, floats(&t, 2)?);
                if t.num_rows() == 1
                    && (got.0[0], got.1[0], got.2[0]) == (it.size, it.price, it.cost)
                {
                    Ok(())
                } else {
                    Err(format!("point lookup of item {id} is wrong"))
                }
            }
            Stmt::Aggregate(id) => {
                let (t, it) = (res.into_table().map_err(text)?, &self.items[(id - 1) as usize]);
                let count = t.rows[0][0].as_i64().map_err(text)?;
                let sum = floats(&t, 1)?[0];
                if count == it.orders.len() as i64 && close(sum, it.orders.iter().sum(), 1e-9) {
                    Ok(())
                } else {
                    Err(format!("aggregate over item {id} is wrong: {count} rows, sum {sum}"))
                }
            }
            Stmt::Solve(w) => {
                check_plan(&res.into_table().map_err(text)?, &self.stock[w - 1]).map(|_| ())
            }
        }
    }
}

/// The statements that create and fill the seeded tables, through SQL,
/// so that a server (or a local durable session) logs them.
fn seeding_sql(model: &Model) -> Vec<String> {
    let mut out = vec![
        "CREATE TABLE items (item_id int, size float8, price float8, cost float8)".to_string(),
        "CREATE TABLE orders (item_id int, month int, quantity float8)".to_string(),
        "CREATE TABLE stock (warehouse_id int, item_id int, v float8, volume float8)".to_string(),
    ];
    let insert = |table: &str, rows: Vec<String>| -> Vec<String> {
        rows.chunks(500).map(|c| format!("INSERT INTO {table} VALUES {}", c.join(", "))).collect()
    };
    let items = model
        .items
        .iter()
        .map(|it| format!("({}, {:?}, {:?}, {:?})", it.item_id, it.size, it.price, it.cost))
        .collect();
    out.extend(insert("items", items));
    let orders = model
        .items
        .iter()
        .flat_map(|it| {
            it.orders.iter().enumerate().map(move |(m, q)| format!("({}, {m}, {q:?})", it.item_id))
        })
        .collect();
    out.extend(insert("orders", orders));
    let stock = model
        .stock
        .iter()
        .enumerate()
        .flat_map(|(w, items)| {
            items.iter().map(move |(id, v, vol)| format!("({}, {id}, {v:?}, {vol:?})", w + 1))
        })
        .collect();
    out.extend(insert("stock", stock));
    for c in 0..CLIENTS {
        out.push(format!("CREATE TABLE events_{c} (seq int, item_id int, qty float8)"));
    }
    out
}

struct ClientState {
    id: usize,
    conn: Option<Client>,
    list: Vec<Stmt>,
    /// Inserts the server acknowledged; the reopened data directory must
    /// hold exactly these.
    acked: u64,
    since_reconnect: usize,
}

impl ClientState {
    /// Open the connection. The server creates and hydrates the session
    /// after the handshake, so the first round trip is part of opening.
    fn connect(
        &mut self,
        addr: std::net::SocketAddr,
        tracer: &Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let (conn, ms) = timed_ms(|| {
            tracer.span("server.connect", || {
                let mut c = Client::connect(addr)?;
                c.ping()?;
                Ok::<_, server::ClientError>(c)
            })
        });
        rec.class("conn_open", ms);
        self.conn = Some(conn.map_err(text)?);
        self.since_reconnect = 0;
        Ok(())
    }

    fn close(&mut self) {
        if let Some(c) = self.conn.take() {
            let _ = c.close();
        }
    }

    /// One pass over the client's list.
    fn run(
        &mut self,
        pass: usize,
        addr: std::net::SocketAddr,
        reconnect_every: usize,
        model: &Model,
        tracer: &Tracer,
        rec: &mut Recorder,
    ) {
        let n = self.list.len();
        for i in 0..n {
            let index = self.id * n + i;
            tracer.set_op((pass * CLIENTS * n + index) as u64);
            // The statement that finds its connection used up pays for
            // the new one.
            let mut reconnect_ms = 0.0;
            if self.since_reconnect >= reconnect_every || self.conn.is_none() {
                self.close();
                let (opened, ms) = timed_ms(|| self.connect(addr, tracer, rec));
                reconnect_ms = ms;
                if let Err(why) = opened {
                    rec.op(index, pass, ms, Err(format!("reconnect: {why}")));
                    continue;
                }
            }
            self.since_reconnect += 1;
            let stmt = self.list[i];
            let sql = stmt.sql(self.id, self.acked);
            let Some(conn) = self.conn.as_mut() else { continue };
            let (res, ms) = timed_ms(|| tracer.span("server.client", || conn.execute_script(&sql)));
            rec.class(stmt.class(), ms);
            let verdict = res.map_err(text).and_then(|res| {
                if matches!(stmt, Stmt::Insert(..)) {
                    self.acked += 1;
                }
                model.check(stmt, res)
            });
            let verdict = verdict.map_err(|why| format!("client {}: {why}", self.id));
            rec.op(index, pass, reconnect_ms + ms, verdict);
        }
    }
}

pub struct ServeMix {
    size: Size,
    trace: bool,
    dir: PathBuf,
    addr: std::net::SocketAddr,
    shutdown: ShutdownHandle,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    storage: Arc<StorageEngine>,
    model: Model,
    clients: Vec<ClientState>,
    /// WAL bytes / records / commits the first pass added.
    first_pass_wal: (f64, f64, f64),
    first_pass_inserts: u64,
}

/// A directory of this run's own under `.bench_tmp` in the working
/// directory (the checkout), removed when the workload finishes.
fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn status(engine: &StorageEngine, column: &str) -> f64 {
    let t = engine.status_table();
    t.schema.index_of(column).and_then(|c| t.rows.first()?[c].as_f64().ok()).unwrap_or(0.0)
}

pub fn build(opts: &RunOptions) -> Result<Built, String> {
    let size = size(opts.quick);
    let ((items, stock), gen_ms) = timed_ms(|| {
        let items = datagen::supply_chain(size.items, size.months, opts.seed);
        // Expected profit and volume straight from the generated items:
        // this workload measures serving, not forecasting.
        let profit: Vec<Item> = items
            .iter()
            .map(|it| {
                let demand = it.orders.iter().sum::<f64>() / it.orders.len().max(1) as f64;
                (it.item_id, (it.price - it.cost) * demand, it.size * demand)
            })
            .collect();
        let mut rng = Rng::new(derive_seed(opts.seed, u64::MAX));
        let (stock, _) = stock_table(&profit, size.warehouses, size.knapsack_items, &mut rng);
        (items, stock)
    });
    let model = Model { items, stock };
    let mut digest = Digest::default();
    let seeding = seeding_sql(&model);
    for sql in &seeding {
        digest.str(sql);
    }

    let mut clients = Vec::with_capacity(CLIENTS);
    for id in 0..CLIENTS {
        let mut rng = Rng::new(derive_seed(opts.seed, id as u64));
        let list: Vec<Stmt> = (0..size.statements)
            .map(|_| {
                let item = rng.below(size.items) as i64 + 1;
                // The median statement must sit well inside one class
                // (the aggregates, percentiles 35-90), or it flips
                // between two classes from run to run.
                match rng.below(100) {
                    0..=14 => Stmt::Point(item),
                    15..=69 => Stmt::Aggregate(item),
                    70..=89 => Stmt::Insert(item, (rng.unit() * 100.0).round()),
                    _ => Stmt::Solve(rng.below(size.warehouses) + 1),
                }
            })
            .collect();
        for (k, s) in list.iter().enumerate() {
            digest.str(&s.sql(id, k as u64));
        }
        clients.push(ClientState { id, conn: None, list, acked: 0, since_reconnect: 0 });
    }

    let dir = fresh_dir("serve")?;
    let config = ServerConfig {
        workers: CLIENTS,
        data_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config).map_err(text)?;
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let storage = server.storage().cloned().ok_or("server has no storage engine")?;
    let handle = std::thread::Builder::new()
        .name("bench-solvedbd".into())
        .spawn(move || server.run())
        .map_err(text)?;

    let mut workload = ServeMix {
        size,
        trace: opts.trace,
        dir,
        addr,
        shutdown,
        server: Some(handle),
        storage,
        model,
        clients,
        first_pass_wal: (0.0, 0.0, 0.0),
        first_pass_inserts: 0,
    };
    // A seeding connection commits the shared tables, then leaves.
    let seeded = (|| {
        let mut seeder = Client::connect(addr).map_err(text)?;
        for sql in &seeding {
            seeder.execute_script(sql).map_err(|e| format!("seeding: {e}"))?;
        }
        seeder.close().map_err(text)
    })();
    if let Err(why) = seeded {
        workload.stop_server();
        return Err(why);
    }
    Ok(Built { workload: Box::new(workload), digest: digest.finish(), gen_ms })
}

impl ServeMix {
    fn stop_server(&mut self) {
        for c in &mut self.clients {
            c.close();
        }
        self.shutdown.shutdown();
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }

    /// The same statement list on an in-process durable session: what
    /// is left of each class's latency without socket, wire and worker.
    fn local_replay(&self, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
        let dir = fresh_dir("local")?;
        let result = (|| {
            let engine = Arc::new(StorageEngine::open(&dir, FsyncPolicy::Never).map_err(text)?);
            let mut s = Session::new();
            s.attach_storage(engine).map_err(text)?;
            for sql in seeding_sql(&self.model) {
                s.execute(&sql).map_err(text)?;
            }
            let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
            let c = &self.clients[0];
            for (k, stmt) in c.list.iter().take(1000).enumerate() {
                let sql = stmt.sql(c.id, k as u64);
                let (res, ms) = timed_ms(|| tracer.span("probe.local", || s.execute(&sql)));
                self.model.check(*stmt, res.map_err(text)?)?;
                by_class.entry(stmt.class()).or_default().push(ms);
            }
            for (class, metric) in [
                ("read", "server.local_read_p50_ms"),
                ("write", "server.local_write_p50_ms"),
                ("solve", "server.local_solve_p50_ms"),
            ] {
                if let Some(ms) = by_class.get(class) {
                    m.insert(metric, stats::median(ms));
                }
            }
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&dir);
        result
    }
}

impl Workload for ServeMix {
    fn warm_up(&mut self) -> Result<(), String> {
        let quiet = Tracer::new(Instant::now());
        let mut rec = Recorder::default();
        for c in &mut self.clients {
            c.connect(self.addr, &quiet, &mut rec)?;
            let conn = c.conn.as_mut().ok_or("no connection")?;
            conn.execute_script(&Stmt::Point(1).sql(c.id, 0)).map_err(text)?;
        }
        Ok(())
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    /// Both clients run their lists side by side.
    fn pass(&mut self, pass: usize, tracer: &Tracer, rec: &mut Recorder) {
        let before = ["wal_bytes", "wal_records", "commits"].map(|c| status(&self.storage, c));
        let acked_before: u64 = self.clients.iter().map(|c| c.acked).sum();
        let (addr, every, model) = (self.addr, self.size.reconnect_every, &self.model);
        let forks: Vec<Tracer> = self.clients.iter().map(|_| tracer.fork()).collect();
        let done: Vec<(Recorder, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(forks)
                .map(|(c, fork)| {
                    scope.spawn(move || {
                        let mut rec = Recorder::calibrating_every(CALIBRATE_EVERY);
                        rec.start();
                        c.run(pass, addr, every, model, &fork, &mut rec);
                        rec.settle();
                        (rec, fork)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        let mut rec = Recorder::default();
                        rec.fail("a client thread panicked".into());
                        (rec, Tracer::new(Instant::now()))
                    })
                })
                .collect()
        });
        for (r, fork) in done {
            rec.merge(r);
            tracer.absorb(fork);
        }
        if pass == 0 {
            let after = ["wal_bytes", "wal_records", "commits"].map(|c| status(&self.storage, c));
            self.first_pass_wal =
                (after[0] - before[0], after[1] - before[1], after[2] - before[2]);
            self.first_pass_inserts =
                self.clients.iter().map(|c| c.acked).sum::<u64>() - acked_before;
        }
    }

    fn program_counts(&self, m: &mut Metrics) {
        let (bytes, records, commits) = self.first_pass_wal;
        m.insert("storage.wal_bytes", bytes);
        m.insert("storage.wal_records", records);
        m.insert("storage.commits", commits);
        m.insert("wal_bytes_per_row", bytes / self.first_pass_inserts.max(1) as f64);
        m.insert("storage.fsyncs", status(&self.storage, "fsyncs"));
        m.insert(
            "storage.append_us",
            status(&self.storage, "wal_append_ms") * 1e3
                / status(&self.storage, "commits").max(1.0),
        );
    }

    fn probes(&mut self, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
        let texts: Vec<String> =
            self.clients[0].list.iter().take(200).map(|s| s.sql(0, 0)).collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        crate::sqlutil::parser_probe(&texts, tracer, m)?;

        // The round-trip floor, on a connection a worker already serves.
        let conn = self.clients[0].conn.as_mut().ok_or("client 0 is not connected")?;
        let mut pings = Vec::with_capacity(200);
        for _ in 0..200 {
            let (r, ms) = timed_ms(|| tracer.span("probe.server.ping", || conn.ping()));
            r.map_err(text)?;
            pings.push(ms * 1e3);
        }
        m.insert("server.ping_us", stats::median(&pings));

        // The wire codec on one result of each kind.
        let (mut encode_us, mut decode_us, mut bytes, mut rows) = (0.0, 0.0, 0usize, 0usize);
        for stmt in [Stmt::Point(1), Stmt::Aggregate(1), Stmt::Solve(1)] {
            let t: Table = conn.query(&stmt.sql(0, 0)).map_err(text)?;
            let (buf, ms) =
                timed_ms(|| tracer.span("probe.wire.encode", || wire::encode_table(&t)));
            encode_us += ms * 1e3;
            let (back, ms) =
                timed_ms(|| tracer.span("probe.wire.decode", || wire::decode_table(&buf)));
            decode_us += ms * 1e3;
            if back.map_err(text)?.rows != t.rows {
                return Err("wire codec does not round-trip a result".into());
            }
            bytes += buf.len();
            rows += t.num_rows();
        }
        m.insert("wire.encode_us", encode_us);
        m.insert("wire.decode_us", decode_us);
        m.insert("wire.bytes_per_row", bytes as f64 / rows.max(1) as f64);

        self.local_replay(tracer, m)
    }

    /// Stop the server, reopen its data directory and count the rows of
    /// every events table: all acknowledged inserts must have survived.
    fn finish(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        self.stop_server();
        let reopened = (|| {
            let engine =
                Arc::new(StorageEngine::open(&self.dir, FsyncPolicy::Never).map_err(text)?);
            let recovery = engine.recovery_stats();
            m.insert("storage.recover_ms", recovery.recover_nanos as f64 / 1e6);
            m.insert("storage.replayed_records", recovery.replayed_records as f64);
            let mut db = Database::new();
            engine.hydrate(&mut db).map_err(text)?;
            for c in &self.clients {
                let name = format!("events_{}", c.id);
                let rows = db.table(&name).map_err(text)?.num_rows() as u64;
                if rows != c.acked {
                    return Err(format!("{name} holds {rows} rows, {} were acknowledged", c.acked));
                }
            }
            if self.trace {
                let mut s = Session::new();
                s.attach_storage(engine.clone()).map_err(text)?;
                let (r, ms) = timed_ms(|| s.execute("CHECKPOINT"));
                r.map_err(text)?;
                m.insert("storage.checkpoint_ms", ms);
                m.insert("storage.snapshot_bytes", status(&engine, "snapshot_bytes"));
            }
            Ok(())
        })();
        if let Err(why) = reopened {
            // Durability is all or nothing: every insert counts as failed.
            rec.failed += self.clients.iter().map(|c| c.acked).sum::<u64>().max(1);
            rec.complain(format!("durability: {why}"));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

impl Drop for ServeMix {
    /// A set-up that failed half-way must not leave a server behind.
    fn drop(&mut self) {
        if self.server.is_some() {
            self.stop_server();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}
