//! `solvedb` — an interactive SQL shell for the SolveDB+ engine.
//!
//! ```text
//! solvedb                          # interactive REPL (local, in-process)
//! solvedb file.sql                 # run a script, printing every result
//! solvedb -e "SELECT 1; SELECT 2"  # run statements from the command line
//! solvedb --connect HOST:PORT      # talk to a solvedbd server instead
//! solvedb --data-dir ./data        # durable local session (WAL + snapshots)
//! solvedb --version
//! ```
//!
//! Statements end with `;` and may span lines. Meta commands:
//! `\d` (list tables), `\solvers`, `\demo` (load the paper's Table 1),
//! `\timing` (toggle stage breakdowns), `\q`. Meta commands other than
//! `\q`, `\ping` and `\timing` inspect in-process state and are
//! local-only. `EXPLAIN SOLVESELECT ...;` shows what a solve compiles
//! to, locally and over `--connect` alike.
//!
//! With `--timing` (or after `\timing on`), every statement that
//! carries an execution trace — SOLVESELECT and EXPLAIN ANALYZE — is
//! followed by its rendered stage tree and solver telemetry. This works
//! identically against a local session and over `--connect`, where the
//! trace arrives in a protocol v3 STATS frame.

use solvedbplus::obs;
use solvedbplus::server::{Client, ClientError};
use solvedbplus::sqlengine::parser::{parse_statement, script_complete, split_statements};
use solvedbplus::sqlengine::statement_shape;
use solvedbplus::storage::{FsyncPolicy, StorageEngine};
use solvedbplus::{datagen, ExecResult, Outcome, Session};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const USAGE: &str = "\
usage: solvedb [OPTIONS] [SCRIPT.sql]
       solvedb --check SCRIPT.sql [SCRIPT.sql ...]

options:
  -e, --exec SQL       execute the given statements and exit
  -c, --connect ADDR   connect to a solvedbd server at ADDR (host:port)
  -t, --timing         print each statement's stage breakdown and solver
                       telemetry (toggle interactively with \\timing)
  -D, --data-dir DIR   durable local session: recover from DIR, write-ahead-
                       log every mutation into it (local mode only)
      --fsync POLICY   when WAL appends reach disk: always | interval[:ms]
                       | never (default always; needs --data-dir)
      --slow-query-ms N log statements slower than N ms to stderr, with
                       their shape and stage breakdown (local mode only;
                       over --connect the server logs instead)
      --check          lint the given script(s) with the whole-script
                       analyzer (SD013..SD018) without executing anything;
                       exits non-zero on error-level findings
      --version        print version and exit
  -h, --help           show this message

With no script and no -e, starts an interactive shell.";

struct Options {
    connect: Option<String>,
    exec: Option<String>,
    scripts: Vec<String>,
    check: bool,
    timing: bool,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    fsync_given: bool,
    slow_query_ms: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        connect: None,
        exec: None,
        scripts: Vec::new(),
        check: false,
        timing: false,
        data_dir: None,
        fsync: FsyncPolicy::Always,
        fsync_given: false,
        slow_query_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take_value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "-e" | "--exec" => opts.exec = Some(take_value(arg)?),
            "-c" | "--connect" => opts.connect = Some(take_value(arg)?),
            "-t" | "--timing" => opts.timing = true,
            "-D" | "--data-dir" => opts.data_dir = Some(take_value(arg)?),
            "--check" => opts.check = true,
            "--fsync" => {
                let p = take_value(arg)?;
                opts.fsync = FsyncPolicy::parse(&p).map_err(|e| e.to_string())?;
                opts.fsync_given = true;
            }
            "--slow-query-ms" => {
                let n = take_value(arg)?;
                opts.slow_query_ms = Some(
                    n.parse::<u64>().map_err(|_| format!("invalid slow-query threshold: {n}"))?,
                );
            }
            "--version" => {
                println!("solvedb {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option: {other}"));
            }
            path => {
                opts.scripts.push(path.to_string());
            }
        }
    }
    if opts.check {
        if opts.scripts.is_empty() {
            return Err("--check requires at least one script file".into());
        }
        if opts.exec.is_some() || opts.connect.is_some() {
            return Err("--check is a local lint pass; it takes script files only".into());
        }
    } else if opts.scripts.len() > 1 {
        return Err("only one script file may be given (multiple are allowed with --check)".into());
    }
    if opts.exec.is_some() && !opts.scripts.is_empty() {
        return Err("-e and a script file are mutually exclusive".into());
    }
    if opts.data_dir.is_some() && opts.connect.is_some() {
        return Err("--data-dir applies to local sessions only (not --connect); \
                    start solvedbd with --data-dir instead"
            .into());
    }
    if opts.fsync_given && opts.data_dir.is_none() {
        return Err("--fsync requires --data-dir".into());
    }
    if opts.slow_query_ms.is_some() && opts.connect.is_some() {
        return Err("--slow-query-ms applies to local sessions only (not --connect); \
                    start solvedbd with --slow-query-ms instead"
            .into());
    }
    Ok(opts)
}

/// Where statements execute: an in-process session or a solvedbd server.
enum Backend {
    Local(Session),
    Remote(Client),
}

/// Tracks whether a live progress status line is currently drawn on
/// stderr (so the next regular output can erase it first). Shared with
/// the local session's progress sink, hence the `Arc`.
type StatusLine = Arc<AtomicBool>;

/// Only solves running longer than this get a status line.
const STATUS_AFTER: std::time::Duration = std::time::Duration::from_secs(1);

/// Draw (or refresh) the single `\r`-updating status line for a solve
/// that has been running for over a second.
fn draw_status(ev: &obs::ProgressEvent, status: &AtomicBool) {
    if ev.elapsed_nanos < STATUS_AFTER.as_nanos() as u64 {
        return;
    }
    eprint!("\r{}", ev.render());
    std::io::stderr().flush().ok();
    status.store(true, Ordering::Relaxed);
}

/// Erase the status line, if one is showing.
fn clear_status(status: &AtomicBool) {
    if status.swap(false, Ordering::Relaxed) {
        eprint!("\r{:79}\r", "");
        std::io::stderr().flush().ok();
    }
}

impl Backend {
    /// Run a batch statement by statement, printing every statement's
    /// result as it completes. `elapsed` prints per-statement wall-clock
    /// lines; `timing` additionally prints each statement's execution
    /// trace (stage tree + solver telemetry) when one is available;
    /// `slow_query_ms` logs statements over the threshold to stderr
    /// (local sessions only — over `--connect` the server logs).
    /// Returns `false` if a statement failed (execution stops there,
    /// matching server batch semantics).
    fn run_batch(
        &mut self,
        sql: &str,
        elapsed: bool,
        timing: bool,
        slow_query_ms: Option<u64>,
        status: &StatusLine,
    ) -> bool {
        match self {
            Backend::Local(session) => {
                for piece in split_statements(sql) {
                    // `Session::execute` parses the piece itself so the
                    // measured parse time lands in the trace.
                    let (outcome, dur) = obs::timed(|| session.execute(&piece));
                    clear_status(status);
                    if let Some(threshold) = slow_query_ms {
                        let shape = parse_statement(&piece).ok().map(|s| statement_shape(&s));
                        let line = obs::slow_query_line(
                            threshold,
                            dur,
                            &obs::SlowQuery {
                                source: "solvedb",
                                session: None,
                                sql: &piece,
                                shape: shape.as_deref(),
                                trace: outcome.as_ref().ok().and_then(|r| r.trace.as_ref()),
                            },
                        );
                        if let Some(line) = line {
                            eprintln!("{line}");
                        }
                    }
                    match outcome {
                        Ok(r) => print_result(&r, elapsed.then_some(dur), timing),
                        Err(e) => {
                            report_error(&e.to_string());
                            return false;
                        }
                    }
                }
                true
            }
            Backend::Remote(client) => {
                let start = std::time::Instant::now();
                let outcome = client.execute_with_progress(sql, &mut |ev| draw_status(ev, status));
                clear_status(status);
                match outcome {
                    Ok(results) => {
                        let mut ok = true;
                        for r in results {
                            match r {
                                Ok(r) => print_result(&r, elapsed.then(|| start.elapsed()), timing),
                                Err(e) => {
                                    report_error(&e.to_string());
                                    ok = false;
                                }
                            }
                        }
                        ok
                    }
                    Err(e) => {
                        report_error(&format!("connection lost: {e}"));
                        false
                    }
                }
            }
        }
    }
}

fn print_result(r: &ExecResult, elapsed: Option<std::time::Duration>, timing: bool) {
    // Pre-solve analyzer findings come first, rustc-style, on stderr —
    // they annotate the statement, not its result set.
    for diag in &r.warnings {
        eprintln!("{diag}");
    }
    match &r.outcome {
        Outcome::Table(t) => {
            print!("{t}");
            match elapsed {
                Some(d) => {
                    println!("({} row(s), {:.1} ms)", t.num_rows(), d.as_secs_f64() * 1e3)
                }
                None => println!("({} row(s))", t.num_rows()),
            }
        }
        Outcome::Count(n) => println!("{n} row(s) affected"),
        Outcome::Done => println!("ok"),
    }
    if timing {
        if let Some(trace) = &r.trace {
            for line in trace.render() {
                println!("{line}");
            }
        }
    }
}

fn report_error(msg: &str) {
    eprintln!("error: {msg}");
}

/// `solvedb --check`: run the whole-script static analyzer (SD013–SD018)
/// over each script without executing anything. Findings print
/// rustc-style on stderr, prefixed with the script and 1-based statement
/// number; a one-line verdict per script goes to stdout. Returns the
/// process exit code: 0 when every script parses and carries no
/// error-level finding, 1 otherwise.
fn run_check(session: &Session, paths: &[String]) -> i32 {
    let mut failed = false;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match session.check_script(&text) {
            Ok(analysis) => {
                for f in &analysis.diagnostics {
                    for line in format!("{}", f.diag).lines() {
                        eprintln!("{path}: statement {}: {line}", f.stmt + 1);
                    }
                }
                let verdict = if analysis.has_errors() {
                    failed = true;
                    "FAILED"
                } else {
                    "ok"
                };
                println!("{path}: {verdict} — {}", analysis.summary());
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                println!("{path}: FAILED — does not parse");
            }
        }
    }
    if failed {
        1
    } else {
        0
    }
}

fn connect(addr: &str) -> Client {
    match Client::connect(addr) {
        Ok(c) => c,
        Err(ClientError::Io(e)) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("handshake with {addr} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("solvedb: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Live solve status line (one `\r`-updating stderr line for solves
    // running >1 s, local and remote alike).
    let status: StatusLine = Arc::new(AtomicBool::new(false));

    let mut backend = match &opts.connect {
        Some(addr) => Backend::Remote(connect(addr)),
        None => {
            let mut session = Session::new();
            {
                let status = status.clone();
                session.set_progress_sink(Arc::new(move |ev: &obs::ProgressEvent| {
                    draw_status(ev, &status);
                }));
            }
            if let Some(dir) = &opts.data_dir {
                let engine = match StorageEngine::open(std::path::Path::new(dir), opts.fsync) {
                    Ok(e) => Arc::new(e),
                    Err(e) => {
                        eprintln!("solvedb: storage recovery failed: {e}");
                        std::process::exit(1);
                    }
                };
                let r = engine.recovery_stats();
                eprintln!(
                    "solvedb: recovered {dir} (snapshot lsn {}, {} record(s) replayed, \
                     {} torn byte(s) truncated)",
                    r.snapshot_lsn, r.replayed_records, r.truncated_bytes,
                );
                if let Err(e) = session.attach_storage(engine) {
                    eprintln!("solvedb: cannot attach storage: {e}");
                    std::process::exit(1);
                }
            }
            Backend::Local(session)
        }
    };

    // Lint mode: analyze each script against the session catalog
    // (empty unless --data-dir recovered state) without executing it.
    if opts.check {
        let code = match &backend {
            Backend::Local(session) => run_check(session, &opts.scripts),
            Backend::Remote(_) => {
                eprintln!("solvedb: --check is local-only");
                2
            }
        };
        std::process::exit(code);
    }

    // Non-interactive modes: -e SQL or a script file. Every statement's
    // result is printed; the first failure stops execution with exit 1.
    let batch = match (&opts.exec, opts.scripts.first()) {
        (Some(sql), _) => Some(sql.clone()),
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        (None, None) => None,
    };
    if let Some(sql) = batch {
        let ok = backend.run_batch(&sql, opts.timing, opts.timing, opts.slow_query_ms, &status);
        std::process::exit(if ok { 0 } else { 1 });
    }

    // Interactive shell.
    match &backend {
        Backend::Remote(_) => println!(
            "SolveDB+ shell — connected to {} (protocol v{}). \\q quits.",
            opts.connect.as_deref().unwrap_or("?"),
            solvedbplus::server::PROTOCOL_VERSION
        ),
        Backend::Local(_) => println!(
            "SolveDB+ shell — SQL with SOLVESELECT / SOLVEMODEL. \\q quits, \\demo loads Table 1."
        ),
    }
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut timing = opts.timing;
    loop {
        print!("{}", if buffer.is_empty() { "solvedb> " } else { "     ... " });
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match run_meta(&mut backend, trimmed, &mut timing) {
                MetaOutcome::Quit => break,
                MetaOutcome::Handled => continue,
            }
        }
        buffer.push_str(&line);
        // A statement is submitted once the buffer ends at a real
        // statement boundary — `;` inside strings or comments, and
        // trailing comments after the `;`, are handled lexically.
        if !script_complete(&buffer) {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        backend.run_batch(&sql, true, timing, opts.slow_query_ms, &status);
    }
    if let Backend::Remote(client) = backend {
        let _ = client.close();
    }
}

enum MetaOutcome {
    Quit,
    Handled,
}

fn run_meta(backend: &mut Backend, cmd: &str, timing: &mut bool) -> MetaOutcome {
    if matches!(cmd, "\\q" | "\\quit") {
        return MetaOutcome::Quit;
    }
    // `\timing` works against both backends: traces travel over the
    // wire in STATS frames, so rendering is purely client-side.
    if let Some(rest) = cmd.strip_prefix("\\timing") {
        match rest.trim() {
            "" => *timing = !*timing,
            "on" => *timing = true,
            "off" => *timing = false,
            other => {
                println!("usage: \\timing [on|off] (got {other:?})");
                return MetaOutcome::Handled;
            }
        }
        println!("timing is {}", if *timing { "on" } else { "off" });
        return MetaOutcome::Handled;
    }
    let session = match backend {
        Backend::Local(s) => s,
        Backend::Remote(client) => {
            if cmd == "\\ping" {
                match client.ping() {
                    Ok(()) => println!("pong"),
                    Err(e) => println!("error: {e}"),
                }
            } else {
                println!("meta commands are local-only (except \\ping, \\timing and \\q): {cmd}");
            }
            return MetaOutcome::Handled;
        }
    };
    match cmd {
        "\\d" => {
            for name in session.db().table_names() {
                let t = session.db().table(name).expect("listed table");
                println!(
                    "  {name} ({} rows): {}",
                    t.num_rows(),
                    t.schema
                        .columns
                        .iter()
                        .map(|c| format!("{} {}", c.name, c.ty.sql_name()))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
        "\\solvers" => {
            for s in session.solver_names() {
                println!("  {s}");
            }
        }
        "\\demo" => {
            datagen::install_table1(session.db_mut());
            println!("loaded the paper's Table 1 as table `input`; try:");
            println!(
                "  SOLVESELECT t(pvsupply) AS (SELECT * FROM input) USING predictive_solver();"
            );
        }
        other => {
            println!("unknown meta command: {other} (try \\d, \\solvers, \\demo, \\timing, \\q)")
        }
    }
    MetaOutcome::Handled
}
