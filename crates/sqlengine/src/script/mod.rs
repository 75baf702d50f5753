//! `scriptcheck` — whole-script static analysis.
//!
//! The per-statement analyzer (`solvecheck`, SD001–SD012) inspects one
//! compiled model at a time; this module analyzes an entire SQL script
//! *before anything runs*. It parses the script, computes per-statement
//! read/write sets over tables, views and solve outputs ([`rwset`]),
//! threads a statically derived catalog state through the statements
//! ([`shadow`]) and builds a statement dependency DAG. On top of that
//! state it emits the cross-statement diagnostics SD013–SD018:
//!
//! | code  | severity | finding                                         |
//! |-------|----------|-------------------------------------------------|
//! | SD013 | error    | relation used before the statement that creates it |
//! | SD014 | error    | relation used after being dropped               |
//! | SD015 | error    | statement conflicts with the derived schema (arity/column mismatch, duplicate create) |
//! | SD016 | warning  | view or table shadowed/replaced before ever being read |
//! | SD017 | note     | script-created table never read (script output or dead) |
//! | SD018 | warning  | statically-empty relation feeds a `SOLVESELECT`  |
//!
//! Names a script reads but never creates are assumed to exist in the
//! session catalog ("external") and are never diagnosed — so scripts
//! that run against prepared sessions stay clean. The analysis is
//! surfaced through `EXPLAIN SCRIPT`, `solvedb --check`, the server's
//! batch WARNING frames, and `Session::check_script`.

pub mod rwset;
pub mod shadow;

use crate::ast::{Query, SolveStmt, Statement, TableRef};
use crate::catalog::Database;
use crate::diag::{Diagnostic, Severity};
use crate::error::Result;
use crate::parser;
use crate::table::{Column, Schema, Table};
use crate::types::{DataType, Value};
use rwset::RwSet;
use shadow::{RelKind, RowEstimate, ShadowCatalog};
use std::collections::{BTreeSet, HashMap, HashSet};

// ---------------------------------------------------------------------------
// Catalog snapshot
// ---------------------------------------------------------------------------

/// The catalog a script is analyzed against. `empty()` models batch
/// linting of a standalone script; `from_db` models `EXPLAIN SCRIPT`
/// inside a live session: its relations (shared, not copied) and UDFs.
#[derive(Debug, Default)]
pub struct CatalogSnapshot {
    db: Database,
}

impl CatalogSnapshot {
    pub fn empty() -> CatalogSnapshot {
        CatalogSnapshot::default()
    }

    pub fn from_db(db: &Database) -> CatalogSnapshot {
        CatalogSnapshot { db: fork(db) }
    }
}

/// A database over `db`'s relations (shared until it writes them) and
/// UDFs: what it does to them reaches neither `db` nor its session.
fn fork(db: &Database) -> Database {
    let mut fork = Database::new();
    fork.adopt(db.relations().clone());
    for udf in db.udf_names().iter().filter_map(|name| db.udf(name)) {
        fork.register_udf(udf.clone());
    }
    fork
}

// ---------------------------------------------------------------------------
// Analysis result types
// ---------------------------------------------------------------------------

/// Why statement `to` must run after statement `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `to` reads a relation `from` writes (read-after-write).
    Raw,
    /// `to` writes a relation `from` reads (write-after-read).
    War,
    /// Both write the same relation (write-after-write).
    Waw,
}

impl EdgeKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EdgeKind::Raw => "read-after-write",
            EdgeKind::War => "write-after-read",
            EdgeKind::Waw => "write-after-write",
        }
    }
}

/// One dependency edge of the statement DAG. `from < to` always holds,
/// so the graph is acyclic by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub kind: EdgeKind,
    /// The relation that induces the dependency.
    pub relation: String,
}

/// Per-statement analysis record.
#[derive(Debug, Clone)]
pub struct StmtAnalysis {
    pub index: usize,
    pub kind: &'static str,
    pub rw: RwSet,
}

/// A diagnostic anchored to one statement of the script.
#[derive(Debug, Clone)]
pub struct ScriptDiagnostic {
    /// 0-based statement index.
    pub stmt: usize,
    pub diag: Diagnostic,
}

/// The full result of analyzing a script.
#[derive(Debug, Clone)]
pub struct ScriptAnalysis {
    pub statements: Vec<StmtAnalysis>,
    pub edges: Vec<Edge>,
    /// Number of mutually independent statement groups (connected
    /// components of the dependency graph) — the parallelism ceiling.
    pub groups: usize,
    pub diagnostics: Vec<ScriptDiagnostic>,
}

impl ScriptAnalysis {
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.diag.severity == Severity::Error).count()
    }

    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.diag.severity == Severity::Warning).count()
    }

    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Diagnostics of at least `min` severity, grouped by statement —
    /// the shape the server/batch layers attach to per-statement results.
    pub fn by_statement(&self, min: Severity) -> HashMap<usize, Vec<Diagnostic>> {
        let mut out: HashMap<usize, Vec<Diagnostic>> = HashMap::new();
        for d in &self.diagnostics {
            if d.diag.severity >= min {
                out.entry(d.stmt).or_default().push(d.diag.clone());
            }
        }
        out
    }

    /// One-line summary, also used as the first row of `EXPLAIN SCRIPT`.
    pub fn summary(&self) -> String {
        format!(
            "{} statement(s), {} dependency edge(s), {} independent group(s); \
             {} error(s), {} warning(s)",
            self.statements.len(),
            self.edges.len(),
            self.groups,
            self.error_count(),
            self.warning_count(),
        )
    }

    /// Render as a relation: `stmt | code | severity | message | detail`.
    /// Dataflow rows (reads/writes/dependencies) are notes with a NULL
    /// code; diagnostics carry their SD code.
    pub fn to_table(&self) -> Table {
        let schema = Schema::new(vec![
            Column::new("stmt", DataType::Int),
            Column::new("code", DataType::Text),
            Column::new("severity", DataType::Text),
            Column::new("message", DataType::Text),
            Column::new("detail", DataType::Text),
        ]);
        let mut rows = Vec::new();
        rows.push(vec![
            Value::Null,
            Value::Null,
            Value::text("note"),
            Value::text(self.summary()),
            Value::Null,
        ]);
        for s in &self.statements {
            let deps: Vec<String> = self
                .edges
                .iter()
                .filter(|e| e.to == s.index)
                .map(|e| format!("{} ({} '{}')", e.from + 1, e.kind.as_str(), e.relation))
                .collect();
            let detail = if deps.is_empty() {
                Value::Null
            } else {
                Value::text(format!("depends on statement(s) {}", deps.join(", ")))
            };
            rows.push(vec![
                Value::Int((s.index + 1) as i64),
                Value::Null,
                Value::text("note"),
                Value::text(format!(
                    "{}: reads {} writes {}",
                    s.kind,
                    fmt_names(&s.rw.all_reads()),
                    fmt_names(&s.rw.touched()),
                )),
                detail,
            ]);
        }
        for d in &self.diagnostics {
            rows.push(vec![
                Value::Int((d.stmt + 1) as i64),
                Value::text(&d.diag.code),
                Value::text(d.diag.severity.as_str()),
                Value::text(&d.diag.message),
                d.diag.detail.as_deref().map_or(Value::Null, Value::text),
            ]);
        }
        Table::with_rows(schema, rows)
    }
}

fn fmt_names(names: &BTreeSet<String>) -> String {
    if names.is_empty() {
        return "{}".into();
    }
    const MAX: usize = 6;
    let shown: Vec<&str> = names.iter().take(MAX).map(String::as_str).collect();
    let extra = names.len().saturating_sub(MAX);
    if extra > 0 {
        format!("{{{}, +{} more}}", shown.join(", "), extra)
    } else {
        format!("{{{}}}", shown.join(", "))
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Parse and analyze a full script.
pub fn analyze_sql(sql: &str, base: &CatalogSnapshot) -> Result<ScriptAnalysis> {
    let stmts = parser::parse_statements(sql)?;
    Ok(analyze_script(&stmts, base))
}

/// Analyze an already-parsed statement sequence against a base catalog
/// state. Infallible: defects become diagnostics, never errors.
pub fn analyze_script(stmts: &[Statement], base: &CatalogSnapshot) -> ScriptAnalysis {
    let statements: Vec<StmtAnalysis> = stmts
        .iter()
        .enumerate()
        .map(|(i, s)| StmtAnalysis {
            index: i,
            kind: rwset::statement_kind(s),
            rw: rwset::statement_rwset(s),
        })
        .collect();

    let edges = dependency_edges(&statements);
    let groups = independent_groups(statements.len(), &edges);

    let diagnostics = {
        let mut checker = Checker {
            shadow: ShadowCatalog::new(fork(&base.db)),
            statements: &statements,
            diagnostics: Vec::new(),
        };
        for (i, stmt) in stmts.iter().enumerate() {
            checker.check_statement(i, stmt);
            checker.shadow.apply(i, stmt);
        }
        checker.finish(stmts.len());
        checker.diagnostics
    };

    ScriptAnalysis { statements, edges, groups, diagnostics }
}

/// Build the dependency DAG: for every ordered pair `i < j` sharing a
/// relation in a conflicting way, one edge (strongest kind wins:
/// RAW > WAW > WAR).
fn dependency_edges(statements: &[StmtAnalysis]) -> Vec<Edge> {
    let mut edges = Vec::new();
    for j in 1..statements.len() {
        for i in 0..j {
            let (a, b) = (&statements[i].rw, &statements[j].rw);
            let pick = |names: BTreeSet<String>| names.into_iter().next();
            let (wa, wb) = (a.touched(), b.touched());
            let edge = pick(wa.intersection(&b.all_reads()).cloned().collect())
                .map(|relation| (EdgeKind::Raw, relation))
                .or_else(|| {
                    pick(wa.intersection(&wb).cloned().collect())
                        .map(|relation| (EdgeKind::Waw, relation))
                })
                .or_else(|| {
                    pick(a.all_reads().intersection(&wb).cloned().collect())
                        .map(|relation| (EdgeKind::War, relation))
                });
            if let Some((kind, relation)) = edge {
                edges.push(Edge { from: i, to: j, kind, relation });
            }
        }
    }
    edges
}

/// Connected components of the (undirected) dependency graph.
fn independent_groups(n: usize, edges: &[Edge]) -> usize {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in edges {
        let (a, b) = (find(&mut parent, e.from), find(&mut parent, e.to));
        parent[a] = b;
    }
    (0..n).map(|i| find(&mut parent, i)).collect::<HashSet<_>>().len()
}

// ---------------------------------------------------------------------------
// Cross-statement checks (SD013–SD018)
// ---------------------------------------------------------------------------

struct Checker<'a> {
    shadow: ShadowCatalog,
    statements: &'a [StmtAnalysis],
    diagnostics: Vec<ScriptDiagnostic>,
}

impl Checker<'_> {
    fn push(&mut self, stmt: usize, diag: Diagnostic) {
        self.diagnostics.push(ScriptDiagnostic { stmt, diag });
    }

    /// First later statement (index > `idx`) that creates `name`.
    fn created_later(&self, idx: usize, name: &str) -> Option<usize> {
        self.statements[idx + 1..].iter().find(|s| s.rw.creates.contains(name)).map(|s| s.index)
    }

    /// Resolve a use (read or write) of `name` at statement `idx`,
    /// emitting SD013/SD014 when the derived state proves it invalid.
    /// Returns whether the relation is usable here.
    fn resolve_use(&mut self, idx: usize, name: &str, verb: &str) -> bool {
        match self.shadow.get(name) {
            Some(rel) if rel.is_dropped() => {
                let dropped_at = rel.dropped_at.unwrap_or(idx);
                self.push(
                    idx,
                    Diagnostic::error(
                        "SD014",
                        format!(
                            "statement {} {verb} '{name}', which was dropped by statement {}",
                            idx + 1,
                            dropped_at + 1
                        ),
                    )
                    .with_detail(
                        "move this statement before the DROP, or recreate the relation first",
                    ),
                );
                false
            }
            Some(_) => {
                self.shadow.mark_read(name);
                // Reading a view touches its base relations too.
                self.resolve_view_bases(idx, name);
                true
            }
            None => {
                if let Some(created) = self.created_later(idx, name) {
                    self.push(
                        idx,
                        Diagnostic::error(
                            "SD013",
                            format!(
                                "statement {} {verb} '{name}' before statement {} creates it",
                                idx + 1,
                                created + 1
                            ),
                        )
                        .with_detail("reorder the script so the CREATE runs first"),
                    );
                    false
                } else {
                    // External: assumed present in the session catalog.
                    self.shadow.mark_read(name);
                    true
                }
            }
        }
    }

    /// Transitively validate the base relations of `view`, when it is a
    /// view being read.
    fn resolve_view_bases(&mut self, idx: usize, view: &str) {
        let mut visited = HashSet::new();
        visited.insert(view.to_string());
        let mut queue: Vec<_> = self.shadow.db.view(view).cloned().into_iter().collect();
        while let Some(def) = queue.pop() {
            for base in rwset::view_reads(&def) {
                if !visited.insert(base.clone()) {
                    continue;
                }
                match self.shadow.get(&base) {
                    Some(b) if b.is_dropped() => {
                        let dropped_at = b.dropped_at.unwrap_or(idx);
                        self.push(
                            idx,
                            Diagnostic::error(
                                "SD014",
                                format!(
                                    "statement {} reads view '{view}', but its base relation \
                                     '{base}' was dropped by statement {}",
                                    idx + 1,
                                    dropped_at + 1
                                ),
                            )
                            .with_detail(
                                "the view is evaluated lazily: it breaks at first use \
                                 after the DROP",
                            ),
                        );
                    }
                    Some(_) => {
                        queue.extend(self.shadow.db.view(&base).cloned());
                        self.shadow.mark_read(&base);
                    }
                    None => {
                        if let Some(created) = self.created_later(idx, &base) {
                            self.push(
                                idx,
                                Diagnostic::error(
                                    "SD013",
                                    format!(
                                        "statement {} reads view '{view}', but its base relation \
                                         '{base}' is only created by statement {}",
                                        idx + 1,
                                        created + 1
                                    ),
                                )
                                .with_detail("reorder the script so the CREATE runs first"),
                            );
                        } else {
                            self.shadow.mark_read(&base);
                        }
                    }
                }
            }
        }
    }

    fn check_statement(&mut self, idx: usize, stmt: &Statement) {
        // Generic read resolution first (SD013/SD014 on reads).
        let reads = self.statements[idx].rw.reads.clone();
        for name in &reads {
            self.resolve_use(idx, name, "reads");
        }
        if !self.check_kind(idx, stmt) {
            return;
        }

        match stmt {
            Statement::Insert { table, columns, source } => {
                if self.resolve_use(idx, table, "inserts into") {
                    self.check_insert(idx, table, columns, source);
                }
            }
            Statement::Update { table, assignments, .. } => {
                // The target was already resolved through `reads`; a
                // dropped one has no schema.
                self.check_columns(idx, "UPDATE sets", table, assignments.iter().map(|(c, _)| c));
            }
            Statement::Delete { .. } => {} // target covered via reads
            Statement::CreateTable { name, if_not_exists: false, .. }
            | Statement::CreateView { name, or_replace: false, .. }
                if self.shadow.exists(name) =>
            {
                let (what, fix) = match stmt {
                    Statement::CreateTable { .. } => (
                        "CREATE TABLE",
                        "add IF NOT EXISTS, DROP the old relation first, or pick another name",
                    ),
                    _ => ("CREATE VIEW", "use CREATE OR REPLACE VIEW, or DROP it first"),
                };
                let origin = self.origin(name);
                let message = format!(
                    "{what} '{name}' conflicts with the derived catalog: the relation is {origin}"
                );
                self.push(idx, Diagnostic::error("SD015", message).with_detail(fix));
            }
            Statement::CreateView { name, or_replace: true, .. } if self.shadow.exists(name) => {
                let unread = self.shadow.get(name).filter(|r| !r.ever_read);
                if let Some(c) = unread.and_then(|r| r.created_at) {
                    self.push(
                        idx,
                        Diagnostic::warning(
                            "SD016",
                            format!(
                                "view '{name}' (created by statement {}) is replaced before \
                                 ever being read",
                                c + 1
                            ),
                        )
                        .with_detail(
                            "the earlier definition is dead; remove it or read it before replacing",
                        ),
                    );
                }
            }
            Statement::DropTable { name, if_exists } | Statement::DropView { name, if_exists } => {
                if !if_exists {
                    match self.shadow.get(name) {
                        Some(rel) if rel.is_dropped() => {
                            let dropped_at = rel.dropped_at.unwrap_or(idx);
                            self.push(
                                idx,
                                Diagnostic::error(
                                    "SD014",
                                    format!(
                                        "statement {} drops '{name}', which was already dropped \
                                         by statement {}",
                                        idx + 1,
                                        dropped_at + 1
                                    ),
                                )
                                .with_detail("add IF EXISTS or remove the duplicate DROP"),
                            );
                        }
                        Some(_) => {}
                        None => {
                            if let Some(created) = self.created_later(idx, name) {
                                self.push(
                                    idx,
                                    Diagnostic::error(
                                        "SD013",
                                        format!(
                                            "statement {} drops '{name}' before statement {} \
                                             creates it",
                                            idx + 1,
                                            created + 1
                                        ),
                                    )
                                    .with_detail("reorder the script so the CREATE runs first"),
                                );
                            }
                        }
                    }
                }
            }
            _ => {}
        }

        // SD018: statically empty input feeding a solve.
        for solve in rwset::executed_solves(stmt) {
            self.check_solve_input(idx, solve);
        }
    }

    /// SD015 over a statement the engine refuses because its target is a
    /// relation of the other kind: rows into a view, DROP TABLE of a view,
    /// DROP VIEW of a table, a view replacing a table. Returns whether the
    /// kind fits.
    fn check_kind(&mut self, idx: usize, stmt: &Statement) -> bool {
        use RelKind::{Table, View};
        let (what, name, want) = match stmt {
            Statement::Insert { table, .. } => ("INSERT INTO", table, Table),
            Statement::Update { table, .. } => ("UPDATE", table, Table),
            Statement::Delete { table, .. } => ("DELETE FROM", table, Table),
            Statement::DropTable { name, if_exists: false } => ("DROP TABLE", name, Table),
            Statement::DropView { name, if_exists: false } => ("DROP VIEW", name, View),
            Statement::CreateView { name, or_replace: true, .. } => {
                ("CREATE OR REPLACE VIEW", name, View)
            }
            _ => return true,
        };
        let kind = self.shadow.kind(name);
        if kind == want || !self.shadow.exists(name) {
            return true;
        }
        let (is, detail) = match kind {
            View => ("a view", "a view takes no rows, and DROP VIEW drops it"),
            _ => ("a table", "DROP TABLE drops a table, and no view replaces it"),
        };
        let message = format!("{what} '{name}', but '{name}' is {is} ({})", self.origin(name));
        self.push(idx, Diagnostic::error("SD015", message).with_detail(detail));
        false
    }

    /// Where the live relation `name` comes from, for a message.
    fn origin(&self, name: &str) -> String {
        match self.shadow.get(name).and_then(|r| r.created_at) {
            Some(c) => format!("created by statement {}", c + 1),
            None => "already present in the catalog".to_string(),
        }
    }

    /// SD015 for each of `cols` the derived schema of `table` lacks (`what`
    /// the statement does with it); the schema, when it is known.
    fn check_columns<'c>(
        &mut self,
        idx: usize,
        what: &str,
        table: &str,
        cols: impl IntoIterator<Item = &'c String>,
    ) -> Option<Schema> {
        let schema = self.shadow.schema(table)?;
        let names = schema.names();
        for col in cols.into_iter().filter(|c| !names.contains(&c.as_str())) {
            self.push(
                idx,
                Diagnostic::error(
                    "SD015",
                    format!(
                        "{what} column '{col}', but the derived schema of '{table}' has no such \
                         column"
                    ),
                )
                .with_detail(format!("columns: {}", names.join(", "))),
            );
        }
        Some(schema)
    }

    /// SD015 over an INSERT, as the engine runs it: every listed column
    /// exists; with a column list the values match it exactly, without
    /// one there are at most as many values as columns (the rest pad with
    /// NULL).
    fn check_insert(&mut self, idx: usize, table: &str, columns: &[String], source: &Query) {
        let Some(schema) = self.check_columns(idx, "INSERT targets", table, columns) else {
            return;
        };
        let names = schema.names();
        let Some(provided) = self.shadow.query_schema(source).map(|s| s.len()) else { return };
        let target = match columns.len() {
            0 if provided > names.len() => format!("'{table}' has {} column(s)", names.len()),
            n if n > 0 && provided != n => format!("the column list names {n} column(s)"),
            _ => return,
        };
        self.push(
            idx,
            Diagnostic::error(
                "SD015",
                format!("INSERT provides {provided} value(s) per row, but {target}"),
            )
            .with_detail(format!("derived schema of '{table}': {}", names.join(", "))),
        );
    }

    /// SD018 over one executed solve: the input relation is statically
    /// empty (zero derived rows, or a WHERE the intervals contradict).
    fn check_solve_input(&mut self, idx: usize, solve: &SolveStmt) {
        let q = &solve.input.query;
        if !q.with.is_empty() {
            return;
        }
        let crate::ast::SetExpr::Select(sel) = &q.body else { return };
        let [TableRef::Named { name, .. }] = sel.from.as_slice() else { return };
        let Some(rel) = self.shadow.get(name) else { return };
        if rel.is_dropped() {
            return; // SD014 already fired
        }
        let alias = solve.input.alias.as_deref().unwrap_or("input");
        if rel.rows == RowEstimate::Known(0) {
            self.push(
                idx,
                Diagnostic::warning(
                    "SD018",
                    format!(
                        "SOLVESELECT input '{alias}' reads '{name}', which is statically \
                         empty at this point"
                    ),
                )
                .with_detail(
                    "an empty input relation yields no decision variables; \
                     the solve is a no-op",
                ),
            );
            return;
        }
        if let Some(where_) = &sel.where_ {
            if let Some(reason) = shadow::where_provably_empty(where_, &rel) {
                self.push(
                    idx,
                    Diagnostic::warning(
                        "SD018",
                        format!("SOLVESELECT input '{alias}' selects no row of '{name}': {reason}"),
                    )
                    .with_detail(
                        "an empty input relation yields no decision variables; \
                         the solve is a no-op",
                    ),
                );
            }
        }
    }

    /// End-of-script checks: SD017 (dead script-created tables).
    fn finish(&mut self, _n: usize) {
        let mut dead: Vec<(usize, String)> = self
            .shadow
            .touched()
            .filter(|(name, rel)| {
                !rel.ever_read && !rel.is_dropped() && self.shadow.kind(name) == RelKind::Table
            })
            .filter_map(|(name, rel)| rel.created_at.map(|c| (c, name.clone())))
            .collect();
        dead.sort();
        for (created, name) in dead {
            self.push(
                created,
                Diagnostic::note(
                    "SD017",
                    format!(
                        "table '{name}' (created by statement {}) is never read by any \
                         later statement",
                        created + 1
                    ),
                )
                .with_detail("fine if it is the script's output; otherwise the statement is dead"),
            );
        }
        self.diagnostics.sort_by(|a, b| {
            b.diag
                .severity
                .cmp(&a.diag.severity)
                .then_with(|| a.stmt.cmp(&b.stmt))
                .then_with(|| a.diag.code.cmp(&b.diag.code))
        });
    }
}

// ---------------------------------------------------------------------------
// Source resolution for EXPLAIN SCRIPT / --check
// ---------------------------------------------------------------------------

/// `EXPLAIN SCRIPT '<arg>'` accepts either a file path or inline SQL.
/// The argument is treated as a path when it plausibly is one (short,
/// single-line, no semicolon) and the file exists; otherwise it is the
/// script text itself.
pub fn resolve_source(arg: &str) -> std::io::Result<String> {
    let plausible_path =
        arg.len() < 4096 && !arg.contains(';') && !arg.contains('\n') && !arg.trim().is_empty();
    if plausible_path && std::path::Path::new(arg).is_file() {
        return std::fs::read_to_string(arg);
    }
    Ok(arg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(sql: &str) -> ScriptAnalysis {
        analyze_sql(sql, &CatalogSnapshot::empty()).expect("parse")
    }

    fn codes(a: &ScriptAnalysis) -> Vec<(usize, String)> {
        a.diagnostics.iter().map(|d| (d.stmt, d.diag.code.clone())).collect()
    }

    #[test]
    fn clean_script_is_clean() {
        let a = analyze(
            "CREATE TABLE t (x float8); \
             INSERT INTO t VALUES (1.0), (2.0); \
             SELECT * FROM t",
        );
        assert!(!a.has_errors(), "diagnostics: {:?}", codes(&a));
        assert_eq!(a.statements.len(), 3);
        assert_eq!(a.groups, 1);
    }

    #[test]
    fn external_reads_are_silent() {
        // Scripts that run against a prepared session read tables the
        // analyzer has never seen — that must not be an error.
        let a = analyze("SELECT * FROM warehouse_stock; INSERT INTO orders VALUES (1)");
        assert!(a.diagnostics.is_empty(), "diagnostics: {:?}", codes(&a));
        assert_eq!(a.groups, 2);
    }

    #[test]
    fn sd013_use_before_create() {
        let a = analyze("SELECT * FROM t; CREATE TABLE t (x int4)");
        assert_eq!(a.error_count(), 1);
        assert_eq!(codes(&a)[0], (0, "SD013".to_string()));
    }

    #[test]
    fn sd014_read_after_drop() {
        let a = analyze("CREATE TABLE t (x int4); DROP TABLE t; SELECT * FROM t");
        assert_eq!(codes(&a)[0], (2, "SD014".to_string()));
    }

    #[test]
    fn sd014_view_over_dropped_base() {
        let a = analyze(
            "CREATE TABLE t (x int4); \
             CREATE VIEW v AS SELECT * FROM t; \
             DROP TABLE t; \
             SELECT * FROM v",
        );
        assert!(codes(&a).contains(&(3, "SD014".to_string())), "got: {:?}", codes(&a));
    }

    #[test]
    fn sd015_insert_arity_and_unknown_column() {
        let a = analyze("CREATE TABLE t (x int4, y int4); INSERT INTO t VALUES (1, 2, 3)");
        assert_eq!(codes(&a)[0], (1, "SD015".to_string()));
        // Fewer values than columns: the engine pads with NULL.
        let pad = analyze("CREATE TABLE t (x int4, y int4); INSERT INTO t VALUES (1)");
        assert!(!pad.has_errors(), "got: {:?}", codes(&pad));
        // A column list must match the values exactly.
        let list = analyze("CREATE TABLE t (x int4, y int4); INSERT INTO t (x, y) VALUES (1)");
        assert_eq!(codes(&list)[0], (1, "SD015".to_string()));
        let b = analyze("CREATE TABLE t (x int4); INSERT INTO t (z) VALUES (1)");
        assert!(codes(&b).iter().any(|(i, c)| *i == 1 && c == "SD015"), "got: {:?}", codes(&b));
    }

    #[test]
    fn sd015_view_over_a_table() {
        let a = analyze("CREATE TABLE t (a int4); CREATE OR REPLACE VIEW t AS SELECT 42 AS b");
        assert_eq!(codes(&a)[0], (1, "SD015".to_string()));
        // The table stays: an INSERT into it is checked against its columns.
        let b = analyze(
            "CREATE TABLE t (a int4); CREATE OR REPLACE VIEW t AS SELECT 42 AS b; \
             INSERT INTO t (b) VALUES (5)",
        );
        assert!(codes(&b).contains(&(2, "SD015".to_string())), "got: {:?}", codes(&b));
    }

    #[test]
    fn sd015_duplicate_create() {
        let a = analyze("CREATE TABLE t (x int4); CREATE TABLE t (y int4)");
        assert_eq!(codes(&a)[0], (1, "SD015".to_string()));
        let ok = analyze("CREATE TABLE t (x int4); CREATE TABLE IF NOT EXISTS t (y int4)");
        assert!(!ok.has_errors());
    }

    #[test]
    fn sd016_view_replaced_unread() {
        let a = analyze(
            "CREATE VIEW v AS SELECT 1 AS x; \
             CREATE OR REPLACE VIEW v AS SELECT 2 AS x; \
             SELECT * FROM v",
        );
        assert!(codes(&a).contains(&(1, "SD016".to_string())), "got: {:?}", codes(&a));
        let read_first = analyze(
            "CREATE VIEW v AS SELECT 1 AS x; \
             SELECT * FROM v; \
             CREATE OR REPLACE VIEW v AS SELECT 2 AS x; \
             SELECT * FROM v",
        );
        assert!(!read_first.diagnostics.iter().any(|d| d.diag.code == "SD016"));
    }

    #[test]
    fn sd017_dead_table_is_a_note() {
        let a = analyze("CREATE TABLE t (x int4); CREATE TABLE u AS SELECT * FROM t");
        let c = codes(&a);
        assert!(c.contains(&(1, "SD017".to_string())), "got: {c:?}");
        assert!(!a.has_errors());
        assert!(a
            .diagnostics
            .iter()
            .all(|d| d.diag.code != "SD017" || d.diag.severity == Severity::Note));
    }

    #[test]
    fn sd018_empty_input_and_contradictory_where() {
        let a = analyze(
            "CREATE TABLE t (x float8); \
             SOLVESELECT r(x) AS (SELECT * FROM t) \
             MINIMIZE (SELECT sum(x) FROM r) USING solverlp()",
        );
        assert!(codes(&a).contains(&(1, "SD018".to_string())), "got: {:?}", codes(&a));
        let b = analyze(
            "CREATE TABLE t (x float8); \
             INSERT INTO t VALUES (1.0), (2.0); \
             SOLVESELECT r(x) AS (SELECT * FROM t WHERE x > 5) \
             MINIMIZE (SELECT sum(x) FROM r) USING solverlp()",
        );
        assert!(codes(&b).contains(&(2, "SD018".to_string())), "got: {:?}", codes(&b));
        let ok = analyze(
            "CREATE TABLE t (x float8); \
             INSERT INTO t VALUES (1.0), (2.0); \
             SOLVESELECT r(x) AS (SELECT * FROM t WHERE x > 1) \
             MINIMIZE (SELECT sum(x) FROM r) USING solverlp()",
        );
        assert!(!ok.diagnostics.iter().any(|d| d.diag.code == "SD018"));
    }

    #[test]
    fn dag_is_topological_and_groups_count() {
        let a = analyze(
            "CREATE TABLE a (x int4); \
             CREATE TABLE b (x int4); \
             INSERT INTO a VALUES (1); \
             SELECT * FROM b",
        );
        for e in &a.edges {
            assert!(e.from < e.to);
        }
        assert_eq!(a.groups, 2); // {a-chain} and {b-chain}
    }

    #[test]
    fn snapshot_from_db_sees_session_tables() {
        let mut db = Database::new();
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        db.create_table("pre", Table::new(schema), false).expect("create");
        let snap = CatalogSnapshot::from_db(&db);
        let a = analyze_sql("CREATE TABLE pre (x int4)", &snap).expect("parse");
        assert!(a.has_errors(), "duplicate create against session table should error");
        let b = analyze_sql("SELECT * FROM pre", &snap).expect("parse");
        assert!(b.diagnostics.is_empty());
    }

    #[test]
    fn to_table_shape_and_summary() {
        let a = analyze("CREATE TABLE t (x int4); SELECT * FROM t");
        let t = a.to_table();
        assert_eq!(t.num_columns(), 5);
        assert!(t.num_rows() >= 3); // summary + 2 statement rows
        assert!(a.summary().contains("2 statement(s)"));
    }

    #[test]
    fn resolve_source_inline_passthrough() {
        let sql = "SELECT 1; SELECT 2";
        assert_eq!(resolve_source(sql).expect("ok"), sql);
        assert_eq!(resolve_source("/no/such/file.sql").expect("ok"), "/no/such/file.sql");
    }
}
