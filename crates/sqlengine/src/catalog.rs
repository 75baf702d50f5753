//! The database catalog: tables, views, user-defined functions, and the
//! hook through which the SolveDB+ layer plugs into query execution.

use crate::ast::{ExplainMode, Query, SolveStmt};
use crate::diag::{Diagnostic, Severity};
use crate::error::{Error, Result};
use crate::hash::FastMap;
use crate::plan::columnar::{batches_to_rows, Batch, BATCH_SIZE};
use crate::plan::{Rewrite, StoredTable};
use crate::table::{coerce, Row, Schema, Table, TableRef};
use crate::types::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A scalar user-defined function. `param_names` enables named-argument
/// notation (`f(a := 1)`); positional arguments map in declaration order.
#[derive(Clone)]
pub struct ScalarUdf {
    pub name: String,
    pub param_names: Vec<String>,
    /// Default values for trailing parameters (by name).
    pub defaults: FastMap<String, Value>,
    pub func: Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>,
}

impl std::fmt::Debug for ScalarUdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScalarUdf")
            .field("name", &self.name)
            .field("param_names", &self.param_names)
            .finish()
    }
}

/// Where a cell that a step of a recursive CTE emits lands: the
/// relation's name, its row and its column.
pub struct StepCell<'a> {
    pub cte: &'a str,
    pub row: usize,
    pub column: &'a str,
}

/// A rewrite of the cells holding a custom value that each step of a
/// recursive CTE emits, applied before the next step reads them:
/// `Some(v)` replaces the cell. The SolveDB+ layer's symbolic pass sets
/// one on the environment it binds; nothing else does.
pub type StepHook = Arc<dyn Fn(&StepCell<'_>, &Value) -> Option<Value> + Send + Sync>;

/// The relation a CTE name is bound to, in the form its producer made
/// it: rows, or the batches a planned body returned. A planned scan takes
/// the batches as they are (`Binding::scan`); they become rows once,
/// when a row reader first asks ([`Binding::table`]), and are dropped
/// then — a binding holds one form, never both.
pub struct Binding {
    schema: Schema,
    len: usize,
    /// Until a row reader asks: the batches, when the binding was made of
    /// batches.
    batches: Mutex<Option<Vec<Batch>>>,
    rows: OnceLock<TableRef>,
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let form = if self.rows.get().is_some() { "rows" } else { "batches" };
        f.debug_struct("Binding")
            .field("schema", &self.schema)
            .field("len", &self.len)
            .field("form", &form)
            .finish()
    }
}

impl Binding {
    /// A binding of `table`'s rows.
    pub fn rows(table: TableRef) -> Binding {
        let (schema, len) = (table.schema.clone(), table.num_rows());
        Binding { schema, len, batches: Mutex::new(None), rows: OnceLock::from(table) }
    }

    /// A binding of `batches`, rows of `schema`.
    pub(crate) fn batches(schema: Schema, batches: Vec<Batch>) -> Binding {
        let len = batches.iter().map(|b| b.len).sum();
        Binding { schema, len, batches: Mutex::new(Some(batches)), rows: OnceLock::new() }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.len
    }

    /// The relation as rows, pivoted out of its batches the first time.
    pub fn table(&self) -> &TableRef {
        self.rows.get_or_init(|| {
            let batches = self.batches.lock().unwrap_or_else(PoisonError::into_inner).take();
            let rows = batches_to_rows(&batches.unwrap_or_default());
            Arc::new(Table::with_rows(self.schema.clone(), rows))
        })
    }

    /// The relation as a table of its own: its rows, copied only when
    /// another reader shares them.
    pub fn into_table(self) -> Table {
        let table = self.table().clone();
        drop(self);
        Arc::try_unwrap(table).unwrap_or_else(|shared| Table::clone(&shared))
    }

    /// The columns `cols` (all of them for `None`) as batches: shared
    /// with the batches the binding holds, or pivoted from its rows.
    pub(crate) fn scan(&self, cols: Option<&[usize]>) -> Vec<Batch> {
        let held = self.batches.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(batches) = held.as_ref() {
            return batches.iter().map(|b| b.select(cols)).collect();
        }
        drop(held);
        self.table().rows.chunks(BATCH_SIZE).map(|c| Batch::from_rows(c, cols)).collect()
    }

    /// Rename the leading columns (a CTE's column list).
    pub(crate) fn rename(&mut self, names: &[String]) -> Result<()> {
        self.schema.rename(names)?;
        if let Some(t) = self.rows.get_mut() {
            Arc::make_mut(t).schema.rename(names)?;
        }
        Ok(())
    }
}

/// CTE environment threaded through execution: names visible as
/// relations beyond the catalog (WITH members, SOLVESELECT decision
/// relations, inlined model relations), the [`StepHook`] of a symbolic
/// pass, and the [`WorkTally`] of a solve that counts its own work.
#[derive(Clone, Default)]
pub struct Ctes {
    map: FastMap<String, Arc<Binding>>,
    step_hook: Option<StepHook>,
    tally: Option<Arc<WorkTally>>,
}

impl std::fmt::Debug for Ctes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctes")
            .field("map", &self.map)
            .field("step_hook", &self.step_hook.is_some())
            .finish()
    }
}

impl Ctes {
    /// This environment with `hook` rewriting what recursive steps emit.
    pub fn with_step_hook(&self, hook: StepHook) -> Ctes {
        Ctes { step_hook: Some(hook), ..self.clone() }
    }

    pub fn step_hook(&self) -> Option<&StepHook> {
        self.step_hook.as_ref()
    }

    /// This environment with the work done under it — in every
    /// environment made from it — counted on `tally` too.
    pub fn with_tally(&self, tally: Arc<WorkTally>) -> Ctes {
        Ctes { tally: Some(tally), ..self.clone() }
    }

    pub fn tally(&self) -> Option<&Arc<WorkTally>> {
        self.tally.as_ref()
    }

    pub fn new() -> Ctes {
        Ctes::default()
    }

    pub fn get(&self, name: &str) -> Option<&Arc<Binding>> {
        self.map.get(name)
    }

    /// This environment with `name` bound to `table`'s rows.
    pub fn with(&self, name: &str, table: TableRef) -> Ctes {
        let mut next = self.clone();
        next.insert(name, table);
        next
    }

    /// Bind `name` to `table`'s rows.
    pub fn insert(&mut self, name: &str, table: TableRef) {
        self.bind(name, Arc::new(Binding::rows(table)));
    }

    /// Bind `name` to `binding`, in whichever form it holds.
    pub fn bind(&mut self, name: &str, binding: Arc<Binding>) {
        self.map.insert(name.to_string(), binding);
    }

    /// Each bound name with the schema of its relation.
    pub fn schemas(&self) -> impl Iterator<Item = (&str, &Schema)> {
        self.map.iter().map(|(name, binding)| (name.as_str(), binding.schema()))
    }

    /// True when no CTE bindings are visible (plan-cache eligibility:
    /// cached plans must not capture per-execution CTE data).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Hook implemented by the SolveDB+ layer (crate `solvedbplus-core`).
/// The engine routes `SOLVESELECT`, `SOLVEMODEL` expressions and
/// `MODELEVAL` through it; without a handler these constructs error,
/// mirroring a PostgreSQL install without the SolveDB+ extension.
pub trait SolveHandler: Send + Sync {
    /// Execute a `SOLVESELECT`, returning the output relation.
    ///
    /// Before solving, the handler may run its pre-solve static
    /// analyzer and hand the findings to [`Database::add_findings`]: the
    /// statement the solve runs in — as its body or in a subquery, on the
    /// statement's thread or another — carries the `Warning`/`Note`-severity
    /// ones on its [`crate::exec::ExecResult::warnings`].
    ///
    /// When `trace` is present the handler records its stage tree
    /// (plan → rewrite → instantiate → solve → ...) and solver
    /// telemetry into it; a solve in a subquery gets `None` and records
    /// nothing.
    fn solve_select(
        &self,
        db: &Database,
        stmt: &SolveStmt,
        ctes: &Ctes,
        trace: Option<&obs::Trace>,
    ) -> Result<Table>;

    /// `EXPLAIN [CHECK | PRESOLVE] SOLVESELECT ...`, without solving:
    /// describe the compiled problem ([`ExplainMode::Plan`]), return the
    /// pre-solve static analyzer's findings of every severity
    /// ([`ExplainMode::Check`]), or run interval propagation over the
    /// compiled model and return the reduction log
    /// ([`ExplainMode::Presolve`]). `EXPLAIN ANALYZE` executes the solve
    /// through [`SolveHandler::solve_select`] instead.
    fn explain(
        &self,
        _db: &Database,
        _stmt: &SolveStmt,
        _ctes: &Ctes,
        _mode: ExplainMode,
    ) -> Result<Table> {
        Err(Error::unsupported("EXPLAIN of a solve requires the SolveDB+ solve handler"))
    }

    /// Evaluate a `SOLVEMODEL`, returning a model value.
    fn solve_model(&self, db: &Database, stmt: &SolveStmt, ctes: &Ctes) -> Result<Value>;

    /// Execute `MODELEVAL (select) IN (model-select)`.
    fn model_eval(
        &self,
        db: &Database,
        select: &Query,
        model: &Query,
        ctes: &Ctes,
    ) -> Result<Table>;
}

/// A logical catalog mutation — the unit the durability subsystem
/// records. Every mutation of the catalog's persistent state (tables,
/// views) flows through exactly one of these commit points; replaying
/// the sequence against empty [`Relations`] reconstructs the catalog.
/// Mutations carry [`StoredTable`]s, so emitting one never copies row
/// data; whoever keeps such a version makes the next write to that table
/// copy the chunks it writes first, and a version nobody else holds is
/// written in place.
#[derive(Debug, Clone)]
pub enum CatalogMutation {
    /// `CREATE TABLE` / `CREATE TABLE AS` (the table may carry rows).
    CreateTable {
        name: String,
        table: StoredTable,
    },
    DropTable {
        name: String,
    },
    /// Wholesale replacement (UPDATE/DELETE rewrite, solution
    /// materialization, programmatic `put_table`).
    PutTable {
        name: String,
        table: StoredTable,
    },
    /// Rows appended by `INSERT` (already coerced to column types).
    AppendRows {
        name: String,
        rows: Vec<Row>,
    },
    /// `CREATE [OR REPLACE] VIEW` — the view's definition re-parses from
    /// its canonical SQL rendering.
    CreateView {
        name: String,
        sql: String,
    },
    DropView {
        name: String,
    },
}

impl CatalogMutation {
    /// The relation this mutation touches.
    pub fn relation(&self) -> &str {
        match self {
            CatalogMutation::CreateTable { name, .. }
            | CatalogMutation::DropTable { name }
            | CatalogMutation::PutTable { name, .. }
            | CatalogMutation::AppendRows { name, .. }
            | CatalogMutation::CreateView { name, .. }
            | CatalogMutation::DropView { name } => name,
        }
    }

    /// Replay this mutation into a database (see [`Relations::apply`]).
    pub fn apply(&self, db: &mut Database) -> Result<()> {
        db.writing(self.relation());
        let copied = Arc::make_mut(&mut db.relations).apply(self, false)?;
        db.work.add(Work::RowsCopied, copied);
        Ok(())
    }
}

/// The persistent half of a [`Database`]: its tables — each with what is
/// derived from its rows (columnar image, statistics) — and its views.
/// A storage engine holds its current version behind the same `Arc` its
/// sessions' databases hold, and a write copies the *maps* (entries are
/// `Arc` handles) and, of the table it writes, the chunk list and the
/// chunks it changes (see [`StoredTable`]).
#[derive(Debug, Clone, Default)]
pub struct Relations {
    tables: FastMap<String, StoredTable>,
    views: FastMap<String, Arc<Query>>,
}

impl Relations {
    /// True when `name` is a table or a view.
    pub fn has(&self, name: &str) -> bool {
        self.tables.contains_key(name) || self.views.contains_key(name)
    }

    /// What `name` resolves to under `ctes`: a CTE binding shadows the
    /// catalog (`exec::head::resolve_relation`).
    fn resolve(&self, ctes: &Ctes, name: &str) -> Read {
        match ctes.get(name) {
            Some(binding) => Read::Cte(binding.clone()),
            None => Read::Catalog(self.views.get(name).cloned(), self.tables.get(name).cloned()),
        }
    }

    /// Make `name` here what it is in `from` (handle, image, statistics).
    pub fn install(&mut self, name: &str, from: &Relations) {
        self.tables.remove(name);
        self.views.remove(name);
        self.tables.extend(from.tables.get(name).map(|t| (name.to_string(), t.clone())));
        self.views.extend(from.views.get(name).map(|v| (name.to_string(), v.clone())));
    }

    /// Apply one mutation — the only code that turns a
    /// [`CatalogMutation`] into a change of relations. Replay (recovery,
    /// [`CatalogMutation::apply`]) is last-writer-wins. `strict` commits
    /// a statement whose relation changed underneath it: appended rows
    /// are kept beside the other writer's, while creating a name that
    /// exists, touching one that is gone and replacing a table wholesale
    /// are conflicts. Returns the rows the mutation copied because
    /// another version shared them.
    pub fn apply(&mut self, m: &CatalogMutation, strict: bool) -> Result<u64> {
        let name = m.relation();
        let exists = || Error::catalog(format!("relation '{name}' already exists"));
        let conflict = || {
            Error::catalog(format!(
                "relation '{name}' was changed by a concurrent commit; retry the statement"
            ))
        };
        match m {
            CatalogMutation::CreateTable { table, .. } => {
                if strict && self.has(name) {
                    return Err(exists());
                }
                self.tables.insert(name.to_string(), table.clone());
            }
            CatalogMutation::PutTable { table, .. } => {
                if strict {
                    return Err(conflict());
                }
                self.tables.insert(name.to_string(), table.clone());
            }
            CatalogMutation::DropTable { .. } => {
                if self.tables.remove(name).is_none() && strict {
                    return Err(conflict());
                }
            }
            CatalogMutation::AppendRows { rows, .. } => {
                let t = self.tables.get_mut(name).ok_or_else(|| match strict {
                    true => conflict(),
                    false => Error::catalog(format!("table '{name}' does not exist")),
                })?;
                let want = t.schema().len();
                if let Some(row) = rows.iter().find(|r| r.len() != want) {
                    return Err(Error::catalog(format!(
                        "row has {} values, table '{name}' has {want} columns",
                        row.len()
                    )));
                }
                return Ok(t.append(rows.iter().cloned()));
            }
            CatalogMutation::CreateView { sql, .. } => {
                if strict && self.has(name) {
                    return Err(exists());
                }
                let q = crate::parser::parse_query(sql)?;
                self.views.insert(name.to_string(), Arc::new(q));
            }
            CatalogMutation::DropView { .. } => {
                if self.views.remove(name).is_none() && strict {
                    return Err(conflict());
                }
            }
        }
        Ok(0)
    }

    /// All tables as `(name, version)` pairs, sorted by name — what a
    /// snapshot writes (`Arc` clones, no row copies).
    pub fn tables_snapshot(&self) -> Vec<(String, StoredTable)> {
        let mut v: Vec<(String, StoredTable)> =
            self.tables.iter().map(|(n, t)| (n.clone(), t.clone())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// All views as `(name, canonical SQL)` pairs, sorted by name.
    pub fn views_snapshot(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> =
            self.views.iter().map(|(n, q)| (n.clone(), q.to_string())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// What one relation name resolved to: a CTE binding, or the view and
/// the table version the catalog holds under it (neither for a virtual
/// table or no relation).
#[derive(Debug, Clone)]
enum Read {
    Cte(Arc<Binding>),
    Catalog(Option<Arc<Query>>, Option<StoredTable>),
}

/// What a plan, a kept subquery result or a merge read: each relation name
/// with the `Arc` it resolved to. It holds while every name still resolves
/// to the same `Arc` — nothing was committed to the name or bound over it
/// since. It keeps what it names alive, so no address it compares can be
/// reused in between; whoever keeps one drops it before a write to a name
/// it holds, so that the write finds the table unshared.
#[derive(Debug, Clone, Default)]
pub struct ReadSet(Vec<(Read, String)>);

impl ReadSet {
    /// `names` as `relations` under `ctes` resolve them now.
    pub fn of(relations: &Relations, ctes: &Ctes, names: impl IntoIterator<Item = String>) -> Self {
        ReadSet(names.into_iter().map(|name| (relations.resolve(ctes, &name), name)).collect())
    }

    /// True while every name resolves in `relations` under `ctes` to what
    /// it resolved to when the set was made.
    pub fn still_valid(&self, relations: &Relations, ctes: &Ctes) -> bool {
        self.0.iter().all(|(read, name)| match (read, &relations.resolve(ctes, name)) {
            (Read::Cte(a), Read::Cte(b)) => Arc::ptr_eq(a, b),
            (Read::Catalog(v, t), Read::Catalog(w, u)) => {
                v.as_ref().map(Arc::as_ptr) == w.as_ref().map(Arc::as_ptr)
                    && StoredTable::same_versions(t.as_ref(), u.as_ref())
            }
            _ => false,
        })
    }

    /// The relation names read.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(_, name)| name.as_str())
    }
}

/// Hook implemented by the durability subsystem (`crates/storage`).
/// The catalog invokes [`DurabilityHook::record`] at every mutation
/// commit point *after* the in-memory mutation succeeded; an attached
/// session then calls the engine's group-commit entry point once per
/// statement to log the batch and publish the resulting relations.
pub trait DurabilityHook: Send + Sync {
    /// Buffer one committed catalog mutation for the next group commit.
    fn record(&self, mutation: CatalogMutation);

    /// `CHECKPOINT`: snapshot the full database state and rotate the
    /// log. Returns a one-row status relation. `trace`, when present,
    /// receives `checkpoint` stage spans.
    fn checkpoint(&self, db: &mut Database, trace: Option<&obs::Trace>) -> Result<Table>;
}

/// Provider of *virtual tables*: relations synthesized on demand
/// rather than stored in the catalog (the `sdb_*` observability views
/// — `sdb_stat_statements`, `sdb_solver_stats`, `sdb_sessions`).
/// Ordinary tables, views and CTEs all shadow a virtual table of the
/// same name; the provider is only consulted when catalog resolution
/// misses.
pub trait VirtualTableProvider: Send + Sync {
    /// Names this provider can materialize.
    fn names(&self) -> Vec<String>;

    /// Materialize a snapshot of the named virtual table, or `None` if
    /// the name is not one of [`Self::names`].
    fn table(&self, name: &str) -> Option<Table>;
}

/// A reading of the executor's monotone work counters; the difference of
/// two readings is the work done in between. [`Database::exec_counts`]
/// reads one database's counters, whoever did the work; a [`WorkTally`]
/// that an environment carries ([`Ctes::with_tally`]) counts only the
/// work done under it (a black-box solver notes its tally's difference on
/// its `search` span, so two solves on one database each count their
/// own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    /// Query plans built by the planner (cache hits build none).
    pub plans_built: u64,
    /// Iterations of `WITH RECURSIVE` recursive terms executed.
    pub recursive_steps: u64,
    /// Hash-join build sides reused from an earlier recursive step
    /// instead of being rebuilt.
    pub builds_reused: u64,
    /// Hash-join build sides the statement kept from an earlier execution
    /// of the same plan instead of being rebuilt: sides that read only
    /// catalog tables, of a plan that runs more than once in the statement.
    pub builds_kept: u64,
    /// Recursive steps of terms whose plan has a row pipeline (a spine).
    pub spine_steps: u64,
    /// Of `spine_steps`, those that ran on it: a one-row working table
    /// evaluated on scalars rather than on batches.
    pub row_steps: u64,
    /// Of `row_steps`, those that ran on the spine's typed registers
    /// rather than on [`Value`]s.
    pub typed_steps: u64,
    /// Column chunks (one column of one scan batch) pivoted out of row
    /// storage into a table's columnar image. A scan whose columns are
    /// already in the image pivots none.
    pub columns_pivoted: u64,
    /// Executions of a subquery that returned the result its site kept
    /// from an earlier run over the same relations instead of running.
    pub subqueries_reused: u64,
    /// Rows a catalog write copied because another table version shared
    /// the chunk they are in (see [`StoredTable`]). Zero for a write to a
    /// version nobody else holds.
    pub rows_copied: u64,
}

/// One of the counters of [`ExecCounts`], by its place in
/// [`ExecCounts::fields`].
#[derive(Clone, Copy)]
pub(crate) enum Work {
    PlansBuilt,
    RecursiveSteps,
    BuildsReused,
    BuildsKept,
    SpineSteps,
    RowSteps,
    TypedSteps,
    ColumnsPivoted,
    SubqueriesReused,
    RowsCopied,
}

const WORK_KINDS: usize = 10;

/// Monotone counts of executor work, one per kind of [`ExecCounts`].
#[derive(Default)]
pub struct WorkTally([AtomicU64; WORK_KINDS]);

impl WorkTally {
    fn add(&self, work: Work, n: u64) {
        self.0[work as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// What the tally holds.
    pub fn read(&self) -> ExecCounts {
        ExecCounts::read(|i| self.0[i].load(Ordering::Relaxed))
    }
}

impl ExecCounts {
    fn fields(&mut self) -> [&mut u64; WORK_KINDS] {
        [
            &mut self.plans_built,
            &mut self.recursive_steps,
            &mut self.builds_reused,
            &mut self.builds_kept,
            &mut self.spine_steps,
            &mut self.row_steps,
            &mut self.typed_steps,
            &mut self.columns_pivoted,
            &mut self.subqueries_reused,
            &mut self.rows_copied,
        ]
    }

    fn read(count: impl Fn(usize) -> u64) -> ExecCounts {
        let mut counts = ExecCounts::default();
        for (i, field) in counts.fields().into_iter().enumerate() {
            *field = count(i);
        }
        counts
    }

    /// Work done since the `earlier` reading.
    pub fn since(&self, earlier: &ExecCounts) -> ExecCounts {
        let (mut now, mut then) = (*self, *earlier);
        for (field, before) in now.fields().into_iter().zip(then.fields()) {
            *field -= *before;
        }
        now
    }
}

/// The database: named tables, views, UDFs and the solve hook.
#[derive(Default)]
pub struct Database {
    /// Tables and views. The commit points below — `create_table`,
    /// `put_table`, `rewrite_table`, `append_rows`, `drop_table`, the view
    /// pair, [`CatalogMutation::apply`], [`Database::adopt`] — are the only
    /// code that changes an entry; unshared (every ephemeral session),
    /// `Arc::make_mut` hands out the maps as they are.
    relations: Arc<Relations>,
    udfs: FastMap<String, ScalarUdf>,
    solve_handler: Option<Arc<dyn SolveHandler>>,
    virtual_tables: Option<Arc<dyn VirtualTableProvider>>,
    durability: Option<Arc<dyn DurabilityHook>>,
    /// Monotone executor work counters, read through [`ExecCounts`].
    work: WorkTally,
    /// Cache of optimized plans — see `plan::cache`. Hit/miss counters
    /// feed `sdb_stat_statements`.
    pub(crate) plan_cache: std::sync::Mutex<crate::plan::cache::PlanCache>,
    /// Analyzer findings of the solves the current statement ran, in the
    /// order they were found; [`Database::end_statement`] hands them over.
    findings: Mutex<Vec<Diagnostic>>,
    /// Run every `SELECT` block on the reference row interpreter.
    force_row_interpreter: bool,
    /// Per-session solver wall-clock budget in milliseconds
    /// (`SET solver_timeout_ms`); `None` = unlimited.
    solver_timeout_ms: Option<u64>,
    /// This session's own live counters when it is server-hosted — the
    /// kill flag a `CANCEL` from another session sets is read from here
    /// at solve progress points.
    own_counters: Option<Arc<obs::SessionCounters>>,
    /// All live server sessions; the execution target of
    /// `CANCEL <session>`.
    session_registry: Option<Arc<obs::SessionRegistry>>,
    /// Sink for live solve-progress events (the server streams them as
    /// PROGRESS frames; the CLI renders a status line).
    progress_sink: Option<Arc<dyn Fn(&obs::ProgressEvent) + Send + Sync>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.relations.tables.keys().collect::<Vec<_>>())
            .field("views", &self.relations.views.keys().collect::<Vec<_>>())
            .field("udfs", &self.udfs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// A commit point is about to write `name`: drop the cached plans and
    /// kept subquery results that read it *first*, so that a table only
    /// they were holding is written in place.
    fn writing(&self, name: &str) {
        self.retain_reads(|reads| !reads.names().any(|n| n == name));
    }

    /// Read the executor work counters.
    pub fn exec_counts(&self) -> ExecCounts {
        self.work.read()
    }

    /// Count `n` units of `work` done under `ctes`: on this database, and
    /// on the tally `ctes` carries, if it carries one.
    pub(crate) fn count(&self, ctes: &Ctes, work: Work, n: u64) {
        self.work.add(work, n);
        if let Some(tally) = ctes.tally() {
            tally.add(work, n);
        }
    }

    /// Record a solve's analyzer findings for the statement running it.
    pub fn add_findings(&self, findings: impl IntoIterator<Item = Diagnostic>) {
        self.findings.lock().unwrap_or_else(PoisonError::into_inner).extend(findings);
    }

    /// The statement is over: drop the plans of its CTE environments and
    /// the results its subquery sites kept, and return what its result
    /// reports — the plan-cache event of its last block and the advisory
    /// (`Warning`/`Note`) findings of its solves.
    pub(crate) fn end_statement(&self) -> (Option<bool>, Vec<Diagnostic>) {
        let event = self.plan_cache.lock().ok().and_then(|mut c| c.end_statement());
        let mut findings =
            std::mem::take(&mut *self.findings.lock().unwrap_or_else(PoisonError::into_inner));
        findings.retain(|d| d.severity <= Severity::Warning);
        (event, findings)
    }

    // -- session control (solver watchdog, live progress) ------------------

    /// Run every `SELECT` block of this database's statements — on any
    /// thread — on the reference row interpreter instead of planning it:
    /// the differential tests and `reproduce executor` compare the two.
    /// Returns the previous setting.
    pub fn set_force_row_interpreter(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.force_row_interpreter, on)
    }

    pub(crate) fn force_row_interpreter(&self) -> bool {
        self.force_row_interpreter
    }

    /// Set the session's solver wall-clock budget (`None` = unlimited).
    pub fn set_solver_timeout_ms(&mut self, ms: Option<u64>) {
        self.solver_timeout_ms = ms;
    }

    pub fn solver_timeout_ms(&self) -> Option<u64> {
        self.solver_timeout_ms
    }

    /// Attach this session's own live counters (server sessions only);
    /// running solves poll the counters' kill flag.
    pub fn set_own_counters(&mut self, counters: Option<Arc<obs::SessionCounters>>) {
        self.own_counters = counters;
    }

    pub fn own_counters(&self) -> Option<&Arc<obs::SessionCounters>> {
        self.own_counters.as_ref()
    }

    /// Attach the registry of live sessions (`CANCEL`'s lookup table).
    pub fn set_session_registry(&mut self, registry: Option<Arc<obs::SessionRegistry>>) {
        self.session_registry = registry;
    }

    pub fn session_registry(&self) -> Option<&Arc<obs::SessionRegistry>> {
        self.session_registry.as_ref()
    }

    /// Install a sink for live solve-progress events.
    pub fn set_progress_sink(
        &mut self,
        sink: Option<Arc<dyn Fn(&obs::ProgressEvent) + Send + Sync>>,
    ) {
        self.progress_sink = sink;
    }

    pub fn progress_sink(&self) -> Option<&Arc<dyn Fn(&obs::ProgressEvent) + Send + Sync>> {
        self.progress_sink.as_ref()
    }

    /// Emit a committed mutation to the durability hook, if one is
    /// attached. Called *after* the in-memory mutation succeeded.
    fn emit(&self, mutation: CatalogMutation) {
        if let Some(hook) = &self.durability {
            hook.record(mutation);
        }
    }

    // -- tables ------------------------------------------------------------

    /// The relations this database reads and writes.
    pub fn relations(&self) -> &Arc<Relations> {
        &self.relations
    }

    /// Read and write `relations` from here on (a durable session moving
    /// to its engine's version); keeps the cached plans and kept subquery
    /// results whose [`ReadSet`] `relations` still holds, and only those.
    pub fn adopt(&mut self, relations: Arc<Relations>) {
        self.retain_reads(|reads| reads.still_valid(&relations, &Ctes::new()));
        self.relations = relations;
    }

    fn relations_mut(&mut self) -> &mut Relations {
        Arc::make_mut(&mut self.relations)
    }

    pub fn create_table(&mut self, name: &str, table: Table, if_not_exists: bool) -> Result<()> {
        if self.relations.has(name) {
            return match if_not_exists {
                true => Ok(()),
                false => Err(Error::catalog(format!("relation '{name}' already exists"))),
            };
        }
        let table = StoredTable::new(table);
        self.writing(name);
        self.relations_mut().tables.insert(name.to_string(), table.clone());
        self.emit(CatalogMutation::CreateTable { name: name.to_string(), table });
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.relations.tables.contains_key(name) {
            self.writing(name);
            self.relations_mut().tables.remove(name);
            self.emit(CatalogMutation::DropTable { name: name.to_string() });
        } else if self.relations.views.contains_key(name) && !if_exists {
            return Err(Error::catalog(format!("relation '{name}' is a view")));
        } else if !if_exists {
            return Err(Error::catalog(format!("table '{name}' does not exist")));
        }
        Ok(())
    }

    /// The table `name` as one contiguous [`Table`], assembled once per
    /// version ([`StoredTable::table`]): for callers outside a statement.
    pub fn table(&self, name: &str) -> Result<&TableRef> {
        self.stored_table(name).map(StoredTable::table)
    }

    /// The current version of table `name`, with its columnar image and
    /// statistics — what a scan of `name` reads. A clone of it is a
    /// reader's version: the catalog's next write leaves it as it is.
    pub fn stored_table(&self, name: &str) -> Result<&StoredTable> {
        self.relations.tables.get(name).ok_or_else(|| {
            match self.relations.views.contains_key(name) {
                true => Error::catalog(format!("relation '{name}' is a view")),
                false => Error::catalog(format!("relation '{name}' does not exist")),
            }
        })
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.relations.tables.contains_key(name)
    }

    /// Append pre-built rows to a table, coercing each value to the
    /// column's declared type — the single commit point for `INSERT`.
    /// Validation is all-or-nothing: a coercion failure leaves the
    /// table untouched (and nothing is logged).
    pub fn append_rows(&mut self, name: &str, rows: Vec<Row>) -> Result<usize> {
        let missing = || Error::catalog(format!("table '{name}' does not exist"));
        let schema = self.relations.tables.get(name).ok_or_else(missing)?.schema();
        let mut coerced = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != schema.len() {
                return Err(Error::eval(format!(
                    "row has {} values, table has {} columns",
                    row.len(),
                    schema.len()
                )));
            }
            let mut out = Vec::with_capacity(row.len());
            for (v, col) in row.into_iter().zip(&schema.columns) {
                out.push(coerce(v, &col.ty)?);
            }
            coerced.push(out);
        }
        let n = coerced.len();
        self.writing(name);
        let stored = self.relations_mut().tables.get_mut(name).ok_or_else(missing)?;
        let copied = stored.append(coerced.iter().cloned());
        self.work.add(Work::RowsCopied, copied);
        self.emit(CatalogMutation::AppendRows { name: name.to_string(), rows: coerced });
        Ok(n)
    }

    /// Replace a table's contents wholesale.
    pub fn put_table(&mut self, name: &str, table: Table) {
        let table = StoredTable::new(table);
        self.writing(name);
        self.relations_mut().tables.insert(name.to_string(), table.clone());
        self.emit(CatalogMutation::PutTable { name: name.to_string(), table });
    }

    /// Rewrite `name`'s rows through `edit` and commit the result as
    /// [`Self::put_table`] would — the commit point of DELETE and UPDATE.
    /// The table's chunks and image survive where `edit` leaves them
    /// alone: see [`StoredTable::rewrite`].
    pub(crate) fn rewrite_table(&mut self, name: &str, edit: Rewrite) -> Result<()> {
        self.writing(name);
        let stored = self
            .relations_mut()
            .tables
            .get_mut(name)
            .ok_or_else(|| Error::catalog(format!("relation '{name}' does not exist")))?;
        let copied = stored.rewrite(edit);
        let table = stored.clone();
        self.work.add(Work::RowsCopied, copied);
        self.emit(CatalogMutation::PutTable { name: name.to_string(), table });
        Ok(())
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.relations.tables.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Names of registered UDFs, sorted (recorded in snapshots for
    /// observability; the session re-registers its built-in UDFs itself).
    pub fn udf_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.udfs.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    // -- views -------------------------------------------------------------

    /// `OR REPLACE` replaces a view, never a table: a view and a table
    /// under one name would split reads (the view) from writes (the table).
    pub fn create_view(&mut self, name: &str, query: Query, or_replace: bool) -> Result<()> {
        if !or_replace && self.relations.has(name) {
            return Err(Error::catalog(format!("relation '{name}' already exists")));
        }
        if self.relations.tables.contains_key(name) {
            return Err(Error::catalog(format!("relation '{name}' is not a view")));
        }
        let sql = query.to_string();
        self.writing(name);
        self.relations_mut().views.insert(name.to_string(), Arc::new(query));
        self.emit(CatalogMutation::CreateView { name: name.to_string(), sql });
        Ok(())
    }

    pub fn drop_view(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.relations.views.contains_key(name) {
            self.writing(name);
            self.relations_mut().views.remove(name);
            self.emit(CatalogMutation::DropView { name: name.to_string() });
        } else if self.relations.tables.contains_key(name) && !if_exists {
            return Err(Error::catalog(format!("relation '{name}' is not a view")));
        } else if !if_exists {
            return Err(Error::catalog(format!("view '{name}' does not exist")));
        }
        Ok(())
    }

    pub fn view(&self, name: &str) -> Option<&Arc<Query>> {
        self.relations.views.get(name)
    }

    // -- functions -----------------------------------------------------------

    pub fn register_udf(&mut self, udf: ScalarUdf) {
        self.udfs.insert(udf.name.clone(), udf);
    }

    pub fn udf(&self, name: &str) -> Option<&ScalarUdf> {
        self.udfs.get(name)
    }

    // -- durability ----------------------------------------------------------

    /// Attach the durability hook; mutations from here on are recorded.
    pub fn set_durability_hook(&mut self, hook: Arc<dyn DurabilityHook>) {
        self.durability = Some(hook);
    }

    /// `CHECKPOINT`: force a snapshot and rotate the log through the
    /// attached durability hook.
    pub fn checkpoint(&mut self, trace: Option<&obs::Trace>) -> Result<Table> {
        let hook = self.durability.clone().ok_or_else(|| {
            Error::unsupported("CHECKPOINT requires a data directory (start with --data-dir)")
        })?;
        hook.checkpoint(self, trace)
    }

    // -- solve hook ----------------------------------------------------------

    pub fn set_solve_handler(&mut self, handler: Arc<dyn SolveHandler>) {
        self.solve_handler = Some(handler);
    }

    pub fn solve_handler(&self) -> Result<Arc<dyn SolveHandler>> {
        self.solve_handler.clone().ok_or_else(|| {
            Error::unsupported(
                "no solver infrastructure registered (SOLVESELECT requires the SolveDB+ layer)",
            )
        })
    }

    // -- virtual tables ------------------------------------------------------

    /// Install (or replace) the virtual-table provider.
    pub fn set_virtual_tables(&mut self, provider: Arc<dyn VirtualTableProvider>) {
        self.virtual_tables = Some(provider);
    }

    /// Materialize a virtual table by name, if a provider serves it.
    pub fn virtual_table(&self, name: &str) -> Option<Table> {
        self.virtual_tables.as_ref().and_then(|p| p.table(name))
    }

    /// True when `name` resolves to a virtual table: the provider serves
    /// it and no real table shadows it.
    pub(crate) fn serves_virtual(&self, name: &str) -> bool {
        !self.has_table(name)
            && self.virtual_tables.as_ref().is_some_and(|p| p.names().iter().any(|n| n == name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_drop_tables() {
        let mut db = Database::new();
        db.create_table("t", Table::new(Schema::from_names(&["a"])), false).unwrap();
        assert!(db.has_table("t"));
        assert!(db.create_table("t", Table::default(), false).is_err());
        db.create_table("t", Table::default(), true).unwrap(); // no-op
        db.drop_table("t", false).unwrap();
        assert!(db.drop_table("t", false).is_err());
        db.drop_table("t", true).unwrap();
    }

    #[test]
    fn append_rows_is_copy_on_write() {
        let mut db = Database::new();
        db.create_table("t", Table::from_rows(&["a"], vec![vec![Value::Int(1)]]), false).unwrap();
        let snapshot = db.table("t").unwrap().clone();
        db.append_rows("t", vec![vec![Value::Int(2)]]).unwrap();
        assert_eq!(snapshot.num_rows(), 1);
        assert_eq!(db.table("t").unwrap().num_rows(), 2);
    }

    #[test]
    fn cte_env_shadows_immutably() {
        let ctes = Ctes::new();
        let with_x = ctes.with("x", Arc::new(Table::default()));
        assert!(ctes.get("x").is_none());
        assert!(with_x.get("x").is_some());
    }

    #[test]
    fn missing_solve_handler_errors() {
        let db = Database::new();
        assert!(db.solve_handler().is_err());
    }
}
