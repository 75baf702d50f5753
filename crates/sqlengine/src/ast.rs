//! Abstract syntax tree for the SolveDB+ SQL dialect, plus a
//! pretty-printer whose output re-parses to the same tree (used by the
//! model UDT's textual form and by property tests).

use crate::types::{BinOp, DataType, UnOp};
use std::fmt;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Literal values as written in SQL source.
#[derive(Debug, Clone)]
pub enum Literal {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// `b'0101'`
    BitStr(String),
    /// `interval '1 hour'`
    Interval(String),
    /// `timestamp '2017-07-02 07:00'`
    Timestamp(String),
}

/// A float literal is compared and hashed by its bits: `0.0` and `-0.0`
/// are two literals, as they are two texts (a plan folds either).
impl PartialEq for Literal {
    fn eq(&self, other: &Literal) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for Literal {}

impl std::hash::Hash for Literal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bits().hash(state)
    }
}

impl Literal {
    /// What `Eq` and `Hash` see: the variant, its number (a float's
    /// bits) and its text.
    fn bits(&self) -> (std::mem::Discriminant<Literal>, u64, &str) {
        let (n, text) = match self {
            Literal::Null => (0, ""),
            Literal::Bool(b) => (*b as u64, ""),
            Literal::Int(i) => (*i as u64, ""),
            Literal::Float(x) => (x.to_bits(), ""),
            Literal::Str(s) | Literal::BitStr(s) | Literal::Interval(s) | Literal::Timestamp(s) => {
                (0, s.as_str())
            }
        };
        (std::mem::discriminant(self), n, text)
    }
}

/// Argument to a function call; SolveDB+ supports named notation
/// (`arima_rmse(ar := 2, ...)`) used throughout the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncArg {
    pub name: Option<String>,
    pub value: Expr,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    Literal(Literal),
    /// `t.col` or `col`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// `*` or `t.*` — only valid in projections and `count(*)`.
    Wildcard {
        qualifier: Option<String>,
    },
    BinOp {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    UnOp {
        op: UnOp,
        expr: Box<Expr>,
    },
    /// Comparison chain `a <= b <= c` (SolveDB+ constraint syntax §4.1).
    Chain {
        first: Box<Expr>,
        rest: Vec<(BinOp, Expr)>,
    },
    Func {
        name: String,
        args: Vec<FuncArg>,
        distinct: bool,
    },
    Cast {
        expr: Box<Expr>,
        ty: DataType,
    },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_: Option<Box<Expr>>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    Exists {
        query: Box<Query>,
        negated: bool,
    },
    ScalarSubquery(Box<Query>),
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
        case_insensitive: bool,
    },
    /// `SOLVEMODEL ...` used as a value expression (produces a model UDT).
    SolveModel(Box<SolveStmt>),
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column { qualifier: None, name: name.to_string() }
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Walk the expression tree, visiting every node (pre-order). The
    /// query of a subquery and a `SOLVEMODEL` value are not expression
    /// nodes: [`Node::walk`] reaches those.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.walk_with(f, &mut |_| {});
    }

    /// [`Self::walk`], handing `nested` the query or solve a node holds.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn walk_with<'a>(&'a self, f: &mut impl FnMut(&'a Expr), nested: &mut impl FnMut(Node<'a>)) {
        f(self);
        match self {
            Expr::BinOp { lhs, rhs, .. } => {
                lhs.walk_with(f, nested);
                rhs.walk_with(f, nested);
            }
            Expr::UnOp { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                expr.walk_with(f, nested)
            }
            Expr::Chain { first, rest } => {
                first.walk_with(f, nested);
                rest.iter().for_each(|(_, e)| e.walk_with(f, nested));
            }
            Expr::Func { args, .. } => args.iter().for_each(|a| a.value.walk_with(f, nested)),
            Expr::Case { operand, branches, else_ } => {
                operand.iter().for_each(|o| o.walk_with(f, nested));
                for (c, r) in branches {
                    c.walk_with(f, nested);
                    r.walk_with(f, nested);
                }
                else_.iter().for_each(|e| e.walk_with(f, nested));
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_with(f, nested);
                list.iter().for_each(|e| e.walk_with(f, nested));
            }
            Expr::InSubquery { expr, query, .. } => {
                nested(Node::Query(query));
                expr.walk_with(f, nested);
            }
            Expr::Exists { query, .. } | Expr::ScalarSubquery(query) => nested(Node::Query(query)),
            Expr::SolveModel(s) => nested(Node::Solve(s)),
            Expr::Between { expr, low, high, .. } => {
                expr.walk_with(f, nested);
                low.walk_with(f, nested);
                high.walk_with(f, nested);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk_with(f, nested);
                pattern.walk_with(f, nested);
            }
            Expr::Literal(_) | Expr::Column { .. } | Expr::Wildcard { .. } => {}
        }
    }

    /// This node with every child [`Self::walk`] visits replaced by
    /// `f(child)`; the query of a subquery and a `SOLVEMODEL` value are
    /// kept as they are.
    pub(crate) fn map_children(&self, mut f: impl FnMut(&Expr) -> Expr) -> Expr {
        let mut out = self.clone();
        for c in out.children_mut() {
            *c = f(c);
        }
        out
    }

    /// The children [`Self::walk`] visits, mutably.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn children_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Expr::UnOp { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => vec![expr],
            Expr::BinOp { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Like { expr, pattern, .. } => vec![expr, pattern],
            Expr::Between { expr, low, high, .. } => vec![expr, low, high],
            Expr::Chain { first, rest } => {
                std::iter::once(&mut **first).chain(rest.iter_mut().map(|(_, e)| e)).collect()
            }
            Expr::Func { args, .. } => args.iter_mut().map(|a| &mut a.value).collect(),
            Expr::InList { expr, list, .. } => std::iter::once(&mut **expr).chain(list).collect(),
            Expr::Case { operand, branches, else_ } => operand
                .as_deref_mut()
                .into_iter()
                .chain(branches.iter_mut().flat_map(|(c, r)| [c, r]))
                .chain(else_.as_deref_mut())
                .collect(),
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Wildcard { .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_)
            | Expr::SolveModel(_) => vec![],
        }
    }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub with: Vec<Cte>,
    pub recursive: bool,
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

impl Query {
    /// A bare SELECT wrapped into a full query.
    pub fn simple(select: Select) -> Query {
        Query {
            with: vec![],
            recursive: false,
            body: SetExpr::Select(Box::new(select)),
            order_by: vec![],
            limit: None,
            offset: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cte {
    pub name: String,
    pub columns: Vec<String>,
    pub query: Query,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SetExpr {
    Select(Box<Select>),
    /// A `SOLVESELECT` used as a query body — the output relation is a
    /// relation like any other, so solving composes with INSERT/CTAS/
    /// FROM subqueries.
    Solve(Box<SolveStmt>),
    /// A parenthesised query (needed so ORDER BY/LIMIT bind correctly).
    Query(Box<Query>),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
    Values(Vec<Vec<Expr>>),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelectItem {
    Expr { expr: Expr, alias: Option<String> },
    Wildcard { qualifier: Option<String> },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_: Option<Expr>,
    pub group_by: Vec<Expr>,
    /// Grouping sets as index lists into `group_by`. `None` = plain
    /// `GROUP BY` (one implicit set using every key). `ROLLUP`/`CUBE`
    /// are expanded to their sets at parse time, so downstream layers
    /// only ever see `GROUPING SETS` form.
    pub grouping_sets: Option<Vec<Vec<usize>>>,
    pub having: Option<Expr>,
}

impl Select {
    pub fn empty() -> Select {
        Select {
            distinct: false,
            projection: vec![],
            from: vec![],
            where_: None,
            group_by: vec![],
            grouping_sets: None,
            having: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableAlias {
    pub name: String,
    pub columns: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinConstraint {
    On(Expr),
    Using(Vec<String>),
    None,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TableRef {
    Named { name: String, alias: Option<TableAlias> },
    Subquery { query: Box<Query>, lateral: bool, alias: Option<TableAlias> },
    Join { left: Box<TableRef>, right: Box<TableRef>, kind: JoinKind, constraint: JoinConstraint },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
    /// `NULLS FIRST`/`NULLS LAST`; `None` = dialect default (last for ASC).
    pub nulls_first: Option<bool>,
}

// ---------------------------------------------------------------------------
// SOLVESELECT / SOLVEMODEL (paper §4.1)
// ---------------------------------------------------------------------------

/// Decision-column specification attached to a relation alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DecCols {
    /// No decision columns (plain CTE semantics).
    None,
    /// `alias(*)` — all columns are decision columns (§4.2).
    Star,
    /// `alias(c1, c2, ...)`.
    List(Vec<String>),
}

impl DecCols {
    pub fn is_none(&self) -> bool {
        matches!(self, DecCols::None)
    }
}

/// A relation D_i of the problem model: alias, decision columns and the
/// defining query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecRel {
    pub alias: Option<String>,
    pub dec_cols: DecCols,
    pub query: Query,
}

/// `INLINE alias AS (select)` — embeds a shared model (Algorithm 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InlineSpec {
    pub alias: Option<String>,
    pub query: Query,
}

/// A rule relation R_i (`SUBJECTTO` member).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamedRule {
    pub alias: Option<String>,
    pub query: Query,
}

/// `USING solver[.method](name := expr, ...)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolverCall {
    pub solver: String,
    pub method: Option<String>,
    pub params: Vec<(Option<String>, Expr)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKind {
    /// `SOLVESELECT` — solve and return the output relation.
    Select,
    /// `SOLVEMODEL` — package the problem spec as a model value.
    Model,
}

/// The full `SOLVESELECT`/`SOLVEMODEL` problem specification: the 4-tuple
/// (D, R, s, m) of §4.1 in AST form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolveStmt {
    pub kind: SolveKind,
    /// D₁, the input relation.
    pub input: DecRel,
    pub inlines: Vec<InlineSpec>,
    /// D₂..D_N — the CDTEs (§4.3).
    pub ctes: Vec<DecRel>,
    pub minimize: Option<Query>,
    pub maximize: Option<Query>,
    pub subjectto: Vec<NamedRule>,
    pub using: Option<SolverCall>,
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
}

/// Variant of an `EXPLAIN` over a solve statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// `EXPLAIN`: describe the compiled problem without solving.
    Plan,
    /// `EXPLAIN CHECK`: run the pre-solve static analyzer only.
    Check,
    /// `EXPLAIN ANALYZE`: execute the solve and report the stage tree
    /// with wall-clock timings and solver telemetry.
    Analyze,
    /// `EXPLAIN PRESOLVE`: run interval propagation over the compiled
    /// model and render the reduction log (fixed variables, tightened
    /// bounds, removed rows) without solving.
    Presolve,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Query),
    Solve(SolveStmt),
    /// `EXPLAIN [CHECK | ANALYZE] SOLVESELECT ...` — describe the
    /// compiled problem ([`ExplainMode::Plan`]), run the pre-solve
    /// static analyzer and return its diagnostics as a relation
    /// ([`ExplainMode::Check`]) without solving, or execute the solve
    /// and return the timed stage tree ([`ExplainMode::Analyze`]).
    Explain {
        mode: ExplainMode,
        stmt: Box<SolveStmt>,
    },
    /// `EXPLAIN [ANALYZE] SELECT ...` — render the optimized logical
    /// plan with cost/row estimates; with `analyze` the query is also
    /// executed and per-operator timings and row/batch counts are
    /// reported from the `obs` stage tree.
    ExplainQuery {
        analyze: bool,
        query: Box<Query>,
    },
    /// `EXPLAIN SCRIPT '<path or sql>'` — run the whole-script static
    /// analyzer (`scriptcheck`, SD013–SD018) over a script given as a
    /// file path or inline SQL text, and return the dataflow summary
    /// plus diagnostics as a relation.
    ExplainScript {
        source: String,
    },
    /// `MODELEVAL (select) IN (select)` (§4.4).
    ModelEval {
        select: Query,
        model: Query,
    },
    Insert {
        table: String,
        columns: Vec<String>,
        source: Query,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        where_: Option<Expr>,
    },
    Delete {
        table: String,
        where_: Option<Expr>,
    },
    CreateTable {
        name: String,
        if_not_exists: bool,
        columns: Vec<ColumnDef>,
        as_query: Option<Query>,
    },
    CreateView {
        name: String,
        or_replace: bool,
        query: Query,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    DropView {
        name: String,
        if_exists: bool,
    },
    /// `CHECKPOINT` — force a durability snapshot and rotate the
    /// write-ahead log (errors without an attached data directory).
    Checkpoint,
    /// `SET <name> = <value>` — set a session variable (currently
    /// `solver_timeout_ms`; the value is kept as raw text and parsed
    /// by the executor).
    Set {
        name: String,
        value: String,
    },
    /// `CANCEL <session_id>` — request that the target session's
    /// running solve stop at its next progress point (the solver
    /// watchdog's kill switch).
    Cancel {
        session: u64,
    },
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

/// What [`Node::walk`] reaches.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// A statement's query, a WITH member, a parenthesised arm, a FROM or
    /// expression subquery, or a member of a solve.
    Query(&'a Query),
    /// A `SOLVESELECT` body or statement, or a `SOLVEMODEL` value.
    Solve(&'a SolveStmt),
    /// A relation named in a FROM clause. `bound` when a name in scope at
    /// that point binds it: a WITH member seen by the clause (a plain
    /// member sees the members before it, a `WITH RECURSIVE` member all of
    /// them), or an alias of an enclosing solve (input, CDTE, INLINE),
    /// which is bound across the whole solve. Binding too much can only
    /// hide a read, never invent one.
    Relation { name: &'a str, bound: bool },
    /// An expression a clause holds; its nodes are [`Expr::walk`]'s.
    Expr(&'a Expr),
}

impl<'a> Node<'a> {
    /// Visit this node and everything under it, pre-order, in every
    /// clause: every nested query, every solve with its input, INLINEs,
    /// CDTEs, objective, rules and `USING` parameters, every relation
    /// reference and every expression. `f` returns whether to enter the
    /// node it is given (a relation has nothing to enter). This is the one
    /// place that knows which children the statement trees have.
    pub fn walk(self, f: impl FnMut(Node<'a>) -> bool) {
        Walker { f, bound: Vec::new() }.node(self);
    }
}

impl Statement {
    /// The queries the statement carries: its body, an INSERT source, a
    /// CTAS or view definition, an explained query, MODELEVAL's two.
    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.roots().into_iter().filter_map(|n| if let Node::Query(q) = n { Some(q) } else { None })
    }

    /// [`Node::walk`] over everything the statement carries.
    pub fn walk<'a>(&'a self, f: impl FnMut(Node<'a>) -> bool) {
        let mut w = Walker { f, bound: Vec::new() };
        for root in self.roots() {
            w.node(root);
        }
    }

    /// What the statement carries: its [`queries`](Self::queries), its
    /// solve, the expressions of an UPDATE or DELETE.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn roots(&self) -> Vec<Node<'_>> {
        match self {
            Statement::Query(q)
            | Statement::Insert { source: q, .. }
            | Statement::CreateView { query: q, .. } => vec![Node::Query(q)],
            Statement::ExplainQuery { query, .. } => vec![Node::Query(query)],
            Statement::CreateTable { as_query, .. } => as_query.iter().map(Node::Query).collect(),
            Statement::ModelEval { select, model } => vec![Node::Query(select), Node::Query(model)],
            Statement::Solve(s) => vec![Node::Solve(s)],
            Statement::Explain { stmt, .. } => vec![Node::Solve(stmt)],
            Statement::Update { assignments, where_, .. } => {
                assignments.iter().map(|(_, e)| e).chain(where_).map(Node::Expr).collect()
            }
            Statement::Delete { where_, .. } => where_.iter().map(Node::Expr).collect(),
            Statement::ExplainScript { .. }
            | Statement::DropTable { .. }
            | Statement::DropView { .. }
            | Statement::Checkpoint
            | Statement::Set { .. }
            | Statement::Cancel { .. } => vec![],
        }
    }
}

/// The state of one walk: the visitor and the names bound at the current
/// point, innermost last (a stack, so entering a query allocates nothing).
struct Walker<'a, F> {
    f: F,
    bound: Vec<&'a str>,
}

#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
impl<'a, F: FnMut(Node<'a>) -> bool> Walker<'a, F> {
    fn node(&mut self, n: Node<'a>) {
        match n {
            Node::Query(q) => self.query(q),
            Node::Solve(s) => self.solve(s),
            Node::Expr(e) => self.expr(e),
            Node::Relation { .. } => {
                (self.f)(n);
            }
        }
    }

    fn query(&mut self, q: &'a Query) {
        if !(self.f)(Node::Query(q)) {
            return;
        }
        let Query { with, recursive, body, order_by, limit, offset } = q;
        let mark = self.bound.len();
        if *recursive {
            self.bound.extend(with.iter().map(|c| c.name.as_str()));
        }
        for cte in with {
            self.query(&cte.query);
            self.bound.push(&cte.name);
        }
        self.set_expr(body);
        for e in order_by.iter().map(|o| &o.expr).chain(limit).chain(offset) {
            self.expr(e);
        }
        self.bound.truncate(mark);
    }

    fn set_expr(&mut self, body: &'a SetExpr) {
        match body {
            SetExpr::Select(s) => self.select(s),
            SetExpr::Solve(s) => self.solve(s),
            SetExpr::Query(q) => self.query(q),
            SetExpr::SetOp { left, right, .. } => {
                self.set_expr(left);
                self.set_expr(right);
            }
            SetExpr::Values(rows) => rows.iter().flatten().for_each(|e| self.expr(e)),
        }
    }

    fn select(&mut self, s: &'a Select) {
        let Select { distinct: _, projection, from, where_, group_by, grouping_sets: _, having } =
            s;
        for item in projection {
            match item {
                SelectItem::Expr { expr, .. } => self.expr(expr),
                SelectItem::Wildcard { .. } => {}
            }
        }
        for t in from {
            self.table_ref(t);
        }
        for e in where_.iter().chain(group_by).chain(having) {
            self.expr(e);
        }
    }

    fn table_ref(&mut self, t: &'a TableRef) {
        match t {
            TableRef::Named { name, .. } => {
                let bound = self.bound.contains(&name.as_str());
                (self.f)(Node::Relation { name, bound });
            }
            TableRef::Subquery { query, .. } => self.query(query),
            TableRef::Join { left, right, constraint, .. } => {
                self.table_ref(left);
                self.table_ref(right);
                match constraint {
                    JoinConstraint::On(e) => self.expr(e),
                    JoinConstraint::Using(_) | JoinConstraint::None => {}
                }
            }
        }
    }

    fn solve(&mut self, s: &'a SolveStmt) {
        if !(self.f)(Node::Solve(s)) {
            return;
        }
        let SolveStmt { kind: _, input, inlines, ctes, minimize, maximize, subjectto, using } = s;
        let mark = self.bound.len();
        let aliases = std::iter::once(&input.alias)
            .chain(ctes.iter().map(|c| &c.alias))
            .chain(inlines.iter().map(|i| &i.alias));
        self.bound.extend(aliases.flatten().map(String::as_str));
        let members = std::iter::once(&input.query)
            .chain(inlines.iter().map(|i| &i.query))
            .chain(ctes.iter().map(|c| &c.query))
            .chain(minimize)
            .chain(maximize)
            .chain(subjectto.iter().map(|r| &r.query));
        for q in members {
            self.query(q);
        }
        for (_, e) in using.iter().flat_map(|u| &u.params) {
            self.expr(e);
        }
        self.bound.truncate(mark);
    }

    fn expr(&mut self, e: &'a Expr) {
        if (self.f)(Node::Expr(e)) {
            e.walk_with(&mut |_| {}, &mut |n| self.node(n));
        }
    }
}

// ---------------------------------------------------------------------------
// Pretty printer
// ---------------------------------------------------------------------------

fn quote_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Identifiers are emitted bare when they are plain lower-case names,
/// quoted otherwise.
fn ident(s: &str) -> String {
    let plain = !s.is_empty()
        && s.chars().next().map(|c| c.is_ascii_lowercase() || c == '_').unwrap_or(false)
        && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if plain {
        s.to_string()
    } else {
        format!("\"{}\"", s.replace('"', "\"\""))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => f.write_str("NULL"),
            Literal::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Literal::Str(s) => f.write_str(&quote_str(s)),
            Literal::BitStr(s) => write!(f, "b'{s}'"),
            Literal::Interval(s) => write!(f, "interval {}", quote_str(s)),
            Literal::Timestamp(s) => write!(f, "timestamp {}", quote_str(s)),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_inner(f)
    }
}

impl Expr {
    fn fmt_inner(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{}.{}", ident(q), ident(name)),
                None => f.write_str(&ident(name)),
            },
            Expr::Wildcard { qualifier } => match qualifier {
                Some(q) => write!(f, "{}.*", ident(q)),
                None => f.write_str("*"),
            },
            Expr::BinOp { op, lhs, rhs } => {
                write!(f, "({lhs} {} {rhs})", op.symbol())
            }
            Expr::UnOp { op, expr } => match op {
                UnOp::Not => write!(f, "(NOT {expr})"),
                _ => write!(f, "({}{expr})", op.symbol()),
            },
            Expr::Chain { first, rest } => {
                write!(f, "({first}")?;
                for (op, e) in rest {
                    write!(f, " {} {e}", op.symbol())?;
                }
                f.write_str(")")
            }
            Expr::Func { name, args, distinct } => {
                write!(f, "{}(", ident(name))?;
                if *distinct {
                    f.write_str("DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    if let Some(n) = &a.name {
                        write!(f, "{} := ", ident(n))?;
                    }
                    write!(f, "{}", a.value)?;
                }
                f.write_str(")")
            }
            Expr::Cast { expr, ty } => write!(f, "({expr})::{}", ty.sql_name()),
            Expr::Case { operand, branches, else_ } => {
                f.write_str("CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_ {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Expr::InSubquery { expr, query, negated } => {
                write!(f, "({expr} {}IN ({query}))", if *negated { "NOT " } else { "" })
            }
            Expr::Exists { query, negated } => {
                write!(f, "({}EXISTS ({query}))", if *negated { "NOT " } else { "" })
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
            Expr::Between { expr, low, high, negated } => {
                write!(f, "({expr} {}BETWEEN {low} AND {high})", if *negated { "NOT " } else { "" })
            }
            Expr::Like { expr, pattern, negated, case_insensitive } => write!(
                f,
                "({expr} {}{} {pattern})",
                if *negated { "NOT " } else { "" },
                if *case_insensitive { "ILIKE" } else { "LIKE" }
            ),
            Expr::SolveModel(s) => write!(f, "({s})"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.with.is_empty() {
            f.write_str("WITH ")?;
            if self.recursive {
                f.write_str("RECURSIVE ")?;
            }
            for (i, cte) in self.with.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                f.write_str(&ident(&cte.name))?;
                if !cte.columns.is_empty() {
                    write!(
                        f,
                        "({})",
                        cte.columns.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", ")
                    )?;
                }
                write!(f, " AS ({})", cte.query)?;
            }
            f.write_str(" ")?;
        }
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    f.write_str(" DESC")?;
                }
                match o.nulls_first {
                    Some(true) => f.write_str(" NULLS FIRST")?,
                    Some(false) => f.write_str(" NULLS LAST")?,
                    None => {}
                }
            }
        }
        if let Some(l) = &self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = &self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::Solve(s) => write!(f, "{s}"),
            SetExpr::Query(q) => write!(f, "({q})"),
            SetExpr::SetOp { op, all, left, right } => {
                let opname = match op {
                    SetOp::Union => "UNION",
                    SetOp::Intersect => "INTERSECT",
                    SetOp::Except => "EXCEPT",
                };
                write!(f, "{left} {opname}{} {right}", if *all { " ALL" } else { "" })
            }
            SetExpr::Values(rows) => {
                f.write_str("VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(
                        f,
                        "({})",
                        row.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match item {
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " AS {}", ident(a))?;
                    }
                }
                SelectItem::Wildcard { qualifier } => match qualifier {
                    Some(q) => write!(f, "{}.*", ident(q))?,
                    None => f.write_str("*")?,
                },
            }
        }
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.where_ {
            write!(f, " WHERE {w}")?;
        }
        if let Some(sets) = &self.grouping_sets {
            // Canonical form: ROLLUP/CUBE were expanded at parse time,
            // so always render as GROUPING SETS (round-trips exactly).
            let rendered: Vec<String> = sets
                .iter()
                .map(|set| {
                    format!(
                        "({})",
                        set.iter()
                            .map(|&i| self.group_by[i].to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
                .collect();
            write!(f, " GROUP BY GROUPING SETS ({})", rendered.join(", "))?;
        } else if !self.group_by.is_empty() {
            write!(
                f,
                " GROUP BY {}",
                self.group_by.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(", ")
            )?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let alias_fmt = |alias: &Option<TableAlias>| -> String {
            match alias {
                None => String::new(),
                Some(a) => {
                    let mut s = format!(" AS {}", ident(&a.name));
                    if !a.columns.is_empty() {
                        s.push_str(&format!(
                            "({})",
                            a.columns.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", ")
                        ));
                    }
                    s
                }
            }
        };
        match self {
            TableRef::Named { name, alias } => {
                write!(f, "{}{}", ident(name), alias_fmt(alias))
            }
            TableRef::Subquery { query, lateral, alias } => {
                write!(f, "{}({query}){}", if *lateral { "LATERAL " } else { "" }, alias_fmt(alias))
            }
            TableRef::Join { left, right, kind, constraint } => {
                let kw = match kind {
                    JoinKind::Inner => "JOIN",
                    JoinKind::Left => "LEFT JOIN",
                    JoinKind::Right => "RIGHT JOIN",
                    JoinKind::Full => "FULL JOIN",
                    JoinKind::Cross => "CROSS JOIN",
                };
                write!(f, "{left} {kw} {right}")?;
                match constraint {
                    JoinConstraint::On(e) => write!(f, " ON {e}"),
                    JoinConstraint::Using(cols) => write!(
                        f,
                        " USING ({})",
                        cols.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", ")
                    ),
                    JoinConstraint::None => Ok(()),
                }
            }
        }
    }
}

impl fmt::Display for SolveStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.kind {
            SolveKind::Select => "SOLVESELECT ",
            SolveKind::Model => "SOLVEMODEL ",
        })?;
        fmt_dec_rel(f, &self.input)?;
        for inl in &self.inlines {
            f.write_str(" INLINE ")?;
            if let Some(a) = &inl.alias {
                write!(f, "{} AS ", ident(a))?;
            }
            write!(f, "({})", inl.query)?;
        }
        if !self.ctes.is_empty() {
            f.write_str(" WITH ")?;
            for (i, c) in self.ctes.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_dec_rel(f, c)?;
            }
        }
        if let Some(m) = &self.minimize {
            write!(f, " MINIMIZE ({m})")?;
        }
        if let Some(m) = &self.maximize {
            write!(f, " MAXIMIZE ({m})")?;
        }
        if !self.subjectto.is_empty() {
            f.write_str(" SUBJECTTO ")?;
            for (i, r) in self.subjectto.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                if let Some(a) = &r.alias {
                    write!(f, "{} AS ", ident(a))?;
                }
                write!(f, "({})", r.query)?;
            }
        }
        if let Some(u) = &self.using {
            write!(f, " USING {}", ident(&u.solver))?;
            if let Some(m) = &u.method {
                write!(f, ".{}", ident(m))?;
            }
            f.write_str("(")?;
            for (i, (name, expr)) in u.params.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                if let Some(n) = name {
                    write!(f, "{} := ", ident(n))?;
                }
                write!(f, "{expr}")?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

fn fmt_dec_rel(f: &mut fmt::Formatter<'_>, d: &DecRel) -> fmt::Result {
    if let Some(a) = &d.alias {
        f.write_str(&ident(a))?;
        match &d.dec_cols {
            DecCols::None => {}
            DecCols::Star => f.write_str("(*)")?,
            DecCols::List(cols) => {
                write!(f, "({})", cols.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", "))?
            }
        }
        f.write_str(" AS ")?;
    }
    write!(f, "({})", d.query)
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Solve(s) => write!(f, "{s}"),
            Statement::Explain { mode, stmt } => {
                let kw = match mode {
                    ExplainMode::Plan => "",
                    ExplainMode::Check => "CHECK ",
                    ExplainMode::Analyze => "ANALYZE ",
                    ExplainMode::Presolve => "PRESOLVE ",
                };
                write!(f, "EXPLAIN {kw}{stmt}")
            }
            Statement::ExplainQuery { analyze, query } => {
                write!(f, "EXPLAIN {}{query}", if *analyze { "ANALYZE " } else { "" })
            }
            Statement::ExplainScript { source } => {
                write!(f, "EXPLAIN SCRIPT {}", quote_str(source))
            }
            Statement::ModelEval { select, model } => {
                write!(f, "MODELEVAL ({select}) IN ({model})")
            }
            Statement::Insert { table, columns, source } => {
                write!(f, "INSERT INTO {}", ident(table))?;
                if !columns.is_empty() {
                    write!(
                        f,
                        " ({})",
                        columns.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", ")
                    )?;
                }
                write!(f, " {source}")
            }
            Statement::Update { table, assignments, where_ } => {
                write!(f, "UPDATE {} SET ", ident(table))?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{} = {e}", ident(c))?;
                }
                if let Some(w) = where_ {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Delete { table, where_ } => {
                write!(f, "DELETE FROM {}", ident(table))?;
                if let Some(w) = where_ {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateTable { name, if_not_exists, columns, as_query } => {
                write!(f, "CREATE TABLE ")?;
                if *if_not_exists {
                    f.write_str("IF NOT EXISTS ")?;
                }
                f.write_str(&ident(name))?;
                if let Some(q) = as_query {
                    write!(f, " AS {q}")
                } else {
                    write!(
                        f,
                        " ({})",
                        columns
                            .iter()
                            .map(|c| format!("{} {}", ident(&c.name), c.ty.sql_name()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
            Statement::CreateView { name, or_replace, query } => {
                write!(
                    f,
                    "CREATE {}VIEW {} AS {query}",
                    if *or_replace { "OR REPLACE " } else { "" },
                    ident(name)
                )
            }
            Statement::DropTable { name, if_exists } => write!(
                f,
                "DROP TABLE {}{}",
                if *if_exists { "IF EXISTS " } else { "" },
                ident(name)
            ),
            Statement::DropView { name, if_exists } => {
                write!(f, "DROP VIEW {}{}", if *if_exists { "IF EXISTS " } else { "" }, ident(name))
            }
            Statement::Checkpoint => write!(f, "CHECKPOINT"),
            Statement::Set { name, value } => write!(f, "SET {} = {value}", ident(name)),
            Statement::Cancel { session } => write!(f, "CANCEL {session}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display() {
        let e = Expr::BinOp {
            op: BinOp::Add,
            lhs: Box::new(Expr::col("a")),
            rhs: Box::new(Expr::int(1)),
        };
        assert_eq!(e.to_string(), "(a + 1)");
    }

    #[test]
    fn chain_display() {
        let e = Expr::Chain {
            first: Box::new(Expr::int(0)),
            rest: vec![(BinOp::Le, Expr::col("ar")), (BinOp::Le, Expr::int(5))],
        };
        assert_eq!(e.to_string(), "(0 <= ar <= 5)");
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::BinOp {
            op: BinOp::Mul,
            lhs: Box::new(Expr::col("x")),
            rhs: Box::new(Expr::BinOp {
                op: BinOp::Add,
                lhs: Box::new(Expr::col("y")),
                rhs: Box::new(Expr::int(2)),
            }),
        };
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 5);
    }

    /// Every clause kind, each carrying one reference to `hit` and one
    /// solve: the walk reaches both exactly once.
    #[test]
    fn the_walk_reaches_every_clause_once() {
        const SOLVE: &str = "SOLVESELECT s(x) AS (SELECT 1 AS x) USING solverlp()";
        let both = format!("SELECT count(*) FROM hit, ({SOLVE}) z");
        let value = format!("({both})");
        let solve_with = |clause: &str| format!("SOLVESELECT s(x) AS (SELECT 1 AS x) {clause}");
        let statements = [
            format!("SELECT {value}"),
            both.clone(),
            format!("SELECT * FROM ({both}) q"),
            format!("SELECT * FROM one, LATERAL ({both}) q"),
            format!("SELECT * FROM one a JOIN one b ON {value} > 0"),
            format!("SELECT 1 FROM one WHERE {value} > 0"),
            format!("SELECT 1 FROM one WHERE EXISTS ({both})"),
            format!("SELECT 1 FROM one WHERE 1 IN ({both})"),
            format!("SELECT 1 FROM one GROUP BY {value}"),
            format!("SELECT 1 FROM one HAVING {value} > 0"),
            format!("SELECT 1 FROM one ORDER BY {value}"),
            format!("SELECT 1 FROM one LIMIT {value}"),
            format!("SELECT 1 FROM one OFFSET {value}"),
            format!("WITH w AS ({both}) SELECT * FROM w"),
            format!("WITH RECURSIVE w AS ({both}) SELECT * FROM w"),
            format!("SELECT 1 UNION ({both})"),
            format!("VALUES ({value})"),
            "SELECT (SOLVEMODEL s(x) AS (SELECT * FROM hit) USING solverlp())".to_string(),
            "SOLVESELECT s(x) AS (SELECT * FROM hit) USING solverlp()".to_string(),
            solve_with("INLINE m AS (SELECT * FROM hit) USING solverlp()"),
            solve_with("WITH c AS (SELECT * FROM hit) USING solverlp()"),
            solve_with("MINIMIZE (SELECT count(*) FROM hit) USING solverlp()"),
            solve_with("MAXIMIZE (SELECT count(*) FROM hit) USING solverlp()"),
            solve_with("SUBJECTTO (SELECT x >= 0 FROM hit) USING solverlp()"),
            solve_with("USING solverlp(p := (SELECT count(*) FROM hit))"),
            format!("INSERT INTO out {both}"),
            format!("CREATE TABLE out AS {both}"),
            format!("CREATE VIEW out AS {both}"),
            format!("UPDATE out SET x = {value}"),
            format!("UPDATE out SET x = 1 WHERE x < {value}"),
            format!("DELETE FROM out WHERE x < {value}"),
            format!("MODELEVAL ({both}) IN (SELECT m FROM models)"),
            "EXPLAIN SOLVESELECT s(x) AS (SELECT * FROM hit) USING solverlp()".to_string(),
            format!("EXPLAIN {both}"),
        ];
        for sql in &statements {
            let stmt = crate::parser::parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let (mut hits, mut solves) = (0, 0);
            stmt.walk(|n| {
                match n {
                    Node::Relation { name: "hit", bound } => {
                        assert!(!bound, "{sql}");
                        hits += 1;
                    }
                    Node::Solve(_) => solves += 1,
                    Node::Relation { .. } | Node::Query(_) | Node::Expr(_) => {}
                }
                true
            });
            assert_eq!((hits, solves), (1, 1), "{sql}");
        }
    }

    /// The names the walk reports unbound.
    fn unbound(sql: &str) -> Vec<String> {
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let mut names = Vec::new();
        stmt.walk(|n| {
            if let Node::Relation { name, bound: false } = n {
                names.push(name.to_string());
            }
            true
        });
        names.sort_unstable();
        names
    }

    #[test]
    fn bound_names_are_hidden_where_they_are_in_scope() {
        // The binding the script analyzer's read sets are built on.
        assert_eq!(
            unbound("WITH c AS (SELECT * FROM t) SELECT * FROM c JOIN u ON c.x = u.x"),
            ["t", "u"]
        );
        let solve = "SOLVESELECT t(x) AS (SELECT * FROM input) \
                     WITH u(y) AS (SELECT * FROM aux) \
                     MINIMIZE (SELECT sum(x) FROM t) \
                     SUBJECTTO (SELECT x >= y FROM t, u) \
                     USING solverlp()";
        assert_eq!(unbound(solve), ["aux", "input"]);
        // A plain member sees the members before it; a recursive one all.
        assert_eq!(unbound("WITH a AS (SELECT * FROM b), b AS (SELECT * FROM a) SELECT 1"), ["b"]);
        let recursive = "WITH RECURSIVE a AS (SELECT * FROM b), b AS (SELECT * FROM a) SELECT 1";
        assert!(unbound(recursive).is_empty());
        // A binding ends with its query.
        assert_eq!(unbound("SELECT * FROM (WITH w AS (SELECT 1) SELECT * FROM w) q, w"), ["w"]);
        assert_eq!(unbound(&format!("SELECT * FROM ({solve}) z, t")), ["aux", "input", "t"]);
    }

    #[test]
    fn a_walk_enters_only_what_the_visitor_accepts() {
        let stmt = crate::parser::parse_statement(
            "SELECT (SOLVEMODEL s(x) AS (SELECT * FROM inside) USING solverlp()) FROM outside",
        )
        .unwrap();
        let mut seen = Vec::new();
        stmt.walk(|n| match n {
            Node::Relation { name, .. } => {
                seen.push(name);
                true
            }
            Node::Solve(_) => false,
            Node::Query(_) | Node::Expr(_) => true,
        });
        assert_eq!(seen, ["outside"]);
    }

    #[test]
    fn map_children_rebuilds_what_walk_visits() {
        fn upper(e: &Expr) -> Expr {
            match e {
                Expr::Column { name, .. } => Expr::col(&name.to_uppercase()),
                other => other.map_children(upper),
            }
        }
        let e = crate::parser::parse_expr("f(a, b) + (c IN (SELECT c FROM t))").unwrap();
        // The operand of IN is a child; the subquery is not.
        assert_eq!(upper(&e).to_string(), "(f(\"A\", \"B\") + (\"C\" IN (SELECT c FROM t)))");
    }

    #[test]
    fn ident_quoting() {
        assert_eq!(ident("foo"), "foo");
        assert_eq!(ident("Foo"), "\"Foo\"");
        assert_eq!(ident("group by"), "\"group by\"");
    }
}
