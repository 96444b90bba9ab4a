//! Query evaluation: BGP joins, filters, optional/union, property paths,
//! solution modifiers, and the three result forms.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

use grdf_rdf::graph::{Graph, TermId};
use grdf_rdf::labels::ScanMask;
use grdf_rdf::term::{Term, Triple};
use grdf_runtime::{Deadline, DeadlineExceeded};

use crate::ast::{
    Aggregate, Expr, Order, Pattern, PropertyPath, Query, QueryKind, TermOrVar, TriplePattern,
};
use crate::parser::{parse_query, ParseError};
use crate::spatial::GeoPreds;

/// One solution: variable name → bound term.
pub type Bindings = BTreeMap<String, Term>;

/// Errors from parsing or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query text did not parse.
    Parse(String),
    /// The request's deadline expired mid-evaluation; evaluation was
    /// cancelled cooperatively and no partial result is returned.
    DeadlineExceeded,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "query parse error: {m}"),
            QueryError::DeadlineExceeded => f.write_str("query deadline exceeded"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e.to_string())
    }
}

impl From<DeadlineExceeded> for QueryError {
    fn from(_: DeadlineExceeded) -> Self {
        QueryError::DeadlineExceeded
    }
}

/// Result of executing a query.
// One `QueryResult` exists per executed query and lives on the stack
// until consumed — the size skew vs `Boolean` (the columnar `Graph`
// header is ~272 bytes) never multiplies across a collection, so
// boxing the CONSTRUCT graph would tax every caller for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// SELECT: projected variable names and solution rows.
    Select {
        /// Projection (resolved; `SELECT *` lists all seen variables).
        vars: Vec<String>,
        /// Solutions in order.
        rows: Vec<Bindings>,
    },
    /// ASK.
    Boolean(bool),
    /// CONSTRUCT.
    Graph(Graph),
}

impl QueryResult {
    /// The SELECT rows (empty for other result kinds).
    pub fn select_rows(&self) -> &[Bindings] {
        match self {
            QueryResult::Select { rows, .. } => rows,
            _ => &[],
        }
    }

    /// The boolean of an ASK (`None` otherwise).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            QueryResult::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// The constructed graph, when this was a CONSTRUCT.
    pub fn into_graph(self) -> Option<Graph> {
        match self {
            QueryResult::Graph(g) => Some(g),
            _ => None,
        }
    }
}

/// Parse and execute `query_text` over `graph` without a deadline.
pub fn execute(graph: &Graph, query_text: &str) -> Result<QueryResult, QueryError> {
    execute_with_deadline(graph, query_text, &Deadline::never())
}

/// Parse and execute `query_text` over `graph`, polling `deadline` inside
/// the join and closure loops; returns [`QueryError::DeadlineExceeded`]
/// once the budget is spent.
pub fn execute_with_deadline(
    graph: &Graph,
    query_text: &str,
    deadline: &Deadline,
) -> Result<QueryResult, QueryError> {
    execute_query_with_deadline(graph, &parse_traced(query_text)?, deadline)
}

fn parse_traced(query_text: &str) -> Result<Query, QueryError> {
    let _span = grdf_obs::span("query.parse");
    Ok(parse_query(query_text)?)
}

/// Parse and execute `query_text` over the triples of `graph` that `mask`
/// shows — the secure serving path. The whole served graph is evaluated
/// and every triple the evaluator reads (BGP scans, merge joins, property
/// paths, `EXISTS`, the spatial builtins) is tested against the mask, so
/// the answer equals evaluating over the masked subgraph. Also returns how
/// many visible triples the evaluation read. Hidden triples are not
/// counted, so the figure depends only on what the mask shows and cannot
/// be used to probe hidden data.
pub fn execute_masked(
    graph: &Graph,
    mask: &ScanMask<'_>,
    query_text: &str,
    deadline: &Deadline,
) -> Result<(QueryResult, u64), QueryError> {
    run_query(graph, Some(mask), &parse_traced(query_text)?, deadline)
}

/// What an evaluation reads: a graph, optionally behind a label mask.
/// Every triple read goes through here, so the mask cannot be bypassed by
/// any operator, and `examined` counts the visible triples read.
pub(crate) struct Source<'a> {
    pub(crate) graph: &'a Graph,
    mask: Option<&'a ScanMask<'a>>,
    /// The query's constant path endpoints that the graph never interned,
    /// with ids from `graph.term_count()` up: no triple holds them, but a
    /// zero-length path binds them.
    local: Vec<Term>,
    examined: Cell<u64>,
    /// The geometry predicates' ids, resolved by the first spatial test.
    pub(crate) geo: OnceCell<GeoPreds>,
}

impl<'a> Source<'a> {
    pub(crate) fn new(graph: &'a Graph, mask: Option<&'a ScanMask<'a>>) -> Source<'a> {
        Source {
            graph,
            mask,
            local: Vec::new(),
            examined: Cell::new(0),
            geo: OnceCell::new(),
        }
    }

    #[inline]
    fn visible(&self, s: TermId, p: TermId) -> bool {
        self.mask.is_none_or(|m| m.visible(s, p))
    }

    fn charge(&self, n: u64) {
        self.examined.set(self.examined.get() + n);
    }

    /// The term behind an id of this evaluation: the graph's, or a local
    /// path endpoint's.
    fn term_of(&self, id: TermId) -> &Term {
        let n = self.graph.term_count();
        match (id as usize).checked_sub(n) {
            Some(i) => &self.local[i],
            None => self.graph.term_of(id),
        }
    }

    /// The id of a constant path endpoint.
    fn endpoint_id(&self, t: &Term) -> TermId {
        self.graph.term_id(t).unwrap_or_else(|| {
            let i = self.local.iter().position(|l| l == t);
            (self.graph.term_count() + i.expect("uninterned endpoints are local")) as TermId
        })
    }

    /// [`Graph::for_each_match_ids`] over the visible triples. A local id
    /// holds no triple, so a pattern naming one is never probed.
    pub(crate) fn for_each_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: impl FnMut(TermId, TermId, TermId),
    ) {
        let n = self.graph.term_count();
        if [s, p, o].into_iter().flatten().any(|id| id as usize >= n) {
            return;
        }
        let mut read = 0;
        self.graph.for_each_match_ids(s, p, o, |s, p, o| {
            if self.visible(s, p) {
                read += 1;
                f(s, p, o);
            }
        });
        self.charge(read);
    }

    /// How many visible triples match the id pattern, counting no further
    /// than `cap` — a planning statistic, not charged. Without a mask
    /// every triple is visible, and the count is the index range's length.
    fn visible_count(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        cap: usize,
    ) -> usize {
        let Some(mask) = self.mask else {
            return self.graph.estimate_ids(s, p, o).min(cap);
        };
        if let (Some(sid), Some(pid)) = (s, p) {
            // A triple's visibility depends only on its subject and
            // predicate: the range is all visible or all hidden.
            return if mask.visible(sid, pid) {
                self.graph.estimate_ids(s, p, o).min(cap)
            } else {
                0
            };
        }
        let mut n = 0;
        if cap > 0 {
            self.graph.for_each_match_ids_while(s, p, o, |s, p, _| {
                n += usize::from(mask.visible(s, p));
                n < cap
            });
        }
        n
    }
}

/// The constant path endpoints of `pattern`, `EXISTS` patterns included,
/// that `graph` never interned, each once.
fn uninterned_endpoints(graph: &Graph, pattern: &Pattern, out: &mut Vec<Term>) {
    match pattern {
        Pattern::Bgp(_) => {}
        Pattern::Path {
            subject, object, ..
        } => {
            for end in [subject, object] {
                if let TermOrVar::Term(t) = end {
                    if graph.term_id(t).is_none() && !out.contains(t) {
                        out.push(t.clone());
                    }
                }
            }
        }
        Pattern::Group(parts) => {
            for part in parts {
                uninterned_endpoints(graph, part, out);
            }
        }
        Pattern::Optional(inner) => uninterned_endpoints(graph, inner, out),
        Pattern::Union(l, r) => {
            uninterned_endpoints(graph, l, out);
            uninterned_endpoints(graph, r, out);
        }
        Pattern::Filter(e) => {
            let mut stack = vec![e];
            while let Some(e) = stack.pop() {
                match e {
                    Expr::Exists(p) | Expr::NotExists(p) => uninterned_endpoints(graph, p, out),
                    Expr::Not(a) => stack.push(&**a),
                    Expr::Eq(a, b)
                    | Expr::Ne(a, b)
                    | Expr::Lt(a, b)
                    | Expr::Le(a, b)
                    | Expr::Gt(a, b)
                    | Expr::Ge(a, b)
                    | Expr::And(a, b)
                    | Expr::Or(a, b)
                    | Expr::Contains(a, b)
                    | Expr::StrStarts(a, b) => stack.extend([&**a, &**b]),
                    _ => {}
                }
            }
        }
    }
}

/// The cell of a variable a row does not bind (OPTIONAL, UNION).
const UNBOUND: TermId = TermId::MAX;

/// Solutions as rows of term ids, one column per variable, stored flat:
/// `vars.len()` ids a row. A cell may be [`UNBOUND`]. The count is kept
/// apart so that rows of no column (the row evaluation starts from, a BGP
/// without variables) still count.
#[derive(Clone)]
struct IdTable {
    /// Column names.
    vars: Vec<String>,
    len: usize,
    ids: Vec<TermId>,
}

impl IdTable {
    /// One row, `ids`, under the columns `vars`.
    fn of_row(vars: &[String], ids: &[TermId]) -> IdTable {
        IdTable {
            vars: vars.to_vec(),
            len: 1,
            ids: ids.to_vec(),
        }
    }

    fn empty(vars: Vec<String>) -> IdTable {
        IdTable {
            vars,
            len: 0,
            ids: Vec::new(),
        }
    }

    fn width(&self) -> usize {
        self.vars.len()
    }

    fn row(&self, i: usize) -> &[TermId] {
        let w = self.width();
        &self.ids[i * w..(i + 1) * w]
    }

    fn column(&self, c: usize) -> impl Iterator<Item = TermId> + '_ {
        (0..self.len).map(move |i| self.row(i)[c])
    }

    fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The column of `var`, added unbound in every row when missing.
    fn col_or_add(&mut self, var: &str) -> usize {
        if let Some(c) = self.col(var) {
            return c;
        }
        let w = self.width();
        let mut ids = Vec::with_capacity(self.len * (w + 1));
        for i in 0..self.len {
            ids.extend_from_slice(self.row(i));
            ids.push(UNBOUND);
        }
        self.ids = ids;
        self.vars.push(var.to_string());
        w
    }

    /// Append `row`, widened with unbound cells, then bind each
    /// `(column, id)`: a cell already holding another id drops the row.
    fn push_bound(&mut self, row: &[TermId], binds: impl IntoIterator<Item = (usize, TermId)>) {
        let start = self.ids.len();
        self.ids.extend_from_slice(row);
        self.ids.resize(start + self.width(), UNBOUND);
        for (c, id) in binds {
            let cell = &mut self.ids[start + c];
            if *cell == UNBOUND {
                *cell = id;
            } else if *cell != id {
                self.ids.truncate(start);
                return;
            }
        }
        self.len += 1;
    }

    /// Append the rows of `other`, matching columns by name; a column only
    /// `other` has is added.
    fn append(&mut self, other: &IdTable) {
        let cols: Vec<usize> = other.vars.iter().map(|v| self.col_or_add(v)).collect();
        for i in 0..other.len {
            self.push_bound(&[], cols.iter().copied().zip(other.row(i).iter().copied()));
        }
    }

    /// Keep the rows whose `keep` entry is true.
    fn retain(&mut self, keep: &[bool]) {
        let w = self.width();
        let mut n = 0;
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            self.ids.copy_within(i * w..(i + 1) * w, n * w);
            n += 1;
        }
        self.ids.truncate(n * w);
        self.len = n;
    }

    fn rows<'a>(&'a self, src: &'a Source<'a>) -> impl Iterator<Item = IdRow<'a>> {
        (0..self.len).map(move |i| IdRow {
            src,
            vars: &self.vars,
            ids: self.row(i),
        })
    }
}

/// One row of an [`IdTable`]: terms are read in place, by id.
#[derive(Clone, Copy)]
struct IdRow<'a> {
    src: &'a Source<'a>,
    vars: &'a [String],
    ids: &'a [TermId],
}

impl IdRow<'_> {
    /// The id bound to `var`; `None` when the row leaves it unbound.
    fn id(&self, var: &str) -> Option<TermId> {
        let c = self.vars.iter().position(|v| v == var)?;
        Some(self.ids[c]).filter(|&id| id != UNBOUND)
    }
}

/// One solution as the solution modifiers read it: an [`IdRow`], or an
/// aggregated row of [`Bindings`]. ORDER BY, DISTINCT and the projection
/// each have one implementation for both.
trait Row {
    /// What DISTINCT hashes for one variable.
    type Key<'r>: Hash + Eq
    where
        Self: 'r;

    /// The term bound to `var`.
    fn term(&self, var: &str) -> Option<&Term>;

    /// DISTINCT's key for `var`: equal exactly when the terms are.
    fn key(&self, var: &str) -> Option<Self::Key<'_>>;

    /// The bindings of those of `vars` the row binds. Returned rows
    /// materialize here, once, after every modifier has run.
    fn project(&self, vars: &[String]) -> Bindings {
        let mut b = Bindings::new();
        for v in vars {
            if let Some(t) = self.term(v) {
                b.insert(v.clone(), t.clone());
            }
        }
        b
    }
}

impl Row for Bindings {
    type Key<'r> = &'r Term;

    fn term(&self, var: &str) -> Option<&Term> {
        self.get(var)
    }

    fn key(&self, var: &str) -> Option<&Term> {
        self.get(var)
    }
}

impl Row for IdRow<'_> {
    type Key<'r>
        = TermId
    where
        Self: 'r;

    fn term(&self, var: &str) -> Option<&Term> {
        self.id(var).map(|id| self.src.term_of(id))
    }

    fn key(&self, var: &str) -> Option<TermId> {
        self.id(var)
    }
}

/// A row's projection onto `vars`, hashed and compared in place: what
/// DISTINCT keeps a set of.
struct Projected<'a, R> {
    row: &'a R,
    vars: &'a [String],
}

impl<R: Row> Hash for Projected<'_, R> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        for v in self.vars {
            self.row.key(v).hash(h);
        }
    }
}

impl<R: Row> PartialEq for Projected<'_, R> {
    fn eq(&self, other: &Self) -> bool {
        self.vars
            .iter()
            .all(|v| self.row.key(v) == other.row.key(v))
    }
}

impl<R: Row> Eq for Projected<'_, R> {}

/// The solution modifiers in SPARQL's order (§18.2.5): ORDER BY, then
/// DISTINCT over the projection `vars`, then OFFSET/LIMIT. Projection
/// itself is left to [`Row::project`], so only the rows that survive
/// materialize.
fn modify<R: Row>(mut rows: Vec<R>, query: &Query, vars: &[String], distinct: bool) -> Vec<R> {
    if !query.order.is_empty() {
        rows.sort_by(|a, b| {
            for key in &query.order {
                let (var, desc) = match key {
                    Order::Asc(v) => (v, false),
                    Order::Desc(v) => (v, true),
                };
                let ord = compare_terms(a.term(var), b.term(var));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if distinct {
        let keep: Vec<bool> = {
            let mut seen = HashSet::with_capacity(rows.len());
            rows.iter()
                .map(|row| seen.insert(Projected { row, vars }))
                .collect()
        };
        let mut keep = keep.into_iter();
        rows.retain(|_| keep.next() == Some(true));
    }
    if let Some(limit) = query.limit {
        rows.truncate(query.offset.saturating_add(limit));
    }
    rows.drain(..query.offset.min(rows.len()));
    rows
}

/// Execute a pre-parsed query without a deadline.
pub fn execute_query(graph: &Graph, query: &Query) -> QueryResult {
    execute_query_with_deadline(graph, query, &Deadline::never())
        .expect("a never-expiring deadline cannot cancel evaluation")
}

/// Execute a pre-parsed query under a cooperative deadline.
pub fn execute_query_with_deadline(
    graph: &Graph,
    query: &Query,
    deadline: &Deadline,
) -> Result<QueryResult, QueryError> {
    Ok(run_query(graph, None, query, deadline)?.0)
}

/// Evaluate `query` on id rows, then build its result: the rows
/// materialize only there. Also returns the visible triples read.
fn run_query(
    graph: &Graph,
    mask: Option<&ScanMask<'_>>,
    query: &Query,
    deadline: &Deadline,
) -> Result<(QueryResult, u64), QueryError> {
    let mut src = Source::new(graph, mask);
    uninterned_endpoints(graph, &query.pattern, &mut src.local);
    // Evaluation starts from one row of no column.
    let table = eval_pattern(&src, &query.pattern, IdTable::of_row(&[], &[]), deadline)?;
    Ok((finish(&src, query, &table), src.examined.get()))
}

/// Keep the rows on which every filter evaluates to true.
fn filter(
    src: &Source<'_>,
    mut table: IdTable,
    filters: &[&Expr],
    deadline: &Deadline,
) -> Result<IdTable, DeadlineExceeded> {
    if filters.is_empty() {
        return Ok(table);
    }
    let mut keep = Vec::with_capacity(table.len);
    for (n, row) in table.rows(src).enumerate() {
        if n % 1024 == 0 {
            deadline.check()?;
        }
        keep.push(
            filters.iter().all(|e| {
                eval_expr(src, e, &row, deadline).and_then(EvalValue::truthy) == Some(true)
            }),
        );
    }
    // EXISTS/NOT EXISTS sub-evaluation swallows expiry into a `None`
    // filter value; expiry latches, so this check surfaces it before any
    // partial row set escapes.
    deadline.check()?;
    table.retain(&keep);
    Ok(table)
}

/// Aggregation, the solution modifiers and the result form.
fn finish(src: &Source<'_>, query: &Query, table: &IdTable) -> QueryResult {
    let rows: Vec<IdRow> = table.rows(src).collect();
    match &query.kind {
        QueryKind::Select {
            vars,
            aggregates,
            distinct,
        } => {
            if aggregates.is_empty() {
                let vars = if vars.is_empty() {
                    // SELECT *: every variable some row binds, sorted for
                    // determinism.
                    let mut all: Vec<String> = (0..table.width())
                        .filter(|&c| table.column(c).any(|id| id != UNBOUND))
                        .map(|c| table.vars[c].clone())
                        .collect();
                    all.sort();
                    all
                } else {
                    vars.clone()
                };
                select(query, vars, rows, *distinct)
            } else {
                // Grouping comes first; the modifiers apply to the
                // aggregated rows.
                let (vars, rows) = aggregate_select(vars, aggregates, &query.group_by, rows);
                select(query, vars, rows, *distinct)
            }
        }
        QueryKind::Ask => QueryResult::Boolean(!modify(rows, query, &[], false).is_empty()),
        QueryKind::Construct { template } => {
            let mut g = Graph::new();
            for row in &modify(rows, query, &[], false) {
                for t in template {
                    let (Some(s), Some(p), Some(o)) = (
                        resolve(&t.subject, row),
                        resolve(&t.predicate, row),
                        resolve(&t.object, row),
                    ) else {
                        continue;
                    };
                    if s.is_resource() && matches!(p, Term::Iri(_)) {
                        g.insert(Triple::new(s, p, o));
                    }
                }
            }
            QueryResult::Graph(g)
        }
    }
}

/// A SELECT result: the modifiers, then the projection of what remains.
fn select<R: Row>(query: &Query, vars: Vec<String>, rows: Vec<R>, distinct: bool) -> QueryResult {
    let rows = modify(rows, query, &vars, distinct)
        .iter()
        .map(|r| r.project(&vars))
        .collect();
    QueryResult::Select { vars, rows }
}

/// Grouped aggregation: partition solutions by the GROUP BY key (one
/// global group when absent) and compute each aggregate per group.
/// Returns the output variables and one row per group.
fn aggregate_select<R: Row>(
    vars: &[String],
    aggregates: &[Aggregate],
    group_by: &[String],
    solutions: Vec<R>,
) -> (Vec<String>, Vec<Bindings>) {
    use crate::ast::AggFunc;

    let mut groups: BTreeMap<Vec<Option<Term>>, Vec<R>> = BTreeMap::new();
    if group_by.is_empty() {
        groups.insert(Vec::new(), solutions);
    } else {
        for b in solutions {
            let key: Vec<Option<Term>> = group_by.iter().map(|v| b.term(v).cloned()).collect();
            groups.entry(key).or_default().push(b);
        }
    }

    let mut out_vars: Vec<String> = vars.to_vec();
    out_vars.extend(aggregates.iter().map(|a| a.alias.clone()));

    let mut rows: Vec<Bindings> = Vec::with_capacity(groups.len());
    for (key, members) in groups {
        let mut row = Bindings::new();
        for (v, k) in group_by.iter().zip(key) {
            if let (true, Some(term)) = (vars.contains(v), k) {
                row.insert(v.clone(), term);
            }
        }
        for agg in aggregates {
            // Collect the aggregated values of this group.
            let mut values: Vec<Term> = match &agg.var {
                None => members.iter().map(|_| Term::boolean(true)).collect(), // COUNT(*)
                Some(v) => members.iter().filter_map(|b| b.term(v).cloned()).collect(),
            };
            if agg.distinct {
                let mut seen = HashSet::new();
                values.retain(|t| seen.insert(t.clone()));
            }
            let numeric: Vec<f64> = values
                .iter()
                .filter_map(|t| t.as_literal().and_then(grdf_rdf::Literal::as_double))
                .collect();
            let result = match agg.func {
                AggFunc::Count => Some(Term::integer(values.len() as i64)),
                AggFunc::Sum => Some(Term::double(numeric.iter().sum())),
                AggFunc::Avg => {
                    if numeric.is_empty() {
                        None
                    } else {
                        Some(Term::double(
                            numeric.iter().sum::<f64>() / numeric.len() as f64,
                        ))
                    }
                }
                // MIN/MAX compare numerically when values are numeric;
                // plain term order otherwise.
                AggFunc::Min => values
                    .iter()
                    .min_by(|a, b| compare_terms(Some(a), Some(b)))
                    .cloned(),
                AggFunc::Max => values
                    .iter()
                    .max_by(|a, b| compare_terms(Some(a), Some(b)))
                    .cloned(),
            };
            if let Some(r) = result {
                row.insert(agg.alias.clone(), r);
            }
        }
        rows.push(row);
    }
    (out_vars, rows)
}

fn resolve(t: &TermOrVar, row: &impl Row) -> Option<Term> {
    match t {
        TermOrVar::Term(t) => Some(t.clone()),
        TermOrVar::Var(v) => row.term(v).cloned(),
    }
}

/// Evaluate `pattern` against each row of `input`: the rows it extends
/// to, in one table whose columns are matched by name.
fn eval_pattern(
    src: &Source<'_>,
    pattern: &Pattern,
    input: IdTable,
    deadline: &Deadline,
) -> Result<IdTable, DeadlineExceeded> {
    match pattern {
        Pattern::Bgp(triples) => {
            eval_bgp_ids(src, &triples.iter().collect::<Vec<_>>(), input, deadline)
        }
        Pattern::Path {
            subject,
            path,
            object,
        } => {
            let mut out = IdTable::empty(input.vars.clone());
            let mut end = |t: &TermOrVar| match t {
                TermOrVar::Term(t) => Slot::Const(src.endpoint_id(t)),
                TermOrVar::Var(v) => Slot::Var(out.col_or_add(v)),
            };
            let (s, o) = (end(subject), end(object));
            let value = |row: &[TermId], end: Slot| match end {
                Slot::Const(id) => Some(id),
                Slot::Var(c) => row.get(c).copied().filter(|&id| id != UNBOUND),
            };
            let column = |end: Slot, id: TermId| match end {
                Slot::Var(c) => Some((c, id)),
                Slot::Const(_) => None,
            };
            for i in 0..input.len {
                deadline.check()?;
                let row = input.row(i);
                for (a, b) in path_pairs(src, path, value(row, s), value(row, o), deadline)? {
                    out.push_bound(row, [column(s, a), column(o, b)].into_iter().flatten());
                }
            }
            Ok(out)
        }
        Pattern::Group(parts) => {
            // A FILTER constrains its whole group wherever it is placed
            // (SPARQL 1.1 §5.2.2), so the filters run after every other
            // part, and the BGPs they separate join as one conjunction.
            let mut acc = input;
            let mut triples = Vec::new();
            let mut filters = Vec::new();
            for part in parts {
                match part {
                    Pattern::Bgp(ts) => triples.extend(ts),
                    Pattern::Filter(e) => filters.push(e),
                    _ => {
                        acc = eval_bgp_ids(src, &std::mem::take(&mut triples), acc, deadline)?;
                        acc = eval_pattern(src, part, acc, deadline)?;
                    }
                }
            }
            acc = eval_bgp_ids(src, &triples, acc, deadline)?;
            filter(src, acc, &filters, deadline)
        }
        Pattern::Optional(inner) => {
            // A left join, row by row: a row the inner pattern cannot
            // extend is kept as it is.
            let mut out = IdTable::empty(input.vars.clone());
            for i in 0..input.len {
                deadline.check()?;
                let row = IdTable::of_row(&input.vars, input.row(i));
                let extended = eval_pattern(src, inner, row, deadline)?;
                if extended.len == 0 {
                    out.push_bound(input.row(i), []);
                } else {
                    out.append(&extended);
                }
            }
            Ok(out)
        }
        Pattern::Union(l, r) => {
            let mut out = eval_pattern(src, l, input.clone(), deadline)?;
            out.append(&eval_pattern(src, r, input, deadline)?);
            Ok(out)
        }
        Pattern::Filter(e) => filter(src, input, &[e], deadline),
    }
}

/// One position of a lowered pattern: an interned constant, or a
/// variable (an index into the BGP's variable table, or a column).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Const(TermId),
    Var(usize),
}

/// A triple pattern lowered to id space.
#[derive(Clone, Copy)]
struct IdPattern {
    s: Slot,
    p: Slot,
    o: Slot,
}

impl IdPattern {
    fn slots(&self) -> [Slot; 3] {
        [self.s, self.p, self.o]
    }

    /// The constant ids, `None` at variable positions.
    fn consts(&self) -> [Option<TermId>; 3] {
        self.slots().map(|s| match s {
            Slot::Const(id) => Some(id),
            Slot::Var(_) => None,
        })
    }
}

/// Lower a BGP to id patterns plus the variable name table. `None` means
/// some constant term was never interned by this graph, so the
/// conjunction can match nothing at all.
fn lower_bgp<'t>(
    graph: &Graph,
    triples: impl IntoIterator<Item = &'t TriplePattern>,
) -> Option<(Vec<IdPattern>, Vec<String>)> {
    let mut vars: Vec<String> = Vec::new();
    let mut lower = |t: &TermOrVar| -> Option<Slot> {
        match t {
            TermOrVar::Term(term) => graph.term_id(term).map(Slot::Const),
            TermOrVar::Var(v) => Some(Slot::Var(vars.iter().position(|x| x == v).unwrap_or_else(
                || {
                    vars.push(v.clone());
                    vars.len() - 1
                },
            ))),
        }
    };
    let mut pats = Vec::new();
    for t in triples {
        pats.push(IdPattern {
            s: lower(&t.subject)?,
            p: lower(&t.predicate)?,
            o: lower(&t.object)?,
        });
    }
    Some((pats, vars))
}

/// The join order: repeatedly take, among the remaining patterns connected
/// to an already-bound variable (all of them when none is, so the join
/// stays a chain of index probes instead of a cross product), the one with
/// the fewest *visible* matches over its constant positions, ties broken
/// by input order, then bind its variables. Counting visible matches keeps
/// the order, like the charge (`gsacs.scanned`), a function of what the
/// mask shows: data a role cannot see never decides which visible triples
/// a request reads. Without a mask every triple is visible and a count is
/// exact from the index ranges ([`Graph::estimate_ids`]); under one,
/// counts are taken lazily and only as far as a comparison needs, and
/// whole-graph estimates merely decide which candidate is counted first.
fn plan_visible(src: &Source<'_>, pats: &[IdPattern], mut bound: Vec<bool>) -> Vec<usize> {
    // Per pattern: the visible matches counted so far, and whether the
    // count is complete (otherwise it is a lower bound).
    let mut counted: Vec<(usize, bool)> = vec![(0, false); pats.len()];
    let mut count = |i: usize, cap: usize| -> usize {
        let (n, exact) = counted[i];
        if exact || n >= cap {
            return n;
        }
        let [s, p, o] = pats[i].consts();
        let n = src.visible_count(s, p, o, cap);
        counted[i] = (n, n < cap);
        n
    };
    let estimate = |i: usize| {
        let [s, p, o] = pats[i].consts();
        src.graph.estimate_ids(s, p, o)
    };
    let mut remaining: Vec<usize> = (0..pats.len()).collect();
    let mut order = Vec::with_capacity(pats.len());
    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                pats[i]
                    .slots()
                    .iter()
                    .any(|s| matches!(s, Slot::Var(v) if bound[*v]))
            })
            .collect();
        let candidates = if connected.is_empty() {
            &remaining
        } else {
            &connected
        };
        let chosen = if let [only] = candidates[..] {
            only
        } else {
            let mut by_estimate = candidates.clone();
            by_estimate.sort_by_key(|&i| (estimate(i), i));
            // The running minimum of (visible count, input index); its
            // count is exact. A later candidate is counted only up to the
            // count it must stay under to win, so a count it returns at
            // that cap is a lower bound that loses.
            let mut best: Option<(usize, usize)> = None;
            for i in by_estimate {
                let n = match best {
                    // A pattern with no visible match empties the join,
                    // and reads nothing, whichever such pattern runs first.
                    Some((_, 0)) => break,
                    None => count(i, usize::MAX),
                    Some((b, nb)) => count(i, nb + usize::from(i < b)),
                };
                if best.is_none_or(|(b, nb)| (n, i) < (nb, b)) {
                    best = Some((i, n));
                }
            }
            best.expect("candidates are non-empty").0
        };
        remaining.retain(|&i| i != chosen);
        for s in pats[chosen].slots() {
            if let Slot::Var(v) = s {
                bound[v] = true;
            }
        }
        order.push(chosen);
    }
    order
}

/// First index in `col[lo..]` holding a value `>= key` (strict=false) or
/// `> key` (strict=true): exponential probe from `lo`, then binary search
/// in the bracketed window. Sub-linear when successive keys land close
/// together — the merge-join inner step.
fn gallop(col: &[TermId], lo: usize, key: TermId, strict: bool) -> usize {
    let past = |v: TermId| if strict { v > key } else { v >= key };
    if lo >= col.len() || past(col[lo]) {
        return lo;
    }
    let mut step = 1;
    let mut base = lo;
    while base + step < col.len() && !past(col[base + step]) {
        base += step;
        step <<= 1;
    }
    let hi = (base + step + 1).min(col.len());
    base + 1 + col[base + 1..hi].partition_point(|&v| !past(v))
}

/// Join `input` with the conjunction `triples`, pattern by pattern in plan
/// order. A pattern joined through a bound object on a clean predicate run
/// gallops a sorted merge over the zero-copy POS slice; one sharing no
/// column with the rows scans once and crosses; any other probes the
/// index once per row. A column that some row leaves unbound probes with
/// its value where set and binds the matched value where not. No term
/// materializes here.
fn eval_bgp_ids(
    src: &Source<'_>,
    triples: &[&TriplePattern],
    input: IdTable,
    deadline: &Deadline,
) -> Result<IdTable, DeadlineExceeded> {
    if triples.is_empty() {
        return Ok(input);
    }
    let graph = src.graph;
    let Some((pats, vars)) = lower_bgp(graph, triples.iter().copied()) else {
        return Ok(IdTable::empty(input.vars)); // an unknown constant matches nothing
    };
    let mut rows = input;
    // The column of each of the BGP's variables, once one exists.
    let mut col_of: Vec<Option<usize>> = vars.iter().map(|v| rows.col(v)).collect();
    let mut nullable: Vec<bool> = (0..rows.width())
        .map(|c| rows.column(c).any(|id| id == UNBOUND))
        .collect();
    let order = {
        let _span = grdf_obs::span("query.plan");
        plan_visible(src, &pats, col_of.iter().map(Option::is_some).collect())
    };

    let _span = grdf_obs::span("query.join");
    for pi in order {
        if rows.len == 0 {
            break;
        }
        let width = rows.width();
        let mut next = IdTable::empty(rows.vars.clone());
        // Each variable position's column, and the positions whose column
        // the match fills: one this pattern adds (a repeat within the
        // pattern then checks against it) or one some row leaves unbound.
        let mut cols = [None; 3];
        let mut binds: Vec<(usize, usize)> = Vec::new();
        for (ci, slot) in pats[pi].slots().into_iter().enumerate() {
            if let Slot::Var(v) = slot {
                let c = *col_of[v].get_or_insert_with(|| {
                    next.vars.push(vars[v].clone());
                    next.vars.len() - 1
                });
                if c >= width || nullable[c] {
                    binds.push((ci, c));
                }
                cols[ci] = Some(c);
            }
        }
        let consts = pats[pi].consts();
        // A position's probe value: its constant, or the row's id.
        let probe = |row: &[TermId], ci: usize| {
            consts[ci].or_else(|| row.get(cols[ci]?).copied().filter(|&id| id != UNBOUND))
        };
        // The column a position joins through, if it was bound before.
        let joined = |ci: usize| cols[ci].filter(|&c| c < width);
        let emit = |next: &mut IdTable, row: &[TermId], t: [TermId; 3]| {
            next.push_bound(row, binds.iter().map(|&(ci, c)| (c, t[ci])));
        };

        // Merge-join fast path: constant predicate with a clean run
        // slice, joined through the object column bound in every row.
        // Rows sort by the key and the POS slice gallops forward in
        // lockstep.
        let merge = match (consts[1], joined(2)) {
            (Some(pid), Some(oc)) if !nullable[oc] && joined(0).is_none() => graph
                .pred_slices(pid)
                .map(|(objs, subs)| (pid, oc, objs, subs)),
            _ => None,
        };
        if let Some((pid, oc, objs, subs)) = merge {
            let mut idx: Vec<usize> = (0..rows.len).collect();
            idx.sort_unstable_by_key(|&i| rows.row(i)[oc]);
            let mut lo = 0;
            let mut read = 0;
            for (n, &i) in idx.iter().enumerate() {
                if n % 1024 == 0 {
                    deadline.check()?;
                }
                let row = rows.row(i);
                let key = row[oc];
                lo = gallop(objs, lo, key, false);
                let hi = gallop(objs, lo, key, true);
                let mut take = |s: TermId| {
                    if src.visible(s, pid) {
                        read += 1;
                        emit(&mut next, row, [s, pid, key]);
                    }
                };
                match consts[0] {
                    Some(sid) => {
                        if subs[lo..hi].binary_search(&sid).is_ok() {
                            take(sid);
                        }
                    }
                    None => subs[lo..hi].iter().for_each(|&s| take(s)),
                }
            }
            src.charge(read);
        } else if let Some(key) = (0..3).find_map(joined) {
            // Generic probe: sort rows by the first join column so
            // successive index probes touch adjacent ranges.
            let mut idx: Vec<usize> = (0..rows.len).collect();
            idx.sort_unstable_by_key(|&i| rows.row(i)[key]);
            for &i in &idx {
                deadline.check()?;
                let row = rows.row(i);
                src.for_each_ids(probe(row, 0), probe(row, 1), probe(row, 2), |s, p, o| {
                    emit(&mut next, row, [s, p, o]);
                });
            }
        } else {
            // No join column: the match set is row-independent. Scan
            // once, then cross with the current rows.
            deadline.check()?;
            let mut matches = Vec::new();
            src.for_each_ids(consts[0], consts[1], consts[2], |s, p, o| {
                matches.push([s, p, o]);
            });
            for i in 0..rows.len {
                deadline.check()?;
                for &t in &matches {
                    emit(&mut next, rows.row(i), t);
                }
            }
        }

        // Every row the pattern matched binds its variables.
        for &(_, c) in &binds {
            if c < width {
                nullable[c] = false;
            }
        }
        nullable.resize(next.width(), false);
        rows = next;
    }

    grdf_obs::add("query.join.rows", rows.len as u64);
    Ok(rows)
}

/// Enumerate the `(start, end)` id pairs a property path relates, under
/// optional endpoint constraints. Recursive closure operators use BFS when
/// one endpoint is bound and pair-set iteration otherwise.
fn path_pairs(
    src: &Source<'_>,
    path: &PropertyPath,
    s: Option<TermId>,
    o: Option<TermId>,
    deadline: &Deadline,
) -> Result<Vec<(TermId, TermId)>, DeadlineExceeded> {
    Ok(match path {
        PropertyPath::Iri(p) => {
            let mut out = Vec::new();
            if let Some(p) = src.graph.term_id(p) {
                src.for_each_ids(s, Some(p), o, |s, _, o| out.push((s, o)));
            }
            out
        }
        PropertyPath::Inverse(inner) => path_pairs(src, inner, o, s, deadline)?
            .into_iter()
            .map(|(a, b)| (b, a))
            .collect(),
        PropertyPath::Alternative(l, r) => {
            let mut out = path_pairs(src, l, s, o, deadline)?;
            let seen: HashSet<(TermId, TermId)> = out.iter().copied().collect();
            out.extend(
                path_pairs(src, r, s, o, deadline)?
                    .into_iter()
                    .filter(|p| !seen.contains(p)),
            );
            out
        }
        PropertyPath::Sequence(a, b) => {
            let mut out = Vec::new();
            let mut seen = HashSet::new();
            if s.is_some() || o.is_none() {
                // Forward: expand `a` from the (possibly unbound) start.
                for (sa, mid) in path_pairs(src, a, s, None, deadline)? {
                    deadline.check()?;
                    if !src.term_of(mid).is_resource() {
                        continue;
                    }
                    for (_, ob) in path_pairs(src, b, Some(mid), o, deadline)? {
                        if seen.insert((sa, ob)) {
                            out.push((sa, ob));
                        }
                    }
                }
            } else {
                // Backward: only the object is bound.
                for (mid, ob) in path_pairs(src, b, None, o, deadline)? {
                    deadline.check()?;
                    for (sa, _) in path_pairs(src, a, None, Some(mid), deadline)? {
                        if seen.insert((sa, ob)) {
                            out.push((sa, ob));
                        }
                    }
                }
            }
            out
        }
        PropertyPath::OneOrMore(inner) => closure_pairs(src, inner, s, o, false, deadline)?,
        PropertyPath::ZeroOrMore(inner) => closure_pairs(src, inner, s, o, true, deadline)?,
    })
}

/// Transitive closure of a path, optionally reflexive.
fn closure_pairs(
    src: &Source<'_>,
    inner: &PropertyPath,
    s: Option<TermId>,
    o: Option<TermId>,
    reflexive: bool,
    deadline: &Deadline,
) -> Result<Vec<(TermId, TermId)>, DeadlineExceeded> {
    let mut out = Vec::new();
    let emit_from = |start: TermId, out: &mut Vec<(TermId, TermId)>| {
        // BFS over the inner path from `start`.
        let mut reached = HashSet::new();
        let mut frontier = vec![start];
        if reflexive {
            reached.insert(start);
        }
        while let Some(cur) = frontier.pop() {
            deadline.check()?;
            for (_, next) in path_pairs(src, inner, Some(cur), None, deadline)? {
                if reached.insert(next) && src.term_of(next).is_resource() {
                    frontier.push(next);
                }
            }
        }
        out.extend(
            reached
                .into_iter()
                .filter(|&r| o.is_none_or(|end| end == r))
                .map(|r| (start, r)),
        );
        Ok::<(), DeadlineExceeded>(())
    };

    match (s, o) {
        (Some(start), _) => emit_from(start, &mut out)?,
        (None, Some(end)) => {
            // Reverse BFS via the inverse path, then flip.
            let inv = PropertyPath::Inverse(Box::new(inner.clone()));
            for (e, found) in closure_pairs(src, &inv, Some(end), None, reflexive, deadline)? {
                debug_assert_eq!(e, end);
                out.push((found, e));
            }
        }
        (None, None) => {
            // All starting points: every subject of an inner step.
            let mut starts = HashSet::new();
            for (a, _) in path_pairs(src, inner, None, None, deadline)? {
                starts.insert(a);
            }
            for start in starts {
                deadline.check()?;
                emit_from(start, &mut out)?;
            }
        }
    }
    Ok(out)
}

/// Expression evaluation values. Terms are borrowed from the query or,
/// through the row, from the graph.
enum EvalValue<'a> {
    Bool(bool),
    Num(f64),
    Term(&'a Term),
}

impl<'a> EvalValue<'a> {
    fn truthy(self) -> Option<bool> {
        match self {
            EvalValue::Bool(b) => Some(b),
            EvalValue::Num(n) => Some(n != 0.0),
            EvalValue::Term(t) => t.as_literal().and_then(grdf_rdf::Literal::as_boolean),
        }
    }

    fn as_num(&self) -> Option<f64> {
        match *self {
            EvalValue::Num(n) => Some(n),
            EvalValue::Term(t) => {
                let l = t.as_literal()?;
                // xsd:dateTime/xsd:date compare chronologically, via epoch
                // seconds.
                if matches!(
                    l.datatype(),
                    grdf_rdf::vocab::xsd::DATE_TIME | grdf_rdf::vocab::xsd::DATE
                ) {
                    return grdf_feature::time::TimeInstant::parse(l.lexical())
                        .map(|t| t.epoch_seconds as f64);
                }
                l.as_double()
            }
            EvalValue::Bool(_) => None,
        }
    }

    fn as_text(&self) -> Option<Cow<'a, str>> {
        Some(match *self {
            EvalValue::Term(Term::Literal(l)) => Cow::Borrowed(l.lexical()),
            EvalValue::Term(Term::Iri(i)) => Cow::Borrowed(&**i),
            EvalValue::Term(Term::Blank(b)) => Cow::Owned(format!("_:{b}")),
            EvalValue::Num(n) => Cow::Owned(n.to_string()),
            EvalValue::Bool(b) => Cow::Owned(b.to_string()),
        })
    }
}

fn eval_expr<'a>(
    src: &Source<'_>,
    e: &'a Expr,
    row: &'a IdRow<'a>,
    deadline: &Deadline,
) -> Option<EvalValue<'a>> {
    match e {
        Expr::Const(t) => Some(EvalValue::Term(t)),
        Expr::Var(v) => row.term(v).map(EvalValue::Term),
        Expr::Bound(v) => Some(EvalValue::Bool(row.id(v).is_some())),
        Expr::Not(inner) => {
            let v = eval_expr(src, inner, row, deadline)?.truthy()?;
            Some(EvalValue::Bool(!v))
        }
        Expr::And(l, r) => {
            let lv = eval_expr(src, l, row, deadline)?.truthy()?;
            if !lv {
                return Some(EvalValue::Bool(false));
            }
            Some(EvalValue::Bool(eval_expr(src, r, row, deadline)?.truthy()?))
        }
        Expr::Or(l, r) => {
            let lv = eval_expr(src, l, row, deadline)?.truthy()?;
            if lv {
                return Some(EvalValue::Bool(true));
            }
            Some(EvalValue::Bool(eval_expr(src, r, row, deadline)?.truthy()?))
        }
        Expr::Eq(l, r) => compare(src, l, r, row, deadline, |o| o == Ordering::Equal),
        Expr::Ne(l, r) => compare(src, l, r, row, deadline, |o| o != Ordering::Equal),
        Expr::Lt(l, r) => compare(src, l, r, row, deadline, |o| o == Ordering::Less),
        Expr::Le(l, r) => compare(src, l, r, row, deadline, |o| o != Ordering::Greater),
        Expr::Gt(l, r) => compare(src, l, r, row, deadline, |o| o == Ordering::Greater),
        Expr::Ge(l, r) => compare(src, l, r, row, deadline, |o| o != Ordering::Less),
        Expr::Contains(l, r) => {
            let hay = eval_expr(src, l, row, deadline)?.as_text()?;
            let needle = eval_expr(src, r, row, deadline)?.as_text()?;
            Some(EvalValue::Bool(hay.contains(&*needle)))
        }
        Expr::StrStarts(l, r) => {
            let hay = eval_expr(src, l, row, deadline)?.as_text()?;
            let prefix = eval_expr(src, r, row, deadline)?.as_text()?;
            Some(EvalValue::Bool(hay.starts_with(&*prefix)))
        }
        Expr::IntersectsBox {
            feature,
            x0,
            y0,
            x1,
            y1,
        } => {
            let env = src.envelope(row.id(feature)?)?;
            let query = grdf_geometry::envelope::Envelope::new(
                grdf_geometry::coord::Coord::xy(*x0, *y0),
                grdf_geometry::coord::Coord::xy(*x1, *y1),
            );
            Some(EvalValue::Bool(env.intersects(&query)))
        }
        // The two-feature builtins read no extent unless both features
        // are bound, so an unbound one costs no read (and no charge).
        Expr::Within { inner, outer } => {
            let (inner, outer) = (row.id(inner)?, row.id(outer)?);
            let ei = src.envelope(inner)?;
            let eo = src.envelope(outer)?;
            Some(EvalValue::Bool(eo.contains_envelope(&ei)))
        }
        // Planar distance between the centers of the two extents.
        Expr::Distance { a, b } => {
            let (a, b) = (row.id(a)?, row.id(b)?);
            let ea = src.envelope(a)?;
            let eb = src.envelope(b)?;
            Some(EvalValue::Num(ea.center().distance_2d(&eb.center())))
        }
        // EXISTS evaluates its pattern on a table of the row it tests.
        Expr::Exists(p) | Expr::NotExists(p) => {
            let row = IdTable::of_row(row.vars, row.ids);
            let found = eval_pattern(src, p, row, deadline).ok()?.len > 0;
            Some(EvalValue::Bool(found == matches!(e, Expr::Exists(_))))
        }
    }
}

fn compare<'a>(
    src: &Source<'_>,
    l: &'a Expr,
    r: &'a Expr,
    row: &'a IdRow<'a>,
    deadline: &Deadline,
    test: fn(Ordering) -> bool,
) -> Option<EvalValue<'a>> {
    let lv = eval_expr(src, l, row, deadline)?;
    let rv = eval_expr(src, r, row, deadline)?;
    // Numeric comparison when both sides are numeric.
    if let (Some(ln), Some(rn)) = (lv.as_num(), rv.as_num()) {
        return Some(EvalValue::Bool(test(ln.partial_cmp(&rn)?)));
    }
    let ls = lv.as_text()?;
    let rs = rv.as_text()?;
    Some(EvalValue::Bool(test(ls.cmp(&rs))))
}

fn compare_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            let nx = x.as_literal().and_then(grdf_rdf::Literal::as_double);
            let ny = y.as_literal().and_then(grdf_rdf::Literal::as_double);
            match (nx, ny) {
                (Some(nx), Some(ny)) => nx.partial_cmp(&ny).unwrap_or(Ordering::Equal),
                _ => x.cmp(y),
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use grdf_rdf::turtle;

    fn data() -> Graph {
        turtle::parse(
            r#"@prefix app: <http://grdf.org/app#> .
               @prefix grdf: <http://grdf.org/ontology#> .
               app:s1 a app:ChemSite ; app:hasSiteName "North Texas Energy" ; app:risk 7 .
               app:s2 a app:ChemSite ; app:hasSiteName "Trinity Chemical" ; app:risk 3 .
               app:s3 a app:Stream ; app:hasSiteName "White Rock Creek" .
               app:s1 app:near app:s3 .
            "#,
        )
        .unwrap()
    }

    #[test]
    fn basic_select() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?n WHERE { ?s a app:ChemSite ; app:hasSiteName ?n . }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 2);
    }

    #[test]
    fn join_across_patterns() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?sname ?tname WHERE {
               ?s app:near ?t .
               ?s app:hasSiteName ?sname .
               ?t app:hasSiteName ?tname .
             }",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["sname"], Term::string("North Texas Energy"));
        assert_eq!(rows[0]["tname"], Term::string("White Rock Creek"));
    }

    /// The unmasked join order of `patterns` with nothing bound yet.
    fn plan<'a>(g: &Graph, patterns: &'a [TriplePattern]) -> Vec<&'a TriplePattern> {
        let (pats, vars) = lower_bgp(g, patterns).expect("every constant is interned");
        plan_visible(&Source::new(g, None), &pats, vec![false; vars.len()])
            .into_iter()
            .map(|i| &patterns[i])
            .collect()
    }

    #[test]
    fn planner_orders_by_cardinality_not_text_order() {
        // Adversarial ordering: the textually-first pattern matches 60
        // triples, the textually-last matches one. Both have the same
        // bound-position count, so the old static heuristic kept text
        // order; the index-backed planner must put the rare one first.
        let mut g = Graph::new();
        let common = Term::iri("urn:p#common");
        let rare = Term::iri("urn:p#rare");
        for i in 0..60 {
            g.add(
                Term::iri(&format!("urn:s#{i}")),
                common.clone(),
                Term::iri(&format!("urn:o#{i}")),
            );
        }
        g.add(Term::iri("urn:s#7"), rare.clone(), Term::iri("urn:o#x"));
        let patterns = vec![
            TriplePattern::new(
                TermOrVar::var("s"),
                TermOrVar::Term(common.clone()),
                TermOrVar::var("o"),
            ),
            TriplePattern::new(
                TermOrVar::var("s"),
                TermOrVar::Term(rare.clone()),
                TermOrVar::var("v"),
            ),
        ];
        let order = plan(&g, &patterns);
        assert_eq!(
            order[0].predicate,
            TermOrVar::Term(rare),
            "most selective pattern must be joined first"
        );
        assert_eq!(order[1].predicate, TermOrVar::Term(common));
    }

    #[test]
    fn planner_prefers_connected_patterns_over_cheaper_cross_products() {
        let mut g = Graph::new();
        let rare = Term::iri("urn:p#rare");
        let mid = Term::iri("urn:p#mid");
        let tiny = Term::iri("urn:p#tiny-island");
        g.add(Term::iri("urn:s#1"), rare.clone(), Term::iri("urn:o#1"));
        for i in 0..10 {
            g.add(
                Term::iri(&format!("urn:s#{i}")),
                mid.clone(),
                Term::iri(&format!("urn:m#{i}")),
            );
        }
        g.add(Term::iri("urn:z#1"), tiny.clone(), Term::iri("urn:z#2"));
        g.add(Term::iri("urn:z#3"), tiny.clone(), Term::iri("urn:z#4"));
        // ?s rare ?o (1 triple) seeds; ?s mid ?m (10) shares ?s; the tiny
        // pattern (2 triples) is cheaper but shares no variable — picking
        // it second would force a cross product.
        let patterns = vec![
            TriplePattern::new(
                TermOrVar::var("s"),
                TermOrVar::Term(mid.clone()),
                TermOrVar::var("m"),
            ),
            TriplePattern::new(
                TermOrVar::var("a"),
                TermOrVar::Term(tiny.clone()),
                TermOrVar::var("b"),
            ),
            TriplePattern::new(
                TermOrVar::var("s"),
                TermOrVar::Term(rare.clone()),
                TermOrVar::var("o"),
            ),
        ];
        let order = plan(&g, &patterns);
        assert_eq!(order[0].predicate, TermOrVar::Term(rare));
        assert_eq!(
            order[1].predicate,
            TermOrVar::Term(mid),
            "connected pattern beats a cheaper disconnected one"
        );
        assert_eq!(order[2].predicate, TermOrVar::Term(tiny));
    }

    #[test]
    fn filter_numeric() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE { ?s app:risk ?r . FILTER(?r > 5) }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 1);
    }

    #[test]
    fn filter_string_builtins() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE { ?s app:hasSiteName ?n . FILTER(CONTAINS(?n, \"Creek\")) }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 1);
        let r2 = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE { ?s app:hasSiteName ?n . FILTER(STRSTARTS(?n, \"North\")) }",
        )
        .unwrap();
        assert_eq!(r2.select_rows().len(), 1);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s ?r WHERE { ?s app:hasSiteName ?n . OPTIONAL { ?s app:risk ?r } }",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().filter(|b| b.contains_key("r")).count(), 2);
    }

    #[test]
    fn union_combines() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE { { ?s a app:ChemSite } UNION { ?s a app:Stream } }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 3);
    }

    #[test]
    fn ask_true_false() {
        let g = data();
        assert_eq!(
            execute(
                &g,
                "PREFIX app: <http://grdf.org/app#> ASK { app:s1 a app:ChemSite }"
            )
            .unwrap()
            .as_bool(),
            Some(true)
        );
        assert_eq!(
            execute(
                &g,
                "PREFIX app: <http://grdf.org/app#> ASK { app:s1 a app:Stream }"
            )
            .unwrap()
            .as_bool(),
            Some(false)
        );
    }

    #[test]
    fn construct_builds_graph() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             CONSTRUCT { ?s app:label ?n } WHERE { ?s app:hasSiteName ?n }",
        )
        .unwrap();
        let g = r.into_graph().unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn order_limit_offset() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?n WHERE { ?s app:hasSiteName ?n } ORDER BY ?n LIMIT 2",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["n"], Term::string("North Texas Energy"));
        let r2 = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?n WHERE { ?s app:hasSiteName ?n } ORDER BY DESC(?n) OFFSET 1 LIMIT 1",
        )
        .unwrap();
        assert_eq!(r2.select_rows()[0]["n"], Term::string("Trinity Chemical"));
    }

    #[test]
    fn numeric_order_by() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?r WHERE { ?s app:risk ?r } ORDER BY DESC(?r)",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows[0]["r"].as_literal().unwrap().as_integer(), Some(7));
    }

    #[test]
    fn distinct_dedups() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT DISTINCT ?t WHERE { ?s a ?t }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 2);
    }

    #[test]
    fn select_star_collects_vars() {
        let r = execute(&data(), "SELECT * WHERE { ?s ?p ?o } LIMIT 1").unwrap();
        match r {
            QueryResult::Select { vars, rows } => {
                assert_eq!(vars, vec!["o", "p", "s"]);
                assert_eq!(rows.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spatial_filter_end_to_end() {
        use grdf_feature::feature::Feature;
        use grdf_feature::rdf_codec::encode_feature;
        use grdf_geometry::coord::Coord;
        use grdf_geometry::primitives::{LineString, Point};

        let mut g = Graph::new();
        let mut stream = Feature::new("urn:stream", "Stream");
        stream.set_geometry(
            LineString::new(vec![Coord::xy(0.0, 0.0), Coord::xy(50.0, 50.0)])
                .unwrap()
                .into(),
        );
        encode_feature(&mut g, &stream);
        let mut far_site = Feature::new("urn:far", "ChemSite");
        far_site.set_geometry(Point::new(500.0, 500.0).into());
        encode_feature(&mut g, &far_site);
        let mut near_site = Feature::new("urn:near", "ChemSite");
        near_site.set_geometry(Point::new(30.0, 20.0).into());
        encode_feature(&mut g, &near_site);

        let r = execute(
            &g,
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?f WHERE { ?f a app:ChemSite . FILTER(grdf:intersectsBox(?f, 0, 0, 100, 100)) }",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["f"], Term::iri("urn:near"));

        // Distance filter: the near site is within 60 of the stream.
        let r2 = execute(
            &g,
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?f WHERE {
               ?s a app:Stream . ?f a app:ChemSite .
               FILTER(grdf:distance(?f, ?s) < 60)
             }",
        )
        .unwrap();
        assert_eq!(r2.select_rows().len(), 1);
    }

    #[test]
    fn bound_filter() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE { ?s app:hasSiteName ?n . OPTIONAL { ?s app:risk ?r } FILTER(!BOUND(?r)) }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 1, "only the stream lacks risk");
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            execute(&data(), "NOT A QUERY"),
            Err(QueryError::Parse(_))
        ));
    }

    #[test]
    fn datetime_filters_compare_chronologically() {
        let g = turtle::parse(
            r#"@prefix app: <http://grdf.org/app#> .
               @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               app:o1 app:at "2026-07-06T08:00:00Z"^^xsd:dateTime .
               app:o2 app:at "2026-07-06T09:30:00Z"^^xsd:dateTime .
               app:o3 app:at "2026-07-05T23:00:00Z"^^xsd:dateTime .
            "#,
        )
        .unwrap();
        let r = execute(
            &g,
            r#"PREFIX app: <http://grdf.org/app#>
               PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
               SELECT ?o WHERE {
                 ?o app:at ?t .
                 FILTER(?t >= "2026-07-06T00:00:00Z"^^xsd:dateTime)
               }"#,
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 2, "only same-day observations");
    }

    #[test]
    fn count_star_and_count_var() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT (COUNT(*) AS ?n) WHERE { ?s a app:ChemSite }",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["n"], Term::integer(2));

        let r2 = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT (COUNT(DISTINCT ?t) AS ?kinds) WHERE { ?s a ?t }",
        )
        .unwrap();
        assert_eq!(r2.select_rows()[0]["kinds"], Term::integer(2));
    }

    #[test]
    fn sum_avg_min_max() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT (SUM(?r) AS ?total) (AVG(?r) AS ?mean) (MIN(?r) AS ?lo) (MAX(?r) AS ?hi)
             WHERE { ?s app:risk ?r }",
        )
        .unwrap();
        let row = &r.select_rows()[0];
        assert_eq!(row["total"].as_literal().unwrap().as_double(), Some(10.0));
        assert_eq!(row["mean"].as_literal().unwrap().as_double(), Some(5.0));
        assert_eq!(row["lo"].as_literal().unwrap().as_integer(), Some(3));
        assert_eq!(row["hi"].as_literal().unwrap().as_integer(), Some(7));
    }

    #[test]
    fn order_and_limit_apply_after_aggregation() {
        // Regression: LIMIT must bound the aggregated rows, not truncate
        // the solution multiset before grouping.
        let g = turtle::parse(
            r"@prefix e: <urn:e#> .
               e:o1 e:of e:g1 ; e:v 1 . e:o2 e:of e:g1 ; e:v 2 .
               e:o3 e:of e:g1 ; e:v 3 . e:o4 e:of e:g2 ; e:v 10 .
               e:o5 e:of e:g2 ; e:v 20 .
            ",
        )
        .unwrap();
        let r = execute(
            &g,
            "PREFIX e: <urn:e#>
             SELECT ?grp (COUNT(?o) AS ?n) (AVG(?v) AS ?mean)
             WHERE { ?o e:of ?grp ; e:v ?v }
             GROUP BY ?grp ORDER BY DESC(?mean) LIMIT 1",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["grp"], Term::iri("urn:e#g2"));
        assert_eq!(rows[0]["n"].as_literal().unwrap().as_integer(), Some(2));
        assert_eq!(
            rows[0]["mean"].as_literal().unwrap().as_double(),
            Some(15.0)
        );
    }

    #[test]
    fn group_by_partitions() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s a ?t } GROUP BY ?t ORDER BY DESC(?n)",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 2);
        let by_type: std::collections::HashMap<String, i64> = rows
            .iter()
            .map(|r| {
                (
                    r["t"].as_iri().unwrap().to_string(),
                    r["n"].as_literal().unwrap().as_integer().unwrap(),
                )
            })
            .collect();
        assert_eq!(by_type["http://grdf.org/app#ChemSite"], 2);
        assert_eq!(by_type["http://grdf.org/app#Stream"], 1);
    }

    fn river_graph() -> Graph {
        turtle::parse(
            r#"@prefix e: <urn:e#> .
               e:r1 e:flowsInto e:r2 . e:r2 e:flowsInto e:r3 . e:r3 e:flowsInto e:sea .
               e:r4 e:flowsInto e:r3 .
               e:r1 e:name "Headwater" . e:sea e:name "Gulf" .
               e:obsA e:observes e:r1 .
            "#,
        )
        .unwrap()
    }

    #[test]
    fn path_one_or_more_transitive() {
        let g = river_graph();
        let r = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT ?x WHERE { e:r1 e:flowsInto+ ?x }",
        )
        .unwrap();
        let mut got: Vec<&Term> = r.select_rows().iter().map(|b| &b["x"]).collect();
        got.sort();
        assert_eq!(got.len(), 3, "{got:?}"); // r2, r3, sea
        assert!(got.contains(&&Term::iri("urn:e#sea")));
        assert!(!got.contains(&&Term::iri("urn:e#r1")), "not reflexive");
    }

    #[test]
    fn path_zero_or_more_is_reflexive() {
        let g = river_graph();
        let r = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT ?x WHERE { e:r1 e:flowsInto* ?x }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 4); // r1 + 3 downstream
    }

    #[test]
    fn path_inverse() {
        let g = river_graph();
        let r = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT ?up WHERE { e:r3 ^e:flowsInto ?up }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 2); // r2 and r4
    }

    #[test]
    fn path_sequence_and_alternative() {
        let g = river_graph();
        // Name of whatever r2 flows into.
        let r = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT ?n WHERE { e:r3 e:flowsInto/e:name ?n }",
        )
        .unwrap();
        assert_eq!(r.select_rows()[0]["n"], Term::string("Gulf"));
        // Alternative: things related to r1 by either property.
        let r2 = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT ?x WHERE { ?x (e:observes|e:flowsInto) e:r1 }",
        )
        .unwrap();
        assert_eq!(r2.select_rows().len(), 1); // obsA observes r1; nothing flows into r1
    }

    #[test]
    fn path_bound_object_reverse_closure() {
        let g = river_graph();
        let r = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT ?src WHERE { ?src e:flowsInto+ e:sea }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 4, "every river reaches the sea");
    }

    #[test]
    fn path_composes_with_bgp() {
        let g = river_graph();
        // Which named feature is transitively downstream of r1?
        let r = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT ?n WHERE { e:r1 e:flowsInto+ ?x . ?x e:name ?n }",
        )
        .unwrap();
        assert_eq!(r.select_rows().len(), 1);
        assert_eq!(r.select_rows()[0]["n"], Term::string("Gulf"));
    }

    #[test]
    fn exists_and_not_exists() {
        // Streams with no risk assessment (NOT EXISTS) — the kind of
        // completeness probe middleware runs after aggregation.
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE {
               ?s app:hasSiteName ?n .
               FILTER(NOT EXISTS { ?s app:risk ?r })
             }",
        )
        .unwrap();
        let rows = r.select_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["s"], Term::iri("http://grdf.org/app#s3"));

        let r2 = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE {
               ?s app:hasSiteName ?n .
               FILTER(EXISTS { ?s app:near ?t })
             }",
        )
        .unwrap();
        assert_eq!(r2.select_rows().len(), 1);
        assert_eq!(
            r2.select_rows()[0]["s"],
            Term::iri("http://grdf.org/app#s1")
        );
    }

    #[test]
    fn exists_uses_outer_bindings() {
        // The inner pattern must be correlated with the outer ?s, not a
        // free-floating ask.
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT ?s WHERE {
               ?s a app:ChemSite .
               FILTER(NOT EXISTS { ?s app:near ?x })
             }",
        )
        .unwrap();
        // s1 is near s3; s2 is near nothing.
        assert_eq!(r.select_rows().len(), 1);
        assert_eq!(r.select_rows()[0]["s"], Term::iri("http://grdf.org/app#s2"));
    }

    #[test]
    fn min_max_compare_numerically_not_lexically() {
        let g = turtle::parse("@prefix e: <urn:e#> . e:a e:v 9.6 . e:b e:v 10.1 . e:c e:v 2.0 .")
            .unwrap();
        let r = execute(
            &g,
            "PREFIX e: <urn:e#> SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s e:v ?v }",
        )
        .unwrap();
        let row = &r.select_rows()[0];
        assert_eq!(row["lo"].as_literal().unwrap().as_double(), Some(2.0));
        assert_eq!(
            row["hi"].as_literal().unwrap().as_double(),
            Some(10.1),
            "lexical comparison would pick 9.6"
        );
    }

    #[test]
    fn empty_group_aggregates() {
        let r = execute(
            &data(),
            "PREFIX app: <http://grdf.org/app#>
             SELECT (COUNT(?s) AS ?n) WHERE { ?s a app:Nonexistent }",
        )
        .unwrap();
        assert_eq!(r.select_rows()[0]["n"], Term::integer(0));
    }

    #[test]
    fn projecting_ungrouped_vars_with_aggregates_is_an_error() {
        assert!(execute(&data(), "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o }",).is_err());
        assert!(execute(&data(), "SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s").is_err());
    }

    /// Ten sites bulk-loaded into one run (so the POS merge-join fast
    /// path is live), linked in a chain, each with a name, a secret and a
    /// point geometry; the mask hides every odd site and, on the even
    /// ones, the secret. Every operator that reads triples must answer
    /// exactly as over the visible subgraph, and the triples a request is
    /// charged for must depend on that subgraph alone: the same masked
    /// evaluation over the subgraph, everything shown, reads as many.
    #[test]
    fn masked_evaluation_equals_evaluation_over_the_visible_subgraph() {
        use grdf_rdf::labels::{SubjectLabels, VisBitset};
        let app = |l: &str| Term::iri(&format!("http://grdf.org/app#{l}"));
        let gr = |l: &str| Term::iri(&format!("http://grdf.org/ontology#{l}"));
        let mut triples = Vec::new();
        for i in 0..10 {
            let site = app(&format!("s{i}"));
            let geo = Term::blank(&format!("g{i}"));
            triples.push(Triple::new(
                site.clone(),
                Term::iri(grdf_rdf::vocab::rdf::TYPE),
                app("ChemSite"),
            ));
            triples.push(Triple::new(
                site.clone(),
                app("hasSiteName"),
                Term::string(&format!("Site {i}")),
            ));
            triples.push(Triple::new(site.clone(), app("secret"), Term::integer(i)));
            triples.push(Triple::new(
                site.clone(),
                app("near"),
                app(&format!("s{}", (i + 1) % 10)),
            ));
            triples.push(Triple::new(site, gr("hasGeometry"), geo.clone()));
            triples.push(Triple::new(
                geo,
                gr("asWKT"),
                Term::string(&format!("POINT ({i} {i})")),
            ));
        }
        // s0's geometry node is hidden below, while its bounding envelope,
        // far from its point, is shown: a window must follow the visible
        // fallback. A zone's envelope covers the points (0 0) to (5 5).
        let bounded = |f: Term, node: &str, coords: &str| {
            [
                Triple::new(f, gr("isBoundedBy"), Term::blank(node)),
                Triple::new(Term::blank(node), gr("coordinates"), Term::string(coords)),
            ]
        };
        triples.extend(bounded(app("s0"), "b0", "49,49 51,51"));
        triples.extend(bounded(app("zone"), "z", "-1,-1 5,5"));
        triples.push(Triple::new(
            app("zone"),
            Term::iri(grdf_rdf::vocab::rdf::TYPE),
            app("Zone"),
        ));
        let mut g = Graph::new();
        g.extend_triples(triples);
        let near = g.term_id(&app("near")).unwrap();
        assert!(g.pred_slices(near).is_some(), "merge path must be live");

        let mut shown = VisBitset::new(1);
        shown.set(0);
        let mut labels = SubjectLabels::new(1);
        let hidden_pred = labels.add_pred_class(|_| VisBitset::new(1));
        labels.set_pred(g.term_id(&app("secret")).unwrap(), hidden_pred);
        let visible = labels.add_class(vec![shown.clone(), VisBitset::new(1)]);
        for i in (0..10).step_by(2) {
            labels.set_subject(g.term_id(&app(&format!("s{i}"))).unwrap(), visible);
            if i > 0 {
                labels.set_subject(g.term_id(&Term::blank(&format!("g{i}"))).unwrap(), visible);
            }
        }
        for t in [app("zone"), Term::blank("z"), Term::blank("b0")] {
            labels.set_subject(g.term_id(&t).unwrap(), visible);
        }
        let mask = labels.mask(&shown);
        let mut subgraph = Graph::new();
        g.for_each_match(None, None, None, |t| {
            let (s, p) = (
                g.term_id(&t.subject).unwrap(),
                g.term_id(&t.predicate).unwrap(),
            );
            if mask.visible(s, p) {
                subgraph.insert(t);
            }
        });

        let mut open = SubjectLabels::new(1);
        let everything = open.add_class(vec![shown.clone()]);
        subgraph.for_each_match_ids(None, None, None, |s, _, _| {
            open.set_subject(s, everything);
        });
        let open_mask = open.mask(&shown);

        let prefix = "PREFIX app: <http://grdf.org/app#> PREFIX g: <http://grdf.org/ontology#> ";
        // Each query with the rows it must return, so that no case passes
        // by returning nothing on both sides.
        for (body, rows) in [
            ("SELECT ?s ?p ?o WHERE { ?s ?p ?o }", 29),
            ("SELECT ?a ?b WHERE { ?b app:hasSiteName \"Site 4\" . ?a app:near ?b }", 0),
            ("SELECT ?a ?n WHERE { ?a app:near ?b . ?b app:hasSiteName ?n }", 0),
            ("SELECT ?s ?v WHERE { ?s app:secret ?v }", 0),
            ("SELECT ?a ?c WHERE { ?a app:near/app:near ?c }", 0),
            ("SELECT ?a ?c WHERE { ?a app:near+ ?c }", 5),
            ("SELECT ?s WHERE { ?s a app:ChemSite . FILTER(EXISTS { ?s app:near ?x }) }", 5),
            ("SELECT ?s WHERE { ?s a app:ChemSite . OPTIONAL { ?s app:secret ?v } FILTER(!BOUND(?v)) }", 5),
            ("SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:intersectsBox(?s, 2.5, 2.5, 7.5, 7.5)) }", 2),
            // s0's point is hidden; its visible envelope lies at (50 50).
            ("SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:intersectsBox(?s, -0.5, -0.5, 0.5, 0.5)) }", 0),
            ("SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:intersectsBox(?s, 45, 45, 55, 55)) }", 1),
            ("SELECT ?s WHERE { ?s a app:ChemSite . ?z a app:Zone . FILTER(grdf:within(?s, ?z)) }", 2),
            ("SELECT ?s ?z WHERE { ?s a app:ChemSite . ?z a app:Zone . FILTER(grdf:distance(?s, ?z) < 4) }", 2),
            // The solution modifiers in SPARQL's order, with keys that
            // leave no ties for LIMIT to break.
            ("SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 2", 2),
            ("SELECT DISTINCT ?s WHERE { ?s a app:ChemSite . ?s ?p ?o } ORDER BY ?s OFFSET 1 LIMIT 2", 2),
            ("SELECT DISTINCT ?p WHERE { ?s ?p ?o } ORDER BY ?p OFFSET 2", 5),
            // A FILTER placed before the pattern that binds its variables.
            ("SELECT ?s WHERE { FILTER(?v > 2) ?s app:secret ?v }", 0),
            ("SELECT ?b WHERE { FILTER(CONTAINS(?n, \"4\")) ?a app:near ?b . ?a app:hasSiteName ?n }", 1),
            // Hidden matches must not decide the join order: whole-graph
            // counts tie these patterns, so input order would read the
            // visible one first although the hidden one empties the join.
            ("SELECT ?n WHERE { app:s0 app:hasSiteName ?n . ?x app:secret 3 }", 0),
            ("SELECT ?n WHERE { ?s app:hasSiteName ?n . ?s app:secret ?v }", 0),
            ("SELECT ?n WHERE { ?s a app:ChemSite . OPTIONAL { ?s app:hasSiteName ?n . ?s app:secret ?v } }", 5),
            // A variable some rows leave unbound: the later pattern joins
            // where it is bound and binds it where it is not.
            ("SELECT ?s ?t WHERE { ?s a ?c OPTIONAL { ?s g:hasGeometry ?t } ?t g:asWKT ?w }", 8),
            ("SELECT ?s ?t WHERE { { ?s a app:Zone } UNION { ?s g:hasGeometry ?t } ?t g:asWKT ?w }", 8),
        ] {
            let q = format!("{prefix}{body}");
            let (got, examined) = execute_masked(&g, &mask, &q, &Deadline::never()).unwrap();
            let want = execute(&subgraph, &q).unwrap();
            let canon = |r: &QueryResult| {
                let mut rows: Vec<String> =
                    r.select_rows().iter().map(|b| format!("{b:?}")).collect();
                rows.sort();
                rows
            };
            assert_eq!(canon(&got), canon(&want), "{body}");
            assert_eq!(got.select_rows().len(), rows, "{body}");
            let (_, charged) =
                execute_masked(&subgraph, &open_mask, &q, &Deadline::never()).unwrap();
            assert_eq!(examined, charged, "{body}: charge depends on hidden triples");
        }
    }
}
