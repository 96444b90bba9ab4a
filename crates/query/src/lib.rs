//! SPARQL-subset query engine over GRDF graphs.
//!
//! The paper's aggregation story ends at "middleware creates a layered view
//! by combining the two result-sets fetched from hydrology and chemical
//! site data stores" (§7.1) — which requires a query language over the
//! merged graph. No SPARQL engine exists in the allowed dependency set, so
//! this crate implements the needed subset:
//!
//! * `SELECT` (with `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET`), `ASK`, and
//!   `CONSTRUCT`;
//! * basic graph patterns with greedy most-selective-first join ordering;
//! * `FILTER` expressions (comparisons, arithmetic-free boolean algebra,
//!   `BOUND`, `STR`, `REGEX`-free `CONTAINS`/`STRSTARTS`);
//! * `OPTIONAL` (left join) and `UNION`;
//! * geospatial builtins evaluated against GRDF-encoded geometry:
//!   `grdf:intersectsBox(?f, x0, y0, x1, y1)`, `grdf:within(?f, ?g)` and
//!   `grdf:distance(?f, ?g)`.
//!
//! # Example
//!
//! ```
//! use grdf_query::execute;
//! use grdf_rdf::turtle;
//!
//! let g = turtle::parse(
//!     "@prefix app: <http://grdf.org/app#> .
//!      app:s1 a app:ChemSite ; app:hasSiteName \"NT Energy\" .",
//! ).unwrap();
//! let rows = execute(&g,
//!     "PREFIX app: <http://grdf.org/app#>
//!      SELECT ?name WHERE { ?s a app:ChemSite ; app:hasSiteName ?name . }",
//! ).unwrap();
//! assert_eq!(rows.select_rows().len(), 1);
//! ```

pub mod ast;
pub mod eval;
pub mod parser;
pub mod spatial;

pub use ast::{Expr, Pattern, Query, QueryKind, TermOrVar, TriplePattern};
pub use eval::{
    execute, execute_masked, execute_query, execute_query_with_deadline, execute_with_deadline,
    Bindings, QueryError, QueryResult,
};
