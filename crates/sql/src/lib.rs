//! # orion-sql — SQL dialect for Orion-RS
//!
//! A small SQL front-end exposing the probabilistic model of the ICDE 2008
//! paper through familiar syntax, extended with:
//!
//! * `UNCERTAIN` column modifiers and `CORRELATED (a, b)` dependency groups
//!   in `CREATE TABLE` (the schema dependency information Δ);
//! * symbolic pdf constructors in `INSERT`: `GAUSSIAN(m, v)`,
//!   `UNIFORM(a, b)`, `POISSON(l)`, `BINOMIAL(n, p)`, `BERNOULLI(p)`,
//!   `GEOMETRIC(p)`, `EXPONENTIAL(r)`, generic `DISCRETE(v:p, ...)`,
//!   `HISTOGRAM(lo, width, m...)`, and correlated `JOINT((v1, v2):p, ...)`;
//! * `PROB(pred) > p` and `PROB(attrs) > p` threshold predicates
//!   (Section III-E);
//! * `EXPECTED(col)`, `VARIANCE(col)`, `MEDIAN(col)`, `QUANTILE(col, q)`
//!   and `PROB(pred)` select items, plus the `ECOUNT` / `ESUM` / `EAVG`
//!   aggregates (Gaussian-approximated, Section I);
//! * `UPDATE`, `DELETE`, `ORDER BY` (expectation order for uncertain
//!   columns), `LIMIT`, certain-only `DISTINCT`, and whole-database
//!   `save`/`open` persistence;
//! * `ANALYZE <table>` — collects per-column statistics (equi-depth
//!   histograms, cdf-bound summaries and per-tuple cdf sketches for
//!   uncertain columns, a tuple-existence histogram) into the session's
//!   stats catalog;
//! * read-only system virtual tables in the reserved `orion.` namespace
//!   (`orion.tables`, `orion.columns`, `orion.stats`, `orion.metrics`,
//!   `orion.txns`, `orion.indexes`, `orion.statements`,
//!   `orion.slow_queries`, `orion.plan_feedback`),
//!   queryable and joinable like any user table;
//! * `BEGIN` / `COMMIT` / `ROLLBACK` snapshot-isolation transactions on a
//!   durable engine via [`DurableSession`] (DML outside a transaction
//!   auto-commits with bounded conflict retry);
//! * `EXPLAIN [ANALYZE] SELECT ...` — the executed operator tree with
//!   planner cardinality estimates from the stats catalog (`est_rows`),
//!   and, under `ANALYZE`, per-operator tuple counts, estimate-vs-actual
//!   relative error, pdf-operation counts, and wall time (both forms
//!   execute the query).
//!
//! ```
//! use orion_sql::{Database, Output};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)").unwrap();
//! db.execute("INSERT INTO readings VALUES (1, GAUSSIAN(20, 5))").unwrap();
//! let out = db.execute("SELECT * FROM readings WHERE PROB(value BETWEEN 18 AND 22) > 0.5").unwrap();
//! match out {
//!     Output::Table(rel) => assert_eq!(rel.len(), 1),
//!     _ => unreachable!(),
//! }
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod lower;
pub mod parser;
pub mod render;
pub mod session;
pub mod token;

pub use error::{Result, SqlError};
pub use exec::{Database, Output};
pub use fingerprint::fingerprint;
pub use lower::lower;
pub use parser::parse;
pub use render::{render_output, render_relation};
pub use session::DurableSession;
