//! # orion-core — the probabilistic relational model of Orion-RS
//!
//! This crate is the primary contribution of *"Database Support for
//! Probabilistic Attributes and Tuples"* (ICDE 2008), reproduced in Rust:
//! a relational model supporting **continuous and discrete** uncertainty at
//! the attribute and tuple level, consistent with and closed under
//! **possible worlds semantics** for selection, projection, and join.
//!
//! Structure, mapped to the paper:
//!
//! * [`schema`] — probabilistic schemas `(Σ, Δ)` with dependency sets and
//!   the closure Ω (Definitions in Section II-A / III-C).
//! * [`tuple`](mod@tuple) / [`relation`] — probabilistic tuples holding joint pdfs per
//!   dependency set, partial pdfs for maybe-tuples (Section II-B).
//! * [`history`] — the ancestor function `A(·)`, phantom nodes, and
//!   reference counting (Section II-C).
//! * [`collapse`] — the history-aware `product` of dependent pdfs
//!   (Section III-A) used to recombine after joins (Figure 3).
//! * [`select`] / [`project`] / [`join`] — the PWS-closed operators
//!   (Sections III-B/C/D), with symbolic floor fast paths.
//! * [`exec_par`] — the morsel-driven parallel executor: scoped-thread
//!   worker pool, pure reads stitched in input order, deterministic
//!   history-id reservation for bulk loads.
//! * [`threshold`] — operations on probability values (Section III-E).
//! * [`pws`] — a brute-force possible-worlds reference engine used to
//!   certify the operators against PWS on finite discrete inputs.
//! * [`monte_carlo`] — sampled-worlds conformance checking for continuous
//!   inputs, where exhaustive enumeration is impossible.
//! * [`agg`] — aggregation over uncertain attributes with exact
//!   convolution and continuous (Gaussian) approximation, the paper's
//!   motivating extension.
//! * [`persist`] / [`durable`] — atomic snapshots, a write-ahead log with
//!   fsync'd commits, and crash recovery that replays the WAL over the
//!   last good snapshot.
//! * [`txn`] — snapshot-isolation transactions (copy-on-write snapshot
//!   views, first-committer-wins validation, atomic all-or-nothing WAL
//!   commit).

pub mod agg;
pub mod batch;
pub mod collapse;
pub mod durable;
pub mod error;
pub mod exec_par;
pub mod history;
pub mod index;
pub mod interval_of_cmp;
pub mod join;
pub mod monte_carlo;
pub mod persist;
pub mod pindex;
pub mod plan;
pub mod plan_feedback;
pub mod predicate;
pub mod project;
pub mod pws;
pub mod relation;
pub mod schema;
pub mod select;
pub mod stats_catalog;
pub mod threshold;
pub mod tuple;
pub mod txn;
pub mod value;

/// Commonly used types, re-exported for ergonomic imports.
pub mod prelude {
    pub use crate::batch::ExecMode;
    pub use crate::collapse::{collapse_tuple, existence_prob, DEFAULT_RESOLUTION};
    pub use crate::durable::{check_invariants, ActiveTxnInfo, RecoveryReport, SharedDurableDb};
    pub use crate::error::{EngineError, Result as EngineResult};
    pub use crate::exec_par::{effective_threads, insert_batch, BulkRow, DEFAULT_MORSEL_SIZE};
    pub use crate::history::{Ancestors, HistoryRegistry, PdfId};
    pub use crate::join::{cross, join};
    pub use crate::pindex::{
        BuiltIndex, IndexCatalog, IndexDef, IndexHandle, IndexKind, PlannerMode,
    };
    pub use crate::plan::{AccessPlan, CostModel, Plan};
    pub use crate::plan_feedback::{q_error, FeedbackSummary, PlanFeedbackStore};
    pub use crate::predicate::{CmpOp, Predicate, Scalar};
    pub use crate::project::project;
    pub use crate::relation::Relation;
    pub use crate::schema::{closure, AttrId, Column, ColumnType, ProbSchema};
    pub use crate::select::{select, select_masked, ExecOptions};
    pub use crate::stats_catalog::{analyze_relation, StatsCatalog, TableStats};
    pub use crate::threshold::{threshold_attrs, threshold_pred, threshold_pred_masked};
    pub use crate::tuple::{PdfNode, ProbTuple};
    pub use crate::txn::Txn;
    pub use crate::value::Value;
    pub use orion_storage::{GroupCommitConfig, IoSnapshot, IoStats};
}
