//! # orion-bench — the ICDE 2008 evaluation harness
//!
//! One module per figure of the paper's Section IV, plus shared reporting:
//!
//! * [`fig4`] — accuracy vs sample size (histogram vs discrete
//!   approximations of Gaussian pdfs under range queries);
//! * [`fig5`] — query performance of discretized pdfs over on-disk
//!   relations (runtime and physical reads vs tuple count);
//! * [`fig6`] — overhead of history maintenance for joins and projections.
//!
//! The binaries `fig4_accuracy`, `fig5_performance`, `fig6_history_overhead`
//! and `tables` regenerate every figure and table;
//! Criterion benches in `benches/` cover operator micro-costs and design
//! ablations.

pub mod fig4;
pub mod fig5;
pub mod fig5_index;
pub mod fig6;
pub mod parallel;
pub mod report;
