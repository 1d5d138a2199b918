//! # orion-storage — paged storage substrate for Orion-RS
//!
//! A from-scratch storage engine standing in for the PostgreSQL layer the
//! paper's Orion extension ran inside: 8 KiB slotted [`page::Page`]s,
//! on-disk/in-memory [`file::PageStore`] backends, a bounded LRU
//! [`buffer::BufferPool`] with physical-I/O counters, and append-oriented
//! [`heap::HeapFile`]s. The [`codec`] module packs pdf attribute values into
//! records, making the on-disk footprint of each representation (symbolic
//! vs histogram vs discrete) measurable — the cost model of the paper's
//! Figure 5.
//!
//! Durability layer: every page carries a CRC32 seal ([`checksum`],
//! [`page::Page::seal`]) verified by the buffer pool on fault-in, and the
//! [`wal`] module provides the length+CRC-framed write-ahead log the engine
//! commits through. With the `failpoints` feature, `faults::FaultyStore`
//! injects deterministic write/read faults for crash-matrix testing.

pub mod btree;
pub mod buffer;
pub mod checksum;
pub mod codec;
pub mod delta;
#[cfg(feature = "failpoints")]
pub mod faults;
pub mod file;
pub mod heap;
pub mod page;
pub mod wal;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use delta::DeltaFile;
#[cfg(feature = "failpoints")]
pub use faults::{Fault, FaultPlan, FaultyStore};
pub use file::{FileStore, IoSnapshot, IoStats, MemStore, PageId, PageStore};
pub use heap::{HeapFile, RecordId};
pub use page::{ChecksumMismatch, Page, PAGE_SIZE};
pub use wal::{GroupCommitConfig, GroupWal, Wal, WalReplay, WalStats};
