//! Deterministic fault injection for crash testing (`failpoints` feature).
//!
//! [`FaultyStore`] wraps any [`PageStore`] and injects faults from a
//! [`FaultPlan`] — a deterministic schedule keyed on the store's write and
//! read operation indices. Three fault shapes cover the failure modes the
//! durability layer must survive:
//!
//! * **`FailWrite`** — the write returns an I/O error and nothing reaches
//!   the inner store (a full device error).
//! * **`TornWrite`** — only a prefix of the page reaches the inner store;
//!   the tail is replaced with garbage, exactly what a power cut mid-write
//!   leaves behind. The page's CRC32 seal no longer matches, so a later
//!   read must detect it.
//! * **`BitFlipRead`** — the page is read intact but one bit is flipped on
//!   the way back (media bit rot). Again the seal catches it.
//!
//! After an injected *write* fault the store optionally **halts**: every
//! subsequent operation fails, simulating the process being killed at the
//! fault point. A crash-matrix harness iterates fault points, runs the
//! workload until the injected kill, then reopens the underlying store
//! cleanly and asserts recovery invariants.

use crate::file::{PageId, PageStore};
use crate::page::{Page, PAGE_SIZE};
use orion_obs::{json, Counter};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The write errors; the inner store is untouched.
    FailWrite,
    /// Only the first `keep` bytes of the page reach the inner store; the
    /// rest becomes garbage.
    TornWrite {
        /// Bytes of the page that survive.
        keep: usize,
    },
    /// Bit `bit` (0-based over the whole page) flips on read.
    BitFlipRead {
        /// Absolute bit index within the 8 KiB page.
        bit: usize,
    },
}

/// A deterministic schedule of faults keyed on operation indices.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    write_faults: BTreeMap<u64, Fault>,
    read_faults: BTreeMap<u64, Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Injects `FailWrite` at the `nth` write (0-based).
    pub fn fail_write(mut self, nth: u64) -> FaultPlan {
        self.write_faults.insert(nth, Fault::FailWrite);
        self
    }

    /// Injects a torn write keeping `keep` bytes at the `nth` write.
    pub fn torn_write(mut self, nth: u64, keep: usize) -> FaultPlan {
        self.write_faults.insert(nth, Fault::TornWrite { keep: keep.min(PAGE_SIZE) });
        self
    }

    /// Flips `bit` of the page returned by the `nth` read.
    pub fn flip_read(mut self, nth: u64, bit: usize) -> FaultPlan {
        self.read_faults.insert(nth, Fault::BitFlipRead { bit: bit % (PAGE_SIZE * 8) });
        self
    }

    /// A seeded pseudo-random schedule: roughly one write fault every
    /// `every` writes over `horizon` operations, alternating fail/torn
    /// shapes, plus occasional read bit-flips. The same seed always yields
    /// the same schedule, so failures reproduce exactly.
    pub fn seeded(seed: u64, horizon: u64, every: u64) -> FaultPlan {
        assert!(every > 0, "fault period must be positive");
        // Splitmix-style seed scrambling so nearby seeds diverge.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        state = (state ^ (state >> 31)) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut plan = FaultPlan::new();
        let mut kind = 0u64;
        for op in 0..horizon {
            if next() % every == 0 {
                match kind % 3 {
                    0 => plan.write_faults.insert(op, Fault::FailWrite),
                    1 => {
                        let keep = (next() as usize) % PAGE_SIZE;
                        plan.write_faults.insert(op, Fault::TornWrite { keep })
                    }
                    _ => {
                        let bit = (next() as usize) % (PAGE_SIZE * 8);
                        plan.read_faults.insert(op, Fault::BitFlipRead { bit })
                    }
                };
                kind += 1;
            }
        }
        plan
    }

    /// The write-operation indices carrying faults, in order — the crash
    /// matrix iterates these as kill points.
    pub fn write_fault_points(&self) -> Vec<u64> {
        self.write_faults.keys().copied().collect()
    }

    /// The read-operation indices carrying faults, in order.
    pub fn read_fault_points(&self) -> Vec<u64> {
        self.read_faults.keys().copied().collect()
    }
}

/// Counters describing what the store injected (exported to stats JSON).
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Total faults injected (all shapes).
    pub faults_injected: Counter,
    /// Writes that errored without touching the store.
    pub failed_writes: Counter,
    /// Writes that persisted only a prefix of the page.
    pub torn_writes: Counter,
    /// Reads with a bit flipped.
    pub read_bit_flips: Counter,
}

impl FaultStats {
    /// JSON form with one field per counter.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("faults_injected", self.faults_injected.get())
            .with("failed_writes", self.failed_writes.get())
            .with("torn_writes", self.torn_writes.get())
            .with("read_bit_flips", self.read_bit_flips.get())
    }
}

/// A [`PageStore`] wrapper executing a deterministic [`FaultPlan`].
pub struct FaultyStore<S: PageStore> {
    inner: S,
    plan: FaultPlan,
    writes: u64,
    reads: u64,
    halt_on_fault: bool,
    halted: bool,
    stats: Arc<FaultStats>,
}

impl<S: PageStore> FaultyStore<S> {
    /// Wraps `inner` with the given plan. By default the store halts
    /// (simulated kill) after any injected **write** fault.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStore<S> {
        FaultyStore {
            inner,
            plan,
            writes: 0,
            reads: 0,
            halt_on_fault: true,
            halted: false,
            stats: Arc::new(FaultStats::default()),
        }
    }

    /// Controls whether an injected write fault kills the store.
    pub fn halt_on_fault(mut self, halt: bool) -> FaultyStore<S> {
        self.halt_on_fault = halt;
        self
    }

    /// Handle to the injection counters.
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }

    /// Whether a simulated kill has occurred.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Write operations attempted so far.
    pub fn write_ops(&self) -> u64 {
        self.writes
    }

    /// Unwraps the inner store (post-crash inspection).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn dead() -> std::io::Error {
        std::io::Error::other("faulty store halted (simulated kill)")
    }
}

impl<S: PageStore> PageStore for FaultyStore<S> {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn read_page(&mut self, id: PageId, page: &mut Page) -> std::io::Result<()> {
        if self.halted {
            return Err(Self::dead());
        }
        let op = self.reads;
        self.reads += 1;
        self.inner.read_page(id, page)?;
        if let Some(Fault::BitFlipRead { bit }) = self.plan.read_faults.get(&op).copied() {
            self.stats.faults_injected.inc();
            self.stats.read_bit_flips.inc();
            page.bytes_mut()[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(())
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> std::io::Result<()> {
        if self.halted {
            return Err(Self::dead());
        }
        let op = self.writes;
        self.writes += 1;
        match self.plan.write_faults.get(&op).copied() {
            None => self.inner.write_page(id, page),
            Some(Fault::FailWrite) => {
                self.stats.faults_injected.inc();
                self.stats.failed_writes.inc();
                self.halted = self.halt_on_fault;
                Err(std::io::Error::other(format!("injected write failure at op {op}")))
            }
            Some(Fault::TornWrite { keep }) => {
                self.stats.faults_injected.inc();
                self.stats.torn_writes.inc();
                let mut torn = page.clone();
                for b in &mut torn.bytes_mut()[keep..] {
                    // Deterministic garbage standing in for stale sectors.
                    *b = 0xA5;
                }
                self.inner.write_page(id, &torn)?;
                self.halted = self.halt_on_fault;
                Err(std::io::Error::other(format!("injected torn write at op {op}")))
            }
            Some(Fault::BitFlipRead { .. }) => self.inner.write_page(id, page),
        }
    }

    fn allocate(&mut self) -> std::io::Result<PageId> {
        if self.halted {
            return Err(Self::dead());
        }
        self.inner.allocate()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.halted {
            return Err(Self::dead());
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemStore;

    fn sealed(content: &[u8]) -> Page {
        let mut p = Page::new();
        p.insert(content).unwrap();
        p.seal();
        p
    }

    #[test]
    fn plan_is_deterministic_for_a_seed() {
        let a = FaultPlan::seeded(42, 500, 50);
        let b = FaultPlan::seeded(42, 500, 50);
        assert_eq!(a.write_fault_points(), b.write_fault_points());
        assert_eq!(a.read_fault_points(), b.read_fault_points());
        assert!(!a.write_fault_points().is_empty(), "schedule not vacuous");
        let c = FaultPlan::seeded(43, 500, 50);
        assert_ne!(
            (a.write_fault_points(), a.read_fault_points()),
            (c.write_fault_points(), c.read_fault_points()),
            "different seed, different schedule"
        );
    }

    #[test]
    fn fail_write_halts_and_preserves_inner() {
        let mut inner = MemStore::new();
        let id = inner.allocate().unwrap();
        inner.write_page(id, &sealed(b"original")).unwrap();
        let mut faulty = FaultyStore::new(inner, FaultPlan::new().fail_write(0));
        assert!(faulty.write_page(id, &sealed(b"lost")).is_err());
        assert!(faulty.halted());
        assert!(faulty.write_page(id, &sealed(b"also lost")).is_err(), "halted store stays dead");
        assert_eq!(faulty.stats().failed_writes.get(), 1);
        let mut inner = faulty.into_inner();
        let mut p = Page::new();
        inner.read_page(id, &mut p).unwrap();
        assert_eq!(p.get(0), Some(&b"original"[..]), "failed write never touched the store");
    }

    #[test]
    fn torn_write_breaks_the_seal() {
        let mut inner = MemStore::new();
        let id = inner.allocate().unwrap();
        let mut faulty = FaultyStore::new(inner, FaultPlan::new().torn_write(0, 100));
        assert!(faulty.write_page(id, &sealed(b"torn")).is_err());
        assert_eq!(faulty.stats().torn_writes.get(), 1);
        let mut inner = faulty.into_inner();
        let mut p = Page::new();
        inner.read_page(id, &mut p).unwrap();
        assert!(!p.checksum_ok(), "torn page must fail verification");
    }

    #[test]
    fn read_bit_flip_breaks_the_seal_without_halting() {
        let mut inner = MemStore::new();
        let id = inner.allocate().unwrap();
        inner.write_page(id, &sealed(b"pristine")).unwrap();
        let mut faulty = FaultyStore::new(inner, FaultPlan::new().flip_read(0, 12345));
        let mut p = Page::new();
        faulty.read_page(id, &mut p).unwrap();
        assert!(!p.checksum_ok(), "flipped bit must fail verification");
        assert!(!faulty.halted());
        // The next read is clean.
        let mut q = Page::new();
        faulty.read_page(id, &mut q).unwrap();
        assert!(q.checksum_ok());
        assert_eq!(faulty.stats().read_bit_flips.get(), 1);
    }

    #[test]
    fn stats_json_lists_every_counter() {
        let stats = FaultStats::default();
        stats.faults_injected.add(3);
        stats.torn_writes.inc();
        let text = stats.to_json().to_string_compact();
        assert!(text.contains("\"faults_injected\":3"));
        assert!(text.contains("\"torn_writes\":1"));
        assert!(text.contains("\"failed_writes\":0"));
        assert!(text.contains("\"read_bit_flips\":0"));
    }
}
