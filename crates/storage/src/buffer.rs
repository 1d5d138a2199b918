//! A bounded LRU buffer pool over a [`PageStore`], with I/O accounting and
//! integrity enforcement.
//!
//! The pool is the cost model for Figure 5: wider tuples (discrete-25 vs
//! histogram-5 vs symbolic pdfs) occupy more pages, overflow the pool
//! sooner, and incur more physical reads.
//!
//! It is also the integrity choke point: every page is [`Page::seal`]ed
//! (CRC32-stamped) immediately before write-back and verified when faulted
//! in. A failed verification surfaces as an `InvalidData` error carrying
//! [`ChecksumMismatch`] and bumps the `torn_pages` counter. A failed
//! dirty-page write **keeps the frame dirty and cached** — the pool never
//! drops unpersisted data on an I/O error; the caller may retry.

use crate::file::{IoStats, PageId, PageStore};
use crate::page::{ChecksumMismatch, Page};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct Frame {
    page: Page,
    dirty: bool,
    /// Monotonic access stamp for LRU eviction.
    last_used: u64,
}

struct PoolInner<S: PageStore> {
    store: S,
    frames: HashMap<PageId, Frame>,
    capacity: usize,
    clock: u64,
}

/// A buffer pool caching up to `capacity` pages of a single store.
pub struct BufferPool<S: PageStore> {
    inner: Mutex<PoolInner<S>>,
    stats: Arc<IoStats>,
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `store` with a pool of `capacity` page frames (>= 1).
    pub fn new(store: S, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs >= 1 frame");
        BufferPool {
            inner: Mutex::new(PoolInner {
                store,
                frames: HashMap::with_capacity(capacity),
                capacity,
                clock: 0,
            }),
            stats: Arc::new(IoStats::default()),
        }
    }

    /// Handle to the pool's [`IoStats`] (orion-obs atomic counters):
    /// physical page reads/writes, cache hits/misses, and evictions. The
    /// `Arc` stays live across `reset()` calls, so callers can hold it for
    /// the lifetime of the pool and snapshot per measurement phase.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Number of allocated pages in the underlying store.
    pub fn page_count(&self) -> u32 {
        self.inner.lock().store.page_count()
    }

    /// Allocates a fresh page and caches it.
    pub fn allocate(&self) -> std::io::Result<PageId> {
        let mut g = self.inner.lock();
        let id = g.store.allocate()?;
        self.stats.physical_writes.inc();
        let stamp = Self::bump(&mut g);
        self.make_room(&mut g)?;
        g.frames.insert(id, Frame { page: Page::new(), dirty: false, last_used: stamp });
        Ok(id)
    }

    fn bump(g: &mut PoolInner<S>) -> u64 {
        g.clock += 1;
        g.clock
    }

    fn make_room(&self, g: &mut PoolInner<S>) -> std::io::Result<()> {
        let stats = &self.stats;
        while g.frames.len() >= g.capacity {
            let Some(victim) = g.frames.iter().min_by_key(|(_, f)| f.last_used).map(|(&id, _)| id)
            else {
                break;
            };
            let Some(mut frame) = g.frames.remove(&victim) else { break };
            if frame.dirty {
                frame.page.seal();
                if let Err(e) = g.store.write_page(victim, &frame.page) {
                    // Keep the data: the frame goes back in, still dirty, so
                    // a later eviction (or flush) retries the write.
                    stats.write_errors.inc();
                    g.frames.insert(victim, frame);
                    return Err(e);
                }
                stats.physical_writes.inc();
            }
            stats.evictions.inc();
        }
        Ok(())
    }

    /// Verifies the seal of a page faulted in from the store.
    fn verify(stats: &IoStats, id: PageId, page: &Page) -> std::io::Result<()> {
        if page.checksum_ok() {
            return Ok(());
        }
        stats.torn_pages.inc();
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ChecksumMismatch {
                page: id,
                stored: page.stored_checksum(),
                computed: page.compute_checksum(),
            },
        ))
    }

    /// Runs `f` with read access to page `id`, faulting it in if needed.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> std::io::Result<R> {
        let mut g = self.inner.lock();
        let stamp = Self::bump(&mut g);
        if let Some(frame) = g.frames.get_mut(&id) {
            frame.last_used = stamp;
            self.stats.cache_hits.inc();
            return Ok(f(&frame.page));
        }
        self.stats.cache_misses.inc();
        self.make_room(&mut g)?;
        let mut page = Page::new();
        g.store.read_page(id, &mut page)?;
        self.stats.physical_reads.inc();
        Self::verify(&self.stats, id, &page)?;
        let r = f(&page);
        g.frames.insert(id, Frame { page, dirty: false, last_used: stamp });
        Ok(r)
    }

    /// Sequential bulk scan: visits every allocated page in id order,
    /// stopping early when `f` returns `false`.
    ///
    /// This is the scan-resistant access path used by the columnar batch
    /// executor. Cached frames are served from the pool (they may be newer
    /// than the on-disk image); uncached pages stream through one reusable
    /// scratch frame and **never enter the cache** — a large cold scan does
    /// no evictions, no LRU maintenance, and cannot wash the working set
    /// out of the pool. Misses still verify checksums and count as
    /// `cache_misses`/`physical_reads`; served frames count as
    /// `cache_hits` but do not bump the LRU clock (a scan touch is not a
    /// signal of reuse).
    pub fn scan_pages(&self, mut f: impl FnMut(PageId, &Page) -> bool) -> std::io::Result<()> {
        let mut g = self.inner.lock();
        let pages = g.store.page_count();
        // Runs of uncached pages are fetched `SCAN_RUN` at a time through
        // one multi-page read (amortizing per-page syscall cost), reusing
        // this scratch window across the whole scan.
        const SCAN_RUN: u32 = 32;
        let mut scratch: Vec<Page> = Vec::new();
        let mut id = 0;
        while id < pages {
            if let Some(frame) = g.frames.get(&id) {
                self.stats.cache_hits.inc();
                if !f(id, &frame.page) {
                    return Ok(());
                }
                id += 1;
                continue;
            }
            let mut end = id + 1;
            while end < pages && end - id < SCAN_RUN && !g.frames.contains_key(&end) {
                end += 1;
            }
            let n = (end - id) as usize;
            if scratch.len() < n {
                scratch.resize_with(n, Page::new);
            }
            g.store.read_pages(id, &mut scratch[..n])?;
            self.stats.cache_misses.add(n as u64);
            self.stats.physical_reads.add(n as u64);
            for (k, page) in scratch[..n].iter().enumerate() {
                let pid = id + k as PageId;
                Self::verify(&self.stats, pid, page)?;
                if !f(pid, page) {
                    return Ok(());
                }
            }
            id = end;
        }
        Ok(())
    }

    /// Runs `f` with write access to page `id`, marking it dirty.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> std::io::Result<R> {
        let mut g = self.inner.lock();
        let stamp = Self::bump(&mut g);
        if let Some(frame) = g.frames.get_mut(&id) {
            frame.last_used = stamp;
            frame.dirty = true;
            self.stats.cache_hits.inc();
            return Ok(f(&mut frame.page));
        }
        self.stats.cache_misses.inc();
        self.make_room(&mut g)?;
        let mut page = Page::new();
        g.store.read_page(id, &mut page)?;
        self.stats.physical_reads.inc();
        Self::verify(&self.stats, id, &page)?;
        let r = f(&mut page);
        g.frames.insert(id, Frame { page, dirty: true, last_used: stamp });
        Ok(r)
    }

    /// Writes all dirty frames back to the store. On a write error the
    /// failing frame — and every frame not yet visited — **stays dirty**,
    /// so no unpersisted data is lost and the flush can be retried.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut g = self.inner.lock();
        let dirty: Vec<PageId> =
            g.frames.iter().filter(|(_, f)| f.dirty).map(|(&id, _)| id).collect();
        for id in dirty {
            let Some(frame) = g.frames.get_mut(&id) else { continue };
            frame.page.seal();
            let page = frame.page.clone();
            if let Err(e) = g.store.write_page(id, &page) {
                self.stats.write_errors.inc();
                return Err(e);
            }
            if let Some(frame) = g.frames.get_mut(&id) {
                frame.dirty = false;
            }
            self.stats.physical_writes.inc();
        }
        Ok(())
    }

    /// Forces the underlying store to stable storage (fsync for file
    /// backends). Call after [`BufferPool::flush`] for durability.
    pub fn sync(&self) -> std::io::Result<()> {
        self.inner.lock().store.sync()
    }

    /// Drops every cached frame (flushing dirty ones), so subsequent reads
    /// hit the backend — used by benchmarks to measure cold scans.
    pub fn clear_cache(&self) -> std::io::Result<()> {
        self.flush()?;
        self.inner.lock().frames.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemStore;

    #[test]
    fn hit_and_miss_accounting() {
        let pool = BufferPool::new(MemStore::new(), 4);
        let id = pool.allocate().unwrap();
        pool.with_page_mut(id, |p| {
            p.insert(b"x").unwrap();
        })
        .unwrap();
        let snap = pool.stats().snapshot();
        assert_eq!(snap.physical_reads, 0, "allocate caches the page");
        pool.with_page(id, |p| assert!(p.get(0).is_some())).unwrap();
        let snap = pool.stats().snapshot();
        assert!(snap.cache_hits >= 2);
    }

    #[test]
    fn eviction_writes_dirty_pages() {
        let pool = BufferPool::new(MemStore::new(), 2);
        let ids: Vec<_> = (0..4).map(|_| pool.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| {
                p.insert(format!("rec{i}").as_bytes()).unwrap();
            })
            .unwrap();
        }
        // Reading the first page again must fault it in with its data intact.
        pool.with_page(ids[0], |p| {
            assert_eq!(p.get(0), Some(&b"rec0"[..]));
        })
        .unwrap();
        let snap = pool.stats().snapshot();
        assert!(snap.physical_reads >= 1);
        assert!(snap.evictions >= 2, "pool of 2 held 4 pages");
        assert_eq!(snap.cache_misses, snap.physical_reads);
    }

    #[test]
    fn clear_cache_forces_cold_reads() {
        let pool = BufferPool::new(MemStore::new(), 8);
        let id = pool.allocate().unwrap();
        pool.with_page_mut(id, |p| {
            p.insert(b"cold").unwrap();
        })
        .unwrap();
        pool.clear_cache().unwrap();
        pool.stats().reset();
        pool.with_page(id, |p| {
            assert_eq!(p.get(0), Some(&b"cold"[..]));
        })
        .unwrap();
        let snap = pool.stats().snapshot();
        assert_eq!(snap.physical_reads, 1);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn scan_pages_serves_dirty_frames_and_skips_cache() {
        // Pool of 2 frames over 4 pages; page 3 is dirty in cache (newer
        // than disk). The bulk scan must see the cached version, read the
        // rest from the store, and leave the cache untouched.
        let pool = BufferPool::new(MemStore::new(), 2);
        let ids: Vec<_> = (0..4).map(|_| pool.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.with_page_mut(id, |p| {
                p.insert(format!("rec{i}").as_bytes()).unwrap();
            })
            .unwrap();
        }
        // Flush disk copies, then mutate page 3 in cache only.
        pool.flush().unwrap();
        pool.with_page_mut(3, |p| {
            p.insert(b"newer").unwrap();
        })
        .unwrap();
        pool.stats().reset();
        let mut seen: Vec<(PageId, usize)> = Vec::new();
        pool.scan_pages(|id, p| {
            seen.push((id, (0..p.slot_count()).filter(|&s| p.get(s).is_some()).count()));
            if id == 3 {
                assert_eq!(p.get(1), Some(&b"newer"[..]), "cached dirty frame served");
            }
            true
        })
        .unwrap();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[3].1, 2, "dirty in-cache mutation visible");
        let snap = pool.stats().snapshot();
        assert_eq!(snap.evictions, 0, "bulk scan never evicts");
        assert_eq!(snap.cache_misses, snap.physical_reads);
        assert!(snap.cache_hits >= 1, "cached frames served from the pool");
        // The scratch reads did not displace the cached frames.
        assert_eq!(pool.inner.lock().frames.len(), 2);
    }

    #[test]
    fn scan_pages_early_stop() {
        let pool = BufferPool::new(MemStore::new(), 2);
        for _ in 0..4 {
            pool.allocate().unwrap();
        }
        pool.clear_cache().unwrap();
        let mut n = 0;
        pool.scan_pages(|_, _| {
            n += 1;
            n < 2
        })
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn scan_pages_detects_torn_pages() {
        let mut store = MemStore::new();
        let id = store.allocate().unwrap();
        let mut page = Page::new();
        page.insert(b"torn").unwrap();
        page.seal();
        page.bytes_mut()[4000] ^= 0xFF;
        store.write_page(id, &page).unwrap();
        let pool = BufferPool::new(store, 4);
        let err = pool.scan_pages(|_, _| true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(pool.stats().snapshot().torn_pages, 1);
    }

    /// A store whose next `fail_writes` page writes return an error —
    /// always-on coverage for the pool's no-data-loss contract (the full
    /// `FaultyStore` lives behind the `failpoints` feature).
    struct FlakyStore {
        inner: MemStore,
        fail_writes: u32,
    }

    impl PageStore for FlakyStore {
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }

        fn read_page(&mut self, id: PageId, page: &mut Page) -> std::io::Result<()> {
            self.inner.read_page(id, page)
        }

        fn write_page(&mut self, id: PageId, page: &Page) -> std::io::Result<()> {
            if self.fail_writes > 0 {
                self.fail_writes -= 1;
                return Err(std::io::Error::other("injected write failure"));
            }
            self.inner.write_page(id, page)
        }

        fn allocate(&mut self) -> std::io::Result<PageId> {
            self.inner.allocate()
        }
    }

    #[test]
    fn failed_eviction_keeps_frame_dirty_and_retries() {
        let pool = BufferPool::new(FlakyStore { inner: MemStore::new(), fail_writes: 0 }, 2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.with_page_mut(a, |p| {
            p.insert(b"keep me").unwrap();
        })
        .unwrap();
        pool.with_page_mut(b, |p| {
            p.insert(b"and me").unwrap();
        })
        .unwrap();
        // Arm one write failure, then force an eviction: it must error
        // without losing the victim's data.
        pool.inner.lock().store.fail_writes = 1;
        assert!(pool.allocate().is_err(), "eviction write fails");
        let snap = pool.stats().snapshot();
        assert_eq!(snap.write_errors, 1);
        // The fault has cleared; the retry evicts successfully and both
        // records survive — nothing was dropped during the failed attempt.
        let c = pool.allocate().unwrap();
        let _ = c;
        pool.with_page(a, |p| assert_eq!(p.get(0), Some(&b"keep me"[..]))).unwrap();
        pool.with_page(b, |p| assert_eq!(p.get(0), Some(&b"and me"[..]))).unwrap();
        let snap = pool.stats().snapshot();
        assert_eq!(snap.write_errors, 1);
        // Every counted eviction corresponds to a completed write-back or a
        // clean drop; the failed attempt counted only as a write error.
        assert!(snap.evictions >= 1);
    }

    #[test]
    fn failed_flush_keeps_pages_dirty_for_retry() {
        let pool = BufferPool::new(FlakyStore { inner: MemStore::new(), fail_writes: 0 }, 4);
        let id = pool.allocate().unwrap();
        pool.with_page_mut(id, |p| {
            p.insert(b"durable?").unwrap();
        })
        .unwrap();
        pool.inner.lock().store.fail_writes = 1;
        assert!(pool.flush().is_err());
        assert_eq!(pool.stats().snapshot().write_errors, 1);
        // Retry after the fault clears: the frame was still dirty, so the
        // record reaches the store this time.
        pool.flush().unwrap();
        pool.clear_cache().unwrap();
        pool.with_page(id, |p| assert_eq!(p.get(0), Some(&b"durable?"[..]))).unwrap();
    }

    #[test]
    fn torn_page_read_is_detected_and_counted() {
        let mut store = MemStore::new();
        let id = store.allocate().unwrap();
        let mut page = Page::new();
        page.insert(b"will be torn").unwrap();
        page.seal();
        // Corrupt one byte after sealing — a torn/bit-rotted page image.
        page.bytes_mut()[4000] ^= 0xFF;
        store.write_page(id, &page).unwrap();
        let pool = BufferPool::new(store, 4);
        let err = pool.with_page(id, |_| ()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.get_ref().is_some_and(|r| r.downcast_ref::<ChecksumMismatch>().is_some()));
        assert_eq!(pool.stats().snapshot().torn_pages, 1);
    }

    #[test]
    fn lru_keeps_hot_page() {
        let pool = BufferPool::new(MemStore::new(), 2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        let c = pool.allocate().unwrap();
        let _ = b;
        // Touch `a` so `b` is the LRU victim when `c` was cached.
        pool.with_page(a, |_| ()).unwrap();
        pool.stats().reset();
        pool.with_page(a, |_| ()).unwrap();
        pool.with_page(c, |_| ()).unwrap();
        let snap = pool.stats().snapshot();
        assert_eq!(snap.physical_reads + snap.cache_hits, 2);
    }
}
