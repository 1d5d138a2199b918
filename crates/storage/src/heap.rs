//! Heap files: unordered record storage over a buffer pool.

use crate::buffer::BufferPool;
use crate::file::{PageId, PageStore};

/// Physical address of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// Page containing the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// An append-oriented heap file of variable-length records.
pub struct HeapFile<S: PageStore> {
    pool: BufferPool<S>,
    /// Page currently accepting inserts (append-only fill strategy).
    tail: Option<PageId>,
}

impl<S: PageStore> HeapFile<S> {
    /// Creates a heap over `store` with a pool of `pool_pages` frames.
    pub fn new(store: S, pool_pages: usize) -> Self {
        HeapFile { pool: BufferPool::new(store, pool_pages), tail: None }
    }

    /// The underlying buffer pool (for stats and cache control).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.pool.page_count()
    }

    /// Writes every dirty page back and forces it to stable storage
    /// (flush + fsync) — the durability point for heap contents.
    pub fn sync(&self) -> std::io::Result<()> {
        self.pool.flush()?;
        self.pool.sync()
    }

    /// Appends a record, allocating pages as needed.
    pub fn insert(&mut self, record: &[u8]) -> std::io::Result<RecordId> {
        if let Some(pid) = self.tail {
            if let Some(slot) = self.pool.with_page_mut(pid, |p| p.insert(record))? {
                return Ok(RecordId { page: pid, slot: slot as u16 });
            }
        }
        let pid = self.pool.allocate()?;
        self.tail = Some(pid);
        let slot = self.pool.with_page_mut(pid, |p| p.insert(record))?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record of {} bytes exceeds page capacity", record.len()),
            )
        })?;
        Ok(RecordId { page: pid, slot: slot as u16 })
    }

    /// Reads one record (a copy), or `None` if deleted/absent.
    pub fn get(&self, rid: RecordId) -> std::io::Result<Option<Vec<u8>>> {
        self.pool.with_page(rid.page, |p| p.get(rid.slot as usize).map(|b| b.to_vec()))
    }

    /// Deletes one record; returns whether it existed.
    pub fn delete(&mut self, rid: RecordId) -> std::io::Result<bool> {
        self.pool.with_page_mut(rid.page, |p| p.delete(rid.slot as usize))
    }

    /// Full scan, invoking `f` for every live record. The visitor receives
    /// the record id and bytes; returning `false` stops the scan early.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8]) -> bool) -> std::io::Result<()> {
        let pages = self.pool.page_count();
        'outer: for pid in 0..pages {
            let stop = self.pool.with_page(pid, |p| {
                for slot in 0..p.slot_count() {
                    if let Some(rec) = p.get(slot) {
                        if !f(RecordId { page: pid, slot: slot as u16 }, rec) {
                            return true;
                        }
                    }
                }
                false
            })?;
            if stop {
                break 'outer;
            }
        }
        Ok(())
    }

    /// Full scan through the pool's scan-resistant bulk path: same visit
    /// order and semantics as [`HeapFile::scan`], but uncached pages stream
    /// through a scratch frame instead of faulting into the cache — no
    /// evictions, no LRU churn. Preferred for large analytic scans (the
    /// columnar batch executor's table access path).
    pub fn scan_bulk(&self, mut f: impl FnMut(RecordId, &[u8]) -> bool) -> std::io::Result<()> {
        self.pool.scan_pages(|pid, p| {
            for slot in 0..p.slot_count() {
                if let Some(rec) = p.get(slot) {
                    if !f(RecordId { page: pid, slot: slot as u16 }, rec) {
                        return false;
                    }
                }
            }
            true
        })
    }

    /// Number of live records (full scan).
    pub fn len(&self) -> std::io::Result<usize> {
        let mut n = 0;
        self.scan(|_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// Whether the heap holds no live records.
    pub fn is_empty(&self) -> std::io::Result<bool> {
        let mut any = false;
        self.scan(|_, _| {
            any = true;
            false
        })?;
        Ok(!any)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::MemStore;

    #[test]
    fn insert_get_delete() {
        let mut h = HeapFile::new(MemStore::new(), 4);
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap().unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap().unwrap(), b"beta");
        assert!(h.delete(a).unwrap());
        assert!(h.get(a).unwrap().is_none());
        assert!(!h.delete(a).unwrap());
        assert_eq!(h.len().unwrap(), 1);
    }

    #[test]
    fn spills_to_new_pages() {
        let mut h = HeapFile::new(MemStore::new(), 2);
        let rec = vec![7u8; 1000];
        for _ in 0..30 {
            h.insert(&rec).unwrap();
        }
        assert!(h.page_count() > 1);
        assert_eq!(h.len().unwrap(), 30);
    }

    #[test]
    fn scan_visits_in_insert_order_per_page() {
        let mut h = HeapFile::new(MemStore::new(), 4);
        for i in 0..10u8 {
            h.insert(&[i]).unwrap();
        }
        let mut seen = Vec::new();
        h.scan(|_, rec| {
            seen.push(rec[0]);
            true
        })
        .unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn scan_early_stop() {
        let mut h = HeapFile::new(MemStore::new(), 4);
        for i in 0..10u8 {
            h.insert(&[i]).unwrap();
        }
        let mut n = 0;
        h.scan(|_, _| {
            n += 1;
            n < 3
        })
        .unwrap();
        assert_eq!(n, 3);
        assert!(!h.is_empty().unwrap());
    }

    #[test]
    fn scan_bulk_matches_scan() {
        let mut h = HeapFile::new(MemStore::new(), 2);
        for i in 0..200u8 {
            h.insert(&[i, i.wrapping_mul(3)]).unwrap();
        }
        h.delete(RecordId { page: 0, slot: 1 }).unwrap();
        let collect = |bulk: bool| {
            let mut seen: Vec<(RecordId, Vec<u8>)> = Vec::new();
            let f = |rid: RecordId, rec: &[u8]| {
                seen.push((rid, rec.to_vec()));
                true
            };
            if bulk {
                h.scan_bulk(f).unwrap()
            } else {
                h.scan(f).unwrap()
            }
            seen
        };
        assert_eq!(collect(true), collect(false));
    }

    #[test]
    fn scan_bulk_early_stop() {
        let mut h = HeapFile::new(MemStore::new(), 4);
        for i in 0..10u8 {
            h.insert(&[i]).unwrap();
        }
        let mut n = 0;
        h.scan_bulk(|_, _| {
            n += 1;
            n < 3
        })
        .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn oversized_record_errors() {
        let mut h = HeapFile::new(MemStore::new(), 2);
        let err = h.insert(&vec![0u8; crate::page::PAGE_SIZE * 2]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
