//! Page-granular storage backends: on-disk files and in-memory stores.

use crate::page::{Page, PAGE_SIZE};
use orion_obs::{json, Counter};
use std::fs::{File, OpenOptions};
#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Identifies a page within one storage unit.
pub type PageId = u32;

/// Physical I/O counters, shared by backends and the buffer pool.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Pages read from the backend (buffer-pool misses).
    pub physical_reads: Counter,
    /// Pages written to the backend (evictions + flushes).
    pub physical_writes: Counter,
    /// Page requests served from the buffer pool.
    pub cache_hits: Counter,
    /// Page requests that missed the pool and faulted a page in.
    pub cache_misses: Counter,
    /// Frames evicted from the pool to make room.
    pub evictions: Counter,
    /// Pages whose CRC32 seal failed verification on read (torn writes).
    pub torn_pages: Counter,
    /// Page writes that returned an I/O error (the frame stays dirty).
    pub write_errors: Counter,
    /// Pages written by checkpoints (the size of each new snapshot).
    pub ckpt_pages_copied: Counter,
}

impl IoStats {
    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.physical_reads.reset();
        self.physical_writes.reset();
        self.cache_hits.reset();
        self.cache_misses.reset();
        self.evictions.reset();
        self.torn_pages.reset();
        self.write_errors.reset();
        self.ckpt_pages_copied.reset();
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads.get(),
            physical_writes: self.physical_writes.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            evictions: self.evictions.get(),
            torn_pages: self.torn_pages.get(),
            write_errors: self.write_errors.get(),
            ckpt_pages_copied: self.ckpt_pages_copied.get(),
        }
    }
}

/// Plain-data copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub physical_reads: u64,
    pub physical_writes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub torn_pages: u64,
    pub write_errors: u64,
    pub ckpt_pages_copied: u64,
}

impl IoSnapshot {
    /// JSON form with one field per counter (for the bench exporters).
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("physical_reads", self.physical_reads)
            .with("physical_writes", self.physical_writes)
            .with("cache_hits", self.cache_hits)
            .with("cache_misses", self.cache_misses)
            .with("evictions", self.evictions)
            .with("torn_pages", self.torn_pages)
            .with("write_errors", self.write_errors)
            .with("ckpt_pages_copied", self.ckpt_pages_copied)
    }
}

/// A backend that stores fixed-size pages addressed by [`PageId`].
///
/// Pages handed to `write_page` are expected to carry a valid CRC32 seal
/// (the buffer pool stamps one before every write-back); `read_page`
/// returns raw bytes and leaves verification to the caller.
pub trait PageStore: Send {
    /// Number of allocated pages.
    fn page_count(&self) -> u32;
    /// Reads page `id` into `page`.
    fn read_page(&mut self, id: PageId, page: &mut Page) -> std::io::Result<()>;
    /// Reads the consecutive run `first .. first + out.len()` of allocated
    /// pages, one per element of `out`. Backends with positional I/O serve
    /// the whole run with a single read (the bulk-scan fast path); the
    /// default loops [`PageStore::read_page`].
    fn read_pages(&mut self, first: PageId, out: &mut [Page]) -> std::io::Result<()> {
        for (k, page) in out.iter_mut().enumerate() {
            self.read_page(first + k as PageId, page)?;
        }
        Ok(())
    }
    /// Writes `page` at `id` (which must be allocated).
    fn write_page(&mut self, id: PageId, page: &Page) -> std::io::Result<()>;
    /// Allocates a fresh zeroed page, returning its id.
    fn allocate(&mut self) -> std::io::Result<PageId>;
    /// Forces previously written pages to stable storage (fsync). In-memory
    /// backends are durable-by-definition, so the default is a no-op.
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An on-disk page store backed by a single file.
pub struct FileStore {
    file: File,
    pages: u32,
    /// Reusable flat buffer for multi-page run reads (`read_pages`).
    scratch: Vec<u8>,
}

impl FileStore {
    /// Creates (truncating) a page file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FileStore { file, pages: 0, scratch: Vec::new() })
    }

    /// Opens an existing page file.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(FileStore { file, pages: (len / PAGE_SIZE as u64) as u32, scratch: Vec::new() })
    }
}

impl PageStore for FileStore {
    fn page_count(&self) -> u32 {
        self.pages
    }

    /// Reads page `id` **into the caller's buffer** (positional read on
    /// unix: one syscall, no seek, no intermediate allocation — the
    /// buffer-pool fault path and the bulk scan's scratch frame both reuse
    /// one `Page`). On error the buffer contents are unspecified; callers
    /// discard the page.
    fn read_page(&mut self, id: PageId, page: &mut Page) -> std::io::Result<()> {
        let offset = id as u64 * PAGE_SIZE as u64;
        // A short read of an *allocated* page means the file shrank under
        // us — a torn/lost write of the tail page. Report it as integrity
        // failure (`InvalidData`, like a checksum mismatch) so the engine
        // classifies it as corruption, not as a bare EOF.
        let torn = |e: std::io::Error| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("torn page {id}: short read of an allocated page"),
                )
            } else {
                e
            }
        };
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(page.bytes_mut(), offset).map_err(torn)
        }
        #[cfg(not(unix))]
        {
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(page.bytes_mut()).map_err(torn)
        }
    }

    /// Serves a whole run with **one** positional read into a reusable flat
    /// buffer, then splits it into the callers' pages — the bulk scan's way
    /// of amortizing syscall cost over dozens of pages. A short read falls
    /// back to the per-page loop so the torn-page error names the exact
    /// page, same as single reads.
    #[cfg(unix)]
    fn read_pages(&mut self, first: PageId, out: &mut [Page]) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        if out.len() < 2 {
            return match out.first_mut() {
                Some(page) => self.read_page(first, page),
                None => Ok(()),
            };
        }
        let bytes = out.len() * PAGE_SIZE;
        self.scratch.resize(bytes, 0);
        let offset = first as u64 * PAGE_SIZE as u64;
        match self.file.read_exact_at(&mut self.scratch[..bytes], offset) {
            Ok(()) => {
                for (page, chunk) in out.iter_mut().zip(self.scratch.chunks_exact(PAGE_SIZE)) {
                    page.bytes_mut().copy_from_slice(chunk);
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                for (k, page) in out.iter_mut().enumerate() {
                    self.read_page(first + k as PageId, page)?;
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> std::io::Result<()> {
        let offset = id as u64 * PAGE_SIZE as u64;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(page.bytes(), offset)
        }
        #[cfg(not(unix))]
        {
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.write_all(page.bytes())
        }
    }

    fn allocate(&mut self) -> std::io::Result<PageId> {
        let id = self.pages;
        let mut fresh = Page::new();
        fresh.seal();
        self.write_page(id, &fresh)?;
        self.pages += 1;
        Ok(id)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// An in-memory page store (tests and small catalogs).
#[derive(Default)]
pub struct MemStore {
    pages: Vec<Page>,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemStore {
    fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn read_page(&mut self, id: PageId, page: &mut Page) -> std::io::Result<()> {
        match self.pages.get(id as usize) {
            Some(p) => {
                // Fill the caller's buffer in place (no per-read allocation),
                // mirroring the `FileStore` positional-read contract.
                page.bytes_mut().copy_from_slice(p.bytes());
                Ok(())
            }
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("page {id} not allocated"),
            )),
        }
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> std::io::Result<()> {
        match self.pages.get_mut(id as usize) {
            Some(p) => {
                *p = page.clone();
                Ok(())
            }
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("page {id} not allocated"),
            )),
        }
    }

    fn allocate(&mut self) -> std::io::Result<PageId> {
        let mut fresh = Page::new();
        fresh.seal();
        self.pages.push(fresh);
        Ok(self.pages.len() as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_round_trip() {
        let mut s = MemStore::new();
        let id = s.allocate().unwrap();
        let mut p = Page::new();
        p.insert(b"record").unwrap();
        s.write_page(id, &p).unwrap();
        let mut q = Page::new();
        s.read_page(id, &mut q).unwrap();
        assert_eq!(q.get(0), Some(&b"record"[..]));
        assert_eq!(s.page_count(), 1);
        assert!(s.read_page(9, &mut q).is_err());
        assert!(s.write_page(9, &p).is_err());
    }

    #[test]
    fn file_store_round_trip() {
        let dir = orion_obs::scratch_dir("storage-test");
        let path = dir.join("pages.dat");
        let mut s = FileStore::create(&path).unwrap();
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        assert_eq!((a, b), (0, 1));
        let mut p = Page::new();
        p.insert(b"on disk").unwrap();
        s.write_page(b, &p).unwrap();
        drop(s);
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.page_count(), 2);
        let mut q = Page::new();
        s.read_page(b, &mut q).unwrap();
        assert_eq!(q.get(0), Some(&b"on disk"[..]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_pages_matches_single_reads() {
        let dir = orion_obs::scratch_dir("storage-test");
        let path = dir.join("runs.dat");
        let mut s = FileStore::create(&path).unwrap();
        for i in 0..7u8 {
            let id = s.allocate().unwrap();
            let mut p = Page::new();
            p.insert(&[i; 16]).unwrap();
            s.write_page(id, &p).unwrap();
        }
        let mut run = vec![Page::new(); 5];
        s.read_pages(1, &mut run).unwrap();
        for (k, got) in run.iter().enumerate() {
            let mut single = Page::new();
            s.read_page(1 + k as PageId, &mut single).unwrap();
            assert_eq!(got.bytes()[..], single.bytes()[..], "page {}", 1 + k);
        }
        // An empty run and a one-page run are served too.
        s.read_pages(0, &mut []).unwrap();
        s.read_pages(6, &mut run[..1]).unwrap();
        assert_eq!(run[0].get(0), Some(&[6u8; 16][..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_pages_past_eof_names_the_torn_page() {
        let dir = orion_obs::scratch_dir("storage-test");
        let path = dir.join("runs_torn.dat");
        let mut s = FileStore::create(&path).unwrap();
        for _ in 0..4 {
            s.allocate().unwrap();
        }
        s.sync().unwrap();
        // The file loses its last page and a half behind the store's back.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(2 * PAGE_SIZE as u64 + PAGE_SIZE as u64 / 2).unwrap();
        drop(f);
        let mut run = vec![Page::new(); 4];
        let err = s.read_pages(0, &mut run).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("torn page 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shrunk_file_read_reports_torn_page() {
        let dir = orion_obs::scratch_dir("storage-test");
        let path = dir.join("shrunk.dat");
        let mut s = FileStore::create(&path).unwrap();
        s.allocate().unwrap();
        s.allocate().unwrap();
        s.sync().unwrap();
        // The file loses half its tail page behind the store's back.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(PAGE_SIZE as u64 + PAGE_SIZE as u64 / 2).unwrap();
        drop(f);
        let mut p = Page::new();
        s.read_page(0, &mut p).unwrap();
        let err = s.read_page(1, &mut p).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("torn page 1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_stats_snapshot_and_reset() {
        let st = IoStats::default();
        st.physical_reads.add(3);
        st.cache_hits.add(5);
        st.cache_misses.add(2);
        st.evictions.inc();
        let snap = st.snapshot();
        assert_eq!(snap.physical_reads, 3);
        assert_eq!(snap.cache_hits, 5);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.evictions, 1);
        st.reset();
        assert_eq!(st.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn io_snapshot_json_lists_every_counter() {
        let snap =
            IoSnapshot { physical_reads: 1, evictions: 4, torn_pages: 2, ..Default::default() };
        let text = snap.to_json().to_string_compact();
        assert!(text.contains("\"physical_reads\":1"));
        assert!(text.contains("\"evictions\":4"));
        assert!(text.contains("\"cache_misses\":0"));
        assert!(text.contains("\"torn_pages\":2"));
        assert!(text.contains("\"write_errors\":0"));
        assert!(text.contains("\"ckpt_pages_copied\":0"));
    }
}
