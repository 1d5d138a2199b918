//! Slotted pages: the fixed-size on-disk unit.
//!
//! Layout (offsets in bytes):
//! ```text
//! [0..2)   slot count (u16)
//! [2..4)   free-space offset (u16) — start of the record heap, grows down
//! [4..8)   CRC32 seal over the rest of the page (0 until first sealed)
//! [8..)    slot directory: (offset: u16, len: u16) per slot, grows up
//! [...]    record data, packed from the end of the page downward
//! ```
//! A slot with `len == DEAD` marks a deleted record.
//!
//! The seal is the torn-write detector: [`Page::seal`] stamps the CRC32 of
//! the whole page (with the seal field zeroed) immediately before a write
//! to stable storage, and [`Page::checksum_ok`] recomputes it after a read.
//! A write that only partially reached the platter leaves a page whose
//! stored seal disagrees with its contents.

use crate::checksum::Crc32;

/// Size of every page in bytes (matches PostgreSQL's default block size).
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 8;
const CKSUM: usize = 4;
const SLOT: usize = 4;

/// Longest record an empty page holds (one slot entry plus the bytes).
pub const MAX_PAGE_RECORD: usize = PAGE_SIZE - HEADER - SLOT;
const DEAD: u16 = u16::MAX;

/// A page whose stored CRC32 seal disagrees with its contents — the
/// signature of a torn or corrupted write. Carried as the payload of an
/// `io::Error` with kind [`std::io::ErrorKind::InvalidData`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumMismatch {
    /// Page id within its store.
    pub page: u32,
    /// Seal found on the page.
    pub stored: u32,
    /// Seal recomputed from the page contents.
    pub computed: u32,
}

impl std::fmt::Display for ChecksumMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn page {}: stored checksum {:#010x} != computed {:#010x}",
            self.page, self.stored, self.computed
        )
    }
}

impl std::error::Error for ChecksumMismatch {}

/// A fixed-size slotted page holding variable-length records.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        let mut data = Box::new([0u8; PAGE_SIZE]);
        // Free space starts at the end of the page and grows downward.
        data[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { data }
    }

    /// Wraps raw page bytes read from disk.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), PAGE_SIZE, "page must be {PAGE_SIZE} bytes");
        let mut data = Box::new([0u8; PAGE_SIZE]);
        data.copy_from_slice(bytes);
        Page { data }
    }

    /// The raw bytes, for writing to disk.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw bytes — fault injection and recovery tooling only;
    /// arbitrary edits invalidate the seal (which is the point).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// CRC32 of the page with the seal field zeroed.
    pub fn compute_checksum(&self) -> u32 {
        let mut h = Crc32::new();
        h.update(&self.data[..CKSUM]);
        h.update(&[0u8; 4]);
        h.update(&self.data[CKSUM + 4..]);
        h.finalize()
    }

    /// The seal currently stored in the header (0 = never sealed).
    pub fn stored_checksum(&self) -> u32 {
        u32::from_le_bytes(self.data[CKSUM..CKSUM + 4].try_into().expect("4 bytes"))
    }

    /// Stamps the seal; call immediately before writing to stable storage.
    pub fn seal(&mut self) {
        let c = self.compute_checksum();
        self.data[CKSUM..CKSUM + 4].copy_from_slice(&c.to_le_bytes());
    }

    /// Whether the stored seal matches the contents. Pages read back from
    /// a store must pass this; a mismatch means a torn or corrupted write.
    pub fn checksum_ok(&self) -> bool {
        self.stored_checksum() == self.compute_checksum()
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots (live and dead).
    pub fn slot_count(&self) -> usize {
        self.read_u16(0) as usize
    }

    fn free_offset(&self) -> usize {
        self.read_u16(2) as usize
    }

    /// Bytes available for one more record (including its slot entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.slot_count() * SLOT;
        self.free_offset().saturating_sub(dir_end)
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// Inserts a record, returning its slot index, or `None` if it does not
    /// fit. Records larger than the page payload never fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<usize> {
        if !self.fits(record.len()) || record.len() >= DEAD as usize {
            return None;
        }
        let slot = self.slot_count();
        let new_free = self.free_offset() - record.len();
        self.data[new_free..new_free + record.len()].copy_from_slice(record);
        self.write_u16(2, new_free as u16);
        let dir = HEADER + slot * SLOT;
        self.write_u16(dir, new_free as u16);
        self.write_u16(dir + 2, record.len() as u16);
        self.write_u16(0, (slot + 1) as u16);
        Some(slot)
    }

    /// Reads the record in `slot`, or `None` if out of range or deleted.
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let dir = HEADER + slot * SLOT;
        let off = self.read_u16(dir) as usize;
        let len = self.read_u16(dir + 2);
        if len == DEAD {
            return None;
        }
        Some(&self.data[off..off + len as usize])
    }

    /// Marks the record in `slot` deleted (space is not reclaimed;
    /// compaction is a higher-level concern).
    pub fn delete(&mut self, slot: usize) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let dir = HEADER + slot * SLOT;
        if self.read_u16(dir + 2) == DEAD {
            return false;
        }
        self.write_u16(dir + 2, DEAD);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_page_geometry() {
        let p = Page::new();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER);
        assert!(p.get(0).is_none());
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get(0), Some(&b"hello"[..]));
        assert_eq!(p.get(1), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fill_page_until_full() {
        let mut p = Page::new();
        let rec = vec![0xAB; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8184 bytes available / 104 per record.
        assert_eq!(n, (PAGE_SIZE - HEADER) / (100 + SLOT));
        assert!(!p.fits(100));
        assert!(p.get(n - 1).is_some());
    }

    #[test]
    fn delete_marks_dead() {
        let mut p = Page::new();
        p.insert(b"a").unwrap();
        p.insert(b"b").unwrap();
        assert!(p.delete(0));
        assert!(p.get(0).is_none());
        assert_eq!(p.get(1), Some(&b"b"[..]));
        assert!(!p.delete(0), "double delete");
        assert!(!p.delete(7), "out of range");
        // Slot count unchanged (scan skips dead slots).
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn serialization_round_trip() {
        let mut p = Page::new();
        p.insert(b"persisted").unwrap();
        let q = Page::from_bytes(p.bytes());
        assert_eq!(q.get(0), Some(&b"persisted"[..]));
        assert_eq!(q.slot_count(), 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
        assert!(p.insert(&vec![0u8; MAX_PAGE_RECORD + 1]).is_none());
        assert!(p.insert(&vec![0u8; MAX_PAGE_RECORD]).is_some());
    }

    #[test]
    fn seal_round_trip_and_mutation_detection() {
        let mut p = Page::new();
        p.insert(b"sealed record").unwrap();
        assert!(!p.checksum_ok(), "unsealed page has no valid seal");
        p.seal();
        assert!(p.checksum_ok());
        assert_eq!(p.stored_checksum(), p.compute_checksum());
        // The seal survives a disk round trip...
        let q = Page::from_bytes(p.bytes());
        assert!(q.checksum_ok());
        // ...and any content mutation invalidates it.
        let mut torn = q.clone();
        torn.insert(b"late write").unwrap();
        assert!(!torn.checksum_ok());
        torn.seal();
        assert!(torn.checksum_ok(), "resealing repairs the stamp");
    }

    #[test]
    fn torn_tail_is_detected() {
        let mut p = Page::new();
        p.insert(&vec![0x42u8; 3000]).unwrap();
        p.seal();
        // Simulate a torn write: only the first 4 KiB hit the platter, the
        // tail still holds old (zero) content.
        let mut bytes = *p.bytes();
        for b in &mut bytes[4096..] {
            *b = 0;
        }
        let torn = Page::from_bytes(&bytes);
        assert!(!torn.checksum_ok());
    }

    #[test]
    fn checksum_mismatch_error_formats() {
        let e = ChecksumMismatch { page: 7, stored: 1, computed: 2 };
        let text = e.to_string();
        assert!(text.contains("torn page 7"), "{text}");
        let io = std::io::Error::new(std::io::ErrorKind::InvalidData, e.clone());
        assert!(io.get_ref().is_some_and(|r| r.downcast_ref::<ChecksumMismatch>() == Some(&e)));
    }
}
