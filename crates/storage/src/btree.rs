//! A page-backed, bulk-loaded B+tree over `f64` keys.
//!
//! Secondary indexes (certain/expected-value keys and per-tuple cdf-summary
//! keys, see `orion-core`'s `pindex` module) are stored as static B+trees:
//! the key set is known at build time, so the tree is packed left-to-right
//! into slotted pages behind a [`BufferPool`] — leaves first, then internal
//! levels bottom-up until a single root remains. There is no insert/delete
//! path: index maintenance is one rebuild per table version (the catalog
//! caches a build per version), which keeps the on-page layout
//! deterministic — two builds over the same entries produce byte-identical
//! pages.
//!
//! Leaves occupy pages `0..leaf_pages` in key order, so the leaf chain is
//! implicit (the right sibling of leaf `p` is `p + 1`); internal levels are
//! packed after the leaves, ending at the root. Every entry is `8` key
//! bytes (little-endian `f64` bits) followed by a fixed-width payload
//! chosen at build time. Keys must be sorted ascending and NaN-free;
//! duplicate keys are allowed and kept in input order.

use crate::buffer::BufferPool;
use crate::file::{MemStore, PageId, PageStore};
use std::io;

/// Leaf page marker (slot 0 header byte).
const TAG_LEAF: u8 = 1;
/// Internal page marker (slot 0 header byte).
const TAG_INTERNAL: u8 = 2;

/// A static B+tree over `f64` keys with fixed-width payloads, packed into
/// pages of a [`BufferPool`].
pub struct BTree<S: PageStore> {
    pool: BufferPool<S>,
    root: PageId,
    /// Leaves are pages `0..leaf_pages`, in key order.
    leaf_pages: u32,
    /// Bytes per payload (every entry is `8 + payload_len` bytes).
    payload_len: usize,
    len: usize,
}

impl BTree<MemStore> {
    /// Bulk-loads a tree over in-memory pages. `entries` must be sorted by
    /// key ascending (ties keep input order) and every payload must be
    /// exactly `payload_len` bytes.
    pub fn build(entries: &[(f64, Vec<u8>)], payload_len: usize) -> io::Result<Self> {
        let pool = BufferPool::new(MemStore::new(), 64);
        Self::build_in(pool, entries, payload_len)
    }
}

impl<S: PageStore> BTree<S> {
    /// Bulk-loads a tree into `pool` (which must be empty).
    pub fn build_in(
        pool: BufferPool<S>,
        entries: &[(f64, Vec<u8>)],
        payload_len: usize,
    ) -> io::Result<Self> {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "btree bulk load requires sorted keys"
        );
        let entry_len = 8 + payload_len;
        let mut buf = Vec::with_capacity(entry_len);

        // Leaf level: pack entries left-to-right, one page at a time.
        let mut level: Vec<(f64, PageId)> = Vec::new(); // (first key, page)
        let mut page = pool.allocate()?;
        pool.with_page_mut(page, |p| p.insert(&[TAG_LEAF]))?;
        let mut first_key: Option<f64> = None;
        for (key, payload) in entries {
            debug_assert_eq!(payload.len(), payload_len, "fixed-width payloads");
            buf.clear();
            buf.extend_from_slice(&key.to_bits().to_le_bytes());
            buf.extend_from_slice(payload);
            let fits = pool.with_page_mut(page, |p| p.insert(&buf).is_some())?;
            if !fits {
                level.push((first_key.expect("non-empty page has a first key"), page));
                page = pool.allocate()?;
                first_key = None;
                pool.with_page_mut(page, |p| {
                    p.insert(&[TAG_LEAF]);
                    p.insert(&buf).expect("fresh page fits one entry");
                })?;
            }
            if first_key.is_none() {
                first_key = Some(*key);
            }
        }
        level.push((first_key.unwrap_or(f64::NEG_INFINITY), page));
        let leaf_pages = pool.page_count();

        // Internal levels: (first key, child page) routing entries, packed
        // the same way, until one page remains.
        while level.len() > 1 {
            let mut parent_level: Vec<(f64, PageId)> = Vec::new();
            let mut page = pool.allocate()?;
            pool.with_page_mut(page, |p| p.insert(&[TAG_INTERNAL]))?;
            let mut first_key: Option<f64> = None;
            for (key, child) in &level {
                buf.clear();
                buf.extend_from_slice(&key.to_bits().to_le_bytes());
                buf.extend_from_slice(&child.to_le_bytes());
                let fits = pool.with_page_mut(page, |p| p.insert(&buf).is_some())?;
                if !fits {
                    parent_level.push((first_key.expect("non-empty internal page"), page));
                    page = pool.allocate()?;
                    first_key = None;
                    pool.with_page_mut(page, |p| {
                        p.insert(&[TAG_INTERNAL]);
                        p.insert(&buf).expect("fresh page fits one entry");
                    })?;
                }
                if first_key.is_none() {
                    first_key = Some(*key);
                }
            }
            parent_level.push((first_key.unwrap_or(f64::NEG_INFINITY), page));
            level = parent_level;
        }

        Ok(BTree { pool, root: level[0].1, leaf_pages, payload_len, len: entries.len() })
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages occupied by the tree (leaves + internal levels).
    pub fn page_count(&self) -> u32 {
        self.pool.page_count()
    }

    /// I/O counters of the backing pool (probes fault pages in through it).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// Visits every entry with `lo <= key <= hi` in key order, calling
    /// `visit(key, payload)`. Returns the number of entries visited.
    pub fn range(&self, lo: f64, hi: f64, mut visit: impl FnMut(f64, &[u8])) -> io::Result<usize> {
        if lo > hi || self.len == 0 {
            return Ok(0);
        }
        // Descend to the leaf that may hold `lo`: at each internal page,
        // take the last child whose first key is <= lo (the first child
        // when every separator exceeds lo — smaller keys can only be
        // leftmost).
        let mut page = self.root;
        while page >= self.leaf_pages {
            page = self.pool.with_page(page, |p| {
                let header = p.get(0).ok_or_else(bad_page)?;
                if header != [TAG_INTERNAL] {
                    return Err(bad_page());
                }
                let mut chosen: Option<PageId> = None;
                let mut slot = 1;
                while let Some(rec) = p.get(slot) {
                    let (key, child) = parse_route(rec)?;
                    if chosen.is_none() || key <= lo {
                        chosen = Some(child);
                    }
                    if key > lo {
                        break;
                    }
                    slot += 1;
                }
                chosen.ok_or_else(bad_page)
            })??;
        }

        // Scan leaves rightward until a key exceeds `hi`.
        let mut visited = 0usize;
        loop {
            let done = self.pool.with_page(page, |p| {
                let header = p.get(0).ok_or_else(bad_page)?;
                if header != [TAG_LEAF] {
                    return Err(bad_page());
                }
                let mut slot = 1;
                while let Some(rec) = p.get(slot) {
                    if rec.len() != 8 + self.payload_len {
                        return Err(bad_page());
                    }
                    let key = f64::from_bits(u64::from_le_bytes(
                        rec[..8].try_into().expect("len checked"),
                    ));
                    if key > hi {
                        return Ok(true);
                    }
                    if key >= lo {
                        visit(key, &rec[8..]);
                        visited += 1;
                    }
                    slot += 1;
                }
                Ok(false)
            })??;
            page += 1;
            if done || page >= self.leaf_pages {
                return Ok(visited);
            }
        }
    }
}

fn bad_page() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "malformed btree page")
}

fn parse_route(rec: &[u8]) -> io::Result<(f64, PageId)> {
    if rec.len() != 12 {
        return Err(bad_page());
    }
    let key = f64::from_bits(u64::from_le_bytes(rec[..8].try_into().expect("len checked")));
    let child = u32::from_le_bytes(rec[8..12].try_into().expect("len checked"));
    Ok((key, child))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(keys: &[f64]) -> BTree<MemStore> {
        let entries: Vec<(f64, Vec<u8>)> =
            keys.iter().enumerate().map(|(i, &k)| (k, (i as u32).to_le_bytes().to_vec())).collect();
        BTree::build(&entries, 4).unwrap()
    }

    fn collect(t: &BTree<MemStore>, lo: f64, hi: f64) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        t.range(lo, hi, |k, payload| {
            out.push((k, u32::from_le_bytes(payload.try_into().unwrap())));
        })
        .unwrap();
        out
    }

    #[test]
    fn empty_and_single() {
        let t = build(&[]);
        assert!(t.is_empty());
        assert_eq!(collect(&t, f64::NEG_INFINITY, f64::INFINITY), vec![]);
        let t = build(&[3.5]);
        assert_eq!(collect(&t, 0.0, 10.0), vec![(3.5, 0)]);
        assert_eq!(collect(&t, 4.0, 10.0), vec![]);
    }

    #[test]
    fn range_matches_linear_scan_across_many_pages() {
        // Enough entries to force multiple leaves and an internal level.
        let keys: Vec<f64> = (0..20_000).map(|i| (i as f64) * 0.5).collect();
        let t = build(&keys);
        assert!(t.page_count() > 2, "must span pages: {}", t.page_count());
        for (lo, hi) in [(0.0, 10.0), (4999.75, 5001.0), (9999.0, 10_001.0), (-5.0, -1.0)] {
            let got = collect(&t, lo, hi);
            let want: Vec<(f64, u32)> = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k >= lo && k <= hi)
                .map(|(i, &k)| (k, i as u32))
                .collect();
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
        // Full range returns everything in key order.
        assert_eq!(collect(&t, f64::NEG_INFINITY, f64::INFINITY).len(), keys.len());
    }

    #[test]
    fn duplicate_keys_keep_input_order() {
        let entries: Vec<(f64, Vec<u8>)> =
            (0..500u32).map(|i| (1.0, i.to_le_bytes().to_vec())).collect();
        let t = BTree::build(&entries, 4).unwrap();
        let got = collect(&t, 1.0, 1.0);
        assert_eq!(got.len(), 500);
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1), "payload order preserved");
    }

    #[test]
    fn deterministic_page_images() {
        let keys: Vec<f64> = (0..5_000).map(|i| i as f64).collect();
        let a = build(&keys);
        let b = build(&keys);
        assert_eq!(a.page_count(), b.page_count());
        for id in 0..a.page_count() {
            let pa = a.pool().with_page(id, |p| p.get(1).map(|r| r.to_vec())).unwrap();
            let pb = b.pool().with_page(id, |p| p.get(1).map(|r| r.to_vec())).unwrap();
            assert_eq!(pa, pb, "page {id} diverged");
        }
    }
}
