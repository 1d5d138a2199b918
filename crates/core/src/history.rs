//! Histories — the inter-tuple dependency mechanism of Section II-C.
//!
//! Every dependency set inserted into a base table registers its joint pdf
//! here and receives a [`PdfId`]. Derived pdfs carry the union of their
//! sources' ancestor sets (Definition 2); two pdfs whose ancestor sets
//! intersect are *historically dependent* (Definition 3) and may only be
//! combined through their common ancestors' base distributions.
//!
//! Deleting a base tuple keeps its registered pdfs alive as *phantom nodes*
//! while any derived tuple still references them (reference counting, as
//! the paper prescribes).

use crate::error::{EngineError, Result};
use crate::schema::AttrId;
use orion_pdf::prelude::JointPdf;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Identity of a registered base pdf (one dependency set of one base tuple).
pub type PdfId = u64;

/// The ancestor set `A(t.S)` of a pdf node.
pub type Ancestors = BTreeSet<PdfId>;

/// A registered base pdf: the original joint distribution of one dependency
/// set, with the identities of the attributes it covers.
#[derive(Debug, Clone)]
pub struct BasePdf {
    /// Attribute identities, in the joint's dimension order (`N_j`).
    pub attrs: Vec<AttrId>,
    /// The original (unfloored) joint distribution.
    pub joint: JointPdf,
    /// Whether the owning base tuple has been deleted (phantom node).
    pub phantom: bool,
}

/// Ids per registry segment. A segment is the unit of copy-on-write: a
/// write to a segment another version still shares copies that segment,
/// and every other segment stays shared.
const SEGMENT_IDS: usize = 1024;

/// One fixed-size run of ids, `SEGMENT_IDS * k ..= SEGMENT_IDS * k + SEGMENT_IDS - 1`
/// for segment key `k`: the base registered under each id (if any) and the
/// number of derived nodes referencing it.
///
/// Counts move far more often than bases (every derived node a query
/// builds takes a reference), so the bases are shared one level further: a
/// count change copies the counters and one pointer, and only a base change
/// copies the base pointers. No write copies a pdf.
#[derive(Debug, Clone)]
struct Segment {
    bases: Arc<Vec<Option<Arc<BasePdf>>>>,
    refs: Vec<usize>,
}

impl Segment {
    fn empty() -> Self {
        Segment { bases: Arc::new(vec![None; SEGMENT_IDS]), refs: vec![0; SEGMENT_IDS] }
    }
}

/// Segment key and slot of an id.
fn locate(id: PdfId) -> (u64, usize) {
    (id / SEGMENT_IDS as u64, (id % SEGMENT_IDS as u64) as usize)
}

/// The history registry: base pdfs, reference counts, and dependency tests.
///
/// Bases and counts live in fixed-size copy-on-write segments keyed by
/// [`PdfId`] (a registered base never changes, only its count and phantom
/// flag move). `Clone` therefore costs one pointer per segment, and the
/// clone and the original share every segment until one of them writes to
/// it; that write copies the one segment. Transactions and queries hold
/// clones as their point-in-time view, preserving every committed id.
#[derive(Debug, Default, Clone)]
pub struct HistoryRegistry {
    next: PdfId,
    /// Registered (live + phantom) bases, over all segments.
    len: usize,
    segments: BTreeMap<u64, Arc<Segment>>,
}

impl HistoryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, id: PdfId) -> Option<(&Segment, usize)> {
        let (key, off) = locate(id);
        self.segments.get(&key).map(|s| (&**s, off))
    }

    /// The segment holding `id`, made private to this registry.
    fn slot_mut(&mut self, id: PdfId) -> (&mut Segment, usize) {
        let (key, off) = locate(id);
        let seg = self.segments.entry(key).or_insert_with(|| Arc::new(Segment::empty()));
        (Arc::make_mut(seg), off)
    }

    /// The base slot of `id`, made private to this registry.
    fn base_mut(&mut self, id: PdfId) -> &mut Option<Arc<BasePdf>> {
        let (seg, off) = self.slot_mut(id);
        &mut Arc::make_mut(&mut seg.bases)[off]
    }

    fn put(&mut self, id: PdfId, base: BasePdf) {
        if self.base_mut(id).replace(Arc::new(base)).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, id: PdfId) {
        if self.base(id).is_ok() {
            *self.base_mut(id) = None;
            self.len -= 1;
        }
    }

    /// Registers a base pdf (at tuple insertion), returning its id.
    pub fn register(&mut self, attrs: Vec<AttrId>, joint: JointPdf) -> PdfId {
        self.next += 1;
        let id = self.next;
        self.put(id, BasePdf { attrs, joint, phantom: false });
        id
    }

    /// Reserves `n` consecutive ids for a two-phase parallel bulk insert
    /// and returns the first. The reserved range is exactly what `n`
    /// successive [`register`](Self::register) calls would have allocated,
    /// so a bulk load that installs its bases in row order produces ids
    /// bit-identical to a serial tuple-at-a-time load. Every reserved id
    /// must be claimed with [`install_reserved`](Self::install_reserved)
    /// before the registry is used for queries.
    pub fn reserve_ids(&mut self, n: u64) -> PdfId {
        let first = self.next + 1;
        self.next += n;
        first
    }

    /// Installs a base pdf under an id previously handed out by
    /// [`reserve_ids`](Self::reserve_ids) (the ordered-commit phase of a
    /// parallel bulk insert).
    pub fn install_reserved(&mut self, id: PdfId, attrs: Vec<AttrId>, joint: JointPdf) {
        debug_assert!(id <= self.next, "id {id} was never reserved");
        debug_assert!(self.base(id).is_err(), "id {id} already installed");
        self.put(id, BasePdf { attrs, joint, phantom: false });
    }

    /// Looks up a base pdf.
    pub fn base(&self, id: PdfId) -> Result<&BasePdf> {
        self.slot(id)
            .and_then(|(seg, off)| seg.bases[off].as_deref())
            .ok_or_else(|| EngineError::Operator(format!("unknown base pdf {id}")))
    }

    /// Number of registered (live + phantom) base pdfs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Increments the reference count of every ancestor in `anc`
    /// (called when a derived node is created).
    pub fn add_refs(&mut self, anc: &Ancestors) {
        for &id in anc {
            let (seg, off) = self.slot_mut(id);
            seg.refs[off] += 1;
        }
    }

    /// Decrements reference counts (derived node dropped); phantom bases
    /// whose count reaches zero are reclaimed.
    pub fn release_refs(&mut self, anc: &Ancestors) {
        for &id in anc {
            if self.ref_count(id) == 0 {
                continue;
            }
            let (seg, off) = self.slot_mut(id);
            seg.refs[off] -= 1;
            if seg.refs[off] == 0 && seg.bases[off].as_ref().is_some_and(|b| b.phantom) {
                self.remove(id);
            }
        }
    }

    /// Current reference count of a base pdf.
    pub fn ref_count(&self, id: PdfId) -> usize {
        self.slot(id).map_or(0, |(seg, off)| seg.refs[off])
    }

    /// Marks a base tuple's pdfs deleted: unreferenced bases are removed,
    /// referenced ones survive as phantom nodes until their count drops to
    /// zero.
    pub fn delete_base(&mut self, id: PdfId) {
        if self.ref_count(id) == 0 {
            self.remove(id);
        } else if self.base(id).is_ok_and(|b| !b.phantom) {
            let b = self.base_mut(id).as_mut().expect("base checked above");
            Arc::make_mut(b).phantom = true;
        }
    }

    /// Iterates all registered base pdfs in id order (persistence support).
    pub fn iter_bases(&self) -> impl Iterator<Item = (PdfId, &BasePdf)> {
        self.segments.iter().flat_map(|(&key, seg)| {
            seg.bases.iter().enumerate().filter_map(move |(off, b)| {
                b.as_deref().map(|b| (key * SEGMENT_IDS as u64 + off as u64, b))
            })
        })
    }

    /// Highest pdf id allocated so far (0 if none). Durable logging uses
    /// this to discover which base pdfs an insert registered.
    pub fn last_id(&self) -> PdfId {
        self.next
    }

    /// Restores a base pdf under a specific id (loading a saved database).
    /// Future `register` calls will allocate ids above every restored one.
    pub fn restore(&mut self, id: PdfId, base: BasePdf) {
        self.next = self.next.max(id);
        self.put(id, base);
    }

    /// Segment keys and storage addresses, in key order: two registries
    /// share a segment exactly when both list the same address under it.
    #[cfg(test)]
    pub(crate) fn segment_addrs(&self) -> Vec<(u64, usize)> {
        self.segments.iter().map(|(&k, s)| (k, Arc::as_ptr(s) as usize)).collect()
    }

    /// Whether two ancestor sets are historically dependent (Definition 3).
    pub fn dependent(a: &Ancestors, b: &Ancestors) -> bool {
        // Walk the smaller set.
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        small.iter().any(|id| large.contains(id))
    }

    /// The common ancestors of two sets.
    pub fn common(a: &Ancestors, b: &Ancestors) -> Vec<PdfId> {
        a.intersection(b).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_pdf::prelude::*;

    fn joint() -> JointPdf {
        JointPdf::from_pdf1(Pdf1::certain(1.0))
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = HistoryRegistry::new();
        let a = reg.register(vec![10], joint());
        let b = reg.register(vec![11, 12], joint());
        assert_ne!(a, b);
        assert_eq!(reg.base(a).unwrap().attrs, vec![10]);
        assert_eq!(reg.base(b).unwrap().attrs, vec![11, 12]);
        assert!(reg.base(999).is_err());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn dependence_is_intersection() {
        let a: Ancestors = [1, 2, 3].into_iter().collect();
        let b: Ancestors = [3, 4].into_iter().collect();
        let c: Ancestors = [5].into_iter().collect();
        assert!(HistoryRegistry::dependent(&a, &b));
        assert!(!HistoryRegistry::dependent(&a, &c));
        assert_eq!(HistoryRegistry::common(&a, &b), vec![3]);
        assert!(HistoryRegistry::common(&b, &c).is_empty());
    }

    #[test]
    fn reserved_ids_match_serial_register_order() {
        // The reservation protocol must hand out exactly the ids serial
        // `register` calls would have produced.
        let mut serial = HistoryRegistry::new();
        serial.register(vec![1], joint());
        let s1 = serial.register(vec![2], joint());
        let s2 = serial.register(vec![3], joint());

        let mut bulk = HistoryRegistry::new();
        bulk.register(vec![1], joint());
        let first = bulk.reserve_ids(2);
        assert_eq!(first, s1);
        bulk.install_reserved(first, vec![2], joint());
        bulk.install_reserved(first + 1, vec![3], joint());
        assert_eq!(bulk.last_id(), serial.last_id());
        assert_eq!(bulk.base(s2).unwrap().attrs, serial.base(s2).unwrap().attrs);
        // Ids keep advancing past the reserved range.
        assert_eq!(bulk.register(vec![4], joint()), serial.register(vec![4], joint()));
    }

    #[test]
    fn unreferenced_base_is_removed_on_delete() {
        let mut reg = HistoryRegistry::new();
        let id = reg.register(vec![1], joint());
        reg.delete_base(id);
        assert!(reg.base(id).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn referenced_base_becomes_phantom() {
        let mut reg = HistoryRegistry::new();
        let id = reg.register(vec![1], joint());
        let anc: Ancestors = [id].into_iter().collect();
        reg.add_refs(&anc);
        reg.add_refs(&anc);
        reg.delete_base(id);
        assert!(reg.base(id).unwrap().phantom, "survives as phantom");
        reg.release_refs(&anc);
        assert!(reg.base(id).is_ok(), "still one reference");
        reg.release_refs(&anc);
        assert!(reg.base(id).is_err(), "reclaimed at refcount zero");
    }

    #[test]
    fn live_base_survives_release_to_zero() {
        let mut reg = HistoryRegistry::new();
        let id = reg.register(vec![1], joint());
        let anc: Ancestors = [id].into_iter().collect();
        reg.add_refs(&anc);
        reg.release_refs(&anc);
        assert!(reg.base(id).is_ok(), "not phantom, so not reclaimed");
        assert_eq!(reg.ref_count(id), 0);
    }
}
