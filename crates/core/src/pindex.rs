//! Persistent secondary indexes over probabilistic attributes.
//!
//! This subsystem promotes the in-memory [`crate::index::SupportIndex`]
//! idea into a cataloged, page-backed, planner-visible form. Two index
//! kinds exist, both bulk-loaded into a static [`BTree`] (see
//! `orion-storage`'s `btree` module):
//!
//! * **`evx`** — over a *certain* column. Key = the numeric value (a
//!   certain value is its own expected value); payload = tuple position.
//!   Serves certain-column range/equality selections.
//! * **`cdf`** — over an *uncertain* column. Key = the *upper* bound of
//!   the marginal's effective support; payload = tuple position, support
//!   lower bound, total mass, and the conditional-quantile locations at
//!   the [`CDF_LEVELS`] probability levels (the paper's companion
//!   probabilistic-threshold-index work keys nodes by exactly such
//!   interval + probability-bound pairs). Serves threshold queries
//!   `σ_{Pr(A∈[l,u]) ⊙ p}`; since only lower-bounded thresholds are
//!   prunable, hi-keying turns the support-disjointness prune into a
//!   B+tree seek past the non-candidates.
//!
//! **Soundness contract.** An index probe never answers a query by itself:
//! it produces a *candidate mask* — a superset of the tuples that can pass
//! — and the executor runs the ordinary operator over all tuples, skipping
//! only masked-out positions. A pruned tuple's residual probability is
//! bounded (≤ the 1e-9 effective-support tail, or provably ≤ `p` via the
//! mass/cdf upper bounds with a 1e-6 margin), never guessed, so indexed
//! and scanned results are bitwise identical for any threshold
//! `p ≥` [`MIN_PRUNABLE_P`]. Tuples without a usable key (NULL / missing
//! node / NaN support) are always candidates — 3VL semantics stay with the
//! evaluator.
//!
//! **Maintenance protocol: one build per table version.** A table version
//! is the `Arc<Vec<ProbTuple>>` allocation a [`Relation`] shares
//! copy-on-write, and built trees live in a [`BuildCache`] keyed by it: an
//! entry holds a `Weak` of the version it was built from and hits only for
//! a relation whose tuples are that very allocation, under an equal
//! [`IndexDef`]. A live `Weak` keeps the address from being reused, and no
//! writer can change a version in place while one is held
//! (`Arc::make_mut` moves the vector to a new allocation, `Arc::get_mut`
//! refuses), so any DML makes the next lookup miss and rebuild — no stamps
//! or epochs decide freshness. The cache is shared by a catalog and every
//! [`IndexCatalog::snapshot`] of it, so each version is indexed once, not
//! once per statement. The per-table epoch that committed DML bumps
//! ([`IndexCatalog::note_mutation`]) is only reported (`orion.indexes`).
//! Only index *definitions* are durable (WAL tag + checkpoint section in
//! `persist`/`durable`); tree pages are rebuilt deterministically from the
//! recovered table, which makes replay idempotent by construction — the
//! recovery oracle proves the rebuilt index answers bitwise-equal to a
//! fresh one.

use crate::error::{EngineError, Result};
use crate::index::SupportIndex;
use crate::predicate::CmpOp;
use crate::relation::Relation;
use crate::tuple::ProbTuple;
use crate::value::Value;
use orion_pdf::prelude::Interval;
use orion_storage::{BTree, MemStore};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Probability levels at which a `cdf` index stores the marginal's
/// conditional quantile location (the smallest `x` with
/// `F(x) ≥ level · mass`). Pruning a threshold `Pr(θ) > p` via the level
/// `q` requires `1 - q` to clear `p` by `CDF_MARGIN`, so each level sits
/// just past a common round threshold (0.101 serves `p = 0.9`, 0.051
/// serves `p = 0.95`, …) instead of exactly on it.
pub const CDF_LEVELS: [f64; 13] =
    [0.011, 0.051, 0.101, 0.151, 0.201, 0.301, 0.401, 0.501, 0.601, 0.701, 0.801, 0.901, 0.951];

/// Smallest threshold probability the index may prune at. Effective
/// supports truncate at most 1e-9 of mass, and the cdf upper bounds carry
/// a 1e-6 comparison margin, so pruning below this could (in theory)
/// disagree with the scan's numerics; such thresholds fall back to a scan.
pub const MIN_PRUNABLE_P: f64 = 1e-6;

/// Margin subtracted before a cdf-level upper bound may prune: the bound
/// and the scan's flooring machinery evaluate the same analytic cdf along
/// different code paths, so only a clear gap is trusted.
const CDF_MARGIN: f64 = 1e-6;

/// `evx` payload: tuple position.
const EVX_PAYLOAD: usize = 4;
/// `cdf` payload: tuple position + support lo + mass + per-level quantile
/// location.
const CDF_PAYLOAD: usize = 4 + 8 + 8 + 8 * CDF_LEVELS.len();

/// Which key layout an index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Certain/expected-value keys over a certain column.
    Evx,
    /// Cdf-summary keys (support interval + mass bounds) over an
    /// uncertain column.
    Cdf,
}

impl IndexKind {
    /// Lowercase display/parse name (`USING evx|cdf`, `orion.indexes`).
    pub fn as_str(self) -> &'static str {
        match self {
            IndexKind::Evx => "evx",
            IndexKind::Cdf => "cdf",
        }
    }

    /// Parses a kind name (case-insensitive).
    pub fn parse(s: &str) -> Option<IndexKind> {
        match s.to_ascii_lowercase().as_str() {
            "evx" => Some(IndexKind::Evx),
            "cdf" => Some(IndexKind::Cdf),
            _ => None,
        }
    }

    fn tag(self) -> u8 {
        match self {
            IndexKind::Evx => 0,
            IndexKind::Cdf => 1,
        }
    }

    fn from_tag(t: u8) -> Option<IndexKind> {
        match t {
            0 => Some(IndexKind::Evx),
            1 => Some(IndexKind::Cdf),
            _ => None,
        }
    }
}

/// A durable index definition (the tree itself is rebuilt, never stored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Unique index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed column.
    pub column: String,
    /// Key layout.
    pub kind: IndexKind,
}

impl IndexDef {
    /// Canonical byte encoding (WAL payloads, checkpoint section,
    /// fingerprints).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the canonical encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        put_str(out, &self.table);
        put_str(out, &self.column);
        out.push(self.kind.tag());
    }

    /// Decodes one definition, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(IndexDef, usize)> {
        let mut pos = 0usize;
        let name = get_str(buf, &mut pos)?;
        let table = get_str(buf, &mut pos)?;
        let column = get_str(buf, &mut pos)?;
        let tag =
            *buf.get(pos).ok_or_else(|| EngineError::Corrupt("index def truncated".into()))?;
        pos += 1;
        let kind = IndexKind::from_tag(tag)
            .ok_or_else(|| EngineError::Corrupt(format!("unknown index kind tag {tag}")))?;
        Ok((IndexDef { name, table, column, kind }, pos))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let end = *pos + 4;
    let len = buf
        .get(*pos..end)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
        .ok_or_else(|| EngineError::Corrupt("index def truncated".into()))?;
    let bytes = buf
        .get(end..end + len)
        .ok_or_else(|| EngineError::Corrupt("index def truncated".into()))?;
    *pos = end + len;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| EngineError::Corrupt("index def is not utf-8".into()))
}

/// A materialized index: a static B+tree over one version of the
/// relation's tuples, plus the positions that could not be keyed.
pub struct BuiltIndex {
    /// The definition this tree materializes.
    pub def: IndexDef,
    /// The table's staleness epoch at build time (reported, never
    /// consulted: freshness is the [`BuildCache`]'s version key).
    pub epoch: u64,
    /// Tuple count at build time (probe masks are this long).
    pub rows: usize,
    tree: BTree<MemStore>,
    /// Positions without a usable key (NULL value, missing pdf node, NaN
    /// support): always candidates for `cdf`, candidates for `evx` too —
    /// three-valued logic is decided by the evaluator, never by the index.
    unkeyed: Vec<u32>,
}

impl BuiltIndex {
    /// Bulk-loads the index for `def` over `rel` at staleness `epoch`.
    pub fn build(def: &IndexDef, rel: &Relation, epoch: u64) -> Result<BuiltIndex> {
        let col = rel
            .schema
            .column(&def.column)
            .ok_or_else(|| EngineError::Schema(format!("unknown column '{}'", def.column)))?;
        match def.kind {
            IndexKind::Evx if col.uncertain => {
                return Err(EngineError::Operator(format!(
                    "evx index needs a certain column ('{}' is uncertain); use USING cdf",
                    def.column
                )))
            }
            IndexKind::Cdf if !col.uncertain => {
                return Err(EngineError::Operator(format!(
                    "cdf index needs an uncertain column ('{}' is certain); use USING evx",
                    def.column
                )))
            }
            _ => {}
        }
        let mut entries: Vec<(f64, Vec<u8>)> = Vec::with_capacity(rel.len());
        let mut unkeyed: Vec<u32> = Vec::new();
        match def.kind {
            IndexKind::Evx => {
                let idx = rel.schema.index_of(&def.column).expect("column exists");
                for (i, t) in rel.tuples.iter().enumerate() {
                    // i64 keys above 2^53 would round in f64; keep such
                    // tuples unkeyed rather than risk an unsound range.
                    let key = match &t.certain[idx] {
                        Value::Int(v) if v.unsigned_abs() <= (1u64 << 53) => Some(*v as f64),
                        Value::Real(r) if !r.is_nan() => Some(*r),
                        _ => None,
                    };
                    match key {
                        Some(k) => entries.push((k, (i as u32).to_le_bytes().to_vec())),
                        None => unkeyed.push(i as u32),
                    }
                }
            }
            IndexKind::Cdf => {
                for (i, t) in rel.tuples.iter().enumerate() {
                    let summary = t
                        .node_for(col.id)
                        .and_then(|node| node.marginal(col.id).map(|m| (node.mass(), m)))
                        .and_then(|(mass, m)| m.effective_support().map(|s| (mass, m, s)));
                    let Some((mass, marginal, support)) = summary else {
                        unkeyed.push(i as u32);
                        continue;
                    };
                    if support.lo.is_nan() || support.hi.is_nan() {
                        unkeyed.push(i as u32);
                        continue;
                    }
                    let mut payload = Vec::with_capacity(CDF_PAYLOAD);
                    payload.extend_from_slice(&(i as u32).to_le_bytes());
                    payload.extend_from_slice(&support.lo.to_bits().to_le_bytes());
                    payload.extend_from_slice(&mass.to_bits().to_le_bytes());
                    // Quantile *locations* rather than cdf values at fixed
                    // support fractions: the probe compares the query bound
                    // against these x's, so the unpruned band around any
                    // threshold `p` is one level-gap wide in probability
                    // space — support-fraction grids leave bands that widen
                    // with the marginal's tail length.
                    for q in CDF_LEVELS {
                        let x = marginal.quantile(q).unwrap_or(f64::NAN);
                        payload.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                    // Keyed by support.hi: the only prunable thresholds are
                    // lower-bounded (`Pr(col > T) ⊙ p` with ⊙ ∈ {>, ≥}), so
                    // `support.hi < T` — the wholesale prune — becomes a
                    // B+tree seek past the non-candidates instead of a
                    // per-entry payload check over the whole tree.
                    entries.push((support.hi, payload));
                }
            }
        }
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN keys filtered"));
        let payload_len = match def.kind {
            IndexKind::Evx => EVX_PAYLOAD,
            IndexKind::Cdf => CDF_PAYLOAD,
        };
        let tree = BTree::build(&entries, payload_len)?;
        Ok(BuiltIndex { def: def.clone(), epoch, rows: rel.len(), tree, unkeyed })
    }

    /// Pages occupied by the tree.
    pub fn pages(&self) -> u32 {
        self.tree.page_count()
    }

    /// Keyed entries in the tree.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the tree holds no keyed entries.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Candidate mask for `σ_{Pr(col ∈ [l,u]) ⊙ p}` over a `cdf` index:
    /// `Ok(None)` when this probe cannot prune (wrong kind, non-upper-bound
    /// operator, or `p` below [`MIN_PRUNABLE_P`]); otherwise a sound
    /// superset mask plus the number of index entries probed.
    pub fn threshold_mask(
        &self,
        iv: &Interval,
        op: CmpOp,
        p: f64,
    ) -> Result<Option<(Vec<bool>, u64)>> {
        if self.def.kind != IndexKind::Cdf
            || !matches!(op, CmpOp::Gt | CmpOp::Ge)
            || p.is_nan()
            || p < MIN_PRUNABLE_P
        {
            return Ok(None);
        }
        // `> p` needs mass > p; `>= p` tolerates equality (tiny slack).
        let min_mass = if op == CmpOp::Gt { p } else { p - 1e-12 };
        let mut mask = vec![false; self.rows];
        for &u in &self.unkeyed {
            mask[u as usize] = true;
        }
        // Entries with `support.hi < iv.lo` are support-disjoint from the
        // query and skipped by the key seek itself; entries above it decode
        // their payload for the remaining bounds.
        let probes = self.tree.range(iv.lo, f64::INFINITY, |_hi, payload| {
            let tuple = u32::from_le_bytes(payload[..4].try_into().expect("payload len")) as usize;
            let lo = f64::from_bits(u64::from_le_bytes(payload[4..12].try_into().expect("len")));
            let mass = f64::from_bits(u64::from_le_bytes(payload[12..20].try_into().expect("len")));
            // NaN mass keeps the tuple a candidate (no `mass > min_mass`
            // evidence), matching the evaluator-owned three-valued logic.
            if lo > iv.hi || mass <= min_mass {
                return; // support-disjoint above or mass bound already fails
            }
            // Quantile-level refinement: `x_k` is the smallest point with
            // `F(x_k) ≥ q_k·mass`, so `Pr(col ∈ [l,u]) ≤ mass·(1 - q_k)`
            // when the query sits entirely above `x_k` (and `≤ q_k·mass`
            // when entirely below). Prune only past the comparison margin.
            // Walked highest level first — for the common lower-bounded
            // query that is the strongest bound, so a deeply pruned entry
            // decodes one level, not all of them.
            let mut ub = mass;
            for (k, q) in CDF_LEVELS.iter().enumerate().rev() {
                let x = f64::from_bits(u64::from_le_bytes(
                    payload[20 + 8 * k..28 + 8 * k].try_into().expect("len"),
                ));
                if x.is_nan() {
                    continue;
                }
                if iv.lo > x {
                    ub = ub.min(mass * (1.0 - q));
                }
                if iv.hi < x {
                    ub = ub.min(mass * q);
                }
                if ub <= p - CDF_MARGIN {
                    return; // already provably below the threshold
                }
            }
            if ub <= p - CDF_MARGIN {
                return;
            }
            mask[tuple] = true;
        })?;
        Ok(Some((mask, probes as u64)))
    }

    /// Candidate mask for a certain-column selection constrained to
    /// `[lo, hi]` over an `evx` index: `Ok(None)` when this index cannot
    /// serve the range, else a sound superset mask plus entries probed.
    pub fn range_mask(&self, lo: f64, hi: f64) -> Result<Option<(Vec<bool>, u64)>> {
        if self.def.kind != IndexKind::Evx || lo.is_nan() || hi.is_nan() {
            return Ok(None);
        }
        let mut mask = vec![false; self.rows];
        for &u in &self.unkeyed {
            mask[u as usize] = true;
        }
        let probes = self.tree.range(lo, hi, |_, payload| {
            let tuple = u32::from_le_bytes(payload[..4].try_into().expect("payload len")) as usize;
            mask[tuple] = true;
        })?;
        Ok(Some((mask, probes as u64)))
    }
}

impl fmt::Debug for BuiltIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuiltIndex")
            .field("def", &self.def)
            .field("epoch", &self.epoch)
            .field("rows", &self.rows)
            .field("pages", &self.pages())
            .finish()
    }
}

/// One cached structure and the table version it was built from.
struct Entry<K, V> {
    key: K,
    version: Weak<Vec<ProbTuple>>,
    value: V,
}

/// Structures keyed by (`K`, table version); see [`BuildCache`].
struct VersionMap<K, V>(Mutex<Vec<Entry<K, V>>>);

impl<K: PartialEq + Clone, V: Clone> VersionMap<K, V> {
    fn lock(&self) -> MutexGuard<'_, Vec<Entry<K, V>>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The value cached for `key` over `rel`'s tuple allocation.
    fn get(&self, key: &K, rel: &Relation) -> Option<V> {
        let version = Arc::as_ptr(&rel.tuples);
        let entries = self.lock();
        entries
            .iter()
            .find(|e| Weak::as_ptr(&e.version) == version && e.key == *key)
            .map(|e| e.value.clone())
    }

    /// The cached value for (`key`, `rel`'s version), else `build()`'s.
    /// The build runs with no lock held; two callers racing on one
    /// version may both build, and the first insert wins. An insert first drops every entry
    /// whose version has no strong holder left, which bounds the map by
    /// the number of live versions.
    fn get_or_build(
        &self,
        key: &K,
        rel: &Relation,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<V> {
        if let Some(v) = self.get(key, rel) {
            return Ok(v);
        }
        let value = build()?;
        let version = Arc::as_ptr(&rel.tuples);
        let mut entries = self.lock();
        entries.retain(|e| e.version.strong_count() > 0);
        if let Some(e) =
            entries.iter().find(|e| Weak::as_ptr(&e.version) == version && e.key == *key)
        {
            return Ok(e.value.clone());
        }
        let version = Arc::downgrade(&rel.tuples);
        entries.push(Entry { key: key.clone(), version, value: value.clone() });
        Ok(value)
    }

    fn retain(&self, keep: impl Fn(&K) -> bool) {
        self.lock().retain(|e| keep(&e.key));
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

impl<K, V> Default for VersionMap<K, V> {
    fn default() -> Self {
        VersionMap(Mutex::new(Vec::new()))
    }
}

/// Index structures built from one *table version* — the
/// `Arc<Vec<ProbTuple>>` allocation a [`Relation`] shares copy-on-write —
/// shared by an [`IndexCatalog`] and every snapshot of it.
///
/// A lookup hits only when the entry's `Weak` points at the relation's
/// tuple allocation and its key equals the caller's (the full
/// [`IndexDef`] for trees; table and column for the support fallback). A
/// live `Weak` pins the address, and a writer cannot change a version in
/// place while one is held, so a hit is always a structure over exactly
/// these tuples. Builds happen with no lock held; see the module docs.
#[derive(Clone, Default)]
pub struct BuildCache(Arc<Caches>);

#[derive(Default)]
struct Caches {
    trees: VersionMap<IndexDef, Arc<BuiltIndex>>,
    /// Keyed by (table, column). `None` caches a failed build (a tuple
    /// without a pdf node for the column), which disables the fallback for
    /// that version.
    supports: VersionMap<(String, String), Option<Arc<SupportIndex>>>,
}

impl BuildCache {
    /// The tree for `def` over exactly `rel`'s tuples, if one was built.
    pub fn tree(&self, def: &IndexDef, rel: &Relation) -> Option<Arc<BuiltIndex>> {
        self.0.trees.get(def, rel)
    }

    /// The tree for `def` over `rel`'s tuples, built (tagged with `epoch`)
    /// on a miss.
    pub fn tree_or_build(
        &self,
        def: &IndexDef,
        rel: &Relation,
        epoch: u64,
    ) -> Result<Arc<BuiltIndex>> {
        self.0.trees.get_or_build(def, rel, || Ok(Arc::new(BuiltIndex::build(def, rel, epoch)?)))
    }

    /// The support-interval index over `rel.column`, built on a miss;
    /// `None` when the column has a tuple without a pdf node.
    pub fn support(&self, rel: &Relation, column: &str) -> Option<Arc<SupportIndex>> {
        let key = (rel.name.clone(), column.to_string());
        let build = || Ok(SupportIndex::build(rel, column).ok().map(Arc::new));
        self.0.supports.get_or_build(&key, rel, build).ok().flatten()
    }

    /// Cached entries (trees, support indexes), dead versions included
    /// until the next insert sweeps them.
    pub fn entries(&self) -> (usize, usize) {
        (self.0.trees.len(), self.0.supports.len())
    }
}

impl fmt::Debug for BuildCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (trees, supports) = self.entries();
        f.debug_struct("BuildCache").field("trees", &trees).field("supports", &supports).finish()
    }
}

/// The session's index catalog: durable definitions, per-table staleness
/// epochs, and the build cache of trees per table version.
#[derive(Debug, Default)]
pub struct IndexCatalog {
    /// Definitions by index name (sorted iteration gives the canonical
    /// encoding order).
    defs: BTreeMap<String, IndexDef>,
    /// Per-table mutation counters, reported as `orion.indexes.epoch`.
    epochs: HashMap<String, u64>,
    /// Built trees by (definition, table version), shared with every
    /// snapshot.
    built: BuildCache,
}

impl IndexCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any index is defined.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Definitions in name order.
    pub fn defs(&self) -> impl Iterator<Item = &IndexDef> {
        self.defs.values()
    }

    /// One definition by name.
    pub fn get(&self, name: &str) -> Option<&IndexDef> {
        self.defs.get(name)
    }

    /// A private copy of the definitions and staleness epochs that shares
    /// this catalog's [`BuildCache`]. Per-statement query sessions plan
    /// against such a snapshot: a tree one statement builds serves every
    /// later statement that reads the same table version, and a commit
    /// racing the statement cannot make it stale, because the version key
    /// changes with the tuples.
    pub fn snapshot(&self) -> IndexCatalog {
        IndexCatalog {
            defs: self.defs.clone(),
            epochs: self.epochs.clone(),
            built: self.built.clone(),
        }
    }

    /// The build cache, shared with this catalog (planners look up and
    /// build through it after releasing the catalog lock).
    pub fn build_cache(&self) -> BuildCache {
        self.built.clone()
    }

    /// Definitions over `table` (optionally restricted to `column`), in
    /// name order.
    pub fn find(&self, table: &str, column: Option<&str>) -> Vec<&IndexDef> {
        self.defs
            .values()
            .filter(|d| d.table == table && column.is_none_or(|c| d.column == c))
            .collect()
    }

    /// Registers a definition (fails when the name is taken).
    pub fn create(&mut self, def: IndexDef) -> Result<()> {
        if self.defs.contains_key(&def.name) {
            return Err(EngineError::Operator(format!("index '{}' already exists", def.name)));
        }
        self.defs.insert(def.name.clone(), def);
        Ok(())
    }

    /// Re-applies a definition idempotently (WAL replay / checkpoint load:
    /// the same create record may be seen twice).
    pub fn install(&mut self, def: IndexDef) {
        self.defs.insert(def.name.clone(), def);
    }

    /// Drops a definition (and its built trees) by name.
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDef> {
        self.built.0.trees.retain(|d| d.name != name);
        self.defs
            .remove(name)
            .ok_or_else(|| EngineError::Operator(format!("unknown index '{name}'")))
    }

    /// Drops every definition over `table` (DROP TABLE).
    pub fn drop_table(&mut self, table: &str) {
        self.defs.retain(|_, d| d.table != table);
        self.built.0.trees.retain(|d| d.table != table);
        self.built.0.supports.retain(|(t, _)| t != table);
        self.epochs.remove(table);
    }

    /// Bumps `table`'s staleness epoch (every committed DML against an
    /// indexed table calls this; `orion.indexes` reports it).
    pub fn note_mutation(&mut self, table: &str) {
        if self.defs.values().any(|d| d.table == table) {
            *self.epochs.entry(table.to_string()).or_insert(0) += 1;
        }
    }

    /// The table's current staleness epoch.
    pub fn epoch(&self, table: &str) -> u64 {
        self.epochs.get(table).copied().unwrap_or(0)
    }

    /// The cached tree for `name` over exactly `rel`'s tuples.
    pub fn cached(&self, name: &str, rel: &Relation) -> Option<Arc<BuiltIndex>> {
        self.built.tree(self.defs.get(name)?, rel)
    }

    /// Whether a tree for `name` was built from this very version of `rel`
    /// — the test [`Self::ensure_built`] applies, exposed so the planner
    /// can price a pending rebuild.
    pub fn is_fresh(&self, name: &str, rel: &Relation) -> bool {
        self.cached(name, rel).is_some()
    }

    /// Returns the tree for `name` over `rel`, building it on a miss.
    pub fn ensure_built(&self, name: &str, rel: &Relation) -> Result<Arc<BuiltIndex>> {
        let def = self
            .defs
            .get(name)
            .ok_or_else(|| EngineError::Operator(format!("unknown index '{name}'")))?;
        self.built.tree_or_build(def, rel, self.epoch(&def.table))
    }

    /// Canonical encoding of the definitions (checkpoint section,
    /// fingerprints). Epochs and built trees are volatile and excluded.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.defs.len() as u32).to_le_bytes());
        for def in self.defs.values() {
            def.encode_into(&mut out);
        }
        out
    }

    /// Decodes a definitions section written by [`IndexCatalog::encode`].
    pub fn decode_defs(buf: &[u8]) -> Result<Vec<IndexDef>> {
        let n = buf
            .get(..4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
            .ok_or_else(|| EngineError::Corrupt("index section truncated".into()))?;
        let mut pos = 4usize;
        let mut defs = Vec::with_capacity(n);
        for _ in 0..n {
            let (def, used) = IndexDef::decode(&buf[pos..])?;
            pos += used;
            defs.push(def);
        }
        Ok(defs)
    }

    /// Replaces all definitions (checkpoint load).
    pub fn replace_defs(&mut self, defs: Vec<IndexDef>) {
        self.defs.clear();
        for d in defs {
            self.defs.insert(d.name.clone(), d);
        }
    }
}

/// A cloneable, thread-safe handle to a shared [`IndexCatalog`] — the
/// durable engine, SQL sessions, and [`crate::select::ExecOptions`] all
/// point at the same catalog so DML staleness bumps are visible to every
/// reader.
#[derive(Clone, Default)]
pub struct IndexHandle(Arc<Mutex<IndexCatalog>>);

impl IndexHandle {
    /// A handle to a fresh empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing catalog.
    pub fn from_catalog(cat: IndexCatalog) -> Self {
        IndexHandle(Arc::new(Mutex::new(cat)))
    }

    /// Locks the catalog (poison-tolerant: the catalog holds no partially
    /// applied state across panics).
    pub fn lock(&self) -> MutexGuard<'_, IndexCatalog> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl fmt::Debug for IndexHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IndexHandle({} defs)", self.lock().defs.len())
    }
}

/// Which access-path selection policy the planner runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Cost-based: estimate scan vs index costs and pick the cheaper.
    Cost,
    /// Rule-based: always prefer a usable index. A test hook, set in code,
    /// that forces the index path for differential oracles.
    Rule,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryRegistry;
    use crate::schema::{ColumnType, ProbSchema};
    use orion_pdf::prelude::*;
    use orion_pdf::sample::XorShift;

    fn readings(n: usize) -> (Relation, HistoryRegistry) {
        let schema = ProbSchema::new(
            vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        let mut rng = XorShift::new(31);
        for rid in 1..=n as i64 {
            let mean = rng.next_f64() * 100.0;
            let sd = 1.0 + rng.next_f64() * 2.0;
            rel.insert_simple(
                &mut reg,
                &[("rid", Value::Int(rid))],
                &[("v", Pdf1::gaussian(mean, sd * sd).unwrap())],
            )
            .unwrap();
        }
        (rel, reg)
    }

    fn cdf_def() -> IndexDef {
        IndexDef {
            name: "idx_v".into(),
            table: "r".into(),
            column: "v".into(),
            kind: IndexKind::Cdf,
        }
    }

    #[test]
    fn def_codec_round_trips() {
        let def = cdf_def();
        let bytes = def.encode();
        let (back, used) = IndexDef::decode(&bytes).unwrap();
        assert_eq!(back, def);
        assert_eq!(used, bytes.len());
        assert!(IndexDef::decode(&bytes[..bytes.len() - 1]).is_err(), "truncation detected");
        assert_eq!(IndexKind::parse("CDF"), Some(IndexKind::Cdf));
        assert_eq!(IndexKind::parse("evx"), Some(IndexKind::Evx));
        assert_eq!(IndexKind::parse("btree"), None);
    }

    #[test]
    fn cdf_mask_is_a_sound_superset() {
        let (rel, _) = readings(400);
        let built = BuiltIndex::build(&cdf_def(), &rel, 0).unwrap();
        assert_eq!(built.len(), 400);
        assert!(built.pages() >= 1);
        let iv = Interval::new(40.0, 45.0);
        for (op, p) in [(CmpOp::Gt, 0.5), (CmpOp::Ge, 0.9), (CmpOp::Gt, 1e-6), (CmpOp::Ge, 0.01)] {
            let (mask, probes) = built.threshold_mask(&iv, op, p).unwrap().expect("prunable");
            assert!(probes > 0);
            assert!(mask.iter().filter(|&&b| b).count() < rel.len(), "must prune something");
            for (ti, keep) in mask.iter().enumerate() {
                if !keep {
                    let prob = rel.marginal(ti, "v").unwrap().range_prob(&iv);
                    let passes = match op {
                        CmpOp::Gt => prob > p,
                        _ => prob >= p,
                    };
                    assert!(!passes, "tuple {ti} wrongly pruned (prob {prob}, p {p})");
                }
            }
        }
        // Non-upper-bound operators and tiny thresholds never prune.
        assert!(built.threshold_mask(&iv, CmpOp::Lt, 0.5).unwrap().is_none());
        assert!(built.threshold_mask(&iv, CmpOp::Gt, 1e-9).unwrap().is_none());
    }

    #[test]
    fn cdf_levels_prune_low_probability_overlaps() {
        // Two gaussians overlapping the query interval only in a far tail:
        // support intersects, mass is 1, but the stored cdf levels bound
        // the in-interval mass below p.
        let schema = ProbSchema::new(vec![("v", ColumnType::Real, true)], vec![]).unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        for mean in [0.0, 100.0] {
            rel.insert_simple(&mut reg, &[], &[("v", Pdf1::gaussian(mean, 4.0).unwrap())]).unwrap();
        }
        let def = IndexDef {
            name: "i".into(),
            table: "r".into(),
            column: "v".into(),
            kind: IndexKind::Cdf,
        };
        let built = BuiltIndex::build(&def, &rel, 0).unwrap();
        // Query near the very top of tuple 0's support: true prob ~ 1e-8.
        let sup = rel.marginal(0, "v").unwrap().effective_support().unwrap();
        let iv = Interval::new(sup.hi - 0.1, sup.hi);
        let (mask, _) = built.threshold_mask(&iv, CmpOp::Gt, 0.5).unwrap().unwrap();
        assert!(!mask[0], "cdf levels must prune the tail-only overlap");
        assert!(!mask[1], "support-disjoint tuple pruned");
    }

    #[test]
    fn evx_mask_matches_certain_range() {
        let (rel, _) = readings(200);
        let def = IndexDef {
            name: "idx_rid".into(),
            table: "r".into(),
            column: "rid".into(),
            kind: IndexKind::Evx,
        };
        let built = BuiltIndex::build(&def, &rel, 3).unwrap();
        assert_eq!(built.epoch, 3);
        let (mask, probes) = built.range_mask(50.0, 60.0).unwrap().expect("evx serves ranges");
        assert_eq!(probes, 11);
        for (ti, keep) in mask.iter().enumerate() {
            let Value::Int(rid) = rel.tuples[ti].certain[0] else { unreachable!() };
            assert_eq!(*keep, (50..=60).contains(&rid), "rid {rid}");
        }
        // Kind mismatches are rejected at build.
        let bad = IndexDef { kind: IndexKind::Cdf, ..def.clone() };
        assert!(BuiltIndex::build(&bad, &rel, 0).is_err());
        let bad = IndexDef { column: "v".into(), ..def };
        assert!(BuiltIndex::build(&bad, &rel, 0).is_err());
    }

    #[test]
    fn null_and_missing_keys_stay_candidates() {
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        rel.insert_simple(&mut reg, &[("id", Value::Int(1))], &[("v", Pdf1::certain(5.0))])
            .unwrap();
        rel.insert_simple(&mut reg, &[("id", Value::Null)], &[("v", Pdf1::certain(50.0))]).unwrap();
        let def = IndexDef {
            name: "i".into(),
            table: "r".into(),
            column: "id".into(),
            kind: IndexKind::Evx,
        };
        let built = BuiltIndex::build(&def, &rel, 0).unwrap();
        let (mask, _) = built.range_mask(100.0, 200.0).unwrap().unwrap();
        assert!(!mask[0], "keyed out-of-range tuple pruned");
        assert!(mask[1], "NULL key must remain a candidate (3VL stays in the evaluator)");
    }

    #[test]
    fn catalog_staleness_epochs_and_codec() {
        let (mut rel, mut reg) = readings(50);
        let mut cat = IndexCatalog::new();
        cat.create(cdf_def()).unwrap();
        assert!(cat.create(cdf_def()).is_err(), "duplicate name rejected");
        // note_mutation only counts tables that carry an index.
        cat.note_mutation("other");
        assert_eq!(cat.epoch("other"), 0);
        let b0 = cat.ensure_built("idx_v", &rel).unwrap();
        let b1 = cat.ensure_built("idx_v", &rel).unwrap();
        assert!(Arc::ptr_eq(&b0, &b1), "fresh build is cached");
        // The epoch is reported, not consulted: the same version still hits.
        cat.note_mutation("r");
        assert_eq!(cat.epoch("r"), 1);
        assert!(Arc::ptr_eq(&b0, &cat.ensure_built("idx_v", &rel).unwrap()));
        rel.insert_simple(&mut reg, &[("rid", Value::Int(51))], &[("v", Pdf1::certain(1.0))])
            .unwrap();
        assert!(!cat.is_fresh("idx_v", &rel));
        let b2 = cat.ensure_built("idx_v", &rel).unwrap();
        assert!(!Arc::ptr_eq(&b0, &b2), "stale build rebuilt");
        assert_eq!((b2.epoch, b2.rows), (1, 51));
        assert!(cat.is_fresh("idx_v", &rel));
        assert!(cat.cached("idx_v", &rel).unwrap().pages() >= 1);

        let bytes = cat.encode();
        let defs = IndexCatalog::decode_defs(&bytes).unwrap();
        assert_eq!(defs, vec![cdf_def()]);
        let mut cat2 = IndexCatalog::new();
        cat2.replace_defs(defs);
        assert_eq!(cat2.encode(), bytes, "canonical encoding is stable");

        cat.drop_index("idx_v").unwrap();
        assert!(cat.drop_index("idx_v").is_err());
        assert!(cat.is_empty());
    }

    type Write = fn(&mut Relation, &mut HistoryRegistry);

    /// Every way a writer can change a version: an append, an in-place
    /// row replacement (UPDATE) and `delete_where` (DELETE).
    fn writes() -> Vec<(&'static str, Write)> {
        vec![
            ("in-place push", |rel, reg| {
                rel.insert_simple(reg, &[("rid", Value::Int(0))], &[("v", Pdf1::certain(7.0))])
                    .unwrap();
            }),
            ("update", |rel, _| {
                let mut t = rel.tuples[0].clone();
                t.certain[0] = Value::Int(-1);
                rel.tuples_mut()[0] = t;
            }),
            ("delete", |rel, reg| {
                rel.delete_where(reg, |t| t.certain[0] == Value::Int(1));
            }),
        ]
    }

    #[test]
    fn snapshots_share_one_build_per_version() {
        let (rel, _) = readings(100);
        let mut cat = IndexCatalog::new();
        cat.create(cdf_def()).unwrap();
        let (s1, s2) = (cat.snapshot(), cat.snapshot());
        let a = s1.ensure_built("idx_v", &rel).unwrap();
        let view = rel.clone(); // a later statement's pointer-clone view
        assert!(s2.is_fresh("idx_v", &view), "built once for the version");
        assert!(Arc::ptr_eq(&a, &s2.ensure_built("idx_v", &view).unwrap()));
        assert!(Arc::ptr_eq(&a, &cat.ensure_built("idx_v", &rel).unwrap()));
        assert_eq!(cat.build_cache().entries(), (1, 0));
    }

    #[test]
    fn every_write_makes_a_new_version_and_misses() {
        for (what, write) in writes() {
            let (mut rel, mut reg) = readings(60);
            let mut cat = IndexCatalog::new();
            cat.create(cdf_def()).unwrap();
            let before = cat.ensure_built("idx_v", &rel).unwrap();
            // The cache holds only a `Weak`, so `rel` is the sole strong
            // holder and the write could happen in place if the cache did
            // not pin the allocation.
            assert_eq!(Arc::strong_count(&rel.tuples), 1, "{what}");
            write(&mut rel, &mut reg);
            assert!(!cat.is_fresh("idx_v", &rel), "{what}: must miss");
            let after = cat.ensure_built("idx_v", &rel).unwrap();
            assert!(!Arc::ptr_eq(&before, &after), "{what}: must rebuild");
            let fresh = BuiltIndex::build(&cdf_def(), &rel, 0).unwrap();
            let iv = Interval::new(40.0, 45.0);
            assert_eq!(
                after.threshold_mask(&iv, CmpOp::Gt, 0.5).unwrap(),
                fresh.threshold_mask(&iv, CmpOp::Gt, 0.5).unwrap(),
                "{what}: the rebuilt tree indexes the new version"
            );
            assert_eq!(after.rows, rel.len(), "{what}");
        }
    }

    #[test]
    fn recreated_index_never_returns_the_dropped_tree() {
        let schema = ProbSchema::new(
            vec![("v", ColumnType::Real, true), ("w", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("r", schema);
        let mut reg = HistoryRegistry::new();
        for i in 0..40 {
            let (v, w) = (Pdf1::gaussian(i as f64, 1.0), Pdf1::gaussian(-(i as f64), 1.0));
            rel.insert_simple(&mut reg, &[], &[("v", v.unwrap()), ("w", w.unwrap())]).unwrap();
        }
        let handle = IndexHandle::new();
        handle.lock().create(cdf_def()).unwrap();
        // An in-flight statement planned against the old definition ...
        let in_flight = handle.lock().snapshot();
        handle.lock().drop_index("idx_v").unwrap();
        let on_w = IndexDef { column: "w".into(), ..cdf_def() };
        handle.lock().create(on_w.clone()).unwrap();
        // ... builds and caches its tree only after the DROP + CREATE.
        let old = in_flight.ensure_built("idx_v", &rel).unwrap();
        assert_eq!(old.def.column, "v");
        let new = handle.lock().ensure_built("idx_v", &rel).unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(new.def, on_w, "the recreated name answers from its own column");
        // And the other order: the new tree first, the late old one after.
        let cat = handle.lock();
        assert!(Arc::ptr_eq(&new, &cat.ensure_built("idx_v", &rel).unwrap()));
        assert_eq!(cat.cached("idx_v", &rel).unwrap().def, on_w);
    }

    #[test]
    fn cache_stays_bounded_as_versions_come_and_go() {
        let (base, _) = readings(20);
        let mut cat = IndexCatalog::new();
        cat.create(cdf_def()).unwrap();
        let mut reg = HistoryRegistry::new();
        let mut rel = base.clone();
        cat.ensure_built("idx_v", &base).unwrap();
        for i in 0..100 {
            rel.insert_simple(&mut reg, &[("rid", Value::Int(i))], &[("v", Pdf1::certain(1.0))])
                .unwrap();
            let snap = cat.snapshot();
            snap.ensure_built("idx_v", &rel).unwrap();
            let (trees, _) = cat.build_cache().entries();
            assert_eq!(trees, 2, "version {i}: only the base and the current version live");
        }
        drop(rel);
        assert!(cat.is_fresh("idx_v", &base), "a transaction's copy never evicts the base");
    }

    #[test]
    fn handle_is_shared_and_debuggable() {
        let h = IndexHandle::new();
        let h2 = h.clone();
        h.lock().create(cdf_def()).unwrap();
        assert_eq!(h2.lock().defs().count(), 1);
        assert_eq!(format!("{h:?}"), "IndexHandle(1 defs)");
    }
}
