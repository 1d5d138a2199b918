//! Differential oracle for the segmented, copy-on-write
//! [`HistoryRegistry`]: seeded random operation sequences run against the
//! registry and against a plain `HashMap` reference model with the
//! registry's documented semantics, and every observable — `base`,
//! `ref_count`, `len`, `last_id`, `iter_bases` — must agree after each
//! step.
//!
//! Clones are exercised the way transactions and queries use them: a
//! clone and its original are both mutated, and each must still match its
//! own model, so a write through one can never show through the other.
//! Ids are drawn around the allocation frontier, across segment
//! boundaries, and far beyond any allocated id.
//!
//! Set `ORION_ORACLE_SEED` to replay `registry_env_seeded_oracle` with a
//! given seed (decimal or `0x` hex).

use orion_core::history::BasePdf;
use orion_core::prelude::*;
use orion_pdf::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// The reference model: the registry's semantics over two hash maps.
#[derive(Debug, Clone, Default)]
struct Model {
    next: PdfId,
    bases: HashMap<PdfId, (Vec<AttrId>, JointPdf, bool)>,
    refs: HashMap<PdfId, usize>,
    /// Every id a base was ever stored under (for picking operands).
    seen: Vec<PdfId>,
}

impl Model {
    fn register(&mut self, attrs: Vec<AttrId>, joint: JointPdf) -> PdfId {
        self.next += 1;
        self.install(self.next, attrs, joint, false);
        self.next
    }

    fn reserve_ids(&mut self, n: u64) -> PdfId {
        let first = self.next + 1;
        self.next += n;
        first
    }

    fn install(&mut self, id: PdfId, attrs: Vec<AttrId>, joint: JointPdf, phantom: bool) {
        self.bases.insert(id, (attrs, joint, phantom));
        self.seen.push(id);
    }

    fn restore(&mut self, id: PdfId, attrs: Vec<AttrId>, joint: JointPdf, phantom: bool) {
        self.next = self.next.max(id);
        self.install(id, attrs, joint, phantom);
    }

    fn add_refs(&mut self, anc: &Ancestors) {
        for &id in anc {
            *self.refs.entry(id).or_insert(0) += 1;
        }
    }

    fn release_refs(&mut self, anc: &Ancestors) {
        for &id in anc {
            if let Some(n) = self.refs.get_mut(&id) {
                *n -= 1;
                if *n == 0 {
                    self.refs.remove(&id);
                    if self.bases.get(&id).is_some_and(|b| b.2) {
                        self.bases.remove(&id);
                    }
                }
            }
        }
    }

    fn delete_base(&mut self, id: PdfId) {
        if !self.refs.contains_key(&id) {
            self.bases.remove(&id);
        } else if let Some(b) = self.bases.get_mut(&id) {
            b.2 = true;
        }
    }
}

/// One registry and the model it must match.
#[derive(Debug, Clone, Default)]
struct Pair {
    reg: HistoryRegistry,
    model: Model,
}

fn joint(tag: f64) -> JointPdf {
    JointPdf::from_pdf1(Pdf1::certain(tag))
}

/// An id some base was stored under, one at the allocation frontier, one
/// at a segment boundary, or one far beyond anything allocated.
fn pick_id(rng: &mut StdRng, model: &Model) -> PdfId {
    match rng.gen_range(0..10u32) {
        0 => rng.gen_range(0..4u64) * 1024 + rng.gen_range(0..3u64),
        1 => 1u64 << rng.gen_range(12..40u32),
        2 | 3 => (model.next + 2).saturating_sub(rng.gen_range(0..6u64)),
        _ if model.seen.is_empty() => 0,
        _ => model.seen[rng.gen_range(0..model.seen.len())],
    }
}

fn pick_set(rng: &mut StdRng, model: &Model) -> Ancestors {
    (0..rng.gen_range(1..4usize)).map(|_| pick_id(rng, model)).collect()
}

impl Pair {
    /// Applies one random operation to both sides.
    fn step(&mut self, rng: &mut StdRng, tag: &mut f64) {
        *tag += 1.0;
        match rng.gen_range(0..7u32) {
            0 => {
                let attrs = vec![rng.gen_range(1..50u64)];
                let a = self.reg.register(attrs.clone(), joint(*tag));
                let b = self.model.register(attrs, joint(*tag));
                assert_eq!(a, b, "register allocates the same id");
            }
            1 => {
                // Mostly small reservations; now and then one that spans
                // whole segments.
                let n = if rng.gen_range(0..16u32) == 0 {
                    rng.gen_range(900..2100u64)
                } else {
                    rng.gen_range(1..5u64)
                };
                let a = self.reg.reserve_ids(n);
                assert_eq!(a, self.model.reserve_ids(n), "reserve_ids hands out the same range");
                for id in a..a + n {
                    let attrs = vec![id % 7];
                    self.reg.install_reserved(id, attrs.clone(), joint(*tag + id as f64));
                    self.model.install(id, attrs, joint(*tag + id as f64), false);
                }
            }
            2 | 3 => {
                let anc = pick_set(rng, &self.model);
                self.reg.add_refs(&anc);
                self.model.add_refs(&anc);
            }
            4 => {
                let anc = pick_set(rng, &self.model);
                self.reg.release_refs(&anc);
                self.model.release_refs(&anc);
            }
            5 => {
                let id = pick_id(rng, &self.model);
                self.reg.delete_base(id);
                self.model.delete_base(id);
            }
            _ => {
                let id = match rng.gen_range(0..3u32) {
                    0 => self.model.next + rng.gen_range(1..2000u64),
                    _ => pick_id(rng, &self.model),
                };
                let phantom = rng.gen_range(0..4u32) == 0;
                let base = BasePdf { attrs: vec![3, 4], joint: joint(-*tag), phantom };
                self.reg.restore(id, base);
                self.model.restore(id, vec![3, 4], joint(-*tag), phantom);
            }
        }
    }

    /// The registry's `len`, `last_id` and the probed ids' `base` and
    /// `ref_count` equal the model's; with `full`, so do `iter_bases` and
    /// every id the model holds a base or a count for.
    fn check(&self, probes: &[PdfId], full: bool, what: &str) {
        let (reg, model) = (&self.reg, &self.model);
        assert_eq!(reg.len(), model.bases.len(), "{what}: len");
        assert_eq!(reg.is_empty(), model.bases.is_empty(), "{what}: is_empty");
        assert_eq!(reg.last_id(), model.next, "{what}: last_id");
        let mut ids: Vec<PdfId> = probes.to_vec();
        if full {
            let listed: Vec<PdfId> = reg.iter_bases().map(|(id, _)| id).collect();
            let set: BTreeSet<PdfId> = listed.iter().copied().collect();
            // Snapshots are written in this order.
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "{what}: iter_bases in id order");
            assert_eq!(set, model.bases.keys().copied().collect(), "{what}: iter_bases ids");
            for (id, b) in reg.iter_bases() {
                let m = &model.bases[&id];
                assert_eq!((&b.attrs, &b.joint, b.phantom), (&m.0, &m.1, m.2), "{what}: base {id}");
            }
            ids.extend(model.bases.keys().chain(model.refs.keys()));
        }
        for id in ids {
            let want = model.refs.get(&id).copied().unwrap_or(0);
            assert_eq!(reg.ref_count(id), want, "{what}: ref_count {id}");
            match (reg.base(id), model.bases.get(&id)) {
                (Ok(b), Some(m)) => {
                    assert_eq!((&b.attrs, &b.joint, b.phantom), (&m.0, &m.1, m.2), "{what}: {id}")
                }
                (Err(_), None) => {}
                (got, want) => panic!("{what}: base({id}) is {got:?}, model has {want:?}"),
            }
        }
    }
}

fn run(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tag = 0.0;
    let mut live = Pair::default();
    for step in 0..steps {
        if rng.gen_range(0..25u32) == 0 {
            // Clone, then mutate both: neither may see the other's writes.
            let mut fork = live.clone();
            for _ in 0..rng.gen_range(1..30usize) {
                fork.step(&mut rng, &mut tag);
            }
            let probes: Vec<PdfId> = (0..8).map(|_| pick_id(&mut rng, &live.model)).collect();
            live.check(&probes, true, &format!("seed {seed} step {step}: original after fork"));
            for _ in 0..rng.gen_range(1..30usize) {
                live.step(&mut rng, &mut tag);
            }
            fork.check(&probes, true, &format!("seed {seed} step {step}: fork after original"));
            // Carry on from either side.
            if rng.gen_range(0..2u32) == 0 {
                live = fork;
            }
        } else {
            live.step(&mut rng, &mut tag);
        }
        let probes: Vec<PdfId> = (0..4).map(|_| pick_id(&mut rng, &live.model)).collect();
        live.check(&probes, step % 20 == 19, &format!("seed {seed} step {step}"));
    }
}

#[test]
fn registry_matches_hashmap_model() {
    for seed in 0..8 {
        run(seed, 300);
    }
}

/// Seeded entry point for CI: `scripts/check.sh` runs this with pinned
/// `ORION_ORACLE_SEED` values; unset, it uses a fixed default.
#[test]
fn registry_env_seeded_oracle() {
    let seed: u64 = std::env::var("ORION_ORACLE_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(0x5E6);
    run(seed, 600);
}
