//! History-aware combination of pdf nodes — the paper's `product` operator
//! for historically *dependent* operands (Section III-A), and the collapse
//! of a tuple's dependent dependency sets after joins (Section III-D).
//!
//! For nodes with common ancestors `t_j.N_j`, the combined joint over
//! `S' = S1 ∪ S2` is reconstructed as
//!
//! ```text
//! f(x_S') = 0                                   if f1(x_S1) = 0 or f2(x_S2) = 0
//!         = f(x_D1) · f(x_D2) · Π_j f(x_Cj)     otherwise
//! ```
//!
//! where `C_j = N_j ∩ S'` comes from the *base* (unfloored) ancestor joint
//! and `D_k = S_k \ ∪C_j`. Sets are matched by **variable identity**
//! ([`VarId`](crate::tuple::VarId): which base pdf instance, which
//! dimension) — not by column id, since two tuples of the same table share
//! column ids but carry distinct random variables. Because database
//! operations only ever **zero** regions of pdfs (floors) and never
//! reweight them, the zero-set of the observed descendants captures every
//! floor applied since insertion, and this reconstruction is exact for
//! discrete data (grid-resolution-exact for continuous data).

use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::tuple::{NodeDim, PdfNode, ProbTuple};
use orion_obs::ExecStats;
use orion_pdf::prelude::JointPdf;

/// Grid resolution (bins per dimension) used when continuous nodes must be
/// materialized during a collapse.
pub const DEFAULT_RESOLUTION: usize = 64;

/// Merges two nodes of the same tuple into one.
///
/// Historically independent nodes take the plain product; dependent ones
/// are reconstructed through their common ancestors as described in the
/// module docs.
pub fn merge_pair(
    n1: &PdfNode,
    n2: &PdfNode,
    reg: &HistoryRegistry,
    resolution: usize,
) -> Result<PdfNode> {
    merge_pair_with_stats(n1, n2, reg, resolution, None)
}

/// [`merge_pair`] with an optional stats collector counting the pdf
/// operations performed: one `product` for an independent merge; for a
/// dependent merge, one `collapse` plus the per-part products,
/// marginalizations, and the final floor of the reconstruction.
pub fn merge_pair_with_stats(
    n1: &PdfNode,
    n2: &PdfNode,
    reg: &HistoryRegistry,
    resolution: usize,
    stats: Option<&ExecStats>,
) -> Result<PdfNode> {
    let mut ancestors = n1.ancestors.clone();
    ancestors.extend(n2.ancestors.iter().copied());

    let common = HistoryRegistry::common(&n1.ancestors, &n2.ancestors);
    if common.is_empty() {
        // Independent: plain product (paper's first case). Variable sets
        // are necessarily disjoint — a shared VarId implies a shared
        // ancestor.
        debug_assert!(
            n1.dims.iter().all(|d| n2.dim_of_var(d.var).is_none()),
            "independent nodes must cover disjoint variables"
        );
        if let Some(s) = stats {
            s.pdf_products.inc();
        }
        let mut dims = n1.dims.clone();
        dims.extend_from_slice(&n2.dims);
        return Ok(PdfNode::new(dims, n1.joint.product(&n2.joint), ancestors));
    }
    if let Some(s) = stats {
        s.collapses.inc();
    }

    // Dependent: rebuild through common ancestors. Assemble parts in the
    // order D1, D2, C_1 .. C_m.
    let mut dims: Vec<NodeDim> = Vec::new();
    let mut joint: Option<JointPdf> = None;
    let push = |part_dims: Vec<NodeDim>,
                j: JointPdf,
                acc: &mut Option<JointPdf>,
                dims: &mut Vec<NodeDim>| {
        dims.extend(part_dims);
        *acc = Some(match acc.take() {
            None => j,
            Some(a) => {
                if let Some(s) = stats {
                    s.pdf_products.inc();
                }
                a.product(&j)
            }
        });
    };

    // D_k: dimensions of each node whose variable does not come from a
    // common ancestor.
    for n in [n1, n2] {
        let d_idx: Vec<usize> = n
            .dims
            .iter()
            .enumerate()
            .filter(|(_, d)| !common.contains(&d.var.base))
            .map(|(i, _)| i)
            .collect();
        if !d_idx.is_empty() {
            if let Some(s) = stats {
                s.pdf_marginalizations.inc();
            }
            let part = n.joint.marginalize(&d_idx)?;
            push(d_idx.iter().map(|&i| n.dims[i]).collect(), part, &mut joint, &mut dims);
        }
    }
    // A variable outside every common ancestor can belong to only one of
    // the nodes; duplicates here would mean an ill-formed history.
    for (i, d) in dims.iter().enumerate() {
        if dims[i + 1..].iter().any(|e| e.var == d.var) {
            return Err(EngineError::Operator(format!(
                "variable {:?} shared by both nodes but by no common ancestor — \
                 ill-formed history",
                d.var
            )));
        }
    }

    // C_j: the dimensions of each common ancestor present in either node,
    // taken from the base (unfloored) joint.
    for &j in &common {
        let base = reg.base(j)?;
        let mut keep: Vec<usize> = Vec::new();
        let mut part_dims: Vec<NodeDim> = Vec::new();
        for d in 0..base.joint.arity() {
            let var = crate::tuple::VarId { base: j, dim: d as u16 };
            let in1 = n1.dim_of_var(var);
            let in2 = n2.dim_of_var(var);
            if in1.is_none() && in2.is_none() {
                continue;
            }
            let column =
                in1.and_then(|i| n1.dims[i].column).or_else(|| in2.and_then(|i| n2.dims[i].column));
            keep.push(d);
            part_dims.push(NodeDim { var, column });
        }
        if keep.is_empty() {
            continue;
        }
        if let Some(s) = stats {
            s.pdf_marginalizations.inc();
        }
        let marginal = base.joint.marginalize(&keep)?;
        push(part_dims, marginal, &mut joint, &mut dims);
    }
    let joint = joint
        .ok_or_else(|| EngineError::Operator("dependent merge produced no components".into()))?;

    // Propagate the observed floors: zero wherever either descendant's
    // density is zero at the corresponding coordinates.
    let all_dims: Vec<usize> = (0..dims.len()).collect();
    let pos_of_var = |v: crate::tuple::VarId| {
        dims.iter().position(|d| d.var == v).expect("variable present in merged dims")
    };
    let idx1: Vec<usize> = n1.dims.iter().map(|d| pos_of_var(d.var)).collect();
    let idx2: Vec<usize> = n2.dims.iter().map(|d| pos_of_var(d.var)).collect();
    let order = joint.dim_order_after_merge(&all_dims);
    let (j1, j2) = (&n1.joint, &n2.joint);
    let mut buf1 = vec![0.0; idx1.len()];
    let mut buf2 = vec![0.0; idx2.len()];
    if let Some(s) = stats {
        s.pdf_floors.inc();
    }
    let floored = joint.floor_predicate(&all_dims, resolution, |x| {
        for (b, &i) in buf1.iter_mut().zip(&idx1) {
            *b = x[i];
        }
        if j1.density(&buf1) <= 0.0 {
            return false;
        }
        for (b, &i) in buf2.iter_mut().zip(&idx2) {
            *b = x[i];
        }
        j2.density(&buf2) > 0.0
    })?;
    // floor_predicate may reorder dimensions when it merges non-adjacent
    // blocks; translate the dimension list the same way.
    let dims: Vec<NodeDim> = order.iter().map(|&i| dims[i]).collect();

    Ok(PdfNode::new(dims, floored, ancestors))
}

/// Merges a list of nodes (>= 1) left-to-right.
pub fn merge_nodes(
    nodes: &[&PdfNode],
    reg: &HistoryRegistry,
    resolution: usize,
) -> Result<PdfNode> {
    merge_nodes_with_stats(nodes, reg, resolution, None)
}

/// [`merge_nodes`] with an optional stats collector.
pub fn merge_nodes_with_stats(
    nodes: &[&PdfNode],
    reg: &HistoryRegistry,
    resolution: usize,
    stats: Option<&ExecStats>,
) -> Result<PdfNode> {
    let (first, rest) =
        nodes.split_first().ok_or_else(|| EngineError::Operator("merge of zero nodes".into()))?;
    let Some((second, rest)) = rest.split_first() else {
        return Ok((*first).clone());
    };
    let mut acc = merge_pair_with_stats(first, second, reg, resolution, stats)?;
    for n in rest {
        acc = merge_pair_with_stats(&acc, n, reg, resolution, stats)?;
    }
    Ok(acc)
}

/// Collapses every historically dependent group of nodes within a tuple
/// into a single node (the paper's eager strategy for Section III-D).
/// Independent nodes are left untouched.
pub fn collapse_tuple(
    tuple: &ProbTuple,
    reg: &HistoryRegistry,
    resolution: usize,
) -> Result<ProbTuple> {
    collapse_tuple_with_stats(tuple, reg, resolution, None)
}

/// [`collapse_tuple`] with an optional stats collector.
pub fn collapse_tuple_with_stats(
    tuple: &ProbTuple,
    reg: &HistoryRegistry,
    resolution: usize,
    stats: Option<&ExecStats>,
) -> Result<ProbTuple> {
    // Union-find over node indices, linked by ancestor intersection.
    let n = tuple.nodes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut [usize], mut x: usize) -> usize {
        while p[x] != x {
            p[x] = p[p[x]];
            x = p[x];
        }
        x
    }
    for i in 0..n {
        for j in i + 1..n {
            if HistoryRegistry::dependent(&tuple.nodes[i].ancestors, &tuple.nodes[j].ancestors) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[rj] = ri;
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut nodes = Vec::with_capacity(groups.len());
    for (_, members) in groups {
        if members.len() == 1 {
            nodes.push(tuple.nodes[members[0]].clone());
        } else {
            let refs: Vec<&PdfNode> = members.iter().map(|&i| &tuple.nodes[i]).collect();
            nodes.push(merge_nodes_with_stats(&refs, reg, resolution, stats)?);
        }
    }
    Ok(ProbTuple { certain: tuple.certain.clone(), nodes })
}

/// Whether no two nodes share an ancestor: then collapsing their tuple
/// merges nothing and leaves it as it is.
pub(crate) fn ancestor_disjoint(nodes: &[PdfNode]) -> bool {
    nodes.iter().enumerate().all(|(i, a)| {
        nodes[i + 1..].iter().all(|b| !HistoryRegistry::dependent(&a.ancestors, &b.ancestors))
    })
}

/// The true existence probability of a tuple, collapsing dependent nodes
/// first.
pub fn existence_prob(tuple: &ProbTuple, reg: &HistoryRegistry, resolution: usize) -> Result<f64> {
    existence_prob_with_stats(tuple, reg, resolution, None)
}

/// [`existence_prob`] with an optional stats collector.
pub fn existence_prob_with_stats(
    tuple: &ProbTuple,
    reg: &HistoryRegistry,
    resolution: usize,
    stats: Option<&ExecStats>,
) -> Result<f64> {
    Ok(collapse_tuple_with_stats(tuple, reg, resolution, stats)?.naive_existence())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Ancestors;
    use crate::tuple::VarId;
    use orion_pdf::prelude::*;

    /// Builds the Figure 3 scenario: base joint {a,b} =
    /// Discrete({4,5}:0.9, {2,3}:0.1); n1 = marginal on a (phantom b);
    /// n2 = marginal on b after selection b > 4 (phantom a).
    fn fig3() -> (PdfNode, PdfNode, HistoryRegistry) {
        let mut reg = HistoryRegistry::new();
        let (a, b) = (100u64, 101u64);
        let base = JointPdf::from_points(
            JointDiscrete::from_points(2, vec![(vec![4.0, 5.0], 0.9), (vec![2.0, 3.0], 0.1)])
                .unwrap(),
        );
        let id = reg.register(vec![a, b], base.clone());
        let anc: Ancestors = [id].into_iter().collect();
        // Keep the full joints with a phantom dimension (what projection
        // does when floors must be preserved).
        let n1 = PdfNode::base(id, &[a, b], base.clone(), anc.clone()).hide_columns(&[b]);
        let sel = base.floor_axis(1, &RegionSet::from_interval(Interval::at_most(4.0)));
        let n2 = PdfNode::base(id, &[a, b], sel, anc).hide_columns(&[a]);
        (n1, n2, reg)
    }

    #[test]
    fn fig3_dependent_merge_is_correct() {
        let (n1, n2, reg) = fig3();
        let merged = merge_pair(&n1, &n2, &reg, DEFAULT_RESOLUTION).unwrap();
        // Correct result T2: Discrete({4,5}:0.9) — the (2,5) phantom of the
        // naive product must NOT appear, and the probability must be 0.9
        // (not 0.81).
        let pa = merged.dim_of(100).unwrap();
        let pb = merged.dim_of(101).unwrap();
        let d = |a: f64, b: f64| {
            let mut pt = vec![0.0; merged.dims.len()];
            pt[pa] = a;
            pt[pb] = b;
            merged.joint.density(&pt)
        };
        assert!((d(4.0, 5.0) - 0.9).abs() < 1e-12);
        assert_eq!(d(2.0, 5.0), 0.0, "impossible world");
        assert!((merged.mass() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fig3_merge_deduplicates_shared_variables() {
        // n1 and n2 both carry BOTH dimensions of the shared base (one
        // visible, one phantom); the merge must produce exactly two dims.
        let (n1, n2, reg) = fig3();
        let merged = merge_pair(&n1, &n2, &reg, DEFAULT_RESOLUTION).unwrap();
        assert_eq!(merged.dims.len(), 2);
        assert!(merged.covers(100) && merged.covers(101));
    }

    #[test]
    fn fig3_naive_product_would_be_wrong() {
        // Demonstrates what ignoring histories produces (T1 in the paper):
        // marginals multiplied independently.
        let (n1, n2, _) = fig3();
        let ma = n1.joint.marginal1(0).unwrap();
        let mb = n2.joint.marginal1(1).unwrap();
        assert!((ma.density(2.0) * mb.density(5.0) - 0.09).abs() < 1e-12, "phantom tuple");
        assert!((ma.density(4.0) * mb.density(5.0) - 0.81).abs() < 1e-12, "wrong probability");
    }

    #[test]
    fn independent_merge_is_plain_product() {
        let mut reg = HistoryRegistry::new();
        let p1 = JointPdf::from_pdf1(Pdf1::discrete(vec![(1.0, 0.5), (2.0, 0.5)]).unwrap());
        let p2 = JointPdf::from_pdf1(Pdf1::discrete(vec![(7.0, 1.0)]).unwrap());
        let i1 = reg.register(vec![1], p1.clone());
        let i2 = reg.register(vec![2], p2.clone());
        let n1 = PdfNode::base(i1, &[1], p1, [i1].into_iter().collect());
        let n2 = PdfNode::base(i2, &[2], p2, [i2].into_iter().collect());
        let m = merge_pair(&n1, &n2, &reg, DEFAULT_RESOLUTION).unwrap();
        assert_eq!(m.dims.len(), 2);
        assert!((m.joint.density(&[1.0, 7.0]) - 0.5).abs() < 1e-12);
        assert_eq!(m.ancestors.len(), 2);
    }

    #[test]
    fn same_column_different_tuples_stay_distinct() {
        // Two base tuples of the same table share column ids but carry
        // distinct variables: an independent merge must keep all four dims.
        let mut reg = HistoryRegistry::new();
        let (a, b) = (10u64, 11u64);
        let mk = |reg: &mut HistoryRegistry, pts: Vec<(Vec<f64>, f64)>| {
            let j = JointPdf::from_points(JointDiscrete::from_points(2, pts).unwrap());
            let id = reg.register(vec![a, b], j.clone());
            PdfNode::base(id, &[a, b], j, [id].into_iter().collect())
        };
        let n1 = mk(&mut reg, vec![(vec![4.0, 5.0], 1.0)]).hide_columns(&[b]);
        let n2 = mk(&mut reg, vec![(vec![7.0, 3.0], 1.0)]).hide_columns(&[a]);
        let m = merge_pair(&n1, &n2, &reg, DEFAULT_RESOLUTION).unwrap();
        assert_eq!(m.dims.len(), 4, "four distinct variables");
        // Column a resolves to n1's visible dim; column b to n2's.
        let pa = m.dim_of(a).unwrap();
        let pb = m.dim_of(b).unwrap();
        assert_eq!(m.dims[pa].var, VarId { base: n1.dims[0].var.base, dim: 0 });
        assert_eq!(m.dims[pb].var.dim, 1);
        assert!((m.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dependent_merge_with_disjoint_extras() {
        // n1 covers {a, c} where c is independent of the shared ancestor;
        // n2 covers {b}. Base ancestor covers {a, b}.
        let mut reg = HistoryRegistry::new();
        let (a, b, c) = (1u64, 2u64, 3u64);
        let base = JointPdf::from_points(
            JointDiscrete::from_points(2, vec![(vec![0.0, 0.0], 0.5), (vec![1.0, 1.0], 0.5)])
                .unwrap(),
        );
        let id_ab = reg.register(vec![a, b], base.clone());
        let c_pdf = JointPdf::from_pdf1(Pdf1::discrete(vec![(9.0, 1.0)]).unwrap());
        let id_c = reg.register(vec![c], c_pdf.clone());
        // n1 = (marginal a) x c, as if a prior join had merged them.
        let n1 = PdfNode::new(
            vec![
                NodeDim { var: VarId { base: id_ab, dim: 0 }, column: Some(a) },
                NodeDim { var: VarId { base: id_c, dim: 0 }, column: Some(c) },
            ],
            base.marginalize(&[0]).unwrap().product(&c_pdf),
            [id_ab, id_c].into_iter().collect(),
        );
        // n2 = marginal b, floored to b = 1.
        let n2 = PdfNode::new(
            vec![NodeDim { var: VarId { base: id_ab, dim: 1 }, column: Some(b) }],
            base.floor_axis(1, &RegionSet::from_interval(Interval::at_most(0.5)))
                .marginalize(&[1])
                .unwrap(),
            [id_ab].into_iter().collect(),
        );
        let m = merge_pair(&n1, &n2, &reg, DEFAULT_RESOLUTION).unwrap();
        assert_eq!(m.dims.len(), 3);
        // Only the world (a=1, b=1, c=9) survives, with probability 0.5.
        assert!((m.mass() - 0.5).abs() < 1e-12);
        let (pa, pb, pc) = (m.dim_of(a).unwrap(), m.dim_of(b).unwrap(), m.dim_of(c).unwrap());
        let mut pt = vec![0.0; 3];
        pt[pa] = 1.0;
        pt[pb] = 1.0;
        pt[pc] = 9.0;
        assert!((m.joint.density(&pt) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn collapse_tuple_groups_components() {
        let (n1, n2, reg) = fig3();
        let other = PdfNode::base(
            999,
            &[500],
            JointPdf::from_pdf1(Pdf1::certain(1.0)),
            [999].into_iter().collect(),
        );
        let t = ProbTuple { certain: vec![], nodes: vec![n1, other.clone(), n2] };
        let c = collapse_tuple(&t, &reg, DEFAULT_RESOLUTION).unwrap();
        assert_eq!(c.nodes.len(), 2, "dependent pair merged, independent kept");
        assert!((existence_prob(&t, &reg, DEFAULT_RESOLUTION).unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn merge_of_zero_nodes_errors() {
        let reg = HistoryRegistry::new();
        assert!(merge_nodes(&[], &reg, DEFAULT_RESOLUTION).is_err());
    }
}
