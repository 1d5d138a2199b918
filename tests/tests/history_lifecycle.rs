//! History lifecycle across operator pipelines: reference counting, phantom
//! survival after base deletion, and correctness of late recombination
//! against still-live phantoms.

use orion_core::prelude::*;
use orion_core::project::project;
use orion_core::select::select;
use orion_pdf::prelude::*;

fn base_with_joint(reg: &mut HistoryRegistry) -> Relation {
    let schema = ProbSchema::new(
        vec![
            ("id", ColumnType::Int, false),
            ("a", ColumnType::Int, true),
            ("b", ColumnType::Int, true),
        ],
        vec![vec!["a", "b"]],
    )
    .unwrap();
    let mut rel = Relation::new("T", schema);
    rel.insert(
        reg,
        &[("id", Value::Int(1))],
        vec![(
            vec!["a", "b"],
            JointPdf::from_points(
                JointDiscrete::from_points(2, vec![(vec![4.0, 5.0], 0.9), (vec![2.0, 3.0], 0.1)])
                    .unwrap(),
            ),
        )],
    )
    .unwrap();
    rel
}

/// Takes the references a store takes for every node of `rel`'s tuples.
/// Query results hold none; a relation kept past its statement must.
fn pin(rel: &Relation, reg: &mut HistoryRegistry) {
    for t in rel.tuples.iter() {
        for n in &t.nodes {
            reg.add_refs(&n.ancestors);
        }
    }
}

#[test]
fn phantom_base_supports_late_recombination() {
    // Derive two views and keep them (pinned, as a store would), DELETE the
    // base tuple, then recombine the views: the phantom base pdf must still
    // drive the dependent merge.
    let mut reg = HistoryRegistry::new();
    let mut rel = base_with_joint(&mut reg);
    let opts = ExecOptions::default();

    let mut ta = project(&rel, &["id", "a"], &reg, &opts).unwrap();
    ta.name = "Ta".into();
    let sel = select(&rel, &Predicate::cmp("b", CmpOp::Gt, 4i64), &reg, &opts).unwrap();
    let mut tb = project(&sel, &["id", "b"], &reg, &opts).unwrap();
    tb.name = "Tb".into();
    let base_id = *rel.tuples[0].nodes[0].ancestors.iter().next().unwrap();
    assert_eq!(reg.ref_count(base_id), 1, "reads take no references");
    pin(&ta, &mut reg);
    pin(&tb, &mut reg);
    assert_eq!(reg.ref_count(base_id), 3);

    // Delete the base tuple: its pdf survives as a phantom node.
    let removed = rel.delete_where(&mut reg, |_| true);
    assert_eq!(removed, 1);
    assert!(reg.base(base_id).unwrap().phantom, "kept as phantom while referenced");

    // The join still reconstructs the correct joint through the phantom.
    let joined = orion_core::join::join(
        &ta,
        &tb,
        Some(&Predicate::cmp_cols("Ta.id", CmpOp::Eq, "Tb.id")),
        &reg,
        &opts,
    )
    .unwrap();
    assert_eq!(joined.len(), 1);
    assert!((joined.tuples[0].naive_existence() - 0.9).abs() < 1e-12);

    // Releasing the pinned views reclaims the phantom.
    ta.release(&mut reg);
    assert!(reg.base(base_id).is_ok(), "still cited by Tb");
    tb.release(&mut reg);
    assert!(reg.base(base_id).is_err(), "phantom reclaimed at refcount zero");
}

#[test]
fn unreferenced_delete_reclaims_immediately() {
    let mut reg = HistoryRegistry::new();
    let mut rel = base_with_joint(&mut reg);
    let base_id = *rel.tuples[0].nodes[0].ancestors.iter().next().unwrap();
    rel.delete_where(&mut reg, |_| true);
    assert!(reg.base(base_id).is_err());
    assert!(reg.is_empty());
}

#[test]
fn threshold_and_selection_share_history_semantics() {
    // Pr(a) over a set merged by selection equals the selection's mass.
    let mut reg = HistoryRegistry::new();
    let rel = base_with_joint(&mut reg);
    let opts = ExecOptions::default();
    let sel = select(&rel, &Predicate::cmp_cols("a", CmpOp::Lt, "b"), &reg, &opts).unwrap();
    let a_id = rel.schema.column("a").unwrap().id;
    let prob =
        orion_core::threshold::attr_set_probability(&sel.tuples[0], &[a_id], &reg, &opts).unwrap();
    assert!((prob - 1.0).abs() < 1e-12, "a < b always holds in this joint");
}

#[test]
fn eager_and_lazy_collapse_agree() {
    let mut reg = HistoryRegistry::new();
    let rel = base_with_joint(&mut reg);
    let eager = ExecOptions::default();
    let lazy = ExecOptions { eager_collapse: false, ..ExecOptions::default() };

    let build = |reg: &HistoryRegistry, opts: &ExecOptions| {
        let mut ta = project(&rel, &["id", "a"], reg, opts).unwrap();
        ta.name = "Ta".into();
        let sel = select(&rel, &Predicate::cmp("b", CmpOp::Gt, 4i64), reg, opts).unwrap();
        let mut tb = project(&sel, &["id", "b"], reg, opts).unwrap();
        tb.name = "Tb".into();
        orion_core::join::join(
            &ta,
            &tb,
            Some(&Predicate::cmp_cols("Ta.id", CmpOp::Eq, "Tb.id")),
            reg,
            opts,
        )
        .unwrap()
    };
    let je = build(&reg, &eager);
    let jl = build(&reg, &lazy);
    assert_eq!(je.len(), jl.len());
    // Lazy keeps two nodes; eager one — but collapsed existence agrees.
    assert_eq!(je.tuples[0].nodes.len(), 1);
    assert_eq!(jl.tuples[0].nodes.len(), 2);
    let pe = je.tuples[0].naive_existence();
    let pl = orion_core::collapse::existence_prob(&jl.tuples[0], &reg, eager.resolution).unwrap();
    assert!((pe - pl).abs() < 1e-12);
    assert!((pe - 0.9).abs() < 1e-12);
}
