//! Moving-object workload: objects with jointly distributed 2-D position
//! uncertainty (the paper's motivating example for intra-tuple correlation,
//! Section II-A).

use orion_core::prelude::*;
use orion_pdf::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator for 2-D moving objects on a `[0, extent]²` field.
pub struct MovingObjectsWorkload {
    rng: StdRng,
    /// Side length of the square field.
    pub extent: f64,
    /// Grid resolution for each object's joint position pdf.
    pub grid_bins: usize,
}

impl MovingObjectsWorkload {
    /// A deterministic workload from a seed.
    pub fn new(seed: u64) -> Self {
        MovingObjectsWorkload { rng: StdRng::seed_from_u64(seed), extent: 100.0, grid_bins: 16 }
    }

    /// Builds a correlated 2-D position pdf: the object moves along a
    /// heading, so x- and y-uncertainty are correlated (mass concentrated
    /// near a diagonal band of the local grid).
    pub fn position_joint(&mut self) -> (f64, f64, JointPdf) {
        let cx = self.rng.gen_range(5.0..self.extent - 5.0);
        let cy = self.rng.gen_range(5.0..self.extent - 5.0);
        let spread = self.rng.gen_range(1.0..4.0);
        let slope: f64 = self.rng.gen_range(-1.0..1.0);
        let bins = self.grid_bins;
        let dims = vec![
            GridDim::over(cx - spread, cx + spread, bins).expect("valid axis"),
            GridDim::over(cy - spread, cy + spread, bins).expect("valid axis"),
        ];
        // Band density: Gaussian fall-off from the heading line.
        let grid = JointGrid::from_density(dims, 1.0, |p| {
            let dx = p[0] - cx;
            let dy = p[1] - cy;
            let dist = dy - slope * dx;
            (-dist * dist / (0.5 * spread * spread)).exp()
        })
        .expect("valid grid");
        (cx, cy, JointPdf::from_grid(grid))
    }

    /// Builds a relation `objects(oid, x, y)` with `n` objects whose (x, y)
    /// are jointly distributed, registering histories in `reg`.
    pub fn relation(&mut self, n: usize, reg: &mut HistoryRegistry) -> Relation {
        let schema = ProbSchema::new(
            vec![
                ("oid", ColumnType::Int, false),
                ("x", ColumnType::Real, true),
                ("y", ColumnType::Real, true),
            ],
            vec![vec!["x", "y"]],
        )
        .expect("valid schema");
        let mut rel = Relation::new("objects", schema);
        for oid in 1..=n as i64 {
            let (_, _, joint) = self.position_joint();
            rel.insert(reg, &[("oid", Value::Int(oid))], vec![(vec!["x", "y"], joint)])
                .expect("valid insert");
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_positions_are_correlated() {
        let mut w = MovingObjectsWorkload::new(5);
        let (cx, cy, j) = w.position_joint();
        assert_eq!(j.arity(), 2);
        assert!((j.mass() - 1.0).abs() < 1e-9);
        // The expectation sits near the center.
        assert!((j.expected(0).unwrap() - cx).abs() < 1.0);
        assert!((j.expected(1).unwrap() - cy).abs() < 1.0);
    }

    #[test]
    fn relation_builds_with_joint_nodes() {
        let mut w = MovingObjectsWorkload::new(11);
        let mut reg = HistoryRegistry::new();
        let rel = w.relation(4, &mut reg);
        assert_eq!(rel.len(), 4);
        assert_eq!(reg.len(), 4, "one base pdf per object");
        for t in rel.tuples.iter() {
            assert_eq!(t.nodes.len(), 1, "x and y share one dependency set");
            assert_eq!(t.nodes[0].dims.len(), 2);
        }
    }

    #[test]
    fn range_selection_on_x_floors_joint() {
        let mut w = MovingObjectsWorkload::new(3);
        let mut reg = HistoryRegistry::new();
        let rel = w.relation(6, &mut reg);
        let out = orion_core::select::select(
            &rel,
            &Predicate::cmp("x", CmpOp::Lt, 50.0),
            &reg,
            &ExecOptions::default(),
        )
        .unwrap();
        // Every surviving tuple's mass equals P(x < 50) for that object.
        for (i, t) in out.tuples.iter().enumerate() {
            let m = t.nodes[0].mass();
            assert!(m > 0.0 && m <= 1.0 + 1e-9, "tuple {i} mass {m}");
        }
    }
}
