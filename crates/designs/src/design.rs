//! Developments of difference sets into balanced incomplete block designs.
//!
//! The paper treats the blocks of the development as *lines* and indexes them
//! `L₀ … L_{v−1}`. [`BlockDesign`] materialises all `v` blocks (fine for the
//! worked examples and tests); [`CyclicDesign`] answers line queries lazily
//! in `O(k)` so that Singer designs with `v` in the millions cost no memory.

use crate::diffset::{DesignError, DifferenceSet};

/// A fully materialised block design: `b` blocks of size `k` over `v` points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDesign {
    v: u64,
    k: u64,
    lambda: u64,
    blocks: Vec<Vec<u64>>,
}

impl BlockDesign {
    /// Develops a difference set into its symmetric design: blocks
    /// `L_y = D + y (mod v)` for `y = 0 … v−1`.
    pub fn develop(ds: &DifferenceSet) -> Self {
        let blocks = (0..ds.v()).map(|y| ds.line(y)).collect();
        BlockDesign {
            v: ds.v(),
            k: ds.k(),
            lambda: ds.lambda(),
            blocks,
        }
    }

    /// Wraps explicit blocks (they are verified by [`BlockDesign::verify_bibd`],
    /// not here, so exotic designs can be represented too).
    pub fn from_blocks(v: u64, lambda: u64, blocks: Vec<Vec<u64>>) -> Result<Self, DesignError> {
        if blocks.is_empty() {
            return Err(DesignError::BadParameters("no blocks".into()));
        }
        let k = blocks[0].len() as u64;
        if blocks.iter().any(|b| b.len() as u64 != k) {
            return Err(DesignError::BadParameters(
                "all blocks must have equal size".into(),
            ));
        }
        if blocks.iter().flatten().any(|&x| x >= v) {
            return Err(DesignError::BadParameters(
                "block elements must lie in [0, v)".into(),
            ));
        }
        Ok(BlockDesign {
            v,
            k,
            lambda,
            blocks,
        })
    }

    pub fn v(&self) -> u64 {
        self.v
    }

    pub fn k(&self) -> u64 {
        self.k
    }

    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// Number of blocks `b` (equals `v` for symmetric designs).
    pub fn b(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Replication number `r`: how many blocks each point lies on. Computed,
    /// not assumed — [`BlockDesign::verify_bibd`] checks it is constant.
    pub fn replication(&self) -> Result<u64, DesignError> {
        let mut counts = vec![0u64; self.v as usize];
        for block in &self.blocks {
            for &x in block {
                counts[x as usize] += 1;
            }
        }
        let r = counts[0];
        if counts.iter().any(|&c| c != r) {
            return Err(DesignError::BadParameters(
                "replication is not constant across points".into(),
            ));
        }
        Ok(r)
    }

    pub fn blocks(&self) -> &[Vec<u64>] {
        &self.blocks
    }

    pub fn block(&self, y: u64) -> &[u64] {
        &self.blocks[y as usize]
    }

    /// Full BIBD verification: constant block size, constant replication,
    /// every unordered point pair covered by exactly `λ` blocks, and the
    /// counting identities `bk = vr` and `λ(v−1) = r(k−1)`.
    pub fn verify_bibd(&self) -> Result<(), DesignError> {
        let r = self.replication()?;
        let b = self.b();
        if b * self.k != self.v * r {
            return Err(DesignError::BadParameters(format!(
                "bk = {} but vr = {}",
                b * self.k,
                self.v * r
            )));
        }
        if self.lambda * (self.v - 1) != r * (self.k - 1) {
            return Err(DesignError::BadParameters(format!(
                "λ(v-1) = {} but r(k-1) = {}",
                self.lambda * (self.v - 1),
                r * (self.k - 1)
            )));
        }
        // Pair coverage. O(b · k²) — only for materialised (small) designs.
        let v = self.v as usize;
        let mut pair = vec![0u64; v * v];
        for block in &self.blocks {
            for (i, &a) in block.iter().enumerate() {
                for &bpt in &block[i + 1..] {
                    let (lo, hi) = if a < bpt { (a, bpt) } else { (bpt, a) };
                    pair[lo as usize * v + hi as usize] += 1;
                }
            }
        }
        for lo in 0..v {
            for hi in lo + 1..v {
                let c = pair[lo * v + hi];
                if c != self.lambda {
                    return Err(DesignError::NotADifferenceSet {
                        residue: (hi - lo) as u64,
                        count: c,
                        expected: self.lambda,
                    });
                }
            }
        }
        Ok(())
    }

    /// The `v × b` incidence matrix: entry `(x, y)` is 1 iff point `x` lies
    /// on block `y`. Row-major `Vec<Vec<u8>>` for small designs.
    pub fn incidence_matrix(&self) -> Vec<Vec<u8>> {
        let mut m = vec![vec![0u8; self.blocks.len()]; self.v as usize];
        for (y, block) in self.blocks.iter().enumerate() {
            for &x in block {
                m[x as usize][y] = 1;
            }
        }
        m
    }

    /// For `λ = 1` symmetric designs (projective planes): checks the oval
    /// property for a point set — no three of the given points are collinear
    /// (lie on a common block).
    pub fn is_arc(&self, points: &[u64]) -> bool {
        for block in &self.blocks {
            let on = points.iter().filter(|p| block.contains(p)).count();
            if on >= 3 {
                return false;
            }
        }
        true
    }
}

/// A lazy view of the development of a difference set: answers per-line
/// queries without materialising `v` blocks.
#[derive(Debug, Clone)]
pub struct CyclicDesign {
    ds: DifferenceSet,
}

impl CyclicDesign {
    pub fn new(ds: DifferenceSet) -> Self {
        CyclicDesign { ds }
    }

    pub fn v(&self) -> u64 {
        self.ds.v()
    }

    pub fn k(&self) -> u64 {
        self.ds.k()
    }

    /// Line `L_y` (sorted).
    pub fn line(&self, y: u64) -> Vec<u64> {
        self.ds.line(y)
    }

    /// Does point `x` lie on line `L_y`? `O(log k)`.
    pub fn incident(&self, x: u64, y: u64) -> bool {
        let v = self.ds.v();
        let x = x % v;
        let y = y % v;
        // x on L_y  iff  (x - y) mod v ∈ D.
        let d = crate::arith::sub_mod(x, y, v);
        self.ds.base().binary_search(&d).is_ok()
    }

    /// All lines through point `x` — exactly `k` of them (`r = k` in a
    /// symmetric design): `L_{(x − d) mod v}` for `d ∈ D`.
    pub fn lines_through(&self, x: u64) -> Vec<u64> {
        let v = self.ds.v();
        let x = x % v;
        let mut ys: Vec<u64> = self
            .ds
            .base()
            .iter()
            .map(|&d| crate::arith::sub_mod(x, d, v))
            .collect();
        ys.sort_unstable();
        ys
    }

    /// The first line containing `x` when scanning `L₀, L₁, …` — the scan
    /// order §4.1 prescribes for locating a search key's treatment.
    pub fn first_line_containing(&self, x: u64) -> u64 {
        self.lines_through(x)
            .into_iter()
            .min()
            .expect("every point lies on k >= 1 lines")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> DifferenceSet {
        DifferenceSet::paper_13_4_1()
    }

    #[test]
    fn development_is_a_projective_plane_of_order_3() {
        let d = BlockDesign::develop(&paper());
        assert_eq!(d.b(), 13);
        assert_eq!(d.replication().unwrap(), 4);
        d.verify_bibd().unwrap();
    }

    #[test]
    fn fano_development_verifies() {
        let ds = DifferenceSet::new(7, 1, vec![0, 1, 3]).unwrap();
        let d = BlockDesign::develop(&ds);
        d.verify_bibd().unwrap();
        assert_eq!(d.replication().unwrap(), 3);
    }

    #[test]
    fn qr_biplane_verifies() {
        // (11, 5, 2) from quadratic residues mod 11.
        let ds = DifferenceSet::quadratic_residue(11).unwrap();
        let d = BlockDesign::develop(&ds);
        d.verify_bibd().unwrap();
    }

    #[test]
    fn incidence_matrix_row_and_column_sums() {
        let d = BlockDesign::develop(&paper());
        let m = d.incidence_matrix();
        for row in &m {
            assert_eq!(row.iter().map(|&x| x as u64).sum::<u64>(), 4); // r = k
        }
        for y in 0..13 {
            let col: u64 = m.iter().map(|row| row[y] as u64).sum();
            assert_eq!(col, 4); // block size k
        }
    }

    #[test]
    fn incidence_identity_m_mt() {
        // For a symmetric 2-design: M·Mᵀ = (k−λ)·I + λ·J — the defining
        // matrix identity (Street & Street, the paper's reference [8]).
        for ds in [
            DifferenceSet::paper_13_4_1(),
            DifferenceSet::new(7, 1, vec![0, 1, 3]).unwrap(),
            DifferenceSet::quadratic_residue(11).unwrap(),
        ] {
            let d = BlockDesign::develop(&ds);
            let m = d.incidence_matrix();
            let v = d.v() as usize;
            let (k, lambda) = (d.k(), d.lambda());
            for i in 0..v {
                for j in 0..v {
                    let dot: u64 = (0..v).map(|c| m[i][c] as u64 * m[j][c] as u64).sum();
                    let want = if i == j { k } else { lambda };
                    assert_eq!(dot, want, "v={v} entry ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn verify_rejects_corrupt_design() {
        let mut blocks = BlockDesign::develop(&paper()).blocks().to_vec();
        blocks[5] = vec![0, 1, 2, 3]; // not a translate
        let d = BlockDesign::from_blocks(13, 1, blocks).unwrap();
        assert!(d.verify_bibd().is_err());
    }

    #[test]
    fn from_blocks_validates_shape() {
        assert!(BlockDesign::from_blocks(13, 1, vec![]).is_err());
        assert!(BlockDesign::from_blocks(13, 1, vec![vec![0, 1], vec![0, 1, 2]]).is_err());
        assert!(BlockDesign::from_blocks(13, 1, vec![vec![0, 13]]).is_err());
    }

    #[test]
    fn arcs_and_ovals() {
        let d = BlockDesign::develop(&paper());
        // Any single line is maximally collinear, so not an arc.
        assert!(!d.is_arc(d.block(0)));
        // Two points are trivially an arc.
        assert!(d.is_arc(&[0, 1]));
        // The multiplied base {0,7,8,11} — check whether the oval image is an
        // arc in the *original* development. (The paper calls the image an
        // "oval"; in the development it is in fact another line iff t is a
        // multiplier of the design. For t=7 it maps lines to lines-of-the-
        // multiplied-design, so just assert is_arc() answers consistently.)
        let img = paper().multiply(7).unwrap();
        let _ = d.is_arc(&img); // must not panic; value asserted in plane.rs tests
    }

    #[test]
    fn cyclic_design_incidence_agrees_with_materialised() {
        let ds = paper();
        let lazy = CyclicDesign::new(ds.clone());
        let full = BlockDesign::develop(&ds);
        for x in 0..13 {
            for y in 0..13 {
                assert_eq!(
                    lazy.incident(x, y),
                    full.block(y).contains(&x),
                    "x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn lines_through_point() {
        let lazy = CyclicDesign::new(paper());
        for x in 0..13 {
            let ys = lazy.lines_through(x);
            assert_eq!(ys.len(), 4);
            for &y in &ys {
                assert!(lazy.incident(x, y));
            }
        }
        // Scanning from L0 upward, key 7 first appears on line L4 ({4,5,7,0}).
        assert_eq!(lazy.first_line_containing(7), 4);
        // Key 0 is on L0 itself.
        assert_eq!(lazy.first_line_containing(0), 0);
    }

    #[test]
    fn cyclic_design_scales_to_singer_sizes() {
        let ds = DifferenceSet::singer(101).unwrap(); // v = 10303
        let lazy = CyclicDesign::new(ds);
        let v = lazy.v();
        assert_eq!(v, 101 * 101 + 101 + 1);
        for x in [0u64, 1, v / 2, v - 1] {
            let ys = lazy.lines_through(x);
            assert_eq!(ys.len() as u64, lazy.k());
            for y in ys {
                assert!(lazy.incident(x, y));
            }
        }
    }
}
