//! Developments of difference sets into balanced incomplete block designs.
//!
//! The paper treats the blocks of the development as *lines* and indexes them
//! `L₀ … L_{v−1}`. [`BlockDesign`] materialises all `v` blocks (fine for the
//! worked examples and tests); at Singer scale the disguises ask the
//! [`DifferenceSet`] for single lines instead.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> DifferenceSet {
        DifferenceSet::paper_13_4_1()
    }

    /// The `v × b` incidence matrix: entry `(x, y)` is 1 iff point `x`
    /// lies on block `y`.
    fn incidence_matrix(d: &BlockDesign) -> Vec<Vec<u8>> {
        let mut m = vec![vec![0u8; d.blocks.len()]; d.v as usize];
        for (y, block) in d.blocks.iter().enumerate() {
            for &x in block {
                m[x as usize][y] = 1;
            }
        }
        m
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
        let m = incidence_matrix(&d);
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
            let m = incidence_matrix(&d);
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
        let mut blocks = BlockDesign::develop(&paper()).blocks;
        blocks[5] = vec![0, 1, 2, 3]; // not a translate
        let d = BlockDesign {
            v: 13,
            k: 4,
            lambda: 1,
            blocks,
        };
        assert!(d.verify_bibd().is_err());
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
}
