//! # sks-designs — combinatorial block designs and number theory
//!
//! The mathematical substrate for *Hardjono & Seberry, "Search Key
//! Substitution in the Encipherment of B-Trees" (VLDB 1990)*. The paper's
//! key disguises are parameterised by cyclic `(v, k, λ)` difference sets —
//! in the planar case (`λ = 1`) the lines of a finite projective plane of
//! order `n` with `v = n² + n + 1`, `k = n + 1`.
//!
//! * [`arith`] — `u64` modular arithmetic (`mul_mod`, `pow_mod`, inverses).
//! * [`primes`] — deterministic Miller–Rabin, Pollard rho factorisation,
//!   primitive roots (the `g ∈ Z_N` of §4.2).
//! * [`gf`] / [`gfext`] — `GF(p)` and `GF(p³)` (Singer construction).
//! * [`dlog`] — baby-step/giant-step discrete logs (finding the treatment
//!   `e` with `g^e ≡ k`, §4.2).
//! * [`diffset`] — difference sets: the paper's `(13,4,1)` set, Singer sets
//!   for any prime order, quadratic-residue sets; line, oval (`t·L_y`) and
//!   cumulative-sum queries.
//! * [`design`] — developments into BIBDs, verification and the arc
//!   (oval) property.
//! * [`plane`] — `PG(2, p)` with homogeneous coordinates and arcs,
//!   cross-validating the combinatorial view.

pub mod arith;
pub mod design;
pub mod diffset;
pub mod dlog;
pub mod gf;
pub mod gfext;
pub mod plane;
pub mod primes;

pub use design::BlockDesign;
pub use diffset::{DesignError, DifferenceSet};
pub use dlog::DlogTable;
pub use gf::Gf;
pub use gfext::GfCubic;
pub use plane::{Homog, ProjectivePlane};

#[cfg(test)]
mod crosscheck {
    use super::*;

    /// The development of the paper's (13,4,1) set is a projective plane of
    /// order 3 — same parameters as the geometric PG(2,3).
    #[test]
    fn difference_set_development_matches_pg23_parameters() {
        let ds = DifferenceSet::paper_13_4_1();
        let dev = BlockDesign::develop(&ds);
        let plane = ProjectivePlane::new(3);
        assert_eq!(dev.b(), plane.num_points());
        assert_eq!(dev.k(), 4);
        assert_eq!(
            plane.points_on_line(&plane.lines()[0]).len() as u64,
            dev.k()
        );
    }

    /// Singer sets are planar for several prime orders; their developments
    /// satisfy the two-points-one-block axiom exactly like PG(2,q).
    #[test]
    fn singer_development_has_projective_pair_coverage() {
        let ds = DifferenceSet::singer(5).unwrap();
        let dev = BlockDesign::develop(&ds);
        dev.verify_bibd().unwrap();
        assert_eq!(dev.v(), 31);
        assert_eq!(dev.replication().unwrap(), 6);
    }
}
