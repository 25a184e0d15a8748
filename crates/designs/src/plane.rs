//! Finite projective planes `PG(2, p)` over prime fields, with conics as
//! concrete ovals.
//!
//! §4 of the paper frames the disguise in the projective plane of order `n`
//! (`v = n²+n+1`, `k = n+1`, `λ = 1`), mapping points on *lines* to points on
//! *ovals* ("a set of k points no three of which are collinear",
//! Dembowski 1968). This module provides the geometric model — homogeneous
//! coordinates, incidence, and the standard conic — against which the
//! difference-set development is cross-validated.

use crate::gf::Gf;

/// A point or line of `PG(2, p)` in normalised homogeneous coordinates
/// (first nonzero coordinate scaled to 1). Points and lines are dual, so the
/// same representation serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Homog(pub [u64; 3]);

/// The projective plane `PG(2, p)` for prime `p`.
#[derive(Debug, Clone)]
pub struct ProjectivePlane {
    field: Gf,
    points: Vec<Homog>,
}

impl ProjectivePlane {
    pub fn new(p: u64) -> Self {
        let field = Gf::new(p);
        let mut points = Vec::with_capacity((p * p + p + 1) as usize);
        // Canonical representatives: (1, y, z), (0, 1, z), (0, 0, 1).
        for y in 0..p {
            for z in 0..p {
                points.push(Homog([1, y, z]));
            }
        }
        for z in 0..p {
            points.push(Homog([0, 1, z]));
        }
        points.push(Homog([0, 0, 1]));
        ProjectivePlane { field, points }
    }

    /// Plane order `n = p`.
    pub fn order(&self) -> u64 {
        self.field.modulus()
    }

    /// `v = n² + n + 1`.
    pub fn num_points(&self) -> u64 {
        self.points.len() as u64
    }

    /// Normalises arbitrary homogeneous coordinates to the canonical
    /// representative; `None` for the zero vector.
    pub fn normalize(&self, coords: [u64; 3]) -> Option<Homog> {
        let f = &self.field;
        let c = [
            f.reduce(coords[0]),
            f.reduce(coords[1]),
            f.reduce(coords[2]),
        ];
        let lead = c.iter().position(|&x| x != 0)?;
        let inv = f.inv(c[lead]).expect("nonzero element has inverse");
        let mut out = [0u64; 3];
        for i in 0..3 {
            out[i] = f.mul(c[i], inv);
        }
        Some(Homog(out))
    }

    /// Incidence: point `x` lies on line `l` iff `x · l = 0`.
    pub fn incident(&self, point: &Homog, line: &Homog) -> bool {
        let f = &self.field;
        let dot = f.add(
            f.add(f.mul(point.0[0], line.0[0]), f.mul(point.0[1], line.0[1])),
            f.mul(point.0[2], line.0[2]),
        );
        dot == 0
    }

    /// The unique line through two distinct points (cross product), or
    /// `None` if the points coincide.
    pub fn line_through(&self, a: &Homog, b: &Homog) -> Option<Homog> {
        if a == b {
            return None;
        }
        let f = &self.field;
        let cross = [
            f.sub(f.mul(a.0[1], b.0[2]), f.mul(a.0[2], b.0[1])),
            f.sub(f.mul(a.0[2], b.0[0]), f.mul(a.0[0], b.0[2])),
            f.sub(f.mul(a.0[0], b.0[1]), f.mul(a.0[1], b.0[0])),
        ];
        self.normalize(cross)
    }

    /// Points on a given line — exactly `n + 1` of them.
    pub fn points_on_line(&self, line: &Homog) -> Vec<Homog> {
        self.points
            .iter()
            .filter(|pt| self.incident(pt, line))
            .copied()
            .collect()
    }

    /// `true` iff no three of the given points are collinear (an *arc*;
    /// a `(n+1)`-arc is an oval — Dembowski's definition quoted in §4.1).
    pub fn is_arc(&self, pts: &[Homog]) -> bool {
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let Some(line) = self.line_through(&pts[i], &pts[j]) else {
                    return false; // duplicate points
                };
                for (k, pt) in pts.iter().enumerate() {
                    if k != i && k != j && self.incident(pt, &line) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Enumerates all lines (dual points) of the plane.
    pub fn lines(&self) -> Vec<Homog> {
        self.points.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_order() {
        for p in [2u64, 3, 5, 7, 11] {
            let plane = ProjectivePlane::new(p);
            assert_eq!(plane.num_points(), p * p + p + 1);
            // Every line has n+1 points.
            for line in plane.lines().iter().take(5) {
                assert_eq!(plane.points_on_line(line).len() as u64, p + 1);
            }
        }
    }

    #[test]
    fn two_points_one_line_axiom() {
        let plane = ProjectivePlane::new(3);
        let pts = plane.points.clone();
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                let l = plane.line_through(a, b).unwrap();
                assert!(plane.incident(a, &l));
                assert!(plane.incident(b, &l));
                // Uniqueness: no other line contains both.
                let count = plane
                    .lines()
                    .iter()
                    .filter(|m| plane.incident(a, m) && plane.incident(b, m))
                    .count();
                assert_eq!(count, 1, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn two_lines_meet_in_one_point() {
        let plane = ProjectivePlane::new(3);
        let lines = plane.lines();
        for (i, l1) in lines.iter().enumerate() {
            for l2 in &lines[i + 1..] {
                let common = plane
                    .points
                    .iter()
                    .filter(|pt| plane.incident(pt, l1) && plane.incident(pt, l2))
                    .count();
                assert_eq!(common, 1);
            }
        }
    }

    #[test]
    fn lines_are_not_arcs() {
        let plane = ProjectivePlane::new(5);
        let line = Homog([1, 0, 0]);
        let pts = plane.points_on_line(&line);
        assert!(!plane.is_arc(&pts));
    }

    #[test]
    fn normalize_canonicalises_scalar_multiples() {
        let plane = ProjectivePlane::new(7);
        let a = plane.normalize([2, 4, 6]).unwrap();
        let b = plane.normalize([1, 2, 3]).unwrap();
        assert_eq!(a, b);
        assert_eq!(plane.normalize([0, 0, 0]), None);
    }

    #[test]
    fn plane_order_3_matches_paper_design_parameters() {
        // The paper's (13,4,1) design is the projective plane of order 3.
        let plane = ProjectivePlane::new(3);
        assert_eq!(plane.num_points(), 13);
        assert_eq!(plane.points_on_line(&Homog([1, 0, 0])).len(), 4);
    }
}
