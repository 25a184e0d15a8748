//! The shadow model the op-sequence fuzzer cross-checks recovery against:
//! a plain `BTreeMap` image folded from the sequence of *commit units*
//! (one autocommit op, one batch, or one transaction — the engine's
//! atomicity granularity). After a crash, the reopened database must equal
//! the fold of some unit prefix: nothing torn mid-unit (whole-batch /
//! whole-txn atomicity) and nothing acknowledged-durable missing.

use std::collections::BTreeMap;

/// One atomic commit unit: the key → value (insert) / key → `None`
/// (delete) effects applied together.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    pub effects: Vec<(u64, Option<Vec<u8>>)>,
}

impl Unit {
    pub fn insert(key: u64, value: Vec<u8>) -> Self {
        Unit {
            effects: vec![(key, Some(value))],
        }
    }

    pub fn delete(key: u64) -> Self {
        Unit {
            effects: vec![(key, None)],
        }
    }
}

/// The recorded history: every unit submitted to the engine, and how many
/// of them were acknowledged (returned `Ok`) before the current crash.
#[derive(Debug, Default)]
pub struct ShadowModel {
    units: Vec<Unit>,
    /// Units 0..acked returned Ok to the client. Under `SyncPolicy::Always`
    /// an acknowledgement is a durability promise, so these must all
    /// survive any crash.
    acked: usize,
}

impl ShadowModel {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn submitted(&self) -> usize {
        self.units.len()
    }

    /// Records a unit the engine acknowledged.
    pub fn push_acked(&mut self, unit: Unit) {
        debug_assert_eq!(self.acked, self.units.len(), "acks are a prefix");
        self.units.push(unit);
        self.acked += 1;
    }

    /// Records the unit in flight when the injected fault fired: it may or
    /// may not have reached the medium (a torn block can still carry the
    /// whole frame), but it must recover all-or-nothing.
    pub fn push_unacked(&mut self, unit: Unit) {
        self.units.push(unit);
    }

    /// The image after folding units `0..k`.
    pub fn image_at(&self, k: usize) -> BTreeMap<u64, Vec<u8>> {
        let mut map = BTreeMap::new();
        for unit in &self.units[..k] {
            for (key, effect) in &unit.effects {
                match effect {
                    Some(v) => {
                        map.insert(*key, v.clone());
                    }
                    None => {
                        map.remove(key);
                    }
                }
            }
        }
        map
    }

    /// The image of the full history (what a crash-free database holds).
    pub fn image(&self) -> BTreeMap<u64, Vec<u8>> {
        self.image_at(self.units.len())
    }

    /// Checks a recovered image against the history: it must equal
    /// `image_at(k)` for some `acked <= k <= submitted`. Returns the
    /// matching `k`, or a description of the divergence. Checking from
    /// the longest prefix down means the largest consistent recovery wins
    /// (ties between adjacent read-identical prefixes are harmless — the
    /// images are equal by definition).
    pub fn match_recovery(&self, recovered: &BTreeMap<u64, Vec<u8>>) -> Result<usize, String> {
        for k in (self.acked..=self.units.len()).rev() {
            if &self.image_at(k) == recovered {
                return Ok(k);
            }
        }
        let want = self.image_at(self.acked);
        let missing: Vec<u64> = want
            .keys()
            .filter(|k| !recovered.contains_key(*k))
            .copied()
            .collect();
        let extra: Vec<u64> = recovered
            .keys()
            .filter(|k| !want.contains_key(*k))
            .copied()
            .collect();
        let divergent: Vec<u64> = want
            .iter()
            .filter(|(k, v)| recovered.get(*k).is_some_and(|r| &r != v))
            .map(|(k, _)| *k)
            .collect();
        Err(format!(
            "recovered image matches no committed prefix (acked {} / submitted {}): \
             vs the acked image — missing keys {:?}, unexpected keys {:?}, wrong values {:?}",
            self.acked,
            self.units.len(),
            missing,
            extra,
            divergent
        ))
    }

    /// After a verified recovery to prefix `k`: the history is truncated
    /// to what actually survived and every survivor is (re-)durable once
    /// the next barrier lands.
    pub fn settle(&mut self, k: usize) {
        self.units.truncate(k);
        self.acked = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_prefix_matching() {
        let mut m = ShadowModel::new();
        m.push_acked(Unit::insert(1, b"a".to_vec()));
        m.push_acked(Unit::insert(2, b"b".to_vec()));
        m.push_unacked(Unit {
            effects: vec![(3, Some(b"c".to_vec())), (1, None)],
        });

        // Exactly the acked prefix.
        assert_eq!(m.match_recovery(&m.image_at(2)), Ok(2));
        // The in-flight unit landed whole.
        assert_eq!(m.match_recovery(&m.image_at(3)), Ok(3));
        // The in-flight unit landed *partially* — a torn txn — is rejected.
        let mut torn = m.image_at(2);
        torn.insert(3, b"c".to_vec()); // insert applied, delete lost
        assert!(m.match_recovery(&torn).is_err());
        // An acked unit missing is rejected.
        assert!(m.match_recovery(&m.image_at(1)).is_err());
    }

    #[test]
    fn settle_truncates_history() {
        let mut m = ShadowModel::new();
        m.push_acked(Unit::insert(1, b"a".to_vec()));
        m.push_unacked(Unit::insert(2, b"b".to_vec()));
        m.settle(1);
        assert_eq!(m.submitted(), 1);
        assert_eq!(m.acked, 1);
        assert!(!m.image().contains_key(&2));
    }
}
