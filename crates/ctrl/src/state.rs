//! Versioned configuration store.
//!
//! The controller never mutates the installed configuration in place:
//! the planner's output is *staged*, the executor rolls it out, and
//! only the configuration the rollout actually reached is *committed*.
//! A commit that completed the full rollout also becomes the
//! *last-known-good* configuration, which is what the controller falls
//! back to when a re-solve comes back infeasible (heavy active faults,
//! §4.5).
//!
//! The store also chains the simplex basis hint across intervals: an
//! FFC model's shape depends only on the protection level and the flow
//! count, so successive re-solves that change demands (bound changes)
//! can restart the dual simplex from the previous optimum's basis (see
//! DESIGN §5a). A shape change invalidates the hint.

use ffc_core::TeConfig;
use ffc_lp::BasisStatuses;

/// A configuration plus its store-assigned version number.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedConfig {
    /// Monotonically increasing store version.
    pub version: u64,
    /// The TE configuration.
    pub config: TeConfig,
}

/// Model-shape key for basis-hint reuse: `(kc, ke, kv, flows)`. Two
/// solves with equal keys build column-for-column identical models (the
/// demands only move bounds), so the basis carries over.
pub type HintShape = (usize, usize, usize, usize);

/// Versioned current/staging/last-known-good configuration store with a
/// chained warm-start basis hint.
#[derive(Debug, Clone)]
pub struct ConfigStore {
    installed: VersionedConfig,
    last_good: VersionedConfig,
    staged: Option<VersionedConfig>,
    next_version: u64,
    hint: Option<(BasisStatuses, HintShape)>,
}

/// The complete externalized state of a [`ConfigStore`] — everything a
/// crash checkpoint must persist to rebuild the store exactly,
/// including the chained basis hint that keeps post-restart re-solves
/// warm.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSnapshot {
    /// The installed configuration.
    pub installed: VersionedConfig,
    /// The last-known-good configuration.
    pub last_good: VersionedConfig,
    /// The staged-but-uncommitted configuration, if any.
    pub staged: Option<VersionedConfig>,
    /// Next version number the store will assign.
    pub next_version: u64,
    /// The chained warm-start basis hint and its model shape.
    pub hint: Option<(BasisStatuses, HintShape)>,
}

impl ConfigStore {
    /// A store whose installed and last-known-good configs are `initial`
    /// (version 0) — typically the all-zero config before interval 0.
    pub fn new(initial: TeConfig) -> Self {
        let v0 = VersionedConfig {
            version: 0,
            config: initial,
        };
        ConfigStore {
            installed: v0.clone(),
            last_good: v0,
            staged: None,
            next_version: 1,
            hint: None,
        }
    }

    /// The configuration the network currently runs.
    pub fn installed(&self) -> &TeConfig {
        &self.installed.config
    }

    /// Version of the installed configuration.
    pub fn installed_version(&self) -> u64 {
        self.installed.version
    }

    /// The last configuration whose rollout fully completed.
    pub fn last_good(&self) -> &TeConfig {
        &self.last_good.config
    }

    /// Version of the last-known-good configuration — what a rollback
    /// lands on. Exposed so invariant checkers can assert rollbacks
    /// never fall back to anything else.
    pub fn last_good_version(&self) -> u64 {
        self.last_good.version
    }

    /// The currently staged (planned but not yet committed) config.
    pub fn staged(&self) -> Option<&TeConfig> {
        self.staged.as_ref().map(|v| &v.config)
    }

    /// Stages a freshly planned configuration; returns its version.
    pub fn stage(&mut self, config: TeConfig) -> u64 {
        let version = self.next_version;
        // Saturating: a counter restored from a checkpoint may sit anywhere.
        self.next_version = version.saturating_add(1);
        self.staged = Some(VersionedConfig { version, config });
        version
    }

    /// Commits the configuration the rollout reached (which may be an
    /// intermediate step of the staged one). `full` marks a rollout that
    /// completed every step — only then does the config become
    /// last-known-good.
    pub fn commit(&mut self, reached: TeConfig, full: bool) {
        let version = match self.staged.take() {
            Some(v) => v.version,
            None => {
                let v = self.next_version;
                self.next_version = v.saturating_add(1);
                v
            }
        };
        self.installed = VersionedConfig {
            version,
            config: reached,
        };
        if full {
            self.last_good = self.installed.clone();
        }
    }

    /// Drops any staged config and returns the last-known-good one —
    /// the fallback target after an infeasible re-solve.
    pub fn rollback(&mut self) -> &TeConfig {
        self.staged = None;
        &self.last_good.config
    }

    /// The chained basis hint, if one exists for exactly this model
    /// shape. A mismatching shape clears the hint (the chain is broken
    /// — e.g. an operator k-change rebuilt the model).
    pub fn hint_for(&mut self, shape: HintShape) -> Option<&BasisStatuses> {
        if let Some((_, s)) = &self.hint {
            if *s != shape {
                self.hint = None;
            }
        }
        self.hint.as_ref().map(|(h, _)| h)
    }

    /// Records the optimal basis of this interval's solve for the next.
    pub fn set_hint(&mut self, hint: BasisStatuses, shape: HintShape) {
        self.hint = Some((hint, shape));
    }

    /// Forgets the chained basis (forces the next solve cold).
    pub fn drop_hint(&mut self) {
        self.hint = None;
    }

    /// Externalizes the store's full state for a crash checkpoint.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            installed: self.installed.clone(),
            last_good: self.last_good.clone(),
            staged: self.staged.clone(),
            next_version: self.next_version,
            hint: self.hint.clone(),
        }
    }

    /// Rebuilds a store from a [`StoreSnapshot`]. Inverse of
    /// [`ConfigStore::snapshot`].
    pub fn from_snapshot(s: StoreSnapshot) -> Self {
        ConfigStore {
            installed: s.installed,
            last_good: s.last_good,
            staged: s.staged,
            next_version: s.next_version,
            hint: s.hint,
        }
    }

    /// Fault-injection hook: deterministically scrambles the chained
    /// basis hint *without* changing its shape, so the next warm solve
    /// receives a plausible-looking but wrong starting basis. The
    /// solver must recover (repair or cold-restart), not crash or
    /// return a wrong optimum — exactly what the chaos harness checks.
    pub fn poison_hint(&mut self) {
        if let Some((basis, _)) = &mut self.hint {
            use ffc_lp::ColStatus;
            let n = basis.0.len();
            if n > 1 {
                basis.0.rotate_right(1);
            }
            for s in basis.0.iter_mut() {
                *s = match *s {
                    ColStatus::Lower => ColStatus::Upper,
                    ColStatus::Upper => ColStatus::Lower,
                    other => other,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64) -> TeConfig {
        TeConfig {
            rate: vec![rate],
            alloc: vec![vec![rate]],
        }
    }

    #[test]
    fn stage_commit_advances_versions() {
        let mut s = ConfigStore::new(cfg(0.0));
        assert_eq!(s.installed_version(), 0);
        let v1 = s.stage(cfg(1.0));
        assert_eq!(v1, 1);
        assert_eq!(s.staged().unwrap().rate[0], 1.0);
        s.commit(cfg(1.0), true);
        assert_eq!(s.installed_version(), 1);
        assert_eq!(s.installed().rate[0], 1.0);
        assert_eq!(s.last_good().rate[0], 1.0);
        assert!(s.staged().is_none());
    }

    #[test]
    fn partial_commit_keeps_last_good() {
        let mut s = ConfigStore::new(cfg(0.0));
        s.stage(cfg(1.0));
        s.commit(cfg(1.0), true);
        // A rollout that stalled mid-way installs the reached config but
        // does not promote it to last-known-good.
        s.stage(cfg(2.0));
        s.commit(cfg(1.5), false);
        assert_eq!(s.installed().rate[0], 1.5);
        assert_eq!(s.last_good().rate[0], 1.0);
    }

    #[test]
    fn rollback_returns_last_good_and_drops_staged() {
        let mut s = ConfigStore::new(cfg(0.0));
        s.stage(cfg(1.0));
        s.commit(cfg(1.0), true);
        s.stage(cfg(9.0));
        assert_eq!(s.rollback().rate[0], 1.0);
        assert!(s.staged().is_none());
    }

    #[test]
    fn snapshot_round_trip_is_identity() {
        let mut s = ConfigStore::new(cfg(0.0));
        s.stage(cfg(1.0));
        s.commit(cfg(1.0), true);
        s.stage(cfg(2.0));
        s.set_hint(BasisStatuses(Vec::new()), (1, 1, 0, 3));
        let snap = s.snapshot();
        let mut r = ConfigStore::from_snapshot(snap.clone());
        assert_eq!(r.snapshot(), snap);
        // The restored store behaves identically: versions continue
        // where the original's left off.
        assert_eq!(r.installed_version(), s.installed_version());
        assert_eq!(r.last_good_version(), s.last_good_version());
        assert_eq!(r.staged(), s.staged());
        let (a, b) = (r.stage(cfg(3.0)), s.stage(cfg(3.0)));
        assert_eq!(a, b);
    }

    #[test]
    fn hint_survives_same_shape_only() {
        let mut s = ConfigStore::new(cfg(0.0));
        let shape = (0, 1, 0, 12);
        assert!(s.hint_for(shape).is_none());
        s.set_hint(BasisStatuses(Vec::new()), shape);
        assert!(s.hint_for(shape).is_some());
        // Same shape again: still there (chained).
        assert!(s.hint_for(shape).is_some());
        // Protection change breaks the chain.
        assert!(s.hint_for((2, 1, 0, 12)).is_none());
        // …and the hint is gone for good, even for the old shape.
        assert!(s.hint_for(shape).is_none());
    }
}
