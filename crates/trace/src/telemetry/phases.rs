//! Cold-path phase attribution: where request time goes, by stage, as
//! always-on striped counters (nanos + occurrence count per phase).
//!
//! The span layer answers "where did *this* request's time go"; this
//! plane answers the aggregate form — what fraction of all serve time is
//! cache lookup vs. STAR enumeration vs. execution — cheaply enough to
//! stay on in production. Writers pay one relaxed `fetch_add` pair per
//! phase per request; readers fold on demand into snapshots (JSON,
//! Prometheus `starqo_phase_nanos`/`starqo_phase_count` counters).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::telemetry::counters::{stripe_count, thread_stripe};

/// The request stages the plane attributes time to. `Glue` nanos are a
/// subset of `Enumerate` (glue rules fire inside STAR expansion); the
/// other phases are disjoint slices of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PhaseKind {
    /// Parse + fingerprint canonicalization (`Service::prepare`).
    Prepare,
    /// Plan-cache probe on the serve path (resident hit or miss check).
    CacheLookup,
    /// Waiting on another thread's in-flight optimization (coalesced).
    FlightWait,
    /// STAR expansion / memo DP inside a cold optimization.
    Enumerate,
    /// Glue-rule invocations (nested inside enumerate).
    Glue,
    /// Rule compilation run inside a request (a service compiles its
    /// rules once, at construction, so the serve path records none).
    Compile,
    /// Plan execution.
    Execute,
    /// Suspect-triggered re-optimization (overlay build, re-plan,
    /// shadow verify, and probation — the whole heal pipeline).
    Reopt,
}

impl PhaseKind {
    pub const COUNT: usize = 8;

    pub const ALL: [PhaseKind; PhaseKind::COUNT] = [
        PhaseKind::Prepare,
        PhaseKind::CacheLookup,
        PhaseKind::FlightWait,
        PhaseKind::Enumerate,
        PhaseKind::Glue,
        PhaseKind::Compile,
        PhaseKind::Execute,
        PhaseKind::Reopt,
    ];

    /// Stable exported name (snapshot JSON keys, Prometheus `phase`
    /// label). Matches the optimizer's `MetricsRegistry` phase names
    /// where both exist.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Prepare => "prepare",
            PhaseKind::CacheLookup => "cache_lookup",
            PhaseKind::FlightWait => "flight_wait",
            PhaseKind::Enumerate => "enumerate",
            PhaseKind::Glue => "glue",
            PhaseKind::Compile => "compile",
            PhaseKind::Execute => "execute",
            PhaseKind::Reopt => "reopt",
        }
    }

    /// Parse an optimizer `MetricsRegistry` phase name into a kind.
    pub fn from_name(name: &str) -> Option<PhaseKind> {
        PhaseKind::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// One folded phase reading: `(name, nanos, count)`.
pub type PhaseReading = (String, u64, u64);

#[repr(align(128))]
struct PhaseStripe {
    nanos: [AtomicU64; PhaseKind::COUNT],
    counts: [AtomicU64; PhaseKind::COUNT],
}

impl PhaseStripe {
    fn new() -> PhaseStripe {
        PhaseStripe {
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The striped phase-attribution plane.
pub struct PhasePlane {
    stripes: Box<[PhaseStripe]>,
    mask: usize,
}

impl std::fmt::Debug for PhasePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasePlane")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl PhasePlane {
    /// A plane with `stripes` stripes (0 = one per available core).
    pub fn new(stripes: usize) -> PhasePlane {
        let n = stripe_count(stripes);
        PhasePlane {
            stripes: (0..n).map(|_| PhaseStripe::new()).collect(),
            mask: n - 1,
        }
    }

    /// Attribute `nanos` to one phase occurrence.
    #[inline]
    pub fn add(&self, phase: PhaseKind, nanos: u64) {
        let stripe = &self.stripes[thread_stripe() & self.mask];
        stripe.nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
        stripe.counts[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one phase across stripes: `(nanos, count)`.
    pub fn get(&self, phase: PhaseKind) -> (u64, u64) {
        let mut nanos = 0u64;
        let mut count = 0u64;
        for s in self.stripes.iter() {
            nanos += s.nanos[phase as usize].load(Ordering::Relaxed);
            count += s.counts[phase as usize].load(Ordering::Relaxed);
        }
        (nanos, count)
    }

    /// Fold every phase, in [`PhaseKind::ALL`] order.
    pub fn fold(&self) -> Vec<PhaseReading> {
        PhaseKind::ALL
            .iter()
            .map(|p| {
                let (nanos, count) = self.get(*p);
                (p.name().to_string(), nanos, count)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_ordered_like_all() {
        let names: Vec<&str> = PhaseKind::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), PhaseKind::COUNT, "duplicate phase name");
        for (i, p) in PhaseKind::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL order must match discriminants");
        }
        assert_eq!(PhaseKind::from_name("glue"), Some(PhaseKind::Glue));
        assert_eq!(PhaseKind::from_name("parse"), None);
    }

    #[test]
    fn adds_fold_across_threads() {
        let plane = std::sync::Arc::new(PhasePlane::new(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let plane = plane.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        plane.add(PhaseKind::Enumerate, 10);
                        plane.add(PhaseKind::Execute, 3);
                    }
                });
            }
        });
        assert_eq!(plane.get(PhaseKind::Enumerate), (40_000, 4_000));
        assert_eq!(plane.get(PhaseKind::Execute), (12_000, 4_000));
        let fold = plane.fold();
        assert_eq!(fold[PhaseKind::Enumerate as usize].1, 40_000);
        assert_eq!(fold[PhaseKind::Prepare as usize], ("prepare".into(), 0, 0));
    }
}
