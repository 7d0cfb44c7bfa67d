//! The phase vocabulary: the stages of a request and of an optimization
//! that time is attributed to.
//!
//! The span layer answers "where did *this* request's time go"; the
//! counter plane's phase slots ([`super::CounterPlane::add_phase`])
//! answer the aggregate form — what fraction of all serve time is cache
//! lookup vs. STAR enumeration vs. execution — cheaply enough to stay on
//! in production (snapshot JSON `phases`, Prometheus
//! `starqo_phase_nanos`/`starqo_phase_count`). The optimizer reports its
//! own phase clocks under the same kinds (`Optimized::metrics`).

/// The stages time is attributed to, on the serve path and inside one
/// optimization. `Glue` nanos are a subset of `Enumerate` (glue rules fire inside STAR expansion); the
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
    /// label, benchmark `phase_nanos` keys).
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
}

/// One folded phase reading: `(name, nanos, count)`.
pub type PhaseReading = (String, u64, u64);

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
    }

    #[test]
    fn adds_fold_across_threads() {
        let plane = std::sync::Arc::new(crate::telemetry::CounterPlane::new(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let plane = plane.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        plane.add_phase(PhaseKind::Enumerate, 10);
                        plane.add_phase(PhaseKind::Execute, 3);
                    }
                });
            }
        });
        assert_eq!(plane.phase(PhaseKind::Enumerate), (40_000, 4_000));
        assert_eq!(plane.phase(PhaseKind::Execute), (12_000, 4_000));
        let fold = plane.fold_phases();
        assert_eq!(fold[PhaseKind::Enumerate as usize].1, 40_000);
        assert_eq!(fold[PhaseKind::Prepare as usize], ("prepare".into(), 0, 0));
    }
}
