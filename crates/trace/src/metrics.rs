//! Named monotonic counters, per-phase wall-clock totals, and histograms,
//! aggregated into a [`MetricsSummary`] that benchmark reports export.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json::JsonObj;
use crate::telemetry::PhaseKind;

/// Mutable collection point for named counters and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Bump a named monotonic counter.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Fold an externally built histogram into a named one.
    pub fn merge_hist(&mut self, name: &'static str, hist: &Histogram) {
        if !hist.is_empty() {
            self.hists.entry(name).or_default().merge(hist);
        }
    }

    /// Freeze into an immutable summary.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            phase_nanos: [None; PhaseKind::COUNT],
            hists: self
                .hists
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Immutable aggregation of a run: counters, per-phase wall time, and
/// log-bucketed value distributions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    counters: Vec<(String, u64)>,
    /// Nanos per [`PhaseKind`]; `None` for phases no run measured.
    phase_nanos: [Option<u64>; PhaseKind::COUNT],
    hists: Vec<(String, Histogram)>,
}

impl MetricsSummary {
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn phase(&self, phase: PhaseKind) -> Option<u64> {
        self.phase_nanos[phase as usize]
    }

    /// Accumulate measured nanos for a phase. Phases may run many times
    /// (e.g. once per optimization); durations add up.
    pub fn add_phase(&mut self, phase: PhaseKind, nanos: u64) {
        *self.phase_nanos[phase as usize].get_or_insert(0) += nanos;
    }

    /// The measured phases, in [`PhaseKind::ALL`] order.
    fn phases(&self) -> impl Iterator<Item = (PhaseKind, u64)> + '_ {
        PhaseKind::ALL
            .into_iter()
            .filter_map(|p| self.phase(p).map(|n| (p, n)))
    }

    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Merge another summary into this one (counters and phases add).
    pub fn absorb(&mut self, other: &MetricsSummary) {
        for (k, v) in &other.counters {
            match self.counters.iter_mut().find(|(ek, _)| ek == k) {
                Some((_, ev)) => *ev += v,
                None => self.counters.push((k.clone(), *v)),
            }
        }
        for (p, nanos) in other.phases() {
            self.add_phase(p, nanos);
        }
        for (k, v) in &other.hists {
            match self.hists.iter_mut().find(|(ek, _)| ek == k) {
                Some((_, ev)) => ev.merge(v),
                None => self.hists.push((k.clone(), v.clone())),
            }
        }
    }

    /// `{"counters": {...}, "phase_nanos": {...}}`, plus a
    /// `"histograms"` object when any histogram was recorded.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObj::new();
        for (k, v) in &self.counters {
            counters = counters.u64(k, *v);
        }
        let mut phases = JsonObj::new();
        for (p, v) in self.phases() {
            phases = phases.u64(p.name(), v);
        }
        let mut out = JsonObj::new()
            .raw("counters", &counters.finish())
            .raw("phase_nanos", &phases.finish());
        if !self.hists.is_empty() {
            let mut hists = JsonObj::new();
            for (k, v) in &self.hists {
                hists = hists.raw(k, &v.to_json());
            }
            out = out.raw("histograms", &hists.finish());
        }
        out.finish()
    }

    /// Multi-line human rendering (for reports and explain output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("phases:\n");
        for (p, v) in self.phases() {
            out.push_str(&format!("  {:<12} {:>12.3} ms\n", p.name(), v as f64 / 1e6));
        }
        out.push_str("counters:\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("  {k:<28} {v}\n"));
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for (k, v) in &self.hists {
                out.push_str(&format!("  {k:<28} {}\n", v.render_line(|x| x.to_string())));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.count("memo_hits", 2);
        m.count("memo_hits", 3);
        m.count("plans", 1);
        let s = m.summary();
        assert_eq!(s.counter("memo_hits"), Some(5));
        assert_eq!(s.counter("plans"), Some(1));
        assert_eq!(s.counter("absent"), None);
    }

    #[test]
    fn phases_accumulate_across_runs() {
        let mut s = MetricsSummary::default();
        s.add_phase(PhaseKind::Glue, 10);
        s.add_phase(PhaseKind::Glue, 5);
        assert_eq!(s.phase(PhaseKind::Glue), Some(15));
        assert_eq!(s.phase(PhaseKind::Enumerate), None);
    }

    #[test]
    fn summary_json_shape() {
        let mut m = MetricsRegistry::new();
        m.count("x", 1);
        let mut s = m.summary();
        s.add_phase(PhaseKind::Prepare, 42);
        assert_eq!(
            s.to_json(),
            r#"{"counters":{"x":1},"phase_nanos":{"prepare":42}}"#
        );
    }

    #[test]
    fn absorb_merges() {
        let mut a = MetricsSummary::default();
        let mut reg = MetricsRegistry::new();
        reg.count("x", 1);
        let mut s = reg.summary();
        s.add_phase(PhaseKind::Execute, 5);
        a.absorb(&s);
        a.absorb(&s);
        assert_eq!(a.counter("x"), Some(2));
        assert_eq!(a.phase(PhaseKind::Execute), Some(10));
    }
}
