//! Benchmark regression gate: compare a fresh `BENCH_*.json` against a
//! committed baseline with percentage thresholds.
//!
//! Two classes of measurement get different thresholds:
//! - **wall_ms** is wall-clock and noisy — gated by `wall_pct`;
//! - **work counters** (star_refs, plans_built, ...) are deterministic for
//!   a fixed rule set and query — gated by the tighter `counter_pct`.
//!
//! Only *increases* violate: doing less work or running faster never
//! fails the gate. A counter new in the fresh run is an informational
//! note (benchmarks grow new counters); a baseline counter missing from
//! the fresh run fails an enforced gate, so a dropped counter cannot pass
//! silently.

use std::fmt::Write as _;

use starqo_trace::read::{parse_json, JsonValue};

/// One measurement that regressed past its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub metric: String,
    pub baseline: f64,
    pub fresh: f64,
    pub change_pct: f64,
    pub threshold_pct: f64,
}

/// The outcome of gating one fresh report against one baseline.
#[derive(Debug, Clone, Default)]
pub struct GateResult {
    pub bench: String,
    pub violations: Vec<Violation>,
    /// Measurements compared (wall_ms + shared counters).
    pub checked: usize,
    /// Counters present in only one of the two files.
    pub notes: Vec<String>,
    /// Baseline counters absent from the fresh run.
    pub missing: Vec<String>,
}

impl GateResult {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether an enforced gate fails: on any violation, or with
    /// `counters_only` (`--enforce-counters`) on work-counter violations
    /// alone, wall-clock staying report-only. A missing baseline counter
    /// fails either way.
    pub fn fails(&self, counters_only: bool) -> bool {
        !self.missing.is_empty()
            || self
                .violations
                .iter()
                .any(|v| !counters_only || v.metric != "wall_ms")
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gate[{}]: {} measurements checked, {} violation(s)",
            self.bench,
            self.checked,
            self.violations.len()
        );
        for v in &self.violations {
            let _ = writeln!(
                out,
                "  REGRESSION {}: {} -> {} ({:+.1}%, threshold {:.1}%)",
                v.metric, v.baseline, v.fresh, v.change_pct, v.threshold_pct
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// Percentage thresholds for [`gate`].
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Allowed wall-clock increase, percent.
    pub wall_pct: f64,
    /// Allowed work-counter increase, percent.
    pub counter_pct: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            wall_pct: 25.0,
            counter_pct: 5.0,
        }
    }
}

/// Compare two `BENCH_*.json` documents (baseline, fresh).
pub fn gate(baseline: &str, fresh: &str, th: Thresholds) -> Result<GateResult, String> {
    let base = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let new = parse_json(fresh).map_err(|e| format!("fresh: {e}"))?;
    let mut result = GateResult {
        bench: new
            .get("bench")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string(),
        ..GateResult::default()
    };

    if let (Some(bw), Some(fw)) = (
        base.get("wall_ms").and_then(JsonValue::as_f64),
        new.get("wall_ms").and_then(JsonValue::as_f64),
    ) {
        result.checked += 1;
        check("wall_ms", bw, fw, th.wall_pct, &mut result.violations);
    }

    let counters = |doc: &JsonValue| -> Vec<(String, f64)> {
        doc.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(JsonValue::fields)
            .map(|fields| {
                fields
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let bc = counters(&base);
    let fc = counters(&new);
    for (k, bv) in &bc {
        match fc.iter().find(|(fk, _)| fk == k) {
            Some((_, fv)) => {
                result.checked += 1;
                check(k, *bv, *fv, th.counter_pct, &mut result.violations);
            }
            None => {
                result.missing.push(k.clone());
                result
                    .notes
                    .push(format!("counter {k} missing from fresh run"));
            }
        }
    }
    for (k, _) in &fc {
        if !bc.iter().any(|(bk, _)| bk == k) {
            result.notes.push(format!("counter {k} new in fresh run"));
        }
    }
    Ok(result)
}

fn check(metric: &str, baseline: f64, fresh: f64, threshold_pct: f64, out: &mut Vec<Violation>) {
    if baseline <= 0.0 {
        // Can't compute a percentage; any nonzero growth from zero is a
        // regression only if the threshold is zero too — skip instead of
        // dividing by zero.
        return;
    }
    let change_pct = (fresh - baseline) * 100.0 / baseline;
    if change_pct > threshold_pct {
        out.push(Violation {
            metric: metric.to_string(),
            baseline,
            fresh,
            change_pct,
            threshold_pct,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(wall_ms: f64, star_refs: u64, plans: u64) -> String {
        format!(
            r#"{{"bench":"strategies","wall_ms":{wall_ms},"reports":2,"metrics":{{"counters":{{"plans_built":{plans},"star_refs":{star_refs}}},"phase_nanos":{{"enumerate":100}}}}}}"#
        )
    }

    #[test]
    fn unchanged_run_passes() {
        let doc = bench_json(100.0, 500, 2000);
        let r = gate(&doc, &doc, Thresholds::default()).unwrap();
        assert!(r.passed(), "{r:?}");
        assert_eq!(r.checked, 3);
        assert_eq!(r.bench, "strategies");
    }

    #[test]
    fn counter_growth_past_threshold_fails() {
        // star_refs 500 -> 600 = +20%, over the 5% counter threshold.
        let base = bench_json(100.0, 500, 2000);
        let fresh = bench_json(100.0, 600, 2000);
        let r = gate(&base, &fresh, Thresholds::default()).unwrap();
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.metric, "star_refs");
        assert!((v.change_pct - 20.0).abs() < 1e-9);
        assert!(
            r.render().contains("REGRESSION star_refs"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn wall_clock_gets_the_looser_threshold() {
        // +20% wall time: under the 25% wall threshold, passes.
        let base = bench_json(100.0, 500, 2000);
        let fresh = bench_json(120.0, 500, 2000);
        assert!(gate(&base, &fresh, Thresholds::default()).unwrap().passed());
        // +30%: fails.
        let fresh = bench_json(130.0, 500, 2000);
        let r = gate(&base, &fresh, Thresholds::default()).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].metric, "wall_ms");
    }

    #[test]
    fn improvements_never_violate() {
        let base = bench_json(100.0, 500, 2000);
        let fresh = bench_json(10.0, 100, 50);
        assert!(gate(&base, &fresh, Thresholds::default()).unwrap().passed());
    }

    #[test]
    fn missing_and_new_counters_are_notes_not_violations() {
        let base = r#"{"bench":"x","wall_ms":1,"metrics":{"counters":{"old_counter":5}}}"#;
        let fresh = r#"{"bench":"x","wall_ms":1,"metrics":{"counters":{"new_counter":9}}}"#;
        let r = gate(base, fresh, Thresholds::default()).unwrap();
        assert!(r.passed());
        assert_eq!(r.notes.len(), 2);
    }

    #[test]
    fn a_missing_baseline_counter_fails_an_enforced_gate() {
        let base = bench_json(100.0, 500, 2000);
        let fresh = base.replace("\"plans_built\":2000,", "");
        let r = gate(&base, &fresh, Thresholds::default()).unwrap();
        assert_eq!(r.missing, vec!["plans_built".to_string()]);
        assert!(r.fails(true) && r.fails(false), "{r:?}");
        // The same run with the counter present passes both modes, and a
        // wall-clock-only regression fails only the full enforcement.
        let r = gate(&base, &bench_json(200.0, 500, 2000), Thresholds::default()).unwrap();
        assert!(r.missing.is_empty());
        assert!(!r.fails(true) && r.fails(false), "{r:?}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(gate("not json", "{}", Thresholds::default()).is_err());
        assert!(gate("{}", "nope", Thresholds::default()).is_err());
    }
}
