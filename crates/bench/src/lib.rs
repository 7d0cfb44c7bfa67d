//! # starqo-bench
//!
//! The experiment harness: one module (and one binary) per experiment of
//! DESIGN.md's index, regenerating every figure and testable claim of the
//! paper. `cargo run -p starqo-bench --bin all_experiments` prints the whole
//! suite; `cargo bench -p starqo-bench` times the hot paths with Criterion.
//!
//! | Exp | Paper artifact | Module |
//! |-----|----------------|--------|
//! | E1  | Figure 1 (DEPT⋈EMP QEP) | [`figures::e1_figure1`] |
//! | E2  | Figure 2 (property vector) | [`figures::e2_figure2`] |
//! | E3  | Figure 3 (Glue veneers) | [`figures::e3_figure3`] |
//! | E4  | §4.1–4.4 strategy space | [`strategies::e4_strategy_space`] |
//! | E5  | §4.5.1 hash join | [`strategies::e5_hash_join`] |
//! | E6  | §4.5.2 forced projection | [`strategies::e6_forced_projection`] |
//! | E7  | §4.5.3 dynamic index | [`strategies::e7_dynamic_index`] |
//! | E8  | §1/§6 STAR vs transformational | [`comparison::e8_star_vs_xform`] |
//! | E9  | §2.3 enumeration repertoire | [`comparison::e9_enumeration`] |
//! | E10 | §4.2 join sites | [`distributed::e10_join_sites`] |
//! | E11 | §5 extensibility | [`extensibility::e11_extensibility`] |
//! | E12 | §6 subplan re-estimation | [`comparison::e12_reestimation`] |
//! | E13 | plan-correctness oracle sweep | [`correctness::e13_correctness`] |
//! | E15 | CARD estimation quality | [`correctness::e15_estimation_quality`] |
//! | E16 | estimation observatory + cost calibration | [`observatory::e16_estimation_observatory`] |
//! | E17 | serving layer: plan-cache throughput + correctness | [`serving::e17_serving`] |
//! | E19 | live telemetry plane: overhead + snapshot invariants | [`telemetry::e19_telemetry`] |
//! | E20 | feedback plane: drift detection + overhead | [`drift::e20_drift`] |
//! | E21 | span tracing: overhead + tail retention proof | [`spans::e21_spans`] |
//! | E22 | self-healing: drift recovery + re-opt chaos soak | [`heal::e22_heal`] |
//! | E23 | vectorized executor: oracle equivalence + speedup | [`vexec::e23_vexec`] |

pub mod chaos;
pub mod comparison;
pub mod correctness;
pub mod distributed;
pub mod drift;
pub mod extensibility;
pub mod figures;
pub mod heal;
pub mod observatory;
pub mod serving;
pub mod spans;
pub mod strategies;
pub mod telemetry;
pub mod vexec;

use std::fmt::Write as _;

use starqo_trace::MetricsSummary;

/// A printable experiment report, plus the optimizer metrics accumulated
/// across every `optimize` call the experiment made.
pub struct Report {
    pub id: &'static str,
    pub title: String,
    pub body: String,
    pub metrics: MetricsSummary,
}

impl Report {
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        Report {
            id,
            title: title.into(),
            body: String::new(),
            metrics: MetricsSummary::default(),
        }
    }

    pub fn line(&mut self, s: impl AsRef<str>) {
        let _ = writeln!(self.body, "{}", s.as_ref());
    }

    /// Fold one run's metrics (an optimization's `Optimized::summary()` or
    /// an experiment's own counters) into this report's totals.
    pub fn absorb(&mut self, m: &MetricsSummary) {
        self.metrics.absorb(m);
    }

    pub fn render(&self) -> String {
        let rule = "=".repeat(72);
        format!(
            "{rule}\n{} — {}\n{rule}\n{}\n",
            self.id, self.title, self.body
        )
    }
}

/// Where bench artifacts (`BENCH_*.json`, workload traces, accuracy
/// reports) land: `$STARQO_BENCH_DIR` when set, `target/bench/` otherwise —
/// never the repo root. Creates the directory.
pub fn bench_dir() -> std::path::PathBuf {
    let dir = match std::env::var_os("STARQO_BENCH_DIR") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::path::PathBuf::from("target").join("bench"),
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("could not create {}: {e}", dir.display());
    }
    dir
}

/// Drive one experiment binary: run the experiments, print the reports, and
/// drop a machine-readable `BENCH_<name>.json` (wall time plus the merged
/// counters and phase timings). The file lands in [`bench_dir`] — set
/// `STARQO_BENCH_DIR` to redirect it, which is how regression-gate
/// baselines are (re)generated into `baselines/`.
pub fn run_bin(name: &str, f: impl FnOnce() -> Vec<Report>) {
    let (reports, wall_ms) = time_ms(f);
    let mut merged = MetricsSummary::default();
    for r in &reports {
        print!("{}", r.render());
        merged.absorb(&r.metrics);
    }
    let json = starqo_trace::json::JsonObj::new()
        .str("bench", name)
        .f64("wall_ms", wall_ms)
        .u64("reports", reports.len() as u64)
        .raw("metrics", &merged.to_json())
        .finish();
    let path = bench_dir().join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json + "\n") {
        // On stdout deliberately: every bench bin reports where its gate
        // artifact landed as part of its normal output.
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Pad/format a row of cells for table output.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Milliseconds of a closure.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}
