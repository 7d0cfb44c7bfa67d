//! perfbench: the serve-path benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives one `starqo_serve::Service` closed-loop from this process with a
//! seeded, pre-generated request stream, checks every output after the
//! clock stops, and prints its metrics by name and unit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` for the workloads and metrics.

mod alloc;
mod drive;
mod layers;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use drive::{check, digest_hash, plan_digest, run, Bench, Stage, Sub, Window};
use stats::{git_sha, median, percentile, status_kb};
use workload::{nproc, Size, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_BUDGET` has passed or `SETUP_MAX_REPS` are done. `setup_s` is
/// their median, so a millisecond-scale set-up is measured hundreds of
/// times and a burst of outside load moves few of them.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 301;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

const USAGE: &str =
    "usage: perfbench --workload <hot-serve|adhoc-cold|exec-scan-join|stats-churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            size = Size::Tiny;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Time more set-ups of the run's workload, each dropped when done, until
/// there are `SETUP_MIN_REPS` and then until `SETUP_BUDGET` has passed or
/// there are `SETUP_MAX_REPS`.
fn time_setups(args: &Args, setup_s: &mut Vec<f64>, load_s: &mut Vec<f64>) {
    let started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && started.elapsed() < SETUP_BUDGET)
    {
        let b = Bench::setup(args.workload, args.seed, args.size);
        setup_s.push(b.setup_s);
        load_s.push(b.inputs.load_s);
    }
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = args.workload;

    // The measured service is set up once, before anything else, so the
    // memory high-water mark is one set-up's and its serving's, as in a
    // user's process. More set-ups are timed after measuring; `setup_s` and
    // `storage.load_s` are medians over all of them.
    let b = Bench::setup(w, args.seed, args.size);
    let mut setup_s = vec![b.setup_s];
    let mut load_s = vec![b.inputs.load_s];
    let dur = Duration::from_secs_f64(args.seconds);

    let (metrics, window, extra_failures, consumed) = if args.trace {
        let t = layers::traced_run(&b, dur);
        time_setups(&args, &mut setup_s, &mut load_s);
        let (metrics, mismatches) =
            layers::layer_metrics(&b, &t, &load_s).unwrap_or_else(|empty| {
                eprintln!("perfbench: no samples for {}", empty.join(", "));
                std::process::exit(1);
            });
        let mut all = t.untraced;
        all.absorb(t.traced);
        (metrics, all, mismatches, t.consumed)
    } else {
        let stage = Stage { dur, traced: false };
        let r = run(&b, &[stage], || {});
        let win = r.windows.into_iter().next().expect("one window per stage");
        let peak_rss_mb = status_kb("VmHWM") as f64 / 1024.0;
        time_setups(&args, &mut setup_s, &mut load_s);
        (
            end_to_end(&win, median(&setup_s), peak_rss_mb),
            win,
            0,
            r.consumed,
        )
    };

    let checks = check(&b, &window.served);
    let attempted = window.requests();
    let failed = window.errors + checks.failed_requests + extra_failures;
    let digest = plan_digest(&b, &window.served);

    println!(
        "perfbench workload={} seed={} trace={} clients={} seconds={}",
        w.name(),
        args.seed,
        args.trace as u8,
        w.clients(),
        args.seconds
    );
    for m in &metrics {
        println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<30} {:>16.4} ratio  ({failed} failed of {attempted} attempted)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    let lat = window.lat_ns();
    let (p99, p99_chunks) = chunked_p99(&lat);
    println!(
        "provenance {{\"git_sha\": \"{}\", \"nproc\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"trace\": {}, \"clients\": {}, \"seconds\": {}, \"requests_measured\": {}, \
         \"warmup_requests_excluded\": {}, \"settle_requests_excluded\": {}, \
         \"setup_reps\": {}, \"subwindows\": {}, \
         \"latency_samples\": {}, \"latency_samples_cap_per_client_subwindow\": {}, \
         \"p99_chunks\": {}, \"samples_above_p99\": {}, \
         \"stream_len\": {}, \"stream_wrapped\": {}, \"checked_pairs\": {}, \
         \"serial_checked\": {}, \"reference_checked\": {}}}",
        git_sha(),
        nproc(),
        w.name(),
        args.seed,
        args.trace as u8,
        w.clients(),
        args.seconds,
        attempted,
        b.inputs.warmup.len() * setup_s.len(),
        b.inputs.settle.len(),
        setup_s.len(),
        window.subs.len(),
        lat.len(),
        drive::LAT_KEEP,
        p99_chunks,
        lat.iter().filter(|&&s| s as f64 > p99).count(),
        b.inputs.stream.len(),
        consumed > b.inputs.stream.len(),
        checks.keys,
        checks.serial_checked,
        checks.reference_checked,
    );
    let entries: Vec<String> = digest
        .iter()
        .map(|(fp, plan, cost)| format!("[\"{fp:016x}\", \"{plan:016x}\", \"{cost:016x}\"]"))
        .collect();
    println!(
        "plan_digest {{\"hash\": \"{:016x}\", \"entries\": [{}]}}",
        digest_hash(&digest),
        entries.join(", ")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}
/// Latencies per chunk when taking p99: enough for ten samples above it.
const P99_CHUNK: usize = 1000;

/// p99 as the median over consecutive chunks of `P99_CHUNK` latencies
/// (sub-window by sub-window), or over all of them when there are fewer
/// than two chunks' worth; and the number of chunks.
fn chunked_p99(lat: &[u64]) -> (f64, usize) {
    let chunks: Vec<&[u64]> = if lat.len() >= 2 * P99_CHUNK {
        lat.chunks_exact(P99_CHUNK).collect()
    } else {
        vec![lat]
    };
    let p99s: Vec<f64> = chunks.iter().map(|c| percentile(c, 99.0) as f64).collect();
    (median(&p99s), chunks.len())
}

/// End-to-end metrics. Throughput, p50 and CPU per request are medians
/// over one-second sub-windows and p99 a median over chunks, so a burst of
/// outside interference moves few of the parts. Set-up time is a median
/// over set-ups; the memory high-water mark is read once after measuring.
fn end_to_end(win: &Window, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let fig = |f: &dyn Fn(&Sub) -> f64| {
        median(
            &win.subs
                .iter()
                .filter(|s| s.done > 0)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let us = |ns: f64| ns / 1e3;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("qps", fig(&|s| s.done as f64 / s.secs), "1/s"),
        m(
            "latency_p50_us",
            fig(&|s| us(percentile(&s.lat_ns, 50.0) as f64)),
            "us",
        ),
        m("latency_p99_us", us(chunked_p99(&win.lat_ns()).0), "us"),
        m("cpu_us_per_req", fig(&|s| s.cpu_us / s.done as f64), "us"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}
