//! Set-up, the closed-loop clients, and the post-run output checks.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use starqo_exec::{reference_eval, Executor};
use starqo_plan::PlanRef;
use starqo_query::canonicalize;
use starqo_serve::{ServeOutcome, Service};
use starqo_storage::Tuple;
use starqo_workload::Rng64;

use crate::stats::process_cpu_us;
use crate::workload::{Inputs, Size, Workload};

/// A workload ready to measure: inputs built, service constructed (rules
/// compiled) and warmed up.
pub struct Bench {
    pub workload: Workload,
    pub inputs: Inputs,
    pub svc: Service,
    /// Seconds the whole set-up took.
    pub setup_s: f64,
}

impl Bench {
    pub fn setup(workload: Workload, seed: u64, size: Size) -> Bench {
        let started = Instant::now();
        let inputs = Inputs::build(workload, seed, size);
        let svc = Service::new(inputs.catalog.clone(), workload.service_config())
            .expect("service builds over the workload catalog");
        for &q in &inputs.warmup {
            svc.execute(&inputs.db, &inputs.queries[q as usize])
                .expect("warm-up request is served");
        }
        Bench {
            workload,
            inputs,
            svc,
            setup_s: started.elapsed().as_secs_f64(),
        }
    }
}

/// One traced request: the durations of the benchmark's spans around its
/// three calls into the service, children of the request's root span.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpans {
    pub prepare_ns: u64,
    pub optimize_ns: u64,
    pub execute_ns: u64,
    pub hit: bool,
    pub coalesced: bool,
}

impl RequestSpans {
    pub fn total_ns(&self) -> u64 {
        self.prepare_ns + self.optimize_ns + self.execute_ns
    }
}

/// Everything served for one (query, plan) pair, summarised so a run's
/// outputs can be checked after the clock stops.
#[derive(Debug, Clone)]
pub struct Served {
    pub fp: u64,
    pub plan: PlanRef,
    pub rows: usize,
    pub ordered: u64,
    pub multiset: u64,
    pub requests: u64,
    /// Requests whose rows differed from the first request's.
    pub unstable: u64,
}

/// Served results keyed by (query index, plan fingerprint).
pub type ServedMap = HashMap<(u32, u64), Served>;

/// One sub-window of a measured window: end-to-end statistics are medians
/// over sub-windows, so a burst of interference from outside the process
/// moves few of them.
#[derive(Debug, Default, Clone)]
pub struct Sub {
    pub secs: f64,
    pub cpu_us: f64,
    /// Requests completed, failed ones included.
    pub done: u64,
    /// A uniform sample of the `Service::execute` latencies (untraced
    /// windows only), at most `LAT_KEEP` per client.
    pub lat_ns: Vec<u64>,
}

/// Latencies kept per client and sub-window. Keeping every latency would
/// make the benchmark's own memory, and with it `peak_rss_mb`, grow with
/// throughput; a fixed-size uniform sample keeps it flat and leaves more
/// than ten samples above p99 per sub-window.
pub const LAT_KEEP: usize = 4096;

impl Sub {
    /// Offer the `done`-th request's latency to the sample (reservoir
    /// sampling: every request is kept with equal probability).
    fn keep(&mut self, ns: u64, rng: &mut Rng64) {
        if self.lat_ns.len() < LAT_KEEP {
            self.lat_ns.push(ns);
        } else {
            let j = rng.below(self.done) as usize;
            if j < LAT_KEEP {
                self.lat_ns[j] = ns;
            }
        }
    }
}

/// What the clients of one measured window did.
#[derive(Debug, Default)]
pub struct Window {
    pub subs: Vec<Sub>,
    /// Traced requests (traced windows only).
    pub spans: Vec<RequestSpans>,
    /// Statistics refresh durations (`stats-churn`).
    pub bumps_ns: Vec<u64>,
    pub errors: u64,
    pub served: ServedMap,
}

impl Window {
    pub fn requests(&self) -> u64 {
        self.subs.iter().map(|s| s.done).sum()
    }

    /// The window's sampled untraced latencies.
    pub fn lat_ns(&self) -> Vec<u64> {
        self.subs
            .iter()
            .flat_map(|s| s.lat_ns.iter().copied())
            .collect()
    }

    pub fn absorb(&mut self, other: Window) {
        self.subs.extend(other.subs);
        self.spans.extend(other.spans);
        self.bumps_ns.extend(other.bumps_ns);
        self.errors += other.errors;
        for (k, s) in other.served {
            match self.served.get_mut(&k) {
                None => {
                    self.served.insert(k, s);
                }
                Some(t) => {
                    t.requests += s.requests;
                    t.unstable += s.unstable;
                    if (t.ordered, t.multiset, t.rows) != (s.ordered, s.multiset, s.rows) {
                        t.unstable += s.requests;
                    }
                }
            }
        }
    }
}

/// One measured stage of a run.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    pub dur: Duration,
    pub traced: bool,
}

/// What a run's stages measured, one window per stage.
pub struct Run {
    pub windows: Vec<Window>,
    /// Stream positions handed out (more than the stream's length when
    /// clients wrapped around).
    pub consumed: usize,
}

/// Run the workload's clients closed-loop through `stages`, each split
/// into one-second sub-windows. Untraced requests are single
/// `Service::execute` calls; traced ones are `prepare`,
/// `optimize_prepared` and `execute_prepared`, each under its own span.
///
/// The same client threads first serve the settling requests and then
/// every stage: the allocator gives each new thread fresh memory, and cold
/// optimization runs markedly faster on it until it has served a few
/// thousand requests, so measuring on fresh threads would not measure the
/// steady state. `at_boundary` runs on the calling thread before the first
/// stage and after each stage, while the clients wait.
pub fn run(b: &Bench, stages: &[Stage], mut at_boundary: impl FnMut()) -> Run {
    let clients = b.workload.clients();
    let stream = &b.inputs.stream;
    let issued = AtomicU64::new(0);
    let issued = &issued;
    let barrier = &Barrier::new(clients + 1);
    let subs_of = |p: &Stage| (p.dur.as_secs_f64().round() as usize).max(1);
    let mut timing: Vec<(Duration, Vec<f64>)> = Vec::new();
    let logs: Vec<(Vec<Window>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    for &q in b.inputs.settle.iter().skip(c).step_by(clients) {
                        b.svc
                            .execute(&b.inputs.db, &b.inputs.queries[q as usize])
                            .expect("settling request is served");
                    }
                    let mut pos = c;
                    let mut rng = Rng64::new(c as u64 + 1);
                    let mut logs = Vec::new();
                    for stage in stages {
                        let subs = subs_of(stage);
                        let sub_ns = (stage.dur / subs as u32).as_nanos();
                        let mut log = Window {
                            subs: vec![Sub::default(); subs],
                            ..Window::default()
                        };
                        barrier.wait();
                        let started = Instant::now();
                        while started.elapsed() < stage.dur {
                            let q = stream[pos % stream.len()];
                            pos += clients;
                            let n = issued.fetch_add(1, Ordering::Relaxed) + 1;
                            if let Some(every) = b.workload.refresh_every() {
                                if n.is_multiple_of(every) {
                                    log.bumps_ns.push(refresh_stats(b, n / every));
                                }
                            }
                            let lat = if stage.traced {
                                traced_request(b, q, &mut log);
                                None
                            } else {
                                untraced_request(b, q, &mut log)
                            };
                            let i = (started.elapsed().as_nanos() / sub_ns) as usize;
                            let sub = &mut log.subs[i.min(subs - 1)];
                            sub.done += 1;
                            if let Some(ns) = lat {
                                sub.keep(ns, &mut rng);
                            }
                        }
                        barrier.wait();
                        logs.push(log);
                    }
                    (logs, pos)
                })
            })
            .collect();
        for stage in stages {
            at_boundary();
            let subs = subs_of(stage);
            let sub_len = stage.dur / subs as u32;
            barrier.wait();
            let started = Instant::now();
            let mut cpu = vec![process_cpu_us()];
            for i in 1..subs {
                std::thread::sleep(
                    (started + sub_len * i as u32).saturating_duration_since(Instant::now()),
                );
                cpu.push(process_cpu_us());
            }
            // The last sub-window also holds the requests in flight at the
            // deadline.
            barrier.wait();
            cpu.push(process_cpu_us());
            timing.push((started.elapsed(), cpu));
        }
        at_boundary();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let consumed = logs.iter().map(|(_, pos)| *pos).max().unwrap_or(0);
    let mut per_client: Vec<_> = logs.into_iter().map(|(w, _)| w.into_iter()).collect();
    let windows = stages
        .iter()
        .zip(timing)
        .map(|(stage, (wall, cpu))| {
            let subs = subs_of(stage);
            let sub_len = stage.dur / subs as u32;
            let mut window = Window {
                subs: (0..subs)
                    .map(|i| Sub {
                        secs: if i + 1 < subs {
                            sub_len.as_secs_f64()
                        } else {
                            (wall - sub_len * i as u32).as_secs_f64()
                        },
                        cpu_us: cpu[i + 1] - cpu[i],
                        ..Sub::default()
                    })
                    .collect(),
                ..Window::default()
            };
            for client in &mut per_client {
                let log = client.next().expect("one window per stage");
                for (into, from) in window.subs.iter_mut().zip(&log.subs) {
                    into.done += from.done;
                    into.lat_ns.extend(&from.lat_ns);
                }
                window.absorb(Window {
                    subs: Vec::new(),
                    ..log
                });
            }
            window
        })
        .collect();
    Run { windows, consumed }
}

fn untraced_request(b: &Bench, q: u32, log: &mut Window) -> Option<u64> {
    let t0 = Instant::now();
    let r = b.svc.execute(&b.inputs.db, &b.inputs.queries[q as usize]);
    let ns = t0.elapsed().as_nanos() as u64;
    match r {
        Ok((res, out)) => {
            record(&mut log.served, q, &out, &res.rows);
            Some(ns)
        }
        Err(_) => {
            log.errors += 1;
            None
        }
    }
}

fn traced_request(b: &Bench, q: u32, log: &mut Window) {
    let svc = &b.svc;
    let t0 = Instant::now();
    let prepared = svc.prepare(&b.inputs.queries[q as usize]);
    let t1 = Instant::now();
    let opt = svc.optimize_prepared(&prepared, None);
    let t2 = Instant::now();
    let Ok(opt) = opt else {
        log.errors += 1;
        return;
    };
    let exec = svc.execute_prepared(&b.inputs.db, &prepared, None);
    let t3 = Instant::now();
    match exec {
        Ok((res, out)) => {
            log.spans.push(RequestSpans {
                prepare_ns: (t1 - t0).as_nanos() as u64,
                optimize_ns: (t2 - t1).as_nanos() as u64,
                execute_ns: (t3 - t2).as_nanos() as u64,
                hit: opt.cache_hit,
                coalesced: opt.coalesced,
            });
            record(&mut log.served, q, &out, &res.rows);
        }
        Err(_) => log.errors += 1,
    }
}

/// Refresh one table's cardinality statistic to the value its data has —
/// statistics stay consistent, but the catalog epoch moves. Returns the
/// call's duration in nanoseconds.
fn refresh_stats(b: &Bench, nth: u64) -> u64 {
    let tables = b.inputs.catalog.tables();
    let t = &tables[nth as usize % tables.len()];
    let card = b.inputs.db.actual_card(t.id);
    let started = Instant::now();
    b.svc
        .shared_catalog()
        .set_table_card(&t.name, card)
        .expect("statistics refresh");
    started.elapsed().as_nanos() as u64
}

/// Order-sensitive and order-insensitive digests of a result's rows.
pub fn digests(rows: &[Tuple]) -> (u64, u64) {
    let mut ordered = 0xcbf2_9ce4_8422_2325u64;
    let mut multiset = 0u64;
    for r in rows {
        let mut h = DefaultHasher::new();
        r.hash(&mut h);
        let x = h.finish();
        ordered = (ordered ^ x).wrapping_mul(0x0100_0000_01b3);
        multiset = multiset.wrapping_add(x);
    }
    (ordered, multiset)
}

fn record(map: &mut ServedMap, q: u32, out: &ServeOutcome, rows: &[Tuple]) {
    let plan = &out.optimized.best;
    let (ordered, multiset) = digests(rows);
    let s = map
        .entry((q, plan.fingerprint()))
        .or_insert_with(|| Served {
            fp: out.fingerprint.hash,
            plan: plan.clone(),
            rows: rows.len(),
            ordered,
            multiset,
            requests: 0,
            unstable: 0,
        });
    s.requests += 1;
    if (s.ordered, s.multiset, s.rows) != (ordered, multiset, rows.len()) {
        s.unstable += 1;
    }
}

/// Reference (brute-force) checks are made for queries whose Cartesian
/// product is at most this many rows...
const REF_MAX_PRODUCT: u64 = 300_000;
/// ...until the run's checks have enumerated this many rows in total.
const REF_BUDGET: u64 = 6_000_000;

/// The outcome of checking every served (query, plan) pair.
#[derive(Debug, Default)]
pub struct Checks {
    pub keys: u64,
    pub serial_checked: u64,
    pub reference_checked: u64,
    /// Requests whose output failed a check.
    pub failed_requests: u64,
}

/// Check each distinct served (query, plan) pair once, outside the timed
/// region: its rows must equal, in order, what the serial executor returns
/// for the same plan (bit-equality when the service ran vexec), and, where
/// the brute-force product is affordable, equal as a multiset what
/// `reference_eval` returns. Requests that saw different rows for the same
/// pair fail too.
pub fn check(b: &Bench, served: &ServedMap) -> Checks {
    let db = &b.inputs.db;
    let mut by_query: BTreeMap<u32, Vec<&Served>> = BTreeMap::new();
    for ((q, _), s) in served {
        by_query.entry(*q).or_default().push(s);
    }
    let mut c = Checks::default();
    let mut budget = REF_BUDGET;
    for (q, group) in by_query {
        let canon = canonicalize(&b.inputs.queries[q as usize]).query;
        let product = canon
            .quantifiers
            .iter()
            .map(|qt| db.actual_card(qt.table))
            .fold(1u64, |a, n| a.saturating_mul(n));
        let reference = if product <= REF_MAX_PRODUCT && product <= budget {
            budget -= product;
            c.reference_checked += 1;
            Some(digests(&reference_eval(db, &canon).expect("reference evaluation")).1)
        } else {
            None
        };
        for s in group {
            c.keys += 1;
            c.serial_checked += 1;
            let serial = Executor::new(db, &canon)
                .run(&s.plan)
                .map(|r| (r.rows.len(), digests(&r.rows).0));
            let ok = s.unstable == 0
                && serial.is_ok_and(|(n, d)| n == s.rows && d == s.ordered)
                && reference.is_none_or(|m| m == s.multiset);
            if !ok {
                c.failed_requests += s.requests;
            }
        }
    }
    c
}

/// Distinct queries the digest covers: the first this many of the stream,
/// in order of first appearance, so the set does not depend on how far a
/// run got.
const DIGEST_QUERIES: usize = 64;

/// `(fingerprint, best-plan fingerprint, cost bits)` of every plan served
/// for the digest's queries, sorted.
pub fn plan_digest(b: &Bench, served: &ServedMap) -> Vec<(u64, u64, u64)> {
    let mut wanted = BTreeSet::new();
    for &q in &b.inputs.stream {
        if wanted.len() == DIGEST_QUERIES {
            break;
        }
        wanted.insert(q);
    }
    let set: BTreeSet<(u64, u64, u64)> = served
        .iter()
        .filter(|((q, _), _)| wanted.contains(q))
        .map(|((_, plan_fp), s)| (s.fp, *plan_fp, s.plan.props.cost.total().to_bits()))
        .collect();
    set.into_iter().collect()
}

/// One 64-bit hash over a digest's entries.
pub fn digest_hash(entries: &[(u64, u64, u64)]) -> u64 {
    let mut h = DefaultHasher::new();
    entries.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::Value;

    fn t(v: &[i64]) -> Tuple {
        Tuple(v.iter().map(|&x| Value::Int(x)).collect())
    }

    #[test]
    fn latency_sample_is_bounded_and_uniform() {
        let mut sub = Sub::default();
        let mut rng = Rng64::new(1);
        for ns in 0..100_000u64 {
            sub.done += 1;
            sub.keep(ns, &mut rng);
        }
        assert_eq!(sub.lat_ns.len(), LAT_KEEP);
        let mean = sub.lat_ns.iter().sum::<u64>() as f64 / LAT_KEEP as f64;
        assert!((mean - 50_000.0).abs() < 2_500.0, "mean {mean}");
        assert!(sub.lat_ns.iter().filter(|&&ns| ns < 50_000).count() > LAT_KEEP / 3);
    }

    #[test]
    fn digests_separate_order_from_content() {
        let a = [t(&[1, 2]), t(&[3, 4])];
        let b = [t(&[3, 4]), t(&[1, 2])];
        let c = [t(&[1, 2]), t(&[3, 5])];
        assert_ne!(digests(&a).0, digests(&b).0);
        assert_eq!(digests(&a).1, digests(&b).1);
        assert_ne!(digests(&a).1, digests(&c).1);
    }

    #[test]
    fn hot_serve_is_served_from_the_cache_after_warm_up() {
        let b = Bench::setup(Workload::HotServe, 5, Size::Tiny);
        let stage = Stage {
            dur: Duration::from_millis(300),
            traced: true,
        };
        let r = run(&b, &[stage], || {});
        let w = &r.windows[0];
        assert!(w.spans.len() >= 100, "{} requests", w.spans.len());
        let hits = w.spans.iter().filter(|s| s.hit).count();
        let ratio = hits as f64 / w.spans.len() as f64;
        assert!(ratio >= 0.99, "warm hit ratio {ratio}");
        assert_eq!(w.errors, 0);
        let c = check(&b, &w.served);
        assert_eq!(c.failed_requests, 0);
        assert!(c.reference_checked > 0);
    }

    #[test]
    fn checks_catch_a_wrong_result() {
        let b = Bench::setup(Workload::HotServe, 5, Size::Tiny);
        let stage = Stage {
            dur: Duration::from_millis(100),
            traced: false,
        };
        let mut served = run(&b, &[stage], || {}).windows.remove(0).served;
        let s = served.values_mut().next().expect("something was served");
        s.multiset ^= 1;
        s.ordered ^= 1;
        let requests = s.requests;
        assert_eq!(check(&b, &served).failed_requests, requests);
    }
}
