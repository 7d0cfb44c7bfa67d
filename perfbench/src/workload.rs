//! The four workloads: each is a fixed database plus a request stream
//! generated from the run's seed. The database never depends on the seed,
//! so runs with different seeds differ only in which requests arrive in
//! which order. `README.md` says why each workload exists.

use std::sync::Arc;
use std::time::Instant;

use starqo_catalog::{Catalog, ColId, DataType, StorageKind, Value};
use starqo_core::OptConfig;
use starqo_query::{CmpOp, PredExpr, QCol, QId, Query, QueryBuilder, Scalar};
use starqo_serve::{ExecutorChoice, ServiceConfig};
use starqo_storage::{Database, DatabaseBuilder, Tuple};
use starqo_workload::{
    query_shape_param, synth_catalog, synth_database, QueryShape, Rng64, SynthSpec,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotServe,
    AdhocCold,
    ExecScanJoin,
    StatsChurn,
}

/// Input size: `Full` for measurement, `Tiny` for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotServe,
        Workload::AdhocCold,
        Workload::ExecScanJoin,
        Workload::StatsChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotServe => "hot-serve",
            Workload::AdhocCold => "adhoc-cold",
            Workload::ExecScanJoin => "exec-scan-join",
            Workload::StatsChurn => "stats-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients, never more than the machine's cores.
    pub fn clients(self) -> usize {
        let want = match self {
            Workload::HotServe | Workload::StatsChurn => 2,
            Workload::AdhocCold | Workload::ExecScanJoin => 1,
        };
        want.min(nproc())
    }

    /// Requests between two statistics refreshes, for `stats-churn`.
    pub fn refresh_every(self) -> Option<u64> {
        (self == Workload::StatsChurn).then_some(500)
    }

    pub fn service_config(self) -> ServiceConfig {
        match self {
            Workload::ExecScanJoin => ServiceConfig {
                opt_config: OptConfig::default().enable("hashjoin"),
                executor: ExecutorChoice::Vexec {
                    workers: vexec_workers(),
                },
                ..ServiceConfig::default()
            },
            _ => ServiceConfig::default(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Morsel workers for the vectorized executor, in the service and in the
/// traced run's out-of-band calls.
pub fn vexec_workers() -> usize {
    nproc()
}

/// What a run serves: the workload's fixed database, its distinct
/// queries, and the seeded stream of indices into them.
pub struct Inputs {
    pub catalog: Arc<Catalog>,
    pub db: Database,
    /// Seconds spent building `db`.
    pub load_s: f64,
    /// Every distinct request (template × bound constant, or one ad-hoc
    /// query each).
    pub queries: Vec<Query>,
    /// The template each query instantiates (ad-hoc queries are their own).
    pub template_of: Vec<u32>,
    /// The measured request order; clients cycle through it.
    pub stream: Vec<u32>,
    /// Requests served during set-up, before anything is measured.
    pub warmup: Vec<u32>,
    /// Requests served once after set-up, outside both set-up time and the
    /// measurement, to bring the service to its steady state.
    pub settle: Vec<u32>,
}

impl Inputs {
    pub fn build(w: Workload, seed: u64, size: Size) -> Inputs {
        match w {
            Workload::HotServe | Workload::StatsChurn => hot(seed, size),
            Workload::AdhocCold => adhoc(seed, size),
            Workload::ExecScanJoin => scan_join(seed, size),
        }
    }
}

// ---- hot-serve / stats-churn ---------------------------------------------

/// E17's fleet: five parameterized shapes (a fresh constant per request)
/// and the same five shapes without a local predicate.
const HOT_TEMPLATES: [(QueryShape, usize, bool); 10] = [
    (QueryShape::Chain, 2, true),
    (QueryShape::Chain, 3, true),
    (QueryShape::Star, 3, true),
    (QueryShape::Cycle, 3, true),
    (QueryShape::Clique, 3, true),
    (QueryShape::Chain, 2, false),
    (QueryShape::Chain, 3, false),
    (QueryShape::Star, 3, false),
    (QueryShape::Cycle, 3, false),
    (QueryShape::Clique, 3, false),
];

/// Bound constants are drawn from `0..HOT_PARAMS`, inside the payload
/// columns' value sets (3–6 distinct values), so most requests select rows.
const HOT_PARAMS: u64 = 8;
const ZIPF_S: f64 = 1.1;

fn hot(seed: u64, size: Size) -> Inputs {
    let started = Instant::now();
    let spec = SynthSpec {
        tables: 4,
        card_range: (30, 60),
        sites: 1,
        index_prob: 0.6,
        btree_prob: 0.4,
        payload_cols: 2,
    };
    let catalog = synth_catalog(42, &spec);
    let db = synth_database(42, catalog.clone());
    let load_s = started.elapsed().as_secs_f64();

    let mut queries = Vec::new();
    let mut template_of = Vec::new();
    let mut first = Vec::new();
    for (t, &(shape, n, param)) in HOT_TEMPLATES.iter().enumerate() {
        first.push(queries.len() as u32);
        let constants: Vec<Option<i64>> = if param {
            (0..HOT_PARAMS as i64).map(Some).collect()
        } else {
            vec![None]
        };
        for c in constants {
            queries.push(query_shape_param(&catalog, shape, n, c));
            template_of.push(t as u32);
        }
    }
    let cdf = zipf_cdf(HOT_TEMPLATES.len(), ZIPF_S);
    let mut rng = Rng64::new(seed);
    let len = match size {
        Size::Full => 1 << 16,
        Size::Tiny => 1 << 10,
    };
    let stream = (0..len)
        .map(|_| {
            let t = zipf_pick(&cdf, rng.next_f64());
            let c = if HOT_TEMPLATES[t].2 {
                rng.below(HOT_PARAMS) as u32
            } else {
                0
            };
            first[t] + c
        })
        .collect();
    let warmup = (0..queries.len() as u32).collect();
    Inputs {
        catalog,
        db,
        load_s,
        queries,
        template_of,
        stream,
        warmup,
        settle: Vec::new(),
    }
}

/// Cumulative Zipf(s) distribution over `k` ranks.
pub fn zipf_cdf(k: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=k).map(|i| 1.0 / (i as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

// ---- adhoc-cold ----------------------------------------------------------

const ADHOC_TABLES: usize = 12;
const ADHOC_MIN_N: usize = 3;
const ADHOC_MAX_N: usize = 7;
/// Join-graph topologies per join size.
const ADHOC_SHAPES: usize = 8;
const ADHOC_WARMUP: usize = 16;
/// Queries served before measuring so the plan cache (1024 entries by
/// default) is full and evicting, the state cold serving runs in.
const ADHOC_SETTLE: usize = 3072;

/// A join graph over positions `0..n`: spanning-tree edges plus, for some
/// shapes, one edge closing a cycle.
type Shape = Vec<(usize, usize)>;

/// The topologies the stream cycles through. They are fixed, not drawn
/// from the run's seed: cold optimization cost depends mostly on topology,
/// so a fixed mix keeps the run-to-run spread of the tail down while the
/// seed still picks every query's tables, edge directions and predicates.
fn adhoc_shapes() -> Vec<Vec<Shape>> {
    let mut rng = Rng64::new(0x5348_4150);
    (ADHOC_MIN_N..=ADHOC_MAX_N)
        .map(|n| {
            (0..ADHOC_SHAPES)
                .map(|_| {
                    let mut edges: Shape = (1..n).map(|i| (rng.index(i), i)).collect();
                    let (x, y) = (rng.index(n), rng.index(n));
                    if rng.chance(0.25) && x != y && !edges.contains(&(x.min(y), x.max(y))) {
                        edges.push((x.min(y), x.max(y)));
                    }
                    edges
                })
                .collect()
        })
        .collect()
}

fn adhoc(seed: u64, size: Size) -> Inputs {
    let started = Instant::now();
    let spec = SynthSpec {
        tables: ADHOC_TABLES,
        card_range: (8, 24),
        sites: 1,
        index_prob: 0.5,
        btree_prob: 0.3,
        payload_cols: 2,
    };
    let catalog = synth_catalog(7, &spec);
    let db = synth_database(7, catalog.clone());
    let load_s = started.elapsed().as_secs_f64();

    let (len, settle) = match size {
        Size::Full => (8192, ADHOC_SETTLE),
        Size::Tiny => (200, 32),
    };
    // Join sizes cycle through 3..=7 and, within each size, through its
    // shapes, so every seed serves the same mix.
    let shapes = adhoc_shapes();
    let sizes = ADHOC_MAX_N - ADHOC_MIN_N + 1;
    let shape = |i: usize| &shapes[i % sizes][(i / sizes) % ADHOC_SHAPES];
    let mut rng = Rng64::new(seed);
    let mut queries: Vec<Query> = (0..len)
        .map(|i| adhoc_query(&catalog, &mut rng, shape(i)))
        .collect();
    // Warm-up and settling queries come from their own stream, so the
    // measured stream stays cold.
    let mut warm_rng = Rng64::new(seed ^ 0x5741_524d);
    queries
        .extend((0..ADHOC_WARMUP + settle).map(|i| adhoc_query(&catalog, &mut warm_rng, shape(i))));
    let (warm_end, n) = ((len + ADHOC_WARMUP) as u32, queries.len() as u32);
    Inputs {
        catalog,
        db,
        load_s,
        template_of: (0..n).collect(),
        queries,
        stream: (0..len as u32).collect(),
        warmup: (len as u32..warm_end).collect(),
        settle: (warm_end..n).collect(),
    }
}

/// A query of the given join-graph shape over randomly chosen distinct
/// tables: `FK = ID` edges in random directions and random local
/// predicates on payload columns.
fn adhoc_query(cat: &Catalog, rng: &mut Rng64, shape: &Shape) -> Query {
    let n = shape
        .iter()
        .map(|&(x, y)| x.max(y))
        .max()
        .expect("a shape has edges")
        + 1;
    let mut pool: Vec<usize> = (0..ADHOC_TABLES).collect();
    let tables: Vec<usize> = (0..n)
        .map(|_| pool.swap_remove(rng.index(pool.len())))
        .collect();
    let mut b = QueryBuilder::new();
    let qs: Vec<QId> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| {
            b.quantifier(cat, &format!("T{t}"), &format!("q{i}"))
                .expect("synthetic table exists")
        })
        .collect();
    let (id, fk) = (ColId(0), ColId(1));
    for &(x, y) in shape {
        let (x, y) = if rng.flip() { (x, y) } else { (y, x) };
        b.predicate(PredExpr::Cmp(
            CmpOp::Eq,
            Scalar::col(qs[x], fk),
            Scalar::col(qs[y], id),
        ))
        .expect("join predicate");
    }
    for (i, &t) in tables.iter().enumerate() {
        if rng.chance(0.3) {
            let col = 2 + rng.index(2);
            let ndv = cat.tables()[t].columns[col].distinct.unwrap_or(2);
            b.predicate(PredExpr::Cmp(
                CmpOp::Eq,
                Scalar::col(qs[i], ColId(col as u32)),
                Scalar::Const(Value::Int(rng.below(ndv) as i64)),
            ))
            .expect("local predicate");
        }
    }
    b.select(QCol::new(qs[0], id));
    b.select(QCol::new(qs[n - 1], id));
    b.build().expect("generated query is valid")
}

// ---- exec-scan-join ------------------------------------------------------

/// Bound constants per template; few, so the plan cache stays hot and the
/// post-run checks stay affordable.
const SCAN_PARAMS: u64 = 8;

struct ScanTable {
    name: &'static str,
    card: u64,
    storage_btree: bool,
    /// (column, distinct values)
    cols: &'static [(&'static str, u64)],
}

/// A fact table probed through small dimensions, and a mid-size table for
/// build-heavy joins. Column 0 is always `ID`.
fn scan_tables(size: Size) -> [ScanTable; 4] {
    let f = match size {
        Size::Full => 300_000,
        Size::Tiny => 4_000,
    };
    let m = match size {
        Size::Full => 20_000,
        Size::Tiny => 800,
    };
    [
        ScanTable {
            name: "F",
            card: f,
            storage_btree: false,
            cols: &[("K1", 2_000), ("K2", 1_000), ("P0", 100), ("P1", 10)],
        },
        ScanTable {
            name: "D1",
            card: 2_000,
            storage_btree: false,
            cols: &[("FK", 1_000), ("P0", 100), ("P1", 10)],
        },
        ScanTable {
            name: "D2",
            card: 1_000,
            storage_btree: true,
            cols: &[("P0", 100), ("P1", 10)],
        },
        ScanTable {
            name: "M",
            card: m,
            storage_btree: false,
            cols: &[("K1", 2_000), ("P0", 100), ("P1", 10)],
        },
    ]
}

fn scan_join(seed: u64, size: Size) -> Inputs {
    let started = Instant::now();
    let specs = scan_tables(size);
    let mut b = Catalog::builder().site("site0");
    for t in &specs {
        let storage = if t.storage_btree {
            StorageKind::BTree {
                key: vec![ColId(0)],
            }
        } else {
            StorageKind::Heap
        };
        b = b
            .table(t.name, "site0", storage, t.card)
            .column("ID", DataType::Int, Some(t.card));
        for &(c, ndv) in t.cols {
            b = b.column(c, DataType::Int, Some(ndv));
        }
    }
    // An index on the fact table's join key makes index-probe nested-loop
    // joins (correlated inners, which vexec hands back to the serial
    // engine) the cheapest plan when the dimension side is selective.
    b = b.index("F_K1", "F", &["K1"], false, false);
    let catalog = Arc::new(b.build().expect("scan-join catalog"));
    let mut rng = Rng64::new(9);
    let mut dbb = DatabaseBuilder::new(catalog.clone());
    for (t, spec) in catalog.tables().iter().zip(&specs) {
        for id in 0..spec.card {
            let mut row = vec![Value::Int(id as i64)];
            row.extend(
                spec.cols
                    .iter()
                    .map(|&(_, ndv)| Value::Int(rng.below(ndv) as i64)),
            );
            dbb.insert_id(t.id, Tuple(row)).expect("scan-join row");
        }
    }
    let db = dbb.build().expect("scan-join database");
    let load_s = started.elapsed().as_secs_f64();

    let mut queries = Vec::new();
    let mut template_of = Vec::new();
    for t in 0..SCAN_TEMPLATES {
        for c in 0..SCAN_PARAMS as i64 {
            queries.push(scan_query(&catalog, t, c));
            template_of.push(t as u32);
        }
    }
    let mut rng = Rng64::new(seed);
    let len = match size {
        Size::Full => 1 << 14,
        Size::Tiny => 1 << 8,
    };
    // Each block of five requests holds every template once, in a seeded
    // order with seeded constants, so every seed serves the same mix.
    let mut stream = Vec::with_capacity(len);
    while stream.len() < len {
        let mut block: Vec<usize> = (0..SCAN_TEMPLATES).collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.index(i + 1));
        }
        stream.extend(
            block
                .into_iter()
                .map(|t| (t as u64 * SCAN_PARAMS + rng.below(SCAN_PARAMS)) as u32),
        );
    }
    stream.truncate(len);
    let warmup = (0..queries.len() as u32).collect();
    Inputs {
        catalog,
        db,
        load_s,
        queries,
        template_of,
        stream,
        warmup,
        settle: Vec::new(),
    }
}

const SCAN_TEMPLATES: usize = 5;

/// Template `t` with bound constant `c`:
/// 0. scan-probe: `F ⋈ D1` with two filters on the big probe side;
/// 1. scan-probe2: `F ⋈ D2` (B-tree dimension) with one filter;
/// 2. chain over the mid-size table: `M ⋈ D1 ⋈ D2`;
/// 3. star: `F` probing `D1` and `D2`, filtered on a dimension;
/// 4. chain over the fact table: `F ⋈ D1 ⋈ D2`, filtered on `F`.
fn scan_query(cat: &Catalog, t: usize, c: i64) -> Query {
    let tables: &[&str] = match t {
        0 => &["F", "D1"],
        1 => &["F", "D2"],
        2 => &["M", "D1", "D2"],
        _ => &["F", "D1", "D2"],
    };
    let mut b = QueryBuilder::new();
    for name in tables {
        b.quantifier(cat, name, name).expect("table exists");
    }
    let col = |b: &QueryBuilder, q: &str, c: &str| b.resolve(cat, q, c).expect("column");
    let s = |q: &str, c: &str| Scalar::Col(col(&b, q, c));
    let k = |v: i64| Scalar::Const(Value::Int(v));
    let eq = |x: Scalar, y: Scalar| PredExpr::Cmp(CmpOp::Eq, x, y);
    let preds = match t {
        0 => vec![
            eq(s("F", "K1"), s("D1", "ID")),
            eq(s("F", "P0"), k(c)),
            PredExpr::Cmp(CmpOp::Lt, s("F", "P1"), k(5)),
        ],
        1 => vec![eq(s("F", "K2"), s("D2", "ID")), eq(s("F", "P0"), k(c))],
        2 => vec![
            eq(s("M", "K1"), s("D1", "ID")),
            eq(s("D1", "FK"), s("D2", "ID")),
            eq(s("M", "P1"), k(c)),
        ],
        3 => vec![
            eq(s("F", "K1"), s("D1", "ID")),
            eq(s("F", "K2"), s("D2", "ID")),
            eq(s("D1", "P0"), k(c)),
        ],
        _ => vec![
            eq(s("F", "K1"), s("D1", "ID")),
            eq(s("D1", "FK"), s("D2", "ID")),
            eq(s("F", "P0"), k(c)),
        ],
    };
    let select = [
        col(&b, tables[0], "ID"),
        col(&b, tables[tables.len() - 1], "ID"),
    ];
    for p in preds {
        b.predicate(p).expect("predicate");
    }
    for c in select {
        b.select(c);
    }
    b.build().expect("scan-join query is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_query::canonicalize;

    fn fingerprints(inputs: &Inputs) -> Vec<u64> {
        inputs
            .stream
            .iter()
            .map(|&q| canonicalize(&inputs.queries[q as usize]).fingerprint.hash)
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_fingerprints() {
        for w in Workload::ALL {
            let a = Inputs::build(w, 11, Size::Tiny);
            let b = Inputs::build(w, 11, Size::Tiny);
            assert_eq!(a.stream, b.stream, "{}", w.name());
            assert_eq!(fingerprints(&a), fingerprints(&b), "{}", w.name());
            let c = Inputs::build(w, 12, Size::Tiny);
            assert_ne!(fingerprints(&a), fingerprints(&c), "{}", w.name());
        }
    }

    #[test]
    fn adhoc_stream_is_nearly_all_distinct_fingerprints() {
        let inputs = Inputs::build(Workload::AdhocCold, 3, Size::Tiny);
        let fps = fingerprints(&inputs);
        let distinct: std::collections::BTreeSet<_> = fps.iter().collect();
        let share = distinct.len() as f64 / fps.len() as f64;
        assert!(share >= 0.95, "distinct share {share}");
    }

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let cdf = zipf_cdf(10, 1.1);
        assert!((cdf[9] - 1.0).abs() < 1e-9);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!(cdf[0] > 0.2);
        assert_eq!(zipf_pick(&cdf, 0.0), 0);
        assert_eq!(zipf_pick(&cdf, 0.999_999), 9);
    }
}
