//! Cross-crate serving-layer tests: cache contention (exactly one cold
//! optimization per distinct fingerprint, however many threads race) and
//! catalog-epoch invalidation (stats refreshes and index DDL visibly
//! change what a re-optimization produces).

use std::sync::Arc;

use starqo_serve::{Service, ServiceConfig};
use starqo_trace::{MemorySink, TraceEvent, Tracer};
use starqo_workload::{query_shape_param, synth_catalog, QueryShape, Rng64, SynthSpec};

fn small_catalog(seed: u64) -> Arc<starqo_catalog::Catalog> {
    synth_catalog(
        seed,
        &SynthSpec {
            tables: 4,
            card_range: (50, 200),
            sites: 1,
            index_prob: 0.0,
            btree_prob: 0.0,
            payload_cols: 2,
        },
    )
}

/// 8 threads x 32 requests over 3 templates (fresh constants every time):
/// the single-flight cache must run exactly one cold optimization per
/// distinct fingerprint, counted both by the service counter and by the
/// `cache_miss` events in the trace.
#[test]
fn contention_one_cold_optimization_per_fingerprint() {
    let cat = small_catalog(11);
    let sink = Arc::new(MemorySink::new());
    let svc = Arc::new(
        Service::new(Arc::clone(&cat), ServiceConfig::default())
            .expect("service")
            .with_tracer(Tracer::shared(sink.clone())),
    );
    let templates = [
        (QueryShape::Chain, 2),
        (QueryShape::Chain, 3),
        (QueryShape::Star, 3),
    ];

    std::thread::scope(|scope| {
        for tid in 0..8u64 {
            let svc = Arc::clone(&svc);
            let cat = Arc::clone(&cat);
            scope.spawn(move || {
                let mut rng = Rng64::new(0xBEEF ^ tid);
                for i in 0..32usize {
                    let (shape, n) = templates[i % templates.len()];
                    let query = query_shape_param(&cat, shape, n, Some(rng.below(64) as i64));
                    let out = svc.optimize(&query).expect("optimize");
                    assert_eq!(out.epoch, 0);
                }
            });
        }
    });

    let snap = svc.counters();
    assert_eq!(snap.requests, 8 * 32);
    assert_eq!(
        snap.misses,
        templates.len() as u64,
        "exactly one cold optimization per distinct fingerprint: {snap:?}"
    );
    assert_eq!(snap.hits + snap.coalesced + snap.misses, snap.requests);
    assert_eq!(snap.evictions, 0);
    assert!(snap.hit_ratio() > 0.9);
    assert_eq!(svc.cache_len(), templates.len());

    let events = sink.events();
    let miss_events = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::CacheMiss { .. }))
        .count() as u64;
    let hit_events = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::CacheHit { .. }))
        .count() as u64;
    assert_eq!(miss_events, snap.misses);
    assert_eq!(hit_events, snap.hits + snap.coalesced);
}

/// A stats refresh bumps the catalog epoch: the cached plan is invalidated
/// on contact and the re-optimization sees the new table cardinality.
#[test]
fn stats_epoch_bump_reoptimizes_with_new_cardinality() {
    let cat = small_catalog(23);
    let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).expect("service");
    let query = query_shape_param(&cat, QueryShape::Chain, 2, Some(3));

    let o1 = svc.optimize(&query).expect("cold");
    assert!(!o1.cache_hit && o1.epoch == 0);
    assert!(svc.optimize(&query).expect("warm").cache_hit);

    // 100x the cardinality of every joined table.
    for t in ["T0", "T1"] {
        let card = cat.table_by_name(t).expect("table").card;
        svc.shared_catalog()
            .set_table_card(t, card * 100)
            .expect("stats update");
    }
    let o2 = svc.optimize(&query).expect("re-optimize");
    assert_eq!(o2.epoch, 2, "two stats updates bump the epoch twice");
    assert!(!o2.cache_hit, "stale plan must not be served");
    assert!(
        o2.optimized.best.props.card > o1.optimized.best.props.card,
        "re-optimization must see the new statistics ({} vs {})",
        o2.optimized.best.props.card,
        o1.optimized.best.props.card
    );
    let snap = svc.counters();
    assert_eq!(snap.invalidations, 1);
    assert_eq!(snap.misses, 2);

    // The plan re-caches under the new epoch.
    assert!(svc.optimize(&query).expect("warm again").cache_hit);
}

/// Index DDL bumps the epoch too: after CREATE INDEX the re-optimization
/// runs against the new snapshot, where the rules see the new access path.
#[test]
fn index_ddl_invalidates_and_reoptimizes() {
    let cat = small_catalog(37);
    assert!(cat.indexes().is_empty(), "spec disables indexes");
    let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).expect("service");
    let query = query_shape_param(&cat, QueryShape::Chain, 2, None);

    let o1 = svc.optimize(&query).expect("cold");
    assert!(svc.optimize(&query).expect("warm").cache_hit);

    let epoch = svc
        .shared_catalog()
        .create_index("T1_ID", "T1", &["ID"], true, false)
        .expect("create index");
    assert_eq!(epoch, 1);
    let (snapshot, _) = svc.shared_catalog().snapshot();
    assert_eq!(snapshot.indexes().len(), 1);

    let o2 = svc.optimize(&query).expect("re-optimize");
    assert!(!o2.cache_hit, "DDL must invalidate the cached plan");
    assert_eq!(o2.epoch, 1);
    assert!(
        o2.optimized.best.props.cost.total() <= o1.optimized.best.props.cost.total(),
        "a new unique index can only help this join ({} vs {})",
        o2.optimized.best.props.cost.total(),
        o1.optimized.best.props.cost.total()
    );
    assert_eq!(svc.counters().invalidations, 1);

    // Dropping the index invalidates again.
    svc.shared_catalog().drop_index("T1_ID").expect("drop");
    let o3 = svc.optimize(&query).expect("re-optimize after drop");
    assert!(!o3.cache_hit);
    assert_eq!(o3.epoch, 2);
}
