//! Rebinding a compiled rule repertoire to another catalog snapshot
//! (`Optimizer::with_catalog`) must plan exactly like compiling the rules
//! afresh against that snapshot: rules never read the catalog, so the only
//! difference may be the compile work saved. The serving layer relies on
//! this to compile its rules once per service instead of once per catalog
//! epoch and once per heal re-optimization.

use std::sync::Arc;

use starqo_core::{OptConfig, Optimized, Optimizer};
use starqo_serve::{Service, ServiceConfig};
use starqo_workload::{query_shape, query_shape_param, synth_catalog, QueryShape, SynthSpec};

/// The `compile` phase an optimization reports: the accumulated rule-compile
/// time of the repertoire that planned it. Two optimizations report the same
/// nanos only if they share one compiled repertoire; a recompile is timed
/// afresh.
fn compile_nanos(o: &Optimized) -> u64 {
    o.metrics
        .phase_nanos()
        .iter()
        .find(|(name, _)| name == "compile")
        .map(|(_, nanos)| *nanos)
        .expect("compile phase")
}

fn assert_same_plan(fresh: &Optimized, rebound: &Optimized, what: &str) {
    assert_eq!(
        fresh.best.fingerprint(),
        rebound.best.fingerprint(),
        "{what}: best plan"
    );
    assert_eq!(
        fresh.best.props.cost.total().to_bits(),
        rebound.best.props.cost.total().to_bits(),
        "{what}: best cost"
    );
    assert_eq!(fresh.stats, rebound.stats, "{what}: engine work");
    assert_eq!(fresh.provenance, rebound.provenance, "{what}: provenance");
    assert_eq!(
        fresh.origin_trace(&fresh.best),
        rebound.origin_trace(&rebound.best),
        "{what}: origin trace"
    );
}

#[test]
fn rebound_optimizer_plans_like_a_freshly_compiled_one() {
    let spec = SynthSpec {
        tables: 6,
        ..Default::default()
    };
    let cat = synth_catalog(11, &spec);
    // A different catalog (other cardinalities, indexes, storage): the
    // repertoire is compiled against it and then rebound.
    let other = synth_catalog(
        12,
        &SynthSpec {
            tables: 3,
            card_range: (10, 20),
            ..Default::default()
        },
    );
    let fresh = Optimizer::new(Arc::clone(&cat)).expect("rules");
    let compiled_elsewhere = Optimizer::new(other).expect("rules");
    let rebound = compiled_elsewhere.with_catalog(Arc::clone(&cat));
    assert!(std::ptr::eq(rebound.rules(), compiled_elsewhere.rules()));
    assert!(Arc::ptr_eq(rebound.catalog(), &cat));

    for config in [OptConfig::default(), OptConfig::full()] {
        for shape in [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle] {
            for n in 2..=6 {
                if shape == QueryShape::Cycle && n < 3 {
                    continue;
                }
                let query = query_shape(&cat, shape, n, true);
                let a = fresh.optimize(&query, &config).expect("fresh");
                let b = rebound.optimize(&query, &config).expect("rebound");
                assert_same_plan(&a, &b, &format!("{shape:?} n={n}"));
            }
        }
    }
}

/// Loading rules into a rebound optimizer copies the repertoire first, so
/// the optimizer it was rebound from is unaffected.
#[test]
fn loading_rules_after_rebinding_leaves_the_original_alone() {
    let cat = synth_catalog(3, &SynthSpec::default());
    let base = Optimizer::new(Arc::clone(&cat)).expect("rules");
    let stars = base.rules().len();
    let mut extended = base.with_catalog(Arc::clone(&cat));
    extended
        .load_rules("star Extra(T, C, P) = [ AccessRoot(T, C, P); ]")
        .expect("extra rule");
    assert!(!std::ptr::eq(extended.rules(), base.rules()));
    assert_eq!(base.rules().len(), stars);
    assert_eq!(extended.rules().len(), stars + 1);
}

/// A stats refresh bumps the epoch; the service then plans against the new
/// snapshot exactly as a freshly compiled optimizer would, without
/// recompiling its rules.
#[test]
fn epoch_bump_rebinds_instead_of_recompiling() {
    let cat = synth_catalog(23, &SynthSpec::default());
    let svc = Service::new(Arc::clone(&cat), ServiceConfig::default()).expect("service");
    let query = query_shape_param(&cat, QueryShape::Chain, 3, Some(1));
    let o1 = svc.optimize(&query).expect("cold");
    assert_eq!(o1.epoch, 0);

    let card = cat.table_by_name("T1").expect("table").card;
    let epoch = svc
        .shared_catalog()
        .set_table_card("T1", card * 50)
        .expect("stats update");
    let o2 = svc.optimize(&query).expect("re-optimize");
    assert_eq!(o2.epoch, epoch);
    assert!(!o2.cache_hit);

    assert!(compile_nanos(&o1.optimized) > 0);
    assert_eq!(
        compile_nanos(&o1.optimized),
        compile_nanos(&o2.optimized),
        "an epoch bump must rebind the compiled rules, not recompile them"
    );

    let (snapshot, _) = svc.shared_catalog().snapshot();

    let prepared = svc.prepare(&query);
    let fresh = Optimizer::new(snapshot)
        .expect("rules")
        .optimize(prepared.query(), &svc.config().opt_config)
        .expect("fresh");
    assert_same_plan(&fresh, &o2.optimized, "served after epoch bump");
}
