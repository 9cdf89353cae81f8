//! Shared-storage equivalence: the answer's lower border is assembled
//! by merging the answer paths' `Arc<Pwl>` travel functions (refcount
//! bumps, no deep copies). These tests pin the contract that makes the
//! sharing safe: rebuilding the border from *deep clones* of those
//! functions — fresh allocations, a cold scratch, the unpooled
//! `merge_min` — must reproduce the engine's border **bit for bit**
//! (same breakpoints, same coefficients, same tags). Travel functions
//! are immutable once built, so storage (owned vs shared) can never be
//! observable; this is the executable form of that argument.

use allfp::{AllFpAnswer, Engine, EngineConfig, QuerySpec};
use pwl::time::hm;
use pwl::{Envelope, Interval, Pwl};
use roadnet::generators::{grid, random_geometric};
use roadnet::{NodeId, RoadNetwork};
use traffic::{DayCategory, RoadClass};

/// Rebuild the answer's lower border from deep clones of the answer
/// paths' travel functions, merged in identification order — the same
/// order `assemble_answer` uses, but with every function value-cloned
/// out of its `Arc` first.
fn rebuild_border_deep(answer: &AllFpAnswer) -> Envelope<usize> {
    let deep: Vec<Pwl> = answer.paths.iter().map(|p| (*p.travel).clone()).collect();
    let mut border: Option<Envelope<usize>> = None;
    for (i, f) in deep.into_iter().enumerate() {
        match &mut border {
            None => border = Some(Envelope::new(f, i)),
            Some(b) => b.merge_min(&f, i).expect("deep-clone merge"),
        }
    }
    border.expect("answer has at least one path")
}

fn assert_border_bit_identical(net: &RoadNetwork, q: &QuerySpec) {
    let engine = Engine::new(net, EngineConfig::default()).unwrap();
    let answer = engine.all_fastest_paths(q).expect("allFP answer");
    let rebuilt = rebuild_border_deep(&answer);

    let shared = answer.lower_border.as_pwl();
    let deep = rebuilt.as_pwl();
    assert_eq!(shared.breakpoints(), deep.breakpoints(), "border knots");
    assert_eq!(shared.linears(), deep.linears(), "border coefficients");
    assert_eq!(
        answer.lower_border.partition(),
        rebuilt.partition(),
        "border tags"
    );
}

#[test]
fn geometric_morning_rush_border_survives_deep_clone() {
    // Fig. 9-style workload: random geometric networks, morning-rush
    // window, a spread of source/target pairs.
    for seed in [0u64, 1, 7, 42] {
        let net = random_geometric(40, 2.0, 3, seed).unwrap();
        for (src, dst) in [(0u32, 39u32), (3, 29), (11, 5)] {
            let q = QuerySpec::new(
                NodeId(src),
                NodeId(dst),
                Interval::of(hm(6, 30), hm(9, 0)),
                DayCategory::WORKDAY,
            );
            assert_border_bit_identical(&net, &q);
        }
    }
}

#[test]
fn grid_border_survives_deep_clone() {
    // Grids force ties (equal-length L-routes), so the border merge's
    // tie-breaking is exercised; sharing must not perturb it.
    let net = grid(5, 4, 0.8, RoadClass::LocalOutside).unwrap();
    let q = QuerySpec::new(
        NodeId(0),
        NodeId(19),
        Interval::of(hm(6, 45), hm(8, 30)),
        DayCategory::WORKDAY,
    );
    assert_border_bit_identical(&net, &q);
}
