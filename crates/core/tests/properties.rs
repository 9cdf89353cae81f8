//! Property tests for the query engine: on random networks and random
//! query windows, the interval engine must agree with the
//! fixed-instant oracle at every probed instant, forwards and
//! backwards.

use allfp::arrival::{ArrivalPlanner, ArrivalQuerySpec};
use allfp::baseline::astar_at;
use allfp::{Engine, EngineConfig, NaiveLb, PathfindBackend, QuerySpec};
use proptest::prelude::*;
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::random_geometric;
use roadnet::NodeId;
use traffic::DayCategory;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn all_fp_agrees_with_oracle(
        seed in 0u64..1_000,
        src in 0u32..40,
        dst in 0u32..40,
        lo_frac in 0.0f64..0.8,
        len in 20.0f64..150.0,
    ) {
        prop_assume!(src != dst);
        let net = random_geometric(40, 2.5, 3, seed).unwrap();
        // a window overlapping the morning rush so speeds vary
        let lo = hm(6, 0) + lo_frac * 240.0;
        let interval = Interval::of(lo, lo + len);
        let q = QuerySpec::new(NodeId(src), NodeId(dst), interval, DayCategory::WORKDAY);
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let ans = engine.all_fastest_paths(&q).unwrap(); // generator connects everything
        let lb = NaiveLb::new(net.max_speed());
        for k in 0..=12 {
            let l = interval.lo() + interval.len() * (k as f64) / 12.0;
            let oracle = astar_at(&net, q.source, q.target, l, q.category, &lb)
                .unwrap()
                .travel_minutes;
            let border = ans.travel_at(l).unwrap();
            prop_assert!(
                (border - oracle).abs() <= 1e-6 * (1.0 + oracle),
                "l={l}: border {border} vs oracle {oracle}"
            );
        }
        // partition structure
        prop_assert!(pwl::approx_eq(ans.partition[0].0.lo(), interval.lo()));
        prop_assert!(pwl::approx_eq(ans.partition.last().unwrap().0.hi(), interval.hi()));
        for w in ans.partition.windows(2) {
            prop_assert!(pwl::approx_eq(w[0].0.hi(), w[1].0.lo()));
            prop_assert_ne!(w[0].1, w[1].1);
        }
    }

    #[test]
    fn basic_mode_matches_pruned_mode(
        seed in 0u64..500,
        src in 0u32..25,
        dst in 0u32..25,
    ) {
        prop_assume!(src != dst);
        let net = random_geometric(25, 1.8, 3, seed).unwrap();
        let interval = Interval::of(hm(7, 0), hm(8, 0));
        let q = QuerySpec::new(NodeId(src), NodeId(dst), interval, DayCategory::WORKDAY);
        let pruned = Engine::new(&net, EngineConfig::default()).unwrap();
        let basic = Engine::new(
            &net,
            EngineConfig { prune_dominated: false, ..EngineConfig::default() },
        ).unwrap();
        let a = pruned.all_fastest_paths(&q).unwrap();
        let b = basic.all_fastest_paths(&q).unwrap();
        prop_assert_eq!(a.partition.len(), b.partition.len());
        for (x, y) in a.partition.iter().zip(b.partition.iter()) {
            prop_assert!(x.0.approx_eq(&y.0), "{} vs {}", x.0, y.0);
            prop_assert_eq!(&a.paths[x.1].nodes, &b.paths[y.1].nodes);
        }
    }

    #[test]
    fn arrival_is_inverse_of_forward(
        seed in 0u64..500,
        src in 0u32..30,
        dst in 0u32..30,
    ) {
        prop_assume!(src != dst);
        let net = random_geometric(30, 2.0, 3, seed).unwrap();
        // forward over a wide window; compare departures via the inverse
        let fwd_window = Interval::of(hm(6, 0), hm(9, 0));
        let q = QuerySpec::new(NodeId(src), NodeId(dst), fwd_window, DayCategory::WORKDAY);
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();
        let fwd = engine.all_fastest_paths(&q).unwrap();
        let a_star =
            pwl::MonotonePwl::arrival_from_travel(fwd.lower_border.as_pwl()).unwrap();

        let planner = ArrivalPlanner::new(&net, EngineConfig::default()).unwrap();
        let arr_window = Interval::of(hm(7, 0), hm(8, 30));
        let arr = planner
            .all_fastest_paths(&ArrivalQuerySpec {
                source: NodeId(src),
                target: NodeId(dst),
                arrival: arr_window,
                category: DayCategory::WORKDAY,
            })
            .unwrap();

        let reach = a_star.range();
        for k in 0..=10 {
            let a = arr_window.lo() + arr_window.len() * (k as f64) / 10.0;
            // only arrivals strictly inside what forward-window
            // departures can realize are comparable
            if !reach.contains_approx(a)
                || pwl::approx_eq(a, reach.lo())
                || pwl::approx_eq(a, reach.hi())
            {
                continue;
            }
            let dep_bwd = arr.departure_at(a).unwrap();
            let dep_fwd = a_star.inverse_at(a).unwrap();
            prop_assert!(
                (dep_bwd - dep_fwd).abs() < 1e-6,
                "a={a}: backward {dep_bwd} vs forward-inverse {dep_fwd}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The constant-speed degraded fallback is a *sound upper bound*:
    /// at every leaving instant in the window, the fallback path's
    /// exact travel time is at least the true fastest travel time.
    /// This is what makes degraded answers safe to serve — they may be
    /// slower than optimal, never optimistic.
    #[test]
    fn degraded_fallback_upper_bounds_exact_border(
        seed in 0u64..400,
        src in 0u32..30,
        dst in 0u32..30,
        lo_frac in 0.0f64..0.8,
        len in 20.0f64..120.0,
    ) {
        prop_assume!(src != dst);
        let net = random_geometric(30, 2.0, 3, seed).unwrap();
        let lo = hm(6, 0) + lo_frac * 240.0;
        let interval = Interval::of(lo, lo + len);
        let q = QuerySpec::new(NodeId(src), NodeId(dst), interval, DayCategory::WORKDAY);
        let engine = Engine::new(&net, EngineConfig::default()).unwrap();

        let exact = engine.all_fastest_paths(&q).unwrap();
        // A zero-expansion budget forces the constant-speed fallback
        // immediately — the same route the service's breaker serves
        // while storage is unhealthy.
        let starved = q.clone().with_budget(
            allfp::QueryBudget::unlimited().with_max_expansions(0),
        );
        let degraded = match engine.run_robust(&starved).unwrap() {
            allfp::QueryOutcome::Degraded(d) => d,
            allfp::QueryOutcome::Exact(_) => {
                return Err(TestCaseError::fail("zero budget cannot finish exactly"));
            }
        };
        prop_assert_eq!(degraded.fallback.nodes.first(), Some(&q.source));
        prop_assert_eq!(degraded.fallback.nodes.last(), Some(&q.target));

        for k in 0..=16 {
            let l = interval.lo() + interval.len() * (k as f64) / 16.0;
            let best = exact.travel_at(l).unwrap();
            let fb = degraded.fallback.travel.eval_clamped(l);
            prop_assert!(
                fb >= best - 1e-6 * (1.0 + best),
                "l={l}: fallback {fb} beats the exact border {best}"
            );
        }
        // And the advertised minimum matches its own function.
        let mins = (0..=64)
            .map(|k| {
                let l = interval.lo() + interval.len() * (k as f64) / 64.0;
                degraded.fallback.travel.eval_clamped(l)
            })
            .fold(f64::INFINITY, f64::min);
        prop_assert!(degraded.fallback_travel_minutes <= mins + 1e-9);
    }
}
