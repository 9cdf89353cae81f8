//! The paper's §4.3 running example, reconstructed exactly.
//!
//! Figure 2's three-node network: source `s`, intermediate `n`, end
//! `e`, with the leaving interval `I = [6:50, 7:05]`. The edge speeds
//! are reverse-engineered from the travel-time functions printed in
//! §4.3–§4.4 (the unit tests of `fp-traffic` verify the match):
//!
//! * `s → e`: 6 miles at a constant 1 mpm (so `T ≡ 6 min`);
//! * `s → n`: 2 miles at 1/3 mpm before 7:00 and 1 mpm after
//!   (`T = 6` then ramps down to `2`);
//! * `n → e`: 3 miles at 1 mpm before 7:08 and 0.3 mpm after
//!   (`T = 3` then ramps up).
//!
//! Locations are chosen so `d_euc(n, e) = 1` mile, giving the naive
//! estimate `T_est(n ⇒ e) = 1 min` used in Figure 3, and so that every
//! edge length dominates its Euclidean distance.

use traffic::{CapeCodPattern, RoadClass, SpeedProfile};

use crate::{NodeId, RoadNetwork};

/// Node ids of the running example, in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperExampleIds {
    /// The source node `s`.
    pub s: NodeId,
    /// The intermediate node `n`.
    pub n: NodeId,
    /// The end node `e`.
    pub e: NodeId,
}

/// Build the §4.3 running example network.
///
/// The workday category carries the example's time-varying speeds;
/// the non-workday category is constant 1 mpm everywhere.
// A constant fixture: every speed, coordinate and edge below is a valid
// literal, so no `expect` can fire (the paper-example tests build it).
#[allow(clippy::expect_used)]
pub fn paper_running_example() -> (RoadNetwork, PaperExampleIds) {
    let mut net = RoadNetwork::empty();

    let hm = pwl::time::hm;
    // Category 0 (workday) carries the example's time-varying speeds;
    // category 1 (non-workday) is constant at the base speed, like the
    // §2.1 example pattern.
    let with_flat_nonworkday = |workday: SpeedProfile| {
        let flat = SpeedProfile::constant(1.0).expect("valid");
        CapeCodPattern::new(vec![workday, flat]).expect("two profiles")
    };

    // s → e: constant 1 mpm.
    let pat_se = net.add_pattern(with_flat_nonworkday(
        SpeedProfile::constant(1.0).expect("valid"),
    ));
    // s → n: 1/3 mpm before 7:00, 1 mpm after.
    let pat_sn = net.add_pattern(with_flat_nonworkday(
        SpeedProfile::from_pairs(&[(0.0, 1.0 / 3.0), (hm(7, 0), 1.0)]).expect("valid"),
    ));
    // n → e: 1 mpm before 7:08, 0.3 mpm after.
    let pat_ne = net.add_pattern(with_flat_nonworkday(
        SpeedProfile::from_pairs(&[(0.0, 1.0), (hm(7, 8), 0.3)]).expect("valid"),
    ));

    // Locations: d_euc(n, e) = 1 (Figure 3's estimate), all edge
    // lengths ≥ euclidean.
    let s = net.add_node(0.0, 0.0).expect("finite");
    let n = net.add_node(0.8, 0.6).expect("finite"); // 1.0 mi from s
    let e = net.add_node(1.8, 0.6).expect("finite"); // 1.0 mi from n, ~1.9 from s

    net.add_edge(s, e, 6.0, RoadClass::LocalOutside, pat_se)
        .expect("valid edge");
    net.add_edge(s, n, 2.0, RoadClass::LocalOutside, pat_sn)
        .expect("valid edge");
    net.add_edge(n, e, 3.0, RoadClass::LocalOutside, pat_ne)
        .expect("valid edge");

    (net, PaperExampleIds { s, n, e })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::time::hm;
    use pwl::{approx_eq, Interval};
    use traffic::{travel::travel_time_fn, DayCategory};

    #[test]
    fn geometry_matches_figure_3() {
        let (net, ids) = paper_running_example();
        assert_eq!(net.n_nodes(), 3);
        assert_eq!(net.n_edges(), 3);
        // d_euc(n, e) = 1 mile, v_max = 1 mpm → naive estimate 1 min.
        assert!(approx_eq(net.euclidean(ids.n, ids.e).unwrap(), 1.0));
        assert!(approx_eq(net.max_speed(), 1.0));
    }

    #[test]
    fn edge_functions_match_section_4_3() {
        let (net, ids) = paper_running_example();
        let i = Interval::of(hm(6, 50), hm(7, 5));
        let cat = DayCategory::WORKDAY;

        let se = &net.neighbors(ids.s).unwrap()[0];
        assert_eq!(se.to, ids.e);
        let t_se = travel_time_fn(net.profile(se, cat).unwrap(), se.distance, &i).unwrap();
        assert!(approx_eq(t_se.eval(hm(6, 50)), 6.0));
        assert!(approx_eq(t_se.eval(hm(7, 5)), 6.0));

        let sn = &net.neighbors(ids.s).unwrap()[1];
        assert_eq!(sn.to, ids.n);
        let t_sn = travel_time_fn(net.profile(sn, cat).unwrap(), sn.distance, &i).unwrap();
        assert!(approx_eq(t_sn.eval(hm(6, 50)), 6.0));
        assert!(approx_eq(t_sn.eval(hm(6, 54)), 6.0));
        assert!(approx_eq(t_sn.eval(hm(7, 0)), 2.0));
        assert!(approx_eq(t_sn.eval(hm(7, 5)), 2.0));
    }
}
