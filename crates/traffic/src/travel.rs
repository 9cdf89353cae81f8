//! From speed patterns to travel-time functions (§4.1).
//!
//! The paper derives, for a road segment of length `d` with speed `v₁`
//! during `[t₁, t₂)` and `v₂` afterwards, the two-piece travel-time
//! function of Equation (1). This module implements the general exact
//! conversion for *any* number of speed pieces:
//!
//! ```text
//! D(t)  = ∫_{w₀}^{t} v(τ) dτ          (cumulative distance, increasing)
//! A(l)  = D⁻¹(D(l) + d)               (arrival time at the segment head)
//! T(l)  = A(l) − l                    (travel time)
//! ```
//!
//! `T` is continuous piecewise-linear in the leaving time `l`, and the
//! paper's Equation (1) falls out as the two-speed special case (the
//! unit tests check this identity). Because every speed is positive,
//! `A` is strictly increasing — the FIFO property of the Flow Speed
//! Model — so the construction never fails on valid profiles.

use pwl::{Interval, Pwl};

use crate::{Result, SpeedProfile, TrafficError};

/// Exact travel-time function `T(l)` for traversing `distance` miles
/// starting at any `l ∈ leaving`, under `profile`.
///
/// The returned [`Pwl`] is continuous, defined exactly on `leaving`,
/// and simplified (no redundant breakpoints).
pub fn travel_time_fn(profile: &SpeedProfile, distance: f64, leaving: &Interval) -> Result<Pwl> {
    if !distance.is_finite() || distance <= 0.0 {
        return Err(TrafficError::BadDistance(distance));
    }
    // D must extend past the latest possible arrival:
    // T(l) ≤ distance / v_min for every l.
    let slack = distance / profile.min_speed() + 1.0;
    let window = Interval::of(leaving.lo(), leaving.hi() + slack);
    let dcum = profile.cumulative_distance(&window)?;

    if leaving.is_degenerate() {
        // Degenerate query interval: a single-instant leaving time.
        // Return a constant function on a hair-width interval so the
        // caller can still treat it uniformly.
        // Width chosen to clear `Interval::is_degenerate`'s scaled
        // tolerance at minutes-of-day magnitudes.
        let t = travel_time_at(profile, distance, leaving.lo())?;
        return Ok(Pwl::constant(
            Interval::of(leaving.lo(), leaving.lo() + 0.01),
            t,
        )?);
    }

    let dinv = dcum.inverse()?;
    let g = dcum.restrict(leaving)?.add_scalar(distance);
    let arrival = dinv.compose(&g)?;
    Ok(arrival.as_pwl().sub_identity().simplify())
}

/// Travel time for a single leaving instant, by direct integration —
/// no function construction; used by the discrete-time baseline and
/// the fixed-instant A\* special case.
pub fn travel_time_at(profile: &SpeedProfile, distance: f64, leave: f64) -> Result<f64> {
    if !distance.is_finite() || distance <= 0.0 {
        return Err(TrafficError::BadDistance(distance));
    }
    let mut remaining = distance;
    let mut t = leave;
    loop {
        let until = profile.next_change_after(t);
        // Sample the speed strictly inside (t, until): sampling at `t`
        // can land on the wrong side of a boundary when `t` itself was
        // reconstructed from a boundary with float rounding.
        let v = profile.speed_at(0.5 * (t + until));
        let reachable = v * (until - t);
        if reachable >= remaining {
            return Ok(t + remaining / v - leave);
        }
        remaining -= reachable;
        t = until;
    }
}

/// The paper's Equation (1): travel time over a segment of length `d`
/// with speed `v1` before `t2` and `v2` from `t2` on, for a leaving
/// time `l ≤ t2`:
///
/// ```text
/// T(l) = d/v1                                 if l < t2 − d/v1
/// T(l) = (1 − v1/v2)·(t2 − l) + d/v2          if t2 − d/v1 ≤ l ≤ t2
/// ```
///
/// Provided as an executable reference; the unit and property tests
/// assert [`travel_time_fn`] agrees with it on two-speed profiles.
pub fn eq1_two_speed(d: f64, v1: f64, v2: f64, t2: f64, l: f64) -> f64 {
    if l < t2 - d / v1 {
        d / v1
    } else {
        (1.0 - v1 / v2) * (t2 - l) + d / v2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwl::time::hm;
    use pwl::{approx_eq, MonotonePwl};

    /// The paper's s → n segment: 2 miles, 1/3 mpm before 7:00, 1 mpm
    /// after (reconstructed from the §4.3 function values).
    fn paper_s_to_n() -> SpeedProfile {
        SpeedProfile::from_pairs(&[(0.0, 1.0 / 3.0), (hm(7, 0), 1.0)]).unwrap()
    }

    /// The paper's n → e segment: 3 miles, 1 mpm before 7:08, 0.3 mpm
    /// after (reconstructed from the §4.4 function values).
    fn paper_n_to_e() -> SpeedProfile {
        SpeedProfile::from_pairs(&[(0.0, 1.0), (hm(7, 8), 0.3)]).unwrap()
    }

    #[test]
    fn reproduces_paper_s_to_n_function() {
        // Paper §4.3: T(l ∈ [6:50, 7:05], s→n) =
        //   6                        on [6:50, 6:54)
        //   (2/3)(7:00 − l) + 2      on [6:54, 7:00)
        //   2                        on [7:00, 7:05]
        let t = travel_time_fn(&paper_s_to_n(), 2.0, &Interval::of(hm(6, 50), hm(7, 5))).unwrap();
        assert!(approx_eq(t.eval(hm(6, 50)), 6.0));
        assert!(approx_eq(t.eval(hm(6, 53)), 6.0));
        assert!(approx_eq(t.eval(hm(6, 54)), 6.0));
        assert!(approx_eq(t.eval(hm(6, 57)), (2.0 / 3.0) * 3.0 + 2.0));
        assert!(approx_eq(t.eval(hm(7, 0)), 2.0));
        assert!(approx_eq(t.eval(hm(7, 5)), 2.0));
        let bps = t.breakpoints();
        assert_eq!(bps.len(), 4, "{bps:?}");
        assert!(approx_eq(bps[1], hm(6, 54)));
        assert!(approx_eq(bps[2], hm(7, 0)));
    }

    #[test]
    fn reproduces_paper_n_to_e_function() {
        // Paper §4.4: T(l ∈ [6:56, 7:07], n→e) =
        //   3                          on [6:56, 7:05)
        //   10 − (7/3)(7:08 − l)       on [7:05, 7:07]
        let t = travel_time_fn(&paper_n_to_e(), 3.0, &Interval::of(hm(6, 56), hm(7, 7))).unwrap();
        assert!(approx_eq(t.eval(hm(6, 56)), 3.0));
        assert!(approx_eq(t.eval(hm(7, 5)), 3.0));
        assert!(approx_eq(t.eval(hm(7, 6)), 10.0 - (7.0 / 3.0) * 2.0));
        assert!(approx_eq(t.eval(hm(7, 7)), 10.0 - (7.0 / 3.0) * 1.0));
        assert_eq!(t.breakpoints().len(), 3);
        assert!(approx_eq(t.breakpoints()[1], hm(7, 5)));
    }

    #[test]
    fn agrees_with_equation_1() {
        // two-speed profile: v1 = 0.8 until t2 = 480, v2 = 0.25 after
        let (d, v1, v2, t2) = (4.0, 0.8, 0.25, hm(8, 0));
        let profile = SpeedProfile::from_pairs(&[(0.0, v1), (t2, v2)]).unwrap();
        let leaving = Interval::of(hm(6, 0), t2);
        let t = travel_time_fn(&profile, d, &leaving).unwrap();
        for k in 0..=100 {
            let l = leaving.lo() + leaving.len() * (k as f64) / 100.0;
            let want = eq1_two_speed(d, v1, v2, t2, l);
            assert!(approx_eq(t.eval(l), want), "l={l}: {} vs {want}", t.eval(l));
        }
    }

    #[test]
    fn matches_direct_integration() {
        let profile =
            SpeedProfile::from_pairs(&[(0.0, 0.9), (hm(7, 0), 0.3), (hm(9, 30), 0.7)]).unwrap();
        let leaving = Interval::of(hm(5, 0), hm(11, 0));
        let t = travel_time_fn(&profile, 6.5, &leaving).unwrap();
        for k in 0..=240 {
            let l = leaving.lo() + leaving.len() * (k as f64) / 240.0;
            let want = travel_time_at(&profile, 6.5, l).unwrap();
            assert!(approx_eq(t.eval(l), want), "l={l}: {} vs {want}", t.eval(l));
        }
    }

    #[test]
    fn constant_profile_gives_constant_time() {
        let profile = SpeedProfile::constant(0.5).unwrap();
        let t = travel_time_fn(&profile, 3.0, &Interval::of(0.0, 100.0)).unwrap();
        assert_eq!(t.n_pieces(), 1);
        assert!(approx_eq(t.eval(0.0), 6.0));
        assert!(approx_eq(t.eval(100.0), 6.0));
    }

    #[test]
    fn crossing_midnight_works() {
        let profile = SpeedProfile::with_rush_window(1.0, 0.5, hm(7, 0), hm(9, 0)).unwrap();
        let leaving = Interval::of(hm(23, 30), hm(24, 0) + hm(0, 30));
        let t = travel_time_fn(&profile, 45.0, &leaving).unwrap();
        // overnight there is no rush window before arrival: constant 45 min
        assert!(approx_eq(t.eval(hm(23, 30)), 45.0));
        assert!(approx_eq(t.eval(hm(24, 0) + hm(0, 15)), 45.0));
        // and the single-instant variant agrees
        assert!(approx_eq(
            travel_time_at(&profile, 45.0, hm(23, 45)).unwrap(),
            45.0
        ));
    }

    #[test]
    fn travel_time_at_spans_multiple_pieces() {
        // 1 mpm for 10 min (10 mi), then 0.1 mpm: 15 miles from 6:50,
        // window 7:00; 10 miles by 7:00, remaining 5 at 0.1 = 50 min.
        let profile = SpeedProfile::from_pairs(&[(0.0, 1.0), (hm(7, 0), 0.1)]).unwrap();
        let t = travel_time_at(&profile, 15.0, hm(6, 50)).unwrap();
        assert!(approx_eq(t, 60.0));
    }

    #[test]
    fn fifo_holds_for_generated_functions() {
        let profile =
            SpeedProfile::from_pairs(&[(0.0, 0.9), (hm(7, 0), 0.2), (hm(10, 0), 1.1)]).unwrap();
        let t = travel_time_fn(&profile, 8.0, &Interval::of(hm(4, 0), hm(12, 0))).unwrap();
        assert!(MonotonePwl::arrival_from_travel(&t).is_ok());
    }

    #[test]
    fn regression_float_boundary_never_loops() {
        // Found by property testing: a leaving time whose float
        // representation lands an ulp past a piece boundary used to make
        // `next_change_after` return a non-advancing instant, spinning
        // `travel_time_at` forever.
        let profile = SpeedProfile::from_pairs(&[
            (0.0, 1.0113780279312112),
            (37.98957755773383, 0.3945897943346046),
            (372.3803880380186, 0.2363979845192748),
        ])
        .unwrap();
        let l = 1470.4394593605966;
        let d = 7.718477952434894;
        let direct = travel_time_at(&profile, d, l).unwrap();
        let f = travel_time_fn(
            &profile,
            d,
            &Interval::of(1273.932250613864, 1535.941862276174),
        )
        .unwrap();
        assert!(approx_eq(f.eval(l), direct));
        // and exactly at the reconstructed boundary instant
        let boundary = 1440.0 + 37.98957755773383;
        let at_boundary = travel_time_at(&profile, d, boundary).unwrap();
        assert!(at_boundary > 0.0);
    }

    #[test]
    fn bad_distance_rejected() {
        let p = SpeedProfile::constant(1.0).unwrap();
        assert!(travel_time_fn(&p, 0.0, &Interval::of(0.0, 10.0)).is_err());
        assert!(travel_time_fn(&p, -1.0, &Interval::of(0.0, 10.0)).is_err());
        assert!(travel_time_at(&p, f64::NAN, 0.0).is_err());
    }

    #[test]
    fn degenerate_interval_gives_constant() {
        let p = SpeedProfile::constant(0.5).unwrap();
        let t = travel_time_fn(&p, 2.0, &Interval::of(100.0, 100.0)).unwrap();
        assert!(approx_eq(t.eval(100.0), 4.0));
    }
}
