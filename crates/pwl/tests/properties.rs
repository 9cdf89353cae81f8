//! Property-based tests for the piecewise-linear algebra.
//!
//! Random continuous functions are generated from sorted breakpoints
//! with bounded values; every algebraic operation is checked against
//! its pointwise definition on a dense sample grid.

use std::cell::RefCell;

use proptest::prelude::*;
use pwl::compose::Arrivals;
use pwl::{
    approx_eq, approx_le, compose_travel, compose_travel_into, compose_travel_window_into,
    definitely_lt, Envelope, Interval, MonotonePwl, PackedPwl, Pwl, PwlScratch, EPS,
};

/// Generate a continuous piecewise-linear function on a random domain:
/// 2..=8 points, x-gaps in [0.5, 10], values in [0, 50].
fn arb_pwl() -> impl Strategy<Value = Pwl> {
    (
        0.0f64..100.0,
        prop::collection::vec((0.5f64..10.0, 0.0f64..50.0), 1..8),
        0.0f64..50.0,
    )
        .prop_map(|(x0, steps, y0)| {
            let mut pts = vec![(x0, y0)];
            let mut x = x0;
            for (dx, y) in steps {
                x += dx;
                pts.push((x, y));
            }
            Pwl::from_points(&pts).expect("generated points are valid")
        })
}

/// Generate a FIFO-safe travel-time function (arrival slope > 0):
/// build a strictly increasing arrival function, subtract the identity.
fn arb_travel(x0: f64) -> impl Strategy<Value = Pwl> {
    prop::collection::vec((0.5f64..10.0, 0.05f64..3.0), 1..8).prop_map(move |steps| {
        // arrival pieces with slope = dy/dx in (0.005, 6): strictly increasing
        let mut pts = vec![(x0, x0 + 5.0)];
        let (mut x, mut y) = pts[0];
        for (dx, slope) in steps {
            x += dx;
            y += dx * slope;
            pts.push((x, y));
        }
        Pwl::from_points(&pts)
            .expect("valid arrival")
            .sub_identity()
    })
}

fn sample_grid(domain: &Interval, n: usize) -> Vec<f64> {
    (0..=n)
        .map(|k| domain.lo() + domain.len() * (k as f64) / (n as f64))
        .collect()
}

/// A function's exact bits: knots, then every piece's coefficients.
fn bits(f: &Pwl) -> (Vec<u64>, Vec<(u64, u64)>) {
    let xs = f.breakpoints().iter().map(|x| x.to_bits()).collect();
    let fs = f.linears().iter().map(|l| (l.a.to_bits(), l.b.to_bits()));
    (xs, fs.collect())
}

proptest! {
    #[test]
    fn eval_within_min_max(f in arb_pwl()) {
        let min = f.minimum().value;
        let max = f.maximum();
        for x in sample_grid(&f.domain(), 64) {
            let v = f.eval(x);
            prop_assert!(approx_le(min, v) && approx_le(v, max));
        }
    }

    #[test]
    fn min_result_is_attained_and_tight(f in arb_pwl()) {
        let m = f.minimum();
        // the reported argmin interval actually achieves the minimum
        prop_assert!(approx_eq(f.eval(m.at.lo()), m.value));
        prop_assert!(approx_eq(f.eval(m.at.hi()), m.value));
        prop_assert!(approx_eq(f.eval(m.at.mid()), m.value));
        // no sampled point goes below it
        for x in sample_grid(&f.domain(), 128) {
            prop_assert!(approx_le(m.value, f.eval(x)));
        }
    }

    #[test]
    fn simplify_preserves_values(f in arb_pwl()) {
        let s = f.simplify();
        prop_assert!(s.n_pieces() <= f.n_pieces());
        for x in sample_grid(&f.domain(), 64) {
            prop_assert!(approx_eq(s.eval(x), f.eval(x)));
        }
        // idempotent
        prop_assert_eq!(s.simplify().n_pieces(), s.n_pieces());
    }

    #[test]
    fn restrict_preserves_values(f in arb_pwl(), t in 0.1f64..0.9, w in 0.05f64..0.8) {
        let d = f.domain();
        let lo = d.lo() + t * (1.0 - w) * d.len();
        let hi = lo + w * d.len();
        let r = f.restrict(&Interval::of(lo, hi)).unwrap();
        prop_assert!(r.domain().approx_eq(&Interval::of(lo, hi)));
        for x in sample_grid(&r.domain(), 32) {
            prop_assert!(approx_eq(r.eval(x), f.eval(x)));
        }
    }

    #[test]
    fn add_is_pointwise(f in arb_pwl(), g in arb_pwl()) {
        let Some(common) = f.domain().intersect(&g.domain()) else {
            return Ok(());
        };
        if common.is_degenerate() || common.len() < 0.1 {
            return Ok(());
        }
        let s = f.add(&g).unwrap();
        for x in sample_grid(&s.domain(), 64) {
            prop_assert!(approx_eq(s.eval(x), f.eval(x) + g.eval(x)));
        }
    }

    #[test]
    fn monotone_inverse_roundtrip(t in arb_travel(0.0)) {
        let a = MonotonePwl::arrival_from_travel(&t).unwrap();
        let inv = a.inverse().unwrap();
        for x in sample_grid(&a.domain(), 32) {
            let y = a.eval(x);
            prop_assert!(approx_eq(inv.eval(y), x), "x={x} y={y} inv={}", inv.eval(y));
            prop_assert!(approx_eq(a.inverse_at(y).unwrap(), x));
        }
    }

    #[test]
    fn compose_travel_matches_pointwise(t1 in arb_travel(0.0)) {
        // Build a t2 wide enough to cover all arrivals.
        let arrivals = pwl::compose::arrival_interval(&t1).unwrap();
        let t2_domain = Interval::of(arrivals.lo() - 1.0, arrivals.hi() + 1.0);
        let t2 = Pwl::from_points(&[
            (t2_domain.lo(), 7.0),
            (t2_domain.lo() + t2_domain.len() * 0.4, 2.0),
            (t2_domain.lo() + t2_domain.len() * 0.6, 2.0),
            (t2_domain.hi(), 9.0),
        ]).unwrap();
        // clamp t2's FIFO: slopes are bounded by 5/(0.4*len); if the
        // domain is tiny the slope may violate FIFO, which is fine for a
        // pure composition check (t2 FIFO is not required by compose).
        let t = compose_travel(&t1, &t2).unwrap();
        prop_assert!(t.is_continuous());
        for l in sample_grid(&t1.domain(), 96) {
            let direct = t1.eval(l) + t2.eval_clamped(l + t1.eval(l));
            prop_assert!(approx_eq(t.eval(l), direct), "l={l}: {} vs {direct}", t.eval(l));
        }
    }

    #[test]
    fn envelope_is_pointwise_min(fs in prop::collection::vec(arb_pwl(), 2..6)) {
        // Re-root all functions on a common domain.
        let domain = Interval::of(0.0, 20.0);
        let rebased: Vec<Pwl> = fs
            .iter()
            .map(|f| {
                let d = f.domain();
                let scaled = f.shift_x(-d.lo());
                // stretch domain to at least 20 by restricting sample
                if scaled.domain().hi() >= 20.0 {
                    scaled.restrict(&domain).unwrap()
                } else {
                    // extend with a flat tail to reach x=20
                    let end = scaled.domain().hi();
                    let v = scaled.eval(end);
                    let mut pts = scaled.points();
                    pts.push((20.0, v));
                    Pwl::from_points(&pts).unwrap()
                }
            })
            .collect();

        let mut env = Envelope::new(rebased[0].clone(), 0usize);
        for (i, f) in rebased.iter().enumerate().skip(1) {
            env.merge_min(f, i).unwrap();
        }
        for x in sample_grid(&domain, 128) {
            let want = rebased.iter().map(|f| f.eval(x)).fold(f64::INFINITY, f64::min);
            prop_assert!(approx_eq(env.eval(x), want), "x={x}: {} vs {want}", env.eval(x));
        }
        // each piece's tag points at a function achieving the envelope
        for p in env.pieces() {
            let mid = p.interval.mid();
            prop_assert!(approx_eq(rebased[*p.tag].eval(mid), env.eval(mid)));
        }
        // partition covers the domain with no gaps
        let parts = env.partition();
        prop_assert!(approx_eq(parts[0].0.lo(), domain.lo()));
        prop_assert!(approx_eq(parts[parts.len() - 1].0.hi(), domain.hi()));
        for w in parts.windows(2) {
            prop_assert!(approx_eq(w[0].0.hi(), w[1].0.lo()));
            prop_assert!(w[0].1 != w[1].1, "adjacent partitions share a tag");
        }
    }

    #[test]
    fn pooled_compose_is_bit_identical(t1 in arb_travel(0.0)) {
        // The scratch-reuse contract: a scratch carries no state between
        // calls, so a dirty pool (shared here across *all* generated
        // cases) must produce the same bits as a cold one.
        thread_local! {
            static DIRTY: RefCell<PwlScratch> = RefCell::new(PwlScratch::new());
        }
        let arrivals = pwl::compose::arrival_interval(&t1).unwrap();
        let t2_domain = Interval::of(arrivals.lo() - 1.0, arrivals.hi() + 1.0);
        let t2 = Pwl::from_points(&[
            (t2_domain.lo(), 7.0),
            (t2_domain.lo() + t2_domain.len() * 0.4, 2.0),
            (t2_domain.lo() + t2_domain.len() * 0.6, 2.0),
            (t2_domain.hi(), 9.0),
        ]).unwrap();
        let cold = compose_travel_into(&mut PwlScratch::new(), &t1, &t2).unwrap();
        let pooled = DIRTY.with(|s| {
            let mut s = s.borrow_mut();
            let out = compose_travel_into(&mut s, &t1, &t2).unwrap();
            // recycle a clone's buffers so later cases see a warm,
            // genuinely dirty pool
            s.recycle(out.clone());
            out
        });
        // exact equality, not approx: same breakpoints, same coefficients
        prop_assert_eq!(pooled.breakpoints(), cold.breakpoints());
        prop_assert_eq!(pooled.linears(), cold.linears());
        // and both match the two-pass compose + simplify bit for bit
        let two_pass = compose_travel(&t1, &t2).unwrap().simplify();
        prop_assert_eq!(pooled.breakpoints(), two_pass.breakpoints());
        prop_assert_eq!(pooled.linears(), two_pass.linears());
    }

    #[test]
    fn window_compose_is_the_copy_or_declines(
        t1 in arb_travel(400.0),
        full in arb_pwl(),
        knot in 0usize..9,
        end_hi in 0u32..2,
        off in 0usize..9,
        stretch in 0.8f64..4.0,
    ) {
        // The view kernel composes against the restriction of a stored
        // function without building it: bit for bit the copy, or a
        // decline — and a decline only where the window leaves the
        // stored domain or the restriction's dedupe dropped a knot.
        // One stored knot is moved to a window end, on it or a
        // fraction of the tolerance off it.
        let arrivals = Arrivals::of(&t1).unwrap();
        let window = *arrivals.interval();
        let at = if end_hi == 1 { window.hi() } else { window.lo() };
        let off = [0.0, 0.5, -0.5, 1.001, -1.001, 1.5, -1.5, 4e5, -4e5][off];
        let scale = stretch * window.len() / full.domain().len();
        let pts: Vec<(f64, f64)> = full.points().iter().map(|&(x, y)| (x * scale, y)).collect();
        let k = knot.min(pts.len() - 1);
        let dx = at + off * EPS * (1.0 + at.abs()) - pts[k].0;
        let full = Pwl::from_points(&pts).unwrap().shift_x(dx);

        let mut scratch = PwlScratch::new();
        let got = compose_travel_window_into(&mut scratch, &t1, &full, &arrivals).unwrap();
        // The same function packed into one allocation composes to the
        // same bits, and declines the same windows.
        let packed = PackedPwl::from(&full);
        let from_packed = compose_travel_window_into(&mut scratch, &t1, &packed, &arrivals).unwrap();
        prop_assert_eq!(from_packed.as_ref().map(bits), got.as_ref().map(bits));
        prop_assert_eq!(bits(&packed.unpack_with(&mut scratch)), bits(&full));
        let dom = full.domain();
        let inside = dom.lo() <= window.lo() && window.hi() <= dom.hi();
        let kept = full.breakpoints().iter();
        let kept = kept.filter(|&&x| definitely_lt(window.lo(), x) && definitely_lt(x, window.hi()));
        match full.restrict_with(&mut scratch, &window) {
            Ok(copy) if inside && copy.breakpoints().len() == kept.count() + 2 => {
                let got = got.expect("a structural window is answered");
                let want = compose_travel_into(&mut scratch, &t1, &copy).unwrap();
                // exact equality, not approx: same knots, same coefficients
                prop_assert_eq!(got.breakpoints(), want.breakpoints());
                prop_assert_eq!(got.linears(), want.linears());
            }
            _ => {
                prop_assert!(got.is_none(), "answered a window it must decline");
            }
        }
    }

    #[test]
    fn comparison_kernel_at_offset_zero_is_dominated_by(
        f in arb_pwl(),
        dx in -8.0f64..8.0,
        g in arb_pwl(),
        lift in -20.0f64..20.0,
    ) {
        // The streaming kernel's oracle is `#[cfg(test)]` inside the
        // crate; from outside, its `offset = 0` case is pinned to the
        // allocating reference on overlapping and disjoint domains.
        let g = g.shift_x(f.domain().lo() - g.domain().lo() + dx).add_scalar(lift);
        prop_assert_eq!(f.dominated_by_offset(0.0, &g), f.dominated_by(&g));
        prop_assert_eq!(g.dominated_by_offset(0.0, &f), g.dominated_by(&f));
        prop_assert!(f.dominated_by_offset(0.0, &f));
    }

    #[test]
    fn gap_is_the_offset_the_comparison_kernel_turns_at(
        f in arb_pwl(),
        dx in -8.0f64..8.0,
        g in arb_pwl(),
        lift in -20.0f64..20.0,
        d in -40.0f64..40.0,
    ) {
        let g = g.shift_x(f.domain().lo() - g.domain().lo() + dx).add_scalar(lift);
        let gap = f.gap(&g);
        let Some(common) = f.domain().intersect(&g.domain()) else {
            prop_assert_eq!(gap, f64::INFINITY);
            return Ok(());
        };
        // Its definition: the largest `g − f` over the ends of the
        // common domain and the breakpoints between, right piece each.
        let right_piece = |h: &Pwl, x: f64| {
            let i = h.breakpoints().partition_point(|&k| k <= x) - 1;
            h.linears()[i.min(h.n_pieces() - 1)].eval(x)
        };
        let (lo, hi) = (common.lo(), common.hi());
        let knots = f.breakpoints().iter().chain(g.breakpoints());
        let knots = knots.copied().filter(|&x| lo < x && x < hi).chain([lo, hi]);
        let brute = knots
            .map(|x| right_piece(&g, x) - right_piece(&f, x))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(gap.to_bits(), brute.to_bits());
        // Offsets around it, in units of the tolerance at the values in
        // play: the gate's implication, and its tightness.
        let tol = EPS * (1.0 + f.maximum().abs().max(g.maximum().abs()) + gap.abs());
        let c = gap + d * tol;
        let dominated = f.dominated_by_offset(c, &g);
        prop_assert!(!definitely_lt(gap, c) || dominated);
        prop_assert!(d > -10.0 || !dominated);
    }

    #[test]
    fn live_min_bounds_the_live_instants(
        f in arb_pwl(),
        dx in -8.0f64..8.0,
        g in arb_pwl(),
        lift in -20.0f64..20.0,
        c in -20.0f64..20.0,
    ) {
        let g = g.shift_x(f.domain().lo() - g.domain().lo() + dx).add_scalar(lift);
        let live = f.live_min(c, &g);
        prop_assert_eq!(live.is_none(), f.dominated_by_offset(c, &g));
        let Some(k) = live else {
            return Ok(());
        };
        // Within the tolerance at the values and instants in play: a
        // knot the walk drops as EPS-close to its neighbour moves a
        // value by at most a slope of that.
        let top = |h: &Pwl| h.maximum().abs().max(h.min_value().abs());
        let reach = f.domain().hi().max(g.domain().hi());
        let tol = EPS * (1.0 + (top(&f) + c.abs()).max(top(&g)).max(reach));
        prop_assert!(f.min_value() + c <= k + tol, "{} > {k}", f.min_value() + c);
        let Some(common) = f.domain().intersect(&g.domain()) else {
            return Ok(());
        };
        for x in sample_grid(&common, 256) {
            let v = f.eval(x) + c;
            if definitely_lt(v, g.eval(x)) {
                prop_assert!(k <= v + tol, "key {k} above {v} at live x = {x}");
            }
        }
    }

    #[test]
    fn dominated_by_agrees_with_sampling(f in arb_pwl(), g in arb_pwl()) {
        let Some(common) = f.domain().intersect(&g.domain()) else {
            return Ok(());
        };
        if common.is_degenerate() || common.len() < 0.1 {
            return Ok(());
        }
        let fr = f.restrict(&common).unwrap();
        let gr = g.restrict(&common).unwrap();
        if fr.dominated_by(&gr) {
            for x in sample_grid(&common, 64) {
                prop_assert!(approx_le(gr.eval(x), fr.eval(x)));
            }
        }
    }
}
