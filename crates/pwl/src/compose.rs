//! The *compound* operation of §4.4: expanding a path by one edge.
//!
//! Given the travel-time function `T₁(l)` of a path `s ⇒ n` (defined on
//! the query interval `I`) and the travel-time function `T₂(l′)` of the
//! next edge `n → n_j` (defined on leaving times `l′` at `n`, which must
//! cover the arrival interval `A₁(I)`), the expanded path's travel-time
//! function is
//!
//! ```text
//! T(l) = T₁(l) + T₂(l + T₁(l))      for l ∈ I.
//! ```
//!
//! The breakpoints of `T` are (paper §4.4):
//!
//! 1. the breakpoints of `T₁` (the "simple case"), and
//! 2. the preimages `A₁⁻¹(t)` of each breakpoint `t` of `T₂`
//!    (the "trickier case" — found in the paper by intersecting
//!    `T₁` with a 135° line through `(t, 0)`; the exact inverse of the
//!    monotone arrival function computes the same instant).

use crate::scratch::PwlScratch;
use crate::{Interval, Linear, MonotonePwl, Pwl, PwlError, Result};

/// Proof that a path's travel function `T₁` passed the compound's two
/// validations — continuity, then FIFO (every arrival slope strictly
/// positive) — together with the arrival interval `A₁(I)` the same
/// pass computes. Only [`Arrivals::of`] mints one, so a search that
/// expands a path validates it once and every candidate edge of that
/// expansion composes on the proof
/// ([`compose_travel_window_into`]).
///
/// The token carries no borrow of `T₁`: both searches push into the
/// arena that owns the parent's function while its edges are walked.
/// Handing it to a compound with any other function is a caller bug,
/// which debug builds (the test suite) catch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrivals {
    interval: Interval,
}

impl Arrivals {
    /// Validate `t1` and compute `A₁(I) = [lo + T₁(lo), hi + T₁(hi)]`
    /// (paper §4.4, Figure 4). Fails with [`PwlError::Discontinuous`]
    /// or — on a FIFO violation (slope ≤ −1) —
    /// [`PwlError::NotIncreasing`].
    pub fn of(t1: &Pwl) -> Result<Arrivals> {
        // Same validations and endpoint arithmetic as
        // `MonotonePwl::arrival_from_travel(t1)?.range()`, on the
        // shared breakpoint grid and without materializing the arrival
        // function.
        t1.check_continuous()?;
        let (x1, f1) = (t1.breakpoints(), t1.linears());
        for (i, f) in f1.iter().enumerate() {
            if f.a + 1.0 <= crate::EPS {
                return Err(PwlError::NotIncreasing { at: x1[i] });
            }
        }
        let n1 = f1.len();
        Ok(Arrivals {
            interval: Interval::of(
                arrival_piece(f1, 0).eval(x1[0]),
                arrival_piece(f1, n1 - 1).eval(x1[n1]),
            ),
        })
    }

    /// The leaving-time interval at the path's head.
    #[inline]
    pub fn interval(&self) -> &Interval {
        &self.interval
    }
}

/// Arrival piece over `T₁`'s piece `i`: same arithmetic as
/// `add_identity` (slope + 1, intercept unchanged), so every value
/// matches the two-pass path bit for bit.
#[inline]
fn arrival_piece(f1: &[Linear], i: usize) -> Linear {
    Linear {
        a: f1[i].a + 1.0,
        b: f1[i].b,
    }
}

/// Compute the leaving-time interval at the head of an edge (the
/// arrival interval at the intermediate node), `A₁(I) = [lo + T₁(lo),
/// hi + T₁(hi)]` — paper §4.4, Figure 4.
pub fn arrival_interval(t1: &Pwl) -> Result<Interval> {
    Ok(Arrivals::of(t1)?.interval)
}

/// The compound `T(l) = T₁(l) + T₂(l + T₁(l))`.
///
/// `t2`'s domain must cover the arrival interval `A₁(domain(t1))`
/// within [`crate::EPS`]; otherwise a [`PwlError::DomainMismatch`] is
/// returned. Fails with [`PwlError::NotIncreasing`] if `t1` violates
/// FIFO (slope ≤ −1).
pub fn compose_travel(t1: &Pwl, t2: &Pwl) -> Result<Pwl> {
    let a1 = MonotonePwl::arrival_from_travel(t1)?;
    let arrivals = a1.range();
    if !t2.domain().covers(&arrivals) {
        return Err(PwlError::DomainMismatch {
            left: t2.domain(),
            right: arrivals,
        });
    }
    let domain = t1.domain();

    // Breakpoint set: T₁'s own, plus A₁⁻¹ of T₂'s interior breakpoints
    // that land strictly inside the domain.
    let mut xs: Vec<f64> = t1.breakpoints().to_vec();
    for &t in t2.breakpoints() {
        if let Some(l) = a1.inverse_at(t) {
            if crate::definitely_lt(domain.lo(), l) && crate::definitely_lt(l, domain.hi()) {
                xs.push(l);
            }
        }
    }
    crate::pwl::sort_dedupe(&mut xs);

    let t2dom = t2.domain();
    crate::pwl::build_from_breakpoints(xs, |mid| {
        let p1 = t1.linears()[t1.piece_index_at(mid)?];
        let arrive = t2dom.clamp(a1.eval(mid));
        let p2 = t2.linears()[t2.piece_index_at(arrive)?];
        Ok(p1.compound(&p2))
    })
}

/// A stored function as the compound reads it: breakpoints
/// `knot(0) < … < knot(n)` and piece `k` over `knot(k)..knot(k + 1)`.
/// A [`Pwl`] holds them in two buffers; a
/// [`PackedPwl`](crate::PackedPwl) holds them in one allocation.
pub trait Knots: sealed::Sealed {
    /// Number of pieces, `n`.
    fn n_pieces(&self) -> usize;
    /// Breakpoint `k`, `k ≤ n`.
    fn knot(&self, k: usize) -> f64;
    /// Piece `k`, `k < n`.
    fn piece(&self, k: usize) -> Linear;
    /// The first `k` whose breakpoint `below` rejects; `below` must
    /// hold on a prefix of the breakpoints.
    fn partition_point(&self, below: impl FnMut(f64) -> bool) -> usize;
}

mod sealed {
    /// Only this crate's function layouts are [`super::Knots`].
    pub trait Sealed {}
    impl Sealed for crate::Pwl {}
    impl Sealed for crate::PackedPwl {}
}

impl Knots for Pwl {
    #[inline]
    fn n_pieces(&self) -> usize {
        Pwl::n_pieces(self)
    }

    #[inline]
    fn knot(&self, k: usize) -> f64 {
        self.breakpoints()[k]
    }

    #[inline]
    fn piece(&self, k: usize) -> Linear {
        self.linears()[k]
    }

    #[inline]
    fn partition_point(&self, mut below: impl FnMut(f64) -> bool) -> usize {
        self.breakpoints().partition_point(|&x| below(x))
    }
}

/// `T₂` as the compound reads it: `m + 2` knots — `lo`, the `m` stored
/// knots `r0..r0 + m` of `table`, `hi` — and the piece over each of
/// the `m + 1` spans between them. A whole function is the view of
/// itself; a *window* is the restriction of a stored function that
/// [`Pwl::restrict_with`] would build, read in place instead of
/// copied.
struct View<'a, T> {
    lo: f64,
    hi: f64,
    table: &'a T,
    /// The first stored knot strictly between `lo` and `hi`.
    r0: usize,
    /// How many stored knots lie strictly between them.
    m: usize,
    /// Piece over the first span, `lo..knot(0)` (or `lo..hi`).
    first: Linear,
    /// Piece over the last span, `knot(m − 1)..hi`.
    last: Linear,
}

impl<'a, T: Knots> View<'a, T> {
    /// All of `t2`: span `j` is piece `j`, whatever its knots (two
    /// adjacent floats have no midpoint to look a piece up by).
    fn whole(t2: &'a T) -> View<'a, T> {
        let n = t2.n_pieces();
        View {
            lo: t2.knot(0),
            hi: t2.knot(n),
            table: t2,
            r0: 1,
            m: n - 1,
            first: t2.piece(0),
            last: t2.piece(n - 1),
        }
    }

    /// `full` over `to`, knot for knot and piece for piece what
    /// `full.restrict_with(_, to)` returns — or `None` where that
    /// identity is not structural: `to` not inside `full`'s domain
    /// (the restriction would clip it), or two neighbouring knots
    /// [`crate::EPS`]-close (the restriction's dedupe would drop one;
    /// a degenerate `to` is the case of `lo` and `hi` themselves).
    fn window(full: &'a T, to: &Interval) -> Option<View<'a, T>> {
        let n = full.n_pieces();
        let (lo, hi) = (to.lo(), to.hi());
        if lo < full.knot(0) || full.knot(n) < hi {
            return None;
        }
        // The restriction keeps the stored knots that pass two
        // `definitely_lt` filters. Both are monotone in the knot, so
        // the kept knots are one contiguous run `r0..r1` of the table.
        let i0 = full.partition_point(|v| v <= lo);
        let i1 = full.partition_point(|v| v < hi);
        let mut r0 = i0;
        while r0 < i1 && !crate::definitely_lt(lo, full.knot(r0)) {
            r0 += 1;
        }
        let mut r1 = i1;
        while r1 > r0 && !crate::definitely_lt(full.knot(r1 - 1), hi) {
            r1 -= 1;
        }
        let mut prev = lo;
        for knot in (r0..r1).map(|k| full.knot(k)).chain(std::iter::once(hi)) {
            if crate::approx_eq(prev, knot) {
                return None;
            }
            prev = knot;
        }
        // The restriction's midpoint cursor. Between two kept knots it
        // lands on the stored piece between them; the end spans may
        // also hold knots the filters dropped, on either side of the
        // midpoint.
        let piece_at = |from: usize, mid: f64| {
            let mut i = from;
            while i + 1 < n && full.knot(i + 1) <= mid {
                i += 1;
            }
            full.piece(i)
        };
        let first_end = if r0 < r1 { full.knot(r0) } else { hi };
        let first = piece_at(i0 - 1, 0.5 * (lo + first_end));
        Some(View {
            lo,
            hi,
            table: full,
            r0,
            m: r1 - r0,
            first,
            last: match r1 > r0 {
                true => piece_at(r1 - 1, 0.5 * (full.knot(r1 - 1) + hi)),
                false => first,
            },
        })
    }

    /// Stored knot `j` of the view, `j < m`.
    #[inline]
    fn knot(&self, j: usize) -> f64 {
        self.table.knot(self.r0 + j)
    }

    /// The piece over span `j`.
    #[inline]
    fn piece(&self, j: usize) -> Linear {
        match j {
            0 => self.first,
            _ if j < self.m => self.table.piece(self.r0 + j - 1),
            _ => self.last,
        }
    }
}

/// The compound `T(l) = T₁(l) + T₂(l + T₁(l))`, fused with
/// [`Pwl::simplify`] and built out of pooled buffers.
///
/// The engine composes once per expanded edge and always simplifies the
/// result, so this kernel avoids the per-call overheads of the two-pass
/// form:
///
/// * no intermediate unsimplified function — collinear pieces are
///   dropped while building;
/// * no materialized arrival function — `A₁` shares `T₁`'s breakpoints
///   with each slope shifted by one, so evals and inverses read `T₁`'s
///   piece table directly (preimages come from a cursor sweep; the
///   equivalent [`MonotonePwl::inverse_at`] calls would each binary
///   search, though neither allocates);
/// * no per-piece binary searches — the subdivision midpoints and
///   their images under the increasing `A₁` are both nondecreasing, as
///   are `T₂`'s breakpoints, so advancing cursors find every piece;
/// * no steady-state allocations — the breakpoint workspaces live in
///   `scratch` and the output buffers come from its pool, so once the
///   pool is warm (see the scratch-reuse contract on [`PwlScratch`])
///   composing is allocation-free.
///
/// A cold scratch and a warm one give the same function bit for bit.
pub fn compose_travel_into(scratch: &mut PwlScratch, t1: &Pwl, t2: &Pwl) -> Result<Pwl> {
    let arrivals = Arrivals::of(t1)?;
    if !t2.domain().covers(&arrivals.interval) {
        return Err(PwlError::DomainMismatch {
            left: t2.domain(),
            right: arrivals.interval,
        });
    }
    compound(scratch, t1, &arrivals, &View::whole(t2))
}

/// [`compose_travel_into`] against the restriction of the stored
/// function `full` to `t1`'s arrival interval, **without building the
/// restriction**: where it answers, the result is bit for bit
/// `compose_travel_into(scratch, t1, &full.restrict_with(scratch,
/// arrivals.interval())?)`, and the same whether `full` is a [`Pwl`] or
/// the [`PackedPwl`](crate::PackedPwl) packed from it. `arrivals` must
/// have been minted from this `t1`, which is therefore not validated
/// again.
///
/// `Ok(None)` declines: the arrival interval is not inside `full`'s
/// domain (a midnight wrap, a later day), is degenerate, or spans two
/// stored knots [`crate::EPS`]-close to each other — the caller then
/// materialises the restriction its own way and calls
/// [`compose_travel_into`].
pub fn compose_travel_window_into<T: Knots>(
    scratch: &mut PwlScratch,
    t1: &Pwl,
    full: &T,
    arrivals: &Arrivals,
) -> Result<Option<Pwl>> {
    debug_assert_eq!(
        Arrivals::of(t1).as_ref(),
        Ok(arrivals),
        "arrivals minted from another function"
    );
    match View::window(full, &arrivals.interval) {
        Some(t2) => compound(scratch, t1, arrivals, &t2).map(Some),
        None => Ok(None),
    }
}

/// The one builder of a compound's elementary subdivision: `t1`
/// validated (`arrivals` is the proof), `t2` covering its arrivals.
fn compound<T: Knots>(
    scratch: &mut PwlScratch,
    t1: &Pwl,
    arrivals: &Arrivals,
    t2: &View<'_, T>,
) -> Result<Pwl> {
    let (x1, f1) = (t1.breakpoints(), t1.linears());
    let n1 = f1.len();
    let arr = |i: usize| arrival_piece(f1, i);
    let domain = t1.domain();

    // Breakpoint set: T₁'s own, plus A₁⁻¹ of T₂'s interior breakpoints
    // that land strictly inside the domain. T₂'s breakpoints ascend and
    // A₁ is increasing, so one cursor sweep finds each preimage's piece,
    // and the preimages form a nondecreasing run. Stably merging that
    // run with the (sorted) `x1` — ties taken from `x1` first — yields
    // exactly what the stable `sort_dedupe` of `[x1…, preimages…]` in
    // the two-pass form produces.
    scratch.aux.clear();
    let mut p = 0usize;
    let knots = std::iter::once(t2.lo)
        .chain((0..t2.m).map(|j| t2.knot(j)))
        .chain(std::iter::once(t2.hi));
    for t in knots {
        if !arrivals.interval.contains_approx(t) {
            continue;
        }
        while p + 1 < n1 && arr(p).eval(x1[p + 1]) <= t {
            p += 1;
        }
        let piece = arr(p);
        let l = domain.clamp((t - piece.b) / piece.a);
        if crate::definitely_lt(domain.lo(), l) && crate::definitely_lt(l, domain.hi()) {
            scratch.aux.push(l);
        }
    }
    {
        let (knots, aux) = (&mut scratch.knots, &scratch.aux);
        knots.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < x1.len() && j < aux.len() {
            if x1[i] <= aux[j] {
                knots.push(x1[i]);
                i += 1;
            } else {
                knots.push(aux[j]);
                j += 1;
            }
        }
        knots.extend_from_slice(&x1[i..]);
        knots.extend_from_slice(&aux[j..]);
        crate::pwl::dedupe_eps(knots);
    }
    if scratch.knots.len() < 2 {
        return Err(PwlError::BadBreakpoints(
            "empty elementary subdivision".into(),
        ));
    }

    let (mut out_xs, mut out_fs) = scratch.take_buffers();
    let xs = &scratch.knots;
    out_xs.push(xs[0]);
    let (mut i1, mut i2) = (0usize, 0usize);
    for w in xs.windows(2) {
        let mid = 0.5 * (w[0] + w[1]);
        while i1 + 1 < n1 && x1[i1 + 1] <= mid {
            i1 += 1;
        }
        let arrive = arr(i1).eval(mid).clamp(t2.lo, t2.hi);
        while i2 < t2.m && t2.knot(i2) <= arrive {
            i2 += 1;
        }
        let g = f1[i1].compound(&t2.piece(i2));
        if let Some(last) = out_fs.last() {
            // Same rule as `Pwl::simplify`: collinear over the new
            // piece's span extends the previous piece.
            if last.approx_same_over(&g, &Interval::of(w[0], w[1])) {
                continue;
            }
            out_xs.push(w[0]);
        }
        out_fs.push(g);
    }
    out_xs.push(xs[xs.len() - 1]);
    // Breakpoints are a strictly-increasing subset of the deduped knot
    // set; skip the re-validation passes (debug builds still check).
    Ok(Pwl::from_sorted_parts(out_xs, out_fs))
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::approx_eq;
    use crate::time::hm;

    /// T₁ of the paper's running example (path s → n, §4.3):
    /// 6 on [6:50, 6:54), (2/3)(7:00 − l) + 2 on [6:54, 7:00), 2 after.
    fn paper_t1() -> Pwl {
        Pwl::from_points(&[
            (hm(6, 50), 6.0),
            (hm(6, 54), 6.0),
            (hm(7, 0), 2.0),
            (hm(7, 5), 2.0),
        ])
        .unwrap()
    }

    /// T₂ of the running example (edge n → e on the arrival interval
    /// [6:56, 7:07]): 3 until 7:05, then 10 − (7/3)(7:08 − l).
    fn paper_t2() -> Pwl {
        let ramp_end = 10.0 - (7.0 / 3.0) * (hm(7, 8) - hm(7, 7));
        Pwl::from_points(&[(hm(6, 56), 3.0), (hm(7, 5), 3.0), (hm(7, 7), ramp_end)]).unwrap()
    }

    #[test]
    fn arrival_interval_matches_figure_4() {
        // Paper: leaving interval for n→e is [6:56, 7:07].
        let iv = arrival_interval(&paper_t1()).unwrap();
        assert!(approx_eq(iv.lo(), hm(6, 56)));
        assert!(approx_eq(iv.hi(), hm(7, 7)));
    }

    #[test]
    fn compound_reproduces_figure_5() {
        // Paper §4.4: the combined T(l, s ⇒ n → e) has breakpoints at
        // 6:50, 6:54, 7:00 and 7:03, with pieces 9, (2/3)(7:00−l)+5, 5,
        // and 12 − (7/3)(7:06 − l).
        let t = compose_travel(&paper_t1(), &paper_t2()).unwrap().simplify();
        let bps = t.breakpoints();
        assert_eq!(bps.len(), 5, "breakpoints {bps:?}");
        assert!(approx_eq(bps[0], hm(6, 50)));
        assert!(approx_eq(bps[1], hm(6, 54)));
        assert!(approx_eq(bps[2], hm(7, 0)));
        assert!(approx_eq(bps[3], hm(7, 3)));
        assert!(approx_eq(bps[4], hm(7, 5)));

        assert!(approx_eq(t.eval(hm(6, 50)), 9.0));
        assert!(approx_eq(t.eval(hm(6, 52)), 9.0));
        // middle ramp: (2/3)(7:00 − l) + 5
        assert!(approx_eq(t.eval(hm(6, 57)), (2.0 / 3.0) * 3.0 + 5.0));
        assert!(approx_eq(t.eval(hm(7, 0)), 5.0));
        assert!(approx_eq(t.eval(hm(7, 2)), 5.0));
        assert!(approx_eq(t.eval(hm(7, 3)), 5.0));
        // final ramp: 12 − (7/3)(7:06 − l)
        assert!(approx_eq(t.eval(hm(7, 4)), 12.0 - (7.0 / 3.0) * 2.0));
        assert!(approx_eq(t.eval(hm(7, 5)), 12.0 - (7.0 / 3.0) * 1.0));
    }

    #[test]
    fn compound_equals_pointwise_definition() {
        let t1 = paper_t1();
        let t2 = paper_t2();
        let t = compose_travel(&t1, &t2).unwrap();
        let d = t1.domain();
        let steps = 200;
        for k in 0..=steps {
            let l = d.lo() + d.len() * (k as f64) / (steps as f64);
            let direct = t1.eval(l) + t2.eval(l + t1.eval(l));
            assert!(
                approx_eq(t.eval(l), direct),
                "mismatch at l={l}: {} vs {direct}",
                t.eval(l)
            );
        }
        assert!(t.is_continuous());
    }

    #[test]
    fn compound_requires_t2_to_cover_arrivals() {
        let t1 = paper_t1();
        let short = Pwl::constant(Interval::of(hm(6, 56), hm(7, 0)), 3.0).unwrap();
        assert!(matches!(
            compose_travel(&t1, &short),
            Err(PwlError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn compound_rejects_fifo_violation() {
        let bad = Pwl::linear(Interval::of(0.0, 10.0), Linear { a: -2.0, b: 30.0 }).unwrap();
        let t2 = Pwl::constant(Interval::of(0.0, 100.0), 1.0).unwrap();
        assert!(matches!(
            compose_travel(&bad, &t2),
            Err(PwlError::NotIncreasing { .. })
        ));
    }

    /// A function's exact bits: knots, then every piece's coefficients.
    fn bits(f: &Pwl) -> (Vec<u64>, Vec<(u64, u64)>) {
        let xs = f.breakpoints().iter().map(|x| x.to_bits()).collect();
        let fs = f.linears().iter().map(|l| (l.a.to_bits(), l.b.to_bits()));
        (xs, fs.collect())
    }

    #[test]
    fn cold_and_warm_scratch_match_compose_then_simplify() {
        let t1 = paper_t1();
        let t2 = paper_t2();
        let cold = compose_travel_into(&mut PwlScratch::new(), &t1, &t2).unwrap();
        let mut warm = PwlScratch::new();
        for _ in 0..3 {
            let out = compose_travel_into(&mut warm, &t1, &t2).unwrap();
            assert_eq!(bits(&out), bits(&cold));
            warm.recycle(out);
        }
        let two_pass = compose_travel(&t1, &t2).unwrap().simplify();
        assert_eq!(cold.breakpoints(), two_pass.breakpoints());
        let d = t1.domain();
        for k in 0..=200 {
            let l = d.lo() + d.len() * (f64::from(k)) / 200.0;
            assert!(
                approx_eq(cold.eval(l), two_pass.eval(l)),
                "mismatch at l={l}"
            );
        }

        // Constant edge: collapses to t1's simplified piece count.
        let flat = Pwl::constant(Interval::of(hm(6, 0), hm(9, 0)), 4.0).unwrap();
        let fused = compose_travel_into(&mut warm, &t1, &flat).unwrap();
        assert_eq!(fused.n_pieces(), t1.simplify().n_pieces());

        // Same error surface as the two-pass form.
        let short = Pwl::constant(Interval::of(hm(6, 56), hm(7, 0)), 3.0).unwrap();
        assert!(matches!(
            compose_travel_into(&mut warm, &t1, &short),
            Err(PwlError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn an_invalid_parent_passes_neither_door() {
        // The window entry point takes only a minted `Arrivals`, so a
        // parent that cannot mint one never reaches the kernel; the
        // standalone compound validates for itself.
        let jump = Pwl::new(
            vec![0.0, 5.0, 10.0],
            vec![
                Linear::constant(1.0).unwrap(),
                Linear::constant(3.0).unwrap(),
            ],
        )
        .unwrap();
        let steep = Pwl::linear(Interval::of(0.0, 10.0), Linear { a: -1.0, b: 30.0 }).unwrap();
        let t2 = Pwl::constant(Interval::of(0.0, 100.0), 1.0).unwrap();
        let mut scratch = PwlScratch::new();

        assert!(matches!(
            Arrivals::of(&jump),
            Err(PwlError::Discontinuous { .. })
        ));
        assert!(matches!(
            arrival_interval(&jump),
            Err(PwlError::Discontinuous { .. })
        ));
        assert!(matches!(
            compose_travel_into(&mut scratch, &jump, &t2),
            Err(PwlError::Discontinuous { .. })
        ));
        assert!(matches!(
            Arrivals::of(&steep),
            Err(PwlError::NotIncreasing { .. })
        ));
        assert!(matches!(
            arrival_interval(&steep),
            Err(PwlError::NotIncreasing { .. })
        ));
        assert!(matches!(
            compose_travel_into(&mut scratch, &steep, &t2),
            Err(PwlError::NotIncreasing { .. })
        ));
    }

    /// A continuous function through `xs` with slopes drawn from
    /// `slopes`.
    fn continuous(rng: &mut StdRng, xs: Vec<f64>, slopes: std::ops::Range<f64>) -> Pwl {
        let mut y = rng.gen_range(0.0..10.0);
        let mut fs = Vec::with_capacity(xs.len() - 1);
        for w in xs.windows(2) {
            let a = rng.gen_range(slopes.clone());
            fs.push(Linear { a, b: y - a * w[0] });
            y += a * (w[1] - w[0]);
        }
        Pwl::new(xs, fs).unwrap()
    }

    /// The tolerance [`crate::definitely_lt`] and the dedupe apply
    /// around `x`.
    fn tol(x: f64) -> f64 {
        crate::EPS * (1.0 + x.abs())
    }

    /// A stored function around the window `[lo, hi]`: its domain ends
    /// on the window's, a hair inside them (the window escapes), or
    /// well outside; its knots fall at random, on the window's ends
    /// and half / one-and-a-bit / one-and-a-half tolerances off them,
    /// and now and then as an [`crate::EPS`]-close pair anywhere.
    fn stored_around(rng: &mut StdRng, lo: f64, hi: f64) -> Pwl {
        let mut end = |at: f64, outward: f64| match rng.gen_range(0u32..10) {
            0 => at,
            1 => at - outward * 0.5 * tol(at),
            2 => at - outward * rng.gen_range(0.01..0.5) * (hi - lo),
            _ => at + outward * rng.gen_range(0.5..60.0),
        };
        let (mut d_lo, mut d_hi) = (end(lo, -1.0), end(hi, 1.0));
        if d_lo >= d_hi {
            (d_lo, d_hi) = (lo - 1.0, hi + 1.0);
        }
        let mut knots = vec![d_lo, d_hi];
        for _ in 0..rng.gen_range(0usize..7) {
            knots.push(rng.gen_range(d_lo..d_hi));
        }
        let offsets = [0.0, 0.5, -0.5, 1.001, -1.001, 1.5, -1.5, 3.0, -3.0];
        for at in [lo, hi] {
            if rng.gen_bool(0.6) {
                knots.push(at + offsets[rng.gen_range(0..offsets.len())] * tol(at));
            }
        }
        if rng.gen_bool(0.25) {
            let q = rng.gen_range(d_lo..d_hi);
            let gap = [1e-9, 0.5 * tol(q), 0.99 * tol(q)][rng.gen_range(0usize..3)];
            knots.extend([q, q + gap]);
        }
        knots.retain(|&k| (d_lo..=d_hi).contains(&k));
        knots.sort_by(f64::total_cmp);
        knots.dedup();
        continuous(rng, knots, -0.5..2.0)
    }

    #[test]
    fn window_kernel_matches_restrict_then_compose() {
        let mut rng = StdRng::seed_from_u64(0x71D0);
        let (mut view, mut oracle) = (PwlScratch::new(), PwlScratch::new());
        let mut verdicts = [0usize; 2];
        for case in 0..12_000 {
            // T₁: one to five pieces; every eighth barely FIFO over a
            // short interval, so its arrival window is degenerate.
            let x0 = rng.gen_range(0.0..1300.0);
            let t1 = if case % 8 == 7 {
                let a = -1.0 + rng.gen_range(2e-7..1e-5);
                let iv = Interval::of(x0, x0 + rng.gen_range(1e-3..1.0));
                Pwl::linear(iv, Linear { a, b: 5.0 - a * x0 }).unwrap()
            } else {
                let mut xs = vec![x0];
                for _ in 0..rng.gen_range(1usize..=5) {
                    xs.push(xs[xs.len() - 1] + rng.gen_range(0.05..40.0));
                }
                continuous(&mut rng, xs, -0.9..2.0)
            };
            let arrivals = Arrivals::of(&t1).unwrap();
            let (lo, hi) = (arrivals.interval().lo(), arrivals.interval().hi());
            // The stored function: one piece every sixth case.
            let full = if case % 6 == 5 {
                let iv = Interval::of(lo - rng.gen_range(0.0..2.0), hi + rng.gen_range(0.0..2.0));
                Pwl::constant(iv, 3.0).unwrap()
            } else {
                stored_around(&mut rng, lo, hi)
            };

            let got = compose_travel_window_into(&mut view, &t1, &full, &arrivals).unwrap();
            // Packed into one allocation, the same bits and verdict.
            let packed = crate::PackedPwl::from(&full);
            let from_packed = compose_travel_window_into(&mut view, &t1, &packed, &arrivals);
            assert_eq!(
                from_packed.unwrap().as_ref().map(bits),
                got.as_ref().map(bits),
                "case {case}: packed\n{t1:?}\n{full:?}"
            );
            // The copy: restrict, then compose. The view must answer
            // exactly when the window sits inside the stored domain and
            // the restriction's dedupe dropped none of the knots its
            // filters kept.
            let dom = full.domain();
            let inside = dom.lo() <= lo && hi <= dom.hi();
            let kept = full.breakpoints().iter();
            let kept =
                kept.filter(|&&x| crate::definitely_lt(lo, x) && crate::definitely_lt(x, hi));
            let copy = full.restrict_with(&mut oracle, arrivals.interval()).ok();
            let structural = copy
                .as_ref()
                .is_some_and(|r| inside && r.breakpoints().len() == kept.count() + 2);
            assert_eq!(
                got.is_some(),
                structural,
                "case {case}: verdict\n{t1:?}\n{full:?}"
            );
            verdicts[usize::from(got.is_some())] += 1;
            if let (Some(got), Some(copy)) = (got, copy) {
                let want = compose_travel_into(&mut oracle, &t1, &copy).unwrap();
                assert_eq!(bits(&got), bits(&want), "case {case}\n{t1:?}\n{full:?}");
                view.recycle(got);
                oracle.recycle(want);
                oracle.recycle(copy);
            }
        }
        // Both verdicts are exercised, neither marginally.
        assert!(verdicts[0] > 1_000 && verdicts[1] > 1_000, "{verdicts:?}");
    }

    #[test]
    fn window_kernel_declines_exactly_the_three_cases() {
        // A stored day with one EPS-close knot pair, at 08:00.
        let knots = vec![0.0, 420.0, 480.0, 480.0 + 1e-9, 570.0, 1440.0];
        let day = continuous(&mut StdRng::seed_from_u64(1), knots, -0.5..0.5);
        let mut scratch = PwlScratch::new();
        let mut ask_from = |t1: Pwl| {
            let arrivals = Arrivals::of(&t1).unwrap();
            let (lo, hi) = (arrivals.interval().lo(), arrivals.interval().hi());
            let got = compose_travel_window_into(&mut scratch, &t1, &day, &arrivals).unwrap();
            if let Some(got) = &got {
                let copy = day.restrict(arrivals.interval()).unwrap();
                let want = compose_travel_into(&mut PwlScratch::new(), &t1, &copy).unwrap();
                assert_eq!(bits(got), bits(&want), "[{lo}, {hi}]");
            }
            got.is_some()
        };
        let mut ask = |lo, hi| ask_from(Pwl::constant(Interval::of(lo, hi), 0.0).unwrap());
        // the whole day, and windows clear of the close pair
        assert!(!ask(0.0, 1440.0), "the close pair is inside");
        assert!(ask(0.0, 470.0));
        assert!(ask(500.0, 1440.0));
        assert!(ask(430.0, 479.0));
        // the pair inside the window; on its end the filter drops it
        assert!(!ask(430.0, 500.0));
        assert!(ask(480.0, 500.0));
        assert!(ask(430.0, 480.0));
        // past midnight, a later day, before the stored day
        assert!(!ask(1400.0, 1450.0));
        assert!(!ask(1440.0 + 430.0, 1440.0 + 470.0));
        assert!(!ask(-5.0, 60.0));
        // a barely-FIFO parent: a minute of leaving, a degenerate
        // window of arriving
        let crawl = Linear {
            a: -1.0 + 1e-6,
            b: 700.0,
        };
        assert!(!ask_from(
            Pwl::linear(Interval::of(600.0, 601.0), crawl).unwrap()
        ));
    }

    #[test]
    fn compound_with_constant_edge_adds_constant() {
        let t1 = paper_t1();
        let t2 = Pwl::constant(Interval::of(hm(6, 0), hm(9, 0)), 4.0).unwrap();
        let t = compose_travel(&t1, &t2).unwrap().simplify();
        for l in [hm(6, 50), hm(6, 57), hm(7, 5)] {
            assert!(approx_eq(t.eval(l), t1.eval(l) + 4.0));
        }
        assert_eq!(t.n_pieces(), t1.simplify().n_pieces());
    }
}
