//! Tagged lower envelopes — the paper's *lower border function* (§4.6).
//!
//! As `IntAllFastestPaths` identifies paths that reach the end node, it
//! folds each path's travel-time function into a running lower
//! envelope. Every envelope piece remembers *which* path produced it,
//! so the allFP answer — a partitioning of the query interval into
//! sub-intervals, each with its fastest path — is read off the envelope
//! directly.

use crate::scratch::{PwlRef, PwlScratch};
use crate::{approx_le, definitely_lt, Interval, Linear, Pwl, PwlError, Result};

/// One piece of an [`Envelope`]: a sub-interval, the linear function on
/// it, and the tag (path) that owns it.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopePiece<T> {
    /// Sub-interval of the envelope domain.
    pub interval: Interval,
    /// The linear function on this sub-interval.
    pub linear: Linear,
    /// Tag of the function contributing this piece.
    pub tag: T,
}

/// The lower envelope of a set of piecewise-linear functions over a
/// common domain, with per-piece provenance tags.
///
/// Ties are broken in favour of the **earlier-inserted** function,
/// matching the paper's semantics where the first identified path keeps
/// its sub-interval unless a strictly faster path appears.
///
/// The envelope function is held as a [`PwlRef`], so an envelope can be
/// seeded from a shared `Arc<Pwl>` without deep-copying it; merging
/// always produces an owned function. Retired buffers are kept as
/// internal spares, making repeated [`merge_min_with`](Self::merge_min_with)
/// calls allocation-free once warm.
#[derive(Debug)]
pub struct Envelope<T> {
    pwl: PwlRef,
    tags: Vec<T>, // one per piece of `pwl`
    spare: Spare<T>,
}

/// Retired buffers from the previous merge, reused by the next one.
/// Never observable: always empty outside [`Envelope::merge_min_with`].
#[derive(Debug)]
struct Spare<T> {
    xs: Vec<f64>,
    fs: Vec<Linear>,
    tags: Vec<T>,
}

impl<T> Default for Spare<T> {
    fn default() -> Self {
        Spare {
            xs: Vec::new(),
            fs: Vec::new(),
            tags: Vec::new(),
        }
    }
}

impl<T: Clone> Clone for Envelope<T> {
    /// Clones function and tags; spare buffer capacity is not carried
    /// over.
    fn clone(&self) -> Self {
        Envelope {
            pwl: self.pwl.clone(),
            tags: self.tags.clone(),
            spare: Spare::default(),
        }
    }
}

impl<T: PartialEq> PartialEq for Envelope<T> {
    /// Compares the envelope function (by value, regardless of owned vs
    /// shared storage) and the tags; spare buffers are ignored.
    fn eq(&self, other: &Self) -> bool {
        self.pwl == other.pwl && self.tags == other.tags
    }
}

impl<T: Clone + PartialEq> Envelope<T> {
    /// Start an envelope from a single function — owned or shared
    /// (`Pwl`, `Arc<Pwl>`, or `PwlRef`).
    pub fn new(f: impl Into<PwlRef>, tag: T) -> Self {
        let pwl = f.into();
        let n = pwl.n_pieces();
        Envelope {
            pwl,
            tags: vec![tag; n],
            spare: Spare::default(),
        }
    }

    /// The envelope as a plain [`Pwl`].
    #[inline]
    pub fn as_pwl(&self) -> &Pwl {
        self.pwl.as_pwl()
    }

    /// Domain of the envelope.
    #[inline]
    pub fn domain(&self) -> Interval {
        self.pwl.domain()
    }

    /// Envelope value at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.pwl.eval(x)
    }

    /// Maximum value of the envelope over its domain — the paper's
    /// termination threshold: expansion stops when the smallest
    /// priority-queue minimum reaches this.
    pub fn max_value(&self) -> f64 {
        self.pwl.maximum()
    }

    /// Minimum value of the envelope over its domain.
    pub fn min_value(&self) -> f64 {
        self.pwl.minimum().value
    }

    /// Iterate the envelope pieces in order.
    pub fn pieces(&self) -> impl Iterator<Item = EnvelopePiece<&T>> + '_ {
        self.pwl
            .pieces()
            .zip(self.tags.iter())
            .map(|((interval, linear), tag)| EnvelopePiece {
                interval,
                linear: *linear,
                tag,
            })
    }

    /// The partitioning of the domain into maximal runs of equal tag —
    /// the shape of an allFP answer: consecutive sub-intervals, each
    /// owned by one function, adjacent sub-intervals owned by different
    /// functions.
    pub fn partition(&self) -> Vec<(Interval, T)> {
        let mut out: Vec<(Interval, T)> = Vec::new();
        for p in self.pieces() {
            match out.last_mut() {
                Some((iv, tag)) if tag == p.tag => *iv = iv.hull(&p.interval),
                _ => out.push((p.interval, p.tag.clone())),
            }
        }
        out
    }

    /// Fold another function into the envelope, keeping the pointwise
    /// minimum. `f` must cover the envelope's domain.
    ///
    /// Convenience wrapper over [`merge_min_with`](Self::merge_min_with)
    /// with a throwaway cold scratch — identical result, per-call
    /// workspace allocations.
    pub fn merge_min(&mut self, f: &Pwl, tag: T) -> Result<()> {
        let mut scratch = PwlScratch::new();
        self.merge_min_with(&mut scratch, f, tag)
    }

    /// [`merge_min`](Self::merge_min) with pooled buffers: the
    /// elementary subdivision lives in `scratch` and the rebuilt
    /// envelope double-buffers against the previous merge's retired
    /// arrays, so steady-state merging is allocation-free.
    ///
    /// Equivalent to the fold-then-coalesce formulation bit for bit:
    /// pieces are coalesced while being appended, and at the moment a
    /// piece is appended the last kept breakpoint equals that piece's
    /// raw span start, so each collinearity test sees exactly the span
    /// a post-hoc coalesce pass would use.
    pub fn merge_min_with(&mut self, scratch: &mut PwlScratch, f: &Pwl, tag: T) -> Result<()> {
        let domain = self.domain();
        if !f.domain().covers(&domain) {
            return Err(PwlError::DomainMismatch {
                left: f.domain(),
                right: domain,
            });
        }

        // Elementary subdivision: both current envelope and `f` are
        // single lines on each cell; a cell splits at most once where
        // the two lines cross.
        crate::pwl::merged_breakpoints_into(scratch, &[self.pwl.as_pwl(), f], &domain);
        let mut new_xs = std::mem::take(&mut self.spare.xs);
        let mut new_fs = std::mem::take(&mut self.spare.fs);
        let mut new_tags = std::mem::take(&mut self.spare.tags);
        new_xs.clear();
        new_fs.clear();
        new_tags.clear();
        new_xs.push(domain.lo());

        // Append a piece ending at `hi`, extending the previous piece
        // instead when it has the same tag and the same line over the
        // new piece's raw span (the inline coalesce).
        let push = |hi: f64,
                    lin: Linear,
                    t: T,
                    new_xs: &mut Vec<f64>,
                    new_fs: &mut Vec<Linear>,
                    new_tags: &mut Vec<T>| {
            if let (Some(pf), Some(pt)) = (new_fs.last(), new_tags.last()) {
                let span = Interval::of(new_xs[new_xs.len() - 1], hi);
                if *pt == t && pf.approx_same_over(&lin, &span) {
                    let last = new_xs.len() - 1;
                    new_xs[last] = hi;
                    return;
                }
            }
            new_xs.push(hi);
            new_fs.push(lin);
            new_tags.push(t);
        };

        // Cell midpoints ascend, so locate the covering piece of each
        // function with an advancing cursor instead of a binary search
        // per cell (same indices `piece_index_at` would return).
        let e_pwl = self.pwl.as_pwl();
        let (e_xs, e_lins) = (e_pwl.breakpoints(), e_pwl.linears());
        let (f_xs, f_lins) = (f.breakpoints(), f.linears());
        let (mut ei, mut fi) = (0usize, 0usize);
        for w in scratch.knots.windows(2) {
            let cell = Interval::of(w[0], w[1]);
            let mid = cell.mid();
            while ei + 1 < e_lins.len() && e_xs[ei + 1] <= mid {
                ei += 1;
            }
            let (e_lin, e_tag) = (e_lins[ei], self.tags[ei].clone());
            while fi + 1 < f_lins.len() && f_xs[fi + 1] <= mid {
                fi += 1;
            }
            let f_lin = f_lins[fi];

            match e_lin.intersection_within(&f_lin, &cell) {
                Some(x) => {
                    // Lines cross strictly inside the cell: the lower one
                    // flips at x.
                    let e_lower_left = definitely_lt(e_lin.eval(cell.lo()), f_lin.eval(cell.lo()))
                        || approx_le(e_lin.eval(cell.lo()), f_lin.eval(cell.lo()));
                    if e_lower_left {
                        push(
                            x,
                            e_lin,
                            e_tag.clone(),
                            &mut new_xs,
                            &mut new_fs,
                            &mut new_tags,
                        );
                        push(
                            cell.hi(),
                            f_lin,
                            tag.clone(),
                            &mut new_xs,
                            &mut new_fs,
                            &mut new_tags,
                        );
                    } else {
                        push(
                            x,
                            f_lin,
                            tag.clone(),
                            &mut new_xs,
                            &mut new_fs,
                            &mut new_tags,
                        );
                        push(
                            cell.hi(),
                            e_lin,
                            e_tag,
                            &mut new_xs,
                            &mut new_fs,
                            &mut new_tags,
                        );
                    }
                }
                None => {
                    // No interior crossing: one line is ≤ the other on the
                    // whole cell (compare at the midpoint). Ties keep the
                    // existing envelope piece.
                    if approx_le(e_lin.eval(mid), f_lin.eval(mid)) {
                        push(
                            cell.hi(),
                            e_lin,
                            e_tag,
                            &mut new_xs,
                            &mut new_fs,
                            &mut new_tags,
                        );
                    } else {
                        push(
                            cell.hi(),
                            f_lin,
                            tag.clone(),
                            &mut new_xs,
                            &mut new_fs,
                            &mut new_tags,
                        );
                    }
                }
            }
        }

        // The coalescing append keeps breakpoints strictly increasing;
        // skip the re-validation passes (debug builds still check).
        let new_pwl = Pwl::from_sorted_parts(new_xs, new_fs);
        // Retire the previous envelope's buffers as the next merge's
        // spares (a shared function just drops its reference).
        let old = std::mem::replace(&mut self.pwl, PwlRef::Owned(new_pwl));
        if let PwlRef::Owned(p) = old {
            let (xs, fs) = p.into_parts();
            self.spare.xs = xs;
            self.spare.fs = fs;
            self.spare.xs.clear();
            self.spare.fs.clear();
        }
        self.spare.tags = std::mem::replace(&mut self.tags, new_tags);
        self.spare.tags.clear();
        Ok(())
    }

    /// Retire this envelope's buffers into `scratch` so a later query
    /// on the same worker can reuse their capacity.
    pub fn recycle_into(self, scratch: &mut PwlScratch) {
        scratch.recycle_ref(self.pwl);
        scratch.recycle_buffers(self.spare.xs, self.spare.fs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::time::{hm, hms};

    #[test]
    fn single_function_envelope() {
        let f = Pwl::constant(Interval::of(0.0, 10.0), 5.0).unwrap();
        let env = Envelope::new(f, "a");
        assert!(approx_eq(env.max_value(), 5.0));
        assert!(approx_eq(env.min_value(), 5.0));
        assert_eq!(env.partition(), vec![(Interval::of(0.0, 10.0), "a")]);
    }

    #[test]
    fn merge_constant_below_takes_over() {
        let f = Pwl::constant(Interval::of(0.0, 10.0), 5.0).unwrap();
        let mut env = Envelope::new(f, "a");
        let g = Pwl::constant(Interval::of(0.0, 10.0), 3.0).unwrap();
        env.merge_min(&g, "b").unwrap();
        assert!(approx_eq(env.max_value(), 3.0));
        assert_eq!(env.partition(), vec![(Interval::of(0.0, 10.0), "b")]);
    }

    #[test]
    fn merge_ties_keep_existing() {
        let f = Pwl::constant(Interval::of(0.0, 10.0), 5.0).unwrap();
        let mut env = Envelope::new(f.clone(), "a");
        env.merge_min(&f, "b").unwrap();
        assert_eq!(env.partition(), vec![(Interval::of(0.0, 10.0), "a")]);
    }

    #[test]
    fn merge_crossing_splits_cell() {
        // envelope: x on [0,10]; merge 10 − x → crossing at 5
        let f = Pwl::identity(Interval::of(0.0, 10.0)).unwrap();
        let mut env = Envelope::new(f, "up");
        let g = Pwl::from_points(&[(0.0, 10.0), (10.0, 0.0)]).unwrap();
        env.merge_min(&g, "down").unwrap();
        let parts = env.partition();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1, "up");
        assert!(parts[0].0.approx_eq(&Interval::of(0.0, 5.0)));
        assert_eq!(parts[1].1, "down");
        assert!(parts[1].0.approx_eq(&Interval::of(5.0, 10.0)));
        assert!(approx_eq(env.eval(0.0), 0.0));
        assert!(approx_eq(env.eval(5.0), 5.0));
        assert!(approx_eq(env.eval(10.0), 0.0));
        assert!(approx_eq(env.max_value(), 5.0));
    }

    #[test]
    fn merge_requires_domain_cover() {
        let f = Pwl::constant(Interval::of(0.0, 10.0), 5.0).unwrap();
        let mut env = Envelope::new(f, 0u32);
        let g = Pwl::constant(Interval::of(2.0, 8.0), 1.0).unwrap();
        assert!(env.merge_min(&g, 1).is_err());
        // wider is fine
        let h = Pwl::constant(Interval::of(-5.0, 15.0), 1.0).unwrap();
        env.merge_min(&h, 2).unwrap();
        assert!(env.domain().approx_eq(&Interval::of(0.0, 10.0)));
    }

    #[test]
    fn reproduces_paper_figure_7() {
        // Envelope of T(s ⇒ n → e) (Figure 5's 4-piece function) and
        // T(s → e) = 6, over I = [6:50, 7:05]. The paper's allFP answer:
        //   s → e       on [6:50, 6:58:30)
        //   s → n → e   on [6:58:30, 7:03:26)
        //   s → e       on [7:03:26, 7:05]
        let via_n = Pwl::from_points(&[
            (hm(6, 50), 9.0),
            (hm(6, 54), 9.0),
            (hm(7, 0), 5.0),
            (hm(7, 3), 5.0),
            (hm(7, 5), 12.0 - (7.0 / 3.0) * 1.0),
        ])
        .unwrap();
        let direct = Pwl::constant(Interval::of(hm(6, 50), hm(7, 5)), 6.0).unwrap();

        // Identification order as in the paper: s ⇒ n → e first.
        let mut env = Envelope::new(via_n, "s->n->e");
        env.merge_min(&direct, "s->e").unwrap();

        let parts = env.partition();
        assert_eq!(parts.len(), 3, "{parts:?}");
        assert_eq!(parts[0].1, "s->e");
        assert_eq!(parts[1].1, "s->n->e");
        assert_eq!(parts[2].1, "s->e");
        assert!(approx_eq(parts[0].0.lo(), hm(6, 50)));
        assert!(approx_eq(parts[0].0.hi(), hms(6, 58, 30)));
        assert!(approx_eq(parts[1].0.hi(), hm(7, 6) - 18.0 / 7.0)); // 7:03:25.7
        assert!(approx_eq(parts[2].0.hi(), hm(7, 5)));
        // termination threshold after both paths identified
        assert!(approx_eq(env.max_value(), 6.0));
    }
}
