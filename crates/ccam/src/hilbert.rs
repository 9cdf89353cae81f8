//! Hilbert curve ordering.
//!
//! CCAM generates a one-dimensional ordering of nodes from the Hilbert
//! values of their locations (§2.2) and clusters along it. This is the
//! classic integer Hilbert transform on a `2ᵏ × 2ᵏ` grid.

use roadnet::Point;

/// Order of the Hilbert grid used for node ordering (2¹⁶ cells per
/// axis — far below a foot of spatial resolution at county scale).
pub const HILBERT_ORDER: u32 = 16;

/// Map grid coordinates `(x, y)` on a `2^order` grid to the Hilbert
/// distance.
pub fn hilbert_xy2d(order: u32, mut x: u32, mut y: u32) -> u64 {
    let n = 1u32 << order;
    debug_assert!(x < n && y < n);
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s = n / 2;
    while s > 0 {
        rx = u32::from((x & s) > 0);
        ry = u32::from((y & s) > 0);
        d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
        // rotate quadrant (canonical form: reflect within the full grid)
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`hilbert_xy2d`].
pub fn hilbert_d2xy(order: u32, d: u64) -> (u32, u32) {
    let n = 1u64 << order;
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s = 1u64;
    while s < n {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        // rotate quadrant
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// The bounding-box normalization that maps points onto the Hilbert
/// grid: one frame computed over *all* points, then applied per point.
#[derive(Debug, Clone, Copy)]
struct HilbertFrame {
    min_x: f64,
    min_y: f64,
    span_x: f64,
    span_y: f64,
}

impl HilbertFrame {
    /// Frame over the bounding box of `points` (`None` when empty).
    fn of(points: &[Point]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        Some(HilbertFrame {
            min_x,
            min_y,
            span_x: (max_x - min_x).max(1e-9),
            span_y: (max_y - min_y).max(1e-9),
        })
    }

    /// Hilbert key of `p` on the `2^HILBERT_ORDER` grid of this frame.
    fn key(&self, p: Point) -> u64 {
        let cells = f64::from((1u32 << HILBERT_ORDER) - 1);
        let gx = (((p.x - self.min_x) / self.span_x) * cells).round() as u32;
        let gy = (((p.y - self.min_y) / self.span_y) * cells).round() as u32;
        hilbert_xy2d(HILBERT_ORDER, gx, gy)
    }
}

/// Sort indices of `points` by the Hilbert value of each point within
/// the bounding box of all points.
///
/// The order is the lexicographic `(key, index)` order — ties
/// (coincident cells) break by original index — so it is **total and
/// deterministic**: the same point set yields the same permutation on
/// every run and every platform (pinned by the
/// `order_is_deterministic_and_tie_broken_by_index` property test).
/// Downstream page packing inherits byte-identical layouts from this
/// invariant.
pub fn hilbert_order(points: &[Point]) -> Vec<usize> {
    let Some(frame) = HilbertFrame::of(points) else {
        return Vec::new();
    };
    let mut keyed: Vec<(u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (frame.key(*p), i))
        .collect();
    // The pairs are distinct (the index is), so an unstable sort is
    // already total and needs no merge buffer beside the keys.
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d2xy_round_trips() {
        for order in [2u32, 4, 8] {
            let n = 1u64 << (2 * order);
            let step = (n / 64).max(1);
            let mut d = 0;
            while d < n {
                let (x, y) = hilbert_d2xy(order, d);
                assert_eq!(hilbert_xy2d(order, x, y), d, "order {order} d {d}");
                d += step;
            }
        }
    }

    #[test]
    fn curve_is_contiguous() {
        // consecutive d values are grid neighbors (the defining
        // property of a Hilbert curve)
        let order = 4;
        for d in 0..(1u64 << (2 * order)) - 1 {
            let (x0, y0) = hilbert_d2xy(order, d);
            let (x1, y1) = hilbert_d2xy(order, d + 1);
            let dist =
                (i64::from(x0) - i64::from(x1)).abs() + (i64::from(y0) - i64::from(y1)).abs();
            assert_eq!(dist, 1, "jump at d={d}");
        }
    }

    #[test]
    fn curve_visits_every_cell_once() {
        let order = 3;
        let n = 1u64 << (2 * order);
        let mut seen = vec![false; n as usize];
        for d in 0..n {
            let (x, y) = hilbert_d2xy(order, d);
            let idx = (u64::from(y) * (1 << order) + u64::from(x)) as usize;
            assert!(!seen[idx]);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn order_keeps_near_points_near() {
        // a line of points: hilbert order along a line should visit them
        // monotonically (either direction)
        let pts: Vec<Point> = (0..32)
            .map(|i| Point {
                x: i as f64,
                y: 0.0,
            })
            .collect();
        let order = hilbert_order(&pts);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        let increasing = order.windows(2).all(|w| w[1] > w[0]);
        let decreasing = order.windows(2).all(|w| w[1] < w[0]);
        assert!(increasing || decreasing, "{order:?}");
    }

    #[test]
    fn order_handles_degenerate_inputs() {
        assert!(hilbert_order(&[]).is_empty());
        let same = vec![Point { x: 1.0, y: 1.0 }; 5];
        let order = hilbert_order(&same);
        assert_eq!(order, vec![0, 1, 2, 3, 4]); // tie-break by index
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Random point clouds with deliberate duplicates (every point
        /// has a coin-flip chance of being a copy of an earlier one),
        /// so the tie-break path is exercised on most cases.
        fn arb_points() -> impl Strategy<Value = Vec<Point>> {
            prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0usize..1000), 1..200).prop_map(
                |raw| {
                    let mut pts: Vec<Point> = Vec::with_capacity(raw.len());
                    for (x, y, dup) in raw {
                        if dup % 2 == 0 && !pts.is_empty() {
                            pts.push(pts[dup % pts.len()]);
                        } else {
                            pts.push(Point { x, y });
                        }
                    }
                    pts
                },
            )
        }

        proptest! {
            /// The pinned tie-breaking contract: `hilbert_order` is a
            /// permutation, sorted by `(key, index)` — equal keys keep
            /// ascending index order — and recomputing it (including
            /// from a reversed copy mapped back) reproduces the exact
            /// same permutation.
            #[test]
            fn order_is_deterministic_and_tie_broken_by_index(pts in arb_points()) {
                let order = hilbert_order(&pts);
                let mut seen = vec![false; pts.len()];
                for &i in &order {
                    prop_assert!(!seen[i], "index {i} visited twice");
                    seen[i] = true;
                }
                prop_assert!(seen.iter().all(|&s| s), "not a permutation");

                let frame = HilbertFrame::of(&pts).unwrap();
                let keys: Vec<u64> = pts.iter().map(|p| frame.key(*p)).collect();
                for w in order.windows(2) {
                    prop_assert!(
                        (keys[w[0]], w[0]) < (keys[w[1]], w[1]),
                        "(key, index) order violated at {} -> {}", w[0], w[1]
                    );
                }

                prop_assert_eq!(&order, &hilbert_order(&pts));
            }
        }
    }
}
