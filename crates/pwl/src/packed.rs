//! A stored function laid out for reading: knots and pieces side by
//! side in one shared allocation.

use std::sync::Arc;

use crate::compose::Knots;
use crate::{Linear, Pwl, PwlScratch};

/// A [`Pwl`] packed for a long life of reads, such as an edge's stored
/// day function: its `n + 1` breakpoints, then its `n` pieces as
/// `(a, b)` pairs, in one reference-counted allocation.
///
/// A holder reaches the knots in one load, where an `Arc<Pwl>` takes
/// two (the shared header, then each of its buffers); the breakpoints
/// stay dense for the window's binary search, and the pieces follow
/// them. Clones share the allocation.
/// [`compose_travel_window_into`](crate::compose_travel_window_into)
/// reads it as it reads the `Pwl` it was packed from, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedPwl {
    /// `x₀ … xₙ`, then `a₀, b₀, …, aₙ₋₁, bₙ₋₁`.
    words: Arc<[f64]>,
}

impl From<&Pwl> for PackedPwl {
    fn from(f: &Pwl) -> PackedPwl {
        let pieces = f.linears().iter().flat_map(|l| [l.a, l.b]);
        PackedPwl {
            words: f.breakpoints().iter().copied().chain(pieces).collect(),
        }
    }
}

impl PackedPwl {
    /// The breakpoints and the pieces' coefficients.
    #[inline]
    fn split(&self) -> (&[f64], &[f64]) {
        self.words.split_at(Knots::n_pieces(self) + 1)
    }

    /// The function it was packed from, bit for bit, in buffers from
    /// `scratch`'s pool.
    pub fn unpack_with(&self, scratch: &mut PwlScratch) -> Pwl {
        let (knots, pieces) = self.split();
        let (mut xs, mut fs) = scratch.take_buffers();
        xs.extend_from_slice(knots);
        fs.extend(pieces.chunks_exact(2).map(|p| Linear { a: p[0], b: p[1] }));
        Pwl::from_sorted_parts(xs, fs)
    }
}

impl Knots for PackedPwl {
    #[inline]
    fn n_pieces(&self) -> usize {
        (self.words.len() - 1) / 3
    }

    #[inline]
    fn knot(&self, k: usize) -> f64 {
        self.split().0[k]
    }

    #[inline]
    fn piece(&self, k: usize) -> Linear {
        let pieces = self.split().1;
        Linear {
            a: pieces[2 * k],
            b: pieces[2 * k + 1],
        }
    }

    #[inline]
    fn partition_point(&self, mut below: impl FnMut(f64) -> bool) -> usize {
        self.split().0.partition_point(|&x| below(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips_bit_for_bit() {
        let f = Pwl::from_points(&[(0.0, 3.0), (420.0, 3.0), (480.0, 7.5), (1440.0, 3.0)]).unwrap();
        let packed = PackedPwl::from(&f);
        assert_eq!(Knots::n_pieces(&packed), f.n_pieces());
        let mut scratch = PwlScratch::new();
        assert_eq!(packed.unpack_with(&mut scratch), f);
        // Clones share the one allocation.
        assert!(Arc::ptr_eq(&packed.clone().words, &packed.words));
    }
}
