//! The one heap entry of the workspace's best-first searches.

use std::cmp::Ordering;

/// A `BinaryHeap` entry that pops the **smallest** `key` first and,
/// among equal keys, the smallest `tie` — a push sequence number (FIFO)
/// or a node id — so the pop order is a function of the pushed set
/// alone. `item` rides along and takes no part in the order.
#[derive(Debug, Clone, Copy)]
pub struct MinEntry<T, I = ()> {
    /// The priority: a travel time, distance or `f = g + h` value.
    pub key: f64,
    /// Decides between equal keys.
    pub tie: T,
    /// What the entry stands for, when `tie` does not already say.
    pub item: I,
}

impl<T> MinEntry<T> {
    /// An entry whose `tie` is all it carries.
    pub fn new(key: f64, tie: T) -> Self {
        MinEntry { key, tie, item: () }
    }
}

impl<T: Ord, I> Ord for MinEntry<T, I> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap. `total_cmp` orders even
        // a NaN key (impossible by construction — every key is a sum of
        // finite travel times and bounds) deterministically instead of
        // panicking a worker.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

impl<T: Ord, I> PartialOrd for MinEntry<T, I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord, I> PartialEq for MinEntry<T, I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T: Ord, I> Eq for MinEntry<T, I> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_by_key_then_tie_ignoring_the_item() {
        let mut heap = BinaryHeap::new();
        for (key, tie, item) in [
            (2.0, 0u64, 'a'),
            (1.0, 2, 'b'),
            (1.0, 1, 'z'),
            (f64::NAN, 3, 'n'),
        ] {
            heap.push(MinEntry { key, tie, item });
        }
        let order: Vec<char> = std::iter::from_fn(|| heap.pop()).map(|e| e.item).collect();
        assert_eq!(order, ['z', 'b', 'a', 'n']);
    }
}
