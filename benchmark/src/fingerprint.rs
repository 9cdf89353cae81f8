//! Answer fingerprints: the correctness gate compares every answer
//! bit-for-bit against the in-memory flat reference without keeping
//! either answer around.

use allfp::{AllFpAnswer, FastestPath};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn path(&mut self, path: &FastestPath) {
        self.word(path.nodes.len() as u64);
        for n in &path.nodes {
            self.word(u64::from(n.0));
        }
        let travel = path.travel.as_ref();
        self.word(travel.n_pieces() as u64);
        for &x in travel.breakpoints() {
            self.float(x);
        }
        for lin in travel.linears() {
            self.float(lin.a);
            self.float(lin.b);
        }
    }
}

/// Everything an allFP answer says, as one word: the partition
/// boundaries, and for each sub-interval its path's node sequence and
/// the bits of its travel-time function. Search statistics are left
/// out, so backends that search differently but answer identically
/// agree.
pub fn all_fp(answer: &AllFpAnswer) -> u64 {
    let mut h = Fnv::new();
    h.word(answer.partition.len() as u64);
    for (interval, idx) in &answer.partition {
        h.float(interval.lo());
        h.float(interval.hi());
        match answer.paths.get(*idx) {
            Some(path) => h.path(path),
            None => h.word(u64::MAX),
        }
    }
    h.0
}

/// What the gate remembers of one reference answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// [`all_fp`] of the reference allFP answer.
    pub all: u64,
    /// Minimum of its lower border: what singleFP must return.
    pub border_min: f64,
}

impl Reference {
    /// Fingerprint a reference answer.
    pub fn of(answer: &AllFpAnswer) -> Self {
        Reference {
            all: all_fp(answer),
            border_min: answer.lower_border.min_value(),
        }
    }

    /// Does a singleFP travel time equal the allFP border minimum?
    /// Same tolerance as the repo's own consistency suite: the two
    /// searches stop at different points, so the last bits may differ.
    pub fn single_matches(&self, travel_minutes: f64) -> bool {
        (travel_minutes - self.border_min).abs() <= 1e-6 * (1.0 + self.border_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allfp::{Engine, EngineConfig, QuerySpec};
    use pwl::time::hm;
    use pwl::Interval;
    use roadnet::examples::paper_running_example;
    use traffic::DayCategory;

    fn paper_answer(lo: f64) -> AllFpAnswer {
        let (net, ids) = paper_running_example();
        let engine = Engine::for_network(&net, EngineConfig::default()).unwrap();
        let q = QuerySpec::new(
            ids.s,
            ids.e,
            Interval::of(lo, hm(7, 5)),
            DayCategory::WORKDAY,
        );
        engine.all_fastest_paths(&q).unwrap()
    }

    #[test]
    fn equal_answers_share_a_fingerprint() {
        assert_eq!(
            all_fp(&paper_answer(hm(6, 50))),
            all_fp(&paper_answer(hm(6, 50)))
        );
    }

    #[test]
    fn any_changed_bit_changes_the_fingerprint() {
        let a = paper_answer(hm(6, 50));
        assert_ne!(all_fp(&a), all_fp(&paper_answer(hm(6, 51))));

        let mut moved = a.clone();
        moved.partition[0].0 = Interval::of(hm(6, 50), hm(6, 58));
        assert_ne!(all_fp(&a), all_fp(&moved));

        let mut rerouted = a.clone();
        rerouted.paths[0].nodes.reverse();
        assert_ne!(all_fp(&a), all_fp(&rerouted));
    }

    #[test]
    fn stats_do_not_enter_the_fingerprint() {
        let a = paper_answer(hm(6, 50));
        let mut b = a.clone();
        b.stats.expanded_paths += 99;
        assert_eq!(all_fp(&a), all_fp(&b));
    }

    #[test]
    fn single_fp_gate_uses_the_border_minimum() {
        let r = Reference::of(&paper_answer(hm(6, 50)));
        assert!((r.border_min - 5.0).abs() < 1e-9);
        assert!(r.single_matches(5.0));
        assert!(!r.single_matches(5.01));
    }
}
