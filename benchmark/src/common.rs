//! What the four workloads share: sizes, query sampling, the
//! closed-loop driver for [`PathfindBackend`] workloads, the
//! reference pass and the replay probes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use allfp::{
    AllFpAnswer, EngineConfig, EstimatorKind, PathfindBackend, QueryOutcome, QuerySpec, QueryStats,
    SingleFpAnswer,
};
use pwl::time::hm;
use pwl::{compose_travel_into, Envelope, Interval, Pwl, PwlScratch};
use roadnet::generators::MetroConfig;
use roadnet::workload::distance_buckets;
use roadnet::{NodeId, RoadNetwork};
use traffic::travel::travel_time_fn;
use traffic::DayCategory;

use crate::fingerprint::{all_fp, Reference};
use crate::metrics::Metrics;
use crate::stats::ratio;

/// Every failure is reported as text and a non-zero exit.
pub type Result<T> = std::result::Result<T, String>;

/// Turn any library error into the benchmark's.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seed of the road network. Fixed: `--seed` varies what is asked, not
/// the network it is asked of.
const NETWORK_SEED: u64 = 0x5EED;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Drives pair sampling and traffic deltas.
    pub seed: u64,
    /// How long the timed loop of a `--trace 0` run measures.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Seconds-scale smoke run over the same code paths.
    pub quick: bool,
    /// Where traces and temporary stores go.
    pub out: PathBuf,
}

/// Sizes of one workload. Constants, chosen once on the reference box
/// (2 cores) and never calibrated at run time: a run asks `per_bucket`
/// pairs per distance bucket. The timed loop of a `--trace 0` run
/// walks them, about eight times over, for `--seconds`; a `--trace 1`
/// run makes exactly one pass, so its counts repeat bit-for-bit.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The generated network.
    pub metro: MetroConfig,
    /// Distance buckets: 1 to `max_miles` miles, ±0.25.
    pub max_miles: usize,
    /// Pairs per bucket a run asks.
    pub per_bucket: usize,
    /// Set-ups timed before the first query of a run, and again after
    /// its last.
    pub setups: usize,
    /// `--quick`: the timed loop is one pass, whatever `--seconds`.
    pub single_pass: bool,
}

impl Plan {
    /// The plan of a workload sized `per_bucket` on metro-medium, or
    /// its `--quick` miniature on metro-small.
    pub fn new(args: &Args, per_bucket: usize, setups: usize) -> Plan {
        if args.quick {
            Plan {
                metro: MetroConfig::small(NETWORK_SEED),
                max_miles: 2,
                per_bucket: 4,
                setups: 1,
                single_pass: true,
            }
        } else {
            Plan {
                metro: MetroConfig::medium(NETWORK_SEED),
                max_miles: 8,
                per_bucket,
                setups,
                single_pass: false,
            }
        }
    }
}

/// The engine configuration of every flat search in the benchmark.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        estimator: EstimatorKind::BoundaryPartitioned { groups: 64 },
        ..EngineConfig::default()
    }
}

/// The queries of one run, asked over the morning rush (07:00–10:00,
/// workday), in round-robin bucket order so every prefix of whole
/// rounds has the same distance mix.
///
/// The pairs are the network's — `per_bucket` per distance bucket,
/// drawn with the network's own seed — and `seed` decides the order
/// they are asked in, by shuffling each bucket: the order is what a
/// buffer pool and a delta schedule see of a query stream. The pairs
/// are not drawn afresh from `seed` because allFP cost is heavy-tailed
/// inside every bucket (3.6 to 39 ms at 8 miles on `ch_rush`), so the
/// p95 of an independent draw moved 7 % between seeds at 1 200 pairs
/// and 14 % at 600, before any host noise, and leaving even one pair
/// in seventeen to the seed moved the p95 of 320 pairs by 12 %: no
/// sample a run can afford holds it to a third of the bound.
pub fn queries(net: &RoadNetwork, plan: &Plan, seed: u64) -> Result<Vec<QuerySpec>> {
    let per_bucket = plan.per_bucket;
    let mut buckets =
        distance_buckets(net, per_bucket, plan.max_miles, 0.25, NETWORK_SEED).map_err(err)?;
    if let Some((miles, pairs)) = buckets.iter().find(|(_, p)| p.len() < per_bucket) {
        return Err(format!(
            "only {} of {per_bucket} pairs found at {miles} miles",
            pairs.len()
        ));
    }
    let mut rng = SplitMix64(seed);
    for (_, pairs) in &mut buckets {
        rng.shuffle(pairs);
    }
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    Ok((0..per_bucket)
        .flat_map(|i| buckets.iter().map(move |(_, pairs)| pairs[i]))
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect())
}

/// Steele, Lea and Flood's SplitMix64: all the randomness the
/// benchmark itself needs is one shuffle per bucket.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates. The modulo bias is below 2⁻⁵⁰ for any slice here.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// What a loop asks and checks against: the queries, their reference
/// fingerprints, and how many consecutive queries make one round (one
/// per distance bucket).
#[derive(Debug, Clone, Copy)]
pub struct Work<'a> {
    /// The queries, in asking order.
    pub queries: &'a [QuerySpec],
    /// `refs[i]` is the reference answer of `queries[i]`.
    pub refs: &'a [Reference],
    /// Queries per round.
    pub round: usize,
}

impl<'a> Work<'a> {
    /// The first `n` queries, rounded down to whole multiples of
    /// `unit` but never below one `unit` (or the whole work, if that
    /// is shorter).
    pub fn prefix(&self, n: usize, unit: usize) -> Work<'a> {
        let n = (n.max(unit) / unit * unit).min(self.queries.len());
        Work {
            queries: &self.queries[..n],
            ..*self
        }
    }

    /// The warm-up of the [`PathfindBackend`] workloads: a quarter of
    /// the pairs already touches nearly every edge of the network, so
    /// it fills the travel-function cache, the scratch pools and (on
    /// disk) the buffer pool before anything is timed.
    pub fn warm_up(&self) -> Work<'a> {
        self.prefix(self.queries.len() / 4, self.round)
    }
}

/// When the timed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Walk the queries, wrapping around, until the time is up; checked
    /// between rounds so every bucket is asked equally often.
    For(Duration),
    /// Exactly one pass over the queries.
    OnePass,
}

impl Limit {
    /// The limit of a run's measured loop.
    pub fn of(args: &Args, plan: &Plan) -> Limit {
        if args.trace || plan.single_pass {
            Limit::OnePass
        } else {
            Limit::For(Duration::from_secs_f64(args.seconds))
        }
    }

    /// Query indices of `work` in asking order: whole rounds, until
    /// the limit is reached.
    pub fn rounds(self, work: &Work<'_>) -> impl Iterator<Item = usize> {
        let started = Instant::now();
        let round = work.round;
        let n_rounds = work.queries.len() / round;
        (0..)
            .take_while(move |&r| match self {
                Limit::OnePass => r < n_rounds,
                Limit::For(d) => started.elapsed() < d,
            })
            .flat_map(move |r| (0..round).map(move |k| (r % n_rounds) * round + k))
    }
}

/// Latencies and the failure count of a measured loop.
///
/// A query's latency is the fastest of its timed passes. What the
/// shared host adds comes in bursts of several seconds that slow
/// everything inside them by 10 to 30 %; a burst is shorter than a
/// pass, so it rarely meets the same query twice, and the fastest pass
/// is the one the host stayed out of. With one pass — every traced
/// run — it is simply the latency.
#[derive(Debug)]
pub struct Samples {
    /// Fastest allFP latency of each query, nanoseconds; [`NOT_ASKED`]
    /// until its first timed pass.
    pub allfp_ns: Vec<u64>,
    /// The same for singleFP.
    pub singlefp_ns: Vec<u64>,
    /// Operations attempted, over all passes.
    pub attempted: u64,
    /// Operations that returned `Err`, a non-exact outcome, or an
    /// answer that disagrees with the reference.
    pub failed: u64,
}

/// The latency of a query the timed loop never reached.
const NOT_ASKED: u64 = u64::MAX;

/// The latencies of the queries that were asked.
fn asked(ns: &[u64]) -> impl Iterator<Item = u64> + '_ {
    ns.iter().copied().filter(|&ns| ns != NOT_ASKED)
}

impl Samples {
    /// No samples yet of `n_queries` queries.
    pub fn of(n_queries: usize) -> Samples {
        Samples {
            allfp_ns: vec![NOT_ASKED; n_queries],
            singlefp_ns: vec![NOT_ASKED; n_queries],
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add the attempts and failures (not the latencies) of another
    /// pass of the same run.
    pub fn count_from(&mut self, other: &Samples) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Sum of the allFP latencies, nanoseconds.
    pub fn allfp_total_ns(&self) -> u64 {
        asked(&self.allfp_ns).sum()
    }

    /// Sum of the singleFP latencies, nanoseconds.
    pub fn singlefp_total_ns(&self) -> u64 {
        asked(&self.singlefp_ns).sum()
    }

    /// Queries with an allFP latency.
    pub fn n_allfp(&self) -> usize {
        asked(&self.allfp_ns).count()
    }

    /// Queries with a singleFP latency.
    pub fn n_singlefp(&self) -> usize {
        asked(&self.singlefp_ns).count()
    }

    /// Sum of all latencies, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.allfp_total_ns() + self.singlefp_total_ns()
    }
}

/// Sums of the search counters over the answered queries of a pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Queries summed.
    pub queries: u64,
    /// Σ `expanded_paths`.
    pub expanded: u64,
    /// Σ `pushed`.
    pub pushed: u64,
    /// Σ `pruned_by_border`.
    pub pruned_border: u64,
    /// Σ `pruned_dominated`.
    pub pruned_dominated: u64,
    /// Σ `border_merges`.
    pub border_merges: u64,
    /// Σ `cache_lookups`.
    pub cache_lookups: u64,
    /// Σ `cache_hits`.
    pub cache_hits: u64,
    /// Σ `pieces_total`.
    pub pieces: u64,
    /// max `pieces_max`.
    pub pieces_max: u64,
    /// Σ `compositions_saved`.
    pub compositions_saved: u64,
}

impl Tally {
    /// Add one answered query's counters.
    pub fn add(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.expanded += s.expanded_paths as u64;
        self.pushed += s.pushed as u64;
        self.pruned_border += s.pruned_by_border as u64;
        self.pruned_dominated += s.pruned_dominated as u64;
        self.border_merges += s.border_merges as u64;
        self.cache_lookups += s.cache_lookups as u64;
        self.cache_hits += s.cache_hits as u64;
        self.pieces += s.pieces_total;
        self.pieces_max = self.pieces_max.max(s.pieces_max);
        self.compositions_saved += s.compositions_saved;
    }

    /// `sum` per query.
    pub fn per_q(&self, sum: u64) -> f64 {
        ratio(sum as f64, self.queries as f64)
    }
}

/// What a measured loop over a [`PathfindBackend`] produced.
#[derive(Debug)]
pub struct Pass {
    /// Latencies and failures.
    pub samples: Samples,
    /// allFP search counters.
    pub allfp: Tally,
    /// singleFP search counters.
    pub singlefp: Tally,
    /// The allFP answers, kept only when asked for (replay probes).
    pub answers: Vec<(usize, AllFpAnswer)>,
}

impl Pass {
    /// Nothing measured yet of `n_queries` queries.
    pub fn of(n_queries: usize) -> Pass {
        Pass {
            samples: Samples::of(n_queries),
            allfp: Tally::default(),
            singlefp: Tally::default(),
            answers: Vec::new(),
        }
    }

    /// Book one allFP operation that took `ns`: `answer` is the exact
    /// answer if there was one, and is kept if `keep`. Returns the
    /// answer's search counters.
    pub fn allfp_done(
        &mut self,
        query: usize,
        ns: u64,
        answer: Option<AllFpAnswer>,
        reference: &Reference,
        keep: bool,
    ) -> Option<QueryStats> {
        let fastest = &mut self.samples.allfp_ns[query];
        *fastest = ns.min(*fastest);
        self.samples
            .count(answer.as_ref().is_some_and(|a| all_fp(a) == reference.all));
        let answer = answer?;
        let stats = answer.stats;
        self.allfp.add(&stats);
        if keep {
            self.answers.push((query, answer));
        }
        Some(stats)
    }

    /// Book one singleFP operation that took `ns`. Returns the
    /// answer's search counters.
    pub fn singlefp_done(
        &mut self,
        query: usize,
        ns: u64,
        answer: Option<SingleFpAnswer>,
        reference: &Reference,
    ) -> Option<QueryStats> {
        let fastest = &mut self.samples.singlefp_ns[query];
        *fastest = ns.min(*fastest);
        self.samples.count(
            answer
                .as_ref()
                .is_some_and(|a| reference.single_matches(a.travel_minutes)),
        );
        let stats = answer?.stats;
        self.singlefp.add(&stats);
        Some(stats)
    }
}

/// Called after each timed operation of [`drive`] with the query index
/// and the operation's start and duration — the traced pass records
/// its spans here.
pub trait Observer {
    /// An allFP query finished.
    fn allfp(&mut self, _query: usize, _start: Instant, _ns: u64) {}
    /// A singleFP query finished.
    fn singlefp(&mut self, _query: usize, _start: Instant, _ns: u64) {}
}

/// Observes nothing: the timed passes.
pub struct Untraced;

impl Observer for Untraced {}

/// The closed loop of the [`PathfindBackend`] workloads: one client,
/// one warm session; each pair is asked as allFP, then as singleFP,
/// and each answer is checked against its reference once its clock has
/// stopped.
pub fn drive<B: PathfindBackend + ?Sized>(
    backend: &B,
    work: &Work<'_>,
    limit: Limit,
    keep_answers: bool,
    observer: &mut impl Observer,
) -> Pass {
    let mut pass = Pass::of(work.queries.len());
    let mut session = backend.cache_session();
    for i in limit.rounds(work) {
        let (q, reference) = (&work.queries[i], &work.refs[i]);

        let start = Instant::now();
        let outcome = backend.robust_with_session(q, &mut session, None);
        let ns = start.elapsed().as_nanos() as u64;
        observer.allfp(i, start, ns);
        let exact = match outcome {
            Ok(QueryOutcome::Exact(answer)) => Some(answer),
            _ => None,
        };
        pass.allfp_done(i, ns, exact, reference, keep_answers);

        let start = Instant::now();
        let single = backend.single_fastest_path(q);
        let ns = start.elapsed().as_nanos() as u64;
        observer.singlefp(i, start, ns);
        pass.singlefp_done(i, ns, single.ok(), reference);
    }
    pass
}

/// Ask `reference` every query as allFP and fingerprint the answers.
/// Any failure here fails the run: without a reference nothing can be
/// checked.
pub fn reference_pass<B: PathfindBackend + ?Sized>(
    reference: &B,
    queries: &[QuerySpec],
) -> Result<Vec<Reference>> {
    let mut session = reference.cache_session();
    queries
        .iter()
        .map(
            |q| match reference.robust_with_session(q, &mut session, None) {
                Ok(QueryOutcome::Exact(answer)) => Ok(Reference::of(&answer)),
                Ok(QueryOutcome::Degraded(_)) => Err(format!("reference degraded on {q:?}")),
                Err(e) => Err(format!("reference failed on {q:?}: {e}")),
            },
        )
        .collect()
}

/// How long each set-up of a run took.
///
/// `setup_s` is the fastest of them, for the reason a query's latency
/// is its fastest pass, and they are timed in two groups half a minute
/// apart — before the first query and after the last — because one
/// group fits inside one burst of the host: the median of fifteen
/// back-to-back set-ups read 60 ms or 85 ms as a whole, and the
/// medians of two sets of ten runs came 24 % apart.
#[derive(Debug, Default)]
pub struct Setups {
    seconds: Vec<f64>,
}

impl Setups {
    /// Time `setup` `plan.setups` times, dropping each result before
    /// the next so peak memory holds one set-up, and return the last.
    pub fn time<T>(&mut self, plan: &Plan, mut setup: impl FnMut() -> Result<T>) -> Result<T> {
        let mut last = None;
        for _ in 0..plan.setups.max(1) {
            drop(last.take());
            let t = Instant::now();
            let built = setup()?;
            self.seconds.push(t.elapsed().as_secs_f64());
            last = Some(built);
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }

    /// Set-ups timed so far.
    pub fn len(&self) -> usize {
        self.seconds.len()
    }

    /// The fastest of them, seconds.
    pub fn fastest(&self) -> f64 {
        self.seconds.iter().copied().fold(f64::NAN, f64::min)
    }
}

/// The edge `from → to` of `net`.
fn edge_between(net: &RoadNetwork, from: NodeId, to: NodeId) -> Result<roadnet::Edge> {
    net.neighbors(from)
        .map_err(err)?
        .iter()
        .find(|e| e.to == to)
        .copied()
        .ok_or_else(|| format!("answer route uses a missing edge {from} -> {to}"))
}

/// The `pwl` and `traffic` probes: replay, outside any search, the
/// function algebra that produced the kept answers — one
/// `travel_time_fn` and one `compose_travel_into` per route edge, one
/// `Envelope::merge_min_with` per additional path of an answer — and
/// time each kernel on exactly the operands the queries gave it.
pub fn replay_algebra(
    net: &RoadNetwork,
    queries: &[QuerySpec],
    answers: &[(usize, AllFpAnswer)],
    metrics: &mut Metrics,
) -> Result<()> {
    let mut scratch = PwlScratch::new();
    let (mut travel_ns, mut travel_calls) = (0u64, 0u64);
    let (mut compose_ns, mut compose_pieces) = (0u64, 0u64);
    let (mut merge_ns, mut merge_pieces) = (0u64, 0u64);
    for (i, answer) in answers {
        let q = &queries[*i];
        for path in &answer.paths {
            let mut travel = Pwl::constant(q.interval, 0.0).map_err(err)?;
            for hop in path.nodes.windows(2) {
                let edge = edge_between(net, hop[0], hop[1])?;
                let profile = net
                    .pattern(edge.pattern)
                    .and_then(|p| p.profile(q.category).map_err(Into::into))
                    .map_err(err)?;
                let arrivals = pwl::compose::arrival_interval(&travel).map_err(err)?;

                let t = Instant::now();
                let t_edge = travel_time_fn(profile, edge.distance, &arrivals).map_err(err)?;
                travel_ns += t.elapsed().as_nanos() as u64;
                travel_calls += 1;

                let t = Instant::now();
                let composed = compose_travel_into(&mut scratch, &travel, &t_edge).map_err(err)?;
                compose_ns += t.elapsed().as_nanos() as u64;
                compose_pieces += composed.n_pieces() as u64;

                scratch.recycle(std::mem::replace(&mut travel, composed));
                scratch.recycle(t_edge);
            }
            scratch.recycle(travel);
        }
        let mut paths = answer.paths.iter().enumerate();
        if let Some((_, first)) = paths.next() {
            let mut border = Envelope::new(Arc::clone(&first.travel), 0usize);
            for (tag, path) in paths {
                let t = Instant::now();
                border
                    .merge_min_with(&mut scratch, &path.travel, tag)
                    .map_err(err)?;
                merge_ns += t.elapsed().as_nanos() as u64;
                merge_pieces += path.travel.n_pieces() as u64;
            }
            border.recycle_into(&mut scratch);
        }
    }
    metrics.set(
        "pwl.compose_ns_per_piece",
        ratio(compose_ns as f64, compose_pieces as f64),
    );
    metrics.set(
        "pwl.merge_ns_per_piece",
        ratio(merge_ns as f64, merge_pieces as f64),
    );
    metrics.set(
        "traffic.travel_fn_us",
        ratio(travel_ns as f64 / 1e3, travel_calls as f64),
    );
    Ok(())
}

/// The flat-search counters of a pass, under `engine.*` and `cache.*`.
pub fn engine_counters(pass: &Pass, metrics: &mut Metrics) {
    let (a, s) = (&pass.allfp, &pass.singlefp);
    metrics.set("engine.allfp.expanded_per_q", a.per_q(a.expanded));
    metrics.set("engine.singlefp.expanded_per_q", s.per_q(s.expanded));
    metrics.set("engine.pushed_per_q", a.per_q(a.pushed));
    metrics.set(
        "engine.expand_yield",
        ratio(a.expanded as f64, a.pushed as f64),
    );
    metrics.set("engine.pruned_border_per_q", a.per_q(a.pruned_border));
    metrics.set("engine.pruned_dominated_per_q", a.per_q(a.pruned_dominated));
    metrics.set("engine.border_merges_per_q", a.per_q(a.border_merges));
    metrics.set("engine.pieces_per_q", a.per_q(a.pieces));
    metrics.set("engine.pieces_max", a.pieces_max as f64);
    metrics.set(
        "engine.ns_per_expansion",
        ratio(pass.samples.allfp_total_ns() as f64, a.expanded as f64),
    );
    cache_counters(a, metrics);
}

/// The travel-function cache's share of a pass's allFP counters.
pub fn cache_counters(allfp: &Tally, metrics: &mut Metrics) {
    metrics.set("cache.lookups_per_q", allfp.per_q(allfp.cache_lookups));
    metrics.set(
        "cache.hit_rate",
        ratio(allfp.cache_hits as f64, allfp.cache_lookups as f64),
    );
}

/// The end-to-end metrics every workload reports the same way. Called
/// before the second group of set-ups, which would otherwise stand on
/// top of the stack under test in `peak_rss_mb`.
pub fn end_to_end(samples: &Samples, metrics: &mut Metrics) {
    let allfp = crate::stats::Latency::of(asked(&samples.allfp_ns));
    let singlefp = crate::stats::Latency::of(asked(&samples.singlefp_ns));
    metrics.set("allfp_qps", allfp.qps);
    metrics.set("allfp_p50_ms", allfp.p50_ms);
    metrics.set("allfp_p95_ms", allfp.p95_ms);
    metrics.set("singlefp_qps", singlefp.qps);
    metrics.set("singlefp_p50_ms", singlefp.p50_ms);
    metrics.set("singlefp_p95_ms", singlefp.p95_ms);
    metrics.set("peak_rss_mb", peak_rss_mb());
    for (op, l) in [("allfp", &allfp), ("singlefp", &singlefp)] {
        if let Some(p99) = l.p99_ms {
            println!(
                "{op}_p99_ms {p99} ms (not a declared metric; {} samples)",
                l.n
            );
        }
    }
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(queries: &[QuerySpec], round: usize) -> Work<'_> {
        Work {
            queries,
            refs: &[],
            round,
        }
    }

    fn some_queries(n: u32) -> Vec<QuerySpec> {
        let interval = Interval::of(hm(7, 0), hm(8, 0));
        (0..n)
            .map(|i| QuerySpec::new(NodeId(i), NodeId(i + 1), interval, DayCategory::WORKDAY))
            .collect()
    }

    #[test]
    fn one_pass_visits_every_query_once_in_order() {
        let queries = some_queries(8);
        let order: Vec<usize> = Limit::OnePass.rounds(&work(&queries, 4)).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn prefixes_are_whole_units() {
        let queries = some_queries(24);
        let w = work(&queries, 4);
        assert_eq!(w.warm_up().queries.len(), 4);
        assert_eq!(w.prefix(11, 4).queries.len(), 8);
        assert_eq!(w.prefix(0, 16).queries.len(), 16);
        assert_eq!(w.prefix(0, 32).queries.len(), 24);
    }

    #[test]
    fn timed_loop_wraps_in_whole_rounds() {
        let queries = some_queries(4);
        let order: Vec<usize> = Limit::For(Duration::from_millis(20))
            .rounds(&work(&queries, 2))
            .collect();
        assert!(order.len() >= 4 && order.len().is_multiple_of(2));
        assert_eq!(
            order[..6.min(order.len())],
            [0, 1, 2, 3, 0, 1][..6.min(order.len())]
        );
    }

    fn args() -> Args {
        Args {
            workload: String::new(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: false,
            out: PathBuf::new(),
        }
    }

    #[test]
    fn a_query_keeps_its_fastest_pass() {
        let mut pass = Pass::of(3);
        let reference = Reference {
            all: 0,
            border_min: 0.0,
        };
        for (query, ns) in [(0, 50), (1, 70), (0, 40), (1, 90)] {
            pass.allfp_done(query, ns, None, &reference, false);
            pass.singlefp_done(query, ns + 1, None, &reference);
        }
        let s = &pass.samples;
        assert_eq!((s.allfp_ns[0], s.allfp_ns[1]), (40, 70));
        assert_eq!((s.n_allfp(), s.n_singlefp()), (2, 2));
        assert_eq!((s.allfp_total_ns(), s.total_ns()), (110, 222));
        assert_eq!((s.attempted, s.failed), (8, 8));
    }

    #[test]
    fn seeds_reorder_one_query_set() {
        let plan = Plan {
            metro: MetroConfig::small(NETWORK_SEED),
            max_miles: 2,
            per_bucket: 16,
            setups: 1,
            single_pass: false,
        };
        let net = roadnet::generators::suffolk_like(&plan.metro).unwrap();
        let key = |q: &QuerySpec| (q.source, q.target);
        let ask = |seed| -> Vec<_> {
            let asked = queries(&net, &plan, seed).unwrap();
            asked.iter().map(key).collect()
        };
        let (a, mut b) = (ask(1), ask(2));
        assert_eq!(a.len(), 2 * 16);
        assert_eq!(a, ask(1));
        assert_ne!(a, b);
        // Round-robin: even positions hold the 1-mile bucket whatever
        // the seed, and each bucket holds the same pairs.
        let bucket = |asked: &[(NodeId, NodeId)], k: usize| -> Vec<_> {
            let mut pairs: Vec<_> = asked.iter().skip(k).step_by(2).copied().collect();
            pairs.sort();
            pairs
        };
        assert_eq!(bucket(&a, 0), bucket(&b, 0));
        assert_eq!(bucket(&a, 1), bucket(&b, 1));
        b.sort();
        b.dedup();
        assert_eq!(b.len(), 2 * 16);
    }

    #[test]
    fn setups_are_timed_in_groups_and_the_fastest_counts() {
        let args = args();
        let plan = Plan::new(&args, 10, 3);
        let mut setups = Setups::default();
        let mut runs = 0;
        let mut set_up = || {
            runs += 1;
            std::thread::sleep(Duration::from_millis(if runs == 2 { 1 } else { 20 }));
            Ok(runs)
        };
        assert_eq!(setups.time(&plan, &mut set_up), Ok(3));
        assert_eq!(setups.time(&plan, &mut set_up), Ok(6));
        assert_eq!(setups.len(), 6);
        assert!((0.001..0.02).contains(&setups.fastest()), "{setups:?}");
    }
}
