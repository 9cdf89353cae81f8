//! `live_service`: the serving stack — `QueryService` → `LiveBackend`
//! → `EpochManager` — with a traffic delta beside the reads.
//!
//! Every `delta_every` submissions the client applies a delta touching
//! 1 % of the edges, alternating a congestion batch (built on the
//! epoch-0 network) with its exact relief: the same edges back on their
//! original patterns. The network is therefore periodic and the run
//! stationary, and every query has a reference: the epoch-0 network
//! after a relief, epoch 0 plus that one batch after a congestion.

use std::time::Instant;

use allfp::service::{QueryService, ServiceConfig, ServiceOutcome, Submission, WallClock};
use allfp::{Engine, EngineConfig, EpochManager, LiveBackend, PathfindBackend, QuerySpec};
use roadnet::generators::suffolk_like;
use roadnet::{NodeId, RoadNetwork};
use traffic::{PatternUpdate, TrafficDelta};

use crate::common::{
    end_to_end, engine_config, engine_counters, err, queries, reference_pass, replay_algebra, Args,
    Limit, Pass, Plan, Result, Setups, Work,
};
use crate::fingerprint::Reference;
use crate::metrics::Metrics;
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::Outcome;

/// Distinct congestion batches; batch `k` of a pass is `k % BATCHES`.
const BATCHES: usize = 3;
/// Submissions between deltas.
const DELTA_EVERY: usize = 20;
/// `--quick`: eight pairs still see two congestions and two reliefs.
const DELTA_EVERY_QUICK: usize = 2;

/// The delta that undoes `congestion` on `base`: the same edges, each
/// back on the pattern it has in `base`.
pub fn relief_of(base: &RoadNetwork, congestion: &TrafficDelta) -> Result<TrafficDelta> {
    let updates = congestion
        .updates
        .iter()
        .map(|u| {
            let edges = base.neighbors(NodeId(u.from)).map_err(err)?;
            let edge = edges
                .iter()
                .find(|e| e.to.0 == u.to)
                .ok_or_else(|| format!("delta names a missing edge {} -> {}", u.from, u.to))?;
            Ok(PatternUpdate {
                from: u.from,
                to: u.to,
                pattern: base.pattern(edge.pattern).map_err(err)?.clone(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(TrafficDelta::new(congestion.seq + 1, updates))
}

/// The write side of the workload: the deltas, and which one (if any)
/// is due before query `i`.
struct Schedule {
    congestion: Vec<TrafficDelta>,
    relief: Vec<TrafficDelta>,
    every: usize,
}

impl Schedule {
    fn new(base: &RoadNetwork, seed: u64, every: usize) -> Result<Schedule> {
        let n_edges = (base.n_edges() / 100).max(1);
        let congestion = (0..BATCHES as u64)
            .map(|k| base.seeded_delta(seed.wrapping_add(k), n_edges, 2 * k))
            .collect::<roadnet::Result<Vec<_>>>()
            .map_err(err)?;
        let relief = congestion
            .iter()
            .map(|c| relief_of(base, c))
            .collect::<Result<Vec<_>>>()?;
        Ok(Schedule {
            congestion,
            relief,
            every,
        })
    }

    /// The congestion batch in force while query `i` is asked.
    fn batch_at(&self, i: usize) -> Option<usize> {
        let segment = i / self.every;
        segment.is_multiple_of(2).then_some(segment / 2 % BATCHES)
    }

    /// The delta to apply before query `i`, if one is due.
    fn due_before(&self, i: usize) -> Option<&TrafficDelta> {
        i.is_multiple_of(self.every)
            .then(|| match self.batch_at(i) {
                Some(k) => &self.congestion[k],
                None => &self.relief[(i / self.every / 2) % BATCHES],
            })
    }
}

/// What the write side of a pass did.
#[derive(Debug, Default)]
struct Writes {
    apply_ns: Vec<u64>,
    estimator_reused: u64,
    cache_flushed: u64,
    retire_lag_max: u64,
    /// Cache lookups and misses of the first pair asked after each delta.
    post_delta_lookups: u64,
    post_delta_misses: u64,
    submit_ns: u64,
    take_ns: u64,
}

/// The serving stack under test.
struct Stack<'a> {
    manager: &'a EpochManager,
    live: &'a LiveBackend<'a>,
    service: &'a QueryService<'a, LiveBackend<'a>>,
    schedule: &'a Schedule,
}

/// The closed loop: due delta, then the pair as allFP through the
/// service (`submit` → `step_with_session` → `take_outcomes`) and as
/// singleFP on the live backend. The number of queries must be a multiple of
/// `2 · every · BATCHES` unless the limit is one pass, so that the
/// schedule lines up when the loop wraps around.
fn drive(
    stack: &Stack<'_>,
    work: &Work<'_>,
    limit: Limit,
    keep_answers: bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Pass, Writes)> {
    let mut pass = Pass::of(work.queries.len());
    let mut writes = Writes::default();
    let mut session = stack.live.cache_session();
    for i in limit.rounds(work) {
        let (q, reference) = (&work.queries[i], &work.refs[i]);
        let after_delta = match stack.schedule.due_before(i) {
            Some(delta) => {
                let start = Instant::now();
                let report = stack.manager.apply_delta(delta).map_err(err)?;
                let ns = start.elapsed().as_nanos() as u64;
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("apply_delta", None, i as u32, start, ns, 1);
                }
                writes.apply_ns.push(ns);
                writes.estimator_reused += u64::from(report.estimator_reused);
                writes.cache_flushed += report.sweep.cache_entries_flushed;
                writes.retire_lag_max = writes.retire_lag_max.max(report.sweep.epoch_retire_lag);
                true
            }
            None => false,
        };

        let start = Instant::now();
        let ticket = stack.service.submit(Submission::new(q.clone()));
        let submitted = Instant::now();
        let stepped = stack
            .service
            .step_with_session(&mut session)
            .map(|_| Instant::now());
        let mut outcomes = stack.service.take_outcomes();
        let done = Instant::now();
        let ns = done.duration_since(start).as_nanos() as u64;
        let submit_ns = submitted.duration_since(start).as_nanos() as u64;
        let take_ns = stepped.map_or(0, |s| done.duration_since(s).as_nanos() as u64);
        writes.submit_ns += submit_ns;
        writes.take_ns += take_ns;
        if let Some(t) = tracer.as_deref_mut() {
            let parent = t.record("allfp", None, i as u32, start, ns, 1);
            t.record("submit", Some(parent), i as u32, start, submit_ns, 1);
            let step_ns = ns - submit_ns - take_ns;
            t.record("step", Some(parent), i as u32, submitted, step_ns, 1);
            if let Some(s) = stepped {
                t.record("take_outcomes", Some(parent), i as u32, s, take_ns, 1);
            }
        }
        let answered = match (ticket, outcomes.pop()) {
            (Ok(id), Some((done_id, ServiceOutcome::Answered(answer))))
                if id == done_id && outcomes.is_empty() =>
            {
                Some(*answer)
            }
            _ => None,
        };
        // Only answers over the epoch-0 network can be replayed on it.
        let keep = keep_answers && stack.schedule.batch_at(i).is_none();
        let allfp_stats = pass.allfp_done(i, ns, answered, reference, keep);

        let start = Instant::now();
        let single = stack.live.single_fastest_path(q);
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.record("singlefp", None, i as u32, start, ns, 1);
        }
        let singlefp_stats = pass.singlefp_done(i, ns, single.ok(), reference);

        if after_delta {
            for stats in [allfp_stats, singlefp_stats].into_iter().flatten() {
                writes.post_delta_lookups += stats.cache_lookups as u64;
                writes.post_delta_misses += stats.cache_misses as u64;
            }
        }
    }
    Ok((pass, writes))
}

/// Reference answers: each query asked of a fresh flat engine over the
/// network version the schedule has in force when it is asked. Also
/// times `RoadNetwork::apply_delta`, the network layer's share of a
/// write, on the way.
fn references(
    base: &RoadNetwork,
    schedule: &Schedule,
    queries: &[QuerySpec],
    metrics: &mut Metrics,
) -> Result<Vec<Reference>> {
    let mut apply_ns = 0u64;
    let mut congested = Vec::with_capacity(BATCHES);
    for delta in &schedule.congestion {
        let start = Instant::now();
        let (net, _) = base.apply_delta(delta).map_err(err)?;
        apply_ns += start.elapsed().as_nanos() as u64;
        congested.push(net);
    }
    metrics.set(
        "network.delta_apply_us",
        apply_ns as f64 / 1e3 / BATCHES as f64,
    );
    let engine_on = |net| Engine::for_network(net, EngineConfig::default()).map_err(err);
    let base_engine = engine_on(base)?;
    let congested_engines = congested
        .iter()
        .map(engine_on)
        .collect::<Result<Vec<_>>>()?;
    let mut refs = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let engine = match schedule.batch_at(i) {
            Some(k) => &congested_engines[k],
            None => &base_engine,
        };
        refs.extend(reference_pass(engine, std::slice::from_ref(q))?);
    }
    Ok(refs)
}

/// Run `live_service`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome> {
    // About 9.5 ms per allFP + singleFP pair with its share of the
    // deltas and 6 ms per reference query on the reference box: 240
    // pairs are walked ten times in 26 s. Pairs per bucket × 8 buckets
    // must be a multiple of 2 · DELTA_EVERY · BATCHES = 120.
    let plan = Plan::new(args, 30, 8);
    let every = if args.quick {
        DELTA_EVERY_QUICK
    } else {
        DELTA_EVERY
    };
    let set_up = || {
        let net = suffolk_like(&plan.metro).map_err(err)?;
        let start = Instant::now();
        let manager = EpochManager::new(net, engine_config()).map_err(err)?;
        Ok((manager, start.elapsed().as_secs_f64()))
    };
    let mut setups = Setups::default();
    let (manager, estimator_s) = setups.time(&plan, set_up)?;
    let live = LiveBackend::new(&manager);
    let clock = WallClock::new();
    let service = QueryService::new(&live, &clock, ServiceConfig::default()).with_epochs(&manager);

    let base = manager.current().network().as_ref().clone();
    let queries = queries(&base, &plan, args.seed)?;
    let schedule = Schedule::new(&base, args.seed, every)?;
    let limit = Limit::of(args, &plan);
    if matches!(limit, Limit::For(_)) && !queries.len().is_multiple_of(2 * every * BATCHES) {
        return Err(format!(
            "{} pairs do not line up with the delta schedule",
            queries.len()
        ));
    }
    let mut metrics = Metrics::default();
    let refs = references(&base, &schedule, &queries, &mut metrics)?;
    let stack = Stack {
        manager: &manager,
        live: &live,
        service: &service,
        schedule: &schedule,
    };
    let work = Work {
        queries: &queries,
        refs: &refs,
        round: plan.max_miles,
    };

    // Warm up over whole congestion/relief cycles, so the measured
    // loop starts, as it wraps, on the epoch-0 network.
    let warm_up = work.prefix(queries.len() / 4, 2 * every * BATCHES);
    drive(&stack, &warm_up, Limit::OnePass, false, None)?;

    let cache_before = live.cache_counters();
    let (untraced, writes) = drive(&stack, &work, limit, args.trace, None)?;
    let (mut attempted, mut failed) = (untraced.samples.attempted, untraced.samples.failed);
    if !args.trace {
        end_to_end(&untraced.samples, &mut metrics);
        setups.time(&plan, set_up)?;
        metrics.set("setup_s", setups.fastest());
    } else {
        let n_deltas = writes.apply_ns.len() as f64;
        let n_allfp = queries.len() as f64;
        engine_counters(&untraced, &mut metrics);
        let cache = live.cache_counters();
        metrics.set("cache.resident_entries", cache.expected_resident() as f64);
        metrics.set(
            "cache.retired_per_delta",
            ratio((cache.retired - cache_before.retired) as f64, n_deltas),
        );
        metrics.set(
            "cache.post_delta_miss_rate",
            ratio(
                writes.post_delta_misses as f64,
                writes.post_delta_lookups as f64,
            ),
        );
        metrics.set("estimator.setup_s", estimator_s);
        metrics.set("service.submit_us", writes.submit_ns as f64 / 1e3 / n_allfp);
        metrics.set(
            "service.take_outcomes_us",
            writes.take_ns as f64 / 1e3 / n_allfp,
        );
        let mut apply_us: Vec<f64> = writes.apply_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        metrics.set("epoch.apply_us", median(&mut apply_us));
        metrics.set("epoch.apply_p95_us", percentile(&apply_us, 0.95));
        metrics.set(
            "epoch.estimator_reused_share",
            ratio(writes.estimator_reused as f64, n_deltas),
        );
        metrics.set(
            "epoch.cache_flushed_per_delta",
            ratio(writes.cache_flushed as f64, n_deltas),
        );
        metrics.set("epoch.retire_lag_max", writes.retire_lag_max as f64);

        // The traced pass: the same loop, each call its own span.
        let (traced, _) = drive(&stack, &work, Limit::OnePass, false, Some(tracer))?;
        metrics.set(
            "trace.overhead",
            traced.samples.total_ns() as f64 / untraced.samples.total_ns() as f64 - 1.0,
        );
        attempted += traced.samples.attempted;
        failed += traced.samples.failed;

        let stats = service.stats();
        metrics.set("service.rejected", stats.rejected as f64);
        metrics.set("service.degraded", stats.degraded as f64);
        metrics.set(
            "service.reconciles",
            f64::from(u8::from(stats.reconciles() && manager.stats().reconciles())),
        );
        replay_algebra(&base, &queries, &untraced.answers, &mut metrics)?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        counts: vec![
            ("allfp", untraced.samples.n_allfp()),
            ("singlefp", untraced.samples.n_singlefp()),
            ("deltas", writes.apply_ns.len()),
            ("setups", setups.len()),
            ("pairs", queries.len()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::MetroConfig;

    #[test]
    fn schedule_alternates_congestion_and_relief() {
        let net = suffolk_like(&MetroConfig::small(3)).unwrap();
        let s = Schedule::new(&net, 9, 2).unwrap();
        assert_eq!(s.batch_at(0), Some(0));
        assert_eq!(s.batch_at(1), Some(0));
        assert_eq!(s.batch_at(2), None);
        assert_eq!(s.batch_at(4), Some(1));
        assert_eq!(s.batch_at(4 * BATCHES), Some(0));
        assert!(std::ptr::eq(s.due_before(0).unwrap(), &s.congestion[0]));
        assert!(s.due_before(1).is_none());
        assert!(std::ptr::eq(s.due_before(2).unwrap(), &s.relief[0]));
        assert!(std::ptr::eq(s.due_before(6).unwrap(), &s.relief[1]));
    }

    /// Congestion then relief must restore epoch 0 exactly, or the run
    /// is not stationary and relief-epoch answers have no reference.
    #[test]
    fn relief_restores_epoch_zero_answers() {
        let net = suffolk_like(&MetroConfig::small(3)).unwrap();
        let congestion = net.seeded_delta(5, net.n_edges() / 20, 0).unwrap();
        let relief = relief_of(&net, &congestion).unwrap();
        let (congested, report) = net.apply_delta(&congestion).unwrap();
        assert!(report.edges_changed > 0);
        let (restored, _) = congested.apply_delta(&relief).unwrap();
        for n in 0..net.n_nodes() as u32 {
            assert_eq!(
                net.neighbors(NodeId(n)).unwrap(),
                restored.neighbors(NodeId(n)).unwrap()
            );
        }

        let args = Args {
            workload: "live_service".into(),
            seed: 11,
            seconds: 1.0,
            trace: false,
            quick: true,
            out: std::path::PathBuf::new(),
        };
        let plan = Plan::new(&args, 0, 1);
        let queries = queries(&net, &plan, 11).unwrap();
        let on = |n: &RoadNetwork| {
            let engine = Engine::for_network(n, EngineConfig::default()).unwrap();
            reference_pass(&engine, &queries).unwrap()
        };
        assert_eq!(on(&net), on(&restored));
        assert_ne!(on(&net), on(&congested));
    }
}
