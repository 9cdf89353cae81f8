//! `ch_rush`: the time-dependent contraction hierarchy.

use std::time::Instant;

use allfp::{Engine, EngineConfig, PathfindBackend};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use roadnet::generators::suffolk_like;

use crate::common::{
    cache_counters, drive, end_to_end, err, queries, reference_pass, replay_algebra, Args, Limit,
    Observer, Plan, Result, Setups, Untraced, Work,
};
use crate::metrics::Metrics;
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::Outcome;

/// Records one span per query and remembers each allFP span's id, so
/// the recomposition replay can hang its spans under the right query.
struct QuerySpans<'t> {
    tracer: &'t mut Tracer,
    allfp_span: Vec<u32>,
}

impl Observer for QuerySpans<'_> {
    fn allfp(&mut self, query: usize, start: Instant, ns: u64) {
        self.allfp_span[query] = self
            .tracer
            .record("allfp", None, query as u32, start, ns, 1);
    }

    fn singlefp(&mut self, query: usize, start: Instant, ns: u64) {
        self.tracer
            .record("singlefp", None, query as u32, start, ns, 1);
    }
}

/// Run `ch_rush`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome> {
    // About 10 ms per allFP + singleFP pair, 6 ms per reference query,
    // and 0.75 s per contraction on the reference box: 208 pairs are
    // walked twelve times in 26 s.
    let plan = Plan::new(args, 26, 2);
    let net = suffolk_like(&plan.metro).map_err(err)?;
    // Set-up here *is* contraction: generating the network is 2 ms.
    let set_up = || {
        let flat = Engine::for_network(&net, EngineConfig::default()).map_err(err)?;
        // One worker (the default): the run is pinned to one CPU.
        HierarchyEngine::with_flat(flat, HierarchyConfig::default()).map_err(err)
    };
    let mut setups = Setups::default();
    let hierarchy = setups.time(&plan, set_up)?;
    let queries = queries(&net, &plan, args.seed)?;

    // The embedded flat engine is the in-memory reference; asking it
    // first also fills the travel-function cache the overlay search
    // recomposes through.
    let refs = reference_pass(hierarchy.flat(), &queries)?;
    let work = Work {
        queries: &queries,
        refs: &refs,
        round: plan.max_miles,
    };
    drive(
        &hierarchy,
        &work.warm_up(),
        Limit::OnePass,
        false,
        &mut Untraced,
    );

    let mut metrics = Metrics::default();
    let limit = Limit::of(args, &plan);
    let untraced = drive(&hierarchy, &work, limit, args.trace, &mut Untraced);
    let mut samples = untraced.samples;
    if !args.trace {
        end_to_end(&samples, &mut metrics);
        setups.time(&plan, set_up)?;
        metrics.set("setup_s", setups.fastest());
    } else {
        let report = hierarchy.report();
        metrics.set("hierarchy.build_s", report.build_wall.as_secs_f64());
        metrics.set("hierarchy.shortcuts", report.n_shortcuts as f64);
        metrics.set("hierarchy.overlay_bytes", report.bytes_estimate as f64);
        let (a, s) = (&untraced.allfp, &untraced.singlefp);
        metrics.set("hierarchy.allfp.expanded_per_q", a.per_q(a.expanded));
        metrics.set("hierarchy.singlefp.expanded_per_q", s.per_q(s.expanded));
        metrics.set(
            "hierarchy.compositions_saved_per_q",
            a.per_q(a.compositions_saved),
        );
        cache_counters(a, &mut metrics);
        metrics.set(
            "cache.resident_entries",
            hierarchy.cache_counters().expected_resident() as f64,
        );

        // One flat pass on the same pairs: what the overlay has to beat.
        let flat = drive(
            hierarchy.flat(),
            &work,
            Limit::OnePass,
            false,
            &mut Untraced,
        );
        metrics.set(
            "hierarchy.allfp_wall_vs_flat",
            ratio(
                samples.allfp_total_ns() as f64,
                flat.samples.allfp_total_ns() as f64,
            ),
        );
        metrics.set(
            "hierarchy.singlefp_wall_vs_flat",
            ratio(
                samples.singlefp_total_ns() as f64,
                flat.samples.singlefp_total_ns() as f64,
            ),
        );

        // The traced pass. A second contraction over a wrapped source
        // is not affordable, so a query is one span, and its share of
        // answer recomposition comes from the replay below.
        let mut spans = QuerySpans {
            tracer: &mut *tracer,
            allfp_span: vec![0; queries.len()],
        };
        let traced = drive(&hierarchy, &work, Limit::OnePass, false, &mut spans);
        let allfp_span = spans.allfp_span;
        let mut session = hierarchy.cache_session();
        for (i, answer) in &untraced.answers {
            for path in &answer.paths {
                let start = Instant::now();
                hierarchy
                    .flat()
                    .route_travel_fn(&path.nodes, &queries[*i], &mut session)
                    .map_err(err)?;
                let ns = start.elapsed().as_nanos() as u64;
                tracer.record("recompose", Some(allfp_span[*i]), *i as u32, start, ns, 1);
            }
        }
        let n = queries.len() as f64;
        let (allfp_ns, _) = tracer.total("allfp");
        let (recompose_ns, _) = tracer.total("recompose");
        metrics.set(
            "hierarchy.recompose_us_per_q",
            recompose_ns as f64 / 1e3 / n,
        );
        metrics.set(
            "hierarchy.self_us_per_q",
            (allfp_ns as f64 - recompose_ns as f64) / 1e3 / n,
        );
        metrics.set(
            "trace.overhead",
            traced.samples.total_ns() as f64 / samples.total_ns() as f64 - 1.0,
        );

        replay_algebra(&net, &queries, &untraced.answers, &mut metrics)?;
        samples.count_from(&flat.samples);
        samples.count_from(&traced.samples);
    }
    Ok(Outcome {
        attempted: samples.attempted,
        failed: samples.failed,
        metrics,
        counts: vec![
            ("allfp", samples.n_allfp()),
            ("singlefp", samples.n_singlefp()),
            ("setups", setups.len()),
            ("pairs", queries.len()),
        ],
    })
}
