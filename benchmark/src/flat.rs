//! `rush_mem` and `rush_disk`: the flat engine over the in-memory
//! network, and over the same network behind a CCAM file.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use allfp::{build_estimator, Engine, EngineConfig, LowerBoundEstimator};
use ccam::{BlockStore, CcamStore, FileStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use roadnet::generators::suffolk_like;
use roadnet::{NetworkSource, RoadNetwork};

use crate::common::{
    drive, end_to_end, engine_config, engine_counters, err, queries, reference_pass,
    replay_algebra, Args, Limit, Observer, Plan, Result, Samples, Setups, Untraced, Work,
};
use crate::metrics::Metrics;
use crate::stats::ratio;
use crate::trace::{TracedEstimator, TracedSource, Tracer};
use crate::Outcome;

/// Buffer-pool frames of `rush_disk`: about 7 % of the file's pages
/// (219 on metro-medium), so the pool cannot hold the working set and
/// every query pays B+-tree descents, evictions and `pread`s.
const POOL_FRAMES: usize = 16;
/// `--quick`: the metro-small file has 50-odd pages.
const POOL_FRAMES_QUICK: usize = 4;

/// The CCAM side of a set-up.
struct Disk {
    ccam: CcamStore,
    /// The block store under the pool, kept for its I/O counters.
    store: Arc<dyn BlockStore>,
    build_s: f64,
    file_bytes: u64,
}

/// Everything a flat workload owns once set up. Engines are cheap
/// views over these and are made where they are used.
struct Stack {
    net: RoadNetwork,
    estimator: Box<dyn LowerBoundEstimator>,
    estimator_s: f64,
    disk: Option<Disk>,
}

fn set_up(plan: &Plan, store_path: Option<&Path>, frames: usize) -> Result<Stack> {
    let net = suffolk_like(&plan.metro).map_err(err)?;
    let t = Instant::now();
    let estimator = build_estimator(&net, &engine_config()).map_err(err)?;
    let estimator_s = t.elapsed().as_secs_f64();
    let disk = store_path
        .map(|path| -> Result<Disk> {
            let t = Instant::now();
            let store: Arc<dyn BlockStore> =
                Arc::new(FileStore::create(path, DEFAULT_PAGE_SIZE).map_err(err)?);
            CcamStore::build(&net, store, PlacementPolicy::ConnectivityClustered, frames)
                .map_err(err)?;
            let build_s = t.elapsed().as_secs_f64();
            // Reopen, as a server would: a fresh pool over the file.
            let store: Arc<dyn BlockStore> =
                Arc::new(FileStore::open(path, DEFAULT_PAGE_SIZE).map_err(err)?);
            Ok(Disk {
                ccam: CcamStore::open(Arc::clone(&store), frames).map_err(err)?,
                store,
                build_s,
                file_bytes: std::fs::metadata(path).map_err(err)?.len(),
            })
        })
        .transpose()?;
    Ok(Stack {
        net,
        estimator,
        estimator_s,
        disk,
    })
}

/// A flat engine over `source` sharing the stack's estimator.
fn engine_over<'a, S: NetworkSource>(
    source: &'a S,
    estimator: &'a dyn LowerBoundEstimator,
) -> Engine<'a, S> {
    Engine::with_estimator(source, Box::new(estimator), EngineConfig::default())
}

/// Run `rush_disk`, with its CCAM file in `store_dir`, or `rush_mem`
/// when there is none.
pub fn run(args: &Args, store_dir: Option<&Path>, tracer: &mut Tracer) -> Result<Outcome> {
    // One allFP + singleFP pair costs about 7 ms in memory and 16 ms
    // through the pool on the reference box, so 320 pairs are walked
    // eleven times in 26 s and 208 pairs seven times; the reference
    // pass of rush_disk costs another 6 ms per pair.
    let plan = if store_dir.is_some() {
        Plan::new(args, 26, 8)
    } else {
        Plan::new(args, 40, 8)
    };
    let frames = if args.quick {
        POOL_FRAMES_QUICK
    } else {
        POOL_FRAMES
    };
    let store_path = store_dir.map(|dir| dir.join("rush_disk.ccam"));
    let mut setups = Setups::default();
    let stack = setups.time(&plan, || set_up(&plan, store_path.as_deref(), frames))?;
    let queries = queries(&stack.net, &plan, args.seed)?;

    // The in-memory engine is the reference of every workload. For
    // rush_mem it is also the engine under test, and the reference
    // pass is its warm-up.
    let memory = engine_over(&stack.net, stack.estimator.as_ref());
    let refs = reference_pass(&memory, &queries)?;
    let run = Run {
        stack: &stack,
        work: Work {
            queries: &queries,
            refs: &refs,
            round: plan.max_miles,
        },
        limit: Limit::of(args, &plan),
        trace: args.trace,
    };

    let mut metrics = Metrics::default();
    let samples = match &stack.disk {
        None => run.measure(&stack.net, &memory, tracer, &mut metrics)?,
        Some(disk) => {
            let engine = engine_over(&disk.ccam, stack.estimator.as_ref());
            drive(
                &engine,
                &run.work.warm_up(),
                Limit::OnePass,
                false,
                &mut Untraced,
            );
            run.measure(&disk.ccam, &engine, tracer, &mut metrics)?
        }
    };
    if !args.trace {
        end_to_end(&samples, &mut metrics);
        // Beside the file under test, not over it.
        let again = store_dir.map(|dir| dir.join("rush_disk.again.ccam"));
        setups.time(&plan, || set_up(&plan, again.as_deref(), frames))?;
        metrics.set("setup_s", setups.fastest());
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

/// Records one span per query plus one aggregated child span per layer
/// seam, drained from the wrappers' meters.
struct FlatSpans<'t, 'a, S: NetworkSource> {
    tracer: &'t mut Tracer,
    source: &'t TracedSource<'a, S>,
    estimator: &'t TracedEstimator<'a>,
}

impl<S: NetworkSource> FlatSpans<'_, '_, S> {
    fn record(&mut self, name: &'static str, query: usize, start: Instant, ns: u64) {
        let query = query as u32;
        let parent = self.tracer.record(name, None, query, start, ns, 1);
        let (source_ns, source_calls) = self.source.meter.drain();
        let (est_ns, est_calls) = self.estimator.meter.drain();
        self.tracer.record(
            "source",
            Some(parent),
            query,
            start,
            source_ns,
            source_calls,
        );
        self.tracer
            .record("estimator", Some(parent), query, start, est_ns, est_calls);
    }
}

impl<S: NetworkSource> Observer for FlatSpans<'_, '_, S> {
    fn allfp(&mut self, query: usize, start: Instant, ns: u64) {
        self.record("allfp", query, start, ns);
    }

    fn singlefp(&mut self, query: usize, start: Instant, ns: u64) {
        self.record("singlefp", query, start, ns);
    }
}

/// One run's measured part, over whichever source the engine reads.
struct Run<'a> {
    stack: &'a Stack,
    work: Work<'a>,
    limit: Limit,
    trace: bool,
}

impl Run<'_> {
    fn measure<S: NetworkSource>(
        &self,
        source: &S,
        engine: &Engine<'_, S>,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> Result<Samples> {
        if self.trace {
            self.traced(source, engine, tracer, metrics)
        } else {
            Ok(drive(engine, &self.work, self.limit, false, &mut Untraced).samples)
        }
    }

    /// The `--trace 1` run: one untraced pass on the engine under test
    /// (counters, and the baseline the overhead is measured against),
    /// one pass on a twin engine built over the traced source and
    /// estimator, then the replay probes.
    fn traced<S: NetworkSource>(
        &self,
        source: &S,
        engine: &Engine<'_, S>,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
    ) -> Result<Samples> {
        let (stack, work) = (self.stack, &self.work);
        let before = stack.disk.as_ref().map(|d| (d.ccam.stats(), io_of(d)));
        let untraced = drive(engine, work, Limit::OnePass, true, &mut Untraced);
        let n_queries = (2 * work.queries.len()) as f64;
        if let (Some(disk), Some((stats0, (bytes0, retries0)))) = (&stack.disk, before) {
            let d = disk.ccam.stats().since(&stats0);
            let (bytes1, retries1) = io_of(disk);
            let logical = d.hits + d.misses;
            metrics.set("ccam.build_s", disk.build_s);
            metrics.set(
                "ccam.file_bytes_per_edge",
                ratio(disk.file_bytes as f64, stack.net.n_edges() as f64),
            );
            metrics.set("ccam.logical_reads_per_q", logical as f64 / n_queries);
            metrics.set("ccam.pool_hit_rate", ratio(d.hits as f64, logical as f64));
            metrics.set("ccam.evictions_per_q", d.evictions as f64 / n_queries);
            metrics.set(
                "ccam.physical_reads_per_q",
                d.physical_reads as f64 / n_queries,
            );
            metrics.set(
                "ccam.bytes_read_per_q",
                (bytes1 - bytes0) as f64 / n_queries,
            );
            metrics.set("ccam.io_retries", (retries1 - retries0) as f64);
        }
        engine_counters(&untraced, metrics);
        metrics.set(
            "cache.resident_entries",
            engine.cache_counters().expected_resident() as f64,
        );
        metrics.set("estimator.setup_s", stack.estimator_s);
        metrics.set("estimator.tightness", self.tightness()?);

        let traced_source = TracedSource::new(source);
        let traced_estimator = TracedEstimator::new(stack.estimator.as_ref());
        let twin = engine_over(&traced_source, &traced_estimator);
        drive(&twin, &work.warm_up(), Limit::OnePass, false, &mut Untraced);
        traced_source.meter.drain();
        traced_estimator.meter.drain();
        let mut spans = FlatSpans {
            tracer: &mut *tracer,
            source: &traced_source,
            estimator: &traced_estimator,
        };
        let traced = drive(&twin, work, Limit::OnePass, false, &mut spans);

        let (allfp_ns, _) = tracer.total("allfp");
        let (singlefp_ns, _) = tracer.total("singlefp");
        let (source_ns, source_calls) = tracer.total("source");
        let (est_ns, est_calls) = tracer.total("estimator");
        let query_ns = allfp_ns + singlefp_ns;
        let source_us = source_ns as f64 / 1e3 / n_queries;
        if stack.disk.is_some() {
            metrics.set("ccam.source_us_per_q", source_us);
        } else {
            metrics.set("network.source_us_per_q", source_us);
            metrics.set(
                "network.source_calls_per_q",
                source_calls as f64 / n_queries,
            );
        }
        metrics.set("estimator.calls_per_q", est_calls as f64 / n_queries);
        metrics.set("estimator.us_per_q", est_ns as f64 / 1e3 / n_queries);
        metrics.set(
            "engine.self_us_per_q",
            (query_ns - source_ns - est_ns) as f64 / 1e3 / n_queries,
        );
        metrics.set(
            "trace.overhead",
            query_ns as f64 / untraced.samples.total_ns() as f64 - 1.0,
        );

        replay_algebra(&stack.net, work.queries, &untraced.answers, metrics)?;

        let mut samples = untraced.samples;
        samples.count_from(&traced.samples);
        Ok(samples)
    }

    /// How close the estimator's source-to-target bound comes to the
    /// true fastest travel time (the allFP border minimum): 1 is
    /// perfect, and the search expands less the closer it gets. Mean
    /// over the queries.
    fn tightness(&self) -> Result<f64> {
        let net = &self.stack.net;
        let mut sum = 0.0;
        for (q, r) in self.work.queries.iter().zip(self.work.refs) {
            let from = *net.point(q.source).map_err(err)?;
            let to = *net.point(q.target).map_err(err)?;
            let bound = self
                .stack
                .estimator
                .travel_lower_bound(q.source, from, q.target, to);
            sum += bound / r.border_min;
        }
        Ok(ratio(sum, self.work.queries.len() as f64))
    }
}

/// `(bytes read, retries)` of the block store under the pool.
fn io_of(disk: &Disk) -> (u64, u64) {
    let io = disk.store.io_stats();
    (io.bytes_read(), io.retries())
}
