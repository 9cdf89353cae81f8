//! The deterministic cluster simulator: a sharded fleet of
//! [`QueryService`] nodes driven in virtual time from a single seed.
//!
//! One [`run_cluster_sim`] call owns the entire universe — network,
//! shard map, per-node epoch managers, the virtual bus, the fault
//! plan, the arrival schedule — and advances it with a single-threaded
//! driver: events (crashes, restarts, traffic deltas) and arrivals are
//! admitted when the *fleet clock* (minimum clock over live nodes)
//! reaches them, then the live node with queued work and the smallest
//! clock executes one query and advances its own clock by the query's
//! measured work units plus any RPC latency the query accrued. Every
//! decision is integer arithmetic on seeded draws, so two runs with
//! the same [`ClusterScenario`] produce bit-identical
//! [`ClusterSimResult`]s — the chaos suite's replay assertion.
//!
//! The workload (specs, calibrated costs, submissions) is the one
//! [`allfp::service`] gives every virtual-time scenario; the loop is
//! not. [`allfp::service::drive`] steps one service against one clock;
//! this one schedules over per-node clocks, routes each arrival through
//! the shard map and swaps service incarnations on crash and restart.
//! Folding the single service in as the 1-node case would hand every
//! single-service scenario a shard map and a bus, or make this loop
//! branch on its node count.
//!
//! Crash-cancelled work is collected at the crash instant (a node that
//! dies resolves its queue to `cancelled:Drained`, exactly one
//! terminal outcome per admitted ticket, even posthumously), restarts
//! spawn a fresh service incarnation with fresh peer breakers, and
//! traffic deltas are applied to every node's manager in the same
//! order — including crashed nodes, standing in for the replicated
//! update log a real deployment replays on rejoin — so all replicas
//! stay in the same epoch chain and answers stay bit-comparable.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use allfp::service::{
    answer_sig, sample_specs, AnswerSig, ArrivalSchedule, BreakerConfig, DrainMode,
    LatencyHistogram, ManualClock, QueryService, ServiceClock, ServiceConfig, ServiceOutcome,
    Workload,
};
use allfp::{Engine, EngineConfig, EpochManager, LiveBackend};
use roadnet::generators::grid;
use roadnet::RoadNetwork;
use traffic::RoadClass;

use crate::bus::{BusConfig, BusStats, ClusterFaultPlan, CrashWindow, PartitionWindow, VirtualBus};
use crate::node::{NodeBackend, RetryPolicy, RpcCounters};
use crate::shard::ShardMap;
use crate::ClusterError;

/// One scenario, in shape knobs; every absolute quantity (latencies,
/// cooldowns, fault instants) is derived inside [`run_cluster_sim`]
/// from the calibrated mean query cost and the arrival horizon, so a
/// scenario is meaningful at any network size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterScenario {
    /// Master seed; every random draw in the run derives from it.
    pub seed: u64,
    /// Grid network width (nodes).
    pub grid_w: usize,
    /// Grid network height (nodes).
    pub grid_h: usize,
    /// Simulated cluster nodes.
    pub n_sim_nodes: usize,
    /// Target shard count for the CCAM partitioner.
    pub target_shards: usize,
    /// Copies of each shard across the fleet.
    pub replication: usize,
    /// Distinct query specs the workload cycles through.
    pub n_specs: usize,
    /// Total submissions offered to the fleet.
    pub n_submissions: usize,
    /// Per-node admission queue bound.
    pub queue_capacity: usize,
    /// Offered load numerator: arrivals target `overload_num /
    /// overload_den` times the fleet's execution capacity.
    pub overload_num: u64,
    /// Offered load denominator.
    pub overload_den: u64,
    /// Deadline slack, in multiples of the calibrated mean query cost.
    pub deadline_factor: u64,
    /// RPC congestion-spike period (seeded, 0 disables spikes).
    pub spike_every: u64,
    /// Client-side RPC retries per host after the first attempt.
    pub max_retries: u32,
    /// Node outages as `(node, from, until)` in per-mille of the
    /// arrival horizon; `until ≥ 1000` means the node never returns.
    pub crash_windows_pm: Vec<(usize, u32, u32)>,
    /// Network partitions as `(from, until, island)` in per-mille of
    /// the arrival horizon.
    pub partition_windows_pm: Vec<(u32, u32, Vec<usize>)>,
    /// Traffic-delta publish instants in per-mille of the horizon.
    pub delta_times_pm: Vec<u32>,
    /// Directed edges each traffic delta repoints.
    pub delta_edges: usize,
}

impl ClusterScenario {
    /// The full storm: 4 nodes at 2× overload with RPC spikes, one
    /// mid-run node crash (with restart), a network partition
    /// isolating another node, and two live traffic deltas.
    pub fn chaos(seed: u64) -> Self {
        ClusterScenario {
            seed,
            grid_w: 8,
            grid_h: 8,
            n_sim_nodes: 4,
            target_shards: 8,
            replication: 2,
            n_specs: 12,
            n_submissions: 120,
            queue_capacity: 24,
            overload_num: 2,
            overload_den: 1,
            deadline_factor: 24,
            spike_every: 24,
            max_retries: 2,
            crash_windows_pm: vec![(2, 250, 550)],
            partition_windows_pm: vec![(600, 750, vec![3])],
            delta_times_pm: vec![330, 660],
            delta_edges: 12,
        }
    }

    /// The goodput gate: 3 nodes at 2× overload, one shard owner down
    /// from 20% of the horizon to the end, replication 2 so every
    /// shard keeps a live copy. No partitions, spikes, or deltas —
    /// the measured loss is node loss, nothing else.
    pub fn node_loss(seed: u64) -> Self {
        ClusterScenario {
            seed,
            grid_w: 8,
            grid_h: 8,
            n_sim_nodes: 3,
            target_shards: 6,
            replication: 2,
            n_specs: 12,
            n_submissions: 90,
            queue_capacity: 24,
            overload_num: 2,
            overload_den: 1,
            deadline_factor: 24,
            spike_every: 0,
            max_retries: 2,
            crash_windows_pm: vec![(1, 200, 1000)],
            partition_windows_pm: vec![],
            delta_times_pm: vec![],
            delta_edges: 0,
        }
    }

    /// Fault-free cluster at moderate load: the equivalence baseline
    /// (every answer must be exact and bit-identical to the flat
    /// single-node pipeline).
    pub fn calm(seed: u64) -> Self {
        ClusterScenario {
            seed,
            grid_w: 8,
            grid_h: 8,
            n_sim_nodes: 3,
            target_shards: 6,
            replication: 2,
            n_specs: 16,
            n_submissions: 64,
            queue_capacity: 64,
            overload_num: 1,
            overload_den: 1,
            deadline_factor: 64,
            spike_every: 0,
            max_retries: 2,
            crash_windows_pm: vec![],
            partition_windows_pm: vec![],
            delta_times_pm: vec![],
            delta_edges: 0,
        }
    }
}

/// Per-node roll-up across every service incarnation, plus the node's
/// RPC and epoch counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeTotals {
    /// Simulated node id.
    pub node: usize,
    /// Service incarnations this node ran (1 + restarts).
    pub incarnations: u64,
    /// Submissions offered to this node.
    pub submitted: u64,
    /// Submissions admitted.
    pub admitted: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Admitted queries answered exactly.
    pub answered: u64,
    /// Admitted queries that degraded (budget or shard-unreachable
    /// fallback).
    pub degraded: u64,
    /// Subset of `degraded` served from the constant-speed fallback
    /// for storage/shard health.
    pub breaker_fallbacks: u64,
    /// Admitted queries that failed hard.
    pub failed: u64,
    /// Admitted queries cancelled (sheds, crash drains).
    pub cancelled: u64,
    /// Subset of `cancelled` shed past deadline.
    pub shed: u64,
    /// RPC-side accounting.
    pub rpc: RpcCounters,
    /// Per-peer circuit-breaker trips.
    pub breaker_trips: u64,
    /// Epochs published by this node's manager (seed epoch included).
    pub epochs_published: u64,
    /// Traffic deltas this node's manager applied.
    pub updates_applied: u64,
}

impl NodeTotals {
    /// The per-node accounting identities: every submission offered to
    /// this node across all its incarnations is accounted exactly
    /// once, and its epoch chain is the seed epoch plus one epoch per
    /// applied delta.
    pub fn reconciles(&self) -> bool {
        self.submitted == self.admitted + self.rejected
            && self.admitted == self.answered + self.degraded + self.failed + self.cancelled
            && self.shed <= self.cancelled
            && self.breaker_fallbacks <= self.degraded
            && self.epochs_published == self.updates_applied + 1
    }
}

/// Fleet-wide accounting for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Per-node roll-ups.
    pub nodes: Vec<NodeTotals>,
    /// Arrivals the scenario offered to the fleet.
    pub offered: u64,
    /// Arrivals that reached some node's `submit` (offered −
    /// unroutable).
    pub submitted: u64,
    /// Fleet sum of admitted.
    pub admitted: u64,
    /// Fleet sum of node-level admission rejections.
    pub rejected: u64,
    /// Fleet sum of exact answers.
    pub answered: u64,
    /// Fleet sum of degraded answers.
    pub degraded: u64,
    /// Fleet sum of hard failures.
    pub failed: u64,
    /// Fleet sum of cancellations.
    pub cancelled: u64,
    /// Arrivals with no live node to route to.
    pub unroutable: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node restarts processed.
    pub restarts: u64,
    /// Arrivals routed past the primary shard owner to a replica (or
    /// to a non-owner when no owner was live).
    pub routed_failovers: u64,
    /// Traffic deltas published during the run.
    pub deltas_applied: u64,
    /// Wasted-work latency of every in-query replica failover.
    pub failover_latency: LatencyHistogram,
    /// Virtual bus accounting.
    pub bus: BusStats,
}

impl ClusterStats {
    /// The exact fleet-level identities: per-node counters reconcile,
    /// fleet counters are the node sums, and every offered arrival is
    /// accounted exactly once (`offered = submitted + unroutable`,
    /// `submitted = admitted + rejected`,
    /// `admitted = answered + degraded + failed + cancelled`).
    pub fn reconciles(&self) -> bool {
        let sum = |f: fn(&NodeTotals) -> u64| self.nodes.iter().map(f).sum::<u64>();
        self.nodes.iter().all(NodeTotals::reconciles)
            && self.submitted == sum(|n| n.submitted)
            && self.admitted == sum(|n| n.admitted)
            && self.rejected == sum(|n| n.rejected)
            && self.answered == sum(|n| n.answered)
            && self.degraded == sum(|n| n.degraded)
            && self.failed == sum(|n| n.failed)
            && self.cancelled == sum(|n| n.cancelled)
            && self.offered == self.submitted + self.unroutable
            && self.submitted == self.admitted + self.rejected
            && self.admitted == self.answered + self.degraded + self.failed + self.cancelled
    }
}

/// One exact answer with everything needed to check it against a
/// single-node oracle: which spec, which epoch, and the bit-exact
/// signature.
#[derive(Debug, Clone, PartialEq)]
pub struct AnsweredRecord {
    /// Global ticket (arrival index).
    pub ticket: u64,
    /// Node that answered.
    pub node: usize,
    /// Index into the scenario's spec cycle.
    pub spec: usize,
    /// Epoch the query was pinned to at admission.
    pub epoch: u64,
    /// Bit-exact answer signature.
    pub sig: AnswerSig,
}

/// Everything one cluster run produced, in a `PartialEq` shape so two
/// runs compare wholesale (the replay assertion).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimResult {
    /// `(global ticket, kind[:reason])` in collection order.
    pub terminal: Vec<(u64, String)>,
    /// `(global ticket, rejection reason)` for admission rejections
    /// and unroutable arrivals, in arrival order.
    pub rejected: Vec<(u64, String)>,
    /// Every exact answer, with its oracle-checkable provenance.
    pub answered: Vec<AnsweredRecord>,
    /// Fleet accounting.
    pub stats: ClusterStats,
    /// Work units executed across all nodes (RPC wait excluded).
    pub executed_units: u64,
    /// Final virtual time (max clock across the fleet).
    pub elapsed: u64,
    /// Arrivals offered.
    pub n_submissions: usize,
    /// Shards the partitioner actually produced.
    pub n_shards: usize,
    /// Calibrated mean query cost (work units).
    pub mean_cost: u64,
}

impl ClusterSimResult {
    /// Useful work per unit of fleet capacity: executed work units
    /// over `elapsed × n_sim_nodes`. Capacity lost to crashed-node
    /// downtime, RPC waiting, and degraded fallbacks all depress it.
    pub fn goodput(&self) -> f64 {
        if self.elapsed == 0 {
            return 1.0;
        }
        self.executed_units as f64 / (self.elapsed as f64 * self.stats.nodes.len() as f64)
    }
}

/// Scheduled simulator events, processed in `(time, rank, node)`
/// order before any arrival at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Crash(usize),
    Restart(usize),
    Delta,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    t: u64,
    rank: u8,
    kind: EventKind,
}

/// A fresh service incarnation for `backend`.
fn spawn_service<'a>(
    backend: &'a NodeBackend,
    fallback: &'a Engine<'a, RoadNetwork>,
    cfg: &ServiceConfig,
) -> QueryService<'a, NodeBackend> {
    QueryService::new(backend, backend.clock(), cfg.clone())
        .with_fallback(fallback)
        .with_epochs(backend.manager())
}

/// Absorb a finished (or crashed) service incarnation: accumulate its
/// stats and translate its local outcomes to global tickets.
#[allow(clippy::too_many_arguments)]
fn collect_service(
    node: usize,
    svc: &QueryService<'_, NodeBackend>,
    tickets: &mut HashMap<u64, u64>,
    acc: &mut NodeTotals,
    terminal: &mut Vec<(u64, String)>,
    answered: &mut Vec<AnsweredRecord>,
    n_specs: usize,
    epoch_of: &[u64],
) {
    let st = svc.stats();
    acc.incarnations += 1;
    acc.submitted += st.submitted;
    acc.admitted += st.admitted;
    acc.rejected += st.rejected;
    acc.answered += st.answered;
    acc.degraded += st.degraded;
    acc.breaker_fallbacks += st.breaker_fallbacks;
    acc.failed += st.failed;
    acc.cancelled += st.cancelled;
    acc.shed += st.shed;
    for (local, out) in svc.take_outcomes() {
        let Some(&global) = tickets.get(&local) else {
            continue;
        };
        terminal.push((global, out.label()));
        if let ServiceOutcome::Answered(a) = &out {
            answered.push(AnsweredRecord {
                ticket: global,
                node,
                spec: (global as usize) % n_specs,
                epoch: epoch_of[global as usize],
                sig: answer_sig(a),
            });
        }
    }
    tickets.clear();
}

/// Run one full cluster scenario in virtual time. Pure function of
/// the scenario (replay-exact); see the module docs for the driver's
/// scheduling rules.
pub fn run_cluster_sim(sc: &ClusterScenario) -> Result<ClusterSimResult, ClusterError> {
    if sc.n_sim_nodes == 0 || sc.n_specs == 0 {
        return Err(ClusterError::Config(
            "scenario needs at least one node and one spec".into(),
        ));
    }
    let net = grid(sc.grid_w, sc.grid_h, 0.3, RoadClass::LocalBoston)?;
    let config = EngineConfig::default();

    // Calibrate per-spec costs on a manager-built backend — the same
    // estimator stack the cluster nodes run, so cost hints and
    // capacity planning see the real work.
    let calib_mgr = EpochManager::new(net.clone(), config.clone())?;
    let load = Workload::calibrate(
        &LiveBackend::new(&calib_mgr),
        sample_specs(&net, sc.n_specs, sc.seed),
    )?;
    let (specs, mean_cost) = (&load.specs, load.mean_cost);

    let shards = Arc::new(ShardMap::build(
        &net,
        sc.target_shards,
        sc.n_sim_nodes,
        sc.replication,
    )?);

    // Offered load: fleet capacity is n nodes × 1 work unit per clock
    // unit, so a mean gap of `mean_cost · den / (num · n)` offers
    // `num/den` times capacity.
    let gap = (mean_cost * sc.overload_den / (sc.overload_num * sc.n_sim_nodes as u64)).max(1);
    let schedule = ArrivalSchedule::open_loop(sc.seed ^ 0xA11F_0AD5, sc.n_submissions, gap);
    let horizon = schedule.times().last().copied().unwrap_or(1).max(1);
    let pm = |p: u32| horizon.saturating_mul(u64::from(p)) / 1000;

    let plan = ClusterFaultPlan {
        crashes: sc
            .crash_windows_pm
            .iter()
            .map(|&(node, f, u)| CrashWindow {
                node,
                from: pm(f),
                until: if u >= 1000 { u64::MAX } else { pm(u) },
            })
            .collect(),
        partitions: sc
            .partition_windows_pm
            .iter()
            .map(|(f, u, island)| PartitionWindow {
                from: pm(*f),
                until: if *u >= 1000 { u64::MAX } else { pm(*u) },
                island: island.clone(),
            })
            .collect(),
    };
    let bus_cfg = BusConfig {
        base_latency: (mean_cost / 16).max(1),
        jitter: (mean_cost / 16).max(1),
        spike_every: sc.spike_every,
        // Sized so any spike overshoots the timeout: the client burns
        // the timeout and retries, never waits out the spike.
        spike_latency: mean_cost * 2,
        timeout: (mean_cost / 2).max(2),
    };
    let bus = Rc::new(VirtualBus::new(
        sc.seed ^ 0x0B05_CA11,
        bus_cfg,
        plan.clone(),
    ));
    let failover_hist = Rc::new(RefCell::new(LatencyHistogram::default()));
    let retry = RetryPolicy {
        max_retries: sc.max_retries,
        backoff_base: (mean_cost / 32).max(2),
    };

    let mut backends = Vec::with_capacity(sc.n_sim_nodes);
    for id in 0..sc.n_sim_nodes {
        let manager = EpochManager::new(net.clone(), config.clone())?;
        let breaker_cfg = BreakerConfig {
            window: 8,
            trip_failures: 3,
            cooldown: mean_cost * 2,
            probe_successes: 1,
            // Seeded per-node probe jitter: recovering nodes across
            // the fleet de-lockstep their half-open probes.
            probe_jitter: mean_cost,
            probe_seed: sc.seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        };
        backends.push(NodeBackend::new(
            id,
            manager,
            Arc::clone(&shards),
            Rc::clone(&bus),
            Rc::new(ManualClock::new()),
            breaker_cfg,
            retry,
            Rc::clone(&failover_hist),
        ));
    }

    // The degraded-path fallback: constant-speed answers over the seed
    // network, shared by every node (replicated read-only data).
    let fallback = Engine::new(&net, config.clone())?;
    let svc_cfg = ServiceConfig {
        queue_capacity: sc.queue_capacity,
        default_cost: mean_cost,
        breaker: BreakerConfig {
            cooldown: mean_cost * 4,
            ..BreakerConfig::default()
        },
    };

    let mut events: Vec<Event> = Vec::new();
    for c in &plan.crashes {
        events.push(Event {
            t: c.from,
            rank: 0,
            kind: EventKind::Crash(c.node),
        });
        if c.until != u64::MAX {
            events.push(Event {
                t: c.until,
                rank: 1,
                kind: EventKind::Restart(c.node),
            });
        }
    }
    for &tpm in &sc.delta_times_pm {
        events.push(Event {
            t: pm(tpm),
            rank: 2,
            kind: EventKind::Delta,
        });
    }
    events.sort_by_key(|e| {
        (
            e.t,
            e.rank,
            match e.kind {
                EventKind::Crash(n) | EventKind::Restart(n) => n,
                EventKind::Delta => usize::MAX,
            },
        )
    });

    let n = sc.n_sim_nodes;
    let mut services: Vec<Option<QueryService<'_, NodeBackend>>> = backends
        .iter()
        .map(|b| Some(spawn_service(b, &fallback, &svc_cfg)))
        .collect();
    let mut tickets: Vec<HashMap<u64, u64>> = vec![HashMap::new(); n];
    let mut accum: Vec<NodeTotals> = vec![NodeTotals::default(); n];
    let mut epoch_of = vec![0u64; sc.n_submissions];
    let mut terminal: Vec<(u64, String)> = Vec::new();
    let mut rejected: Vec<(u64, String)> = Vec::new();
    let mut answered: Vec<AnsweredRecord> = Vec::new();
    let mut executed_units = 0u64;
    let (mut crashes, mut restarts, mut routed_failovers, mut unroutable, mut deltas_applied) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let times = schedule.times();
    let mut next_arr = 0usize;
    let mut next_ev = 0usize;

    loop {
        let fleet = (0..n)
            .filter(|&i| services[i].is_some())
            .map(|i| backends[i].clock().now())
            .min();

        // Events first at any instant: a node that crashes at t does
        // not receive the arrival at t.
        if let Some(e) = events.get(next_ev).copied() {
            if fleet.is_none_or(|f| e.t <= f) {
                match e.kind {
                    EventKind::Crash(node) => {
                        if let Some(svc) = services[node].take() {
                            svc.begin_drain(DrainMode::Cancel);
                            collect_service(
                                node,
                                &svc,
                                &mut tickets[node],
                                &mut accum[node],
                                &mut terminal,
                                &mut answered,
                                specs.len(),
                                &epoch_of,
                            );
                            crashes += 1;
                        }
                    }
                    EventKind::Restart(node) => {
                        if services[node].is_none() && !plan.is_down(node, e.t) {
                            backends[node].clock().set(e.t);
                            backends[node].reset_peers();
                            services[node] =
                                Some(spawn_service(&backends[node], &fallback, &svc_cfg));
                            restarts += 1;
                        }
                    }
                    EventKind::Delta => {
                        deltas_applied += 1;
                        let delta = backends[0].manager().current().network().seeded_delta(
                            sc.seed ^ 0x00DE_17A5,
                            sc.delta_edges,
                            deltas_applied,
                        )?;
                        // Every manager — crashed nodes included (the
                        // replicated update log a rejoiner replays) —
                        // applies the same delta in the same order.
                        for b in &backends {
                            b.manager().apply_delta(&delta)?;
                        }
                    }
                }
                next_ev += 1;
                continue;
            }
        }

        if let Some(&t) = times.get(next_arr) {
            if fleet.is_none_or(|f| t <= f) {
                let global = next_arr as u64;
                let idx = next_arr % specs.len();
                let shard = shards.shard_of(specs[idx].source);
                let primary = shards.primary(shard);
                let owner = shards.hosts(shard).find(|&h| services[h].is_some());
                let target = match owner {
                    Some(h) => {
                        if h != primary {
                            routed_failovers += 1;
                        }
                        Some(h)
                    }
                    None => {
                        // No live owner: any live node takes it and
                        // (likely) degrades through the unreachable-
                        // shard path rather than dropping the query.
                        let any = (0..n).find(|&i| services[i].is_some());
                        if any.is_some() {
                            routed_failovers += 1;
                        }
                        any
                    }
                };
                match target {
                    Some(node) => {
                        if let Some(svc) = services[node].as_ref() {
                            let now = backends[node].clock().now();
                            let sub = load.submission(next_arr, now, sc.deadline_factor);
                            match svc.submit(sub) {
                                Ok(local) => {
                                    tickets[node].insert(local, global);
                                    epoch_of[next_arr] = backends[node].manager().current_id().0;
                                }
                                Err(o) => rejected.push((global, format!("{:?}", o.reason))),
                            }
                        }
                    }
                    None => {
                        unroutable += 1;
                        rejected.push((global, "Unroutable".to_string()));
                    }
                }
                next_arr += 1;
                continue;
            }
        }

        // Step the live node with queued work and the smallest clock.
        let mut pick: Option<(u64, usize)> = None;
        for i in 0..n {
            if let Some(svc) = services[i].as_ref() {
                if svc.queue_depth() > 0 {
                    let key = (backends[i].clock().now(), i);
                    if pick.is_none_or(|p| key < p) {
                        pick = Some(key);
                    }
                }
            }
        }
        match pick {
            Some((_, i)) => {
                if let Some(svc) = services[i].as_ref() {
                    if let Some(rep) = svc.step() {
                        executed_units += rep.cost;
                        backends[i]
                            .clock()
                            .advance(rep.cost + backends[i].take_accrued());
                    } else {
                        // The whole queue was shed; charge any RPC
                        // residue and move on.
                        backends[i].clock().advance(backends[i].take_accrued());
                    }
                }
            }
            None => {
                // All live nodes idle: jump the fleet to the next
                // arrival or event, or finish.
                let next_t = match (events.get(next_ev).map(|e| e.t), times.get(next_arr)) {
                    (Some(a), Some(&b)) => Some(a.min(b)),
                    (Some(a), None) => Some(a),
                    (None, Some(&b)) => Some(b),
                    (None, None) => None,
                };
                match next_t {
                    Some(t) => {
                        for i in 0..n {
                            if services[i].is_some() {
                                backends[i].clock().set(t);
                            }
                        }
                    }
                    None => break,
                }
            }
        }
    }

    // Graceful end-of-run drain, then collect every surviving
    // incarnation.
    for i in 0..n {
        if let Some(svc) = services[i].as_ref() {
            svc.begin_drain(DrainMode::Finish);
            while let Some(rep) = svc.step() {
                executed_units += rep.cost;
                backends[i]
                    .clock()
                    .advance(rep.cost + backends[i].take_accrued());
            }
        }
    }
    for i in 0..n {
        if let Some(svc) = services[i].take() {
            collect_service(
                i,
                &svc,
                &mut tickets[i],
                &mut accum[i],
                &mut terminal,
                &mut answered,
                specs.len(),
                &epoch_of,
            );
        }
    }

    // The accumulated service counters, plus what the node itself
    // counted.
    let mut nodes = accum;
    for (i, totals) in nodes.iter_mut().enumerate() {
        let es = backends[i].manager().stats();
        totals.node = i;
        totals.rpc = backends[i].rpc_counters();
        totals.breaker_trips = backends[i].breaker_trips();
        totals.epochs_published = es.epochs_published;
        totals.updates_applied = es.updates_applied;
    }
    let sum = |f: fn(&NodeTotals) -> u64| nodes.iter().map(f).sum::<u64>();
    let stats = ClusterStats {
        offered: sc.n_submissions as u64,
        submitted: sum(|x| x.submitted),
        admitted: sum(|x| x.admitted),
        rejected: sum(|x| x.rejected),
        answered: sum(|x| x.answered),
        degraded: sum(|x| x.degraded),
        failed: sum(|x| x.failed),
        cancelled: sum(|x| x.cancelled),
        unroutable,
        crashes,
        restarts,
        routed_failovers,
        deltas_applied,
        failover_latency: failover_hist.borrow().clone(),
        bus: bus.stats(),
        nodes,
    };
    let elapsed = backends.iter().map(|b| b.clock().now()).max().unwrap_or(0);
    Ok(ClusterSimResult {
        terminal,
        rejected,
        answered,
        stats,
        executed_units,
        elapsed,
        n_submissions: sc.n_submissions,
        n_shards: shards.n_shards(),
        mean_cost,
    })
}
