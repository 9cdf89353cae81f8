//! allFP answers pinned from the commit *before* the pointwise border
//! rule (DESIGN.md §7), because the repo benchmark's flat reference is
//! the engine under test and cannot notice a rule that prunes a
//! winner.
//!
//! `golden/allfp_parent.txt` holds, per query, the partition bounds,
//! the node sequences and the travel-function coefficient bits of the
//! parent's answer, plus the `expanded_paths` of allFP and singleFP on
//! both backends. The always-on test asserts that the flat engine and
//! the hierarchy still return every answer bit for bit, that no query
//! of either kind expands more paths on either backend than it did,
//! and that the totals fell for allFP on both and for the hierarchy's
//! singleFP: the flat counts follow the border rule and the lower-bound
//! estimator, the hierarchy's the border rule and, since its overlay
//! stores exact functions, labels that are no longer loosened by an
//! error band.
//!
//! Regenerate (only from a commit whose answers are the reference):
//! `cargo test --release -p fp-allfp --test golden_allfp -- --ignored`

use std::fmt::Write as _;

use allfp::{AllFpAnswer, Engine, EngineConfig, EstimatorKind, PathfindBackend, QuerySpec};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::distance_buckets;
use roadnet::RoadNetwork;
use traffic::DayCategory;

const GOLDEN: &str = include_str!("golden/allfp_parent.txt");
const SEED: u64 = 0x5EED;

/// The pinned workload: the morning rush on metro-small, and on
/// metro-medium the morning rush, a short afternoon window and the
/// last hour of the day (8 pairs per distance bucket each).
fn workload() -> Vec<(&'static str, RoadNetwork, Vec<QuerySpec>)> {
    let rush = Interval::of(hm(7, 0), hm(10, 0));
    let windows = [
        rush,
        Interval::of(hm(16, 0), hm(16, 45)),
        Interval::of(hm(23, 0), hm(23, 59)),
    ];
    let queries = |net: &RoadNetwork, per_bucket, max_miles, windows: &[Interval]| {
        let buckets = distance_buckets(net, per_bucket, max_miles, 0.25, SEED).expect("pairs");
        let pairs: Vec<_> = buckets.into_iter().flat_map(|(_, pairs)| pairs).collect();
        assert_eq!(pairs.len(), per_bucket * max_miles, "sampler ran short");
        let ask = |w: &Interval| {
            let spec = |p: &roadnet::workload::QueryPair| {
                QuerySpec::new(p.source, p.target, *w, DayCategory::WORKDAY)
            };
            pairs.iter().map(spec).collect::<Vec<_>>()
        };
        windows.iter().flat_map(ask).collect::<Vec<_>>()
    };
    let small = suffolk_like(&MetroConfig::small(SEED)).expect("generator");
    let medium = suffolk_like(&MetroConfig::medium(SEED)).expect("generator");
    let small_queries = queries(&small, 4, 2, &[rush]);
    let medium_queries = queries(&medium, 8, 8, &windows);
    vec![
        ("metro-small", small, small_queries),
        ("metro-medium", medium, medium_queries),
    ]
}

/// The flat engine as the benchmark's `rush_mem` configures it (the
/// min-time estimator), and the hierarchy as `ch_rush` builds it.
fn backends(net: &RoadNetwork) -> (Engine<'_, RoadNetwork>, HierarchyEngine<'_, RoadNetwork>) {
    let config = EngineConfig {
        estimator: EstimatorKind::MinTime,
        ..EngineConfig::default()
    };
    let flat = Engine::for_network(net, config).expect("flat engine");
    let inner = Engine::for_network(net, EngineConfig::default()).expect("flat engine");
    let ch = HierarchyEngine::with_flat(inner, HierarchyConfig::default()).expect("contraction");
    (flat, ch)
}

/// Every bit of an allFP answer a caller can observe, as text.
fn render(answer: &AllFpAnswer) -> String {
    let mut out = String::new();
    for (iv, path) in &answer.partition {
        let (lo, hi) = (iv.lo().to_bits(), iv.hi().to_bits());
        writeln!(out, "part {lo:016x} {hi:016x} {path}").expect("write to a String");
    }
    for path in &answer.paths {
        let nodes: Vec<String> = path.nodes.iter().map(|n| n.0.to_string()).collect();
        write!(out, "path {} |", nodes.join(",")).expect("write to a String");
        for x in path.travel.breakpoints() {
            write!(out, " {:016x}", x.to_bits()).expect("write to a String");
        }
        out.push_str(" |");
        for f in path.travel.linears() {
            write!(out, " {:016x} {:016x}", f.a.to_bits(), f.b.to_bits())
                .expect("write to a String");
        }
        out.push('\n');
    }
    out
}

/// `expanded_paths` of (allFP, singleFP) on the flat engine, then on
/// the hierarchy.
type Counts = [usize; 4];

fn header(net: &str, q: &QuerySpec, counts: Counts) -> String {
    let [fa, fs, ca, cs] = counts;
    let (lo, hi) = (q.interval.lo(), q.interval.hi());
    let (s, t) = (q.source.0, q.target.0);
    format!("query {net} {s} {t} {lo} {hi} expanded {fa} {fs} {ca} {cs}\n")
}

/// Ask both backends; panics unless they agree on the allFP answer.
fn ask(
    flat: &Engine<'_, RoadNetwork>,
    ch: &HierarchyEngine<'_, RoadNetwork>,
    q: &QuerySpec,
    what: &str,
) -> (String, Counts) {
    let fa = flat.all_fastest_paths(q).expect("flat allFP");
    let fs = flat.single_fastest_path(q).expect("flat singleFP");
    let ca = PathfindBackend::all_fastest_paths(ch, q).expect("ch allFP");
    let cs = PathfindBackend::single_fastest_path(ch, q).expect("ch singleFP");
    let answer = render(&fa);
    assert_eq!(answer, render(&ca), "{what}: hierarchy vs flat");
    let counts = [&fa.stats, &fs.stats, &ca.stats, &cs.stats].map(|s| s.expanded_paths);
    (answer, counts)
}

#[test]
#[ignore = "generator: overwrites the golden file with this commit's answers"]
fn write_golden() {
    let mut out = String::new();
    for (name, net, queries) in workload() {
        let (flat, ch) = backends(&net);
        for (i, q) in queries.iter().enumerate() {
            let (answer, counts) = ask(&flat, &ch, q, &format!("{name} query {i}"));
            out.push_str(&header(name, q, counts));
            out.push_str(&answer);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/allfp_parent.txt");
    std::fs::write(path, out).expect("write the golden file");
}

#[test]
fn both_backends_reproduce_the_parent_answers_with_no_more_expansions() {
    // One block per query: its header line, then the rendered answer.
    let mut blocks = GOLDEN.split_inclusive('\n').peekable();
    let mut recorded_total = [0usize; 4];
    let mut total = [0usize; 4];
    for (name, net, queries) in workload() {
        let (flat, ch) = backends(&net);
        for (i, q) in queries.iter().enumerate() {
            let what = format!("{name} query {i}");
            let head = blocks
                .next()
                .unwrap_or_else(|| panic!("{what}: not recorded"));
            let mut recorded_answer = String::new();
            while let Some(line) = blocks.next_if(|l| !l.starts_with("query ")) {
                recorded_answer.push_str(line);
            }
            let fields: Vec<&str> = head.split_whitespace().collect();
            let recorded: Counts = std::array::from_fn(|k| {
                fields[fields.len() - 4 + k]
                    .parse()
                    .expect("a recorded count")
            });
            assert_eq!(
                head,
                header(name, q, recorded),
                "{what}: the workload moved"
            );

            let (answer, counts) = ask(&flat, &ch, q, &what);
            assert_eq!(
                answer, recorded_answer,
                "{what}: answer differs from the parent's"
            );
            for k in 0..4 {
                assert!(
                    counts[k] <= recorded[k],
                    "{what}: count {k} (flat allFP, singleFP, hierarchy allFP, singleFP) is {}, \
                     the parent's {}",
                    counts[k],
                    recorded[k],
                );
                total[k] += counts[k];
                recorded_total[k] += recorded[k];
            }
        }
    }
    assert!(blocks.next().is_none(), "golden file records more queries");
    for k in [0, 2, 3] {
        assert!(
            total[k] < recorded_total[k],
            "expansions did not fall in total (count {k}): {} vs {}",
            total[k],
            recorded_total[k],
        );
    }
}
