//! The contracted overlay of the metro networks, pinned: a digest of
//! every rank and every arc's `from`, `to`, `via` and `disabled`, and
//! the shortcut count, the pieces the functions hold and the work the
//! build did (rounds, witness settles, entries read), all exact. A
//! contraction speed-up must leave the digests where they are; one
//! that moves a work count updates it and says why. Every build also
//! stores what a query can read and nothing more: one function per
//! enabled arc, at exact size.

use allfp::{Engine, EngineConfig};
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::RoadNetwork;

use crate::{BuildReport, HierarchyConfig, HierarchyEngine};

/// FNV-1a over every overlay's ranks and arc records, each field as a
/// little-endian `u64` (a via pair behind a 1, its absence a 0).
fn digest(engine: &HierarchyEngine<'_, RoadNetwork>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for o in &engine.overlays {
        for &r in &o.rank {
            eat(r.into());
        }
        for a in &o.arcs {
            eat(a.from.into());
            eat(a.to.into());
            match a.via {
                Some((x, y)) => [1, x.into(), y.into()].into_iter().for_each(&mut eat),
                None => eat(0),
            }
            eat(a.disabled.into());
        }
    }
    h
}

/// What one witness-pruned build of `config` stores and did: the
/// structure's digest and the build's report.
fn build(config: MetroConfig) -> (u64, BuildReport) {
    let net = suffolk_like(&config).unwrap();
    let flat = Engine::new(&net, EngineConfig::default()).unwrap();
    let ch = HierarchyEngine::with_flat(flat, HierarchyConfig::default()).unwrap();
    let r = ch.report();
    // A function of `p` pieces holds `p + 1` knots and `p` linears. A
    // disabled arc that kept its function would put 8 bytes more on the
    // left than on the right, and spare capacity puts its bytes on the
    // left only.
    let stored = (r.n_original_arcs + r.n_shortcuts - r.n_disabled) as u64;
    assert!(r.n_disabled > 0);
    assert_eq!(r.bytes_estimate, 24 * r.overlay_pieces + 8 * stored);
    (digest(&ch), r.clone())
}

#[test]
fn metro_small_overlay_is_pinned() {
    let (digest, r) = build(MetroConfig::small(0x5EED));
    assert_eq!(digest, 0x2854_2a07_ef67_dbef);
    assert_eq!(r.n_shortcuts, 1_487);
    assert_eq!(r.overlay_pieces, 13_442);
    assert_eq!(r.rounds, 31);
    // 76 306 settles and 299 633 entries read when every dirty node was
    // scored in full each round.
    assert_eq!(r.witness_settles, 60_722);
    assert_eq!(r.witness_scans, 233_082);
}

#[test]
fn metro_medium_overlay_is_pinned() {
    let (digest, r) = build(MetroConfig::medium(0x5EED));
    assert_eq!(digest, 0xb642_a434_8b31_c194);
    assert_eq!(r.n_shortcuts, 17_296);
    assert_eq!(r.overlay_pieces, 123_882);
    assert_eq!(r.rounds, 79);
    // 2 545 891 settles and 31 104 334 entries read when every dirty
    // node was scored in full each round.
    assert_eq!(r.witness_settles, 1_578_384);
    assert_eq!(r.witness_scans, 17_202_012);
}

/// The full-scale metro (about 11.6 k nodes): some 15 s to contract in
/// release, so it runs only when asked for (`-- --ignored`).
#[test]
#[ignore]
fn metro_full_overlay_is_pinned() {
    let (digest, r) = build(MetroConfig {
        seed: 0x5EED,
        ..MetroConfig::default()
    });
    assert_eq!(digest, 0x22a4_86e7_e1d1_ce23);
    assert_eq!(r.n_shortcuts, 152_749);
}
