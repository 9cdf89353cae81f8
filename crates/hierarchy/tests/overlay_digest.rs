//! The contracted overlay of the two metro networks, pinned: a digest
//! of every rank and every arc's `from`, `to`, `via` and `disabled`, the
//! shortcut count and the witness searches' settles. A contraction
//! speed-up must leave the digests and the settles where they are; the
//! entries the searches read may only fall.

use allfp::{Engine, EngineConfig};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::overlay::HierarchySnapshot;

/// FNV-1a over the snapshot's ranks and arc records, each field as a
/// little-endian `u64` (a via pair behind a 1, its absence a 0).
fn digest(snap: &HierarchySnapshot) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for o in &snap.overlays {
        for &r in &o.ranks {
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

/// What one witness-pruned build of `config` (seed `0x5EED`) stores and
/// did: `(digest, shortcuts, settles, scans)`.
fn build(config: MetroConfig) -> (u64, usize, u64, u64) {
    let net = suffolk_like(&config).unwrap();
    let flat = Engine::new(&net, EngineConfig::default());
    let ch = HierarchyEngine::with_flat(flat, HierarchyConfig::default()).unwrap();
    let r = ch.report();
    (
        digest(&ch.snapshot()),
        r.n_shortcuts,
        r.witness_settles,
        r.witness_scans,
    )
}

#[test]
fn metro_small_overlay_is_pinned() {
    let (digest, shortcuts, settles, scans) = build(MetroConfig::small(0x5EED));
    assert_eq!(digest, 0x2854_2a07_ef67_dbef);
    assert_eq!(shortcuts, 1_487);
    assert_eq!(settles, 76_306);
    // 452 758 arcs read when the searches walked the arc lists.
    assert!(scans <= 299_633, "{scans} entries read");
}

#[test]
fn metro_medium_overlay_is_pinned() {
    let (digest, shortcuts, settles, scans) = build(MetroConfig::medium(0x5EED));
    assert_eq!(digest, 0xb642_a434_8b31_c194);
    assert_eq!(shortcuts, 17_296);
    assert_eq!(settles, 2_545_891);
    // 68 837 180 arcs read when the searches walked the arc lists.
    assert!(scans <= 31_104_334, "{scans} entries read");
}
