//! Golden store-equivalence suite for the continental pipeline:
//!
//! * a store built from the lazy generator must be **byte-identical**
//!   to one built from its materialized twin, under every placement
//!   policy;
//! * query answers served through `MemStore`, `FileStore`, and a
//!   `ChecksummedStore` over a `FileStore` must be **bit-identical** to
//!   each other and to the in-memory network (fingerprinted through
//!   `Debug`, which prints shortest-roundtrip floats — equal strings
//!   means equal bits).
//!
//! A scaled-down continental tier keeps the suite fast;
//! `fpbench::metro_huge` gates the smoke tier and measures the
//! million-node tier (`experiments metro-huge`).

use std::sync::Arc;

use allfp::{Engine, EngineConfig, QuerySpec};
use ccam::{
    BlockStore, CcamStore, ChecksummedStore, FileStore, MemStore, PlacementPolicy,
    DEFAULT_PAGE_SIZE,
};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{continental, ContinentalConfig, ContinentalNet};
use roadnet::RoadNetwork;
use traffic::DayCategory;

/// A 900-node continental tier: big enough to need many pages and an
/// index of height > 1, small enough for a debug-build test.
fn tiny_config() -> ContinentalConfig {
    ContinentalConfig {
        cells_x: 3,
        cells_y: 3,
        cell_w: 10,
        cell_h: 10,
        ..ContinentalConfig::smoke(0xC0FFEE)
    }
}

/// The fig9-style workload on the materialized twin of the tier.
fn workload(net: &RoadNetwork) -> Vec<QuerySpec> {
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    roadnet::workload::sample_pairs(net, 6, 0.3, 1.0, 0xF19)
        .expect("sampling succeeds")
        .iter()
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect()
}

/// Bit-level fingerprint of an answer: interval partition plus every
/// path (nodes and travel-time function), via shortest-roundtrip
/// float formatting.
fn fingerprint(a: &allfp::AllFpAnswer) -> String {
    format!("{:?}|{:?}", a.partition, a.paths)
}

/// Every page of the store, read through the public interface.
fn page_images(store: &dyn BlockStore) -> Vec<Vec<u8>> {
    let mut buf = vec![0u8; store.page_size()];
    (0..store.n_pages())
        .map(|id| {
            store.read_page(id, &mut buf).expect("page reads");
            buf.clone()
        })
        .collect()
}

/// Build the tier from the lazy generator with Hilbert packing, the
/// layout the metro-huge tier writes.
fn build_lazy(lazy: &ContinentalNet, store: Arc<dyn BlockStore>) -> CcamStore {
    CcamStore::build_from(
        lazy,
        lazy.patterns(),
        store,
        PlacementPolicy::HilbertPacked,
        256,
    )
    .expect("builds")
}

#[test]
fn lazy_and_materialized_sources_build_identical_stores() {
    let cfg = tiny_config();
    let lazy = ContinentalNet::new(cfg.clone()).expect("config is valid");
    let net = continental(&cfg).expect("materializes");
    for policy in [
        PlacementPolicy::ConnectivityClustered,
        PlacementPolicy::HilbertPacked,
        PlacementPolicy::Random { seed: 11 },
    ] {
        let from_lazy = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        CcamStore::build_from(
            &lazy,
            lazy.patterns(),
            Arc::clone(&from_lazy) as _,
            policy,
            64,
        )
        .expect("builds from the generator");
        let from_net = Arc::new(MemStore::new(DEFAULT_PAGE_SIZE));
        CcamStore::build(&net, Arc::clone(&from_net) as _, policy, 64)
            .expect("builds from the network");
        let (lazy_pages, net_pages) = (page_images(&*from_lazy), page_images(&*from_net));
        assert!(
            lazy_pages.len() > 3,
            "{policy:?}: {} pages",
            lazy_pages.len()
        );
        assert!(
            lazy_pages == net_pages,
            "{policy:?}: the generator's store differs from its twin's"
        );
    }
}

#[test]
fn answers_bit_identical_across_mem_file_and_checksummed_file_stores() {
    let cfg = tiny_config();
    let lazy = ContinentalNet::new(cfg.clone()).expect("config is valid");
    let net = continental(&cfg).expect("materializes");
    let queries = workload(&net);
    assert!(!queries.is_empty());

    // Reference: the in-memory network.
    let mem_engine = Engine::new(&net, EngineConfig::default()).unwrap();
    let reference: Vec<String> = queries
        .iter()
        .map(|q| fingerprint(&mem_engine.all_fastest_paths(q).expect("query succeeds")))
        .collect();

    let dir = std::env::temp_dir().join(format!("fp-store-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tier.ccam");

    // Build once from the generator into a FileStore...
    let file = Arc::new(FileStore::create(&path, DEFAULT_PAGE_SIZE).expect("file store"));
    build_lazy(&lazy, file);

    // ...once into a MemStore (the builder is deterministic, so the
    // two serve the same bytes)...
    let mem_ccam = build_lazy(&lazy, Arc::new(MemStore::new(DEFAULT_PAGE_SIZE)));

    // ...and once through a ChecksummedStore into a second file, whose
    // visible pages are a header shorter: a different layout that must
    // still answer the same bits.
    let summed_path = dir.join("tier-summed.ccam");
    let summed_file = FileStore::create(&summed_path, DEFAULT_PAGE_SIZE).expect("file store");
    let summed = Arc::new(ChecksummedStore::new(Arc::new(summed_file)));
    build_lazy(&lazy, summed);

    // 64 frames over hundreds of pages: eviction and re-reading are
    // exercised, not just the first read of each page.
    let file_ro = Arc::new(FileStore::open(&path, DEFAULT_PAGE_SIZE).expect("file reopens"));
    let file_ccam = CcamStore::open(file_ro, 64).expect("ccam over file");

    let summed_ro = FileStore::open(&summed_path, DEFAULT_PAGE_SIZE).expect("file reopens");
    let summed_ro: Arc<dyn BlockStore> = Arc::new(ChecksummedStore::new(Arc::new(summed_ro)));
    let summed_ccam = CcamStore::open(Arc::clone(&summed_ro), 64).expect("ccam over checksums");

    for (label, disk) in [
        ("MemStore", &mem_ccam),
        ("FileStore", &file_ccam),
        ("ChecksummedStore over FileStore", &summed_ccam),
    ] {
        let engine = Engine::new(disk, EngineConfig::default()).unwrap();
        for (q, want) in queries.iter().zip(reference.iter()) {
            let got = fingerprint(&engine.all_fastest_paths(q).expect("query succeeds"));
            assert_eq!(&got, want, "{label} answer diverged from in-memory network");
        }
    }

    // The checksummed file actually served the workload, every pool
    // miss verified and none of them failing.
    let io = summed_ro.io_stats();
    assert!(io.reads() > 0, "the checksummed file was never read");
    assert_eq!(io.corruptions(), 0);

    std::fs::remove_dir_all(&dir).ok();
}
