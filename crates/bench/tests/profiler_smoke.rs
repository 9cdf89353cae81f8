//! The sampler sees a busy loop. A binary of its own: `SIGPROF` is
//! process-wide, and no sibling test should take it.

use std::time::{Duration, Instant};

use fpbench::profile::Sampler;

#[test]
fn a_busy_loop_yields_samples() {
    let sampler = Sampler::start(Duration::from_millis(1)).unwrap();
    assert!(
        Sampler::start(Duration::from_millis(1)).is_err(),
        "a second sampler while one runs"
    );
    let t = Instant::now();
    let mut x = 0u64;
    while t.elapsed() < Duration::from_millis(500) {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    let samples = sampler.stop();
    assert!(!samples.addrs.is_empty(), "no sample in 0.5 s of CPU");
    assert!(samples.addrs.iter().all(|&ip| ip != 0), "{samples:?}");
    // The table and the timer are free again.
    Sampler::start(Duration::from_millis(1)).unwrap().stop();
}
