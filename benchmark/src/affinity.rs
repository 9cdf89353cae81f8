//! One CPU for the whole run.
//!
//! Every workload is one client thread, but set-up is not: the
//! partitioned estimator precomputes on `available_parallelism()`
//! threads and contraction on two. On a shared two-core box the second
//! core comes and goes with the neighbours, and `setup_s` read 31 ms in
//! one hour and 58 ms in the next. Restricting the process to a single
//! CPU before anything is built makes the library choose one worker and
//! makes set-up, like the queries, a measurement of one core.

/// Restrict this process (and every thread it will start) to the first
/// CPU it is allowed on; returns that CPU. `None` where there is no
/// such call or it fails: the run goes on unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t` of glibc and musl: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, which is all the call requires; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = allowed.iter().enumerate().find_map(|(word, bits)| {
        (*bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize)
    })?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // call only reads.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// No affinity call on this platform.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu() {
        // In a thread of its own: affinity is per thread, and the other
        // tests should keep all their cores.
        let pinned = std::thread::spawn(|| {
            let cpu = super::pin_to_one_cpu();
            (
                cpu,
                std::thread::available_parallelism().map(|n| n.get()).ok(),
            )
        })
        .join()
        .expect("pinning thread");
        assert!(matches!(pinned, (Some(_), Some(1))), "{pinned:?}");
    }
}
