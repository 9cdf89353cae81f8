//! A statistical CPU profiler for the repo benchmark's query loops.
//!
//! [`Sampler`] arms the process CPU-time timer (`ITIMER_PROF`), and
//! every `SIGPROF` it raises stores the interrupted instruction pointer
//! into a preallocated static table. [`run`] drives one workload's
//! queries under it for a fixed time and writes the raw addresses and
//! the process's memory map; `scripts/profile.sh` turns them into a
//! flat per-function table with `nm`.
//!
//! The kernel delivers the signal at its tick, so a run collects about
//! one sample per 4 ms of CPU: 20 s give ~5 000. Sampling works on
//! x86_64 Linux only; elsewhere [`Sampler::start`] refuses.

// The signal handler and its registration are foreign calls. The
// handler itself only reads one register slot of the context the
// kernel hands it and stores it into an atomic: it never allocates,
// locks or calls anything.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use allfp::{build_estimator, Engine, EngineConfig, PathfindBackend, QuerySpec};
use ccam::{BlockStore, CcamStore, FileStore, PlacementPolicy, DEFAULT_PAGE_SIZE};
use hierarchy::{HierarchyConfig, HierarchyEngine};
use pwl::time::hm;
use pwl::Interval;
use roadnet::generators::{suffolk_like, MetroConfig};
use roadnet::workload::distance_buckets;
use roadnet::RoadNetwork;
use traffic::DayCategory;

/// Samples one run can hold; later ones are counted, not stored.
const CAPACITY: usize = 1 << 17;

static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
/// Signals taken since the sampler started, stored or not.
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// Whether a handler stores what it sees.
static ARMED: AtomicBool = AtomicBool::new(false);
/// One sampler at a time: the table and the timer are process-wide.
static IN_USE: AtomicBool = AtomicBool::new(false);

/// The process's profiling sampler; at most one exists at a time.
#[derive(Debug)]
pub struct Sampler {
    _private: (),
}

/// What a stopped [`Sampler`] collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Samples {
    /// Interrupted instruction pointers, in arrival order.
    pub addrs: Vec<u64>,
    /// Signals that found the table full.
    pub dropped: usize,
}

impl Sampler {
    /// Install the handler and arm the timer to fire every `period` of
    /// process CPU time (the kernel rounds it up to its tick).
    pub fn start(period: Duration) -> Result<Sampler, String> {
        if IN_USE.swap(true, Ordering::AcqRel) {
            return Err("a sampler is already running".into());
        }
        TAKEN.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Release);
        if let Err(e) = sys::arm(period) {
            ARMED.store(false, Ordering::Release);
            IN_USE.store(false, Ordering::Release);
            return Err(e);
        }
        Ok(Sampler { _private: () })
    }

    /// Disarm the timer and hand back the samples.
    pub fn stop(self) -> Samples {
        sys::disarm();
        ARMED.store(false, Ordering::Release);
        let taken = TAKEN.load(Ordering::Acquire);
        let kept = taken.min(CAPACITY);
        let addrs = SAMPLES[..kept]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        IN_USE.store(false, Ordering::Release);
        Samples {
            addrs,
            dropped: taken - kept,
        }
    }
}

/// Store one interrupted instruction pointer: two atomics, nothing
/// else, so it is safe in a signal handler.
fn record(ip: u64) {
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    let i = TAKEN.fetch_add(1, Ordering::AcqRel);
    if let Some(slot) = SAMPLES.get(i) {
        slot.store(ip, Ordering::Relaxed);
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sys {
    use std::ffi::c_void;
    use std::time::Duration;

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `REG_RIP`'s slot in `ucontext_t`: `uc_mcontext.gregs` starts at
    /// byte 40 (after `uc_flags`, `uc_link` and the 24-byte
    /// `uc_stack`), and `REG_RIP` is `gregs[16]`.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    #[derive(Clone, Copy)]
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    extern "C" fn on_sigprof(_signum: i32, _info: *mut c_void, context: *mut c_void) {
        if context.is_null() {
            return;
        }
        // SAFETY: with `SA_SIGINFO` the kernel passes a valid
        // `ucontext_t` as the third argument, and `RIP_OFFSET` is the
        // x86_64 Linux offset of its saved instruction pointer, an
        // 8-byte-aligned `greg_t`.
        let ip = unsafe { context.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read() };
        super::record(ip);
    }

    fn set_timer(period: Duration) -> Result<(), String> {
        let tv = Timeval {
            tv_sec: i64::try_from(period.as_secs()).unwrap_or(i64::MAX),
            tv_usec: i64::from(period.subsec_micros()),
        };
        let timer = Itimerval {
            it_interval: tv,
            it_value: tv,
        };
        // SAFETY: `timer` is a valid `itimerval` for the call's
        // duration; a null `old` is allowed.
        match unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) } {
            0 => Ok(()),
            _ => Err(format!("setitimer: {}", std::io::Error::last_os_error())),
        }
    }

    pub(super) fn arm(period: Duration) -> Result<(), String> {
        if period.is_zero() {
            return Err("the sampling period must be positive".into());
        }
        let action = SigAction {
            sa_sigaction: on_sigprof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        // SAFETY: `action` is a valid `struct sigaction` whose handler
        // has the `SA_SIGINFO` signature; a null `old` is allowed. The
        // handler stays installed after `disarm`, so a signal still in
        // flight then is ignored instead of ending the process.
        if unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) } != 0 {
            return Err(format!("sigaction: {}", std::io::Error::last_os_error()));
        }
        set_timer(period)
    }

    pub(super) fn disarm() {
        // A zero `it_value` disarms; it cannot fail with valid
        // arguments.
        let _ = set_timer(Duration::ZERO);
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod sys {
    use std::time::Duration;

    pub(super) fn arm(_period: Duration) -> Result<(), String> {
        Err("the sampler needs x86_64 Linux".into())
    }

    pub(super) fn disarm() {}
}

/// The repo benchmark's workloads the profiler can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The flat engine over the in-memory network.
    RushMem,
    /// The flat engine over a CCAM file with a 16-frame pool.
    RushDisk,
    /// The contraction hierarchy.
    ChRush,
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rush_mem" => Ok(Workload::RushMem),
            "rush_disk" => Ok(Workload::RushDisk),
            "ch_rush" => Ok(Workload::ChRush),
            other => Err(format!(
                "unknown workload '{other}' (rush_mem|rush_disk|ch_rush)"
            )),
        }
    }
}

/// Which query the loop asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// allFP over the interval.
    All,
    /// singleFP over the interval.
    Single,
}

impl std::str::FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "all" => Ok(Mode::All),
            "single" => Ok(Mode::Single),
            other => Err(format!("unknown mode '{other}' (all|single)")),
        }
    }
}

/// What one profiling run did.
#[derive(Debug, Clone)]
pub struct Report {
    /// Queries asked while sampling.
    pub queries: usize,
    /// CPU-sampled wall time, seconds.
    pub seconds: f64,
    /// Samples written.
    pub samples: usize,
    /// Samples lost to a full table.
    pub dropped: usize,
}

/// The benchmark's network seed and its workloads' pairs per distance
/// bucket (1 to 8 miles, ±0.25) on metro-medium, asked over the
/// morning rush (07:00–10:00, workday).
const NETWORK_SEED: u64 = 0x5EED;

fn pairs(net: &RoadNetwork, per_bucket: usize) -> Result<Vec<QuerySpec>, String> {
    let buckets =
        distance_buckets(net, per_bucket, 8, 0.25, NETWORK_SEED).map_err(|e| e.to_string())?;
    let interval = Interval::of(hm(7, 0), hm(10, 0));
    Ok((0..per_bucket)
        .flat_map(|i| buckets.iter().filter_map(move |(_, p)| p.get(i)))
        .map(|p| QuerySpec::new(p.source, p.target, interval, DayCategory::WORKDAY))
        .collect())
}

/// Ask `queries` round-robin for `seconds` under the sampler, after one
/// unsampled warm-up pass.
fn sample(
    backend: &dyn PathfindBackend,
    queries: &[QuerySpec],
    mode: Mode,
    seconds: f64,
) -> Result<(Samples, usize, f64), String> {
    let ask = |q: &QuerySpec| match mode {
        Mode::All => backend.all_fastest_paths(q).map(drop),
        Mode::Single => backend.single_fastest_path(q).map(drop),
    };
    for q in queries {
        ask(q).map_err(|e| e.to_string())?;
    }
    let sampler = Sampler::start(Duration::from_millis(1))?;
    let t = Instant::now();
    let mut asked = 0usize;
    while t.elapsed().as_secs_f64() < seconds {
        // A failing query stops nothing: the warm-up pass already
        // answered every one of them.
        let _ = ask(&queries[asked % queries.len()]);
        asked += 1;
    }
    let elapsed = t.elapsed().as_secs_f64();
    Ok((sampler.stop(), asked, elapsed))
}

/// Profile `workload` in `mode` for `seconds`, writing `addrs.txt` (one
/// hex instruction pointer per line), `maps.txt` (the process's memory
/// map) and `exe.txt` (the path of this binary) into `out`.
pub fn run(workload: Workload, mode: Mode, seconds: f64, out: &Path) -> Result<Report, String> {
    let io = |e: std::io::Error| e.to_string();
    let lib = |e: allfp::AllFpError| e.to_string();
    std::fs::create_dir_all(out).map_err(io)?;
    let net = suffolk_like(&MetroConfig::medium(NETWORK_SEED)).map_err(|e| e.to_string())?;
    let config = EngineConfig::default();
    let (samples, queries, seconds) = match workload {
        Workload::RushMem => {
            let engine = Engine::new(&net, config).map_err(lib)?;
            sample(&engine, &pairs(&net, 40)?, mode, seconds)?
        }
        Workload::RushDisk => {
            let path = out.join("rush_disk.ccam");
            let store: Arc<dyn BlockStore> =
                Arc::new(FileStore::create(&path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?);
            CcamStore::build(&net, store, PlacementPolicy::ConnectivityClustered, 16)
                .map_err(|e| e.to_string())?;
            let store: Arc<dyn BlockStore> =
                Arc::new(FileStore::open(&path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?);
            let ccam = CcamStore::open(store, 16).map_err(|e| e.to_string())?;
            let estimator = build_estimator(&net, &config).map_err(lib)?;
            let engine = Engine::with_estimator(&ccam, estimator, config);
            let sampled = sample(&engine, &pairs(&net, 26)?, mode, seconds);
            drop(engine);
            drop(ccam);
            std::fs::remove_file(&path).map_err(io)?;
            sampled?
        }
        Workload::ChRush => {
            let ch =
                HierarchyEngine::build(&net, config, HierarchyConfig::default()).map_err(lib)?;
            sample(&ch, &pairs(&net, 26)?, mode, seconds)?
        }
    };
    let addrs: String = samples.addrs.iter().map(|a| format!("{a:x}\n")).collect();
    std::fs::write(out.join("addrs.txt"), addrs).map_err(io)?;
    // procfs reports a size of 0, so read it rather than copy it.
    let maps = std::fs::read_to_string("/proc/self/maps").map_err(io)?;
    std::fs::write(out.join("maps.txt"), maps).map_err(io)?;
    let exe = std::env::current_exe().map_err(io)?;
    std::fs::write(out.join("exe.txt"), format!("{}\n", exe.display())).map_err(io)?;
    Ok(Report {
        queries,
        seconds,
        samples: samples.addrs.len(),
        dropped: samples.dropped,
    })
}
