//! CCAM — the Connectivity-Clustered Access Method storage substrate.
//!
//! The paper stores the road network on disk using CCAM (Shekhar &
//! Liu, TKDE 1997; §2.2 of the ICDE 2006 paper): node records —
//! location plus adjacency list with per-edge distance and speed
//! pattern — are packed into disk pages so that *connected nodes tend
//! to share a page*, and an index over node ids locates any record.
//! Node ids here are dense (`0..n`, as the query engine's per-node
//! tables assume), so that index is a record directory, one fixed-size
//! entry per node found by arithmetic, not a search tree.
//!
//! This crate is a small but real storage engine:
//!
//! * [`store`] — the block layer: fixed-size pages over a file or
//!   memory, with physical I/O counters;
//! * [`page`] — slotted 2048-byte data pages;
//! * [`record`] — binary encoding of node records
//!   (`bytes`-based, round-trip tested);
//! * [`hilbert`] — Hilbert curve ordering of node locations (the
//!   one-dimensional ordering CCAM clusters by);
//! * [`partition`] — page-packing policies: connectivity-clustered
//!   (CCAM proper), plain Hilbert packing, and random packing (the
//!   ablation baseline);
//! * [`directory`] — the disk-resident record directory: node id →
//!   (page, slot), 6 bytes an entry in id order, so a lookup reads the
//!   one directory page its id names, through the buffer pool;
//! * [`buffer`] — an LRU buffer pool with hit/miss statistics, the
//!   one place a page is cached;
//! * [`CcamStore`] — the assembled access method implementing
//!   [`roadnet::NetworkSource`] (`FindNode` / `GetSuccessor`), so the
//!   query engine runs unchanged over disk-resident networks. One
//!   serial builder, [`CcamStore::build_from`], writes it from any
//!   `NetworkSource` without materializing the network (the
//!   million-node continental tier streams from its lazy generator);
//! * [`integrity`] — per-page CRC32 checksums ([`ChecksummedStore`])
//!   so a bit-flipped page is detected on read, never served as data;
//! * [`fault`] — a deterministic seeded fault injector
//!   ([`FaultInjectingStore`]) for exercising the retry and
//!   corruption-detection paths under test.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod buffer;
mod ccam;
mod directory;
mod hilbert;
mod page;
mod partition;
mod record;
mod store;

pub mod fault;
pub mod integrity;

pub use buffer::{BufferPool, StoreStats};
pub use ccam::CcamStore;
pub use fault::{FaultEvent, FaultInjectingStore, FaultKind, FaultPlan};
pub use hilbert::{hilbert_d2xy, hilbert_order, hilbert_xy2d};
pub use integrity::{crc32, ChecksummedStore};
pub use page::SlottedPage;
pub use partition::{partition_nodes, Partitioning, PlacementPolicy};
pub use record::{EdgeRecord, NodeRecord};
pub use store::{BlockStore, FileStore, IoStats, MemStore};

/// Default page size, matching the paper's experiments ("we set the
/// page size to 2048 bytes", §6.1).
pub const DEFAULT_PAGE_SIZE: usize = 2048;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum CcamError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A page id beyond the end of the store.
    BadPage(u64),
    /// A record failed to decode (corruption or version mismatch).
    Corrupt(String),
    /// A record was too large for a page.
    RecordTooLarge {
        /// Encoded record size in bytes.
        need: usize,
        /// Page capacity in bytes.
        page: usize,
    },
    /// Key not found in the index.
    NotFound(u64),
    /// A new node's id is not the next dense id: a store of `next`
    /// nodes names them `0..next`, so it can only insert `next`.
    NodeIdNotNext {
        /// The id asked for.
        id: u64,
        /// The only id an insert can take.
        next: u64,
    },
    /// A store file's header records a different page size than the
    /// caller asked to open it with. Typed (rather than a generic
    /// header failure) so callers can retry with the recorded size.
    PageSizeMismatch {
        /// Page size recorded in the file header.
        stored: u32,
        /// Page size the caller asked for.
        requested: usize,
    },
    /// Propagated network-layer error.
    Network(roadnet::NetworkError),
    /// A page failed its CRC32 integrity check on read. The stored
    /// bytes are wrong; this is never retryable (contrast
    /// [`CcamError::TransientIo`]).
    Corruption {
        /// Page whose checksum failed.
        page: u64,
        /// CRC32 recorded in the page header.
        stored: u32,
        /// CRC32 recomputed over the payload read back.
        computed: u32,
    },
    /// A transient I/O fault (injected or environmental) that may
    /// succeed if retried; the buffer pool absorbs these with bounded
    /// retry-with-backoff.
    TransientIo {
        /// Page whose access faulted.
        page: u64,
        /// Which operation faulted.
        op: IoOp,
    },
}

/// Which half of the block interface an I/O fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// `read_page`.
    Read,
    /// `write_page`.
    Write,
}

impl CcamError {
    /// Whether this failure is worth retrying: transient faults clear
    /// on their own, and an OS-interrupted syscall may succeed if
    /// reissued. Corruption and every other class are permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            CcamError::TransientIo { .. } => true,
            CcamError::Io(e) => e.kind() == std::io::ErrorKind::Interrupted,
            _ => false,
        }
    }
}

impl std::fmt::Display for CcamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcamError::Io(e) => write!(f, "io error: {e}"),
            CcamError::BadPage(p) => write!(f, "bad page id {p}"),
            CcamError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            CcamError::RecordTooLarge { need, page } => {
                write!(f, "record of {need} bytes exceeds page capacity {page}")
            }
            CcamError::NotFound(k) => write!(f, "key {k} not found"),
            CcamError::NodeIdNotNext { id, next } => {
                write!(f, "node id {id} is not the next dense id {next}")
            }
            CcamError::PageSizeMismatch { stored, requested } => {
                write!(
                    f,
                    "store was built with page size {stored}, not {requested}"
                )
            }
            CcamError::Network(e) => write!(f, "network error: {e}"),
            CcamError::Corruption {
                page,
                stored,
                computed,
            } => write!(
                f,
                "page {page} failed integrity check: stored crc {stored:#010x}, computed {computed:#010x}"
            ),
            CcamError::TransientIo { page, op } => {
                write!(f, "transient {op:?} fault on page {page}")
            }
        }
    }
}

impl std::error::Error for CcamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CcamError::Io(e) => Some(e),
            CcamError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CcamError {
    fn from(e: std::io::Error) -> Self {
        CcamError::Io(e)
    }
}

impl From<roadnet::NetworkError> for CcamError {
    fn from(e: roadnet::NetworkError) -> Self {
        CcamError::Network(e)
    }
}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, CcamError>;
