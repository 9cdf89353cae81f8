//! The block layer: fixed-size pages over memory or a file, with
//! physical I/O counters.

use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::{CcamError, Result};

#[cfg(unix)]
mod positional {
    //! Positional file I/O: one `pread`/`pwrite` per call and no
    //! shared cursor, so concurrent callers need no lock.

    use std::fs::File;
    use std::io;
    use std::os::unix::fs::FileExt;

    pub struct PositionalFile(File);

    impl PositionalFile {
        pub fn new(file: File) -> Self {
            PositionalFile(file)
        }

        pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            self.0.read_exact_at(buf, offset)
        }

        pub fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
            self.0.write_all_at(buf, offset)
        }
    }
}

#[cfg(not(unix))]
mod positional {
    //! Portable fallback: the file's one cursor behind a lock, a seek
    //! and a transfer per call.

    use std::fs::File;
    use std::io::{self, Read, Seek, SeekFrom, Write};

    use parking_lot::Mutex;

    pub struct PositionalFile(Mutex<File>);

    impl PositionalFile {
        pub fn new(file: File) -> Self {
            PositionalFile(Mutex::new(file))
        }

        pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            let mut file = self.0.lock();
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }

        pub fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
            let mut file = self.0.lock();
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(buf)
        }
    }
}

use positional::PositionalFile;

/// Physical I/O counters for a [`BlockStore`] (monotonic; snapshot with
/// [`IoStats::snapshot`]).
///
/// # Thread-safety contract
///
/// Counters use `Ordering::Relaxed`: increments are individually exact
/// but carry no ordering with the I/O they describe, so totals are only
/// guaranteed complete after the issuing threads have been joined (or
/// otherwise provably stopped). Experiments always read them quiescent.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    retries: AtomicU64,
    corruptions: AtomicU64,
    exhausted: AtomicU64,
}

impl IoStats {
    /// Pages physically read so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Pages physically written so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Bytes physically read so far (page-size multiples of
    /// [`IoStats::reads`]).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Bytes physically written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Transient-fault retries issued by the buffer pool so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Pages that failed their integrity check on read so far.
    pub fn corruptions(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    /// Transient-fault retry rounds that gave up (all
    /// [`crate::IO_ATTEMPTS`] attempts faulted and the error
    /// surfaced): retries absorb blips, exhaustions mean the store is
    /// sick. Each one also reaches the caller as an error, which the
    /// query engine surfaces as a `NetworkError::Storage`: the service's
    /// circuit breaker counts those outcomes, not this tally.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// `(reads, writes)` snapshot.
    pub fn snapshot(&self) -> (u64, u64) {
        (self.reads(), self.writes())
    }

    pub(crate) fn bump_read(&self, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn bump_write(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn bump_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_corruption(&self) {
        self.corruptions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_exhausted(&self) {
        self.exhausted.fetch_add(1, Ordering::Relaxed);
    }
}

/// A store of fixed-size pages addressed by dense `u64` ids.
pub trait BlockStore: Send + Sync {
    /// Page size in bytes (constant for the life of the store).
    fn page_size(&self) -> usize;

    /// Number of allocated pages.
    fn n_pages(&self) -> u64;

    /// Allocate a zeroed page at the end, returning its id.
    fn allocate(&self) -> Result<u64>;

    /// Read page `id` into `buf` (`buf.len() == page_size`).
    fn read_page(&self, id: u64, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` to page `id`.
    fn write_page(&self, id: u64, buf: &[u8]) -> Result<()>;

    /// Physical I/O counters.
    fn io_stats(&self) -> &IoStats;
}

/// An in-memory block store (tests, benchmarks, and buffer-pool-miss
/// accounting without a filesystem).
pub struct MemStore {
    page_size: usize,
    pages: Mutex<Vec<Box<[u8]>>>,
    stats: IoStats,
}

impl MemStore {
    /// New empty store with the given page size.
    pub fn new(page_size: usize) -> Self {
        MemStore {
            page_size,
            pages: Mutex::new(Vec::new()),
            stats: IoStats::default(),
        }
    }
}

impl BlockStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn n_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn allocate(&self) -> Result<u64> {
        let mut pages = self.pages.lock();
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(pages.len() as u64 - 1)
    }

    fn read_page(&self, id: u64, buf: &mut [u8]) -> Result<()> {
        let pages = self.pages.lock();
        let page = pages.get(id as usize).ok_or(CcamError::BadPage(id))?;
        buf.copy_from_slice(page);
        self.stats.bump_read(buf.len());
        Ok(())
    }

    fn write_page(&self, id: u64, buf: &[u8]) -> Result<()> {
        let mut pages = self.pages.lock();
        let page = pages.get_mut(id as usize).ok_or(CcamError::BadPage(id))?;
        page.copy_from_slice(buf);
        self.stats.bump_write(buf.len());
        Ok(())
    }

    fn io_stats(&self) -> &IoStats {
        &self.stats
    }
}

/// A file-backed block store.
///
/// The file starts with a 16-byte header — magic, format version, and
/// page size — written by [`FileStore::create`] and validated by
/// [`FileStore::open`], so opening a non-store file fails with
/// [`CcamError::Corrupt`] (or, for a store built with a different page
/// size, the typed [`CcamError::PageSizeMismatch`]) instead of
/// silently reading garbage. Pages follow the header back-to-back.
///
/// Page I/O is positional (`pread`/`pwrite` on unix): no shared
/// cursor and no lock, so an access names its page and nothing else.
pub struct FileStore {
    page_size: usize,
    file: PositionalFile,
    n_pages: AtomicU64,
    stats: IoStats,
}

/// File magic: `b"CCFS"` (CCam File Store).
const FILE_MAGIC: u32 = u32::from_be_bytes(*b"CCFS");
/// On-disk format version. v2 introduced the validated file header
/// (v1 files — bare page arrays — are no longer readable).
const FILE_VERSION: u16 = 2;
/// File header size in bytes; pages start at this offset.
const FILE_HEADER: u64 = 16;

fn encode_file_header(page_size: usize) -> [u8; FILE_HEADER as usize] {
    let mut h = [0u8; FILE_HEADER as usize];
    h[0..4].copy_from_slice(&FILE_MAGIC.to_be_bytes());
    h[4..6].copy_from_slice(&FILE_VERSION.to_be_bytes());
    // h[6..8] reserved
    h[8..12].copy_from_slice(&(page_size as u32).to_be_bytes());
    // h[12..16] reserved
    h
}

/// Validate a store file header (magic, version, page size) and the
/// page area (`len` = whole file length) against what the caller
/// expects, returning the page count — [`CcamError::PageSizeMismatch`]
/// when the header disagrees with the requested page size.
fn validate_file_header(
    header: &[u8; FILE_HEADER as usize],
    len: u64,
    page_size: usize,
) -> Result<u64> {
    let magic = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if magic != FILE_MAGIC {
        return Err(CcamError::Corrupt(format!(
            "bad file magic {magic:#010x}: not a ccam block store"
        )));
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version != FILE_VERSION {
        return Err(CcamError::Corrupt(format!(
            "unsupported store format version {version} (expected {FILE_VERSION})"
        )));
    }
    let stored_page_size = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
    if stored_page_size as usize != page_size {
        return Err(CcamError::PageSizeMismatch {
            stored: stored_page_size,
            requested: page_size,
        });
    }
    if !(len - FILE_HEADER).is_multiple_of(page_size as u64) {
        return Err(CcamError::Corrupt(format!(
            "page area of {} bytes not a multiple of page size {page_size}",
            len - FILE_HEADER
        )));
    }
    Ok((len - FILE_HEADER) / page_size as u64)
}

impl FileStore {
    /// Create (truncating) a store at `path`.
    pub fn create(path: &Path, page_size: usize) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&encode_file_header(page_size))?;
        Ok(FileStore {
            page_size,
            file: PositionalFile::new(file),
            n_pages: AtomicU64::new(0),
            stats: IoStats::default(),
        })
    }

    /// Open an existing store at `path`, validating the file header
    /// (magic, format version, page size) against what the caller
    /// expects and the page area against the file length.
    pub fn open(path: &Path, page_size: usize) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len < FILE_HEADER {
            return Err(CcamError::Corrupt(format!(
                "file too short ({len} bytes) to hold a store header"
            )));
        }
        let mut header = [0u8; FILE_HEADER as usize];
        file.read_exact(&mut header)?;
        let n_pages = validate_file_header(&header, len, page_size)?;
        Ok(FileStore {
            page_size,
            file: PositionalFile::new(file),
            n_pages: AtomicU64::new(n_pages),
            stats: IoStats::default(),
        })
    }

    fn offset(&self, id: u64) -> u64 {
        FILE_HEADER + id * self.page_size as u64
    }
}

impl BlockStore for FileStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn n_pages(&self) -> u64 {
        self.n_pages.load(Ordering::Relaxed)
    }

    fn allocate(&self) -> Result<u64> {
        // The `fetch_add` hands every caller its own id, hence its own
        // offset; if a later id's write lands first, the gap it leaves
        // reads as zeros — what a fresh page holds anyway.
        let id = self.n_pages.fetch_add(1, Ordering::Relaxed);
        self.file
            .write_all_at(&vec![0u8; self.page_size], self.offset(id))?;
        Ok(id)
    }

    fn read_page(&self, id: u64, buf: &mut [u8]) -> Result<()> {
        if id >= self.n_pages() {
            return Err(CcamError::BadPage(id));
        }
        self.file.read_exact_at(buf, self.offset(id))?;
        self.stats.bump_read(buf.len());
        Ok(())
    }

    fn write_page(&self, id: u64, buf: &[u8]) -> Result<()> {
        if id >= self.n_pages() {
            return Err(CcamError::BadPage(id));
        }
        self.file.write_all_at(buf, self.offset(id))?;
        self.stats.bump_write(buf.len());
        Ok(())
    }

    fn io_stats(&self) -> &IoStats {
        &self.stats
    }
}

/// `n` pages of seeded noise, every page different: contents for the
/// tests here and in the buffer pool that compare reads to a twin.
#[cfg(test)]
pub(crate) fn noise_pages(n: usize, page_size: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|p| {
            (0..page_size)
                .map(|i| crate::fault::splitmix64((p * page_size + i) as u64) as u8)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn BlockStore) {
        assert_eq!(store.n_pages(), 0);
        let p0 = store.allocate().unwrap();
        let p1 = store.allocate().unwrap();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(store.n_pages(), 2);

        let mut buf = vec![0u8; store.page_size()];
        buf[0] = 0xAB;
        buf[store.page_size() - 1] = 0xCD;
        store.write_page(1, &buf).unwrap();

        let mut out = vec![0u8; store.page_size()];
        store.read_page(1, &mut out).unwrap();
        assert_eq!(out, buf);
        store.read_page(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));

        assert!(matches!(
            store.read_page(7, &mut out),
            Err(CcamError::BadPage(7))
        ));
        assert!(matches!(
            store.write_page(7, &buf),
            Err(CcamError::BadPage(7))
        ));

        let (r, w) = store.io_stats().snapshot();
        assert_eq!((r, w), (2, 1));
        let page = store.page_size() as u64;
        assert_eq!(store.io_stats().bytes_read(), 2 * page);
        assert_eq!(store.io_stats().bytes_written(), page);
    }

    #[test]
    fn mem_store() {
        exercise(&MemStore::new(512));
    }

    #[test]
    fn file_store() {
        let dir = std::env::temp_dir().join(format!("ccam-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.db");
        exercise(&FileStore::create(&path, 512).unwrap());

        // persistence across close/open
        {
            let s = FileStore::create(&path, 512).unwrap();
            s.allocate().unwrap();
            let mut buf = vec![9u8; 512];
            buf[3] = 42;
            s.write_page(0, &buf).unwrap();
        }
        let s = FileStore::open(&path, 512).unwrap();
        assert_eq!(s.n_pages(), 1);
        let mut out = vec![0u8; 512];
        s.read_page(0, &mut out).unwrap();
        assert_eq!(out[3], 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_positional_reads_match_the_twin() {
        let dir = std::env::temp_dir().join(format!("ccam-test-pread-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileStore::create(&dir.join("store.db"), 256).unwrap();
        let twin = noise_pages(64, 256);
        for page in &twin {
            let id = store.allocate().unwrap();
            store.write_page(id, page).unwrap();
        }

        let (threads, reads_each) = (4u64, 10_000u64);
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (store, twin, start) = (&store, &twin, &start);
                s.spawn(move || {
                    let mut buf = vec![0u8; 256];
                    start.wait();
                    for i in 0..reads_each {
                        let id = crate::fault::splitmix64(t << 32 | i) % twin.len() as u64;
                        store.read_page(id, &mut buf).unwrap();
                        assert_eq!(buf, twin[id as usize], "thread {t} read {i} page {id}");
                    }
                });
            }
        });
        // scope joined every reader, so the relaxed counters are complete
        assert_eq!(store.io_stats().reads(), threads * reads_each);
        assert_eq!(store.io_stats().bytes_read(), threads * reads_each * 256);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_allocations_get_distinct_pages_and_a_valid_file() {
        let dir = std::env::temp_dir().join(format!("ccam-test-alloc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.db");
        let (threads, each) = (4usize, 50usize);
        {
            let store = FileStore::create(&path, 128).unwrap();
            let start = std::sync::Barrier::new(threads);
            let mut ids: Vec<u64> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let (store, start) = (&store, &start);
                        s.spawn(move || {
                            start.wait();
                            (0..each)
                                .map(|_| {
                                    let id = store.allocate().unwrap();
                                    store.write_page(id, &[id as u8; 128]).unwrap();
                                    id
                                })
                                .collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            ids.sort_unstable();
            let want: Vec<u64> = (0..(threads * each) as u64).collect();
            assert_eq!(ids, want, "every id handed out exactly once");
        }

        // the header validates, the page area is whole, and every page
        // holds what its allocator wrote
        let store = FileStore::open(&path, 128).unwrap();
        let n = (threads * each) as u64;
        assert_eq!(store.n_pages(), n);
        let mut buf = vec![0u8; 128];
        for id in 0..n {
            store.read_page(id, &mut buf).unwrap();
            assert_eq!(buf, [id as u8; 128], "page {id}");
        }
        assert!(matches!(
            store.read_page(n, &mut buf),
            Err(CcamError::BadPage(id)) if id == n
        ));
        assert!(matches!(
            store.write_page(n, &buf),
            Err(CcamError::BadPage(id)) if id == n
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_foreign_or_damaged_files() {
        let dir = std::env::temp_dir().join(format!("ccam-test-rag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // not a store at all: junk bytes where the magic should be
        let junk = dir.join("junk.db");
        std::fs::write(&junk, [7u8; 100]).unwrap();
        assert!(matches!(
            FileStore::open(&junk, 512),
            Err(CcamError::Corrupt(_))
        ));

        // too short to even hold a header
        let short = dir.join("short.db");
        std::fs::write(&short, [0u8; 4]).unwrap();
        assert!(matches!(
            FileStore::open(&short, 512),
            Err(CcamError::Corrupt(_))
        ));

        // valid header but ragged page area
        let ragged = dir.join("ragged.db");
        let mut bytes = encode_file_header(512).to_vec();
        bytes.extend_from_slice(&[0u8; 100]);
        std::fs::write(&ragged, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&ragged, 512),
            Err(CcamError::Corrupt(_))
        ));

        // wrong format version
        let vers = dir.join("version.db");
        let mut bytes = encode_file_header(512).to_vec();
        bytes[4..6].copy_from_slice(&9u16.to_be_bytes());
        std::fs::write(&vers, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&vers, 512),
            Err(CcamError::Corrupt(_))
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_mismatched_page_size() {
        let dir = std::env::temp_dir().join(format!("ccam-test-ps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.db");
        {
            let s = FileStore::create(&path, 512).unwrap();
            s.allocate().unwrap();
        }
        // opening with the page size the file was built with works ...
        assert!(FileStore::open(&path, 512).is_ok());
        // ... but any other page size is refused up front with the
        // typed mismatch error carrying both sizes
        assert!(matches!(
            FileStore::open(&path, 1024),
            Err(CcamError::PageSizeMismatch {
                stored: 512,
                requested: 1024,
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
