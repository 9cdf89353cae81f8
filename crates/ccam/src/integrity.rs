//! Per-page CRC32 checksums: [`ChecksummedStore`] wraps any
//! [`BlockStore`] and guarantees a page that reads back different from
//! what was written is *detected*, never served as data.
//!
//! # Page format (version 1)
//!
//! Every inner page starts with an 8-byte header in front of the
//! caller-visible payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"CP" (Checksummed Page)
//! 2       2     format version (big-endian, currently 1)
//! 4       4     CRC32 (IEEE) of the payload (big-endian)
//! 8       ...   payload (inner page size - 8 bytes)
//! ```
//!
//! The wrapper therefore *shrinks* the visible page size by
//! [`PAGE_HEADER`] bytes; callers size their records against
//! [`BlockStore::page_size`] as always and never see the header.
//! Verification happens on every `read_page` — in the assembled stack
//! that is every buffer-pool miss, so a hot page is checked once per
//! fault, not once per access. A mismatch surfaces as
//! [`CcamError::Corruption`] (with both CRCs for diagnostics) and bumps
//! the [`corruptions`](crate::IoStats::corruptions) counter; corruption
//! is never retried (contrast transient faults, which the buffer pool
//! absorbs).

use std::sync::Arc;

use crate::store::{BlockStore, IoStats};
use crate::{CcamError, Result};

/// Checksummed-page header size in bytes.
pub const PAGE_HEADER: usize = 8;

/// Checksummed-page magic: `b"CP"`.
const PAGE_MAGIC: u16 = u16::from_be_bytes(*b"CP");

/// Checksummed-page format version.
const PAGE_VERSION: u16 = 1;

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup tables
/// for slicing-by-8, built at compile time — no runtime init, no
/// dependency. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets eight input bytes be folded per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum `zlib`/`gzip` use. Verified
/// on every pool fault of a checksummed stack, so it folds eight bytes
/// per step (slicing-by-8) and finishes the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The byte-at-a-time CRC32 [`crc32`] replaced, kept as its oracle.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A [`BlockStore`] wrapper that checksums every page (see the module
/// docs for the on-page format). Stack it *above* whatever can corrupt
/// bytes — the file, the memory, an injected fault — and below the
/// buffer pool, so verification runs on every pool fault.
pub struct ChecksummedStore {
    inner: Arc<dyn BlockStore>,
}

impl ChecksummedStore {
    /// Wrap `inner`. The visible page size shrinks by [`PAGE_HEADER`]
    /// bytes; `inner`'s page size must exceed the header.
    pub fn new(inner: Arc<dyn BlockStore>) -> Self {
        assert!(
            inner.page_size() > PAGE_HEADER,
            "inner pages must be larger than the checksum header"
        );
        ChecksummedStore { inner }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn BlockStore> {
        &self.inner
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut full = Vec::with_capacity(self.inner.page_size());
        full.extend_from_slice(&PAGE_MAGIC.to_be_bytes());
        full.extend_from_slice(&PAGE_VERSION.to_be_bytes());
        full.extend_from_slice(&crc32(payload).to_be_bytes());
        full.extend_from_slice(payload);
        full
    }
}

impl BlockStore for ChecksummedStore {
    fn page_size(&self) -> usize {
        self.inner.page_size() - PAGE_HEADER
    }

    fn n_pages(&self) -> u64 {
        self.inner.n_pages()
    }

    fn allocate(&self) -> Result<u64> {
        let id = self.inner.allocate()?;
        // Inner stores hand out zeroed pages; a zero header would fail
        // verification on first read, so stamp a valid empty page now.
        let zero = vec![0u8; self.page_size()];
        self.inner.write_page(id, &self.encode(&zero))?;
        Ok(id)
    }

    fn read_page(&self, id: u64, buf: &mut [u8]) -> Result<()> {
        let mut full = vec![0u8; self.inner.page_size()];
        self.inner.read_page(id, &mut full)?;
        let magic = u16::from_be_bytes([full[0], full[1]]);
        let version = u16::from_be_bytes([full[2], full[3]]);
        if magic != PAGE_MAGIC || version != PAGE_VERSION {
            self.inner.io_stats().bump_corruption();
            return Err(CcamError::Corrupt(format!(
                "page {id}: bad checksum header (magic {magic:#06x}, version {version})"
            )));
        }
        let stored = u32::from_be_bytes([full[4], full[5], full[6], full[7]]);
        let payload = &full[PAGE_HEADER..];
        let computed = crc32(payload);
        if stored != computed {
            self.inner.io_stats().bump_corruption();
            return Err(CcamError::Corruption {
                page: id,
                stored,
                computed,
            });
        }
        buf.copy_from_slice(payload);
        Ok(())
    }

    fn write_page(&self, id: u64, buf: &[u8]) -> Result<()> {
        self.inner.write_page(id, &self.encode(buf))
    }

    fn io_stats(&self) -> &IoStats {
        self.inner.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_oracle() {
        let mut x = 0x5EEDu64;
        let mut noise = move || {
            x += 1;
            crate::fault::splitmix64(x)
        };
        let data: Vec<u8> = (0..4096 + 8).map(|_| noise() as u8).collect();
        // every short length, at every alignment of the first byte
        for len in 0..=64usize {
            for start in 0..8usize {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
        // random lengths up to a page and beyond, every residue mod 8
        let mut residues = [false; 8];
        for _ in 0..400 {
            let len = (noise() % 4097) as usize;
            let start = (noise() % 8) as usize;
            let s = &data[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            residues[len % 8] = true;
        }
        assert!(residues.iter().all(|&seen| seen));
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trips_and_shrinks_page_size() {
        let store = ChecksummedStore::new(Arc::new(MemStore::new(256)));
        assert_eq!(store.page_size(), 256 - PAGE_HEADER);
        let id = store.allocate().unwrap();
        let mut buf = vec![0u8; store.page_size()];
        // freshly allocated pages verify and read back zeroed
        store.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // and written data round-trips
        let data: Vec<u8> = (0..store.page_size()).map(|i| i as u8).collect();
        store.write_page(id, &data).unwrap();
        store.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn detects_a_single_flipped_bit() {
        let raw = Arc::new(MemStore::new(128));
        let store = ChecksummedStore::new(Arc::clone(&raw) as Arc<dyn BlockStore>);
        let id = store.allocate().unwrap();
        let data = vec![0xA5u8; store.page_size()];
        store.write_page(id, &data).unwrap();

        // flip one payload bit underneath the checksum layer
        let mut full = vec![0u8; raw.page_size()];
        raw.read_page(id, &mut full).unwrap();
        full[PAGE_HEADER + 17] ^= 0x04;
        raw.write_page(id, &full).unwrap();

        let mut buf = vec![0u8; store.page_size()];
        let err = store.read_page(id, &mut buf).unwrap_err();
        assert!(
            matches!(err, CcamError::Corruption { page, stored, computed }
                if page == id && stored != computed),
            "got {err:?}"
        );
        assert_eq!(store.io_stats().corruptions(), 1);
        // the error is permanent, not retryable
        assert!(!err.is_transient());
    }

    #[test]
    fn detects_a_damaged_header() {
        let raw = Arc::new(MemStore::new(128));
        let store = ChecksummedStore::new(Arc::clone(&raw) as Arc<dyn BlockStore>);
        let id = store.allocate().unwrap();
        let mut full = vec![0u8; raw.page_size()];
        raw.read_page(id, &mut full).unwrap();
        full[0] = 0xFF; // clobber the magic
        raw.write_page(id, &full).unwrap();
        let mut buf = vec![0u8; store.page_size()];
        assert!(matches!(
            store.read_page(id, &mut buf),
            Err(CcamError::Corrupt(_))
        ));
        assert_eq!(store.io_stats().corruptions(), 1);
    }
}
