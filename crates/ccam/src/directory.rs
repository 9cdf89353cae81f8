//! The record directory: node id → record address, by arithmetic.
//!
//! Node ids are dense — a network of `n` nodes names them `0..n`, and
//! the query engine indexes its per-query node table by them — so
//! CCAM's index needs no search structure. The directory is a run of
//! pages holding one fixed 6-byte entry per node, in id order: the
//! data page (`u32`) and the slot in it (`u16`), little-endian, 341 to
//! a 2 048-byte page. Node `i`'s entry sits on page
//! `start + i / per_page` at byte `(i % per_page) × 6`, so a lookup
//! reads one directory page, through the buffer pool like every other
//! page. The superblock records where the run starts, how many pages
//! it has and how many entries are in use.
//!
//! A new node takes the next id and appends an entry. When the run is
//! full it is copied to a run of twice as many pages at the end of the
//! file and the superblock is repointed; the old run becomes dead
//! space, like a relocated record's old bytes, until a rebuild.

use roadnet::NodeId;

use crate::buffer::BufferPool;
use crate::store::BlockStore;
use crate::{CcamError, Result};

/// Bytes per entry: data page `u32`, slot `u16`.
const ENTRY: usize = 6;

/// Where a store's directory lives and how much of it is in use.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Directory {
    /// First page of the run.
    start: u64,
    /// Pages in the run.
    n_pages: u64,
    /// Entries in use: the store's node count.
    len: usize,
    per_page: usize,
}

impl Directory {
    /// The directory a superblock describes, checked against the file:
    /// its run must lie past the superblock and inside the file, and
    /// hold `len` entries.
    pub(crate) fn open(
        store: &dyn BlockStore,
        start: u64,
        n_pages: u64,
        len: usize,
    ) -> Result<Self> {
        let file_pages = store.n_pages();
        let end = start.checked_add(n_pages);
        if n_pages > 0 && (start == 0 || end.is_none_or(|end| end > file_pages)) {
            return Err(CcamError::Corrupt(format!(
                "directory of {n_pages} pages at page {start} runs outside pages 1..{file_pages} of the file"
            )));
        }
        let dir = Directory {
            start,
            n_pages,
            len,
            per_page: store.page_size() / ENTRY,
        };
        if dir.capacity() < len {
            return Err(CcamError::Corrupt(format!(
                "directory of {n_pages} pages holds {} entries, fewer than its {len} nodes",
                dir.capacity()
            )));
        }
        Ok(dir)
    }

    /// Entries in use: the store's node count.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The run's first page and page count, for the superblock.
    pub(crate) fn run(&self) -> (u64, u64) {
        (self.start, self.n_pages)
    }

    /// Entries the run has room for.
    fn capacity(&self) -> usize {
        self.n_pages as usize * self.per_page
    }

    /// The page and byte offset of `node`'s entry.
    fn locate(&self, node: usize) -> (u64, usize) {
        (
            self.start + (node / self.per_page) as u64,
            node % self.per_page * ENTRY,
        )
    }

    /// `node`'s record address as `(page, slot)`: one directory page
    /// read. [`CcamError::NotFound`] past the last node; an entry that
    /// names the superblock, a directory page or a page past the end
    /// of the file is [`CcamError::Corrupt`].
    pub(crate) fn get(&self, pool: &BufferPool, node: NodeId) -> Result<(u64, u16)> {
        if node.index() >= self.len {
            return Err(CcamError::NotFound(u64::from(node.0)));
        }
        let (page, at) = self.locate(node.index());
        let (data_page, slot) = pool.with_page(page, |bytes| decode(&bytes[at..at + ENTRY]))?;
        let file_pages = pool.store().n_pages();
        let named = |what: String| {
            CcamError::Corrupt(format!("directory entry of node {node} names {what}"))
        };
        if data_page == 0 {
            return Err(named("the superblock".into()));
        }
        if (self.start..self.start + self.n_pages).contains(&data_page) {
            return Err(named(format!("directory page {data_page}")));
        }
        if data_page >= file_pages {
            return Err(named(format!(
                "page {data_page}, past the end of the file ({file_pages} pages)"
            )));
        }
        Ok((data_page, slot))
    }

    /// Point entry `node` (which must be in the run) at `(page, slot)`.
    pub(crate) fn set(&self, pool: &BufferPool, node: usize, page: u64, slot: u16) -> Result<()> {
        assert!(node < self.capacity(), "entry {node} outside the run");
        let entry = encode(page, slot)?;
        let (dir_page, at) = self.locate(node);
        let mut image = pool.with_page(dir_page, <[u8]>::to_vec)?;
        image[at..at + ENTRY].copy_from_slice(&entry);
        pool.write_page(dir_page, &image)
    }

    /// Append an entry for the next node id, growing the run if it is
    /// full.
    pub(crate) fn push(&mut self, pool: &BufferPool, page: u64, slot: u16) -> Result<()> {
        if self.len == self.capacity() {
            self.grow(pool)?;
        }
        self.set(pool, self.len, page, slot)?;
        self.len += 1;
        Ok(())
    }

    /// Copy the run to one of twice as many pages (one, if empty) at
    /// the end of the file.
    fn grow(&mut self, pool: &BufferPool) -> Result<()> {
        let store = pool.store();
        let n_pages = (self.n_pages * 2).max(1);
        let start = store.n_pages();
        for _ in 0..n_pages {
            store.allocate()?;
        }
        for i in 0..self.n_pages {
            let image = pool.with_page(self.start + i, <[u8]>::to_vec)?;
            pool.write_page(start + i, &image)?;
        }
        self.start = start;
        self.n_pages = n_pages;
        Ok(())
    }
}

/// A directory under construction: every node's entry, set by
/// position as a builder places the node's record.
pub(crate) struct DirectoryImage(Vec<u8>);

impl DirectoryImage {
    /// Room for `n_nodes` entries.
    pub(crate) fn new(n_nodes: usize) -> Self {
        DirectoryImage(vec![0; n_nodes * ENTRY])
    }

    /// Record that `node`'s record is in `slot` of `page`.
    pub(crate) fn set(&mut self, node: NodeId, page: u64, slot: u16) -> Result<()> {
        let at = node.index() * ENTRY;
        self.0[at..at + ENTRY].copy_from_slice(&encode(page, slot)?);
        Ok(())
    }

    /// Write the entries to pages allocated at the end of the store.
    pub(crate) fn write(&self, pool: &BufferPool) -> Result<Directory> {
        let store = pool.store();
        let per_page = store.page_size() / ENTRY;
        let mut dir = Directory {
            start: store.n_pages(),
            n_pages: 0,
            len: self.0.len() / ENTRY,
            per_page,
        };
        for chunk in self.0.chunks(per_page * ENTRY) {
            let mut page = vec![0u8; store.page_size()];
            page[..chunk.len()].copy_from_slice(chunk);
            pool.write_page(store.allocate()?, &page)?;
            dir.n_pages += 1;
        }
        Ok(dir)
    }
}

fn encode(page: u64, slot: u16) -> Result<[u8; ENTRY]> {
    let page = u32::try_from(page).map_err(|_| {
        CcamError::Corrupt(format!("page {page} is past the directory's u32 page ids"))
    })?;
    let mut entry = [0u8; ENTRY];
    entry[..4].copy_from_slice(&page.to_le_bytes());
    entry[4..].copy_from_slice(&slot.to_le_bytes());
    Ok(entry)
}

fn decode(entry: &[u8]) -> (u64, u16) {
    (
        u64::from(u32::from_le_bytes([entry[0], entry[1], entry[2], entry[3]])),
        u16::from_le_bytes([entry[4], entry[5]]),
    )
}
