//! Slotted data pages.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [0..2)   n_slots: u16
//! [2..4)   free_offset: u16      (start of unused space)
//! [4..)    record heap, growing up
//! ...      free space
//! [end)    slot directory, growing down: per slot (offset: u16, len: u16)
//! ```

use crate::{CcamError, Result};

/// Byte overhead per page (header).
const HEADER: usize = 4;
/// Byte overhead per slot directory entry.
const SLOT: usize = 4;

/// A slotted page view over an owned buffer.
#[derive(Debug, Clone)]
pub struct SlottedPage {
    buf: Vec<u8>,
}

impl SlottedPage {
    /// A fresh empty page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        let mut buf = vec![0u8; page_size];
        write_u16(&mut buf, 0, 0); // n_slots
        write_u16(&mut buf, 2, HEADER as u16); // free_offset
        SlottedPage { buf }
    }

    /// Wrap an existing page image (validates the header).
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self> {
        if buf.len() < HEADER {
            return Err(CcamError::Corrupt("page smaller than header".into()));
        }
        let page = SlottedPage { buf };
        let n = page.n_slots();
        let free = page.free_offset();
        if free > page.buf.len() || HEADER + n * SLOT > page.buf.len() {
            return Err(CcamError::Corrupt(format!(
                "bad page header: n_slots={n} free={free}"
            )));
        }
        Ok(page)
    }

    /// The raw page image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of records on the page.
    fn n_slots(&self) -> usize {
        read_u16(&self.buf, 0) as usize
    }

    fn free_offset(&self) -> usize {
        read_u16(&self.buf, 2) as usize
    }

    /// Free bytes remaining (accounting for the new slot entry an
    /// insert would need).
    fn free_space(&self) -> usize {
        let dir_start = self.buf.len() - self.n_slots() * SLOT;
        dir_start
            .saturating_sub(self.free_offset())
            .saturating_sub(SLOT)
    }

    /// `true` if a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len
    }

    /// Append a record, returning its slot number.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if !self.fits(record.len()) {
            return Err(CcamError::RecordTooLarge {
                need: record.len(),
                page: self.free_space(),
            });
        }
        let n = self.n_slots();
        let off = self.free_offset();
        self.buf[off..off + record.len()].copy_from_slice(record);
        // slot directory entry
        let dir = self.buf.len() - (n + 1) * SLOT;
        write_u16(&mut self.buf, dir, off as u16);
        write_u16(&mut self.buf, dir + 2, record.len() as u16);
        write_u16(&mut self.buf, 0, (n + 1) as u16);
        write_u16(&mut self.buf, 2, (off + record.len()) as u16);
        Ok(n as u16)
    }

    /// Overwrite the record in `slot` with `record`, which must be no
    /// longer than the existing record (the slot's length shrinks to
    /// match; freed bytes inside the heap are not reclaimed until a
    /// page rebuild).
    pub fn overwrite(&mut self, slot: u16, record: &[u8]) -> Result<()> {
        let n = self.n_slots();
        if usize::from(slot) >= n {
            return Err(CcamError::Corrupt(format!("slot {slot} beyond {n} slots")));
        }
        let dir = self.buf.len() - (usize::from(slot) + 1) * SLOT;
        let off = read_u16(&self.buf, dir) as usize;
        let len = read_u16(&self.buf, dir + 2) as usize;
        if record.len() > len {
            return Err(CcamError::RecordTooLarge {
                need: record.len(),
                page: len,
            });
        }
        self.buf[off..off + record.len()].copy_from_slice(record);
        write_u16(&mut self.buf, dir + 2, record.len() as u16);
        Ok(())
    }

    /// Read the record in `slot`.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        let n = self.n_slots();
        if usize::from(slot) >= n {
            return Err(CcamError::Corrupt(format!("slot {slot} beyond {n} slots")));
        }
        let dir = self.buf.len() - (usize::from(slot) + 1) * SLOT;
        let off = read_u16(&self.buf, dir) as usize;
        let len = read_u16(&self.buf, dir + 2) as usize;
        if off + len > self.buf.len() {
            return Err(CcamError::Corrupt(format!(
                "slot {slot} points outside the page ({off}+{len})"
            )));
        }
        Ok(&self.buf[off..off + len])
    }

    /// Iterate all records in slot order.
    pub fn records(&self) -> impl Iterator<Item = Result<&[u8]>> + '_ {
        (0..self.n_slots() as u16).map(move |s| self.get(s))
    }
}

/// Read the record in `slot` straight from a borrowed page image —
/// the hot read path of `CcamStore::node_record`, which would
/// otherwise copy the whole page into an owned [`SlottedPage`] per
/// lookup. Performs the same bounds checks as
/// [`SlottedPage::from_bytes`] followed by [`SlottedPage::get`].
pub fn slot_in(page: &[u8], slot: u16) -> Result<&[u8]> {
    if page.len() < HEADER {
        return Err(CcamError::Corrupt("page smaller than header".into()));
    }
    let n = read_u16(page, 0) as usize;
    if HEADER + n * SLOT > page.len() {
        return Err(CcamError::Corrupt(format!("bad page header: n_slots={n}")));
    }
    if usize::from(slot) >= n {
        return Err(CcamError::Corrupt(format!("slot {slot} beyond {n} slots")));
    }
    let dir = page.len() - (usize::from(slot) + 1) * SLOT;
    let off = read_u16(page, dir) as usize;
    let len = read_u16(page, dir + 2) as usize;
    if off + len > page.len() {
        return Err(CcamError::Corrupt(format!(
            "slot {slot} points outside the page ({off}+{len})"
        )));
    }
    Ok(&page[off..off + len])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SlottedPage {
        /// Consume into the raw page image.
        fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    #[test]
    fn insert_and_get() {
        let mut p = SlottedPage::new(128);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.get(0).unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap(), b"world!");
        assert_eq!(p.n_slots(), 2);
        assert!(p.get(2).is_err());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = SlottedPage::new(64);
        let rec = [7u8; 10];
        let mut inserted = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            inserted += 1;
        }
        // 64 - 4 header = 60; each record costs 10 + 4 slot = 14 → 4 fit
        assert_eq!(inserted, 4);
        assert!(matches!(
            p.insert(&rec),
            Err(CcamError::RecordTooLarge { .. })
        ));
        // everything still readable
        for r in p.records() {
            assert_eq!(r.unwrap(), &rec);
        }
    }

    #[test]
    fn round_trip_through_bytes() {
        let mut p = SlottedPage::new(256);
        p.insert(b"alpha").unwrap();
        p.insert(b"beta").unwrap();
        let bytes = p.into_bytes();
        let q = SlottedPage::from_bytes(bytes).unwrap();
        assert_eq!(q.n_slots(), 2);
        assert_eq!(q.get(1).unwrap(), b"beta");
    }

    #[test]
    fn from_bytes_validates() {
        assert!(SlottedPage::from_bytes(vec![0u8; 2]).is_err());
        let mut bad = vec![0u8; 64];
        bad[0] = 200; // n_slots = 200 → directory overflows the page
        assert!(SlottedPage::from_bytes(bad).is_err());
    }

    #[test]
    fn overwrite_shrinks_in_place() {
        let mut p = SlottedPage::new(128);
        p.insert(b"original-record").unwrap();
        p.insert(b"second").unwrap();
        p.overwrite(0, b"short").unwrap();
        assert_eq!(p.get(0).unwrap(), b"short");
        assert_eq!(p.get(1).unwrap(), b"second");
        // growing is rejected
        assert!(matches!(
            p.overwrite(0, b"something far longer than before"),
            Err(CcamError::RecordTooLarge { .. })
        ));
        // bad slot is rejected
        assert!(p.overwrite(5, b"x").is_err());
        // survives a round trip
        let q = SlottedPage::from_bytes(p.into_bytes()).unwrap();
        assert_eq!(q.get(0).unwrap(), b"short");
    }

    #[test]
    fn empty_record_ok() {
        let mut p = SlottedPage::new(64);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }
}
