//! Serialization hooks for contraction-hierarchy overlays.
//!
//! `fp-hierarchy` contracts a network into an overlay whose expensive
//! part is the *structure* — the node order and which shortcut arcs
//! exist, discovered through thousands of witness searches. The travel
//! functions themselves are cheap to rebuild deterministically (base
//! arcs from the network, shortcuts by re-composing their via pairs in
//! arc order). A [`HierarchySnapshot`] therefore stores only the
//! structure, making saved overlays small and exactly restorable: the
//! rebuilt functions are bit-identical because re-composition runs the
//! same kernels on the same inputs in the same order.
//!
//! **Format v2** appended a storage section per overlay: a flags byte
//! and, when flagged, the error band and per-arc bound tables of the
//! bounded-error storage that earlier revisions could build.
//! Overlays store exact functions only now, so this build writes the
//! flags byte as 0 and, reading, length-checks and skips a flagged
//! payload: the structure in such a snapshot was fixed before its
//! functions were reduced and restores to the exact overlay. v1
//! inputs (no storage section) still decode.
//!
//! The byte format is self-contained (no serde): magic `FPOV`, a
//! format version, length-prefixed sections, and a trailing FNV-1a
//! checksum over everything before it. Decoding validates structure
//! and checksum and never panics on corrupt input.

/// One arc's structural record: endpoints, the via pair for shortcuts,
/// and whether parallel-arc domination disabled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotArc {
    /// Tail node index.
    pub from: u32,
    /// Head node index.
    pub to: u32,
    /// `Some((a, b))` when the arc is a shortcut composing stored arcs
    /// `a` then `b` (both indices precede this arc's own).
    pub via: Option<(u32, u32)>,
    /// Excluded from query adjacency (kept for unpacking).
    pub disabled: bool,
}

/// The structure of one contracted overlay (one day category).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlaySnapshot {
    /// Raw day-category index (`traffic::DayCategory.0`).
    pub category: u8,
    /// Contraction rank per node.
    pub ranks: Vec<u32>,
    /// Arc records in storage order: base arcs first (network edge
    /// iteration order), then shortcuts in creation order.
    pub arcs: Vec<SnapshotArc>,
}

/// A full hierarchy snapshot: one overlay per preprocessed category.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HierarchySnapshot {
    /// Overlays in preprocessing order.
    pub overlays: Vec<OverlaySnapshot>,
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayCodecError {
    /// Fewer bytes than the structure promised.
    Truncated,
    /// The leading magic was not `FPOV`.
    BadMagic,
    /// A format version this build does not read.
    BadVersion(u32),
    /// The trailing checksum did not match the payload.
    BadChecksum,
    /// Structurally invalid (e.g. a shortcut referencing a later arc).
    Malformed(&'static str),
}

impl std::fmt::Display for OverlayCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayCodecError::Truncated => write!(f, "overlay snapshot truncated"),
            OverlayCodecError::BadMagic => write!(f, "overlay snapshot has bad magic"),
            OverlayCodecError::BadVersion(v) => {
                write!(f, "overlay snapshot format version {v} not supported")
            }
            OverlayCodecError::BadChecksum => write!(f, "overlay snapshot checksum mismatch"),
            OverlayCodecError::Malformed(what) => write!(f, "overlay snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for OverlayCodecError {}

const MAGIC: &[u8; 4] = b"FPOV";
const VERSION: u32 = 2;
/// Oldest format this build still decodes.
const MIN_VERSION: u32 = 1;
/// Sanity cap on band buckets per arc in decoded input.
const MAX_BANDS: u32 = 4096;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Reader<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> Result<&'b [u8], OverlayCodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(OverlayCodecError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, OverlayCodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, OverlayCodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, OverlayCodecError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

impl HierarchySnapshot {
    /// Encode to the versioned, checksummed byte format (writes v2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.overlays.len() as u32).to_le_bytes());
        for o in &self.overlays {
            out.push(o.category);
            out.extend_from_slice(&(o.ranks.len() as u32).to_le_bytes());
            for &r in &o.ranks {
                out.extend_from_slice(&r.to_le_bytes());
            }
            out.extend_from_slice(&(o.arcs.len() as u32).to_le_bytes());
            for a in &o.arcs {
                out.extend_from_slice(&a.from.to_le_bytes());
                out.extend_from_slice(&a.to.to_le_bytes());
                let flags = u8::from(a.via.is_some()) | (u8::from(a.disabled) << 1);
                out.push(flags);
                if let Some((x, y)) = a.via {
                    out.extend_from_slice(&x.to_le_bytes());
                    out.extend_from_slice(&y.to_le_bytes());
                }
            }
            // v2 storage section: no flag set, no payload (see the
            // module docs).
            out.push(0);
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode and validate (structure and checksum). Reads v1 and v2;
    /// corrupt or truncated input yields a typed error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, OverlayCodecError> {
        if bytes.len() < 8 {
            return Err(OverlayCodecError::Truncated);
        }
        let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(sum_bytes);
        if fnv1a(payload) != u64::from_le_bytes(sum) {
            return Err(OverlayCodecError::BadChecksum);
        }
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        if r.take(4)? != MAGIC {
            return Err(OverlayCodecError::BadMagic);
        }
        let version = r.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(OverlayCodecError::BadVersion(version));
        }
        let n_overlays = r.u32()? as usize;
        let mut overlays = Vec::new();
        for _ in 0..n_overlays {
            let category = r.u8()?;
            let n_ranks = r.u32()? as usize;
            let mut ranks = Vec::with_capacity(n_ranks.min(payload.len() / 4));
            for _ in 0..n_ranks {
                ranks.push(r.u32()?);
            }
            let n_arcs = r.u32()? as usize;
            let mut arcs = Vec::with_capacity(n_arcs.min(payload.len() / 9));
            for i in 0..n_arcs {
                let from = r.u32()?;
                let to = r.u32()?;
                let flags = r.u8()?;
                if flags & !0b11 != 0 {
                    return Err(OverlayCodecError::Malformed("unknown arc flags"));
                }
                let via = if flags & 1 != 0 {
                    let a = r.u32()?;
                    let b = r.u32()?;
                    if a as usize >= i || b as usize >= i {
                        return Err(OverlayCodecError::Malformed(
                            "shortcut references a later arc",
                        ));
                    }
                    Some((a, b))
                } else {
                    None
                };
                let n = ranks.len() as u32;
                if from >= n || to >= n {
                    return Err(OverlayCodecError::Malformed("arc endpoint out of range"));
                }
                arcs.push(SnapshotArc {
                    from,
                    to,
                    via,
                    disabled: flags & 2 != 0,
                });
            }
            if version >= 2 {
                let flags = r.u8()?;
                if flags & !0b11 != 0 {
                    return Err(OverlayCodecError::Malformed("unknown storage flags"));
                }
                if flags & 1 != 0 {
                    r.u64()?; // the error band
                }
                if flags & 2 != 0 {
                    let n_bands = r.u32()?;
                    if n_bands == 0 || n_bands > MAX_BANDS {
                        return Err(OverlayCodecError::Malformed("band bucket count"));
                    }
                    // Four scalars and two bands of `n_bands` buckets
                    // per arc, eight bytes each.
                    let bytes = (2 * n_bands as usize + 4)
                        .checked_mul(arcs.len())
                        .and_then(|words| words.checked_mul(8))
                        .ok_or(OverlayCodecError::Malformed("band table overflow"))?;
                    r.take(bytes)?;
                }
            }
            overlays.push(OverlaySnapshot {
                category,
                ranks,
                arcs,
            });
        }
        if r.pos != payload.len() {
            return Err(OverlayCodecError::Malformed("trailing bytes"));
        }
        Ok(HierarchySnapshot { overlays })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_arcs() -> Vec<SnapshotArc> {
        vec![
            SnapshotArc {
                from: 0,
                to: 1,
                via: None,
                disabled: false,
            },
            SnapshotArc {
                from: 1,
                to: 2,
                via: None,
                disabled: true,
            },
            SnapshotArc {
                from: 0,
                to: 2,
                via: Some((0, 1)),
                disabled: false,
            },
        ]
    }

    fn sample() -> HierarchySnapshot {
        HierarchySnapshot {
            overlays: vec![OverlaySnapshot {
                category: 0,
                ranks: vec![2, 0, 1],
                arcs: sample_arcs(),
            }],
        }
    }

    /// Hand-built bytes for the sample structure in format `version`,
    /// the per-overlay storage section given raw (v1 has none).
    fn sample_bytes(version: u32, storage: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes()); // one overlay
        out.push(0); // category
        out.extend_from_slice(&3u32.to_le_bytes());
        for r in [2u32, 0, 1] {
            out.extend_from_slice(&r.to_le_bytes());
        }
        let arcs = sample_arcs();
        out.extend_from_slice(&(arcs.len() as u32).to_le_bytes());
        for a in &arcs {
            out.extend_from_slice(&a.from.to_le_bytes());
            out.extend_from_slice(&a.to.to_le_bytes());
            let flags = u8::from(a.via.is_some()) | (u8::from(a.disabled) << 1);
            out.push(flags);
            if let Some((x, y)) = a.via {
                out.extend_from_slice(&x.to_le_bytes());
                out.extend_from_slice(&y.to_le_bytes());
            }
        }
        out.extend_from_slice(storage);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(bytes, sample_bytes(2, &[0]), "the v2 layout moved");
        assert_eq!(HierarchySnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn empty_roundtrip() {
        let snap = HierarchySnapshot::default();
        let bytes = snap.to_bytes();
        assert_eq!(HierarchySnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn v1_inputs_still_decode() {
        let snap = HierarchySnapshot::from_bytes(&sample_bytes(1, &[])).unwrap();
        assert_eq!(snap, sample());
    }

    /// The storage section a bounded-error build wrote: error band and
    /// band tables flagged and populated.
    fn populated_storage() -> Vec<u8> {
        let (n_arcs, n_bands) = (sample_arcs().len(), 2usize);
        let mut storage = vec![0b11];
        storage.extend_from_slice(&0.1f64.to_bits().to_le_bytes());
        storage.extend_from_slice(&(n_bands as u32).to_le_bytes());
        for word in 0..(4 + 2 * n_bands) * n_arcs {
            storage.extend_from_slice(&(1.5 + word as f64).to_bits().to_le_bytes());
        }
        storage
    }

    /// The payload is skipped and the structure decodes; one word short
    /// of its length is `Truncated`, one word over is trailing bytes.
    #[test]
    fn v2_storage_payload_is_length_checked_and_skipped() {
        let storage = populated_storage();
        let snap = HierarchySnapshot::from_bytes(&sample_bytes(2, &storage)).unwrap();
        assert_eq!(snap, sample());

        let short = &storage[..storage.len() - 8];
        assert_eq!(
            HierarchySnapshot::from_bytes(&sample_bytes(2, short)),
            Err(OverlayCodecError::Truncated)
        );
        let mut long = storage;
        long.extend_from_slice(&[0; 8]);
        assert_eq!(
            HierarchySnapshot::from_bytes(&sample_bytes(2, &long)),
            Err(OverlayCodecError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert_eq!(
            HierarchySnapshot::from_bytes(&bytes),
            Err(OverlayCodecError::BadChecksum)
        );
    }

    /// Cut at every byte boundary, as the bytes are and with the
    /// checksum redone over the cut (so the parser, not the checksum,
    /// meets the missing bytes): an error each time, never a panic.
    #[test]
    fn truncation_detected() {
        for bytes in [sample().to_bytes(), sample_bytes(2, &populated_storage())] {
            for cut in 0..bytes.len() {
                assert!(HierarchySnapshot::from_bytes(&bytes[..cut]).is_err());
            }
            for cut in 0..bytes.len() - 8 {
                let mut sealed = bytes[..cut].to_vec();
                sealed.extend_from_slice(&fnv1a(&sealed).to_le_bytes());
                assert!(HierarchySnapshot::from_bytes(&sealed).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn forward_reference_rejected() {
        let mut snap = sample();
        snap.overlays[0].arcs[2].via = Some((0, 5));
        let bytes = snap.to_bytes();
        assert_eq!(
            HierarchySnapshot::from_bytes(&bytes),
            Err(OverlayCodecError::Malformed(
                "shortcut references a later arc"
            ))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let snap = sample();
        let mut bytes = snap.to_bytes();
        bytes[4] = 9; // bump version byte, then re-checksum
        let n = bytes.len() - 8;
        let sum = fnv1a(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            HierarchySnapshot::from_bytes(&bytes),
            Err(OverlayCodecError::BadVersion(9))
        );
    }
}
