//! The snapshot bundle: a versioned, section-framed, content-hashed
//! container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            b"RDFVSNAP"                      8 bytes
//! format version   u32 (currently 2)
//! section count    u32
//! per section:     tag u32 | len u64 | payload | crc32(payload) u32
//! trailer:         bundle hash u128 over every preceding byte,
//!                  domain "rdfviews.bundle.v1"
//! ```
//!
//! The container frames payloads and knows nothing of what is in them;
//! the format version counts changes to the *payloads* too, because a
//! reader must never interpret a section written under another layout.
//! Version 2 is the first whose payloads are a function of the state
//! alone: triples and view rows are written sorted, as
//! [`crate::wire::Writer::varint`] deltas (see `src/exec_persist.rs`),
//! where version 1 wrote them in insertion order at four bytes an id.
//!
//! Validation order on load: magic → trailer hash → format version →
//! per-section CRC → section framing. A bundle produced by a different
//! format version fails before any section is interpreted, so mixed
//! versions are a load-time [`DurabilityError::Corrupt`], never a
//! query-time surprise. No older version is read: a version 1 file is
//! refused with that message and the deployment is made again from its
//! data.

use crate::crc::crc32;
use crate::hash::hash128;
use crate::wire::{Reader, Writer};
use crate::{DurabilityError, Result};

/// First bytes of every snapshot bundle.
pub const MAGIC: [u8; 8] = *b"RDFVSNAP";
/// The current bundle format version.
pub const FORMAT_VERSION: u32 = 2;
/// Domain string for the whole-bundle trailer hash.
pub const BUNDLE_DOMAIN: &str = "rdfviews.bundle.v1";

/// Encodes tagged sections into a complete bundle with per-section CRCs
/// and the trailing bundle hash.
pub fn encode(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(sections.len() as u32);
    for (tag, payload) in sections {
        w.u32(*tag);
        w.len_prefix(payload.len());
        w.raw(payload);
        w.u32(crc32(payload));
    }
    let mut bytes = w.into_bytes();
    let hash = hash128(BUNDLE_DOMAIN, &bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
    bytes
}

/// Decodes and fully validates a bundle, returning its sections in file
/// order, each payload borrowed from `bytes`.
pub fn decode(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>> {
    if bytes.len() < MAGIC.len() + 4 + 4 + 16 {
        return Err(DurabilityError::corrupt(format!(
            "bundle too short ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(DurabilityError::corrupt("bad bundle magic"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 16);
    let mut want = [0u8; 16];
    want.copy_from_slice(trailer);
    let want = u128::from_le_bytes(want);
    if hash128(BUNDLE_DOMAIN, body) != want {
        return Err(DurabilityError::corrupt("bundle hash mismatch"));
    }

    let mut r = Reader::new(body);
    r.raw(MAGIC.len(), "magic")?;
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(DurabilityError::corrupt(format!(
            "unsupported bundle format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let count = r.u32("section count")?;
    let mut sections = Vec::with_capacity(count as usize);
    for i in 0..count {
        let tag = r.u32("section tag")?;
        let len = r.len_prefix("section length", 1)?;
        let payload = r.raw(len, "section payload")?;
        let stored_crc = r.u32("section crc")?;
        if crc32(payload) != stored_crc {
            return Err(DurabilityError::corrupt(format!(
                "section {i} (tag {tag}) checksum mismatch"
            )));
        }
        sections.push((tag, payload));
    }
    r.expect_exhausted("bundle body")?;
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(u32, Vec<u8>)> {
        vec![(1, b"alpha".to_vec()), (2, vec![]), (7, vec![0xFF; 100])]
    }

    #[test]
    fn round_trip() {
        let bytes = encode(&sample());
        let sections = decode(&bytes).unwrap();
        let owned: Vec<(u32, Vec<u8>)> = sections.iter().map(|&(t, p)| (t, p.to_vec())).collect();
        assert_eq!(owned, sample());
        // Each payload is a view into the input, not a copy of it.
        let range = bytes.as_ptr_range();
        assert!(sections.iter().all(|(_, p)| range.contains(&p.as_ptr())));
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let clean = encode(&sample());
        for pos in 0..clean.len() {
            let mut bad = clean.clone();
            bad[pos] ^= 0x01;
            assert!(decode(&bad).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let clean = encode(&sample());
        for cut in 0..clean.len() {
            assert!(decode(&clean[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn version_mixing_is_detected_before_sections() {
        let mut w = Writer::new();
        w.raw(&MAGIC);
        w.u32(FORMAT_VERSION + 1);
        w.u32(0);
        let mut bytes = w.into_bytes();
        let hash = hash128(BUNDLE_DOMAIN, &bytes);
        bytes.extend_from_slice(&hash.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, DurabilityError::Corrupt { detail } if detail.contains("version")));
    }
}
