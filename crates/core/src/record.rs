//! Records and frame bins: the engine's data units.
//!
//! A [`FrameBin`] is a contiguous batch of `(hash, key, value)` entries
//! addressed to one edge of the flowlet graph — the paper's "minimum
//! data required to enable a flowlet" and the unit the scheduler fires
//! tasks against. The payload is a single shared buffer ([`Frame`]),
//! so cloning a bin (broadcast) is a refcount bump and consumers slice
//! keys and values out of it without copying.
//!
//! [`Record`] survives as the erased key-value pair handed back to the
//! driver as captured job output; it is no longer on the shuffle path.

use bytes::Bytes;
use hamr_codec::{stable_hash, Frame, FrameBuilder};

/// One erased key-value pair (captured job output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub key: Bytes,
    pub value: Bytes,
}

impl Record {
    pub fn new(key: Bytes, value: Bytes) -> Self {
        Record { key, value }
    }
}

/// A batch of records flowing along one graph edge toward one node,
/// packed into one contiguous frame.
#[derive(Debug, Clone)]
pub struct FrameBin {
    /// Which edge of the job graph this bin travels on.
    pub edge: usize,
    /// The packed `(hash, key, value)` payload.
    pub frame: Frame,
    /// Lineage span id for causal profiling; `0` (= `NO_SPAN`) when
    /// tracing is off, so the untraced hot path pays one `u64` copy.
    pub span: u64,
}

impl FrameBin {
    pub fn new(edge: usize, frame: Frame) -> Self {
        FrameBin {
            edge,
            frame,
            span: hamr_trace::NO_SPAN,
        }
    }

    /// Attach a lineage span (builder style, used at emit time).
    pub fn with_span(mut self, span: u64) -> Self {
        self.span = span;
        self
    }

    /// Build a bin from key-value pairs, hashing each key — a test and
    /// bench convenience; the hot path goes through `TaskOutput`.
    pub fn from_pairs(edge: usize, pairs: &[(&[u8], &[u8])]) -> Self {
        let mut b = FrameBuilder::new();
        for (k, v) in pairs {
            b.push(stable_hash(k), k, v);
        }
        FrameBin::new(edge, b.freeze())
    }

    /// Number of records in the bin.
    #[inline]
    pub fn len(&self) -> usize {
        self.frame.entries()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frame.is_empty()
    }

    /// Serialized payload size (drives the network bandwidth model).
    /// Exact: the frame's encoded bytes are what the wire would carry.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.frame.payload_bytes()
    }

    /// Wire size including a small fixed header.
    #[inline]
    pub fn wire_size(&self) -> usize {
        self.payload_bytes() + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bin_reports_frame_sizes() {
        let bin = FrameBin::from_pairs(3, &[(b"k1", b"v1"), (b"k2", b"value2")]);
        assert_eq!(bin.edge, 3);
        assert_eq!(bin.len(), 2);
        assert!(!bin.is_empty());
        // Each entry: 8 (hash) + 1 (klen) + key + 1 (vlen) + value.
        assert_eq!(
            bin.payload_bytes(),
            (8 + 1 + 2 + 1 + 2) + (8 + 1 + 2 + 1 + 6)
        );
        assert_eq!(bin.wire_size(), bin.payload_bytes() + 16);
    }

    #[test]
    fn from_pairs_hashes_each_key() {
        let bin = FrameBin::from_pairs(0, &[(b"alpha", b"1")]);
        let (h, k, v) = bin.frame.iter().next().unwrap();
        assert_eq!(h, stable_hash(b"alpha"));
        assert_eq!(k, b"alpha");
        assert_eq!(v, b"1");
    }

    #[test]
    fn clone_shares_the_frame_allocation() {
        let bin = FrameBin::from_pairs(1, &[(b"k", b"v")]);
        let copy = bin.clone();
        assert_eq!(
            bin.frame.data().as_ptr(),
            copy.frame.data().as_ptr(),
            "broadcast clones must not copy the payload"
        );
    }

    #[test]
    fn empty_bin() {
        let bin = FrameBin::new(0, Frame::empty());
        assert!(bin.is_empty());
        assert_eq!(bin.payload_bytes(), 0);
        assert_eq!(bin.wire_size(), 16);
    }
}
