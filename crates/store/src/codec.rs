//! The `.tgr` binary container: a magic/version header, tagged
//! sections, and a trailing FNV-1a content checksum.
//!
//! Every artifact the store persists — a CSR graph, a topology with its
//! relationship annotations, a set of metric curves, a link-value
//! vector — is one container whose payload is a sequence of tagged
//! sections. All integers are **little-endian**; the header carries an
//! explicit endian tag so a big-endian reader fails loudly on the tag
//! instead of quietly mis-decoding lengths. See `crates/store/README.md`
//! for the byte-level layout.
//!
//! Decoding is fully defensive: every failure mode on arbitrary bytes is
//! a typed [`CodecError`] carrying the byte offset — never a panic and
//! never an out-of-bounds slice.

use crate::fnv::Fnv1a;
use topogen_graph::{Graph, NodeId};

/// File magic: "TGRF" (TopoGen Repro File).
pub const MAGIC: [u8; 4] = *b"TGRF";

/// Current codec version. Bump on any layout change; the store's keys
/// include it, so old entries simply stop matching instead of being
/// mis-decoded.
pub const CODEC_VERSION: u32 = 1;

/// Endian sentinel written as a little-endian `u32`. A big-endian
/// reader sees `0x0D0C0B0A` and rejects the file.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Section tag: a CSR graph (node count, edge count, normalized edges).
pub const SEC_GRAPH: [u8; 4] = *b"GRPH";
/// Section tag: per-edge AS relationship annotations.
pub const SEC_ANNOTATIONS: [u8; 4] = *b"ANNO";
/// Section tag: per-router owning-AS ids.
pub const SEC_ROUTER_AS: [u8; 4] = *b"RTAS";
/// Section tag: the AS overlay graph a router topology was expanded from.
pub const SEC_OVERLAY_GRAPH: [u8; 4] = *b"OVGR";
/// Section tag: the overlay graph's relationship annotations.
pub const SEC_OVERLAY_ANNOTATIONS: [u8; 4] = *b"OVAN";
/// Section tag: an expansion curve (f64 array).
pub const SEC_EXPANSION: [u8; 4] = *b"EXPN";
/// Section tag: a resilience curve (radius/avg-size/value points).
pub const SEC_RESILIENCE: [u8; 4] = *b"RESC";
/// Section tag: a distortion curve.
pub const SEC_DISTORTION: [u8; 4] = *b"DISC";
/// Section tag: a link-value vector in edge order (f64 array).
pub const SEC_LINK_VALUES: [u8; 4] = *b"LVAL";

/// Typed decode failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The version field names a layout this build cannot read.
    UnsupportedVersion(u32),
    /// The endian tag decoded to something other than [`ENDIAN_TAG`] —
    /// the file was written on (or for) a different byte order.
    BadEndianTag(u32),
    /// The buffer ends before the structure it promises.
    Truncated {
        /// Offset at which more bytes were expected.
        offset: usize,
    },
    /// The trailing FNV-1a checksum does not match the content.
    Checksum {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum computed over the content.
        actual: u64,
    },
    /// Structurally invalid content (bad counts, unsorted edges, …).
    Malformed {
        /// Offset of the offending structure.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "offset 0: not a .tgr file (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(f, "offset 4: unsupported codec version {v}")
            }
            CodecError::BadEndianTag(t) => {
                write!(
                    f,
                    "offset 8: bad endian tag {t:#010x} (foreign byte order?)"
                )
            }
            CodecError::Truncated { offset } => write!(f, "offset {offset}: truncated"),
            CodecError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: stored {expected:#018x}, content hashes to {actual:#018x}"
            ),
            CodecError::Malformed { offset, what } => write!(f, "offset {offset}: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern, little-endian (exact
/// round-trip, NaN payloads included).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// A bounds-checked forward reader over a byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
    /// Current read offset.
    pub offset: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, offset: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.offset,
            });
        }
        let s = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(s)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u64` count and validate it against the bytes that would
    /// be needed at `elem_size` per element, so a corrupt length can't
    /// trigger a huge allocation.
    pub fn count(&mut self, elem_size: usize) -> Result<usize, CodecError> {
        let at = self.offset;
        let c = self.u64()?;
        let need = (c as usize).checked_mul(elem_size);
        match need {
            Some(n) if n <= self.remaining() => Ok(c as usize),
            _ => Err(CodecError::Malformed {
                offset: at,
                what: format!("count {c} exceeds remaining {} bytes", self.remaining()),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Container: header + tagged sections + trailing checksum
// ---------------------------------------------------------------------------

/// Incrementally build a `.tgr` container.
pub struct ContainerWriter {
    buf: Vec<u8>,
    count_at: usize,
    sections: u32,
}

impl Default for ContainerWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ContainerWriter {
    /// Start a container (writes the header with a section-count
    /// placeholder).
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, CODEC_VERSION);
        put_u32(&mut buf, ENDIAN_TAG);
        let count_at = buf.len();
        put_u32(&mut buf, 0);
        ContainerWriter {
            buf,
            count_at,
            sections: 0,
        }
    }

    /// Append one tagged section.
    pub fn section(&mut self, tag: [u8; 4], payload: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(&tag);
        put_u64(&mut self.buf, payload.len() as u64);
        self.buf.extend_from_slice(payload);
        self.sections += 1;
        self
    }

    /// Patch the section count, append the checksum, return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[self.count_at..self.count_at + 4].copy_from_slice(&self.sections.to_le_bytes());
        let mut h = Fnv1a::new();
        h.write(&self.buf);
        put_u64(&mut self.buf, h.finish());
        self.buf
    }
}

/// Verify a container's framing — magic, version, endian tag, and the
/// trailing checksum — without parsing sections. This is what the
/// store's `verify` walk and every `get` run; it catches any single-byte
/// corruption anywhere in the file.
pub fn verify_container(bytes: &[u8]) -> Result<(), CodecError> {
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut r = Reader::new(&bytes[4..]);
    let version = r.u32().map_err(|_| CodecError::Truncated { offset: 4 })?;
    if version != CODEC_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let tag = r.u32().map_err(|_| CodecError::Truncated { offset: 8 })?;
    if tag != ENDIAN_TAG {
        return Err(CodecError::BadEndianTag(tag));
    }
    if bytes.len() < 12 + 4 + 8 {
        return Err(CodecError::Truncated {
            offset: bytes.len(),
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let mut h = Fnv1a::new();
    h.write(body);
    let actual = h.finish();
    if stored != actual {
        return Err(CodecError::Checksum {
            expected: stored,
            actual,
        });
    }
    Ok(())
}

/// A container's `(tag, payload)` sections, borrowed from its bytes.
pub type Sections<'a> = Vec<([u8; 4], &'a [u8])>;

/// Parse a verified-or-not container into its `(tag, payload)` sections.
/// Runs [`verify_container`] first, so corrupted bytes are rejected by
/// checksum before any section is interpreted.
pub fn read_sections(bytes: &[u8]) -> Result<Sections<'_>, CodecError> {
    verify_container(bytes)?;
    let body = &bytes[..bytes.len() - 8];
    let mut r = Reader::new(body);
    let _ = r.take(12)?; // magic + version + endian tag
    let count_at = r.offset;
    let n = r.u32()?;
    // Every section needs at least a 4-byte tag and an 8-byte length,
    // so a count the remaining bytes cannot hold is rejected before it
    // sizes an allocation.
    if n as usize > r.remaining() / 12 {
        return Err(CodecError::Malformed {
            offset: count_at,
            what: format!(
                "section count {n} exceeds what {} remaining bytes can hold",
                r.remaining()
            ),
        });
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let at = r.offset;
        let tag: [u8; 4] = r.take(4)?.try_into().unwrap();
        let len = r.u64()? as usize;
        if len > r.remaining() {
            return Err(CodecError::Malformed {
                offset: at,
                what: format!("section {:?} length {len} exceeds container", tag_str(&tag)),
            });
        }
        out.push((tag, r.take(len)?));
    }
    if r.remaining() != 0 {
        return Err(CodecError::Malformed {
            offset: r.offset,
            what: format!("{} trailing bytes after last section", r.remaining()),
        });
    }
    Ok(out)
}

/// The payload of the first section tagged `tag`, if present.
pub fn find_section<'a>(sections: &[([u8; 4], &'a [u8])], tag: [u8; 4]) -> Option<&'a [u8]> {
    sections.iter().find(|(t, _)| *t == tag).map(|(_, p)| *p)
}

fn tag_str(tag: &[u8; 4]) -> String {
    tag.iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '?' })
        .collect()
}

// ---------------------------------------------------------------------------
// Graph payload
// ---------------------------------------------------------------------------

/// Serialize a graph as a section payload: node count, edge count, then
/// the normalized edge list (already sorted and deduped in [`Graph`]).
pub fn graph_payload(g: &Graph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + 8 * g.edge_count());
    put_u64(&mut buf, g.node_count() as u64);
    put_u64(&mut buf, g.edge_count() as u64);
    for e in g.edges() {
        put_u32(&mut buf, e.a);
        put_u32(&mut buf, e.b);
    }
    buf
}

/// Decode a graph payload, validating node/edge counts, endpoint
/// ranges, normalization (`a < b`), and strict ordering before any
/// graph structure is built — so arbitrary bytes can never reach a
/// panicking construction path.
pub fn graph_from_payload(bytes: &[u8]) -> Result<Graph, CodecError> {
    let mut r = Reader::new(bytes);
    let at = r.offset;
    let n = r.u64()?;
    if n > NodeId::MAX as u64 {
        return Err(CodecError::Malformed {
            offset: at,
            what: format!("node count {n} exceeds u32 id space"),
        });
    }
    let n = n as usize;
    let m = r.count(8)?;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(m);
    let mut prev: Option<(NodeId, NodeId)> = None;
    for _ in 0..m {
        let at = r.offset;
        let a = r.u32()?;
        let b = r.u32()?;
        if a >= b || (b as usize) >= n {
            return Err(CodecError::Malformed {
                offset: at,
                what: format!("edge ({a}, {b}) not normalized within {n} nodes"),
            });
        }
        if let Some(p) = prev {
            if p >= (a, b) {
                return Err(CodecError::Malformed {
                    offset: at,
                    what: format!("edges not strictly ascending at ({a}, {b})"),
                });
            }
        }
        prev = Some((a, b));
        edges.push((a, b));
    }
    if r.remaining() != 0 {
        return Err(CodecError::Malformed {
            offset: r.offset,
            what: format!("{} trailing bytes after edge list", r.remaining()),
        });
    }
    Ok(Graph::from_edges(n, edges))
}

/// Encode one graph as a complete standalone `.tgr` file (a container
/// holding a single [`SEC_GRAPH`] section).
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let mut w = ContainerWriter::new();
    w.section(SEC_GRAPH, &graph_payload(g));
    w.finish()
}

/// Decode a standalone `.tgr` graph file (checksum verified; requires a
/// [`SEC_GRAPH`] section).
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, CodecError> {
    let sections = read_sections(bytes)?;
    let payload = find_section(&sections, SEC_GRAPH).ok_or_else(|| CodecError::Malformed {
        offset: 16,
        what: "no GRPH section".to_string(),
    })?;
    graph_from_payload(payload)
}

// ---------------------------------------------------------------------------
// Scalar-array payloads
// ---------------------------------------------------------------------------

/// Serialize an `f64` slice (count + bit patterns).
pub fn f64_payload(values: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 8 * values.len());
    put_u64(&mut buf, values.len() as u64);
    for &v in values {
        put_f64(&mut buf, v);
    }
    buf
}

/// Decode an `f64` slice (exact bit round-trip).
pub fn f64_from_payload(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    let mut r = Reader::new(bytes);
    let c = r.count(8)?;
    let mut out = Vec::with_capacity(c);
    for _ in 0..c {
        out.push(r.f64()?);
    }
    Ok(out)
}

/// Serialize a `u32` slice (count + values).
pub fn u32_payload(values: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 4 * values.len());
    put_u64(&mut buf, values.len() as u64);
    for &v in values {
        put_u32(&mut buf, v);
    }
    buf
}

/// Decode a `u32` slice.
pub fn u32_from_payload(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut r = Reader::new(bytes);
    let c = r.count(4)?;
    let mut out = Vec::with_capacity(c);
    for _ in 0..c {
        out.push(r.u32()?);
    }
    Ok(out)
}

/// Serialize a byte slice (count + raw bytes) — used for the per-edge
/// relationship codes.
pub fn bytes_payload(values: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + values.len());
    put_u64(&mut buf, values.len() as u64);
    buf.extend_from_slice(values);
    buf
}

/// Decode a byte slice payload.
pub fn bytes_from_payload(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = Reader::new(bytes);
    let c = r.count(1)?;
    Ok(r.take(c)?.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    }

    #[test]
    fn graph_roundtrip_exact() {
        let g = sample();
        let bytes = encode_graph(&g);
        let back = decode_graph(&bytes).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn isolated_trailing_nodes_roundtrip() {
        let g = Graph::from_edges(9, vec![(0, 1)]);
        let back = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(back.node_count(), 9);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = encode_graph(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_graph(&bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = encode_graph(&sample());
        for len in 0..bytes.len() {
            assert!(decode_graph(&bytes[..len]).is_err(), "prefix {len} decoded");
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = encode_graph(&sample());
        bytes[0] = b'X';
        assert_eq!(decode_graph(&bytes).unwrap_err(), CodecError::BadMagic);
        let g = sample();
        let mut bytes = encode_graph(&g);
        bytes[4] = 9; // version 9
        assert!(matches!(
            decode_graph(&bytes).unwrap_err(),
            // Checksum now fails first or the version is rejected; both
            // are typed errors, never a mis-decode.
            CodecError::Checksum { .. } | CodecError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn huge_count_does_not_allocate() {
        // A payload claiming u64::MAX edges must fail on the count
        // check, not attempt a 10^19-element Vec.
        let mut payload = Vec::new();
        put_u64(&mut payload, 5);
        put_u64(&mut payload, u64::MAX);
        let err = graph_from_payload(&payload).unwrap_err();
        assert!(matches!(err, CodecError::Malformed { .. }), "{err}");
    }

    #[test]
    fn huge_section_count_does_not_allocate() {
        // A checksummed container whose header claims u32::MAX sections
        // must fail on the count, not reserve room for 4 billion.
        let mut bytes = ContainerWriter::new().finish();
        bytes.truncate(bytes.len() - 8);
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut h = Fnv1a::new();
        h.write(&bytes);
        put_u64(&mut bytes, h.finish());
        let err = read_sections(&bytes).unwrap_err();
        assert!(
            matches!(err, CodecError::Malformed { offset: 12, .. }),
            "{err}"
        );
    }

    #[test]
    fn unsorted_edges_rejected() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 4);
        put_u64(&mut payload, 2);
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 2);
        put_u32(&mut payload, 0); // (0,1) after (1,2): out of order
        put_u32(&mut payload, 1);
        assert!(graph_from_payload(&payload).is_err());
    }

    #[test]
    fn f64_bit_exact_roundtrip() {
        let vals = vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300, -2.5e300];
        let back = f64_from_payload(&f64_payload(&vals)).unwrap();
        assert_eq!(vals.len(), back.len());
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn multi_section_container() {
        let g = sample();
        let mut w = ContainerWriter::new();
        w.section(SEC_GRAPH, &graph_payload(&g));
        w.section(SEC_LINK_VALUES, &f64_payload(&[0.25, 0.5]));
        let bytes = w.finish();
        let sections = read_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        let lv = f64_from_payload(find_section(&sections, SEC_LINK_VALUES).unwrap()).unwrap();
        assert_eq!(lv, vec![0.25, 0.5]);
        assert!(find_section(&sections, SEC_ROUTER_AS).is_none());
    }

    #[test]
    fn u32_and_bytes_payloads() {
        let v = vec![7u32, 0, u32::MAX];
        assert_eq!(u32_from_payload(&u32_payload(&v)).unwrap(), v);
        let b = vec![0u8, 1, 2, 3];
        assert_eq!(bytes_from_payload(&bytes_payload(&b)).unwrap(), b);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::empty(0);
        let back = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(back.node_count(), 0);
        assert_eq!(back.edge_count(), 0);
    }
}
