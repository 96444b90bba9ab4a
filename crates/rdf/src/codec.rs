//! Deterministic binary encoding of a [`Graph`] for durable storage.
//!
//! The encoding is **canonical**: two graphs containing the same triple set
//! serialize to identical bytes regardless of insertion order, interner
//! history, or index mode. This is what makes checkpoint files comparable
//! byte-for-byte and lets the crash-recovery suite assert `encode(decode(x))
//! == x` exactly.
//!
//! ## Layout (version 2)
//!
//! ```text
//! [magic "GRDG"] [version u8 = 2]
//! [varint term_count] [term]*                             (sorted by Term order)
//! [varint triple_count] [varint s][varint p][varint o]*   (term-table ids)
//! [crc32 LE over everything above]
//! ```
//!
//! Canonical form: the term table is the **sorted set** of terms the
//! triples use, so id assignment is order-preserving — triples sorted by
//! `(s, p, o)` in term order are *also* sorted in id order. That makes the
//! triple section a serialized SPO run: decode hands the table and the id
//! columns straight to the graph's columnar constructor without re-sorting
//! or per-triple set insertion (the decode-free load path). Version 1
//! (term table in first-appearance order, triples replayed through
//! insertion) decodes but is no longer produced.
//!
//! Terms are tagged: `0x01` IRI, `0x02` blank node, `0x03` plain literal,
//! `0x04` language-tagged literal (lexical + tag), `0x05` typed literal
//! (lexical + datatype IRI). Strings are varint-length-prefixed UTF-8;
//! varints are LEB128.
//!
//! Every decode failure is a typed [`CodecError`] — truncated or bit-flipped
//! input must never panic, because the durable store classifies corruption
//! from these errors (torn tail vs interior damage).

use std::fmt;

use crate::graph::{Graph, TermId};
use crate::term::{Literal, Term, Triple};

/// Leading magic of an encoded graph block.
pub const MAGIC: [u8; 4] = *b"GRDG";
/// Current encoding version.
pub const VERSION: u8 = 2;
/// The replay-decoded legacy version.
pub const VERSION_V1: u8 = 1;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed decode failure. Corrupt input yields one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure it promised was complete.
    Truncated,
    /// The trailing CRC32 does not match the decoded bytes.
    Checksum {
        /// CRC recorded in the input.
        expected: u32,
        /// CRC recomputed over the payload.
        found: u32,
    },
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// The version byte is not one this build can decode.
    BadVersion(u8),
    /// An unknown term tag byte.
    BadTag(u8),
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// A triple references a term id beyond the term table.
    IdOutOfRange(u64),
    /// A varint ran past 10 bytes (or overflowed u64).
    BadVarint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-structure"),
            CodecError::Checksum { expected, found } => write!(
                f,
                "checksum mismatch: recorded {expected:#010x}, computed {found:#010x}"
            ),
            CodecError::BadMagic => write!(f, "bad magic (not an encoded graph)"),
            CodecError::BadVersion(v) => write!(f, "unsupported encoding version {v}"),
            CodecError::BadTag(t) => write!(f, "unknown term tag {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::IdOutOfRange(id) => write!(f, "term id {id} beyond term table"),
            CodecError::BadVarint => write!(f, "malformed varint"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — the classic zlib polynomial.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of `bytes` — the checksum used by every durable record.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming form: feed `state` (start from `0xFFFF_FFFF`, finish by XOR
/// with `0xFFFF_FFFF`).
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------------
// Varints (LEB128)
// ---------------------------------------------------------------------------

/// Append `v` as an LEB128 varint.
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint at `*pos`, advancing it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::BadVarint);
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    write_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, CodecError> {
    let len = read_varint(bytes, pos)?;
    let len = usize::try_from(len).map_err(|_| CodecError::Truncated)?;
    let end = pos.checked_add(len).ok_or(CodecError::Truncated)?;
    let slice = bytes.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    std::str::from_utf8(slice).map_err(|_| CodecError::BadUtf8)
}

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

const TAG_IRI: u8 = 0x01;
const TAG_BLANK: u8 = 0x02;
const TAG_LIT_PLAIN: u8 = 0x03;
const TAG_LIT_LANG: u8 = 0x04;
const TAG_LIT_TYPED: u8 = 0x05;

/// Append the tagged encoding of one term.
pub fn encode_term(term: &Term, out: &mut Vec<u8>) {
    match term {
        Term::Iri(iri) => {
            out.push(TAG_IRI);
            write_str(iri, out);
        }
        Term::Blank(label) => {
            out.push(TAG_BLANK);
            write_str(label, out);
        }
        Term::Literal(lit) => encode_literal(lit, out),
    }
}

fn encode_literal(lit: &Literal, out: &mut Vec<u8>) {
    if let Some(lang) = lit.lang() {
        out.push(TAG_LIT_LANG);
        write_str(lit.lexical(), out);
        write_str(lang, out);
    } else {
        let dt = lit.datatype();
        if dt == crate::vocab::xsd::STRING {
            out.push(TAG_LIT_PLAIN);
            write_str(lit.lexical(), out);
        } else {
            out.push(TAG_LIT_TYPED);
            write_str(lit.lexical(), out);
            write_str(dt, out);
        }
    }
}

/// Decode one tagged term at `*pos`, advancing it.
pub fn decode_term(bytes: &[u8], pos: &mut usize) -> Result<Term, CodecError> {
    let &tag = bytes.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    match tag {
        TAG_IRI => Ok(Term::iri(read_str(bytes, pos)?)),
        TAG_BLANK => Ok(Term::blank(read_str(bytes, pos)?)),
        TAG_LIT_PLAIN => Ok(Term::Literal(Literal::string(read_str(bytes, pos)?))),
        TAG_LIT_LANG => {
            let lexical = read_str(bytes, pos)?.to_string();
            let lang = read_str(bytes, pos)?;
            Ok(Term::Literal(Literal::lang_string(&lexical, lang)))
        }
        TAG_LIT_TYPED => {
            let lexical = read_str(bytes, pos)?.to_string();
            let dt = read_str(bytes, pos)?;
            Ok(Term::Literal(Literal::typed(&lexical, dt)))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

/// Append the tagged encoding of one triple (three terms, S then P then O).
pub fn encode_triple(triple: &Triple, out: &mut Vec<u8>) {
    encode_term(&triple.subject, out);
    encode_term(&triple.predicate, out);
    encode_term(&triple.object, out);
}

/// Decode one triple at `*pos`, advancing it.
pub fn decode_triple(bytes: &[u8], pos: &mut usize) -> Result<Triple, CodecError> {
    let s = decode_term(bytes, pos)?;
    let p = decode_term(bytes, pos)?;
    let o = decode_term(bytes, pos)?;
    Ok(Triple::new(s, p, o))
}

// ---------------------------------------------------------------------------
// Whole-graph encode / decode
// ---------------------------------------------------------------------------

/// Encode `graph` into the canonical binary form.
///
/// Output depends only on the triple *set*: `encode_graph(&decode_graph(&b)?)
/// == b` for any valid `b`.
pub fn encode_graph(graph: &Graph) -> Vec<u8> {
    // Collect the live triple set in the graph's own id space — no term
    // materialization — then remap into canonical ids: the used terms
    // sorted by `Term` order, positions becoming the file ids. The remap
    // is order-preserving on terms, so sorting the remapped id tuples
    // yields exactly the canonical (s, p, o) term order.
    let mut raw: Vec<(TermId, TermId, TermId)> = Vec::with_capacity(graph.len());
    graph.for_each_match_ids(None, None, None, |s, p, o| raw.push((s, p, o)));

    let mut used: Vec<TermId> = Vec::with_capacity(raw.len() * 3);
    for &(s, p, o) in &raw {
        used.extend_from_slice(&[s, p, o]);
    }
    used.sort_unstable();
    used.dedup();
    let max_id = used.last().copied().unwrap_or(0);
    let mut order = used;
    order.sort_by(|&a, &b| graph.term_of(a).cmp(graph.term_of(b)));
    let mut remap = vec![0 as TermId; max_id as usize + 1];
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as TermId;
    }

    let mut id_triples: Vec<(TermId, TermId, TermId)> = raw
        .into_iter()
        .map(|(s, p, o)| (remap[s as usize], remap[p as usize], remap[o as usize]))
        .collect();
    id_triples.sort_unstable();
    id_triples.dedup();

    let mut out = Vec::with_capacity(id_triples.len() * 12 + 64);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    write_varint(order.len() as u64, &mut out);
    for &old in &order {
        encode_term(graph.term_of(old), &mut out);
    }
    write_varint(id_triples.len() as u64, &mut out);
    for (s, p, o) in &id_triples {
        write_varint(u64::from(*s), &mut out);
        write_varint(u64::from(*p), &mut out);
        write_varint(u64::from(*o), &mut out);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a canonical binary graph block, verifying the trailing CRC.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, CodecError> {
    if bytes.len() < MAGIC.len() + 1 + 4 {
        return Err(CodecError::Truncated);
    }
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
    let found = crc32(payload);
    if expected != found {
        return Err(CodecError::Checksum { expected, found });
    }
    if payload[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = payload[MAGIC.len()];
    if version != VERSION && version != VERSION_V1 {
        return Err(CodecError::BadVersion(version));
    }
    let mut pos = MAGIC.len() + 1;

    let term_count = read_varint(payload, &mut pos)?;
    let term_count = usize::try_from(term_count).map_err(|_| CodecError::Truncated)?;
    // Guard against absurd counts in corrupt headers before allocating.
    if term_count > payload.len() {
        return Err(CodecError::Truncated);
    }
    let mut table: Vec<Term> = Vec::with_capacity(term_count);
    for _ in 0..term_count {
        table.push(decode_term(payload, &mut pos)?);
    }

    let triple_count = read_varint(payload, &mut pos)?;
    let triple_count = usize::try_from(triple_count).map_err(|_| CodecError::Truncated)?;
    if triple_count > payload.len() {
        return Err(CodecError::Truncated);
    }

    let graph = if version == VERSION {
        // v2 decode-free load: the table *is* the interner and the triple
        // section *is* the sorted SPO run. One bounds check per id, then
        // the columnar constructor builds the indexes without any
        // per-triple set insertion.
        let mut id_triples: Vec<(TermId, TermId, TermId)> = Vec::with_capacity(triple_count);
        let id = |pos: &mut usize| -> Result<TermId, CodecError> {
            let v = read_varint(payload, pos)?;
            if usize::try_from(v).map_or(true, |i| i >= table.len()) {
                return Err(CodecError::IdOutOfRange(v));
            }
            Ok(v as TermId)
        };
        for _ in 0..triple_count {
            let s = id(&mut pos)?;
            let p = id(&mut pos)?;
            let o = id(&mut pos)?;
            id_triples.push((s, p, o));
        }
        if !id_triples.windows(2).all(|w| w[0] < w[1]) {
            // Encoders always emit sorted, unique triples; a CRC-valid
            // file that doesn't is hand-crafted. Normalize rather than
            // trust it.
            id_triples.sort_unstable();
            id_triples.dedup();
        }
        Graph::from_parts(table, id_triples)
    } else {
        // v1 replay: ids are in first-appearance order, so triples are
        // re-inserted one at a time through the interner.
        let mut graph = Graph::new();
        for _ in 0..triple_count {
            let s = read_varint(payload, &mut pos)?;
            let p = read_varint(payload, &mut pos)?;
            let o = read_varint(payload, &mut pos)?;
            let term = |id: u64| -> Result<&Term, CodecError> {
                usize::try_from(id)
                    .ok()
                    .and_then(|i| table.get(i))
                    .ok_or(CodecError::IdOutOfRange(id))
            };
            graph.insert(Triple::new(
                term(s)?.clone(),
                term(p)?.clone(),
                term(o)?.clone(),
            ));
        }
        graph
    };
    if pos != payload.len() {
        // Trailing garbage inside a CRC-valid payload cannot normally
        // happen, but reject it rather than silently ignoring bytes.
        return Err(CodecError::Truncated);
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://example.org/a"),
            Term::iri("http://example.org/p"),
            Term::iri("http://example.org/b"),
        );
        g.add(
            Term::iri("http://example.org/a"),
            Term::iri("http://example.org/name"),
            Term::string("Alpha"),
        );
        g.add(
            Term::blank("n1"),
            Term::iri("http://example.org/label"),
            Term::Literal(Literal::lang_string("ville", "FR")),
        );
        g.add(
            Term::iri("http://example.org/a"),
            Term::iri("http://example.org/count"),
            Term::integer(42),
        );
        g
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_round_trips() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            out.clear();
            write_varint(v, &mut out);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80, 0x80], &mut pos),
            Err(CodecError::Truncated)
        );
        let eleven = [0xFF; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&eleven, &mut pos), Err(CodecError::BadVarint));
    }

    #[test]
    fn graph_round_trip_is_byte_identical() {
        let g = sample_graph();
        let bytes = encode_graph(&g);
        let decoded = decode_graph(&bytes).unwrap();
        assert_eq!(decoded, g);
        assert_eq!(encode_graph(&decoded), bytes, "re-encode must be identical");
    }

    #[test]
    fn encoding_is_insertion_order_independent() {
        let g = sample_graph();
        let mut reversed = Graph::new();
        let mut triples: Vec<Triple> = g.iter().collect();
        triples.reverse();
        reversed.extend_triples(triples);
        assert_eq!(encode_graph(&g), encode_graph(&reversed));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let bytes = encode_graph(&g);
        let decoded = decode_graph(&bytes).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(encode_graph(&decoded), bytes);
    }

    #[test]
    fn truncation_yields_typed_errors_never_panics() {
        let bytes = encode_graph(&sample_graph());
        for cut in 0..bytes.len() {
            let err = decode_graph(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Checksum { .. }),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_yield_checksum_errors() {
        let bytes = encode_graph(&sample_graph());
        // Flip one bit in each byte of the payload (CRC excluded: flipping
        // the recorded CRC also yields a Checksum mismatch).
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            let err = decode_graph(&corrupt).unwrap_err();
            assert!(
                matches!(err, CodecError::Checksum { .. }),
                "flip at {i}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn legacy_v1_blocks_still_decode() {
        // Re-create the v1 layout by hand: term table in first-appearance
        // order over the sorted triple walk, triples replay-decoded.
        let g = sample_graph();
        let mut triples: Vec<Triple> = g.iter().collect();
        triples.sort_unstable();
        let mut table: Vec<Term> = Vec::new();
        let id_of = |t: &Term, table: &mut Vec<Term>| -> u64 {
            if let Some(i) = table.iter().position(|x| x == t) {
                return i as u64;
            }
            table.push(t.clone());
            table.len() as u64 - 1
        };
        let ids: Vec<(u64, u64, u64)> = triples
            .iter()
            .map(|t| {
                (
                    id_of(&t.subject, &mut table),
                    id_of(&t.predicate, &mut table),
                    id_of(&t.object, &mut table),
                )
            })
            .collect();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION_V1);
        write_varint(table.len() as u64, &mut out);
        for t in &table {
            encode_term(t, &mut out);
        }
        write_varint(ids.len() as u64, &mut out);
        for (s, p, o) in &ids {
            write_varint(*s, &mut out);
            write_varint(*p, &mut out);
            write_varint(*o, &mut out);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());

        let decoded = decode_graph(&out).unwrap();
        assert_eq!(decoded, g, "v1 replay decode must reconstruct the set");
        // Re-encoding a v1-decoded graph upgrades it to the v2 canonical
        // form, identical to encoding the original.
        assert_eq!(encode_graph(&decoded), encode_graph(&g));
    }

    #[test]
    fn v2_decode_is_columnar_and_canonical() {
        let g = sample_graph();
        let bytes = encode_graph(&g);
        assert_eq!(bytes[MAGIC.len()], VERSION);
        let decoded = decode_graph(&bytes).unwrap();
        // The decode-free load lands everything in the run (no novelty).
        assert_eq!(decoded.run_len(), g.len());
        assert_eq!(decoded.novelty_len(), 0);
        assert_eq!(decoded, g);
    }

    #[test]
    fn term_tags_cover_all_literal_shapes() {
        let terms = [
            Term::iri("http://example.org/x"),
            Term::blank("b0"),
            Term::string("plain"),
            Term::Literal(Literal::lang_string("hi", "en-GB")),
            Term::typed("3.25", crate::vocab::xsd::DOUBLE),
        ];
        let mut out = Vec::new();
        for t in &terms {
            out.clear();
            encode_term(t, &mut out);
            let mut pos = 0;
            assert_eq!(&decode_term(&out, &mut pos).unwrap(), t);
            assert_eq!(pos, out.len());
        }
        let mut pos = 0;
        assert_eq!(
            decode_term(&[0x7F], &mut pos),
            Err(CodecError::BadTag(0x7F))
        );
    }
}
