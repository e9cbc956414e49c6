//! Point-cloud I/O.
//!
//! The paper's datasets arrive as CSV-ish text (NGSIM trajectory exports,
//! GeoLife PLT files) or raw particle dumps (HACC). This module reads the
//! two formats a user needs to run this library on their own data, and
//! writes CSV:
//!
//! - **CSV** — one point per line, coordinates separated by commas,
//!   optional header line (skipped when non-numeric), extra columns
//!   ignored;
//! - **XYZ** — whitespace-separated, the classic particle-dump layout.
//!
//! Every reader checks each coordinate with
//! [`emst_geometry::is_valid_coordinate`]: a field that parses as a number
//! but is NaN, infinite or larger than 1e18 in magnitude is an
//! `origin:line` error, on line 1 too (it is never taken for a header).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use emst_geometry::{is_valid_coordinate, Point, MAX_COORDINATE};

/// Writes points as CSV (no header) with full `f32` round-trip precision.
pub fn save_csv<const D: usize>(path: &Path, points: &[Point<D>]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for p in points {
        for d in 0..D {
            if d > 0 {
                out.write_all(b",")?;
            }
            // `{:?}` prints the shortest representation that round-trips.
            write!(out, "{:?}", p[d])?;
        }
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Why a non-blank line did not parse as a point.
enum LineError {
    /// Too few fields, or a field that is not a number. Allowed once, as
    /// a header on line 1.
    NotNumeric,
    /// A numeric field that [`is_valid_coordinate`] rejects (NaN, ±inf or
    /// too large); never a header.
    Invalid(String),
}

impl LineError {
    fn at<const D: usize>(self, origin: &str, line_no: usize) -> io::Error {
        let what = match self {
            LineError::NotNumeric => format!("expected {D} numeric fields"),
            LineError::Invalid(field) => format!(
                "coordinate {field:?} is not finite or exceeds {MAX_COORDINATE:e} in magnitude"
            ),
        };
        io::Error::new(io::ErrorKind::InvalidData, format!("{origin}:{line_no}: {what}"))
    }
}

/// The point on line `line_no` of `origin`: `None` for a blank line or a
/// non-numeric header on line 1, an `origin:line_no` error for any other
/// line that is not a point.
fn point_on_line<const D: usize>(
    raw: &str,
    line_no: usize,
    delim: u8,
    origin: &str,
) -> io::Result<Option<Point<D>>> {
    let line = raw.trim();
    if line.is_empty() {
        return Ok(None);
    }
    match parse_line::<D>(line, delim) {
        Ok(p) => Ok(Some(p)),
        Err(LineError::NotNumeric) if line_no == 1 => Ok(None), // header
        Err(e) => Err(e.at::<D>(origin, line_no)),
    }
}

fn parse_line<const D: usize>(line: &str, delim: u8) -> Result<Point<D>, LineError> {
    let mut coords = [0.0f32; D];
    let mut fields = if delim == b',' {
        FieldIter::Comma(line.split(','))
    } else {
        FieldIter::Whitespace(line.split_whitespace())
    };
    for c in coords.iter_mut() {
        let field = fields.next().ok_or(LineError::NotNumeric)?.trim();
        *c = field.parse().map_err(|_| LineError::NotNumeric)?;
        if !is_valid_coordinate(*c) {
            return Err(LineError::Invalid(field.to_string()));
        }
    }
    Ok(Point::new(coords))
}

enum FieldIter<'a> {
    Comma(std::str::Split<'a, char>),
    Whitespace(std::str::SplitWhitespace<'a>),
}

impl<'a> Iterator for FieldIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            FieldIter::Comma(i) => i.next(),
            FieldIter::Whitespace(i) => i.next(),
        }
    }
}

/// Streams CSV points in fixed-size chunks without ever holding the whole
/// file in memory — the reader behind the out-of-core sharded EMST path.
///
/// Semantics match [`parse_csv`] exactly (leading non-numeric header skipped,
/// blank lines ignored, extra columns ignored, malformed data lines are
/// errors). `f` is called with the index of the chunk's first point and the
/// chunk's points (every chunk except the last has exactly `chunk_points`
/// points); an error returned by `f` aborts the read. Returns the total
/// number of points streamed.
pub fn read_points_chunked<const D: usize>(
    path: &Path,
    chunk_points: usize,
    mut f: impl FnMut(usize, &[Point<D>]) -> io::Result<()>,
) -> io::Result<usize> {
    assert!(chunk_points > 0, "chunk size must be positive");
    let origin = path.display().to_string();
    let mut reader = BufReader::new(File::open(path)?);
    let mut line_buf = String::new();
    let mut chunk: Vec<Point<D>> = Vec::with_capacity(chunk_points);
    let mut line_no = 0usize;
    let mut total = 0usize;
    loop {
        line_buf.clear();
        if reader.read_line(&mut line_buf)? == 0 {
            break;
        }
        line_no += 1;
        if let Some(p) = point_on_line::<D>(&line_buf, line_no, b',', &origin)? {
            chunk.push(p);
            if chunk.len() == chunk_points {
                f(total, &chunk)?;
                total += chunk.len();
                chunk.clear();
            }
        }
    }
    if !chunk.is_empty() {
        f(total, &chunk)?;
        total += chunk.len();
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// Checksummed binary blobs
// ---------------------------------------------------------------------------
//
// The serving layer's durable spill format and the shard-artifact blob are
// both built from the same primitive: a magic header followed by tagged
// sections, each carrying its own FNV-1a checksum so corruption is localized
// (a flipped bit in the artifact section must not poison the verified point
// bytes next to it). These helpers are deliberately storage-agnostic — they
// build and parse in-memory byte vectors; durability policy (retry, backoff,
// relocation, fault injection) lives with the caller.

/// Streaming FNV-1a 64-bit (`default()` is the offset basis): the one hash
/// behind blob checksums, the serving layer's content digests and reply
/// checks, and the fault injector's decisions. Stable across platforms and
/// fast enough that checksumming never shows up next to the file I/O it
/// guards. Feeding a byte stream in pieces gives the same value as hashing
/// it in one call.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf29ce484222325)
    }
}

impl Fnv1a {
    /// Mixes in `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Mixes in the little-endian bytes of `word`.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit over a byte slice (one-shot [`Fnv1a`]).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Little-endian primitive encoder for blob payloads.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian primitive decoder; every read is length-checked and returns
/// a typed [`io::Error`] (`InvalidData`) on truncation, never a panic.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl<'a> ByteReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| invalid("blob length overflow"))?;
        if end > self.bytes.len() {
            return Err(invalid("blob truncated"));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_bits(u32::from_le_bytes(self.take(4)?.try_into().unwrap())))
    }

    /// Reads a u64 length field and sanity-caps it against `cap` so a lying
    /// header cannot drive a huge allocation.
    pub fn len_capped(&mut self, cap: usize, what: &str) -> io::Result<usize> {
        let v = self.u64()?;
        if v > cap as u64 {
            return Err(invalid(what));
        }
        Ok(v as usize)
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub fn done(&self) -> io::Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(invalid("blob has trailing bytes"))
        }
    }
}

/// Builds a blob: magic, then tagged sections each framed as
/// `tag[4] | len u64 | payload | fnv1a_64(payload) u64`.
pub struct BlobWriter {
    buf: Vec<u8>,
}

impl BlobWriter {
    pub fn new(magic: &[u8; 8]) -> Self {
        Self { buf: magic.to_vec() }
    }

    pub fn section(&mut self, tag: &[u8; 4], payload: &[u8]) {
        self.buf.extend_from_slice(tag);
        self.buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a [`BlobWriter`]-framed blob. Section order is part
/// of the format: callers ask for the tag they expect next and get a typed
/// error on mismatch, truncation, or checksum failure.
pub struct BlobReader<'a> {
    inner: ByteReader<'a>,
}

impl<'a> BlobReader<'a> {
    /// Opens the blob, verifying its magic.
    pub fn open(bytes: &'a [u8], magic: &[u8; 8]) -> io::Result<Self> {
        let mut inner = ByteReader::new(bytes);
        if inner.take(8)? != magic {
            return Err(invalid("blob magic mismatch"));
        }
        Ok(Self { inner })
    }

    /// Reads the next section, requiring tag `tag`; verifies the payload
    /// checksum before handing the bytes back.
    pub fn section(&mut self, tag: &[u8; 4]) -> io::Result<&'a [u8]> {
        let got = self.inner.take(4)?;
        if got != tag {
            return Err(invalid("blob section tag mismatch"));
        }
        let len = self.inner.len_capped(self.inner.remaining(), "blob section length")?;
        let payload = self.inner.take(len)?;
        let want = self.inner.u64()?;
        if fnv1a_64(payload) != want {
            return Err(invalid("blob section checksum mismatch"));
        }
        Ok(payload)
    }

    /// Like [`BlobReader::section`] but returns `Ok(None)` when the blob ends
    /// before another section starts — for trailing optional sections.
    pub fn optional_section(&mut self, tag: &[u8; 4]) -> io::Result<Option<&'a [u8]>> {
        if self.inner.remaining() == 0 {
            return Ok(None);
        }
        self.section(tag).map(Some)
    }

    pub fn done(&self) -> io::Result<()> {
        self.inner.done()
    }
}

/// Parses CSV point bytes: the first `D` numeric columns of every line; a
/// leading non-numeric header line is skipped; blank lines are ignored.
/// Callers read the bytes themselves, so a caller that routes the file
/// read through fault injection (the serving stack's ingest path) parses
/// exactly the bytes it read. `origin` names the source in error messages.
pub fn parse_csv<const D: usize>(bytes: &[u8], origin: &str) -> io::Result<Vec<Point<D>>> {
    parse_delimited(bytes, b',', origin)
}

/// Parses XYZ point bytes (whitespace-separated); see [`parse_csv`].
pub fn parse_xyz<const D: usize>(bytes: &[u8], origin: &str) -> io::Result<Vec<Point<D>>> {
    parse_delimited(bytes, b' ', origin)
}

fn parse_delimited<const D: usize>(
    bytes: &[u8],
    delim: u8,
    origin: &str,
) -> io::Result<Vec<Point<D>>> {
    let text = String::from_utf8_lossy(bytes);
    text.lines()
        .enumerate()
        .filter_map(|(idx, raw)| point_on_line(raw, idx + 1, delim, origin).transpose())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::uniform;

    /// Reads `path` and parses it as CSV, naming it in errors.
    fn read_csv<const D: usize>(path: &Path) -> io::Result<Vec<Point<D>>> {
        parse_csv(&std::fs::read(path)?, &path.display().to_string())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("emst-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn csv_round_trips_exactly() {
        let pts = uniform::<3>(500, 7);
        let path = tmp("roundtrip.csv");
        save_csv(&path, &pts).unwrap();
        let back: Vec<Point<3>> = read_csv(&path).unwrap();
        assert_eq!(pts, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn xyz_round_trips_exactly() {
        let pts = uniform::<2>(300, 9);
        // Space-separated, with the shortest representation that round-trips.
        let text: String = pts.iter().map(|p| format!("{:?} {:?}\n", p[0], p[1])).collect();
        let back: Vec<Point<2>> = parse_xyz(text.as_bytes(), "roundtrip.xyz").unwrap();
        assert_eq!(pts, back);
    }

    #[test]
    fn header_line_is_skipped_and_extra_columns_ignored() {
        let path = tmp("header.csv");
        std::fs::write(&path, "x,y,label\n1.0,2.0,7\n3.5,-4.25,9\n").unwrap();
        let pts: Vec<Point<2>> = read_csv(&path).unwrap();
        assert_eq!(pts, vec![Point::new([1.0, 2.0]), Point::new([3.5, -4.25])]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_data_line_is_an_error() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "1.0,2.0\nnot,numbers\n").unwrap();
        let err = read_csv::<2>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_and_huge_coordinates_are_line_errors() {
        for (text, line) in [
            ("NaN,0.5\n1.0,2.0\n", 1),
            ("1.0,2.0\ninf,0.5\n", 2),
            ("x,y\n1.0,2.0\n0.5,-inf\n", 3),
            ("1.0,2.0\n1e30,0.5\n", 2),
        ] {
            let err = parse_csv::<2>(text.as_bytes(), "pts.csv").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            let msg = err.to_string();
            assert!(msg.starts_with(&format!("pts.csv:{line}: coordinate ")), "{msg}");
        }
        let err = parse_xyz::<3>(b"0 0 nan\n", "pts.xyz").unwrap_err();
        assert!(err.to_string().starts_with("pts.xyz:1: coordinate \"nan\""), "{err}");
        // The bound itself is accepted.
        let pts = parse_csv::<2>(b"1e18,-1e18\n", "pts.csv").unwrap();
        assert_eq!(pts, vec![Point::new([1e18, -1e18])]);

        let path = tmp("chunked-nan.csv");
        std::fs::write(&path, "NaN,0.5\n1.0,2.0\n").unwrap();
        let err = read_points_chunked::<2>(&path, 64, |_, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("chunked-nan.csv:1: coordinate"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_and_empty_files_work() {
        let path = tmp("blank.csv");
        std::fs::write(&path, "\n1.0,2.0\n\n\n").unwrap();
        let pts: Vec<Point<2>> = read_csv(&path).unwrap();
        assert_eq!(pts.len(), 1);
        std::fs::write(&path, "").unwrap();
        let pts: Vec<Point<2>> = read_csv(&path).unwrap();
        assert!(pts.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        let missing = Path::new("/definitely/not/here.csv");
        assert!(read_csv::<2>(missing).is_err());
        assert!(read_points_chunked::<2>(missing, 64, |_, _| Ok(())).is_err());
    }

    #[test]
    fn chunked_reader_round_trips_against_whole_file_reader() {
        let pts = uniform::<3>(1003, 11); // deliberately not a chunk multiple
        let path = tmp("chunked.csv");
        save_csv(&path, &pts).unwrap();
        let whole: Vec<Point<3>> = read_csv(&path).unwrap();
        for chunk_points in [1usize, 7, 256, 1003, 5000] {
            let mut streamed: Vec<Point<3>> = vec![];
            let mut starts: Vec<usize> = vec![];
            let total = read_points_chunked::<3>(&path, chunk_points, |start, chunk| {
                assert_eq!(start, streamed.len());
                starts.push(start);
                streamed.extend_from_slice(chunk);
                Ok(())
            })
            .unwrap();
            assert_eq!(total, whole.len(), "chunk={chunk_points}");
            assert_eq!(streamed, whole, "chunk={chunk_points}");
            // Every chunk except the last is exactly chunk_points long.
            for w in starts.windows(2) {
                assert_eq!(w[1] - w[0], chunk_points);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_skips_headers_and_rejects_malformed_lines() {
        let path = tmp("chunked-header.csv");
        std::fs::write(&path, "x,y,label\n1.0,2.0,7\n\n3.5,-4.25,9\n").unwrap();
        let mut got: Vec<Point<2>> = vec![];
        let total = read_points_chunked::<2>(&path, 64, |_, c| {
            got.extend_from_slice(c);
            Ok(())
        })
        .unwrap();
        assert_eq!(total, 2);
        assert_eq!(got, vec![Point::new([1.0, 2.0]), Point::new([3.5, -4.25])]);

        std::fs::write(&path, "1.0,2.0\nnot,numbers\n").unwrap();
        let err = read_points_chunked::<2>(&path, 64, |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blob_round_trips_and_detects_every_single_byte_flip() {
        // The checksum is FNV-1a 64: the published test vectors, and a
        // stream fed in pieces hashes like the whole slice.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        let mut h = Fnv1a::default();
        h.write(b"fo");
        h.write(b"obar");
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a_64(b"foobar\x08\x07\x06\x05\x04\x03\x02\x01"));

        const MAGIC: &[u8; 8] = b"EMSTTST1";
        let mut w = ByteWriter::new();
        w.u32(7);
        w.u64(u64::MAX);
        w.f32(-0.0);
        let payload_a = w.into_vec();
        let payload_b = vec![0xAB; 33];
        let mut blob = BlobWriter::new(MAGIC);
        blob.section(b"AAAA", &payload_a);
        blob.section(b"BBBB", &payload_b);
        let bytes = blob.finish();

        let mut r = BlobReader::open(&bytes, MAGIC).unwrap();
        let a = r.section(b"AAAA").unwrap();
        let mut br = ByteReader::new(a);
        assert_eq!(br.u32().unwrap(), 7);
        assert_eq!(br.u64().unwrap(), u64::MAX);
        assert_eq!(br.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        br.done().unwrap();
        assert_eq!(r.section(b"BBBB").unwrap(), &payload_b[..]);
        r.done().unwrap();

        // Flip every byte in turn: each corruption must surface as an error
        // somewhere in the read sequence — never as silently wrong payloads.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let result = (|| -> io::Result<()> {
                let mut r = BlobReader::open(&bad, MAGIC)?;
                let a2 = r.section(b"AAAA")?;
                let b2 = r.section(b"BBBB")?;
                r.done()?;
                if a2 != payload_a || b2 != payload_b {
                    return Err(invalid("wrong payload escaped the checksum"));
                }
                Ok(())
            })();
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn blob_truncation_wrong_tag_and_optional_sections() {
        const MAGIC: &[u8; 8] = b"EMSTTST2";
        let mut blob = BlobWriter::new(MAGIC);
        blob.section(b"ONLY", b"hello");
        let bytes = blob.finish();
        for cut in 0..bytes.len() {
            let mut r = match BlobReader::open(&bytes[..cut], MAGIC) {
                Ok(r) => r,
                Err(_) => continue,
            };
            assert!(r.section(b"ONLY").is_err(), "cut={cut}");
        }
        let mut r = BlobReader::open(&bytes, MAGIC).unwrap();
        assert!(r.section(b"ELSE").is_err());
        // Optional trailing section: absent → None, present → Some.
        let mut r = BlobReader::open(&bytes, MAGIC).unwrap();
        r.section(b"ONLY").unwrap();
        assert_eq!(r.optional_section(b"OPTL").unwrap(), None);
        let mut blob = BlobWriter::new(MAGIC);
        blob.section(b"ONLY", b"hello");
        blob.section(b"OPTL", b"extra");
        let bytes = blob.finish();
        let mut r = BlobReader::open(&bytes, MAGIC).unwrap();
        r.section(b"ONLY").unwrap();
        assert_eq!(r.optional_section(b"OPTL").unwrap(), Some(&b"extra"[..]));
        r.done().unwrap();
    }

    #[test]
    fn chunked_reader_propagates_callback_errors() {
        let path = tmp("chunked-abort.csv");
        let pts = uniform::<2>(100, 3);
        save_csv(&path, &pts).unwrap();
        let err = read_points_chunked::<2>(&path, 10, |start, _| {
            if start >= 20 {
                Err(io::Error::other("stop"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "stop");
        std::fs::remove_file(&path).ok();
    }
}
