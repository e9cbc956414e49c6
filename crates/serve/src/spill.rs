//! Content digests and the durable eviction spill format.
//!
//! # Cache key
//!
//! A cloud is identified by [`CloudKey`]: the FNV-1a 64-bit digest of its
//! exact coordinate bits (dimension and count mixed in first) paired with
//! the shard count `K`. Two byte-identical clouds always collide onto the
//! same key — that is the cache hit — and any mutation of a single
//! coordinate bit changes the digest, so a stale entry can never answer
//! for a modified cloud. `K` is part of the key because the resident
//! artifacts (plan, per-shard BVHs, local MSTs) are a function of the
//! partition, not just the points.
//!
//! # Spill format (v2, binary, checksummed)
//!
//! An evicted cloud is persisted as one checksummed binary blob
//! (`emst_datasets::io::BlobWriter` framing, magic `EMSTSP02`):
//!
//! | section | payload |
//! |---------|---------|
//! | `HEAD`  | `D` u32, shards u64, salt u32, `n` u64, points digest u64 |
//! | `PNTS`  | `n · D` coordinate `f32` bit patterns, row-major |
//! | `ARTS`  | *(optional)* serialized [`emst_shard::ShardArtifacts`] blob: plan, local MSTs, merge floors and round-1 candidates |
//!
//! Every section carries its own FNV-1a checksum, so a flipped bit or a
//! short write is detected as such — never decoded into wrong points or
//! wrong artifacts. The `ARTS` section makes reload cheap: a verified read
//! of the plan, the local MSTs and the merge bounds (the per-`(vertex,
//! shard)` floors plus each vertex's round-1 candidate edge, stored only
//! for vertices that have one) replaces the deterministic-but-expensive
//! local solves and the build's round-1 probes. It holds no BVH bytes and
//! no per-vertex `reach` — each shard tree is rebuilt from the verified
//! points on restore, which costs less than decoding and checksumming the
//! node arrays would, and `reach` is each floor row's minimum.
//! Because the build *is* deterministic, artifacts are best-effort — a
//! missing or corrupt `ARTS` section degrades to a rebuild from the
//! (verified) points, reported via `SpillContents::artifacts` being
//! `None` with `SpillContents::artifact_corrupt` distinguishing "was
//! never written" from "was written and damaged".
//!
//! Spill files are written and read through [`crate::fault`]'s one writer
//! and one reader, like every other file the engine and CLI store: the
//! write lands under a temp name, is synced and renamed into place, so a
//! crash (or an injected `ENOSPC` mid-write) never leaves a half-written
//! file under the final name. Fault injection is applied to the in-memory
//! byte image, which keeps the chaos tests hermetic and deterministic.
//! This module only encodes, names and decodes; the engine's one verified
//! lookup (retries, fallback directory, points digest) sits on top.

use std::io;
use std::path::{Path, PathBuf};

use emst_datasets::io::{BlobReader, BlobWriter, ByteReader, ByteWriter, Fnv1a};
use emst_geometry::Point;

use crate::fault::{faulted_read, faulted_write, FaultPlan, FaultSite};

/// Magic bytes of the serve spill format, version 2 (binary, checksummed).
pub const SPILL_MAGIC: &[u8; 8] = b"EMSTSP02";

/// Identity of a resident (or spilled) cloud: content digest plus shard
/// count, plus a collision salt. See the module docs for the keying
/// scheme.
///
/// The digest is 64-bit, so distinct clouds *can* collide; the engine
/// never trusts digest equality alone (hits verify the stored points).
/// When verification finds two distinct clouds under one digest, the
/// newcomer is admitted under the next free `salt` so both stay servable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CloudKey {
    /// FNV-1a 64 digest of `(D, n, coordinate bits)`.
    pub digest: u64,
    /// Shard count the artifacts were built with.
    pub shards: usize,
    /// Collision-disambiguation salt; `0` for every key minted by
    /// digesting points, bumped only by the engine's verified-collision
    /// path.
    pub salt: u32,
}

impl CloudKey {
    /// The key `points` would normally be served under (salt `0`).
    pub(crate) fn minted(digest: u64, shards: usize) -> Self {
        Self { digest, shards, salt: 0 }
    }
}

impl std::fmt::Display for CloudKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/K{}", self.digest, self.shards)?;
        if self.salt != 0 {
            write!(f, "/s{}", self.salt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
thread_local! {
    /// [`digest_points`] calls made on this thread, so tests can pin which
    /// paths hash a cloud.
    pub(crate) static DIGEST_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// `(digest, forged digest)` pairs [`forge_digest`] set on this thread.
    static FORGED: std::cell::RefCell<Vec<(u64, u64)>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Test-only: from now on [`digest_points`] returns `digest` for `points`
/// on this thread, so collision tests can alias two distinct clouds under
/// one digest everywhere the engine hashes them, as a true 64-bit
/// collision would.
#[cfg(test)]
pub(crate) fn forge_digest<const D: usize>(points: &[Point<D>], digest: u64) {
    let real = digest_points(points);
    FORGED.with(|f| f.borrow_mut().push((real, digest)));
}

/// FNV-1a 64 over the exact coordinate bits of `points`, with the
/// dimension and count mixed in first. Bit-exact: `-0.0` and `0.0` (and
/// different NaN payloads) digest differently, which errs on the side of a
/// rebuild rather than a false hit.
pub fn digest_points<const D: usize>(points: &[Point<D>]) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(D as u64);
    h.write_u64(points.len() as u64);
    for p in points {
        for d in 0..D {
            h.write_u64(p[d].to_bits() as u64);
        }
    }
    #[cfg(test)]
    {
        DIGEST_CALLS.with(|calls| calls.set(calls.get() + 1));
        let forged = FORGED.with(|f| f.borrow().iter().find(|p| p.0 == h.finish()).map(|p| p.1));
        if let Some(forged) = forged {
            return forged;
        }
    }
    h.finish()
}

/// Bit-exact equality of two clouds — the relation [`digest_points`]
/// hashes, so it is what verifies a digest match. Float `==` would call a
/// cloud holding a NaN unequal to itself.
pub(crate) fn same_bits<const D: usize>(a: &[Point<D>], b: &[Point<D>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| (0..D).all(|d| p[d].to_bits() == q[d].to_bits()))
}

/// Spill file of `key` inside `dir`. Salt-0 keys (the overwhelmingly
/// common case) keep the plain name; salted keys get a suffix so two
/// colliding clouds never clobber each other's spill.
pub(crate) fn spill_path(dir: &Path, key: CloudKey) -> PathBuf {
    if key.salt == 0 {
        dir.join(format!("cloud-{:016x}-k{}.spill", key.digest, key.shards))
    } else {
        dir.join(format!("cloud-{:016x}-k{}-s{}.spill", key.digest, key.shards, key.salt))
    }
}

/// A spill file read back and verified section by section.
#[derive(Debug)]
pub(crate) struct SpillContents<const D: usize> {
    /// The cloud, in original input order (checksum-verified; the engine
    /// additionally re-digests against the key).
    pub points: Vec<Point<D>>,
    /// Verified artifact blob bytes, when the spill carried them intact.
    pub artifacts: Option<Vec<u8>>,
    /// True when an `ARTS` section was present but failed verification —
    /// the reload must fall back to a rebuild, and the failure is worth
    /// counting separately from "artifacts were never spilled".
    pub artifact_corrupt: bool,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt serve spill file: {what}"))
}

/// Serializes a spill image: header + points + optional artifact bytes.
fn encode_spill<const D: usize>(
    key: CloudKey,
    points: &[Point<D>],
    artifacts: Option<&[u8]>,
) -> Vec<u8> {
    let mut head = ByteWriter::new();
    head.u32(D as u32);
    head.u64(key.shards as u64);
    head.u32(key.salt);
    head.u64(points.len() as u64);
    head.u64(key.digest);
    let mut pnts = ByteWriter::new();
    for p in points {
        for d in 0..D {
            pnts.f32(p[d]);
        }
    }
    let mut blob = BlobWriter::new(SPILL_MAGIC);
    blob.section(b"HEAD", &head.into_vec());
    blob.section(b"PNTS", &pnts.into_vec());
    if let Some(art) = artifacts {
        blob.section(b"ARTS", art);
    }
    blob.finish()
}

/// Decodes and verifies a spill image against the key it was looked up
/// under. Corrupt header or points are an `Err`; a corrupt artifact
/// section only degrades (points survive).
fn decode_spill<const D: usize>(bytes: &[u8], key: CloudKey) -> io::Result<SpillContents<D>> {
    let mut blob = BlobReader::open(bytes, SPILL_MAGIC)?;
    let head = blob.section(b"HEAD")?;
    let mut head = ByteReader::new(head);
    let dim = head.u32()?;
    let shards = head.u64()?;
    let salt = head.u32()?;
    let n = head.len_capped(bytes.len(), "spill point count")?;
    let digest = head.u64()?;
    head.done()?;
    if dim as usize != D {
        return Err(corrupt("dimension mismatch"));
    }
    if shards != key.shards as u64 || salt != key.salt || digest != key.digest {
        return Err(corrupt("key mismatch"));
    }
    let pnts = blob.section(b"PNTS")?;
    let mut pnts = ByteReader::new(pnts);
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let mut coords = [0.0f32; D];
        for c in coords.iter_mut() {
            *c = pnts.f32()?;
        }
        points.push(Point::new(coords));
    }
    pnts.done()?;
    // The artifact section is best-effort: any failure past this line
    // degrades to a rebuild instead of failing the whole reload.
    let (artifacts, artifact_corrupt) = match blob.optional_section(b"ARTS") {
        // Bytes after a verified artifact section mean the frame is not
        // one we wrote: reject the file rather than guess at its layout.
        Ok(Some(_)) if blob.done().is_err() => {
            return Err(corrupt("trailing bytes after artifact section"))
        }
        Ok(Some(art)) => (Some(art.to_vec()), false),
        Ok(None) => (None, false),
        Err(_) => (None, true),
    };
    Ok(SpillContents { points, artifacts, artifact_corrupt })
}

/// Writes `key`'s spill file into `dir` (created if needed), optionally
/// carrying serialized artifacts, through [`faulted_write`]'s write site.
/// Injected `ShortWrite`/`BitFlip` faults *succeed* — that is the point:
/// only the read-side checksums can catch them.
pub(crate) fn write_spill<const D: usize>(
    dir: &Path,
    key: CloudKey,
    points: &[Point<D>],
    artifacts: Option<&[u8]>,
    fault: Option<&FaultPlan>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let image = encode_spill(key, points, artifacts);
    faulted_write(fault, FaultSite::Write, &spill_path(dir, key), &image)
}

/// Reads and verifies `key`'s spilled cloud through [`faulted_read`]'s
/// read site. Returns `None` when no spill file exists; I/O failures are
/// `Err` with the OS kind, and corruption anywhere in the header or points
/// is `Err(InvalidData)` — never wrong points. Read-site faults are
/// applied to the loaded image before verification, so an injected bit
/// flip is *detected*, not served.
pub(crate) fn read_spill<const D: usize>(
    dir: &Path,
    key: CloudKey,
    fault: Option<&FaultPlan>,
) -> io::Result<Option<SpillContents<D>>> {
    match faulted_read(fault, FaultSite::Read, &spill_path(dir, key)) {
        Ok(image) => decode_spill(&image, key).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emst-serve-spill-{tag}-{}", std::process::id()))
    }

    fn sample_points() -> Vec<Point<3>> {
        (0..100).map(|i| Point::new([i as f32 * 0.1, -(i as f32), 1.0 / (i + 1) as f32])).collect()
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let pts = vec![Point::new([1.0f32, 2.0]), Point::new([3.0, 4.0])];
        let d = digest_points(&pts);
        assert_eq!(d, digest_points(&pts.clone()));
        let mut mutated = pts.clone();
        mutated[1] = Point::new([3.0, 4.0000005]);
        assert_ne!(d, digest_points(&mutated));
        // Order matters (the cache is keyed on the exact input sequence).
        let swapped = vec![pts[1], pts[0]];
        assert_ne!(d, digest_points(&swapped));
        // Signed zero is a different bit pattern.
        assert_ne!(
            digest_points(&[Point::new([0.0f32, 0.0])]),
            digest_points(&[Point::new([-0.0f32, 0.0])])
        );
        // Pinned: cache keys and spill names depend on this exact value.
        let fixed = [
            Point::new([0.0f32, 1.0, 2.0]),
            Point::new([-1.5f32, 0.25, 3.0e-3]),
            Point::new([1.0e6f32, -0.0, 7.5]),
        ];
        assert_eq!(digest_points(&fixed), 0x4bdf_b728_2661_8cfe);
    }

    #[test]
    fn spill_round_trips_exactly_with_and_without_artifacts() {
        let dir = temp_dir("roundtrip");
        let pts = sample_points();
        let key = CloudKey::minted(digest_points(&pts), 4);
        let art = vec![0xAAu8; 256];
        write_spill(&dir, key, &pts, Some(&art), None).unwrap();
        let back = read_spill::<3>(&dir, key, None).unwrap().unwrap();
        assert_eq!(back.points, pts);
        assert_eq!(digest_points(&back.points), key.digest);
        assert_eq!(back.artifacts.as_deref(), Some(art.as_slice()));
        assert!(!back.artifact_corrupt);
        // Without artifacts: clean reload, no corruption flag.
        write_spill(&dir, key, &pts, None, None).unwrap();
        let back = read_spill::<3>(&dir, key, None).unwrap().unwrap();
        assert_eq!(back.points, pts);
        assert!(back.artifacts.is_none() && !back.artifact_corrupt);
        let missing = CloudKey::minted(1, 4);
        assert!(read_spill::<3>(&dir, missing, None).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected_never_decoded() {
        let dir = temp_dir("corrupt");
        let pts = sample_points();
        let key = CloudKey::minted(digest_points(&pts), 2);
        let art = vec![7u8; 64];
        write_spill(&dir, key, &pts, Some(&art), None).unwrap();
        let path = spill_path(&dir, key);
        let pristine = std::fs::read(&path).unwrap();
        // ARTS is the last section: its payload occupies the tail before
        // the final checksum. Flipping a byte there must only degrade.
        let arts_payload_pos = pristine.len() - 8 - art.len() / 2;
        let mut damaged = pristine.clone();
        damaged[arts_payload_pos] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        let back = read_spill::<3>(&dir, key, None).unwrap().unwrap();
        assert_eq!(back.points, pts, "points survive artifact corruption");
        assert!(back.artifacts.is_none() && back.artifact_corrupt);
        // Any flip in the header or points sections is a typed error.
        for pos in [9usize, 30, pristine.len() / 2] {
            let mut damaged = pristine.clone();
            damaged[pos] ^= 0x01;
            std::fs::write(&path, &damaged).unwrap();
            let e = read_spill::<3>(&dir, key, None).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "flip at {pos}");
        }
        // Truncation at every prefix length is an error, never a panic.
        for cut in 0..pristine.len().min(64) {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(read_spill::<3>(&dir, key, None).is_err(), "cut at {cut}");
        }
        // A truncation that only clips the trailing ARTS section degrades
        // (points intact, artifacts dropped) instead of failing the reload.
        std::fs::write(&path, &pristine[..pristine.len() - 13]).unwrap();
        let back = read_spill::<3>(&dir, key, None).unwrap().unwrap();
        assert_eq!(back.points, pts);
        assert!(back.artifacts.is_none() && back.artifact_corrupt);
        // Trailing garbage after the artifact section is frame corruption.
        let mut padded = pristine.clone();
        padded.extend_from_slice(b"extra");
        std::fs::write(&path, &padded).unwrap();
        let e = read_spill::<3>(&dir, key, None).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // A spill written under one key never decodes under another.
        std::fs::write(&path, &pristine).unwrap();
        let foreign = CloudKey { digest: key.digest ^ 1, ..key };
        std::fs::write(spill_path(&dir, foreign), &pristine).unwrap();
        assert!(read_spill::<3>(&dir, foreign, None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_faults_error_or_corrupt_detectably() {
        use crate::fault::{FaultKind, FaultPlan, FaultSite};
        let dir = temp_dir("faults");
        let pts = sample_points();
        let key = CloudKey::minted(digest_points(&pts), 2);
        // Write-side EIO: the error surfaces and no file lands.
        let plan = FaultPlan::new(1).with_rule(FaultSite::Write, FaultKind::Eio, 1.0);
        let e = write_spill(&dir, key, &pts, None, Some(&plan)).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(5));
        assert!(!spill_path(&dir, key).exists());
        // Write-side ENOSPC: errors, and the final path is never created.
        let plan = FaultPlan::new(1).with_rule(FaultSite::Write, FaultKind::Enospc, 1.0);
        let e = write_spill(&dir, key, &pts, None, Some(&plan)).unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28));
        assert!(!spill_path(&dir, key).exists());
        // Silent write corruption: the write *succeeds*; the read catches it.
        for kind in [FaultKind::ShortWrite, FaultKind::BitFlip] {
            let plan = FaultPlan::new(9).with_rule(FaultSite::Write, kind, 1.0);
            write_spill(&dir, key, &pts, None, Some(&plan)).unwrap();
            match read_spill::<3>(&dir, key, None) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{kind:?}"),
                Ok(back) => {
                    // A flip can land in the (best-effort) artifact area
                    // only when artifacts exist; without them it must fail.
                    panic!("{kind:?} went undetected: {} points", back.unwrap().points.len())
                }
            }
        }
        // Read-side bit flip over a pristine file: detected on read.
        write_spill(&dir, key, &pts, None, None).unwrap();
        let plan = FaultPlan::new(3).with_rule(FaultSite::Read, FaultKind::BitFlip, 1.0);
        let e = read_spill::<3>(&dir, key, Some(&plan)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        // Stall: slow but clean.
        let plan = FaultPlan::new(3).with_rule(FaultSite::Read, FaultKind::Stall(1), 1.0);
        let back = read_spill::<3>(&dir, key, Some(&plan)).unwrap().unwrap();
        assert_eq!(back.points, pts);
        std::fs::remove_dir_all(&dir).ok();
    }
}
