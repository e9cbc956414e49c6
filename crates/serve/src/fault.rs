//! Deterministic fault injection, and the one path every stored file takes.
//!
//! A [`FaultPlan`] is a seeded set of rules, one decision per I/O
//! operation: every spill write and read, every `--metrics-file` write and
//! every dataset ingest read asks the plan whether (and how) to fail.
//! Decisions are a pure function of `(seed, site, operation ordinal, rule
//! index)` — the same plan replayed over the same operation sequence
//! injects the same faults, which is what lets the chaos suite assert
//! exact outcomes and lets a CI failure be reproduced from its seed alone.
//!
//! Those operations all go through [`faulted_write`] and [`faulted_read`],
//! so each fault kind means the same thing at every site. The writer is
//! atomic and durable (temp file, `sync_data`, rename): a failed write,
//! an injected `ENOSPC` included, leaves the destination as it was. The
//! reader reads the file before it asks the plan, so a missing file is
//! `NotFound` and consumes no decision.
//!
//! The plan deliberately covers the two failure shapes a storage layer must
//! survive:
//!
//! - **honest errors** ([`FaultKind::Eio`], [`FaultKind::Enospc`]): the
//!   syscall reports failure — retry/backoff/relocation territory;
//! - **silent corruption** ([`FaultKind::ShortWrite`],
//!   [`FaultKind::BitFlip`]): the syscall reports success and the bytes are
//!   wrong — checksum territory; nothing but verification can catch it;
//! - plus [`FaultKind::Stall`] for latency, which must never corrupt
//!   anything, only cost time.
//!
//! Plans parse from a compact spec string (the CLI's `--fault-plan`):
//!
//! ```text
//! seed=42;write=eio@0.5;read=bitflip@0.25;write=stall:10@0.1
//! ```
//!
//! reads as: seed 42; each write fails with EIO with probability 0.5, else
//! stalls 10 ms with probability 0.1; each read bit-flips with probability
//! 0.25. Rules are evaluated in spec order per site; the first that fires
//! wins, so at most one fault applies per operation.

use std::borrow::Cow;
use std::ffi::OsString;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use emst_datasets::io::Fnv1a;

/// Where in the storage path a fault decision is being made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A spill-file write (eviction persistence).
    Write,
    /// A spill-file read (reload, salt probing).
    Read,
    /// A `--metrics-file` snapshot write.
    MetricsWrite,
    /// A dataset ingest read (CSV/XYZ bytes before parsing).
    IngestRead,
}

/// The failure to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation errors with `EIO` (nothing is written or returned).
    Eio,
    /// A write fails part-way with `ENOSPC` and leaves the destination as
    /// it was; a read errors the same way (quota exceeded mid-read).
    Enospc,
    /// Silent truncation: the operation *succeeds* but only a prefix of
    /// the bytes makes it through.
    ShortWrite,
    /// Silent corruption: the operation succeeds with exactly one bit
    /// flipped somewhere in the payload.
    BitFlip,
    /// The operation stalls this many milliseconds, then succeeds cleanly.
    Stall(u64),
}

#[derive(Debug)]
struct Rule {
    site: FaultSite,
    kind: FaultKind,
    /// Probability in `[0, 1]` that this rule fires on a given operation.
    prob: f64,
}

/// A seeded, deterministic fault-injection plan. Cheap to share behind an
/// `Arc`; thread-safe (the per-site ordinals are atomics — under
/// concurrency the *assignment* of ordinals to operations races, but every
/// ordinal is still decided exactly once, so the injected fault *count*
/// distribution is stable and a serialized replay is fully reproducible).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    /// Operation ordinals, one per [`FaultSite`] (`site as usize`).
    ops: [AtomicU64; 4],
    injected: AtomicU64,
}

/// FNV-1a over the little-endian bytes of `words`.
fn hash_words(words: &[u64]) -> u64 {
    let mut h = Fnv1a::default();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

impl FaultPlan {
    /// An empty plan (no rules — never injects) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, rules: vec![], ops: Default::default(), injected: AtomicU64::new(0) }
    }

    /// Appends a rule: at `site`, inject `kind` with probability `prob`
    /// (clamped to `[0, 1]`). Rules are consulted in insertion order.
    pub fn with_rule(mut self, site: FaultSite, kind: FaultKind, prob: f64) -> Self {
        self.rules.push(Rule { site, kind, prob: prob.clamp(0.0, 1.0) });
        self
    }

    /// Parses the CLI spec format (see the module docs):
    /// `seed=N;<site>=<kind>[:ms]@<prob>;...` where `site` is `write`,
    /// `read`, `metrics` or `ingest` and `kind` is `eio`, `enospc`,
    /// `shortwrite`, `bitflip` or `stall:<ms>`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::new(0);
        let mut saw_seed = false;
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (lhs, rhs) =
                part.split_once('=').ok_or_else(|| format!("fault-plan: `{part}` is not k=v"))?;
            if lhs == "seed" {
                plan.seed = rhs.parse().map_err(|_| format!("fault-plan: bad seed `{rhs}`"))?;
                saw_seed = true;
                continue;
            }
            let site = match lhs {
                "write" => FaultSite::Write,
                "read" => FaultSite::Read,
                "metrics" => FaultSite::MetricsWrite,
                "ingest" => FaultSite::IngestRead,
                _ => return Err(format!("fault-plan: unknown site `{lhs}`")),
            };
            let (kind_s, prob_s) = rhs
                .split_once('@')
                .ok_or_else(|| format!("fault-plan: `{rhs}` is missing `@prob`"))?;
            let kind = match kind_s.split_once(':') {
                Some(("stall", ms)) => FaultKind::Stall(
                    ms.parse().map_err(|_| format!("fault-plan: bad stall ms `{ms}`"))?,
                ),
                None => match kind_s {
                    "eio" => FaultKind::Eio,
                    "enospc" => FaultKind::Enospc,
                    "shortwrite" => FaultKind::ShortWrite,
                    "bitflip" => FaultKind::BitFlip,
                    _ => return Err(format!("fault-plan: unknown kind `{kind_s}`")),
                },
                Some(_) => return Err(format!("fault-plan: unknown kind `{kind_s}`")),
            };
            let prob: f64 =
                prob_s.parse().map_err(|_| format!("fault-plan: bad probability `{prob_s}`"))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("fault-plan: probability {prob} outside [0, 1]"));
            }
            plan.rules.push(Rule { site, kind, prob });
        }
        if !saw_seed && !plan.rules.is_empty() {
            return Err("fault-plan: missing `seed=N`".to_string());
        }
        Ok(plan)
    }

    /// Decides the fate of the next operation at `site`: `None` means run
    /// cleanly. Consumes one ordinal per call regardless of outcome.
    pub fn decide(&self, site: FaultSite) -> Option<FaultKind> {
        let op = self.ops[site as usize].fetch_add(1, Relaxed);
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let h = hash_words(&[self.seed, site as u64, op, i as u64]);
            // Map the hash to [0, 1) and compare against the rule's odds.
            if (h >> 11) as f64 / ((1u64 << 53) as f64) < rule.prob {
                self.injected.fetch_add(1, Relaxed);
                return Some(rule.kind);
            }
        }
        None
    }

    /// A deterministic "random" index in `0..len` for this operation —
    /// where a bit flip or short write lands. Varies per op ordinal via a
    /// side hash so corruption doesn't always hit the same byte.
    pub fn position(&self, site: FaultSite, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        // `decide` already consumed the ordinal for this op; reuse it.
        let op = self.ops[site as usize].load(Relaxed);
        (hash_words(&[self.seed ^ 0x9e3779b97f4a7c15, site as u64, op]) % len as u64) as usize
    }

    /// Total faults injected so far — the chaos tests' sanity check that
    /// the plan actually fired.
    pub fn injected(&self) -> u64 {
        self.injected.load(Relaxed)
    }
}

/// `EIO`, the injected honest I/O error.
const EIO: i32 = 5;
/// `ENOSPC`, the injected full disk.
const ENOSPC: i32 = 28;

/// Applies `kind` to an operation's in-memory image: `Eio` and `Enospc`
/// fail the operation, `ShortWrite` truncates the image and `BitFlip`
/// flips one bit in it (both silently), and `Stall` sleeps.
fn inject(
    plan: &FaultPlan,
    site: FaultSite,
    kind: FaultKind,
    image: &mut Cow<'_, [u8]>,
) -> io::Result<()> {
    match kind {
        FaultKind::Eio => return Err(io::Error::from_raw_os_error(EIO)),
        FaultKind::Enospc => return Err(io::Error::from_raw_os_error(ENOSPC)),
        FaultKind::ShortWrite => {
            let cut = plan.position(site, image.len());
            image.to_mut().truncate(cut);
        }
        FaultKind::BitFlip if !image.is_empty() => {
            let pos = plan.position(site, image.len());
            image.to_mut()[pos] ^= 1 << (pos % 8);
        }
        FaultKind::BitFlip => {}
        FaultKind::Stall(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
    }
    Ok(())
}

/// The temp name a write to `path` lands under before its rename:
/// `.tmp-<name>` beside the destination.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = OsString::from(".tmp-");
    name.push(path.file_name().unwrap_or_default());
    path.with_file_name(name)
}

/// Writes `bytes` to `path` through the plan's decision at `site` — the
/// one writer for every site. The image is written to `.tmp-<name>` beside
/// `path`, synced and renamed over `path`, so a failed write leaves `path`
/// as it was and removes the temp file. `Eio` writes nothing; `ShortWrite`
/// and `BitFlip` write a corrupted image and *succeed* (only a reader's
/// checksums catch them); `Stall` sleeps, then writes; `Enospc` fails the
/// write part-way. `None` plan writes cleanly.
pub fn faulted_write(
    plan: Option<&FaultPlan>,
    site: FaultSite,
    path: &Path,
    bytes: &[u8],
) -> io::Result<()> {
    let mut image = Cow::Borrowed(bytes);
    let mut disk_full = false;
    if let Some((plan, kind)) = plan.and_then(|p| Some((p, p.decide(site)?))) {
        // A full disk takes a prefix of the image, then fails the write.
        disk_full = kind == FaultKind::Enospc;
        let kind = if disk_full { FaultKind::ShortWrite } else { kind };
        inject(plan, site, kind, &mut image)?;
    }
    let tmp = tmp_path(path);
    let written = File::create(&tmp).and_then(|mut out| {
        out.write_all(&image)?;
        if disk_full {
            return Err(io::Error::from_raw_os_error(ENOSPC));
        }
        out.sync_data()
    });
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Reads `path`, then applies the plan's decision at `site` to the bytes
/// read: `Eio`/`Enospc` error, `ShortWrite` silently truncates the
/// returned bytes, `BitFlip` silently flips one bit and `Stall` sleeps. A
/// read that fails on its own (a missing file is `NotFound`) returns that
/// error and consumes no fault ordinal. `None` plan reads cleanly.
pub fn faulted_read(plan: Option<&FaultPlan>, site: FaultSite, path: &Path) -> io::Result<Vec<u8>> {
    let mut image = Cow::Owned(std::fs::read(path)?);
    if let Some((plan, kind)) = plan.and_then(|p| Some((p, p.decide(site)?))) {
        inject(plan, site, kind, &mut image)?;
    }
    Ok(image.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_probability_shaped() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).with_rule(FaultSite::Write, FaultKind::Eio, 0.5);
            (0..1000).map(|_| plan.decide(FaultSite::Write).is_some()).collect::<Vec<_>>()
        };
        // Pinned: seed 42's first 32 decisions (bit i is operation i).
        let pinned = run(42).into_iter().take(32).enumerate().map(|(i, x)| u32::from(x) << i);
        assert_eq!(pinned.sum::<u32>(), 0x4d92_49b2);
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same decisions");
        assert_ne!(a, run(8), "different seed, different decisions");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((300..700).contains(&hits), "p=0.5 over 1000 ops fired {hits} times");
        // Reads are an independent stream: no write rule applies.
        let plan = FaultPlan::new(7).with_rule(FaultSite::Write, FaultKind::Eio, 1.0);
        assert_eq!(plan.decide(FaultSite::Read), None);
        assert_eq!(plan.decide(FaultSite::Write), Some(FaultKind::Eio));
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(1).with_rule(FaultSite::Read, FaultKind::BitFlip, 1.0).with_rule(
            FaultSite::Read,
            FaultKind::Eio,
            1.0,
        );
        for _ in 0..10 {
            assert_eq!(plan.decide(FaultSite::Read), Some(FaultKind::BitFlip));
        }
    }

    #[test]
    fn spec_parsing_round_trips_the_documented_example() {
        let plan =
            FaultPlan::parse("seed=42;write=eio@0.5;read=bitflip@0.25;write=stall:10@0.1").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[2].kind, FaultKind::Stall(10));
        assert!(FaultPlan::parse("").unwrap().rules.is_empty());
        for bad in [
            "write=eio@0.5",            // missing seed
            "seed=x",                   // bad seed
            "seed=1;flush=eio@0.5",     // unknown site
            "seed=1;write=explode@0.5", // unknown kind
            "seed=1;write=eio@1.5",     // probability out of range
            "seed=1;write=eio",         // missing probability
            "seed=1;write=stall:abc@1", // bad stall duration
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn metrics_and_ingest_sites_are_independent_streams() {
        let plan = FaultPlan::parse("seed=9;metrics=eio@1.0;ingest=bitflip@1.0").unwrap();
        // The new sites fire on their own ordinals without touching the
        // spill streams.
        assert_eq!(plan.decide(FaultSite::Write), None);
        assert_eq!(plan.decide(FaultSite::Read), None);
        assert_eq!(plan.decide(FaultSite::MetricsWrite), Some(FaultKind::Eio));
        assert_eq!(plan.decide(FaultSite::IngestRead), Some(FaultKind::BitFlip));
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn faulted_write_and_read_honour_the_plan() {
        let dir = std::env::temp_dir().join(format!("emst_fault_helpers_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let payload = b"emst_serve_hits_total 3\n";

        // Eio: honest error, nothing written.
        let plan = FaultPlan::new(4).with_rule(FaultSite::MetricsWrite, FaultKind::Eio, 1.0);
        let err = faulted_write(Some(&plan), FaultSite::MetricsWrite, &path, payload).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert!(!path.exists());

        // Clean plan (no rules) and no plan both write faithfully.
        faulted_write(Some(&FaultPlan::new(1)), FaultSite::MetricsWrite, &path, payload).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), payload);
        faulted_write(None, FaultSite::MetricsWrite, &path, payload).unwrap();

        // ShortWrite: success reported, prefix landed.
        let plan = FaultPlan::new(4).with_rule(FaultSite::MetricsWrite, FaultKind::ShortWrite, 1.0);
        faulted_write(Some(&plan), FaultSite::MetricsWrite, &path, payload).unwrap();
        let written = std::fs::read(&path).unwrap();
        assert!(written.len() < payload.len());
        assert_eq!(&payload[..written.len()], &written[..]);

        // Ingest reads: Eio errors, BitFlip corrupts exactly one bit.
        std::fs::write(&path, payload).unwrap();
        let plan = FaultPlan::new(4).with_rule(FaultSite::IngestRead, FaultKind::Eio, 1.0);
        assert!(faulted_read(Some(&plan), FaultSite::IngestRead, &path).is_err());
        let plan = FaultPlan::new(4).with_rule(FaultSite::IngestRead, FaultKind::BitFlip, 1.0);
        let corrupted = faulted_read(Some(&plan), FaultSite::IngestRead, &path).unwrap();
        assert_eq!(corrupted.len(), payload.len());
        let flipped: u32 = corrupted.iter().zip(payload).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
        assert_eq!(faulted_read(None, FaultSite::IngestRead, &path).unwrap(), payload);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_enospc_leaves_the_previous_file_and_no_temp() {
        let dir = std::env::temp_dir().join(format!("emst_fault_enospc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        faulted_write(None, FaultSite::MetricsWrite, &path, b"first\n").unwrap();
        let plan = FaultPlan::new(4).with_rule(FaultSite::MetricsWrite, FaultKind::Enospc, 1.0);
        let err = faulted_write(Some(&plan), FaultSite::MetricsWrite, &path, b"second, longer\n")
            .unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        assert_eq!(std::fs::read(&path).unwrap(), b"first\n");
        assert!(!tmp_path(&path).exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "only the destination is left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn positions_stay_in_bounds() {
        let plan = FaultPlan::new(3).with_rule(FaultSite::Write, FaultKind::BitFlip, 1.0);
        for len in [1usize, 2, 100, 4096] {
            plan.decide(FaultSite::Write);
            assert!(plan.position(FaultSite::Write, len) < len);
        }
        assert_eq!(plan.position(FaultSite::Write, 0), 0);
    }
}
