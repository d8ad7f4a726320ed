//! Versioned, checksummed checkpoint format and crash-safe persistence
//! for the PIM cache simulator.
//!
//! This crate sits at the bottom of the workspace dependency graph: every
//! state-holding crate (`pim-bus`, `pim-cache`, `pim-obs`, `pim-tracer`,
//! `pim-sim`, `kl1-machine`) implements explicit serialize hooks against
//! the [`Writer`]/[`Reader`] primitives defined here, and the simulator
//! binaries frame those sections into a `pim-ckpt/v1` file:
//!
//! ```text
//! file    := magic payload_len:u64le payload checksum:u64le
//! magic   := "pim-ckpt/v1\n"                     (12 bytes)
//! payload := section*
//! section := name_len:u32le name payload_len:u64le payload
//! ```
//!
//! All integers are little-endian. The checksum is FNV-1a/64 over the
//! payload bytes. A reader verifies, in order: magic (naming a version
//! mismatch when the file is a `pim-ckpt` of another version), declared
//! length against the file size (catching truncation), and checksum
//! (catching bit corruption) — every failure is a structured
//! [`CkptError`] with a named diagnostic, never a panic.
//!
//! The crate also owns the crash-safety primitives shared by every
//! output path in the workspace: [`atomic_write`] (temp file + fsync +
//! rename, so a crash never leaves a partial file where a valid one is
//! expected), [`validate_destination`] (up-front writability probe that
//! leaves *no* zero-byte file behind), and the SIGINT drain flag used by
//! the binaries to cut a final checkpoint on Ctrl-C.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub mod vfs;

/// The 12-byte file magic, including the format version.
pub const MAGIC: &[u8; 12] = b"pim-ckpt/v1\n";

/// Why a checkpoint could not be written or restored.
///
/// Every variant renders as a named diagnostic (the ISSUE's contract:
/// corrupt, truncated, or version-mismatched checkpoints are *refused*
/// with a message naming the failure class, never a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// An operating-system I/O failure (reading or writing the file).
    Io(String),
    /// The file does not start with the `pim-ckpt` magic at all.
    BadMagic,
    /// The file is a `pim-ckpt` of a different format version.
    VersionMismatch {
        /// The version token found in the file.
        found: String,
    },
    /// The file is shorter than its header declares.
    Truncated {
        /// What exactly was cut short.
        detail: String,
    },
    /// The payload checksum does not match the stored one.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// The payload decoded to something structurally impossible
    /// (bad section name, bad enum tag, over- or under-read section).
    Corrupt {
        /// What exactly failed to decode.
        detail: String,
    },
    /// The checkpoint is internally valid but belongs to a different
    /// run configuration (PE count, workload, protocol, …).
    Mismatch {
        /// Which configuration field disagreed.
        detail: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(detail) => write!(f, "i/o error: {detail}"),
            CkptError::BadMagic => write!(f, "bad magic: not a pim-ckpt file"),
            CkptError::VersionMismatch { found } => write!(
                f,
                "version mismatch: file is `{found}`, this build reads `pim-ckpt/v1`"
            ),
            CkptError::Truncated { detail } => write!(f, "truncated checkpoint: {detail}"),
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CkptError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            CkptError::Mismatch { detail } => write!(f, "configuration mismatch: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a 64-bit over `bytes` — the payload checksum. Chosen for being
/// dependency-free, endian-stable, and strong enough to catch the
/// bit-flip and truncation corruption this format defends against
/// (it is an integrity check, not an authentication code).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializer for checkpoint payloads: an append-only byte buffer with
/// little-endian primitives and named, length-prefixed sections.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty payload.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends an `Option<u64>` as presence byte + value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a slice of `u64`s with a length prefix.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Writes a named, length-prefixed section whose body is produced by
    /// `f`. Sections nest; the length is patched in after `f` returns, so
    /// a reader can verify it consumed exactly the section's bytes.
    pub fn section<F: FnOnce(&mut Writer)>(&mut self, name: &str, f: F) {
        // Section names use a u32 prefix so they cannot be confused with
        // ordinary length-prefixed strings when scanning a hexdump.
        self.put_u32(name.len() as u32);
        self.buf.extend_from_slice(name.as_bytes());
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 8]);
        f(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// The raw payload accumulated so far.
    pub fn payload(&self) -> &[u8] {
        &self.buf
    }

    /// Frames the payload into a complete `pim-ckpt/v1` file image:
    /// magic, payload length, payload, FNV-1a/64 checksum.
    pub fn into_file_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + MAGIC.len() + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        let sum = fnv1a64(&self.buf);
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Deserializer over a verified checkpoint payload. Every read is
/// bounds-checked and returns a structured [`CkptError`] on failure —
/// a corrupted payload can never panic the reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over an already-verified payload (see [`read_file_bytes`]).
    pub fn new(payload: &'a [u8]) -> Reader<'a> {
        Reader {
            buf: payload,
            pos: 0,
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        if self.buf.len() - self.pos < n {
            return Err(CkptError::Corrupt {
                detail: format!(
                    "unexpected end of payload reading {what} at offset {}",
                    self.pos
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4, "u32")?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8, "u64")?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CkptError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a `bool`; any byte other than 0 or 1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Corrupt {
                detail: format!("bad bool byte {other:#x}"),
            }),
        }
    }

    /// Reads a `u64` length and checks it fits in the remaining bytes
    /// (so corrupt lengths fail cleanly instead of driving a huge
    /// allocation).
    pub fn get_len(&mut self) -> Result<usize, CkptError> {
        let n = self.get_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(CkptError::Corrupt {
                detail: format!("length {n} exceeds {remaining} remaining bytes"),
            });
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.get_len()?;
        self.take(n, "bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CkptError> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| CkptError::Corrupt {
            detail: "string is not UTF-8".into(),
        })
    }

    /// Reads an `Option<u64>` written by [`Writer::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, CkptError> {
        if self.get_bool()? {
            Ok(Some(self.get_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed `Vec<u64>`.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, CkptError> {
        let n = self.get_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// The name of the section starting at the read position, without
    /// consuming anything — for a reader that accepts more than one
    /// layout of a section.
    pub fn peek_section(&self) -> Result<&'a str, CkptError> {
        let mut r = Reader {
            buf: self.buf,
            pos: self.pos,
        };
        let n = r.get_u32()? as usize;
        let name = r.take(n, "section name").map_err(|_| CkptError::Corrupt {
            detail: format!("section name of {n} bytes overruns payload"),
        })?;
        std::str::from_utf8(name).map_err(|_| CkptError::Corrupt {
            detail: "section name is not UTF-8".into(),
        })
    }

    /// Enters the named section, runs `f` over its body, and verifies
    /// `f` consumed the section exactly — over- and under-reads are
    /// both corruption.
    pub fn section<T, F>(&mut self, name: &str, f: F) -> Result<T, CkptError>
    where
        F: FnOnce(&mut Reader<'a>) -> Result<T, CkptError>,
    {
        let found = self.peek_section()?;
        if found != name {
            return Err(CkptError::Corrupt {
                detail: format!("expected section `{name}`, found `{found}`"),
            });
        }
        self.pos += 4 + found.len();
        let len = self.get_len()?;
        let end = self.pos + len;
        let mut inner = Reader {
            buf: &self.buf[..end],
            pos: self.pos,
        };
        let v = f(&mut inner)?;
        if inner.pos != end {
            return Err(CkptError::Corrupt {
                detail: format!("section `{name}` has {} unread bytes", end - inner.pos),
            });
        }
        self.pos = end;
        Ok(v)
    }

    /// Verifies the whole payload was consumed.
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.pos != self.buf.len() {
            return Err(CkptError::Corrupt {
                detail: format!(
                    "{} trailing bytes after last section",
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

/// Verifies a complete file image (magic, declared length, checksum) and
/// returns the payload slice. This is the only entry point for restoring
/// — a file that fails any check is refused before a single field is
/// decoded.
pub fn read_file_bytes(bytes: &[u8]) -> Result<&[u8], CkptError> {
    if bytes.len() < MAGIC.len() {
        if bytes.is_empty() || !MAGIC.starts_with(&bytes[..bytes.len().min(9)]) {
            return Err(CkptError::BadMagic);
        }
        return Err(CkptError::Truncated {
            detail: format!("{} bytes is shorter than the magic itself", bytes.len()),
        });
    }
    let magic = &bytes[..MAGIC.len()];
    if magic != MAGIC {
        if magic.starts_with(b"pim-ckpt/") {
            let rest = &bytes[..bytes.len().min(32)];
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(MAGIC.len().min(rest.len()));
            return Err(CkptError::VersionMismatch {
                found: String::from_utf8_lossy(&rest[..end]).into_owned(),
            });
        }
        return Err(CkptError::BadMagic);
    }
    let rest = &bytes[MAGIC.len()..];
    if rest.len() < 8 {
        return Err(CkptError::Truncated {
            detail: "header cut off before the payload length".into(),
        });
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&rest[..8]);
    let len = u64::from_le_bytes(a) as usize;
    let body = &rest[8..];
    if body.len() < len + 8 {
        return Err(CkptError::Truncated {
            detail: format!(
                "header declares {len} payload bytes + 8 checksum bytes, file has {}",
                body.len()
            ),
        });
    }
    if body.len() > len + 8 {
        return Err(CkptError::Corrupt {
            detail: format!("{} trailing bytes after the checksum", body.len() - len - 8),
        });
    }
    let payload = &body[..len];
    a.copy_from_slice(&body[len..len + 8]);
    let stored = u64::from_le_bytes(a);
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(CkptError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Writes `writer`'s payload to `path` as a framed `pim-ckpt/v1` file,
/// atomically (see [`atomic_write`]).
pub fn save_to_path(path: &Path, writer: Writer) -> Result<(), CkptError> {
    vfs::write_atomic(vfs::PathClass::Checkpoint, path, &writer.into_file_bytes())
        .map_err(|e| CkptError::Io(format!("cannot write {}: {e}", path.display())))
}

/// Reads and verifies the file at `path`, returning the owned payload.
pub fn load_from_path(path: &Path) -> Result<Vec<u8>, CkptError> {
    let bytes = vfs::read_file(vfs::PathClass::Checkpoint, path)
        .map_err(|e| CkptError::Io(format!("cannot read {}: {e}", path.display())))?;
    Ok(read_file_bytes(&bytes)?.to_vec())
}

pub(crate) fn temp_sibling(path: &Path, tag: &str) -> (PathBuf, PathBuf) {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let tmp = dir.join(format!(".{name}.{tag}.{}", std::process::id()));
    (dir, tmp)
}

/// Durably replaces `path` with `bytes`: write to a temp file in the
/// same directory, fsync it, then rename over the destination (and
/// fsync the directory, warning once on stderr if that fails). Readers
/// of `path` see either the old complete file or the new complete file,
/// never a partial one; a failed write never strands its temp file.
///
/// Routed through [`vfs`] with [`vfs::PathClass::Other`]; callers that
/// know their path class should prefer [`atomic_write_class`] so
/// `--io-chaos` can target and account the path correctly.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    vfs::write_atomic(vfs::PathClass::Other, path, bytes)
}

/// [`atomic_write`] with an explicit [`vfs::PathClass`], so the fault
/// plan keys and the recovery policy table see the path for what it is.
pub fn atomic_write_class(class: vfs::PathClass, path: &Path, bytes: &[u8]) -> io::Result<()> {
    vfs::write_atomic(class, path, bytes)
}

/// Probes that `path` will be writable later, *without* leaving a file
/// behind: an existing file is opened for append (not truncated); a
/// missing one is probed by creating and removing an invisible sibling
/// temp file in the same directory. This replaces the up-front
/// `File::create` pattern that left zero-byte files when a run failed
/// before producing output.
pub fn validate_destination(path: &Path) -> io::Result<()> {
    match std::fs::metadata(path) {
        Ok(_) => std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map(|_| ()),
        Err(_) => {
            let (_, probe) = temp_sibling(path, "probe");
            std::fs::File::create(&probe)?;
            let _ = std::fs::remove_file(&probe);
            Ok(())
        }
    }
}

pub mod spec {
    //! The one parser behind every `FILE[:key=value...]` flag in the
    //! workspace (`--checkpoint FILE[:every=N]`, `--trace FILE[:cap=N]`,
    //! `--sweep FILE`, `--journal FILE`) and every bare `key=value,...`
    //! flag (`--faults`, `--chaos`). Each flag used to hand-roll its own
    //! splitting with its own diagnostics; this module makes every flag
    //! emit the same named-flag messages, so a bad spec always exits 2
    //! with the flag and the offending key/value spelled out.

    /// A parsed `FILE[:key=value...]` flag value: the path plus the
    /// trailing options in source order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FileSpec {
        /// Everything before the first recognized `:key=value` suffix.
        pub path: String,
        /// The recognized trailing options, in the order written.
        pub opts: Vec<(String, String)>,
    }

    impl FileSpec {
        /// The last value given for `key`, if any.
        pub fn get(&self, key: &str) -> Option<&str> {
            self.opts
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        }

        /// Parses `key`'s value as a `u64`, with the flag and key named
        /// in the diagnostic.
        pub fn get_u64(&self, flag: &str, key: &str) -> Result<Option<u64>, String> {
            match self.get(key) {
                None => Ok(None),
                Some(v) => v
                    .parse()
                    .map(Some)
                    .map_err(|_| format!("bad value `{v}` for `{key}` in --{flag}")),
            }
        }
    }

    /// True when `seg` has the shape of an option (`identifier=value`)
    /// rather than a path fragment — used to flag typos like
    /// `out.ck:evry=5` instead of silently treating them as the path.
    fn looks_like_option(seg: &str) -> bool {
        match seg.split_once('=') {
            None => false,
            Some((key, _)) => {
                !key.is_empty()
                    && key
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            }
        }
    }

    /// Parses `FILE[:key=value...]` where each trailing `:key=value`
    /// segment's key is one of `keys`. Unrecognized option-shaped
    /// suffixes are an error (naming the flag, the key, and the accepted
    /// keys); colons that are plainly part of the path (`C:/out.json`)
    /// pass through untouched.
    pub fn parse_file_spec(flag: &str, spec: &str, keys: &[&str]) -> Result<FileSpec, String> {
        let mut rest = spec;
        let mut opts: Vec<(String, String)> = Vec::new();
        while let Some((head, seg)) = rest.rsplit_once(':') {
            let Some((key, value)) = seg.split_once('=') else {
                break;
            };
            if keys.contains(&key) {
                if value.is_empty() {
                    return Err(format!("empty value for `{key}` in --{flag}"));
                }
                opts.push((key.to_string(), value.to_string()));
                rest = head;
            } else if looks_like_option(seg) {
                return Err(format!(
                    "unknown key `{key}` in --{flag} (accepted: {})",
                    keys.join(", ")
                ));
            } else {
                break;
            }
        }
        if rest.is_empty() {
            return Err(format!("empty path in --{flag}"));
        }
        opts.reverse();
        Ok(FileSpec {
            path: rest.to_string(),
            opts,
        })
    }

    /// Splits a bare `key=value[,key=value...]` spec (no file path) into
    /// pairs, with the flag named in every diagnostic. Empty segments
    /// (trailing commas) are ignored.
    pub fn parse_kv_spec(flag: &str, spec: &str) -> Result<Vec<(String, String)>, String> {
        let mut out = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("field `{part}` in --{flag} is not key=value"));
            };
            out.push((key.to_string(), value.to_string()));
        }
        Ok(out)
    }
}

/// Parses the `--checkpoint FILE[:every=N]` argument form shared by the
/// simulator binaries: an optional trailing `:every=N` sets the snapshot
/// interval in engine steps, everything before it is the file path.
/// A thin wrapper over [`spec::parse_file_spec`].
pub fn parse_checkpoint_spec(spec_str: &str) -> Result<(String, Option<u64>), String> {
    let parsed = spec::parse_file_spec("checkpoint", spec_str, &["every"])?;
    let every = parsed.get_u64("checkpoint", "every")?;
    if every == Some(0) {
        return Err("snapshot interval in --checkpoint must be >= 1".into());
    }
    Ok((parsed.path, every))
}

/// Interns `s`, returning a `&'static str` with the same contents.
/// Used when restoring checkpoint fields whose in-memory type is
/// `&'static str` (fault-kind labels in the metrics map and the tracer
/// ring). The table is global and deduplicating, so repeated restores
/// leak each distinct label at most once.
pub fn intern(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = match table.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(&have) = guard.get(s) {
        return have;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

#[allow(unsafe_code)]
mod sig {
    //! SIGINT-to-flag plumbing: the only thing the handler does is store
    //! into a static `AtomicBool` (async-signal-safe), which the
    //! binaries' chunked run loops poll between chunks to drain a final
    //! checkpoint before exiting.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    static FLAG: AtomicBool = AtomicBool::new(false);
    static ONCE: Once = Once::new();

    #[cfg(unix)]
    extern "C" fn on_sigint(_signum: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    pub fn install() -> &'static AtomicBool {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        ONCE.call_once(|| {
            // SAFETY: `signal` is the POSIX libc entry point (libc is
            // already linked by std); the handler only performs an
            // atomic store, which is async-signal-safe.
            unsafe {
                signal(SIGINT, on_sigint);
            }
        });
        &FLAG
    }

    #[cfg(not(unix))]
    pub fn install() -> &'static AtomicBool {
        ONCE.call_once(|| {});
        &FLAG
    }
}

/// Installs (once) a SIGINT handler that sets a flag instead of killing
/// the process, and returns that flag. Binaries poll it between run
/// chunks: when set, they write a final checkpoint and exit. On
/// non-Unix targets this returns a flag that is simply never set.
pub fn install_sigint_flag() -> &'static std::sync::atomic::AtomicBool {
    sig::install()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Writer {
        let mut w = Writer::new();
        w.section("meta", |w| {
            w.put_str("tracesim");
            w.put_u64(42);
        });
        w.section("body", |w| {
            w.put_u64s(&[1, 2, 3]);
            w.put_opt_u64(None);
            w.put_opt_u64(Some(7));
            w.put_bool(true);
            w.put_i64(-5);
            w.section("nested", |w| w.put_u8(9));
        });
        w
    }

    fn read_sample(payload: &[u8]) -> Result<(), CkptError> {
        let mut r = Reader::new(payload);
        r.section("meta", |r| {
            assert_eq!(r.get_str()?, "tracesim");
            assert_eq!(r.get_u64()?, 42);
            Ok(())
        })?;
        r.section("body", |r| {
            assert_eq!(r.get_u64s()?, vec![1, 2, 3]);
            assert_eq!(r.get_opt_u64()?, None);
            assert_eq!(r.get_opt_u64()?, Some(7));
            assert!(r.get_bool()?);
            assert_eq!(r.get_i64()?, -5);
            r.section("nested", |r| {
                assert_eq!(r.get_u8()?, 9);
                Ok(())
            })
        })?;
        r.expect_end()
    }

    #[test]
    fn round_trip() {
        let bytes = sample().into_file_bytes();
        let payload = read_file_bytes(&bytes).unwrap();
        read_sample(payload).unwrap();
    }

    #[test]
    fn bad_magic_is_refused() {
        assert_eq!(
            read_file_bytes(b"not a checkpoint"),
            Err(CkptError::BadMagic)
        );
        assert_eq!(read_file_bytes(b""), Err(CkptError::BadMagic));
    }

    #[test]
    fn version_mismatch_names_the_found_version() {
        let mut bytes = sample().into_file_bytes();
        bytes[10] = b'9'; // "pim-ckpt/v1" -> "pim-ckpt/v9"
        match read_file_bytes(&bytes) {
            Err(CkptError::VersionMismatch { found }) => assert_eq!(found, "pim-ckpt/v9"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncation_is_refused_at_every_length() {
        let bytes = sample().into_file_bytes();
        for cut in 0..bytes.len() {
            let r = read_file_bytes(&bytes[..cut]);
            assert!(r.is_err(), "accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn every_single_bit_flip_is_refused_or_detected() {
        let bytes = sample().into_file_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                // Either the framing refuses it, or (if the flip hit
                // the checksum trailer vs payload consistently — it
                // cannot, for a single flip) the decode refuses it.
                // Never a panic, never a silent success.
                let refused = match read_file_bytes(&m) {
                    Err(_) => true,
                    Ok(p) => read_sample(p).is_err(),
                };
                assert!(refused, "flip at byte {i} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn section_over_and_under_read_are_corruption() {
        let mut w = Writer::new();
        w.section("s", |w| w.put_u64(1));
        let bytes = w.into_file_bytes();
        let payload = read_file_bytes(&bytes).unwrap();
        // Under-read.
        let mut r = Reader::new(payload);
        let e = r.section("s", |_r| Ok(())).unwrap_err();
        assert!(matches!(e, CkptError::Corrupt { .. }), "{e}");
        // Over-read.
        let mut r = Reader::new(payload);
        let e = r
            .section("s", |r| {
                r.get_u64()?;
                r.get_u64()
            })
            .unwrap_err();
        assert!(matches!(e, CkptError::Corrupt { .. }), "{e}");
        // Wrong name.
        let mut r = Reader::new(payload);
        let e = r.section("t", |_r| Ok(())).unwrap_err();
        assert!(e.to_string().contains("expected section `t`"), "{e}");
    }

    #[test]
    fn peek_section_names_the_next_section_without_consuming_it() {
        let mut w = Writer::new();
        w.section("first", |w| w.put_u8(1));
        w.section("second", |w| w.put_u8(2));
        let mut r = Reader::new(w.payload());
        assert_eq!(r.peek_section().unwrap(), "first");
        assert_eq!(r.section("first", |r| r.get_u8()).unwrap(), 1);
        assert_eq!(r.peek_section().unwrap(), "second");
        assert_eq!(r.section("second", |r| r.get_u8()).unwrap(), 2);
        let e = r.peek_section().unwrap_err();
        assert!(matches!(e, CkptError::Corrupt { .. }), "{e}");
        // A name longer than the payload is corruption, not a panic.
        let mut bad = Writer::new();
        bad.put_u32(1 << 20);
        let e = Reader::new(bad.payload()).peek_section().unwrap_err();
        assert!(e.to_string().contains("overruns payload"), "{e}");
    }

    #[test]
    fn atomic_write_and_validate_destination() {
        let dir = std::env::temp_dir().join(format!("pim_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        validate_destination(&path).unwrap();
        assert!(!path.exists(), "probe left a file behind");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        validate_destination(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        atomic_write(&path, b"world").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"world");
        // No temp droppings.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().starts_with('.'))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        assert!(validate_destination(Path::new("/nonexistent-dir-pim/x.bin")).is_err());
    }

    #[test]
    fn checkpoint_spec_parses() {
        assert_eq!(parse_checkpoint_spec("ck.bin"), Ok(("ck.bin".into(), None)));
        assert_eq!(
            parse_checkpoint_spec("ck.bin:every=500"),
            Ok(("ck.bin".into(), Some(500)))
        );
        assert!(parse_checkpoint_spec("ck.bin:every=0").is_err());
        assert!(parse_checkpoint_spec("ck.bin:every=x").is_err());
        assert!(parse_checkpoint_spec(":every=5").is_err());
    }

    #[test]
    fn file_specs_parse_with_named_flag_diagnostics() {
        use super::spec::parse_file_spec;
        let s = parse_file_spec("journal", "sweep.wal", &["fsync"]).unwrap();
        assert_eq!(s.path, "sweep.wal");
        assert!(s.opts.is_empty());
        // Multiple trailing options, in source order; the last wins on get.
        let s = parse_file_spec("trace", "out.json:cap=5:cap=9", &["cap"]).unwrap();
        assert_eq!(s.path, "out.json");
        assert_eq!(s.get("cap"), Some("9"));
        assert_eq!(s.get_u64("trace", "cap"), Ok(Some(9)));
        // Windows-style drive colons are path, not options.
        let s = parse_file_spec("trace", "C:/t/out.json:cap=1", &["cap"]).unwrap();
        assert_eq!(s.path, "C:/t/out.json");
        // Typos are named, not silently folded into the path.
        let e = parse_file_spec("checkpoint", "ck.bin:evry=5", &["every"]).unwrap_err();
        assert!(e.contains("unknown key `evry` in --checkpoint"), "{e}");
        let e = parse_file_spec("trace", "out.json:cap=", &["cap"]).unwrap_err();
        assert!(e.contains("empty value for `cap` in --trace"), "{e}");
        let e = parse_file_spec("sweep", "", &["x"]).unwrap_err();
        assert!(e.contains("empty path in --sweep"), "{e}");
        let e = parse_file_spec("trace", "out.json:cap=zz", &["cap"])
            .unwrap()
            .get_u64("trace", "cap")
            .unwrap_err();
        assert!(e.contains("bad value `zz` for `cap` in --trace"), "{e}");
    }

    #[test]
    fn kv_specs_parse_with_named_flag_diagnostics() {
        use super::spec::parse_kv_spec;
        assert_eq!(
            parse_kv_spec("faults", "seed=7,rate=0.01"),
            Ok(vec![
                ("seed".into(), "7".into()),
                ("rate".into(), "0.01".into())
            ])
        );
        assert_eq!(parse_kv_spec("chaos", ""), Ok(vec![]));
        let e = parse_kv_spec("faults", "seed").unwrap_err();
        assert!(
            e.contains("field `seed` in --faults is not key=value"),
            "{e}"
        );
    }

    #[test]
    fn intern_deduplicates() {
        let a = intern("bus_nack");
        let b = intern("bus_nack");
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern("pe_stall"), "pe_stall");
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("pim_ckpt_disk_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.bin");
        save_to_path(&path, sample()).unwrap();
        let payload = load_from_path(&path).unwrap();
        read_sample(&payload).unwrap();
        match load_from_path(&dir.join("missing.bin")) {
            Err(CkptError::Io(d)) => assert!(d.contains("missing.bin"), "{d}"),
            other => panic!("{other:?}"),
        }
    }
}
