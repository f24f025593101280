//! Shared primitives for durable, checksummed on-disk formats.
//!
//! Two consumers encode state with these helpers: the controller's
//! crash checkpoints ([`crate::checkpoint`]) and `ffc-fleet`'s
//! telemetry segments. Both are *sealed files* — an 8-byte magic,
//! little-endian fixed-width integers and LEB128 varints in the body,
//! then ([`seal`]) an FNV-64 checksum over everything before it and an
//! 8-byte end marker — written by atomic temp-file + rename. [`unseal`]
//! is the one place the frame is checked, and [`SealError`] the one
//! type that tells a torn (crash-truncated or corrupt) file from an
//! intact one of another schema or run.

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds one byte into a running FNV-1a hash.
#[inline]
pub fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b))
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Appends the raw bits of an `f64` (little-endian).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed byte string (varint length + bytes).
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Zigzag-encodes a signed delta for varint storage.
pub fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// A cursor over a byte slice with error messages that carry the file
/// name and offset of the failure.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    file: &'a str,
}

impl<'a> Cursor<'a> {
    /// Cursor starting at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8], file: &'a str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            file,
        }
    }

    /// Cursor starting at byte offset `pos`.
    pub fn at(bytes: &'a [u8], pos: usize, file: &'a str) -> Self {
        Cursor { bytes, pos, file }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes, or an offset-bearing error.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        // `saturating_sub` (not `pos + n`): a corrupt length prefix can
        // be huge enough to overflow the addition.
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err(format!(
                "{}: truncated at offset {} reading {what} ({} of {n} bytes left)",
                self.file,
                self.pos,
                self.bytes.len().saturating_sub(self.pos)
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads the raw bits of an `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// An error in this cursor's format — file, offset, what — for a
    /// value that read fine at `at` but cannot be right.
    pub fn error_at(&self, at: usize, what: impl Display) -> String {
        format!("{}: offset {at}: {what}", self.file)
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self, what: &str) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.take(1, what)?[0];
            if shift >= 64 {
                return Err(format!(
                    "{}: varint overflow at offset {} reading {what}",
                    self.file, self.pos
                ));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a length-prefixed byte string written by [`put_bytes`].
    /// The length is bounds-checked against the remaining bytes before
    /// allocating, so a corrupt prefix cannot request the moon.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], String> {
        let len = self.varint(what)? as usize;
        self.take(len, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &str) -> Result<String, String> {
        let at = self.pos;
        let b = self.bytes(what)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| self.error_at(at, format_args!("non-UTF-8 bytes reading {what}")))
    }

    /// Reads the `u32` version of the `what` schema and refuses any but
    /// `supported`, as a [`SealError::Mismatch`] naming its offset.
    pub fn schema_version(&mut self, what: &str, supported: u32) -> Result<(), SealError> {
        let (at, version) = (self.pos, self.u32("schema version")?);
        if version == supported {
            return Ok(());
        }
        let what =
            format!("{what} schema v{version} not supported (this reader reads v{supported})");
        Err(SealError::mismatch(self.file, at, what))
    }
}

/// Why a sealed file was refused. Every message starts with the file
/// name and the byte offset of the failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SealError {
    /// Truncated, failed its checksum, or garbled inside: a crash
    /// artifact. Recovery may skip such a file with a note when what it
    /// held survives elsewhere (an older checkpoint, the WAL).
    Torn(String),
    /// Intact, but of another schema version or another run: reading on
    /// would misinterpret it, so it is never skipped silently.
    Mismatch(String),
}

impl SealError {
    /// A [`SealError::Torn`] located at `offset` of `file`.
    pub fn torn(file: &str, offset: usize, what: impl Display) -> SealError {
        SealError::Torn(format!("{file}: offset {offset}: {what}"))
    }

    /// A [`SealError::Mismatch`] located at `offset` of `file`.
    pub fn mismatch(file: &str, offset: usize, what: impl Display) -> SealError {
        SealError::Mismatch(format!("{file}: offset {offset}: {what}"))
    }

    /// The located message, whichever the class.
    pub fn into_message(self) -> String {
        match self {
            SealError::Torn(m) | SealError::Mismatch(m) => m,
        }
    }
}

/// A body that stops making sense under a [`Cursor`] (whose messages
/// carry file and offset already) is torn.
impl From<String> for SealError {
    fn from(cursor_error: String) -> SealError {
        SealError::Torn(cursor_error)
    }
}

/// Seals a file image that starts with its magic: appends the FNV-64
/// of everything in `buf`, then the end marker.
pub fn seal(buf: &mut Vec<u8>, end: &[u8; 8]) {
    let checksum = fnv64(buf);
    put_u64(buf, checksum);
    buf.extend_from_slice(end);
}

/// Checks the frame [`seal`] wrote — the leading `magic`, the trailing
/// `end` marker and the checksum before it — and returns the
/// checksummed part, magic included, so that offsets into it are file
/// offsets. Any failure is [`SealError::Torn`]; what the body says about
/// schema and run is the caller's to check.
pub fn unseal<'a>(
    bytes: &'a [u8],
    file: &str,
    magic: &[u8; 8],
    end: &[u8; 8],
) -> Result<&'a [u8], SealError> {
    let len = bytes.len();
    if len < magic.len() + 16 {
        let what = format!("truncated ({len} bytes, magic + checksum + end marker need 24)");
        return Err(SealError::torn(file, len, what));
    }
    let (body, footer) = bytes.split_at(len - 16);
    if !body.starts_with(magic) {
        return Err(SealError::torn(
            file,
            0,
            "bad magic (not this kind of file)",
        ));
    }
    if !footer.ends_with(end) {
        return Err(SealError::torn(
            file,
            len - 8,
            "missing end marker (torn write)",
        ));
    }
    let (stored, actual) = (Cursor::new(footer, file).u64("checksum")?, fnv64(body));
    if stored != actual {
        let what = format!("checksum mismatch (stored {stored:016x}, computed {actual:016x})");
        return Err(SealError::torn(file, len - 16, what));
    }
    Ok(body)
}

/// Formats an I/O error with the path and operation that hit it.
pub fn io_err(path: &Path, op: &str, e: std::io::Error) -> String {
    format!("{}: {op}: {e}", path.display())
}

/// Writes `bytes` to `path` atomically: the full image lands in a
/// sibling temp file first and is renamed into place, so readers see
/// either the previous file or the complete new one, never a torn
/// intermediate.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "durable".to_string());
    tmp_name.push_str(".tmp");
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, "write", e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, "rename", e))
}

/// The files in `dir` named `<prefix><number><suffix>`, in ascending
/// number order — how checkpoints and segments are both kept.
pub fn list_numbered(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<(u64, PathBuf)>, String> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, "read dir", e))? {
        let entry = entry.map_err(|e| io_err(dir, "read dir entry", e))?;
        let name = entry.file_name();
        let number = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok());
        if let Some(number) = number {
            files.push((number, entry.path()));
        }
    }
    files.sort_unstable_by_key(|&(number, _)| number);
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf, "test");
        for &v in &vals {
            assert_eq!(cur.varint("v").expect("varint"), v);
        }
        assert_eq!(cur.pos(), buf.len());
    }

    #[test]
    fn zigzag_round_trip() {
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn strings_and_floats_round_trip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        put_f64(&mut buf, -0.125);
        put_u32(&mut buf, 7);
        let mut cur = Cursor::new(&buf, "test");
        assert_eq!(cur.string("s").expect("s"), "hello");
        assert_eq!(cur.f64("f").expect("f").to_bits(), (-0.125f64).to_bits());
        assert_eq!(cur.u32("u").expect("u"), 7);
    }

    #[test]
    fn truncation_errors_carry_the_offset() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut cur = Cursor::new(&buf[..5], "short.bin");
        let err = cur.u64("counter").expect_err("truncated");
        assert!(err.contains("short.bin"), "{err}");
        assert!(err.contains("offset 0"), "{err}");
        assert!(err.contains("counter"), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut cur = Cursor::new(&buf, "test");
        assert!(cur.bytes("blob").is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a("") = offset basis; "a" = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv64(b""), FNV_OFFSET);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unseal_returns_what_was_sealed_and_locates_every_frame_failure() {
        let (magic, end) = (b"TESTMAG\n", b"TESTEND\n");
        let mut image = magic.to_vec();
        put_u32(&mut image, 7);
        seal(&mut image, end);
        assert_eq!(image.len(), 8 + 4 + 16);
        let body = unseal(&image, "f", magic, end).expect("unseal");
        assert_eq!(body, &image[..12]);

        let torn = |bytes: &[u8]| match unseal(bytes, "f", magic, end) {
            Err(SealError::Torn(m)) => m,
            other => panic!("expected Torn, got {other:?}"),
        };
        assert!(torn(&image[..20]).starts_with("f: offset 20: truncated"));
        let mut bad = image.clone();
        bad[0] ^= 1;
        assert!(torn(&bad).starts_with("f: offset 0: bad magic"));
        let mut bad = image.clone();
        bad[27] ^= 1;
        assert!(torn(&bad).starts_with("f: offset 20: missing end marker"));
        let mut bad = image.clone();
        bad[9] ^= 1;
        assert!(torn(&bad).starts_with("f: offset 12: checksum mismatch"));

        let mut cur = Cursor::at(body, 8, "f");
        match cur.schema_version("test", 8) {
            Err(SealError::Mismatch(m)) => {
                assert_eq!(
                    m,
                    "f: offset 8: test schema v7 not supported (this reader reads v8)"
                )
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn list_numbered_sorts_by_number_and_ignores_other_names() {
        let dir = std::env::temp_dir().join(format!("ffc-numbered-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        for name in [
            "seg-000010.x",
            "seg-000002.x",
            "seg-2.y",
            "seg-abc.x",
            "other",
        ] {
            fs::write(dir.join(name), b"").expect("touch");
        }
        let found = list_numbered(&dir, "seg-", ".x").expect("list");
        let numbers: Vec<u64> = found.iter().map(|&(n, _)| n).collect();
        assert_eq!(numbers, [2, 10]);
        assert!(found[0].1.ends_with("seg-000002.x"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("ffc-durable-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("file.bin");
        write_atomic(&path, b"one").expect("write 1");
        write_atomic(&path, b"two").expect("write 2");
        assert_eq!(fs::read(&path).expect("read"), b"two");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
