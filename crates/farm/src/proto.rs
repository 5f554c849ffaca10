//! The farm wire protocol: length-prefixed frames over std TCP.
//!
//! Every message is one **frame**: an ASCII decimal payload length, a
//! space, the payload's FNV-1a-64 checksum as 16 hex digits, a
//! newline, then exactly that many payload bytes. The payload's first
//! line is the **header** (a verb plus space-separated arguments); the
//! bytes after the header's newline are the opaque **body** (a shard
//! fragment, a relayed stderr line, an error message). Length prefixing
//! is what makes fragment transfer tear-proof, and the checksum makes it
//! corruption-proof: a frame either arrives whole and intact or reading
//! it is an error — there is no way to observe half a fragment or a
//! damaged one.
//!
//! The first frame on every connection is the versioned handshake: the
//! connecting peer sends `HELLO dvmfarm/<version> <role> <name>` and the
//! coordinator answers `OLEH dvmfarm/<version> farmd` — or `ERR` with a
//! reason, including a version mismatch. Versions must match exactly;
//! there is no downgrade negotiation.
//!
//! See DESIGN.md §7 "Sweep farm" for the full verb table and failure
//! modes.

use std::io::{self, Read, Write};

/// Protocol magic, the first token of every handshake version string.
pub const MAGIC: &str = "dvmfarm";

/// Protocol version spoken by this build. Peers must match exactly.
/// Version 2 added the payload checksum to the length line.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on one frame's payload, defending both sides against a
/// garbage length prefix. Fragments are a few MiB at worst.
pub const MAX_FRAME: usize = 64 << 20;

/// FNV-1a-64 of the concatenated `parts`: the frame checksum.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .flat_map(|p| p.iter())
        .fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Cap on relayed stderr lines (progress, cache stats): longer lines are
/// truncated at a char boundary before they are framed or printed, so a
/// runaway worker cannot balloon coordinator or client memory.
pub const MAX_LINE: usize = 4096;

/// One parsed frame: the header line and the opaque body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Verb plus space-separated arguments (never contains `\n`).
    pub header: String,
    /// Opaque payload after the header line; empty for most verbs.
    pub body: Vec<u8>,
}

impl Frame {
    /// The header's first token (empty string for an empty header).
    pub fn verb(&self) -> &str {
        self.header.split_whitespace().next().unwrap_or("")
    }

    /// The header tokens after the verb.
    pub fn args(&self) -> Vec<&str> {
        self.header.split_whitespace().skip(1).collect()
    }

    /// The body as text (lossy — relayed lines are expected UTF-8).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Write one frame. The whole frame is assembled into a single buffer
/// and written with one `write_all`, so concurrent writers serialized by
/// a mutex can never interleave partial frames.
///
/// # Errors
///
/// I/O errors from the underlying stream; `InvalidInput` if the frame
/// would exceed [`MAX_FRAME`] or the header contains a newline.
pub fn write_frame(w: &mut impl Write, header: &str, body: &[u8]) -> io::Result<()> {
    if header.contains('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame header contains a newline",
        ));
    }
    let payload_len = header.len() + 1 + body.len();
    if payload_len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {payload_len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let sum = fnv1a(&[header.as_bytes(), b"\n", body]);
    let mut buf = format!("{payload_len} {sum:016x}\n{header}\n").into_bytes();
    buf.extend_from_slice(body);
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame, blocking until it arrives whole.
///
/// # Errors
///
/// `UnexpectedEof` on a closed connection (cleanly, or mid-frame),
/// `InvalidData` on a malformed or oversized length line or a checksum
/// mismatch, otherwise the stream's error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut first = [0u8; 1];
    r.read_exact(&mut first)?;
    read_frame_resume(first[0], r)
}

/// [`read_frame`] for callers that already pulled the first byte off the
/// stream (the worker's idle loop reads byte one under a timeout, then
/// finishes the frame blocking so a timeout can never split a frame).
///
/// # Errors
///
/// Same conditions as [`read_frame`].
pub fn read_frame_resume(first: u8, r: &mut impl Read) -> io::Result<Frame> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut len: usize = 0;
    let mut digits = 0usize;
    let mut byte = first;
    loop {
        match byte {
            b' ' if digits > 0 => break,
            b'0'..=b'9' if digits < 9 => {
                len = len * 10 + usize::from(byte - b'0');
                digits += 1;
            }
            _ => return Err(bad("malformed frame length prefix")),
        }
        let mut next = [0u8; 1];
        r.read_exact(&mut next)?;
        byte = next[0];
    }
    if len == 0 || len > MAX_FRAME {
        return Err(bad("frame length out of range"));
    }
    let mut sum_line = [0u8; 17];
    r.read_exact(&mut sum_line)?;
    let sum = std::str::from_utf8(&sum_line[..16])
        .ok()
        .filter(|_| sum_line[16] == b'\n')
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| bad("malformed frame checksum"))?;
    // Grow the buffer only as bytes arrive: a lying length prefix costs
    // what the peer actually sent, not `len`.
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    if fnv1a(&[&payload]) != sum {
        return Err(bad("frame checksum mismatch"));
    }
    let split = payload
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or(payload.len());
    let header = String::from_utf8(payload[..split].to_vec())
        .map_err(|_| bad("frame header is not UTF-8"))?;
    let body = if split < payload.len() {
        payload.split_off(split + 1)
    } else {
        Vec::new()
    };
    Ok(Frame { header, body })
}

/// The `magic/version` token both handshake lines carry.
pub fn version_token() -> String {
    format!("{MAGIC}/{PROTOCOL_VERSION}")
}

/// A parsed `HELLO` handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The peer's role: `worker` or `client`.
    pub role: String,
    /// The peer's self-chosen display name (a [`is_token`] token).
    pub name: String,
}

/// Parse and validate a `HELLO` frame's header.
///
/// # Errors
///
/// A user-facing reason string, suitable as an `ERR` body: wrong magic,
/// version mismatch, malformed shape, or a bad role/name token.
pub fn parse_hello(header: &str) -> Result<Hello, String> {
    let parts: Vec<&str> = header.split_whitespace().collect();
    let [verb, version, role, name] = parts.as_slice() else {
        return Err("malformed handshake (want: HELLO dvmfarm/<ver> <role> <name>)".to_string());
    };
    if *verb != "HELLO" {
        return Err(format!("expected HELLO, got '{verb}'"));
    }
    let (magic, ver) = version.split_once('/').unwrap_or((version, ""));
    if magic != MAGIC {
        return Err(format!("not a {MAGIC} peer (got '{version}')"));
    }
    if ver.parse::<u32>() != Ok(PROTOCOL_VERSION) {
        return Err(format!(
            "protocol version mismatch: peer speaks {MAGIC}/{ver}, this side speaks {}",
            version_token()
        ));
    }
    if *role != "worker" && *role != "client" {
        return Err(format!("unknown role '{role}' (worker|client)"));
    }
    if !is_token(name) {
        return Err(format!("bad peer name '{name}'"));
    }
    Ok(Hello {
        role: (*role).to_string(),
        name: (*name).to_string(),
    })
}

/// `true` for names safe to embed in headers and file names: 1–64 chars
/// of `[A-Za-z0-9._-]`.
pub fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// If `line` is a sweep `progress:` line, its unit label — the text in
/// the final parentheses, or everything after the prefix when there are
/// none. This is what the coordinator aggregates into the one global
/// done/total counter (the per-worker counts are dropped).
pub fn progress_label(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("progress: ")?;
    Some(
        rest.rfind('(')
            .map_or(rest, |open| rest[open + 1..].trim_end_matches(')')),
    )
}

/// Truncate a relayed line to [`MAX_LINE`] bytes at a char boundary.
pub fn truncate_line(line: &str) -> &str {
    if line.len() <= MAX_LINE {
        return line;
    }
    let mut end = MAX_LINE;
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// Print one line to stderr tear-proof: the line is length-checked
/// (truncated at [`MAX_LINE`]), assembled with its newline into a single
/// buffer, and written with one `write_all` under the stderr lock — so
/// relay threads and processes can never interleave partial lines the
/// way per-fragment `eprintln!` formatting could.
pub fn emit_stderr_line(line: &str) {
    let line = truncate_line(line);
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let stderr = io::stderr();
    let mut handle = stderr.lock();
    let _ = handle.write_all(&buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "DONE 3 1", b"fragment bytes").unwrap();
        write_frame(&mut wire, "READY", b"").unwrap();
        let mut r = wire.as_slice();
        let first = read_frame(&mut r).unwrap();
        assert_eq!(first.verb(), "DONE");
        assert_eq!(first.args(), vec!["3", "1"]);
        assert_eq!(first.body, b"fragment bytes");
        let second = read_frame(&mut r).unwrap();
        assert_eq!(second.verb(), "READY");
        assert!(second.body.is_empty());
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn bodies_may_hold_newlines_and_binary() {
        let body = b"line one\nline two\n\x00\xff";
        let mut wire = Vec::new();
        write_frame(&mut wire, "FRAG 0 2", body).unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.header, "FRAG 0 2");
        assert_eq!(frame.body, body);
    }

    #[test]
    fn malformed_lengths_are_rejected() {
        for wire in [
            &b"x5 0000000000000000\nHELLO"[..],
            b" 0000000000000000\nHELLO",
            b"9999999999 0000000000000000\nHELLO",
            b"0 0000000000000000\n",
            b"123456789012 0000000000000000\nH",
            b"5\nHELLO",
            b"5 00000000000000\nHELLO",
            b"5 000000000000000G\nHELLO",
            b"5 0000000000000000\nHELLO",
        ] {
            let err = read_frame(&mut &wire[..]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{wire:?} -> {err}"
            );
        }
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, "BAD\nHEADER", b"").is_err());
    }

    #[test]
    fn handshake_versions_must_match_exactly() {
        let ok = parse_hello("HELLO dvmfarm/2 worker w1").unwrap();
        assert_eq!(ok.role, "worker");
        assert_eq!(ok.name, "w1");
        assert!(parse_hello("HELLO dvmfarm/1 worker w1")
            .unwrap_err()
            .contains("version mismatch"));
        assert!(parse_hello("HELLO otherproto/1 worker w1")
            .unwrap_err()
            .contains("not a dvmfarm peer"));
        assert!(parse_hello("HELLO dvmfarm/2 gardener w1")
            .unwrap_err()
            .contains("unknown role"));
        assert!(parse_hello("HELLO dvmfarm/2 worker").is_err());
        assert!(parse_hello("HELLO dvmfarm/2 worker bad name").is_err());
        assert_eq!(version_token(), "dvmfarm/2");
    }

    #[test]
    fn tokens_reject_separators() {
        assert!(is_token("fig2"));
        assert!(is_token("worker-1.local"));
        assert!(!is_token(""));
        assert!(!is_token("a b"));
        assert!(!is_token("a/b"));
        assert!(!is_token(&"x".repeat(65)));
    }

    #[test]
    fn progress_labels_extract_the_unit_label() {
        assert_eq!(
            progress_label("progress: shard 0/2 1/2 (BFS/FR 4K)"),
            Some("BFS/FR 4K")
        );
        assert_eq!(progress_label("progress: 3/9"), Some("3/9"));
        assert_eq!(progress_label("dataset-cache: hits=1"), None);
    }

    #[test]
    fn long_lines_truncate_on_char_boundaries() {
        let ascii = "x".repeat(MAX_LINE + 100);
        assert_eq!(truncate_line(&ascii).len(), MAX_LINE);
        let multi = "é".repeat(MAX_LINE); // 2 bytes each
        let cut = truncate_line(&multi);
        assert!(cut.len() <= MAX_LINE);
        assert!(multi.is_char_boundary(cut.len()));
        assert_eq!(truncate_line("short"), "short");
    }
}
