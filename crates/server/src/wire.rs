//! The length-prefixed JSON wire protocol between the service and
//! out-of-process workers.
//!
//! Frames are a big-endian `u32` byte length followed by one UTF-8
//! JSON object. Strings that must survive the trip bit-exactly — spec
//! text, checkpoint record lines, error messages — travel hex-encoded,
//! sidestepping JSON string escaping entirely (the workspace has no
//! serde; field extraction and the hex text codec are
//! [`tapeworm_sim::codec`]'s, shared with the checkpoint records).
//!
//! Conversation (`tapeworm-worker-wire-v1`):
//!
//! ```text
//! → {"op": "plan", "spec": "<hex spec text>", "ring": N}
//! ← {"ok": "plan", "fingerprint": "<16 hex digits>", "total": N}
//! → {"op": "run", "index": K, "attempt": A}
//! ← {"ok": "run", "index": K, "line": "<hex checkpoint record>"}
//! ←  or {"err": "<hex message>"}        typed failure (retryable)
//! → {"op": "shutdown"}
//! ← {"ok": "shutdown"}
//! ```
//!
//! Transport loss (EOF, short frame, I/O error) is the worker-death
//! signal. The backend's attempt loop (the scheduler's
//! `attempt_trial`) counts it as a contained panic, respawns the
//! worker and retries the cell.

use std::io::{self, Read, Write};

pub use tapeworm_sim::codec::{field, field_usize, hex_decode, hex_encode};

/// Protocol identifier (checked implicitly via the handshake).
pub const WIRE_PROTOCOL: &str = "tapeworm-worker-wire-v1";

/// Upper bound on a frame's payload; anything larger is corruption.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one frame and flushes.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed the conversation).
///
/// # Errors
///
/// Propagates I/O failures; a mid-frame EOF (in the length prefix
/// too), oversized length, or non-UTF-8 payload is an error, not a
/// clean close.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    let first = loop {
        match r.read(&mut len_bytes[..1]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => break read?,
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds protocol maximum",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}
