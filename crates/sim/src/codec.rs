//! The flat line-record helpers every text codec in the workspace
//! shares: the checkpoint records, the worker wire protocol and the
//! service's fingerprints.
//!
//! Records are single-line JSON objects whose values are either bare
//! tokens or quoted strings that never contain escapes (free text
//! travels hex-encoded), so a minimal scanner reads them; the
//! workspace has no serde.

/// The workspace's fingerprint and digest hash: FNV-1a's 64-bit offset
/// basis and xor-multiply loop, but with the multiplier `0x1_0000_01b3`
/// where the FNV specification's 64-bit prime is `0x100_0000_01b3`.
/// Every golden digest and every stored fingerprint is a function of
/// this exact arithmetic, so it must not be "corrected".
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Extracts the raw value of a top-level `"key": value` field from a
/// single-line JSON object. Values are either quoted strings (returned
/// without quotes; `None` when the closing quote is missing) or bare
/// tokens up to the next `,` or `}`.
pub fn field<'a>(msg: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = msg.find(&pattern)? + pattern.len();
    let rest = msg[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// [`field`] parsed as a decimal integer.
pub fn field_usize(msg: &str, key: &str) -> Option<usize> {
    field(msg, key)?.parse().ok()
}

/// Hex-encodes arbitrary text for safe embedding in a JSON string.
pub fn hex_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for b in text.bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length, bad digits, or
/// non-UTF-8 decoded bytes.
pub fn hex_decode(hex: &str) -> Option<String> {
    if hex.len() % 2 != 0 {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for chunk in hex.as_bytes().chunks(2) {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        bytes.push((hi * 16 + lo) as u8);
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extracts_strings_and_bare_tokens() {
        let msg = "{\"op\": \"run\", \"index\": 42, \"attempt\": 0, \"line\": \"abc\"}";
        assert_eq!(field(msg, "op"), Some("run"));
        assert_eq!(field_usize(msg, "index"), Some(42));
        assert_eq!(field_usize(msg, "attempt"), Some(0));
        assert_eq!(field(msg, "line"), Some("abc"));
        assert_eq!(field(msg, "missing"), None);
        assert_eq!(field("{\"line\": \"abc", "line"), None, "unterminated");
    }

    #[test]
    fn hex_round_trips_hostile_text() {
        for text in [
            "",
            "plain",
            "with \"quotes\" and \\slashes\\",
            "newline\nand \u{1F980}",
        ] {
            assert_eq!(hex_decode(&hex_encode(text)).as_deref(), Some(text));
        }
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("+a"), None, "a sign is not a digit");
    }
}
