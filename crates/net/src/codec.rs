//! Exact float text codec and atomic file writes — the durability
//! primitives every persisted artifact shares (experiment cell rows and
//! manifests, engine snapshots, graph-store chunks, bench reports, and
//! the serve transcript renderer).
//!
//! * [`enc_f64`] / [`dec_f64`] write a float as its IEEE-754 bit pattern
//!   in hex, so a value read back is bit-identical to the one written —
//!   NaN payloads and signed zeros included — and no locale or
//!   shortest-decimal rule can perturb it.
//! * [`write_atomic`] writes a temp file in the destination's directory,
//!   syncs it, then renames it over the destination, so a crash mid-save
//!   never leaves a torn file visible.

use std::io::{self, Write};
use std::path::Path;

/// Exact, locale-free `f64` encoding: the IEEE-754 bit pattern in hex.
/// `dec_f64(&enc_f64(x)) == Some(x)` for every value including NaNs.
pub fn enc_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`enc_f64`].
pub fn dec_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s.trim(), 16).ok().map(f64::from_bits)
}

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, flush, then rename over the destination.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_is_exact() {
        for x in [
            0.0,
            -0.0,
            1.5,
            -3.25e-17,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
        ] {
            let back = dec_f64(&enc_f64(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(dec_f64("zz"), None);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_file() {
        let path = std::env::temp_dir().join("ba_net_codec_write_atomic.txt");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_file(&path);
    }
}
