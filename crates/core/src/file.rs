//! Whole-file outputs: the final frame, traces, `--frames`, SVG and CSV.
//!
//! EASYPAP's loop is "run, look, change, run the same command again", so
//! almost every output replaces the file the previous run wrote under the
//! same name. [`rewrite`] overwrites it in place and cuts it at the end of
//! the new content, instead of truncating it first: on ext4 (the default
//! `auto_da_alloc`) closing a truncated file starts its write-back, and
//! the next run's `open(O_TRUNC)` waits for it, then frees blocks that
//! the write allocates again.
//!
//! A crash in the middle of a rewrite can leave the new bytes followed
//! by the tail of the old file, where a truncating write left a short
//! or empty file. Neither calls `fsync`: no output promises durability.

use crate::error::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, Write};
use std::path::Path;

/// Buffer of the writer [`rewrite`] hands its closure.
const BUF_BYTES: usize = 64 * 1024;

/// Replaces the content of `path` (created if missing) with what `write`
/// writes, without truncating the file first.
///
/// The file ends where the closure's output ends, so no tail of a longer
/// previous file survives. When the closure (or the flush) fails, the
/// file is cut at what reached it, as a truncating write would have left
/// it. An I/O error names the path: `I/O error: <path>: ...`; any other
/// error the closure returns passes through unchanged.
pub fn rewrite(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<()>,
) -> Result<()> {
    let path = path.as_ref();
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| named(path, e))?;
    // a device or a pipe (`/dev/null`, `/dev/stdout`) has no length to cut
    let regular = file.metadata().map_err(|e| named(path, e))?.is_file();
    let mut out = BufWriter::with_capacity(BUF_BYTES, file);
    let written = write(&mut out);
    // flushed even when the closure failed, so the file keeps what it
    // wrote; after a failed flush the buffer's remainder is dropped
    let flushed = out.flush();
    let (mut file, _unflushed) = out.into_parts();
    let cut = if regular {
        file.stream_position().and_then(|end| file.set_len(end))
    } else {
        Ok(())
    };
    written
        .and(flushed.map_err(Error::from))
        .and(cut.map_err(Error::from))
        .map_err(|e| match e {
            Error::Io(io) => named(path, io),
            other => other,
        })
}

fn named(path: &Path, io: std::io::Error) -> Error {
    Error::Io(std::io::Error::new(
        io.kind(),
        format!("{}: {io}", path.display()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ezp_file_{}_{name}", std::process::id()))
    }

    #[test]
    fn a_shorter_rewrite_leaves_exactly_the_new_bytes() {
        let path = scratch("shorter");
        std::fs::write(&path, vec![b'x'; 3 * BUF_BYTES + 5]).unwrap();
        rewrite(&path, |w| Ok(w.write_all(b"new")?)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let long = vec![b'y'; 2 * BUF_BYTES + 1];
        rewrite(&path, |w| Ok(w.write_all(&long)?)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), long);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_old_file_keeps_its_length_until_the_new_content_is_written() {
        let path = scratch("in_place");
        std::fs::write(&path, vec![b'x'; 1000]).unwrap();
        rewrite(&path, |w| {
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                1000,
                "truncated first"
            );
            Ok(w.write_all(b"0123")?)
        })
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failing_closure_leaves_what_it_wrote_and_the_error_names_the_path() {
        let path = scratch("failing");
        std::fs::write(&path, vec![b'x'; 1000]).unwrap();
        let err = rewrite(&path, |w| {
            w.write_all(b"half")?;
            Err(std::io::Error::other("encoder gave up").into())
        })
        .unwrap_err();
        assert!(matches!(err, Error::Io(_)));
        assert_eq!(
            err.to_string(),
            format!("I/O error: {}: encoder gave up", path.display())
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"half");

        // a non-I/O error passes through as it is
        let err = rewrite(&path, |_| Err(Error::TraceFormat("bad".into()))).unwrap_err();
        assert_eq!(err.to_string(), "trace format error: bad");
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn a_device_is_written_and_not_cut() {
        rewrite("/dev/null", |w| Ok(w.write_all(b"gone")?)).unwrap();
    }
}
