//! The animation sink: numbered frames in a directory.
//!
//! The EASYPAP window "displays an animation consisting of the series
//! of images computed at each iteration. The animation can be paused,
//! or can be slightly accelerated by skipping frames." Off-screen, the
//! same contract becomes a [`FrameSink`]: hand it the current image
//! after each iteration and it writes `frame-0001.ppm`,
//! `frame-0002.ppm`, ... with an optional frame-skip stride.

use ezp_core::{Img2D, Result, Rgba};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The on-disk format of dumped frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFormat {
    /// Binary PPM (P6).
    Ppm,
    /// 24-bit BMP.
    Bmp,
}

/// Writes numbered frames into a directory.
pub struct FrameSink {
    dir: PathBuf,
    format: FrameFormat,
    /// Keep one frame out of `stride` (1 = every frame) — the
    /// "accelerated by skipping frames" control.
    stride: usize,
    presented: usize,
    written: Vec<PathBuf>,
}

impl FrameSink {
    /// Creates the sink, creating `dir` if needed.
    pub fn new(dir: impl AsRef<Path>, format: FrameFormat, stride: usize) -> Result<Self> {
        assert!(stride > 0, "stride must be at least 1");
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(FrameSink {
            dir: dir.as_ref().to_path_buf(),
            format,
            stride,
            presented: 0,
            written: Vec::new(),
        })
    }

    /// Presents one frame; writes it when the stride says so. Returns
    /// the path when the frame was written.
    pub fn present(&mut self, img: &Img2D<Rgba>) -> Result<Option<PathBuf>> {
        let keep = self.presented.is_multiple_of(self.stride);
        self.presented += 1;
        if !keep {
            return Ok(None);
        }
        let ext = match self.format {
            FrameFormat::Ppm => "ppm",
            FrameFormat::Bmp => "bmp",
        };
        let path = self.dir.join(format!("frame-{:04}.{ext}", self.written.len() + 1));
        let mut file = BufWriter::new(File::create(&path)?);
        match self.format {
            FrameFormat::Ppm => img.write_ppm(&mut file)?,
            FrameFormat::Bmp => file.write_all(&crate::bmp::to_bmp(img))?,
        }
        file.flush()?;
        self.written.push(path.clone());
        Ok(Some(path))
    }

    /// Paths of every written frame, in order.
    pub fn frames(&self) -> &[PathBuf] {
        &self.written
    }

    /// Number of frames presented (written or skipped).
    pub fn presented(&self) -> usize {
        self.presented
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ezp_anim_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn writes_numbered_frames() {
        let dir = tmp_dir("frames");
        let mut sink = FrameSink::new(&dir, FrameFormat::Ppm, 1).unwrap();
        let img: Img2D<Rgba> = Img2D::filled(4, 4, Rgba::RED);
        for _ in 0..3 {
            sink.present(&img).unwrap();
        }
        assert_eq!(sink.frames().len(), 3);
        assert!(sink.frames()[0].ends_with("frame-0001.ppm"));
        assert!(sink.frames()[2].ends_with("frame-0003.ppm"));
        for f in sink.frames() {
            assert!(std::fs::read(f).unwrap().starts_with(b"P6"));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stride_skips_frames() {
        let dir = tmp_dir("stride");
        let mut sink = FrameSink::new(&dir, FrameFormat::Bmp, 3).unwrap();
        let img: Img2D<Rgba> = Img2D::filled(2, 2, Rgba::BLUE);
        let mut written = 0;
        for _ in 0..7 {
            if sink.present(&img).unwrap().is_some() {
                written += 1;
            }
        }
        assert_eq!(written, 3); // frames 0, 3, 6
        assert_eq!(sink.presented(), 7);
        assert_eq!(sink.frames().len(), 3);
        assert!(std::fs::read(&sink.frames()[0]).unwrap().starts_with(b"BM"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        drop(FrameSink::new(std::env::temp_dir(), FrameFormat::Ppm, 0));
    }
}
