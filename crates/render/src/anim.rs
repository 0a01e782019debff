//! The animation sink: numbered frames in a directory.
//!
//! The EASYPAP window "displays an animation consisting of the series
//! of images computed at each iteration. The animation can be paused,
//! or can be slightly accelerated by skipping frames." Off-screen, the
//! same contract becomes a [`FrameSink`]: hand it the current image
//! after each iteration and it writes `frame-0001.ppm`,
//! `frame-0002.ppm`, ...

use ezp_core::{Img2D, Result, Rgba};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Writes numbered PPM frames into a directory.
pub struct FrameSink {
    dir: PathBuf,
    written: Vec<PathBuf>,
}

impl FrameSink {
    /// Creates the sink, creating `dir` if needed.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(FrameSink {
            dir: dir.as_ref().to_path_buf(),
            written: Vec::new(),
        })
    }

    /// Writes one frame as the next numbered binary PPM (P6).
    pub fn present(&mut self, img: &Img2D<Rgba>) -> Result<()> {
        let path = self.dir.join(format!("frame-{:04}.ppm", self.written.len() + 1));
        let mut file = BufWriter::new(File::create(&path)?);
        img.write_ppm(&mut file)?;
        file.flush()?;
        self.written.push(path);
        Ok(())
    }

    /// Paths of every written frame, in order.
    pub fn frames(&self) -> &[PathBuf] {
        &self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_numbered_frames() {
        let dir = std::env::temp_dir().join(format!("ezp_anim_{}_frames", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = FrameSink::new(&dir).unwrap();
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
}
