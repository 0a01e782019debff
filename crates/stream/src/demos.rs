//! Streaming demo kernels and their registry.
//!
//! Three workloads, each exercising a different skeleton property:
//!
//! * **`mandel_zoom`** — Mandelbrot frame-zoom: every frame renders the
//!   paper's viewport zoomed `f` steps toward a deep-zoom target. Frame
//!   costs vary wildly with depth (the imbalance the farm exists for);
//!   the render stage is a farm, the encode stage a serial tail.
//! * **`frame_diff`** — frame differencing: a farm generates synthetic
//!   frames, a *stateful* serial stage subtracts the previous frame.
//!   The serial stage is only correct because width-1 stages are
//!   frame-ordered by graph edges — this demo pins that guarantee.
//! * **`wordcount`** — text analytics: a farm turns deterministic
//!   pseudo-text into sorted word counts, a serial stage serializes
//!   them. The payload is non-image data, proving the skeletons are
//!   not wedded to pixels.
//!
//! Every demo offers the same two entry points: `run_seq` (the
//! one-frame-at-a-time golden baseline) and `run` (the parallel engine
//! with an [`EmitMode`] and a farm width). The streaming conformance
//! matrix in `tests/conformance.rs` holds them to byte equality.

use crate::engine::{run_pipeline, StreamStats};
use crate::pipeline::Pipeline;
use ezp_core::error::Result;
use ezp_core::kernel::Probe;
use ezp_core::{color, ChanTuning, EmitMode};
use ezp_kernels::mandel::{escape_row, Viewport, DEFAULT_MAX_ITER};
use ezp_sched::WorkerPool;
use ezp_testkit::Rng;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A streamed frame output: the frame id and its serialized bytes.
pub type FrameOut = (usize, Vec<u8>);

/// A streaming demo kernel: a named pipeline over synthetic frames.
pub trait StreamKernel: Send + Sync {
    /// Registry name (`--kernel <name> --stream=N`).
    fn name(&self) -> &'static str;

    /// One-line description for `--list`.
    fn describe(&self) -> &'static str;

    /// The sequential one-frame-at-a-time baseline, in frame order.
    fn run_seq(&self, dim: usize, frames: usize) -> Vec<FrameOut>;

    /// The parallel run: `farm_width` replicas on farm stages, frames
    /// emitted in `mode` order. Returns the outputs in emission order
    /// plus the engine's stats.
    fn run(
        &self,
        dim: usize,
        frames: usize,
        mode: EmitMode,
        farm_width: usize,
        pool: &mut WorkerPool,
        probe: &dyn Probe,
    ) -> Result<(Vec<FrameOut>, StreamStats)>;

    // Compatibility shim: the frozen `benchmark/` is its only caller.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn run_tuned(
        &self,
        dim: usize,
        frames: usize,
        mode: EmitMode,
        farm_width: usize,
        _tuning: ChanTuning,
        pool: &mut WorkerPool,
        probe: &dyn Probe,
    ) -> Result<(Vec<FrameOut>, StreamStats)> {
        self.run(dim, frames, mode, farm_width, pool, probe)
    }
}

/// Every streaming kernel, one instance each — the registry the CLI and
/// the conformance matrix share. Like the classic kernel registry, a
/// kernel missing from here cannot be run *or* tested, so the
/// exhaustiveness guard in `tests/conformance.rs` keys on this list.
pub fn stream_registry() -> Vec<Box<dyn StreamKernel>> {
    vec![
        Box::new(MandelZoom),
        Box::new(FrameDiff),
        Box::new(WordCount),
    ]
}

/// Looks up a streaming kernel by name.
pub fn stream_kernel(name: &str) -> Option<Box<dyn StreamKernel>> {
    stream_registry().into_iter().find(|k| k.name() == name)
}

/// Shared driver: build the demo's pipeline fresh (resetting any serial
/// stage state), run it over the synthetic source, collect the sink.
fn drive(
    pipe: &Pipeline<Vec<u8>>,
    frames: usize,
    mode: EmitMode,
    pool: &mut WorkerPool,
    probe: &dyn Probe,
) -> Result<(Vec<FrameOut>, StreamStats)> {
    let mut out = Vec::with_capacity(frames);
    let stats = run_pipeline(
        pipe,
        frames,
        mode,
        pool,
        probe,
        |_| Vec::new(),
        |f, bytes| out.push((f, bytes)),
    )?;
    Ok((out, stats))
}

fn collect_seq(pipe: &Pipeline<Vec<u8>>, frames: usize) -> Vec<FrameOut> {
    let mut out = Vec::with_capacity(frames);
    pipe.run_seq(frames, |_| Vec::new(), |f, bytes| out.push((f, bytes)));
    out
}

// ---------------------------------------------------------------- mandel

/// Mandelbrot frame-zoom (see module docs).
struct MandelZoom;

/// Iteration budget for streamed zoom frames — smaller than the classic
/// kernel's [`DEFAULT_MAX_ITER`] so conformance-sized streams stay fast.
const ZOOM_MAX_ITER: u32 = DEFAULT_MAX_ITER / 4;

fn mandel_zoom_pipeline(dim: usize, width: usize) -> Pipeline<Vec<u8>> {
    let palette = color::mandel_palette(ZOOM_MAX_ITER);
    Pipeline::new()
        .farm_stage("render", width, move |frame, buf: &mut Vec<u8>| {
            let mut view = Viewport::default();
            for _ in 0..frame {
                view.zoom();
            }
            buf.clear();
            buf.reserve(dim * dim * 4);
            let mut counts = vec![0u32; dim];
            for y in 0..dim {
                escape_row(&view, y, 0, dim, ZOOM_MAX_ITER, &mut counts);
                for it in &counts {
                    buf.extend_from_slice(&it.to_le_bytes());
                }
            }
        })
        .stage("encode", move |_, buf: &mut Vec<u8>| {
            // iteration counts → RGBA bytes (the "encoder" tail)
            let mut px = Vec::with_capacity(buf.len());
            for it in buf.chunks_exact(4) {
                let it = u32::from_le_bytes([it[0], it[1], it[2], it[3]]);
                px.extend_from_slice(&palette[it as usize].0.to_le_bytes());
            }
            *buf = px;
        })
}

impl StreamKernel for MandelZoom {
    fn name(&self) -> &'static str {
        "mandel_zoom"
    }

    fn describe(&self) -> &'static str {
        "Mandelbrot deep-zoom frames (farm render, serial encode)"
    }

    fn run_seq(&self, dim: usize, frames: usize) -> Vec<FrameOut> {
        collect_seq(&mandel_zoom_pipeline(dim, 1), frames)
    }

    fn run(
        &self,
        dim: usize,
        frames: usize,
        mode: EmitMode,
        farm_width: usize,
        pool: &mut WorkerPool,
        probe: &dyn Probe,
    ) -> Result<(Vec<FrameOut>, StreamStats)> {
        drive(
            &mandel_zoom_pipeline(dim, farm_width),
            frames,
            mode,
            pool,
            probe,
        )
    }
}

// ------------------------------------------------------------ frame_diff

/// Frame differencing over synthetic frames (see module docs).
struct FrameDiff;

/// The synthetic grayscale source frame: a drifting interference
/// pattern, a pure function of `(x, y, frame)`.
fn diff_source_pixel(x: usize, y: usize, frame: usize) -> u8 {
    let v = x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ frame.wrapping_mul(73);
    (v % 251) as u8
}

fn frame_diff_pipeline(dim: usize, width: usize) -> Pipeline<Vec<u8>> {
    // the serial stage's cross-frame state: the previous frame, owned
    // by the closure; a fresh pipeline starts from a black frame
    let prev: Mutex<Vec<u8>> = Mutex::new(vec![0; dim * dim]);
    Pipeline::new()
        .farm_stage("generate", width, move |frame, buf: &mut Vec<u8>| {
            buf.clear();
            buf.reserve(dim * dim);
            for y in 0..dim {
                for x in 0..dim {
                    buf.push(diff_source_pixel(x, y, frame));
                }
            }
        })
        .stage("diff", move |_, buf: &mut Vec<u8>| {
            let mut p = prev.lock().unwrap();
            for (b, pv) in buf.iter_mut().zip(p.iter_mut()) {
                let cur = *b;
                *b = cur.abs_diff(*pv);
                *pv = cur;
            }
        })
}

impl StreamKernel for FrameDiff {
    fn name(&self) -> &'static str {
        "frame_diff"
    }

    fn describe(&self) -> &'static str {
        "frame differencing (farm generate, stateful serial diff)"
    }

    fn run_seq(&self, dim: usize, frames: usize) -> Vec<FrameOut> {
        collect_seq(&frame_diff_pipeline(dim, 1), frames)
    }

    fn run(
        &self,
        dim: usize,
        frames: usize,
        mode: EmitMode,
        farm_width: usize,
        pool: &mut WorkerPool,
        probe: &dyn Probe,
    ) -> Result<(Vec<FrameOut>, StreamStats)> {
        drive(
            &frame_diff_pipeline(dim, farm_width),
            frames,
            mode,
            pool,
            probe,
        )
    }
}

// ------------------------------------------------------------- wordcount

/// Streaming word count over deterministic pseudo-text (see module
/// docs). `dim` scales the words per frame (`dim * 8`).
struct WordCount;

/// Deterministic pseudo-text for a frame: words drawn from a small
/// vocabulary by a frame-seeded RNG, so `run_seq` and every parallel
/// run see identical input.
fn frame_text(frame: usize, words: usize) -> String {
    const VOCAB: [&str; 12] = [
        "easypap", "tile", "frame", "steal", "worker", "stage", "farm", "pipe", "zoom", "sched",
        "deque", "probe",
    ];
    let mut rng = Rng::seed(0xC0FFEE ^ frame as u64);
    let mut text = String::new();
    for i in 0..words {
        if i > 0 {
            text.push(' ');
        }
        text.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
    }
    text
}

fn wordcount_pipeline(dim: usize, width: usize) -> Pipeline<Vec<u8>> {
    let words = dim * 8;
    Pipeline::new()
        .farm_stage("count", width, move |frame, buf: &mut Vec<u8>| {
            let text = frame_text(frame, words);
            let mut counts: BTreeMap<&str, u32> = BTreeMap::new();
            for w in text.split_whitespace() {
                *counts.entry(w).or_insert(0) += 1;
            }
            buf.clear();
            for (w, c) in counts {
                buf.extend_from_slice(w.as_bytes());
                buf.push(b':');
                buf.extend_from_slice(c.to_string().as_bytes());
                buf.push(b'\n');
            }
        })
        .stage("serialize", move |frame, buf: &mut Vec<u8>| {
            // serial tail: prefix each report with its frame header
            let mut out = format!("frame {frame}\n").into_bytes();
            out.append(buf);
            *buf = out;
        })
}

impl StreamKernel for WordCount {
    fn name(&self) -> &'static str {
        "wordcount"
    }

    fn describe(&self) -> &'static str {
        "streaming word count (farm count, serial serialize)"
    }

    fn run_seq(&self, dim: usize, frames: usize) -> Vec<FrameOut> {
        collect_seq(&wordcount_pipeline(dim, 1), frames)
    }

    fn run(
        &self,
        dim: usize,
        frames: usize,
        mode: EmitMode,
        farm_width: usize,
        pool: &mut WorkerPool,
        probe: &dyn Probe,
    ) -> Result<(Vec<FrameOut>, StreamStats)> {
        drive(
            &wordcount_pipeline(dim, farm_width),
            frames,
            mode,
            pool,
            probe,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::kernel::NullProbe;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let reg = stream_registry();
        assert!(!reg.is_empty());
        let mut names: Vec<_> = reg.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate streaming kernel names");
        assert!(stream_kernel("mandel_zoom").is_some());
        assert!(stream_kernel("nope").is_none());
    }

    #[test]
    fn every_demo_matches_its_baseline_ordered() {
        let mut pool = WorkerPool::new(4);
        for k in stream_registry() {
            let expect = k.run_seq(16, 8);
            let (got, stats) = k
                .run(16, 8, EmitMode::Ordered, 4, &mut pool, &NullProbe)
                .unwrap();
            assert_eq!(got, expect, "{} ordered diverged from seq", k.name());
            assert_eq!(stats.frames, 8);
        }
    }

    #[test]
    fn frame_text_is_deterministic() {
        assert_eq!(frame_text(3, 40), frame_text(3, 40));
        assert_ne!(frame_text(3, 40), frame_text(4, 40));
    }
}
