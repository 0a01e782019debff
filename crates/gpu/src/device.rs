//! The virtual SPMD device: NDRange launches over work-groups.
//!
//! A launch executes a per-work-item function `f(x, y, src) -> pixel`
//! over every pixel of the range, work-group by work-group (the host
//! actually computes the pixels, so results are exact); each
//! work-group's measured cost is then scheduled onto the device's
//! virtual compute units with a greedy earliest-CU-first policy — the
//! same discrete-event idea as `ezp-simsched`, matching how real GPUs
//! dispatch work-groups to CUs.

use crate::profile::{LaunchProfile, ProfilingEvent};
use ezp_core::error::Result;
use ezp_core::{Img2D, Rgba, TileGrid};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An OpenCL-style NDRange: global size + work-group (local) size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NdRange {
    /// Global width and height in work-items (pixels).
    pub global: (usize, usize),
    /// Work-group width and height.
    pub local: (usize, usize),
}

impl NdRange {
    /// Square range with square groups — the EASYPAP default.
    pub fn square(dim: usize, group: usize) -> Self {
        NdRange {
            global: (dim, dim),
            local: (group, group),
        }
    }

    /// The work-group decomposition as a tile grid (edge groups clipped,
    /// slightly more permissive than strict OpenCL divisibility).
    pub fn grid(&self) -> Result<TileGrid> {
        TileGrid::new(self.global.0, self.global.1, self.local.0, self.local.1)
    }
}

/// A simulated accelerator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VirtualDevice {
    /// Device name reported in traces (like `clGetDeviceInfo`).
    pub name: String,
    /// Number of virtual compute units work-groups are scheduled on.
    pub compute_units: usize,
}

impl VirtualDevice {
    /// A device with `compute_units` CUs.
    pub fn new(compute_units: usize) -> Self {
        assert!(compute_units > 0, "device needs at least one CU");
        VirtualDevice {
            name: format!("ezp-virtual-gpu ({compute_units} CUs)"),
            compute_units,
        }
    }

    /// Launches `f` over `range`, reading `src`, returning the output
    /// image and the profiling events.
    ///
    /// Work-group costs are *measured* host times (ns), so heavy areas
    /// (e.g. the Mandelbrot set interior) produce genuinely longer
    /// events, exactly what the paper wants students to observe.
    pub fn launch(
        &self,
        range: NdRange,
        src: &Img2D<Rgba>,
        f: impl Fn(usize, usize, &Img2D<Rgba>) -> Rgba,
    ) -> Result<(Img2D<Rgba>, LaunchProfile)> {
        let grid = range.grid()?;
        let mut dst = Img2D::new(range.global.0, range.global.1);
        // 1) execute every work-group on the host, measuring durations
        let mut durations = Vec::with_capacity(grid.len());
        for t in grid.iter() {
            let start = std::time::Instant::now();
            for y in t.y..t.y + t.h {
                for x in t.x..t.x + t.w {
                    dst.set(x, y, f(x, y, src));
                }
            }
            // clamp to >= 1ns so every event is visible in a Gantt chart
            durations.push((t, (start.elapsed().as_nanos() as u64).max(1)));
        }
        // 2) schedule the measured costs onto the virtual CUs
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..self.compute_units).map(|cu| Reverse((0u64, cu))).collect();
        let mut events = Vec::with_capacity(grid.len());
        let mut makespan = 0u64;
        for (t, cost) in durations {
            let Reverse((free_at, cu)) = heap.pop().expect("at least one CU");
            let end = free_at + cost;
            events.push(ProfilingEvent {
                group: (t.tx, t.ty),
                cu,
                start_ns: free_at,
                end_ns: end,
            });
            makespan = makespan.max(end);
            heap.push(Reverse((end, cu)));
        }
        Ok((
            dst,
            LaunchProfile {
                compute_units: self.compute_units,
                events,
                makespan_ns: makespan,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_computes_every_pixel() {
        let dev = VirtualDevice::new(4);
        let src: Img2D<Rgba> = Img2D::square(32);
        let (out, profile) = dev
            .launch(NdRange::square(32, 8), &src, |x, y, _| {
                Rgba((x + 100 * y) as u32)
            })
            .unwrap();
        for y in 0..32 {
            for x in 0..32 {
                assert_eq!(out.get(x, y), Rgba((x + 100 * y) as u32));
            }
        }
        assert_eq!(profile.events.len(), 16);
    }

    #[test]
    fn kernel_reads_source_image() {
        let dev = VirtualDevice::new(2);
        let mut src: Img2D<Rgba> = Img2D::square(8);
        src.set(3, 4, Rgba::RED);
        // identity copy kernel
        let (out, _) = dev
            .launch(NdRange::square(8, 4), &src, |x, y, s| s.get(x, y))
            .unwrap();
        assert_eq!(out.get(3, 4), Rgba::RED);
        assert_eq!(out.get(0, 0), Rgba::TRANSPARENT);
    }

    #[test]
    fn events_cover_all_groups_once() {
        let dev = VirtualDevice::new(3);
        let src: Img2D<Rgba> = Img2D::square(40);
        let (_, profile) = dev
            .launch(NdRange::square(40, 16), &src, |_, _, _| Rgba::WHITE)
            .unwrap();
        // 40/16 -> 3x3 groups (clipped edges)
        assert_eq!(profile.events.len(), 9);
        let mut seen = std::collections::HashSet::new();
        for e in &profile.events {
            assert!(seen.insert(e.group), "group dispatched twice");
            assert!(e.cu < 3);
            assert!(e.end_ns > e.start_ns);
        }
    }

    #[test]
    fn per_cu_events_never_overlap() {
        let dev = VirtualDevice::new(2);
        let src: Img2D<Rgba> = Img2D::square(64);
        let (_, profile) = dev
            .launch(NdRange::square(64, 8), &src, |x, y, _| {
                // make cost vary by position
                let mut acc = 0u32;
                for i in 0..(x + y) {
                    acc = acc.wrapping_add(i as u32);
                }
                Rgba(acc)
            })
            .unwrap();
        for cu in 0..2 {
            let mut evs: Vec<_> = profile.events.iter().filter(|e| e.cu == cu).collect();
            evs.sort_by_key(|e| e.start_ns);
            for w in evs.windows(2) {
                assert!(w[0].end_ns <= w[1].start_ns);
            }
        }
        assert!(profile.occupancy() > 0.0);
    }

    #[test]
    fn trace_round_trip_through_view_model() {
        let dev = VirtualDevice::new(2);
        let src: Img2D<Rgba> = Img2D::square(32);
        let (_, profile) = dev
            .launch(NdRange::square(32, 16), &src, |_, _, _| Rgba::BLACK)
            .unwrap();
        let grid = NdRange::square(32, 16).grid().unwrap();
        let trace = profile.to_trace(&grid, "invert").unwrap();
        assert_eq!(trace.tasks.len(), 4);
        assert_eq!(trace.meta.threads, 2);
    }

    #[test]
    #[should_panic(expected = "at least one CU")]
    fn zero_cu_rejected() {
        drop(VirtualDevice::new(0));
    }
}
