//! RGBA pixel format and color utilities.
//!
//! EASYPAP images are arrays of 32-bit RGBA pixels. Kernels such as
//! `mandel` map iteration counts to a smooth palette, the monitoring
//! windows assign one saturated hue per worker thread, and the heat-map
//! mode maps task durations to brightness. All of those palettes live
//! here so that the rest of the workspace shares one color vocabulary.

/// A 32-bit RGBA color, stored as `0xRRGGBBAA` like EASYPAP's `cur_img`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgba(pub u32);

impl std::fmt::Debug for Rgba {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rgba(#{:08x})", self.0)
    }
}

impl Rgba {
    /// Fully transparent black — the "empty" pixel used by `life` and
    /// `ccomp` to denote dead/transparent cells.
    pub const TRANSPARENT: Rgba = Rgba(0);
    /// Opaque black.
    pub const BLACK: Rgba = Rgba(0x0000_00ff);
    /// Opaque white.
    pub const WHITE: Rgba = Rgba(0xffff_ffff);
    /// Opaque red.
    pub const RED: Rgba = Rgba(0xff00_00ff);
    /// Opaque green.
    pub const GREEN: Rgba = Rgba(0x00ff_00ff);
    /// Opaque blue.
    pub const BLUE: Rgba = Rgba(0x0000_ffff);
    /// Opaque yellow, EASYPAP's default foreground for several kernels.
    pub const YELLOW: Rgba = Rgba(0xffff_00ff);

    /// Builds a color from its channels.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8, a: u8) -> Self {
        Rgba(((r as u32) << 24) | ((g as u32) << 16) | ((b as u32) << 8) | a as u32)
    }

    /// Red channel.
    #[inline]
    pub const fn r(self) -> u8 {
        (self.0 >> 24) as u8
    }

    /// Green channel.
    #[inline]
    pub const fn g(self) -> u8 {
        (self.0 >> 16) as u8
    }

    /// Blue channel.
    #[inline]
    pub const fn b(self) -> u8 {
        (self.0 >> 8) as u8
    }

    /// Alpha channel.
    #[inline]
    pub const fn a(self) -> u8 {
        self.0 as u8
    }

    /// True when the alpha channel is zero. `ccomp` treats such pixels as
    /// separators between connected components.
    #[inline]
    pub const fn is_transparent(self) -> bool {
        self.a() == 0
    }

    /// Component-wise linear interpolation, `t` in `[0, 1]`.
    pub fn lerp(self, other: Rgba, t: f32) -> Rgba {
        let t = t.clamp(0.0, 1.0);
        let mix = |x: u8, y: u8| -> u8 { (x as f32 + (y as f32 - x as f32) * t).round() as u8 };
        Rgba::new(
            mix(self.r(), other.r()),
            mix(self.g(), other.g()),
            mix(self.b(), other.b()),
            mix(self.a(), other.a()),
        )
    }

    /// Scales the RGB channels by `brightness` in `[0, 1]`, keeping alpha.
    /// Used by the heat-map mode where "the brighter an area is, the more
    /// time-consuming it is" (paper Fig. 9).
    pub fn scaled(self, brightness: f32) -> Rgba {
        let k = brightness.clamp(0.0, 1.0);
        Rgba::new(
            (self.r() as f32 * k).round() as u8,
            (self.g() as f32 * k).round() as u8,
            (self.b() as f32 * k).round() as u8,
            self.a(),
        )
    }
}

/// Converts HSV (`h` in degrees `[0, 360)`, `s`/`v` in `[0, 1]`) to RGBA.
pub fn hsv_to_rgba(h: f32, s: f32, v: f32) -> Rgba {
    let h = h.rem_euclid(360.0);
    let c = v * s;
    let hp = h / 60.0;
    let x = c * (1.0 - (hp % 2.0 - 1.0).abs());
    let (r1, g1, b1) = match hp as u32 {
        0 => (c, x, 0.0),
        1 => (x, c, 0.0),
        2 => (0.0, c, x),
        3 => (0.0, x, c),
        4 => (x, 0.0, c),
        _ => (c, 0.0, x),
    };
    let m = v - c;
    Rgba::new(
        ((r1 + m) * 255.0).round() as u8,
        ((g1 + m) * 255.0).round() as u8,
        ((b1 + m) * 255.0).round() as u8,
        255,
    )
}

/// The per-worker palette used by the Tiling and Activity Monitor windows:
/// worker `i` always gets the same saturated hue, and hues are spread by a
/// golden-angle walk so that nearby ranks get clearly distinct colors.
pub fn worker_color(worker: usize) -> Rgba {
    const GOLDEN_ANGLE: f32 = 137.508;
    hsv_to_rgba(worker as f32 * GOLDEN_ANGLE, 0.85, 0.95)
}

/// Maps a normalized task duration (`0.0` = fastest, `1.0` = slowest) to a
/// heat-map color: dark blue through red to bright yellow-white.
pub fn heat_color(t: f32) -> Rgba {
    let t = t.clamp(0.0, 1.0);
    // Piecewise gradient: navy -> red -> yellow -> white.
    if t < 0.4 {
        Rgba::new(0, 0, 64, 255).lerp(Rgba::new(200, 30, 20, 255), t / 0.4)
    } else if t < 0.8 {
        Rgba::new(200, 30, 20, 255).lerp(Rgba::new(255, 230, 40, 255), (t - 0.4) / 0.4)
    } else {
        Rgba::new(255, 230, 40, 255).lerp(Rgba::WHITE, (t - 0.8) / 0.2)
    }
}

/// Classic smooth palette for the Mandelbrot kernel: maps an iteration
/// count to a color; points inside the set (`iter == max_iter`) are black,
/// like the large black areas discussed around Fig. 3 of the paper.
pub fn mandel_color(iter: u32, max_iter: u32) -> Rgba {
    if iter >= max_iter {
        return Rgba::BLACK;
    }
    let t = iter as f32 / max_iter as f32;
    hsv_to_rgba(
        240.0 + 300.0 * t,
        0.9,
        0.2 + 0.8 * (t * std::f32::consts::PI).sin(),
    )
}

/// [`mandel_color`] tabulated over every count a run can produce:
/// entry `n` is `mandel_color(n, max_iter)` for `n` in `0..=max_iter`.
/// The colour is a pure function of the count, so kernels index this
/// table instead of paying a `sin` and an HSV conversion per pixel.
pub fn mandel_palette(max_iter: u32) -> Vec<Rgba> {
    (0..=max_iter).map(|n| mandel_color(n, max_iter)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_round_trip() {
        let c = Rgba::new(1, 2, 3, 4);
        assert_eq!((c.r(), c.g(), c.b(), c.a()), (1, 2, 3, 4));
        assert_eq!(c.0, 0x0102_0304);
    }

    #[test]
    fn constants_have_expected_channels() {
        assert_eq!(Rgba::RED.r(), 255);
        assert_eq!(Rgba::RED.g(), 0);
        assert_eq!(Rgba::GREEN.g(), 255);
        assert_eq!(Rgba::BLUE.b(), 255);
        assert_eq!(Rgba::BLACK.a(), 255);
        assert!(Rgba::TRANSPARENT.is_transparent());
        assert!(!Rgba::WHITE.is_transparent());
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Rgba::new(0, 0, 0, 0);
        let b = Rgba::new(200, 100, 50, 255);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let m = a.lerp(b, 0.5);
        assert_eq!(m.r(), 100);
        assert_eq!(m.g(), 50);
        assert_eq!(m.b(), 25);
    }

    #[test]
    fn lerp_clamps_t() {
        let a = Rgba::BLACK;
        let b = Rgba::WHITE;
        assert_eq!(a.lerp(b, -3.0), a);
        assert_eq!(a.lerp(b, 7.0), b);
    }

    #[test]
    fn scaled_darkens_rgb_only() {
        let c = Rgba::new(200, 100, 50, 123).scaled(0.5);
        assert_eq!((c.r(), c.g(), c.b(), c.a()), (100, 50, 25, 123));
        assert_eq!(Rgba::WHITE.scaled(0.0).r(), 0);
    }

    #[test]
    fn hsv_primary_hues() {
        assert_eq!(hsv_to_rgba(0.0, 1.0, 1.0), Rgba::RED);
        assert_eq!(hsv_to_rgba(120.0, 1.0, 1.0), Rgba::GREEN);
        assert_eq!(hsv_to_rgba(240.0, 1.0, 1.0), Rgba::BLUE);
        assert_eq!(hsv_to_rgba(360.0, 1.0, 1.0), Rgba::RED); // wraps
        assert_eq!(hsv_to_rgba(0.0, 0.0, 1.0), Rgba::WHITE); // no saturation
    }

    #[test]
    fn worker_colors_are_distinct_and_stable() {
        let c0 = worker_color(0);
        let c1 = worker_color(1);
        assert_ne!(c0, c1);
        assert_eq!(c0, worker_color(0));
        // first 16 workers must all differ pairwise
        let palette: Vec<Rgba> = (0..16).map(worker_color).collect();
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert_ne!(palette[i], palette[j], "workers {i} and {j} share a color");
            }
        }
    }

    #[test]
    fn heat_color_monotonic_brightness_at_keypoints() {
        let lum = |c: Rgba| c.r() as u32 + c.g() as u32 + c.b() as u32;
        assert!(lum(heat_color(0.0)) < lum(heat_color(0.5)));
        assert!(lum(heat_color(0.5)) < lum(heat_color(1.0)));
        assert_eq!(heat_color(1.0), Rgba::WHITE);
    }

    #[test]
    fn mandel_palette_is_mandel_color_entry_by_entry() {
        // 0 and 1: the one- and two-entry tables of degenerate caps
        for cap in [0u32, 1, 2, 255, 256, 1000] {
            let table = mandel_palette(cap);
            assert_eq!(table.len(), cap as usize + 1);
            for n in 0..=cap {
                assert_eq!(
                    table[n as usize],
                    mandel_color(n, cap),
                    "entry {n} of cap {cap}"
                );
            }
            assert_eq!(table[cap as usize], Rgba::BLACK);
        }
    }

    #[test]
    fn mandel_color_black_inside_set() {
        assert_eq!(mandel_color(100, 100), Rgba::BLACK);
        assert_eq!(mandel_color(200, 100), Rgba::BLACK);
        assert_ne!(mandel_color(5, 100), Rgba::BLACK);
    }
}
