//! A minimal SVG canvas.
//!
//! EASYPAP's windows (Tiling, Activity Monitor, EASYVIEW Gantt charts,
//! easyplot graphs) are replaced in this reproduction by SVG files; this
//! tiny builder is the shared rendering backend. It deliberately covers
//! only the handful of primitives the viewers need.

use crate::color::Rgba;
use std::fmt::Write as _;

/// An SVG document under construction.
#[derive(Clone, Debug)]
pub struct SvgCanvas {
    width: f64,
    height: f64,
    body: String,
}

/// Formats a color as an SVG `#rrggbb` value.
pub fn svg_color(c: Rgba) -> String {
    format!("#{:02x}{:02x}{:02x}", c.r(), c.g(), c.b())
}

fn esc(text: &str) -> String {
    text.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

impl SvgCanvas {
    /// A canvas of the given pixel size with a white background.
    pub fn new(width: f64, height: f64) -> Self {
        let mut canvas = SvgCanvas {
            width,
            height,
            body: String::new(),
        };
        canvas.rect(0.0, 0.0, width, height, Rgba::WHITE);
        canvas
    }

    /// Canvas width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Canvas height.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Filled rectangle.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: Rgba) {
        let _ = writeln!(
            self.body,
            r#"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{}"/>"#,
            svg_color(fill)
        );
    }

    /// Straight line.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: Rgba, width: f64) {
        let _ = writeln!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{}" stroke-width="{width:.2}"/>"#,
            svg_color(stroke)
        );
    }

    /// Polyline through `points`.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: Rgba, width: f64) {
        if points.is_empty() {
            return;
        }
        let pts: Vec<String> = points.iter().map(|(x, y)| format!("{x:.2},{y:.2}")).collect();
        let _ = writeln!(
            self.body,
            r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="{width:.2}"/>"#,
            pts.join(" "),
            svg_color(stroke)
        );
    }

    /// Filled circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: Rgba) {
        let _ = writeln!(
            self.body,
            r#"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r:.2}" fill="{}"/>"#,
            svg_color(fill)
        );
    }

    /// Text anchored at `(x, y)` (baseline), `size` px.
    pub fn text(&mut self, x: f64, y: f64, size: f64, fill: Rgba, text: &str) {
        let _ = writeln!(
            self.body,
            r#"<text x="{x:.2}" y="{y:.2}" font-size="{size:.1}" font-family="sans-serif" fill="{}">{}</text>"#,
            svg_color(fill),
            esc(text)
        );
    }

    /// Finalizes the document.
    pub fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }

    /// Writes the document to a file.
    pub fn save(self, path: impl AsRef<std::path::Path>) -> crate::error::Result<()> {
        std::fs::write(path, self.finish())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_structure() {
        let mut c = SvgCanvas::new(100.0, 50.0);
        c.rect(1.0, 2.0, 3.0, 4.0, Rgba::RED);
        c.line(0.0, 0.0, 10.0, 10.0, Rgba::BLACK, 1.0);
        c.text(5.0, 5.0, 10.0, Rgba::BLUE, "hello");
        let svg = c.finish();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("#ff0000"));
        assert!(svg.contains("hello"));
        assert!(svg.contains("width=\"100\""));
    }

    #[test]
    fn text_is_escaped() {
        let mut c = SvgCanvas::new(10.0, 10.0);
        c.text(0.0, 0.0, 8.0, Rgba::BLACK, "a<b&c>d");
        let svg = c.finish();
        assert!(svg.contains("a&lt;b&amp;c&gt;d"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn polyline_renders_points() {
        let mut c = SvgCanvas::new(10.0, 10.0);
        c.polyline(&[(0.0, 0.0), (5.0, 5.0)], Rgba::GREEN, 2.0);
        c.polyline(&[], Rgba::GREEN, 2.0); // empty: no element
        let svg = c.finish();
        assert!(svg.contains("polyline"));
        assert!(svg.contains("0.00,0.00 5.00,5.00"));
        assert_eq!(svg.matches("polyline").count(), 1);
    }

    #[test]
    fn color_formatting() {
        assert_eq!(svg_color(Rgba::new(0x12, 0x34, 0x56, 0xff)), "#123456");
    }
}
