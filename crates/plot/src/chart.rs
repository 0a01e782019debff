//! Chart rendering: ASCII for terminals, SVG for reports.

use crate::dataset::Dataset;
use ezp_core::color::{worker_color, Rgba};
use ezp_core::svg::SvgCanvas;

/// Characters used to draw each series in ASCII charts.
const SERIES_CHARS: &[u8] = b"*o+x#%@&";

/// Renders the dataset as an ASCII chart of `width`×`height` cells,
/// followed by the legend and the constants line.
pub fn render_ascii(data: &Dataset, width: usize, height: usize) -> String {
    let Some(((x0, x1), (y0, y1))) = data.bounds() else {
        return "empty dataset\n".to_string();
    };
    let width = width.max(16);
    let height = height.max(6);
    let xspan = (x1 - x0).max(1e-12);
    let yspan = (y1 - y0).max(1e-12);
    let mut cells = vec![b' '; width * height];
    for (si, s) in data.series.iter().enumerate() {
        let ch = SERIES_CHARS[si % SERIES_CHARS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - x0) / xspan * (width - 1) as f64).round() as usize;
            let cy = ((y - y0) / yspan * (height - 1) as f64).round() as usize;
            cells[(height - 1 - cy) * width + cx] = ch;
        }
    }
    let mut out = String::new();
    for row in 0..height {
        let yval = y1 - yspan * row as f64 / (height - 1) as f64;
        out.push_str(&format!("{yval:>8.2} |"));
        out.push_str(std::str::from_utf8(&cells[row * width..(row + 1) * width]).unwrap());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>9}{:<w$.2}{:>.2}   ({} -> {})\n",
        "",
        x0,
        x1,
        data.x_col,
        data.y_label,
        w = width - 6
    ));
    out.push_str("legend:\n");
    for (si, s) in data.series.iter().enumerate() {
        out.push_str(&format!(
            "  {} {}\n",
            SERIES_CHARS[si % SERIES_CHARS.len()] as char,
            s.label
        ));
    }
    let constants = data.constants_line();
    if !constants.is_empty() {
        out.push_str(&constants);
        out.push('\n');
    }
    out
}

/// Renders the dataset as an SVG line chart with axes, legend and the
/// constants line (the Fig. 6 layout).
pub fn render_svg(data: &Dataset, width: f64, height: f64) -> String {
    let mut c = SvgCanvas::new(width, height);
    let Some(((x0, x1), (y0, y1))) = data.bounds() else {
        c.text(10.0, 20.0, 12.0, Rgba::BLACK, "empty dataset");
        return c.finish();
    };
    let margin = 50.0;
    let plot_w = width - 2.0 * margin;
    let plot_h = height - 2.0 * margin;
    let xspan = (x1 - x0).max(1e-12);
    let yspan = (y1 - y0).max(1e-12);
    let sx = |x: f64| margin + (x - x0) / xspan * plot_w;
    let sy = |y: f64| height - margin - (y - y0) / yspan * plot_h;
    // axes
    c.line(
        margin,
        height - margin,
        width - margin,
        height - margin,
        Rgba::BLACK,
        1.0,
    );
    c.line(margin, margin, margin, height - margin, Rgba::BLACK, 1.0);
    c.text(width / 2.0, height - 8.0, 11.0, Rgba::BLACK, &data.x_col);
    c.text(4.0, margin - 8.0, 11.0, Rgba::BLACK, &data.y_label);
    // tick labels at the extremes
    c.text(
        margin,
        height - margin + 14.0,
        9.0,
        Rgba::BLACK,
        &format!("{x0:.0}"),
    );
    c.text(
        width - margin,
        height - margin + 14.0,
        9.0,
        Rgba::BLACK,
        &format!("{x1:.0}"),
    );
    c.text(
        margin - 40.0,
        height - margin,
        9.0,
        Rgba::BLACK,
        &format!("{y0:.1}"),
    );
    c.text(
        margin - 40.0,
        margin + 4.0,
        9.0,
        Rgba::BLACK,
        &format!("{y1:.1}"),
    );
    // series
    for (si, s) in data.series.iter().enumerate() {
        let color = worker_color(si);
        let pts: Vec<(f64, f64)> = s.points.iter().map(|&(x, y)| (sx(x), sy(y))).collect();
        c.polyline(&pts, color, 1.5);
        for &(px, py) in &pts {
            c.circle(px, py, 2.5, color);
        }
        // legend entry
        let ly = margin + 14.0 * si as f64;
        c.rect(width - margin - 150.0, ly - 8.0, 10.0, 10.0, color);
        c.text(width - margin - 136.0, ly, 10.0, Rgba::BLACK, &s.label);
    }
    let constants = data.constants_line();
    if !constants.is_empty() {
        c.text(margin, 14.0, 9.0, Rgba::new(80, 80, 80, 255), &constants);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Series;

    fn dataset() -> Dataset {
        Dataset {
            x_col: "threads".into(),
            y_label: "speedup".into(),
            constants: vec![("kernel".into(), "mandel".into())],
            series: vec![
                Series {
                    label: "schedule=static".into(),
                    points: vec![(2.0, 1.8), (4.0, 2.5), (8.0, 3.0)],
                },
                Series {
                    label: "schedule=dynamic".into(),
                    points: vec![(2.0, 1.9), (4.0, 3.7), (8.0, 6.8)],
                },
            ],
        }
    }

    #[test]
    fn ascii_contains_axes_legend_and_constants() {
        let art = render_ascii(&dataset(), 40, 10);
        assert!(art.contains("legend:"));
        assert!(art.contains("schedule=static"));
        assert!(art.contains("schedule=dynamic"));
        assert!(art.contains("Parameters : kernel=mandel"));
        assert!(art.contains("threads -> speedup"));
        // both series characters appear
        assert!(art.contains('*') && art.contains('o'));
    }

    #[test]
    fn ascii_empty_dataset() {
        let d = Dataset {
            x_col: "x".into(),
            y_label: "y".into(),
            constants: vec![],
            series: vec![],
        };
        assert_eq!(render_ascii(&d, 40, 10), "empty dataset\n");
    }

    #[test]
    fn svg_has_lines_points_and_legend() {
        let svg = render_svg(&dataset(), 500.0, 300.0);
        assert!(svg.contains("<svg"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        assert!(svg.contains("schedule=dynamic"));
        assert!(svg.contains("kernel=mandel"));
    }

    #[test]
    fn svg_empty_dataset_degrades_gracefully() {
        let d = Dataset {
            x_col: "x".into(),
            y_label: "y".into(),
            constants: vec![],
            series: vec![],
        };
        assert!(render_svg(&d, 300.0, 200.0).contains("empty dataset"));
    }

    #[test]
    fn single_point_series_renders() {
        let d = Dataset {
            x_col: "threads".into(),
            y_label: "time".into(),
            constants: vec![],
            series: vec![Series {
                label: "only".into(),
                points: vec![(1.0, 5.0)],
            }],
        };
        // degenerate spans must not divide by zero
        let art = render_ascii(&d, 20, 8);
        assert!(art.contains('*'));
        let svg = render_svg(&d, 200.0, 150.0);
        assert!(svg.contains("<circle"));
    }
}
