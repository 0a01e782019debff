//! Histogram / bar-chart rendering — "students can then exploit their
//! data and produce the desired graph or histogram" (§II-C).
//!
//! A histogram view groups the rows by a categorical column (e.g.
//! `schedule`), averages the y values per group, and draws one bar per
//! group — the right chart when x is not numeric.

use ezp_core::color::{worker_color, Rgba};
use ezp_core::csv::CsvTable;
use ezp_core::error::{Error, Result};
use ezp_core::svg::SvgCanvas;

/// One bar: label + mean value (+ run count for the label).
#[derive(Clone, Debug, PartialEq)]
pub struct Bar {
    /// Category label (e.g. `dynamic,2`).
    pub label: String,
    /// Mean of the y values in the category.
    pub value: f64,
    /// Number of rows averaged.
    pub count: usize,
}

/// Builds bars from `table`: group by `cat_col`, average `y_col`.
pub fn bars_from_table(table: &CsvTable, cat_col: &str, y_col: &str) -> Result<Vec<Bar>> {
    let ci = table
        .col(cat_col)
        .ok_or_else(|| Error::Config(format!("no column `{cat_col}`")))?;
    let yi = table
        .col(y_col)
        .ok_or_else(|| Error::Config(format!("no column `{y_col}`")))?;
    let mut acc: std::collections::BTreeMap<String, (f64, usize)> = std::collections::BTreeMap::new();
    for row in &table.rows {
        let y: f64 = row[yi]
            .parse()
            .map_err(|_| Error::Config(format!("non-numeric y `{}`", row[yi])))?;
        let slot = acc.entry(row[ci].clone()).or_insert((0.0, 0));
        slot.0 += y;
        slot.1 += 1;
    }
    if acc.is_empty() {
        return Err(Error::Config("no rows to histogram".into()));
    }
    Ok(acc
        .into_iter()
        .map(|(label, (sum, count))| Bar {
            label,
            value: sum / count as f64,
            count,
        })
        .collect())
}

/// Renders bars as ASCII (horizontal bars scaled to `width` cells).
pub fn render_bars_ascii(bars: &[Bar], y_label: &str, width: usize) -> String {
    if bars.is_empty() {
        return "no data\n".to_string();
    }
    let max = bars.iter().map(|b| b.value).fold(f64::MIN, f64::max).max(1e-12);
    let label_w = bars.iter().map(|b| b.label.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    for bar in bars {
        let filled = ((bar.value / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "{:>label_w$} |{}{}| {:.1} ({} runs)\n",
            bar.label,
            "#".repeat(filled),
            " ".repeat(width - filled),
            bar.value,
            bar.count,
        ));
    }
    out.push_str(&format!("{:>label_w$}  ({y_label})\n", ""));
    out
}

/// Renders bars as an SVG column chart.
pub fn render_bars_svg(bars: &[Bar], y_label: &str, width: f64, height: f64) -> String {
    let mut c = SvgCanvas::new(width, height);
    if bars.is_empty() {
        c.text(10.0, 20.0, 12.0, Rgba::BLACK, "no data");
        return c.finish();
    }
    let margin = 40.0;
    let plot_w = width - 2.0 * margin;
    let plot_h = height - 2.0 * margin;
    let max = bars.iter().map(|b| b.value).fold(f64::MIN, f64::max).max(1e-12);
    let bar_w = plot_w / bars.len() as f64 * 0.7;
    let gap = plot_w / bars.len() as f64;
    c.line(margin, height - margin, width - margin, height - margin, Rgba::BLACK, 1.0);
    c.text(4.0, margin - 8.0, 11.0, Rgba::BLACK, y_label);
    for (i, bar) in bars.iter().enumerate() {
        let h = bar.value / max * plot_h;
        let x = margin + i as f64 * gap + (gap - bar_w) / 2.0;
        c.rect(x, height - margin - h, bar_w, h, worker_color(i));
        c.text(x, height - margin + 14.0, 9.0, Rgba::BLACK, &bar.label);
        c.text(x, height - margin - h - 4.0, 9.0, Rgba::BLACK, &format!("{:.1}", bar.value));
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CsvTable {
        let mut t = CsvTable::new(vec!["schedule", "time_us"]);
        for (s, v) in [
            ("static", "100"),
            ("static", "120"),
            ("dynamic", "60"),
            ("dynamic", "40"),
            ("guided", "70"),
        ] {
            t.push_row(vec![s, v]).unwrap();
        }
        t
    }

    #[test]
    fn bars_group_and_average() {
        let bars = bars_from_table(&table(), "schedule", "time_us").unwrap();
        assert_eq!(bars.len(), 3);
        let dynamic = bars.iter().find(|b| b.label == "dynamic").unwrap();
        assert_eq!(dynamic.value, 50.0);
        assert_eq!(dynamic.count, 2);
        let stat = bars.iter().find(|b| b.label == "static").unwrap();
        assert_eq!(stat.value, 110.0);
    }

    #[test]
    fn missing_columns_and_empty_tables_error() {
        assert!(bars_from_table(&table(), "nope", "time_us").is_err());
        assert!(bars_from_table(&table(), "schedule", "schedule").is_err());
        let empty = CsvTable::new(vec!["schedule", "time_us"]);
        assert!(bars_from_table(&empty, "schedule", "time_us").is_err());
    }

    #[test]
    fn ascii_bars_scale_to_max() {
        let bars = bars_from_table(&table(), "schedule", "time_us").unwrap();
        let art = render_bars_ascii(&bars, "time_us", 20);
        let static_line = art.lines().find(|l| l.contains("static")).unwrap();
        assert!(static_line.contains(&"#".repeat(20)), "max bar must be full");
        assert!(art.contains("(2 runs)"));
        assert!(art.contains("(time_us)"));
        assert_eq!(render_bars_ascii(&[], "y", 10), "no data\n");
    }

    #[test]
    fn svg_bars_have_one_rect_each() {
        let bars = bars_from_table(&table(), "schedule", "time_us").unwrap();
        let svg = render_bars_svg(&bars, "time_us", 400.0, 300.0);
        // background + 3 bars
        assert_eq!(svg.matches("<rect").count(), 4);
        assert!(svg.contains("dynamic"));
    }
}
