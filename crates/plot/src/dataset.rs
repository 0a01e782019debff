//! Turning performance CSVs into plottable series with auto legends.

use ezp_core::csv::CsvTable;
use ezp_core::error::{Error, Result};
use std::collections::BTreeMap;

/// One plotline: a legend label and `(x, y)` points sorted by x.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Auto-generated legend label, e.g. `schedule=dynamic,2`.
    pub label: String,
    /// Points, x ascending. Repeated runs are already averaged.
    pub points: Vec<(f64, f64)>,
}

/// A plottable dataset extracted from a CSV table.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// The x column name (e.g. `threads`).
    pub x_col: String,
    /// The y axis label (e.g. `time_us` or `speedup`).
    pub y_label: String,
    /// Constant parameters factored out of the legend:
    /// "parameters with unique value are listed above the graph".
    pub constants: Vec<(String, String)>,
    /// One series per distinct combination of the varying parameters.
    pub series: Vec<Series>,
}

impl Dataset {
    /// Builds a dataset from `table`, plotting `y_col` against `x_col`.
    ///
    /// Every *other* column that still varies after filtering becomes a
    /// legend dimension; columns with a single distinct value go to
    /// [`Dataset::constants`]. The `ignore` list names columns that are
    /// neither (e.g. `run`, whose values are averaged away).
    pub fn from_table(table: &CsvTable, x_col: &str, y_col: &str, ignore: &[&str]) -> Result<Self> {
        let xi = table
            .col(x_col)
            .ok_or_else(|| Error::Config(format!("no column `{x_col}` in CSV")))?;
        let yi = table
            .col(y_col)
            .ok_or_else(|| Error::Config(format!("no column `{y_col}` in CSV")))?;
        if table.is_empty() {
            return Err(Error::Config("empty dataset".into()));
        }
        // classify the remaining columns: constant vs legend
        let mut constants = Vec::new();
        let mut legend_cols = Vec::new();
        for (ci, name) in table.header.iter().enumerate() {
            if ci == xi || ci == yi || ignore.contains(&name.as_str()) {
                continue;
            }
            let mut values: Vec<&str> = table.rows.iter().map(|r| r[ci].as_str()).collect();
            values.sort_unstable();
            values.dedup();
            match values.len() {
                1 => constants.push((name.clone(), values[0].to_string())),
                _ => legend_cols.push(ci),
            }
        }
        // group rows by legend key, then by x; average y over the group
        let mut groups: BTreeMap<String, BTreeMap<u64, (f64, usize)>> = BTreeMap::new();
        for row in &table.rows {
            let label = if legend_cols.is_empty() {
                y_col.to_string()
            } else {
                legend_cols
                    .iter()
                    .map(|&ci| format!("{}={}", table.header[ci], row[ci]))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let x: f64 = row[xi]
                .parse()
                .map_err(|_| Error::Config(format!("non-numeric x value `{}`", row[xi])))?;
            let y: f64 = row[yi]
                .parse()
                .map_err(|_| Error::Config(format!("non-numeric y value `{}`", row[yi])))?;
            let slot = groups
                .entry(label)
                .or_default()
                .entry(x.to_bits())
                .or_insert((0.0, 0));
            slot.0 += y;
            slot.1 += 1;
        }
        let series = groups
            .into_iter()
            .map(|(label, pts)| {
                let mut points: Vec<(f64, f64)> = pts
                    .into_iter()
                    .map(|(xb, (sum, n))| (f64::from_bits(xb), sum / n as f64))
                    .collect();
                points.sort_by(|a, b| a.0.total_cmp(&b.0));
                Series { label, points }
            })
            .collect();
        Ok(Dataset {
            x_col: x_col.to_string(),
            y_label: y_col.to_string(),
            constants,
            series,
        })
    }

    /// Transforms times into speedups: `y := ref_time / y` (like
    /// `easyplot --speedup` with `refTime`). Updates the y label and
    /// records the reference among the constants.
    pub fn into_speedup(mut self, ref_time: f64) -> Self {
        for s in &mut self.series {
            for p in &mut s.points {
                p.1 = if p.1 > 0.0 { ref_time / p.1 } else { 0.0 };
            }
        }
        self.y_label = "speedup".to_string();
        self.constants
            .push(("refTime".to_string(), format!("{ref_time}")));
        self
    }

    /// The headline above the graph: the factored-out constants
    /// (`Parameters : machine=... dim=... kernel=...` in Fig. 6).
    pub fn constants_line(&self) -> String {
        if self.constants.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .constants
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("Parameters : {}", parts.join(" "))
    }

    /// Extremes over all points, `((xmin, xmax), (ymin, ymax))`.
    pub fn bounds(&self) -> Option<((f64, f64), (f64, f64))> {
        let mut it = self.series.iter().flat_map(|s| s.points.iter().copied());
        let first = it.next()?;
        let mut b = ((first.0, first.0), (first.1, first.1));
        for (x, y) in it {
            b.0 .0 = b.0 .0.min(x);
            b.0 .1 = b.0 .1.max(x);
            b.1 .0 = b.1 .0.min(y);
            b.1 .1 = b.1 .1.max(y);
        }
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CsvTable {
        let mut t = CsvTable::new(vec![
            "kernel", "dim", "schedule", "threads", "time_us", "run",
        ]);
        // two schedules x two thread counts x two runs, constant kernel/dim
        for (sched, threads, time, run) in [
            ("static", "2", "100", "0"),
            ("static", "2", "110", "1"),
            ("static", "4", "60", "0"),
            ("static", "4", "70", "1"),
            ("dynamic", "2", "90", "0"),
            ("dynamic", "2", "80", "1"),
            ("dynamic", "4", "40", "0"),
            ("dynamic", "4", "50", "1"),
        ] {
            t.push_row(vec!["mandel", "1024", sched, threads, time, run])
                .unwrap();
        }
        t
    }

    #[test]
    fn constants_are_factored_out() {
        let d = Dataset::from_table(&table(), "threads", "time_us", &["run"]).unwrap();
        assert_eq!(
            d.constants,
            vec![
                ("kernel".to_string(), "mandel".to_string()),
                ("dim".to_string(), "1024".to_string())
            ]
        );
        assert!(d.constants_line().contains("kernel=mandel"));
        assert!(d.constants_line().contains("dim=1024"));
    }

    #[test]
    fn legend_from_varying_columns_only() {
        let d = Dataset::from_table(&table(), "threads", "time_us", &["run"]).unwrap();
        let labels: Vec<&str> = d.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["schedule=dynamic", "schedule=static"]);
    }

    #[test]
    fn runs_are_averaged() {
        let d = Dataset::from_table(&table(), "threads", "time_us", &["run"]).unwrap();
        let stat = d
            .series
            .iter()
            .find(|s| s.label.contains("static"))
            .unwrap();
        assert_eq!(stat.points, vec![(2.0, 105.0), (4.0, 65.0)]);
        let dynamic = d
            .series
            .iter()
            .find(|s| s.label.contains("dynamic"))
            .unwrap();
        assert_eq!(dynamic.points, vec![(2.0, 85.0), (4.0, 45.0)]);
    }

    #[test]
    fn speedup_transform() {
        let d = Dataset::from_table(&table(), "threads", "time_us", &["run"]).unwrap();
        let s = d.into_speedup(210.0);
        assert_eq!(s.y_label, "speedup");
        let stat = s
            .series
            .iter()
            .find(|s| s.label.contains("static"))
            .unwrap();
        assert!((stat.points[0].1 - 2.0).abs() < 1e-9); // 210/105
        assert!(s.constants_line().contains("refTime=210"));
    }

    #[test]
    fn mixed_experiments_cannot_merge_silently() {
        // add rows with a second kernel: `kernel` moves from the
        // constants into the legend, making the mixing visible
        let mut t = table();
        t.push_row(vec!["blur", "1024", "static", "2", "500", "0"])
            .unwrap();
        let d = Dataset::from_table(&t, "threads", "time_us", &["run"]).unwrap();
        assert!(d.constants.iter().all(|(k, _)| k != "kernel"));
        assert!(d.series.iter().any(|s| s.label.contains("kernel=blur")));
    }

    #[test]
    fn missing_column_and_bad_values_error() {
        assert!(Dataset::from_table(&table(), "nope", "time_us", &[]).is_err());
        assert!(Dataset::from_table(&table(), "threads", "kernel", &["run"]).is_err());
        let empty = CsvTable::new(vec!["threads", "time_us"]);
        assert!(Dataset::from_table(&empty, "threads", "time_us", &[]).is_err());
    }

    #[test]
    fn bounds_cover_all_points() {
        let d = Dataset::from_table(&table(), "threads", "time_us", &["run"]).unwrap();
        let ((x0, x1), (y0, y1)) = d.bounds().unwrap();
        assert_eq!((x0, x1), (2.0, 4.0));
        assert_eq!((y0, y1), (45.0, 105.0));
    }
}
