//! The Activity Monitor window: textual rendering of per-CPU load and
//! the cumulated-idleness history (paper §II-B, Fig. 3).

use crate::report::{IterationStats, MonitorReport};
use ezp_core::time::format_duration_ns;

/// Width of the ASCII load bars.
const BAR_WIDTH: usize = 30;

/// Renders one iteration's Activity Monitor as text: one load bar per
/// CPU plus the imbalance figure.
pub fn render_iteration(stats: &IterationStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "iteration {:>3}  ({})\n",
        stats.span.iteration,
        format_duration_ns(stats.span.duration_ns())
    ));
    for w in 0..stats.busy_ns.len() {
        let load = stats.load(w);
        let filled = (load * BAR_WIDTH as f64).round() as usize;
        out.push_str(&format!(
            "  CPU {:>2} [{}{}] {:>5.1}%  {} tiles\n",
            w,
            "#".repeat(filled),
            " ".repeat(BAR_WIDTH - filled),
            load * 100.0,
            stats.tiles[w]
        ));
    }
    out.push_str(&format!(
        "  imbalance (max/mean busy): {:.2}\n",
        stats.imbalance()
    ));
    out
}

/// Renders the cumulated-idleness history diagram as an ASCII sparkline:
/// "a history diagram reports the evolution of cumulated idleness over
/// time".
pub fn render_idleness_history(report: &MonitorReport) -> String {
    let hist = report.idleness_history();
    if hist.is_empty() {
        return "no iterations recorded\n".to_string();
    }
    const LEVELS: &[u8] = b"_.:-=+*#%@";
    let max = hist.iter().map(|&(_, v)| v).max().unwrap_or(0).max(1);
    let mut out = String::from("cumulated idleness: ");
    for &(_, v) in &hist {
        let level = ((v as f64 / max as f64) * (LEVELS.len() - 1) as f64).round() as usize;
        out.push(LEVELS[level] as char);
    }
    out.push_str(&format!(
        "  (total {} over {} iterations)\n",
        format_duration_ns(hist.last().unwrap().1),
        hist.len()
    ));
    out
}

/// Full Activity Monitor dump: every iteration plus the history line.
pub fn render_report(report: &MonitorReport) -> String {
    let mut out = String::new();
    for stats in report.all_stats() {
        out.push_str(&render_iteration(&stats));
    }
    out.push_str(&render_idleness_history(report));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TileRecord;
    use crate::report::IterationSpan;
    use ezp_core::TileGrid;

    fn report() -> MonitorReport {
        let grid = TileGrid::square(32, 16).unwrap();
        MonitorReport::new(
            2,
            grid,
            vec![IterationSpan {
                iteration: 1,
                start_ns: 0,
                end_ns: 100,
            }],
            vec![
                TileRecord {
                    iteration: 1,
                    x: 0,
                    y: 0,
                    w: 16,
                    h: 16,
                    start_ns: 0,
                    end_ns: 100,
                    worker: 0,
                },
                TileRecord {
                    iteration: 1,
                    x: 16,
                    y: 0,
                    w: 16,
                    h: 16,
                    start_ns: 0,
                    end_ns: 50,
                    worker: 1,
                },
            ],
        )
    }

    #[test]
    fn iteration_rendering_shows_loads() {
        let rep = report();
        let text = render_iteration(&rep.iteration_stats(1).unwrap());
        assert!(text.contains("CPU  0"));
        assert!(text.contains("100.0%"));
        assert!(text.contains("50.0%"));
        assert!(text.contains("imbalance"));
    }

    #[test]
    fn full_bar_is_full() {
        let rep = report();
        let text = render_iteration(&rep.iteration_stats(1).unwrap());
        assert!(text.contains(&"#".repeat(BAR_WIDTH)));
    }

    #[test]
    fn history_sparkline_has_one_char_per_iteration() {
        let rep = report();
        let text = render_idleness_history(&rep);
        assert!(text.starts_with("cumulated idleness: "));
        assert!(text.contains("1 iterations"));
    }

    #[test]
    fn empty_report_renders_gracefully() {
        let grid = TileGrid::square(32, 16).unwrap();
        let rep = MonitorReport::new(2, grid, vec![], vec![]);
        assert!(render_idleness_history(&rep).contains("no iterations"));
        assert!(render_report(&rep).contains("no iterations"));
    }

    #[test]
    fn report_rendering_combines_both_views() {
        let rep = report();
        let text = render_report(&rep);
        assert!(text.contains("iteration   1"));
        assert!(text.contains("cumulated idleness"));
    }
}
