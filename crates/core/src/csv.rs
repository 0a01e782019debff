//! Minimal CSV reading/writing for the performance mode.
//!
//! EASYPAP's performance mode appends "the completion time, together with
//! all execution and configuration parameters" to a CSV file (§II-C) which
//! `easyplot` later filters and plots. This module provides the shared
//! table representation: a header row plus string cells, with semicolon
//! escaping kept deliberately simple (values are written quoted only when
//! they contain a separator).

use crate::error::{Error, Result};
use std::io::{BufRead, Write};
use std::path::Path;

/// Field separator. EASYPAP uses `;` in its CSV output? It actually uses
/// commas; we do the same.
const SEP: char = ',';

/// An in-memory CSV table: one header row and any number of data rows,
/// all cells kept as strings (types are the consumer's business, exactly
/// like a pandas `read_csv` in the original Python tooling).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsvTable {
    /// Column names.
    pub header: Vec<String>,
    /// Data rows; every row has `header.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates an empty table with the given column names.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        CsvTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Returns an error when the arity does not match the
    /// header — the "silently mixed experiments" mistake the paper's
    /// easyplot guards against.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) -> Result<()> {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        if row.len() != self.header.len() {
            return Err(Error::Config(format!(
                "CSV row has {} cells, header has {}",
                row.len(),
                self.header.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Index of column `name`.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// All values of column `name`, in row order.
    pub fn column(&self, name: &str) -> Option<Vec<&str>> {
        let i = self.col(name)?;
        Some(self.rows.iter().map(|r| r[i].as_str()).collect())
    }

    /// Serializes the table to CSV text.
    #[allow(clippy::inherent_to_string)] // CSV text, not a Display format
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&join_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&join_row(row));
            out.push('\n');
        }
        out
    }

    /// Parses CSV text. The first line is the header.
    pub fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines
            .next()
            .ok_or_else(|| Error::Config("empty CSV input".into()))?;
        let header = split_row(header_line);
        let mut table = CsvTable {
            header,
            rows: Vec::new(),
        };
        for line in lines {
            let row = split_row(line);
            if row.len() != table.header.len() {
                return Err(Error::Config(format!(
                    "CSV row `{line}` has {} cells, expected {}",
                    row.len(),
                    table.header.len()
                )));
            }
            table.rows.push(row);
        }
        Ok(table)
    }

    /// Loads a table from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Writes the whole table to a file, replacing any previous content.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_string())?;
        Ok(())
    }

    /// Appends one row to a CSV file, writing the header first when the
    /// file does not exist yet — the exact behaviour of EASYPAP's
    /// performance mode across repeated runs.
    pub fn append_row_to_file(
        path: impl AsRef<Path>,
        header: &[&str],
        row: &[String],
    ) -> Result<()> {
        let path = path.as_ref();
        if row.len() != header.len() {
            return Err(Error::Config(format!(
                "CSV row has {} cells, header has {}",
                row.len(),
                header.len()
            )));
        }
        let exists = path.exists();
        if exists {
            // verify the on-disk header matches, so that runs with a
            // different schema never get silently mixed
            let file = std::fs::File::open(path)?;
            let mut first = String::new();
            std::io::BufReader::new(file).read_line(&mut first)?;
            let on_disk = split_row(first.trim_end());
            if on_disk != header {
                return Err(Error::Config(format!(
                    "CSV file {} has header {:?}, expected {:?}",
                    path.display(),
                    on_disk,
                    header
                )));
            }
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        if !exists {
            writeln!(file, "{}", header.join(&SEP.to_string()))?;
        }
        writeln!(file, "{}", join_row(row))?;
        Ok(())
    }

    /// Keeps only the rows for which `pred` returns true.
    pub fn filter(&self, mut pred: impl FnMut(&CsvRowView<'_>) -> bool) -> CsvTable {
        CsvTable {
            header: self.header.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| {
                    pred(&CsvRowView {
                        header: &self.header,
                        cells: r,
                    })
                })
                .cloned()
                .collect(),
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `i` as a name-addressable view.
    pub fn row(&self, i: usize) -> CsvRowView<'_> {
        CsvRowView {
            header: &self.header,
            cells: &self.rows[i],
        }
    }
}

/// A borrowed row with access by column name.
#[derive(Clone, Copy)]
pub struct CsvRowView<'a> {
    header: &'a [String],
    cells: &'a [String],
}

impl<'a> CsvRowView<'a> {
    /// Cell under column `name`.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        let i = self.header.iter().position(|h| h == name)?;
        Some(self.cells[i].as_str())
    }

    /// Cell parsed as `T`.
    pub fn get_as<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name)?.parse().ok()
    }
}

fn needs_quoting(cell: &str) -> bool {
    cell.contains(SEP) || cell.contains('"') || cell.contains('\n')
}

fn join_row<S: AsRef<str>>(cells: &[S]) -> String {
    cells
        .iter()
        .map(|c| {
            let c = c.as_ref();
            if needs_quoting(c) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(&SEP.to_string())
}

fn split_row(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            c if c == SEP && !in_quotes => {
                cells.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    cells.push(cur);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsvTable {
        let mut t = CsvTable::new(vec!["kernel", "threads", "time_us"]);
        t.push_row(vec!["mandel", "4", "1000"]).unwrap();
        t.push_row(vec!["mandel", "8", "600"]).unwrap();
        t
    }

    #[test]
    fn round_trip_through_text() {
        let t = sample();
        let parsed = CsvTable::parse(&t.to_string()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn quoting_round_trip() {
        let mut t = CsvTable::new(vec!["a", "b"]);
        t.push_row(vec!["has,comma", "has\"quote"]).unwrap();
        let parsed = CsvTable::parse(&t.to_string()).unwrap();
        assert_eq!(parsed.rows[0][0], "has,comma");
        assert_eq!(parsed.rows[0][1], "has\"quote");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = sample();
        assert!(t.push_row(vec!["x"]).is_err());
        assert!(CsvTable::parse("a,b\n1,2,3\n").is_err());
        assert!(CsvTable::parse("").is_err());
    }

    #[test]
    fn column_access() {
        let t = sample();
        assert_eq!(t.column("threads").unwrap(), vec!["4", "8"]);
        assert!(t.column("nope").is_none());
        assert_eq!(t.row(1).get("time_us"), Some("600"));
        assert_eq!(t.row(1).get_as::<u64>("time_us"), Some(600));
        assert_eq!(t.row(0).get_as::<u64>("kernel"), None);
    }

    #[test]
    fn filter_by_predicate() {
        let t = sample();
        let fast = t.filter(|r| r.get_as::<u64>("time_us").unwrap() < 800);
        assert_eq!(fast.len(), 1);
        assert_eq!(fast.rows[0][1], "8");
    }

    #[test]
    fn append_creates_header_once() {
        let dir = std::env::temp_dir().join(format!("ezp_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf.csv");
        std::fs::remove_file(&path).ok();
        let header = ["kernel", "time_us"];
        CsvTable::append_row_to_file(&path, &header, &["mandel".into(), "10".into()]).unwrap();
        CsvTable::append_row_to_file(&path, &header, &["blur".into(), "20".into()]).unwrap();
        let t = CsvTable::load(&path).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.header, vec!["kernel", "time_us"]);
        // schema drift is rejected
        let bad = CsvTable::append_row_to_file(&path, &["other"], &["x".into()]);
        assert!(bad.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parse_skips_blank_lines() {
        let t = CsvTable::parse("a,b\n\n1,2\n\n").unwrap();
        assert_eq!(t.len(), 1);
    }
}
