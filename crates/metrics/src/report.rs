//! Experiment reporting: comparison tables and CSV export.
//!
//! The figure-reproduction harnesses print their results through this
//! module so every experiment reports in the same format and the
//! paper-vs-measured comparison in `EXPERIMENTS.md` can be regenerated
//! mechanically.

use crate::stats::reduction_percent;
use std::fmt::Write as _;

/// One metric compared between the uncoordinated baseline and the
/// coordinated strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Metric name (e.g. `"peak load (kW)"`).
    pub metric: String,
    /// Baseline ("w/o coordination") value.
    pub baseline: f64,
    /// Coordinated value.
    pub coordinated: f64,
}

impl ComparisonRow {
    /// Creates a row.
    pub fn new(metric: impl Into<String>, baseline: f64, coordinated: f64) -> Self {
        ComparisonRow {
            metric: metric.into(),
            baseline,
            coordinated,
        }
    }

    /// Reduction achieved by coordination, in percent.
    pub(crate) fn reduction_percent(&self) -> f64 {
        reduction_percent(self.baseline, self.coordinated)
    }
}

/// A named comparison table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComparisonReport {
    title: String,
    rows: Vec<ComparisonRow>,
}

impl ComparisonReport {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        ComparisonReport {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: ComparisonRow) -> &mut Self {
        self.rows.push(row);
        self
    }

    /// Renders a fixed-width ASCII table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .chain([self.title.len(), 24])
            .max()
            .unwrap_or(24);
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(
            out,
            "{:<width$}  {:>14}  {:>14}  {:>10}",
            "metric", "w/o coord", "with coord", "reduction"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<width$}  {:>14.3}  {:>14.3}  {:>9.1}%",
                r.metric,
                r.baseline,
                r.coordinated,
                r.reduction_percent()
            );
        }
        out
    }
}

/// Renders a simple named series as CSV (`x,series1,series2,...`).
///
/// All series must share the length of `xs`.
///
/// # Panics
///
/// Panics if series lengths differ from `xs`.
pub fn series_csv(x_name: &str, xs: &[f64], series: &[(&str, &[f64])]) -> String {
    for (name, ys) in series {
        assert_eq!(
            ys.len(),
            xs.len(),
            "series '{name}' length mismatches x axis"
        );
    }
    let mut out = String::new();
    let _ = write!(out, "{}", csv_escape(x_name));
    for (name, _) in series {
        let _ = write!(out, ",{}", csv_escape(name));
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        let _ = write!(out, "{x}");
        for (_, ys) in series {
            let _ = write!(out, ",{}", ys[i]);
        }
        out.push('\n');
    }
    out
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_reduction() {
        let r = ComparisonRow::new("peak load (kW)", 14.0, 7.0);
        assert!((r.reduction_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn table_contains_all_fields() {
        let mut rep = ComparisonReport::new("high arrival rate");
        rep.push(ComparisonRow::new("peak load (kW)", 14.0, 7.0));
        rep.push(ComparisonRow::new("std dev (kW)", 3.5, 1.5));
        let table = rep.to_table();
        assert!(table.contains("high arrival rate"));
        assert!(table.contains("peak load (kW)"));
        assert!(table.contains("50.0%"));
        assert!(table.contains("w/o coord"));
        assert_eq!(rep.rows.len(), 2);
    }

    #[test]
    fn series_csv_shape() {
        let csv = series_csv(
            "minutes",
            &[0.0, 1.0],
            &[("without", &[3.0, 4.0]), ("with", &[2.0, 2.0])],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "minutes,without,with");
        assert_eq!(lines[1], "0,3,2");
        assert_eq!(lines[2], "1,4,2");
    }

    #[test]
    fn csv_escaping() {
        let csv = series_csv("x", &[0.0], &[("a,b\"c", &[1.0])]);
        assert_eq!(csv.lines().next(), Some("x,\"a,b\"\"c\""));
    }

    #[test]
    #[should_panic(expected = "length mismatches")]
    fn series_csv_length_checked() {
        series_csv("x", &[0.0], &[("bad", &[1.0, 2.0])]);
    }
}
