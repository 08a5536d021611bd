//! Rendering and serialization of experiment outputs.
//!
//! Every figure/table reproduction emits one of these records; the
//! `repro` binary prints the text rendering and can dump the JSON for
//! archival (EXPERIMENTS.md quotes these outputs).

use serde::{Content, DeError, Deserialize, Serialize};

/// The cell text rendered for a metric that could not be computed
/// because its topology failed to build or measure.
pub const FAILED_CELL: &str = "n/a (failed)";

/// One recorded failure inside an otherwise-successful table or figure:
/// the component (topology / series label) that failed and the redacted
/// reason. Rendered as a footnote; archived in the JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// The failed component (topology name or series label).
    pub label: String,
    /// Redacted single-line failure reason.
    pub reason: String,
}

/// A named data series (one curve of a figure).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (the paper's legend entry, e.g. "PLRG").
    pub label: String,
    /// X values.
    pub x: Vec<f64>,
    /// Y values (NaN-free: unavailable points are omitted).
    pub y: Vec<f64>,
}

impl Series {
    /// Build from parallel slices, dropping non-finite points.
    pub fn new(label: impl Into<String>, x: &[f64], y: &[f64]) -> Series {
        assert_eq!(x.len(), y.len());
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (&a, &b) in x.iter().zip(y) {
            if a.is_finite() && b.is_finite() {
                xs.push(a);
                ys.push(b);
            }
        }
        Series {
            label: label.into(),
            x: xs,
            y: ys,
        }
    }
}

/// A reproduced figure: several series plus axis labels.
///
/// `failures` lists series that could not be computed (graceful
/// degradation); serialization omits the field entirely when empty so
/// fault-free archives stay byte-identical with historical ones — which
/// is why `Serialize`/`Deserialize` are hand-written here.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Experiment id, e.g. "fig2-expansion-canonical".
    pub id: String,
    /// Axis labels.
    pub x_label: String,
    /// Axis labels.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Components that failed instead of producing a series.
    pub failures: Vec<Degradation>,
}

impl FigureData {
    /// A figure with no failures recorded.
    pub fn new(
        id: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<Series>,
    ) -> FigureData {
        FigureData {
            id: id.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
            failures: Vec::new(),
        }
    }

    /// Record a failed component (its series is simply absent).
    pub fn note_failure(&mut self, label: impl Into<String>, reason: impl Into<String>) {
        self.failures.push(Degradation {
            label: label.into(),
            reason: reason.into(),
        });
    }
}

impl Serialize for FigureData {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("id".to_string(), self.id.to_content()),
            ("x_label".to_string(), self.x_label.to_content()),
            ("y_label".to_string(), self.y_label.to_content()),
            ("series".to_string(), self.series.to_content()),
        ];
        if !self.failures.is_empty() {
            fields.push(("failures".to_string(), self.failures.to_content()));
        }
        Content::Map(fields)
    }
}

impl Deserialize for FigureData {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let field = |k: &str| c.get(k).ok_or_else(|| DeError(format!("missing {k}")));
        Ok(FigureData {
            id: String::from_content(field("id")?)?,
            x_label: String::from_content(field("x_label")?)?,
            y_label: String::from_content(field("y_label")?)?,
            series: Vec::from_content(field("series")?)?,
            failures: match c.get("failures") {
                Some(f) => Vec::from_content(f)?,
                None => Vec::new(),
            },
        })
    }
}

/// Per-run engine instrumentation, defined beside the counter table in
/// `topogen-par` and re-exported here for the experiment layer.
pub use topogen_par::instrument::TimingReport;

/// A reproduced table: header plus rows of cells.
///
/// `failures` records rows degraded to [`FAILED_CELL`] with the reason;
/// like [`FigureData`], serialization omits the field when empty so
/// fault-free archives stay byte-identical (hence the manual impls).
#[derive(Clone, Debug)]
pub struct TableData {
    /// Experiment id, e.g. "tab-signature".
    pub id: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
    /// Components whose cells are degraded, with reasons (footnoted).
    pub failures: Vec<Degradation>,
}

impl Serialize for TableData {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("id".to_string(), self.id.to_content()),
            ("header".to_string(), self.header.to_content()),
            ("rows".to_string(), self.rows.to_content()),
        ];
        if !self.failures.is_empty() {
            fields.push(("failures".to_string(), self.failures.to_content()));
        }
        Content::Map(fields)
    }
}

impl Deserialize for TableData {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let field = |k: &str| c.get(k).ok_or_else(|| DeError(format!("missing {k}")));
        Ok(TableData {
            id: String::from_content(field("id")?)?,
            header: Vec::from_content(field("header")?)?,
            rows: Vec::from_content(field("rows")?)?,
            failures: match c.get("failures") {
                Some(f) => Vec::from_content(f)?,
                None => Vec::new(),
            },
        })
    }
}

impl TableData {
    /// A table with no failures recorded.
    pub fn new(id: impl Into<String>, header: Vec<String>, rows: Vec<Vec<String>>) -> TableData {
        TableData {
            id: id.into(),
            header,
            rows,
            failures: Vec::new(),
        }
    }

    /// Append a degraded row for a failed component: its label followed
    /// by [`FAILED_CELL`] in every remaining column, with the reason
    /// recorded for the footnote.
    pub fn push_failed_row(&mut self, label: impl Into<String>, reason: impl Into<String>) {
        let label = label.into();
        let cols = self.header.len().max(2);
        let mut row = vec![label.clone()];
        row.resize(cols, FAILED_CELL.to_string());
        self.rows.push(row);
        self.failures.push(Degradation {
            label,
            reason: reason.into(),
        });
    }

    /// Render as a fixed-width text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(c.len());
                line.push_str(&format!("{:w$}  ", c, w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for d in &self.failures {
            out.push_str(&format!("* {}: {FAILED_CELL} — {}\n", d.label, d.reason));
        }
        out
    }
}

/// Render a figure as aligned text columns (one block per series) —
/// gnuplot-ready and diffable.
pub fn render_figure(fig: &FigureData) -> String {
    let mut out = format!("# {}\n# x: {}   y: {}\n", fig.id, fig.x_label, fig.y_label);
    for s in &fig.series {
        out.push_str(&format!("\n# series: {}\n", s.label));
        for (x, y) in s.x.iter().zip(&s.y) {
            out.push_str(&format!("{x:.6e} {y:.6e}\n"));
        }
    }
    for d in &fig.failures {
        out.push_str(&format!(
            "\n# series: {} — {FAILED_CELL}: {}\n",
            d.label, d.reason
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_drops_nan() {
        let s = Series::new("t", &[1.0, 2.0, 3.0], &[1.0, f64::NAN, 3.0]);
        assert_eq!(s.x, vec![1.0, 3.0]);
        assert_eq!(s.y, vec![1.0, 3.0]);
    }

    #[test]
    fn table_renders_aligned() {
        let t = TableData::new(
            "t",
            vec!["Topology".into(), "Sig".into()],
            vec![
                vec!["Mesh".into(), "LHH".into()],
                vec!["PLRG".into(), "HHL".into()],
            ],
        );
        let r = t.render();
        assert!(r.contains("Topology"));
        assert!(r.lines().count() >= 4);
        // Columns aligned: both data lines have "LHH"/"HHL" at the same
        // offset.
        let lines: Vec<&str> = r.lines().collect();
        let off1 = lines[2].find("LHH").unwrap();
        let off2 = lines[3].find("HHL").unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn figure_text_roundtrip() {
        let f = FigureData::new(
            "fig",
            "h",
            "E",
            vec![Series::new("a", &[0.0, 1.0], &[0.5, 1.0])],
        );
        let txt = render_figure(&f);
        assert!(txt.contains("series: a"));
        assert!(txt.contains("5.000000e-1") || txt.contains("5e-1"));
        // JSON serializable.
        let j = serde_json::to_string(&f).unwrap();
        let back: FigureData = serde_json::from_str(&j).unwrap();
        assert_eq!(back.series[0].y, f.series[0].y);
    }

    #[test]
    #[should_panic]
    fn series_length_mismatch_panics() {
        let _ = Series::new("x", &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn failures_field_omitted_when_empty() {
        // The degradation field must not change fault-free archives.
        let t = TableData::new("t", vec!["A".into()], vec![vec!["x".into()]]);
        assert!(!serde_json::to_string(&t).unwrap().contains("failures"));
        let f = FigureData::new("f", "x", "y", Vec::new());
        assert!(!serde_json::to_string(&f).unwrap().contains("failures"));
    }

    #[test]
    fn degraded_table_round_trips_and_footnotes() {
        let mut t = TableData::new(
            "t",
            vec!["Topology".into(), "Nodes".into()],
            vec![vec!["Mesh".into(), "900".into()]],
        );
        t.push_failed_row("Tiers", "injected fault at build (Tiers)");
        assert_eq!(t.rows.len(), 2);
        assert_eq!(
            t.rows[1],
            vec!["Tiers".to_string(), FAILED_CELL.to_string()]
        );
        let rendered = t.render();
        assert!(rendered.contains(FAILED_CELL));
        assert!(rendered.contains("* Tiers"));
        assert!(rendered.contains("injected fault"));
        let j = serde_json::to_string(&t).unwrap();
        assert!(j.contains("failures"));
        let back: TableData = serde_json::from_str(&j).unwrap();
        assert_eq!(back.failures, t.failures);
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn degraded_figure_round_trips_and_footnotes() {
        let mut f = FigureData::new("f", "x", "y", vec![Series::new("ok", &[1.0], &[2.0])]);
        f.note_failure("PLRG", "boom");
        let txt = render_figure(&f);
        assert!(txt.contains("PLRG") && txt.contains(FAILED_CELL) && txt.contains("boom"));
        let j = serde_json::to_string(&f).unwrap();
        let back: FigureData = serde_json::from_str(&j).unwrap();
        assert_eq!(back.failures, f.failures);
        assert_eq!(back.series.len(), 1);
    }
}
