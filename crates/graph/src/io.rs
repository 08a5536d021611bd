//! Minimal edge-list interchange format.
//!
//! One `u v` pair per line, `#`-prefixed comment lines ignored. The node
//! count is `max id + 1` unless a `# nodes: N` header raises it. This is
//! the least-common-denominator format the original generator tools
//! (GT-ITM, Tiers, BRITE, Inet) all export to, letting users feed real
//! measured graphs into the metric suite.

use crate::{Graph, GraphBuilder, NodeId};
use std::fmt::Write as _;

/// Errors from parsing an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A data line did not consist of two integers.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLine { line, content } => {
                write!(f, "line {line}: expected `u v`, got {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Errors from loading an edge-list file, with enough context
/// (file, line) for a one-line diagnostic — the suite runner prints
/// these and exits 3 instead of unwinding with a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file could not be read at all.
    Io {
        /// The path as given.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// The file was read but a line failed to parse.
    Parse {
        /// The path as given.
        path: String,
        /// The parse failure (carries the 1-based line number).
        source: ParseError,
    },
    /// The file parsed but holds no edges — almost always a wrong path
    /// or an export in a different format whose lines all look like
    /// comments.
    Empty {
        /// The path as given.
        path: String,
    },
    /// The file is a binary `.tgr` graph that failed to decode. The
    /// message carries the codec's byte-offset context (this crate
    /// stays independent of the codec, so the error arrives as text).
    Binary {
        /// The path as given.
        path: String,
        /// Decode failure with offset context.
        message: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, message } => write!(f, "{path}: {message}"),
            LoadError::Parse { path, source } => write!(f, "{path}: {source}"),
            LoadError::Empty { path } => write!(f, "{path}: edge list holds no edges"),
            LoadError::Binary { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Load an edge list from disk. Every failure mode — unreadable file,
/// malformed line, edge-free content — comes back as a typed
/// [`LoadError`] naming the file (and line, where there is one).
pub fn load_edge_list(path: &str) -> Result<Graph, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    let g = parse_edge_list(&text).map_err(|source| LoadError::Parse {
        path: path.to_string(),
        source,
    })?;
    if g.edge_count() == 0 {
        return Err(LoadError::Empty {
            path: path.to_string(),
        });
    }
    Ok(g)
}

/// Parse an edge list. Self-loops are dropped and duplicate edges
/// collapsed, matching [`GraphBuilder`] semantics.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut b = GraphBuilder::new(0);
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            // Optional "# nodes: N" header.
            if let Some(v) = rest.trim().strip_prefix("nodes:") {
                if let Ok(k) = v.trim().parse::<usize>() {
                    b.ensure_nodes(k);
                }
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let (u, v) = match (it.next(), it.next(), it.next()) {
            (Some(u), Some(v), None) => (u, v),
            _ => {
                return Err(ParseError::BadLine {
                    line: i + 1,
                    content: line.to_string(),
                })
            }
        };
        let parse = |s: &str| {
            s.parse::<NodeId>().map_err(|_| ParseError::BadLine {
                line: i + 1,
                content: line.to_string(),
            })
        };
        let (u, v) = (parse(u)?, parse(v)?);
        b.ensure_nodes(u.max(v) as usize + 1);
        b.add_edge(u, v);
    }
    Ok(b.build())
}

/// Serialize a graph as an edge list (with a `# nodes:` header so
/// trailing isolated nodes round-trip).
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# nodes: {}", g.node_count());
    for e in g.edges() {
        let _ = writeln!(out, "{} {}", e.a, e.b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]);
        let text = to_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g2.node_count(), 5);
        assert_eq!(g2.edges(), g.edges());
    }

    #[test]
    fn roundtrip_trailing_isolated_node() {
        let g = Graph::from_edges(4, vec![(0, 1)]);
        let g2 = parse_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g2.node_count(), 4);
    }

    #[test]
    fn comments_and_blank_lines() {
        let g = parse_edge_list("# a comment\n\n0 1\n  # another\n1 2\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn nodes_header() {
        let g = parse_edge_list("# nodes: 10\n0 1\n").unwrap();
        assert_eq!(g.node_count(), 10);
    }

    #[test]
    fn bad_line_reports_position() {
        let err = parse_edge_list("0 1\nfoo bar\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::BadLine {
                line: 2,
                content: "foo bar".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("line 2"));
    }

    #[test]
    fn too_many_fields_rejected() {
        assert!(parse_edge_list("0 1 2\n").is_err());
    }

    #[test]
    fn self_loops_and_duplicates_normalized() {
        let g = parse_edge_list("0 0\n0 1\n1 0\n").unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn empty_input() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn load_missing_file_names_the_path() {
        let err = load_edge_list("/nonexistent/topogen-no-such.edges").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.starts_with("/nonexistent/topogen-no-such.edges: "),
            "{msg}"
        );
        assert!(matches!(err, LoadError::Io { .. }));
    }

    #[test]
    fn load_corrupt_file_names_path_and_line() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("topogen-io-test-{}.edges", std::process::id()));
        std::fs::write(&path, "0 1\nnot an edge\n").unwrap();
        let err = load_edge_list(path.to_str().unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("topogen-io-test"), "{msg}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_edge_free_file_is_an_error() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("topogen-io-empty-{}.edges", std::process::id()));
        std::fs::write(&path, "# just a comment\n").unwrap();
        let err = load_edge_list(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, LoadError::Empty { .. }));
        let _ = std::fs::remove_file(&path);
    }
}
