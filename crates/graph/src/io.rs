//! Plain-text edge-list IO.
//!
//! Format: first non-comment line is `n m`, followed by `m` lines
//! `u v p p_boost`. Lines starting with `#` are comments. This mirrors the
//! format used by public influence-maximization datasets, extended with the
//! boosted probability column.

use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{BuildError, DiGraph, GraphBuilder, NodeId};

/// Errors produced while reading an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse { line: usize, message: String },
    /// Structurally invalid graph (duplicate edge, bad probability, ...).
    Build(BuildError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            IoError::Build(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<BuildError> for IoError {
    fn from(e: BuildError) -> Self {
        IoError::Build(e)
    }
}

/// Reads a graph from any reader in the edge-list format.
///
/// Lines are read into one reused buffer, so parsing allocates nothing
/// per line.
pub fn read_edge_list<R: Read>(reader: R) -> Result<DiGraph, IoError> {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut line_no = 0usize;
    // Reads the next line that is neither blank nor a comment into `line`
    // (counting every line read); false at the end of the input.
    let mut next_line = |line: &mut String, line_no: &mut usize| -> Result<bool, IoError> {
        loop {
            line.clear();
            if reader.read_line(line)? == 0 {
                return Ok(false);
            }
            *line_no += 1;
            let trimmed = line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('#') {
                return Ok(true);
            }
        }
    };

    if !next_line(&mut line, &mut line_no)? {
        return Err(IoError::Parse {
            line: line_no + 1,
            message: "missing header line `n m`".to_string(),
        });
    }
    let mut parts = line.split_whitespace();
    let n: usize = parse_field(&mut parts, line_no, "n")?;
    let m: usize = parse_field(&mut parts, line_no, "m")?;

    let mut builder = GraphBuilder::with_capacity(n, m);
    let mut read_edges = 0usize;
    while next_line(&mut line, &mut line_no)? {
        let mut parts = line.split_whitespace();
        let u: u32 = parse_field(&mut parts, line_no, "u")?;
        let v: u32 = parse_field(&mut parts, line_no, "v")?;
        let p: f64 = parse_field(&mut parts, line_no, "p")?;
        let pb: f64 = parse_field(&mut parts, line_no, "p_boost")?;
        builder.add_edge(NodeId(u), NodeId(v), p, pb)?;
        read_edges += 1;
    }

    if read_edges != m {
        return Err(IoError::Parse {
            line: line_no,
            message: format!("header declared {m} edges but found {read_edges}"),
        });
    }
    Ok(builder.build()?)
}

fn parse_field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    name: &str,
) -> Result<T, IoError> {
    let raw = parts.next().ok_or_else(|| IoError::Parse {
        line,
        message: format!("missing field `{name}`"),
    })?;
    raw.parse().map_err(|_| IoError::Parse {
        line,
        message: format!("cannot parse `{raw}` as `{name}`"),
    })
}

/// Writes a graph to any writer in the edge-list format.
pub fn write_edge_list<W: Write>(g: &DiGraph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# kboost edge list: u v p p_boost")?;
    writeln!(w, "{} {}", g.num_nodes(), g.num_edges())?;
    for (u, v, p) in g.edges() {
        writeln!(w, "{} {} {} {}", u, v, p.base, p.boosted)?;
    }
    w.flush()
}

/// Reads a graph from a file path.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<DiGraph, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes a graph to a file path.
pub fn write_edge_list_file(g: &DiGraph, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample_graph() -> DiGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.2, 0.4).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.1, 0.2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, p) in g.edges() {
            assert_eq!(g2.edge(u, v), Some(p));
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\n3 1\n# edge below\n0 1 0.5 0.75\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn missing_header_is_error() {
        let err = read_edge_list("# only comments\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn edge_count_mismatch_is_error() {
        let err = read_edge_list("2 2\n0 1 0.1 0.2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn parse_error_reports_the_line_after_comments_and_blanks() {
        let text = "# header below\n\n3 2\n0 1 0.5 0.75\n\n# next edge is bad\n   \n1 2 x 0.5\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, IoError::Parse { line: 8, message } if message.contains("`p`")),
            "{err}"
        );
        // CRLF line ends count the same lines.
        let err = read_edge_list(text.replace('\n', "\r\n").as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 8, .. }), "{err}");
    }

    #[test]
    fn bad_probability_is_build_error() {
        let err = read_edge_list("2 1\n0 1 0.9 0.2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Build(_)));
    }
}
