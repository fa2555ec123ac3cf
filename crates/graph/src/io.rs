//! Plain-text graph I/O.
//!
//! The format is the common whitespace edge-list dialect (compatible with
//! SNAP exports and DIMACS-like files):
//!
//! ```text
//! # comment lines start with '#' (or '%' or 'c')
//! p 5 4        # optional header: node count, edge count
//! 0 1
//! 1 2
//! 2 3
//! 3 4
//! ```
//!
//! Without a header the node count is `max id + 1`. Duplicate edges and
//! both orientations are merged; self loops are rejected, and so are ids
//! and header counts beyond the `u32` id space.
//!
//! The reader keeps one line buffer for the whole input. A line that is
//! exactly `<digits><spaces or tabs><digits>` (before an optional `\r`)
//! is parsed straight from its bytes; every other line — comments,
//! headers, extra tokens, signs, Unicode whitespace, numbers too large
//! for `usize` — goes through the general `&str` tokenizer, so both paths
//! accept the same inputs and report the same errors.

use crate::graph::{Graph, NodeId, MAX_NODES};
use crate::GraphBuilder;
use std::fmt;
use std::io::{BufRead, Write};

/// A parse failure with its line number.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads an edge list from any [`BufRead`].
///
/// # Errors
///
/// [`ReadError::Parse`] on malformed lines, self loops, ids or counts
/// beyond the `u32` id space, or ids exceeding a declared header count;
/// [`ReadError::Io`] on read failures and invalid UTF-8.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> Result<Graph, ReadError> {
    let mut declared_n: Option<usize> = None;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_id = 0usize;
    let mut line = Vec::new();
    let mut lineno = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        lineno += 1;
        let (u, v) = match parse_digit_pair(&line) {
            Some(pair) => pair,
            None => {
                let text = std::str::from_utf8(&line).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )
                })?;
                match parse_line(text, lineno)? {
                    Line::Blank => continue,
                    Line::Header(n) => {
                        declared_n = Some(n);
                        continue;
                    }
                    Line::Edge(u, v) => (u, v),
                }
            }
        };
        if u == v {
            return Err(parse_err(lineno, &format!("self loop on node {u}")));
        }
        let hi = u.max(v);
        if hi >= MAX_NODES {
            return Err(parse_err(
                lineno,
                &format!("node id {hi} out of range (ids must be below {MAX_NODES})"),
            ));
        }
        max_id = max_id.max(hi);
        edges.push((u.min(v), hi));
    }
    let n = match declared_n {
        Some(n) => {
            if !edges.is_empty() && max_id >= n {
                return Err(parse_err(
                    0,
                    &format!("edge endpoint {max_id} exceeds declared node count {n}"),
                ));
            }
            n
        }
        None => {
            if edges.is_empty() {
                0
            } else {
                max_id + 1
            }
        }
    };
    Ok(GraphBuilder::from_normalized_pairs(n, edges).build())
}

/// One classified line of the general tokenizer.
enum Line {
    /// Blank or comment.
    Blank,
    /// `p <count> ...` header.
    Header(usize),
    /// An edge; self loops and id ranges are checked by the caller.
    Edge(NodeId, NodeId),
}

/// The general tokenizer for any line the byte path does not take.
fn parse_line(line: &str, lineno: usize) -> Result<Line, ReadError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with(['#', '%']) || trimmed.starts_with("c ") {
        return Ok(Line::Blank);
    }
    let mut parts = trimmed.split_whitespace();
    let first = parts.next().expect("a trimmed non-empty line has a token");
    if first == "p" {
        let n: usize = parts
            .next()
            .ok_or_else(|| parse_err(lineno, "header missing node count"))?
            .parse()
            .map_err(|_| parse_err(lineno, "bad node count"))?;
        if n > MAX_NODES {
            return Err(parse_err(
                lineno,
                &format!("node count {n} out of range (at most {MAX_NODES})"),
            ));
        }
        return Ok(Line::Header(n));
    }
    let u: usize = first
        .parse()
        .map_err(|_| parse_err(lineno, &format!("bad node id {first:?}")))?;
    let v_str = parts
        .next()
        .ok_or_else(|| parse_err(lineno, "edge line needs two endpoints"))?;
    let v: usize = v_str
        .parse()
        .map_err(|_| parse_err(lineno, &format!("bad node id {v_str:?}")))?;
    Ok(Line::Edge(u, v))
}

/// The byte path: `line` (with its `\n`) is exactly
/// `<digits><spaces or tabs><digits>`, optionally `\r`-terminated, and
/// both numbers fit `usize`. `None` sends the line to [`parse_line`].
fn parse_digit_pair(line: &[u8]) -> Option<(NodeId, NodeId)> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let (u, rest) = parse_digits(line)?;
    let gap = rest
        .iter()
        .take_while(|&&b| b == b' ' || b == b'\t')
        .count();
    if gap == 0 {
        return None;
    }
    let (v, rest) = parse_digits(&rest[gap..])?;
    rest.is_empty().then_some((u, v))
}

/// The leading ASCII digits of `bytes` as a number, and the remainder;
/// `None` if there are no digits or the number overflows `usize`.
fn parse_digits(bytes: &[u8]) -> Option<(usize, &[u8])> {
    let len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    if len == 0 {
        return None;
    }
    let mut x = 0usize;
    for &b in &bytes[..len] {
        x = x.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
    }
    Some((x, &bytes[len..]))
}

fn parse_err(line: usize, message: &str) -> ReadError {
    ReadError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Parses an edge list from a string.
///
/// # Errors
///
/// Same as [`read_edge_list`].
pub fn parse_edge_list(text: &str) -> Result<Graph, ReadError> {
    read_edge_list(std::io::Cursor::new(text))
}

/// Reads a graph from a file path.
///
/// # Errors
///
/// Same as [`read_edge_list`].
pub fn read_file<P: AsRef<std::path::Path>>(path: P) -> Result<Graph, ReadError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(f))
}

/// Writes a graph as an edge list with a `p` header.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "p {} {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Writes a graph to a file path.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_file<P: AsRef<std::path::Path>>(g: &Graph, path: P) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, std::io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    #[test]
    fn parse_basic() {
        let g = parse_edge_list("# demo\n0 1\n1 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn parse_with_header_and_isolated_nodes() {
        let g = parse_edge_list("p 6 2\n0 1\n4 5\n").unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let g = parse_edge_list("% matrix-market style\nc dimacs style\n\n0 2\n").unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = parse_edge_list("0 1\n1 0\n0 1\n").unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn errors_reported_with_lines() {
        let e = parse_edge_list("0 1\nx y\n").unwrap_err();
        assert!(e.to_string().contains("line 2"));
        let e = parse_edge_list("3 3\n").unwrap_err();
        assert!(e.to_string().contains("self loop"));
        let e = parse_edge_list("0\n").unwrap_err();
        assert!(e.to_string().contains("two endpoints"));
        let e = parse_edge_list("p 2 1\n0 5\n").unwrap_err();
        assert!(e.to_string().contains("exceeds"));
    }

    #[test]
    fn empty_input() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.n(), 0);
        let g = parse_edge_list("p 4 0\n").unwrap();
        assert_eq!(g.n(), 4);
    }

    #[test]
    fn ids_and_counts_beyond_u32_are_parse_errors() {
        for (text, line) in [
            ("0 18446744073709551615\n", 1),
            ("# big\n0 4000000000000\n", 2),
            ("0 1\np 18446744073709551615 1\n", 2),
            ("4294967295 1\n", 1),
            ("p 4294967296 0\n", 1),
        ] {
            match parse_edge_list(text) {
                Err(ReadError::Parse { line: l, message }) => {
                    assert_eq!(l, line, "{text:?}: {message}");
                    assert!(message.contains("out of range"), "{text:?}: {message}");
                }
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// The previous reader (`BufRead::lines`, one `String` per line, every
    /// line through the `&str` tokenizer) plus the `u32` id-space checks:
    /// the oracle for the byte-buffer reader.
    fn read_edge_list_by_lines<R: BufRead>(reader: R) -> Result<Graph, ReadError> {
        let mut declared_n: Option<usize> = None;
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut max_id = 0usize;
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            let lineno = idx + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with(['#', '%']) || trimmed.starts_with("c ") {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let first = parts.next().unwrap();
            if first == "p" {
                let n: usize = parts
                    .next()
                    .ok_or_else(|| parse_err(lineno, "header missing node count"))?
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad node count"))?;
                if n > MAX_NODES {
                    return Err(parse_err(
                        lineno,
                        &format!("node count {n} out of range (at most {MAX_NODES})"),
                    ));
                }
                declared_n = Some(n);
                continue;
            }
            let u: usize = first
                .parse()
                .map_err(|_| parse_err(lineno, &format!("bad node id {first:?}")))?;
            let v_str = parts
                .next()
                .ok_or_else(|| parse_err(lineno, "edge line needs two endpoints"))?;
            let v: usize = v_str
                .parse()
                .map_err(|_| parse_err(lineno, &format!("bad node id {v_str:?}")))?;
            if u == v {
                return Err(parse_err(lineno, &format!("self loop on node {u}")));
            }
            if u.max(v) >= MAX_NODES {
                return Err(parse_err(
                    lineno,
                    &format!(
                        "node id {} out of range (ids must be below {MAX_NODES})",
                        u.max(v)
                    ),
                ));
            }
            max_id = max_id.max(u).max(v);
            edges.push((u, v));
        }
        let n = match declared_n {
            Some(n) => {
                if !edges.is_empty() && max_id >= n {
                    return Err(parse_err(
                        0,
                        &format!("edge endpoint {max_id} exceeds declared node count {n}"),
                    ));
                }
                n
            }
            None => {
                if edges.is_empty() {
                    0
                } else {
                    max_id + 1
                }
            }
        };
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        Ok(b.build())
    }

    /// A random edge-list file mixing every dialect feature and error
    /// the reader must handle. Valid ids and header counts stay small so
    /// every accepted file builds a tiny graph.
    fn random_edge_file(rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        use rand::seq::SliceRandom;
        use rand::Rng;
        const IDS: &[&str] = &[
            "+5",
            "007",
            "0000000000000000000003",
            "1000000000000000000",
            "4294967295",
            "18446744073709551615",
            "99999999999999999999",
            "x",
            "-1",
            "1.5",
            "\u{663}",
        ];
        const GAPS: &[&str] = &[" ", "\t", "  ", " \t ", "\u{a0}", "\u{b}"];
        const COUNTS: &[&str] = &["4294967296", "18446744073709551615", "+9", "", "q"];
        let id = |rng: &mut rand::rngs::StdRng| -> String {
            if rng.gen_bool(0.85) {
                rng.gen_range(0..24usize).to_string()
            } else {
                IDS.choose(rng).unwrap().to_string()
            }
        };
        let mut out = Vec::new();
        let lines = rng.gen_range(0..16usize);
        for i in 0..lines {
            let gap = *GAPS.choose(rng).unwrap();
            match rng.gen_range(0..100u32) {
                0..=59 => {
                    let (u, v) = (id(rng), id(rng));
                    out.extend_from_slice(format!("{u}{gap}{v}").as_bytes());
                }
                60..=64 => {
                    let (u, v) = (id(rng), id(rng));
                    out.extend_from_slice(format!("{gap}{u} {v}{gap}extra").as_bytes());
                }
                65..=67 => out.extend_from_slice(id(rng).as_bytes()),
                68..=72 => out.extend_from_slice(b"# comment 1 2"),
                73..=74 => out.extend_from_slice(b"% 3 4"),
                75..=76 => out.extend_from_slice(b"c 5 6"),
                77 => out.push(b'c'),
                78..=83 => {
                    let count = if rng.gen_bool(0.7) {
                        rng.gen_range(0..30usize).to_string()
                    } else {
                        COUNTS.choose(rng).unwrap().to_string()
                    };
                    out.extend_from_slice(format!("p{gap}{count} 7").as_bytes());
                }
                84..=87 => out.extend_from_slice(gap.as_bytes()),
                88..=89 => out.extend_from_slice(b"\xff\xfe 1"),
                90..=91 => out.extend_from_slice(&[b'2', b' ', 0xc3]),
                _ => {}
            }
            if i + 1 < lines || rng.gen_bool(0.5) {
                out.extend_from_slice(if rng.gen_bool(0.3) { b"\r\n" } else { b"\n" });
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(3000))]

        #[test]
        fn byte_reader_matches_line_oracle(seed in 0u64..u64::MAX) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let text = random_edge_file(&mut rng);
            let got = read_edge_list(std::io::Cursor::new(&text));
            let want = read_edge_list_by_lines(std::io::Cursor::new(&text));
            let shown = String::from_utf8_lossy(&text);
            match (got, want) {
                (Ok(a), Ok(b)) => proptest::prop_assert!(a == b, "{shown:?}"),
                (Err(a), Err(b)) => {
                    let (a, b) = (a.to_string(), b.to_string());
                    proptest::prop_assert!(a == b, "{shown:?}: got {a}, oracle {b}");
                }
                (a, b) => proptest::prop_assert!(false, "{shown:?}: got {a:?}, oracle {b:?}"),
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = gen::forest_union(120, 2, &mut rng);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let g = gen::apollonian(80, &mut rng);
        let path = std::env::temp_dir().join("arbmis_io_test.txt");
        write_file(&g, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(g, back);
        let _ = std::fs::remove_file(path);
    }
}
