//! Graph input/output.
//!
//! Two formats:
//!
//! * **Edge-list text** — the interchange format of SNAP/KONECT (the paper's
//!   instance sources): one `u v` pair per line, `#` or `%` comments. The
//!   parser auto-sizes the vertex count and normalizes via [`GraphBuilder`].
//! * **Binary CSR** — a compact little-endian dump of the canonical CSR
//!   arrays, used to cache generated instances between experiment runs
//!   (regenerating a 15M-edge hyperbolic graph costs far more than reading
//!   ~120 MB back). A cached file is not trusted: [`read_binary`] checks
//!   the offsets once they are read, runs the row step of the
//!   canonical-form check on each row as soon as its last target is
//!   decoded, while the row is still in cache, and then matches each
//!   undirected edge once, from its arc above the diagonal (DESIGN.md §11.7).

use crate::csr::{check_offsets, check_row, Graph, GraphBuilder, NodeId};
use crate::{GraphError, Result};
use bytes::{Buf, BufMut};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Magic header of the binary format ("KDBG" + version 1).
const MAGIC: [u8; 4] = *b"KDBG";
const VERSION: u32 = 1;

/// Bytes decoded per read of an array: a row of the target array longer
/// than `BLOCK_BYTES / 4` entries spans blocks.
const BLOCK_BYTES: usize = 1 << 16;

/// Parses an edge-list from a reader. Lines starting with `#` or `%` and
/// blank lines are skipped; each other line must hold two integers.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph> {
    read_edge_list_in(reader, &mut crate::csr::CsrArena::new())
}

/// Like [`read_edge_list`], building the CSR arrays in `arena`-recycled
/// buffers so repeated loads (e.g. an experiment sweep over instances)
/// allocate no fresh CSR storage once the arena is warm.
pub fn read_edge_list_in<R: Read>(reader: R, arena: &mut crate::csr::CsrArena) -> Result<Graph> {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut max_id: u64 = 0;
    let mut line_no = 0usize;
    let mut buf = String::new();
    let mut r = BufReader::new(reader);
    loop {
        buf.clear();
        line_no += 1;
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, line_no: usize| -> Result<u64> {
            tok.ok_or_else(|| GraphError::Parse {
                line: line_no,
                msg: "expected two vertex ids".into(),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse { line: line_no, msg: e.to_string() })
        };
        let u = parse(it.next(), line_no)?;
        let v = parse(it.next(), line_no)?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() { 0 } else { max_id + 1 };
    if n > NodeId::MAX as u64 {
        return Err(GraphError::TooManyVertices(n));
    }
    let mut b = GraphBuilder::with_capacity(n as usize, edges.len());
    for (u, v) in edges {
        b.add_edge(u as NodeId, v as NodeId)?;
    }
    Ok(b.build_in(arena))
}

/// Writes the graph as an edge list (one `u v` line per undirected edge).
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<()> {
    writeln!(writer, "# {} vertices, {} edges", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Serializes the graph into the binary CSR format.
pub fn write_binary<W: Write>(g: &Graph, mut writer: W) -> Result<()> {
    let (offsets, targets) = g.raw_parts();
    let mut header = Vec::with_capacity(24);
    header.put_slice(&MAGIC);
    header.put_u32_le(VERSION);
    header.put_u64_le(offsets.len() as u64 - 1);
    header.put_u64_le(targets.len() as u64);
    writer.write_all(&header)?;
    // Bulk little-endian dumps; chunked to keep memory bounded.
    let mut buf = Vec::with_capacity(1 << 16);
    for chunk in offsets.chunks(8192) {
        buf.clear();
        for &o in chunk {
            buf.put_u64_le(o);
        }
        writer.write_all(&buf)?;
    }
    for chunk in targets.chunks(16384) {
        buf.clear();
        for &t in chunk {
            buf.put_u32_le(t);
        }
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// `read_exact` for a file whose declared sizes are not trusted: running out
/// of bytes is corruption (a truncated cache file), not an IO failure.
fn read_exact_or_corrupt<R: Read>(reader: &mut R, buf: &mut [u8], what: &str) -> Result<()> {
    reader.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            GraphError::Corrupt(format!("file ends inside the {what}"))
        }
        _ => GraphError::Io(e),
    })
}

/// Reads `len` little-endian `W`-byte words into a vector in one pass,
/// through a fixed staging block, handing the words read so far to `landed`
/// after each block. `len` comes from the file header, so the reservation is
/// fallible rather than trusted.
fn read_le_words<R: Read, T, const W: usize>(
    reader: &mut R,
    len: usize,
    what: &str,
    decode: fn([u8; W]) -> T,
    mut landed: impl FnMut(&[T]) -> Result<()>,
) -> Result<Vec<T>> {
    let mut out = Vec::new();
    out.try_reserve_exact(len)
        .map_err(|_| GraphError::Corrupt(format!("cannot hold a {what} of {len} entries")))?;
    let mut block = [0u8; BLOCK_BYTES];
    while out.len() < len {
        let words = (len - out.len()).min(block.len() / W);
        let bytes = &mut block[..words * W];
        read_exact_or_corrupt(reader, bytes, what)?;
        out.extend(bytes.as_chunks::<W>().0.iter().map(|&w| decode(w)));
        landed(&out)?;
    }
    Ok(out)
}

/// Deserializes a graph from the binary CSR format, re-validating all
/// invariants (the file may come from an untrusted cache): the offsets as
/// soon as they are read, each row's range, order and self-loop checks as
/// soon as its last target is decoded, and symmetry in one pass over the
/// arcs above the diagonal at the end.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Graph> {
    let mut header = [0u8; 24];
    read_exact_or_corrupt(&mut reader, &mut header, "header")?;
    let mut h = &header[..];
    let mut magic = [0u8; 4];
    h.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(GraphError::Corrupt("bad magic".into()));
    }
    let version = h.get_u32_le();
    if version != VERSION {
        return Err(GraphError::Corrupt(format!("unsupported version {version}")));
    }
    let (n, m2) = (h.get_u64_le(), h.get_u64_le());
    if n > NodeId::MAX as u64 {
        return Err(GraphError::TooManyVertices(n));
    }
    let m2 = usize::try_from(m2)
        .map_err(|_| GraphError::Corrupt(format!("target count {m2} exceeds the address space")))?;
    let n = n as usize;
    let offsets =
        read_le_words(&mut reader, n + 1, "offset array", u64::from_le_bytes, |_| Ok(()))?;
    check_offsets(&offsets, m2).map_err(GraphError::Corrupt)?;
    let (mut next_row, mut above) = (0, 0);
    let targets = read_le_words(&mut reader, m2, "target array", u32::from_le_bytes, |landed| {
        while next_row < n && offsets[next_row + 1] as usize <= landed.len() {
            let row = &landed[offsets[next_row] as usize..offsets[next_row + 1] as usize];
            above += check_row(next_row, row, n).map_err(GraphError::Corrupt)?;
            next_row += 1;
        }
        Ok(())
    })?;
    Graph::from_row_checked_csr(offsets, targets, above).map_err(GraphError::Corrupt)
}

/// Reads a graph from a path, dispatching on the `.bin` extension.
pub fn read_path(path: &Path) -> Result<Graph> {
    let file = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "bin") {
        read_binary(BufReader::new(file))
    } else {
        read_edge_list(file)
    }
}

/// Writes a graph to a path, dispatching on the `.bin` extension.
pub fn write_path(g: &Graph, path: &Path) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let w = std::io::BufWriter::new(file);
    if path.extension().is_some_and(|e| e == "bin") {
        write_binary(g, w)
    } else {
        write_edge_list(g, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use crate::generators::{rmat, RmatConfig};

    #[test]
    fn edge_list_roundtrip() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_with_comments_and_blanks() {
        let text = "# comment\n% konect style\n\n0 1\n1 2\n\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_normalizes_duplicates() {
        let text = "0 1\n1 0\n0 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_list_parse_error_carries_line() {
        let text = "0 1\nnot numbers\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_missing_second_vertex() {
        let text = "0\n";
        assert!(matches!(read_edge_list(text.as_bytes()), Err(GraphError::Parse { line: 1, .. })));
    }

    /// The id `u32::MAX` would make 2^32 vertices, one more than `u32` ids
    /// can name.
    #[test]
    fn edge_list_rejects_the_id_u32_max() {
        let read = read_edge_list("0 4294967295\n".as_bytes());
        assert!(matches!(read, Err(GraphError::TooManyVertices(n)) if n == 1 << 32));
    }

    #[test]
    fn empty_edge_list() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn binary_roundtrip() {
        let g = rmat(RmatConfig::graph500(8, 4, 1));
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_empty() {
        let g = graph_from_edges(0, &[]);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap().num_nodes(), 0);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(2, &[(0, 1)]), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(3, &[(0, 1), (1, 2)]), &mut buf).unwrap();
        // Inside the target array, inside the offset array, inside the header.
        for keep in [buf.len() - 3, 24 + 8 + 1, 10] {
            let cut = &buf[..keep];
            assert!(matches!(read_binary(cut), Err(GraphError::Corrupt(_))), "kept {keep} bytes");
        }
    }

    /// The path 0-1-2 as a binary file with one target word overwritten:
    /// `targets` is `[1, 0, 2, 1]`, word `i` sits at byte `24 + 4·8 + 4·i`.
    fn path_file_with_target(i: usize, word: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(3, &[(0, 1), (1, 2)]), &mut buf).unwrap();
        let at = 24 + 4 * 8 + 4 * i;
        buf[at..at + 4].copy_from_slice(&word.to_le_bytes());
        buf
    }

    #[test]
    fn binary_rejects_non_canonical_adjacency() {
        let cases = [
            ("asymmetric", path_file_with_target(0, 2)), // 0→2 without 2→0
            ("unsorted", path_file_with_target(1, 2)),   // row 1 = [2, 2]
            ("self-loop", path_file_with_target(3, 2)),  // 2→2
        ];
        for (what, buf) in cases {
            assert!(matches!(read_binary(&buf[..]), Err(GraphError::Corrupt(_))), "{what}");
        }
        assert!(read_binary(&path_file_with_target(0, 1)[..]).is_ok(), "fixture is sound");
    }

    /// A star whose hub row is longer than one decode block: the row step
    /// runs on it once, when its last target lands in the second block. An
    /// out-of-range target just past the block boundary is caught there; a
    /// row step that skipped the hub's tail would leave it to index the
    /// reverse pass's cursors out of bounds.
    #[test]
    fn binary_checks_a_row_that_spans_decode_blocks() {
        let per_block = BLOCK_BYTES / 4;
        let leaves = per_block as NodeId + 3_616;
        let star: Vec<_> = (1..=leaves).map(|v| (0, v)).collect();
        let g = graph_from_edges(leaves as usize + 1, &star);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
        let at = 24 + 8 * (leaves as usize + 2) + 4 * per_block;
        buf[at..at + 4].copy_from_slice(&(leaves + 1).to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn binary_rejects_a_header_that_promises_more_than_memory() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(2, &[(0, 1)]), &mut buf).unwrap();
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn binary_rejects_out_of_range_target() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(2, &[(0, 1)]), &mut buf).unwrap();
        // Corrupt the final target to a huge id.
        let len = buf.len();
        buf[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn path_dispatch_roundtrip() {
        let dir = std::env::temp_dir().join("kadabra_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        for name in ["g.txt", "g.bin"] {
            let p = dir.join(name);
            write_path(&g, &p).unwrap();
            assert_eq!(read_path(&p).unwrap(), g);
            std::fs::remove_file(&p).unwrap();
        }
    }
}

/// Parses a *weighted* edge list: `u v w` per line (SNAP/DIMACS style),
/// `#`/`%` comments. Weights must be positive integers.
pub fn read_weighted_edge_list<R: Read>(reader: R) -> Result<crate::weighted::WeightedGraph> {
    let mut edges: Vec<(u64, u64, u32)> = Vec::new();
    let mut max_id: u64 = 0;
    let mut line_no = 0usize;
    let mut buf = String::new();
    let mut r = BufReader::new(reader);
    loop {
        buf.clear();
        line_no += 1;
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut field = |name: &str| -> Result<u64> {
            it.next()
                .ok_or_else(|| GraphError::Parse { line: line_no, msg: format!("missing {name}") })?
                .parse::<u64>()
                .map_err(|e| GraphError::Parse { line: line_no, msg: e.to_string() })
        };
        let u = field("source")?;
        let v = field("target")?;
        let w = field("weight")?;
        if w == 0 || w > u32::MAX as u64 {
            return Err(GraphError::Parse {
                line: line_no,
                msg: format!("weight {w} out of range 1..=u32::MAX"),
            });
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w as u32));
    }
    let n = if edges.is_empty() { 0 } else { max_id + 1 };
    if n > NodeId::MAX as u64 {
        return Err(GraphError::TooManyVertices(n));
    }
    let triples: Vec<(NodeId, NodeId, u32)> =
        edges.into_iter().map(|(u, v, w)| (u as NodeId, v as NodeId, w)).collect();
    Ok(crate::weighted::WeightedGraph::from_edges(n as usize, &triples))
}

/// Parses a *directed* arc list: `u v` per line interpreted as the arc
/// `u -> v` (no symmetrization), `#`/`%` comments.
pub fn read_arc_list<R: Read>(reader: R) -> Result<crate::digraph::DiGraph> {
    let mut arcs: Vec<(u64, u64)> = Vec::new();
    let mut max_id: u64 = 0;
    let mut line_no = 0usize;
    let mut buf = String::new();
    let mut r = BufReader::new(reader);
    loop {
        buf.clear();
        line_no += 1;
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut field = |name: &str| -> Result<u64> {
            it.next()
                .ok_or_else(|| GraphError::Parse { line: line_no, msg: format!("missing {name}") })?
                .parse::<u64>()
                .map_err(|e| GraphError::Parse { line: line_no, msg: e.to_string() })
        };
        let u = field("source")?;
        let v = field("target")?;
        max_id = max_id.max(u).max(v);
        arcs.push((u, v));
    }
    let n = if arcs.is_empty() { 0 } else { max_id + 1 };
    if n > NodeId::MAX as u64 {
        return Err(GraphError::TooManyVertices(n));
    }
    let pairs: Vec<(NodeId, NodeId)> =
        arcs.into_iter().map(|(u, v)| (u as NodeId, v as NodeId)).collect();
    Ok(crate::digraph::DiGraph::from_arcs(n as usize, &pairs))
}

#[cfg(test)]
mod variant_io_tests {
    use super::*;

    #[test]
    fn weighted_edge_list_parses() {
        let text = "# weighted\n0 1 5\n1 2 3\n";
        let g = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![(0, 5), (2, 3)]);
    }

    #[test]
    fn weighted_rejects_zero_weight() {
        assert!(matches!(
            read_weighted_edge_list("0 1 0\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn weighted_rejects_missing_weight() {
        assert!(matches!(
            read_weighted_edge_list("0 1\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn arc_list_preserves_orientation() {
        let text = "0 1\n1 2\n";
        let g = read_arc_list(text.as_bytes()).unwrap();
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(1, 0));
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn weighted_edge_list_rejects_the_id_u32_max() {
        let read = read_weighted_edge_list("0 4294967295 1\n".as_bytes());
        assert!(matches!(read, Err(GraphError::TooManyVertices(n)) if n == 1 << 32));
    }

    #[test]
    fn arc_list_rejects_the_id_u32_max() {
        let read = read_arc_list("0 4294967295\n".as_bytes());
        assert!(matches!(read, Err(GraphError::TooManyVertices(n)) if n == 1 << 32));
    }

    #[test]
    fn empty_variant_inputs() {
        assert_eq!(read_weighted_edge_list("".as_bytes()).unwrap().num_nodes(), 0);
        assert_eq!(read_arc_list("# none\n".as_bytes()).unwrap().num_nodes(), 0);
    }
}
