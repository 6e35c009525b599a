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
//!   [`read_path`] does the same on every core: the decode and row step by
//!   row range, the matching by target range.

use crate::csr::{check_offsets, check_row, on_workers, Graph, GraphBuilder, NodeId};
use crate::hint::advise_huge_pages;
use crate::{GraphError, Result};
use bytes::{Buf, BufMut};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;

/// Magic header of the binary format ("KDBG" + version 1).
const MAGIC: [u8; 4] = *b"KDBG";
const VERSION: u32 = 1;
/// Bytes of the header: magic, version, vertex count, target count.
const HEADER_BYTES: u64 = 24;

/// Bytes decoded per read of an array: a row of the target array longer
/// than `BLOCK_BYTES / 4` entries spans blocks.
const BLOCK_BYTES: usize = 1 << 16;

/// Decode blocks per worker of [`read_path`]: one worker for each started
/// 4 MiB of targets. Below that, starting a thread and walking the rows a
/// second time cost what the split saves: the 1 MiB road grid of the
/// benchmark loaded slower on two workers than on one.
const WORKER_BLOCKS: usize = 64;

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

/// Reads and checks the header; returns the vertex count `n` and the target
/// count `m2` it declares.
fn read_header<R: Read>(reader: &mut R) -> Result<(usize, usize)> {
    let mut header = [0u8; HEADER_BYTES as usize];
    read_exact_or_corrupt(reader, &mut header, "header")?;
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
    Ok((n as usize, m2))
}

/// Reads the `n + 1` offsets through a fixed staging block and checks them
/// against the target count `m2`. `n` comes from the header, so the
/// reservation is fallible rather than trusted; it is advised for huge pages
/// before the first offset lands.
fn read_offsets<R: Read>(reader: &mut R, n: usize, m2: usize) -> Result<Vec<u64>> {
    let mut offsets = Vec::new();
    offsets.try_reserve_exact(n + 1).map_err(|_| {
        GraphError::Corrupt(format!("cannot hold an offset array of {} entries", n + 1))
    })?;
    advise_huge_pages(offsets.spare_capacity_mut());
    let mut block = [0u8; BLOCK_BYTES];
    while offsets.len() < n + 1 {
        let words = (n + 1 - offsets.len()).min(BLOCK_BYTES / 8);
        let bytes = &mut block[..8 * words];
        read_exact_or_corrupt(reader, bytes, "offset array")?;
        offsets.extend(bytes.as_chunks::<8>().0.iter().map(|&w| u64::from_le_bytes(w)));
    }
    check_offsets(&offsets, m2).map_err(GraphError::Corrupt)?;
    Ok(offsets)
}

/// A zeroed target array of `len` entries. `len` comes from the header, so
/// it is reserved fallibly first; the zeroed pages are then advised for huge
/// pages and committed only as decoding writes them.
fn zeroed_targets(len: usize) -> Result<Vec<NodeId>> {
    Vec::<NodeId>::new()
        .try_reserve_exact(len)
        .map_err(|_| GraphError::Corrupt(format!("cannot hold a target array of {len} entries")))?;
    let mut targets = vec![0; len];
    advise_huge_pages(&mut targets);
    Ok(targets)
}

/// Decodes the targets of `rows` from `reader`, positioned at the first of
/// them, into `out`, which holds exactly those rows' targets, one 64 KiB
/// block at a time. Each row gets the row step as soon as the block holding
/// its last target lands, while the row is still in cache. Returns the
/// rows' summed counts of targets above the diagonal and, if `below` is
/// given, stores each row's count below it there.
fn decode_rows<R: Read>(
    reader: &mut R,
    offsets: &[u64],
    rows: Range<usize>,
    out: &mut [NodeId],
    mut below: Option<&mut [u64]>,
) -> Result<usize> {
    let (n, base) = (offsets.len() - 1, offsets[rows.start] as usize);
    let mut block = [0u8; BLOCK_BYTES];
    let (mut landed, mut above) = (0, 0);
    for v in rows.clone() {
        let (lo, hi) = (offsets[v] as usize - base, offsets[v + 1] as usize - base);
        while landed < hi {
            let words = (out.len() - landed).min(BLOCK_BYTES / 4);
            let bytes = &mut block[..4 * words];
            read_exact_or_corrupt(reader, bytes, "target array")?;
            for (slot, w) in out[landed..landed + words].iter_mut().zip(bytes.as_chunks::<4>().0) {
                *slot = NodeId::from_le_bytes(*w);
            }
            landed += words;
        }
        let up = check_row(v, &out[lo..hi], n).map_err(GraphError::Corrupt)?;
        if let Some(below) = below.as_deref_mut() {
            below[v - rows.start] = (hi - lo - up) as u64;
        }
        above += up;
    }
    Ok(above)
}

/// Row boundaries `0 = c_0 ≤ … ≤ c_parts = n` that cut the rows, weighing
/// `weights` and `total` in all, into `parts` ranges of about equal weight:
/// `c_k` is the first row before which the weight reaches `k / parts` of the
/// total. Empty ranges are dropped, so consecutive cuts differ.
fn balanced_cuts(
    weights: impl ExactSizeIterator<Item = u64>,
    total: u64,
    parts: usize,
) -> Vec<usize> {
    let n = weights.len();
    let (mut cuts, mut before) = (vec![0], 0u64);
    for (r, w) in weights.enumerate() {
        // Cut k is due at r once before / total ≥ k / parts.
        while cuts.len() < parts
            && before as u128 * parts as u128 >= cuts.len() as u128 * total as u128
        {
            cuts.push(r);
        }
        before += w;
    }
    cuts.push(n);
    cuts.dedup();
    cuts
}

/// Deserializes a graph from the binary CSR format, re-validating all
/// invariants (the file may come from an untrusted cache): the offsets as
/// soon as they are read, each row's range, order and self-loop checks as
/// soon as its last target is decoded, and symmetry in one pass over the
/// arcs above the diagonal at the end. It decodes and checks on the calling
/// thread only; [`read_path`] splits a file's rows across cores.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Graph> {
    let (n, m2) = read_header(&mut reader)?;
    let offsets = read_offsets(&mut reader, n, m2)?;
    let mut targets = zeroed_targets(m2)?;
    let above = decode_rows(&mut reader, &offsets, 0..n, &mut targets, None)?;
    Graph::from_row_checked_csr(offsets, targets, above, &[0, n], &mut vec![0; n])
        .map_err(GraphError::Corrupt)
}

/// [`read_binary`] on a file, with the target array decoded and both steps
/// of the canonical-form check run on `workers` threads (DESIGN.md §11.7);
/// `None` takes min(`available_parallelism()`, one per started 4 MiB of
/// targets). It accepts and rejects exactly what [`read_binary`] does
/// on the same bytes, with the same error, except that declared sizes the
/// file cannot hold are found before anything of their size is allocated.
pub(crate) fn read_binary_file(path: &Path, workers: Option<usize>) -> Result<Graph> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let (n, m2) = read_header(&mut file)?;
    let targets_at = HEADER_BYTES + 8 * (n as u64 + 1);
    if targets_at > len {
        return Err(GraphError::Corrupt("file ends inside the offset array".into()));
    }
    let offsets = read_offsets(&mut file, n, m2)?;
    let held = usize::try_from((len - targets_at) / 4).unwrap_or(usize::MAX);
    if m2 > held {
        // Run the row step where the one-worker decode would before it ran
        // out: on the rows that end inside the whole blocks the file holds.
        let landed = held / (BLOCK_BYTES / 4) * (BLOCK_BYTES / 4);
        let rows = offsets.partition_point(|&o| o as usize <= landed) - 1;
        let mut targets = vec![0; offsets[rows] as usize];
        decode_rows(&mut file, &offsets, 0..rows, &mut targets, None)?;
        return Err(GraphError::Corrupt("file ends inside the target array".into()));
    }
    let workers = workers
        .unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            cores.min(m2.div_ceil(WORKER_BLOCKS * BLOCK_BYTES / 4))
        })
        .max(1);

    // Decode by row ranges of about equal arc counts, each through a file
    // handle of its own into its own slice of the one target array. With
    // several ranges each also notes its rows' counts below the diagonal in
    // the reverse pass's cursor array, which weighs the second split.
    let cuts = balanced_cuts(offsets.windows(2).map(|w| w[1] - w[0]), m2 as u64, workers);
    let several = cuts.len() > 2;
    let mut targets = zeroed_targets(m2)?;
    let mut cursor = vec![0u64; n];
    advise_huge_pages(&mut cursor);
    let (mut rest, mut cursor_rest) = (&mut targets[..], &mut cursor[..]);
    let mut jobs = Vec::new();
    for w in cuts.windows(2) {
        let arcs = (offsets[w[1]] - offsets[w[0]]) as usize;
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(arcs);
        let (below, cursor_tail) = std::mem::take(&mut cursor_rest).split_at_mut(w[1] - w[0]);
        (rest, cursor_rest) = (tail, cursor_tail);
        let offsets = &offsets;
        jobs.push(move || {
            let mut reader = File::open(path)?;
            reader.seek(SeekFrom::Start(targets_at + 4 * offsets[w[0]]))?;
            decode_rows(&mut reader, offsets, w[0]..w[1], out, several.then_some(below))
        });
    }
    let above = on_workers(jobs).into_iter().sum::<Result<usize>>()?;

    // Match by target ranges of about equal counts below the diagonal: the
    // arcs into a row match its entries below the diagonal.
    let cuts = if several {
        balanced_cuts(cursor.iter().copied(), (m2 - above) as u64, workers)
    } else {
        vec![0, n]
    };
    Graph::from_row_checked_csr(offsets, targets, above, &cuts, &mut cursor)
        .map_err(GraphError::Corrupt)
}

/// Reads a graph from a path, dispatching on the `.bin` extension. A binary
/// file is decoded and checked on up to `available_parallelism()` threads,
/// one per started 4 MiB of its target array at most.
pub fn read_path(path: &Path) -> Result<Graph> {
    if path.extension().is_some_and(|e| e == "bin") {
        read_binary_file(path, None)
    } else {
        read_edge_list(std::fs::File::open(path)?)
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

/// Loads `bytes` with [`read_binary`] from a stream, and with
/// [`read_binary_file`] from a temporary file at the host's worker count and
/// at 1, 2, 3 and 5 workers; panics unless every load returns the same graph
/// or the same error text, and returns the stream's.
#[cfg(test)]
pub(crate) fn load_at_every_width(bytes: &[u8]) -> Result<Graph> {
    let name = format!("kadabra_io_{}_{:?}.bin", std::process::id(), std::thread::current().id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, bytes).expect("writing a temporary file");
    let want = read_binary(std::io::Cursor::new(bytes));
    let loads: Vec<_> = [None, Some(1), Some(2), Some(3), Some(5)]
        .into_iter()
        .map(|workers| (workers, read_binary_file(&path, workers)))
        .collect();
    std::fs::remove_file(&path).expect("removing a temporary file");
    for (workers, got) in loads {
        let same = match (&got, &want) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        assert!(same, "{workers:?} workers read {got:?}, the stream {want:?}");
    }
    want
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use crate::generators::{rmat, RmatConfig};
    use proptest::prelude::*;

    const PER_BLOCK: usize = BLOCK_BYTES / 4;

    fn load(bytes: &[u8]) -> Result<Graph> {
        load_at_every_width(bytes)
    }

    fn bytes_of(g: &Graph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(g, &mut buf).unwrap();
        buf
    }

    /// The byte position of target word `i` in the file of a graph on `n`
    /// vertices.
    fn target_at(n: usize, i: usize) -> usize {
        HEADER_BYTES as usize + 8 * (n + 1) + 4 * i
    }

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
        let g2 = load(&buf).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_empty() {
        let g = graph_from_edges(0, &[]);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(load(&buf).unwrap().num_nodes(), 0);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(2, &[(0, 1)]), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(load(&buf), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(3, &[(0, 1), (1, 2)]), &mut buf).unwrap();
        // Inside the target array, inside the offset array, inside the header.
        for keep in [buf.len() - 3, 24 + 8 + 1, 10] {
            let cut = &buf[..keep];
            assert!(matches!(load(cut), Err(GraphError::Corrupt(_))), "kept {keep} bytes");
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
            assert!(matches!(load(&buf), Err(GraphError::Corrupt(_))), "{what}");
        }
        assert!(load(&path_file_with_target(0, 1)).is_ok(), "fixture is sound");
    }

    /// A star whose hub row is longer than one decode block: the row step
    /// runs on it once, when its last target lands in the second block. An
    /// out-of-range target just past the block boundary is caught there; a
    /// row step that skipped the hub's tail would leave it to index the
    /// reverse pass's cursors out of bounds.
    #[test]
    fn binary_checks_a_row_that_spans_decode_blocks() {
        let leaves = PER_BLOCK as NodeId + 3_616;
        let star: Vec<_> = (1..=leaves).map(|v| (0, v)).collect();
        let g = graph_from_edges(leaves as usize + 1, &star);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(load(&buf).unwrap(), g);
        let at = target_at(leaves as usize + 1, PER_BLOCK);
        buf[at..at + 4].copy_from_slice(&(leaves + 1).to_le_bytes());
        assert!(matches!(load(&buf), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn binary_rejects_a_header_that_promises_more_than_memory() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(2, &[(0, 1)]), &mut buf).unwrap();
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(load(&buf), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn binary_rejects_out_of_range_target() {
        let mut buf = Vec::new();
        write_binary(&graph_from_edges(2, &[(0, 1)]), &mut buf).unwrap();
        // Corrupt the final target to a huge id.
        let len = buf.len();
        buf[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(load(&buf), Err(GraphError::Corrupt(_))));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The file loader at the host's worker count and at 1, 2, 3 and 5
        /// workers returns what `read_binary` returns on a stream of the
        /// same bytes, the graph or the error with its text: on R-MAT files
        /// of up to eight decode blocks, sound, with one target or offset
        /// word overwritten, cut short, or both.
        #[test]
        fn cursor_check_on_workers_matches_the_stream(
            scale in 4u32..12,
            edge_factor in 1u32..17,
            seed in 0u64..1_000,
            (damage, at, word, keep) in (0u8..8, 0usize..1 << 20, 0u32..1 << 12, 0usize..1 << 20),
        ) {
            let g = rmat(RmatConfig::graph500(scale, edge_factor, seed));
            let (n, m2) = (g.num_nodes(), 2 * g.num_edges());
            let mut buf = bytes_of(&g);
            if damage & 1 != 0 && m2 > 0 {
                let i = target_at(n, at % m2);
                buf[i..i + 4].copy_from_slice(&(word % (n as u32 + 2)).to_le_bytes());
            }
            if damage & 2 != 0 {
                let i = HEADER_BYTES as usize + 8 * (at % (n + 1));
                let o = u64::from_le_bytes(buf[i..i + 8].try_into().unwrap());
                buf[i..i + 8].copy_from_slice(&(o ^ u64::from(word & 7)).to_le_bytes());
            }
            if damage & 4 != 0 {
                buf.truncate(keep % buf.len());
            }
            let loaded = load(&buf);
            if damage == 0 {
                prop_assert_eq!(loaded.unwrap(), g);
            }
        }
    }

    /// The decode ranges of `g` at `parts` workers.
    fn arc_cuts(g: &Graph, parts: usize) -> Vec<usize> {
        let (offsets, targets) = g.raw_parts();
        let lens = offsets.windows(2).map(|w| w[1] - w[0]);
        balanced_cuts(lens, targets.len() as u64, parts)
    }

    /// Range boundaries on an empty row, on the first of a run of empty
    /// rows, and beside a row longer than a decode block: the cuts fall
    /// there, and the file loads as the stream does, sound and with one
    /// target overwritten by each value in `0..n + 2`.
    #[test]
    fn range_boundaries_on_empty_rows_and_beside_a_long_row() {
        // Rows [1], [0], [], [4], [3]: the second range starts at row 2.
        let one_empty = graph_from_edges(5, &[(0, 1), (3, 4)]);
        assert_eq!(arc_cuts(&one_empty, 2), [0, 2, 5]);
        // Rows [1], [0], [], [], [], [], [7], [6]: the second range starts
        // with four empty rows.
        let empty_run = graph_from_edges(8, &[(0, 1), (6, 7)]);
        assert_eq!(arc_cuts(&empty_run, 2), [0, 2, 8]);
        assert_eq!(arc_cuts(&empty_run, 3), [0, 2, 7, 8]);
        for g in [one_empty, empty_run] {
            let (n, m2) = (g.num_nodes(), 2 * g.num_edges());
            assert_eq!(load(&bytes_of(&g)).unwrap(), g);
            for i in 0..m2 {
                for word in 0..n as u32 + 2 {
                    let mut buf = bytes_of(&g);
                    buf[target_at(n, i)..][..4].copy_from_slice(&word.to_le_bytes());
                    let _ = load(&buf);
                }
            }
        }
        // A hub row of a block and a half, then one row per leaf: the
        // second of two ranges starts right after the hub.
        let leaves = PER_BLOCK as NodeId * 3 / 2;
        let star: Vec<_> = (1..=leaves).map(|v| (0, v)).collect();
        let g = graph_from_edges(leaves as usize + 1, &star);
        assert_eq!(arc_cuts(&g, 2), [0, 1, leaves as usize + 1]);
        let n = g.num_nodes();
        assert_eq!(load(&bytes_of(&g)).unwrap(), g);
        for (i, word) in [
            (PER_BLOCK, 0u32),
            (leaves as usize - 1, 3),
            (leaves as usize, 2),
            (2 * leaves as usize - 1, 1),
        ] {
            let mut buf = bytes_of(&g);
            buf[target_at(n, i)..][..4].copy_from_slice(&word.to_le_bytes());
            assert!(matches!(load(&buf), Err(GraphError::Corrupt(_))), "target {i} := {word}");
        }
    }

    /// A file cut short in its third decode block, with a row of its
    /// first block out of order: every width reports that row, as the
    /// stream does, before it reports the missing bytes; with the row sound
    /// it reports the missing bytes.
    #[test]
    fn a_short_file_reports_a_bad_row_in_the_blocks_it_holds_first() {
        let g = rmat(RmatConfig::graph500(11, 16, 7));
        let (n, m2) = (g.num_nodes(), 2 * g.num_edges());
        assert!(m2 > 2 * PER_BLOCK + 5, "{m2} targets");
        let mut buf = bytes_of(&g);
        buf.truncate(target_at(n, 2 * PER_BLOCK + 5));
        let short = load(&buf).unwrap_err().to_string();
        assert!(short.ends_with("file ends inside the target array"), "{short}");
        let (offsets, _) = g.raw_parts();
        let v = (0..n).find(|&v| offsets[v + 1] - offsets[v] >= 2).unwrap();
        buf[target_at(n, offsets[v] as usize)..][..4]
            .copy_from_slice(&(n as u32 - 1).to_le_bytes());
        let bad_row = load(&buf).unwrap_err().to_string();
        assert!(bad_row.contains(&format!("vertex {v} ")), "{bad_row}");
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
