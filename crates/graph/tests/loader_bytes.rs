//! A binary file whose header promises more targets than the file holds is
//! rejected by `io::read_path` before anything of the promised size is
//! allocated: the declared sizes are held to the file's length first
//! (DESIGN.md §11.7).
//!
//! The counting allocator counts the whole process, so this binary holds one
//! test and nothing else runs beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_graph::io::read_path;
use kadabra_graph::GraphError;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_header_promising_more_targets_than_the_file_holds_allocates_none_of_them() {
    // Two vertices whose offsets promise 2^28 targets (1 GiB); three follow.
    let promised: u64 = 1 << 28;
    let mut bytes = b"KDBG".to_vec();
    bytes.extend(1u32.to_le_bytes());
    bytes.extend(2u64.to_le_bytes());
    bytes.extend(promised.to_le_bytes());
    for o in [0, promised / 2, promised] {
        bytes.extend(o.to_le_bytes());
    }
    for t in [1u32, 1, 1] {
        bytes.extend(t.to_le_bytes());
    }
    let path = std::env::temp_dir().join(format!("kadabra_promise_{}.bin", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();

    let before = ALLOC.counts();
    let read = read_path(&path);
    let heap = ALLOC.counts().since(&before);
    std::fs::remove_file(&path).unwrap();

    assert!(matches!(read, Err(GraphError::Corrupt(_))), "{read:?}");
    assert!(heap.bytes < 1 << 20, "requested {} B for a {} B promise", heap.bytes, 4 * promised);
}
