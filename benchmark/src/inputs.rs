//! Workload inputs: the graph each workload is timed on, materialised once as
//! a binary CSR file and verified on every load, and the small graph its
//! driver is checked on against Brandes.
//!
//! The timed graph of a family is a **fixed dataset**, as the paper's
//! instances are: its generator seed derives from the family alone. What
//! `--seed` drives is everything random a run consumes — the drivers' RNG
//! streams, the read targets, the update batches — and the small graph of
//! the Brandes check. Measured here (README.md, "Inputs"): with a graph per
//! seed `samples_per_s` spread by 8–10 % over ten seeds on a quiet machine,
//! on one graph by 2–5 %; a bound that must catch a change to the program
//! cannot spend a third of itself on which graph the generator happened to
//! draw.
//!
//! A cached file is used only if its sidecar names the same length and
//! FNV-1a hash as the bytes on disk; anything else (truncated, stale, or a
//! file some other experiment left in the directory) is regenerated.
//! Generation runs in a child process so that its transient edge list never
//! shows in the workload's `peak_rss_mib`.

use crate::stats::{derive_seed, fnv1a, FNV_START};
use kadabra_graph::components::largest_component;
use kadabra_graph::generators::{grid, rmat, GridConfig, RmatConfig};
use kadabra_graph::{io, Graph};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bumped whenever a family's generator parameters change, so files of an
/// older layout are never matched by name.
const CACHE_VERSION: u32 = 2;

/// The seed every dataset derives from.
const DATASET_SEED: u64 = 1;

/// A generator family; an instance is fixed by the family and a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// R-MAT with the Graph500 parameters, edge factor 16, largest component
    /// — the paper's complex-network class.
    Rmat {
        /// log2 of the vertex count before taking the largest component.
        scale: u32,
    },
    /// `side × side` grid with 5 % random diagonals — the paper's road class:
    /// high diameter, degree ≤ 8.
    Grid {
        /// Rows and columns.
        side: usize,
    },
}

impl Family {
    /// Name used for seed derivation and cache files.
    pub fn label(&self) -> String {
        match self {
            Family::Rmat { scale } => format!("rmat-s{scale}-ef16"),
            Family::Grid { side } => format!("grid-{side}x{side}-d05"),
        }
    }

    /// Parses what [`Family::label`] prints.
    pub fn parse(label: &str) -> Option<Family> {
        if let Some(rest) = label.strip_prefix("rmat-s") {
            return Some(Family::Rmat { scale: rest.strip_suffix("-ef16")?.parse().ok()? });
        }
        let rest = label.strip_prefix("grid-")?.strip_suffix("-d05")?;
        let (a, b) = rest.split_once('x')?;
        (a == b).then_some(Family::Grid { side: a.parse().ok()? })
    }

    /// The family's dataset: the instance every run is timed on.
    pub fn dataset(&self) -> Graph {
        self.generate(DATASET_SEED)
    }

    /// The instance for `bench_seed`: its largest connected component.
    pub fn generate(&self, bench_seed: u64) -> Graph {
        let seed = derive_seed(bench_seed, &self.label(), 0);
        let g = match *self {
            Family::Rmat { scale } => rmat(RmatConfig::graph500(scale, 16, seed)),
            Family::Grid { side } => {
                grid(GridConfig { rows: side, cols: side, diagonal_prob: 0.05, seed })
            }
        };
        largest_component(&g).0
    }
}

/// A verified input file.
#[derive(Debug, Clone)]
pub struct Input {
    /// The `.bin` file `io::read_path` loads.
    pub path: PathBuf,
    /// Seconds spent generating it in this run (0 on a cache hit).
    pub generate_s: f64,
}

/// Length and FNV-1a hash of the file, streamed so that checking a large
/// input never holds it in memory.
fn digest(path: &Path) -> std::io::Result<(u64, u64)> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let (mut len, mut h) = (0u64, FNV_START);
    loop {
        let got = file.read(&mut buf)?;
        if got == 0 {
            return Ok((len, h));
        }
        len += got as u64;
        h = fnv1a(h, &buf[..got]);
    }
}

fn sidecar_of(path: &Path) -> PathBuf {
    path.with_extension("meta")
}

fn sidecar_line((len, fnv): (u64, u64)) -> String {
    format!("len={len} fnv1a={fnv:016x}\n")
}

/// True iff `path` and its sidecar both exist and agree.
pub fn verified(path: &Path) -> bool {
    let (Ok(digest), Ok(meta)) = (digest(path), std::fs::read_to_string(sidecar_of(path))) else {
        return false;
    };
    meta == sidecar_line(digest)
}

/// Generates the dataset and writes file and sidecar (the sidecar last, so
/// an interrupted write leaves nothing that verifies).
pub fn write_dataset(family: Family, path: &Path) -> std::io::Result<()> {
    let g = family.dataset();
    let _ = std::fs::remove_file(sidecar_of(path));
    io::write_path(&g, path).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(sidecar_of(path), sidecar_line(digest(path)?))
}

/// Where the dataset of `family` lives under `dir`.
pub fn dataset_path(dir: &Path, family: Family) -> PathBuf {
    dir.join(format!("v{CACHE_VERSION}-{}.bin", family.label()))
}

/// Returns the verified dataset file, generating it first if needed — in a
/// child process (`<exe> generate <label> <path>`) when `exe` is given, in
/// this process otherwise (tests, which run tiny instances).
pub fn ensure(dir: &Path, family: Family, exe: Option<&Path>) -> std::io::Result<Input> {
    std::fs::create_dir_all(dir)?;
    let path = dataset_path(dir, family);
    if verified(&path) {
        return Ok(Input { path, generate_s: 0.0 });
    }
    let t = Instant::now();
    match exe {
        Some(exe) => {
            let status = std::process::Command::new(exe)
                .arg("generate")
                .arg(family.label())
                .arg(&path)
                .status()?;
            if !status.success() {
                return Err(std::io::Error::other(format!("input generator exited with {status}")));
            }
        }
        None => write_dataset(family, &path)?,
    }
    if !verified(&path) {
        return Err(std::io::Error::other(format!("{} does not verify", path.display())));
    }
    Ok(Input { path, generate_s: t.elapsed().as_secs_f64() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from("target/test-scratch").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn labels_round_trip() {
        for f in [Family::Rmat { scale: 18 }, Family::Grid { side: 160 }] {
            assert_eq!(Family::parse(&f.label()), Some(f));
        }
        assert_eq!(Family::parse("grid-3x4-d05"), None);
        assert_eq!(Family::parse("rmat-16-16-5"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_instance_and_another_seed_another() {
        let f = Family::Rmat { scale: 8 };
        assert_eq!(f.generate(3), f.generate(3));
        assert_ne!(f.generate(3), f.generate(4));
        assert_eq!(f.dataset(), f.dataset());
    }

    #[test]
    fn a_truncated_or_stale_file_is_regenerated_and_strangers_are_ignored() {
        let dir = scratch("cache");
        let f = Family::Grid { side: 12 };
        let first = ensure(&dir, f, None).expect("generate");
        assert!(first.generate_s > 0.0);
        let good = std::fs::read(&first.path).expect("read");
        assert_eq!(ensure(&dir, f, None).expect("hit").generate_s, 0.0);

        // Truncated: the sidecar no longer matches.
        std::fs::write(&first.path, &good[..good.len() / 2]).expect("truncate");
        assert!(!verified(&first.path));
        assert!(ensure(&dir, f, None).expect("regenerate").generate_s > 0.0);
        assert_eq!(std::fs::read(&first.path).expect("read"), good);

        // Same length, different bytes (stale content under the same name).
        let mut stale = good.clone();
        *stale.last_mut().expect("non-empty") ^= 1;
        std::fs::write(&first.path, &stale).expect("stale");
        assert!(ensure(&dir, f, None).expect("regenerate").generate_s > 0.0);

        // A file another experiment left behind has no sidecar and another
        // name: it is neither used nor touched.
        let stranger = dir.join("grid-12-709.bin");
        std::fs::write(&stranger, b"junk").expect("stranger");
        assert_eq!(ensure(&dir, f, None).expect("hit").generate_s, 0.0);
        assert_eq!(std::fs::read(&stranger).expect("read"), b"junk");
    }
}
