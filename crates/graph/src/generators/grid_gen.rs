//! Road-network-like grid generator.
//!
//! The paper's hardest shared-memory instances are road networks
//! (`roadNet-PA`, `roadNet-CA`, `dimacs9-NE`): sparse, near-planar, with
//! diameters in the hundreds to thousands (Table I). A rectangular grid with
//! a sprinkle of diagonal shortcuts reproduces all of those properties:
//! average degree ≈ 2–4, diameter ≈ rows + cols, and an enormous number of
//! tied shortest paths — which is exactly what makes road networks require
//! so many samples in Table II.

use crate::csr::{Graph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid parameters.
#[derive(Debug, Clone, Copy)]
pub struct GridConfig {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Probability of adding the "\" diagonal in each unit cell (road-like
    /// shortcut density; 0 gives a pure grid).
    pub diagonal_prob: f64,
    /// RNG seed (only used when `diagonal_prob > 0`).
    pub seed: u64,
}

/// Generates the grid graph; vertex `(r, c)` has id `r * cols + c`.
pub fn grid(cfg: GridConfig) -> Graph {
    assert!((0.0..=1.0).contains(&cfg.diagonal_prob), "diagonal_prob must be a probability");
    let n = cfg.rows * cfg.cols;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let id = |r: usize, c: usize| (r * cfg.cols + c) as NodeId;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            if c + 1 < cfg.cols {
                #[expect(
                    clippy::unwrap_used,
                    reason = "id(r, c) < rows·cols while the bounds check holds"
                )]
                b.add_edge(id(r, c), id(r, c + 1)).unwrap();
            }
            if r + 1 < cfg.rows {
                #[expect(
                    clippy::unwrap_used,
                    reason = "id(r, c) < rows·cols while the bounds check holds"
                )]
                b.add_edge(id(r, c), id(r + 1, c)).unwrap();
            }
            if r + 1 < cfg.rows && c + 1 < cfg.cols && rng.gen_bool(cfg.diagonal_prob) {
                #[expect(
                    clippy::unwrap_used,
                    reason = "id(r, c) < rows·cols while the bounds check holds"
                )]
                b.add_edge(id(r, c), id(r + 1, c + 1)).unwrap();
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diameter::diameter_brute_force;

    #[test]
    fn pure_grid_edge_count() {
        let g = grid(GridConfig { rows: 4, cols: 5, diagonal_prob: 0.0, seed: 0 });
        assert_eq!(g.num_nodes(), 20);
        // rows*(cols-1) horizontal + (rows-1)*cols vertical
        assert_eq!(g.num_edges(), 4 * 4 + 3 * 5);
    }

    #[test]
    fn grid_diameter_is_manhattan() {
        let g = grid(GridConfig { rows: 6, cols: 9, diagonal_prob: 0.0, seed: 0 });
        assert_eq!(diameter_brute_force(&g), 5 + 8);
    }

    #[test]
    fn diagonals_shorten_diagonal_routes() {
        // The "\" diagonals halve the (0,0) -> (9,9) distance but leave the
        // anti-diagonal corners (and hence the diameter) untouched.
        let plain = grid(GridConfig { rows: 10, cols: 10, diagonal_prob: 0.0, seed: 1 });
        let diag = grid(GridConfig { rows: 10, cols: 10, diagonal_prob: 1.0, seed: 1 });
        let corner = (10 * 10 - 1) as crate::csr::NodeId;
        assert_eq!(crate::bfs::hop_distance(&plain, 0, corner), Some(18));
        assert_eq!(crate::bfs::hop_distance(&diag, 0, corner), Some(9));
        assert_eq!(diameter_brute_force(&diag), 18);
    }

    #[test]
    fn single_row_is_a_path() {
        let g = grid(GridConfig { rows: 1, cols: 7, diagonal_prob: 0.0, seed: 0 });
        assert_eq!(g.num_edges(), 6);
        assert_eq!(diameter_brute_force(&g), 6);
    }

    #[test]
    fn single_cell() {
        let g = grid(GridConfig { rows: 1, cols: 1, diagonal_prob: 0.0, seed: 0 });
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn deterministic_with_diagonals() {
        let a = grid(GridConfig { rows: 8, cols: 8, diagonal_prob: 0.3, seed: 5 });
        let b = grid(GridConfig { rows: 8, cols: 8, diagonal_prob: 0.3, seed: 5 });
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_output() {
        let g = grid(GridConfig { rows: 12, cols: 3, diagonal_prob: 0.5, seed: 2 });
        assert!(g.check_canonical().is_ok());
    }

    #[test]
    fn average_degree_is_road_like() {
        let g = grid(GridConfig { rows: 50, cols: 50, diagonal_prob: 0.1, seed: 3 });
        let avg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(avg > 2.0 && avg < 5.0, "avg degree {avg} not road-like");
    }
}
