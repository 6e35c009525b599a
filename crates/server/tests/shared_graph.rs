//! Tenants on one graph share its prepared form (relabeled CSR,
//! permutation, diameter bound) and nothing else: a server with several
//! tenants on one graph must answer exactly as the same tenants would, each
//! on a server of its own.

use kadabra_graph::{Graph, NodeId};
use kadabra_server::testkit::{corpus_graph, tenant_config};
use kadabra_server::{QueryError, Server, ServerConfig, TenantConfig};
use std::sync::Arc;

const SEED: u64 = 31;

/// Refinement rounds run after the warm-up, before answers are compared.
const ROUNDS: u32 = 3;

fn server() -> Server {
    Server::new(ServerConfig { deterministic: true, background_refine: false })
}

/// Three provisionings: two static tenants at different seeds and a
/// dynamic one.
fn configs() -> [(&'static str, TenantConfig); 3] {
    [
        ("a", tenant_config(SEED)),
        ("b", tenant_config(SEED + 1)),
        ("c", TenantConfig { dynamic: true, ..tenant_config(SEED) }),
    ]
}

/// Every answer a tenant gives, as bits: each vertex's estimate and
/// interval, the full top-k list, and the estimate vector (or its error) at
/// every stage.
fn answers(s: &Server, name: &str) -> Vec<u64> {
    let c = s.client();
    let t = s.tenant(name).expect("resident");
    let n = t.num_vertices();
    let mut bits = Vec::new();
    for v in 0..n as NodeId {
        let e = c.vertex(name, v).expect("frontier published");
        bits.extend([e.estimate, e.lower, e.upper, e.eps].map(f64::to_bits));
        bits.extend([e.tau, e.round]);
    }
    let mut scratch = c.scratch(name).expect("resident");
    let mut top = Vec::new();
    let meta = c.topk_into(name, n, &mut scratch, &mut top).expect("frontier published");
    bits.extend([meta.eps.to_bits(), meta.tau, meta.round]);
    bits.extend(top.iter().flat_map(|&(v, score)| [u64::from(v), score.to_bits()]));
    let mut scores = Vec::new();
    for eps in t.schedule() {
        match c.estimate_into(name, eps, &mut scratch, &mut scores) {
            Ok(meta) => {
                bits.extend([meta.eps.to_bits(), meta.tau, meta.round]);
                bits.extend(scores.iter().map(|x| x.to_bits()));
            }
            Err(QueryError::NotReady { achieved }) => bits.push(achieved.to_bits()),
            Err(e) => panic!("unexpected stage error: {e}"),
        }
    }
    bits
}

fn refine(s: &Server, name: &str) {
    let t = s.tenant(name).expect("resident");
    match s.client().refine(name, t.floor_eps(), ROUNDS) {
        Ok(_) | Err(QueryError::NotReady { .. }) => {}
        Err(e) => panic!("refine {name}: {e}"),
    }
}

/// `name` provisioned with `cfg` on `g`, alone on a server of its own.
fn alone(name: &str, g: &Graph, cfg: &TenantConfig) -> Server {
    let s = server();
    s.add_tenant(name, g, cfg);
    s
}

fn rows(s: &Server, name: &str) -> *const NodeId {
    s.tenant(name).expect("resident").base_graph().neighbors(0).as_ptr()
}

/// Edges absent from `g`, enough of them to cross a dynamic tenant's
/// compaction threshold in one batch.
fn non_edges(g: &Graph, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as NodeId;
    let all = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    let missing: Vec<_> = all.filter(|&(u, v)| !g.has_edge(u, v)).take(count).collect();
    assert_eq!(missing.len(), count, "the fixture graph is too dense");
    missing
}

#[test]
fn tenants_on_one_graph_share_its_csr_and_answer_as_if_alone() {
    let g = corpus_graph(SEED);
    let shared = server();
    let mut refs = Vec::new();
    for (name, cfg) in configs() {
        shared.add_tenant(name, &g, &cfg);
        refs.push((name, alone(name, &g, &cfg)));
    }
    let prepared = Arc::clone(shared.tenant("a").expect("resident").prepared());
    for (name, reference) in &refs {
        let t = shared.tenant(name).expect("resident");
        assert!(Arc::ptr_eq(t.prepared(), &prepared), "{name}: a private prepared graph");
        assert_eq!(rows(&shared, name), prepared.graph().neighbors(0).as_ptr(), "{name}: rows");
        assert_ne!(rows(reference, name), rows(&shared, name), "separate servers share nothing");
    }
    for (name, reference) in &refs {
        refine(&shared, name);
        refine(reference, name);
        assert_eq!(answers(&shared, name), answers(reference, name), "{name}: answers diverged");
    }

    // The dynamic tenant crosses its compaction threshold (64 edits on a
    // graph this small) and gets a private base; its siblings keep the
    // shared one and their answers.
    let batch = non_edges(&g, 70);
    for s in [&shared, &refs[2].1] {
        let out = s.client().update("c", &batch, &[], ROUNDS).expect("valid batch");
        assert!(out.compacted, "70 edits must compact");
    }
    assert_ne!(rows(&shared, "c"), rows(&shared, "a"), "compaction detaches the base");
    for name in ["a", "b"] {
        assert_eq!(rows(&shared, name), prepared.graph().neighbors(0).as_ptr(), "{name}: rows");
    }
    for (name, reference) in &refs {
        refine(&shared, name);
        refine(reference, name);
        assert_eq!(answers(&shared, name), answers(reference, name), "{name}: after compaction");
    }
}

#[test]
fn clones_share_and_other_graphs_do_not() {
    let g = corpus_graph(SEED);
    let cfg = tenant_config(SEED);
    let s = server();
    s.add_tenant("original", &g, &cfg);
    let prepared = |name: &str| Arc::clone(s.tenant(name).expect("resident").prepared());
    // A clone is the same graph.
    s.add_tenant("clone", &g.clone(), &cfg);
    assert!(Arc::ptr_eq(&prepared("clone"), &prepared("original")));
    assert_eq!(rows(&s, "clone"), rows(&s, "original"));
    // A second construction of the same content is a different graph, and
    // so is one of different content.
    let twin = corpus_graph(SEED);
    let other = corpus_graph(SEED + 7);
    assert_eq!(twin, g);
    s.add_tenant("twin", &twin, &cfg);
    s.add_tenant("other", &other, &cfg);
    for name in ["twin", "other"] {
        assert!(!Arc::ptr_eq(&prepared(name), &prepared("original")), "{name} shares");
    }
    assert_ne!(rows(&s, "twin"), rows(&s, "original"));
    for (name, input) in [("original", &g), ("clone", &g), ("twin", &twin), ("other", &other)] {
        let reference = alone(name, input, &cfg);
        refine(&s, name);
        refine(&reference, name);
        assert_eq!(answers(&s, name), answers(&reference, name), "{name}: answers diverged");
    }
}

#[test]
fn concurrent_adds_on_one_graph_end_on_one_prepared_graph() {
    let g = corpus_graph(SEED);
    let s = server();
    std::thread::scope(|scope| {
        for name in ["x", "y", "z"] {
            let (s, g) = (&s, &g);
            scope.spawn(move || s.add_tenant(name, g, &tenant_config(SEED)));
        }
    });
    let x = s.tenant("x").expect("resident");
    for name in ["y", "z"] {
        assert!(Arc::ptr_eq(s.tenant(name).expect("resident").prepared(), x.prepared()));
    }
}
