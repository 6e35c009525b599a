//! Tenants on one graph share its prepared form (DESIGN.md §13.5): the
//! second and third `Server::add_tenant` on a graph must not relabel it
//! again. This test registers a counting global allocator and holds each
//! later tenant to at most the first tenant's heap bytes less the relabeled
//! CSR's, which a tenant that prepared a graph of its own would exceed.
//!
//! The counting allocator counts the whole process, so this binary holds one
//! test and nothing else runs beside it.

use kadabra_alloctrack::CountingAlloc;
use kadabra_server::testkit::{corpus_graph, tenant_config, TENANT};
use kadabra_server::{Server, ServerConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn later_tenants_on_one_graph_request_less_than_its_relabeled_csr() {
    let seed = 42;
    let server = Server::new(ServerConfig { deterministic: true, background_refine: false });
    let g = corpus_graph(seed);
    let add = |name: &str| {
        let before = ALLOC.counts();
        server.add_tenant(name, &g, &tenant_config(seed));
        ALLOC.counts().since(&before).bytes
    };
    let first = add(TENANT);
    let later = ["gnm-2", "gnm-3"].map(add);
    let tenant = server.tenant(TENANT).expect("resident");
    let csr = tenant.prepared().graph().memory_bytes() as u64;
    assert!(csr > 0);
    for (name, bytes) in ["gnm-2", "gnm-3"].into_iter().zip(later) {
        assert!(
            bytes + csr <= first,
            "tenant {name:?} requested {bytes} B on an already prepared graph, more than the \
             first tenant's {first} B less the {csr} B relabeled CSR"
        );
    }
}
