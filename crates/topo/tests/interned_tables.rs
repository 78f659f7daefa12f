//! The machine's interned routing tables against their closed forms, on
//! every generation the generator builds: `Topology::route` serves links
//! from a table built at construction, and the engine charges memory
//! latency from a per-(core, node) table built once per engine.

use corescope_machine::{Engine, LinkId, SocketId, Topology};
use corescope_topo::Generation;

/// The deterministic shortest route re-derived hop by hop from public
/// facts: from each socket, take the link to the lowest-numbered
/// neighbour one hop closer to `dst`. Breadth-first search over sorted
/// neighbour lists picks exactly that next hop.
fn hop_walk(topo: &Topology, src: SocketId, dst: SocketId) -> Vec<LinkId> {
    let mut route = Vec::new();
    let mut cur = src;
    while cur != dst {
        let link = (0..topo.num_links())
            .map(LinkId::new)
            .filter(|&l| topo.link_endpoints(l).0 == cur)
            .filter(|&l| topo.hops(topo.link_endpoints(l).1, dst) + 1 == topo.hops(cur, dst))
            .min_by_key(|&l| topo.link_endpoints(l).1)
            .expect("a shortest path always has a next hop");
        route.push(link);
        cur = topo.link_endpoints(link).1;
    }
    route
}

#[test]
fn interned_routes_equal_the_hop_walk_on_every_generation() {
    for generation in Generation::all() {
        let machine = generation.machine();
        let topo = machine.topology();
        for src in machine.sockets() {
            for dst in machine.sockets() {
                let interned = topo.route(src, dst).expect("sockets of one machine connect");
                assert_eq!(
                    interned,
                    &hop_walk(topo, src, dst)[..],
                    "{}: route {src} -> {dst}",
                    generation.key()
                );
            }
        }
        let outside = SocketId::new(machine.num_sockets());
        assert!(topo.route(SocketId::new(0), outside).is_err(), "{}", generation.key());
    }
}

#[test]
fn interned_latencies_equal_the_closed_form_on_every_generation() {
    for generation in Generation::all() {
        let machine = generation.machine();
        let engine = Engine::new(&machine);
        for core in machine.cores() {
            for node in machine.nodes() {
                assert_eq!(
                    engine.memory_latency(core, node).to_bits(),
                    machine.memory_latency(core, node).to_bits(),
                    "{}: {core} -> {node}",
                    generation.key()
                );
            }
        }
    }
}
