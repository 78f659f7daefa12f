//! Socket link graph with all-pairs shortest-path routing.
//!
//! The Opteron systems of the paper route memory and coherence traffic over
//! point-to-point HyperTransport links. The Iwill H8501 ("Longs") arranges
//! its eight sockets in a 2×4 **ladder**, so distant sockets are several
//! hops apart — the root cause of its NUMA sensitivity.

use crate::error::{Error, Result};
use crate::ids::{LinkId, SocketId};
use crate::spec::MachineSpec;
use std::collections::VecDeque;

/// Derived routing information for a machine's socket graph.
///
/// Routes are shortest paths computed with BFS from every socket; ties are
/// broken deterministically by lowest next-hop socket index so simulations
/// are reproducible.
#[derive(Debug, Clone)]
pub struct Topology {
    sockets: usize,
    /// Directed links: `links[l] = (from, to)`.
    links: Vec<(SocketId, SocketId)>,
    /// `link_index[from][to]` = directed link id for an adjacent pair.
    link_index: Vec<Vec<Option<LinkId>>>,
    /// `edge_of[l]` = index into the spec's edge list that produced
    /// directed link `l` (both directions map to the same edge).
    edge_of: Vec<usize>,
    /// `next_hop[src][dst]` = first socket on the route.
    next_hop: Vec<Vec<Option<SocketId>>>,
    /// `hops[src][dst]` = route length in links.
    hops: Vec<Vec<usize>>,
    diameter: usize,
    /// Every route's links back to back; the route from `src` to `dst`
    /// is `route_links[route_bounds[i]..route_bounds[i + 1]]` with
    /// `i = src * sockets + dst`.
    route_links: Vec<LinkId>,
    route_bounds: Vec<usize>,
}

impl Topology {
    /// Builds routing tables from a spec's edge list.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DisconnectedTopology`] if any socket is unreachable
    /// from socket 0.
    pub fn from_spec(spec: &MachineSpec) -> Result<Self> {
        let n = spec.sockets.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut links = Vec::new();
        let mut link_index = vec![vec![None; n]; n];
        let mut edge_of = Vec::new();
        for (ei, e) in spec.edges.iter().enumerate() {
            for (a, b) in [(e.a, e.b), (e.b, e.a)] {
                if link_index[a][b].is_none() {
                    let id = LinkId::new(links.len());
                    links.push((SocketId::new(a), SocketId::new(b)));
                    link_index[a][b] = Some(id);
                    edge_of.push(ei);
                    adj[a].push(b);
                }
            }
        }
        for neigh in &mut adj {
            neigh.sort_unstable();
        }

        let mut next_hop = vec![vec![None; n]; n];
        let mut hops = vec![vec![usize::MAX; n]; n];
        for src in 0..n {
            // BFS with deterministic neighbour order.
            let mut dist = vec![usize::MAX; n];
            let mut first = vec![None; n];
            dist[src] = 0;
            let mut queue = VecDeque::new();
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        first[v] = if u == src { Some(SocketId::new(v)) } else { first[u] };
                        queue.push_back(v);
                    }
                }
            }
            for dst in 0..n {
                if dist[dst] == usize::MAX {
                    return Err(Error::DisconnectedTopology { unreachable: dst });
                }
                hops[src][dst] = dist[dst];
                next_hop[src][dst] = first[dst];
            }
        }
        let diameter = hops.iter().flat_map(|row| row.iter().copied()).max().unwrap_or(0);
        let mut topo = Self {
            sockets: n,
            links,
            link_index,
            edge_of,
            next_hop,
            hops,
            diameter,
            route_links: Vec::new(),
            route_bounds: vec![0],
        };
        for src in 0..n {
            for dst in 0..n {
                let route = topo.walk_route(SocketId::new(src), SocketId::new(dst))?;
                topo.route_links.extend(route);
                topo.route_bounds.push(topo.route_links.len());
            }
        }
        Ok(topo)
    }

    /// Number of sockets in the graph.
    pub fn num_sockets(&self) -> usize {
        self.sockets
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Endpoints of a directed link.
    pub fn link_endpoints(&self, link: LinkId) -> (SocketId, SocketId) {
        self.links[link.index()]
    }

    /// Index into the spec's edge list that produced a directed link.
    /// Both directions of an edge map to the same index, so per-edge
    /// spec overrides apply symmetrically.
    pub fn edge_of(&self, link: LinkId) -> usize {
        self.edge_of[link.index()]
    }

    /// Shortest-path hop count between two sockets (0 when equal).
    pub fn hops(&self, src: SocketId, dst: SocketId) -> usize {
        self.hops[src.index()][dst.index()]
    }

    /// Longest shortest path in the graph.
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// The directed links along the deterministic shortest route from
    /// `src` to `dst` (empty when they are the same socket). Routes are
    /// walked once, at construction, and served from a table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] when `src` or `dst` is not a
    /// socket of this topology.
    pub fn route(&self, src: SocketId, dst: SocketId) -> Result<&[LinkId]> {
        let (s, d) = (src.index(), dst.index());
        if s >= self.sockets || d >= self.sockets {
            return Err(Error::Disconnected { src: s, dst: d });
        }
        let i = s * self.sockets + d;
        Ok(&self.route_links[self.route_bounds[i]..self.route_bounds[i + 1]])
    }

    /// Walks the next-hop table from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] if the routing tables have no path
    /// — unreachable after the connectivity check in
    /// [`Topology::from_spec`], but kept typed so malformed state
    /// degrades into an error instead of a panic.
    fn walk_route(&self, src: SocketId, dst: SocketId) -> Result<Vec<LinkId>> {
        let missing = || Error::Disconnected { src: src.index(), dst: dst.index() };
        let mut route = Vec::with_capacity(self.hops(src, dst));
        let mut cur = src;
        while cur != dst {
            let next = self.next_hop[cur.index()][dst.index()].ok_or_else(missing)?;
            let link = self.link_index[cur.index()][next.index()].ok_or_else(missing)?;
            route.push(link);
            cur = next;
        }
        Ok(route)
    }

    /// Average hop distance from a socket to all sockets (including
    /// itself), used by interleaved-memory cost estimates.
    pub fn mean_hops_from(&self, src: SocketId) -> f64 {
        let total: usize = self.hops[src.index()].iter().sum();
        total as f64 / self.sockets as f64
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.sockets == other.sockets && self.links == other.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

    fn topo(spec: MachineSpec) -> Topology {
        Topology::from_spec(&spec).expect("valid")
    }

    #[test]
    fn dual_socket_is_one_hop() {
        let t = topo(systems::dmz());
        assert_eq!(t.hops(SocketId::new(0), SocketId::new(1)), 1);
        assert_eq!(t.hops(SocketId::new(0), SocketId::new(0)), 0);
        assert_eq!(t.diameter(), 1);
        assert_eq!(t.num_links(), 2); // one edge, two directions
    }

    #[test]
    fn ladder_diameter_is_four() {
        // 4x2 ladder: corner-to-opposite-corner = 3 rungs + 1 rail = 4 hops.
        let t = topo(systems::longs());
        assert_eq!(t.num_sockets(), 8);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn routes_have_expected_length_and_connectivity() {
        let t = topo(systems::longs());
        for s in 0..8 {
            for d in 0..8 {
                let route = t.route(SocketId::new(s), SocketId::new(d)).expect("connected");
                assert_eq!(route.len(), t.hops(SocketId::new(s), SocketId::new(d)));
                // Route must be contiguous.
                let mut cur = SocketId::new(s);
                for l in route {
                    let (from, to) = t.link_endpoints(*l);
                    assert_eq!(from, cur);
                    cur = to;
                }
                assert_eq!(cur, SocketId::new(d));
            }
        }
    }

    #[test]
    fn hops_are_symmetric() {
        let t = topo(systems::longs());
        for s in 0..8 {
            for d in 0..8 {
                assert_eq!(
                    t.hops(SocketId::new(s), SocketId::new(d)),
                    t.hops(SocketId::new(d), SocketId::new(s))
                );
            }
        }
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let mut spec = systems::longs();
        // Remove every edge touching socket 7.
        spec.edges.retain(|e| e.a != 7 && e.b != 7);
        assert_eq!(Topology::from_spec(&spec), Err(Error::DisconnectedTopology { unreachable: 7 }));
    }

    #[test]
    fn both_directions_map_to_the_same_edge() {
        let spec = systems::longs();
        let t = topo(spec.clone());
        for l in 0..t.num_links() {
            let link = LinkId::new(l);
            let (from, to) = t.link_endpoints(link);
            let e = spec.edges[t.edge_of(link)];
            assert!(
                (e.a, e.b) == (from.index(), to.index())
                    || (e.a, e.b) == (to.index(), from.index())
            );
        }
    }

    #[test]
    fn mean_hops_center_less_than_corner() {
        let t = topo(systems::longs());
        // Socket 0 is a corner of the ladder; socket 2 is interior.
        assert!(t.mean_hops_from(SocketId::new(2)) < t.mean_hops_from(SocketId::new(0)));
    }
}
