//! Table-based routing.
//!
//! The SeaStar routers are *table-based*: each router holds a per-
//! destination output-port table, giving a **fixed path** between every
//! pair of nodes and therefore in-order delivery (paper §2). The table
//! contents are pure dimension-order routing (X, then Y, then Z), so the
//! simulator evaluates the table entry for `(src, dst)` on demand instead
//! of materializing the O(nodes²) port matrix — at the full 10,368-node
//! Red Storm shape the explicit matrix is >100 M entries, all derivable
//! from two coordinates. The lookup function is exactly the generator
//! that would have filled the table, so every path, hop count and
//! delivery order is identical to the literal-table implementation.

use crate::coord::{Coord, Dims, NodeId, Port};

/// Per-node routing tables for an entire machine (evaluated on demand;
/// see the module docs).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    dims: Dims,
}

impl RoutingTable {
    /// Build dimension-order routing tables for `dims`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is disconnected for some pair (cannot happen for
    /// meshes/tori with all extents ≥ 1).
    pub fn build(dims: Dims) -> Self {
        RoutingTable { dims }
    }

    fn compute_port(dims: Dims, src: Coord, dst: Coord) -> Port {
        // Dimension order: resolve X first, then Y, then Z.
        let dx = Dims::delta(src.x, dst.x, dims.nx, dims.wrap_x);
        if dx != 0 {
            return if dx > 0 { Port::XPlus } else { Port::XMinus };
        }
        let dy = Dims::delta(src.y, dst.y, dims.ny, dims.wrap_y);
        if dy != 0 {
            return if dy > 0 { Port::YPlus } else { Port::YMinus };
        }
        let dz = Dims::delta(src.z, dst.z, dims.nz, dims.wrap_z);
        if dz != 0 {
            return if dz > 0 { Port::ZPlus } else { Port::ZMinus };
        }
        Port::Host
    }

    /// The machine shape this table was built for.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Output port at `at` for traffic destined to `dst`.
    pub fn next_port(&self, at: NodeId, dst: NodeId) -> Port {
        Self::compute_port(self.dims, self.dims.coord_of(at), self.dims.coord_of(dst))
    }

    /// The full fixed path from `src` to `dst` as a list of `(node, port)`
    /// traversals; empty when `src == dst`.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<(NodeId, Port)> {
        self.path_iter(src, dst).collect()
    }

    /// Walk the fixed path from `src` to `dst` lazily — the fabric's
    /// per-message hot path iterates hops without building a `Vec`.
    pub fn path_iter(&self, src: NodeId, dst: NodeId) -> PathIter<'_> {
        PathIter {
            routes: self,
            at: src,
            dst,
            steps: 0,
        }
    }

    /// Number of network hops between two nodes.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> u32 {
        let (sc, dc) = (self.dims.coord_of(src), self.dims.coord_of(dst));
        let d = self.dims;
        Dims::delta(sc.x, dc.x, d.nx, d.wrap_x).unsigned_abs()
            + Dims::delta(sc.y, dc.y, d.ny, d.wrap_y).unsigned_abs()
            + Dims::delta(sc.z, dc.z, d.nz, d.wrap_z).unsigned_abs()
    }

    /// The maximum hop count over all node pairs (network diameter).
    pub fn diameter(&self) -> u32 {
        let d = self.dims;
        let span = |extent: u16, wrap: bool| -> u32 {
            if extent <= 1 {
                0
            } else if wrap {
                (extent / 2) as u32
            } else {
                (extent - 1) as u32
            }
        };
        span(d.nx, d.wrap_x) + span(d.ny, d.wrap_y) + span(d.nz, d.wrap_z)
    }
}

/// Lazy walker over a fixed route; see [`RoutingTable::path_iter`].
pub struct PathIter<'a> {
    routes: &'a RoutingTable,
    at: NodeId,
    dst: NodeId,
    steps: u32,
}

impl Iterator for PathIter<'_> {
    type Item = (NodeId, Port);

    fn next(&mut self) -> Option<(NodeId, Port)> {
        if self.at == self.dst {
            return None;
        }
        let port = self.routes.next_port(self.at, self.dst);
        debug_assert_ne!(port, Port::Host, "premature host port on path");
        let next = self
            .routes
            .dims
            .neighbor(self.routes.dims.coord_of(self.at), port)
            .expect("routing table pointed at a missing link");
        let hop = (self.at, port);
        self.at = self.routes.dims.id_of(next);
        self.steps += 1;
        debug_assert!(
            self.steps <= self.routes.dims.node_count(),
            "routing loop towards {}",
            self.dst
        );
        Some(hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_route_is_host_port() {
        let rt = RoutingTable::build(Dims::torus(3, 3, 3));
        for id in rt.dims().iter_ids() {
            assert_eq!(rt.next_port(id, id), Port::Host);
            assert!(rt.path(id, id).is_empty());
        }
    }

    #[test]
    fn path_length_matches_hop_count() {
        let dims = Dims::red_storm(4, 3, 5);
        let rt = RoutingTable::build(dims);
        for src in dims.iter_ids() {
            for dst in dims.iter_ids() {
                assert_eq!(
                    rt.path(src, dst).len() as u32,
                    rt.hop_count(src, dst),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn dimension_order_resolves_x_first() {
        let dims = Dims::mesh(4, 4, 4);
        let rt = RoutingTable::build(dims);
        let src = dims.id_of(Coord::new(0, 0, 0));
        let dst = dims.id_of(Coord::new(2, 2, 0));
        let path = rt.path(src, dst);
        let ports: Vec<Port> = path.iter().map(|&(_, p)| p).collect();
        assert_eq!(
            ports,
            vec![Port::XPlus, Port::XPlus, Port::YPlus, Port::YPlus]
        );
    }

    #[test]
    fn torus_takes_short_way() {
        let dims = Dims::torus(8, 1, 1);
        let rt = RoutingTable::build(dims);
        let src = dims.id_of(Coord::new(0, 0, 0));
        let dst = dims.id_of(Coord::new(7, 0, 0));
        assert_eq!(rt.hop_count(src, dst), 1);
        assert_eq!(rt.next_port(src, dst), Port::XMinus);
    }

    #[test]
    fn mesh_takes_long_way() {
        let dims = Dims::mesh(8, 1, 1);
        let rt = RoutingTable::build(dims);
        let src = dims.id_of(Coord::new(0, 0, 0));
        let dst = dims.id_of(Coord::new(7, 0, 0));
        assert_eq!(rt.hop_count(src, dst), 7);
    }

    #[test]
    fn diameter() {
        assert_eq!(RoutingTable::build(Dims::torus(8, 8, 8)).diameter(), 12);
        assert_eq!(RoutingTable::build(Dims::mesh(8, 8, 8)).diameter(), 21);
        assert_eq!(RoutingTable::build(Dims::red_storm(8, 8, 8)).diameter(), 18);
    }

    #[test]
    fn fixed_paths_are_consistent_with_tables() {
        // Every hop of a path must agree with the per-node table (this is
        // what gives the hardware in-order delivery).
        let dims = Dims::red_storm(3, 3, 4);
        let rt = RoutingTable::build(dims);
        let src = NodeId(0);
        let dst = NodeId(dims.node_count() - 1);
        for (node, port) in rt.path(src, dst) {
            assert_eq!(rt.next_port(node, dst), port);
        }
    }
}
