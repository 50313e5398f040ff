//! Coordinates, node identifiers, and machine shape.

use std::fmt;

/// A node's logical identifier (the Portals "nid").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A position in the 3-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// X position.
    pub x: u16,
    /// Y position.
    pub y: u16,
    /// Z position.
    pub z: u16,
}

impl Coord {
    /// Construct a coordinate.
    pub fn new(x: u16, y: u16, z: u16) -> Self {
        Coord { x, y, z }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// A router output port: six network directions plus the host interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// +X neighbor.
    XPlus,
    /// -X neighbor.
    XMinus,
    /// +Y neighbor.
    YPlus,
    /// -Y neighbor.
    YMinus,
    /// +Z neighbor.
    ZPlus,
    /// -Z neighbor.
    ZMinus,
    /// Deliver to the local node (HyperTransport cave).
    Host,
}

impl Port {
    /// All six network ports, in table order.
    pub const NETWORK_PORTS: [Port; 6] = [
        Port::XPlus,
        Port::XMinus,
        Port::YPlus,
        Port::YMinus,
        Port::ZPlus,
        Port::ZMinus,
    ];

    /// Dense index for array-backed per-port state (Host = 6).
    pub fn index(self) -> usize {
        match self {
            Port::XPlus => 0,
            Port::XMinus => 1,
            Port::YPlus => 2,
            Port::YMinus => 3,
            Port::ZPlus => 4,
            Port::ZMinus => 5,
            Port::Host => 6,
        }
    }
}

/// Machine shape: extents per dimension plus which dimensions wrap.
///
/// The commercial XT3 is a full 3-D torus; Red Storm's
/// classified/unclassified switching cabinets restrict the torus to the Z
/// dimension only (paper §5.1), so `wrap = (false, false, true)` for the
/// machine the paper measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Nodes in X.
    pub nx: u16,
    /// Nodes in Y.
    pub ny: u16,
    /// Nodes in Z.
    pub nz: u16,
    /// Whether X wraps (torus) or not (mesh).
    pub wrap_x: bool,
    /// Whether Y wraps.
    pub wrap_y: bool,
    /// Whether Z wraps.
    pub wrap_z: bool,
}

impl Dims {
    /// A full torus of the given extents (commercial XT3).
    pub fn torus(nx: u16, ny: u16, nz: u16) -> Self {
        Dims {
            nx,
            ny,
            nz,
            wrap_x: true,
            wrap_y: true,
            wrap_z: true,
        }
    }

    /// A pure mesh (no wraparound).
    pub fn mesh(nx: u16, ny: u16, nz: u16) -> Self {
        Dims {
            nx,
            ny,
            nz,
            wrap_x: false,
            wrap_y: false,
            wrap_z: false,
        }
    }

    /// Red Storm's shape: mesh in X and Y, torus in Z (paper §5.1).
    pub fn red_storm(nx: u16, ny: u16, nz: u16) -> Self {
        Dims {
            nx,
            ny,
            nz,
            wrap_x: false,
            wrap_y: false,
            wrap_z: true,
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> u32 {
        self.nx as u32 * self.ny as u32 * self.nz as u32
    }

    /// Node id for a coordinate (x fastest, z slowest).
    pub fn id_of(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.nx && c.y < self.ny && c.z < self.nz);
        NodeId(c.x as u32 + self.nx as u32 * (c.y as u32 + self.ny as u32 * c.z as u32))
    }

    /// Coordinate for a node id.
    pub fn coord_of(&self, id: NodeId) -> Coord {
        debug_assert!(id.0 < self.node_count());
        let x = (id.0 % self.nx as u32) as u16;
        let rest = id.0 / self.nx as u32;
        let y = (rest % self.ny as u32) as u16;
        let z = (rest / self.ny as u32) as u16;
        Coord { x, y, z }
    }

    /// Iterate all node ids.
    pub fn iter_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }

    /// The neighbor of `c` through network port `p`, if the link exists
    /// (mesh edges have no neighbor in the outward direction).
    pub fn neighbor(&self, c: Coord, p: Port) -> Option<Coord> {
        let step = |pos: u16, extent: u16, wrap: bool, up: bool| -> Option<u16> {
            if extent == 1 {
                return None;
            }
            if up {
                if pos + 1 < extent {
                    Some(pos + 1)
                } else if wrap {
                    Some(0)
                } else {
                    None
                }
            } else if pos > 0 {
                Some(pos - 1)
            } else if wrap {
                Some(extent - 1)
            } else {
                None
            }
        };
        let mut n = c;
        match p {
            Port::XPlus => n.x = step(c.x, self.nx, self.wrap_x, true)?,
            Port::XMinus => n.x = step(c.x, self.nx, self.wrap_x, false)?,
            Port::YPlus => n.y = step(c.y, self.ny, self.wrap_y, true)?,
            Port::YMinus => n.y = step(c.y, self.ny, self.wrap_y, false)?,
            Port::ZPlus => n.z = step(c.z, self.nz, self.wrap_z, true)?,
            Port::ZMinus => n.z = step(c.z, self.nz, self.wrap_z, false)?,
            Port::Host => return None,
        }
        Some(n)
    }

    /// Signed shortest displacement from `a` to `b` along one dimension,
    /// respecting wraparound. Positive means travel in the `+` direction.
    pub(crate) fn delta(pos_a: u16, pos_b: u16, extent: u16, wrap: bool) -> i32 {
        let d = pos_b as i32 - pos_a as i32;
        if !wrap || extent <= 1 {
            return d;
        }
        let n = extent as i32;
        // Choose the shorter way around; ties go in the + direction, which
        // keeps the route deterministic (fixed paths => in-order delivery).
        let alt = if d > 0 { d - n } else { d + n };
        if d.abs() <= alt.abs() {
            d
        } else {
            alt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_roundtrip() {
        let dims = Dims::torus(4, 3, 5);
        for id in dims.iter_ids() {
            assert_eq!(dims.id_of(dims.coord_of(id)), id);
        }
        assert_eq!(dims.node_count(), 60);
    }

    #[test]
    fn mesh_edges_have_no_outward_neighbor() {
        let dims = Dims::mesh(3, 3, 3);
        let corner = Coord::new(0, 0, 0);
        assert_eq!(dims.neighbor(corner, Port::XMinus), None);
        assert_eq!(
            dims.neighbor(corner, Port::XPlus),
            Some(Coord::new(1, 0, 0))
        );
    }

    #[test]
    fn torus_wraps() {
        let dims = Dims::torus(4, 4, 4);
        let edge = Coord::new(3, 0, 0);
        assert_eq!(dims.neighbor(edge, Port::XPlus), Some(Coord::new(0, 0, 0)));
        assert_eq!(
            dims.neighbor(Coord::new(0, 0, 0), Port::YMinus),
            Some(Coord::new(0, 3, 0))
        );
    }

    #[test]
    fn red_storm_wraps_only_z() {
        let dims = Dims::red_storm(4, 4, 4);
        assert_eq!(dims.neighbor(Coord::new(3, 0, 0), Port::XPlus), None);
        assert_eq!(dims.neighbor(Coord::new(0, 3, 0), Port::YPlus), None);
        assert_eq!(
            dims.neighbor(Coord::new(0, 0, 3), Port::ZPlus),
            Some(Coord::new(0, 0, 0))
        );
    }

    #[test]
    fn degenerate_dimension_has_no_neighbors() {
        let dims = Dims::torus(1, 1, 8);
        assert_eq!(dims.neighbor(Coord::new(0, 0, 0), Port::XPlus), None);
        assert_eq!(
            dims.neighbor(Coord::new(0, 0, 0), Port::ZMinus),
            Some(Coord::new(0, 0, 7))
        );
    }

    #[test]
    fn delta_picks_short_way_around() {
        // extent 8 torus: 0 -> 7 is -1, not +7.
        assert_eq!(Dims::delta(0, 7, 8, true), -1);
        assert_eq!(Dims::delta(7, 0, 8, true), 1);
        assert_eq!(Dims::delta(0, 7, 8, false), 7);
        // Tie (half way) goes positive.
        assert_eq!(Dims::delta(0, 4, 8, true), 4);
        assert_eq!(Dims::delta(0, 3, 8, true), 3);
    }

    #[test]
    fn port_indices_are_dense() {
        let mut seen = [false; 7];
        for p in Port::NETWORK_PORTS {
            seen[p.index()] = true;
        }
        seen[Port::Host.index()] = true;
        assert!(seen.iter().all(|&s| s));
    }
}
