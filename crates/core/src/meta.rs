//! Instance metadata: a closed vocabulary of topology, routing, and
//! switching *kinds*, and the [`InstanceMeta`] record that identifies a
//! concrete instantiation by data instead of by trait object.
//!
//! The constituent traits ([`crate::routing::RoutingFunction`],
//! [`crate::switching::SwitchingPolicy`], [`crate::network::Network`]) are
//! open-ended; campaign tooling needs the opposite — a finite, enumerable,
//! serialisable description of *which* instantiation is under test, so that
//! scenario matrices can be expanded, filtered, sharded across threads, and
//! reported on. The kinds below name every instantiation the workspace
//! ships; `genoc-verif`'s instance registry maps an [`InstanceMeta`] back to
//! live trait objects.

/// The topology families shipped by `genoc-topology`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopologyKind {
    /// HERMES-style 2D mesh (the paper's Fig. 1).
    Mesh,
    /// 2D torus (wrap-around mesh), optionally with virtual channels.
    Torus,
    /// Unidirectional-pair ring, optionally with virtual channels.
    Ring,
    /// Spidergon (ring plus across links), optionally with ring VCs.
    Spidergon,
}

impl TopologyKind {
    /// Every topology kind, in display order.
    pub const ALL: [TopologyKind; 4] = [
        TopologyKind::Mesh,
        TopologyKind::Torus,
        TopologyKind::Ring,
        TopologyKind::Spidergon,
    ];

    /// Short lowercase label, e.g. `"mesh"`.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Ring => "ring",
            TopologyKind::Spidergon => "spidergon",
        }
    }
}

/// The routing functions shipped by `genoc-routing`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RoutingKind {
    /// The paper's `Rxy`: X first, then Y.
    Xy,
    /// Axis-swapped twin of XY.
    Yx,
    /// The deliberately deadlock-prone deterministic XY/YX mixture.
    MixedXyYx,
    /// West-first turn model (adaptive, acyclic).
    WestFirst,
    /// North-last turn model (adaptive, acyclic).
    NorthLast,
    /// Negative-first turn model (adaptive, acyclic).
    NegativeFirst,
    /// Fully adaptive minimal routing (cyclic on 2D meshes).
    MinimalAdaptive,
    /// Shortest-path ring routing (cyclic from four nodes).
    RingShortest,
    /// Dateline ring routing over two virtual channels (acyclic).
    RingDateline,
    /// Plain dimension-order torus routing (cyclic from side four).
    TorusDor,
    /// Dimension-order with per-dimension datelines on two VCs (acyclic).
    TorusDorDateline,
    /// Spidergon across-first routing (cyclic from eight nodes).
    AcrossFirst,
    /// Across-first with dateline ring VCs (acyclic).
    AcrossFirstDateline,
}

impl RoutingKind {
    /// Every routing kind, in display order.
    pub const ALL: [RoutingKind; 13] = [
        RoutingKind::Xy,
        RoutingKind::Yx,
        RoutingKind::MixedXyYx,
        RoutingKind::WestFirst,
        RoutingKind::NorthLast,
        RoutingKind::NegativeFirst,
        RoutingKind::MinimalAdaptive,
        RoutingKind::RingShortest,
        RoutingKind::RingDateline,
        RoutingKind::TorusDor,
        RoutingKind::TorusDorDateline,
        RoutingKind::AcrossFirst,
        RoutingKind::AcrossFirstDateline,
    ];

    /// Short label matching the instance-name convention, e.g. `"xy"`.
    pub fn label(self) -> &'static str {
        match self {
            RoutingKind::Xy => "xy",
            RoutingKind::Yx => "yx",
            RoutingKind::MixedXyYx => "xy-yx-mixed",
            RoutingKind::WestFirst => "west-first",
            RoutingKind::NorthLast => "north-last",
            RoutingKind::NegativeFirst => "negative-first",
            RoutingKind::MinimalAdaptive => "minimal-adaptive",
            RoutingKind::RingShortest => "shortest",
            RoutingKind::RingDateline => "dateline",
            RoutingKind::TorusDor => "dor",
            RoutingKind::TorusDorDateline => "dor-dateline",
            RoutingKind::AcrossFirst => "across-first",
            RoutingKind::AcrossFirstDateline => "across-first-dateline",
        }
    }

    /// The topology family this routing function is defined on.
    pub fn topology(self) -> TopologyKind {
        match self {
            RoutingKind::Xy
            | RoutingKind::Yx
            | RoutingKind::MixedXyYx
            | RoutingKind::WestFirst
            | RoutingKind::NorthLast
            | RoutingKind::NegativeFirst
            | RoutingKind::MinimalAdaptive => TopologyKind::Mesh,
            RoutingKind::RingShortest | RoutingKind::RingDateline => TopologyKind::Ring,
            RoutingKind::TorusDor | RoutingKind::TorusDorDateline => TopologyKind::Torus,
            RoutingKind::AcrossFirst | RoutingKind::AcrossFirstDateline => TopologyKind::Spidergon,
        }
    }

    /// Whether the function returns at most one hop per (port, destination)
    /// pair (Theorem 1 is an equivalence only then).
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            RoutingKind::WestFirst
                | RoutingKind::NorthLast
                | RoutingKind::NegativeFirst
                | RoutingKind::MinimalAdaptive
        )
    }

    /// Virtual channels the routing function needs on its topology (dateline
    /// schemes reserve a second channel; everything else runs on one).
    pub fn required_vcs(self) -> usize {
        match self {
            RoutingKind::RingDateline
            | RoutingKind::TorusDorDateline
            | RoutingKind::AcrossFirstDateline => 2,
            _ => 1,
        }
    }
}

/// The switching policies shipped by `genoc-switching`.
///
/// The three move flits alike and differ only in when a header may claim
/// the next port, so a kind is also the closed-world name of that
/// head-admission predicate ([`crate::step::HeadAdmission::kind`]). Each
/// depends only on the target port's free-buffer count and the travel's own
/// flit positions, so the arena ([`crate::arena`]) re-evaluates it over its
/// columns without a `Config`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SwitchingKind {
    /// The paper's `Swh`: flit-pipelined wormhole switching; every header
    /// move is admitted.
    Wormhole,
    /// Virtual cut-through: pipelined, but the target port must have room
    /// for the whole packet (`free ≥ flit_count`), so blocked packets
    /// collapse into a port.
    VirtualCutThrough,
    /// Store-and-forward: whole-packet room ahead *and*, for an advance,
    /// the packet fully received in the header's current port.
    StoreForward,
}

impl SwitchingKind {
    /// Every switching kind, in display order.
    pub const ALL: [SwitchingKind; 3] = [
        SwitchingKind::Wormhole,
        SwitchingKind::VirtualCutThrough,
        SwitchingKind::StoreForward,
    ];

    /// Short label, e.g. `"wormhole"`.
    pub fn label(self) -> &'static str {
        match self {
            SwitchingKind::Wormhole => "wormhole",
            SwitchingKind::VirtualCutThrough => "vct",
            SwitchingKind::StoreForward => "store-forward",
        }
    }

    /// Whether admission requires a whole packet to fit into one port buffer
    /// (so workload packet lengths must not exceed the port capacity).
    pub fn requires_whole_packet_buffering(self) -> bool {
        !matches!(self, SwitchingKind::Wormhole)
    }

    /// The packet length a workload under this policy may use: `preferred`
    /// (at least one flit), capped at the port `capacity` when
    /// [`requires_whole_packet_buffering`](Self::requires_whole_packet_buffering)
    /// holds, since a longer packet could never be admitted.
    pub fn workload_flits(self, preferred: usize, capacity: u32) -> usize {
        if self.requires_whole_packet_buffering() {
            preferred.min(capacity as usize).max(1)
        } else {
            preferred.max(1)
        }
    }
}

/// Data-level identity of a concrete (topology, routing) instantiation.
///
/// `width`/`height` are the mesh/torus dimensions; rings and Spidergons use
/// `width` as their node count with `height == 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceMeta {
    /// Topology family.
    pub topology: TopologyKind,
    /// Routing function.
    pub routing: RoutingKind,
    /// Width (or node count for ring/Spidergon).
    pub width: usize,
    /// Height (1 for ring/Spidergon).
    pub height: usize,
    /// Virtual channels per affected direction (1 = no extra channels).
    pub vcs: usize,
    /// Buffer capacity per port, in flits.
    pub capacity: u32,
}

impl InstanceMeta {
    /// Builds the metadata for a routing kind on its home topology.
    pub fn new(routing: RoutingKind, width: usize, height: usize, capacity: u32) -> InstanceMeta {
        InstanceMeta {
            topology: routing.topology(),
            routing,
            width,
            height,
            vcs: routing.required_vcs(),
            capacity,
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// The display name the instance registry uses, e.g. `"mesh-4x4/xy"` or
    /// `"ring-6-vc2/dateline"`.
    pub fn instance_name(&self) -> String {
        let vc = if self.vcs > 1 {
            format!("-vc{}", self.vcs)
        } else {
            String::new()
        };
        let topo = match self.topology {
            TopologyKind::Mesh => format!("mesh-{}x{}", self.width, self.height),
            TopologyKind::Torus => format!("torus-{}x{}", self.width, self.height),
            TopologyKind::Ring => format!("ring-{}", self.width),
            TopologyKind::Spidergon => format!("spidergon-{}", self.width),
        };
        format!("{topo}{vc}/{}", self.routing.label())
    }

    /// Structural validity: the routing kind matches the topology, the
    /// dimensions are constructible, and the VC count covers what the
    /// routing scheme reserves.
    pub fn is_well_formed(&self) -> Result<(), String> {
        if self.routing.topology() != self.topology {
            return Err(format!(
                "routing {} is not defined on topology {}",
                self.routing.label(),
                self.topology.label()
            ));
        }
        if self.capacity == 0 {
            return Err("port capacity must be positive".into());
        }
        if self.vcs < self.routing.required_vcs() {
            return Err(format!(
                "routing {} needs {} VCs, meta has {}",
                self.routing.label(),
                self.routing.required_vcs(),
                self.vcs
            ));
        }
        match self.topology {
            TopologyKind::Mesh | TopologyKind::Torus => {
                if self.width < 2 || self.height < 2 {
                    return Err(format!(
                        "{} needs width and height of at least 2, got {}x{}",
                        self.topology.label(),
                        self.width,
                        self.height
                    ));
                }
            }
            TopologyKind::Ring => {
                if self.height != 1 || self.width < 2 {
                    return Err(format!(
                        "ring needs height 1 and at least 2 nodes, got {}x{}",
                        self.width, self.height
                    ));
                }
            }
            TopologyKind::Spidergon => {
                if self.height != 1 || self.width < 4 || !self.width.is_multiple_of(2) {
                    return Err(format!(
                        "spidergon needs height 1 and an even node count of at least 4, got {}x{}",
                        self.width, self.height
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_kinds_map_to_their_topologies() {
        for r in RoutingKind::ALL {
            assert!(TopologyKind::ALL.contains(&r.topology()), "{r:?}");
        }
        assert_eq!(RoutingKind::Xy.topology(), TopologyKind::Mesh);
        assert_eq!(RoutingKind::TorusDor.topology(), TopologyKind::Torus);
    }

    #[test]
    fn instance_names_match_registry_convention() {
        assert_eq!(
            InstanceMeta::new(RoutingKind::Xy, 4, 4, 1).instance_name(),
            "mesh-4x4/xy"
        );
        assert_eq!(
            InstanceMeta::new(RoutingKind::RingDateline, 6, 1, 1).instance_name(),
            "ring-6-vc2/dateline"
        );
        assert_eq!(
            InstanceMeta::new(RoutingKind::AcrossFirst, 12, 1, 2).instance_name(),
            "spidergon-12/across-first"
        );
    }

    #[test]
    fn well_formedness_rejects_invalid_combos() {
        assert!(InstanceMeta::new(RoutingKind::Xy, 3, 3, 1)
            .is_well_formed()
            .is_ok());
        // Mismatched topology.
        let mut m = InstanceMeta::new(RoutingKind::Xy, 3, 3, 1);
        m.topology = TopologyKind::Ring;
        assert!(m.is_well_formed().is_err());
        // Odd spidergon.
        assert!(InstanceMeta::new(RoutingKind::AcrossFirst, 7, 1, 1)
            .is_well_formed()
            .is_err());
        // Too few VCs for a dateline scheme.
        let mut d = InstanceMeta::new(RoutingKind::RingDateline, 6, 1, 1);
        d.vcs = 1;
        assert!(d.is_well_formed().is_err());
        // Zero capacity.
        assert!(InstanceMeta::new(RoutingKind::Yx, 3, 3, 0)
            .is_well_formed()
            .is_err());
    }

    #[test]
    fn whole_packet_buffering_only_off_wormhole() {
        assert!(!SwitchingKind::Wormhole.requires_whole_packet_buffering());
        assert!(SwitchingKind::VirtualCutThrough.requires_whole_packet_buffering());
        assert!(SwitchingKind::StoreForward.requires_whole_packet_buffering());
    }
}
