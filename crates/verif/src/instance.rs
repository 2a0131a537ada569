//! Instances: a network plus a routing function, bundled for the checkers.
//!
//! An [`Instance`] is the "user input" of the GeNoC methodology — a concrete
//! definition of the constituents — together with metadata the test suite
//! uses: whether the routing function is deterministic, whether its
//! dependency graph is expected to be acyclic, and (for mesh XY) the paper's
//! closed-form graph and ranking certificate. The data-level identity of an
//! instance is its [`InstanceMeta`]; [`Instance::from_meta`] maps that
//! identity back to live trait objects, which is what lets `genoc-campaign`
//! expand scenario matrices into hundreds of runnable instances.

use genoc_core::meta::{InstanceMeta, RoutingKind};
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use std::sync::OnceLock;

use genoc_depgraph::build::{xy_mesh_dependency_graph, RoutingAnalysis};
use genoc_depgraph::graph::DiGraph;
use genoc_depgraph::ranking::xy_mesh_ranking;
use genoc_routing::{
    AcrossFirstDatelineRouting, AcrossFirstRouting, MinimalAdaptiveRouting, MixedXyYxRouting,
    RingDatelineRouting, RingShortestRouting, TorusDorDatelineRouting, TorusDorRouting, TurnModel,
    TurnModelRouting, XyRouting, YxRouting,
};
use genoc_topology::{Mesh, Ring, Spidergon, Torus};

/// A concrete (topology, routing) pair under verification.
pub struct Instance {
    /// Display name, e.g. `"mesh-4x4/xy"`.
    pub name: String,
    /// Data-level identity (topology/routing kinds, dimensions, capacity).
    pub meta: InstanceMeta,
    /// The network.
    pub net: Box<dyn Network>,
    /// The routing function.
    pub routing: Box<dyn RoutingFunction>,
    /// Whether the routing function is deterministic (Theorem 1 is an
    /// equivalence only in that case).
    pub deterministic: bool,
    /// Whether the port dependency graph is expected to be acyclic.
    pub expect_acyclic: bool,
    /// Closed-form candidate dependency graph, when the literature provides
    /// one (mesh XY: the paper's `E^xy_dep`).
    pub closed_form: Option<DiGraph>,
    /// Closed-form ranking certificate, when available.
    pub ranking: Option<Vec<u64>>,
    /// The dependency graph and `s R d` of `routing` on `net`, built by the
    /// first call of [`Instance::analysis`].
    analysis: OnceLock<RoutingAnalysis>,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("name", &self.name)
            .field("meta", &self.meta)
            .field("deterministic", &self.deterministic)
            .field("expect_acyclic", &self.expect_acyclic)
            .finish_non_exhaustive()
    }
}

impl Instance {
    /// The paper's instance: XY routing on a HERMES mesh, with its
    /// closed-form graph and ranking certificate attached.
    pub fn mesh_xy(width: usize, height: usize, capacity: u32) -> Instance {
        let mesh = Mesh::new(width, height, capacity);
        Instance {
            name: format!("mesh-{width}x{height}/xy"),
            meta: InstanceMeta::new(RoutingKind::Xy, width, height, capacity),
            routing: Box::new(XyRouting::new(&mesh)),
            deterministic: true,
            expect_acyclic: true,
            closed_form: Some(xy_mesh_dependency_graph(&mesh)),
            ranking: Some(xy_mesh_ranking(&mesh)),
            net: Box::new(mesh),
            analysis: OnceLock::new(),
        }
    }

    /// YX routing on a mesh (deadlock-free twin of XY).
    pub fn mesh_yx(width: usize, height: usize, capacity: u32) -> Instance {
        let mesh = Mesh::new(width, height, capacity);
        Instance {
            name: format!("mesh-{width}x{height}/yx"),
            meta: InstanceMeta::new(RoutingKind::Yx, width, height, capacity),
            routing: Box::new(YxRouting::new(&mesh)),
            deterministic: true,
            expect_acyclic: true,
            closed_form: None,
            ranking: None,
            net: Box::new(mesh),
            analysis: OnceLock::new(),
        }
    }

    /// The deliberately deadlock-prone deterministic XY/YX mixture.
    pub fn mesh_mixed(width: usize, height: usize, capacity: u32) -> Instance {
        let mesh = Mesh::new(width, height, capacity);
        Instance {
            name: format!("mesh-{width}x{height}/xy-yx-mixed"),
            meta: InstanceMeta::new(RoutingKind::MixedXyYx, width, height, capacity),
            routing: Box::new(MixedXyYxRouting::new(&mesh)),
            deterministic: true,
            expect_acyclic: !(width >= 2 && height >= 2),
            closed_form: None,
            ranking: None,
            net: Box::new(mesh),
            analysis: OnceLock::new(),
        }
    }

    /// An adaptive turn-model router on a mesh (acyclic dependency graph).
    pub fn mesh_turn_model(
        width: usize,
        height: usize,
        capacity: u32,
        model: TurnModel,
    ) -> Instance {
        let mesh = Mesh::new(width, height, capacity);
        let routing_kind = match model {
            TurnModel::WestFirst => RoutingKind::WestFirst,
            TurnModel::NorthLast => RoutingKind::NorthLast,
            TurnModel::NegativeFirst => RoutingKind::NegativeFirst,
        };
        Instance {
            name: format!("mesh-{width}x{height}/{}", model.label()),
            meta: InstanceMeta::new(routing_kind, width, height, capacity),
            routing: Box::new(TurnModelRouting::new(&mesh, model)),
            deterministic: false,
            expect_acyclic: true,
            closed_form: None,
            ranking: None,
            net: Box::new(mesh),
            analysis: OnceLock::new(),
        }
    }

    /// Fully adaptive minimal routing on a mesh (cyclic dependency graph).
    pub fn mesh_adaptive(width: usize, height: usize, capacity: u32) -> Instance {
        let mesh = Mesh::new(width, height, capacity);
        Instance {
            name: format!("mesh-{width}x{height}/minimal-adaptive"),
            meta: InstanceMeta::new(RoutingKind::MinimalAdaptive, width, height, capacity),
            routing: Box::new(MinimalAdaptiveRouting::new(&mesh)),
            deterministic: false,
            expect_acyclic: !(width >= 2 && height >= 2),
            closed_form: None,
            ranking: None,
            net: Box::new(mesh),
            analysis: OnceLock::new(),
        }
    }

    /// Shortest-path routing on a plain ring. Cyclic for four or more
    /// nodes: two-hop clockwise journeys exist from every node (ties go
    /// clockwise), chaining the clockwise channels all the way around. On
    /// two or three nodes every journey is a single hop, so no chain forms.
    pub fn ring_shortest(nodes: usize, capacity: u32) -> Instance {
        let ring = Ring::new(nodes, capacity);
        Instance {
            name: format!("ring-{nodes}/shortest"),
            meta: InstanceMeta::new(RoutingKind::RingShortest, nodes, 1, capacity),
            routing: Box::new(RingShortestRouting::new(&ring)),
            deterministic: true,
            expect_acyclic: nodes < 4,
            closed_form: None,
            ranking: None,
            net: Box::new(ring),
            analysis: OnceLock::new(),
        }
    }

    /// Dateline routing on a two-VC ring (acyclic).
    pub fn ring_dateline(nodes: usize, capacity: u32) -> Instance {
        let ring = Ring::with_vcs(nodes, 2, capacity);
        Instance {
            name: format!("ring-{nodes}-vc2/dateline"),
            meta: InstanceMeta::new(RoutingKind::RingDateline, nodes, 1, capacity),
            routing: Box::new(RingDatelineRouting::new(&ring)),
            deterministic: true,
            expect_acyclic: true,
            closed_form: None,
            ranking: None,
            net: Box::new(ring),
            analysis: OnceLock::new(),
        }
    }

    /// Dimension-order routing on a plain torus. A dimension of side 4+
    /// admits two-hop same-direction journeys from every position (ties go
    /// east/south), chaining that dimension's channels into a cycle; sides
    /// of 2 or 3 only ever take single hops per direction.
    pub fn torus_dor(width: usize, height: usize, capacity: u32) -> Instance {
        let torus = Torus::new(width, height, capacity);
        Instance {
            name: format!("torus-{width}x{height}/dor"),
            meta: InstanceMeta::new(RoutingKind::TorusDor, width, height, capacity),
            routing: Box::new(TorusDorRouting::new(&torus)),
            deterministic: true,
            expect_acyclic: width < 4 && height < 4,
            closed_form: None,
            ranking: None,
            net: Box::new(torus),
            analysis: OnceLock::new(),
        }
    }

    /// Dimension-order routing with per-dimension datelines on a two-VC
    /// torus (acyclic).
    pub fn torus_dor_dateline(width: usize, height: usize, capacity: u32) -> Instance {
        let torus = Torus::with_vcs(width, height, 2, capacity);
        Instance {
            name: format!("torus-{width}x{height}-vc2/dor-dateline"),
            meta: InstanceMeta::new(RoutingKind::TorusDorDateline, width, height, capacity),
            routing: Box::new(TorusDorDatelineRouting::new(&torus)),
            deterministic: true,
            expect_acyclic: true,
            closed_form: None,
            ranking: None,
            net: Box::new(torus),
            analysis: OnceLock::new(),
        }
    }

    /// Across-first routing on a plain Spidergon. Cyclic from 8 nodes up:
    /// quarter arcs of two or more hops chain the ring channels around; with
    /// 4 or 6 nodes every ring leg is a single hop.
    pub fn spidergon_across_first(size: usize, capacity: u32) -> Instance {
        let s = Spidergon::new(size, capacity);
        Instance {
            name: format!("spidergon-{size}/across-first"),
            meta: InstanceMeta::new(RoutingKind::AcrossFirst, size, 1, capacity),
            routing: Box::new(AcrossFirstRouting::new(&s)),
            deterministic: true,
            expect_acyclic: size < 8,
            closed_form: None,
            ranking: None,
            net: Box::new(s),
            analysis: OnceLock::new(),
        }
    }

    /// Across-first with dateline ring VCs on a Spidergon (acyclic).
    pub fn spidergon_across_first_dateline(size: usize, capacity: u32) -> Instance {
        let s = Spidergon::with_vcs(size, 2, capacity);
        Instance {
            name: format!("spidergon-{size}-vc2/across-first-dateline"),
            meta: InstanceMeta::new(RoutingKind::AcrossFirstDateline, size, 1, capacity),
            routing: Box::new(AcrossFirstDatelineRouting::new(&s)),
            deterministic: true,
            expect_acyclic: true,
            closed_form: None,
            ranking: None,
            net: Box::new(s),
            analysis: OnceLock::new(),
        }
    }

    /// The exhaustive dependency graph and reachability relation `s R d` of
    /// this instance's routing function, built on first use and shared by
    /// every checker that needs it: (C-1), (C-2), (C-3), Theorem 1 and the
    /// detection cross-check read one build instead of making five. `net`
    /// and `routing` must not be replaced once this has been called.
    pub fn analysis(&self) -> &RoutingAnalysis {
        self.analysis
            .get_or_init(|| RoutingAnalysis::new(self.net.as_ref(), self.routing.as_ref()))
    }

    /// Builds the instance a metadata record describes.
    ///
    /// This is the inverse of reading [`Instance::meta`]: every constructor
    /// above produces a `meta` that `from_meta` maps back to an equivalent
    /// instance, and every well-formed combination a scenario matrix can
    /// emit is constructible here.
    ///
    /// # Errors
    ///
    /// Returns the [`InstanceMeta::is_well_formed`] diagnosis when the
    /// record is not constructible (mismatched topology, odd Spidergon,
    /// missing VCs, zero capacity, …).
    pub fn from_meta(meta: &InstanceMeta) -> Result<Instance, String> {
        meta.is_well_formed()?;
        let (w, h, c) = (meta.width, meta.height, meta.capacity);
        Ok(match meta.routing {
            RoutingKind::Xy => Instance::mesh_xy(w, h, c),
            RoutingKind::Yx => Instance::mesh_yx(w, h, c),
            RoutingKind::MixedXyYx => Instance::mesh_mixed(w, h, c),
            RoutingKind::WestFirst => Instance::mesh_turn_model(w, h, c, TurnModel::WestFirst),
            RoutingKind::NorthLast => Instance::mesh_turn_model(w, h, c, TurnModel::NorthLast),
            RoutingKind::NegativeFirst => {
                Instance::mesh_turn_model(w, h, c, TurnModel::NegativeFirst)
            }
            RoutingKind::MinimalAdaptive => Instance::mesh_adaptive(w, h, c),
            RoutingKind::RingShortest => Instance::ring_shortest(w, c),
            RoutingKind::RingDateline => Instance::ring_dateline(w, c),
            RoutingKind::TorusDor => Instance::torus_dor(w, h, c),
            RoutingKind::TorusDorDateline => Instance::torus_dor_dateline(w, h, c),
            RoutingKind::AcrossFirst => Instance::spidergon_across_first(w, c),
            RoutingKind::AcrossFirstDateline => Instance::spidergon_across_first_dateline(w, c),
        })
    }

    /// Checks the invariants every registry instance maintains: the metadata
    /// is well formed and its derived fields (name, determinism, node count)
    /// agree with the live objects, certificates are only attached alongside
    /// a closed-form graph, and the network is non-degenerate.
    ///
    /// Scenario-matrix tests run this over every expanded instance, so a
    /// new constructor that fills the fields inconsistently is caught at the
    /// property-test layer rather than deep inside a checker.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn well_formed(&self) -> Result<(), String> {
        self.meta.is_well_formed()?;
        if self.name.is_empty() {
            return Err("instance name is empty".into());
        }
        if self.name != self.meta.instance_name() {
            return Err(format!(
                "name {:?} does not match meta name {:?}",
                self.name,
                self.meta.instance_name()
            ));
        }
        if self.deterministic != self.routing.is_deterministic() {
            return Err(format!(
                "{}: deterministic flag {} disagrees with the routing function",
                self.name, self.deterministic
            ));
        }
        if self.deterministic != self.meta.routing.is_deterministic() {
            return Err(format!(
                "{}: deterministic flag {} disagrees with the routing kind",
                self.name, self.deterministic
            ));
        }
        if self.net.node_count() != self.meta.nodes() {
            return Err(format!(
                "{}: network has {} nodes, meta says {}",
                self.name,
                self.net.node_count(),
                self.meta.nodes()
            ));
        }
        if self.net.port_count() == 0 {
            return Err(format!("{}: network has no ports", self.name));
        }
        if self.ranking.is_some() && self.closed_form.is_none() {
            return Err(format!(
                "{}: ranking certificate without a closed-form graph",
                self.name
            ));
        }
        if let Some(g) = &self.closed_form {
            if g.vertex_count() != self.net.port_count() {
                return Err(format!(
                    "{}: closed-form graph has {} vertices for {} ports",
                    self.name,
                    g.vertex_count(),
                    self.net.port_count()
                ));
            }
            if self.expect_acyclic != genoc_depgraph::cycle::acyclicity(g).is_acyclic() {
                return Err(format!(
                    "{}: closed-form cyclicity contradicts expect_acyclic",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// A representative suite of small instances covering every topology and
    /// router, used by the integration tests and the verification report.
    ///
    /// # Examples
    ///
    /// ```
    /// use genoc_verif::Instance;
    ///
    /// let suite = Instance::standard_suite();
    /// assert!(suite.len() >= 16, "all topologies and routers are covered");
    /// for instance in &suite {
    ///     instance.well_formed().expect("registry instances are well formed");
    /// }
    /// // The paper's own instantiation is the first entry.
    /// assert_eq!(suite[0].name, "mesh-2x2/xy");
    /// ```
    pub fn standard_suite() -> Vec<Instance> {
        vec![
            Instance::mesh_xy(2, 2, 1),
            Instance::mesh_xy(3, 3, 2),
            Instance::mesh_xy(4, 4, 1),
            Instance::mesh_yx(3, 3, 1),
            Instance::mesh_mixed(2, 2, 1),
            Instance::mesh_mixed(3, 3, 1),
            Instance::mesh_turn_model(3, 3, 1, TurnModel::WestFirst),
            Instance::mesh_turn_model(3, 3, 1, TurnModel::NorthLast),
            Instance::mesh_turn_model(3, 3, 1, TurnModel::NegativeFirst),
            Instance::mesh_adaptive(3, 3, 1),
            Instance::ring_shortest(6, 1),
            Instance::ring_dateline(6, 1),
            Instance::torus_dor(5, 3, 1),
            Instance::torus_dor_dateline(5, 3, 1),
            Instance::spidergon_across_first(12, 1),
            Instance::spidergon_across_first_dateline(12, 1),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique() {
        let suite = Instance::standard_suite();
        let mut names: Vec<&str> = suite.iter().map(|i| i.name.as_str()).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn closed_form_only_on_xy() {
        for i in Instance::standard_suite() {
            if i.closed_form.is_some() {
                assert!(i.name.ends_with("/xy"), "{}", i.name);
            }
        }
    }

    #[test]
    fn determinism_flags_match_routing() {
        for i in Instance::standard_suite() {
            assert_eq!(i.deterministic, i.routing.is_deterministic(), "{}", i.name);
        }
    }

    #[test]
    fn suite_is_well_formed() {
        for i in Instance::standard_suite() {
            i.well_formed()
                .unwrap_or_else(|e| panic!("{}: {e}", i.name));
        }
    }

    #[test]
    fn from_meta_round_trips_the_suite() {
        for i in Instance::standard_suite() {
            let rebuilt = Instance::from_meta(&i.meta).expect("suite metas are well formed");
            assert_eq!(rebuilt.name, i.name);
            assert_eq!(rebuilt.meta, i.meta);
            assert_eq!(rebuilt.deterministic, i.deterministic);
            assert_eq!(rebuilt.expect_acyclic, i.expect_acyclic);
            assert_eq!(rebuilt.net.port_count(), i.net.port_count());
        }
    }

    #[test]
    fn from_meta_rejects_malformed_records() {
        let mut meta = InstanceMeta::new(RoutingKind::AcrossFirst, 7, 1, 1);
        assert!(Instance::from_meta(&meta).is_err(), "odd spidergon");
        meta = InstanceMeta::new(RoutingKind::Xy, 1, 3, 1);
        assert!(Instance::from_meta(&meta).is_err(), "degenerate mesh");
    }
}
