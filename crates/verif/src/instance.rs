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
        Instance::build(RoutingKind::Xy, width, height, capacity)
    }

    /// YX routing on a mesh (deadlock-free twin of XY).
    pub fn mesh_yx(width: usize, height: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::Yx, width, height, capacity)
    }

    /// The deliberately deadlock-prone deterministic XY/YX mixture.
    pub fn mesh_mixed(width: usize, height: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::MixedXyYx, width, height, capacity)
    }

    /// An adaptive turn-model router on a mesh (acyclic dependency graph).
    pub fn mesh_turn_model(
        width: usize,
        height: usize,
        capacity: u32,
        model: TurnModel,
    ) -> Instance {
        let routing = match model {
            TurnModel::WestFirst => RoutingKind::WestFirst,
            TurnModel::NorthLast => RoutingKind::NorthLast,
            TurnModel::NegativeFirst => RoutingKind::NegativeFirst,
        };
        Instance::build(routing, width, height, capacity)
    }

    /// Fully adaptive minimal routing on a mesh (cyclic dependency graph).
    pub fn mesh_adaptive(width: usize, height: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::MinimalAdaptive, width, height, capacity)
    }

    /// Shortest-path routing on a plain ring. Cyclic for four or more
    /// nodes: two-hop clockwise journeys exist from every node (ties go
    /// clockwise), chaining the clockwise channels all the way around. On
    /// two or three nodes every journey is a single hop, so no chain forms.
    pub fn ring_shortest(nodes: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::RingShortest, nodes, 1, capacity)
    }

    /// Dateline routing on a two-VC ring (acyclic).
    pub fn ring_dateline(nodes: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::RingDateline, nodes, 1, capacity)
    }

    /// Dimension-order routing on a plain torus. A dimension of side 4+
    /// admits two-hop same-direction journeys from every position (ties go
    /// east/south), chaining that dimension's channels into a cycle; sides
    /// of 2 or 3 only ever take single hops per direction.
    pub fn torus_dor(width: usize, height: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::TorusDor, width, height, capacity)
    }

    /// Dimension-order routing with per-dimension datelines on a two-VC
    /// torus (acyclic).
    pub fn torus_dor_dateline(width: usize, height: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::TorusDorDateline, width, height, capacity)
    }

    /// Across-first routing on a plain Spidergon. Cyclic from 8 nodes up:
    /// quarter arcs of two or more hops chain the ring channels around; with
    /// 4 or 6 nodes every ring leg is a single hop.
    pub fn spidergon_across_first(size: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::AcrossFirst, size, 1, capacity)
    }

    /// Across-first with dateline ring VCs on a Spidergon (acyclic).
    pub fn spidergon_across_first_dateline(size: usize, capacity: u32) -> Instance {
        Instance::build(RoutingKind::AcrossFirstDateline, size, 1, capacity)
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
    /// This is the inverse of reading [`Instance::meta`]: every named
    /// constructor above is this builder on the record it names, and every
    /// well-formed combination a scenario matrix can emit is constructible
    /// here.
    ///
    /// # Errors
    ///
    /// Returns the [`InstanceMeta::is_well_formed`] diagnosis when the
    /// record is not constructible (mismatched topology, odd Spidergon,
    /// missing VCs, zero capacity, …).
    pub fn from_meta(meta: &InstanceMeta) -> Result<Instance, String> {
        meta.is_well_formed()?;
        Ok(Instance::build(
            meta.routing,
            meta.width,
            meta.height,
            meta.capacity,
        ))
    }

    /// [`from_meta`](Self::from_meta) without the well-formedness check, on
    /// the record [`InstanceMeta::new`] makes of its arguments: the name and
    /// the determinism flag are read off that record, the network and the
    /// routing function come from one match on the routing kind.
    fn build(kind: RoutingKind, width: usize, height: usize, capacity: u32) -> Instance {
        let meta = InstanceMeta::new(kind, width, height, capacity);
        let (w, h, c, vcs) = (width, height, capacity, meta.vcs);
        let mesh = || Mesh::new(w, h, c);
        let turn_model = |model| boxed(mesh(), |m| TurnModelRouting::new(m, model));
        let mut certificate = None;
        let (net, routing) = match kind {
            RoutingKind::Xy => {
                let mesh = mesh();
                certificate = Some((xy_mesh_dependency_graph(&mesh), xy_mesh_ranking(&mesh)));
                boxed(mesh, XyRouting::new)
            }
            RoutingKind::Yx => boxed(mesh(), YxRouting::new),
            RoutingKind::MixedXyYx => boxed(mesh(), MixedXyYxRouting::new),
            RoutingKind::WestFirst => turn_model(TurnModel::WestFirst),
            RoutingKind::NorthLast => turn_model(TurnModel::NorthLast),
            RoutingKind::NegativeFirst => turn_model(TurnModel::NegativeFirst),
            RoutingKind::MinimalAdaptive => boxed(mesh(), MinimalAdaptiveRouting::new),
            RoutingKind::RingShortest => boxed(Ring::new(w, c), RingShortestRouting::new),
            RoutingKind::RingDateline => boxed(Ring::with_vcs(w, vcs, c), RingDatelineRouting::new),
            RoutingKind::TorusDor => boxed(Torus::new(w, h, c), TorusDorRouting::new),
            RoutingKind::TorusDorDateline => {
                boxed(Torus::with_vcs(w, h, vcs, c), TorusDorDatelineRouting::new)
            }
            RoutingKind::AcrossFirst => boxed(Spidergon::new(w, c), AcrossFirstRouting::new),
            RoutingKind::AcrossFirstDateline => boxed(
                Spidergon::with_vcs(w, vcs, c),
                AcrossFirstDatelineRouting::new,
            ),
        };
        // Cyclic where the named constructors' documentation says why.
        let expect_acyclic = match kind {
            RoutingKind::MixedXyYx | RoutingKind::MinimalAdaptive => !(w >= 2 && h >= 2),
            RoutingKind::RingShortest => w < 4,
            RoutingKind::TorusDor => w < 4 && h < 4,
            RoutingKind::AcrossFirst => w < 8,
            RoutingKind::Xy
            | RoutingKind::Yx
            | RoutingKind::WestFirst
            | RoutingKind::NorthLast
            | RoutingKind::NegativeFirst
            | RoutingKind::RingDateline
            | RoutingKind::TorusDorDateline
            | RoutingKind::AcrossFirstDateline => true,
        };
        let (closed_form, ranking) = certificate.unzip();
        Instance {
            name: meta.instance_name(),
            meta,
            net,
            routing,
            deterministic: kind.is_deterministic(),
            expect_acyclic,
            closed_form,
            ranking,
            analysis: OnceLock::new(),
        }
    }

    /// Checks the invariants every registry instance maintains: the metadata
    /// is well formed, the routing function is as deterministic as its kind
    /// says, the network has the node count the metadata gives and is
    /// non-degenerate, and certificates are only attached alongside a
    /// closed-form graph that agrees with `expect_acyclic`.
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
        if self.deterministic != self.routing.is_deterministic() {
            return Err(format!(
                "{}: deterministic flag {} disagrees with the routing function",
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

/// A network and the routing function built on it, boxed.
fn boxed<N: Network + 'static, R: RoutingFunction + 'static>(
    net: N,
    routing: impl FnOnce(&N) -> R,
) -> (Box<dyn Network>, Box<dyn RoutingFunction>) {
    let routing = routing(&net);
    (Box::new(net), Box::new(routing))
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
