//! Scenario matrices: cartesian products of topology sizes, routing
//! functions, switching policies, and buffer capacities, expanded into
//! runnable scenario specifications.
//!
//! A [`ScenarioSpec`] is pure data — an [`InstanceMeta`] plus a
//! [`SwitchingKind`] — so specs are `Copy + Send`, shard cheaply across
//! worker threads, and each worker materialises the live
//! [`genoc_verif::Instance`] locally. Expansion drops combinations that are
//! not constructible (odd Spidergons, routing on the wrong topology,
//! capacity zero — anything [`InstanceMeta::is_well_formed`] rejects) and
//! anything the user-supplied predicate filters veto.

use genoc_core::meta::{InstanceMeta, RoutingKind, SwitchingKind};

/// One cell of the matrix: a concrete instance plus the switching policy to
/// exercise it under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScenarioSpec {
    /// The (topology, routing, size, capacity) identity.
    pub meta: InstanceMeta,
    /// The switching policy the scenario runs under.
    pub switching: SwitchingKind,
}

impl ScenarioSpec {
    /// Unique display name, e.g. `"mesh-3x3/xy@c2+wormhole"`. The registry
    /// instance name alone is not unique across a matrix — capacity and
    /// switching sweep too, so both are part of the identity (and thereby
    /// of the per-scenario seed).
    pub fn name(&self) -> String {
        format!(
            "{}@c{}+{}",
            self.meta.instance_name(),
            self.meta.capacity,
            self.switching.label()
        )
    }

    /// The packet length the scenario's workloads may use:
    /// [`SwitchingKind::workload_flits`] at the scenario's port capacity.
    pub fn workload_flits(&self, preferred: usize) -> usize {
        self.switching.workload_flits(preferred, self.meta.capacity)
    }
}

/// Summary of one matrix expansion: what survived and what was dropped.
/// The accounting always reconciles:
/// `candidates == scenarios.len() + invalid + filtered + duplicates`.
#[derive(Clone, Debug)]
pub struct Expansion {
    /// The runnable scenarios, sorted and deduplicated.
    pub scenarios: Vec<ScenarioSpec>,
    /// Total combinations enumerated before validity and filters.
    pub candidates: usize,
    /// Combinations rejected by [`InstanceMeta::is_well_formed`].
    pub invalid: usize,
    /// Combinations vetoed by user predicate filters.
    pub filtered: usize,
    /// Combinations dropped as duplicates (repeated dimension entries).
    pub duplicates: usize,
}

type Predicate = Box<dyn Fn(&ScenarioSpec) -> bool + Send + Sync>;

/// Builder for a scenario matrix.
///
/// Each dimension is a list; [`ScenarioMatrix::expand`] takes the product of
/// every routing kind with the size list of its home topology, every
/// capacity, and every switching kind. Start from [`ScenarioMatrix::empty`]
/// for a hand-rolled matrix or from a named preset ([`ScenarioMatrix::smoke`],
/// [`ScenarioMatrix::standard`], [`ScenarioMatrix::full`]).
#[derive(Default)]
pub struct ScenarioMatrix {
    routings: Vec<RoutingKind>,
    switchings: Vec<SwitchingKind>,
    mesh_sizes: Vec<(usize, usize)>,
    torus_sizes: Vec<(usize, usize)>,
    ring_sizes: Vec<usize>,
    spidergon_sizes: Vec<usize>,
    capacities: Vec<u32>,
    filters: Vec<Predicate>,
}

impl std::fmt::Debug for ScenarioMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioMatrix")
            .field("routings", &self.routings)
            .field("switchings", &self.switchings)
            .field("mesh_sizes", &self.mesh_sizes)
            .field("torus_sizes", &self.torus_sizes)
            .field("ring_sizes", &self.ring_sizes)
            .field("spidergon_sizes", &self.spidergon_sizes)
            .field("capacities", &self.capacities)
            .field("filters", &self.filters.len())
            .finish()
    }
}

impl ScenarioMatrix {
    /// An empty matrix; populate every dimension before expanding.
    pub fn empty() -> ScenarioMatrix {
        ScenarioMatrix::default()
    }

    /// The routing functions to sweep.
    #[must_use]
    pub fn routings(mut self, routings: impl IntoIterator<Item = RoutingKind>) -> Self {
        self.routings = routings.into_iter().collect();
        self
    }

    /// The switching policies to sweep.
    #[must_use]
    pub fn switchings(mut self, switchings: impl IntoIterator<Item = SwitchingKind>) -> Self {
        self.switchings = switchings.into_iter().collect();
        self
    }

    /// Mesh dimensions to sweep (used by mesh routings).
    #[must_use]
    pub fn mesh_sizes(mut self, sizes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.mesh_sizes = sizes.into_iter().collect();
        self
    }

    /// Torus dimensions to sweep (used by torus routings).
    #[must_use]
    pub fn torus_sizes(mut self, sizes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.torus_sizes = sizes.into_iter().collect();
        self
    }

    /// Ring node counts to sweep (used by ring routings).
    #[must_use]
    pub fn ring_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.ring_sizes = sizes.into_iter().collect();
        self
    }

    /// Spidergon node counts to sweep (used by Spidergon routings).
    #[must_use]
    pub fn spidergon_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.spidergon_sizes = sizes.into_iter().collect();
        self
    }

    /// Port buffer capacities to sweep.
    #[must_use]
    pub fn capacities(mut self, capacities: impl IntoIterator<Item = u32>) -> Self {
        self.capacities = capacities.into_iter().collect();
        self
    }

    /// Adds a predicate filter; a scenario survives expansion only if every
    /// filter returns `true` for it. Use this to veto combinations that are
    /// constructible but not wanted — e.g. `|s| s.meta.nodes() <= 16` to cap
    /// network size, or `|s| !s.switching.requires_whole_packet_buffering()
    /// || s.meta.capacity >= 2` to keep deep buffers under store-and-forward.
    #[must_use]
    pub fn filter(mut self, pred: impl Fn(&ScenarioSpec) -> bool + Send + Sync + 'static) -> Self {
        self.filters.push(Box::new(pred));
        self
    }

    /// Expands the matrix into runnable scenarios (see [`Expansion`] for the
    /// drop accounting).
    pub fn expand_with_stats(&self) -> Expansion {
        let mut scenarios = Vec::new();
        let mut candidates = 0usize;
        let mut invalid = 0usize;
        let mut filtered = 0usize;
        for &routing in &self.routings {
            let sizes: Vec<(usize, usize)> = match routing.topology() {
                genoc_core::meta::TopologyKind::Mesh => self.mesh_sizes.clone(),
                genoc_core::meta::TopologyKind::Torus => self.torus_sizes.clone(),
                genoc_core::meta::TopologyKind::Ring => {
                    self.ring_sizes.iter().map(|&n| (n, 1)).collect()
                }
                genoc_core::meta::TopologyKind::Spidergon => {
                    self.spidergon_sizes.iter().map(|&n| (n, 1)).collect()
                }
            };
            for &(w, h) in &sizes {
                for &capacity in &self.capacities {
                    for &switching in &self.switchings {
                        candidates += 1;
                        let spec = ScenarioSpec {
                            meta: InstanceMeta::new(routing, w, h, capacity),
                            switching,
                        };
                        if spec.meta.is_well_formed().is_err() {
                            invalid += 1;
                            continue;
                        }
                        if !self.filters.iter().all(|f| f(&spec)) {
                            filtered += 1;
                            continue;
                        }
                        scenarios.push(spec);
                    }
                }
            }
        }
        scenarios.sort_unstable();
        let before = scenarios.len();
        scenarios.dedup();
        Expansion {
            duplicates: before - scenarios.len(),
            scenarios,
            candidates,
            invalid,
            filtered,
        }
    }

    /// Expands the matrix into runnable scenarios.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        self.expand_with_stats().scenarios
    }

    /// The CI matrix: every topology family and a deadlock-prone comparator,
    /// small sizes, two switching policies — two dozen scenarios that finish
    /// in seconds.
    pub fn smoke() -> ScenarioMatrix {
        ScenarioMatrix::empty()
            .routings([
                RoutingKind::Xy,
                RoutingKind::MixedXyYx,
                RoutingKind::WestFirst,
                RoutingKind::RingShortest,
                RoutingKind::RingDateline,
                RoutingKind::TorusDor,
                RoutingKind::TorusDorDateline,
                RoutingKind::AcrossFirst,
                RoutingKind::AcrossFirstDateline,
            ])
            .switchings([SwitchingKind::Wormhole, SwitchingKind::VirtualCutThrough])
            .mesh_sizes([(2, 2), (3, 3)])
            .torus_sizes([(3, 3)])
            .ring_sizes([4])
            .spidergon_sizes([8])
            .capacities([2])
    }

    /// The default campaign: every routing function and switching policy,
    /// a spread of sizes and capacities — expands to 500+ scenarios.
    pub fn standard() -> ScenarioMatrix {
        ScenarioMatrix::empty()
            .routings(RoutingKind::ALL)
            .switchings(SwitchingKind::ALL)
            .mesh_sizes([(2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 5)])
            .torus_sizes([(3, 3), (4, 3), (4, 4)])
            .ring_sizes([4, 6, 8])
            .spidergon_sizes([6, 8, 12])
            .capacities([1, 2, 4])
    }

    /// The overnight sweep: bigger networks, deeper buffers — expands past
    /// a thousand scenarios.
    pub fn full() -> ScenarioMatrix {
        ScenarioMatrix::empty()
            .routings(RoutingKind::ALL)
            .switchings(SwitchingKind::ALL)
            .mesh_sizes([
                (2, 2),
                (3, 2),
                (3, 3),
                (4, 3),
                (4, 4),
                (5, 4),
                (5, 5),
                (6, 6),
            ])
            .torus_sizes([(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)])
            .ring_sizes([4, 6, 8, 10, 12])
            .spidergon_sizes([6, 8, 12, 16])
            .capacities([1, 2, 4, 8])
    }

    /// The scale sweep: 16×16 through 64×64 meshes (plus a big torus and
    /// ring) under wormhole switching, the workloads the arena stepper was
    /// built for — thousands of messages per evacuation run. Cyclicity
    /// comparators are deliberately absent: at this scale the point is
    /// throughput on deadlock-free fabrics. The 32×32 cells are capped at
    /// capacity 4 to keep the obligation sweeps proportionate, and 64×64 is
    /// a single cell (XY at capacity 4, the arena's million-flit smoke
    /// target — filter with `mesh-64x64`).
    pub fn large() -> ScenarioMatrix {
        ScenarioMatrix::empty()
            .routings([
                RoutingKind::Xy,
                RoutingKind::Yx,
                RoutingKind::WestFirst,
                RoutingKind::TorusDorDateline,
                RoutingKind::RingDateline,
            ])
            .switchings([SwitchingKind::Wormhole])
            .mesh_sizes([(8, 8), (16, 16), (32, 32), (64, 64)])
            .torus_sizes([(8, 8), (16, 16)])
            .ring_sizes([32, 64])
            .capacities([2, 4])
            .filter(|s| {
                let big_enough = s.meta.nodes() < 1024 || s.meta.capacity >= 4;
                let single_64 = s.meta.nodes() < 4096 || s.meta.routing == RoutingKind::Xy;
                big_enough && single_64
            })
    }

    /// The exhaustive-oracle matrix: the smoke cells swept at capacities 1
    /// and 2, sized so [`genoc_verif::explore_check()`] terminates on every
    /// cell. Capacity 1 matters here: whole-packet pressure deadlocks the
    /// cyclic comparators within a few thousand states at capacity 1, while
    /// at capacity 2 the same patterns need worms longer than any CI budget
    /// can exhaust — the c1 twins are where the counterexamples come from.
    pub fn oracle() -> ScenarioMatrix {
        ScenarioMatrix::smoke().capacities([1, 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EffortProfile;

    #[test]
    fn expansion_is_the_product_of_valid_dimensions() {
        // 2 mesh routings × 2 sizes × 2 capacities × 2 switchings.
        let m = ScenarioMatrix::empty()
            .routings([RoutingKind::Xy, RoutingKind::Yx])
            .switchings([SwitchingKind::Wormhole, SwitchingKind::StoreForward])
            .mesh_sizes([(2, 2), (3, 3)])
            .capacities([1, 2]);
        let e = m.expand_with_stats();
        assert_eq!(e.candidates, 16);
        assert_eq!(e.scenarios.len(), 16);
        assert_eq!(e.invalid, 0);
        assert_eq!(e.filtered, 0);
        assert_eq!(e.duplicates, 0);
    }

    #[test]
    fn repeated_dimension_entries_are_counted_as_duplicates() {
        let e = ScenarioMatrix::empty()
            .routings([RoutingKind::Xy])
            .switchings([SwitchingKind::Wormhole])
            .mesh_sizes([(2, 2), (2, 2), (3, 3)])
            .capacities([1])
            .expand_with_stats();
        assert_eq!(e.candidates, 3);
        assert_eq!(e.scenarios.len(), 2);
        assert_eq!(e.duplicates, 1);
        assert_eq!(
            e.candidates,
            e.scenarios.len() + e.invalid + e.filtered + e.duplicates
        );
    }

    #[test]
    fn invalid_combinations_are_dropped_not_fatal() {
        // Spidergon sizes 7 (odd) and 2 (too small) are unconstructible.
        let m = ScenarioMatrix::empty()
            .routings([RoutingKind::AcrossFirst])
            .switchings([SwitchingKind::Wormhole])
            .spidergon_sizes([2, 7, 8])
            .capacities([1]);
        let e = m.expand_with_stats();
        assert_eq!(e.candidates, 3);
        assert_eq!(e.invalid, 2);
        assert_eq!(e.scenarios.len(), 1);
        assert_eq!(e.scenarios[0].meta.width, 8);
    }

    #[test]
    fn predicate_filters_veto_scenarios() {
        let m = ScenarioMatrix::empty()
            .routings([RoutingKind::Xy])
            .switchings(SwitchingKind::ALL)
            .mesh_sizes([(3, 3)])
            .capacities([1, 4])
            .filter(|s| !s.switching.requires_whole_packet_buffering() || s.meta.capacity >= 4);
        let e = m.expand_with_stats();
        assert_eq!(e.candidates, 6);
        assert_eq!(e.filtered, 2, "VCT and SaF at capacity 1 are vetoed");
        assert_eq!(e.scenarios.len(), 4);
    }

    #[test]
    fn standard_matrix_exceeds_five_hundred_scenarios() {
        let e = ScenarioMatrix::standard().expand_with_stats();
        assert!(
            e.scenarios.len() >= 500,
            "standard matrix has {} scenarios",
            e.scenarios.len()
        );
        assert_eq!(e.invalid, 0, "presets only enumerate valid combos");
    }

    #[test]
    fn smoke_matrix_is_small_and_covers_every_topology() {
        let scenarios = ScenarioMatrix::smoke().expand();
        assert!(scenarios.len() <= 40, "{}", scenarios.len());
        for topo in genoc_core::meta::TopologyKind::ALL {
            assert!(
                scenarios.iter().any(|s| s.meta.topology == topo),
                "{topo:?} missing from smoke"
            );
        }
    }

    #[test]
    fn large_matrix_reaches_32x32_and_stays_wormhole() {
        let e = ScenarioMatrix::large().expand_with_stats();
        assert!(
            e.scenarios
                .iter()
                .all(|s| s.switching == SwitchingKind::Wormhole),
            "the scale sweep runs wormhole only"
        );
        assert!(
            e.scenarios
                .iter()
                .any(|s| s.meta.width == 32 && s.meta.height == 32),
            "32x32 cells present"
        );
        assert!(
            e.scenarios
                .iter()
                .all(|s| s.meta.nodes() < 1024 || s.meta.capacity >= 4),
            "1024-node cells are capped to capacity >= 4"
        );
        assert_eq!(
            e.scenarios
                .iter()
                .filter(|s| s.meta.width == 64 && s.meta.height == 64)
                .count(),
            1,
            "exactly one 64x64 smoke cell (XY at capacity 4)"
        );
        let (preset, effort) = crate::preset("large").unwrap();
        assert_eq!(preset.expand().len(), e.scenarios.len());
        assert_eq!(effort, EffortProfile::large());
    }

    #[test]
    fn oracle_matrix_doubles_smoke_with_capacity_one_twins() {
        let smoke = ScenarioMatrix::smoke().expand();
        let oracle = ScenarioMatrix::oracle().expand();
        assert!(oracle.len() > smoke.len());
        for s in &smoke {
            assert!(oracle.contains(s), "{} missing from oracle", s.name());
        }
        assert!(
            oracle.iter().any(|s| s.meta.capacity == 1),
            "capacity-1 twins supply the cheap counterexamples"
        );
        let (preset, effort) = crate::preset("oracle").unwrap();
        assert_eq!(preset.expand().len(), oracle.len());
        assert_eq!(effort, EffortProfile::oracle());
    }

    #[test]
    fn scenario_names_are_unique() {
        let scenarios = ScenarioMatrix::standard().expand();
        let mut names: Vec<String> = scenarios.iter().map(ScenarioSpec::name).collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn workload_flits_cap_at_capacity_for_whole_packet_policies() {
        let meta = InstanceMeta::new(RoutingKind::Xy, 3, 3, 2);
        let wh = ScenarioSpec {
            meta,
            switching: SwitchingKind::Wormhole,
        };
        let saf = ScenarioSpec {
            meta,
            switching: SwitchingKind::StoreForward,
        };
        assert_eq!(wh.workload_flits(4), 4, "wormhole pipelines long worms");
        assert_eq!(
            saf.workload_flits(4),
            2,
            "store-and-forward caps at capacity"
        );
        assert_eq!(saf.workload_flits(0), 1, "at least one flit");
    }
}
