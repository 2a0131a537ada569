//! The virtual-channel ablation (paper future work, E-A1): the same
//! topology and routing discipline flips from deadlock-prone to
//! deadlock-free when datelines with two virtual channels are added — and
//! the port-level dependency analysis, unchanged, certifies both sides.

use genoc::prelude::*;

#[test]
fn ring_ablation() {
    let plain = Ring::new(6, 1);
    let plain_g = port_dependency_graph(&plain, &RingShortestRouting::new(&plain));
    assert!(!acyclicity(&plain_g).is_acyclic(), "plain ring is cyclic");

    let vc = Ring::with_vcs(6, 2, 1);
    let vc_g = port_dependency_graph(&vc, &RingDatelineRouting::new(&vc));
    assert!(acyclicity(&vc_g).is_acyclic(), "dateline ring is acyclic");

    // The same pressure workload deadlocks the plain ring and evacuates on
    // the dateline ring.
    let specs = genoc::sim::workload::ring_offset(6, 2, 4);
    let plain_hunt = hunt_workload(
        &plain,
        &RingShortestRouting::new(&plain),
        &mut Switching::default(),
        &specs,
        0,
        50_000,
    )
    .unwrap();
    assert!(plain_hunt.is_some(), "plain ring deadlocks under pressure");

    let options = SimOptions::default();
    let vc_result = simulate(
        &vc,
        &RingDatelineRouting::new(&vc),
        &mut Switching::default(),
        &specs,
        &options,
    )
    .unwrap();
    assert!(
        vc_result.evacuated(),
        "dateline ring evacuates the same workload"
    );
}

#[test]
fn torus_ablation() {
    let plain = Torus::new(4, 4, 1);
    let plain_g = port_dependency_graph(&plain, &TorusDorRouting::new(&plain));
    assert!(!acyclicity(&plain_g).is_acyclic());

    let vc = Torus::with_vcs(4, 4, 2, 1);
    let vc_g = port_dependency_graph(&vc, &TorusDorDatelineRouting::new(&vc));
    assert!(acyclicity(&vc_g).is_acyclic());

    let specs: Vec<MessageSpec> = (0..16)
        .map(|i| {
            let (x, y) = (i % 4, i / 4);
            MessageSpec::new(
                NodeId::from_index(i),
                NodeId::from_index(y * 4 + (x + 2) % 4),
                4,
            )
        })
        .collect();
    let plain_hunt = hunt_workload(
        &plain,
        &TorusDorRouting::new(&plain),
        &mut Switching::default(),
        &specs,
        0,
        50_000,
    )
    .unwrap();
    assert!(
        plain_hunt.is_some(),
        "row pressure deadlocks the plain torus"
    );

    let vc_result = simulate(
        &vc,
        &TorusDorDatelineRouting::new(&vc),
        &mut Switching::default(),
        &specs,
        &SimOptions::default(),
    )
    .unwrap();
    assert!(vc_result.evacuated());
}

#[test]
fn spidergon_ablation() {
    let plain = Spidergon::new(12, 1);
    let plain_g = port_dependency_graph(&plain, &AcrossFirstRouting::new(&plain));
    assert!(!acyclicity(&plain_g).is_acyclic());

    let vc = Spidergon::with_vcs(12, 2, 1);
    let vc_g = port_dependency_graph(&vc, &AcrossFirstDatelineRouting::new(&vc));
    assert!(acyclicity(&vc_g).is_acyclic());

    // Quarter-arc pressure: every node sends 3 hops clockwise.
    let specs = genoc::sim::workload::ring_offset(12, 3, 4);
    let vc_result = simulate(
        &vc,
        &AcrossFirstDatelineRouting::new(&vc),
        &mut Switching::default(),
        &specs,
        &SimOptions::default(),
    )
    .unwrap();
    assert!(vc_result.evacuated());
}

#[test]
fn vc_count_grows_ports_not_semantics() {
    // Virtual channels are extra ports; the dependency machinery needs no
    // change (the paper's port-level formalism absorbs them).
    let r1 = Ring::new(5, 1);
    let r2 = Ring::with_vcs(5, 2, 1);
    use genoc_core::network::Network;
    assert!(r2.port_count() > r1.port_count());
    let g1 = port_dependency_graph(&r1, &RingShortestRouting::new(&r1));
    let g2 = port_dependency_graph(&r2, &RingDatelineRouting::new(&r2));
    assert_eq!(g1.vertex_count(), r1.port_count());
    assert_eq!(g2.vertex_count(), r2.port_count());
}
