//! Tests of virtual cut-through switching,
//! [`Switching`] of kind [`SwitchingKind::VirtualCutThrough`].

use crate::{Switching, SwitchingKind};

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::config::Config;
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions};
    use genoc_core::line::{LineNetwork, LineRouting};
    use genoc_core::spec::MessageSpec;
    use genoc_core::NodeId;

    fn steps_with(mut policy: Switching) -> u64 {
        let net = LineNetwork::new(5, 4);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(4),
            4,
        )];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let r = run(
            &net,
            &IdentityInjection,
            &mut policy,
            cfg,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Evacuated);
        r.steps
    }

    #[test]
    fn vct_pipelines_like_wormhole_and_beats_store_and_forward() {
        let wormhole = steps_with(Switching::new(SwitchingKind::Wormhole));
        let vct = steps_with(Switching::new(SwitchingKind::VirtualCutThrough));
        let saf = steps_with(Switching::new(SwitchingKind::StoreForward));
        assert_eq!(
            vct, wormhole,
            "with ample buffers VCT pipelines identically"
        );
        assert!(saf > vct, "store-and-forward serialises: {saf} <= {vct}");
    }

    #[test]
    fn vct_refuses_ports_smaller_than_the_packet() {
        let net = LineNetwork::new(3, 2);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(2),
            3,
        )];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let r = run(
            &net,
            &IdentityInjection,
            &mut Switching::new(SwitchingKind::VirtualCutThrough),
            cfg,
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Deadlock);
    }
}
