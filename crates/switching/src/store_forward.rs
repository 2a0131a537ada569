//! Tests of store-and-forward switching,
//! [`Switching`] of kind [`SwitchingKind::StoreForward`].

use crate::{Switching, SwitchingKind};

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::config::Config;
    use genoc_core::injection::IdentityInjection;
    use genoc_core::interpreter::{run, Outcome, RunOptions, RunResult};
    use genoc_core::line::{LineNetwork, LineRouting};
    use genoc_core::spec::MessageSpec;
    use genoc_core::NodeId;

    fn line_run(capacity: u32, flits: usize) -> RunResult {
        let net = LineNetwork::new(4, capacity);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(3),
            flits,
        )];
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let options = RunOptions {
            check_invariants: true,
            ..RunOptions::default()
        };
        run(
            &net,
            &IdentityInjection,
            &mut Switching::new(SwitchingKind::StoreForward),
            cfg,
            &options,
        )
        .unwrap()
    }

    #[test]
    fn packet_walks_hop_by_hop() {
        let r = line_run(3, 3);
        assert_eq!(r.outcome, Outcome::Evacuated);
        // Store-and-forward serialises: at least hops * flits steps.
        let hops = 7; // L-in + 3 links (out+in) = route len 8 - 1
        assert!(
            r.steps >= (hops * 3 / 2) as u64,
            "expected serialised transfer, took only {} steps",
            r.steps
        );
    }

    #[test]
    fn oversized_packet_is_a_wedge_not_a_panic() {
        let r = line_run(2, 3);
        assert_eq!(r.outcome, Outcome::Deadlock, "packet cannot fit anywhere");
    }
}
