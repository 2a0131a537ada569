//! Policy-specific head-admission predicates, layered over the generalised
//! flit motion of `genoc-core`.
//!
//! All three switching kinds move flits the same way — body flits follow
//! their predecessor under the ownership rules of `genoc-core` — and differ
//! only in when a *header* flit may claim the next port:
//!
//! * wormhole: whenever the port has a free buffer ([`AlwaysAdmit`]);
//! * virtual cut-through: only when the port could buffer the whole packet
//!   ([`WholePacketRoom`]);
//! * store-and-forward: additionally, only when the whole packet has been
//!   received in the header's current port ([`StoreAndForwardAdmission`]).
//!
//! The motion machinery itself ([`step_all`],
//! [`any_move_possible_with`], the [`HeadAdmission`] trait) lives in
//! [`genoc_core::step`], beside the reference interpreter that drives it;
//! this module re-exports it and contributes the two non-trivial admission
//! predicates.

pub use genoc_core::step::{
    any_move_possible_with, step_all, AlwaysAdmit, HeadAdmission, HeadMove,
};

use genoc_core::config::Config;
use genoc_core::meta::SwitchingKind;
use genoc_core::travel::FlitPos;

fn head_target_free(cfg: &Config, i: usize, mv: HeadMove) -> u32 {
    let t = cfg.travel(i);
    let port = match mv {
        HeadMove::Entry => t.route()[0],
        HeadMove::Advance { from } => t.route()[from + 1],
    };
    cfg.state().port(port).free()
}

/// Virtual cut-through admission: the next port must have room for the whole
/// packet, so a blocked packet always collapses into a single port.
#[derive(Clone, Copy, Debug, Default)]
pub struct WholePacketRoom;

impl HeadAdmission for WholePacketRoom {
    fn admit(&self, cfg: &Config, i: usize, mv: HeadMove) -> bool {
        head_target_free(cfg, i, mv) as usize >= cfg.travel(i).flit_count()
    }

    fn kind(&self) -> Option<SwitchingKind> {
        Some(SwitchingKind::VirtualCutThrough)
    }
}

/// Store-and-forward admission: whole-packet room ahead *and* the packet
/// fully received in the header's current port (no cut-through).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreAndForwardAdmission;

impl HeadAdmission for StoreAndForwardAdmission {
    fn admit(&self, cfg: &Config, i: usize, mv: HeadMove) -> bool {
        if (head_target_free(cfg, i, mv) as usize) < cfg.travel(i).flit_count() {
            return false;
        }
        match mv {
            HeadMove::Entry => true, // all flits are still at the source
            HeadMove::Advance { from } => {
                let t = cfg.travel(i);
                t.flit_positions()
                    .all(|pos| pos == FlitPos::InNetwork(from))
            }
        }
    }

    fn kind(&self) -> Option<SwitchingKind> {
        Some(SwitchingKind::StoreForward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::line::{LineNetwork, LineRouting};
    use genoc_core::spec::MessageSpec;
    use genoc_core::NodeId;

    fn cfg(nodes: usize, capacity: u32, flits: usize) -> (LineNetwork, Config) {
        let net = LineNetwork::new(nodes, capacity);
        let routing = LineRouting::new(&net);
        let specs = [MessageSpec::new(
            NodeId::from_index(0),
            NodeId::from_index(nodes - 1),
            flits,
        )];
        let c = Config::from_specs(&net, &routing, &specs).unwrap();
        (net, c)
    }

    #[test]
    fn vct_blocks_entry_without_whole_packet_room() {
        let (_, c) = cfg(3, 2, 3);
        assert!(
            !any_move_possible_with(&c, &WholePacketRoom),
            "3 flits, 2 buffers"
        );
        let (_, c) = cfg(3, 4, 3);
        assert!(any_move_possible_with(&c, &WholePacketRoom));
    }

    #[test]
    fn saf_requires_co_location_before_advancing() {
        let (net, mut c) = cfg(3, 3, 2);
        c.enter_flit(0, 0).unwrap();
        // Head in, body still pending: head may not advance under SAF.
        assert!(!StoreAndForwardAdmission.admit(&c, 0, HeadMove::Advance { from: 0 }));
        c.enter_flit(0, 1).unwrap();
        assert!(StoreAndForwardAdmission.admit(&c, 0, HeadMove::Advance { from: 0 }));
        c.validate(&net).unwrap();
    }

    #[test]
    fn always_admit_matches_core_predicate() {
        let (_, c) = cfg(4, 1, 2);
        assert_eq!(
            any_move_possible_with(&c, &AlwaysAdmit),
            c.any_move_possible()
        );
    }
}
