//! Execution traces: per-flit movement events recorded during a run.
//!
//! Traces are consumed by the executable correctness theorem, which checks
//! that every arrived message was emitted at a valid source, was destined to
//! the node it arrived at, and followed a valid route (the original GeNoC
//! `CorrThm`).

use crate::ids::{MsgId, PortId};

/// Where a flit is, as seen by the trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Zone {
    /// Queued in the source IP core.
    Source,
    /// Resident in a port buffer.
    Port(PortId),
    /// Ejected into the destination IP core.
    Delivered,
}

/// A single flit movement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Switching step during which the move happened.
    pub step: u64,
    /// Message the flit belongs to.
    pub msg: MsgId,
    /// Flit index within the message (0 is the header).
    pub flit: u32,
    /// Where the flit moved from.
    pub from: Zone,
    /// Where the flit moved to.
    pub to: Zone,
}

/// An append-only movement log.
///
/// A disabled trace records nothing, so switching policies can
/// unconditionally call [`Trace::record`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    step: u64,
    events: Vec<Event>,
}

impl Trace {
    /// Creates a trace; a disabled trace drops all events.
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            step: 0,
            events: Vec::new(),
        }
    }

    /// Sets the step number stamped on subsequent events.
    pub fn begin_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Records one flit movement (no-op when disabled).
    pub fn record(&mut self, msg: MsgId, flit: usize, from: Zone, to: Zone) {
        if self.enabled {
            self.events.push(Event {
                step: self.step,
                msg,
                flit: flit as u32,
                from,
                to,
            });
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The port path followed by one flit of one message, reconstructed from
    /// the trace: every port it entered, in order.
    pub fn flit_path(&self, msg: MsgId, flit: u32) -> Vec<PortId> {
        self.events
            .iter()
            .filter(|e| e.msg == msg && e.flit == flit)
            .filter_map(|e| match e.to {
                Zone::Port(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// Whether the given flit was delivered according to the trace.
    pub fn flit_delivered(&self, msg: MsgId, flit: u32) -> bool {
        self.events
            .iter()
            .any(|e| e.msg == msg && e.flit == flit && e.to == Zone::Delivered)
    }

    /// Every flit's [`flit_path`](Trace::flit_path) and
    /// [`flit_delivered`](Trace::flit_delivered) at once, for a reader that
    /// asks about many flits: each of those two scans the whole trace.
    pub fn flit_index(&self) -> FlitIndex {
        FlitIndex::new(&self.events)
    }
}

/// A trace sorted by `(message, flit)`: the port path of every flit and
/// whether it was delivered, built by a counting sort over the events (three
/// passes, whatever the number of flits) and answered by slicing.
#[derive(Clone, Debug)]
pub struct FlitIndex {
    /// Message `m`'s flits are rows `msg_off[m]..msg_off[m + 1]`.
    msg_off: Vec<usize>,
    /// Row `r`'s path is `ports[path_off[r]..path_off[r + 1]]`.
    path_off: Vec<usize>,
    ports: Vec<PortId>,
    /// Per row: some event moved the flit to [`Zone::Delivered`].
    delivered: Vec<bool>,
}

impl FlitIndex {
    fn new(events: &[Event]) -> Self {
        // Rows: one per flit of every message id up to the largest seen.
        let mut msg_off = Vec::new();
        for e in events {
            if msg_off.len() < e.msg.index() + 2 {
                msg_off.resize(e.msg.index() + 2, 0);
            }
            let flits = &mut msg_off[e.msg.index() + 1];
            *flits = (*flits).max(e.flit as usize + 1);
        }
        for m in 1..msg_off.len() {
            msg_off[m] += msg_off[m - 1];
        }
        let rows = msg_off.last().copied().unwrap_or(0);
        let row = |e: &Event| msg_off[e.msg.index()] + e.flit as usize;

        let mut path_off = vec![0; rows + 1];
        let mut delivered = vec![false; rows];
        for e in events {
            match e.to {
                Zone::Port(_) => path_off[row(e) + 1] += 1,
                Zone::Delivered => delivered[row(e)] = true,
                Zone::Source => {}
            }
        }
        for r in 1..path_off.len() {
            path_off[r] += path_off[r - 1];
        }

        let mut ports = vec![PortId::from_index(0); path_off[rows]];
        let mut next = path_off.clone();
        for e in events {
            if let Zone::Port(p) = e.to {
                let r = row(e);
                ports[next[r]] = p;
                next[r] += 1;
            }
        }
        FlitIndex {
            msg_off,
            path_off,
            ports,
            delivered,
        }
    }

    /// The row of a flit the trace saw, or `None`.
    fn row(&self, msg: MsgId, flit: u32) -> Option<usize> {
        let start = *self.msg_off.get(msg.index())?;
        let end = *self.msg_off.get(msg.index() + 1)?;
        Some(start + flit as usize).filter(|&r| r < end)
    }

    /// [`Trace::flit_path`]: every port the flit entered, in order; empty for
    /// a flit the trace never saw.
    pub fn path(&self, msg: MsgId, flit: u32) -> &[PortId] {
        match self.row(msg, flit) {
            Some(r) => &self.ports[self.path_off[r]..self.path_off[r + 1]],
            None => &[],
        }
    }

    /// [`Trace::flit_delivered`]: `false` for a flit the trace never saw.
    pub fn delivered(&self, msg: MsgId, flit: u32) -> bool {
        self.row(msg, flit).is_some_and(|r| self.delivered[r])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: usize) -> MsgId {
        MsgId::from_index(i)
    }
    fn p(i: usize) -> PortId {
        PortId::from_index(i)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.record(m(0), 0, Zone::Source, Zone::Port(p(0)));
        assert!(t.events().is_empty());
    }

    #[test]
    fn flit_path_reconstructs_port_sequence() {
        let mut t = Trace::new(true);
        t.begin_step(0);
        t.record(m(0), 0, Zone::Source, Zone::Port(p(0)));
        t.begin_step(1);
        t.record(m(0), 0, Zone::Port(p(0)), Zone::Port(p(1)));
        t.record(m(1), 0, Zone::Source, Zone::Port(p(5)));
        t.begin_step(2);
        t.record(m(0), 0, Zone::Port(p(1)), Zone::Delivered);
        assert_eq!(t.flit_path(m(0), 0), vec![p(0), p(1)]);
        assert_eq!(t.flit_path(m(1), 0), vec![p(5)]);
        assert!(t.flit_delivered(m(0), 0));
        assert!(!t.flit_delivered(m(1), 0));
    }

    #[test]
    fn flit_index_answers_like_the_scans() {
        let mut t = Trace::new(true);
        assert!(t.flit_index().path(m(0), 0).is_empty());
        t.record(m(2), 1, Zone::Source, Zone::Port(p(4)));
        t.record(m(0), 0, Zone::Source, Zone::Port(p(0)));
        t.record(m(2), 1, Zone::Port(p(4)), Zone::Port(p(6)));
        t.record(m(0), 0, Zone::Port(p(0)), Zone::Delivered);
        t.record(m(2), 0, Zone::Port(p(9)), Zone::Delivered);
        let index = t.flit_index();
        // Message 1 and flit 2 of message 2 were never seen; 9 is past the end.
        for (msg, flit) in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2), (9, 0)] {
            assert_eq!(index.path(m(msg), flit), t.flit_path(m(msg), flit));
            assert_eq!(
                index.delivered(m(msg), flit),
                t.flit_delivered(m(msg), flit)
            );
        }
        assert_eq!(index.path(m(2), 1), [p(4), p(6)]);
        assert!(index.delivered(m(2), 0) && !index.delivered(m(2), 1));
    }

    #[test]
    fn events_carry_step_numbers() {
        let mut t = Trace::new(true);
        t.begin_step(7);
        t.record(m(0), 1, Zone::Source, Zone::Port(p(0)));
        assert_eq!(t.events()[0].step, 7);
        assert_eq!(t.events()[0].flit, 1);
    }
}
