//! The structured event write-ahead log: an append-only binary file of
//! framed, checksummed records describing one simulation run.
//!
//! ## Format
//!
//! A log starts with the 8-byte magic `GENOCWAL` and a `u32` format
//! version. Each record is then framed as
//!
//! ```text
//! len: u32 | kind: u8 | payload: [u8; len] | checksum: u64
//! ```
//!
//! with all integers little-endian. Frames make a damaged or truncated tail
//! *detectable without being fatal*: [`read_wal_bytes`] returns every record
//! up to the damage plus a description of it, and never panics on arbitrary
//! input (the round-trip and corruption property tests in
//! `tests/obs_wal.rs` pin this down).
//!
//! ## Checksum (format version 2)
//!
//! FNV-1a's update `h = (h ^ w) · P` (mod 2⁶⁴), folded over 64-bit words
//! instead of bytes — a log is tens of megabytes, and a byte-serial multiply
//! chain was a fifth of the time it took to read one back:
//!
//! ```text
//! h = (OFFSET ^ kind) · P
//! h = (h ^ w) · P      for each little-endian 8-byte word w of the payload,
//!                      the last one zero-padded when len % 8 != 0
//! h = (h ^ len) · P
//! checksum = h ^ (h >> 32)
//! ```
//!
//! `P` is odd, so every step is a bijection of `h` for a fixed word and of
//! the word for a fixed `h`: two payloads of one length that differ in
//! exactly one word — every single flipped byte is such a pair — differ in
//! `h` after that word and in every `h` after it, and the final
//! xor-shift is a bijection too. The length step tells a payload from the
//! same payload with zero bytes appended, which the padding alone cannot.
//! Version 1 folded bytes; its logs are refused by version number (logs are
//! per-run artifacts, so no reader for them is kept).
//!
//! ## Records
//!
//! Record kinds mirror the kernel's evidence stream one-to-one — injections,
//! flit moves, status [`WalEvent::Transition`]s (a `Blocked(p)` transition *is* a
//! wait-for edge), freed ports, derived wait-for edge add/remove, detector
//! firings and recovery actions — plus periodic [`WalEvent::Snapshot`]
//! records holding the full travel state so [`replay_to`](crate::replay_to)
//! can seek without scanning from the start.
//!
//! ## Writing
//!
//! A recovering run writes hundreds of thousands of records, nearly all of
//! them of the seven fixed-size kinds: `StepBegin` (8-byte payload), `Move`
//! (13), `Transition` (9), `EdgeAdd` (12), `EdgeRemove` and `FreedPort` (4),
//! and `RunEnd` (9). [`WalWriter::append`] frames one of those —
//! `len | kind | payload | checksum` — in an array on the stack and hands it
//! to the sink in one write; the other kinds are encoded into a scratch
//! buffer the writer reuses. Both go through one encoder per kind, so a
//! record's bytes do not depend on the path that wrote it. A file sink
//! buffers 64 KiB between system calls.
//!
//! A snapshot holds every travel, and the arrived ones — most of a run's
//! travels by its end — never change once they are in `A`. The writer keeps
//! the encoded images of the arrived prefix it last wrote, with each one's
//! id, flit count and route length, and
//! [`append_snapshot`](WalWriter::append_snapshot) encodes only the travels
//! that arrived since. The prefix is checked against `arrived` on every
//! snapshot: a travel whose id, flit count or route length differs from the
//! one kept in its place (an `A` reordered, shortened or replaced) has the
//! whole arrived block encoded again from the travels, and a `RunStart`
//! record empties the cache, since a second run reuses the first one's ids.
//! Debug builds assert that the block equals a fresh encoding on every
//! snapshot.
//!
//! ## Reading
//!
//! A recorded log is hundreds of thousands of records and a replay reads a
//! few thousand of them, so the reader verifies every record and decodes
//! none. [`read_wal`] streams the file once through one buffer of
//! [`WAL_READ_BUFFER`] bytes, the writer's buffer size, refilled from the
//! first frame that does not fit in what it holds (a frame longer than the
//! buffer grows it to that frame): every frame, every checksum, and every
//! payload's structure — field widths, enum tags, list lengths, a
//! snapshot's image block walked image by image, and consumption of each
//! payload to its last byte. The first record that fails any of these ends
//! the intact prefix and is named in [`WalLog::damage`]. The log then keeps
//! the open file, that buffer and an index: the snapshots' record numbers,
//! byte offsets and steps, the first `RunStart`'s seed and instance, the
//! last `RunEnd`, the last step marker, the record count and the intact
//! length ([`WalRecords`]) — never the log's bytes, so reading a log back
//! costs a buffer whatever its length. (A pipe cannot be read back from
//! offsets; its bytes are read whole and kept.) [`read_wal_bytes`] runs the same
//! frame walker and the same parser over the bytes it is given, and keeps a
//! copy of their intact prefix. The check and the decoder are one parser,
//! so a record that passed the read decodes.
//!
//! Decoding happens where a reader looks:
//! [`recorded_outcome`](crate::recorded_outcome),
//! [`final_steps`](crate::final_steps) and [`run_start`](crate::run_start)
//! answer from the index; [`replay_to`](crate::replay_to) seeks through the
//! index and decodes one snapshot — into [`TravelImage`]s, then travels — and
//! the step markers and moves after it;
//! [`tail_lines`](crate::tail_lines) decodes its `k` lines and the
//! detections; [`WalRecords::iter`] decodes each record as it yields it. A
//! [`WalEvent::Snapshot`] keeps its image block encoded
//! ([`SnapshotImages`]) until its images are asked for.
//!
//! Each of those passes reads the records it looks at back from the file,
//! from their offsets and through the same buffer, and checks each frame's
//! length, kind and checksum again on the way in. A file cut short,
//! rewritten or unreadable since it was verified is therefore an
//! [`Error::WalChanged`] naming the byte offset of the first record that no
//! longer reads back — never a panic, and never a stream that ends early as
//! if the log did.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use genoc_core::error::{Error, Result};
use genoc_core::interpreter::Outcome;
use genoc_core::kernel::TravelStatus;
use genoc_core::meta::{InstanceMeta, RoutingKind, SwitchingKind};
use genoc_core::moves::MoveKind;
use genoc_core::travel::{FlitPos, Travel};
use genoc_core::{MsgId, PortId};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"GENOCWAL";
/// Current format version.
pub const WAL_VERSION: u32 = 2;

/// Sentinel encoding `None` for optional port/message fields.
const NONE_SENTINEL: u32 = u32::MAX;

/// Instance identity carried in the [`WalEvent::RunStart`] record, enough to
/// rebuild the network for replay (`genoc_verif::Instance::from_meta`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WalMeta {
    /// Topology/routing/size identity of the instance.
    pub meta: InstanceMeta,
    /// Switching policy the run used.
    pub switching: SwitchingKind,
}

/// Full position image of one travel inside a [`WalEvent::Snapshot`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TravelImage {
    /// Message identifier.
    pub id: MsgId,
    /// The (possibly rerouted) route at snapshot time.
    pub route: Vec<PortId>,
    /// Position of every flit, head first.
    pub flits: Vec<FlitPos>,
}

/// The travel images of one [`WalEvent::Snapshot`], kept as the record's
/// encoded image block — `inflight count | images | arrived count | images`
/// — and decoded on demand.
///
/// A value of this type is always well formed: the only ways to build one
/// are [`from_images`](SnapshotImages::from_images), which encodes, and the
/// decoder, which takes a block the reader walked (counts, per-image route
/// and flit lengths, exact consumption) when it read the log, and which it
/// reported as a malformed record had it failed. Equality is equality of the
/// blocks, which the encoding makes equality of the images.
#[derive(Clone, PartialEq, Eq)]
pub struct SnapshotImages {
    block: Vec<u8>,
    inflight: u32,
    arrived: u32,
    /// Byte offset in `block` of the first arrived image.
    arrived_at: usize,
}

impl SnapshotImages {
    /// Encodes the images of the travels in flight and arrived.
    pub fn from_images(inflight: &[TravelImage], arrived: &[TravelImage]) -> SnapshotImages {
        let mut block = Vec::new();
        for images in [inflight, arrived] {
            put_u32(&mut block, images.len() as u32);
            for img in images {
                let positions = img.flits.iter().copied();
                put_image(&mut block, img.id, &img.route, img.flits.len(), positions);
            }
        }
        let (inflight, arrived, arrived_at) =
            SnapshotImages::layout(&block).expect("an encoded block is well formed");
        SnapshotImages {
            block,
            inflight,
            arrived,
            arrived_at,
        }
    }

    /// Walks a snapshot payload's image block and returns its
    /// `(inflight, arrived, arrived_at)`; `None` for a block that does not
    /// decode to its last byte.
    fn layout(block: &[u8]) -> Option<(u32, u32, usize)> {
        let mut c = Cursor::new(block, true);
        let mut counts = [0u32; 2];
        let mut arrived_at = 0;
        for count in &mut counts {
            *count = c.take_u32()?;
            if *count as usize > c.remaining() {
                return None;
            }
            arrived_at = c.pos;
            for _ in 0..*count {
                c.skip_image()?;
            }
        }
        c.done().then_some((counts[0], counts[1], arrived_at))
    }

    /// What a check (`parse` without building) returns in place of a
    /// snapshot's images: it reads their layout and copies nothing. Never
    /// leaves `parse`'s caller.
    fn unread() -> SnapshotImages {
        SnapshotImages {
            block: Vec::new(),
            inflight: 0,
            arrived: 0,
            arrived_at: 0,
        }
    }

    /// Number of travels in flight at snapshot time.
    pub fn inflight_len(&self) -> usize {
        self.inflight as usize
    }

    /// Number of travels already arrived at snapshot time.
    pub fn arrived_len(&self) -> usize {
        self.arrived as usize
    }

    /// Decodes the travels in flight, in configuration order.
    pub fn inflight(&self) -> impl Iterator<Item = TravelImage> + '_ {
        self.images_at(4, self.inflight)
    }

    /// Decodes the travels already arrived, in arrival order.
    pub fn arrived(&self) -> impl Iterator<Item = TravelImage> + '_ {
        self.images_at(self.arrived_at, self.arrived)
    }

    fn images_at(&self, pos: usize, count: u32) -> impl Iterator<Item = TravelImage> + '_ {
        let mut c = Cursor {
            data: &self.block,
            pos,
            build: true,
        };
        (0..count).map(move |_| c.take_image().expect("block validated when it was taken"))
    }
}

impl std::fmt::Debug for SnapshotImages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotImages")
            .field("inflight", &self.inflight().collect::<Vec<_>>())
            .field("arrived", &self.arrived().collect::<Vec<_>>())
            .finish()
    }
}

/// Which recovery action a [`WalEvent::Recovery`] record describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryAction {
    /// Messages aborted and evacuated.
    Abort,
    /// Messages diverted onto an escape route.
    Reroute,
    /// A drain-and-restart round (no per-message list).
    Restart,
}

/// One decoded WAL record.
#[derive(Clone, PartialEq, Debug)]
pub enum WalEvent {
    /// Run header: format version, workload seed, and (when known) the
    /// instance identity for replay.
    RunStart {
        /// Format version of the writer.
        version: u32,
        /// Seed identifying the workload.
        seed: u64,
        /// Instance identity, when the recorder knew it.
        meta: Option<WalMeta>,
    },
    /// A message entering the initial configuration.
    Inject {
        /// Message identifier.
        msg: MsgId,
        /// Number of flits.
        flits: u32,
        /// The assigned route.
        route: Vec<PortId>,
    },
    /// Marks the start of switching step `step`; all following movement and
    /// transition records up to the next marker belong to it.
    StepBegin {
        /// Step index (0-based).
        step: u64,
    },
    /// One flit movement.
    Move {
        /// Message the flit belongs to.
        msg: MsgId,
        /// Flit index within the message (0 is the header).
        flit: u32,
        /// Enter / advance / eject.
        kind: MoveKind,
        /// The port entered, advanced into, or ejected from.
        port: PortId,
    },
    /// A kernel status transition (a `Blocked(p)` transition is a wait-for
    /// edge forming on port `p`).
    Transition {
        /// The travel that changed status.
        msg: MsgId,
        /// Its new status.
        status: TravelStatus,
    },
    /// A port freed during the step (the wake condition log).
    FreedPort {
        /// The freed port.
        port: PortId,
    },
    /// A wait-for edge appearing: `msg` waits for `wants`, currently owned
    /// by `on` (if any owner exists).
    EdgeAdd {
        /// The blocked travel.
        msg: MsgId,
        /// The port it needs.
        wants: PortId,
        /// The travel owning that port, when known.
        on: Option<MsgId>,
    },
    /// The wait-for edge of `msg` disappearing (it woke or arrived).
    EdgeRemove {
        /// The travel that is no longer blocked.
        msg: MsgId,
    },
    /// The detector confirmed a wait-for cycle.
    Detection {
        /// Step after which the cycle was observed.
        step: u64,
        /// Travels of the cycle, in wait order.
        msgs: Vec<MsgId>,
        /// Port expansion of the cycle.
        ports: Vec<PortId>,
    },
    /// A recovery action taken by the detection engine.
    Recovery {
        /// What kind of recovery.
        action: RecoveryAction,
        /// Affected messages (empty for drain-and-restart rounds).
        msgs: Vec<MsgId>,
    },
    /// Full state snapshot after `step` completed steps. Replay barriers:
    /// any wait-for state derived from earlier records is void after a
    /// snapshot written by a recovery mutation.
    Snapshot {
        /// Completed switching steps at snapshot time.
        step: u64,
        /// The travels in flight and arrived, still encoded.
        images: SnapshotImages,
    },
    /// Run footer.
    RunEnd {
        /// How the run ended.
        outcome: Outcome,
        /// Total switching steps.
        steps: u64,
    },
}

// Record kinds; `pub(crate)` so that a reader of a verified log can pass
// over the records it does not look at without decoding them.
pub(crate) const KIND_RUN_START: u8 = 1;
pub(crate) const KIND_INJECT: u8 = 2;
pub(crate) const KIND_STEP_BEGIN: u8 = 3;
pub(crate) const KIND_MOVE: u8 = 4;
pub(crate) const KIND_TRANSITION: u8 = 5;
pub(crate) const KIND_FREED_PORT: u8 = 6;
pub(crate) const KIND_EDGE_ADD: u8 = 7;
pub(crate) const KIND_EDGE_REMOVE: u8 = 8;
pub(crate) const KIND_DETECTION: u8 = 9;
pub(crate) const KIND_RECOVERY: u8 = 10;
pub(crate) const KIND_SNAPSHOT: u8 = 11;
pub(crate) const KIND_RUN_END: u8 = 12;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The record checksum of format version 2 (module doc, "Checksum").
#[inline]
fn checksum(kind: u8, payload: &[u8]) -> u64 {
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
    let mut h = fold(FNV_OFFSET, u64::from(kind));
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    h = fold(h, payload.len() as u64);
    h ^ (h >> 32)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A `u32` count `n` and the `n` words `words` yields, written into one
/// resize of `buf` rather than pushed one by one: a snapshot is some
/// twenty thousand of them.
fn put_counted(buf: &mut Vec<u8>, n: usize, words: impl Iterator<Item = u32>) {
    put_u32(buf, n as u32);
    let at = buf.len();
    buf.resize(at + 4 * n, 0);
    let mut written = 0;
    for (slot, w) in buf[at..].chunks_exact_mut(4).zip(words) {
        slot.copy_from_slice(&w.to_le_bytes());
        written += 1;
    }
    debug_assert_eq!(written, n, "the words fill their count");
}

fn put_ports(buf: &mut Vec<u8>, ports: &[PortId]) {
    put_counted(buf, ports.len(), ports.iter().map(|p| p.index() as u32));
}

fn put_msgs(buf: &mut Vec<u8>, msgs: &[MsgId]) {
    put_counted(buf, msgs.len(), msgs.iter().map(|m| m.index() as u32));
}

fn flit_pos_code(pos: FlitPos) -> u32 {
    match pos {
        FlitPos::Pending => 0,
        FlitPos::InNetwork(k) => (k as u32) + 1,
        FlitPos::Delivered => NONE_SENTINEL,
    }
}

fn flit_pos_decode(code: u32) -> FlitPos {
    match code {
        0 => FlitPos::Pending,
        NONE_SENTINEL => FlitPos::Delivered,
        k => FlitPos::InNetwork((k - 1) as usize),
    }
}

/// The image of travel `t` in a snapshot payload.
fn put_travel(buf: &mut Vec<u8>, t: &Travel) {
    let at = buf.len();
    put_image(buf, t.id(), t.route(), t.flit_count(), t.flit_positions());
    debug_assert_eq!(buf.len() - at, image_len(t));
}

/// Bytes of travel `t`'s image: id, route length, flit count, then one word
/// per port and per flit.
fn image_len(t: &Travel) -> usize {
    12 + 4 * (t.route().len() + t.flit_count())
}

/// One travel's image in a snapshot payload; `positions` yields `flits` items.
fn put_image(
    buf: &mut Vec<u8>,
    id: MsgId,
    route: &[PortId],
    flits: usize,
    positions: impl Iterator<Item = FlitPos>,
) {
    put_u32(buf, id.index() as u32);
    put_ports(buf, route);
    put_counted(buf, flits, positions.map(flit_pos_code));
}

fn routing_index(kind: RoutingKind) -> u8 {
    RoutingKind::ALL
        .iter()
        .position(|&r| r == kind)
        .expect("RoutingKind::ALL is exhaustive") as u8
}

fn switching_index(kind: SwitchingKind) -> u8 {
    SwitchingKind::ALL
        .iter()
        .position(|&s| s == kind)
        .expect("SwitchingKind::ALL is exhaustive") as u8
}

/// Bytes of a frame in front of its payload: `len: u32 | kind: u8`.
const FRAME_HEADER: usize = 5;
/// Bytes of a frame behind its payload: the checksum.
const FRAME_TRAILER: usize = 8;
/// The longest frame of a fixed-size kind (`Move`'s 13-byte payload).
const FIXED_FRAME_MAX: usize = FRAME_HEADER + 13 + FRAME_TRAILER;

/// Where the payload of a fixed-size record goes: an array of its kind's
/// length, so that framing and checksumming it compile to straight-line
/// code.
trait FixedPayload {
    /// What taking the payload yields.
    type Out;
    /// Takes the `N`-byte payload of a record of `kind`.
    fn take<const N: usize>(self, kind: u8, payload: [u8; N]) -> Self::Out;
}

/// `parts` back to back in an array of their total length `N`.
#[inline(always)]
fn concat<const N: usize>(parts: &[&[u8]]) -> [u8; N] {
    let mut out = [0; N];
    let mut at = 0;
    for part in parts {
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    debug_assert_eq!(at, N, "the parts fill the payload");
    out
}

/// The one encoder of the fixed-size kinds (module doc, "Writing"): hands
/// `ev`'s payload to `out`; `None` for the other kinds.
#[inline(always)]
fn encode_fixed<O: FixedPayload>(ev: &WalEvent, out: O) -> Option<O::Out> {
    let id = |i: usize| (i as u32).to_le_bytes();
    Some(match *ev {
        WalEvent::StepBegin { step } => out.take(KIND_STEP_BEGIN, step.to_le_bytes()),
        WalEvent::Move {
            msg,
            flit,
            kind,
            port,
        } => {
            let code = match kind {
                MoveKind::Enter => 0,
                MoveKind::Advance => 1,
                MoveKind::Eject => 2,
            };
            let parts = [
                &id(msg.index())[..],
                &flit.to_le_bytes(),
                &[code],
                &id(port.index()),
            ];
            out.take::<13>(KIND_MOVE, concat(&parts))
        }
        WalEvent::Transition { msg, status } => {
            let (code, port) = match status {
                TravelStatus::Pending => (0u8, NONE_SENTINEL),
                TravelStatus::Active => (1, NONE_SENTINEL),
                TravelStatus::Blocked(q) => (2, q.index() as u32),
                TravelStatus::Delivered => (3, NONE_SENTINEL),
            };
            let parts = [&id(msg.index())[..], &[code], &port.to_le_bytes()];
            out.take::<9>(KIND_TRANSITION, concat(&parts))
        }
        WalEvent::FreedPort { port } => out.take(KIND_FREED_PORT, id(port.index())),
        WalEvent::EdgeAdd { msg, wants, on } => {
            let on = on.map_or(NONE_SENTINEL, |m| m.index() as u32);
            let parts = [&id(msg.index())[..], &id(wants.index()), &on.to_le_bytes()];
            out.take::<12>(KIND_EDGE_ADD, concat(&parts))
        }
        WalEvent::EdgeRemove { msg } => out.take(KIND_EDGE_REMOVE, id(msg.index())),
        WalEvent::RunEnd { outcome, steps } => {
            let code = match outcome {
                Outcome::Evacuated => 0,
                Outcome::Deadlock => 1,
                Outcome::StepLimit => 2,
            };
            out.take::<9>(KIND_RUN_END, concat(&[&[code], &steps.to_le_bytes()]))
        }
        WalEvent::RunStart { .. }
        | WalEvent::Inject { .. }
        | WalEvent::Detection { .. }
        | WalEvent::Recovery { .. }
        | WalEvent::Snapshot { .. } => return None,
    })
}

/// A payload appended to a buffer, yielding its kind.
impl FixedPayload for &mut Vec<u8> {
    type Out = u8;

    fn take<const N: usize>(self, kind: u8, payload: [u8; N]) -> u8 {
        self.extend_from_slice(&payload);
        kind
    }
}

/// Appends `ev`'s payload to `p` and returns its record kind.
fn encode_into(ev: &WalEvent, p: &mut Vec<u8>) -> u8 {
    if let Some(kind) = encode_fixed(ev, &mut *p) {
        return kind;
    }
    match ev {
        WalEvent::RunStart {
            version,
            seed,
            meta,
        } => {
            put_u32(p, *version);
            put_u64(p, *seed);
            match meta {
                None => p.push(0),
                Some(m) => {
                    p.push(1);
                    p.push(routing_index(m.meta.routing));
                    put_u32(p, m.meta.width as u32);
                    put_u32(p, m.meta.height as u32);
                    put_u32(p, m.meta.vcs as u32);
                    put_u32(p, m.meta.capacity);
                    p.push(switching_index(m.switching));
                }
            }
            KIND_RUN_START
        }
        WalEvent::Inject { msg, flits, route } => {
            put_u32(p, msg.index() as u32);
            put_u32(p, *flits);
            put_ports(p, route);
            KIND_INJECT
        }
        WalEvent::Detection { step, msgs, ports } => {
            put_u64(p, *step);
            put_msgs(p, msgs);
            put_ports(p, ports);
            KIND_DETECTION
        }
        WalEvent::Recovery { action, msgs } => {
            p.push(match action {
                RecoveryAction::Abort => 0,
                RecoveryAction::Reroute => 1,
                RecoveryAction::Restart => 2,
            });
            put_msgs(p, msgs);
            KIND_RECOVERY
        }
        WalEvent::Snapshot { step, images } => {
            put_u64(p, *step);
            p.extend_from_slice(&images.block);
            KIND_SNAPSHOT
        }
        WalEvent::StepBegin { .. }
        | WalEvent::Move { .. }
        | WalEvent::Transition { .. }
        | WalEvent::FreedPort { .. }
        | WalEvent::EdgeAdd { .. }
        | WalEvent::EdgeRemove { .. }
        | WalEvent::RunEnd { .. } => unreachable!("encode_fixed encodes the fixed-size kinds"),
    }
}

/// Sequential reader over a byte slice; every `take_*` returns `None` past
/// the end instead of panicking.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// Whether lists are built; unset, a list is checked and stepped over
    /// and comes back empty, which allocates nothing.
    build: bool,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8], build: bool) -> Self {
        Cursor {
            data,
            pos: 0,
            build,
        }
    }

    fn take_u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn take_u32(&mut self) -> Option<u32> {
        let bytes = self.data.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Option<u64> {
        let bytes = self.data.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// A `u32` count and that many `u32` ids.
    fn take_ids<T>(&mut self, id: fn(usize) -> T) -> Option<Vec<T>> {
        let n = self.take_u32()? as usize;
        if n > self.remaining() / 4 {
            return None;
        }
        if !self.build {
            self.pos += 4 * n;
            return Some(Vec::new());
        }
        Some(self.take_words(n, |v| id(v as usize)))
    }

    /// `n` `u32`s, which the caller has checked are there, into one
    /// allocation.
    fn take_words<T>(&mut self, n: usize, f: impl Fn(u32) -> T) -> Vec<T> {
        let words = self.data[self.pos..self.pos + 4 * n].chunks_exact(4);
        self.pos += 4 * n;
        words
            .map(|w| f(u32::from_le_bytes(w.try_into().expect("4 bytes"))))
            .collect()
    }

    fn take_ports(&mut self) -> Option<Vec<PortId>> {
        self.take_ids(PortId::from_index)
    }

    fn take_msgs(&mut self) -> Option<Vec<MsgId>> {
        self.take_ids(MsgId::from_index)
    }

    fn take_image(&mut self) -> Option<TravelImage> {
        let id = MsgId::from_index(self.take_u32()? as usize);
        let route = self.take_ports()?;
        let n = self.take_u32()? as usize;
        if n > self.remaining() / 4 {
            return None;
        }
        let flits = self.take_words(n, flit_pos_decode);
        Some(TravelImage { id, route, flits })
    }

    /// Steps over one image, checking what [`take_image`](Cursor::take_image)
    /// checks and building nothing.
    fn skip_image(&mut self) -> Option<()> {
        self.take_u32()?;
        for _ in 0..2 {
            let n = self.take_u32()? as usize;
            if n > self.remaining() / 4 {
                return None;
            }
            self.pos += 4 * n;
        }
        Some(())
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// The one definition of a well-formed record, and its decoder. With
/// `build` unset it is the reader's check: the same walk over the same
/// fields, allocating nothing — lists come back empty and a snapshot's
/// images [unread](SnapshotImages::unread) — so the event it returns is good
/// for its verdict and its fixed-size fields only.
///
/// Inlined into both callers, so that in the reader's copy, where `build`
/// is `false`, nothing is built and no drop glue runs (checking a
/// 725 k-record log took ≈ 38 ms without it and ≈ 25 ms with it, on one
/// core of a 2-core Xeon container).
#[inline(always)]
fn parse(kind: u8, payload: &[u8], build: bool) -> Option<WalEvent> {
    let mut c = Cursor::new(payload, build);
    let ev = match kind {
        KIND_RUN_START => {
            let version = c.take_u32()?;
            let seed = c.take_u64()?;
            let meta = match c.take_u8()? {
                0 => None,
                1 => {
                    let routing = *RoutingKind::ALL.get(c.take_u8()? as usize)?;
                    let width = c.take_u32()? as usize;
                    let height = c.take_u32()? as usize;
                    let vcs = c.take_u32()? as usize;
                    let capacity = c.take_u32()?;
                    let switching = *SwitchingKind::ALL.get(c.take_u8()? as usize)?;
                    let mut meta = InstanceMeta::new(routing, width, height, capacity);
                    meta.width = width;
                    meta.height = height;
                    meta.vcs = vcs;
                    Some(WalMeta { meta, switching })
                }
                _ => return None,
            };
            WalEvent::RunStart {
                version,
                seed,
                meta,
            }
        }
        KIND_INJECT => WalEvent::Inject {
            msg: MsgId::from_index(c.take_u32()? as usize),
            flits: c.take_u32()?,
            route: c.take_ports()?,
        },
        KIND_STEP_BEGIN => WalEvent::StepBegin {
            step: c.take_u64()?,
        },
        KIND_MOVE => WalEvent::Move {
            msg: MsgId::from_index(c.take_u32()? as usize),
            flit: c.take_u32()?,
            kind: match c.take_u8()? {
                0 => MoveKind::Enter,
                1 => MoveKind::Advance,
                2 => MoveKind::Eject,
                _ => return None,
            },
            port: PortId::from_index(c.take_u32()? as usize),
        },
        KIND_TRANSITION => {
            let msg = MsgId::from_index(c.take_u32()? as usize);
            let code = c.take_u8()?;
            let port = c.take_u32()?;
            let status = match code {
                0 => TravelStatus::Pending,
                1 => TravelStatus::Active,
                2 => TravelStatus::Blocked(PortId::from_index(port as usize)),
                3 => TravelStatus::Delivered,
                _ => return None,
            };
            WalEvent::Transition { msg, status }
        }
        KIND_FREED_PORT => WalEvent::FreedPort {
            port: PortId::from_index(c.take_u32()? as usize),
        },
        KIND_EDGE_ADD => WalEvent::EdgeAdd {
            msg: MsgId::from_index(c.take_u32()? as usize),
            wants: PortId::from_index(c.take_u32()? as usize),
            on: match c.take_u32()? {
                NONE_SENTINEL => None,
                v => Some(MsgId::from_index(v as usize)),
            },
        },
        KIND_EDGE_REMOVE => WalEvent::EdgeRemove {
            msg: MsgId::from_index(c.take_u32()? as usize),
        },
        KIND_DETECTION => WalEvent::Detection {
            step: c.take_u64()?,
            msgs: c.take_msgs()?,
            ports: c.take_ports()?,
        },
        KIND_RECOVERY => WalEvent::Recovery {
            action: match c.take_u8()? {
                0 => RecoveryAction::Abort,
                1 => RecoveryAction::Reroute,
                2 => RecoveryAction::Restart,
                _ => return None,
            },
            msgs: c.take_msgs()?,
        },
        KIND_SNAPSHOT => {
            let step = c.take_u64()?;
            // The image block is the rest of the payload, walked to its end.
            let block = &payload[c.pos..];
            let (inflight, arrived, arrived_at) = SnapshotImages::layout(block)?;
            let images = if build {
                SnapshotImages {
                    block: block.to_vec(),
                    inflight,
                    arrived,
                    arrived_at,
                }
            } else {
                SnapshotImages::unread()
            };
            return Some(WalEvent::Snapshot { step, images });
        }
        KIND_RUN_END => WalEvent::RunEnd {
            outcome: match c.take_u8()? {
                0 => Outcome::Evacuated,
                1 => Outcome::Deadlock,
                2 => Outcome::StepLimit,
                _ => return None,
            },
            steps: c.take_u64()?,
        },
        _ => return None,
    };
    if c.done() {
        Some(ev)
    } else {
        None
    }
}

enum Sink {
    Mem(Vec<u8>),
    File(BufWriter<File>),
}

/// Bytes a file sink buffers between system calls: a recovering run's log
/// is tens of megabytes of records of at most 26 bytes.
const FILE_BUFFER: usize = 64 * 1024;

/// A fixed-size record framed on the stack and written in one call.
impl FixedPayload for &mut WalWriter {
    type Out = io::Result<()>;

    #[inline(always)]
    fn take<const N: usize>(self, kind: u8, payload: [u8; N]) -> io::Result<()> {
        let mut frame = [0; FIXED_FRAME_MAX];
        frame[..4].copy_from_slice(&(N as u32).to_le_bytes());
        frame[4] = kind;
        frame[FRAME_HEADER..FRAME_HEADER + N].copy_from_slice(&payload);
        let sum = checksum(kind, &payload).to_le_bytes();
        frame[FRAME_HEADER + N..FRAME_HEADER + N + FRAME_TRAILER].copy_from_slice(&sum);
        self.write_record(&frame[..FRAME_HEADER + N + FRAME_TRAILER])
    }
}

/// The images of the arrived travels the last snapshot wrote, kept encoded
/// (module doc, "Writing").
#[derive(Default)]
struct ArrivedImages {
    /// `id | flit count | route length` of each travel in `block`, in order.
    keys: Vec<[u32; 3]>,
    /// Their images, back to back, as a snapshot payload holds them.
    block: Vec<u8>,
}

impl ArrivedImages {
    fn key(t: &Travel) -> [u32; 3] {
        let id = t.id().index() as u32;
        [id, t.flit_count() as u32, t.route().len() as u32]
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.block.clear();
    }

    /// The encoded images of `arrived`: the kept prefix when every kept key
    /// matches the travel in its place, and the images of the travels past
    /// it encoded and kept; otherwise all of them encoded afresh. The run's
    /// `travels`, whose images take `bytes`, bound what arrives.
    fn update(&mut self, arrived: &[Travel], travels: usize, bytes: usize) -> &[u8] {
        let kept = self.keys.len() <= arrived.len()
            && (self.keys.iter().zip(arrived)).all(|(k, t)| *k == ArrivedImages::key(t));
        if !kept {
            self.clear();
        }
        self.keys
            .reserve_exact(travels.saturating_sub(self.keys.len()));
        self.block
            .reserve_exact(bytes.saturating_sub(self.block.len()));
        for t in &arrived[self.keys.len()..] {
            self.keys.push(ArrivedImages::key(t));
            put_travel(&mut self.block, t);
        }
        debug_assert!(
            {
                let mut fresh = Vec::with_capacity(self.block.len());
                arrived.iter().for_each(|t| put_travel(&mut fresh, t));
                fresh == self.block
            },
            "the kept arrived images differ from a fresh encoding"
        );
        &self.block
    }
}

/// Append-only WAL writer over a file or an in-memory buffer, counting the
/// bytes and records written (the `wal_bytes`/`wal_records` metrics).
pub struct WalWriter {
    sink: Sink,
    bytes: u64,
    records: u64,
    /// The scratch buffer of the kinds that are not fixed-size, reused
    /// across appends: a record is encoded into it behind [`FRAME_HEADER`]
    /// reserved bytes, framed there, and written from it.
    frame: Vec<u8>,
    arrived: ArrivedImages,
}

impl WalWriter {
    fn new(sink: Sink) -> io::Result<WalWriter> {
        let mut w = WalWriter {
            sink,
            bytes: 0,
            records: 0,
            frame: Vec::new(),
            arrived: ArrivedImages::default(),
        };
        let mut header = [0; RECORDS_AT];
        header[..8].copy_from_slice(&WAL_MAGIC);
        header[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
        w.write_all(&header)?;
        Ok(w)
    }

    /// A writer appending to an in-memory buffer (tests, doc examples).
    pub fn in_memory() -> WalWriter {
        WalWriter::new(Sink::Mem(Vec::new())).expect("in-memory writes cannot fail")
    }

    /// A writer creating `path` (and its parent directories).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        WalWriter::new(Sink::File(BufWriter::with_capacity(FILE_BUFFER, file)))
    }

    #[inline]
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        match &mut self.sink {
            Sink::Mem(buf) => buf.extend_from_slice(data),
            Sink::File(f) => f.write_all(data)?,
        }
        self.bytes += data.len() as u64;
        Ok(())
    }

    /// Writes one whole frame and counts it.
    #[inline]
    fn write_record(&mut self, frame: &[u8]) -> io::Result<()> {
        self.write_all(frame)?;
        self.records += 1;
        Ok(())
    }

    /// The scratch buffer, emptied down to a frame header to be filled in.
    fn open_frame(&mut self) -> Vec<u8> {
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.resize(FRAME_HEADER, 0);
        frame
    }

    /// Appends one framed, checksummed record: a fixed-size kind framed on
    /// the stack, any other in the scratch buffer (module doc, "Writing").
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    #[inline]
    pub fn append(&mut self, ev: &WalEvent) -> io::Result<()> {
        match encode_fixed(ev, &mut *self) {
            Some(written) => written,
            None => self.append_framed(ev),
        }
    }

    /// [`append`](WalWriter::append) for the kinds that are not fixed-size,
    /// kept out of line so that `append` inlines where a fixed-size record
    /// is built.
    #[inline(never)]
    fn append_framed(&mut self, ev: &WalEvent) -> io::Result<()> {
        if let WalEvent::RunStart { .. } = ev {
            // A new run reuses the last one's message ids.
            self.arrived.clear();
        }
        let mut frame = self.open_frame();
        let kind = encode_into(ev, &mut frame);
        self.write_frame(kind, frame)
    }

    /// Appends the [`WalEvent::Snapshot`] record of the travels in flight
    /// and arrived, encoded straight from them — the arrived ones only since
    /// the last snapshot (module doc, "Writing"): byte for byte what
    /// [`append`](WalWriter::append) writes for the event holding their
    /// [`TravelImage`]s, without building those.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn append_snapshot(
        &mut self,
        step: u64,
        inflight: &[Travel],
        arrived: &[Travel],
    ) -> io::Result<()> {
        // Both buffers are reserved to size once rather than grown by
        // doubling, which left a recovering run's process ≈ 2 MB more
        // resident through the allocator's thresholds.
        let images: usize = inflight.iter().chain(arrived).map(image_len).sum();
        let mut frame = self.open_frame();
        frame.reserve_exact(8 + 4 + images + 4 + FRAME_TRAILER);
        put_u64(&mut frame, step);
        put_u32(&mut frame, inflight.len() as u32);
        for t in inflight {
            put_travel(&mut frame, t);
        }
        put_u32(&mut frame, arrived.len() as u32);
        let travels = inflight.len() + arrived.len();
        frame.extend_from_slice(self.arrived.update(arrived, travels, images));
        self.write_frame(KIND_SNAPSHOT, frame)
    }

    /// Completes the record whose payload sits in `frame` behind the
    /// reserved header — length and kind in front, checksum of the payload
    /// slice behind — writes it, and takes `frame` back as the scratch
    /// buffer of the next.
    fn write_frame(&mut self, kind: u8, mut frame: Vec<u8>) -> io::Result<()> {
        let len = (frame.len() - FRAME_HEADER) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4] = kind;
        let checksum = checksum(kind, &frame[FRAME_HEADER..]);
        put_u64(&mut frame, checksum);
        let result = self.write_record(&frame);
        self.frame = frame;
        result
    }

    /// Total bytes written so far (header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Records appended so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes buffered file output.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Sink::Mem(_) => Ok(()),
            Sink::File(f) => f.flush(),
        }
    }

    /// Finishes the log: flushes, and returns the buffer for in-memory
    /// writers (`None` for file-backed ones).
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn finish(mut self) -> io::Result<Option<Vec<u8>>> {
        self.flush()?;
        match self.sink {
            Sink::Mem(buf) => Ok(Some(buf)),
            Sink::File(_) => Ok(None),
        }
    }
}

/// A read log: its intact records, plus a description of trailing damage
/// when the input did not end cleanly at a record boundary.
#[derive(Debug)]
pub struct WalLog {
    /// Format version from the header.
    pub version: u32,
    /// All intact records, in append order.
    pub events: WalRecords,
    /// `Some(description)` when the tail was truncated or corrupt; the
    /// events up to that point are still valid.
    pub damage: Option<String>,
}

/// Byte offset of the first record: past the magic and the version.
const RECORDS_AT: usize = 12;

/// Bytes of a file-backed log the reader holds at a time: the writer's
/// buffer size. A frame longer than that grows the buffer to the frame.
pub const WAL_READ_BUFFER: usize = FILE_BUFFER;

/// Where a snapshot sits in a [`WalRecords`], and the step it was taken
/// after.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapshotMark {
    /// Its record number.
    pub(crate) record: usize,
    /// Byte offset of its frame.
    pub(crate) offset: u64,
    /// Completed switching steps at snapshot time.
    pub(crate) step: u64,
}

/// The bytes of a log, handed out a window at a time.
pub(crate) trait Window {
    /// The `n` bytes at byte `at`, which the caller has checked lie before
    /// the end the log had when it was verified; an error when they are no
    /// longer there.
    fn window(&mut self, at: u64, n: usize) -> io::Result<&[u8]>;

    /// Drops what the window holds, so that the next read goes to the
    /// source.
    fn forget(&mut self) {}
}

/// A log in memory.
struct InMemory<'a>(&'a [u8]);

impl Window for InMemory<'_> {
    #[inline]
    fn window(&mut self, at: u64, n: usize) -> io::Result<&[u8]> {
        let at = usize::try_from(at).ok();
        at.and_then(|at| self.0.get(at..at.checked_add(n)?))
            .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }
}

/// A log in a file, read through one buffer (module doc, "Reading").
struct FileWindow {
    file: File,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    start: u64,
    /// Bytes of `buf` read from the file at `start`.
    filled: usize,
}

impl FileWindow {
    fn new(file: File) -> FileWindow {
        FileWindow {
            file,
            buf: vec![0; WAL_READ_BUFFER],
            start: 0,
            filled: 0,
        }
    }

    /// Reads the file from byte `at` into the buffer, `n` bytes at least
    /// and as many as the buffer holds.
    #[inline(never)]
    fn fill(&mut self, at: u64, n: usize) -> io::Result<()> {
        if self.buf.len() < n {
            self.buf.resize(n, 0);
        }
        self.filled = 0;
        self.file.seek(SeekFrom::Start(at))?;
        self.start = at;
        let mut got = 0;
        while got < n {
            match self.file.read(&mut self.buf[got..]) {
                Ok(0) => {
                    let end = at + got as u64;
                    let what = format!("the file ends at byte {end}");
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, what));
                }
                Ok(more) => got += more,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.filled = got;
        Ok(())
    }
}

impl Window for FileWindow {
    #[inline]
    fn window(&mut self, at: u64, n: usize) -> io::Result<&[u8]> {
        let held = (at.checked_sub(self.start))
            .and_then(|off| usize::try_from(off).ok())
            .filter(|off| off.checked_add(n).is_some_and(|end| end <= self.filled));
        let off = match held {
            Some(off) => off,
            None => {
                self.fill(at, n)?;
                0
            }
        };
        Ok(&self.buf[off..off + n])
    }

    fn forget(&mut self) {
        self.filled = 0;
    }
}

/// Why a frame could not be read: the source failed, or its bytes are not
/// an intact frame (the damage description).
enum Fault {
    Io(io::Error),
    Damage(String),
}

/// The one frame walker: the frames of `src` from byte `pos` up to byte
/// `end`, each one's length, kind and checksum checked as it is read. The
/// reader verifies a log with it, and every pass over a verified log reads
/// its records back with it.
pub(crate) struct Walker<'s, S: Window + ?Sized> {
    src: &'s mut S,
    pos: u64,
    end: u64,
    /// The record number of the frame at `pos`.
    record: usize,
}

/// One checked record, in the walker's window.
pub(crate) struct Frame<'a> {
    /// Its record number.
    pub(crate) record: usize,
    /// Byte offset of its frame.
    pub(crate) offset: u64,
    /// Its kind (`KIND_*`).
    pub(crate) kind: u8,
    payload: &'a [u8],
}

impl Frame<'_> {
    /// The record as a [`WalEvent`].
    ///
    /// # Errors
    ///
    /// [`Error::WalChanged`] when the payload, which passed its checksum,
    /// does not decode: the log was rewritten since it was verified.
    pub(crate) fn decode(&self) -> Result<WalEvent> {
        parse(self.kind, self.payload, true).ok_or_else(|| {
            let (kind, at) = (self.kind, self.offset);
            changed(at, format!("malformed record (kind {kind}) at byte {at}"))
        })
    }
}

/// The error for a record of a verified log that no longer reads back as it
/// was verified.
fn changed(offset: u64, what: String) -> Error {
    Error::WalChanged { offset, what }
}

impl<S: Window + ?Sized> Walker<'_, S> {
    /// The next frame, checked; `None` at the end.
    #[inline]
    fn next_frame(&mut self) -> std::result::Result<Option<Frame<'_>>, Fault> {
        let at = self.pos;
        let Some(left) = self.end.checked_sub(at).filter(|&left| left > 0) else {
            return Ok(None);
        };
        let damage = |what: String| Err(Fault::Damage(what));
        if left < 4 {
            return damage(format!("truncated frame length at byte {at}"));
        }
        if left < FRAME_HEADER as u64 {
            return damage(format!("truncated record kind at byte {at}"));
        }
        let header = self.src.window(at, FRAME_HEADER).map_err(Fault::Io)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let kind = header[4];
        if left < (FRAME_HEADER + len) as u64 {
            return damage(format!("truncated payload at byte {at} (want {len} bytes)"));
        }
        let size = FRAME_HEADER + len + FRAME_TRAILER;
        if left < size as u64 {
            return damage(format!("truncated checksum at byte {at}"));
        }
        let frame = self.src.window(at, size).map_err(Fault::Io)?;
        let (payload, sum) = frame[FRAME_HEADER..].split_at(len);
        let mut stored = [0; FRAME_TRAILER];
        stored.copy_from_slice(sum);
        if u64::from_le_bytes(stored) != checksum(kind, payload) {
            return damage(format!("checksum mismatch at byte {at}"));
        }
        let record = self.record;
        self.pos = at + size as u64;
        self.record += 1;
        Ok(Some(Frame {
            record,
            offset: at,
            kind,
            payload,
        }))
    }

    /// The next record of a verified log; `None` at its end.
    ///
    /// # Errors
    ///
    /// [`Error::WalChanged`] naming the record's byte offset when it no
    /// longer reads back as it was verified: cut short, its checksum no
    /// longer matching, or the source failing.
    pub(crate) fn read(&mut self) -> Result<Option<Frame<'_>>> {
        let at = self.pos;
        self.next_frame().map_err(|fault| match fault {
            Fault::Damage(what) => changed(at, what),
            Fault::Io(e) => changed(at, format!("{e}, reading the record at byte {at}")),
        })
    }

    /// The record framed at byte `pos`, record number `record`, of a
    /// verified log.
    ///
    /// # Errors
    ///
    /// As [`read`](Walker::read).
    pub(crate) fn read_at(&mut self, pos: u64, record: usize) -> Result<Frame<'_>> {
        (self.pos, self.record) = (pos, record);
        let end = self.end;
        self.read()?.ok_or_else(|| {
            changed(
                pos,
                format!("no record at byte {pos}: the log ends at {end}"),
            )
        })
    }
}

/// The intact records of a log with the index a replay seeks by, verified
/// when they were read (module doc, "Reading"); an in-memory log keeps its
/// bytes, a file-backed one its open file and a buffer.
/// [`iter`](WalRecords::iter) reads and decodes them in append order.
pub struct WalRecords {
    source: Source,
    /// Byte offset just past the last intact record: every pass ends there.
    intact: u64,
    /// Records in the intact prefix.
    len: usize,
    /// Every snapshot, in append order.
    pub(crate) snapshots: Vec<SnapshotMark>,
    /// The first `RunStart`'s `(seed, meta)`.
    pub(crate) run_start: Option<(u64, Option<WalMeta>)>,
    /// The last `RunEnd`'s `(outcome, steps)`.
    pub(crate) run_end: Option<(Outcome, u64)>,
    /// The last `StepBegin`'s step.
    pub(crate) last_step: Option<u64>,
}

/// Where a [`WalRecords`] reads its records back from.
enum Source {
    /// The intact prefix of an in-memory log.
    InMemory(Vec<u8>),
    /// A file-backed log: its file and the buffer it was verified through.
    File(Mutex<FileWindow>),
}

impl WalRecords {
    /// Where the first record sits: `(byte offset, record number)`.
    pub(crate) const FIRST: (u64, usize) = (RECORDS_AT as u64, 0);

    fn empty() -> WalRecords {
        WalRecords {
            source: Source::InMemory(Vec::new()),
            intact: 0,
            len: 0,
            snapshots: Vec::new(),
            run_start: None,
            run_end: None,
            last_step: None,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the records back, in append order, and decodes each as it
    /// yields it. A file-backed log is read from the file as it is now.
    ///
    /// Each item is [`Error::WalChanged`], naming its byte offset, when the
    /// record no longer reads back as it was verified; nothing follows it.
    pub fn iter(&self) -> impl Iterator<Item = Result<WalEvent>> + '_ {
        self.records_of(None)
    }

    /// The records of `kind` (every record for `None`), read back and
    /// decoded one by one.
    pub(crate) fn records_of(
        &self,
        kind: Option<u8>,
    ) -> impl Iterator<Item = Result<WalEvent>> + '_ {
        self.with_window(|src| src.forget());
        let (mut pos, mut record) = WalRecords::FIRST;
        let mut failed = false;
        std::iter::from_fn(move || {
            if failed {
                return None;
            }
            let next = self.with_window(|src| {
                let mut frames = Walker {
                    src,
                    pos,
                    end: self.intact,
                    record,
                };
                let next = loop {
                    match frames.read() {
                        Ok(Some(f)) if kind.is_some_and(|k| k != f.kind) => {}
                        Ok(Some(f)) => break Some(f.decode()),
                        Ok(None) => break None,
                        Err(e) => break Some(Err(e)),
                    }
                };
                (pos, record) = (frames.pos, frames.record);
                next
            });
            failed = matches!(next, Some(Err(_)));
            next
        })
    }

    /// Runs `f` on the walker over the records from `(byte offset, record
    /// number)` `from` on, holding the source for the pass. A file-backed
    /// log is read from the file as it is now.
    pub(crate) fn walk<T>(
        &self,
        from: (u64, usize),
        f: impl FnOnce(&mut Walker<'_, dyn Window + '_>) -> T,
    ) -> T {
        self.with_window(|src| {
            src.forget();
            let (pos, record) = from;
            f(&mut Walker {
                src,
                pos,
                end: self.intact,
                record,
            })
        })
    }

    /// Runs `f` on the log's source, holding a file-backed log's buffer
    /// while it runs.
    fn with_window<T>(&self, f: impl FnOnce(&mut (dyn Window + '_)) -> T) -> T {
        match &self.source {
            Source::InMemory(bytes) => f(&mut InMemory(bytes)),
            Source::File(window) => f(&mut *window.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Counts the checked record `ev`, framed at `offset`, and indexes it.
    fn note(&mut self, offset: u64, ev: &WalEvent) {
        match *ev {
            WalEvent::RunStart { seed, meta, .. } if self.run_start.is_none() => {
                self.run_start = Some((seed, meta));
            }
            WalEvent::StepBegin { step } => self.last_step = Some(step),
            WalEvent::Snapshot { step, .. } => self.snapshots.push(SnapshotMark {
                record: self.len,
                offset,
                step,
            }),
            WalEvent::RunEnd { outcome, steps } => self.run_end = Some((outcome, steps)),
            _ => {}
        }
        self.len += 1;
    }
}

/// The index and the intact length, which do not depend on where the log
/// was read from.
impl std::fmt::Debug for WalRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalRecords")
            .field("len", &self.len)
            .field("intact", &self.intact)
            .field("snapshots", &self.snapshots)
            .field("run_start", &self.run_start)
            .field("run_end", &self.run_end)
            .field("last_step", &self.last_step)
            .finish()
    }
}

/// Verifies the log `src` holds up to byte `end`, record by record (module
/// doc, "Reading"): the log with its index filled in and its source not yet
/// set. Only a failing source is an error.
fn verify<S: Window + ?Sized>(src: &mut S, end: u64) -> io::Result<WalLog> {
    let mut log = WalLog {
        version: 0,
        events: WalRecords::empty(),
        damage: None,
    };
    let header = match end >= RECORDS_AT as u64 {
        true => Some(src.window(0, RECORDS_AT)?),
        false => None,
    };
    let Some(header) = header.filter(|h| h[..8] == WAL_MAGIC) else {
        log.damage = Some("missing GENOCWAL header".into());
        return Ok(log);
    };
    log.version = u32::from_le_bytes(header[8..].try_into().expect("4 bytes"));
    if log.version != WAL_VERSION {
        log.damage = Some(format!(
            "unsupported WAL version {} (reader speaks {})",
            log.version, WAL_VERSION
        ));
        return Ok(log);
    }
    let (pos, record) = WalRecords::FIRST;
    let mut frames = Walker {
        src,
        pos,
        end,
        record,
    };
    let mut intact = pos;
    loop {
        let frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(Fault::Damage(damage)) => {
                log.damage = Some(damage);
                break;
            }
            Err(Fault::Io(e)) => return Err(e),
        };
        let (kind, at) = (frame.kind, frame.offset);
        let Some(ev) = parse(kind, frame.payload, false) else {
            log.damage = Some(format!("malformed record (kind {kind}) at byte {at}"));
            break;
        };
        log.events.note(at, &ev);
        intact = frames.pos;
    }
    src.forget();
    log.events.intact = intact;
    Ok(log)
}

/// Reads a WAL from bytes, copying its intact prefix. Never panics: damaged
/// input yields the intact prefix plus a [`WalLog::damage`] description.
pub fn read_wal_bytes(data: &[u8]) -> WalLog {
    let mut log = verify(&mut InMemory(data), data.len() as u64)
        .expect("every window of an in-memory log lies within it");
    let intact = log.events.intact as usize;
    log.events.source = Source::InMemory(data[..intact].to_vec());
    log
}

/// Reads a WAL file (see [`read_wal_bytes`]) through one buffer of
/// [`WAL_READ_BUFFER`] bytes, and keeps the open file and that buffer to
/// read the records back from.
///
/// A source that is not a regular file, such as a pipe, cannot be read
/// back from offsets: its bytes are read whole and kept, as
/// [`read_wal_bytes`] keeps them.
///
/// # Errors
///
/// Propagates I/O errors; damage is reported in [`WalLog::damage`], not as
/// an error.
pub fn read_wal(path: &Path) -> io::Result<WalLog> {
    let mut file = File::open(path)?;
    let meta = file.metadata()?;
    if !meta.is_file() {
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        return Ok(read_wal_bytes(&data));
    }
    let end = meta.len();
    let mut window = FileWindow::new(file);
    let mut log = verify(&mut window, end)?;
    log.events.source = Source::File(Mutex::new(window));
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record of `records`, read back and decoded.
    fn decoded(records: &WalRecords) -> Vec<WalEvent> {
        records
            .iter()
            .collect::<Result<_>>()
            .expect("an unchanged log reads back")
    }

    fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::RunStart {
                version: WAL_VERSION,
                seed: 42,
                meta: Some(WalMeta {
                    meta: InstanceMeta::new(RoutingKind::Xy, 3, 3, 2),
                    switching: SwitchingKind::Wormhole,
                }),
            },
            WalEvent::Inject {
                msg: MsgId::from_index(0),
                flits: 3,
                route: vec![PortId::from_index(1), PortId::from_index(4)],
            },
            WalEvent::StepBegin { step: 0 },
            WalEvent::Move {
                msg: MsgId::from_index(0),
                flit: 0,
                kind: MoveKind::Enter,
                port: PortId::from_index(1),
            },
            WalEvent::Transition {
                msg: MsgId::from_index(0),
                status: TravelStatus::Blocked(PortId::from_index(4)),
            },
            WalEvent::FreedPort {
                port: PortId::from_index(4),
            },
            WalEvent::EdgeAdd {
                msg: MsgId::from_index(0),
                wants: PortId::from_index(4),
                on: Some(MsgId::from_index(1)),
            },
            WalEvent::EdgeRemove {
                msg: MsgId::from_index(0),
            },
            WalEvent::Detection {
                step: 7,
                msgs: vec![MsgId::from_index(0), MsgId::from_index(1)],
                ports: vec![PortId::from_index(4), PortId::from_index(5)],
            },
            WalEvent::Recovery {
                action: RecoveryAction::Abort,
                msgs: vec![MsgId::from_index(1)],
            },
            WalEvent::Snapshot {
                step: 8,
                images: SnapshotImages::from_images(
                    &[TravelImage {
                        id: MsgId::from_index(0),
                        route: vec![PortId::from_index(1), PortId::from_index(4)],
                        flits: vec![FlitPos::InNetwork(1), FlitPos::InNetwork(0)],
                    }],
                    &[TravelImage {
                        id: MsgId::from_index(2),
                        route: vec![PortId::from_index(9)],
                        flits: vec![FlitPos::Delivered],
                    }],
                ),
            },
            WalEvent::RunEnd {
                outcome: Outcome::Deadlock,
                steps: 8,
            },
        ]
    }

    #[test]
    fn round_trips_every_record_kind() {
        let events = sample_events();
        let mut w = WalWriter::in_memory();
        for ev in &events {
            w.append(ev).unwrap();
        }
        assert_eq!(w.records_written(), events.len() as u64);
        let bytes = w.finish().unwrap().unwrap();
        let log = read_wal_bytes(&bytes);
        assert_eq!(log.version, WAL_VERSION);
        assert!(log.damage.is_none(), "{:?}", log.damage);
        assert_eq!(decoded(&log.events), events);
    }

    /// One frame of each fixed-size kind, as literal bytes written by the
    /// writer before it framed these kinds on the stack: every `MoveKind`,
    /// every `TravelStatus`, `on: None`, and ids at and next to
    /// `NONE_SENTINEL`.
    #[test]
    fn fixed_size_frames_are_pinned() {
        let (m, p) = (MsgId::from_index, PortId::from_index);
        let max = NONE_SENTINEL as usize;
        #[rustfmt::skip]
        let pinned: [(WalEvent, &[u8]); 16] = [
            (WalEvent::StepBegin { step: 0x0102_0304_0506_0708 }, &[
                0x08, 0x00, 0x00, 0x00, 0x03, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02,
                0x01, 0xce, 0xf1, 0xba, 0x33, 0xdc, 0xf6, 0xce, 0x64]),
            (WalEvent::StepBegin { step: u64::MAX }, &[
                0x08, 0x00, 0x00, 0x00, 0x03, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                0xff, 0xea, 0xe8, 0x03, 0x91, 0xe7, 0x14, 0x06, 0x1e]),
            (WalEvent::Move { msg: m(0), flit: 0, kind: MoveKind::Enter, port: p(1) }, &[
                0x0d, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x6c, 0x31, 0xc7, 0x8b, 0x5e, 0xc1,
                0xd4, 0xc9]),
            (WalEvent::Move { msg: m(7), flit: 3, kind: MoveKind::Advance, port: p(max - 1) }, &[
                0x0d, 0x00, 0x00, 0x00, 0x04, 0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
                0x00, 0x01, 0xfe, 0xff, 0xff, 0xff, 0x3e, 0x5e, 0x45, 0xa8, 0xa0, 0xf0,
                0x49, 0x1e]),
            (WalEvent::Move {
                msg: m(max - 1), flit: NONE_SENTINEL, kind: MoveKind::Eject, port: p(0x0102_0304),
            }, &[
                0x0d, 0x00, 0x00, 0x00, 0x04, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                0xff, 0x02, 0x04, 0x03, 0x02, 0x01, 0xeb, 0x63, 0xd8, 0x51, 0x0d, 0x3e,
                0x29, 0x57]),
            (WalEvent::Transition { msg: m(1), status: TravelStatus::Pending }, &[
                0x09, 0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff,
                0xff, 0xff, 0x02, 0xda, 0x9c, 0xfa, 0x55, 0x99, 0x5b, 0x0b]),
            (WalEvent::Transition { msg: m(2), status: TravelStatus::Active }, &[
                0x09, 0x00, 0x00, 0x00, 0x05, 0x02, 0x00, 0x00, 0x00, 0x01, 0xff, 0xff,
                0xff, 0xff, 0x16, 0x97, 0x93, 0xe2, 0x00, 0x5d, 0xf8, 0x1a]),
            (WalEvent::Transition { msg: m(3), status: TravelStatus::Blocked(p(max - 1)) }, &[
                0x09, 0x00, 0x00, 0x00, 0x05, 0x03, 0x00, 0x00, 0x00, 0x02, 0xfe, 0xff,
                0xff, 0xff, 0xaa, 0x17, 0x86, 0xbd, 0xab, 0x99, 0x96, 0x42]),
            (WalEvent::Transition { msg: m(max - 1), status: TravelStatus::Delivered }, &[
                0x09, 0x00, 0x00, 0x00, 0x05, 0xfe, 0xff, 0xff, 0xff, 0x03, 0xff, 0xff,
                0xff, 0xff, 0xdc, 0x9c, 0x7c, 0xd1, 0xde, 0xcd, 0xf2, 0xd6]),
            (WalEvent::FreedPort { port: p(max) }, &[
                0x04, 0x00, 0x00, 0x00, 0x06, 0xff, 0xff, 0xff, 0xff, 0x2a, 0xda, 0xed,
                0xac, 0x68, 0x2b, 0x50, 0x31]),
            (WalEvent::EdgeAdd { msg: m(5), wants: p(9), on: None }, &[
                0x0c, 0x00, 0x00, 0x00, 0x07, 0x05, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                0x00, 0xff, 0xff, 0xff, 0xff, 0xa9, 0xdd, 0x3b, 0x85, 0x53, 0x93, 0xb3,
                0xf6]),
            (WalEvent::EdgeAdd { msg: m(max - 1), wants: p(max), on: Some(m(max - 1)) }, &[
                0x0c, 0x00, 0x00, 0x00, 0x07, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                0xff, 0xfe, 0xff, 0xff, 0xff, 0x55, 0x01, 0xad, 0x51, 0xff, 0x28, 0x5a,
                0xf5]),
            (WalEvent::EdgeRemove { msg: m(0x0102_0304) }, &[
                0x04, 0x00, 0x00, 0x00, 0x08, 0x04, 0x03, 0x02, 0x01, 0x36, 0x91, 0x89,
                0x68, 0x01, 0x59, 0xf1, 0xed]),
            (WalEvent::RunEnd { outcome: Outcome::Evacuated, steps: 0 }, &[
                0x09, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0xbe, 0x3f, 0xb5, 0x3b, 0xa0, 0x2d, 0x10, 0xcd]),
            (WalEvent::RunEnd { outcome: Outcome::Deadlock, steps: 2395 }, &[
                0x09, 0x00, 0x00, 0x00, 0x0c, 0x01, 0x5b, 0x09, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x11, 0xcf, 0x15, 0xb3, 0xb8, 0xc7, 0x23, 0xf3]),
            (WalEvent::RunEnd { outcome: Outcome::StepLimit, steps: u64::MAX }, &[
                0x09, 0x00, 0x00, 0x00, 0x0c, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                0xff, 0xff, 0x6f, 0xf0, 0xa8, 0xab, 0x60, 0x84, 0xca, 0x0c]),
        ];
        for (ev, frame) in pinned {
            let mut w = WalWriter::in_memory();
            w.append(&ev).unwrap();
            let bytes = w.finish().unwrap().unwrap();
            assert_eq!(&bytes[RECORDS_AT..], frame, "{ev:?}");
            // The buffer path encodes the same payload.
            let mut payload = Vec::new();
            assert_eq!(encode_into(&ev, &mut payload), frame[4], "{ev:?}");
            assert_eq!(payload, frame[FRAME_HEADER..frame.len() - FRAME_TRAILER]);
            assert_eq!(decoded(&read_wal_bytes(&bytes).events), [ev]);
        }
    }

    /// A writer that kept the arrived images of its last snapshot writes
    /// every snapshot byte for byte as a fresh writer does, through arrivals,
    /// an abort, an `A` that `reseat` put in another order, and a second run
    /// whose ids, flit counts and route lengths are the first one's.
    #[test]
    fn a_kept_snapshot_is_byte_identical_to_a_fresh_one() {
        use genoc_core::config::Config;
        use genoc_core::line::{LineNetwork, LineRouting};
        use genoc_core::spec::MessageSpec;
        use genoc_core::NodeId;

        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let config = |pairs: &[(usize, usize, usize)]| {
            let specs: Vec<MessageSpec> = (pairs.iter())
                .map(|&(s, d, f)| MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), f))
                .collect();
            Config::from_specs(&net, &routing, &specs).unwrap()
        };
        // Carries the one-flit travel with id `id` to its destination.
        let deliver = |cfg: &mut Config, id: usize| {
            let i = (cfg.travels().iter())
                .position(|t| t.id().index() == id)
                .unwrap();
            cfg.enter_flit(i, 0).unwrap();
            while cfg.eject_flit(i, 0).is_err() {
                cfg.advance_flit(i, 0).unwrap();
            }
            assert_eq!(cfg.drain_arrived(), [MsgId::from_index(id)]);
        };
        let arrived =
            |cfg: &Config| -> Vec<usize> { cfg.arrived().iter().map(|t| t.id().index()).collect() };
        let start = |seed| WalEvent::RunStart {
            version: WAL_VERSION,
            seed,
            meta: None,
        };

        let mut kept = WalWriter::in_memory();
        let mut fresh: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut snapshot = |w: &mut WalWriter, cfg: &Config| {
            let at = w.bytes_written();
            w.append_snapshot(at, cfg.travels(), cfg.arrived()).unwrap();
            let mut alone = WalWriter::in_memory();
            alone
                .append_snapshot(at, cfg.travels(), cfg.arrived())
                .unwrap();
            let bytes = alone.finish().unwrap().unwrap();
            fresh.push((at, bytes[RECORDS_AT..].to_vec()));
        };

        kept.append(&start(1)).unwrap();
        let mut cfg = config(&[(0, 1, 1), (0, 3, 2), (2, 3, 1), (3, 0, 1), (1, 2, 1)]);
        snapshot(&mut kept, &cfg);
        deliver(&mut cfg, 2);
        snapshot(&mut kept, &cfg);
        deliver(&mut cfg, 0);
        // Travel 1's head in the network, its tail pending.
        cfg.enter_flit(0, 0).unwrap();
        assert_eq!(arrived(&cfg), [2, 0]);
        snapshot(&mut kept, &cfg);
        cfg.remove_travel(MsgId::from_index(3)).unwrap();
        snapshot(&mut kept, &cfg);
        let key = cfg.position_key();
        cfg.reseat(&key).unwrap();
        assert_eq!(arrived(&cfg), [0, 2]);
        snapshot(&mut kept, &cfg);
        deliver(&mut cfg, 4);
        snapshot(&mut kept, &cfg);

        // The arrived travels have the first run's ids, flit counts and
        // route lengths, in its order, on other routes.
        kept.append(&start(2)).unwrap();
        let mut cfg = config(&[(1, 2, 1), (0, 3, 2), (1, 0, 1), (3, 0, 1), (2, 1, 1)]);
        for id in [0, 2, 4] {
            deliver(&mut cfg, id);
        }
        snapshot(&mut kept, &cfg);

        let log = kept.finish().unwrap().unwrap();
        for (at, frame) in fresh {
            let at = at as usize;
            assert_eq!(
                log[at..at + frame.len()],
                frame,
                "the snapshot at byte {at}"
            );
        }
        assert!(read_wal_bytes(&log).damage.is_none());
    }

    #[test]
    fn snapshot_from_travels_is_byte_identical_to_the_event() {
        use genoc_core::config::Config;
        use genoc_core::line::{LineNetwork, LineRouting};
        use genoc_core::spec::MessageSpec;
        use genoc_core::NodeId;

        let node = NodeId::from_index;
        let net = LineNetwork::new(4, 2);
        let routing = LineRouting::new(&net);
        let specs = [
            MessageSpec::new(node(0), node(0), 1),
            MessageSpec::new(node(0), node(3), 3),
            MessageSpec::new(node(2), node(1), 2),
        ];
        let mut cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        // One travel arrived, one strung over two ports with a pending
        // tail, one untouched: every `FlitPos` variant is on the page.
        cfg.enter_flit(0, 0).unwrap();
        while cfg.eject_flit(0, 0).is_err() {
            cfg.advance_flit(0, 0).unwrap();
        }
        assert_eq!(cfg.drain_arrived().len(), 1);
        cfg.enter_flit(0, 0).unwrap();
        cfg.advance_flit(0, 0).unwrap();
        cfg.enter_flit(0, 1).unwrap();
        assert_eq!((cfg.travels().len(), cfg.arrived().len()), (2, 1));

        let image = |t: &Travel| TravelImage {
            id: t.id(),
            route: t.route().to_vec(),
            flits: t.flit_positions().collect(),
        };
        let inflight: Vec<TravelImage> = cfg.travels().iter().map(image).collect();
        let arrived: Vec<TravelImage> = cfg.arrived().iter().map(image).collect();
        let images = SnapshotImages::from_images(&inflight, &arrived);
        // The block gives back the images it was built from, in order.
        assert_eq!((images.inflight_len(), images.arrived_len()), (2, 1));
        assert_eq!(images.inflight().collect::<Vec<_>>(), inflight);
        assert_eq!(images.arrived().collect::<Vec<_>>(), arrived);
        let event = WalEvent::Snapshot { step: 5, images };
        // A record either side, so the shared scratch buffers are dirty.
        let fence = WalEvent::StepBegin { step: 5 };
        let mut by_event = WalWriter::in_memory();
        let mut direct = WalWriter::in_memory();
        for w in [&mut by_event, &mut direct] {
            w.append(&fence).unwrap();
        }
        by_event.append(&event).unwrap();
        direct
            .append_snapshot(5, cfg.travels(), cfg.arrived())
            .unwrap();
        for w in [&mut by_event, &mut direct] {
            w.append(&fence).unwrap();
        }
        assert_eq!(direct.records_written(), by_event.records_written());
        let bytes = direct.finish().unwrap().unwrap();
        assert_eq!(bytes, by_event.finish().unwrap().unwrap());
        let log = read_wal_bytes(&bytes);
        assert!(log.damage.is_none(), "{:?}", log.damage);
        // The block read back decodes to the travels it was written from.
        let read = decoded(&log.events);
        let WalEvent::Snapshot { images, .. } = &read[1] else {
            panic!("second record is the snapshot");
        };
        assert_eq!(images.inflight().collect::<Vec<_>>(), inflight);
        assert_eq!(images.arrived().collect::<Vec<_>>(), arrived);
        assert_eq!(read, [fence.clone(), event, fence]);
    }

    #[test]
    fn an_ill_structured_snapshot_is_malformed_at_read_time() {
        let fence = WalEvent::StepBegin { step: 8 };
        let snapshot = sample_events().swap_remove(10);
        let mut payload = Vec::new();
        assert_eq!(encode_into(&snapshot, &mut payload), KIND_SNAPSHOT);
        // step (8) | inflight count (4) | id, route length 2 …
        let (inflight_count, route_len) = (8, 16);
        let overrun = {
            let mut p = payload.clone();
            p[inflight_count..inflight_count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            p
        };
        let long_route = {
            let mut p = payload.clone();
            p[route_len..route_len + 4].copy_from_slice(&3u32.to_le_bytes());
            p
        };
        let cut_image = payload[..payload.len() - 4].to_vec();
        let trailing = [&payload[..], &[0]].concat();
        for (what, bad) in [
            ("overrunning count", overrun),
            ("overlong route", long_route),
            ("truncated image", cut_image),
            ("trailing byte", trailing),
        ] {
            // Written with a valid checksum, so only the structure is wrong.
            let mut w = WalWriter::in_memory();
            w.append(&fence).unwrap();
            let at = w.bytes_written();
            let mut frame = w.open_frame();
            frame.extend_from_slice(&bad);
            w.write_frame(KIND_SNAPSHOT, frame).unwrap();
            w.append(&fence).unwrap();
            let log = read_wal_bytes(&w.finish().unwrap().unwrap());
            assert_eq!(
                decoded(&log.events),
                std::slice::from_ref(&fence),
                "{what}: intact prefix"
            );
            assert_eq!(
                log.damage,
                Some(format!("malformed record (kind 11) at byte {at}")),
                "{what}"
            );
        }
    }

    #[test]
    fn a_failed_write_is_not_counted() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return; // no device that refuses every write on this platform
        }
        let mut w = WalWriter::create(full).unwrap();
        w.append(&WalEvent::StepBegin { step: 0 }).unwrap();
        let (records, bytes) = (w.records_written(), w.bytes_written());
        // Larger than `BufWriter`'s buffer, so the write reaches the device.
        let images = SnapshotImages::from_images(
            &[TravelImage {
                id: MsgId::from_index(0),
                route: vec![PortId::from_index(0); 1 << 16],
                flits: vec![FlitPos::Pending],
            }],
            &[],
        );
        let err = w
            .append(&WalEvent::Snapshot { step: 1, images })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!((w.records_written(), w.bytes_written()), (records, bytes));
    }

    #[test]
    fn truncation_is_detected_not_fatal() {
        let events = sample_events();
        let mut w = WalWriter::in_memory();
        for ev in &events {
            w.append(ev).unwrap();
        }
        let bytes = w.finish().unwrap().unwrap();
        for cut in 0..bytes.len() {
            let log = read_wal_bytes(&bytes[..cut]);
            let read = decoded(&log.events);
            assert_eq!(read.len(), log.events.len());
            assert_eq!(read, events[..read.len()]);
            if log.damage.is_none() {
                // A cut is silent only when it lands exactly on a record
                // boundary (a shorter-but-clean log): re-encoding the
                // decoded prefix must reproduce every byte we kept.
                let mut w = WalWriter::in_memory();
                for ev in &read {
                    w.append(ev).unwrap();
                }
                assert_eq!(w.bytes_written(), cut as u64, "silent cut at {cut}");
            }
        }
    }

    /// The index the reader fills without decoding says what decoding the
    /// records says: the first `RunStart`, the last `RunEnd` and step
    /// marker, and every snapshot, whose mark frames it — on every prefix of
    /// a log holding two of each.
    #[test]
    fn the_index_agrees_with_the_records() {
        let mut events = sample_events();
        let mut second = sample_events();
        if let WalEvent::RunStart { seed, .. } = &mut second[0] {
            *seed += 1;
        }
        events.append(&mut second);
        let mut w = WalWriter::in_memory();
        for ev in &events {
            w.append(ev).unwrap();
        }
        let bytes = w.finish().unwrap().unwrap();
        for cut in 0..=bytes.len() {
            let records = read_wal_bytes(&bytes[..cut]).events;
            let read = decoded(&records);
            let run_start = read.iter().find_map(|e| match e {
                WalEvent::RunStart { seed, meta, .. } => Some((*seed, *meta)),
                _ => None,
            });
            let run_end = read.iter().rev().find_map(|e| match e {
                WalEvent::RunEnd { outcome, steps } => Some((*outcome, *steps)),
                _ => None,
            });
            let last_step = read.iter().rev().find_map(|e| match e {
                WalEvent::StepBegin { step } => Some(*step),
                _ => None,
            });
            let snapshots: Vec<(usize, u64)> = (read.iter().enumerate())
                .filter_map(|(i, e)| match e {
                    WalEvent::Snapshot { step, .. } => Some((i, *step)),
                    _ => None,
                })
                .collect();
            assert_eq!(records.run_start, run_start, "cut {cut}");
            assert_eq!(records.run_end, run_end, "cut {cut}");
            assert_eq!(records.last_step, last_step, "cut {cut}");
            let marks: Vec<(usize, u64)> = (records.snapshots.iter())
                .map(|m| (m.record, m.step))
                .collect();
            assert_eq!(marks, snapshots, "cut {cut}");
            for m in &records.snapshots {
                records.walk((m.offset, m.record), |frames| {
                    let frame = frames.read().unwrap().expect("a mark frames a record");
                    assert_eq!(frame.record, m.record);
                    assert_eq!(frame.decode().unwrap(), read[m.record]);
                });
            }
        }
    }

    #[test]
    fn corruption_is_detected_not_fatal() {
        let events = sample_events();
        let mut w = WalWriter::in_memory();
        for ev in &events {
            w.append(ev).unwrap();
        }
        let mut bytes = w.finish().unwrap().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        let log = read_wal_bytes(&bytes);
        assert!(log.damage.is_some());
    }

    #[test]
    fn rejects_foreign_headers() {
        assert!(read_wal_bytes(b"not a wal").damage.is_some());
        assert!(read_wal_bytes(&[]).damage.is_some());
    }
}
