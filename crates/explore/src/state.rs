//! State encoding, decoding, and canonicalization.
//!
//! A configuration of a fixed workload is fully determined by its flit
//! positions ([`Config::position_key`]): routes are static and the network
//! state `ST` is a function of the positions. The explorer therefore stores
//! each state as the flattened `u16` position key, hash-consed in a
//! [`StateArena`]. Expanding a state re-seats one reused [`Config`] at its
//! key ([`Workload::decode_into`]) to enumerate its moves; a successor is
//! the parent key with one entry rewritten ([`Workload::patch`]), never a
//! second configuration.
//!
//! Keys of one workload all share a length (one `u16` per flit), so the
//! arena packs them back to back in a single flat buffer addressed by dense
//! `u32` handles — mirroring the simulator's SoA flit arena — and resolves
//! membership through an open-addressed index of handles instead of a
//! key-owning hash map. One exploration makes two large allocations that
//! grow geometrically, rather than one boxed key plus one map entry per
//! state, and a state's memory cost is exactly `stride × 2` bytes plus a
//! shared index slot (see [`StateArena::bytes`], which backs the explorer's
//! `--mem-limit`).
//!
//! With symmetry reduction enabled, the key stored is the *canonical*
//! representative of the state's orbit: the lexicographic minimum, over
//! every workload-preserving slot permutation (see
//! [`slot_perms`](crate::symmetry::slot_perms)) composed with the sort of
//! any identical-message groups, of the permuted key. No permuted key is
//! built to find it: an image is read out of the key through its
//! permutation, block by block, against the best so far, dropped at its
//! first greater block, and copied from its first smaller one on. The first
//! permutation to achieve the minimum is reported alongside, so
//! counterexample traces can be folded back into the concrete frame; debug
//! builds hold both to a loop that builds and compares every image.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem;

use genoc_core::config::Config;
use genoc_core::error::{Error, Result};
use genoc_core::moves::{Move, MoveKind};
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::PortId;

use crate::spill::SpillFile;

/// Static per-workload data: the all-pending configuration and the per-slot
/// layout of the flattened key.
pub struct Workload {
    /// Every message pending at its source: routes, capacities, and the
    /// blank that keys are decoded into. Slot `s` is the message with
    /// `MsgId` index `s`.
    initial: Config,
    /// Offsets of each slot's block in the flattened key.
    offsets: Vec<usize>,
    /// Flit count per slot.
    lens: Vec<usize>,
    /// Slots with identical `(route, flits)`, grouped; only groups of ≥ 2.
    duplicate_groups: Vec<Vec<usize>>,
}

/// Working space of [`Workload::canonicalize_with`] where identical-message
/// groups are sorted: the total permutation under trial, and the best so far.
#[derive(Default)]
pub(crate) struct CanonScratch {
    total: Vec<usize>,
    best: Vec<usize>,
}

impl Workload {
    /// Builds the template from the instance constituents and a workload.
    ///
    /// # Errors
    ///
    /// Propagates route-computation and spec-validation errors from
    /// [`Config::from_specs`], and [`Error::Invariant`] for a route that
    /// visits a port twice — checked here once, so that decoding a state
    /// only has to check what a state can change.
    pub fn new(
        net: &dyn Network,
        routing: &dyn RoutingFunction,
        specs: &[MessageSpec],
    ) -> Result<Workload> {
        let initial = Config::from_specs(net, routing, specs)?;
        let templates = initial.travels();
        let mut offsets = Vec::with_capacity(templates.len());
        let mut lens = Vec::with_capacity(templates.len());
        let mut at = 0;
        for (s, t) in templates.iter().enumerate() {
            debug_assert_eq!(t.id().index(), s, "slots are message indices");
            t.check_invariants()?;
            offsets.push(at);
            lens.push(t.flit_count());
            at += t.flit_count();
        }
        let mut groups: HashMap<(&[PortId], usize), Vec<usize>> = HashMap::new();
        for (s, t) in templates.iter().enumerate() {
            groups
                .entry((t.route(), t.flit_count()))
                .or_default()
                .push(s);
        }
        let mut duplicate_groups: Vec<Vec<usize>> =
            groups.into_values().filter(|g| g.len() >= 2).collect();
        duplicate_groups.sort();
        Ok(Workload {
            initial,
            offsets,
            lens,
            duplicate_groups,
        })
    }

    /// Number of message slots.
    pub fn slots(&self) -> usize {
        self.offsets.len()
    }

    /// The per-slot `(route, flit count)` list, for
    /// [`slot_perms`](crate::symmetry::slot_perms).
    pub fn routes(&self) -> Vec<(Vec<PortId>, usize)> {
        self.initial
            .travels()
            .iter()
            .map(|t| (t.route().to_vec(), t.flit_count()))
            .collect()
    }

    /// The initial (all-pending) key.
    pub fn initial_key(&self) -> Box<[u16]> {
        vec![0u16; self.lens.iter().sum()].into_boxed_slice()
    }

    /// The all-pending configuration, for [`Workload::decode_into`].
    pub fn blank(&self) -> Config {
        self.initial.clone()
    }

    /// Decodes a key back into a full configuration.
    ///
    /// # Errors
    ///
    /// As [`decode_into`](Workload::decode_into), and [`Error::Invariant`]
    /// if `net` is not the network the workload was built on.
    pub fn decode(&self, net: &dyn Network, key: &[u16]) -> Result<Config> {
        if net.port_count() != self.initial.state().port_count() {
            let msg = "workload decoded on another network than it was built on";
            return Err(Error::Invariant(msg.into()));
        }
        let mut cfg = self.blank();
        self.decode_into(&mut cfg, key)?;
        Ok(cfg)
    }

    /// Decodes a key into `cfg` — a [`blank`](Workload::blank) of this
    /// workload, or whatever an earlier call left of one — in place and
    /// without allocating ([`Config::reseat`]).
    ///
    /// # Errors
    ///
    /// [`Error::Invariant`] or [`Error::CapacityExceeded`] for a key of the
    /// wrong length, a position outside its route, a broken worm shape, or
    /// an over-full or doubly owned port: a corrupted key, never a legal
    /// state.
    pub fn decode_into(&self, cfg: &mut Config, key: &[u16]) -> Result<()> {
        cfg.reseat(key)
    }

    /// Applies `mv` to a key in place: a move changes exactly one flit
    /// position. Returns the index written and the value it held, which
    /// undo the patch.
    pub fn patch(&self, key: &mut [u16], mv: Move) -> (usize, u16) {
        let at = self.offsets[mv.msg.index()] + mv.flit;
        let was = key[at];
        key[at] = match mv.kind {
            MoveKind::Enter => 1,
            MoveKind::Advance => was + 1,
            MoveKind::Eject => u16::MAX,
        };
        (at, was)
    }

    /// Slot `s`'s block of a key.
    fn block<'k>(&self, key: &'k [u16], s: usize) -> &'k [u16] {
        &key[self.offsets[s]..][..self.lens[s]]
    }

    /// Canonicalizes a key: the lexicographic minimum over every slot
    /// permutation in `perms` (composed with sorting of identical-message
    /// groups; none at all is the identity alone), the first to attain it
    /// winning. Returns the canonical key and the total permutation `p`
    /// that produced it (`canonical[j] = key[p[j]]`, block-wise).
    pub fn canonicalize(&self, key: &[u16], perms: &[Vec<usize>]) -> (Box<[u16]>, Vec<usize>) {
        let mut best = Vec::with_capacity(key.len());
        let perm = self.canonicalize_into(key, perms, &mut best, &mut Vec::new());
        (best.into_boxed_slice(), perm)
    }

    /// [`canonicalize`](Workload::canonicalize) into a caller-owned buffer:
    /// the canonical key replaces whatever `best` held. `_scratch` is left
    /// alone, there being no permuted image to put in it.
    pub fn canonicalize_into(
        &self,
        key: &[u16],
        perms: &[Vec<usize>],
        best: &mut Vec<u16>,
        _scratch: &mut Vec<u16>,
    ) -> Vec<usize> {
        if perms.is_empty() {
            return self.canonicalize_into(key, &[(0..self.slots()).collect()], best, _scratch);
        }
        let mut canon = CanonScratch::default();
        let (winner, sorted) = self.canonicalize_with(key, perms, best, &mut canon);
        sorted.unwrap_or(&perms[winner]).to_vec()
    }

    /// The canonicalizer itself, allocation-free. An element's image is read
    /// through its total permutation, compared with `best` block by block,
    /// dropped at its first greater block, and copied into `best` from its
    /// first smaller block on. Returns the winner's index in `perms` (never
    /// empty) and, where identical messages were sorted, its total —
    /// elsewhere that is `perms[winner]`.
    pub(crate) fn canonicalize_with<'a>(
        &self,
        key: &[u16],
        perms: &[Vec<usize>],
        best: &mut Vec<u16>,
        scratch: &'a mut CanonScratch,
    ) -> (usize, Option<&'a [usize]>) {
        let sorting = !self.duplicate_groups.is_empty();
        best.resize(key.len(), 0);
        let mut winner = None;
        'elements: for (i, perm) in perms.iter().enumerate() {
            let mut total = &perm[..];
            if sorting {
                scratch.total.clear();
                scratch.total.extend_from_slice(perm);
                self.sort_duplicates(key, &mut scratch.total);
                total = &scratch.total;
            }
            // Against a best so far, skip the blocks the image shares with it.
            let mut from = 0;
            while winner.is_some() {
                let Some(&s) = total.get(from) else {
                    continue 'elements; // equal throughout: the earlier one stays
                };
                match self.block(key, s).cmp(self.block(best, from)) {
                    Ordering::Less => break,
                    Ordering::Equal => from += 1,
                    Ordering::Greater => continue 'elements,
                }
            }
            for (j, &s) in total.iter().enumerate().skip(from) {
                debug_assert_eq!(self.lens[j], self.lens[s], "matched slots share lengths");
                best[self.offsets[j]..][..self.lens[j]].copy_from_slice(self.block(key, s));
            }
            mem::swap(&mut scratch.best, &mut scratch.total); // empty unless sorting
            winner = Some(i);
        }
        let winner = winner.expect("callers pass at least the identity");
        let sorted = sorting.then_some(&scratch.best[..]);
        #[cfg(debug_assertions)]
        assert_eq!(
            (best.clone(), sorted.unwrap_or(&perms[winner]).to_vec()),
            self.canonicalize_by_copy(key, perms),
            "comparing through indices must equal comparing built images"
        );
        (winner, sorted)
    }

    /// Stably sorts each identical-message group of `total` by the blocks of
    /// the *unpermuted* `key` its entries point at: an insertion sort,
    /// groups being a handful of slots.
    fn sort_duplicates(&self, key: &[u16], total: &mut [usize]) {
        for group in &self.duplicate_groups {
            for i in 1..group.len() {
                for j in (1..=i).rev() {
                    let (a, b) = (group[j - 1], group[j]);
                    if self.block(key, total[a]) <= self.block(key, total[b]) {
                        break;
                    }
                    total.swap(a, b);
                }
            }
        }
    }

    /// The canonicalizer the long way round, the debug-build oracle of
    /// [`canonicalize_with`](Workload::canonicalize_with): build every
    /// permuted image, stably sort its identical-message groups by block,
    /// keep the first minimum.
    #[cfg(debug_assertions)]
    fn canonicalize_by_copy(&self, key: &[u16], perms: &[Vec<usize>]) -> (Vec<u16>, Vec<usize>) {
        let images = perms.iter().map(|perm| {
            let mut blocks: Vec<_> = perm.iter().map(|&s| (self.block(key, s), s)).collect();
            for group in &self.duplicate_groups {
                let mut sorted: Vec<_> = group.iter().map(|&j| blocks[j]).collect();
                sorted.sort_by_key(|&(block, _)| block);
                group.iter().zip(sorted).for_each(|(&j, b)| blocks[j] = b);
            }
            let (image, total): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
            (image.concat(), total)
        });
        // `min_by` returns the first of several equal minima.
        images
            .min_by(|a, b| a.0.cmp(&b.0))
            .expect("callers pass at least the identity")
    }
}

/// Sentinel for an unused index slot.
const EMPTY: u32 = u32::MAX;

/// Fibonacci multiplier: remixes a hash into well-spread top bits, so an
/// arena whose shard was chosen from `hash % shards` (see the parallel
/// frontier) still probes uniformly.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Target byte size of one key segment: the spill granularity.
const SEG_BYTES: usize = 256 * 1024;

/// One fixed-capacity run of packed keys. All segments but the open tail
/// hold exactly `seg_states` keys; only *full* segments ever spill, so a
/// spilled segment is immutable on disk.
enum Segment {
    /// Keys resident in memory.
    Resident(Vec<u16>),
    /// Keys written to the shard's spill file at this byte offset.
    Spilled {
        /// Byte offset of the segment's packed keys in the spill file.
        offset: u64,
    },
}

/// Hash-consed state arena: canonical key → dense `u32` handle.
///
/// All keys of a workload share one `stride` (one `u16` per flit), so the
/// arena stores them contiguously in fixed-size segments — `key(id)` is a
/// slice at `(id % seg_states) × stride` of segment `id / seg_states` —
/// and membership goes through an open-addressed table of handles (linear
/// probing, ⅞ max load). Compared to a `HashMap<Box<[u16]>, u32>` this
/// stores each key once instead of twice and replaces two per-state
/// allocations with amortized none.
///
/// Each state's hash is stored alongside (`hashes`), so index growth and
/// probe rejection never touch key data: only a *hash-equal* probe compares
/// keys. That is what makes the disk tier cheap — cold full segments can
/// [`spill`](StateArena::spill_cold) to a [`SpillFile`] and are streamed
/// back (one-segment cache) only on the rare colliding compare.
pub struct StateArena {
    stride: usize,
    /// Keys per segment (fixed per arena, targeting [`SEG_BYTES`]).
    seg_states: usize,
    /// Key storage; all but the last segment are full.
    segments: Vec<Segment>,
    /// Interned state count (kept separately: `stride` may be zero).
    count: usize,
    /// Per-state [`hash_key`](StateArena::hash_key) hashes.
    hashes: Vec<u64>,
    /// Open-addressed index of handles; power-of-two length.
    index: Vec<u32>,
    /// `index.len().ilog2()`: probes take the hash's top `bits` bits.
    bits: u32,
    /// Most recently streamed-back cold segment, `(segment, keys)`.
    cache: Option<(usize, Vec<u16>)>,
    /// States whose segment lives on disk.
    spilled_states: usize,
    /// Total bytes ever written to the spill file.
    spilled_bytes: u64,
}

impl StateArena {
    /// Empty arena for keys of `stride` `u16`s.
    pub fn new(stride: usize) -> StateArena {
        let bits = 4;
        StateArena {
            stride,
            seg_states: (SEG_BYTES / (stride.max(1) * mem::size_of::<u16>())).max(1),
            segments: Vec::new(),
            count: 0,
            hashes: Vec::new(),
            index: vec![EMPTY; 1 << bits],
            bits,
            cache: None,
            spilled_states: 0,
            spilled_bytes: 0,
        }
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resident bytes (in-memory keys + hashes + index + segment cache),
    /// the quantity the explorer's `--mem-limit` bounds. Deliberately
    /// length-based rather than capacity-based so the figure is identical
    /// across schedules.
    pub fn bytes(&self) -> usize {
        let cached = self
            .cache
            .as_ref()
            .map_or(0, |(_, data)| data.len() * mem::size_of::<u16>());
        (self.count - self.spilled_states) * self.stride * mem::size_of::<u16>()
            + self.count * mem::size_of::<u64>()
            + self.index.len() * mem::size_of::<u32>()
            + cached
    }

    /// Total bytes this arena has written to its spill file.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// The workload-independent FNV-1a hash of a key, shared with the
    /// parallel frontier's shard choice (`hash % shards`) so both agree on
    /// key identity.
    pub fn hash_key(key: &[u16]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in key {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    fn slot_of(&self, hash: u64) -> usize {
        (hash.wrapping_mul(FIB) >> (64 - self.bits)) as usize
    }

    /// Interns a key; returns `(id, freshly_inserted)`.
    ///
    /// # Panics
    ///
    /// If `key.len() != stride`, or on interning more than `u32::MAX - 1`
    /// states.
    pub fn intern(&mut self, key: &[u16]) -> (u32, bool) {
        self.intern_hashed(Self::hash_key(key), key)
    }

    /// [`intern`](StateArena::intern) with a precomputed
    /// [`hash_key`](StateArena::hash_key) hash, for callers that already
    /// hashed the key to pick a shard.
    ///
    /// # Panics
    ///
    /// Additionally panics if a key compare lands on a spilled segment —
    /// arenas that spill must intern through
    /// [`intern_spilled`](StateArena::intern_spilled).
    pub fn intern_hashed(&mut self, hash: u64, key: &[u16]) -> (u32, bool) {
        self.intern_spilled(hash, key, None)
            .expect("an arena without a spill file cannot fail to intern")
    }

    /// [`intern_hashed`](StateArena::intern_hashed) against an arena whose
    /// cold segments may live in `spill`: a hash-colliding compare against
    /// a spilled key streams its segment back through the one-segment
    /// cache.
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] when reading a
    /// spilled segment back fails.
    ///
    /// # Panics
    ///
    /// As [`intern_hashed`](StateArena::intern_hashed); also if a compare
    /// needs a spilled segment and `spill` is `None`.
    pub fn intern_spilled(
        &mut self,
        hash: u64,
        key: &[u16],
        mut spill: Option<&mut SpillFile>,
    ) -> Result<(u32, bool)> {
        assert_eq!(key.len(), self.stride, "key length must match the stride");
        if (self.count + 1) * 8 > self.index.len() * 7 {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = self.slot_of(hash);
        loop {
            match self.index[slot] {
                EMPTY => {
                    let id = u32::try_from(self.count).expect("state count exceeds u32");
                    assert!(id != EMPTY, "state count exceeds u32");
                    self.push_key(key);
                    self.hashes.push(hash);
                    self.count += 1;
                    self.index[slot] = id;
                    return Ok((id, true));
                }
                id => {
                    if self.hashes[id as usize] == hash
                        && self.key_eq(id, key, spill.as_deref_mut())?
                    {
                        return Ok((id, false));
                    }
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// Appends a key to the open tail segment, opening a new one when full.
    fn push_key(&mut self, key: &[u16]) {
        if self.stride == 0 {
            return;
        }
        let cap = self.seg_states * self.stride;
        let room = matches!(self.segments.last(), Some(Segment::Resident(d)) if d.len() < cap);
        if !room {
            self.segments.push(Segment::Resident(Vec::new()));
        }
        let Some(Segment::Resident(tail)) = self.segments.last_mut() else {
            unreachable!("push_key just ensured a resident tail");
        };
        tail.extend_from_slice(key);
    }

    /// The key of a state handle.
    ///
    /// # Panics
    ///
    /// If the key's segment was spilled and is not in the read cache; use
    /// [`intern_spilled`](StateArena::intern_spilled) for spilled arenas.
    /// Explorers only call `key` on arenas that never spill (the frontier
    /// carries its own key copies).
    pub fn key(&self, id: u32) -> &[u16] {
        if self.stride == 0 {
            return &[];
        }
        let seg = id as usize / self.seg_states;
        let at = (id as usize % self.seg_states) * self.stride;
        match &self.segments[seg] {
            Segment::Resident(data) => &data[at..at + self.stride],
            Segment::Spilled { .. } => match &self.cache {
                Some((cached, data)) if *cached == seg => &data[at..at + self.stride],
                _ => panic!("key {id} lives in a spilled segment"),
            },
        }
    }

    /// Compares a stored key against `key`, streaming its segment back from
    /// `spill` (through the one-segment cache) if it was spilled.
    fn key_eq(&mut self, id: u32, key: &[u16], spill: Option<&mut SpillFile>) -> Result<bool> {
        if self.stride == 0 {
            return Ok(true);
        }
        let seg = id as usize / self.seg_states;
        let at = (id as usize % self.seg_states) * self.stride;
        if let Segment::Resident(data) = &self.segments[seg] {
            return Ok(&data[at..at + self.stride] == key);
        }
        if self.cache.as_ref().is_none_or(|(cached, _)| *cached != seg) {
            let Segment::Spilled { offset } = self.segments[seg] else {
                unreachable!("the resident case returned above");
            };
            let spill = spill.expect("spilled segment compared without its spill file");
            // Spilled segments are always full.
            let mut data = self.cache.take().map(|(_, d)| d).unwrap_or_default();
            spill.read_u16s(offset, self.seg_states * self.stride, &mut data)?;
            self.cache = Some((seg, data));
        }
        let (_, data) = self.cache.as_ref().expect("cache was just filled");
        Ok(&data[at..at + self.stride] == key)
    }

    /// Spills every full resident segment to `spill` and frees its memory;
    /// returns the bytes freed. The open tail segment stays resident (it is
    /// still growing), as does the index — only key payloads move to disk.
    ///
    /// # Errors
    ///
    /// [`Error::Spill`] on write failure.
    pub fn spill_cold(&mut self, spill: &mut SpillFile) -> Result<usize> {
        let mut freed = self
            .cache
            .take()
            .map_or(0, |(_, d)| d.len() * mem::size_of::<u16>());
        for (i, seg) in self.segments.iter_mut().enumerate() {
            if (i + 1) * self.seg_states > self.count {
                continue; // the open tail: not yet full
            }
            if let Segment::Resident(data) = seg {
                let offset = spill.append_u16s(data)?;
                let bytes = data.len() * mem::size_of::<u16>();
                freed += bytes;
                self.spilled_bytes += bytes as u64;
                self.spilled_states += data.len() / self.stride;
                *seg = Segment::Spilled { offset };
            }
        }
        Ok(freed)
    }

    fn grow(&mut self) {
        self.bits += 1;
        let len = 1usize << self.bits;
        let mut index = vec![EMPTY; len];
        let mask = len - 1;
        for id in 0..self.count {
            // Stored hashes make growth independent of key residence: a
            // rehash never reads (possibly spilled) key data.
            let mut slot = (self.hashes[id].wrapping_mul(FIB) >> (64 - self.bits)) as usize;
            while index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            index[slot] = id as u32;
        }
        self.index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genoc_core::line::{LineNetwork, LineRouting};
    use genoc_core::NodeId;

    fn spec(s: usize, d: usize, flits: usize) -> MessageSpec {
        MessageSpec::new(NodeId::from_index(s), NodeId::from_index(d), flits)
    }

    #[test]
    fn encode_decode_round_trip() {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let specs = [spec(0, 3, 2), spec(3, 0, 3)];
        let wl = Workload::new(&net, &routing, &specs).unwrap();
        let cfg = Config::from_specs(&net, &routing, &specs).unwrap();
        let key = cfg.position_key();
        assert_eq!(&*wl.initial_key(), key.as_slice());
        let decoded = wl.decode(&net, &key).unwrap();
        assert_eq!(decoded.position_key(), key);
    }

    #[test]
    fn corrupted_keys_are_typed_errors_not_panics() {
        use genoc_core::error::Error;
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        let specs = [spec(0, 3, 2), spec(0, 2, 1)];
        let wl = Workload::new(&net, &routing, &specs).unwrap();
        let good = [2u16, 1, 0];
        let mut reused = wl.blank();
        wl.decode_into(&mut reused, &good).unwrap();
        let corrupted: [(&str, &[u16]); 6] = [
            ("route index outside the route", &[200, 0, 0]),
            ("body flit ahead of its head", &[1, 2, 0]),
            ("two flits in a one-buffer port", &[1, 1, 0]),
            ("two worms owning one port", &[1, 0, 1]),
            ("too short", &[1, 0]),
            ("too long", &[1, 0, 0, 0]),
        ];
        for (what, key) in corrupted {
            let fresh = wl.decode(&net, key);
            assert!(
                matches!(
                    fresh,
                    Err(Error::Invariant(_) | Error::CapacityExceeded { .. })
                ),
                "{what}: decode gave {fresh:?}"
            );
            assert!(wl.decode_into(&mut reused, key).is_err(), "{what}");
            // A failed decode leaves nothing behind that the next one sees.
            wl.decode_into(&mut reused, &good).unwrap();
            assert_eq!(reused, wl.decode(&net, &good).unwrap(), "{what}");
        }
        // A workload decodes only on the network it was built on.
        assert!(wl.decode(&LineNetwork::new(5, 1), &good).is_err());
    }

    #[test]
    fn duplicate_sort_canonicalizes_twin_messages() {
        let net = LineNetwork::new(4, 1);
        let routing = LineRouting::new(&net);
        // Two identical messages: slots are interchangeable.
        let specs = [spec(0, 3, 2), spec(0, 3, 2)];
        let wl = Workload::new(&net, &routing, &specs).unwrap();
        assert_eq!(wl.duplicate_groups.len(), 1);
        let identity = vec![(0..2).collect::<Vec<usize>>()];
        // Key where slot 1 is "ahead" of slot 0 must canonicalize to the
        // same key as the mirrored state.
        let a = [0u16, 0, 2, 1];
        let b = [2u16, 1, 0, 0];
        let (ca, pa) = wl.canonicalize(&a, &identity);
        let (cb, pb) = wl.canonicalize(&b, &identity);
        assert_eq!(ca, cb);
        // The permutations report where each canonical block came from:
        // `a` was already sorted, `b`'s blocks swapped.
        assert_eq!(pa, vec![0, 1]);
        assert_eq!(pb, vec![1, 0]);
        // No permutations at all is the identity alone: twins still sort.
        assert_eq!(wl.canonicalize(&b, &[]), (cb, pb));
    }

    #[test]
    fn intern_is_idempotent() {
        let mut arena = StateArena::new(2);
        let (a, fresh_a) = arena.intern(&[1u16, 2]);
        let (b, fresh_b) = arena.intern(&[1u16, 2]);
        assert_eq!(a, b);
        assert!(fresh_a && !fresh_b);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.key(a), &[1, 2]);
        assert!(arena.bytes() > 0);
    }

    #[test]
    fn arena_survives_growth_and_keeps_every_key() {
        let mut arena = StateArena::new(3);
        let mut ids = Vec::new();
        for v in 0..500u16 {
            let key = [v, v.wrapping_mul(31), v ^ 0x5a5a];
            let (id, fresh) = arena.intern(&key);
            assert!(fresh, "distinct keys must intern fresh");
            ids.push((id, key));
        }
        assert_eq!(arena.len(), 500);
        for (id, key) in ids {
            assert_eq!(arena.key(id), key, "growth must not lose keys");
            assert_eq!(arena.intern(&key), (id, false));
        }
    }

    #[test]
    fn spilled_segments_still_deduplicate_and_membership_survives() {
        use crate::spill::SpillDir;
        let dir = SpillDir::create(&std::env::temp_dir()).unwrap();
        let mut file = dir.file("arena-test.bin").unwrap();
        let mut arena = StateArena::new(3);
        // Force small segments so the spill path actually triggers.
        arena.seg_states = 64;
        let keys: Vec<[u16; 3]> = (0..500u16)
            .map(|v| [v, v.wrapping_mul(31), v ^ 0x5a5a])
            .collect();
        for key in &keys {
            assert!(arena.intern(key).1);
        }
        let resident_before = arena.bytes();
        let freed = arena.spill_cold(&mut file).unwrap();
        assert!(freed > 0, "full segments must spill");
        assert!(arena.spilled_bytes() > 0);
        assert!(arena.bytes() < resident_before);
        // Every key still deduplicates (hash short-circuit or a cached
        // segment read), and re-interning stays stable across a growth.
        for (id, key) in keys.iter().enumerate() {
            let (got, fresh) = arena
                .intern_spilled(StateArena::hash_key(key), key, Some(&mut file))
                .unwrap();
            assert_eq!((got, fresh), (id as u32, false));
        }
        for v in 500..2000u16 {
            let key = [v, v.wrapping_mul(31), v ^ 0x5a5a];
            let (_, fresh) = arena
                .intern_spilled(StateArena::hash_key(&key), &key, Some(&mut file))
                .unwrap();
            assert!(fresh, "new keys must stay fresh after spilling");
        }
        assert_eq!(arena.len(), 2000);
    }

    #[test]
    fn zero_stride_arena_handles_the_empty_workload() {
        let mut arena = StateArena::new(0);
        let (a, fresh_a) = arena.intern(&[]);
        let (b, fresh_b) = arena.intern(&[]);
        assert_eq!((a, b), (0, 0));
        assert!(fresh_a && !fresh_b);
        assert_eq!(arena.len(), 1);
    }
}
