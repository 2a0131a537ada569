//! Property-based validation of the event WAL's binary format: arbitrary
//! event sequences round-trip bit-exactly, truncation at *any* byte offset
//! is either a clean record-boundary prefix or reported damage (never a
//! panic, never silent corruption), and any single flipped byte is caught
//! by the per-record checksum — as is any rewrite of one 8-byte word of a
//! payload, the unit format version 2 folds, and any zero padding of one.

use genoc::core::moves::MoveKind;
use genoc::obs::{
    read_wal, read_wal_bytes, RecoveryAction, SnapshotImages, TravelImage, WalEvent, WalMeta,
    WalRecords, WalWriter, WAL_READ_BUFFER, WAL_VERSION,
};
use genoc::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// Deterministically expands one seed into a WAL event, covering every
/// record kind and the tricky encodings (optional fields, empty vectors,
/// every `FlitPos` shape).
fn event_from_seed(seed: u64) -> WalEvent {
    let msg = MsgId::from_index((seed >> 8) as usize % 64);
    let port = PortId::from_index((seed >> 16) as usize % 128);
    let step = (seed >> 24) % 1024;
    let small = |shift: u64, m: usize| (seed >> shift) as usize % m;
    match seed % 12 {
        0 => WalEvent::RunStart {
            version: 1,
            seed,
            meta: if seed & 1 << 7 == 0 {
                None
            } else {
                Some(WalMeta {
                    meta: InstanceMeta::new(
                        RoutingKind::ALL[small(32, RoutingKind::ALL.len())],
                        2 + small(36, 6),
                        2 + small(40, 6),
                        1 + small(44, 4) as u32,
                    ),
                    switching: SwitchingKind::ALL[small(48, SwitchingKind::ALL.len())],
                })
            },
        },
        1 => WalEvent::Inject {
            msg,
            flits: 1 + (seed >> 32) as u32 % 8,
            route: (0..small(36, 5)).map(PortId::from_index).collect(),
        },
        2 => WalEvent::StepBegin { step },
        3 => WalEvent::Move {
            msg,
            flit: (seed >> 32) as u32 % 8,
            kind: [MoveKind::Enter, MoveKind::Advance, MoveKind::Eject][small(36, 3)],
            port,
        },
        4 => WalEvent::Transition {
            msg,
            status: [
                TravelStatus::Pending,
                TravelStatus::Active,
                TravelStatus::Blocked(port),
                TravelStatus::Delivered,
            ][small(36, 4)],
        },
        5 => WalEvent::FreedPort { port },
        6 => WalEvent::EdgeAdd {
            msg,
            wants: port,
            on: if seed & 1 << 40 == 0 {
                None
            } else {
                Some(MsgId::from_index(small(41, 64)))
            },
        },
        7 => WalEvent::EdgeRemove { msg },
        8 => WalEvent::Detection {
            step,
            msgs: (0..small(36, 4)).map(MsgId::from_index).collect(),
            ports: (0..small(38, 4)).map(PortId::from_index).collect(),
        },
        9 => WalEvent::Recovery {
            action: [
                RecoveryAction::Abort,
                RecoveryAction::Reroute,
                RecoveryAction::Restart,
            ][small(36, 3)],
            msgs: (0..small(40, 4)).map(MsgId::from_index).collect(),
        },
        10 => {
            let inflight: Vec<TravelImage> = (0..small(36, 3))
                .map(|i| TravelImage {
                    id: MsgId::from_index(i),
                    route: (0..2 + i).map(PortId::from_index).collect(),
                    flits: vec![FlitPos::Delivered, FlitPos::InNetwork(i), FlitPos::Pending],
                })
                .collect();
            WalEvent::Snapshot {
                step,
                images: SnapshotImages::from_images(&inflight, &[]),
            }
        }
        _ => WalEvent::RunEnd {
            outcome: [Outcome::Evacuated, Outcome::Deadlock, Outcome::StepLimit][small(36, 3)],
            steps: step,
        },
    }
}

/// Every record of `records`, read back and decoded.
fn decoded(records: &WalRecords) -> Vec<WalEvent> {
    (records.iter().collect::<Result<_, _>>()).expect("an unchanged log reads back")
}

fn encode(events: &[WalEvent]) -> Vec<u8> {
    let mut w = WalWriter::in_memory();
    for e in events {
        w.append(e).expect("in-memory append cannot fail");
    }
    w.finish()
        .expect("in-memory finish cannot fail")
        .expect("in-memory writer returns its bytes")
}

proptest! {
    #[test]
    fn arbitrary_event_sequences_round_trip(seeds in vec(0u64..=u64::MAX, 0..=40)) {
        let events: Vec<WalEvent> = seeds.into_iter().map(event_from_seed).collect();
        let bytes = encode(&events);
        let log = read_wal_bytes(&bytes);
        prop_assert!(log.damage.is_none(), "fresh log damaged: {:?}", log.damage);
        prop_assert_eq!(log.events.len(), events.len());
        prop_assert_eq!(decoded(&log.events), events);
    }

    #[test]
    fn truncation_at_any_byte_is_detected_or_a_clean_prefix(
        seeds in vec(0u64..=u64::MAX, 1..=20),
        cut_raw in 0usize..1_000_000,
    ) {
        let events: Vec<WalEvent> = seeds.into_iter().map(event_from_seed).collect();
        let bytes = encode(&events);
        let cut = cut_raw % (bytes.len() + 1);
        let log = read_wal_bytes(&bytes[..cut]);
        let read = decoded(&log.events);
        prop_assert_eq!(read.len(), log.events.len());
        // A mid-record cut must be reported; a record-boundary cut is a
        // legitimately shorter log, verified by re-encoding the prefix to
        // exactly `cut` bytes.
        if log.damage.is_none() {
            prop_assert_eq!(
                encode(&read).len(),
                cut,
                "silent truncation accepted off a record boundary"
            );
        }
        // Decoded records are always a prefix of what was written.
        prop_assert!(read.len() <= events.len());
        prop_assert_eq!(&read[..], &events[..read.len()]);
    }

    #[test]
    fn any_single_flipped_byte_is_detected(
        seeds in vec(0u64..=u64::MAX, 1..=20),
        pos_raw in 0usize..1_000_000,
        flip in 1u32..=255,
    ) {
        let events: Vec<WalEvent> = seeds.into_iter().map(event_from_seed).collect();
        let mut bytes = encode(&events);
        let pos = pos_raw % bytes.len();
        bytes[pos] ^= flip as u8;
        // The checksum folds every payload word through an invertible
        // update, so a single flip in a record body always changes it; flips
        // in the header or framing derail decoding. Either way: damage, no
        // panic.
        let log = read_wal_bytes(&bytes);
        prop_assert!(
            log.damage.is_some(),
            "flip of byte {} (of {}) went unnoticed",
            pos,
            bytes.len()
        );
    }

    #[test]
    fn any_rewritten_payload_word_changes_the_checksum(
        seed in 0u64..=u64::MAX,
        word_raw in 0usize..1_000_000,
        flip in 1u64..=u64::MAX,
    ) {
        // One record after the 12-byte header: `len | kind | payload | sum`.
        let mut bytes = encode(&[event_from_seed(seed)]);
        let payload = RECORD_AT + 5..bytes.len() - 8;
        // The words the checksum folds: aligned to the payload's start, the
        // last one as short as the payload leaves it.
        let at = payload.start + 8 * (word_raw % payload.len().div_ceil(8));
        let word = at..payload.end.min(at + 8);
        // Rotate `flip`'s lowest non-zero byte to the front, so that even a
        // one-byte tail word changes.
        let mask = flip.rotate_right(flip.trailing_zeros() & !7).to_le_bytes();
        for (b, m) in bytes[word].iter_mut().zip(mask) {
            *b ^= m;
        }
        let log = read_wal_bytes(&bytes);
        prop_assert!(log.events.is_empty());
        prop_assert_eq!(log.damage.as_deref(), Some("checksum mismatch at byte 12"));
    }

    #[test]
    fn zero_padding_a_payload_changes_the_checksum(
        seed in 0u64..=u64::MAX,
        zeros in 1usize..=24,
    ) {
        // The tail word is zero-padded before it is folded, so only the
        // folded length tells `payload` from `payload ++ 0…0`.
        let mut bytes = encode(&[event_from_seed(seed)]);
        let len = bytes.len() - RECORD_AT - 5 - 8;
        let sum_at = bytes.len() - 8;
        bytes.splice(sum_at..sum_at, std::iter::repeat_n(0u8, zeros));
        bytes[RECORD_AT..RECORD_AT + 4].copy_from_slice(&((len + zeros) as u32).to_le_bytes());
        let log = read_wal_bytes(&bytes);
        prop_assert!(log.events.is_empty());
        prop_assert_eq!(log.damage.as_deref(), Some("checksum mismatch at byte 12"));
    }
}

/// Byte offset of the first record: past the magic and the version.
const RECORD_AT: usize = 12;

#[test]
fn a_version_1_log_is_refused_by_its_header() {
    let mut bytes = encode(&(0..12).map(event_from_seed).collect::<Vec<_>>());
    assert_eq!(bytes[8..RECORD_AT], WAL_VERSION.to_le_bytes());
    bytes[8..RECORD_AT].copy_from_slice(&1u32.to_le_bytes());
    let log = read_wal_bytes(&bytes);
    assert_eq!(log.version, 1);
    assert!(log.events.is_empty(), "no v1 record is read as a v2 one");
    let damage = log.damage.expect("typed damage");
    assert!(damage.starts_with("unsupported WAL version 1 "), "{damage}");
}

/// The record checksum of format version 2 as `genoc_obs::wal`'s module doc
/// states it, so that a test can frame a payload the reader must refuse for
/// its structure alone.
fn checksum(kind: u8, payload: &[u8]) -> u64 {
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    let mut h = fold(0xcbf2_9ce4_8422_2325, u64::from(kind));
    for word in payload.chunks(8) {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        h = fold(h, u64::from_le_bytes(w));
    }
    h = fold(h, payload.len() as u64);
    h ^ (h >> 32)
}

/// Every kind of damage the reader names, on one log holding each record
/// kind once (record 10 is a snapshot of two travels): the description and
/// the number of intact records in front of it, as the reader that decoded
/// every record into a `Vec<WalEvent>` reported them.
#[test]
fn every_kind_of_damage_is_named_at_its_byte() {
    let events: Vec<WalEvent> = (0..12)
        .map(|kind| event_from_seed(12 * 0x0009_e377_9b97_f4a7 + kind))
        .collect();
    let bytes = encode(&events);
    let at = |record: usize| encode(&events[..record]).len();
    let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut b = bytes.clone();
        edit(&mut b);
        b
    };
    // The snapshot's inflight count overruns its block, under a valid sum.
    let snapshot = at(10) + 5..at(11) - 8;
    let malformed_snapshot = edited(&|b| {
        b[snapshot.start + 8..snapshot.start + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = checksum(11, &b[snapshot.clone()]);
        b[snapshot.end..snapshot.end + 8].copy_from_slice(&sum.to_le_bytes());
    });
    let cases: [(&str, Vec<u8>); 8] = [
        ("header", edited(&|b| b[0] ^= 1)),
        ("version", edited(&|b| b[8] = 3)),
        ("frame length", bytes[..at(5) + 2].to_vec()),
        ("record kind", bytes[..at(5) + 4].to_vec()),
        ("payload", bytes[..at(5) + 6].to_vec()),
        ("checksum", bytes[..at(6) - 3].to_vec()),
        ("checksum mismatch", edited(&|b| b[at(7) + 5] ^= 0x10)),
        ("malformed snapshot", malformed_snapshot),
    ];
    for ((what, damaged), (damage, intact)) in cases.iter().zip(PINNED_DAMAGE) {
        let log = read_wal_bytes(damaged);
        assert_eq!(log.damage.as_deref(), Some(damage), "{what}");
        assert_eq!(log.events.len(), intact, "{what}: intact prefix");
        assert_eq!(decoded(&log.events), events[..intact], "{what}");
    }
}

/// `(damage, intact records)` of each case above.
const PINNED_DAMAGE: [(&str, usize); 8] = [
    ("missing GENOCWAL header", 0),
    ("unsupported WAL version 3 (reader speaks 2)", 0),
    ("truncated frame length at byte 154", 5),
    ("truncated record kind at byte 154", 5),
    ("truncated payload at byte 154 (want 4 bytes)", 5),
    ("truncated checksum at byte 154", 5),
    ("checksum mismatch at byte 196", 7),
    ("malformed record (kind 11) at byte 276", 10),
];

#[test]
fn damaged_logs_still_yield_their_intact_prefix() {
    let events: Vec<WalEvent> = (0..12).map(event_from_seed).collect();
    let mut bytes = encode(&events);
    let len = bytes.len();
    bytes[len - 3] ^= 0x40;
    let log = read_wal_bytes(&bytes);
    assert!(log.damage.is_some());
    assert_eq!(decoded(&log.events), events[..events.len() - 1]);
}

/// The log of one seeded recovering run, byte for byte: 8×8 mixed XY/YX at
/// capacity 1 under `AbortAndEvacuate`, recorded in memory. Length, record
/// count and an FNV-1a fold of the bytes were taken on the commit before the
/// hooked loop applied recoveries to the arena in place, so they hold the
/// order of every move, transition and freed port, the `EdgeAdd`/`EdgeRemove`
/// records derived from them, and every snapshot. A reclassification that
/// speaks (a `Transition` for a post-recovery wake), a wake list built in
/// another order, or a survivor out of place in `T` moves all three.
#[test]
fn a_recovering_run_is_pinned_byte_for_byte() {
    let (steps, detections, records, bytes) = recovering_run();
    let fold = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (steps, detections, bytes.len(), records, fold),
        PINNED_RECOVERING_LOG
    );
}

/// `(steps, detections, bytes, records, fold)` of the run above.
const PINNED_RECOVERING_LOG: (u64, usize, usize, u64, u64) =
    (1058, 87, 10_421_935, 225_742, 13_705_820_959_004_857_160);

/// The byte-pinned run read back and written again: the reader keeps every
/// record the recorder counted, each decodes on demand, and appending the
/// decoded records gives back the log the recorder wrote, byte for byte.
#[test]
fn a_recovering_run_reads_back_and_reencodes_byte_for_byte() {
    let (_, _, records, bytes) = recovering_run();
    let log = read_wal_bytes(&bytes);
    assert!(log.damage.is_none(), "{:?}", log.damage);
    assert_eq!(log.events.len() as u64, records);
    let mut w = WalWriter::in_memory();
    for e in log.events.iter() {
        w.append(&e.expect("the log reads back"))
            .expect("in-memory append cannot fail");
    }
    assert_eq!(w.records_written(), records);
    let again = w.finish().expect("flush").expect("in-memory bytes");
    assert_eq!(again.len(), bytes.len());
    assert!(again == bytes, "re-encoding the records changed the log");
}

/// The run both tests above record: `(steps, detections, records, bytes)`.
fn recovering_run() -> (u64, usize, u64, Vec<u8>) {
    let mesh = Mesh::new(8, 8, 1);
    let routing = MixedXyYxRouting::new(&mesh);
    let specs = genoc::sim::workload::uniform_random(mesh.node_count(), 768, 2..=8, 7);
    let wal = shared(WalWriter::in_memory());
    let engine = DetectionEngine::with_policy(EngineOptions::default(), Box::new(AbortAndEvacuate));
    let mut hook = ObservedEngine::new(engine, Some(wal.clone()));
    let mut recorder = Recorder::with_wal(wal.clone(), 7, None);
    let result = simulate_observed_config(
        &mesh,
        &mut Switching::default(),
        Config::from_specs(&mesh, &routing, &specs).unwrap(),
        &SimOptions::default(),
        &mut hook,
        &mut recorder,
    )
    .unwrap();
    drop(recorder);
    assert_eq!(result.run.outcome, Outcome::Evacuated);
    let detections = hook.engine().detections().len();
    assert!(detections >= 20, "only {detections} detections");
    drop(hook);
    let writer = std::rc::Rc::try_unwrap(wal)
        .ok()
        .expect("sole owner")
        .into_inner();
    let records = writer.records_written();
    let bytes = writer.finish().unwrap().unwrap();
    (result.run.steps, detections, records, bytes)
}

/// `(offset, length)` of every frame of the intact log `bytes`.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut at = RECORD_AT;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        frames.push((at, 5 + len + 8));
        at += 5 + len + 8;
    }
    frames
}

/// A file-backed log is verified through one buffer, and reads exactly as
/// the same bytes in memory do wherever the file ends: at every frame
/// boundary near the end of each buffer's worth the reader fills, and one
/// byte into every frame that straddles one — a frame longer than the
/// buffer among them. The reader fills its buffer from the file's first
/// byte, and again from the first frame that does not fit in what it
/// holds, growing it to a frame longer than it.
#[test]
fn a_file_reads_as_its_bytes_across_buffer_boundaries() {
    let mut events: Vec<WalEvent> = Vec::new();
    let mut seed = 0;
    while encode(&events).len() < 6 * WAL_READ_BUFFER {
        events.extend((seed..seed + 512).map(event_from_seed));
        seed += 512;
        if events.len() == 2048 {
            // One snapshot longer than the buffer.
            let image = TravelImage {
                id: MsgId::from_index(0),
                route: (0..WAL_READ_BUFFER / 3).map(PortId::from_index).collect(),
                flits: vec![FlitPos::Pending],
            };
            events.push(WalEvent::Snapshot {
                step: 9,
                images: SnapshotImages::from_images(&[image], &[]),
            });
        }
    }
    let bytes = encode(&events);
    let frames = frames(&bytes);
    assert!(frames.iter().any(|&(_, len)| len > WAL_READ_BUFFER));

    // The ends of the buffers the reader fills, and the cuts near them.
    let (mut start, mut held) = (0, WAL_READ_BUFFER);
    let mut ends = vec![held];
    for &(at, len) in &frames {
        if at + len > start + held {
            (start, held) = (at, held.max(len));
            ends.push(start + held);
        }
    }
    assert!(ends.len() > 4, "{} buffers", ends.len());
    let mut cuts = Vec::new();
    for &end in &ends {
        let next = frames.partition_point(|&(at, _)| at < end);
        for &(at, len) in &frames[next.saturating_sub(4)..(next + 4).min(frames.len())] {
            cuts.push(at);
            cuts.push(at + len);
            if at < end && end < at + len {
                cuts.push(end);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_wal_boundaries.wal");
    for cut in cuts {
        std::fs::write(&file, &bytes[..cut]).expect("write the prefix out");
        let from_file = read_wal(&file).expect("read the prefix back");
        let from_bytes = read_wal_bytes(&bytes[..cut]);
        assert_eq!(from_file.damage, from_bytes.damage, "cut at {cut}");
        assert_eq!(
            from_file.events.len(),
            from_bytes.events.len(),
            "cut at {cut}"
        );
        // The index and the intact length.
        assert_eq!(
            format!("{:?}", from_file.events),
            format!("{:?}", from_bytes.events),
            "cut at {cut}"
        );
    }
    std::fs::write(&file, &bytes).expect("write the log out");
    assert_eq!(
        decoded(&read_wal(&file).expect("read the log back").events),
        events
    );
    std::fs::remove_file(&file).expect("remove the log");
}

/// A log read from a pipe, which cannot be read back from offsets, reads as
/// its bytes do.
#[test]
fn a_log_from_a_pipe_reads_as_its_bytes() {
    let fifo = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs_wal_pipe.wal");
    let _ = std::fs::remove_file(&fifo);
    let made = std::process::Command::new("mkfifo").arg(&fifo).status();
    if !made.is_ok_and(|status| status.success()) {
        return; // no `mkfifo` on this platform
    }
    let events: Vec<WalEvent> = (0..64).map(event_from_seed).collect();
    let bytes = encode(&events);
    let writer = {
        let (fifo, bytes) = (fifo.clone(), bytes.clone());
        std::thread::spawn(move || std::fs::write(fifo, bytes).expect("write into the pipe"))
    };
    let from_pipe = read_wal(&fifo).expect("read the pipe");
    writer.join().expect("the writer");
    let from_bytes = read_wal_bytes(&bytes);
    assert_eq!(from_pipe.damage, None);
    assert_eq!(
        format!("{:?}", from_pipe.events),
        format!("{:?}", from_bytes.events)
    );
    assert_eq!(decoded(&from_pipe.events), events);
    std::fs::remove_file(&fifo).expect("remove the pipe");
}
