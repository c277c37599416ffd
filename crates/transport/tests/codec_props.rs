//! Property tests for the transport wire formats: the link-layer
//! [`Frame`] codec and the grid protocol [`GridMsg`] codec. Both must
//! round-trip every value exactly, and no truncation, corruption or
//! random garbage may panic a decoder — malformed input always yields a
//! typed error.

use netsim::SimTime;
use p2p::advert::{AdvertBody, BlobAdvert};
use p2p::wire::{Reader, WireError, Writer};
use p2p::{Advertisement, PeerId};
use proptest::prelude::*;
use transport::frame::{Endpoint, Frame, FrameKind, MAX_PAYLOAD};
use transport::proto::{GridMsg, ModuleInfo};

fn kind_from(sel: u8) -> FrameKind {
    match sel % 4 {
        0 => FrameKind::Data,
        1 => FrameKind::Ack,
        2 => FrameKind::Ping,
        _ => FrameKind::Pong,
    }
}

/// Deterministically expand flat seeds into one of the nine grid
/// messages. `f64` fields come from small integer ratios (finite, so
/// `PartialEq` round-trip comparison is exact).
fn msg_from(sel: u8, a: u64, b: u64, s: &str, floats: &[f64]) -> GridMsg {
    let module = ModuleInfo {
        name: s.to_string(),
        version: a as u32,
        hash: b,
        blob_len: a ^ b,
    };
    let advert = Advertisement {
        body: AdvertBody::Blob(BlobAdvert {
            blob: a,
            size_bytes: b,
            chunks: (a >> 40) as u32,
            provider: PeerId(b as u32),
        }),
        expires: SimTime(u64::MAX),
    };
    match sel % 9 {
        0 => GridMsg::Hello {
            have: (0..(a % 6)).map(|i| b.wrapping_mul(i + 1)).collect(),
        },
        1 => GridMsg::Welcome { jobs_total: a },
        2 => GridMsg::Providers {
            blob: a,
            adverts: (0..(b % 4)).map(|_| advert.clone()).collect(),
        },
        3 => GridMsg::Dispatch {
            job: a,
            module,
            input: floats.to_vec(),
        },
        4 => GridMsg::ChunkRequest {
            blob: a,
            blob_len: b,
            index: (a >> 16) as u32,
        },
        5 => GridMsg::ChunkData {
            blob: a,
            blob_len: b,
            index: (a >> 16) as u32,
            bytes: s.as_bytes().to_vec(),
        },
        6 => GridMsg::HaveBlob { blob: a },
        7 => GridMsg::JobResult {
            job: a,
            outputs: vec![floats.to_vec(), vec![b as f64]],
        },
        _ => GridMsg::Shutdown,
    }
}

/// `xs` one [`Writer::f64`] at a time: the encoding the bulk path must
/// reproduce byte for byte.
fn per_element(xs: &[f64]) -> Vec<u8> {
    let mut w = Writer::new();
    for &x in xs {
        w.f64(x);
    }
    w.into_bytes()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn bulk_f64s_are_the_per_element_bytes() {
    let edge = [
        -0.0,
        0.0,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF), // quiet NaN with a payload
        f64::from_bits(0xFFF0_0000_0000_0001), // signalling, sign set
        f64::INFINITY,
        f64::MIN_POSITIVE,
    ];
    let long: Vec<f64> = (0..4096u64)
        .map(|i| f64::from_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    for xs in [&[][..], &edge[..], &long[..]] {
        // Appended after bytes already in the writer, as in a message.
        let mut w = Writer::new();
        w.u8(0xEE);
        w.f64s(xs);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0xEE);
        assert_eq!(&bytes[1..], per_element(xs));
        let mut r = Reader::new(&bytes[1..]);
        assert_eq!(bits(&r.f64s(xs.len()).unwrap()), bits(xs));
        assert_eq!(r.finish(), Ok(()));
    }
}

#[test]
fn f64_count_beyond_the_buffer_is_truncated_before_allocating() {
    let buf = [0u8; 23];
    for n in [3, 1 << 40, usize::MAX / 8 + 1, usize::MAX] {
        // Allocating for `n` first would abort on the larger counts.
        let err = Reader::new(&buf).f64s(n).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated { have: 23, .. }),
            "{n}: {err:?}"
        );
    }
    assert_eq!(Reader::new(&buf).f64s(2).map(|v| v.len()), Ok(2));
    // The same guard behind a message's length prefix: a Dispatch that
    // claims 4096 inputs and carries one.
    let module = ModuleInfo {
        name: "m".into(),
        version: 1,
        hash: 2,
        blob_len: 3,
    };
    let honest = GridMsg::encode_dispatch(7, &module, &[1.0]);
    let mut lying = honest.clone();
    let at = honest.len() - 12; // the u32 count before the one f64
    lying[at..at + 4].copy_from_slice(&4096u32.to_le_bytes());
    assert!(matches!(
        GridMsg::decode(&lying),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn dispatch_bytes_are_unchanged_and_the_same_from_borrowed_parts() {
    let module = ModuleInfo {
        name: "sph".into(),
        version: 3,
        hash: 0xABCD,
        blob_len: 32_768,
    };
    let input: Vec<f64> = (0..4096).map(|i| i as f64 * -0.25).collect();
    // The layout every earlier build wrote: tag 3, job, module, count,
    // then one f64 at a time.
    let mut w = Writer::new();
    w.u8(3);
    w.u64(17);
    w.str(&module.name);
    w.u32(module.version);
    w.u64(module.hash);
    w.u64(module.blob_len);
    w.u32(input.len() as u32);
    let mut want = w.into_bytes();
    want.extend(per_element(&input));
    assert_eq!(GridMsg::encode_dispatch(17, &module, &input), want);
    let owned = GridMsg::Dispatch {
        job: 17,
        module,
        input,
    };
    assert_eq!(owned.encode(), want);
    assert_eq!(GridMsg::decode(&want), Ok(owned));
}

proptest! {
    /// Every frame survives encode→decode exactly, and the declared
    /// length prefix always matches the encoded size.
    #[test]
    fn frame_round_trips(
        sel in proptest::arbitrary::any::<u8>(),
        src in proptest::arbitrary::any::<u64>(),
        dst in proptest::arbitrary::any::<u64>(),
        seq in proptest::arbitrary::any::<u64>(),
        payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..256),
    ) {
        let kind = kind_from(sel);
        let frame = if kind == FrameKind::Data {
            Frame::data(Endpoint(src), Endpoint(dst), seq, payload)
        } else {
            Frame::control(kind, Endpoint(src), Endpoint(dst), seq)
        };
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), frame.wire_len());
        prop_assert_eq!(Frame::decode(&bytes), Ok(frame));
    }

    /// Truncating an encoded frame anywhere yields a typed error.
    #[test]
    fn frame_truncation_always_rejected(
        src in proptest::arbitrary::any::<u64>(),
        seq in proptest::arbitrary::any::<u64>(),
        payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
        cut_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let bytes = Frame::data(Endpoint(src), Endpoint(1), seq, payload).encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
    }

    /// Flipping an arbitrary byte never panics the frame decoder, and an
    /// oversized declared payload is refused rather than allocated.
    #[test]
    fn frame_corruption_never_panics(
        src in proptest::arbitrary::any::<u64>(),
        seq in proptest::arbitrary::any::<u64>(),
        payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
        flip_at in proptest::arbitrary::any::<u64>(),
        flip_bits in 1u8..255,
    ) {
        let mut bytes = Frame::data(Endpoint(src), Endpoint(1), seq, payload).encode();
        let at = (flip_at % bytes.len() as u64) as usize;
        bytes[at] ^= flip_bits;
        if let Ok(frame) = Frame::decode(&bytes) {
            prop_assert!(frame.payload.len() <= MAX_PAYLOAD);
        }
    }

    /// Random garbage never panics the frame decoder.
    #[test]
    fn frame_garbage_never_panics(
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..128),
    ) {
        let _ = Frame::decode(&bytes);
    }

    /// Encoding frames through the shared thread-local buffer pool (the
    /// socket transmit path) is byte-identical to the allocating `encode`,
    /// and the pooled bytes decode back to the original frame even when
    /// the pool recycles one buffer across a whole batch.
    #[test]
    fn pooled_frame_encode_matches_allocating(
        frames in proptest::collection::vec(
            (
                proptest::arbitrary::any::<u8>(),
                proptest::arbitrary::any::<u64>(),
                proptest::arbitrary::any::<u64>(),
                proptest::arbitrary::any::<u64>(),
                proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..128),
            ),
            1..12,
        ),
    ) {
        for (sel, src, dst, seq, payload) in &frames {
            let kind = kind_from(*sel);
            let frame = if kind == FrameKind::Data {
                Frame::data(Endpoint(*src), Endpoint(*dst), *seq, payload.clone())
            } else {
                Frame::control(kind, Endpoint(*src), Endpoint(*dst), *seq)
            };
            let baseline = frame.encode();
            let (pooled, decoded) = p2p::wire::with_buf(|buf| {
                frame.encode_into(buf);
                (buf.clone(), Frame::decode(buf))
            });
            prop_assert_eq!(&pooled, &baseline);
            prop_assert_eq!(decoded, Ok(frame));
        }
    }

    /// Every grid message survives encode→decode exactly.
    #[test]
    fn grid_msg_round_trips(
        sel in proptest::arbitrary::any::<u8>(),
        a in proptest::arbitrary::any::<u64>(),
        b in proptest::arbitrary::any::<u64>(),
        s in "[a-z]{0,16}",
        floats in proptest::collection::vec((0i32..10_000).prop_map(|n| n as f64 / 8.0), 0..6),
    ) {
        let msg = msg_from(sel, a, b, &s, &floats);
        let bytes = msg.encode();
        prop_assert_eq!(GridMsg::decode(&bytes), Ok(msg));
    }

    /// Truncating an encoded grid message anywhere yields a typed error.
    #[test]
    fn grid_msg_truncation_always_rejected(
        sel in proptest::arbitrary::any::<u8>(),
        a in proptest::arbitrary::any::<u64>(),
        b in proptest::arbitrary::any::<u64>(),
        s in "[a-z]{0,16}",
        cut_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let bytes = msg_from(sel, a, b, &s, &[1.0]).encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(GridMsg::decode(&bytes[..cut]).is_err());
    }

    /// Corrupting an arbitrary byte never panics the grid decoder.
    #[test]
    fn grid_msg_corruption_never_panics(
        sel in proptest::arbitrary::any::<u8>(),
        a in proptest::arbitrary::any::<u64>(),
        b in proptest::arbitrary::any::<u64>(),
        s in "[a-z]{0,16}",
        flip_at in proptest::arbitrary::any::<u64>(),
        flip_bits in 1u8..255,
    ) {
        let mut bytes = msg_from(sel, a, b, &s, &[1.0]).encode();
        let at = (flip_at % bytes.len() as u64) as usize;
        bytes[at] ^= flip_bits;
        let _ = GridMsg::decode(&bytes);
    }

    /// Random garbage never panics the grid decoder.
    #[test]
    fn grid_msg_garbage_never_panics(
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..200),
    ) {
        let _ = GridMsg::decode(&bytes);
    }
}
