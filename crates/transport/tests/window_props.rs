//! Property test for the reliability layer's flow control: two
//! [`PeerChannel`]s joined by a wire that loses, duplicates and reorders
//! frames on an arbitrary schedule, with payloads of 0 B to 60 KiB offered
//! in both directions. Whatever the schedule, delivery is exactly-once and
//! in order, the send window holds after every step, and an honest sender
//! never makes its peer's reorder buffer refuse a frame.

use netsim::{Duration, SimTime};
use proptest::prelude::*;
use transport::frame::{Endpoint, Frame, MAX_PAYLOAD};
use transport::reliab::{ChanOut, ChannelConfig, PeerChannel, SEND_WINDOW};

/// One end of the link: its channel, the frames it has put on the wire
/// that have not arrived yet, and what it offered and was handed.
struct End {
    chan: PeerChannel,
    wire: Vec<Frame>,
    offered: Vec<Vec<u8>>,
    got: Vec<Vec<u8>>,
}

impl End {
    fn new(local: u64, peer: u64) -> End {
        // Fast retransmits, and a peer that is never given up on: death
        // drops what the channel holds, which is not what is tested here.
        let cfg = ChannelConfig {
            rto: Duration(50),
            rto_max: Duration(400),
            max_attempts: u32::MAX,
            ping_after: None,
            liveness: Duration::from_secs(3_600),
        };
        End {
            chan: PeerChannel::new(Endpoint(local), Endpoint(peer), cfg, SimTime::ZERO),
            wire: Vec::new(),
            offered: Vec::new(),
            got: Vec::new(),
        }
    }

    /// Carry out the channel's outputs, then check what must always hold.
    fn absorb(&mut self, outs: Vec<ChanOut>) {
        for out in outs {
            match out {
                ChanOut::Transmit(f) | ChanOut::Retransmit(f) => self.wire.push(f),
                ChanOut::Deliver(p) => self.got.push(p),
                other => panic!("an honest link produced {other:?}"),
            }
        }
        assert!(
            self.chan.window_used() <= SEND_WINDOW,
            "window holds {} bytes",
            self.chan.window_used()
        );
    }

    fn offer(&mut self, now: SimTime, len: usize) {
        // Tagged with its index so a swap or a repeat cannot go unnoticed.
        let tag = self.offered.len() as u8;
        let payload = vec![tag; len];
        self.offered.push(payload.clone());
        let mut outs = Vec::new();
        self.chan.offer(now, payload, &mut outs);
        self.absorb(outs);
    }

    fn receive(&mut self, now: SimTime, frame: Frame) {
        let mut outs = Vec::new();
        self.chan.on_frame(now, frame, &mut outs);
        self.absorb(outs);
    }

    fn tick(&mut self, now: SimTime) {
        let mut outs = Vec::new();
        self.chan.on_tick(now, &mut outs);
        self.absorb(outs);
    }
}

proptest! {
    #[test]
    fn lossy_link_delivers_exactly_once_in_order_inside_the_window(
        ops in proptest::collection::vec(
            (
                proptest::arbitrary::any::<u8>(),
                proptest::arbitrary::any::<u16>(),
                proptest::arbitrary::any::<u16>(),
            ),
            1..96,
        ),
    ) {
        let mut ends = [End::new(0, 1), End::new(1, 0)];
        let mut now = SimTime::ZERO;
        for (op, x, y) in ops {
            // `side` acts; for wire faults it is the side whose outgoing
            // frames are hit, at an arbitrary position in its wire.
            let side = (op & 1) as usize;
            let at = |wire: &[Frame]| (!wire.is_empty()).then(|| y as usize % wire.len());
            match (op >> 1) % 8 {
                0 => ends[side].offer(now, x as usize % (MAX_PAYLOAD + 1)),
                1 => ends[side].offer(now, x as usize % 600),
                2 | 3 => {
                    // Arrival out of order: any frame on the wire.
                    if let Some(i) = at(&ends[side].wire) {
                        let frame = ends[side].wire.remove(i);
                        ends[1 - side].receive(now, frame);
                    }
                }
                4 => {
                    if let Some(i) = at(&ends[side].wire) {
                        ends[side].wire.remove(i); // lost
                    }
                }
                5 => {
                    if let Some(i) = at(&ends[side].wire) {
                        let copy = ends[side].wire[i].clone(); // duplicated
                        ends[side].wire.push(copy);
                    }
                }
                _ => {
                    now += Duration(u64::from(x) % 120);
                    ends[side].tick(now);
                }
            }
        }
        // The faults stop; the link must now finish on its own.
        let mut rounds = 0;
        while ends.iter().any(|e| e.chan.in_flight() > 0 || !e.wire.is_empty()) {
            for side in 0..2 {
                for frame in std::mem::take(&mut ends[side].wire) {
                    ends[1 - side].receive(now, frame);
                }
            }
            if let Some(due) = ends.iter().filter_map(|e| e.chan.next_deadline()).min() {
                now = now.max(due);
            }
            for end in &mut ends {
                end.tick(now);
            }
            rounds += 1;
            prop_assert!(rounds < 10_000, "link did not quiesce");
        }
        prop_assert_eq!(&ends[1].got, &ends[0].offered);
        prop_assert_eq!(&ends[0].got, &ends[1].offered);
    }
}
