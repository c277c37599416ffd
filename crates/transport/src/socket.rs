//! The real-network backend: [`Transport`] over nonblocking UDP sockets.
//!
//! This offline workspace has no async runtime (no tokio), so the
//! backend is a poll-driven state machine over `std::net::UdpSocket` in
//! nonblocking mode — one socket per node, one frame per datagram,
//! driven by the same [`Transport::poll`] loop the sim backend uses. Above
//! the socket sits the same channel set the simulator drives, byte for
//! byte: UDP loss, duplication and reordering are exactly the faults its
//! channels already absorb under chaos testing in the simulator. Between
//! polls a node blocks in [`SocketTransport::wait`], so an idle node costs
//! no CPU.
//!
//! The clock is a monotonic `Instant` anchored at construction and
//! reported as microseconds in [`SimTime`] — same type, different
//! substance — so node code written against the trait needs no
//! wall-clock special cases.

use crate::frame::{Endpoint, Frame, MAX_PAYLOAD};
use crate::reliab::{ChanOut, ChannelConfig, ChannelSet, Wire};
use crate::{Transport, TransportError, TransportEvent};
use netsim::SimTime;
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Receive buffer: one full frame plus header.
const RECV_BUF: usize = MAX_PAYLOAD + 512;

/// How late [`SocketTransport::wait`] ends when it times out: the kernel
/// counts a socket's receive timeout in scheduler ticks and fires it up to
/// two ticks after it is due (8 ms at the usual `HZ=250`; more under load).
pub const WAIT_SLACK: Duration = Duration::from_millis(8);

/// The socket and the directory that addresses frames on it.
struct Udp {
    sock: UdpSocket,
    /// Endpoint → address directory. Learned from inbound frames when
    /// not pre-registered, so only one side of a link needs static
    /// configuration.
    peers: BTreeMap<Endpoint, SocketAddr>,
}

impl Wire for Udp {
    fn knows(&self, peer: Endpoint) -> bool {
        self.peers.contains_key(&peer)
    }

    fn transmit(&mut self, frame: &Frame) {
        let Some(&addr) = self.peers.get(&frame.dst) else {
            return;
        };
        // UDP send failures (e.g. transient ENOBUFS) are treated as loss:
        // the reliability layer retransmits.
        p2p::wire::with_buf(|buf| {
            frame.encode_into(buf);
            let _ = self.sock.send_to(buf, addr);
        });
    }
}

/// [`Transport`] over one nonblocking UDP socket.
pub struct SocketTransport {
    udp: Udp,
    local: Endpoint,
    set: ChannelSet,
    /// Scratch for channel outputs, handed back empty by every call.
    outs: Vec<ChanOut>,
    epoch: Instant,
    buf: Box<[u8; RECV_BUF]>,
}

impl SocketTransport {
    /// Bind a fresh socket on the loopback interface (ephemeral port).
    pub fn bind_loopback(local: Endpoint) -> Result<Self, TransportError> {
        let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| TransportError::Io(e.to_string()))?;
        sock.set_nonblocking(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(SocketTransport {
            udp: Udp {
                sock,
                peers: BTreeMap::new(),
            },
            local,
            set: ChannelSet::new(local, ChannelConfig::socket_default()),
            outs: Vec::new(),
            epoch: Instant::now(),
            buf: Box::new([0u8; RECV_BUF]),
        })
    }

    /// Attach a metrics observer (`transport.*` counters).
    pub fn set_obs(&mut self, observer: obs::Obs) {
        self.set.set_obs(&observer);
    }

    /// The socket's bound address, for handing to peers out of band.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.udp
            .sock
            .local_addr()
            .map_err(|e| TransportError::Io(e.to_string()))
    }

    /// Teach this transport where an endpoint lives.
    pub fn register_peer(&mut self, ep: Endpoint, addr: SocketAddr) {
        self.udp.peers.insert(ep, addr);
    }

    /// Block until a datagram arrives (left for the next
    /// [`Transport::poll`]), a channel timer falls due or `limit` passes.
    /// A wait that times out ends up to [`WAIT_SLACK`] late.
    pub fn wait(&mut self, limit: Duration) {
        let due = self
            .set
            .next_deadline()
            .map(|d| d.0.saturating_sub(self.now().0));
        let timeout = due.map_or(limit, |us| limit.min(Duration::from_micros(us)));
        if timeout.is_zero() {
            return; // A timer is due now; the socket refuses a zero timeout.
        }
        // An error (the timeout, an interrupt) ends the wait as a datagram does.
        let sock = &self.udp.sock;
        let _ = sock
            .set_nonblocking(false)
            .and_then(|()| sock.set_read_timeout(Some(timeout)))
            .and_then(|()| sock.peek_from(&mut [0]));
        let _ = sock.set_nonblocking(true);
    }

    /// Drain the socket until it would block.
    fn pump_socket(&mut self) {
        loop {
            match self.udp.sock.recv_from(&mut self.buf[..]) {
                Ok((n, addr)) => {
                    let decoded = self.set.decode(&self.buf[..n]);
                    let Some(frame) = decoded.filter(|f| f.dst == self.local) else {
                        continue;
                    };
                    // Learn the return address from the packet itself.
                    self.udp.peers.entry(frame.src).or_insert(addr);
                    let now = self.now();
                    self.set.on_frame(now, frame, &mut self.outs, &mut self.udp);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Would block, or connection-refused noise from a peer
                // that is not up yet (some platforms surface it here);
                // loss is handled by retransmission either way.
                Err(_) => break,
            }
        }
    }
}

impl Transport for SocketTransport {
    fn local(&self) -> Endpoint {
        self.local
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    fn send(&mut self, dst: Endpoint, payload: Vec<u8>) -> Result<(), TransportError> {
        let now = self.now();
        self.set
            .send(now, dst, payload, &mut self.outs, &mut self.udp)
    }

    fn poll(&mut self, events: &mut Vec<TransportEvent>) {
        self.pump_socket();
        let now = self.now();
        self.set.on_tick(now, &mut self.outs, &mut self.udp);
        self.set.poll(events);
    }

    fn pending(&self) -> usize {
        self.set.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Duration;

    fn linked_pair() -> (SocketTransport, SocketTransport) {
        let mut a = SocketTransport::bind_loopback(Endpoint(1)).unwrap();
        let mut b = SocketTransport::bind_loopback(Endpoint(2)).unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        a.register_peer(Endpoint(2), ba);
        b.register_peer(Endpoint(1), aa);
        (a, b)
    }

    /// Give `t` an observer of its own and return a reader of its
    /// `transport.<name>` counters.
    fn observe(t: &mut SocketTransport) -> impl Fn(&str) -> u64 {
        let observer = obs::Obs::enabled();
        t.set_obs(observer.clone());
        move |name| {
            let reg = observer.registry().expect("obs enabled");
            reg.counter_value(&format!("transport.{name}"))
        }
    }

    /// Poll both transports until `want` deliveries reached `b` or the
    /// wall-clock budget runs out.
    fn pump_until(
        a: &mut SocketTransport,
        b: &mut SocketTransport,
        want: usize,
        budget_ms: u64,
    ) -> Vec<TransportEvent> {
        let start = Instant::now();
        let mut got = Vec::new();
        while got
            .iter()
            .filter(|e| matches!(e, TransportEvent::Delivered { .. }))
            .count()
            < want
        {
            a.poll(&mut Vec::new());
            b.poll(&mut got);
            if start.elapsed().as_millis() as u64 > budget_ms {
                break;
            }
            b.wait(std::time::Duration::from_millis(10));
        }
        got
    }

    #[test]
    fn loopback_delivery_in_order() {
        let (mut a, mut b) = linked_pair();
        let (a_count, b_count) = (observe(&mut a), observe(&mut b));
        for i in 0..10u8 {
            a.send(Endpoint(2), vec![i]).unwrap();
        }
        let evs = pump_until(&mut a, &mut b, 10, 5_000);
        let got: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                TransportEvent::Delivered { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
        assert!(a_count("frames_sent") >= 10);
        assert!(b_count("acks") >= 10);
    }

    #[test]
    fn unreachable_peer_eventually_reported_dead() {
        let mut a = SocketTransport::bind_loopback(Endpoint(1)).unwrap();
        // Register a peer address nobody is listening on.
        a.register_peer(Endpoint(2), "127.0.0.1:9".parse().unwrap());
        a.set.cfg = ChannelConfig {
            rto: Duration::from_millis(2),
            rto_max: Duration::from_millis(4),
            max_attempts: 3,
            ping_after: None,
            liveness: Duration::from_secs(60),
        };
        a.send(Endpoint(2), vec![1]).unwrap();
        let start = Instant::now();
        let mut evs = Vec::new();
        while !evs
            .iter()
            .any(|e| matches!(e, TransportEvent::PeerDead { .. }))
            && start.elapsed().as_millis() < 5_000
        {
            // Each wait ends at the next retry, which the poll sends.
            a.wait(std::time::Duration::from_secs(1));
            a.poll(&mut evs);
        }
        assert!(evs.contains(&TransportEvent::PeerDead { peer: Endpoint(2) }));
        assert_eq!(a.pending(), 0, "nothing is owed to a dead peer");
    }

    #[test]
    fn a_datagram_ends_the_wait() {
        let (mut a, mut b) = linked_pair();
        // Nothing to receive and no timer: the wait runs to its limit.
        let start = Instant::now();
        b.wait(std::time::Duration::from_millis(20));
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
        let sender = std::thread::spawn(move || a.send(Endpoint(2), vec![9]).unwrap());
        let start = Instant::now();
        b.wait(std::time::Duration::from_secs(10));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "the datagram, not the limit, ended the wait"
        );
        sender.join().unwrap();
        let mut evs = Vec::new();
        b.poll(&mut evs);
        assert_eq!(
            evs,
            vec![TransportEvent::Delivered {
                from: Endpoint(1),
                payload: vec![9]
            }]
        );
    }

    #[test]
    fn a_due_retransmit_ends_the_wait() {
        let mut a = SocketTransport::bind_loopback(Endpoint(1)).unwrap();
        let a_count = observe(&mut a);
        // A silent peer: a bound socket nobody reads.
        let silent = SocketTransport::bind_loopback(Endpoint(2)).unwrap();
        a.register_peer(Endpoint(2), silent.local_addr().unwrap());
        a.set.cfg = ChannelConfig {
            rto: Duration::from_millis(2),
            ..ChannelConfig::socket_default()
        };
        a.send(Endpoint(2), vec![1]).unwrap();
        let start = Instant::now();
        a.wait(std::time::Duration::from_secs(10));
        let waited = start.elapsed();
        // Never early; late by the kernel's tick rounding and scheduling,
        // which is milliseconds, not the 10 s limit.
        assert!(waited >= std::time::Duration::from_millis(1), "{waited:?}");
        assert!(waited < std::time::Duration::from_millis(100), "{waited:?}");
        assert_eq!(a_count("retransmits"), 0);
        a.poll(&mut Vec::new());
        assert_eq!(a_count("retransmits"), 1, "the retransmit follows");
    }
}
