//! Byte-counting channels connecting the two protocol parties.
//!
//! Both parties run in-process and exchange typed [`Msg`](crate::msg::Msg)
//! values over crossbeam channels. Every message knows its wire-format
//! size, so the channel accumulates exact upload / download byte counts —
//! the quantities the paper's communication analysis (Figure 5, Table 1,
//! WSA) is built on.
//!
//! Two topologies exist:
//!
//! * [`local_pair`] — the classic two-thread deployment: one dedicated
//!   channel pair per inference, each side blocking on its own receiver.
//! * [`service_pair`] — the serving-runtime shape: the client keeps a
//!   private downlink receiver, but its uplink is **tagged** with a session
//!   id and multiplexed onto the runtime's shared ingress channel
//!   ([`SessionPacket`]), so one dispatcher drains every client. Dropping
//!   the client endpoint enqueues a [`ClientEvent::Gone`] packet, which is
//!   how the server learns a peer disconnected mid-protocol.
//!
//! Disconnects are **errors, not panics**: [`Channel::send`] /
//! [`Channel::recv`] return [`ChannelError::Disconnected`] so a dropped
//! peer tears down only its own session, never a shared server.

use crate::msg::Msg;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Transport-level failure on a protocol channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelError {
    /// The peer endpoint was dropped: nothing more can be sent or received.
    Disconnected,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Disconnected => write!(f, "peer disconnected"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// An uplink event from one serving-runtime client.
#[derive(Debug)]
pub enum ClientEvent {
    /// A protocol message.
    Msg(Msg),
    /// The client endpoint was dropped (cleanly or mid-protocol).
    Gone,
}

/// One tagged uplink packet on the serving runtime's shared ingress
/// channel: which session it belongs to, and what happened.
#[derive(Debug)]
pub struct SessionPacket {
    /// Session the event belongs to.
    pub sid: u64,
    /// The event.
    pub event: ClientEvent,
}

/// Mirrors one outgoing message into the wire-level trace counters and
/// returns its wire size. The per-channel atomics stay authoritative for
/// the exact upload/download accounting; the trace mirror aggregates
/// across channels and feeds the `wire.msg_bytes` histogram.
fn account_wire(msg: &Msg) -> (u64, u64) {
    let len = msg.byte_len() as u64;
    let flat = msg.flat_byte_len() as u64;
    pi_trace::add(pi_trace::Counter::WireBytes, len);
    pi_trace::add(pi_trace::Counter::WireFlatBytes, flat);
    pi_trace::incr(pi_trace::Counter::WireMsgs);
    pi_trace::record(pi_trace::Hist::WireMsgBytes, len);
    (len, flat)
}

/// The sending half of a [`Channel`]: either a dedicated peer link or a
/// session-tagged uplink into a shared ingress channel.
#[derive(Debug)]
enum Uplink {
    /// Dedicated link ([`local_pair`]).
    Direct(Sender<Msg>),
    /// Tagged multiplexed link ([`service_pair`]); drop sends `Gone`.
    Tagged { tx: Sender<SessionPacket>, sid: u64 },
}

/// One endpoint of a bidirectional, byte-counting message channel.
#[derive(Debug)]
pub struct Channel {
    tx: Uplink,
    rx: Receiver<Msg>,
    sent_bytes: Arc<AtomicU64>,
    sent_flat_bytes: Arc<AtomicU64>,
    sent_msgs: Arc<AtomicU64>,
}

/// Creates a connected pair of endpoints. By convention the first endpoint
/// goes to the client and the second to the server.
pub fn local_pair() -> (Channel, Channel) {
    let (tx_a, rx_b) = unbounded();
    let (tx_b, rx_a) = unbounded();
    let a = Channel {
        tx: Uplink::Direct(tx_a),
        rx: rx_a,
        sent_bytes: Arc::new(AtomicU64::new(0)),
        sent_flat_bytes: Arc::new(AtomicU64::new(0)),
        sent_msgs: Arc::new(AtomicU64::new(0)),
    };
    let b = Channel {
        tx: Uplink::Direct(tx_b),
        rx: rx_b,
        sent_bytes: Arc::new(AtomicU64::new(0)),
        sent_flat_bytes: Arc::new(AtomicU64::new(0)),
        sent_msgs: Arc::new(AtomicU64::new(0)),
    };
    (a, b)
}

/// Creates the serving-runtime endpoints for one session: the client's
/// [`Channel`] (uplink tagged with `sid` onto `ingress`, private downlink)
/// and the server's byte-counting [`ChannelTx`] downlink sender.
///
/// Uplink byte accounting lives in the client channel; downlink accounting
/// in the returned [`ChannelTx`] — together they give the same per-side
/// upload/download split as a [`local_pair`].
pub fn service_pair(sid: u64, ingress: Sender<SessionPacket>) -> (Channel, ChannelTx) {
    let (down_tx, down_rx) = unbounded();
    let client = Channel {
        tx: Uplink::Tagged { tx: ingress, sid },
        rx: down_rx,
        sent_bytes: Arc::new(AtomicU64::new(0)),
        sent_flat_bytes: Arc::new(AtomicU64::new(0)),
        sent_msgs: Arc::new(AtomicU64::new(0)),
    };
    let server_tx = ChannelTx {
        tx: down_tx,
        sent_bytes: Arc::new(AtomicU64::new(0)),
        sent_flat_bytes: Arc::new(AtomicU64::new(0)),
        sent_msgs: Arc::new(AtomicU64::new(0)),
    };
    (client, server_tx)
}

impl Channel {
    /// Sends a message, accounting its wire size.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] if the peer endpoint was dropped; the
    /// message is counted as sent (it left this party) but goes nowhere.
    pub fn send(&self, msg: Msg) -> Result<(), ChannelError> {
        let (len, flat) = account_wire(&msg);
        self.sent_bytes.fetch_add(len, Ordering::Relaxed);
        self.sent_flat_bytes.fetch_add(flat, Ordering::Relaxed);
        self.sent_msgs.fetch_add(1, Ordering::Relaxed);
        match &self.tx {
            Uplink::Direct(tx) => tx.send(msg).map_err(|_| ChannelError::Disconnected),
            Uplink::Tagged { tx, sid } => tx
                .send(SessionPacket {
                    sid: *sid,
                    event: ClientEvent::Msg(msg),
                })
                .map_err(|_| ChannelError::Disconnected),
        }
    }

    /// Receives the next message (blocking).
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] if the peer endpoint was dropped and
    /// the queue is drained.
    pub fn recv(&self) -> Result<Msg, ChannelError> {
        self.rx.recv().map_err(|_| ChannelError::Disconnected)
    }

    /// Total bytes sent from this endpoint.
    pub fn bytes_sent(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }

    /// Bytes this endpoint would have sent under the legacy flat-u64 HE
    /// encoding (see [`Msg::flat_byte_len`]).
    pub fn bytes_sent_flat(&self) -> u64 {
        self.sent_flat_bytes.load(Ordering::Relaxed)
    }

    /// Total messages sent from this endpoint (round counting).
    pub fn messages_sent(&self) -> u64 {
        self.sent_msgs.load(Ordering::Relaxed)
    }
}

impl Drop for Channel {
    fn drop(&mut self) {
        if let Uplink::Tagged { tx, sid } = &self.tx {
            // Best-effort: if the runtime is already gone there is nobody
            // left to notify.
            let _ = tx.send(SessionPacket {
                sid: *sid,
                event: ClientEvent::Gone,
            });
        }
    }
}

/// A byte-counting message sink — the downlink abstraction the server's
/// session state machine writes to, implemented by both a dedicated
/// [`Channel`] (synchronous two-thread drivers) and a [`ChannelTx`]
/// (serving-runtime sessions), so one protocol implementation serves both
/// deployments.
pub trait MsgSink {
    /// Sends a message, accounting its wire size.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] if the peer endpoint was dropped.
    fn send_msg(&self, msg: Msg) -> Result<(), ChannelError>;

    /// Total bytes sent through this sink.
    fn sent_bytes(&self) -> u64;

    /// Bytes this sink would have sent under the legacy flat-u64 HE
    /// encoding (see [`Msg::flat_byte_len`]).
    fn sent_bytes_flat(&self) -> u64;
}

impl MsgSink for Channel {
    fn send_msg(&self, msg: Msg) -> Result<(), ChannelError> {
        self.send(msg)
    }

    fn sent_bytes(&self) -> u64 {
        self.bytes_sent()
    }

    fn sent_bytes_flat(&self) -> u64 {
        self.bytes_sent_flat()
    }
}

impl MsgSink for ChannelTx {
    fn send_msg(&self, msg: Msg) -> Result<(), ChannelError> {
        self.send(msg)
    }

    fn sent_bytes(&self) -> u64 {
        self.bytes_sent()
    }

    fn sent_bytes_flat(&self) -> u64 {
        self.bytes_sent_flat()
    }
}

/// The server-side downlink sender of a [`service_pair`] session: a
/// byte-counting send-only handle the session state machine owns (its
/// receive side is the runtime's shared ingress).
#[derive(Debug)]
pub struct ChannelTx {
    tx: Sender<Msg>,
    sent_bytes: Arc<AtomicU64>,
    sent_flat_bytes: Arc<AtomicU64>,
    sent_msgs: Arc<AtomicU64>,
}

impl ChannelTx {
    /// Sends a message to the session's client, accounting its wire size.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] if the client endpoint was dropped.
    pub fn send(&self, msg: Msg) -> Result<(), ChannelError> {
        let (len, flat) = account_wire(&msg);
        self.sent_bytes.fetch_add(len, Ordering::Relaxed);
        self.sent_flat_bytes.fetch_add(flat, Ordering::Relaxed);
        self.sent_msgs.fetch_add(1, Ordering::Relaxed);
        self.tx.send(msg).map_err(|_| ChannelError::Disconnected)
    }

    /// Total bytes sent from this endpoint.
    pub fn bytes_sent(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }

    /// Bytes this endpoint would have sent under the legacy flat-u64 HE
    /// encoding (see [`Msg::flat_byte_len`]).
    pub fn bytes_sent_flat(&self) -> u64 {
        self.sent_flat_bytes.load(Ordering::Relaxed)
    }

    /// Total messages sent from this endpoint.
    pub fn messages_sent(&self) -> u64 {
        self.sent_msgs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_counting() {
        let (a, b) = local_pair();
        a.send(Msg::VecU64(vec![1, 2, 3])).unwrap();
        match b.recv().unwrap() {
            Msg::VecU64(v) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("unexpected message {other:?}"),
        }
        assert_eq!(a.bytes_sent(), 3 * 8 + 8);
        assert_eq!(a.messages_sent(), 1);
        assert_eq!(b.bytes_sent(), 0);
    }

    #[test]
    fn bidirectional() {
        let (a, b) = local_pair();
        a.send(Msg::VecU64(vec![7])).unwrap();
        b.send(Msg::VecU64(vec![8, 9])).unwrap();
        assert!(matches!(a.recv().unwrap(), Msg::VecU64(v) if v == vec![8, 9]));
        assert!(matches!(b.recv().unwrap(), Msg::VecU64(v) if v == vec![7]));
    }

    #[test]
    fn disconnect_is_an_error_not_a_panic() {
        let (a, b) = local_pair();
        a.send(Msg::VecU64(vec![1])).unwrap();
        drop(a);
        // Queued data drains first, then the disconnect surfaces.
        assert!(matches!(b.recv(), Ok(Msg::VecU64(v)) if v == vec![1]));
        assert!(matches!(b.recv(), Err(ChannelError::Disconnected)));
        assert_eq!(
            b.send(Msg::VecU64(vec![2])),
            Err(ChannelError::Disconnected)
        );
    }

    #[test]
    fn service_pair_tags_and_signals_gone() {
        let (ingress_tx, ingress_rx) = unbounded();
        let (client, server_tx) = service_pair(42, ingress_tx);
        client.send(Msg::VecU64(vec![5])).unwrap();
        let pkt = ingress_rx.recv().unwrap();
        assert_eq!(pkt.sid, 42);
        assert!(matches!(pkt.event, ClientEvent::Msg(Msg::VecU64(ref v)) if v == &vec![5]));
        server_tx.send(Msg::VecU64(vec![6])).unwrap();
        assert!(matches!(client.recv().unwrap(), Msg::VecU64(v) if v == vec![6]));
        assert_eq!(server_tx.bytes_sent(), 8 + 8);
        drop(client);
        let pkt = ingress_rx.recv().unwrap();
        assert_eq!(pkt.sid, 42);
        assert!(matches!(pkt.event, ClientEvent::Gone));
        // With the client gone, the downlink reports the disconnect.
        assert_eq!(
            server_tx.send(Msg::VecU64(vec![7])),
            Err(ChannelError::Disconnected)
        );
    }
}
