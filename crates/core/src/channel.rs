//! Byte-counting channels connecting the two protocol parties.
//!
//! Both parties run in-process and exchange typed [`Msg`] values over
//! `std::sync::mpsc` channels. Every message knows its wire-format size, so
//! the sending half of every endpoint — one [`ChannelTx`] — accumulates
//! exact upload / download byte counts: the quantities the paper's
//! communication analysis (Figure 5, Table 1, WSA) is built on.
//!
//! Two topologies exist:
//!
//! * [`local_pair`] — the classic two-thread deployment: one dedicated
//!   channel pair per inference, each side blocking on its own receiver.
//! * `service_pair` — the serving-runtime shape
//!   ([`crate::serve::ServeRuntime::connect`] makes it): the client keeps a
//!   private downlink receiver, but its uplink is a function of the
//!   runtime's (`Uplink`) that files each `ClientEvent` with the session it
//!   belongs to, on the sending thread. Dropping the client endpoint files
//!   a `ClientEvent::Gone`, which is how the server learns a peer
//!   disconnected mid-protocol.
//!
//! Disconnects are **errors, not panics**: [`Channel::send`] /
//! [`Channel::recv`] return [`ChannelError::Disconnected`] so a dropped
//! peer tears down only its own session, never a shared server.
//!
//! Either party's protocol body sees its link as one [`Peer`]. Behind its
//! receive hook, a blocking [`Channel::recv`] never suspends the body;
//! [`Channel::try_recv`] or a serving runtime's inbox suspends it until it
//! is polled again.

use crate::error::ProtocolError;
use crate::msg::Msg;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::task::{Context, Poll, Waker};

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
pub(crate) enum ClientEvent {
    /// A protocol message.
    Msg(Msg),
    /// The client endpoint was dropped (cleanly or mid-protocol).
    Gone,
}

/// The uplink of a [`service_pair`]: delivers one event of one client to
/// its session, in call order. `Err` means the serving side is gone.
pub(crate) type Uplink = Box<dyn Fn(ClientEvent) -> Result<(), ChannelError> + Send + Sync>;

/// Where a [`ChannelTx`] delivers: a dedicated peer link or a serving
/// runtime's uplink.
enum Link {
    /// Dedicated link ([`local_pair`], and every downlink).
    Direct(Sender<Msg>),
    /// A [`service_pair`] uplink; drop files `Gone`.
    Service(Uplink),
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Link::Direct(_) => "Direct",
            Link::Service(_) => "Service",
        })
    }
}

/// The counted sending half of an endpoint: every [`Channel`] contains one,
/// and the server's session body writes to one by reference — a dedicated
/// channel's, or a serving-runtime session's bare downlink sender.
#[derive(Debug)]
pub struct ChannelTx {
    link: Link,
    sent_bytes: AtomicU64,
}

impl ChannelTx {
    fn new(link: Link) -> Self {
        Self {
            link,
            sent_bytes: AtomicU64::new(0),
        }
    }

    /// Sends a message, accounting its wire size in this sender's counter —
    /// authoritative for the exact upload/download split — and in the
    /// wire-level trace counters, which aggregate across channels.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] if the peer endpoint was dropped; the
    /// message is counted as sent (it left this party) but goes nowhere.
    pub fn send(&self, msg: Msg) -> Result<(), ChannelError> {
        let len = msg.byte_len() as u64;
        pi_trace::add(pi_trace::Counter::WireBytes, len);
        pi_trace::incr(pi_trace::Counter::WireMsgs);
        pi_trace::record(pi_trace::Hist::WireMsgBytes, len);
        self.sent_bytes.fetch_add(len, Ordering::Relaxed);
        match &self.link {
            Link::Direct(tx) => tx.send(msg).map_err(|_| ChannelError::Disconnected),
            Link::Service(uplink) => uplink(ClientEvent::Msg(msg)),
        }
    }

    /// Total bytes sent through this sender.
    pub fn bytes_sent(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for ChannelTx {
    fn drop(&mut self) {
        if let Link::Service(uplink) = &self.link {
            // Best-effort: if the runtime is already gone there is nobody
            // left to notify.
            let _ = uplink(ClientEvent::Gone);
        }
    }
}

/// One endpoint of a bidirectional, byte-counting message channel.
#[derive(Debug)]
pub struct Channel {
    tx: ChannelTx,
    // A std `Receiver` is not `Sync`; the lock makes the endpoint shareable
    // (one thread receives while others send).
    rx: parking_lot::Mutex<Receiver<Msg>>,
}

/// Creates a connected pair of endpoints. By convention the first endpoint
/// goes to the client and the second to the server.
pub fn local_pair() -> (Channel, Channel) {
    let (tx_a, rx_b) = channel();
    let (tx_b, rx_a) = channel();
    let a = Channel::new(Link::Direct(tx_a), rx_a);
    let b = Channel::new(Link::Direct(tx_b), rx_b);
    (a, b)
}

/// Creates the serving-runtime endpoints for one session: the client's
/// [`Channel`] (everything it sends goes through `uplink`, private
/// downlink) and the server's downlink [`ChannelTx`] (its receive side is
/// whatever `uplink` feeds).
///
/// Uplink byte accounting lives in the client channel's sender, downlink
/// accounting in the returned one — together they give the same per-side
/// upload/download split as a [`local_pair`].
pub(crate) fn service_pair(uplink: Uplink) -> (Channel, ChannelTx) {
    let (down_tx, down_rx) = channel();
    let client = Channel::new(Link::Service(uplink), down_rx);
    (client, ChannelTx::new(Link::Direct(down_tx)))
}

impl Channel {
    fn new(link: Link, rx: Receiver<Msg>) -> Self {
        Self {
            tx: ChannelTx::new(link),
            rx: parking_lot::Mutex::new(rx),
        }
    }

    /// Sends a message through this endpoint's [`ChannelTx`].
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] if the peer endpoint was dropped.
    pub fn send(&self, msg: Msg) -> Result<(), ChannelError> {
        self.tx.send(msg)
    }

    /// Receives the next message (blocking).
    ///
    /// # Errors
    ///
    /// [`ChannelError::Disconnected`] if the peer endpoint was dropped and
    /// the queue is drained.
    pub fn recv(&self) -> Result<Msg, ChannelError> {
        self.rx
            .lock()
            .recv()
            .map_err(|_| ChannelError::Disconnected)
    }

    /// Receives the next message if one is queued: `None` while the queue
    /// is empty, [`ChannelError::Disconnected`] once it is drained and the
    /// peer endpoint was dropped. The receive hook of a [`Peer`] whose body
    /// a thread polls alongside others.
    pub fn try_recv(&self) -> Option<Result<Msg, ChannelError>> {
        match self.rx.lock().try_recv() {
            Ok(msg) => Some(Ok(msg)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ChannelError::Disconnected)),
        }
    }

    /// The counted sending half (its [`ChannelTx::bytes_sent`] is this
    /// endpoint's traffic).
    pub fn tx(&self) -> &ChannelTx {
        &self.tx
    }
}

/// A protocol body's link to the other party: where it sends, and how it
/// receives. Both parties' bodies take one, so they receive the same way.
#[derive(Clone, Copy)]
pub struct Peer<'a> {
    /// The counted sending half.
    pub sink: &'a ChannelTx,
    /// The peer's next message: `None` while none is queued (the body then
    /// suspends until it is polled again), an error once the peer is gone.
    pub recv: &'a (dyn Fn() -> Option<Result<Msg, ProtocolError>> + Sync),
}

impl Peer<'_> {
    /// The peer's next message, awaited through [`Peer::recv`].
    pub fn next(&self) -> impl Future<Output = Result<Msg, ProtocolError>> + '_ {
        std::future::poll_fn(|_| (self.recv)().map_or(Poll::Pending, Poll::Ready))
    }
}

/// Awaits the peer's next message, which must be the given [`Msg`]
/// variant: any other is [`ProtocolError::UnexpectedMsg`] naming the one
/// awaited.
macro_rules! recv {
    ($peer:expr, $variant:ident) => {
        match $peer.next().await? {
            $crate::msg::Msg::$variant(v) => v,
            other => return Err($crate::common::unexpected(stringify!($variant), &other)),
        }
    };
}
pub(crate) use recv;

/// Polls `body` to completion on this thread. Over a [`Peer`] whose
/// receive blocks the body never suspends, so the first poll returns.
pub(crate) fn block_on<F: Future>(body: F) -> F::Output {
    let mut body = std::pin::pin!(body);
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        if let Poll::Ready(out) = body.as_mut().poll(&mut cx) {
            return out;
        }
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
        assert_eq!(a.tx().bytes_sent(), 3 * 8 + 8);
        assert_eq!(b.tx().bytes_sent(), 0);
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
        let (events_tx, events_rx) = channel();
        let (client, server_tx) = service_pair(Box::new(move |event| {
            events_tx
                .send(event)
                .map_err(|_| ChannelError::Disconnected)
        }));
        client.send(Msg::VecU64(vec![5])).unwrap();
        let event = events_rx.recv().unwrap();
        assert!(matches!(event, ClientEvent::Msg(Msg::VecU64(ref v)) if v == &vec![5]));
        server_tx.send(Msg::VecU64(vec![6])).unwrap();
        assert!(matches!(client.recv().unwrap(), Msg::VecU64(v) if v == vec![6]));
        assert_eq!(server_tx.bytes_sent(), 8 + 8);
        drop(client);
        assert!(matches!(events_rx.recv().unwrap(), ClientEvent::Gone));
        // With the client gone, the downlink reports the disconnect.
        assert_eq!(
            server_tx.send(Msg::VecU64(vec![7])),
            Err(ChannelError::Disconnected)
        );
    }

    #[test]
    fn send_recv_in_order() {
        let (a, b) = local_pair();
        for v in 0..4 {
            a.send(Msg::VecU64(vec![v])).unwrap();
        }
        assert!(matches!(b.recv(), Ok(Msg::VecU64(v)) if v == vec![0]));
        assert!(matches!(b.try_recv(), Some(Ok(Msg::VecU64(v))) if v == vec![1]));
        assert!(matches!(b.recv(), Ok(Msg::VecU64(v)) if v == vec![2]));
        assert!(matches!(b.try_recv(), Some(Ok(Msg::VecU64(v))) if v == vec![3]));
    }

    /// A thread blocked in `recv` holds the endpoint's receive lock; a
    /// send through the same endpoint meanwhile does not wait for it, and
    /// the blocked receive wakes on the peer's answer.
    #[test]
    fn recv_blocks_until_send() {
        let (a, b) = local_pair();
        let a = std::sync::Arc::new(a);
        let waiter = std::thread::spawn({
            let a = a.clone();
            move || a.recv()
        });
        a.send(Msg::VecU64(vec![1])).unwrap();
        assert!(matches!(b.recv(), Ok(Msg::VecU64(v)) if v == vec![1]));
        b.send(Msg::VecU64(vec![2])).unwrap();
        let got = waiter.join().unwrap();
        assert!(matches!(got, Ok(Msg::VecU64(v)) if v == vec![2]));
    }

    #[test]
    fn try_recv_states() {
        let (a, b) = local_pair();
        assert!(b.try_recv().is_none());
        a.send(Msg::VecU64(vec![5])).unwrap();
        assert!(matches!(b.try_recv(), Some(Ok(Msg::VecU64(v))) if v == vec![5]));
        assert!(b.try_recv().is_none());
        drop(a);
        assert!(matches!(
            b.try_recv(),
            Some(Err(ChannelError::Disconnected))
        ));
    }

    /// The client end of a `service_pair` sees the server's downlink sender
    /// go: queued messages first, then the disconnect.
    #[test]
    fn disconnect_on_sender_drop() {
        let (client, server_tx) = service_pair(Box::new(|_| Ok(())));
        server_tx.send(Msg::VecU64(vec![3])).unwrap();
        drop(server_tx);
        assert!(matches!(client.try_recv(), Some(Ok(Msg::VecU64(v))) if v == vec![3]));
        assert!(matches!(client.recv(), Err(ChannelError::Disconnected)));
        assert!(matches!(
            client.try_recv(),
            Some(Err(ChannelError::Disconnected))
        ));
    }
}
