//! Concurrent multi-client serving runtime.
//!
//! [`session::drive_sync`] dedicates one blocking thread to one session;
//! a shared server serving many clients wants the opposite shape: a fixed
//! worker pool advancing whichever sessions have work. This module
//! provides that runtime:
//!
//! * **Suspendable sessions** — each connection owns the future of a
//!   `session::run` ([`session`]), the server role of both protocol
//!   kinds as one `async` body whose receives read the session's inbox: it
//!   suspends when the inbox is empty and gives its worker back. A
//!   misbehaving or vanished client — wrong order, wrong shape, unreduced
//!   values, a disconnect — is a typed [`ProtocolError`] that aborts
//!   exactly one session; the worker and every neighbouring session carry
//!   on.
//! * **Per-model state, built once** — `register_model` builds the
//!   model's [`ServerPrecomp`] (its encoded diagonals, and in HE mode the
//!   encoder and the key plan) and keeps it with the model for the
//!   runtime's lifetime; every session of the model reads it.
//! * **One session table under one budget** — every client's uploaded
//!   rotation keys and every client pair's post-base-OT IKNP state, in one
//!   byte-budgeted LRU (`table.rs`) that a session reaches through its
//!   client's handle. Eviction drops only the table's reference; an
//!   evicted client re-uploads the keys [`crate::ServiceClient`] retains,
//!   or runs base OT again, on its next request, driven by the
//!   [`KeyStatus`](crate::msg::Msg::KeyStatus) handshake. A key upload
//!   makes its room before it is decoded (`SessionTable::make_room`) and is
//!   decoded into an evicted set no session holds: a full table turns over
//!   in place, so a churning runtime holds its budget's memory, not a
//!   function of which worker's allocator arena each set was decoded in.
//! * **Base OT once per client pair** — the session body looks the pair's
//!   IKNP state up in its first poll and reserves its range of PRG blocks
//!   there (an atomic cursor: concurrent sessions of one client get
//!   disjoint ranges, and an aborted session burns its range, nothing
//!   rewinds). A client that lost its half while the server still holds
//!   the other is refused (`BadRequest` on the client) until the entry is
//!   evicted — as with HE keys.
//! * **One run queue** — session pumps are tasks of the process's one
//!   pool ([`pi_trace::par::spawn`]: as many threads as the host has, on
//!   one FIFO), and so are the helper parts of every split, a session's
//!   own included ([`pi_trace::par::map_ranges`]: `lphe_threads`-way
//!   matvecs, base OT, key generation and admission, large ReLU phases).
//!   The runtime starts no thread: a split spreads over the workers no
//!   other session holds, and runs inline when every one is busy.
//! * **Uplinks that file their own events** — a client's send (or the drop
//!   of its endpoint) pushes the event onto its session's inbox and
//!   schedules the session's pump, on the client's thread. It never touches
//!   a session body, so slow session compute cannot stall message intake,
//!   and it holds the runtime weakly, so a dropped runtime hangs up on
//!   every live client once its last queued or running pump returns.
//!   Since every push schedules a pump, a suspended session needs no
//!   waker: the pump polls it again.
//! * **Every session's work in its own polls** — the offline HE matvecs
//!   included: a session computes its products in the poll that receives
//!   its last ciphertext, exactly as under [`session::drive_sync`], so
//!   every request owns all of its time and the matvecs of different
//!   sessions run on as many workers as there are sessions.
//!
//! Concurrency discipline per session slot: the *inbox* lock is the only
//! one an uplink takes (always short); the *body* lock serializes the polls
//! and is only contended when a pump is already running — which the
//! `scheduled` flag prevents. The session future holds the session table,
//! never the runtime, and shares only its inbox, never its slot. A
//! session's trace covers all of its work; the runtime's
//! [`ServeRuntime::aggregate_trace`] is the merge of every finished
//! session's.

pub mod session;

mod table;

pub use table::TableStats;

use crate::channel::{service_pair, Channel, ChannelError, ChannelTx, ClientEvent, Peer};
use crate::common::{PartyOutcome, ProtocolConfig, ServerPrecomp};
use crate::error::ProtocolError;
use pi_nn::PiModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use session::SessionCtx;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use table::{CacheKey, ClientCache, SessionTable};

/// Serving-runtime configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Byte budget of the session table, enforced across every client's
    /// keys and OT state together.
    pub table_budget_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            table_budget_bytes: 256 << 20,
        }
    }
}

/// A registered model: weights, the protocol configuration it serves
/// under, and its precomputation (in HE mode holding the key plan its
/// clients' rotation keys are cached by).
struct ModelEntry {
    model: PiModel,
    cfg: ProtocolConfig,
    pre: ServerPrecomp,
}

/// A session's uplink events, in arrival order: the uplink pushes, the
/// session's receive pops.
type Inbox = Arc<parking_lot::Mutex<VecDeque<ClientEvent>>>;

/// A session as the runtime polls it.
type SessionFuture = Pin<Box<dyn Future<Output = Result<PartyOutcome, ProtocolError>> + Send>>;

/// The session-serial state a pump works on (guarded by the body lock).
struct SlotBody {
    /// The session, `None` once it resolved.
    session: Option<SessionFuture>,
    result_tx: Sender<Result<PartyOutcome, ProtocolError>>,
    trace: pi_trace::TraceReport,
}

/// One live session: lock discipline is inbox ≺ body, and an uplink only
/// ever takes the inbox lock.
struct Slot {
    sid: u64,
    scheduled: AtomicBool,
    inbox: Inbox,
    body: parking_lot::Mutex<SlotBody>,
}

struct Inner {
    models: parking_lot::Mutex<Vec<Arc<ModelEntry>>>,
    slots: parking_lot::Mutex<HashMap<u64, Arc<Slot>>>,
    next_sid: AtomicU64,
    cache: Arc<SessionTable>,
    agg_trace: parking_lot::Mutex<pi_trace::TraceReport>,
}

/// The concurrent serving runtime. See the module docs for the moving
/// parts; the lifecycle is `new` → `register_model` → any number of
/// concurrent `connect`s → drop (every session still live is hung up on
/// once the last of the runtime's queued or running pumps returns).
pub struct ServeRuntime {
    inner: Arc<Inner>,
}

/// The client half of one serving-runtime session.
pub struct ClientConn {
    /// The client's protocol channel (drive it with
    /// [`ServiceClient`](crate::ServiceClient)).
    pub chan: Channel,
    /// Handle resolving to the server-side outcome of the session.
    pub handle: SessionHandle,
}

/// Resolves to the server's [`PartyOutcome`] (or the session's error) once
/// the session finishes.
pub struct SessionHandle {
    rx: Receiver<Result<PartyOutcome, ProtocolError>>,
}

impl SessionHandle {
    /// Blocks until the server side of the session completes.
    ///
    /// # Errors
    ///
    /// The session's [`ProtocolError`]; a runtime torn down before the
    /// session finished reports as a channel disconnect.
    pub fn wait(self) -> Result<PartyOutcome, ProtocolError> {
        self.rx
            .recv()
            .unwrap_or(Err(ProtocolError::Channel(ChannelError::Disconnected)))
    }
}

impl ServeRuntime {
    /// Starts the runtime. It starts no thread: its sessions' pumps are
    /// tasks of `pi_trace::par`'s pool.
    pub fn new(cfg: ServeConfig) -> Self {
        let inner = Arc::new(Inner {
            models: parking_lot::Mutex::new(Vec::new()),
            slots: parking_lot::Mutex::new(HashMap::new()),
            next_sid: AtomicU64::new(0),
            cache: Arc::new(SessionTable::new(cfg.table_budget_bytes)),
            agg_trace: parking_lot::Mutex::new(pi_trace::TraceReport::default()),
        });
        Self { inner }
    }

    /// Registers a model to serve and returns its id. The offline-linear
    /// precomputation ([`ServerPrecomp`]) is built here, once, and kept
    /// with the model.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` selects HE mode without parameters.
    pub fn register_model(&self, model: PiModel, cfg: ProtocolConfig) -> usize {
        let pre = ServerPrecomp::new(&model, &cfg);
        let entry = ModelEntry { model, cfg, pre };
        let mut models = self.inner.models.lock();
        models.push(Arc::new(entry));
        models.len() - 1
    }

    /// Opens a session for `client_id` against `model_id`, seeding the
    /// server's session RNG with `server_seed`. The session looks the
    /// client up in the session table in its first poll: if the table still
    /// holds the rotation keys the client uploaded for this model's key
    /// plan, it skips the key upload; if it still holds the pair's IKNP
    /// state, it reserves its range there and skips base OT.
    ///
    /// # Panics
    ///
    /// Panics if `model_id` was not registered.
    pub fn connect(&self, client_id: u64, model_id: usize, server_seed: u64) -> ClientConn {
        let inner = &self.inner;
        let entry = inner.models.lock()[model_id].clone();
        let sid = inner.next_sid.fetch_add(1, Ordering::Relaxed);
        // The uplink holds the runtime weakly: a strong reference would keep
        // the slot's downlink sender alive after the runtime is dropped, and
        // the client's `recv` would wait forever.
        let runtime = Arc::downgrade(inner);
        let (chan, tx) = service_pair(Box::new(move |event| {
            let inner = runtime.upgrade().ok_or(ChannelError::Disconnected)?;
            // An event for a finished (removed) session is dropped: the
            // slot is gone, there is nobody to misbehave against.
            let slot = inner.slots.lock().get(&sid).cloned();
            if let Some(slot) = slot {
                slot.inbox.lock().push_back(event);
                schedule(&inner, &slot);
            }
            Ok(())
        }));
        let rng = StdRng::seed_from_u64(server_seed);
        let cache = ClientCache(inner.cache.clone(), client_id);
        let inbox = Inbox::default();
        let session = serve(entry, rng, tx, inbox.clone(), cache);
        let (result_tx, result_rx) = channel();
        let slot = Arc::new(Slot {
            sid,
            scheduled: AtomicBool::new(false),
            inbox,
            body: parking_lot::Mutex::new(SlotBody {
                session: Some(Box::pin(session)),
                result_tx,
                trace: pi_trace::TraceReport::default(),
            }),
        });
        inner.slots.lock().insert(sid, slot.clone());
        schedule(inner, &slot);
        ClientConn {
            chan,
            handle: SessionHandle { rx: result_rx },
        }
    }

    /// Threads that run the sessions: the width of `pi_trace::par`'s pool,
    /// the host's available parallelism.
    pub fn workers(&self) -> usize {
        pi_trace::par::workers()
    }

    /// Counters of the client key sets in the session table.
    pub fn key_table_stats(&self) -> TableStats {
        self.inner.cache.stats(CacheKey::KEYS)
    }

    /// Bytes of client key material currently resident in the session
    /// table.
    pub fn key_table_bytes(&self) -> u64 {
        self.inner.cache.used_bytes(CacheKey::KEYS)
    }

    /// Counters of the client-pair OT states in the session table.
    pub fn ot_table_stats(&self) -> TableStats {
        self.inner.cache.stats(CacheKey::OT)
    }

    /// Bytes of client-pair OT state currently resident in the session
    /// table.
    pub fn ot_table_bytes(&self) -> u64 {
        self.inner.cache.used_bytes(CacheKey::OT)
    }

    /// Snapshot of the runtime-wide trace: the merge of every finished
    /// session's server trace.
    pub fn aggregate_trace(&self) -> pi_trace::TraceReport {
        self.inner.agg_trace.lock().clone()
    }
}

/// One session as the runtime runs it: the session body on the slot's
/// inbox, with its client's handle on the session table — never the
/// runtime, which its slot would then keep, and the downlink with it.
async fn serve(
    entry: Arc<ModelEntry>,
    rng: StdRng,
    tx: ChannelTx,
    inbox: Inbox,
    cache: ClientCache,
) -> Result<PartyOutcome, ProtocolError> {
    let recv = || {
        let event = inbox.lock().pop_front()?;
        Some(match event {
            ClientEvent::Msg(m) => Ok(m),
            ClientEvent::Gone => Err(ProtocolError::Channel(ChannelError::Disconnected)),
        })
    };
    let ctx = SessionCtx {
        model: &entry.model,
        cfg: &entry.cfg,
        pre: &entry.pre,
        cache: &cache,
    };
    let peer = Peer {
        sink: &tx,
        recv: &recv,
    };
    session::run(ctx, rng, peer).await
}

/// Schedules a pump for `slot` unless one is already scheduled or running.
/// The pump clears the flag only after seeing an empty inbox, so no event
/// is ever stranded.
fn schedule(inner: &Arc<Inner>, slot: &Arc<Slot>) {
    if !slot.scheduled.swap(true, Ordering::SeqCst) {
        let (inner, slot) = (inner.clone(), slot.clone());
        pi_trace::par::spawn(move || pump(&inner, &slot));
    }
}

/// Polls one session until it suspends on an empty inbox or resolves.
/// Holds the body lock for the whole pump — no uplink ever takes it, so
/// intake stays live while this session grinds garbling or evaluation.
fn pump(inner: &Arc<Inner>, slot: &Arc<Slot>) {
    let mut body = slot.body.lock();
    let trace_scope = pi_trace::begin_local();
    let root_span = pi_trace::span!("server");
    let mut cx = Context::from_waker(Waker::noop());
    let mut done = None;
    while let Some(session) = body.session.as_mut() {
        if let Poll::Ready(res) = session.as_mut().poll(&mut cx) {
            body.session = None;
            done = Some(res);
            break;
        }
        slot.scheduled.store(false, Ordering::SeqCst);
        // Lost-wakeup check: an event may have slipped in between the
        // session's empty receive and the flag clear. Reclaim the flag and
        // poll again — unless someone else already scheduled a fresh pump.
        if slot.inbox.lock().is_empty() || slot.scheduled.swap(true, Ordering::SeqCst) {
            break;
        }
    }
    drop(root_span);
    body.trace.merge(&trace_scope.finish());
    if let Some(mut res) = done {
        inner.slots.lock().remove(&slot.sid);
        inner.agg_trace.lock().merge(&body.trace);
        if let Ok(out) = &mut res {
            out.trace = std::mem::take(&mut body.trace);
        }
        let _ = body.result_tx.send(res);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{ClientOtState, ProtocolKind};
    use crate::msg::Msg;
    use pi_nn::{zoo, FixedConfig, Network, QuantNetwork};
    use pi_ot::ext::{OtExtSender, SenderSetup, KAPPA};
    use std::sync::Barrier;

    fn tiny_model() -> PiModel {
        let fx = FixedConfig {
            p: pi_he::BfvParams::small_test().t(),
            f: 5,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let net = Network::materialize(&zoo::tiny_cnn(), &mut rng);
        PiModel::lower(&QuantNetwork::quantize(&net, fx))
    }

    /// Concurrent `connect`s of one client reserve pairwise disjoint ranges
    /// of the pair's IKNP streams, back to back, and each session announces
    /// the one it got.
    #[test]
    fn concurrent_connects_reserve_disjoint_stream_ranges() {
        let model = tiny_model();
        let kind = ProtocolKind::ServerGarbler;
        let blocks = crate::ModelMeta::of(&model).ot_blocks(kind);
        assert!(blocks > 1);

        let rt = ServeRuntime::new(ServeConfig::default());
        let model_id = rt.register_model(model, ProtocolConfig::clear(kind));
        // The pair has been here before: its state sits in the table with
        // the first session's range used.
        let seeds = vec![0; KAPPA];
        let ext = Arc::new(OtExtSender::new(SenderSetup { s: 0, seeds }));
        let kept = Arc::new(ClientOtState::sender(ext, blocks));
        ClientCache(rt.inner.cache.clone(), 9).insert_ot(kind, kept.clone());

        let (threads, per_thread) = (4, 8);
        let barrier = Barrier::new(threads);
        let mut bases: Vec<u64> = std::thread::scope(|scope| {
            let connects = |_| {
                scope.spawn(|| {
                    barrier.wait();
                    let base = |_| match rt.connect(9, model_id, 0).chan.recv() {
                        Ok(Msg::KeyStatus { flags, ot_base }) if flags == Msg::OT_CACHED => ot_base,
                        other => panic!("expected a cached KeyStatus, got {other:?}"),
                    };
                    (0..per_thread).map(base).collect::<Vec<u64>>()
                })
            };
            let handles: Vec<_> = (0..threads).map(connects).collect();
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("connect thread"));
            joined.flatten().collect()
        });
        bases.sort_unstable();
        let sessions = (threads * per_thread) as u64;
        let expect: Vec<u64> = (1..=sessions).map(|i| i * blocks).collect();
        assert_eq!(bases, expect);
        assert_eq!(kept.reserve(0), (sessions + 1) * blocks);
    }

    /// A client mid-session when the runtime is dropped is hung up on, in
    /// both directions, and its handle resolves: nothing the client holds
    /// keeps the runtime's half of the session alive.
    #[test]
    fn dropping_the_runtime_hangs_up_on_a_live_session() {
        let rt = ServeRuntime::new(ServeConfig::default());
        let cfg = ProtocolConfig::clear(ProtocolKind::ServerGarbler);
        let model_id = rt.register_model(tiny_model(), cfg);
        let ClientConn { chan, handle } = rt.connect(0, model_id, 0);
        assert!(matches!(chan.recv(), Ok(Msg::KeyStatus { .. })));
        drop(rt);
        assert!(matches!(chan.recv(), Err(ChannelError::Disconnected)));
        assert_eq!(
            chan.send(Msg::VecU64(Vec::new())),
            Err(ChannelError::Disconnected)
        );
        assert!(matches!(
            handle.wait(),
            Err(ProtocolError::Channel(ChannelError::Disconnected))
        ));
    }
}
