//! The server side of both protocols as one straight-line `async` body.
//!
//! A single-inference deployment can afford a blocking loop per session; a
//! shared server cannot — a worker thread must be able to advance whichever
//! session has work and park the rest. The session body, `run`, is therefore
//! the entire server role of **both** protocol kinds — garbler under
//! Server-Garbler, evaluator under Client-Garbler, with the role steps the
//! client body runs in the mirrored role (`role.rs`) — written top to
//! bottom like the client's ([`crate::ServiceClient::session`]), and every
//! receive is an `.await` on its [`Peer`], as the client's is. The body
//! opens every session with [`Msg::KeyStatus`] — what its session table
//! (`SessionCtx::cache`) holds of this client — so both drivers put one
//! transcript on the wire:
//!
//! * [`drive_sync`] receives by blocking on its channel, so the session
//!   never suspends and one poll runs it whole; it gets a fresh table;
//! * the serving runtime receives from the session's inbox, so the session
//!   suspends whenever that is empty, and the runtime polls it again once
//!   the client's next message arrives; its sessions share its one table.
//!
//! A session does all of its own work, the offline HE matvecs included:
//! the message that completes the client's ciphertext upload runs every
//! phase's product with `ProtocolConfig::lphe_threads`-way layer
//! parallelism (LPHE, §5.2) and answers in phase order, whichever driver
//! delivered it.
//!
//! **Contract.** A message of the wrong kind is a typed
//! [`ProtocolError::UnexpectedMsg`] naming the one the body awaited, one
//! whose shape or range is wrong a [`ProtocolError::BadRequest`], never a
//! panic: one misbehaving client aborts one session. No span is open
//! across a receive: [`pi_trace::SpanGuard`] is not `Send`, and the runtime
//! holds the body as a `Send` future. Randomness is drawn from the
//! session-owned [`StdRng`] in message order, so a session driven
//! synchronously and one driven concurrently produce bit-identical
//! transcripts from the same seed. Under Client-Garbler that is the
//! response masks (or cleartext shares), then base-OT material, then
//! per-phase OT; under Server-Garbler base-OT material comes first — the
//! client opens the session with its setup — then the masks or shares,
//! then per-phase garbling.
//!
//! **Base OT runs once per client pair.** A session that finds the pair's
//! IKNP state in its session table (`SessionCtx::cache`) reserves
//! its range of the streams there and goes from the linear responses
//! straight to garbling; one that does not runs the three base-OT messages,
//! starts at block 0 and caches the state the moment it exists. From
//! there on the two are the same code: a fresh pair is the cached path at
//! base 0. Client-Garbler's base OT follows the linear responses.
//! Server-Garbler's straddles the linear pass: the server answers the
//! client's opening setup with its choice at once, and the client sends its
//! transfer after its upload — computed while the server runs the HE pass,
//! on the core that pass leaves idle — which the server reads after its
//! responses.

use crate::channel::{block_on, recv, Channel, Peer};
use crate::common::{
    random_field_vecs, reduced, ClientHeKeys, ClientOtState, ModelMeta, PartyOutcome,
    ProtocolConfig, ProtocolKind, ServerPrecomp,
};
use crate::error::ProtocolError;
use crate::msg::Msg;
use crate::role::{
    decode_outputs, BaseReceiver, BaseSender, Garbler, LabelRequest, OtStream, PhaseTables,
};
use crate::serve::table::{ClientCache, SessionTable};
use pi_gc::Label;
use pi_he::linalg::{self, BsgsDiagonals};
use pi_he::{Ciphertext, Plaintext};
use pi_nn::PiModel;
use pi_ot::ext::{OtExtReceiver, OtExtSender};
use rand::rngs::StdRng;
use std::sync::Arc;

/// Everything a session borrows from its surroundings but its [`Peer`].
/// Borrowing these (instead of owning them) keeps the session `'static`
/// and lets the runtime share one [`ServerPrecomp`] across every session of
/// a model.
pub(crate) struct SessionCtx<'a> {
    /// The served model (weights included).
    pub model: &'a PiModel,
    /// The protocol the session runs.
    pub cfg: &'a ProtocolConfig,
    /// Shared per-model offline-linear precomputation: the encoded
    /// diagonals and, in HE mode, the encoder and key plan the HE pass
    /// reads.
    pub pre: &'a ServerPrecomp,
    /// The client's handle on its session table (the runtime's, or a lone
    /// session's own): what the session finds there it skips, and what it
    /// admits or builds goes in the moment it exists.
    pub cache: &'a ClientCache,
}

/// The IKNP stream the server's role takes up: the garbler's extension
/// sender (Server-Garbler) or the evaluator's receiver (Client-Garbler).
enum OtStart {
    Sender(OtStream<OtExtSender>),
    Receiver(OtStream<OtExtReceiver>),
}

/// One stored Client-Garbler ReLU phase: the checked tables, the output
/// decode bits, and the client's own-input labels (`2k` per instance: its
/// share on wires `0..k`, then the next randomness on `2k..3k`).
struct EvalPhase {
    tables: PhaseTables,
    decode: Vec<Vec<bool>>,
    labels: Vec<Label>,
}

/// What the server holds between the offline and the online phase.
enum Role {
    Garbler(Garbler),
    /// The extension receiver the online label OTs ask through, and every
    /// phase the client garbled.
    Evaluator(OtStream<OtExtReceiver>, Vec<EvalPhase>),
}

/// The server role of one inference session, run to completion on the
/// session RNG `rng` (see the module docs for the contract): every
/// `.await` is a receive. Masked activations `acts` are indexed like the
/// model's: `acts[0]` the input, `acts[i + 1]` the output of phase `i` —
/// and since every phase but the last ends in a garbled ReLU, phase `i` is
/// also ReLU phase `i`.
///
/// # Errors
///
/// [`ProtocolError::UnexpectedMsg`] when a message is not the one awaited;
/// [`ProtocolError::BadRequest`] on malformed contents (a key upload that
/// is not the model's key plan among them) and on an HE upload to a
/// session whose precomputation has no HE context; [`ProtocolError::Wire`]
/// on an HE frame that fails to parse; [`ProtocolError::Channel`] when the
/// client vanished.
pub(crate) async fn run(
    ctx: SessionCtx<'_>,
    mut rng: StdRng,
    peer: Peer<'_>,
) -> Result<PartyOutcome, ProtocolError> {
    let kind = ctx.cfg.kind;
    let meta = ModelMeta::of(ctx.model);
    let under_he = ctx.cfg.he().is_some();
    // Every session opens with what the server holds of this client:
    // whether its HE keys must be uploaded, and whether (and from which
    // block) the session runs on cached IKNP state instead of base OT.
    let cache = ctx.cache;
    let cached_keys = ctx.pre.key_plan().and_then(|plan| cache.keys(plan));
    let ot = cache.ot(kind).and_then(|ot| {
        let base = ot.reserve(meta.ot_blocks(kind));
        match kind {
            ProtocolKind::ServerGarbler => ot.sender_at(base).map(OtStart::Sender),
            ProtocolKind::ClientGarbler => ot.receiver_at(base).map(OtStart::Receiver),
        }
    });
    let need_keys = under_he && cached_keys.is_none();
    let (ot_cached, ot_base) = match &ot {
        Some(OtStart::Sender(ot)) => (Msg::OT_CACHED, ot.block()),
        Some(OtStart::Receiver(ot)) => (Msg::OT_CACHED, ot.block()),
        None => (0, 0),
    };
    let flags = if need_keys { Msg::NEED_KEYS } else { 0 } | ot_cached;
    peer.sink.send(Msg::KeyStatus { flags, ot_base })?;
    let (p, k) = (meta.p, meta.relu_width);
    let mut out = PartyOutcome::default();

    // Without cached OT state, a Server-Garbler client opens the
    // session with its base-OT setup, answered at once.
    let opened = match (kind, &ot) {
        (ProtocolKind::ServerGarbler, None) => {
            let setup = recv!(peer, OtBaseSetup);
            let _span = pi_trace::span!("offline.ot");
            let (receiver, choice) = BaseReceiver::start(&setup, &mut rng)?;
            peer.sink.send(Msg::OtBaseChoice(choice))?;
            Some(receiver)
        }
        _ => None,
    };

    // ---------------- Offline linear pass ----------------
    // The whole upload first, then every phase's answer at once, in
    // phase order; `s_vecs` are the server's shares.
    let s_vecs = if under_he {
        let keys = match cached_keys {
            Some(keys) => keys,
            // Keys arrive as a serialized seed-expanded frame; one
            // that fails to parse, or holds anything but the model's
            // key plan, is the client's fault and aborts only this
            // session.
            None => {
                let frame = recv!(peer, HeKeys);
                let (he, _) = ctx.pre.he()?;
                let keys = {
                    let _phase = pi_trace::span!("offline.he");
                    let _span = pi_trace::span!("he.keys_admit");
                    let params = he.encoder.params();
                    let room = |bytes| cache.room_for_keys(bytes);
                    Arc::new(ClientHeKeys::admit(&frame, params, &he.plan, room)?)
                };
                cache.insert_keys(&he.plan, keys.clone());
                keys
            }
        };
        let mut cts = Vec::with_capacity(meta.phases.len());
        for _ in &meta.phases {
            let frame = recv!(peer, HeCts);
            let params = ctx.pre.he()?.0.encoder.params();
            let ct = pi_he::ciphertext_from_bytes(&frame, params)?;
            if ct.c0.ctx().q() != params.q() {
                return Err(ProtocolError::BadRequest(
                    "offline upload not at the full ciphertext modulus",
                ));
            }
            cts.push(ct);
        }
        // Each product's replica blocks go out under a fresh mask
        // that the client's fold turns into `W·r − s`.
        let (he, diagonals) = ctx.pre.he()?;
        let params = he.encoder.params();
        let _span = pi_trace::span!("offline.he");
        let (masks, s_vecs): (Vec<Plaintext>, _) = (meta.phases.iter())
            .map(|ph| linalg::replica_mask(&he.encoder, ph.padded_dim, ph.rows, &mut rng))
            .unzip();
        let prods = matvecs(&cts, &keys, diagonals, ctx.cfg.lphe_threads);
        for (prod, mask) in prods.iter().zip(&masks) {
            // Every server→client response is modulus-down-switched
            // before serialization: fewer packed bits per
            // coefficient AND more absolute noise headroom at the
            // GC handoff.
            let resp = prod.add_plain(mask, params).mod_switch_down(params);
            peer.sink
                .send(Msg::HeCts(pi_he::ciphertext_to_bytes(&resp)))?;
        }
        s_vecs
    } else {
        let mut r_cats = Vec::with_capacity(meta.phases.len());
        for ph in &meta.phases {
            let r_cat = recv!(peer, VecU64);
            if r_cat.len() != ph.cols || !reduced(&r_cat, p) {
                return Err(ProtocolError::BadRequest("offline input vector"));
            }
            r_cats.push(r_cat);
        }
        // The shares are drawn where an HE session draws its masks
        // (and takes each `s_i` from its mask).
        let rows = meta.phases.iter().map(|ph| ph.rows);
        let s_vecs = random_field_vecs(rows, p, &mut rng);
        let _span = pi_trace::span!("offline.he");
        for ((r_cat, ph), s_i) in r_cats.iter().zip(&ctx.model.phases).zip(&s_vecs) {
            let wr = ph.apply_linear(r_cat, p);
            let share = wr.iter().zip(s_i).map(|(&a, &s)| p.sub(a, s)).collect();
            peer.sink.send(Msg::VecU64(share))?;
        }
        s_vecs
    };

    // ---------------- Offline GC stage ----------------
    // The role's IKNP stream: the pair's cached one, or a fresh one by
    // base OT that starts at block 0.
    let used = meta.ot_blocks(kind);
    let ot = match (ot, opened) {
        (Some(ot), _) => ot,
        // Server-Garbler: the client's transfer, computed while the
        // linear pass ran.
        (None, Some(receiver)) => {
            let transfer = recv!(peer, OtBaseTransfer);
            let ext = {
                let _span = pi_trace::span!("offline.ot");
                receiver.finish(&transfer)?
            };
            cache.insert_ot(kind, Arc::new(ClientOtState::sender(ext.clone(), used)));
            OtStart::Sender(OtStream::at(ext, 0))
        }
        // Client-Garbler: the server opens base OT (the evaluator's
        // draws there, seed pairs and sender secret, follow the
        // linear-share draws).
        (None, None) => {
            let sender = {
                let _span = pi_trace::span!("offline.ot");
                let (sender, setup) = BaseSender::start(&mut rng);
                peer.sink.send(Msg::OtBaseSetup(setup))?;
                sender
            };
            let choice = recv!(peer, OtBaseChoice);
            let ext = {
                let _span = pi_trace::span!("offline.ot");
                let (ext, transfer) = sender.finish(&choice, &mut rng)?;
                peer.sink.send(Msg::OtBaseTransfer(transfer))?;
                ext
            };
            cache.insert_ot(kind, Arc::new(ClientOtState::receiver(ext.clone(), used)));
            OtStart::Receiver(OtStream::at(ext, 0))
        }
    };
    let mut role = match ot {
        // Garble each ReLU phase and ship its tables; the client answers
        // with its OT extension for its inputs, wire positions [k, 3k).
        OtStart::Sender(ot) => {
            let mut garbler = Garbler::new(ot);
            for (idx, relu) in meta.relu_phases.iter().enumerate() {
                let tables = garbler.garble(&meta, relu, &mut rng, &mut out);
                peer.sink.send(Msg::GcTables(tables))?;
                let extend = recv!(peer, OtExtend);
                let _span = pi_trace::span!("offline.ot");
                let transfer = garbler.serve_labels(idx, k..3 * k, &extend, &mut out)?;
                peer.sink.send(Msg::OtTransfer(transfer))?;
            }
            Role::Garbler(garbler)
        }
        // Store each phase the client garbled.
        OtStart::Receiver(ot) => {
            let mut phases = Vec::with_capacity(meta.relu_phases.len());
            for relu in &meta.relu_phases {
                let tables = recv!(peer, GcTables);
                let tables = PhaseTables::receive(&meta, relu, tables, &mut out)?;
                let decode = recv!(peer, GcDecode);
                if decode.len() != tables.len() || decode.iter().any(|d| d.len() != k) {
                    return Err(ProtocolError::BadRequest("decode vector shape"));
                }
                let labels = recv!(peer, GcLabels);
                if labels.len() != tables.len() * 2 * k {
                    return Err(ProtocolError::BadRequest("client label count"));
                }
                let phase = EvalPhase {
                    tables,
                    decode,
                    labels,
                };
                phases.push(phase);
            }
            Role::Evaluator(ot, phases)
        }
    };

    // Storage and offline communication at the offline/online boundary.
    let k64 = k as u64;
    let shares = s_vecs.iter().map(|s| s.len() as u64 * 8).sum::<u64>();
    out.storage_bytes = shares
        + match &role {
            // Own input encodings (k labels + delta per element) and
            // output decode bits.
            Role::Garbler(g) => {
                let instances = g.phases.iter().map(Vec::len).sum::<usize>();
                instances as u64 * ((k64 + 1) * 16 + k64.div_ceil(8))
            }
            // Garbled circuits + the client's labels + decode bits: the
            // paper's storage burden after the swap.
            Role::Evaluator(_, phases) => {
                let extras = |ph: &EvalPhase| {
                    let decode = ph.decode.iter().map(|d| d.len().div_ceil(8) as u64);
                    ph.labels.len() as u64 * 16 + decode.sum::<u64>()
                };
                out.gc_bytes + phases.iter().map(extras).sum::<u64>()
            }
        };
    out.offline_sent = peer.sink.bytes_sent();

    // ---------------- Online ----------------
    let masked = recv!(peer, VecU64);
    if masked.len() != meta.input_len || !reduced(&masked, p) {
        return Err(ProtocolError::BadRequest("masked input"));
    }
    let mut acts = vec![masked];
    for (i, (ph, s_i)) in ctx.model.phases.iter().zip(&s_vecs).enumerate() {
        // Server share: W (x - r) + s (+ b inside apply).
        let y_s = {
            let _span = pi_trace::span!("online.ss");
            let x_cat: Vec<u64> = (ph.inputs.iter())
                .flat_map(|&a| acts[a].iter().copied())
                .collect();
            let mut y_s = ph.apply(&x_cat, p);
            for (v, &s) in y_s.iter_mut().zip(s_i) {
                *v = p.add(*v, s);
            }
            y_s
        };
        if ph.relu_shift.is_none() {
            peer.sink.send(Msg::VecU64(y_s))?;
            break;
        }
        let next = match &mut role {
            // Send labels for the server's share (wire positions 0..k);
            // the client evaluates and returns the output labels.
            Role::Garbler(garbler) => {
                let mut labels = Vec::with_capacity(y_s.len() * k);
                {
                    let _span = pi_trace::span!("online.eval");
                    for (&v, g) in y_s.iter().zip(&garbler.phases[i]) {
                        g.encoding.encode_into(0, v, k, &mut labels);
                    }
                }
                peer.sink.send(Msg::GcLabels(labels))?;
                let theirs = recv!(peer, GcLabels);
                let _span = pi_trace::span!("online.eval");
                let decode = garbler.phases[i]
                    .iter()
                    .map(|g| &g.garbled.output_decode[..]);
                decode_outputs(decode, &theirs, &meta)?
            }
            // Fetch labels for the share bits via online OT, then
            // evaluate.
            Role::Evaluator(ot, phases) => {
                let request = {
                    let _span = pi_trace::span!("online.ot");
                    let (request, extend) = LabelRequest::new(ot, y_s, k, &mut out);
                    peer.sink.send(Msg::OtExtend(extend))?;
                    request
                };
                let transfer = recv!(peer, OtTransfer);
                let mine = {
                    let _span = pi_trace::span!("online.ot");
                    request.open(ot.ext(), &transfer)?
                };
                let _span = pi_trace::span!("online.eval");
                let phase = &phases[i];
                // share_a (client) | share_b (server, via OT) | r (client)
                let out_labels = (phase.tables).evaluate(&phase.labels, &mine, false);
                let decode = phase.decode.iter().map(Vec::as_slice);
                decode_outputs(decode, &out_labels, &meta)?
            }
        };
        acts.push(next);
    }
    out.total_sent = peer.sink.bytes_sent();
    Ok(out)
}

/// Runs a server session to completion over a blocking [`Channel`] —
/// the classic one-thread-per-party deployment, running the *same* body as
/// the serving runtime so the two paths cannot drift. Its receive blocks
/// instead of suspending, so the first poll returns the outcome.
///
/// # Errors
///
/// Any [`ProtocolError`] the session raises (peer disconnect, protocol
/// violation, malformed request).
pub fn drive_sync(
    model: &PiModel,
    pre: &ServerPrecomp,
    cfg: &ProtocolConfig,
    chan: &Channel,
    rng: StdRng,
) -> Result<PartyOutcome, ProtocolError> {
    let trace_scope = pi_trace::begin_local();
    let root_span = pi_trace::span!("server");
    let recv = || Some(chan.recv().map_err(ProtocolError::from));
    let peer = Peer {
        sink: chan.tx(),
        recv: &recv,
    };
    // The lone session's own table, gone when it returns. It keeps nothing
    // for later, so its budget is zero: each insert evicts the one before,
    // and the key set goes as the OT state goes in, after the HE pass.
    let cache = ClientCache(Arc::new(SessionTable::new(0)), 0);
    let ctx = SessionCtx {
        model,
        cfg,
        pre,
        cache: &cache,
    };
    let mut out = block_on(run(ctx, rng, peer))?;
    drop(root_span);
    out.trace = trace_scope.finish();
    Ok(out)
}

/// Computes every phase `i`'s replicated product of `W_i` and `E(r_i)` —
/// replica `ρ`'s partial row products in slot block `ρ`, unmasked, so the
/// caller adds a [`linalg::replica_mask`] to each before it leaves — with
/// `threads`-way layer parallelism (LPHE, §5.2):
/// [`pi_trace::par::map_ranges`] over contiguous runs of phases, products
/// in phase order. The first run's matvecs execute on the calling thread;
/// the helper runs' `he.*` and `ntt.*` counts reach the request's report
/// through the split's scope merge.
fn matvecs(
    cts: &[Ciphertext],
    keys: &ClientHeKeys,
    diagonals: &[BsgsDiagonals],
    threads: usize,
) -> Vec<Ciphertext> {
    // Replicated diagonals: d/c plaintext products and a hoisted BSGS
    // inside each replica; the client folds the replicas.
    let parts = pi_trace::par::map_ranges(cts.len(), threads, |phases| {
        let matvec = |i: usize| linalg::matvec_precomputed(keys.galois(), &diagonals[i], &cts[i]);
        phases.map(matvec).collect()
    });
    pi_trace::par::concat(parts)
}
