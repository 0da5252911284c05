//! The server side of both protocols as a resumable state machine.
//!
//! A single-inference deployment can afford a blocking loop per session; a
//! shared server cannot — a worker thread must be able to advance whichever
//! session has work and park the rest. [`ServerSession`] therefore holds
//! the entire server role of **both** protocol kinds — garbler under
//! Server-Garbler, evaluator under Client-Garbler, with the role steps the
//! client body runs in the mirrored role (`role.rs`) — as explicit state:
//!
//! * [`ServerSession::new`] arms the first expectation;
//! * [`ServerSession::on_msg`] consumes exactly one client message,
//!   advances as far as the protocol allows without further input, and
//!   reports what it needs next ([`Step`]).
//!
//! A session does all of its own work, the offline HE matvecs included:
//! the message that completes the client's ciphertext upload runs every
//! phase's product with `ProtocolConfig::lphe_threads`-way layer
//! parallelism (LPHE, §5.2) and answers in phase order, whichever driver
//! delivered it — [`drive_sync`] or the serving runtime's worker pool.
//!
//! **State-machine contract.** Every state owns what consuming its one
//! expected message needs — the half-received phase, the OT in flight, the
//! role material — so nothing is optional and unwrapped. A message that
//! does not fit the state is a typed [`ProtocolError::UnexpectedMsg`], one
//! whose shape or range is wrong a [`ProtocolError::BadRequest`], never a
//! panic: one misbehaving client aborts one session. The machine is purely
//! reactive, which suffices because the server's first protocol action in
//! both kinds is a receive. Randomness is drawn from the session-owned
//! [`StdRng`] in message order (shares, then base-OT material, then
//! per-phase garbling/OT), so a session driven synchronously and one driven
//! concurrently produce bit-identical transcripts from the same seed.
//!
//! **Base OT runs once per client pair.** A session created with the
//! pair's cached [`ClientOtState`] reserves its range of the IKNP streams
//! there and goes from the linear responses straight to garbling; one
//! created without runs the three base-OT messages, starts at block 0 and
//! hands the state up ([`Step::GotOt`]) the moment it exists. From there on
//! the two are the same code: a fresh pair is the cached path at base 0.

use crate::channel::{Channel, ChannelTx};
use crate::common::{
    random_field_vecs, reduced, unexpected, ClientHeKeys, ClientOtState, ModelMeta, PartyOutcome,
    ProtocolConfig, ProtocolKind, ServerPrecomp,
};
use crate::error::ProtocolError;
use crate::msg::Msg;
use crate::role::{
    decode_outputs, encode, BaseReceiver, BaseSender, Garbler, LabelRequest, OtStream, PhaseTables,
};
use pi_gc::Label;
use pi_he::linalg;
use pi_he::{BatchEncoder, BfvParams, Ciphertext};
use pi_nn::PiModel;
use pi_ot::ext::OtExtReceiver;
use rand::rngs::StdRng;
use std::sync::Arc;

/// Everything a session step borrows from its surroundings. Passing these
/// per call (instead of owning them) keeps the session `'static` and lets
/// the runtime share one [`ServerPrecomp`] across every session of a model.
pub struct SessionCtx<'a> {
    /// The served model (weights included).
    pub model: &'a PiModel,
    /// Shared per-model offline-linear precomputation.
    pub pre: &'a ServerPrecomp,
    /// Downlink to this session's client.
    pub sink: &'a ChannelTx,
    /// A key set nobody uses any more, for an admitted upload of the given
    /// resident size to be decoded into ([`ClientHeKeys::admit`]): what the
    /// runtime's key table evicts to make that room, nothing for a lone
    /// session.
    pub retired_keys: &'a dyn Fn(usize) -> Option<ClientHeKeys>,
}

/// What a session needs after a step.
pub enum Step {
    /// Waiting for further client messages.
    Idle,
    /// As [`Step::Idle`], and the client just uploaded these HE keys — the
    /// runtime caches them in its session table.
    GotKeys(Arc<ClientHeKeys>),
    /// As [`Step::Idle`], and base OT just finished — the runtime caches
    /// the server's half of the pair's IKNP state in its session table.
    GotOt(Arc<ClientOtState>),
    /// The protocol completed, with this cost summary (the driver fills in
    /// the trace field).
    Done(PartyOutcome),
}

/// The server's HE context, resolved once from the configuration and the
/// model.
struct HeCtx {
    params: BfvParams,
    encoder: BatchEncoder,
    /// The model's key plan: what an upload must equal to be admitted.
    plan: Vec<usize>,
    /// Threads the offline matvecs split across (`lphe_threads`).
    threads: usize,
}

/// One stored Client-Garbler ReLU phase: the checked tables, the output
/// decode bits, and the client's own-input labels (`2k` per instance:
/// its share on wires `0..k`, then the next randomness on `2k..3k`) — the
/// latter two empty until their message arrived.
struct EvalPhase {
    tables: PhaseTables,
    decode: Vec<Vec<bool>>,
    labels: Vec<Label>,
}

/// The evaluator's material (Client-Garbler): the extension receiver its
/// online label OTs ask through, and every phase received so far.
struct Evaluator {
    ot: OtStream<OtExtReceiver>,
    phases: Vec<EvalPhase>,
}

impl Evaluator {
    /// An evaluator with no phase received yet, asking its label OTs from
    /// `ot`'s position on.
    fn new(ot: OtStream<OtExtReceiver>) -> Self {
        let phases = Vec::new();
        Self { ot, phases }
    }
}

/// What the server holds between the offline and the online phase.
enum Role {
    Garbler(Garbler),
    Evaluator(Evaluator),
}

/// The message each state waits for, with everything received or prepared
/// so far that consuming it needs. Masked activations `acts` are indexed
/// like the model's: `acts[0]` the input, `acts[i + 1]` the output of
/// phase `i` — and since every phase but the last ends in a garbled ReLU,
/// `acts.len() - 1` is both the next linear phase and the next garbled one.
enum State {
    AwaitKeys(HeCtx),
    AwaitCts {
        he: HeCtx,
        keys: Arc<ClientHeKeys>,
        cts: Vec<Ciphertext>,
    },
    AwaitRCats(Vec<Vec<u64>>),
    SgAwaitBaseSetup,
    SgAwaitBaseTransfer(BaseReceiver),
    SgAwaitOtExtend(Garbler),
    CgAwaitBaseChoice(BaseSender),
    CgAwaitTables(Evaluator),
    CgAwaitDecode(Evaluator, EvalPhase),
    CgAwaitLabels(Evaluator, EvalPhase),
    AwaitMaskedInput(Role),
    SgAwaitOutLabels {
        garbler: Garbler,
        acts: Vec<Vec<u64>>,
    },
    CgAwaitOtTransfer {
        eval: Evaluator,
        acts: Vec<Vec<u64>>,
        request: LabelRequest,
    },
    Done,
}

impl State {
    /// What this state waits for, as [`ProtocolError::UnexpectedMsg`]
    /// reports it.
    fn expects(&self) -> &'static str {
        match self {
            State::AwaitKeys(_) => "HeKeys",
            State::AwaitCts { .. } => "HeCts",
            State::AwaitRCats(_) | State::AwaitMaskedInput(_) => "VecU64",
            State::SgAwaitBaseSetup => "OtBaseSetup",
            State::SgAwaitBaseTransfer(_) => "OtBaseTransfer",
            State::SgAwaitOtExtend(_) => "OtExtend",
            State::CgAwaitBaseChoice(_) => "OtBaseChoice",
            State::CgAwaitTables(_) => "GcTables",
            State::CgAwaitDecode(..) => "GcDecode",
            State::CgAwaitLabels(..) | State::SgAwaitOutLabels { .. } => "GcLabels",
            State::CgAwaitOtTransfer { .. } => "OtTransfer",
            State::Done => "no message (session complete)",
        }
    }
}

/// The server role of one inference session, resumable at every message
/// boundary. See the module docs for the contract.
pub struct ServerSession {
    kind: ProtocolKind,
    meta: ModelMeta,
    rng: StdRng,
    state: State,
    /// The pair's cached IKNP state and the base of the range reserved in
    /// it for this session, until the OT stage takes them.
    cached_ot: Option<(Arc<ClientOtState>, u64)>,
    s_vecs: Vec<Vec<u64>>,
    outcome: PartyOutcome,
}

impl ServerSession {
    /// Creates a session for one inference of `model` under `cfg`, armed
    /// for its first message. `cached_keys` is the client's rotation keys
    /// **as admitted for this model's key plan**, if the server's session
    /// table still holds them (the session then skips the upload);
    /// `cached_ot` likewise the pair's IKNP state (the session
    /// reserves its stream range there, now, and skips base OT) — state of
    /// the other protocol kind is not this session's and is ignored.
    pub fn new(
        model: &PiModel,
        cfg: &ProtocolConfig,
        rng: StdRng,
        cached_keys: Option<Arc<ClientHeKeys>>,
        cached_ot: Option<Arc<ClientOtState>>,
    ) -> Self {
        let meta = ModelMeta::of(model);
        let he = cfg.he().map(|params| HeCtx {
            params: params.clone(),
            encoder: BatchEncoder::new(params),
            plan: meta.key_plan(params),
            threads: cfg.lphe_threads,
        });
        let cts = Vec::new();
        let state = match (he, cached_keys) {
            (Some(he), Some(keys)) => State::AwaitCts { he, keys, cts },
            (Some(he), None) => State::AwaitKeys(he),
            (None, _) => State::AwaitRCats(Vec::new()),
        };
        let cached_ot = cached_ot.filter(|ot| ot.kind() == cfg.kind).map(|ot| {
            let base = ot.reserve(meta.ot_blocks(cfg.kind));
            (ot, base)
        });
        Self {
            kind: cfg.kind,
            meta,
            rng,
            state,
            cached_ot,
            s_vecs: Vec::new(),
            outcome: PartyOutcome::default(),
        }
    }

    /// A serving runtime's preamble: whether the session's first message
    /// must be the client's HE keys, and whether (and from which block) it
    /// runs on cached IKNP state instead of base OT.
    pub fn key_status(&self) -> Msg {
        let need_keys = matches!(self.state, State::AwaitKeys(_));
        let mut flags = if need_keys { Msg::NEED_KEYS } else { 0 };
        let mut ot_base = 0;
        if let Some((_, base)) = self.cached_ot {
            flags |= Msg::OT_CACHED;
            ot_base = base;
        }
        Msg::KeyStatus { flags, ot_base }
    }

    /// Consumes one client message and advances as far as possible. After
    /// an error the session is dead: every later message is unexpected.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedMsg`] when the message does not fit the
    /// current state; [`ProtocolError::BadRequest`] on malformed contents
    /// (a key upload that is not the model's key plan among them);
    /// [`ProtocolError::Wire`] on an HE frame that fails to parse;
    /// [`ProtocolError::Channel`] when the client vanished mid-reply.
    pub fn on_msg(&mut self, ctx: &SessionCtx<'_>, msg: Msg) -> Result<Step, ProtocolError> {
        let p = self.meta.p;
        let k = self.meta.relu_width;
        let state = std::mem::replace(&mut self.state, State::Done);
        match (state, msg) {
            (State::AwaitKeys(he), Msg::HeKeys(frame)) => {
                // Keys arrive as a serialized seed-expanded frame; one that
                // fails to parse, or holds anything but the model's key
                // plan, is the client's fault and aborts only this session.
                let keys = {
                    let _phase = pi_trace::span!("offline.he");
                    let _span = pi_trace::span!("he.keys_admit");
                    let admitted =
                        ClientHeKeys::admit(&frame, &he.params, &he.plan, ctx.retired_keys)?;
                    Arc::new(admitted)
                };
                self.state = State::AwaitCts {
                    he,
                    keys: keys.clone(),
                    cts: Vec::new(),
                };
                Ok(Step::GotKeys(keys))
            }
            (State::AwaitCts { he, keys, mut cts }, Msg::HeCts(frames)) => {
                let [frame] = &frames[..] else {
                    return Err(ProtocolError::BadRequest("ciphertext batch not one frame"));
                };
                let ct = pi_he::ciphertext_from_bytes(frame, &he.params)?;
                if ct.c0.ctx().q() != he.params.q() {
                    return Err(ProtocolError::BadRequest(
                        "offline upload not at the full ciphertext modulus",
                    ));
                }
                cts.push(ct);
                if cts.len() < self.meta.phases.len() {
                    self.state = State::AwaitCts { he, keys, cts };
                    return Ok(Step::Idle);
                }
                // All inputs are in: answer every phase at once,
                // `E(W·r − s)` in phase order.
                self.draw_shares();
                {
                    let _span = pi_trace::span!("offline.he");
                    let prods = matvecs(&cts, &keys, ctx.pre, he.threads)?;
                    for ((prod, ph), s_i) in prods.iter().zip(&self.meta.phases).zip(&self.s_vecs) {
                        let resp =
                            linalg::sub_share(&he.params, &he.encoder, prod, s_i, ph.padded_dim);
                        // Every server→client response is modulus-down-switched
                        // before serialization: fewer packed bits per
                        // coefficient AND more absolute noise headroom at the
                        // GC handoff.
                        let resp = resp.mod_switch_down(&he.params);
                        ctx.sink
                            .send(Msg::HeCts(vec![pi_he::ciphertext_to_bytes(&resp)]))?;
                    }
                }
                self.start_ot_stage(ctx)
            }
            (State::AwaitRCats(mut r_cats), Msg::VecU64(v)) => {
                if v.len() != self.meta.phases[r_cats.len()].cols || !reduced(&v, p) {
                    return Err(ProtocolError::BadRequest("offline input vector"));
                }
                r_cats.push(v);
                if r_cats.len() < self.meta.phases.len() {
                    self.state = State::AwaitRCats(r_cats);
                    return Ok(Step::Idle);
                }
                // All inputs are in: answer every phase at once.
                self.draw_shares();
                {
                    let _span = pi_trace::span!("offline.he");
                    for ((r_cat, ph), s_i) in r_cats.iter().zip(&ctx.model.phases).zip(&self.s_vecs)
                    {
                        let wr = ph.apply_linear(r_cat, p);
                        let share = wr.iter().zip(s_i).map(|(&a, &s)| p.sub(a, s)).collect();
                        ctx.sink.send(Msg::VecU64(share))?;
                    }
                }
                self.start_ot_stage(ctx)
            }
            (State::SgAwaitBaseSetup, Msg::OtBaseSetup(setup)) => {
                let _span = pi_trace::span!("offline.ot");
                let (receiver, choice) = BaseReceiver::start(&setup, &mut self.rng)?;
                ctx.sink.send(Msg::OtBaseChoice(choice))?;
                self.state = State::SgAwaitBaseTransfer(receiver);
                Ok(Step::Idle)
            }
            (State::SgAwaitBaseTransfer(receiver), Msg::OtBaseTransfer(t)) => {
                let ext = {
                    let _span = pi_trace::span!("offline.ot");
                    receiver.finish(&t)?
                };
                let used = self.meta.ot_blocks(self.kind);
                let kept = ClientOtState::sender(ext.clone(), used);
                self.sg_garble_next(ctx, Garbler::new(OtStream::at(ext, 0)))?;
                Ok(Step::GotOt(Arc::new(kept)))
            }
            (State::SgAwaitOtExtend(mut garbler), Msg::OtExtend(e)) => {
                {
                    let _span = pi_trace::span!("offline.ot");
                    // The client's inputs of the phase just shipped occupy
                    // wire positions [k, 3k).
                    let idx = garbler.phases.len() - 1;
                    let transfer = garbler.serve_labels(idx, k..3 * k, &e, &mut self.outcome)?;
                    ctx.sink.send(Msg::OtTransfer(transfer))?;
                }
                self.sg_garble_next(ctx, garbler)
            }
            (State::CgAwaitBaseChoice(sender), Msg::OtBaseChoice(c)) => {
                let ext = {
                    let _span = pi_trace::span!("offline.ot");
                    let (ext, transfer) = sender.finish(&c, &mut self.rng)?;
                    ctx.sink.send(Msg::OtBaseTransfer(transfer))?;
                    ext
                };
                let used = self.meta.ot_blocks(self.kind);
                let kept = ClientOtState::receiver(ext.clone(), used);
                self.cg_await_next(ctx, Evaluator::new(OtStream::at(ext, 0)))?;
                Ok(Step::GotOt(Arc::new(kept)))
            }
            (State::CgAwaitTables(eval), Msg::GcTables(t)) => {
                let relu = &self.meta.relu_phases[eval.phases.len()];
                let tables = PhaseTables::receive(&self.meta, relu, t, &mut self.outcome)?;
                let (decode, labels) = (Vec::new(), Vec::new());
                let phase = EvalPhase {
                    tables,
                    decode,
                    labels,
                };
                self.state = State::CgAwaitDecode(eval, phase);
                Ok(Step::Idle)
            }
            (State::CgAwaitDecode(eval, mut phase), Msg::GcDecode(decode)) => {
                if decode.len() != phase.tables.len() || decode.iter().any(|d| d.len() != k) {
                    return Err(ProtocolError::BadRequest("decode vector shape"));
                }
                phase.decode = decode;
                self.state = State::CgAwaitLabels(eval, phase);
                Ok(Step::Idle)
            }
            (State::CgAwaitLabels(mut eval, mut phase), Msg::GcLabels(labels)) => {
                if labels.len() != phase.tables.len() * 2 * k {
                    return Err(ProtocolError::BadRequest("client label count"));
                }
                phase.labels = labels;
                eval.phases.push(phase);
                self.cg_await_next(ctx, eval)
            }
            (State::AwaitMaskedInput(role), Msg::VecU64(v)) => {
                if v.len() != self.meta.input_len || !reduced(&v, p) {
                    return Err(ProtocolError::BadRequest("masked input"));
                }
                self.advance_online(ctx, role, vec![v])
            }
            (State::SgAwaitOutLabels { garbler, mut acts }, Msg::GcLabels(l)) => {
                let next = {
                    let _span = pi_trace::span!("online.eval");
                    let decode = garbler.phases[acts.len() - 1]
                        .iter()
                        .map(|g| &g.garbled.output_decode[..]);
                    decode_outputs(decode, &l, &self.meta)?
                };
                acts.push(next);
                self.advance_online(ctx, Role::Garbler(garbler), acts)
            }
            (
                State::CgAwaitOtTransfer {
                    eval,
                    mut acts,
                    request,
                },
                Msg::OtTransfer(t),
            ) => {
                let mine = {
                    let _span = pi_trace::span!("online.ot");
                    request.open(eval.ot.ext(), &t)?
                };
                let next = {
                    let _span = pi_trace::span!("online.eval");
                    let phase = &eval.phases[acts.len() - 1];
                    // share_a (client) | share_b (server, via OT) | r (client)
                    let out_labels = (phase.tables).evaluate(&phase.labels, &mine, false);
                    let decode = phase.decode.iter().map(Vec::as_slice);
                    decode_outputs(decode, &out_labels, &self.meta)?
                };
                acts.push(next);
                self.advance_online(ctx, Role::Evaluator(eval), acts)
            }
            (state, other) => Err(unexpected(state.expects(), &other)),
        }
    }

    /// Samples the server shares `s_i` — the first randomness the server
    /// draws, once all offline inputs are in.
    fn draw_shares(&mut self) {
        let rows = self.meta.phases.iter().map(|ph| ph.rows);
        self.s_vecs = random_field_vecs(rows, self.meta.p, &mut self.rng);
    }

    /// Linear responses are out; take up the role on the pair's cached
    /// IKNP state at the reserved base, or arm the role's base OT. The
    /// evaluator's draws there (seed pairs, sender secret) and the
    /// garbler's on the client's setup follow the linear-share draws.
    fn start_ot_stage(&mut self, ctx: &SessionCtx<'_>) -> Result<Step, ProtocolError> {
        let cached = self.cached_ot.take();
        match self.kind {
            ProtocolKind::ServerGarbler => match cached.and_then(|(ot, base)| ot.sender_at(base)) {
                Some(ot) => return self.sg_garble_next(ctx, Garbler::new(ot)),
                None => self.state = State::SgAwaitBaseSetup,
            },
            ProtocolKind::ClientGarbler => {
                match cached.and_then(|(ot, base)| ot.receiver_at(base)) {
                    Some(ot) => return self.cg_await_next(ctx, Evaluator::new(ot)),
                    None => {
                        let _span = pi_trace::span!("offline.ot");
                        let (sender, setup) = BaseSender::start(&mut self.rng);
                        ctx.sink.send(Msg::OtBaseSetup(setup))?;
                        self.state = State::CgAwaitBaseChoice(sender);
                    }
                }
            }
        }
        Ok(Step::Idle)
    }

    /// Garbles the next ReLU phase and ships its tables (the client answers
    /// with its OT extension), or closes the offline phase after the last.
    fn sg_garble_next(
        &mut self,
        ctx: &SessionCtx<'_>,
        mut garbler: Garbler,
    ) -> Result<Step, ProtocolError> {
        match self.meta.relu_phases.get(garbler.phases.len()) {
            Some(relu) => {
                let tables = garbler.garble(&self.meta, relu, &mut self.rng, &mut self.outcome);
                ctx.sink.send(Msg::GcTables(tables))?;
                self.state = State::SgAwaitOtExtend(garbler);
            }
            None => self.finish_offline(ctx, Role::Garbler(garbler)),
        }
        Ok(Step::Idle)
    }

    /// Awaits the client's next garbled phase, or closes the offline phase
    /// after the last.
    fn cg_await_next(
        &mut self,
        ctx: &SessionCtx<'_>,
        eval: Evaluator,
    ) -> Result<Step, ProtocolError> {
        if eval.phases.len() < self.meta.relu_phases.len() {
            self.state = State::CgAwaitTables(eval);
        } else {
            self.finish_offline(ctx, Role::Evaluator(eval));
        }
        Ok(Step::Idle)
    }

    /// Snapshot storage and offline communication at the offline/online
    /// boundary, then await the masked input.
    fn finish_offline(&mut self, ctx: &SessionCtx<'_>, role: Role) {
        let k = self.meta.relu_width as u64;
        let shares = self.s_vecs.iter().map(|s| s.len() as u64 * 8).sum::<u64>();
        self.outcome.storage_bytes = shares
            + match &role {
                // Own input encodings (k labels + delta per element) and
                // output decode bits.
                Role::Garbler(g) => {
                    let instances = g.phases.iter().map(Vec::len).sum::<usize>();
                    instances as u64 * ((k + 1) * 16 + k.div_ceil(8))
                }
                // Garbled circuits + the client's labels + decode bits: the
                // paper's storage burden after the swap.
                Role::Evaluator(e) => {
                    let extras = |ph: &EvalPhase| {
                        let decode = ph.decode.iter().map(|d| d.len().div_ceil(8) as u64);
                        ph.labels.len() as u64 * 16 + decode.sum::<u64>()
                    };
                    self.outcome.gc_bytes + e.phases.iter().map(extras).sum::<u64>()
                }
            };
        self.outcome.offline_sent = ctx.sink.bytes_sent();
        self.state = State::AwaitMaskedInput(role);
    }

    /// Runs the online linear phase the masked activations `acts` have
    /// reached, then either opens its garbled ReLU's round trip or — after
    /// the final phase — completes.
    fn advance_online(
        &mut self,
        ctx: &SessionCtx<'_>,
        role: Role,
        acts: Vec<Vec<u64>>,
    ) -> Result<Step, ProtocolError> {
        let p = self.meta.p;
        let k = self.meta.relu_width;
        let i = acts.len() - 1;
        let ph = &ctx.model.phases[i];
        // Server share: W (x - r) + s (+ b inside apply).
        let ss_span = pi_trace::span!("online.ss");
        let x_cat: Vec<u64> = ph
            .inputs
            .iter()
            .flat_map(|&a| acts[a].iter().copied())
            .collect();
        let mut y_s = ph.apply(&x_cat, p);
        for (v, &s) in y_s.iter_mut().zip(&self.s_vecs[i]) {
            *v = p.add(*v, s);
        }
        drop(ss_span);
        if ph.relu_shift.is_none() {
            ctx.sink.send(Msg::VecU64(y_s))?;
            self.outcome.total_sent = ctx.sink.bytes_sent();
            self.state = State::Done;
            return Ok(Step::Done(std::mem::take(&mut self.outcome)));
        }
        self.state = match role {
            Role::Garbler(garbler) => {
                // Send labels for the server's share (wire positions 0..k);
                // the client evaluates.
                let mut labels = Vec::with_capacity(y_s.len() * k);
                {
                    let _span = pi_trace::span!("online.eval");
                    for (&v, g) in y_s.iter().zip(&garbler.phases[i]) {
                        labels.extend(encode(g, 0, v, k));
                    }
                }
                ctx.sink.send(Msg::GcLabels(labels))?;
                State::SgAwaitOutLabels { garbler, acts }
            }
            Role::Evaluator(mut eval) => {
                // Fetch labels for the share bits via online OT.
                let _span = pi_trace::span!("online.ot");
                let (request, extend) = LabelRequest::new(&mut eval.ot, y_s, k, &mut self.outcome);
                ctx.sink.send(Msg::OtExtend(extend))?;
                State::CgAwaitOtTransfer {
                    eval,
                    acts,
                    request,
                }
            }
        };
        Ok(Step::Idle)
    }
}

/// Drives a [`ServerSession`] to completion over a blocking [`Channel`] —
/// the classic one-thread-per-party deployment, running the *same* state
/// machine as the serving runtime so the two paths cannot drift.
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
    let mut session = ServerSession::new(model, cfg, rng, None, None);
    let ctx = SessionCtx {
        model,
        pre,
        sink: chan.tx(),
        retired_keys: &|_| None,
    };
    let mut out = loop {
        if let Step::Done(out) = session.on_msg(&ctx, chan.recv()?)? {
            break out;
        }
    };
    drop(root_span);
    out.trace = trace_scope.finish();
    Ok(out)
}

/// Computes `E(W_i · r_i)` for every phase `i` with `threads`-way layer
/// parallelism (LPHE, §5.2): [`pi_gc::par::map_ranges`] over contiguous
/// runs of phases, products in phase order. The first run's matvecs execute
/// on the calling thread; the others' `he.*` and `ntt.*` counts reach the
/// global trace but not the request's own report, whose scope is the
/// calling thread's.
///
/// # Errors
///
/// [`ProtocolError::BadRequest`] if `pre` was built for cleartext mode and
/// has no diagonals to multiply by.
fn matvecs(
    cts: &[Ciphertext],
    keys: &ClientHeKeys,
    pre: &ServerPrecomp,
    threads: usize,
) -> Result<Vec<Ciphertext>, ProtocolError> {
    let Some(diagonals) = pre.diagonals.as_deref() else {
        return Err(ProtocolError::BadRequest("no HE diagonals precomputed"));
    };
    // Replicated diagonals: d/c plaintext products, a hoisted BSGS inside
    // each replica and a log₂ c rotate-and-sum.
    let parts = pi_gc::par::map_ranges(cts.len(), threads, |phases| {
        let matvec = |i: usize| linalg::matvec_precomputed(keys.galois(), &diagonals[i], &cts[i]);
        phases.map(matvec).collect()
    });
    Ok(pi_gc::par::concat(parts))
}
