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
//! [`StdRng`] in message order, so a session driven synchronously and one
//! driven concurrently produce bit-identical transcripts from the same
//! seed. Under Client-Garbler that is the response masks (or cleartext
//! shares), then base-OT material, then per-phase OT; under Server-Garbler
//! base-OT material comes first — the client opens the session with its
//! setup — then the masks or shares, then per-phase garbling.
//!
//! **Base OT runs once per client pair.** A session created with the
//! pair's cached [`ClientOtState`] reserves its range of the IKNP streams
//! there and goes from the linear responses straight to garbling; one
//! created without runs the three base-OT messages, starts at block 0 and
//! hands the state up ([`Step::GotOt`]) the moment it exists. From there on
//! the two are the same code: a fresh pair is the cached path at base 0.
//! Client-Garbler's base OT follows the linear responses. Server-Garbler's
//! straddles the linear pass: the server answers the client's opening
//! setup with its choice at once, and the client sends its transfer after
//! its upload — computed while the server runs the HE pass, on the core
//! that pass leaves idle — which the server reads after its responses.

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
use pi_he::linalg::{self, BsgsDiagonals};
use pi_he::{Ciphertext, Plaintext};
use pi_nn::PiModel;
use pi_ot::ext::{OtExtReceiver, OtExtSender};
use rand::rngs::StdRng;
use std::sync::Arc;

/// Everything a session step borrows from its surroundings. Passing these
/// per call (instead of owning them) keeps the session `'static` and lets
/// the runtime share one [`ServerPrecomp`] across every session of a model.
pub struct SessionCtx<'a> {
    /// The served model (weights included).
    pub model: &'a PiModel,
    /// Shared per-model offline-linear precomputation: the encoded
    /// diagonals and, in HE mode, the encoder and key plan the HE arms
    /// read.
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

/// The offline linear pass, by the upload it awaits: the client's rotation
/// keys, its ciphertexts (under the admitted keys, those received so far
/// alongside), or its cleartext `r_cat`s. The HE arms read the model's HE
/// context from [`SessionCtx::pre`].
enum Linear {
    Keys,
    Cts {
        keys: Arc<ClientHeKeys>,
        cts: Vec<Ciphertext>,
    },
    RCats(Vec<Vec<u64>>),
}

/// How the OT stage begins once the linear responses are out.
enum OtStart {
    /// Server-Garbler on the pair's cached IKNP state, from this session's
    /// reserved block.
    SgCached(OtStream<OtExtSender>),
    /// Server-Garbler by the base OT the client opened the session with:
    /// the receiver awaits the client's transfer.
    SgTransfer(BaseReceiver),
    /// Client-Garbler on the pair's cached IKNP state, likewise.
    CgCached(OtStream<OtExtReceiver>),
    /// Client-Garbler by base OT, which the server opens.
    CgOpen,
}

/// The message each state waits for, with everything received or prepared
/// so far that consuming it needs. Masked activations `acts` are indexed
/// like the model's: `acts[0]` the input, `acts[i + 1]` the output of
/// phase `i` — and since every phase but the last ends in a garbled ReLU,
/// `acts.len() - 1` is both the next linear phase and the next garbled one.
enum State {
    SgAwaitBaseSetup(Linear),
    Linear(Linear, OtStart),
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
            State::SgAwaitBaseSetup(_) => "OtBaseSetup",
            State::Linear(Linear::Keys, _) => "HeKeys",
            State::Linear(Linear::Cts { .. }, _) => "HeCts",
            State::Linear(Linear::RCats(_), _) | State::AwaitMaskedInput(_) => "VecU64",
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
    /// Threads the offline matvecs split across (`lphe_threads`).
    lphe_threads: usize,
    rng: StdRng,
    state: State,
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
        let linear = match (cfg.he(), cached_keys) {
            (Some(_), Some(keys)) => Linear::Cts {
                keys,
                cts: Vec::new(),
            },
            (Some(_), None) => Linear::Keys,
            (None, _) => Linear::RCats(Vec::new()),
        };
        let cached = cached_ot.filter(|ot| ot.kind() == cfg.kind);
        let base = |ot: &ClientOtState| ot.reserve(meta.ot_blocks(cfg.kind));
        let state = match cfg.kind {
            // Without cached state, the client opens the session with its
            // base-OT setup.
            ProtocolKind::ServerGarbler => match cached.and_then(|ot| ot.sender_at(base(&ot))) {
                Some(ot) => State::Linear(linear, OtStart::SgCached(ot)),
                None => State::SgAwaitBaseSetup(linear),
            },
            ProtocolKind::ClientGarbler => match cached.and_then(|ot| ot.receiver_at(base(&ot))) {
                Some(ot) => State::Linear(linear, OtStart::CgCached(ot)),
                None => State::Linear(linear, OtStart::CgOpen),
            },
        };
        Self {
            kind: cfg.kind,
            meta,
            lphe_threads: cfg.lphe_threads,
            rng,
            state,
            s_vecs: Vec::new(),
            outcome: PartyOutcome::default(),
        }
    }

    /// A serving runtime's preamble: whether the session's first message
    /// must be the client's HE keys, and whether (and from which block) it
    /// runs on cached IKNP state instead of base OT.
    pub fn key_status(&self) -> Msg {
        let need_keys = matches!(
            self.state,
            State::SgAwaitBaseSetup(Linear::Keys) | State::Linear(Linear::Keys, _)
        );
        let (ot_cached, ot_base) = match &self.state {
            State::Linear(_, OtStart::SgCached(ot)) => (Msg::OT_CACHED, ot.block()),
            State::Linear(_, OtStart::CgCached(ot)) => (Msg::OT_CACHED, ot.block()),
            _ => (0, 0),
        };
        let flags = if need_keys { Msg::NEED_KEYS } else { 0 } | ot_cached;
        Msg::KeyStatus { flags, ot_base }
    }

    /// Consumes one client message and advances as far as possible. After
    /// an error the session is dead: every later message is unexpected.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedMsg`] when the message does not fit the
    /// current state; [`ProtocolError::BadRequest`] on malformed contents
    /// (a key upload that is not the model's key plan among them) and on
    /// an HE upload to a session whose precomputation has no HE context;
    /// [`ProtocolError::Wire`] on an HE frame that fails to parse;
    /// [`ProtocolError::Channel`] when the client vanished mid-reply.
    pub fn on_msg(&mut self, ctx: &SessionCtx<'_>, msg: Msg) -> Result<Step, ProtocolError> {
        let p = self.meta.p;
        let k = self.meta.relu_width;
        let state = std::mem::replace(&mut self.state, State::Done);
        match (state, msg) {
            (State::SgAwaitBaseSetup(linear), Msg::OtBaseSetup(setup)) => {
                let _span = pi_trace::span!("offline.ot");
                let (receiver, choice) = BaseReceiver::start(&setup, &mut self.rng)?;
                ctx.sink.send(Msg::OtBaseChoice(choice))?;
                self.state = State::Linear(linear, OtStart::SgTransfer(receiver));
                Ok(Step::Idle)
            }
            (State::Linear(Linear::Keys, ot), Msg::HeKeys(frame)) => {
                let (he, _) = ctx.pre.he()?;
                // Keys arrive as a serialized seed-expanded frame; one that
                // fails to parse, or holds anything but the model's key
                // plan, is the client's fault and aborts only this session.
                let keys = {
                    let _phase = pi_trace::span!("offline.he");
                    let _span = pi_trace::span!("he.keys_admit");
                    let params = he.encoder.params();
                    let admitted = ClientHeKeys::admit(&frame, params, &he.plan, ctx.retired_keys)?;
                    Arc::new(admitted)
                };
                let linear = Linear::Cts {
                    keys: keys.clone(),
                    cts: Vec::new(),
                };
                self.state = State::Linear(linear, ot);
                Ok(Step::GotKeys(keys))
            }
            (State::Linear(Linear::Cts { keys, mut cts }, ot), Msg::HeCts(frame)) => {
                let (he, diagonals) = ctx.pre.he()?;
                let params = he.encoder.params();
                let ct = pi_he::ciphertext_from_bytes(&frame, params)?;
                if ct.c0.ctx().q() != params.q() {
                    return Err(ProtocolError::BadRequest(
                        "offline upload not at the full ciphertext modulus",
                    ));
                }
                cts.push(ct);
                if cts.len() < self.meta.phases.len() {
                    self.state = State::Linear(Linear::Cts { keys, cts }, ot);
                    return Ok(Step::Idle);
                }
                // All inputs are in: answer every phase at once, in phase
                // order, each product's replica blocks under a fresh mask
                // that the client's fold turns into `W·r − s`.
                {
                    let _span = pi_trace::span!("offline.he");
                    let (masks, s_vecs): (Vec<Plaintext>, _) = (self.meta.phases.iter())
                        .map(|ph| {
                            linalg::replica_mask(&he.encoder, ph.padded_dim, ph.rows, &mut self.rng)
                        })
                        .unzip();
                    self.s_vecs = s_vecs;
                    let prods = matvecs(&cts, &keys, diagonals, self.lphe_threads);
                    for (prod, mask) in prods.iter().zip(&masks) {
                        // Every server→client response is modulus-down-switched
                        // before serialization: fewer packed bits per
                        // coefficient AND more absolute noise headroom at the
                        // GC handoff.
                        let resp = prod.add_plain(mask, params).mod_switch_down(params);
                        ctx.sink
                            .send(Msg::HeCts(pi_he::ciphertext_to_bytes(&resp)))?;
                    }
                }
                self.start_ot_stage(ctx, ot)
            }
            (State::Linear(Linear::RCats(mut r_cats), ot), Msg::VecU64(v)) => {
                if v.len() != self.meta.phases[r_cats.len()].cols || !reduced(&v, p) {
                    return Err(ProtocolError::BadRequest("offline input vector"));
                }
                r_cats.push(v);
                if r_cats.len() < self.meta.phases.len() {
                    self.state = State::Linear(Linear::RCats(r_cats), ot);
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
                self.start_ot_stage(ctx, ot)
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

    /// Samples the server shares `s_i` of a cleartext-mode session — the
    /// first randomness the server draws, once all offline inputs are in
    /// (an HE session draws its response masks there instead, and takes
    /// each `s_i` from its mask).
    fn draw_shares(&mut self) {
        let rows = self.meta.phases.iter().map(|ph| ph.rows);
        self.s_vecs = random_field_vecs(rows, self.meta.p, &mut self.rng);
    }

    /// Linear responses are out; take up the role on the pair's cached
    /// IKNP state at the reserved base, await the client's base-OT
    /// transfer (Server-Garbler), or open base OT (Client-Garbler: the
    /// evaluator's draws there, seed pairs and sender secret, follow the
    /// linear-share draws).
    fn start_ot_stage(&mut self, ctx: &SessionCtx<'_>, ot: OtStart) -> Result<Step, ProtocolError> {
        match ot {
            OtStart::SgCached(ot) => return self.sg_garble_next(ctx, Garbler::new(ot)),
            OtStart::SgTransfer(receiver) => self.state = State::SgAwaitBaseTransfer(receiver),
            OtStart::CgCached(ot) => return self.cg_await_next(ctx, Evaluator::new(ot)),
            OtStart::CgOpen => {
                let _span = pi_trace::span!("offline.ot");
                let (sender, setup) = BaseSender::start(&mut self.rng);
                ctx.sink.send(Msg::OtBaseSetup(setup))?;
                self.state = State::CgAwaitBaseChoice(sender);
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
