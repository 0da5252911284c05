//! The client of both protocols as one straight-line `async` body.
//!
//! [`ServiceClient::session`] is the entire client role, written top to
//! bottom, and every receive is an `.await` on its [`Peer`] — the receive
//! seam the server's body awaits too. [`ServiceClient::run`] polls it over
//! a blocking [`Channel`], so it never suspends and one poll runs it
//! whole; over [`Channel::try_recv`] it suspends while its next message is
//! not there, so one thread can hold several requests. Both protocol
//! kinds share the prologue (randomness, offline linear pass), the
//! masked-input send and the share-combining epilogue; they differ only
//! where the client acts as **garbler** (Client-Garbler, §5.1: it garbles
//! offline and serves the server's label OT online) or as **evaluator**
//! (Server-Garbler, §2.2: it stores the circuits, fetches its labels by
//! offline OT and evaluates online) — with the role steps the server's
//! body ([`crate::serve::session`], the same message order) runs in the
//! mirrored role (`role.rs`). Everything the server sends is checked
//! before use: a deviating server is a [`ProtocolError`], never a panic.
//!
//! **Message order.** Every session opens with the server's
//! [`Msg::KeyStatus`], on a serving runtime and on a dedicated pair alike:
//! one transcript whatever the link. The offline linear upload (`HeKeys`
//! when the server needs them, then one `HeCts` or `VecU64` per phase) goes
//! out whole before the client reads a linear response. Client-Garbler
//! then runs the base OT the server opens, garbles and ships. A Server-Garbler session
//! without cached OT state opens with the client's `OtBaseSetup` instead,
//! and the client reads the server's `OtBaseChoice` and sends its
//! `OtBaseTransfer` between its upload and the responses: the transfer's
//! 128 variable-base multiplications run while the server computes the HE
//! pass. Either kind on the pair's cached OT state skips base OT and
//! otherwise keeps its order.

use crate::channel::{block_on, recv, Channel, ChannelTx, Peer};
use crate::common::{
    random_field_vecs, reduced, unexpected, ModelMeta, PartyOutcome, ProtocolConfig, ProtocolKind,
};
use crate::error::ProtocolError;
use crate::msg::Msg;
use crate::role::{BaseReceiver, BaseSender, Garbler, LabelRequest, OtStream, PhaseTables};
use pi_gc::Label;
use pi_he::{linalg, BatchEncoder, BfvParams, NoiseStage, SecretKey};
use pi_ot::ext::{OtExtReceiver, OtExtSender};
use rand::Rng;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// What the client holds between the offline and the online phase.
enum Role {
    /// Client-Garbler: encodings of every phase, to serve the server's
    /// online label OT from.
    Garbler(Garbler),
    /// Server-Garbler: per phase, the stored tables and the client's own
    /// input labels (`2k` per instance: share, then next randomness).
    Evaluator(Vec<(PhaseTables, Vec<Label>)>),
}

/// The OT extension state the client's role takes up.
enum ClientOt {
    /// Client-Garbler: the extension sender on the pair's retained state,
    /// or `None` — a fresh one by the base OT the server opens after its
    /// linear responses.
    Garbler(Option<OtStream<OtExtSender>>),
    /// Server-Garbler: the extension receiver.
    Evaluator(EvaluatorOt),
}

/// Where a Server-Garbler client's extension receiver comes from.
enum EvaluatorOt {
    /// The pair's retained state, in the range the server reserved.
    Cached(OtStream<OtExtReceiver>),
    /// The base OT this client opened the session with: its transfer
    /// answers the server's choice.
    Opened(BaseSender),
}

/// The client's key material for one key plan: the secret key, and the
/// rotation keys as the upload frame they were generated into. The client
/// rotates nothing, so it never holds a key operand, a Shoup quotient or a
/// slot permutation — and encrypts symmetrically, so no public key either.
struct ClientKeys {
    secret: SecretKey,
    frame: Arc<Vec<u8>>,
}

/// The client's HE context for one inference.
struct ClientHe<'a> {
    params: &'a BfvParams,
    keys: Arc<ClientKeys>,
    encoder: BatchEncoder,
}

/// The client party: runs inferences against a server over a [`Channel`]
/// — a [`crate::serve::ServeRuntime::connect`] session or one end of a
/// [`crate::channel::local_pair`] — retaining across them what is the
/// pair's, not the request's:
///
/// * its HE keys, one (secret key, rotation-key upload frame) pair per key
///   plan ([`ModelMeta::key_plan`]): the secret never leaves the client,
///   and the pair generated for one model is reused for that model — and
///   any other with the same plan — only. If the server evicted the
///   rotation keys, the retained frame is re-uploaded, not regenerated.
/// * its half of the post-base-OT IKNP state, per extension role, with a
///   **high-water mark**: the first PRG block no session of this client
///   has been given. When the server still caches the other half
///   ([`Msg::KeyStatus`]), the session skips base OT and runs in the range
///   the server reserved for it — which the client accepts only at or
///   above its mark, and which moves the mark past the range before
///   anything is sent, so no block is ever expanded twice even when a
///   session dies midway. Otherwise base OT runs, the session starts at
///   block 0, and the fresh state replaces the retained one. A dedicated
///   pair's server keeps nothing and never claims it, so there the
///   retained state only costs memory.
///
/// The IKNP state belongs to one client↔server pair, so one
/// `ServiceClient` stands for one client id at one server.
#[derive(Default)]
pub struct ServiceClient {
    retained: HashMap<Vec<usize>, Arc<ClientKeys>>,
    /// Client-Garbler: the client answers the server's label OTs.
    ot_sender: Option<OtStream<OtExtSender>>,
    /// Server-Garbler: the client asks for its labels.
    ot_receiver: Option<OtStream<OtExtReceiver>>,
}

/// Takes the session range `[base, base + blocks)` the server reserved out
/// of the retained stream, whose mark moves past it.
fn claim<E>(
    kept: &mut Option<OtStream<E>>,
    base: u64,
    blocks: u64,
) -> Result<OtStream<E>, ProtocolError> {
    let Some(kept) = kept else {
        return Err(ProtocolError::BadRequest(
            "server caches OT state this client does not hold",
        ));
    };
    kept.split_off(base, blocks)
        .ok_or(ProtocolError::BadRequest("OT stream range already used"))
}

impl ServiceClient {
    /// Creates a client with nothing retained (the first HE request
    /// generates and uploads fresh keys, the first request of either
    /// protocol kind runs base OT).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this client currently retains HE key material.
    pub fn has_keys(&self) -> bool {
        !self.retained.is_empty()
    }

    /// Runs one inference and returns its output and cost summary. The
    /// first downlink message is the server's [`Msg::KeyStatus`]: the key
    /// upload is skipped when the server still caches this client's keys
    /// for the model's key plan, and base OT when it still caches the
    /// pair's IKNP state. A dedicated pair's server caches nothing, so there
    /// the keys are always uploaded and base OT always runs.
    ///
    /// The client's messages, in order: under Server-Garbler with base OT,
    /// `OtBaseSetup`; the linear upload (`HeKeys` if needed, one `HeCts` or
    /// `VecU64` per phase); under Server-Garbler with base OT, the
    /// `OtBaseTransfer` answering the server's choice; after the linear
    /// responses, the offline GC stage (Client-Garbler: base OT if needed,
    /// then per phase `GcTables`, `GcDecode`, `GcLabels`; Server-Garbler:
    /// per phase `OtExtend` for the received `GcTables`); the masked input;
    /// the online exchanges per ReLU phase.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Channel`] if the server vanishes,
    /// [`ProtocolError::UnexpectedMsg`] if it deviates from the message
    /// sequence, and [`ProtocolError::BadRequest`] if it sends a malformed
    /// message, claims cached keys or OT state this client no longer holds
    /// (a client-identity mix-up), or names an OT stream range this client
    /// was already given.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have the model's input length, or the HE
    /// plaintext modulus differs from the model field.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        meta: &ModelMeta,
        input: &[u64],
        cfg: &ProtocolConfig,
        chan: &Channel,
        rng: &mut R,
    ) -> Result<(Vec<u64>, PartyOutcome), ProtocolError> {
        let recv = || Some(chan.recv().map_err(ProtocolError::from));
        let peer = Peer {
            sink: chan.tx(),
            recv: &recv,
        };
        block_on(self.session(meta, input, cfg, peer, rng))
    }

    /// The body of [`ServiceClient::run`] over any [`Peer`]: the same
    /// messages (the server's `KeyStatus` first, whatever the link),
    /// randomness, checks, errors and panics, but each receive is an
    /// `.await`. Over [`Channel::try_recv`] the body suspends while its
    /// next message is not there, so one thread can poll several clients'
    /// bodies (each on a `ServiceClient` of its own).
    ///
    /// The request's trace is per thread ([`pi_trace::begin_local`]), and
    /// its phase spans stay open across receives, so they time the waits
    /// too (the future is not `Send`). A thread that interleaves several
    /// bodies gets no per-request client trace: each body's `begin_local`
    /// clears what the others collected, and their spans nest.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::run`].
    pub async fn session<R: Rng + ?Sized>(
        &mut self,
        meta: &ModelMeta,
        input: &[u64],
        cfg: &ProtocolConfig,
        peer: Peer<'_>,
        rng: &mut R,
    ) -> Result<(Vec<u64>, PartyOutcome), ProtocolError> {
        // Every session opens with the server's word on what it still
        // caches of this client: without its HE keys they are uploaded,
        // without the pair's IKNP state base OT runs.
        let (upload, ot_base) = match peer.next().await? {
            Msg::KeyStatus { flags, ot_base } => {
                if flags & !(Msg::NEED_KEYS | Msg::OT_CACHED) != 0 {
                    return Err(ProtocolError::BadRequest("unknown KeyStatus flag"));
                }
                let cached = flags & Msg::OT_CACHED != 0;
                (flags & Msg::NEED_KEYS != 0, cached.then_some(ot_base))
            }
            other => return Err(unexpected("KeyStatus", &other)),
        };
        // A server that claims to cache keys this client does not hold for
        // the plan is refused before anything is sent.
        if let (false, Some(he)) = (upload, cfg.he()) {
            if !self.retained.contains_key(&meta.key_plan(he)) {
                return Err(ProtocolError::BadRequest(
                    "server caches keys this client does not hold",
                ));
            }
        }
        assert_eq!(input.len(), meta.input_len, "input length mismatch");
        let p = meta.p;
        let k = meta.relu_width;
        let mut out = PartyOutcome::default();
        let trace_scope = pi_trace::begin_local();
        let root_span = pi_trace::span!("client");

        // The reserved range leaves the retained stream here, before
        // anything is sent: whatever becomes of the session, no later one
        // is accepted inside it. A Server-Garbler session without one opens
        // with the client's base-OT setup.
        let ot_blocks = meta.ot_blocks(cfg.kind);
        let ot = match (cfg.kind, ot_base) {
            (ProtocolKind::ClientGarbler, None) => ClientOt::Garbler(None),
            (ProtocolKind::ClientGarbler, Some(base)) => {
                ClientOt::Garbler(Some(claim(&mut self.ot_sender, base, ot_blocks)?))
            }
            (ProtocolKind::ServerGarbler, Some(base)) => {
                let ot = claim(&mut self.ot_receiver, base, ot_blocks)?;
                ClientOt::Evaluator(EvaluatorOt::Cached(ot))
            }
            (ProtocolKind::ServerGarbler, None) => {
                let _span = pi_trace::span!("offline.ot");
                let (sender, setup) = BaseSender::start(rng);
                peer.sink.send(Msg::OtBaseSetup(setup))?;
                ClientOt::Evaluator(EvaluatorOt::Opened(sender))
            }
        };

        // ---------------- Offline ----------------
        // Randomness per activation (the input and every garbled ReLU's
        // output), then the linear pass on it: the whole upload now, the
        // responses once the role is ready for them.
        let relu_phases = &meta.relu_phases;
        let act_lens = std::iter::once(meta.input_len).chain(relu_phases.iter().map(|r| r.rows));
        let r_acts = random_field_vecs(act_lens, p, rng);
        let he = {
            let _span = pi_trace::span!("offline.he");
            let he = match cfg.he() {
                Some(params) => {
                    Some(self.he_context(meta, params, peer.sink, rng, upload, &mut out)?)
                }
                None => None,
            };
            upload_linear(meta, &r_acts, he.as_ref(), peer.sink, rng)?;
            he
        };

        let (role, c_shares) = match ot {
            ClientOt::Garbler(cached) => {
                let c_shares = linear_shares(meta, he.as_ref(), peer).await?;
                // The client owns the label pairs for the server's inputs:
                // it is the extension *sender*, on the pair's cached state
                // or, by the base OT the server opens now, on a fresh one
                // that starts at block 0.
                let ot = match cached {
                    Some(ot) => ot,
                    None => {
                        let _span = pi_trace::span!("offline.ot");
                        let setup = recv!(peer, OtBaseSetup);
                        let (receiver, choice) = BaseReceiver::start(&setup, rng)?;
                        peer.sink.send(Msg::OtBaseChoice(choice))?;
                        let ext = receiver.finish(&recv!(peer, OtBaseTransfer))?;
                        self.ot_sender = Some(OtStream::at(ext.clone(), ot_blocks));
                        OtStream::at(ext, 0)
                    }
                };
                let mut garbler = Garbler::new(ot);
                // Garble and ship: tables + decode bits + the client's own
                // input labels (share_a = its linear share on wires 0..k,
                // r = next randomness on wires 2k..3k; both known offline).
                for (idx, relu) in relu_phases.iter().enumerate() {
                    let tables = garbler.garble(meta, relu, rng, &mut out);
                    peer.sink.send(Msg::GcTables(tables))?;
                    let phase = &garbler.phases[idx];
                    peer.sink.send(Msg::GcDecode(
                        phase
                            .iter()
                            .map(|g| g.garbled.output_decode.clone())
                            .collect(),
                    ))?;
                    let (share, r_next) = (&c_shares[relu.phase], &r_acts[relu.phase + 1]);
                    let mut labels = Vec::with_capacity(relu.rows * 2 * k);
                    for (j, g) in phase.iter().enumerate() {
                        g.encoding.encode_into(0, share[j], k, &mut labels);
                        g.encoding.encode_into(2 * k, r_next[j], k, &mut labels);
                    }
                    peer.sink.send(Msg::GcLabels(labels))?;
                }
                // Storage: the label pairs for the server's online inputs
                // (k pairs + delta per element — the paper's modest
                // garbler-side encoding cost).
                let instances = garbler.phases.iter().map(Vec::len).sum::<usize>();
                out.storage_bytes = instances as u64 * (2 * k as u64 + 1) * 16;
                (Role::Garbler(garbler), c_shares)
            }
            ClientOt::Evaluator(start) => {
                // The client obtains labels: it is the extension
                // *receiver*, on the pair's cached state or on a fresh one
                // that starts at block 0. Its base-OT transfer goes out
                // before it reads the linear responses, so it is computed
                // while the server runs its HE pass.
                let mut ot = match start {
                    EvaluatorOt::Cached(ot) => ot,
                    EvaluatorOt::Opened(sender) => {
                        let _span = pi_trace::span!("offline.ot");
                        let (ext, transfer) = sender.finish(&recv!(peer, OtBaseChoice), rng)?;
                        peer.sink.send(Msg::OtBaseTransfer(transfer))?;
                        self.ot_receiver = Some(OtStream::at(ext.clone(), ot_blocks));
                        OtStream::at(ext, 0)
                    }
                };
                let c_shares = linear_shares(meta, he.as_ref(), peer).await?;
                // Per ReLU phase: receive circuits, fetch own labels via OT
                // (per element, share_b bits on wires k..2k, then r bits).
                let mut phases = Vec::with_capacity(relu_phases.len());
                for relu in relu_phases {
                    let tables = PhaseTables::receive(meta, relu, recv!(peer, GcTables), &mut out)?;
                    let _span = pi_trace::span!("offline.ot");
                    let (share, r_next) = (&c_shares[relu.phase], &r_acts[relu.phase + 1]);
                    let values = (0..relu.rows).flat_map(|j| [share[j], r_next[j]]);
                    let (request, extend) = LabelRequest::new(&mut ot, values, k, &mut out);
                    peer.sink.send(Msg::OtExtend(extend))?;
                    let labels = request.open(ot.ext(), &recv!(peer, OtTransfer))?;
                    phases.push((tables, labels));
                }
                // Storage: garbled circuits + own labels.
                let labels = phases.iter().map(|(_, l)| l.len()).sum::<usize>();
                out.storage_bytes = out.gc_bytes + labels as u64 * 16;
                (Role::Evaluator(phases), c_shares)
            }
        };
        // Either role also stores its shares and randomness.
        out.storage_bytes += c_shares.iter().map(|s| s.len() as u64 * 8).sum::<u64>()
            + r_acts.iter().map(|r| r.len() as u64 * 8).sum::<u64>();
        out.offline_sent = peer.sink.bytes_sent();

        // ---------------- Online ----------------
        let masked: Vec<u64> = input
            .iter()
            .zip(&r_acts[0])
            .map(|(&x, &r)| p.sub(x, r))
            .collect();
        peer.sink.send(Msg::VecU64(masked))?;

        match role {
            // Serve the server's labels via OT, one extension per ReLU
            // phase; its input occupies wire positions [k, 2k).
            Role::Garbler(mut garbler) => {
                for idx in 0..relu_phases.len() {
                    let _span = pi_trace::span!("online.ot");
                    let extend = recv!(peer, OtExtend);
                    let transfer = garbler.serve_labels(idx, k..2 * k, &extend, &mut out)?;
                    peer.sink.send(Msg::OtTransfer(transfer))?;
                }
            }
            // Evaluate each phase on the server's labels for its share
            // (wires 0..k); decode stays with the garbler.
            Role::Evaluator(phases) => {
                for (tables, mine) in &phases {
                    let theirs = recv!(peer, GcLabels);
                    if theirs.len() != tables.len() * k {
                        return Err(ProtocolError::BadRequest("server label count"));
                    }
                    let eval_span = pi_trace::span!("online.eval");
                    let out_labels = tables.evaluate(mine, &theirs, true);
                    drop(eval_span);
                    peer.sink.send(Msg::GcLabels(out_labels))?;
                }
            }
        }

        // Final phase: combine output shares.
        let server_share = recv!(peer, VecU64);
        let my_share = &c_shares[meta.phases.len() - 1];
        if server_share.len() != my_share.len() || !reduced(&server_share, p) {
            return Err(ProtocolError::BadRequest("output share"));
        }
        let output: Vec<u64> = server_share
            .iter()
            .zip(my_share)
            .map(|(&a, &b)| p.add(a, b))
            .collect();
        out.total_sent = peer.sink.bytes_sent();
        drop(root_span);
        out.trace = trace_scope.finish();
        Ok((output, out))
    }

    /// Readies the HE context: reuses the keys retained for the model's
    /// key plan or generates (and retains) a secret key and exactly that
    /// plan's rotation keys — the replicated schedule's rotations for
    /// every linear-layer dimension the model metadata announces — written
    /// straight into their upload frame; uploads the frame, and accounts
    /// it, when `upload`: a session whose server still caches the keys
    /// skips the upload (a `tiny_cnn` plan at n = 4096 is two keys, ≈0.2 MB
    /// on the wire). [`ServiceClient::session`] has already refused a
    /// claim of cached keys this client does not hold, so keys are only
    /// generated for an upload.
    fn he_context<'a, R: Rng + ?Sized>(
        &mut self,
        meta: &ModelMeta,
        params: &'a BfvParams,
        sink: &ChannelTx,
        rng: &mut R,
        upload: bool,
        out: &mut PartyOutcome,
    ) -> Result<ClientHe<'a>, ProtocolError> {
        assert_eq!(
            params.t().value(),
            meta.p.value(),
            "model field must equal the HE plaintext modulus"
        );
        let keys = match self.retained.entry(meta.key_plan(params)) {
            Entry::Occupied(kept) => kept.get().clone(),
            Entry::Vacant(slot) => {
                let _span = pi_trace::span!("he.keys_generate");
                let secret = SecretKey::generate(params, rng);
                let frame = Arc::new(pi_he::galois_keys_frame(&secret, slot.key(), rng));
                slot.insert(Arc::new(ClientKeys { secret, frame })).clone()
            }
        };
        if upload {
            // Accounting reports the serialized frame length — the bytes
            // that actually cross the wire — not the in-memory footprint.
            out.galois_key_bytes = keys.frame.len() as u64;
            sink.send(Msg::HeKeys(keys.frame.clone()))?;
        }
        let encoder = BatchEncoder::new(params);
        Ok(ClientHe {
            params,
            keys,
            encoder,
        })
    }
}

/// The offline linear upload: sends `E(r_cat)` per phase (cleartext
/// `r_cat` without an HE context — insecure, `LinearMode::Clear`).
fn upload_linear<R: Rng + ?Sized>(
    meta: &ModelMeta,
    r_acts: &[Vec<u64>],
    he: Option<&ClientHe<'_>>,
    sink: &ChannelTx,
    rng: &mut R,
) -> Result<(), ProtocolError> {
    for ph in &meta.phases {
        let mut r_cat: Vec<u64> = Vec::with_capacity(ph.cols);
        for &a in &ph.inputs {
            r_cat.extend_from_slice(&r_acts[a]);
        }
        let Some(he) = he else {
            sink.send(Msg::VecU64(r_cat))?;
            continue;
        };
        assert!(
            ph.padded_dim <= he.encoder.row_size(),
            "phase dimension {} exceeds HE slot capacity {}",
            ph.padded_dim,
            he.encoder.row_size()
        );
        // Replicated layout (each slot block pre-rotated for its share of
        // the diagonals), then seed-expanded symmetric encryption: the frame
        // carries packed c0 plus a 32-byte seed instead of c1 — the client
        // holds the secret key, so the cheaper symmetric form is always
        // available here.
        let secret = &he.keys.secret;
        let input = linalg::encode_input(&he.encoder, &r_cat, ph.padded_dim);
        let (ct, seed) = secret.encrypt_seeded(&input, rng);
        // Only the client can gauge noise (it holds the secret key); no-op
        // below PI_TRACE=full.
        secret.gauge_noise(&ct, NoiseStage::Encrypt);
        let frame = pi_he::ciphertext_to_bytes_seeded(&ct, &seed);
        sink.send(Msg::HeCts(frame))?;
    }
    Ok(())
}

/// The offline linear responses: the client's additive shares `W·r − s`,
/// one vector per phase (under HE, the fold of each response's masked
/// replica blocks).
async fn linear_shares(
    meta: &ModelMeta,
    he: Option<&ClientHe<'_>>,
    peer: Peer<'_>,
) -> Result<Vec<Vec<u64>>, ProtocolError> {
    let _span = pi_trace::span!("offline.he");
    let mut shares = Vec::with_capacity(meta.phases.len());
    for ph in &meta.phases {
        let share = match he {
            Some(he) => {
                let frame = recv!(peer, HeCts);
                let ct = pi_he::ciphertext_from_bytes(&frame, he.params)?;
                if ct.c0.ctx().q() != he.params.down_q() {
                    return Err(ProtocolError::BadRequest(
                        "response ciphertext not modulus-switched",
                    ));
                }
                let pt = he.keys.secret.decrypt_switched(&ct);
                let slots = he.encoder.decode(&pt);
                linalg::fold_replicas(&slots, ph.padded_dim, ph.rows, meta.p)
            }
            None => {
                let share = recv!(peer, VecU64);
                if share.len() != ph.rows || !reduced(&share, meta.p) {
                    return Err(ProtocolError::BadRequest("linear share"));
                }
                share
            }
        };
        shares.push(share);
    }
    Ok(shares)
}

#[cfg(test)]
mod tests {
    /// The ROADMAP's grep check: nothing in the two protocol bodies, the
    /// role steps they share, or the runtime that receives for and caches
    /// from the server's can panic on an `Option`/`Result` a peer's message
    /// decides.
    #[test]
    fn protocol_bodies_have_no_panicking_shortcuts() {
        for (name, src) in [
            ("client.rs", include_str!("client.rs")),
            ("serve/session.rs", include_str!("serve/session.rs")),
            ("serve/mod.rs", include_str!("serve/mod.rs")),
            ("role.rs", include_str!("role.rs")),
        ] {
            let body = src.split("#[cfg(test)]").next().unwrap_or(src);
            for needle in [".expect(", ".unwrap()", "unreachable!"] {
                assert!(!body.contains(needle), "{name} contains `{needle}`");
            }
        }
    }
}
