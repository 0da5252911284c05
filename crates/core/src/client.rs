//! The client of both protocols: one blocking body.
//!
//! The client owns its thread, so the shortest correct form of its role is
//! a straight-line function over a blocking [`Channel`]. Both protocol
//! kinds share the prologue (randomness, offline linear pass), the
//! masked-input send and the share-combining epilogue; they differ only
//! where the client acts as **garbler** (Client-Garbler, §5.1: it garbles
//! offline and serves the server's label OT online) or as **evaluator**
//! (Server-Garbler, §2.2: it stores the circuits, fetches its labels by
//! offline OT and evaluates online) — with the role steps the server's
//! state machine runs in the mirrored role (`role.rs`). Everything the
//! server sends is checked before use: a deviating server is a
//! [`ProtocolError`], never a panic.

use crate::channel::Channel;
use crate::common::{
    random_field_vecs, reduced, unexpected, ModelMeta, PartyOutcome, ProtocolConfig, ProtocolKind,
};
use crate::error::ProtocolError;
use crate::msg::Msg;
use crate::role::{encode, BaseReceiver, BaseSender, Garbler, LabelRequest, OtStream, PhaseTables};
use pi_gc::Label;
use pi_he::{linalg, BatchEncoder, BfvParams, GaloisKeys, NoiseStage, SecretKey};
use pi_ot::ext::{OtExtReceiver, OtExtSender};
use rand::Rng;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Receives the next message, which must be the given [`Msg`] variant.
macro_rules! recv {
    ($chan:expr, $variant:ident) => {
        match $chan.recv()? {
            Msg::$variant(v) => v,
            other => return Err(unexpected(stringify!($variant), &other)),
        }
    };
}

/// What the client holds between the offline and the online phase.
enum Role {
    /// Client-Garbler: encodings of every phase, to serve the server's
    /// online label OT from.
    Garbler(Garbler),
    /// Server-Garbler: per phase, the stored tables and the client's own
    /// input labels (`2k` per instance: share, then next randomness).
    Evaluator(Vec<(PhaseTables, Vec<Label>)>),
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
///   block 0, and the fresh state replaces the retained one — on a
///   serving-runtime channel: a dedicated pair's server keeps nothing, so
///   neither does the client.
///
/// The IKNP state belongs to one client↔runtime pair, so one
/// `ServiceClient` stands for one client id at one runtime.
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

    /// Runs one inference and returns its output and cost summary. On a
    /// serving-runtime channel the first downlink message is the server's
    /// [`Msg::KeyStatus`]: the key upload is skipped when the server still
    /// caches this client's keys for the model's key plan, and base OT when
    /// it still caches the pair's IKNP state. On a dedicated pair the keys
    /// are always uploaded and base OT always runs.
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
        // A serving-runtime session opens with the server's word on what
        // it still caches of this client: without its HE keys they are
        // uploaded, without the pair's IKNP state base OT runs. A dedicated
        // pair caches nothing.
        let (upload, ot_base) = if chan.is_service() {
            match chan.recv()? {
                Msg::KeyStatus { flags, ot_base } => {
                    if flags & !(Msg::NEED_KEYS | Msg::OT_CACHED) != 0 {
                        return Err(ProtocolError::BadRequest("unknown KeyStatus flag"));
                    }
                    let cached = flags & Msg::OT_CACHED != 0;
                    (flags & Msg::NEED_KEYS != 0, cached.then_some(ot_base))
                }
                other => return Err(unexpected("KeyStatus", &other)),
            }
        } else {
            (true, None)
        };
        // The reserved range leaves the retained stream here, before
        // anything is sent: whatever becomes of the session, no later one
        // is accepted inside it.
        let ot_blocks = meta.ot_blocks(cfg.kind);
        let (mut cached_sender, mut cached_receiver) = (None, None);
        match (cfg.kind, ot_base) {
            (_, None) => {}
            (ProtocolKind::ClientGarbler, Some(base)) => {
                cached_sender = Some(claim(&mut self.ot_sender, base, ot_blocks)?);
            }
            (ProtocolKind::ServerGarbler, Some(base)) => {
                cached_receiver = Some(claim(&mut self.ot_receiver, base, ot_blocks)?);
            }
        }
        assert_eq!(input.len(), meta.input_len, "input length mismatch");
        let p = meta.p;
        let k = meta.relu_width;
        let mut out = PartyOutcome::default();
        let trace_scope = pi_trace::begin_local();
        let root_span = pi_trace::span!("client");

        // ---------------- Offline ----------------
        // Randomness per activation (the input and every garbled ReLU's
        // output), then the linear pass on it.
        let relu_phases = &meta.relu_phases;
        let act_lens = std::iter::once(meta.input_len).chain(relu_phases.iter().map(|r| r.rows));
        let r_acts = random_field_vecs(act_lens, p, rng);
        let c_shares = {
            let _span = pi_trace::span!("offline.he");
            let he = match cfg.he() {
                Some(params) => Some(self.he_context(meta, params, chan, rng, upload, &mut out)?),
                None => None,
            };
            offline_linear(meta, &r_acts, he.as_ref(), chan, rng)?
        };

        let role = match cfg.kind {
            ProtocolKind::ClientGarbler => {
                // The client owns the label pairs for the server's inputs:
                // it is the extension *sender*, on the pair's cached state
                // or, by base OT, on a fresh one that starts at block 0.
                let ot = match cached_sender {
                    Some(ot) => ot,
                    None => {
                        let _span = pi_trace::span!("offline.ot");
                        let setup = recv!(chan, OtBaseSetup);
                        let (receiver, choice) = BaseReceiver::start(&setup, rng)?;
                        chan.send(Msg::OtBaseChoice(choice))?;
                        let ext = receiver.finish(&recv!(chan, OtBaseTransfer))?;
                        if chan.is_service() {
                            self.ot_sender = Some(OtStream::at(ext.clone(), ot_blocks));
                        }
                        OtStream::at(ext, 0)
                    }
                };
                let mut garbler = Garbler::new(ot);
                // Garble and ship: tables + decode bits + the client's own
                // input labels (share_a = its linear share on wires 0..k,
                // r = next randomness on wires 2k..3k; both known offline).
                for (idx, relu) in relu_phases.iter().enumerate() {
                    let tables = garbler.garble(meta, relu, rng, &mut out);
                    chan.send(Msg::GcTables(tables))?;
                    let phase = &garbler.phases[idx];
                    chan.send(Msg::GcDecode(
                        phase
                            .iter()
                            .map(|g| g.garbled.output_decode.clone())
                            .collect(),
                    ))?;
                    let (share, r_next) = (&c_shares[relu.phase], &r_acts[relu.phase + 1]);
                    let mut labels = Vec::with_capacity(relu.rows * 2 * k);
                    for (j, g) in phase.iter().enumerate() {
                        labels.extend(encode(g, 0, share[j], k));
                        labels.extend(encode(g, 2 * k, r_next[j], k));
                    }
                    chan.send(Msg::GcLabels(labels))?;
                }
                // Storage: the label pairs for the server's online inputs
                // (k pairs + delta per element — the paper's modest
                // garbler-side encoding cost).
                let instances = garbler.phases.iter().map(Vec::len).sum::<usize>();
                out.storage_bytes = instances as u64 * (2 * k as u64 + 1) * 16;
                Role::Garbler(garbler)
            }
            ProtocolKind::ServerGarbler => {
                // The client obtains labels: it is the extension
                // *receiver*, on the pair's cached state or, by base OT, on
                // a fresh one that starts at block 0.
                let mut ot = match cached_receiver {
                    Some(ot) => ot,
                    None => {
                        let _span = pi_trace::span!("offline.ot");
                        let (sender, setup) = BaseSender::start(rng);
                        chan.send(Msg::OtBaseSetup(setup))?;
                        let (ext, transfer) = sender.finish(&recv!(chan, OtBaseChoice), rng)?;
                        chan.send(Msg::OtBaseTransfer(transfer))?;
                        if chan.is_service() {
                            self.ot_receiver = Some(OtStream::at(ext.clone(), ot_blocks));
                        }
                        OtStream::at(ext, 0)
                    }
                };
                // Per ReLU phase: receive circuits, fetch own labels via OT
                // (per element, share_b bits on wires k..2k, then r bits).
                let mut phases = Vec::with_capacity(relu_phases.len());
                for relu in relu_phases {
                    let tables = PhaseTables::receive(meta, relu, recv!(chan, GcTables), &mut out)?;
                    let _span = pi_trace::span!("offline.ot");
                    let (share, r_next) = (&c_shares[relu.phase], &r_acts[relu.phase + 1]);
                    let values = (0..relu.rows).flat_map(|j| [share[j], r_next[j]]);
                    let (request, extend) = LabelRequest::new(&mut ot, values, k, &mut out);
                    chan.send(Msg::OtExtend(extend))?;
                    let labels = request.open(ot.ext(), &recv!(chan, OtTransfer))?;
                    phases.push((tables, labels));
                }
                // Storage: garbled circuits + own labels.
                let labels = phases.iter().map(|(_, l)| l.len()).sum::<usize>();
                out.storage_bytes = out.gc_bytes + labels as u64 * 16;
                Role::Evaluator(phases)
            }
        };
        // Either role also stores its shares and randomness.
        out.storage_bytes += c_shares.iter().map(|s| s.len() as u64 * 8).sum::<u64>()
            + r_acts.iter().map(|r| r.len() as u64 * 8).sum::<u64>();
        out.offline_sent = chan.tx().bytes_sent();

        // ---------------- Online ----------------
        let masked: Vec<u64> = input
            .iter()
            .zip(&r_acts[0])
            .map(|(&x, &r)| p.sub(x, r))
            .collect();
        chan.send(Msg::VecU64(masked))?;

        match role {
            // Serve the server's labels via OT, one extension per ReLU
            // phase; its input occupies wire positions [k, 2k).
            Role::Garbler(mut garbler) => {
                for idx in 0..relu_phases.len() {
                    let _span = pi_trace::span!("online.ot");
                    let extend = recv!(chan, OtExtend);
                    let transfer = garbler.serve_labels(idx, k..2 * k, &extend, &mut out)?;
                    chan.send(Msg::OtTransfer(transfer))?;
                }
            }
            // Evaluate each phase on the server's labels for its share
            // (wires 0..k); decode stays with the garbler.
            Role::Evaluator(phases) => {
                for (tables, mine) in &phases {
                    let theirs = recv!(chan, GcLabels);
                    if theirs.len() != tables.len() * k {
                        return Err(ProtocolError::BadRequest("server label count"));
                    }
                    let eval_span = pi_trace::span!("online.eval");
                    let out_labels = tables.evaluate(mine, &theirs, true);
                    drop(eval_span);
                    chan.send(Msg::GcLabels(out_labels))?;
                }
            }
        }

        // Final phase: combine output shares.
        let server_share = recv!(chan, VecU64);
        let my_share = &c_shares[meta.phases.len() - 1];
        if server_share.len() != my_share.len() || !reduced(&server_share, p) {
            return Err(ProtocolError::BadRequest("output share"));
        }
        let output: Vec<u64> = server_share
            .iter()
            .zip(my_share)
            .map(|(&a, &b)| p.add(a, b))
            .collect();
        out.total_sent = chan.tx().bytes_sent();
        drop(root_span);
        out.trace = trace_scope.finish();
        Ok((output, out))
    }

    /// Readies the HE context: reuses the keys retained for the model's
    /// key plan or generates (and retains) a secret key and exactly that
    /// plan's rotation keys — the replicated schedule's rotations for
    /// every linear-layer dimension the model metadata announces — written
    /// straight into their upload frame; accounts the key material, and
    /// uploads the frame when `upload`: a serving-runtime session whose
    /// server still caches the keys skips the multi-megabyte transfer
    /// entirely, and one that claims to cache keys this client does not
    /// hold for the plan is refused before anything is sent.
    fn he_context<'a, R: Rng + ?Sized>(
        &mut self,
        meta: &ModelMeta,
        params: &'a BfvParams,
        chan: &Channel,
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
            Entry::Vacant(_) if !upload => {
                return Err(ProtocolError::BadRequest(
                    "server caches keys this client does not hold",
                ));
            }
            Entry::Vacant(slot) => {
                let _span = pi_trace::span!("he.keys_generate");
                let secret = SecretKey::generate(params, rng);
                let frame = Arc::new(pi_he::galois_keys_frame(&secret, slot.key(), rng));
                slot.insert(Arc::new(ClientKeys { secret, frame })).clone()
            }
        };
        // Accounting reports the serialized frame length — the bytes that
        // actually cross the wire — not the in-memory footprint.
        out.galois_key_bytes = keys.frame.len() as u64;
        // The per-rotation baseline for a dimension set is the UNION of the
        // per-dim rotation sets; smaller dims' rotations {1..d−1} nest
        // inside the largest, so the union is the max dim's set.
        let max_dim = meta.phases.iter().map(|ph| ph.padded_dim).max();
        out.galois_key_bytes_per_rotation =
            GaloisKeys::per_rotation_set_byte_len(params, max_dim.unwrap_or(1)) as u64;
        if upload {
            chan.send(Msg::HeKeys(keys.frame.clone()))?;
        }
        let encoder = BatchEncoder::new(params);
        Ok(ClientHe {
            params,
            keys,
            encoder,
        })
    }
}

/// The offline linear pass: sends `E(r_cat)` per phase (cleartext `r_cat`
/// without an HE context — insecure, test-only) and returns the client's
/// additive shares `W·r − s`, one vector per phase.
fn offline_linear<R: Rng + ?Sized>(
    meta: &ModelMeta,
    r_acts: &[Vec<u64>],
    he: Option<&ClientHe<'_>>,
    chan: &Channel,
    rng: &mut R,
) -> Result<Vec<Vec<u64>>, ProtocolError> {
    for ph in &meta.phases {
        let mut r_cat: Vec<u64> = Vec::with_capacity(ph.cols);
        for &a in &ph.inputs {
            r_cat.extend_from_slice(&r_acts[a]);
        }
        let Some(he) = he else {
            chan.send(Msg::VecU64(r_cat))?;
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
        chan.send(Msg::HeCts(vec![frame]))?;
    }
    let mut shares = Vec::with_capacity(meta.phases.len());
    for ph in &meta.phases {
        let share = match he {
            Some(he) => {
                let frames = recv!(chan, HeCts);
                let [frame] = &frames[..] else {
                    return Err(ProtocolError::BadRequest("HeCts response not one frame"));
                };
                let ct = pi_he::ciphertext_from_bytes(frame, he.params)?;
                if ct.c0.ctx().q() != he.params.down_q() {
                    return Err(ProtocolError::BadRequest(
                        "response ciphertext not modulus-switched",
                    ));
                }
                let pt = he.keys.secret.decrypt_switched(&ct);
                he.encoder.decode_prefix(&pt, ph.rows)
            }
            None => {
                let share = recv!(chan, VecU64);
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
    /// The ROADMAP's grep check: nothing in the two protocol bodies can
    /// panic on an `Option`/`Result` a peer's message decides.
    #[test]
    fn protocol_bodies_have_no_panicking_shortcuts() {
        for (name, src) in [
            ("client.rs", include_str!("client.rs")),
            ("serve/session.rs", include_str!("serve/session.rs")),
        ] {
            let body = src.split("#[cfg(test)]").next().unwrap_or(src);
            for needle in [".expect(", ".unwrap()", "unreachable!"] {
                assert!(!body.contains(needle), "{name} contains `{needle}`");
            }
        }
    }
}
