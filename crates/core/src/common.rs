//! Shared protocol vocabulary: configuration, the structure-only model view,
//! the per-model server precomputation, and the per-party cost summary.
//!
//! The protocol bodies live in [`crate::client`] (the client) and
//! [`crate::serve::session`] (the server): each an `async fn` over a
//! [`crate::channel::Peer`] that suspends between messages. The garbler /
//! evaluator / base-OT steps both of them perform are in `role.rs`.

use crate::error::ProtocolError;
use crate::msg::Msg;
use crate::role::OtStream;
use pi_field::Modulus;
use pi_he::linalg::{self, BsgsDiagonals, PlainMatrix};
use pi_he::{BatchEncoder, BfvParams, GaloisKeys};
use pi_nn::{PiModel, PiPhase};
use pi_ot::ext::{self, OtExtReceiver, OtExtSender};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which hybrid protocol variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// DELPHI's baseline: the server garbles, the client stores and
    /// evaluates the circuits.
    ServerGarbler,
    /// The paper's proposed optimization (§5.1): the client garbles, the
    /// server stores and evaluates; OT for the server's labels moves online.
    ClientGarbler,
}

/// How the offline linear phase exchanges the client's randomness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinearMode {
    /// Real BFV homomorphic evaluation (masked replica blocks that the
    /// client folds to `W·r − s`).
    He,
    /// Cleartext exchange — **insecure**: exercises the full GC/OT/SS
    /// paths without HE cost, in tests and in the ledger's `relu_heavy`
    /// workload.
    Clear,
}

/// Protocol configuration.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Which party garbles.
    pub kind: ProtocolKind,
    /// HE or cleartext offline linear phase.
    pub linear: LinearMode,
    /// BFV parameters (plaintext modulus must equal the model field).
    pub he_params: Option<BfvParams>,
    /// Server threads for layer-parallel HE (1 = sequential baseline).
    pub lphe_threads: usize,
    /// RNG seeds for (client, server).
    pub seeds: (u64, u64),
}

impl ProtocolConfig {
    /// Server-Garbler over real HE with sequential offline HE.
    pub fn server_garbler(he_params: BfvParams) -> Self {
        Self {
            kind: ProtocolKind::ServerGarbler,
            ..Self::client_garbler(he_params, 1)
        }
    }

    /// Client-Garbler over real HE with layer-parallel offline HE.
    pub fn client_garbler(he_params: BfvParams, lphe_threads: usize) -> Self {
        Self {
            kind: ProtocolKind::ClientGarbler,
            linear: LinearMode::He,
            he_params: Some(he_params),
            lphe_threads,
            seeds: (1, 2),
        }
    }

    /// Cleartext-linear test configuration for a protocol kind.
    pub fn clear(kind: ProtocolKind) -> Self {
        Self {
            kind,
            linear: LinearMode::Clear,
            he_params: None,
            lphe_threads: 1,
            seeds: (1, 2),
        }
    }

    /// The BFV parameters the offline linear phase runs under, `None` in
    /// cleartext mode — each party resolves this once, when it builds its
    /// HE context.
    ///
    /// # Panics
    ///
    /// Panics if the configuration selects HE mode without parameters.
    pub(crate) fn he(&self) -> Option<&BfvParams> {
        match self.linear {
            LinearMode::He => Some(
                self.he_params
                    .as_ref()
                    .expect("HE mode requires parameters"),
            ),
            LinearMode::Clear => None,
        }
    }
}

/// Structure-only view of a [`PiModel`] phase (what the client knows).
#[derive(Clone, Debug)]
pub struct PhaseMeta {
    /// Activation indices feeding the phase.
    pub inputs: Vec<usize>,
    /// Output length.
    pub rows: usize,
    /// Concatenated input length.
    pub cols: usize,
    /// Truncation shift of the following garbled ReLU (`None` = final).
    pub relu_shift: Option<u32>,
    /// Power-of-two dimension the HE matvec works at.
    pub padded_dim: usize,
}

/// One garbled ReLU phase: the linear phase it follows and its shape.
#[derive(Clone, Copy, Debug)]
pub struct ReluPhase {
    /// Index of the linear phase whose output it activates.
    pub phase: usize,
    /// Number of ReLU instances (the phase's output length).
    pub rows: usize,
    /// Truncation shift.
    pub shift: u32,
}

/// Structure-only view of a model: everything the client needs without the
/// server's proprietary weights.
#[derive(Clone, Debug)]
pub struct ModelMeta {
    /// The protocol field.
    pub p: Modulus,
    /// Network input length.
    pub input_len: usize,
    /// Phase structure.
    pub phases: Vec<PhaseMeta>,
    /// The garbled ReLU phases, in protocol order.
    pub relu_phases: Vec<ReluPhase>,
    /// Bit width of garbled ReLU values (`ceil(log2 p)`).
    pub relu_width: usize,
}

impl ModelMeta {
    /// Extracts the structure of a model.
    pub fn of(model: &PiModel) -> Self {
        let relu = |(phase, ph): (usize, &PhaseMeta)| {
            let (rows, shift) = (ph.rows, ph.relu_shift?);
            Some(ReluPhase { phase, rows, shift })
        };
        let phases: Vec<PhaseMeta> = model
            .phases
            .iter()
            .map(|ph| PhaseMeta {
                inputs: ph.inputs.clone(),
                rows: ph.rows,
                cols: ph.cols,
                relu_shift: ph.relu_shift,
                padded_dim: ph.rows.max(ph.cols).next_power_of_two(),
            })
            .collect();
        Self {
            p: model.p,
            input_len: model.input_len,
            relu_phases: phases.iter().enumerate().filter_map(relu).collect(),
            phases,
            relu_width: model.p.bits() as usize,
        }
    }

    /// The rotation keys a client of this model generates and uploads, the
    /// only set the server admits for it, and what both parties key their
    /// key caches by: [`linalg::key_plan`] at the phases' padded dimensions.
    pub fn key_plan(&self, params: &BfvParams) -> Vec<usize> {
        let dims: Vec<usize> = self.phases.iter().map(|ph| ph.padded_dim).collect();
        linalg::key_plan(params, &dims)
    }

    /// PRG blocks one session draws from its pair's IKNP streams
    /// ([`pi_ot::ext`]): one extension per ReLU phase over every
    /// instance's evaluator-held input wires — share and next randomness
    /// (`2k`, offline) when the client evaluates, the share alone (`k`,
    /// online) when the server does. Both parties size a session's range
    /// with this, and their cursors then move in step through it.
    pub fn ot_blocks(&self, kind: ProtocolKind) -> u64 {
        let wires = match kind {
            ProtocolKind::ServerGarbler => 2 * self.relu_width,
            ProtocolKind::ClientGarbler => self.relu_width,
        };
        let phase_blocks = |relu: &ReluPhase| ext::blocks(relu.rows * wires);
        self.relu_phases.iter().map(phase_blocks).sum()
    }
}

/// Draws one uniform field vector per length, in order.
pub(crate) fn random_field_vecs<R: Rng + ?Sized>(
    lens: impl Iterator<Item = usize>,
    p: Modulus,
    rng: &mut R,
) -> Vec<Vec<u64>> {
    let vec = |len| (0..len).map(|_| rng.gen_range(0..p.value())).collect();
    lens.map(vec).collect()
}

/// Whether every element of a peer-supplied field vector is reduced mod
/// `p` (the field arithmetic assumes it: a debug-build panic and
/// release-build garbage otherwise).
pub(crate) fn reduced(v: &[u64], p: Modulus) -> bool {
    v.iter().all(|&x| x < p.value())
}

/// Builds the [`ProtocolError::UnexpectedMsg`] for a message that arrived
/// in the wrong protocol state.
pub(crate) fn unexpected(expected: &'static str, got: &Msg) -> ProtocolError {
    ProtocolError::UnexpectedMsg {
        expected,
        got: got.kind(),
    }
}

/// A client's uploaded rotation keys, admitted for one key plan: the only
/// way to one is [`ClientHeKeys::admit`], so a matvec job or a session-table
/// entry never holds a set that lacks a key the model's matvecs read, or
/// carries one they do not.
#[derive(Debug)]
pub struct ClientHeKeys(GaloisKeys);

impl ClientHeKeys {
    /// Admits an uploaded rotation-key frame if the entries its headers
    /// announce **equal** `plan` ([`ModelMeta::key_plan`]), element for
    /// element, in order — and only then decodes it. The
    /// header walk ([`pi_he::galois_keys_frame_entries`]) also holds the
    /// frame to the exact length its entries imply, which for the plan's
    /// entries is the plan's frame length; a frame that was never going to
    /// be admitted buys no seed expansion and no quotient, and makes nobody
    /// make room for it.
    ///
    /// An on-plan frame is decoded into `retired(bytes)`, if that gives a
    /// key set ([`pi_he::galois_keys_from_bytes_reusing`]): `bytes` is
    /// [`ClientHeKeys::resident_byte_len`] of the set about to exist, and
    /// the serving runtime answers with what its key table evicts to hold
    /// that much more — the eviction the insert would do anyway, done
    /// first, so a full table turns over in the memory it already has.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Wire`] on a frame that fails to parse,
    /// [`ProtocolError::BadRequest`] on a well-formed set that is not the
    /// plan: an entry missing, added, repeated or out of order.
    pub fn admit(
        frame: &[u8],
        params: &BfvParams,
        plan: &[usize],
        retired: impl FnOnce(usize) -> Option<Self>,
    ) -> Result<Self, ProtocolError> {
        if pi_he::galois_keys_frame_entries(frame, params)? != plan {
            return Err(ProtocolError::BadRequest(
                "rotation keys are not the model's key plan",
            ));
        }
        let retired =
            retired(GaloisKeys::resident_byte_len_of(params, plan.len())).map(|keys| keys.0);
        let keys = pi_he::galois_keys_from_bytes_reusing(frame, params, retired)?;
        Ok(Self(keys))
    }

    /// The admitted rotation keys.
    pub fn galois(&self) -> &GaloisKeys {
        &self.0
    }

    /// Heap bytes the key set occupies — the quantity the session table's
    /// byte budget meters.
    pub fn resident_byte_len(&self) -> usize {
        self.0.resident_byte_len()
    }
}

/// The server's half of one client pair's post-base-OT IKNP state, as the
/// session table caches it between that client's requests: the extension
/// sender (the server garbles) or receiver (the server evaluates), and the
/// first PRG block no session has been given yet. Every session of the pair
/// reserves its range here, so no two of them — concurrent, failed or
/// finished — ever expand the same block.
#[derive(Debug)]
pub(crate) struct ClientOtState {
    half: OtHalf,
    next: AtomicU64,
}

#[derive(Debug)]
enum OtHalf {
    Sender(Arc<OtExtSender>),
    Receiver(Arc<OtExtReceiver>),
}

impl ClientOtState {
    /// The state a Server-Garbler session leaves behind once its base OT is
    /// done; the session itself runs in the first `used` blocks.
    pub(crate) fn sender(ext: Arc<OtExtSender>, used: u64) -> Self {
        let (half, next) = (OtHalf::Sender(ext), AtomicU64::new(used));
        Self { half, next }
    }

    /// As [`Self::sender`], for a Client-Garbler session.
    pub(crate) fn receiver(ext: Arc<OtExtReceiver>, used: u64) -> Self {
        let (half, next) = (OtHalf::Receiver(ext), AtomicU64::new(used));
        Self { half, next }
    }

    /// Bytes the state occupies — the quantity the session table's byte
    /// budget meters.
    pub(crate) fn resident_byte_len(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.half {
                OtHalf::Sender(ext) => ext.resident_byte_len(),
                OtHalf::Receiver(ext) => ext.resident_byte_len(),
            }
    }

    /// Reserves the next `blocks` PRG blocks for one session and returns
    /// the first. The range is gone whatever becomes of the session: an
    /// aborted one burns it, nothing rewinds.
    pub(crate) fn reserve(&self, blocks: u64) -> u64 {
        // Relaxed: the counter publishes no other data, and a
        // read-modify-write hands every caller a different range under any
        // ordering.
        self.next.fetch_add(blocks, Ordering::Relaxed)
    }

    /// The garbler's stream from `base` on, if this is a sender half.
    pub(crate) fn sender_at(&self, base: u64) -> Option<OtStream<OtExtSender>> {
        match &self.half {
            OtHalf::Sender(ext) => Some(OtStream::at(ext.clone(), base)),
            OtHalf::Receiver(_) => None,
        }
    }

    /// The evaluator's stream from `base` on, if this is a receiver half.
    pub(crate) fn receiver_at(&self, base: u64) -> Option<OtStream<OtExtReceiver>> {
        match &self.half {
            OtHalf::Receiver(ext) => Some(OtStream::at(ext.clone(), base)),
            OtHalf::Sender(_) => None,
        }
    }
}

/// Per-model server-side precomputation for the offline linear pass: in HE
/// mode, each phase matrix's diagonals packed into the replicated
/// baby-step/giant-step layout and encoded as centered Shoup-form operands
/// ([`BsgsDiagonals`]), beside the encoder they were encoded with and the
/// model's key plan. The weights stay in the [`PiModel`], where the
/// cleartext pass multiplies by them ([`pi_nn::PiPhase::apply_linear`]).
///
/// Depends only on the model weights and the protocol configuration, never
/// on a client's keys, so one instance serves every inference of every
/// client. The serving runtime builds it once, when a model is registered
/// ([`crate::serve::ServeRuntime::register_model`]), and keeps it with the
/// model; elsewhere build it once per served model and pass it to each
/// [`drive_sync`](crate::serve::session::drive_sync) or
/// [`crate::private_inference_precomputed`] call.
#[derive(Debug)]
pub struct ServerPrecomp {
    /// Packed Shoup-form diagonals per phase (HE mode only).
    pub diagonals: Option<Vec<BsgsDiagonals>>,
    he: Option<ModelHe>,
}

/// The server's per-model HE context (HE mode only).
#[derive(Debug)]
pub(crate) struct ModelHe {
    /// The encoder of the diagonals and of the response masks.
    pub(crate) encoder: BatchEncoder,
    /// The model's key plan: what an upload must equal to be admitted.
    pub(crate) plan: Vec<usize>,
}

impl ServerPrecomp {
    /// Precomputes the offline-linear operands for `model` under `cfg`. A
    /// phase's padded [`PlainMatrix`] lives only as long as its encoding
    /// takes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` selects HE mode without parameters.
    pub fn new(model: &PiModel, cfg: &ProtocolConfig) -> Self {
        let he = cfg.he().map(|params| {
            let encoder = BatchEncoder::new(params);
            let encode = |ph: &PiPhase| {
                let w = PlainMatrix::new(ph.rows, ph.cols, &ph.matrix, model.p);
                linalg::encode_diagonals_bsgs(&encoder, &w)
            };
            let diagonals = model.phases.iter().map(encode).collect();
            let plan = ModelMeta::of(model).key_plan(params);
            (diagonals, ModelHe { encoder, plan })
        });
        let (diagonals, he) = he.unzip();
        Self { diagonals, he }
    }

    /// The HE context and the diagonals an HE session works with.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadRequest`] if this precomputation was built for
    /// cleartext mode.
    pub(crate) fn he(&self) -> Result<(&ModelHe, &[BsgsDiagonals]), ProtocolError> {
        match (&self.he, &self.diagonals) {
            (Some(he), Some(diagonals)) => Ok((he, diagonals)),
            _ => Err(ProtocolError::BadRequest("no HE context precomputed")),
        }
    }

    /// The model's key plan, `None` in cleartext mode.
    pub(crate) fn key_plan(&self) -> Option<&[usize]> {
        self.he.as_ref().map(|he| &he.plan[..])
    }
}

/// Per-party cost summary returned by protocol party functions.
#[derive(Clone, Debug, Default)]
pub struct PartyOutcome {
    /// Bytes this party had sent when its offline phase ended.
    pub offline_sent: u64,
    /// Total bytes this party sent.
    pub total_sent: u64,
    /// This party's trace: the phase span tree rooted at `client` /
    /// `server` plus every substrate counter its thread touched: the only
    /// record of this party's phase times ([`crate::merge_cost_report`]
    /// merges the two parties' into [`crate::CostReport::trace`]).
    pub trace: pi_trace::TraceReport,
    /// Bytes this party must store between offline and online.
    pub storage_bytes: u64,
    /// Garbled-circuit bytes this party transmitted or received.
    pub gc_bytes: u64,
    /// Galois key material this request uploaded: the model's key plan
    /// (client side, HE mode only; zero otherwise, and zero when the
    /// server still cached the keys).
    pub galois_key_bytes: u64,
    /// Extended OTs this party took part in.
    pub ot_count: u64,
}
