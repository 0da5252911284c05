//! The garbler's, the evaluator's and the two base-OT roles' steps, each
//! written once.
//!
//! Server-Garbler (§2.2) and Client-Garbler (§5.1) differ only in which
//! party garbles, which evaluates, and whether the evaluator's label OT
//! runs offline or online. The client body ([`crate::client`]) and the
//! server's state machine ([`crate::serve::session`]) call these steps
//! from whichever role the protocol kind hands them; neither keeps a copy.
//!
//! A step that consumes a peer's message checks its shape before the
//! substrate call that would assert it and returns
//! [`ProtocolError::BadRequest`]: nothing a peer sends may panic a party.
//! The base-OT substrate does its own checking — it decodes, and so
//! validates, every peer point — and its error converts to the same.

use crate::common::{ModelMeta, PartyOutcome, ReluPhase};
use crate::error::ProtocolError;
use pi_gc::circuit::to_bits;
use pi_gc::garble::{evaluate_many_with, garble_many, Garbling};
use pi_gc::relu::relu_trunc_circuit;
use pi_gc::{Circuit, Label};
use pi_ot::base::{
    BaseOtReceiver, BaseOtSender, ReceiverChoiceMsg, SenderSetupMsg, SenderTransferMsg,
};
use pi_ot::bitmat::BitVec;
use pi_ot::ext::{
    self, ExtendMsg, OtExtReceiver, OtExtSender, ReceiverSetup, SenderSetup, TransferMsg, KAPPA,
};
use rand::Rng;
use std::ops::Range;
use std::sync::Arc;

/// One party's half of a client pair's post-base-OT IKNP state (`E` is the
/// extension sender or receiver) with a position in the PRG streams its
/// seeds expand to. A session's cursor starts at the base of the range the
/// server reserved for it and moves past every extension it runs; the
/// client's retained copy sits at its high-water mark. The other party's
/// cursor moves in step, because both size every extension from the same
/// [`ModelMeta`].
pub(crate) struct OtStream<E> {
    ext: Arc<E>,
    next: u64,
}

impl<E> OtStream<E> {
    /// The stream of `ext` from `block` on.
    pub(crate) fn at(ext: Arc<E>, block: u64) -> Self {
        Self { ext, next: block }
    }

    /// The extension state itself.
    pub(crate) fn ext(&self) -> &E {
        &self.ext
    }

    /// Takes the range `[base, base + blocks)` out of a retained stream:
    /// a cursor at `base`, and this one moves past the range — or `None`,
    /// and nothing moves, if the range starts below this cursor (some of it
    /// was already given out) or does not fit in `u64`.
    pub(crate) fn split_off(&mut self, base: u64, blocks: u64) -> Option<Self> {
        let end = base.checked_add(blocks).filter(|_| base >= self.next)?;
        self.next = end;
        Some(Self::at(self.ext.clone(), base))
    }

    /// The block an extension of `transfers` OTs starts at; the cursor
    /// moves past it.
    fn advance(&mut self, transfers: usize) -> u64 {
        let at = self.next;
        self.next += ext::blocks(transfers);
        at
    }
}

/// Base OT played as sender — by the party that becomes the extension
/// *receiver*, i.e. the evaluator.
pub(crate) struct BaseSender {
    sender: BaseOtSender,
    seed_pairs: Vec<(u128, u128)>,
}

impl BaseSender {
    /// Draws the seed pairs and the CDH anchor; the setup goes to the peer.
    pub(crate) fn start<R: Rng + ?Sized>(rng: &mut R) -> (Self, SenderSetupMsg) {
        let seed_pairs = (0..KAPPA).map(|_| (rng.gen(), rng.gen())).collect();
        let (sender, setup) = BaseOtSender::new(rng);
        (Self { sender, seed_pairs }, setup)
    }

    /// Answers the peer's choice: the transfer goes back, the extension
    /// receiver stays.
    pub(crate) fn finish<R: Rng + ?Sized>(
        self,
        choice: &ReceiverChoiceMsg,
        rng: &mut R,
    ) -> Result<(Arc<OtExtReceiver>, SenderTransferMsg), ProtocolError> {
        let Self { sender, seed_pairs } = self;
        let transfer = sender.transfer(choice, &seed_pairs, rng)?;
        let ext = OtExtReceiver::new(ReceiverSetup { seed_pairs });
        Ok((Arc::new(ext), transfer))
    }
}

/// Base OT played as receiver — by the party that becomes the extension
/// *sender*, i.e. the garbler.
pub(crate) struct BaseReceiver {
    receiver: BaseOtReceiver,
    s: u128,
}

impl BaseReceiver {
    /// Draws the IKNP choice string and answers the peer's setup with it.
    pub(crate) fn start<R: Rng + ?Sized>(
        setup: &SenderSetupMsg,
        rng: &mut R,
    ) -> Result<(Self, ReceiverChoiceMsg), ProtocolError> {
        let s: u128 = rng.gen();
        // The choice string is already packed — feed it to the base OT
        // as-is instead of round-tripping through a bool vector.
        let (receiver, choice) = BaseOtReceiver::choose_packed(setup, s, KAPPA, rng)?;
        Ok((Self { receiver, s }, choice))
    }

    /// Decrypts the peer's transfer into the garbler's extension sender.
    pub(crate) fn finish(
        self,
        transfer: &SenderTransferMsg,
    ) -> Result<Arc<OtExtSender>, ProtocolError> {
        let seeds = self.receiver.receive(transfer)?;
        Ok(Arc::new(OtExtSender::new(SenderSetup { s: self.s, seeds })))
    }
}

/// The labels encoding `value`'s `k` bits on wires `offset..offset + k` of
/// one garbled instance.
pub(crate) fn encode(g: &Garbling, offset: usize, value: u64, k: usize) -> Vec<Label> {
    g.encoding.encode_bits(offset, &to_bits(value, k))
}

/// The garbler's material: the extension sender its label OTs answer
/// through, and every ReLU phase garbled so far (with its tables shipped
/// and emptied).
pub(crate) struct Garbler {
    ot: OtStream<OtExtSender>,
    pub(crate) phases: Vec<Vec<Garbling>>,
}

impl Garbler {
    /// A garbler with nothing garbled yet, answering label OTs from `ot`'s
    /// position on.
    pub(crate) fn new(ot: OtStream<OtExtSender>) -> Self {
        let phases = Vec::new();
        Self { ot, phases }
    }

    /// Garbles the next ReLU phase, accounts it, and returns the tables to
    /// ship. They are moved out, not copied: the garbler keeps each
    /// instance's input encoding and decode bits, never its tables.
    pub(crate) fn garble<R: Rng + ?Sized>(
        &mut self,
        meta: &ModelMeta,
        relu: &ReluPhase,
        rng: &mut R,
        out: &mut PartyOutcome,
    ) -> Vec<Vec<(Label, Label)>> {
        let garble_span = pi_trace::span!("offline.garble");
        let circuit = relu_trunc_circuit(meta.p.value(), relu.shift).0;
        // Lockstep batch garbling: one AES call per gate per 8 instances.
        let mut phase = garble_many(&circuit, relu.rows, rng);
        pi_trace::add(pi_trace::Counter::GcRelu, relu.rows as u64);
        drop(garble_span);
        let tables: Vec<Vec<(Label, Label)>> = phase
            .iter_mut()
            .map(|g| std::mem::take(&mut g.garbled.tables))
            .collect();
        let table_bytes = tables.iter().map(|t| t.len() as u64 * 32).sum::<u64>();
        out.gc_bytes += table_bytes;
        pi_trace::add(pi_trace::Counter::GcBytes, table_bytes);
        self.phases.push(phase);
        tables
    }

    /// Answers the evaluator's extension with the label pairs of `wires`
    /// of every instance of garbled phase `idx`.
    pub(crate) fn serve_labels(
        &mut self,
        idx: usize,
        wires: Range<usize>,
        extend: &ExtendMsg,
        out: &mut PartyOutcome,
    ) -> Result<TransferMsg, ProtocolError> {
        let phase = &self.phases[idx];
        let n = phase.len() * wires.len();
        let words = n.div_ceil(128);
        if extend.num_transfers != n
            || extend.u_columns.len() != KAPPA
            || extend.u_columns.iter().any(|c| c.len() != words)
        {
            return Err(ProtocolError::BadRequest("OT extension shape"));
        }
        let mut pairs = Vec::with_capacity(n);
        for g in phase {
            pairs.extend(wires.clone().map(|w| g.encoding.label_pair(w)));
        }
        out.ot_count += n as u64;
        let at = self.ot.advance(n);
        Ok(self.ot.ext.transfer_at(at, extend, &pairs))
    }
}

/// An evaluator's label OT in flight: the choice bits it asked with and the
/// keys that unmask the answer.
pub(crate) struct LabelRequest {
    choices: BitVec,
    t_rows: Vec<u128>,
}

impl LabelRequest {
    /// Asks for the labels of the `k` little-endian bits of each of
    /// `values`, in order (packed choices straight from the field bits),
    /// with an extension at `ot`'s position.
    pub(crate) fn new(
        ot: &mut OtStream<OtExtReceiver>,
        values: impl IntoIterator<Item = u64>,
        k: usize,
        out: &mut PartyOutcome,
    ) -> (Self, ExtendMsg) {
        let mut choices = BitVec::zeros(0);
        for v in values {
            for b in 0..k {
                choices.push((v >> b) & 1 == 1);
            }
        }
        out.ot_count += choices.len() as u64;
        let at = ot.advance(choices.len());
        let (extend, t_rows) = ot.ext.extend_at(at, &choices);
        (Self { choices, t_rows }, extend)
    }

    /// Unmasks the garbler's answer into one label per choice bit.
    pub(crate) fn open(
        self,
        ext: &OtExtReceiver,
        transfer: &TransferMsg,
    ) -> Result<Vec<Label>, ProtocolError> {
        if transfer.pairs.len() != self.choices.len() {
            return Err(ProtocolError::BadRequest("OT transfer count"));
        }
        Ok(ext.decode(transfer, &self.choices, &self.t_rows))
    }
}

/// One ReLU phase's garbled tables as the evaluator stores them, checked
/// against the circuit they must garble.
pub(crate) struct PhaseTables {
    circuit: Circuit,
    tables: Vec<Vec<(Label, Label)>>,
}

impl PhaseTables {
    /// Accepts the garbler's tables for `relu` — one table set per
    /// instance, one table per AND gate — and accounts their bytes.
    pub(crate) fn receive(
        meta: &ModelMeta,
        relu: &ReluPhase,
        tables: Vec<Vec<(Label, Label)>>,
        out: &mut PartyOutcome,
    ) -> Result<Self, ProtocolError> {
        let circuit = relu_trunc_circuit(meta.p.value(), relu.shift).0;
        let ands = circuit.and_count();
        if tables.len() != relu.rows || tables.iter().any(|t| t.len() != ands) {
            return Err(ProtocolError::BadRequest("garbled table shape"));
        }
        out.gc_bytes += (relu.rows * ands * 32) as u64;
        Ok(Self { circuit, tables })
    }

    /// Number of ReLU instances.
    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// Evaluates every instance and returns the output labels, `k` per
    /// instance. An instance's input is three `k`-label words in wire order:
    /// garbler's share, evaluator's share, next-layer randomness. `held` has
    /// the two the evaluator got offline (`2k` per instance, randomness
    /// last); `fresh` (`k` per instance) arrived online and is the garbler's
    /// share if `fresh_first`, else the evaluator's. The caller has checked
    /// the label counts.
    pub(crate) fn evaluate(
        &self,
        held: &[Label],
        fresh: &[Label],
        fresh_first: bool,
    ) -> Vec<Label> {
        let k = self.circuit.num_inputs / 3;
        // Read in place by whichever thread evaluates instance j.
        let input = |j: usize| {
            let (share, r) = (&held[2 * j * k..][..k], &held[(2 * j + 1) * k..][..k]);
            let fresh = &fresh[j * k..][..k];
            let [first, second] = if fresh_first {
                [fresh, share]
            } else {
                [share, fresh]
            };
            first.iter().chain(second).chain(r).copied()
        };
        // Batched evaluation: 8 instances per AES call through the
        // fixed-key hash, split across cores for a large phase.
        evaluate_many_with(&self.circuit, &self.tables, input).concat()
    }
}

/// Decodes one phase's output labels (`k` per instance) into the next
/// masked activation: bit `b` of element `j` is the label's permute bit
/// XOR the garbler's decode bit, little-endian. `decode` yields one decode
/// vector per instance.
pub(crate) fn decode_outputs<'a>(
    decode: impl ExactSizeIterator<Item = &'a [bool]>,
    labels: &[Label],
    meta: &ModelMeta,
) -> Result<Vec<u64>, ProtocolError> {
    let k = meta.relu_width;
    if labels.len() != decode.len() * k {
        return Err(ProtocolError::BadRequest("output label count"));
    }
    decode
        .zip(labels.chunks(k))
        .map(|(d, l)| {
            let bit = |(&l, &d): (&Label, &bool)| u64::from(((l & 1) != 0) ^ d);
            let v = l
                .iter()
                .zip(d)
                .rev()
                .fold(0, |acc, ld| (acc << 1) | bit(ld));
            // The circuit reduces mod p; anything else is a forged label.
            if d.len() == k && v < meta.p.value() {
                Ok(v)
            } else {
                Err(ProtocolError::BadRequest("decoded activation out of range"))
            }
        })
        .collect()
}
