//! Protocol messages and their wire-format sizes.
//!
//! Parties exchange typed values in process. HE material — the key upload,
//! ciphertext vectors — travels as **actual serialized frames**
//! ([`pi_he::wire`]): seed-expanded, bit-packed bytes produced by the
//! sender and parsed by the receiver, so `byte_len` for those variants is
//! the real frame length, not an analytic estimate. The remaining variants
//! report the size they would occupy in a binary encoding (fixed-width
//! fields, length-prefixed sequences); they have no byte codec yet. A
//! message's contents are the peer's: its shape and ranges are checked
//! where it is consumed ([`crate::ProtocolError::BadRequest`]), never
//! trusted.

use pi_gc::Label;
use pi_ot::base::{ReceiverChoiceMsg, SenderSetupMsg, SenderTransferMsg};
use pi_ot::ext::{ExtendMsg, TransferMsg};
use std::sync::Arc;

/// A message between the client and the server.
#[derive(Debug)]
pub enum Msg {
    /// Server → client, the first message of every session: what the
    /// server still holds of this client from earlier requests (a
    /// dedicated pair's server holds nothing), one flag byte —
    /// [`Msg::NEED_KEYS`] if the HE key material must be (re-)uploaded,
    /// [`Msg::OT_CACHED`] if the server kept its half of the pair's base-OT
    /// outcome — and, with the latter, where in the pair's IKNP streams
    /// this session runs. The client
    /// refuses any other bit, a cached claim for state it does not hold,
    /// and a position below one it has already been given.
    KeyStatus {
        /// Flag bits; a bit outside the two named ones is malformed.
        flags: u8,
        /// First PRG block of the range the server reserved for this
        /// session. On the wire (8 bytes) only under [`Msg::OT_CACHED`]:
        /// without it the session runs base OT and starts at block 0.
        ot_base: u64,
    },
    /// Client → server: the rotation keys of the model's key plan
    /// ([`crate::ModelMeta::key_plan`]), offline and once, as one serialized
    /// seed-expanded wire frame ([`pi_he::galois_keys_frame`]). The server
    /// reads nothing else of the client's key material, so nothing else is
    /// sent. The frame is shared with the client's retained copy, not
    /// cloned from it: an upload moves a pointer, not the frame (a
    /// `tiny_cnn` plan at n = 4096 is two keys, ≈0.2 MB).
    HeKeys(Arc<Vec<u8>>),
    /// One phase's serialized ciphertext frame: the client's seeded
    /// `E(r)` up, or the server's mod-switched response down (masked
    /// replica blocks that fold to `W·r − s`).
    HeCts(Vec<u8>),
    /// Cleartext field vector: masked activations, output shares, or — in
    /// the insecure cleartext `LinearMode::Clear` — the raw randomness.
    VecU64(Vec<u64>),
    /// Garbled ReLU tables for one phase: one table set per activation
    /// element (each `(T_G, T_E)` pair is 32 bytes).
    GcTables(Vec<Vec<(Label, Label)>>),
    /// Output-decode bits for one phase (garbler → evaluator when the
    /// evaluator is entitled to the decoded output, i.e. Client-Garbler).
    GcDecode(Vec<Vec<bool>>),
    /// Wire labels (garbler-encoded inputs, or evaluator-returned outputs).
    GcLabels(Vec<Label>),
    /// Base-OT setup (sender's group element).
    OtBaseSetup(SenderSetupMsg),
    /// Base-OT receiver public keys.
    OtBaseChoice(ReceiverChoiceMsg),
    /// Base-OT sender's `r·G` and encrypted payloads.
    OtBaseTransfer(SenderTransferMsg),
    /// IKNP extension matrix.
    OtExtend(ExtendMsg),
    /// IKNP masked label pairs.
    OtTransfer(TransferMsg),
}

impl Msg {
    /// [`Msg::KeyStatus`] flag: the client must upload `HeKeys`.
    pub const NEED_KEYS: u8 = 1;
    /// [`Msg::KeyStatus`] flag: the server holds the pair's IKNP state, the
    /// session skips the three base-OT messages, and `ot_base` follows.
    pub const OT_CACHED: u8 = 2;

    /// Wire-format size in bytes. For HE frames this is the exact length of
    /// the serialized bytes being carried plus an 8-byte length prefix; for
    /// everything else, the analytic binary-encoding size.
    pub fn byte_len(&self) -> usize {
        match self {
            Msg::KeyStatus { flags, .. } if flags & Msg::OT_CACHED != 0 => 1 + 8,
            Msg::KeyStatus { .. } => 1,
            Msg::HeKeys(gk) => 8 + gk.len(),
            Msg::HeCts(frame) => 8 + frame.len(),
            Msg::VecU64(v) => 8 + v.len() * 8,
            Msg::GcTables(circuits) => 8 + circuits.iter().map(|t| 8 + t.len() * 32).sum::<usize>(),
            Msg::GcDecode(bits) => 8 + bits.iter().map(|b| 8 + b.len().div_ceil(8)).sum::<usize>(),
            Msg::GcLabels(labels) => 8 + labels.len() * 16,
            Msg::OtBaseSetup(m) => m.byte_len(),
            Msg::OtBaseChoice(m) => m.byte_len(),
            Msg::OtBaseTransfer(m) => m.byte_len(),
            Msg::OtExtend(m) => 8 + m.byte_len(),
            Msg::OtTransfer(m) => 8 + m.byte_len(),
        }
    }

    /// Short stable name of the message variant, used by
    /// [`crate::error::ProtocolError::UnexpectedMsg`] to report what a
    /// misbehaving peer actually sent.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::KeyStatus { .. } => "KeyStatus",
            Msg::HeKeys(_) => "HeKeys",
            Msg::HeCts(_) => "HeCts",
            Msg::VecU64(_) => "VecU64",
            Msg::GcTables(_) => "GcTables",
            Msg::GcDecode(_) => "GcDecode",
            Msg::GcLabels(_) => "GcLabels",
            Msg::OtBaseSetup(_) => "OtBaseSetup",
            Msg::OtBaseChoice(_) => "OtBaseChoice",
            Msg::OtBaseTransfer(_) => "OtBaseTransfer",
            Msg::OtExtend(_) => "OtExtend",
            Msg::OtTransfer(_) => "OtTransfer",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_and_label_sizes() {
        assert_eq!(Msg::VecU64(vec![0; 10]).byte_len(), 88);
        assert_eq!(Msg::GcLabels(vec![0; 4]).byte_len(), 72);
        assert_eq!(
            Msg::GcTables(vec![vec![(0, 0); 3]; 2]).byte_len(),
            8 + 2 * (8 + 96)
        );
        assert_eq!(Msg::GcDecode(vec![vec![true; 17]]).byte_len(), 8 + 8 + 3);
    }

    #[test]
    fn key_status_carries_its_base_only_when_cached() {
        let status = |flags| Msg::KeyStatus { flags, ot_base: 77 };
        assert_eq!(status(0).byte_len(), 1);
        assert_eq!(status(Msg::NEED_KEYS).byte_len(), 1);
        assert_eq!(status(Msg::OT_CACHED).byte_len(), 9);
        assert_eq!(status(Msg::NEED_KEYS | Msg::OT_CACHED).byte_len(), 9);
    }

    #[test]
    fn he_frames_count_serialized_bytes() {
        assert_eq!(Msg::HeCts(vec![0u8; 100]).byte_len(), 8 + 100);
        assert_eq!(Msg::HeKeys(Arc::new(vec![0u8; 20])).byte_len(), 8 + 20);
    }
}
