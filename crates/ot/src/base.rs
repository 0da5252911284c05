//! Naor–Pinkas 1-out-of-2 base oblivious transfer, in the batched form of
//! the original paper: one sender scalar `r` shared by every transfer.
//!
//! Protocol (semi-honest), over the prime-order subgroup `<G>` of
//! edwards25519 (`curve.rs`; written additively here — the `gr` of the
//! field names is `r·G`), for `n` transfers of message pairs `(m_0, m_1)_i`
//! at once:
//!
//! 1. **Sender** samples a random group element `C` (whose discrete log
//!    the receiver does not know) and sends it: [`SenderSetupMsg`], 32 B.
//! 2. **Receiver**, with choice bit `b_i` per transfer, samples `k_i`, sets
//!    `PK_{b_i} = k_i·G` and `PK_{1−b_i} = C − k_i·G`, and sends every
//!    `PK_0,i`: [`ReceiverChoiceMsg`], 32·n B. The `k_i·G` come off the
//!    base point's window table; all `n` encodings share one inversion.
//! 3. **Sender** samples one `r`, computes `r·G` (base table), `r·C`
//!    (once) and `r·PK_0,i` (one variable-base multiplication per transfer,
//!    the only per-transfer one in the protocol), and gets every
//!    `r·PK_1,i = r·C − r·PK_0,i` by one point subtraction; all `2n`
//!    encodings share one inversion. It sends `r·G` once and, per transfer,
//!    `e_j = H(r·PK_j,i; i, j) ⊕ m_j`: [`SenderTransferMsg`], 32 + 32·n B.
//! 4. **Receiver** builds one window table for `r·G`, reads
//!    `k_i·(r·G) = r·PK_{b_i}` off it, and recovers
//!    `m_{b_i} = H(k_i·(r·G); i, b_i) ⊕ e_{b_i}`.
//!
//! **Cost**, in field multiplications (≈20 ns each) per transfer: the
//! sender's variable-base multiplication is 256 doublings and ≤64 additions,
//! ≈2 700, plus ≈270 to decode `PK_0,i` (one square root); the receiver's
//! two table reads are ≤64 additions each, ≈1 000 together. For `n` = 128:
//! 32 + 32·128 + (32 + 32·128) = 8 256 B on the wire.
//!
//! **Split across cores.** Each of the three per-transfer loops — the
//! sender's decode of `PK_0,i`, `r·PK_0,i` and `r·C − r·PK_0,i`; the
//! receiver's `k_i·G` and `C − k_i·G`; its `k_i·(r·G)` — runs in
//! [`par::threads`] contiguous runs of transfers through
//! [`par::map_ranges`] from [`GRAIN`] transfers on. Each run encodes its
//! own points (one shared inversion per run) and hashes them with their
//! global transfer index. Every scalar (`r`, each `k_i`) is drawn on the
//! calling thread before the split, and `r·G`, `r·C` and the receiver's
//! table for `r·G` are built there, so every message and every received
//! seed is the one-thread one, bit for bit. At `n` = 128, one thread vs a
//! two-way split on a 2-vCPU host (`pi-bench`'s `ot` bench,
//! `csv,par_ab,base_ot_*`): transfer 13.1 → 6.8 ms, choose 2.6 → 1.5 ms,
//! receive 2.9 → 1.8 ms.
//!
//! **Security.** The receiver's message is a uniform group element whatever
//! `b_i` is, so the sender learns nothing. The receiver knows the discrete
//! log of at most one of `PK_0,i`, `PK_1,i` (both would give it `log C`),
//! and computing `r·PK_{1−b_i} = r·C − r·PK_{b_i}` from `r·G` and `C`
//! without it is the computational Diffie–Hellman problem; with `H` a
//! random oracle the unchosen pad is then pseudorandom. Sharing `r` across
//! the batch is Naor and Pinkas's own amortization (SODA 2001) and
//! rests on the same CDH-in-the-ROM argument as a fresh `r` per transfer:
//! `r`, `C` and every `k_i` are still fresh per session and full width.
//! The group has ≈2²⁵² elements: ≈126 bits against generic discrete-log
//! attacks, level with the 128-bit labels the OTs seed.
//!
//! **What a peer's point may be.** Every secret scalar is `8·k′` for a
//! uniform 252-bit `k′`: a multiple of the curve's cofactor, so a
//! small-order component in a peer's point vanishes from every product and
//! every hashed point lies in the prime-order subgroup. Points are decoded —
//! and so validated — inside the calls below, which return
//! [`BaseOtError::BadPoint`] for a non-canonical encoding, a `y` off the
//! curve or a point of small order, whichever run of a split it falls in
//! (the sender has drawn its `r` by then; a refused batch is never
//! answered); the receiver also refuses a `C`
//! outside the prime-order subgroup (one multiplication by `ℓ` per
//! session), because `PK_0 = C − k·G` is a sum, not a product, and would
//! carry `C`'s torsion to the sender.
//!
//! **What the hash binds.** With one `r`, two transfers (or the two slots
//! of one) may hash the same group element, so the pad of transfer `i`,
//! slot `j` is bound to `(i, j)` through the hash's tweak, in bits the
//! per-chunk counter cannot reach (`tweak`).
//!
//! Nothing here is constant-time. Messages carry `byte_len` for the
//! communication accounting in `pi-core` / `pi-sim`.

use crate::curve::{base_table, Point, Scalar, Table};
use pi_gc::GcHash;
use pi_trace::par;
use rand::Rng;
use std::ops::Range;

/// Chunks of 16 bytes in a group element's encoding.
const CHUNKS: usize = 32 / 16;

/// Why a base-OT step refused its peer's message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseOtError {
    /// A point is not the canonical encoding of a curve point of order
    /// above 8 — or, for `C`, lies outside the prime-order subgroup.
    BadPoint,
    /// The message does not hold one entry per transfer.
    CountMismatch,
}

impl BaseOtError {
    /// The refusal in words.
    pub fn as_str(self) -> &'static str {
        match self {
            BaseOtError::BadPoint => "base-OT point does not decode",
            BaseOtError::CountMismatch => "base-OT transfer count mismatch",
        }
    }
}

impl std::fmt::Display for BaseOtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for BaseOtError {}

/// Batches of fewer transfers than this run on the calling thread; larger
/// ones split their per-transfer work across [`par::threads`] contiguous
/// runs (see the module docs). The protocol's batch is always 128. On a
/// 2-vCPU host a two-way split of the sender's transfer gains from 8
/// transfers on (1.3× at 8, 1.4× at 16, 1.8× at 32), but the receiver's
/// two loops, whose per-transfer work is a fifth of the sender's, lose
/// below 16 and gain or tie from 32 on.
pub const GRAIN: usize = 32;

/// Maps the transfers `0..n` through `f`, split across cores from
/// [`GRAIN`] transfers on.
fn split_transfers<T: Send>(n: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    par::map_ranges(n, par::width(n, GRAIN), f)
}

fn decode(bytes: &[u8; 32]) -> Result<Point, BaseOtError> {
    Point::decode(bytes).ok_or(BaseOtError::BadPoint)
}

/// The hash tweak of chunk `chunk` of the element behind slot `slot` of
/// transfer `transfer`. The chunk counter has its own three bits, so no
/// two `(transfer, slot, chunk)` triples share a tweak.
fn tweak(transfer: usize, slot: bool, chunk: usize) -> u64 {
    debug_assert!(chunk < CHUNKS);
    (transfer as u64) << 4 | (slot as u64) << 3 | chunk as u64
}

/// Hashes an encoded group element to the 128-bit pad of slot `slot` of
/// transfer `transfer`, with the fixed-key AES hash in CBC-MAC style over
/// the encoding's 16-byte chunks.
fn hash_group_element(h: &GcHash, elem: &[u8; 32], transfer: usize, slot: bool) -> u128 {
    let mut acc = 0u128;
    for (j, chunk) in elem.chunks_exact(16).enumerate() {
        let block = u128::from_le_bytes(chunk.try_into().expect("16-byte chunk"));
        acc = h.hash(acc ^ block, tweak(transfer, slot, j));
    }
    acc
}

/// The sender's first message: the CDH anchor `C`.
#[derive(Clone, Debug)]
pub struct SenderSetupMsg {
    /// The random group element `C`, compressed.
    pub c: [u8; 32],
}

impl SenderSetupMsg {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        32
    }
}

/// The receiver's message: `PK_0` for each transfer.
#[derive(Clone, Debug)]
pub struct ReceiverChoiceMsg {
    /// One compressed `PK_0` per transfer.
    pub pk0: Vec<[u8; 32]>,
}

impl ReceiverChoiceMsg {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        32 * self.pk0.len()
    }
}

/// The sender's answer: the shared `r·G` and the encrypted payloads.
#[derive(Clone, Debug)]
pub struct SenderTransferMsg {
    /// `r·G`, compressed, for the one `r` of this batch.
    pub gr: [u8; 32],
    /// `(e_0, e_1)` per transfer.
    pub items: Vec<(u128, u128)>,
}

impl SenderTransferMsg {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        32 + 16 * 2 * self.items.len()
    }
}

/// Base OT sender state.
#[derive(Debug)]
pub struct BaseOtSender {
    c: Point,
}

impl BaseOtSender {
    /// Creates a sender and its setup message.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> (Self, SenderSetupMsg) {
        let c = base_table().mul(&Scalar::random(rng));
        let msg = SenderSetupMsg { c: c.encode() };
        (Self { c }, msg)
    }

    /// Encrypts message pairs against the receiver's public keys, all under
    /// one fresh `r`. Fails on a `PK_0` that does not decode, or if there
    /// is not one per pair.
    pub fn transfer<R: Rng + ?Sized>(
        &self,
        choice: &ReceiverChoiceMsg,
        pairs: &[(u128, u128)],
        rng: &mut R,
    ) -> Result<SenderTransferMsg, BaseOtError> {
        if pairs.len() != choice.pk0.len() {
            return Err(BaseOtError::CountMismatch);
        }
        let r = Scalar::random(rng);
        let gr = base_table().mul(&r).encode();
        let cr = self.c.mul(&r);
        let parts = split_transfers(pairs.len(), |run| {
            let pk0 =
                (choice.pk0[run.clone()].iter().map(decode)).collect::<Result<Vec<Point>, _>>()?;
            // r·PK_1 = r·(C − PK_0) = r·C − r·PK_0.
            let shared: Vec<Point> = (pk0.iter())
                .flat_map(|pk0| {
                    let pk0r = pk0.mul(&r);
                    [pk0r, cr.sub(&pk0r)]
                })
                .collect();
            let h = GcHash::new();
            let pads = (run.zip(Point::encode_batch(&shared).chunks_exact(2)))
                .map(|(i, shared)| {
                    let k0 = hash_group_element(&h, &shared[0], i, false);
                    let k1 = hash_group_element(&h, &shared[1], i, true);
                    let (m0, m1) = pairs[i];
                    (m0 ^ k0, m1 ^ k1)
                })
                .collect();
            Ok(pads)
        });
        let items = par::concat(parts.into_iter().collect::<Result<_, _>>()?);
        pi_trace::add(pi_trace::Counter::OtBase, pairs.len() as u64);
        Ok(SenderTransferMsg { gr, items })
    }
}

/// Base OT receiver state.
#[derive(Debug)]
pub struct BaseOtReceiver {
    /// Per-transfer secret scalars.
    secrets: Vec<Scalar>,
    choices: Vec<bool>,
}

impl BaseOtReceiver {
    /// Builds the receiver's choice message for `n ≤ 128` choice bits
    /// packed into `s` (bit `i` of `s` is transfer `i`'s choice): the IKNP
    /// setup's secret column-choice string. Fails on a `setup.c` that does
    /// not decode into the prime-order subgroup.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    pub fn choose_packed<R: Rng + ?Sized>(
        setup: &SenderSetupMsg,
        s: u128,
        n: usize,
        rng: &mut R,
    ) -> Result<(Self, ReceiverChoiceMsg), BaseOtError> {
        assert!(n <= 128, "at most 128 packed choices, got {n}");
        let c = decode(&setup.c)?;
        if !c.is_torsion_free() {
            return Err(BaseOtError::BadPoint);
        }
        let choices: Vec<bool> = (0..n).map(|i| (s >> i) & 1 == 1).collect();
        let secrets: Vec<Scalar> = choices.iter().map(|_| Scalar::random(rng)).collect();
        let parts = split_transfers(choices.len(), |run| {
            // Every C − k·G is computed, chosen or not: the work done must
            // not depend on the choice bits.
            let pk0: Vec<Point> = (choices[run.clone()].iter().zip(&secrets[run]))
                .map(|(&b, k)| {
                    let gk = base_table().mul(k);
                    let other = c.sub(&gk);
                    if b {
                        other
                    } else {
                        gk
                    }
                })
                .collect();
            Point::encode_batch(&pk0)
        });
        let pk0 = par::concat(parts);
        Ok((Self { secrets, choices }, ReceiverChoiceMsg { pk0 }))
    }

    /// Decrypts the chosen message of each transfer. Fails on a `msg.gr`
    /// that does not decode, or if there is not one item per choice.
    pub fn receive(&self, msg: &SenderTransferMsg) -> Result<Vec<u128>, BaseOtError> {
        if msg.items.len() != self.choices.len() {
            return Err(BaseOtError::CountMismatch);
        }
        let gr = Table::new(&decode(&msg.gr)?);
        let parts = split_transfers(self.choices.len(), |run| {
            let shared: Vec<Point> = self.secrets[run.clone()]
                .iter()
                .map(|k| gr.mul(k))
                .collect();
            let h = GcHash::new();
            (run.zip(Point::encode_batch(&shared)))
                .map(|(i, shared)| {
                    let (e0, e1) = msg.items[i];
                    let b = self.choices[i];
                    hash_group_element(&h, &shared, i, b) ^ if b { e1 } else { e0 }
                })
                .collect()
        });
        Ok(par::concat(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn correct_message_received() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (receiver, choice_msg) =
            BaseOtReceiver::choose_packed(&setup, 0b0110, 4, &mut rng).unwrap();
        let pairs: Vec<(u128, u128)> = (0..4).map(|i| (100 + i as u128, 200 + i as u128)).collect();
        let transfer = sender.transfer(&choice_msg, &pairs, &mut rng).unwrap();
        let got = receiver.receive(&transfer).unwrap();
        assert_eq!(got, vec![100, 201, 202, 103]);
    }

    #[test]
    fn full_batches_deliver_exactly_the_chosen_seeds() {
        // The IKNP setup's shape: 128 transfers under a packed choice string.
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for _ in 0..2 {
            let s: u128 = rng.gen();
            let pairs: Vec<(u128, u128)> = (0..128).map(|_| (rng.gen(), rng.gen())).collect();
            let (sender, setup) = BaseOtSender::new(&mut rng);
            let (receiver, choice_msg) =
                BaseOtReceiver::choose_packed(&setup, s, 128, &mut rng).unwrap();
            let transfer = sender.transfer(&choice_msg, &pairs, &mut rng).unwrap();
            let want: Vec<u128> = (pairs.iter().enumerate())
                .map(|(i, &(m0, m1))| if (s >> i) & 1 == 1 { m1 } else { m0 })
                .collect();
            assert_eq!(receiver.receive(&transfer).unwrap(), want);
        }
    }

    /// One 128-transfer base OT from a fixed seed: every message, the
    /// received seeds and the next draw of the RNG both parties shared.
    fn batch_at(threads: usize) -> (ReceiverChoiceMsg, SenderTransferMsg, Vec<u128>, u64) {
        par::with_threads(threads, || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(18);
            let s: u128 = rng.gen();
            let pairs: Vec<(u128, u128)> = (0..128).map(|_| (rng.gen(), rng.gen())).collect();
            let (sender, setup) = BaseOtSender::new(&mut rng);
            let (receiver, choice) =
                BaseOtReceiver::choose_packed(&setup, s, 128, &mut rng).unwrap();
            let transfer = sender.transfer(&choice, &pairs, &mut rng).unwrap();
            let seeds = receiver.receive(&transfer).unwrap();
            let want: Vec<u128> = (pairs.iter().enumerate())
                .map(|(i, &(m0, m1))| if (s >> i) & 1 == 1 { m1 } else { m0 })
                .collect();
            assert_eq!(seeds, want, "width {threads}");
            (choice, transfer, seeds, rng.gen())
        })
    }

    #[test]
    fn a_split_changes_no_message_no_seed_and_no_draw() {
        let (choice, transfer, seeds, next) = batch_at(1);
        for t in [2, 3] {
            let (c, x, s, n) = batch_at(t);
            assert_eq!(c.pk0, choice.pk0, "width {t}");
            assert_eq!(
                (x.gr, &x.items),
                (transfer.gr, &transfer.items),
                "width {t}"
            );
            assert_eq!((s, n), (seeds.clone(), next), "width {t}");
        }
    }

    /// The encoding of `P + (0, −1)` from that of `P = (x, y)`, `x ≠ 0`:
    /// `(−x, −y)`, a point of order `2ℓ` when `P` has order `ℓ`.
    fn plus_order_2(enc: &[u8; 32]) -> [u8; 32] {
        let mut minus_y = crate::curve::Fe::from_bytes(enc).neg().to_bytes();
        minus_y[31] |= !enc[31] & 0x80;
        minus_y
    }

    #[test]
    fn every_run_of_a_split_checks_its_points() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (_, choice) = BaseOtReceiver::choose_packed(&setup, u128::MAX, 128, &mut rng).unwrap();
        let identity = {
            let mut enc = [0u8; 32];
            enc[0] = 1;
            enc
        };
        let mixed_c = plus_order_2(&setup.c);
        assert!(!decode(&mixed_c).unwrap().is_torsion_free());
        for t in [1, 2, 3] {
            par::with_threads(t, || {
                // The last transfer is in the last run at every width.
                for bad in [identity, [0xff; 32]] {
                    let mut tampered = choice.clone();
                    tampered.pk0[127] = bad;
                    let got = sender.transfer(&tampered, &[(0, 0); 128], &mut rng);
                    assert_eq!(got.unwrap_err(), BaseOtError::BadPoint, "width {t}");
                }
                let mixed = SenderSetupMsg { c: mixed_c };
                let refused = BaseOtReceiver::choose_packed(&mixed, u128::MAX, 128, &mut rng);
                assert_eq!(refused.unwrap_err(), BaseOtError::BadPoint, "width {t}");
            });
        }
    }

    #[test]
    fn unchosen_message_stays_hidden() {
        // Everything the receiver can derive from the shared r·G and its own
        // secrets — its pad under either slot binding, or another transfer's
        // pad — fails to open the unchosen slot (sanity check of the CDH
        // structure and of the hash's (transfer, slot) binding).
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (receiver, choice_msg) =
            BaseOtReceiver::choose_packed(&setup, 0b10, 2, &mut rng).unwrap();
        let transfer = (sender.transfer(&choice_msg, &[(7, 13), (7, 13)], &mut rng)).unwrap();
        let h = GcHash::new();
        let gr = decode(&transfer.gr).unwrap();
        let (_, e1) = transfer.items[0];
        for elem in receiver.secrets.iter().map(|k| gr.mul(k).encode()) {
            for i in 0..2 {
                for slot in [false, true] {
                    assert_ne!(e1 ^ hash_group_element(&h, &elem, i, slot), 13u128);
                }
            }
        }
        // The chosen ones decrypt fine.
        assert_eq!(receiver.receive(&transfer), Ok(vec![7, 13]));
    }

    #[test]
    fn equal_messages_encrypt_differently_in_every_slot() {
        // One r covers the batch, so the pads must differ through the group
        // elements and the (transfer, slot) tweak, never through r.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (_, choice_msg) = BaseOtReceiver::choose_packed(&setup, 0, 4, &mut rng).unwrap();
        let transfer = sender
            .transfer(&choice_msg, &[(5, 5); 4], &mut rng)
            .unwrap();
        let mut pads: Vec<u128> = transfer.items.iter().flat_map(|&(a, b)| [a, b]).collect();
        pads.sort_unstable();
        pads.dedup();
        assert_eq!(pads.len(), 8);
    }

    #[test]
    fn hash_tweaks_do_not_collide_across_transfers_slots_or_chunks() {
        let mut tweaks: Vec<u64> = (0..128)
            .flat_map(|i| [false, true].map(|slot| (i, slot)))
            .flat_map(|(i, slot)| (0..CHUNKS).map(move |j| tweak(i, slot, j)))
            .collect();
        tweaks.sort_unstable();
        tweaks.dedup();
        assert_eq!(tweaks.len(), 128 * 2 * CHUNKS);
    }

    #[test]
    fn choice_bits_not_visible_in_message() {
        // PK_0 distributions for b=0 and b=1 are both uniform group elements;
        // structurally, the message must not simply echo the choice.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let (_, setup) = BaseOtSender::new(&mut rng);
        let (_, m0) = BaseOtReceiver::choose_packed(&setup, 0, 1, &mut rng).unwrap();
        let (_, m1) = BaseOtReceiver::choose_packed(&setup, 1, 1, &mut rng).unwrap();
        assert_ne!(m0.pk0[0], m1.pk0[0]);
        // Either way it is a group element, and PK_0 + PK_1 = C holds for
        // the pair the receiver built.
        let c = decode(&setup.c).unwrap();
        let (r, m) = BaseOtReceiver::choose_packed(&setup, 0b01, 2, &mut rng).unwrap();
        for (pk0, (k, &b)) in m.pk0.iter().zip(r.secrets.iter().zip(&r.choices)) {
            let pk1 = c.sub(&decode(pk0).unwrap()).encode();
            assert_eq!(base_table().mul(k).encode(), if b { pk1 } else { *pk0 });
        }
    }

    #[test]
    fn byte_lengths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        assert_eq!(setup.byte_len(), 32);
        let (_, choice_msg) = BaseOtReceiver::choose_packed(&setup, 0xff, 8, &mut rng).unwrap();
        assert_eq!(choice_msg.byte_len(), 8 * 32);
        let transfer = sender
            .transfer(&choice_msg, &[(0, 0); 8], &mut rng)
            .unwrap();
        assert_eq!(transfer.byte_len(), 32 + 32 * 8);
        let empty = SenderTransferMsg {
            gr: transfer.gr,
            items: Vec::new(),
        };
        assert_eq!(empty.byte_len(), 32);
    }

    #[test]
    fn mismatched_pair_count_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (receiver, choice_msg) =
            BaseOtReceiver::choose_packed(&setup, 0b01, 2, &mut rng).unwrap();
        let short = sender.transfer(&choice_msg, &[(0, 0)], &mut rng);
        assert_eq!(short.unwrap_err(), BaseOtError::CountMismatch);
        let mut transfer = sender
            .transfer(&choice_msg, &[(0, 0); 2], &mut rng)
            .unwrap();
        transfer.items.pop();
        assert_eq!(receiver.receive(&transfer), Err(BaseOtError::CountMismatch));
    }
}
