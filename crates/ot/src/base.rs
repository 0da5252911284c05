//! Naor–Pinkas 1-out-of-2 base oblivious transfer, in the batched form of
//! the original paper: one sender exponent `r` shared by every transfer.
//!
//! Protocol (semi-honest), over the group `<g>` of [`ModpGroup::oakley2`],
//! for `n` transfers of message pairs `(m_0, m_1)_i` at once:
//!
//! 1. **Sender** samples a random group element `C` (whose discrete log
//!    the receiver does not know) and sends it: [`SenderSetupMsg`], 128 B.
//! 2. **Receiver**, with choice bit `b_i` per transfer, samples `k_i`, sets
//!    `PK_{b_i} = g^{k_i}` and `PK_{1−b_i} = C / g^{k_i}`, and sends every
//!    `PK_0,i`: [`ReceiverChoiceMsg`], 128·n B. The `g^{k_i}` come off the
//!    generator's window table; all `n` quotients share one inversion.
//! 3. **Sender** samples one `r`, computes `g^r` (generator table), `C^r`
//!    (once) and `PK_0,i^r` (one variable-base exponentiation per transfer,
//!    the only per-transfer one in the protocol), and gets every
//!    `PK_1,i^r = C^r / PK_0,i^r` from one batched inversion. It sends
//!    `g^r` once and, per transfer, `e_j = H(PK_j,i^r; i, j) ⊕ m_j`:
//!    [`SenderTransferMsg`], 128 + 32·n B.
//! 4. **Receiver** builds one window table for `g^r`, reads
//!    `(g^r)^{k_i} = PK_{b_i}^r` off it, and recovers
//!    `m_{b_i} = H((g^r)^{k_i}; i, b_i) ⊕ e_{b_i}`.
//!
//! **Security.** The receiver's message is a uniform group element whatever
//! `b_i` is, so the sender learns nothing. The receiver knows the discrete
//! log of at most one of `PK_0,i`, `PK_1,i` (both would give it `log C`),
//! and computing `PK_{1−b_i}^r = C^r / PK_{b_i}^r` from `g^r` and `C`
//! without it is the computational Diffie–Hellman problem; with `H` a
//! random oracle the unchosen pad is then pseudorandom. Sharing `r` across
//! the batch is Naor and Pinkas's own amortization (SODA 2001) and
//! rests on the same CDH-in-the-ROM argument as a fresh `r` per transfer:
//! `r`, `C` and every `k_i` are still fresh per session and full width.
//!
//! **What the hash binds.** With one `r`, two transfers (or the two slots
//! of one) may hash the same group element, so the pad of transfer `i`,
//! slot `j` is bound to `(i, j)` through the hash's tweak, in bits the
//! per-chunk counter cannot reach (`tweak`).
//!
//! The group is 1024-bit MODP (see `pi_field::bignum` for the security
//! caveat). Messages carry `byte_len` for the communication accounting in
//! `pi-core` / `pi-sim`; elements a peer supplies must be range-checked
//! ([`ModpGroup::contains`]) by whoever takes them off the wire — `pi-core`
//! does, in `role.rs`.

use pi_field::{ModpGroup, U1024};
use pi_gc::GcHash;
use rand::Rng;

/// Chunks of 16 bytes in a group element's encoding.
const CHUNKS: usize = 128 / 16;

/// The hash tweak of chunk `chunk` of the element behind slot `slot` of
/// transfer `transfer`. The chunk counter has its own three bits, so no
/// two `(transfer, slot, chunk)` triples share a tweak.
fn tweak(transfer: usize, slot: bool, chunk: usize) -> u64 {
    debug_assert!(chunk < CHUNKS);
    (transfer as u64) << 4 | (slot as u64) << 3 | chunk as u64
}

/// Hashes a group element to the 128-bit pad of slot `slot` of transfer
/// `transfer`, with the fixed-key AES hash in CBC-MAC style over the
/// element's 16-byte chunks.
fn hash_group_element(h: &GcHash, elem: &U1024, transfer: usize, slot: bool) -> u128 {
    let bytes = elem.to_le_bytes();
    let mut acc = 0u128;
    for (j, chunk) in bytes.chunks(16).enumerate() {
        let mut block = [0u8; 16];
        block.copy_from_slice(chunk);
        acc = h.hash(acc ^ u128::from_le_bytes(block), tweak(transfer, slot, j));
    }
    acc
}

/// The sender's first message: the CDH anchor `C`.
#[derive(Clone, Debug)]
pub struct SenderSetupMsg {
    /// The random group element `C`.
    pub c: U1024,
}

impl SenderSetupMsg {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        128
    }
}

/// The receiver's message: `PK_0` for each transfer.
#[derive(Clone, Debug)]
pub struct ReceiverChoiceMsg {
    /// One `PK_0` per transfer.
    pub pk0: Vec<U1024>,
}

impl ReceiverChoiceMsg {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        128 * self.pk0.len()
    }
}

/// The sender's answer: the shared `g^r` and the encrypted payloads.
#[derive(Clone, Debug)]
pub struct SenderTransferMsg {
    /// `g^r`, for the one `r` of this batch.
    pub gr: U1024,
    /// `(e_0, e_1)` per transfer.
    pub items: Vec<(u128, u128)>,
}

impl SenderTransferMsg {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        128 + 16 * 2 * self.items.len()
    }
}

/// Base OT sender state.
#[derive(Debug)]
pub struct BaseOtSender {
    group: &'static ModpGroup,
    c: U1024,
}

impl BaseOtSender {
    /// Creates a sender and its setup message.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> (Self, SenderSetupMsg) {
        let group = ModpGroup::oakley2();
        let (_, c) = group.random_element(rng);
        let msg = SenderSetupMsg { c };
        (Self { group, c }, msg)
    }

    /// Encrypts message pairs against the receiver's public keys, all under
    /// one fresh `r`. Every `choice.pk0` must be a group element
    /// ([`ModpGroup::contains`]): a zero would void the whole batch's
    /// inversion.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() != choice.pk0.len()`.
    pub fn transfer<R: Rng + ?Sized>(
        &self,
        choice: &ReceiverChoiceMsg,
        pairs: &[(u128, u128)],
        rng: &mut R,
    ) -> SenderTransferMsg {
        assert_eq!(pairs.len(), choice.pk0.len(), "transfer count mismatch");
        pi_trace::add(pi_trace::Counter::OtBase, pairs.len() as u64);
        let group = self.group;
        let (r, gr) = group.random_element(rng);
        let cr = group.pow(&self.c, &r);
        let pk0r: Vec<U1024> = choice.pk0.iter().map(|pk0| group.pow(pk0, &r)).collect();
        // PK_1^r = (C / PK_0)^r = C^r · (PK_0^r)^{-1}.
        let pk0r_inv = group.batch_inv(&pk0r);
        let h = GcHash::new();
        let items = pairs
            .iter()
            .zip(pk0r.iter().zip(&pk0r_inv))
            .enumerate()
            .map(|(i, (&(m0, m1), (pk0r, pk0r_inv)))| {
                let pk1r = group.mul(&cr, pk0r_inv);
                let k0 = hash_group_element(&h, pk0r, i, false);
                let k1 = hash_group_element(&h, &pk1r, i, true);
                (m0 ^ k0, m1 ^ k1)
            })
            .collect();
        SenderTransferMsg { gr, items }
    }
}

/// Base OT receiver state.
#[derive(Debug)]
pub struct BaseOtReceiver {
    group: &'static ModpGroup,
    /// Per-transfer secret exponents.
    secrets: Vec<U1024>,
    choices: Vec<bool>,
}

impl BaseOtReceiver {
    /// Builds the receiver's choice message for the given choice bits.
    /// `setup.c` must be a group element ([`ModpGroup::contains`]).
    pub fn choose<R: Rng + ?Sized>(
        setup: &SenderSetupMsg,
        choices: &[bool],
        rng: &mut R,
    ) -> (Self, ReceiverChoiceMsg) {
        Self::choose_iter(setup, choices.iter().copied(), rng)
    }

    /// Like [`BaseOtReceiver::choose`], but for `n ≤ 128` choice bits packed
    /// into `s` (bit `i` of `s` is transfer `i`'s choice). The IKNP setup
    /// feeds its secret column-choice string through here directly, with no
    /// bool-vector round trip.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    pub fn choose_packed<R: Rng + ?Sized>(
        setup: &SenderSetupMsg,
        s: u128,
        n: usize,
        rng: &mut R,
    ) -> (Self, ReceiverChoiceMsg) {
        assert!(n <= 128, "at most 128 packed choices, got {n}");
        Self::choose_iter(setup, (0..n).map(|i| (s >> i) & 1 == 1), rng)
    }

    fn choose_iter<R: Rng + ?Sized>(
        setup: &SenderSetupMsg,
        choice_bits: impl Iterator<Item = bool>,
        rng: &mut R,
    ) -> (Self, ReceiverChoiceMsg) {
        let group = ModpGroup::oakley2();
        let choices: Vec<bool> = choice_bits.collect();
        let (secrets, gk): (Vec<U1024>, Vec<U1024>) =
            choices.iter().map(|_| group.random_element(rng)).unzip();
        // Every C / g^k is computed, chosen or not: the work done must not
        // depend on the choice bits.
        let pk0 = (choices.iter().zip(&gk).zip(group.batch_inv(&gk)))
            .map(|((&b, gk), gk_inv)| {
                let other = group.mul(&setup.c, &gk_inv);
                if b {
                    other
                } else {
                    *gk
                }
            })
            .collect();
        (
            Self {
                group,
                secrets,
                choices,
            },
            ReceiverChoiceMsg { pk0 },
        )
    }

    /// Decrypts the chosen message of each transfer. `msg.gr` must be a
    /// group element ([`ModpGroup::contains`]).
    ///
    /// # Panics
    ///
    /// Panics if the transfer count differs from the choice count.
    pub fn receive(&self, msg: &SenderTransferMsg) -> Vec<u128> {
        assert_eq!(
            msg.items.len(),
            self.choices.len(),
            "transfer count mismatch"
        );
        let h = GcHash::new();
        let gr = self.group.fixed_base(&msg.gr);
        (msg.items.iter().zip(&self.secrets).zip(&self.choices))
            .enumerate()
            .map(|(i, ((&(e0, e1), k), &b))| {
                let pad = hash_group_element(&h, &self.group.pow_fixed(&gr, k), i, b);
                pad ^ if b { e1 } else { e0 }
            })
            .collect()
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
        let choices = vec![false, true, true, false];
        let (receiver, choice_msg) = BaseOtReceiver::choose(&setup, &choices, &mut rng);
        let pairs: Vec<(u128, u128)> = (0..4).map(|i| (100 + i as u128, 200 + i as u128)).collect();
        let transfer = sender.transfer(&choice_msg, &pairs, &mut rng);
        let got = receiver.receive(&transfer);
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
            let (receiver, choice_msg) = BaseOtReceiver::choose_packed(&setup, s, 128, &mut rng);
            let transfer = sender.transfer(&choice_msg, &pairs, &mut rng);
            let want: Vec<u128> = (pairs.iter().enumerate())
                .map(|(i, &(m0, m1))| if (s >> i) & 1 == 1 { m1 } else { m0 })
                .collect();
            assert_eq!(receiver.receive(&transfer), want);
        }
    }

    #[test]
    fn unchosen_message_stays_hidden() {
        // Everything the receiver can derive from the shared g^r and its own
        // secrets — its pad under either slot binding, or another transfer's
        // pad — fails to open the unchosen slot (sanity check of the CDH
        // structure and of the hash's (transfer, slot) binding).
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (receiver, choice_msg) = BaseOtReceiver::choose(&setup, &[false, true], &mut rng);
        let transfer = sender.transfer(&choice_msg, &[(7, 13), (7, 13)], &mut rng);
        let h = GcHash::new();
        let group = receiver.group;
        let own: Vec<U1024> = (receiver.secrets.iter())
            .map(|k| group.pow(&transfer.gr, k))
            .collect();
        let (_, e1) = transfer.items[0];
        for elem in &own {
            for i in 0..2 {
                for slot in [false, true] {
                    assert_ne!(e1 ^ hash_group_element(&h, elem, i, slot), 13u128);
                }
            }
        }
        // The chosen ones decrypt fine.
        assert_eq!(receiver.receive(&transfer), vec![7, 13]);
    }

    #[test]
    fn equal_messages_encrypt_differently_in_every_slot() {
        // One r covers the batch, so the pads must differ through the group
        // elements and the (transfer, slot) tweak, never through r.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (_, choice_msg) = BaseOtReceiver::choose(&setup, &[false; 4], &mut rng);
        let transfer = sender.transfer(&choice_msg, &[(5, 5); 4], &mut rng);
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
        let (_, m0) = BaseOtReceiver::choose(&setup, &[false], &mut rng);
        let (_, m1) = BaseOtReceiver::choose(&setup, &[true], &mut rng);
        assert_ne!(m0.pk0[0], m1.pk0[0]);
        // Either way it is a group element, and PK_0 · PK_1 = C holds for
        // the pair the receiver built.
        let group = ModpGroup::oakley2();
        let (r, m) = BaseOtReceiver::choose(&setup, &[true, false], &mut rng);
        for (pk0, (k, &b)) in m.pk0.iter().zip(r.secrets.iter().zip(&r.choices)) {
            assert!(group.contains(pk0));
            let pk1 = group.mul(&setup.c, &group.inv(pk0));
            assert_eq!(group.pow_g(k), if b { pk1 } else { *pk0 });
        }
    }

    #[test]
    fn byte_lengths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        assert_eq!(setup.byte_len(), 128);
        let (_, choice_msg) = BaseOtReceiver::choose(&setup, &[true; 8], &mut rng);
        assert_eq!(choice_msg.byte_len(), 8 * 128);
        let transfer = sender.transfer(&choice_msg, &[(0, 0); 8], &mut rng);
        assert_eq!(transfer.byte_len(), 128 + 32 * 8);
        let empty = SenderTransferMsg {
            gr: transfer.gr,
            items: Vec::new(),
        };
        assert_eq!(empty.byte_len(), 128);
    }

    #[test]
    #[should_panic]
    fn mismatched_pair_count_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let (sender, setup) = BaseOtSender::new(&mut rng);
        let (_, choice_msg) = BaseOtReceiver::choose(&setup, &[true, false], &mut rng);
        sender.transfer(&choice_msg, &[(0, 0)], &mut rng);
    }
}
