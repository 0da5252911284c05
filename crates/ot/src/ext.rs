//! IKNP oblivious-transfer extension (semi-honest), packed-bit hot path.
//!
//! 128 base OTs (with the roles *reversed*) bootstrap an unbounded number of
//! extended OTs that cost only symmetric-key operations:
//!
//! * Setup: the extension **sender** plays base-OT *receiver* with a random
//!   128-bit choice string `s`, obtaining one seed per column; the extension
//!   **receiver** plays base-OT *sender* with random seed pairs.
//! * Extension: the receiver expands both seeds of every column `i` with a
//!   PRG and sends `u_i = G(k_i^0) ⊕ G(k_i^1) ⊕ x` (`x` = its choice bits).
//!   The sender forms `q_i = G(k_i^{s_i}) ⊕ s_i·u_i`, so row `j` satisfies
//!   `q_j = t_j ⊕ x_j·s`.
//! * Transfer: the sender masks `m_j^0` with `H(j, q_j)` and `m_j^1` with
//!   `H(j, q_j ⊕ s)`; the receiver unmasks its chosen message with
//!   `H(j, t_j)`.
//!
//! # Packed representation
//!
//! Every bit of the `m × 128` matrix lives in a `u128` word (see
//! [`crate::bitmat`] for the LSB-first ordering invariant): choices are a
//! [`BitVec`], a matrix column is `⌈m/128⌉` words, and the PRG expansion
//! `G(seed)` writes raw AES-CTR blocks straight into column words — word
//! `w` of a column built at block `b` *is* `E_seed(b + w)`, bit-identical
//! to the bit-at-a-time
//! `reference::prg_bits` stream. Column-major work (extension) is
//! word-wide XOR; the row-major view (`t_j`/`q_j`) comes from the blocked
//! `crate::bitmat::transpose128`; transfer masks are derived 8 rows per
//! batched [`GcHash::kdf8`] call. The seed bool-matrix implementation is
//! retained, bit for bit, in [`reference`](mod@reference) as the differential oracle —
//! and `PI_AES=soft` additionally pins the packed path's AES to the scalar
//! software oracle.
//!
//! # Split across cores
//!
//! [`OtExtReceiver::extend_at`], [`OtExtSender::transfer_at`] and
//! [`OtExtReceiver::decode`] of at least [`GRAIN`] transfers cut their
//! 128-row blocks into [`par::threads`] contiguous runs through
//! [`par::map_ranges`]; a smaller extension runs on the calling thread.
//! A run needs nothing from the others: it expands every column's PRG
//! over its own words only (AES-CTR seeks to `block + w`), transposes
//! its own 128-row blocks, and derives its rows' masks with the global
//! row index as the tweak — 32 words at a time, so its working set is a
//! few 64 KB buffers whatever its length. The parts' words and rows are
//! spliced back in order, so every message and key is the one-thread
//! kernel's, bit for bit. `ot.extended` is counted once per call, on the
//! calling thread; the PRG's `aes.blocks` by each run, on the thread that
//! expands (the split carries the request's trace scope to it).
//!
//! # Stream position
//!
//! `G(seed)` is one AES-CTR stream per seed, and the base phase buys the
//! right to read it for as long as both parties agree where they are in
//! it. An extension of `m` transfers at block `b` reads blocks
//! `b..b + blocks(m)` of every column's stream
//! ([`OtExtReceiver::extend_at`] / [`OtExtSender::transfer_at`]; the
//! position-less [`OtExtReceiver::extend`] / [`OtExtSender::transfer`] are
//! block 0). **No block may be expanded twice under one setup**: two
//! extensions over the same blocks send `u ⊕ u' = x ⊕ x'` — a two-time pad
//! over the receiver's choice bits — and repeat the transfer pads wherever
//! choices repeat. The callers keep the position (`pi-core`: a cursor per
//! session inside a range the server allots per client pair).

use crate::base::{BaseOtReceiver, BaseOtSender};
use crate::bitmat::{columns_to_rows, BitVec};
use pi_gc::{Aes128, GcHash};
use pi_trace::par;
use rand::Rng;
use std::ops::Range;

/// Security parameter: number of base OTs / matrix columns.
pub const KAPPA: usize = 128;

/// PRG blocks (one 128-bit AES-CTR block per 128 rows of a column) an
/// extension of `transfers` OTs reads from every seed's stream — how far it
/// moves the stream position.
pub fn blocks(transfers: usize) -> u64 {
    transfers.div_ceil(128) as u64
}

/// A column's PRG `G(seed)`: AES-CTR under the seed.
fn prg(seed: u128) -> Aes128 {
    Aes128::new(seed.to_le_bytes())
}

/// Fills `out` with the PRG's packed stream from word `first` of an
/// extension at `block` on: word `w` is `E_seed(block + w)` (AES-CTR
/// seeks), and bit `n` of the stream is bit `n` of
/// `reference::prg_bits`.
fn expand(prg: &Aes128, block: u64, first: usize, out: &mut [u128]) {
    prg.ctr_keystream(u128::from(block) + first as u128, out);
}

/// Extensions of fewer transfers than this run on the calling thread;
/// larger ones split across [`par::threads`] contiguous runs of 128-row
/// blocks (see the module docs). On a 2-vCPU host (AES-NI) a two-way split
/// at 8 192 OTs runs transfer and decode 1.2× faster but extend 0.85×; at
/// 16 384, 1.3× and 1.5× with extend level; at 163 840, 1.4–1.7×, 1.5×
/// and 1.15–1.25×. Extend gains least: splicing its parts' column words
/// back into whole columns runs on the calling thread.
pub const GRAIN: usize = 16384;

/// Maps the 128-row blocks (words) of an `m`-transfer extension through
/// `f`, split across cores from [`GRAIN`] transfers on.
fn split_words<T: Send>(m: usize, f: impl Fn(Range<usize>) -> T + Sync) -> Vec<T> {
    par::map_ranges(m.div_ceil(128), par::width(m, GRAIN), f)
}

/// Words a kernel expands, transposes and masks at a time: one 32-block
/// AES batch per column, 4096 rows. A part's working set is then a few
/// 64 KB buffers however long it is, not whole columns, which a helper
/// thread would allocate fresh on every call (measured 8 and 64 words:
/// 8 slows extend by a third, 64 gains nothing over 32).
const GROUP: usize = 32;

/// `words` in runs of at most [`GROUP`].
fn groups(words: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = words.end;
    words.step_by(GROUP).map(move |g| g..(g + GROUP).min(end))
}

/// The live rows of `m` a range of 128-row blocks covers.
fn block_rows(words: &Range<usize>, m: usize) -> Range<usize> {
    128 * words.start..(128 * words.end).min(m)
}

/// How many of `whole` items a part's output buffer over `words` reserves:
/// its own `own`, except the first part's, whose buffer becomes the whole
/// output once the later parts are appended — reserved in full, so
/// splicing copies only the later parts and never reallocates.
fn part_capacity(words: &Range<usize>, own: usize, whole: usize) -> usize {
    if words.start == 0 {
        whole
    } else {
        own
    }
}

/// Sender-side outcome of the base phase: the secret column-choice string
/// `s` and one seed per column.
#[derive(Clone, Debug)]
pub struct SenderSetup {
    /// The 128 secret choice bits, packed.
    pub s: u128,
    /// Seed `k_i^{s_i}` per column.
    pub seeds: Vec<u128>,
}

/// Receiver-side outcome of the base phase: both seeds of every column.
#[derive(Clone, Debug)]
pub struct ReceiverSetup {
    /// Seed pairs `(k_i^0, k_i^1)` per column.
    pub seed_pairs: Vec<(u128, u128)>,
}

/// Runs the base phase in process (both parties local). Real deployments
/// move the three base-OT messages over the network; `pi-core` does exactly
/// that with its channels. The sender's packed choice string feeds the
/// base OT directly — no bool-vector round trip.
pub fn setup_in_process<R: Rng + ?Sized>(rng: &mut R) -> (SenderSetup, ReceiverSetup) {
    let seed_pairs: Vec<(u128, u128)> = (0..KAPPA).map(|_| (rng.gen(), rng.gen())).collect();
    let s: u128 = rng.gen();

    // Extension-sender plays base-OT receiver.
    let (base_sender, setup_msg) = BaseOtSender::new(rng);
    // Both parties are this function: nothing they exchange can be refused.
    let honest = "honest base-OT peer";
    let (base_receiver, choice_msg) =
        BaseOtReceiver::choose_packed(&setup_msg, s, KAPPA, rng).expect(honest);
    let transfer = (base_sender.transfer(&choice_msg, &seed_pairs, rng)).expect(honest);
    let seeds = base_receiver.receive(&transfer).expect(honest);

    (SenderSetup { s, seeds }, ReceiverSetup { seed_pairs })
}

/// The receiver's extension message: one packed column of `u` bits per base
/// OT (column-major, `num_transfers` bits each, `⌈num_transfers/128⌉`
/// words; bits past `num_transfers` in the last word are zero).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtendMsg {
    /// `u_i` columns, each `num_transfers` bits packed into `u128` words.
    pub u_columns: Vec<Vec<u128>>,
    /// Number of transfers (rows).
    pub num_transfers: usize,
}

impl ExtendMsg {
    /// Serialized size in bytes: each column carries `num_transfers` live
    /// bits on the wire (byte-padded), independent of the in-memory word
    /// padding.
    pub fn byte_len(&self) -> usize {
        self.u_columns.len() * self.num_transfers.div_ceil(8)
    }
}

/// The sender's masked message pairs.
#[derive(Clone, Debug)]
pub struct TransferMsg {
    /// `(y_j^0, y_j^1)` per transfer.
    pub pairs: Vec<(u128, u128)>,
}

impl TransferMsg {
    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        32 * self.pairs.len()
    }
}

/// Derives the transfer masks `H(j, x_j)` of the rows `j` in `rows` in
/// batches of 8 rows per AES call; `x` yields the mask input per row
/// index. The tweak is the global row index, so a range's masks are those
/// rows' masks in any split.
fn kdf_rows(h: &GcHash, rows: Range<usize>, x: impl Fn(usize) -> u128) -> Vec<u128> {
    let mut out = Vec::with_capacity(rows.len());
    let mut j = rows.start;
    while j < rows.end {
        let w = (rows.end - j).min(8);
        let mut xs = [0u128; 8];
        let mut idx = [0u64; 8];
        for t in 0..w {
            xs[t] = x(j + t);
            idx[t] = (j + t) as u64;
        }
        let ks = h.kdf8(xs, idx);
        out.extend_from_slice(&ks[..w]);
        j += w;
    }
    out
}

/// OT-extension sender: holds message pairs, learns nothing about choices.
#[derive(Clone, Debug)]
pub struct OtExtSender {
    setup: SenderSetup,
}

impl OtExtSender {
    /// Wraps a completed base phase.
    pub fn new(setup: SenderSetup) -> Self {
        assert_eq!(setup.seeds.len(), KAPPA, "need exactly {KAPPA} base seeds");
        Self { setup }
    }

    /// Heap and inline bytes this state occupies (what a cache of it
    /// meters).
    pub fn resident_byte_len(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&self.setup.seeds[..])
    }

    /// [`Self::transfer_at`] block 0: the only extension of a setup, or its
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if the message's transfer count differs from `pairs.len()`.
    pub fn transfer(&self, msg: &ExtendMsg, pairs: &[(u128, u128)]) -> TransferMsg {
        self.transfer_at(0, msg, pairs)
    }

    /// Produces masked pairs for `pairs.len()` transfers given the
    /// receiver's extension message, which it built at stream position
    /// `block` (see the module docs: no block twice under one setup).
    ///
    /// # Panics
    ///
    /// Panics if the message's transfer count differs from `pairs.len()`.
    pub fn transfer_at(&self, block: u64, msg: &ExtendMsg, pairs: &[(u128, u128)]) -> TransferMsg {
        let m = pairs.len();
        assert_eq!(msg.num_transfers, m, "extension rows must match pair count");
        assert_eq!(msg.u_columns.len(), KAPPA, "need {KAPPA} u columns");
        let (s, words) = (self.setup.s, m.div_ceil(128));
        for (i, u) in msg.u_columns.iter().enumerate() {
            if (s >> i) & 1 == 1 {
                assert_eq!(u.len(), words, "column {i} word count");
            }
        }
        let prgs: Vec<Aes128> = self.setup.seeds.iter().map(|&k| prg(k)).collect();
        let parts = split_words(m, |w| {
            // One PRG block per column per word.
            pi_trace::add(pi_trace::Counter::AesBlocks, (KAPPA * w.len()) as u64);
            let h = GcHash::new();
            let mut q_columns = [[0u128; GROUP]; KAPPA];
            let mut out = Vec::with_capacity(part_capacity(&w, block_rows(&w, m).len(), m));
            for g in groups(w) {
                // Column-major: q_i = G(k_i^{s_i}) ^ s_i * u_i, one XOR per
                // word.
                for (i, (prg, q)) in prgs.iter().zip(&mut q_columns).enumerate() {
                    let q = &mut q[..g.len()];
                    expand(prg, block, g.start, q);
                    if (s >> i) & 1 == 1 {
                        for (q, &u) in q.iter_mut().zip(&msg.u_columns[i][g.clone()]) {
                            *q ^= u;
                        }
                    }
                }
                // Row-major view via the blocked transpose, then batched
                // masking.
                let q_rows = columns_to_rows(&q_columns, g.len());
                let rows = block_rows(&g, m);
                let q = |j: usize| q_rows[j - rows.start];
                let k0 = kdf_rows(&h, rows.clone(), q);
                let k1 = kdf_rows(&h, rows.clone(), |j| q(j) ^ s);
                let masked = pairs[rows].iter().zip(k0).zip(k1);
                out.extend(masked.map(|((&(m0, m1), k0), k1)| (m0 ^ k0, m1 ^ k1)));
            }
            out
        });
        TransferMsg {
            pairs: par::concat(parts),
        }
    }
}

/// OT-extension receiver: holds choice bits, learns exactly one message per
/// transfer.
#[derive(Clone, Debug)]
pub struct OtExtReceiver {
    setup: ReceiverSetup,
}

impl OtExtReceiver {
    /// Wraps a completed base phase.
    pub fn new(setup: ReceiverSetup) -> Self {
        assert_eq!(
            setup.seed_pairs.len(),
            KAPPA,
            "need exactly {KAPPA} base seed pairs"
        );
        Self { setup }
    }

    /// Heap and inline bytes this state occupies (what a cache of it
    /// meters).
    pub fn resident_byte_len(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&self.setup.seed_pairs[..])
    }

    /// [`Self::extend_at`] block 0: the only extension of a setup, or its
    /// first. (The extension draws no randomness; `_rng` is unused.)
    pub fn extend<R: Rng + ?Sized>(
        &self,
        choices: &BitVec,
        _rng: &mut R,
    ) -> (ExtendMsg, Vec<u128>) {
        self.extend_at(0, choices)
    }

    /// Builds the extension message for the given packed choice bits from
    /// stream position `block` on (see the module docs: no block twice
    /// under one setup; this call reads [`blocks`]`(choices.len())` of
    /// them) and returns it together with the per-transfer decode keys
    /// `t_j` (kept locally).
    pub fn extend_at(&self, block: u64, choices: &BitVec) -> (ExtendMsg, Vec<u128>) {
        let m = choices.len();
        let words = m.div_ceil(128);
        // Batch-boundary accounting.
        pi_trace::add(pi_trace::Counter::OtExtended, m as u64);
        // Zero bits past m in the last word so the wire message matches the
        // reference oracle exactly (BitVec guarantees its own tail is zero).
        let tail_mask = if m.is_multiple_of(128) {
            u128::MAX
        } else {
            (1u128 << (m % 128)) - 1
        };
        let prgs: Vec<(Aes128, Aes128)> = (self.setup.seed_pairs.iter())
            .map(|&(k0, k1)| (prg(k0), prg(k1)))
            .collect();
        let parts = split_words(m, |w| {
            // Two PRG blocks per column per word.
            pi_trace::add(pi_trace::Counter::AesBlocks, (2 * KAPPA * w.len()) as u64);
            let column = || Vec::with_capacity(part_capacity(&w, w.len(), words));
            let mut u_columns: Vec<Vec<u128>> = (0..KAPPA).map(|_| column()).collect();
            let mut t_rows = Vec::with_capacity(part_capacity(&w, 128 * w.len(), 128 * words));
            let (mut t_columns, mut g1) = ([[0u128; GROUP]; KAPPA], [0u128; GROUP]);
            for g in groups(w.clone()) {
                let x = &choices.words()[g.clone()];
                for ((p0, p1), (u, g0)) in prgs.iter().zip(u_columns.iter_mut().zip(&mut t_columns))
                {
                    let (g0, g1) = (&mut g0[..g.len()], &mut g1[..g.len()]);
                    expand(p0, block, g.start, g0);
                    expand(p1, block, g.start, g1);
                    u.extend(g0.iter().zip(&*g1).zip(x).map(|((g0, g1), x)| g0 ^ g1 ^ x));
                }
                t_rows.extend(columns_to_rows(&t_columns, g.len()));
            }
            if w.end == words {
                for u in &mut u_columns {
                    if let Some(last) = u.last_mut() {
                        *last &= tail_mask;
                    }
                }
            }
            (u_columns, t_rows)
        });
        // Each part holds its words of every column: splice them back into
        // whole columns, in order.
        let mut parts = parts.into_iter();
        let (mut u_columns, mut t_rows) = parts.next().expect("a split has a part");
        for (u, t) in parts {
            for (column, segment) in u_columns.iter_mut().zip(u) {
                column.extend(segment);
            }
            t_rows.extend(t);
        }
        t_rows.truncate(m);
        (
            ExtendMsg {
                u_columns,
                num_transfers: m,
            },
            t_rows,
        )
    }

    /// Unmasks the chosen messages.
    ///
    /// # Panics
    ///
    /// Panics if counts disagree.
    pub fn decode(&self, msg: &TransferMsg, choices: &BitVec, t_rows: &[u128]) -> Vec<u128> {
        assert_eq!(msg.pairs.len(), choices.len(), "transfer count mismatch");
        assert_eq!(t_rows.len(), choices.len(), "key count mismatch");
        let m = choices.len();
        let parts = split_words(m, |w| {
            let h = GcHash::new();
            let mut out = Vec::with_capacity(part_capacity(&w, block_rows(&w, m).len(), m));
            for g in groups(w) {
                let rows = block_rows(&g, m);
                let keys = kdf_rows(&h, rows.clone(), |j| t_rows[j]);
                out.extend(rows.zip(keys).map(|(j, key)| {
                    let (y0, y1) = msg.pairs[j];
                    let y = if choices.get(j) { y1 } else { y0 };
                    y ^ key
                }));
            }
            out
        });
        par::concat(parts)
    }
}

/// The seed bool-matrix implementation, retained bit for bit as the
/// differential oracle for the packed hot path. Every function here
/// produces/consumes the *same* message types as the packed path (columns
/// are packed only at the message boundary), runs one bit per loop
/// iteration, and hashes one row per scalar AES call — the
/// `gc_ot_differential` suite asserts exact agreement, and the benches use
/// it as the seed baseline.
pub mod reference {
    use super::{ExtendMsg, ReceiverSetup, SenderSetup, TransferMsg, KAPPA};
    use pi_gc::{Aes128, GcHash};

    /// Bit-at-a-time PRG: expands a 128-bit seed into `n` bits from stream
    /// position `block` on (AES-CTR, scalar path).
    pub(crate) fn prg_bits(seed: u128, block: u64, n: usize) -> Vec<bool> {
        let aes = Aes128::new(seed.to_le_bytes());
        let mut bits = Vec::with_capacity(n);
        let mut counter = u128::from(block);
        while bits.len() < n {
            let block = aes.encrypt_u128(counter);
            counter += 1;
            for b in 0..128 {
                if bits.len() == n {
                    break;
                }
                bits.push((block >> b) & 1 == 1);
            }
        }
        bits
    }

    fn pack_column(bits: &[bool]) -> Vec<u128> {
        let mut out = vec![0u128; bits.len().div_ceil(128)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                out[i / 128] |= 1u128 << (i % 128);
            }
        }
        out
    }

    fn unpack_bit(words: &[u128], i: usize) -> bool {
        (words[i / 128] >> (i % 128)) & 1 == 1
    }

    /// Bool-path extension (receiver side) at stream position `block`.
    pub fn extend(setup: &ReceiverSetup, block: u64, choices: &[bool]) -> (ExtendMsg, Vec<u128>) {
        let m = choices.len();
        let mut t_rows = vec![0u128; m];
        let mut u_columns = Vec::with_capacity(KAPPA);
        for i in 0..KAPPA {
            let (k0, k1) = setup.seed_pairs[i];
            let g0 = prg_bits(k0, block, m);
            let g1 = prg_bits(k1, block, m);
            let u: Vec<bool> = (0..m).map(|j| g0[j] ^ g1[j] ^ choices[j]).collect();
            u_columns.push(pack_column(&u));
            for (j, &g_bit) in g0.iter().enumerate() {
                if g_bit {
                    t_rows[j] |= 1u128 << i;
                }
            }
        }
        (
            ExtendMsg {
                u_columns,
                num_transfers: m,
            },
            t_rows,
        )
    }

    /// Bool-path transfer (sender side) at stream position `block`.
    pub fn transfer(
        setup: &SenderSetup,
        block: u64,
        msg: &ExtendMsg,
        pairs: &[(u128, u128)],
    ) -> TransferMsg {
        let m = pairs.len();
        assert_eq!(msg.num_transfers, m, "extension rows must match pair count");
        assert_eq!(msg.u_columns.len(), KAPPA, "need {KAPPA} u columns");
        let h = GcHash::new();
        let mut q_rows = vec![0u128; m];
        for i in 0..KAPPA {
            let s_i = (setup.s >> i) & 1 == 1;
            let col = prg_bits(setup.seeds[i], block, m);
            for (j, &g_bit) in col.iter().enumerate() {
                let bit = g_bit ^ (s_i && unpack_bit(&msg.u_columns[i], j));
                if bit {
                    q_rows[j] |= 1u128 << i;
                }
            }
        }
        let out = pairs
            .iter()
            .enumerate()
            .map(|(j, &(m0, m1))| {
                let y0 = m0 ^ h.kdf(q_rows[j], j as u64);
                let y1 = m1 ^ h.kdf(q_rows[j] ^ setup.s, j as u64);
                (y0, y1)
            })
            .collect();
        TransferMsg { pairs: out }
    }

    /// Bool-path decode (receiver side).
    pub fn decode(msg: &TransferMsg, choices: &[bool], t_rows: &[u128]) -> Vec<u128> {
        assert_eq!(msg.pairs.len(), choices.len(), "transfer count mismatch");
        assert_eq!(t_rows.len(), choices.len(), "key count mismatch");
        let h = GcHash::new();
        msg.pairs
            .iter()
            .enumerate()
            .map(|(j, &(y0, y1))| {
                let y = if choices[j] { y1 } else { y0 };
                y ^ h.kdf(t_rows[j], j as u64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (OtExtSender, OtExtReceiver, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let (s, r) = setup_in_process(&mut rng);
        (OtExtSender::new(s), OtExtReceiver::new(r), rng)
    }

    #[test]
    fn end_to_end_many_transfers() {
        let (sender, receiver, mut rng) = setup();
        use rand::Rng;
        let m = 500;
        let choices = {
            let mut v = BitVec::zeros(0);
            for _ in 0..m {
                v.push(rng.gen());
            }
            v
        };
        let pairs: Vec<(u128, u128)> = (0..m).map(|_| (rng.gen(), rng.gen())).collect();
        let (u_msg, keys) = receiver.extend(&choices, &mut rng);
        let y_msg = sender.transfer(&u_msg, &pairs);
        let got = receiver.decode(&y_msg, &choices, &keys);
        for j in 0..m {
            let expect = if choices.get(j) {
                pairs[j].1
            } else {
                pairs[j].0
            };
            assert_eq!(got[j], expect, "transfer {j}");
        }
    }

    #[test]
    fn packed_path_matches_reference_oracle() {
        // The packed extension/transfer must reproduce the seed bool-matrix
        // implementation bit for bit — messages, keys and decode output —
        // wherever in the stream the extension sits: the sizes run back to
        // back from block 0, then again from a far position.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1FF);
        let (s_setup, r_setup) = setup_in_process(&mut rng);
        let sender = OtExtSender::new(s_setup.clone());
        let receiver = OtExtReceiver::new(r_setup.clone());
        use rand::Rng;
        for start in [0u64, (1 << 40) + 3] {
            let mut block = start;
            for m in [0usize, 1, 7, 64, 127, 128, 129, 500] {
                let bools: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
                let packed = BitVec::from_bools(&bools);
                let pairs: Vec<(u128, u128)> = (0..m).map(|_| (rng.gen(), rng.gen())).collect();

                let (u_fast, t_fast) = receiver.extend_at(block, &packed);
                let (u_ref, t_ref) = reference::extend(&r_setup, block, &bools);
                assert_eq!(u_fast, u_ref, "extend msg m={m} block={block}");
                assert_eq!(t_fast, t_ref, "t rows m={m} block={block}");

                let y_fast = sender.transfer_at(block, &u_fast, &pairs);
                let y_ref = reference::transfer(&s_setup, block, &u_ref, &pairs);
                assert_eq!(y_fast.pairs, y_ref.pairs, "transfer m={m} block={block}");

                let got_fast = receiver.decode(&y_fast, &packed, &t_fast);
                let got_ref = reference::decode(&y_ref, &bools, &t_ref);
                assert_eq!(got_fast, got_ref, "decode m={m} block={block}");
                for (j, &got) in got_fast.iter().enumerate() {
                    let want = if bools[j] { pairs[j].1 } else { pairs[j].0 };
                    assert_eq!(got, want, "chosen message m={m} block={block} j={j}");
                }
                block += blocks(m);
            }
        }
    }

    #[test]
    fn successive_extensions_of_one_setup_share_no_prg_block() {
        // One session extends once per ReLU phase on the same seeds. With
        // the PRG restarted at block 0 each time, u ⊕ u' = x ⊕ x' in every
        // column — the receiver's choice bits under a two-time pad — and
        // every t row repeats. At the positions a session uses (each
        // extension starts where the last one ended) neither happens.
        let (_, receiver, mut rng) = setup();
        use rand::Rng;
        let m = 384;
        let random_choices = |rng: &mut rand::rngs::StdRng| {
            BitVec::from_bools(&(0..m).map(|_| rng.gen()).collect::<Vec<bool>>())
        };
        let (x1, x2) = (random_choices(&mut rng), random_choices(&mut rng));
        let (u1, t1) = receiver.extend_at(0, &x1);
        let (u2, t2) = receiver.extend_at(blocks(m), &x2);
        let xor = |a: &[u128], b: &[u128]| -> Vec<u128> {
            a.iter().zip(b).map(|(&a, &b)| a ^ b).collect()
        };
        let x_xor = xor(x1.words(), x2.words());
        for (i, (c1, c2)) in u1.u_columns.iter().zip(&u2.u_columns).enumerate() {
            assert_ne!(xor(c1, c2), x_xor, "column {i} is a two-time pad");
        }
        let seen: std::collections::HashSet<u128> = t1.iter().copied().collect();
        assert_eq!(seen.len(), m, "t rows of one extension are distinct");
        assert!(t2.iter().all(|t| !seen.contains(t)), "a t row repeats");
        // The position-less call is block 0.
        assert_eq!(receiver.extend(&x1, &mut rng), (u1, t1));
    }

    #[test]
    fn unchosen_messages_unrecoverable_with_wrong_key() {
        let (sender, receiver, mut rng) = setup();
        let choices = BitVec::from_bools(&[false]);
        let pairs = vec![(42u128, 77u128)];
        let (u_msg, keys) = receiver.extend(&choices, &mut rng);
        let y_msg = sender.transfer(&u_msg, &pairs);
        // Decoding position 1 with the receiver's t key gives garbage.
        let h = GcHash::new();
        let wrong = y_msg.pairs[0].1 ^ h.kdf(keys[0], 0);
        assert_ne!(wrong, 77u128);
    }

    #[test]
    fn empty_extension_is_fine() {
        let (sender, receiver, mut rng) = setup();
        let (u_msg, keys) = receiver.extend(&BitVec::zeros(0), &mut rng);
        let y_msg = sender.transfer(&u_msg, &[]);
        assert!(receiver.decode(&y_msg, &BitVec::zeros(0), &keys).is_empty());
    }

    #[test]
    fn message_sizes() {
        let (sender, receiver, mut rng) = setup();
        let m = 64;
        let choices = BitVec::from_bools(&vec![true; m]);
        let pairs = vec![(0u128, 1u128); m];
        let (u_msg, keys) = receiver.extend(&choices, &mut rng);
        assert_eq!(u_msg.byte_len(), KAPPA * (m / 8));
        let y_msg = sender.transfer(&u_msg, &pairs);
        assert_eq!(y_msg.byte_len(), 32 * m);
        let _ = keys;
    }

    #[test]
    fn prg_packed_matches_bit_stream() {
        for (seed, n) in [(5u128, 300usize), (6, 300), (7, 128), (8, 1)] {
            for block in [0u64, 9] {
                let bits = reference::prg_bits(seed, block, n);
                let mut words = vec![0; n.div_ceil(128)];
                expand(&prg(seed), block, 0, &mut words);
                for (i, &b) in bits.iter().enumerate() {
                    assert_eq!((words[i / 128] >> (i % 128)) & 1 == 1, b, "bit {i}");
                }
            }
        }
        assert_eq!(
            reference::prg_bits(5, 0, 300),
            reference::prg_bits(5, 0, 300)
        );
        assert_ne!(
            reference::prg_bits(5, 0, 300),
            reference::prg_bits(6, 0, 300)
        );
        // The stream is one stream: block 1 on is the tail of block 0 on,
        // and a word range is those words of it.
        assert_eq!(
            reference::prg_bits(5, 1, 172),
            reference::prg_bits(5, 0, 300)[128..]
        );
        let (mut whole, mut tail) = ([0; 5], [0; 3]);
        expand(&prg(5), 9, 0, &mut whole);
        expand(&prg(5), 9, 2, &mut tail);
        assert_eq!(tail, whole[2..]);
    }

    #[test]
    #[should_panic]
    fn mismatched_counts_rejected() {
        let (sender, receiver, mut rng) = setup();
        let (u_msg, _) = receiver.extend(&BitVec::from_bools(&[true, false]), &mut rng);
        sender.transfer(&u_msg, &[(0, 0)]);
    }
}
