//! FreeXOR + HalfGates garbling and evaluation (Zahur–Rosulek–Evans).
//!
//! The garbler assigns each wire `w` a pair of 128-bit labels
//! `(W⁰, W¹ = W⁰ ⊕ Δ)` for a circuit-global `Δ` with `lsb(Δ) = 1`
//! (point-and-permute). XOR gates are free; each AND gate produces two
//! ciphertexts (32 bytes) and costs the evaluator two hash calls.
//!
//! # Batched kernels
//!
//! [`garble`] and [`evaluate`] run one instance and are the oracles.
//! [`garble_many`] and [`evaluate_many`] — what the protocol runs, one
//! instance per ReLU of a phase — produce the same bits at AES rate:
//!
//! * **Wire-major lanes.** A chunk of 8 instances keeps one `[Label; 8]`
//!   per wire in one buffer, reused for every chunk. A gate operand is a
//!   single contiguous load, and a free gate is one 8-lane XOR.
//! * **One AES call per gate.** An AND gate hashes every block it needs for
//!   the whole chunk — 4×8 when garbling, 2×8 when evaluating — in one
//!   [`GcHash::hash_many`] call, which the AES backend runs as one batch;
//!   on AES-NI the hash's doubling, tweak and feed-forward run inside that
//!   batch, in registers.
//! * **Tables written once.** Each instance's tables are pushed straight
//!   into its own `Vec`, sized up front. The protocol's garbler then moves
//!   them out of its [`Garbling`]s to send them rather than cloning them,
//!   and keeps only the input encodings and output decode bits.
//! * **Outputs written once.** [`evaluate_many_with`] writes every
//!   instance's output labels into one instance-major `Vec`: the first
//!   part of a split reserves it whole and the later parts are appended
//!   ([`par::concat`]). [`evaluate_many`] cuts it into per-instance
//!   vectors for callers that want them.
//! * **Split across cores.** A call of at least [`GRAIN`] instances is cut
//!   by [`par::map_ranges`] into [`par::threads`] contiguous runs of whole
//!   chunks, one per core; a smaller one runs on the calling thread. Every
//!   instance is independent and its randomness is drawn on the calling
//!   thread before the split, so no bit depends on the split. Gate counts
//!   are made once per call, on the calling thread; `aes.blocks` by each
//!   run, on the thread that hashes (the split carries the request's
//!   trace scope to it).

use crate::aes::GcHash;
use crate::circuit::{Circuit, Gate};
use pi_trace::par;
use rand::Rng;
use std::ops::Range;

/// A 128-bit wire label.
pub type Label = u128;

/// The garbler's secrets for a circuit: per-input zero-labels and the global
/// offset `Δ`. Knowing these, any input bit can be encoded as a label.
#[derive(Clone, Debug)]
pub struct InputEncoding {
    /// Zero-label of each input wire.
    pub label0: Vec<Label>,
    /// Global FreeXOR offset (lsb = 1).
    pub delta: Label,
}

impl InputEncoding {
    /// Encodes one input bit at position `i`.
    pub fn encode_bit(&self, i: usize, bit: bool) -> Label {
        self.label0[i] ^ if bit { self.delta } else { 0 }
    }

    /// Encodes a slice of input bits starting at `offset`.
    pub fn encode_bits(&self, offset: usize, bits: &[bool]) -> Vec<Label> {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| self.encode_bit(offset + i, b))
            .collect()
    }

    /// Appends the labels of `value`'s `width` little-endian bits on inputs
    /// `offset..offset + width` to `out`: [`Self::encode_bits`] of
    /// [`to_bits`](crate::circuit::to_bits)`(value, width)`, with neither
    /// vector built.
    pub fn encode_into(&self, offset: usize, value: u64, width: usize, out: &mut Vec<Label>) {
        let bit = |b: usize| (value >> b) & 1 == 1;
        out.extend((0..width).map(|b| self.encode_bit(offset + b, bit(b))));
    }

    /// Returns the `(zero, one)` label pair for input `i` — what the OT
    /// sender feeds into the transfer.
    pub fn label_pair(&self, i: usize) -> (Label, Label) {
        (self.label0[i], self.label0[i] ^ self.delta)
    }
}

/// The transmitted garbled circuit: one 32-byte table per AND gate plus one
/// decode bit per output wire.
#[derive(Clone, Debug)]
pub struct GarbledCircuit {
    /// `(T_G, T_E)` ciphertext pairs, in AND-gate order.
    pub tables: Vec<(Label, Label)>,
    /// `lsb(C⁰)` per output wire, used to decode output labels to bits.
    pub output_decode: Vec<bool>,
}

impl GarbledCircuit {
    /// Decodes output labels into cleartext bits.
    ///
    /// # Panics
    ///
    /// Panics if the number of labels differs from the number of outputs.
    pub fn decode_outputs(&self, labels: &[Label]) -> Vec<bool> {
        assert_eq!(
            labels.len(),
            self.output_decode.len(),
            "output arity mismatch"
        );
        labels
            .iter()
            .zip(&self.output_decode)
            .map(|(&l, &d)| ((l & 1) != 0) ^ d)
            .collect()
    }
}

/// Everything the garbler produces for one circuit.
#[derive(Clone, Debug)]
pub struct Garbling {
    /// The material sent to the evaluator.
    pub garbled: GarbledCircuit,
    /// The garbler-retained input encoding.
    pub encoding: InputEncoding,
    /// Zero-labels of the output wires (lets the garbler decode outputs it
    /// receives back, or re-share them).
    pub output_label0: Vec<Label>,
}

/// Garbles a circuit with fresh randomness.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> Garbling {
    let hash = GcHash::new();
    let delta: Label = rng.gen::<u128>() | 1;
    let mut label0 = vec![0u128; circuit.num_wires];
    for l in label0.iter_mut().take(circuit.num_inputs) {
        *l = rng.gen();
    }
    let mut tables = Vec::with_capacity(circuit.and_count());
    let mut gate_index = 0u64;
    for g in &circuit.gates {
        match *g {
            Gate::Xor { a, b, out } => {
                label0[out] = label0[a] ^ label0[b];
            }
            Gate::Not { a, out } => {
                // Pass-through label; semantics flip via delta.
                label0[out] = label0[a] ^ delta;
            }
            Gate::And { a, b, out } => {
                let j0 = 2 * gate_index;
                let j1 = 2 * gate_index + 1;
                gate_index += 1;
                let a0 = label0[a];
                let a1 = a0 ^ delta;
                let b0 = label0[b];
                let b1 = b0 ^ delta;
                let pa = a0 & 1 != 0;
                let pb = b0 & 1 != 0;
                // The gate's four hashes as one pipelined batch.
                let [ha0, ha1, hb0, hb1] = hash.hash4([a0, a1, b0, b1], [j0, j0, j1, j1]);
                // Garbler half gate: computes a & pb.
                let tg = ha0 ^ ha1 ^ if pb { delta } else { 0 };
                let wg0 = ha0 ^ if pa { tg } else { 0 };
                // Evaluator half gate: computes a & (b ^ pb).
                let te = hb0 ^ hb1 ^ a0;
                let we0 = hb0 ^ if pb { te ^ a0 } else { 0 };
                label0[out] = wg0 ^ we0;
                tables.push((tg, te));
            }
        }
    }
    let output_decode = circuit
        .outputs
        .iter()
        .map(|&o| label0[o] & 1 != 0)
        .collect();
    let output_label0 = circuit.outputs.iter().map(|&o| label0[o]).collect();
    Garbling {
        garbled: GarbledCircuit {
            tables,
            output_decode,
        },
        encoding: InputEncoding {
            label0: label0[..circuit.num_inputs].to_vec(),
            delta,
        },
        output_label0,
    }
}

/// Instances garbled or evaluated side by side: one lane each.
const LANES: usize = 8;

/// One wire's labels across the lanes of a chunk.
type Lanes = [Label; LANES];

#[inline]
fn xor_lanes(x: &Lanes, y: &Lanes) -> Lanes {
    core::array::from_fn(|t| x[t] ^ y[t])
}

/// All ones if `label`'s permute bit is set, else zero: a select without a
/// branch on a bit that is random per gate and instance.
#[inline]
fn permute_mask(label: Label) -> Label {
    0u128.wrapping_sub(label & 1)
}

/// Writes one instance's input labels into lane `t` of the wire-major
/// buffer.
///
/// # Panics
///
/// Panics unless `input` yields exactly one label per input wire.
fn load_lane(
    lanes: &mut [Lanes],
    num_inputs: usize,
    t: usize,
    input: impl IntoIterator<Item = Label>,
) {
    let mut input = input.into_iter();
    for wire in &mut lanes[..num_inputs] {
        wire[t] = input.next().expect("input label count mismatch");
    }
    assert!(input.next().is_none(), "input label count mismatch");
}

/// The instances `0..n` a range of 8-instance chunks covers: the split
/// unit of the batched kernels, so only the last part has a short chunk.
fn chunk_instances(chunks: Range<usize>, n: usize) -> Range<usize> {
    chunks.start * LANES..(chunks.end * LANES).min(n)
}

/// Phases of fewer instances than this garble and evaluate on the calling
/// thread; larger ones split across [`par::threads`] contiguous runs of
/// 8-instance chunks (see the module docs). On a 2-vCPU host (AES-NI, the
/// protocol's 133-AND ReLU) a two-way split garbles 128 instances 1.55×
/// and 256 instances 1.84× faster, and evaluates them 1.42× and 1.51×
/// faster: 256 is the smallest size measured where both gain 1.5×.
pub const GRAIN: usize = 256;

/// Garbles `n` independent instances of one circuit in lockstep, 8 at a
/// time, wire-major (see the module docs). An AND gate's hash batch is the
/// runs `a⁰, a¹, b⁰, b¹`, each as long as the chunk.
///
/// Randomness is drawn instance-major (each instance's `Δ` then its input
/// labels), all of it on the calling thread before any split, so the
/// result is **bit-for-bit identical** to calling [`garble`] `n` times
/// with the same `rng` — the batched path is a drop-in replacement, and
/// that equality is a structural differential test.
pub fn garble_many<R: Rng + ?Sized>(circuit: &Circuit, n: usize, rng: &mut R) -> Vec<Garbling> {
    // Batch-boundary accounting, never per gate or per hash.
    pi_trace::add(
        pi_trace::Counter::GcAndGarbled,
        (n * circuit.and_count()) as u64,
    );
    let encodings: Vec<InputEncoding> = (0..n)
        .map(|_| {
            let delta = rng.gen::<u128>() | 1;
            let label0 = (0..circuit.num_inputs).map(|_| rng.gen()).collect();
            InputEncoding { label0, delta }
        })
        .collect();
    let parts = par::map_ranges(n.div_ceil(LANES), par::width(n, GRAIN), |chunks| {
        garble_chunks(circuit, &encodings[chunk_instances(chunks, n)])
    });
    let garbled = parts.into_iter().flatten();
    (encodings.into_iter().zip(garbled))
        .map(|(encoding, (garbled, output_label0))| Garbling {
            garbled,
            encoding,
            output_label0,
        })
        .collect()
}

/// [`garble_many`]'s kernel over one run of instances, given their input
/// encodings: each instance's garbled circuit and output zero-labels.
fn garble_chunks(
    circuit: &Circuit,
    encodings: &[InputEncoding],
) -> Vec<(GarbledCircuit, Vec<Label>)> {
    // Half-gates garbling hashes 4 AES blocks per AND instance.
    let blocks = 4 * encodings.len() * circuit.and_count();
    pi_trace::add(pi_trace::Counter::AesBlocks, blocks as u64);
    let hash = GcHash::new();
    let mut out = Vec::with_capacity(encodings.len());
    let mut lanes = vec![[0; LANES]; circuit.num_wires];
    let (mut x, mut tweak, mut h) = ([0; 4 * LANES], [0; 4 * LANES], [0; 4 * LANES]);
    for chunk in encodings.chunks(LANES) {
        let w = chunk.len();
        // Idle lanes of a short tail chunk carry Δ = 0 and stale labels;
        // nothing reads them.
        let mut delta = [0; LANES];
        for (t, e) in chunk.iter().enumerate() {
            load_lane(&mut lanes, circuit.num_inputs, t, e.label0.iter().copied());
            delta[t] = e.delta;
        }
        let mut tables: Vec<Vec<(Label, Label)>> = (0..w)
            .map(|_| Vec::with_capacity(circuit.and_count()))
            .collect();
        let mut gate_index = 0u64;
        for g in &circuit.gates {
            match *g {
                Gate::Xor { a, b, out } => lanes[out] = xor_lanes(&lanes[a], &lanes[b]),
                Gate::Not { a, out } => lanes[out] = xor_lanes(&lanes[a], &delta),
                Gate::And { a, b, out } => {
                    let (a0, b0) = (lanes[a], lanes[b]);
                    for t in 0..w {
                        x[t] = a0[t];
                        x[w + t] = a0[t] ^ delta[t];
                        x[2 * w + t] = b0[t];
                        x[3 * w + t] = b0[t] ^ delta[t];
                    }
                    tweak[..2 * w].fill(2 * gate_index);
                    tweak[2 * w..4 * w].fill(2 * gate_index + 1);
                    gate_index += 1;
                    hash.hash_many(&x[..4 * w], &tweak[..4 * w], &mut h[..4 * w]);
                    let mut c = [0; LANES];
                    for (t, tab) in tables.iter_mut().enumerate() {
                        let (ha0, ha1, hb0, hb1) = (h[t], h[w + t], h[2 * w + t], h[3 * w + t]);
                        let (pa, pb) = (permute_mask(a0[t]), permute_mask(b0[t]));
                        // Garbler half gate: computes a & pb.
                        let tg = ha0 ^ ha1 ^ (pb & delta[t]);
                        let wg0 = ha0 ^ (pa & tg);
                        // Evaluator half gate: computes a & (b ^ pb).
                        let te = hb0 ^ hb1 ^ a0[t];
                        let we0 = hb0 ^ (pb & (hb0 ^ hb1));
                        c[t] = wg0 ^ we0;
                        tab.push((tg, te));
                    }
                    lanes[out] = c;
                }
            }
        }
        for (t, tables) in tables.into_iter().enumerate() {
            let outputs = circuit.outputs.iter().map(|&o| lanes[o][t]);
            let output_decode = outputs.clone().map(|l| l & 1 != 0).collect();
            out.push((
                GarbledCircuit {
                    tables,
                    output_decode,
                },
                outputs.collect(),
            ));
        }
    }
    out
}

/// Evaluates a garbled circuit on input labels, returning output labels.
///
/// # Panics
///
/// Panics if `input_labels.len() != circuit.num_inputs` or the table count
/// does not match the circuit's AND count.
pub fn evaluate(circuit: &Circuit, garbled: &GarbledCircuit, input_labels: &[Label]) -> Vec<Label> {
    assert_eq!(
        input_labels.len(),
        circuit.num_inputs,
        "input label count mismatch"
    );
    assert_eq!(
        garbled.tables.len(),
        circuit.and_count(),
        "garbled table count mismatch"
    );
    let hash = GcHash::new();
    let mut labels = vec![0u128; circuit.num_wires];
    labels[..input_labels.len()].copy_from_slice(input_labels);
    let mut gate_index = 0u64;
    let mut table_iter = garbled.tables.iter();
    for g in &circuit.gates {
        match *g {
            Gate::Xor { a, b, out } => labels[out] = labels[a] ^ labels[b],
            Gate::Not { a, out } => labels[out] = labels[a],
            Gate::And { a, b, out } => {
                let (tg, te) = *table_iter.next().expect("table count verified");
                let j0 = 2 * gate_index;
                let j1 = 2 * gate_index + 1;
                gate_index += 1;
                let la = labels[a];
                let lb = labels[b];
                let sa = la & 1 != 0;
                let sb = lb & 1 != 0;
                let [hla, hlb] = hash.hash2([la, lb], [j0, j1]);
                let wg = hla ^ if sa { tg } else { 0 };
                let we = hlb ^ if sb { te ^ la } else { 0 };
                labels[out] = wg ^ we;
            }
        }
    }
    circuit.outputs.iter().map(|&o| labels[o]).collect()
}

/// Evaluates many independent instances of one circuit in lockstep, in
/// the same wire-major chunks of 8 as [`garble_many`]: each AND gate
/// hashes its 2 blocks for every instance of the chunk in one
/// [`GcHash::hash_many`] call. `tables[i]` is instance `i`'s ciphertext
/// tables (the `tables` field of its [`GarbledCircuit`]); results equal
/// per-instance [`evaluate`] calls bit for bit.
///
/// # Panics
///
/// Panics if `tables.len() != inputs.len()`, any instance's input label
/// count differs from `circuit.num_inputs`, or any table count differs
/// from the circuit's AND count.
pub fn evaluate_many(
    circuit: &Circuit,
    tables: &[Vec<(Label, Label)>],
    inputs: &[Vec<Label>],
) -> Vec<Vec<Label>> {
    assert_eq!(tables.len(), inputs.len(), "instance count mismatch");
    for inp in inputs {
        assert_eq!(inp.len(), circuit.num_inputs, "input label count mismatch");
    }
    let outs = circuit.outputs.len();
    let flat = evaluate_many_with(circuit, tables, |i| inputs[i].iter().copied());
    (0..tables.len())
        .map(|i| flat[i * outs..][..outs].to_vec())
        .collect()
}

/// [`evaluate_many`] with instance `i`'s input labels read from `input(i)`
/// as the kernel loads them, so a caller that assembles them from several
/// buffers builds no per-instance vector (and assembles in parallel, on
/// whichever thread evaluates the instance). The output labels come back
/// in one instance-major vector: instance `i`'s outputs, in the circuit's
/// output order, are `circuit.outputs.len()` labels from
/// `i · circuit.outputs.len()` on.
///
/// # Panics
///
/// Panics if any table count differs from the circuit's AND count, or any
/// `input(i)` yields other than `circuit.num_inputs` labels.
pub fn evaluate_many_with<I, F>(
    circuit: &Circuit,
    tables: &[Vec<(Label, Label)>],
    input: F,
) -> Vec<Label>
where
    I: IntoIterator<Item = Label>,
    F: Fn(usize) -> I + Sync,
{
    for tab in tables {
        assert_eq!(
            tab.len(),
            circuit.and_count(),
            "garbled table count mismatch"
        );
    }
    let n = tables.len();
    // Batch-boundary accounting.
    let ands = (n * circuit.and_count()) as u64;
    pi_trace::add(pi_trace::Counter::GcAndEvaluated, ands);
    let parts = par::map_ranges(n.div_ceil(LANES), par::width(n, GRAIN), |chunks| {
        evaluate_chunks(circuit, tables, chunk_instances(chunks, n), &input)
    });
    par::concat(parts)
}

/// [`evaluate_many_with`]'s kernel over the instances in `range`: their
/// output labels, instance-major. The first part's buffer becomes the
/// whole output once the later parts are appended, so it reserves room
/// for every instance's.
fn evaluate_chunks<I: IntoIterator<Item = Label>>(
    circuit: &Circuit,
    tables: &[Vec<(Label, Label)>],
    range: Range<usize>,
    input: &impl Fn(usize) -> I,
) -> Vec<Label> {
    // Evaluation hashes 2 AES blocks per AND.
    let blocks = 2 * range.len() * circuit.and_count();
    pi_trace::add(pi_trace::Counter::AesBlocks, blocks as u64);
    let hash = GcHash::new();
    let instances = if range.start == 0 {
        tables.len()
    } else {
        range.len()
    };
    let mut out = Vec::with_capacity(instances * circuit.outputs.len());
    let mut lanes = vec![[0; LANES]; circuit.num_wires];
    let (mut x, mut tweak, mut h) = ([0; 2 * LANES], [0; 2 * LANES], [0; 2 * LANES]);
    for (chunk, tabs) in tables[range.clone()].chunks(LANES).enumerate() {
        let (w, first) = (tabs.len(), range.start + chunk * LANES);
        for t in 0..w {
            load_lane(&mut lanes, circuit.num_inputs, t, input(first + t));
        }
        let mut gate_index = 0u64;
        for g in &circuit.gates {
            match *g {
                Gate::Xor { a, b, out } => lanes[out] = xor_lanes(&lanes[a], &lanes[b]),
                Gate::Not { a, out } => lanes[out] = lanes[a],
                Gate::And { a, b, out } => {
                    let (la, lb) = (lanes[a], lanes[b]);
                    x[..w].copy_from_slice(&la[..w]);
                    x[w..2 * w].copy_from_slice(&lb[..w]);
                    tweak[..w].fill(2 * gate_index);
                    tweak[w..2 * w].fill(2 * gate_index + 1);
                    hash.hash_many(&x[..2 * w], &tweak[..2 * w], &mut h[..2 * w]);
                    let and_index = gate_index as usize;
                    gate_index += 1;
                    let mut c = [0; LANES];
                    for (t, tab) in tabs.iter().enumerate() {
                        let (tg, te) = tab[and_index];
                        let wg = h[t] ^ (permute_mask(la[t]) & tg);
                        let we = h[w + t] ^ (permute_mask(lb[t]) & (te ^ la[t]));
                        c[t] = wg ^ we;
                    }
                    lanes[out] = c;
                }
            }
        }
        let lanes = &lanes;
        out.extend((0..w).flat_map(|t| circuit.outputs.iter().map(move |&o| lanes[o][t])));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{from_bits, to_bits, CircuitBuilder};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xC0FFEE)
    }

    /// Garble + evaluate must agree with plain evaluation.
    fn check_consistency(circuit: &Circuit, inputs: &[bool], rng: &mut impl rand::Rng) {
        let expect = circuit.eval_plain(inputs);
        let g = garble(circuit, rng);
        let labels = g.encoding.encode_bits(0, inputs);
        let out_labels = evaluate(circuit, &g.garbled, &labels);
        let got = g.garbled.decode_outputs(&out_labels);
        assert_eq!(got, expect);
        // Output labels must be one of the two valid labels per wire.
        for (l, l0) in out_labels.iter().zip(&g.output_label0) {
            assert!(*l == *l0 || *l == *l0 ^ g.encoding.delta);
        }
    }

    #[test]
    fn single_and_all_combinations() {
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(2);
        let o = cb.and(w[0], w[1]);
        let c = cb.build(&[o]);
        let mut r = rng();
        for a in [false, true] {
            for b in [false, true] {
                check_consistency(&c, &[a, b], &mut r);
            }
        }
    }

    #[test]
    fn single_xor_all_combinations() {
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(2);
        let o = cb.xor(w[0], w[1]);
        let c = cb.build(&[o]);
        assert_eq!(c.and_count(), 0);
        let mut r = rng();
        for a in [false, true] {
            for b in [false, true] {
                check_consistency(&c, &[a, b], &mut r);
            }
        }
    }

    #[test]
    fn not_gate_flips() {
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(1);
        let o = cb.not(w[0]);
        let c = cb.build(&[o]);
        let mut r = rng();
        check_consistency(&c, &[true], &mut r);
        check_consistency(&c, &[false], &mut r);
    }

    #[test]
    fn or_and_mux_gadgets() {
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(3);
        let o1 = cb.or(w[0], w[1]);
        let o2 = cb.mux(w[2], w[0], w[1]);
        let c = cb.build(&[o1, o2]);
        let mut r = rng();
        for bits in 0..8u8 {
            let inp = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            check_consistency(&c, &inp, &mut r);
        }
    }

    #[test]
    fn garbled_adder_matches_arithmetic() {
        let mut cb = CircuitBuilder::new();
        let a = cb.inputs(16);
        let b = cb.inputs(16);
        let s = cb.add(&a, &b);
        let c = cb.build(&s);
        let mut r = rng();
        for (x, y) in [(12345u64, 54321u64), (0, 0), (65535, 65535), (1, 65535)] {
            let mut inp = to_bits(x, 16);
            inp.extend(to_bits(y, 16));
            let g = garble(&c, &mut r);
            let labels = g.encoding.encode_bits(0, &inp);
            let out = g.garbled.decode_outputs(&evaluate(&c, &g.garbled, &labels));
            assert_eq!(from_bits(&out), x + y);
        }
    }

    #[test]
    fn garbled_size_accounting() {
        let mut cb = CircuitBuilder::new();
        let a = cb.inputs(8);
        let b = cb.inputs(8);
        let s = cb.add(&a, &b);
        let c = cb.build(&s);
        let mut r = rng();
        let g = garble(&c, &mut r);
        assert_eq!(g.garbled.tables.len(), c.and_count());
    }

    #[test]
    fn delta_has_lsb_set_and_labels_distinct() {
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(4);
        let o = cb.and(w[0], w[1]);
        let o2 = cb.and(w[2], w[3]);
        let c = cb.build(&[o, o2]);
        let g = garble(&c, &mut rng());
        assert_eq!(g.encoding.delta & 1, 1);
        let (l0, l1) = g.encoding.label_pair(0);
        assert_ne!(l0, l1);
        assert_eq!(l0 ^ l1, g.encoding.delta);
        // Point-and-permute: select bits of a pair differ.
        assert_ne!(l0 & 1, l1 & 1);
    }

    #[test]
    #[should_panic]
    fn wrong_label_count_rejected() {
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(2);
        let o = cb.and(w[0], w[1]);
        let c = cb.build(&[o]);
        let g = garble(&c, &mut rng());
        evaluate(&c, &g.garbled, &[g.encoding.label0[0]]);
    }

    /// `garble_many` must equal sequential `garble` calls bit for bit:
    /// same RNG stream, same tables, same encodings.
    #[test]
    fn garble_many_matches_sequential() {
        let mut cb = CircuitBuilder::new();
        let a = cb.inputs(8);
        let b = cb.inputs(8);
        let s = cb.add(&a, &b);
        let nt = cb.not(s[0]);
        let c = cb.build(&[&s[..], &[nt]].concat());
        for n in [0usize, 1, 3, 8, 9, 20] {
            let mut r1 = rand::rngs::StdRng::seed_from_u64(42 + n as u64);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(42 + n as u64);
            let batch = garble_many(&c, n, &mut r1);
            let seq: Vec<Garbling> = (0..n).map(|_| garble(&c, &mut r2)).collect();
            assert_eq!(batch.len(), seq.len());
            for (g1, g2) in batch.iter().zip(&seq) {
                assert_eq!(g1.garbled.tables, g2.garbled.tables, "n = {n}");
                assert_eq!(g1.garbled.output_decode, g2.garbled.output_decode);
                assert_eq!(g1.encoding.label0, g2.encoding.label0);
                assert_eq!(g1.encoding.delta, g2.encoding.delta);
                assert_eq!(g1.output_label0, g2.output_label0);
            }
        }
    }

    /// `evaluate_many` must equal per-instance `evaluate` calls.
    #[test]
    fn evaluate_many_matches_sequential() {
        use rand::Rng;
        let mut cb = CircuitBuilder::new();
        let a = cb.inputs(8);
        let b = cb.inputs(8);
        let s = cb.add(&a, &b);
        let c = cb.build(&s);
        let mut r = rng();
        for n in [0usize, 1, 7, 8, 13] {
            let garblings = garble_many(&c, n, &mut r);
            let inputs: Vec<Vec<Label>> = garblings
                .iter()
                .map(|g| {
                    let bits: Vec<bool> = (0..c.num_inputs).map(|_| r.gen()).collect();
                    g.encoding.encode_bits(0, &bits)
                })
                .collect();
            let tables: Vec<Vec<(Label, Label)>> =
                garblings.iter().map(|g| g.garbled.tables.clone()).collect();
            let batch = evaluate_many(&c, &tables, &inputs);
            for (i, g) in garblings.iter().enumerate() {
                let single = evaluate(&c, &g.garbled, &inputs[i]);
                assert_eq!(batch[i], single, "instance {i} of {n}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_mod_arithmetic_circuits(a in 0u64..9973, b in 0u64..9973, seed: u64) {
            let p = 9973u64; // 14-bit prime
            let width = 14usize;
            let mut cb = CircuitBuilder::new();
            let wa = cb.inputs(width);
            let wb = cb.inputs(width);
            let sum = cb.add_mod(&wa, &wb, p);
            let diff = cb.sub_mod(&wa, &wb, p);
            let mut outs = sum;
            outs.extend(diff);
            let c = cb.build(&outs);

            let mut inp = to_bits(a, width);
            inp.extend(to_bits(b, width));
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let g = garble(&c, &mut r);
            let labels = g.encoding.encode_bits(0, &inp);
            let out = g.garbled.decode_outputs(&evaluate(&c, &g.garbled, &labels));
            prop_assert_eq!(from_bits(&out[..width]), (a + b) % p);
            prop_assert_eq!(from_bits(&out[width..]), (a + p - b) % p);
        }
    }
}
