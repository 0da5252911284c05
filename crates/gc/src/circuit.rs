//! Boolean circuits and a builder for mod-p arithmetic over wires.

/// A gate over wire indices. Inputs must be defined before use (the builder
/// guarantees topological order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// `out = a ^ b` — free under FreeXOR.
    Xor {
        /// Left input wire.
        a: usize,
        /// Right input wire.
        b: usize,
        /// Output wire.
        out: usize,
    },
    /// `out = a & b` — costs one garbled table (two ciphertexts).
    And {
        /// Left input wire.
        a: usize,
        /// Right input wire.
        b: usize,
        /// Output wire.
        out: usize,
    },
    /// `out = !a` — free (label passes through; semantics flip).
    Not {
        /// Input wire.
        a: usize,
        /// Output wire.
        out: usize,
    },
}

/// A Boolean circuit: `num_inputs` input wires (wires `0..num_inputs`),
/// a gate list in topological order, and designated output wires.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    /// Total number of wires (inputs + gate outputs).
    pub num_wires: usize,
    /// Number of input wires.
    pub num_inputs: usize,
    /// Gates in topological order.
    pub gates: Vec<Gate>,
    /// Output wire indices.
    pub outputs: Vec<usize>,
}

impl Circuit {
    /// Number of AND gates (determines garbled-circuit size: 32 bytes each).
    pub fn and_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::And { .. }))
            .count()
    }

    /// Size in bytes of the garbled tables for this circuit under
    /// HalfGates (two 16-byte ciphertexts per AND gate).
    pub fn garbled_size_bytes(&self) -> usize {
        self.and_count() * 32
    }

    /// Evaluates the circuit in the clear — the reference semantics that the
    /// garbled evaluation is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn eval_plain(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input length mismatch");
        let mut w = vec![false; self.num_wires];
        w[..inputs.len()].copy_from_slice(inputs);
        for g in &self.gates {
            match *g {
                Gate::Xor { a, b, out } => w[out] = w[a] ^ w[b],
                Gate::And { a, b, out } => w[out] = w[a] & w[b],
                Gate::Not { a, out } => w[out] = !w[a],
            }
        }
        self.outputs.iter().map(|&o| w[o]).collect()
    }
}

/// A bit during circuit construction: either a compile-time constant (folded
/// away, producing no gates) or a live wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bit {
    /// A known constant.
    Const(bool),
    /// A circuit wire.
    Wire(usize),
}

/// Incremental builder producing a [`Circuit`], with constant folding and a
/// library of arithmetic gadgets over little-endian bit vectors.
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    num_wires: usize,
    num_inputs: usize,
    gates: Vec<Gate>,
    inputs_frozen: bool,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates `n` fresh input wires.
    ///
    /// # Panics
    ///
    /// Panics if called after any gate has been added (inputs must come
    /// first so they occupy wires `0..num_inputs`).
    pub fn inputs(&mut self, n: usize) -> Vec<Bit> {
        assert!(
            !self.inputs_frozen,
            "all inputs must be allocated before gates"
        );
        let start = self.num_wires;
        self.num_wires += n;
        self.num_inputs += n;
        (start..start + n).map(Bit::Wire).collect()
    }

    fn fresh(&mut self) -> usize {
        self.inputs_frozen = true;
        let w = self.num_wires;
        self.num_wires += 1;
        w
    }

    /// XOR of two bits (free).
    pub fn xor(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(x), Bit::Const(y)) => Bit::Const(x ^ y),
            (Bit::Const(false), w) | (w, Bit::Const(false)) => w,
            (Bit::Const(true), w) | (w, Bit::Const(true)) => self.not(w),
            (Bit::Wire(x), Bit::Wire(y)) => {
                let out = self.fresh();
                self.gates.push(Gate::Xor { a: x, b: y, out });
                Bit::Wire(out)
            }
        }
    }

    /// NOT of a bit (free).
    pub fn not(&mut self, a: Bit) -> Bit {
        match a {
            Bit::Const(x) => Bit::Const(!x),
            Bit::Wire(x) => {
                let out = self.fresh();
                self.gates.push(Gate::Not { a: x, out });
                Bit::Wire(out)
            }
        }
    }

    /// AND of two bits (one garbled table).
    pub fn and(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(false), _) | (_, Bit::Const(false)) => Bit::Const(false),
            (Bit::Const(true), w) | (w, Bit::Const(true)) => w,
            (Bit::Wire(x), Bit::Wire(y)) => {
                if x == y {
                    return Bit::Wire(x);
                }
                let out = self.fresh();
                self.gates.push(Gate::And { a: x, b: y, out });
                Bit::Wire(out)
            }
        }
    }

    /// OR via De Morgan (one AND).
    pub fn or(&mut self, a: Bit, b: Bit) -> Bit {
        let na = self.not(a);
        let nb = self.not(b);
        let nand = self.and(na, nb);
        self.not(nand)
    }

    /// 2:1 multiplexer: `sel ? a : b` (one AND).
    pub(crate) fn mux(&mut self, sel: Bit, a: Bit, b: Bit) -> Bit {
        // b ^ sel & (a ^ b)
        let d = self.xor(a, b);
        let sd = self.and(sel, d);
        self.xor(b, sd)
    }

    /// Vector multiplexer over little-endian words of equal width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub(crate) fn mux_word(&mut self, sel: Bit, a: &[Bit], b: &[Bit]) -> Vec<Bit> {
        assert_eq!(a.len(), b.len(), "mux operands must have equal width");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux(sel, x, y))
            .collect()
    }

    /// Ripple-carry addition of two little-endian words, returning
    /// `width + 1` bits (the extra bit is the carry out).
    ///
    /// Uses the one-AND-per-bit full adder:
    /// `carry' = carry ^ ((a ^ carry) & (b ^ carry))`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub(crate) fn add(&mut self, a: &[Bit], b: &[Bit]) -> Vec<Bit> {
        assert_eq!(a.len(), b.len(), "adder operands must have equal width");
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = Bit::Const(false);
        for (&x, &y) in a.iter().zip(b) {
            let xc = self.xor(x, carry);
            let yc = self.xor(y, carry);
            let s = self.xor(xc, y);
            let t = self.and(xc, yc);
            carry = self.xor(carry, t);
            out.push(s);
        }
        out.push(carry);
        out
    }

    /// Subtraction `a - b` over little-endian words of equal width,
    /// returning `(difference, borrow)`. The difference is the low
    /// `width` bits of `a - b` mod `2^width`; `borrow` is true iff `a < b`.
    pub(crate) fn sub(&mut self, a: &[Bit], b: &[Bit]) -> (Vec<Bit>, Bit) {
        assert_eq!(
            a.len(),
            b.len(),
            "subtractor operands must have equal width"
        );
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = Bit::Const(false);
        for (&x, &y) in a.iter().zip(b) {
            // diff = x ^ y ^ borrow
            // borrow' = majority(!x, y, borrow)
            //         = borrow ^ ((!x ^ borrow) & (y ^ borrow))
            let xy = self.xor(x, y);
            let d = self.xor(xy, borrow);
            let nx = self.not(x);
            let nxb = self.xor(nx, borrow);
            let yb = self.xor(y, borrow);
            let t = self.and(nxb, yb);
            borrow = self.xor(borrow, t);
            out.push(d);
        }
        (out, borrow)
    }

    /// Encodes a constant as `width` little-endian constant bits.
    pub(crate) fn constant(&self, value: u64, width: usize) -> Vec<Bit> {
        (0..width)
            .map(|i| Bit::Const((value >> i) & 1 == 1))
            .collect()
    }

    /// `a >= b` over equal-width words (true iff no borrow in `a - b`).
    pub(crate) fn geq(&mut self, a: &[Bit], b: &[Bit]) -> Bit {
        let (_, borrow) = self.sub(a, b);
        self.not(borrow)
    }

    /// Conditional subtraction of the constant `m`: returns
    /// `x - m` if `x >= m` else `x`, over `width = x.len()` bits. This is
    /// the modular-reduction step after an addition of values `< m`; a
    /// caller that keeps only the low bits drops the top mux in
    /// [`CircuitBuilder::build`].
    pub(crate) fn cond_sub_const(&mut self, x: &[Bit], m: u64) -> Vec<Bit> {
        let mc = self.constant(m, x.len());
        let (diff, borrow) = self.sub(x, &mc);
        let ge = self.not(borrow);
        self.mux_word(ge, &diff, x)
    }

    /// Modular addition `(a + b) mod m` for `a, b < m`, over `k` bits where
    /// `k = a.len() = b.len()` and `m < 2^k`.
    pub(crate) fn add_mod(&mut self, a: &[Bit], b: &[Bit], m: u64) -> Vec<Bit> {
        let sum = self.add(a, b); // k+1 bits, < 2m
        let reduced = self.cond_sub_const(&sum, m);
        reduced[..a.len()].to_vec()
    }

    /// Modular subtraction `(a - b) mod m` for `a, b < m`.
    pub(crate) fn sub_mod(&mut self, a: &[Bit], b: &[Bit], m: u64) -> Vec<Bit> {
        let (diff, borrow) = self.sub(a, b);
        // If borrowed, add m back.
        let mc = self.constant(m, a.len());
        let zero = self.constant(0, a.len());
        let addend = self.mux_word(borrow, &mc, &zero);
        let fixed = self.add(&diff, &addend);
        fixed[..a.len()].to_vec()
    }

    /// Finalizes the circuit with the given output bits.
    ///
    /// Gates no output depends on are dropped: liveness is swept back from
    /// the outputs, and the surviving gates keep their order and are
    /// renumbered densely after the inputs, which keep wires
    /// `0..num_inputs`. A gadget may therefore compute bits its caller
    /// never reads (a carry out, the top bit of a reduction) at no cost.
    ///
    /// # Panics
    ///
    /// Panics if any output bit folded to a constant: protocol outputs are
    /// always live wires, so a constant indicates a degenerate circuit.
    pub fn build(self, outputs: &[Bit]) -> Circuit {
        let outs: Vec<usize> = outputs
            .iter()
            .map(|b| match b {
                Bit::Wire(w) => *w,
                Bit::Const(_) => panic!("circuit output folded to a constant"),
            })
            .collect();
        let mut live = vec![false; self.num_wires];
        for &o in &outs {
            live[o] = true;
        }
        // `(a, b, out)` of a gate; a `Not` reads `a` twice.
        let wires = |g: &Gate| match *g {
            Gate::Xor { a, b, out } | Gate::And { a, b, out } => (a, b, out),
            Gate::Not { a, out } => (a, a, out),
        };
        let mut keep = vec![false; self.gates.len()];
        for (g, k) in self.gates.iter().zip(&mut keep).rev() {
            let (a, b, out) = wires(g);
            if live[out] {
                *k = true;
                live[a] = true;
                live[b] = true;
            }
        }
        // Old wire -> new wire; inputs map to themselves, and every kept
        // gate's operands were mapped by an earlier gate (topological order).
        let mut wire: Vec<usize> = (0..self.num_wires).collect();
        let mut gates = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
        for (g, _) in self.gates.iter().zip(keep).filter(|(_, k)| *k) {
            let (a, b, out) = wires(g);
            let (a, b, new) = (wire[a], wire[b], self.num_inputs + gates.len());
            wire[out] = new;
            gates.push(match g {
                Gate::Xor { .. } => Gate::Xor { a, b, out: new },
                Gate::And { .. } => Gate::And { a, b, out: new },
                Gate::Not { .. } => Gate::Not { a, out: new },
            });
        }
        Circuit {
            num_wires: self.num_inputs + gates.len(),
            num_inputs: self.num_inputs,
            gates,
            outputs: outs.iter().map(|&o| wire[o]).collect(),
        }
    }
}

/// Packs a `u64` into `width` little-endian booleans.
pub fn to_bits(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Unpacks little-endian booleans into a `u64`.
///
/// # Panics
///
/// Panics if more than 64 bits are given.
pub fn from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "too many bits for u64");
    bits.iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 1) | b as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn eval_binary_gadget(
        width: usize,
        a: u64,
        b: u64,
        f: impl Fn(&mut CircuitBuilder, &[Bit], &[Bit]) -> Vec<Bit>,
    ) -> u64 {
        let mut cb = CircuitBuilder::new();
        let wa = cb.inputs(width);
        let wb = cb.inputs(width);
        let out = f(&mut cb, &wa, &wb);
        let circuit = cb.build(&out);
        let mut inputs = to_bits(a, width);
        inputs.extend(to_bits(b, width));
        from_bits(&circuit.eval_plain(&inputs))
    }

    #[test]
    fn adder_basic() {
        assert_eq!(eval_binary_gadget(8, 100, 55, |cb, a, b| cb.add(a, b)), 155);
        assert_eq!(
            eval_binary_gadget(8, 255, 255, |cb, a, b| cb.add(a, b)),
            510
        );
        assert_eq!(eval_binary_gadget(4, 0, 0, |cb, a, b| cb.add(a, b)), 0);
    }

    #[test]
    fn subtractor_basic() {
        assert_eq!(
            eval_binary_gadget(8, 100, 55, |cb, a, b| cb.sub(a, b).0),
            45
        );
        // wraps mod 256
        assert_eq!(eval_binary_gadget(8, 5, 10, |cb, a, b| cb.sub(a, b).0), 251);
    }

    #[test]
    fn geq_flag() {
        for (a, b) in [(5u64, 3u64), (3, 5), (7, 7)] {
            let mut cb = CircuitBuilder::new();
            let wa = cb.inputs(4);
            let wb = cb.inputs(4);
            let g = cb.geq(&wa, &wb);
            let c = cb.build(&[g]);
            let mut inp = to_bits(a, 4);
            inp.extend(to_bits(b, 4));
            assert_eq!(c.eval_plain(&inp)[0], a >= b, "{a} >= {b}");
        }
    }

    #[test]
    fn constant_folding_produces_no_gates() {
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(1);
        let c = cb.xor(Bit::Const(true), Bit::Const(false));
        assert_eq!(c, Bit::Const(true));
        let z = cb.and(w[0], Bit::Const(false));
        assert_eq!(z, Bit::Const(false));
        let same = cb.and(w[0], Bit::Const(true));
        assert_eq!(same, w[0]);
        assert!(cb.gates.is_empty());
    }

    #[test]
    fn and_count_matches_structure() {
        let mut cb = CircuitBuilder::new();
        let a = cb.inputs(8);
        let b = cb.inputs(8);
        let sum = cb.add(&a, &b);
        let c = cb.build(&sum);
        assert_eq!(c.and_count(), 8, "ripple adder is one AND per bit");
        assert_eq!(c.garbled_size_bytes(), 8 * 32);
    }

    #[test]
    fn build_drops_a_dead_branch_and_renumbers() {
        let mut cb = CircuitBuilder::new();
        let a = cb.inputs(4);
        let b = cb.inputs(4);
        // A whole adder nobody reads, between two live gates.
        let x = cb.xor(a[0], b[0]);
        let _ = cb.add(&a, &b);
        let y = cb.and(x, a[3]);
        let c = cb.build(&[y, x]);
        assert_eq!(c.num_inputs, 8);
        assert_eq!(
            c.gates,
            vec![
                Gate::Xor { a: 0, b: 4, out: 8 },
                Gate::And { a: 8, b: 3, out: 9 }
            ]
        );
        assert_eq!((c.num_wires, c.outputs.clone()), (10, vec![9, 8]));
        for v in 0..256u64 {
            let inp = to_bits(v, 8);
            let (x, y) = (inp[0] ^ inp[4], (inp[0] ^ inp[4]) & inp[3]);
            assert_eq!(c.eval_plain(&inp), vec![y, x]);
        }
        // An output that is an input wire keeps its number; its gate-free
        // circuit has no wires past the inputs.
        let mut cb = CircuitBuilder::new();
        let w = cb.inputs(2);
        let _ = cb.and(w[0], w[1]);
        let c = cb.build(&[w[1]]);
        assert!(c.gates.is_empty());
        assert_eq!((c.num_wires, c.outputs.clone()), (2, vec![1]));
    }

    #[test]
    #[should_panic]
    fn inputs_after_gates_rejected() {
        let mut cb = CircuitBuilder::new();
        let a = cb.inputs(2);
        let _ = cb.and(a[0], a[1]);
        cb.inputs(1);
    }

    #[test]
    #[should_panic]
    fn constant_output_rejected() {
        let mut cb = CircuitBuilder::new();
        let _ = cb.inputs(1);
        cb.build(&[Bit::Const(false)]);
    }

    proptest! {
        #[test]
        fn add_mod_correct(a in 0u64..1000, b in 0u64..1000) {
            let m = 1000u64;
            let got = eval_binary_gadget(10, a, b, |cb, x, y| cb.add_mod(x, y, m));
            prop_assert_eq!(got, (a + b) % m);
        }

        #[test]
        fn sub_mod_correct(a in 0u64..1000, b in 0u64..1000) {
            let m = 1000u64;
            let got = eval_binary_gadget(10, a, b, |cb, x, y| cb.sub_mod(x, y, m));
            prop_assert_eq!(got, (a + m - b) % m);
        }

        #[test]
        fn add_matches_u64(a in 0u64..(1<<16), b in 0u64..(1<<16)) {
            prop_assert_eq!(eval_binary_gadget(16, a, b, |cb, x, y| cb.add(x, y)), a + b);
        }

        #[test]
        fn sub_matches_wrapping(a in 0u64..(1<<16), b in 0u64..(1<<16)) {
            let got = eval_binary_gadget(16, a, b, |cb, x, y| cb.sub(x, y).0);
            prop_assert_eq!(got, (a.wrapping_sub(b)) & 0xFFFF);
        }

        #[test]
        fn mux_selects(sel: bool, a in 0u64..256, b in 0u64..256) {
            let mut cb = CircuitBuilder::new();
            let s = cb.inputs(1);
            let wa = cb.inputs(8);
            let wb = cb.inputs(8);
            let out = cb.mux_word(s[0], &wa, &wb);
            let c = cb.build(&out);
            let mut inp = vec![sel];
            inp.extend(to_bits(a, 8));
            inp.extend(to_bits(b, 8));
            prop_assert_eq!(from_bits(&c.eval_plain(&inp)), if sel { a } else { b });
        }

        #[test]
        fn bits_roundtrip(v: u64) {
            prop_assert_eq!(from_bits(&to_bits(v, 64)), v);
        }
    }
}
