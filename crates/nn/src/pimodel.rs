//! Lowering quantized networks into DELPHI's alternating phase model.
//!
//! A hybrid PI protocol views a network as a sequence of *linear phases*
//! separated by garbled ReLUs: phase `i` is an affine map over one or more
//! earlier activations (residual skips make a phase consume two), and the
//! ReLU after it produces activation `i + 1`. [`PiModel`] materializes each
//! phase as an explicit matrix over the concatenated inputs — exactly the
//! object the offline HE pass multiplies the client's randomness by — by
//! running the phase's slice of the quantized ops through
//! [`QuantOp::step`], the reference interpreter: its value at zero is the
//! bias, and column `i` is its value at `eᵢ` less that.
//!
//! Activation indexing: `0` is the network input; `i >= 1` is the output of
//! the `i`-th garbled ReLU. The final phase has no ReLU; its output is the
//! network's (scale-`2f`) logits.

use crate::quant::{relu_trunc_field, Act, QuantNetwork, QuantOp};
use pi_field::Modulus;

/// One linear phase of the PI computation: an affine map over the
/// concatenation of the referenced activations.
#[derive(Clone, Debug)]
pub struct PiPhase {
    /// Activation indices feeding this phase (main input first).
    pub inputs: Vec<usize>,
    /// Row-major matrix, `rows × cols`.
    pub matrix: Vec<u64>,
    /// Output length.
    pub rows: usize,
    /// Concatenated input length: the sum of the `inputs`' lengths.
    pub cols: usize,
    /// Bias (scale `2f`).
    pub bias: Vec<u64>,
    /// `Some(shift)` if a garbled ReLU (with truncation) follows; `None`
    /// for the final phase.
    pub relu_shift: Option<u32>,
}

impl PiPhase {
    /// The phase's linear part `W·x` on concatenated (reduced) inputs.
    ///
    /// Each row sums its products in a `u128` and reduces once per run of
    /// terms that cannot overflow it: a product of reduced values is below
    /// `(p − 1)²`, so a run of `(2^128 − p) / (p − 1)²` terms plus the
    /// reduced sum before it fits. That is the whole row for any `p` below
    /// 2^40, and 16 terms just under 2^62. The result is the per-term
    /// [`Modulus::mul_add`] fold's, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn apply_linear(&self, x: &[u64], p: Modulus) -> Vec<u64> {
        assert_eq!(x.len(), self.cols, "phase input length mismatch");
        debug_assert!(x.iter().chain(&self.matrix).all(|&v| v < p.value()));
        if self.cols == 0 {
            return vec![0; self.rows];
        }
        let max = u128::from(p.value() - 1);
        let run = ((u128::MAX - max) / (max * max)).min(usize::MAX as u128) as usize;
        let row = |w: &[u64]| {
            w.chunks(run).zip(x.chunks(run)).fold(0, |acc, (w, x)| {
                let dot = w
                    .iter()
                    .zip(x)
                    .map(|(&w, &x)| u128::from(w) * u128::from(x));
                p.reduce_u128(dot.fold(u128::from(acc), |s, t| s + t))
            })
        };
        self.matrix.chunks_exact(self.cols).map(row).collect()
    }

    /// Applies the affine map `W·x + b` to concatenated inputs.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn apply(&self, x: &[u64], p: Modulus) -> Vec<u64> {
        let mut y = self.apply_linear(x, p);
        for (v, &b) in y.iter_mut().zip(&self.bias) {
            *v = p.add(*v, b);
        }
        y
    }
}

/// A network in phase-matrix form, ready for the two-party protocols.
#[derive(Clone, Debug)]
pub struct PiModel {
    /// Prime field.
    pub p: Modulus,
    /// Fractional bits.
    pub f: u32,
    /// Linear phases in execution order.
    pub phases: Vec<PiPhase>,
    /// Network input length (activation 0).
    pub input_len: usize,
    /// Network name.
    pub name: String,
}

impl PiModel {
    /// Lowers a quantized network into phase-matrix form.
    ///
    /// A phase is the slice of `qnet.ops` between two ReLUs, and affine in
    /// its inputs: the activation it starts from and the skips it adds,
    /// which were saved at earlier activations. So the skip stack is
    /// tracked across phases as (source activation, projection), the
    /// entries a phase pops become its extra inputs in pop order, and the
    /// phase's slice runs through [`QuantOp::step`] once at zero and once
    /// per basis vector.
    ///
    /// This materializes one dense matrix per phase (size
    /// `out_features × in_features`), so it is intended for the small
    /// networks used in end-to-end protocol tests; ImageNet-scale networks
    /// are handled by the cost model in `pi-sim` instead.
    ///
    /// # Panics
    ///
    /// Panics if the network ends in a ReLU (the final phase must be
    /// linear) or a skip is saved mid-segment (outside the supported
    /// family).
    pub fn lower(qnet: &QuantNetwork) -> Self {
        let p = qnet.config.p;
        let is_save = |op: &QuantOp| matches!(op, QuantOp::SaveSkip | QuantOp::SaveSkipProj { .. });
        // Shape of every activation so far; activation `i` feeds phase `i`.
        let mut act_shapes = vec![qnet.input_shape()];
        // Skips saved and not yet added: (source activation, projection).
        let mut saved: Vec<(usize, Option<&QuantOp>)> = Vec::new();
        let mut phases: Vec<PiPhase> = Vec::new();
        for seg in (qnet.ops).split_inclusive(|op| matches!(op, QuantOp::ReluTrunc { .. })) {
            let main = phases.len();
            let (ops, relu_shift) = match seg.split_last() {
                Some((QuantOp::ReluTrunc { shift }, ops)) => (ops, Some(*shift)),
                _ => (seg, None),
            };
            let (saves, ops) = ops.split_at(ops.iter().take_while(|op| is_save(op)).count());
            let proj = |op| matches!(op, &QuantOp::SaveSkipProj { .. }).then_some(op);
            saved.extend(saves.iter().map(|op| (main, proj(op))));
            assert!(
                !ops.iter().any(is_save),
                "skips must be saved at activation boundaries"
            );
            let pops = ops
                .iter()
                .filter(|op| matches!(op, QuantOp::AddSkip { .. }));
            let kept = saved.len().checked_sub(pops.count());
            // What the phase pops become its extra inputs, in pop order.
            let mut popped = saved.split_off(kept.expect("balanced skips"));
            popped.reverse();
            let extras = popped.iter().map(|&(src, _)| src);
            let inputs: Vec<usize> = std::iter::once(main).chain(extras).collect();
            let cols: usize = inputs.iter().map(|&a| act_shapes[a].volume()).sum();
            // The phase at a point of its concatenated input space.
            let at = |x_cat: &[u64]| -> Act {
                let mut rest = x_cat;
                let mut parts = inputs.iter().map(|&a| {
                    let (part, tail) = rest.split_at(act_shapes[a].volume());
                    rest = tail;
                    Act::new(part.to_vec(), act_shapes[a].clone())
                });
                let mut act = parts.next().expect("a phase has its main input");
                let skip = |(mut extra, &(_, proj)): (Act, &(usize, Option<&QuantOp>))| {
                    let Some(proj) = proj else { return extra.x };
                    proj.step(&mut extra, p);
                    extra.skips.pop().expect("a projection saves its skip")
                };
                // `Act::skips` pops from the back.
                act.skips = parts.zip(&popped).map(skip).collect();
                act.skips.reverse();
                ops.iter().for_each(|op| op.step(&mut act, p));
                act
            };
            let mut probe = vec![0u64; cols];
            let Act { x: bias, shape, .. } = at(&probe);
            let rows = bias.len();
            let mut matrix = vec![0u64; rows * cols];
            for c in 0..cols {
                probe[c] = 1;
                for (r, (&v, &b)) in at(&probe).x.iter().zip(&bias).enumerate() {
                    matrix[r * cols + c] = p.sub(v, b);
                }
                probe[c] = 0;
            }
            act_shapes.push(shape);
            phases.push(PiPhase {
                inputs,
                matrix,
                rows,
                cols,
                bias,
                relu_shift,
            });
        }
        assert!(
            phases.last().is_some_and(|ph| ph.relu_shift.is_none()),
            "network must end with a linear phase, not a ReLU"
        );
        Self {
            p,
            f: qnet.config.f,
            phases,
            input_len: act_shapes[0].volume(),
            name: qnet.name.clone(),
        }
    }

    /// Reference forward pass over the phase matrices; must agree exactly
    /// with [`QuantNetwork::forward_fixed`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_len`.
    pub fn forward(&self, input: &[u64]) -> Vec<u64> {
        assert_eq!(input.len(), self.input_len, "input length mismatch");
        let mut acts: Vec<Vec<u64>> = vec![input.to_vec()];
        for phase in &self.phases {
            let x: Vec<u64> = (phase.inputs.iter())
                .flat_map(|&a| &acts[a])
                .copied()
                .collect();
            let y = phase.apply(&x, self.p);
            // Only the final phase has no ReLU.
            let Some(shift) = phase.relu_shift else {
                return y;
            };
            let relu = |&v| relu_trunc_field(v, shift, self.p);
            acts.push(y.iter().map(relu).collect());
        }
        Vec::new()
    }

    /// Number of garbled ReLU values across the network (the paper's
    /// per-inference ReLU count).
    pub fn total_relus(&self) -> usize {
        self.phases
            .iter()
            .filter(|ph| ph.relu_shift.is_some())
            .map(|ph| ph.rows)
            .sum()
    }

    /// Output length of the final phase.
    pub fn output_len(&self) -> usize {
        self.phases.last().map(|ph| ph.rows).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::quant::FixedConfig;
    use crate::spec::{NetSpec, SpecOp};
    use crate::zoo;
    use rand::{Rng, SeedableRng};

    fn config() -> FixedConfig {
        FixedConfig {
            p: Modulus::new(pi_field::find_ntt_prime(20, 2048)),
            f: 5,
        }
    }

    fn lower(spec: &NetSpec, seed: u64) -> (QuantNetwork, PiModel) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Network::materialize(spec, &mut rng);
        let qnet = QuantNetwork::quantize(&net, config());
        let model = PiModel::lower(&qnet);
        (qnet, model)
    }

    fn check_model_matches_fixed(spec: &NetSpec, seed: u64) {
        let (qnet, model) = lower(spec, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 1000);
        let c = config();
        let vol: usize = spec.input.iter().product();
        for _ in 0..3 {
            let input: Vec<f64> = (0..vol).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let q_in = c.quantize_vec(&input);
            assert_eq!(
                model.forward(&q_in),
                qnet.forward_fixed(&q_in),
                "phase-matrix forward must equal op-level fixed forward for {}",
                spec.name
            );
        }
    }

    #[test]
    fn sequential_cnn_lowering_exact() {
        check_model_matches_fixed(&zoo::tiny_cnn(), 7);
    }

    #[test]
    fn residual_lowering_exact() {
        check_model_matches_fixed(&zoo::tiny_resnet(), 8);
    }

    #[test]
    fn pooling_lowering_exact() {
        check_model_matches_fixed(&zoo::tiny_cnn_pool(), 9);
    }

    #[test]
    fn phase_structure_sequential() {
        let (_, model) = lower(&zoo::tiny_cnn(), 10);
        // conv -> relu, fc -> relu, fc => 3 phases.
        assert_eq!(model.phases.len(), 3);
        assert!(model.phases[0].relu_shift.is_some());
        assert!(model.phases[2].relu_shift.is_none());
        // Sequential: each phase has exactly one input, the previous act.
        for (i, ph) in model.phases.iter().enumerate() {
            assert_eq!(ph.inputs, vec![i]);
        }
    }

    #[test]
    fn phase_structure_residual_has_skip_inputs() {
        let (_, model) = lower(&zoo::tiny_resnet(), 11);
        // Some phase must consume two activations (main + skip).
        assert!(
            model.phases.iter().any(|ph| ph.inputs.len() == 2),
            "residual network must produce a two-input phase"
        );
        // Total ReLUs must match the spec stats.
        let stats = zoo::tiny_resnet().stats().unwrap();
        assert_eq!(model.total_relus() as u64, stats.total_relus);
    }

    #[test]
    fn matrix_dimensions_consistent() {
        let (_, model) = lower(&zoo::tiny_resnet(), 12);
        let mut act_lens = vec![model.input_len];
        for ph in &model.phases {
            assert_eq!(ph.matrix.len(), ph.rows * ph.cols);
            assert_eq!(ph.bias.len(), ph.rows);
            let cols: usize = ph.inputs.iter().map(|&a| act_lens[a]).sum();
            assert_eq!(ph.cols, cols);
            act_lens.push(ph.rows);
        }
    }

    fn conv(co: usize) -> SpecOp {
        let (k, stride, padding) = (3, 1, 1);
        SpecOp::Conv2d {
            co,
            k,
            stride,
            padding,
        }
    }

    fn net(name: &str, ops: Vec<SpecOp>) -> NetSpec {
        let (name, input) = (name.into(), [1, 8, 8]);
        NetSpec { name, input, ops }
    }

    /// FNV-1a over everything lowering produces.
    fn fingerprint(model: &PiModel) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for ph in &model.phases {
            eat(ph.inputs.len() as u64);
            ph.inputs.iter().for_each(|&a| eat(a as u64));
            eat(ph.rows as u64);
            eat(ph.cols as u64);
            ph.matrix.iter().chain(&ph.bias).for_each(|&v| eat(v));
            eat(ph.relu_shift.map_or(u64::MAX, u64::from));
        }
        h
    }

    /// Lowering is pinned bit for bit: these hashes were recorded with the
    /// lowering that walked its own copy of the op kernels (commit 0cbda2c),
    /// over the three tiny zoo models and the ledger's 8192-ReLU MLP.
    #[test]
    fn lowered_models_match_golden_hashes() {
        let mlp8192 = net(
            "mlp8192",
            vec![
                SpecOp::Flatten,
                SpecOp::Linear { out: 8192 },
                SpecOp::Relu,
                SpecOp::Linear { out: 10 },
            ],
        );
        for (spec, seed, golden) in [
            (zoo::tiny_cnn(), 7, 0x7702_a1d6_2714_4db6),
            (zoo::tiny_resnet(), 8, 0x6993_0b29_d695_2f56),
            (zoo::tiny_cnn_pool(), 9, 0x0f5f_0686_a6c4_62b0),
            (mlp8192, 10, 0xc0cf_abea_d1fc_84e5),
        ] {
            let (_, model) = lower(&spec, seed);
            assert_eq!(
                fingerprint(&model),
                golden,
                "{} lowers differently",
                spec.name
            );
        }
    }

    /// A skip saved two ReLUs before its add crosses a phase that does not
    /// pop it.
    #[test]
    fn skip_across_a_phase_lowering_exact() {
        let mut ops = vec![conv(2), SpecOp::Relu, SpecOp::SaveSkip];
        ops.extend([conv(2), SpecOp::Relu, conv(2), SpecOp::Relu]);
        ops.extend([conv(2), SpecOp::AddSkip, SpecOp::Relu]);
        ops.extend([SpecOp::GlobalAvgPool, SpecOp::Linear { out: 3 }]);
        let spec = net("skip-across", ops);
        let (_, model) = lower(&spec, 13);
        let inputs: Vec<&[usize]> = model.phases.iter().map(|ph| &ph.inputs[..]).collect();
        assert_eq!(inputs, [&[0][..], &[1], &[2], &[3, 1], &[4]]);
        check_model_matches_fixed(&spec, 13);
    }

    /// Two nested skips added in one phase: pop order is column order.
    #[test]
    fn nested_skips_lowering_exact() {
        let (co, stride) = (2, 1);
        let mut ops = vec![conv(2), SpecOp::Relu, SpecOp::SaveSkipProj { co, stride }];
        ops.extend([conv(2), SpecOp::Relu, SpecOp::SaveSkip]);
        ops.extend([conv(2), SpecOp::Relu]);
        ops.extend([conv(2), SpecOp::AddSkip, SpecOp::AddSkip, SpecOp::Relu]);
        ops.extend([SpecOp::GlobalAvgPool, SpecOp::Linear { out: 3 }]);
        let spec = net("nested-skips", ops);
        let (_, model) = lower(&spec, 14);
        assert_eq!(model.phases[3].inputs, [3, 2, 1]);
        check_model_matches_fixed(&spec, 14);
    }

    /// `apply_linear` reduces once per run of terms; the per-term
    /// `mul_add` fold it replaced is the oracle: at the protocol field, at
    /// a 62-bit prime over several overflow runs of `p − 1` entries (16
    /// terms a run there), and with no columns at all.
    #[test]
    fn lazy_rows_match_the_per_term_fold() {
        let fold = |ph: &PiPhase, x: &[u64], p: Modulus| -> Vec<u64> {
            (0..ph.rows)
                .map(|r| {
                    let w = &ph.matrix[r * ph.cols..][..ph.cols];
                    w.iter()
                        .zip(x)
                        .fold(0, |acc, (&w, &x)| p.mul_add(w, x, acc))
                })
                .collect()
        };
        let phase = |rows: usize, cols: usize, matrix: Vec<u64>| PiPhase {
            inputs: vec![0],
            matrix,
            rows,
            cols,
            bias: vec![0; rows],
            relu_shift: None,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        let protocol = Modulus::new(pi_field::find_ntt_prime(20, 4096));
        let wide = Modulus::new((1 << 62) - 57);
        assert!(pi_field::is_prime(wide.value()) && wide.bits() == 62);
        let (rows, cols) = (9, 3 * 16 + 5);
        let random = |p: Modulus, n: usize, rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            (0..n).map(|_| rng.gen_range(0..p.value())).collect()
        };
        let full = |p: Modulus, n: usize| vec![p.value() - 1; n];
        let cases = [
            (
                protocol,
                random(protocol, rows * 64, &mut rng),
                random(protocol, 64, &mut rng),
            ),
            (wide, full(wide, rows * cols), full(wide, cols)),
            (wide, random(wide, rows * cols, &mut rng), full(wide, cols)),
        ];
        for (p, matrix, x) in cases {
            let ph = phase(rows, x.len(), matrix);
            assert_eq!(ph.apply_linear(&x, p), fold(&ph, &x, p), "p = {p}");
        }
        let empty = phase(rows, 0, Vec::new());
        assert_eq!(empty.apply_linear(&[], wide), vec![0; rows]);
    }
}
