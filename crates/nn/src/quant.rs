//! Fixed-point quantization into `Z_p` and lowering to the DELPHI phase
//! model.
//!
//! Hybrid PI protocols compute over a prime field, so networks are
//! quantized: activations and weights carry `f` fractional bits, linear
//! layers produce scale `2f`, and the garbled ReLU truncates `f` bits
//! (exact, because post-ReLU values are non-negative). Average pooling
//! becomes sum pooling with the divisor folded into the next linear layer's
//! weights, keeping every non-GC op exactly `Z_p`-linear.
//!
//! [`QuantOp::step`] defines each op over `Z_p`, once;
//! [`QuantNetwork::forward_fixed`], a loop over it, is the bit-exact
//! reference semantics the two-party protocols must reproduce.
//! [`crate::PiModel`] lowers a quantized network into DELPHI's alternating
//! structure — one affine matrix per linear *phase* (everything between two
//! ReLUs, with residual skips as extra phase inputs), read off the same
//! `step` — which is the form the HE offline pass and the protocol state
//! machines in `pi-core` operate on.

use crate::network::{Network, Op};
use crate::spec::Shape;
use crate::tensor::Tensor;
use pi_field::Modulus;

/// Fixed-point configuration: field and fractional bits.
#[derive(Clone, Copy, Debug)]
pub struct FixedConfig {
    /// The prime field (must match the protocol's plaintext modulus).
    pub p: Modulus,
    /// Fractional bits `f`; activations/weights carry scale `2^f`.
    pub f: u32,
}

impl FixedConfig {
    /// Quantizes a real to a field element at scale `2^f`.
    pub fn quantize(&self, x: f64) -> u64 {
        self.p
            .from_signed((x * (1u64 << self.f) as f64).round() as i64)
    }

    /// Dequantizes a field element at scale `2^bits`.
    pub fn dequantize(&self, v: u64, bits: u32) -> f64 {
        self.p.to_signed(v) as f64 / (1u64 << bits) as f64
    }

    /// Quantizes a tensor (activations, scale `f`).
    pub fn quantize_vec(&self, xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }
}

/// A quantized operation over `Z_p`.
#[derive(Clone, Debug)]
pub enum QuantOp {
    /// Convolution with field weights `[co, ci, k, k]` (scale `f`) and bias
    /// (scale `2f`).
    Conv2d {
        /// Field-encoded weights, flattened.
        weight: Vec<u64>,
        /// Weight shape `[co, ci, k, k]`.
        shape: [usize; 4],
        /// Field-encoded bias per output channel (scale `2f`).
        bias: Vec<u64>,
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
    },
    /// Fully-connected layer with field weights `[out, in]`.
    Linear {
        /// Field-encoded weights, row-major.
        weight: Vec<u64>,
        /// Output features.
        out: usize,
        /// Input features.
        inf: usize,
        /// Field-encoded bias (scale `2f`).
        bias: Vec<u64>,
    },
    /// ReLU followed by dropping `shift` low bits — the garbled-circuit op.
    ReluTrunc {
        /// Bits truncated after ReLU (normally `f`).
        shift: u32,
    },
    /// Sum pooling `k × k` (divisor folded forward).
    SumPool2d {
        /// Pool size.
        k: usize,
    },
    /// Global sum pooling (divisor folded forward).
    GlobalSumPool,
    /// Flatten.
    Flatten,
    /// Push current activation to skip stack.
    SaveSkip,
    /// Push a 1×1 strided projection (field weights, scale `f`).
    SaveSkipProj {
        /// Projection weights `[co, ci]`.
        weight: Vec<u64>,
        /// Output channels.
        co: usize,
        /// Input channels.
        ci: usize,
        /// Stride.
        stride: usize,
        /// Bias (scale `2f`).
        bias: Vec<u64>,
    },
    /// Pop skip stack, scale-match by `2^scale_shift`, and add.
    AddSkip {
        /// Left shift applied to the skip value to match the main scale.
        scale_shift: u32,
    },
}

/// A network quantized into `Z_p` with exact fixed-point semantics.
#[derive(Clone, Debug)]
pub struct QuantNetwork {
    /// Fixed-point configuration.
    pub config: FixedConfig,
    /// Quantized ops.
    pub ops: Vec<QuantOp>,
    /// Input shape `[c, h, w]`.
    pub input: [usize; 3],
    /// Network name.
    pub name: String,
}

impl QuantNetwork {
    /// Quantizes a materialized network.
    ///
    /// Average-pool divisors are folded into the next linear layer; residual
    /// skips are scale-matched with a power-of-two shift. Works for networks
    /// in the paper's families (convs/FCs separated by ReLUs, pools between
    /// them, residual blocks with skips saved at activation boundaries).
    ///
    /// # Panics
    ///
    /// Panics if the network ends with a pending pool divisor (a pool not
    /// followed by any linear layer) or uses an op sequence outside the
    /// supported family.
    pub fn quantize(net: &Network, config: FixedConfig) -> Self {
        let scale = (1u64 << config.f) as f64;
        let scale2 = scale * scale;
        let mut ops = Vec::with_capacity(net.ops.len());
        // Divisor accumulated from pools, divided out of the next weights.
        let mut pending_div = 1.0f64;
        // Activation scale exponent of the running value (f or 2f).
        let mut cur_scale = config.f;
        // Scale exponents of stacked skips.
        let mut skip_scales: Vec<u32> = Vec::new();
        let q = |x: f64| config.p.from_signed(x.round() as i64);
        // Weights at scale `f` (less a pending pool divisor), biases at `2f`.
        let weights = |w: &Tensor, div: f64| -> Vec<u64> {
            w.data().iter().map(|&v| q(v * scale / div)).collect()
        };
        let biases = |b: &[f64]| -> Vec<u64> { b.iter().map(|&v| q(v * scale2)).collect() };
        for op in &net.ops {
            match op {
                Op::Conv2d {
                    weight,
                    bias,
                    stride,
                    padding,
                } => {
                    let s = weight.shape();
                    ops.push(QuantOp::Conv2d {
                        weight: weights(weight, pending_div),
                        shape: [s[0], s[1], s[2], s[3]],
                        bias: biases(bias),
                        stride: *stride,
                        padding: *padding,
                    });
                    pending_div = 1.0;
                    cur_scale = 2 * config.f;
                }
                Op::Linear { weight, bias } => {
                    ops.push(QuantOp::Linear {
                        weight: weights(weight, pending_div),
                        out: weight.shape()[0],
                        inf: weight.shape()[1],
                        bias: biases(bias),
                    });
                    pending_div = 1.0;
                    cur_scale = 2 * config.f;
                }
                Op::Relu => {
                    assert_eq!(
                        cur_scale,
                        2 * config.f,
                        "ReLU must follow a linear layer in the supported family"
                    );
                    ops.push(QuantOp::ReluTrunc { shift: config.f });
                    cur_scale = config.f;
                }
                Op::AvgPool2d { k } => {
                    pending_div *= (k * k) as f64;
                    ops.push(QuantOp::SumPool2d { k: *k });
                }
                Op::GlobalAvgPool => {
                    // The divisor is the spatial size here, which the
                    // spec's static shapes give.
                    pending_div *= global_pool_spatial(net, ops.len()) as f64;
                    ops.push(QuantOp::GlobalSumPool);
                }
                Op::Flatten => ops.push(QuantOp::Flatten),
                Op::SaveSkip => {
                    assert!(pending_div == 1.0, "skip across a pending pool divisor");
                    skip_scales.push(cur_scale);
                    ops.push(QuantOp::SaveSkip);
                }
                Op::SaveSkipProj {
                    weight,
                    bias,
                    stride,
                } => {
                    assert!(pending_div == 1.0, "skip across a pending pool divisor");
                    skip_scales.push(cur_scale + config.f);
                    ops.push(QuantOp::SaveSkipProj {
                        weight: weights(weight, 1.0),
                        co: weight.shape()[0],
                        ci: weight.shape()[1],
                        stride: *stride,
                        bias: biases(bias),
                    });
                }
                Op::AddSkip => {
                    let skip_scale = skip_scales.pop().expect("balanced skips");
                    assert!(
                        skip_scale <= cur_scale,
                        "skip scale must not exceed main scale"
                    );
                    ops.push(QuantOp::AddSkip {
                        scale_shift: cur_scale - skip_scale,
                    });
                }
            }
        }
        assert!(
            (pending_div - 1.0).abs() < 1e-9,
            "network ends with an unfolded pool divisor"
        );
        Self {
            config,
            ops,
            input: net.spec.input,
            name: net.spec.name.clone(),
        }
    }

    /// Exact fixed-point forward pass over `Z_p` — the reference semantics
    /// for the private protocols: every op's [`QuantOp::step`], in order.
    /// Input is flattened CHW at scale `f`; output is at scale `2f` (after
    /// the final linear layer).
    ///
    /// # Panics
    ///
    /// Panics if the input length does not match the spec.
    pub fn forward_fixed(&self, input: &[u64]) -> Vec<u64> {
        let expect: usize = self.input.iter().product();
        assert_eq!(input.len(), expect, "input length mismatch");
        let mut act = Act::new(input.to_vec(), self.input_shape());
        for op in &self.ops {
            op.step(&mut act, self.config.p);
        }
        act.x
    }

    /// Shape of the network input (activation 0).
    pub(crate) fn input_shape(&self) -> Shape {
        Shape::Chw(self.input[0], self.input[1], self.input[2])
    }
}

/// An activation on its way through a [`QuantNetwork`]: what
/// [`QuantOp::step`] reads and writes.
#[derive(Clone, Debug)]
pub struct Act {
    /// The values, flattened CHW.
    pub x: Vec<u64>,
    /// Their shape.
    pub shape: Shape,
    /// Skips saved and not yet added, innermost last.
    pub skips: Vec<Vec<u64>>,
}

impl Act {
    /// An activation with nothing on its skip stack.
    pub fn new(x: Vec<u64>, shape: Shape) -> Self {
        let skips = Vec::new();
        Self { x, shape, skips }
    }
}

impl QuantOp {
    /// Applies the op to `act` over `Z_p`: the one definition of every op's
    /// field semantics. [`QuantNetwork::forward_fixed`] is a loop over it,
    /// and [`crate::PiModel::lower`] reads each linear phase's matrix off
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `act` does not have the shape the op reads, or an
    /// [`QuantOp::AddSkip`] finds the skip stack empty.
    pub fn step(&self, act: &mut Act, p: Modulus) {
        match self {
            QuantOp::Conv2d {
                weight,
                shape,
                bias,
                stride,
                padding,
            } => {
                (act.x, act.shape) = conv2d_field(
                    &act.x, &act.shape, weight, *shape, bias, *stride, *padding, p,
                );
            }
            QuantOp::Linear {
                weight,
                out,
                inf,
                bias,
            } => {
                assert_eq!(act.x.len(), *inf, "linear input mismatch");
                // Column by column, skipping zero inputs: a basis vector —
                // what lowering feeds through here — costs one column, not
                // the matrix.
                let mut y = bias.clone();
                for (i, &xi) in act.x.iter().enumerate().filter(|&(_, &xi)| xi != 0) {
                    let column = weight[i..].iter().step_by(*inf);
                    for (yo, &w) in y.iter_mut().zip(column) {
                        *yo = p.add(*yo, p.mul(w, xi));
                    }
                }
                (act.x, act.shape) = (y, Shape::Flat(*out));
            }
            QuantOp::ReluTrunc { shift } => {
                for v in &mut act.x {
                    *v = relu_trunc_field(*v, *shift, p);
                }
            }
            QuantOp::SumPool2d { k } => {
                let (c, h, w) = expect_chw(&act.shape);
                act.x = sum_pool(&act.x, (c, h, w), (*k, *k), p);
                act.shape = Shape::Chw(c, h / k, w / k);
            }
            QuantOp::GlobalSumPool => {
                let (c, h, w) = expect_chw(&act.shape);
                act.x = sum_pool(&act.x, (c, h, w), (h, w), p);
                act.shape = Shape::Flat(c);
            }
            QuantOp::Flatten => act.shape = Shape::Flat(act.x.len()),
            QuantOp::SaveSkip => act.skips.push(act.x.clone()),
            QuantOp::SaveSkipProj {
                weight,
                co,
                ci,
                stride,
                bias,
            } => {
                // A 1×1 strided convolution without padding.
                let ws = [*co, *ci, 1, 1];
                let (skip, _) = conv2d_field(&act.x, &act.shape, weight, ws, bias, *stride, 0, p);
                act.skips.push(skip);
            }
            QuantOp::AddSkip { scale_shift } => {
                let skip = act.skips.pop().expect("balanced skips");
                let mult = p.reduce(1u64 << *scale_shift);
                for (a, &b) in act.x.iter_mut().zip(&skip) {
                    *a = p.add(*a, p.mul(b, mult));
                }
            }
        }
    }
}

/// The GC non-linearity's exact field semantics: `trunc(ReLU(v))`.
///
/// Negative values (top half of `Z_p`) clamp to zero; non-negative values
/// drop `shift` low bits.
pub fn relu_trunc_field(v: u64, shift: u32, p: Modulus) -> u64 {
    if v > p.value() / 2 {
        0
    } else {
        v >> shift
    }
}

fn expect_chw(s: &Shape) -> (usize, usize, usize) {
    match *s {
        Shape::Chw(c, h, w) => (c, h, w),
        Shape::Flat(_) => panic!("expected CHW activation"),
    }
}

/// Sums every `kh × kw` window (stride = window) of each channel.
fn sum_pool(
    x: &[u64],
    (c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    p: Modulus,
) -> Vec<u64> {
    let (oh, ow) = (h / kh, w / kw);
    let mut y = vec![0u64; c * oh * ow];
    for (o, yo) in y.iter_mut().enumerate() {
        let (ci, yy, xx) = (o / (oh * ow), o / ow % oh, o % ow);
        for dy in 0..kh {
            for dx in 0..kw {
                *yo = p.add(*yo, x[(ci * h + yy * kh + dy) * w + xx * kw + dx]);
            }
        }
    }
    y
}

#[allow(clippy::too_many_arguments)]
fn conv2d_field(
    x: &[u64],
    shape: &Shape,
    weight: &[u64],
    ws: [usize; 4],
    bias: &[u64],
    stride: usize,
    padding: usize,
    p: Modulus,
) -> (Vec<u64>, Shape) {
    let ((ci, h, w), [co, wci, k, _]) = (expect_chw(shape), ws);
    assert_eq!(ci, wci, "channel mismatch");
    let oh = (h + 2 * padding - k) / stride + 1;
    let ow = (w + 2 * padding - k) / stride + 1;
    let mut out = vec![0u64; co * oh * ow];
    for o in 0..co {
        for y in 0..oh {
            for xx in 0..ow {
                let mut acc = bias[o];
                for c in 0..ci {
                    for dy in 0..k {
                        for dx in 0..k {
                            let sy = (y * stride + dy) as isize - padding as isize;
                            let sx = (xx * stride + dx) as isize - padding as isize;
                            if sy >= 0 && sx >= 0 && (sy as usize) < h && (sx as usize) < w {
                                let wv = weight[((o * ci + c) * k + dy) * k + dx];
                                let xv = x[(c * h + sy as usize) * w + sx as usize];
                                acc = p.add(acc, p.mul(wv, xv));
                            }
                        }
                    }
                }
                out[(o * oh + y) * ow + xx] = acc;
            }
        }
    }
    (out, Shape::Chw(co, oh, ow))
}

/// Spatial size (`h·w`) of the activation op `op_index` reads, by the
/// spec's shape inference.
fn global_pool_spatial(net: &Network, op_index: usize) -> usize {
    let shapes = (net.spec.infer_shapes()).expect("materialized networks are shape-valid");
    let [c, h, w] = net.spec.input;
    let before = op_index.checked_sub(1).map(|i| expect_chw(&shapes[i]));
    let (_, h, w) = before.unwrap_or((c, h, w));
    h * w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetSpec;
    use crate::zoo;
    use rand::SeedableRng;

    fn config() -> FixedConfig {
        FixedConfig {
            p: Modulus::new(pi_field::find_ntt_prime(20, 2048)),
            f: 5,
        }
    }

    #[test]
    fn quantize_dequantize_roundtrip() {
        let c = config();
        for x in [0.0, 1.0, -1.0, 0.5, -0.25, 3.75] {
            let q = c.quantize(x);
            assert!((c.dequantize(q, c.f) - x).abs() < 1.0 / 32.0);
        }
    }

    #[test]
    fn relu_trunc_semantics() {
        let p = Modulus::new(65537);
        assert_eq!(relu_trunc_field(64, 5, p), 2);
        assert_eq!(relu_trunc_field(63, 5, p), 1);
        assert_eq!(relu_trunc_field(0, 5, p), 0);
        assert_eq!(relu_trunc_field(65536, 5, p), 0); // -1 clamps
        assert_eq!(relu_trunc_field(65537 / 2, 5, p), (65537 / 2) >> 5);
        assert_eq!(relu_trunc_field(65537 / 2 + 1, 5, p), 0);
    }

    /// Fixed-point forward must approximate the f64 forward.
    fn check_against_f64(spec: &NetSpec, tolerance: f64, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Network::materialize(spec, &mut rng);
        let c = config();
        let qnet = QuantNetwork::quantize(&net, c);
        use rand::Rng;
        let vol: usize = spec.input.iter().product();
        let input: Vec<f64> = (0..vol).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expect = net.forward(&Tensor::from_vec(&spec.input, input.clone()));
        let got_q = qnet.forward_fixed(&c.quantize_vec(&input));
        for (g, e) in got_q.iter().zip(expect.data()) {
            let gd = c.dequantize(*g, 2 * c.f);
            assert!(
                (gd - e).abs() < tolerance,
                "fixed-point {gd} vs f64 {e} (tolerance {tolerance})"
            );
        }
    }

    #[test]
    fn fixed_matches_f64_small_cnn() {
        check_against_f64(&zoo::tiny_cnn(), 0.25, 42);
    }

    #[test]
    fn fixed_matches_f64_residual() {
        check_against_f64(&zoo::tiny_resnet(), 0.3, 43);
    }

    #[test]
    fn fixed_matches_f64_with_pooling() {
        check_against_f64(&zoo::tiny_cnn_pool(), 0.3, 44);
    }

    #[test]
    fn quantized_resnet_structure() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = Network::materialize(&zoo::tiny_resnet(), &mut rng);
        let qnet = QuantNetwork::quantize(&net, config());
        let relus = qnet
            .ops
            .iter()
            .filter(|o| matches!(o, QuantOp::ReluTrunc { .. }))
            .count();
        assert_eq!(
            relus as u64,
            zoo::tiny_resnet().stats().unwrap().relu_layers.len() as u64
        );
    }

    #[test]
    fn skip_scale_shift_for_identity_skip() {
        // Identity skip saved at scale f, added at scale 2f => shift f.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let net = Network::materialize(&zoo::tiny_resnet(), &mut rng);
        let qnet = QuantNetwork::quantize(&net, config());
        let shift = qnet.ops.iter().find_map(|o| match o {
            QuantOp::AddSkip { scale_shift } => Some(*scale_shift),
            _ => None,
        });
        assert_eq!(shift, Some(config().f));
    }
}
