//! Materialized networks with `f64` weights and plaintext inference.

use crate::spec::{NetSpec, Shape, SpecOp};
use crate::tensor::Tensor;
use rand::Rng;

/// A materialized operation (weights included where applicable).
#[derive(Clone, Debug)]
pub enum Op {
    /// Convolution with weight `[co, ci, k, k]` and per-channel bias.
    Conv2d {
        /// Kernel weights.
        weight: Tensor,
        /// Per-output-channel bias.
        bias: Vec<f64>,
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
    },
    /// Fully-connected layer with weight `[out, in]`.
    Linear {
        /// Weights.
        weight: Tensor,
        /// Bias.
        bias: Vec<f64>,
    },
    /// Element-wise ReLU.
    Relu,
    /// Average pooling `k × k`, stride `k`.
    AvgPool2d {
        /// Pool size.
        k: usize,
    },
    /// Global average pooling.
    GlobalAvgPool,
    /// Flatten to a vector.
    Flatten,
    /// Push current activation to the skip stack.
    SaveSkip,
    /// Push a 1×1 strided projection of the current activation.
    SaveSkipProj {
        /// Projection weights `[co, ci, 1, 1]`.
        weight: Tensor,
        /// Projection bias.
        bias: Vec<f64>,
        /// Stride.
        stride: usize,
    },
    /// Pop the skip stack and add.
    AddSkip,
}

/// A runnable network: spec metadata plus materialized ops.
#[derive(Clone, Debug)]
pub struct Network {
    /// The originating spec.
    pub spec: NetSpec,
    /// Materialized ops (same order as `spec.ops`).
    pub ops: Vec<Op>,
}

fn kaiming_init<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, n: usize) -> Vec<f64> {
    let bound = (2.0 / fan_in as f64).sqrt();
    (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
}

impl Network {
    /// Materializes a spec with Kaiming-uniform random weights.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails shape inference.
    pub fn materialize<R: Rng + ?Sized>(spec: &NetSpec, rng: &mut R) -> Self {
        let shapes = spec.infer_shapes().expect("spec must be shape-valid");
        let mut prev = Shape::Chw(spec.input[0], spec.input[1], spec.input[2]);
        let mut ops = Vec::with_capacity(spec.ops.len());
        for (i, op) in spec.ops.iter().enumerate() {
            let materialized = match *op {
                SpecOp::Conv2d {
                    co,
                    k,
                    stride,
                    padding,
                } => {
                    let ci = match prev {
                        Shape::Chw(c, ..) => c,
                        Shape::Flat(_) => unreachable!("shape-checked"),
                    };
                    let fan_in = ci * k * k;
                    Op::Conv2d {
                        weight: Tensor::from_vec(
                            &[co, ci, k, k],
                            kaiming_init(rng, fan_in, co * ci * k * k),
                        ),
                        bias: vec![0.0; co],
                        stride,
                        padding,
                    }
                }
                SpecOp::Linear { out } => {
                    let inf = prev.volume();
                    Op::Linear {
                        weight: Tensor::from_vec(&[out, inf], kaiming_init(rng, inf, out * inf)),
                        bias: vec![0.0; out],
                    }
                }
                SpecOp::Relu => Op::Relu,
                SpecOp::AvgPool2d { k } => Op::AvgPool2d { k },
                SpecOp::GlobalAvgPool => Op::GlobalAvgPool,
                SpecOp::Flatten => Op::Flatten,
                SpecOp::SaveSkip => Op::SaveSkip,
                SpecOp::SaveSkipProj { co, stride } => {
                    let ci = match prev {
                        Shape::Chw(c, ..) => c,
                        Shape::Flat(_) => unreachable!("shape-checked"),
                    };
                    Op::SaveSkipProj {
                        weight: Tensor::from_vec(&[co, ci, 1, 1], kaiming_init(rng, ci, co * ci)),
                        bias: vec![0.0; co],
                        stride,
                    }
                }
                SpecOp::AddSkip => Op::AddSkip,
            };
            ops.push(materialized);
            prev = shapes[i].clone();
        }
        Self {
            spec: spec.clone(),
            ops,
        }
    }

    /// Plaintext `f64` forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the spec.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &self.spec.input,
            "input shape must match the network spec"
        );
        let mut x = input.clone();
        let mut skips: Vec<Tensor> = Vec::new();
        for op in &self.ops {
            x = match op {
                Op::Conv2d {
                    weight,
                    bias,
                    stride,
                    padding,
                } => conv2d(&x, weight, bias, *stride, *padding),
                Op::Linear { weight, bias } => linear(&x, weight, bias),
                Op::Relu => {
                    let mut y = x;
                    for v in y.data_mut() {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                    y
                }
                Op::AvgPool2d { k } => avg_pool(&x, *k),
                Op::GlobalAvgPool => {
                    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                    let mut out = Tensor::zeros(&[c]);
                    for ci in 0..c {
                        let mut acc = 0.0;
                        for hi in 0..h {
                            for wi in 0..w {
                                acc += x.at3(ci, hi, wi);
                            }
                        }
                        out.data_mut()[ci] = acc / (h * w) as f64;
                    }
                    out
                }
                Op::Flatten => {
                    let mut y = x;
                    let len = y.len();
                    y.reshape(&[len]);
                    y
                }
                Op::SaveSkip => {
                    skips.push(x.clone());
                    x
                }
                Op::SaveSkipProj {
                    weight,
                    bias,
                    stride,
                } => {
                    skips.push(conv2d(&x, weight, bias, *stride, 0));
                    x
                }
                Op::AddSkip => {
                    let skip = skips.pop().expect("shape-checked skip balance");
                    let mut y = x;
                    for (a, b) in y.data_mut().iter_mut().zip(skip.data()) {
                        *a += b;
                    }
                    y
                }
            };
        }
        x
    }
}

/// Reference 2-D convolution (CHW, square kernel).
pub(crate) fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: &[f64],
    stride: usize,
    padding: usize,
) -> Tensor {
    let (ci, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (co, wci, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    assert_eq!(ci, wci, "channel mismatch");
    let oh = (h + 2 * padding - k) / stride + 1;
    let ow = (w + 2 * padding - k) / stride + 1;
    let mut out = Tensor::zeros(&[co, oh, ow]);
    #[allow(clippy::needless_range_loop)] // o indexes bias, weight, and out together
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
                                acc +=
                                    x.at3(c, sy as usize, sx as usize) * weight.at4(o, c, dy, dx);
                            }
                        }
                    }
                }
                *out.at3_mut(o, y, xx) = acc;
            }
        }
    }
    out
}

fn linear(x: &Tensor, weight: &Tensor, bias: &[f64]) -> Tensor {
    let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(x.len(), in_f, "linear input length mismatch");
    let mut out = Tensor::zeros(&[out_f]);
    #[allow(clippy::needless_range_loop)] // o indexes bias, weight, and out together
    for o in 0..out_f {
        let mut acc = bias[o];
        for i in 0..in_f {
            acc += weight.data()[o * in_f + i] * x.data()[i];
        }
        out.data_mut()[o] = acc;
    }
    out
}

fn avg_pool(x: &Tensor, k: usize) -> Tensor {
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::zeros(&[c, oh, ow]);
    for ci in 0..c {
        for y in 0..oh {
            for xx in 0..ow {
                let mut acc = 0.0;
                for dy in 0..k {
                    for dx in 0..k {
                        acc += x.at3(ci, y * k + dy, xx * k + dx);
                    }
                }
                *out.at3_mut(ci, y, xx) = acc / (k * k) as f64;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecOp;
    use rand::SeedableRng;

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with weight 1 reproduces the input.
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv2d(&x, &w, &[0.0], 1, 0);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_known_values() {
        // 3x3 all-ones kernel over a 3x3 all-ones image, padding 1:
        // centre sees 9, edges see 6, corners see 4.
        let x = Tensor::from_vec(&[1, 3, 3], vec![1.0; 9]);
        let w = Tensor::from_vec(&[1, 1, 3, 3], vec![1.0; 9]);
        let y = conv2d(&x, &w, &[0.0], 1, 1);
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn conv_stride_and_bias() {
        let x = Tensor::from_vec(&[1, 4, 4], (0..16).map(|v| v as f64).collect());
        let w = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0; 4]);
        let y = conv2d(&x, &w, &[10.0], 2, 0);
        // windows: (0+1+4+5)+10, (2+3+6+7)+10, (8+9+12+13)+10, (10+11+14+15)+10
        assert_eq!(y.data(), &[20.0, 28.0, 52.0, 60.0]);
    }

    #[test]
    fn avg_pool_halves() {
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let y = avg_pool(&x, 2);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn forward_residual_identity() {
        // A residual block whose convs are zero must act as identity + relu.
        let spec = NetSpec {
            name: "res".into(),
            input: [1, 2, 2],
            ops: vec![
                SpecOp::SaveSkip,
                SpecOp::Conv2d {
                    co: 1,
                    k: 1,
                    stride: 1,
                    padding: 0,
                },
                SpecOp::AddSkip,
                SpecOp::Relu,
            ],
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut net = Network::materialize(&spec, &mut rng);
        if let Op::Conv2d { weight, .. } = &mut net.ops[1] {
            for v in weight.data_mut() {
                *v = 0.0;
            }
        }
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, -2.0, 3.0, -4.0]);
        let y = net.forward(&x);
        assert_eq!(y.data(), &[1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn forward_shapes_match_inference() {
        let spec = NetSpec {
            name: "mix".into(),
            input: [2, 8, 8],
            ops: vec![
                SpecOp::Conv2d {
                    co: 4,
                    k: 3,
                    stride: 1,
                    padding: 1,
                },
                SpecOp::Relu,
                SpecOp::AvgPool2d { k: 2 },
                SpecOp::GlobalAvgPool,
                SpecOp::Linear { out: 3 },
            ],
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = Network::materialize(&spec, &mut rng);
        let x = Tensor::from_vec(&[2, 8, 8], vec![0.5; 128]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[3]);
    }

    #[test]
    #[should_panic]
    fn wrong_input_shape_rejected() {
        let spec = NetSpec {
            name: "t".into(),
            input: [1, 4, 4],
            ops: vec![SpecOp::Flatten, SpecOp::Linear { out: 2 }],
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let net = Network::materialize(&spec, &mut rng);
        net.forward(&Tensor::zeros(&[1, 2, 2]));
    }
}
