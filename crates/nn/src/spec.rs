//! Shape-level network descriptions and PI cost statistics.
//!
//! A [`NetSpec`] describes an architecture without materializing weights, so
//! the simulator can compute ReLU counts, MAC counts, and HE layer sizes for
//! ImageNet-scale networks (hundreds of millions of parameters) without
//! allocating them. `pi-nn::network` materializes small specs into runnable
//! networks for the protocol tests.

/// A shape-level operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecOp {
    /// 2-D convolution with square kernels; `ci` inferred from the input.
    Conv2d {
        /// Output channels.
        co: usize,
        /// Kernel side length.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        padding: usize,
    },
    /// Fully-connected layer; input features inferred.
    Linear {
        /// Output features.
        out: usize,
    },
    /// Element-wise ReLU (the GC-evaluated non-linearity).
    Relu,
    /// Average pooling `k × k`, stride `k`.
    AvgPool2d {
        /// Pool side length / stride.
        k: usize,
    },
    /// Global average pooling to `[c]`.
    GlobalAvgPool,
    /// Flatten `[c, h, w]` to `[c·h·w]`.
    Flatten,
    /// Push the current activation onto the skip stack (identity shortcut).
    SaveSkip,
    /// Push a 1×1-conv projection of the current activation (downsampling
    /// shortcut). Counts as a linear layer for PI.
    SaveSkipProj {
        /// Output channels of the projection.
        co: usize,
        /// Stride of the projection.
        stride: usize,
    },
    /// Pop the skip stack and add it to the current activation.
    AddSkip,
}

/// A network architecture: input shape plus an op list.
#[derive(Clone, Debug)]
pub struct NetSpec {
    /// Human-readable name, e.g. `"resnet18-tinyimagenet"`.
    pub name: String,
    /// Input shape `[c, h, w]`.
    pub input: [usize; 3],
    /// Operations in execution order.
    pub ops: Vec<SpecOp>,
}

/// Activation shape during inference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Feature map `[c, h, w]`.
    Chw(usize, usize, usize),
    /// Flat vector `[n]`.
    Flat(usize),
}

impl Shape {
    /// Number of elements.
    pub(crate) fn volume(&self) -> usize {
        match *self {
            Shape::Chw(c, h, w) => c * h * w,
            Shape::Flat(n) => n,
        }
    }
}

/// Kind of a linear layer, carrying the structural parameters the
/// Gazelle-style HE cost model needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinearKind {
    /// Convolution with `ci` input channels, `co` output channels, and a
    /// `k × k` kernel.
    Conv {
        /// Input channels.
        ci: usize,
        /// Output channels.
        co: usize,
        /// Kernel side length.
        k: usize,
    },
    /// 1×1 projection shortcut.
    Proj {
        /// Input channels.
        ci: usize,
        /// Output channels.
        co: usize,
    },
    /// Fully-connected layer.
    Fc,
}

/// Statistics of one linear (HE-evaluated) layer.
#[derive(Clone, Debug)]
pub struct LinearLayerStat {
    /// Descriptive name (`conv3`, `fc1`, `proj2`…).
    pub name: String,
    /// Layer kind with HE-relevant structure.
    pub kind: LinearKind,
    /// Flattened input features.
    pub in_features: usize,
    /// Flattened output features.
    pub out_features: usize,
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Parameter count (weights + biases).
    pub params: u64,
}

/// Full PI-relevant statistics of a network.
#[derive(Clone, Debug)]
pub struct NetworkStats {
    /// Per-linear-layer stats in execution order.
    pub linear_layers: Vec<LinearLayerStat>,
    /// Per-ReLU-layer element counts in execution order.
    pub relu_layers: Vec<u64>,
    /// Total ReLU count.
    pub total_relus: u64,
    /// Total MACs.
    pub total_macs: u64,
    /// Total parameters.
    pub total_params: u64,
}

/// Shape-inference or spec-validation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// An op was applied to an incompatible shape.
    ShapeMismatch {
        /// Index of the offending op.
        op_index: usize,
        /// Description of the failure.
        reason: String,
    },
    /// `AddSkip` with an empty skip stack, or leftover skips at the end.
    SkipImbalance,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ShapeMismatch { op_index, reason } => {
                write!(f, "shape mismatch at op {op_index}: {reason}")
            }
            SpecError::SkipImbalance => write!(f, "unbalanced skip connections"),
        }
    }
}

impl std::error::Error for SpecError {}

impl NetSpec {
    /// Runs shape inference, returning the shape after every op.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if any op is applied to an incompatible shape
    /// or the skip stack is unbalanced.
    pub(crate) fn infer_shapes(&self) -> Result<Vec<Shape>, SpecError> {
        let mut shape = Shape::Chw(self.input[0], self.input[1], self.input[2]);
        let mut skips: Vec<Shape> = Vec::new();
        let mut out = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let err = |reason: String| SpecError::ShapeMismatch {
                op_index: i,
                reason,
            };
            shape = match *op {
                SpecOp::Conv2d {
                    co,
                    k,
                    stride,
                    padding,
                } => match shape {
                    Shape::Chw(_, h, w) => {
                        if h + 2 * padding < k || w + 2 * padding < k {
                            return Err(err(format!(
                                "kernel {k} larger than padded input {h}x{w}"
                            )));
                        }
                        let oh = (h + 2 * padding - k) / stride + 1;
                        let ow = (w + 2 * padding - k) / stride + 1;
                        Shape::Chw(co, oh, ow)
                    }
                    Shape::Flat(_) => return Err(err("conv on flat tensor".into())),
                },
                SpecOp::Linear { out } => match shape {
                    Shape::Flat(_) => Shape::Flat(out),
                    Shape::Chw(..) => {
                        return Err(err("linear on CHW tensor (flatten first)".into()))
                    }
                },
                SpecOp::Relu => shape,
                SpecOp::AvgPool2d { k } => match shape {
                    Shape::Chw(c, h, w) => {
                        if h % k != 0 || w % k != 0 {
                            return Err(err(format!("pool {k} does not divide {h}x{w}")));
                        }
                        Shape::Chw(c, h / k, w / k)
                    }
                    Shape::Flat(_) => return Err(err("pool on flat tensor".into())),
                },
                SpecOp::GlobalAvgPool => match shape {
                    Shape::Chw(c, _, _) => Shape::Flat(c),
                    Shape::Flat(_) => return Err(err("global pool on flat tensor".into())),
                },
                SpecOp::Flatten => Shape::Flat(shape.volume()),
                SpecOp::SaveSkip => {
                    skips.push(shape.clone());
                    shape
                }
                SpecOp::SaveSkipProj { co, stride } => match shape {
                    Shape::Chw(_, h, w) => {
                        skips.push(Shape::Chw(co, h.div_ceil(stride), w.div_ceil(stride)));
                        shape
                    }
                    Shape::Flat(_) => return Err(err("projection on flat tensor".into())),
                },
                SpecOp::AddSkip => {
                    let skip = skips.pop().ok_or(SpecError::SkipImbalance)?;
                    if skip != shape {
                        return Err(err(format!("skip shape {skip:?} vs main {shape:?}")));
                    }
                    shape
                }
            };
            out.push(shape.clone());
        }
        if !skips.is_empty() {
            return Err(SpecError::SkipImbalance);
        }
        Ok(out)
    }

    /// Computes the PI cost statistics (ReLU counts, MACs, HE layer
    /// dimensions) without materializing weights.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures.
    pub fn stats(&self) -> Result<NetworkStats, SpecError> {
        let shapes = self.infer_shapes()?;
        let mut linear_layers = Vec::new();
        let mut relu_layers = Vec::new();
        let mut conv_idx = 0usize;
        let mut fc_idx = 0usize;
        let mut proj_idx = 0usize;
        let mut prev = Shape::Chw(self.input[0], self.input[1], self.input[2]);
        for (i, op) in self.ops.iter().enumerate() {
            let cur = &shapes[i];
            match *op {
                SpecOp::Conv2d { co, k, .. } => {
                    let ci = match prev {
                        Shape::Chw(c, ..) => c,
                        Shape::Flat(_) => unreachable!("validated by shape inference"),
                    };
                    conv_idx += 1;
                    let out_vol = cur.volume() as u64;
                    linear_layers.push(LinearLayerStat {
                        name: format!("conv{conv_idx}"),
                        kind: LinearKind::Conv { ci, co, k },
                        in_features: prev.volume(),
                        out_features: cur.volume(),
                        macs: out_vol * (ci * k * k) as u64,
                        params: (co * ci * k * k + co) as u64,
                    });
                }
                SpecOp::Linear { out } => {
                    let inf = prev.volume();
                    fc_idx += 1;
                    linear_layers.push(LinearLayerStat {
                        name: format!("fc{fc_idx}"),
                        kind: LinearKind::Fc,
                        in_features: inf,
                        out_features: out,
                        macs: (inf * out) as u64,
                        params: (inf * out + out) as u64,
                    });
                }
                SpecOp::SaveSkipProj { co, stride } => {
                    let (ci, h, w) = match prev {
                        Shape::Chw(c, h, w) => (c, h, w),
                        Shape::Flat(_) => unreachable!("validated by shape inference"),
                    };
                    proj_idx += 1;
                    let out_vol = (co * (h / stride) * (w / stride)) as u64;
                    linear_layers.push(LinearLayerStat {
                        name: format!("proj{proj_idx}"),
                        kind: LinearKind::Proj { ci, co },
                        in_features: prev.volume(),
                        out_features: out_vol as usize,
                        macs: out_vol * ci as u64,
                        params: (co * ci + co) as u64,
                    });
                }
                SpecOp::Relu => relu_layers.push(cur.volume() as u64),
                _ => {}
            }
            prev = cur.clone();
        }
        Ok(NetworkStats {
            total_relus: relu_layers.iter().sum(),
            total_macs: linear_layers.iter().map(|l| l.macs).sum(),
            total_params: linear_layers.iter().map(|l| l.params).sum(),
            linear_layers,
            relu_layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> NetSpec {
        NetSpec {
            name: "tiny".into(),
            input: [1, 4, 4],
            ops: vec![
                SpecOp::Conv2d {
                    co: 2,
                    k: 3,
                    stride: 1,
                    padding: 1,
                },
                SpecOp::Relu,
                SpecOp::Flatten,
                SpecOp::Linear { out: 10 },
            ],
        }
    }

    #[test]
    fn shape_inference_sequential() {
        let shapes = tiny_spec().infer_shapes().unwrap();
        assert_eq!(shapes[0], Shape::Chw(2, 4, 4));
        assert_eq!(shapes[2], Shape::Flat(32));
        assert_eq!(shapes[3], Shape::Flat(10));
    }

    #[test]
    fn stats_count_relus_and_macs() {
        let s = tiny_spec().stats().unwrap();
        assert_eq!(s.total_relus, 32);
        assert_eq!(s.linear_layers.len(), 2);
        assert_eq!(s.linear_layers[0].macs, 32 * 9); // 2*4*4 outputs x 1*3*3
        assert_eq!(s.linear_layers[1].macs, 320);
    }

    #[test]
    fn residual_block_shapes() {
        let spec = NetSpec {
            name: "res".into(),
            input: [4, 8, 8],
            ops: vec![
                SpecOp::SaveSkip,
                SpecOp::Conv2d {
                    co: 4,
                    k: 3,
                    stride: 1,
                    padding: 1,
                },
                SpecOp::Relu,
                SpecOp::Conv2d {
                    co: 4,
                    k: 3,
                    stride: 1,
                    padding: 1,
                },
                SpecOp::AddSkip,
                SpecOp::Relu,
            ],
        };
        let shapes = spec.infer_shapes().unwrap();
        assert_eq!(*shapes.last().unwrap(), Shape::Chw(4, 8, 8));
        let stats = spec.stats().unwrap();
        assert_eq!(stats.relu_layers, vec![256, 256]);
    }

    #[test]
    fn projection_skip_counts_as_linear() {
        let spec = NetSpec {
            name: "res-down".into(),
            input: [4, 8, 8],
            ops: vec![
                SpecOp::SaveSkipProj { co: 8, stride: 2 },
                SpecOp::Conv2d {
                    co: 8,
                    k: 3,
                    stride: 2,
                    padding: 1,
                },
                SpecOp::Relu,
                SpecOp::Conv2d {
                    co: 8,
                    k: 3,
                    stride: 1,
                    padding: 1,
                },
                SpecOp::AddSkip,
                SpecOp::Relu,
            ],
        };
        let stats = spec.stats().unwrap();
        assert_eq!(stats.linear_layers.len(), 3);
        assert_eq!(stats.linear_layers[0].name, "proj1");
    }

    #[test]
    fn skip_shape_mismatch_detected() {
        let spec = NetSpec {
            name: "bad".into(),
            input: [4, 8, 8],
            ops: vec![
                SpecOp::SaveSkip,
                SpecOp::Conv2d {
                    co: 8,
                    k: 3,
                    stride: 2,
                    padding: 1,
                },
                SpecOp::AddSkip,
            ],
        };
        assert!(matches!(
            spec.infer_shapes(),
            Err(SpecError::ShapeMismatch { op_index: 2, .. })
        ));
    }

    #[test]
    fn unbalanced_skips_detected() {
        let spec = NetSpec {
            name: "bad2".into(),
            input: [1, 4, 4],
            ops: vec![SpecOp::SaveSkip],
        };
        assert_eq!(spec.infer_shapes(), Err(SpecError::SkipImbalance));
        let spec2 = NetSpec {
            name: "bad3".into(),
            input: [1, 4, 4],
            ops: vec![SpecOp::AddSkip],
        };
        assert_eq!(spec2.infer_shapes(), Err(SpecError::SkipImbalance));
    }

    #[test]
    fn linear_on_chw_rejected() {
        let spec = NetSpec {
            name: "bad4".into(),
            input: [1, 4, 4],
            ops: vec![SpecOp::Linear { out: 10 }],
        };
        assert!(spec.infer_shapes().is_err());
    }
}
