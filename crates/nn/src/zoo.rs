//! The model zoo: the paper's three architectures on its three datasets,
//! plus tiny networks for protocol tests.
//!
//! Architectures follow §3 of the paper: max-pooling replaced by average
//! pooling, CIFAR-style ResNet-32, standard ResNet-18 basic blocks with a
//! stride-1 3×3 stem (no stem pooling), and VGG-16 with two 4096-wide
//! hidden FC layers. The resulting ReLU counts reproduce Figure 3 exactly
//! (e.g. 2,228,224 ReLUs for ResNet-18 on TinyImageNet).

use crate::spec::{NetSpec, SpecOp};

/// The paper's evaluation datasets (input geometry + class count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// CIFAR-100: 32×32×3, 100 classes.
    Cifar100,
    /// TinyImageNet: 64×64×3, 200 classes.
    TinyImageNet,
    /// ImageNet: 224×224×3, 1000 classes.
    ImageNet,
}

impl Dataset {
    /// Input shape `[c, h, w]`.
    pub fn input(&self) -> [usize; 3] {
        match self {
            Dataset::Cifar100 => [3, 32, 32],
            Dataset::TinyImageNet => [3, 64, 64],
            Dataset::ImageNet => [3, 224, 224],
        }
    }

    /// Number of classes.
    pub(crate) fn classes(&self) -> usize {
        match self {
            Dataset::Cifar100 => 100,
            Dataset::TinyImageNet => 200,
            Dataset::ImageNet => 1000,
        }
    }

    /// Short name used in spec names and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Cifar100 => "cifar100",
            Dataset::TinyImageNet => "tinyimagenet",
            Dataset::ImageNet => "imagenet",
        }
    }

    /// All three datasets.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Cifar100, Dataset::TinyImageNet, Dataset::ImageNet]
    }
}

/// The paper's three network families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// CIFAR-style ResNet-32 (3 stages × 5 basic blocks, 16/32/64 channels).
    ResNet32,
    /// VGG-16 with average pooling.
    Vgg16,
    /// ResNet-18 (4 stages × 2 basic blocks, 64–512 channels).
    ResNet18,
}

impl Architecture {
    /// Short name.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::ResNet32 => "resnet32",
            Architecture::Vgg16 => "vgg16",
            Architecture::ResNet18 => "resnet18",
        }
    }

    /// All three architectures.
    pub fn all() -> [Architecture; 3] {
        [
            Architecture::ResNet32,
            Architecture::Vgg16,
            Architecture::ResNet18,
        ]
    }

    /// Builds the spec for a dataset.
    pub fn spec(&self, dataset: Dataset) -> NetSpec {
        match self {
            Architecture::ResNet32 => resnet32(dataset),
            Architecture::Vgg16 => vgg16(dataset),
            Architecture::ResNet18 => resnet18(dataset),
        }
    }
}

fn basic_block(ops: &mut Vec<SpecOp>, co: usize, stride: usize, project: bool) {
    if project {
        ops.push(SpecOp::SaveSkipProj { co, stride });
    } else {
        ops.push(SpecOp::SaveSkip);
    }
    ops.push(SpecOp::Conv2d {
        co,
        k: 3,
        stride,
        padding: 1,
    });
    ops.push(SpecOp::Relu);
    ops.push(SpecOp::Conv2d {
        co,
        k: 3,
        stride: 1,
        padding: 1,
    });
    ops.push(SpecOp::AddSkip);
    ops.push(SpecOp::Relu);
}

/// CIFAR-style ResNet-32: stem conv + 3 stages of 5 basic blocks
/// (16, 32, 64 channels), global average pool, classifier.
pub fn resnet32(dataset: Dataset) -> NetSpec {
    let mut ops = vec![
        SpecOp::Conv2d {
            co: 16,
            k: 3,
            stride: 1,
            padding: 1,
        },
        SpecOp::Relu,
    ];
    let stages = [(16usize, 1usize), (32, 2), (64, 2)];
    for (si, &(co, stride)) in stages.iter().enumerate() {
        for b in 0..5 {
            let first = b == 0;
            let s = if first { stride } else { 1 };
            // First block of stages 2/3 changes channels: projection skip.
            basic_block(&mut ops, co, s, first && si > 0);
        }
    }
    ops.push(SpecOp::GlobalAvgPool);
    ops.push(SpecOp::Linear {
        out: dataset.classes(),
    });
    NetSpec {
        name: format!("resnet32-{}", dataset.name()),
        input: dataset.input(),
        ops,
    }
}

/// ResNet-18: stride-1 3×3 stem (no stem pooling, per the PI literature's
/// TinyImageNet adaptation used by the paper), 4 stages of 2 basic blocks
/// (64, 128, 256, 512), global average pool, classifier.
pub fn resnet18(dataset: Dataset) -> NetSpec {
    let mut ops = vec![
        SpecOp::Conv2d {
            co: 64,
            k: 3,
            stride: 1,
            padding: 1,
        },
        SpecOp::Relu,
    ];
    let stages = [(64usize, 1usize), (128, 2), (256, 2), (512, 2)];
    for (si, &(co, stride)) in stages.iter().enumerate() {
        for b in 0..2 {
            let first = b == 0;
            let s = if first { stride } else { 1 };
            basic_block(&mut ops, co, s, first && si > 0);
        }
    }
    ops.push(SpecOp::GlobalAvgPool);
    ops.push(SpecOp::Linear {
        out: dataset.classes(),
    });
    NetSpec {
        name: format!("resnet18-{}", dataset.name()),
        input: dataset.input(),
        ops,
    }
}

/// VGG-16 with average pooling and two 4096-wide hidden FC layers.
pub fn vgg16(dataset: Dataset) -> NetSpec {
    let mut ops = Vec::new();
    let groups: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    for &(co, reps) in &groups {
        for _ in 0..reps {
            ops.push(SpecOp::Conv2d {
                co,
                k: 3,
                stride: 1,
                padding: 1,
            });
            ops.push(SpecOp::Relu);
        }
        ops.push(SpecOp::AvgPool2d { k: 2 });
    }
    ops.push(SpecOp::Flatten);
    ops.push(SpecOp::Linear { out: 4096 });
    ops.push(SpecOp::Relu);
    ops.push(SpecOp::Linear { out: 4096 });
    ops.push(SpecOp::Relu);
    ops.push(SpecOp::Linear {
        out: dataset.classes(),
    });
    NetSpec {
        name: format!("vgg16-{}", dataset.name()),
        input: dataset.input(),
        ops,
    }
}

/// A small sequential CNN for end-to-end protocol tests
/// (1×6×6 input → conv(2ch) → ReLU → FC → ReLU → FC).
pub fn tiny_cnn() -> NetSpec {
    NetSpec {
        name: "tiny-cnn".into(),
        input: [1, 6, 6],
        ops: vec![
            SpecOp::Conv2d {
                co: 2,
                k: 3,
                stride: 1,
                padding: 1,
            },
            SpecOp::Relu,
            SpecOp::Flatten,
            SpecOp::Linear { out: 16 },
            SpecOp::Relu,
            SpecOp::Linear { out: 4 },
        ],
    }
}

/// A small residual network exercising identity and projection skips.
pub fn tiny_resnet() -> NetSpec {
    let mut ops = vec![
        SpecOp::Conv2d {
            co: 2,
            k: 3,
            stride: 1,
            padding: 1,
        },
        SpecOp::Relu,
    ];
    basic_block(&mut ops, 2, 1, false); // identity skip
    basic_block(&mut ops, 4, 2, true); // projection skip
    ops.push(SpecOp::GlobalAvgPool);
    ops.push(SpecOp::Linear { out: 3 });
    NetSpec {
        name: "tiny-resnet".into(),
        input: [1, 8, 8],
        ops,
    }
}

/// A small CNN with average pooling (tests divisor folding).
pub fn tiny_cnn_pool() -> NetSpec {
    NetSpec {
        name: "tiny-cnn-pool".into(),
        input: [1, 8, 8],
        ops: vec![
            SpecOp::Conv2d {
                co: 2,
                k: 3,
                stride: 1,
                padding: 1,
            },
            SpecOp::Relu,
            SpecOp::AvgPool2d { k: 2 },
            SpecOp::Conv2d {
                co: 2,
                k: 3,
                stride: 1,
                padding: 1,
            },
            SpecOp::Relu,
            SpecOp::GlobalAvgPool,
            SpecOp::Linear { out: 3 },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3 ground truth: total ReLUs per (architecture, dataset).
    #[test]
    fn relu_counts_reproduce_figure_3() {
        let expect = [
            (Architecture::Vgg16, Dataset::Cifar100, 284_672u64),
            (Architecture::ResNet32, Dataset::Cifar100, 303_104),
            (Architecture::ResNet18, Dataset::Cifar100, 557_056),
            (Architecture::Vgg16, Dataset::TinyImageNet, 1_114_112),
            (Architecture::ResNet32, Dataset::TinyImageNet, 1_212_416),
            (Architecture::ResNet18, Dataset::TinyImageNet, 2_228_224),
            (Architecture::Vgg16, Dataset::ImageNet, 13_555_712),
            (Architecture::ResNet32, Dataset::ImageNet, 14_852_096),
            (Architecture::ResNet18, Dataset::ImageNet, 27_295_744),
        ];
        for (arch, ds, relus) in expect {
            let stats = arch.spec(ds).stats().unwrap();
            assert_eq!(
                stats.total_relus,
                relus,
                "{} on {}: got {} ReLUs",
                arch.name(),
                ds.name(),
                stats.total_relus
            );
        }
    }

    #[test]
    fn resnet18_has_17_linear_layers_on_tinyimagenet() {
        // The paper assigns 17 server cores for LPHE: "there are 17 linear
        // layers in ResNet18" (stem + 16 block convs; projections are folded
        // into their blocks' compute in their count — we also count the 3
        // projections separately and document the difference).
        let spec = Architecture::ResNet18.spec(Dataset::TinyImageNet);
        let main_layers = spec
            .ops
            .iter()
            .filter(|o| matches!(o, SpecOp::Conv2d { .. } | SpecOp::Linear { .. }))
            .count();
        assert_eq!(main_layers, 18); // 17 convs + classifier
        let linear = spec.stats().unwrap().linear_layers.len();
        assert_eq!(linear, 21); // + 3 projection convs
    }

    #[test]
    fn all_specs_shape_check() {
        for arch in Architecture::all() {
            for ds in Dataset::all() {
                arch.spec(ds).infer_shapes().unwrap_or_else(|e| {
                    panic!("{} on {}: {e}", arch.name(), ds.name());
                });
            }
        }
    }

    #[test]
    fn parameter_counts_plausible() {
        // ResNet-18 ~ 11M params on ImageNet-class nets.
        let s = Architecture::ResNet18
            .spec(Dataset::TinyImageNet)
            .stats()
            .unwrap();
        assert!(
            (10_000_000..13_000_000).contains(&s.total_params),
            "{}",
            s.total_params
        );
        // VGG-16 on ImageNet ~ 138M params (dominated by FC layers).
        let v = Architecture::Vgg16.spec(Dataset::ImageNet).stats().unwrap();
        assert!(
            (120_000_000..150_000_000).contains(&v.total_params),
            "{}",
            v.total_params
        );
    }

    #[test]
    fn vgg_relu_structure() {
        let s = Architecture::Vgg16.spec(Dataset::Cifar100).stats().unwrap();
        assert_eq!(s.relu_layers.len(), 15); // 13 convs + 2 FC
        assert_eq!(s.relu_layers[13], 4096);
    }

    #[test]
    fn tiny_networks_are_valid() {
        for spec in [tiny_cnn(), tiny_resnet(), tiny_cnn_pool()] {
            spec.infer_shapes().unwrap();
            assert!(spec.stats().unwrap().total_relus > 0);
        }
    }
}
