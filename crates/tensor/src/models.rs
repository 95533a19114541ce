//! The three evaluation networks of the thesis: LeNet-5 (Table 2.1),
//! MobileNetV1 (Table 2.2) and ResNet-18/34 (Table 2.3).
//!
//! Weights are deterministic seeded He-style initializations (we have no
//! access to Keras Applications / image-classifiers pretrained parameters;
//! inference *timing* does not depend on weight values, and correctness is
//! validated against the host graph executor on identical weights).
//!
//! A built graph holds each layer's weight shape and seed, not its values:
//! as in the thesis flow, where kernels and the bitstream are built from
//! layer shapes and weights reach the board only as kernel arguments,
//! importing, compiling, synthesizing and simulating a model never read
//! them. The first value read generates a layer's tensor (see
//! [`Weights`]); each layer has its own seed, so the values do not depend
//! on when, or on which thread, that happens.

use crate::graph::{Graph, NodeId, Op, Weights};
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn layer_seed(model: &str, layer: &str) -> u64 {
    let mut h = DefaultHasher::new();
    model.hash(&mut h);
    layer.hash(&mut h);
    h.finish()
}

fn bn_params(model: &str, layer: &str, channels: usize) -> (Vec<f32>, Vec<f32>) {
    // Mild per-channel scale/shift so fusion correctness is actually
    // exercised, while keeping activations stable through deep stacks.
    let t = Tensor::random(
        Shape::d1(2 * channels),
        layer_seed(model, layer) ^ 0xBEEF,
        1.0,
    );
    let scale = t.data()[..channels]
        .iter()
        .map(|v| 0.9 + 0.2 * v.abs())
        .collect();
    let shift = t.data()[channels..].iter().map(|v| 0.05 * v).collect();
    (scale, shift)
}

/// Identifies the evaluation networks across the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// LeNet-5 on 1x28x28 inputs.
    LeNet5,
    /// MobileNetV1 on 3x224x224 inputs.
    MobileNetV1,
    /// ResNet-18 on 3x224x224 inputs.
    ResNet18,
    /// ResNet-34 on 3x224x224 inputs.
    ResNet34,
}

impl Model {
    /// All four evaluation networks.
    pub const ALL: [Model; 4] = [
        Model::LeNet5,
        Model::MobileNetV1,
        Model::ResNet18,
        Model::ResNet34,
    ];

    /// Name as used in the thesis tables.
    pub fn name(self) -> &'static str {
        match self {
            Model::LeNet5 => "LeNet-5",
            Model::MobileNetV1 => "MobileNetV1",
            Model::ResNet18 => "ResNet-18",
            Model::ResNet34 => "ResNet-34",
        }
    }

    /// Builds the network graph with seeded weights.
    pub fn build(self) -> Graph {
        match self {
            Model::LeNet5 => lenet5(),
            Model::MobileNetV1 => mobilenet_v1(),
            Model::ResNet18 => resnet(18),
            Model::ResNet34 => resnet(34),
        }
    }
}

struct Builder {
    g: Graph,
    model: &'static str,
}

#[allow(clippy::too_many_arguments)] // a convolution's full hyper-parameter list
impl Builder {
    fn new(model: &'static str, input: Shape) -> Self {
        Builder {
            g: Graph::new(model, input),
            model,
        }
    }

    /// Pushes a weighted node. Its weights of `shape` are the layer's seeded
    /// He initialization, generated on first read; its bias, if any, holds
    /// one seeded value per output (`shape` dimension 0).
    fn weighted(
        &mut self,
        name: &str,
        op: Op,
        from: NodeId,
        shape: Shape,
        fan_in: usize,
        bias: bool,
    ) -> NodeId {
        let seed = layer_seed(self.model, name);
        let b = bias.then(|| Tensor::random(Shape::d1(shape.dim(0)), seed ^ 1, 0.05).into_vec());
        let w = Weights::he_init(shape, fan_in, seed);
        self.g
            .push_shared(name, op, vec![from], Some(Arc::new(w)), b, None)
    }

    fn conv(
        &mut self,
        name: &str,
        from: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
    ) -> NodeId {
        let c1 = self.g.nodes[from].out_shape.dim(0);
        let op = Op::Conv2d {
            out_channels,
            kernel,
            stride,
            pad,
            depthwise: false,
        };
        let shape = Shape::kcff(out_channels, c1, kernel);
        self.weighted(name, op, from, shape, c1 * kernel * kernel, bias)
    }

    fn dwconv(
        &mut self,
        name: &str,
        from: NodeId,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let c = self.g.nodes[from].out_shape.dim(0);
        let op = Op::Conv2d {
            out_channels: c,
            kernel,
            stride,
            pad,
            depthwise: true,
        };
        let shape = Shape::new(&[c, 1, kernel, kernel]);
        self.weighted(name, op, from, shape, kernel * kernel, false)
    }

    fn bn(&mut self, name: &str, from: NodeId) -> NodeId {
        let c = self.g.nodes[from].out_shape.dim(0);
        let params = bn_params(self.model, name, c);
        self.g
            .push_with_params(name, Op::BatchNorm, vec![from], None, None, Some(params))
    }

    fn dense(&mut self, name: &str, from: NodeId, units: usize, bias: bool) -> NodeId {
        let n = self.g.nodes[from].out_shape.dim(0);
        self.weighted(
            name,
            Op::Dense { units },
            from,
            Shape::d2(units, n),
            n,
            bias,
        )
    }

    fn relu(&mut self, name: &str, from: NodeId) -> NodeId {
        self.g.push(name, Op::Relu, vec![from])
    }

    fn relu6(&mut self, name: &str, from: NodeId) -> NodeId {
        self.g.push(name, Op::Relu6, vec![from])
    }
}

/// LeNet-5 exactly as Table 2.1: two 3x3 convolution/max-pool stages, three
/// dense layers, softmax. 389K FLOPs / 60K parameters (§6.3.1).
///
/// Note on Table 2.1: the table lists `stride=1` for the pools but the layer
/// output sizes (26→13, 11→5) require stride 2; we follow the output sizes.
pub fn lenet5() -> Graph {
    let mut b = Builder::new("lenet5", Shape::chw(1, 28, 28));
    let c1 = b.conv("conv1", 0, 6, 3, 1, 0, true);
    let r1 = b.relu("relu1", c1);
    let p1 = b.g.push(
        "pool1",
        Op::MaxPool {
            window: 2,
            stride: 2,
            pad: 0,
        },
        vec![r1],
    );
    let c2 = b.conv("conv2", p1, 16, 3, 1, 0, true);
    let r2 = b.relu("relu2", c2);
    let p2 = b.g.push(
        "pool2",
        Op::MaxPool {
            window: 2,
            stride: 2,
            pad: 0,
        },
        vec![r2],
    );
    let f = b.g.push("flatten", Op::Flatten, vec![p2]);
    let d1 = b.dense("dense1", f, 120, true);
    let rd1 = b.relu("relu3", d1);
    let d2 = b.dense("dense2", rd1, 84, true);
    let rd2 = b.relu("relu4", d2);
    let d3 = b.dense("dense3", rd2, 10, true);
    b.g.push("softmax", Op::Softmax, vec![d3]);
    b.g
}

/// MobileNetV1 exactly as Table 2.2: a strided 3x3 stem, thirteen depthwise
/// separable stages, global average pooling and a 1000-way classifier.
/// 1.11G FLOPs / 4.2M parameters (Table 6.11).
pub fn mobilenet_v1() -> Graph {
    let mut b = Builder::new("mobilenet_v1", Shape::chw(3, 224, 224));
    let mut x = b.conv("conv_1", 0, 32, 3, 2, 1, false);
    x = b.bn("conv_1_bn", x);
    x = b.relu6("conv_1_relu", x);

    // (stride of the depthwise conv, output channels of the pointwise conv)
    let stages: [(usize, usize); 13] = [
        (1, 64),
        (2, 128),
        (1, 128),
        (2, 256),
        (1, 256),
        (2, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (1, 512),
        (2, 1024),
        (1, 1024),
    ];
    for (i, &(stride, out_ch)) in stages.iter().enumerate() {
        let n = i + 2;
        x = b.dwconv(&format!("conv_{n}_dw"), x, 3, stride, 1);
        x = b.bn(&format!("conv_{n}_dw_bn"), x);
        x = b.relu6(&format!("conv_{n}_dw_relu"), x);
        x = b.conv(&format!("conv_{n}"), x, out_ch, 1, 1, 0, false);
        x = b.bn(&format!("conv_{n}_bn"), x);
        x = b.relu6(&format!("conv_{n}_relu"), x);
    }

    let pool = b.g.push(
        "pool",
        Op::AvgPool {
            window: 7,
            stride: 1,
            pad: 0,
        },
        vec![x],
    );
    let f = b.g.push("flatten", Op::Flatten, vec![pool]);
    let fc = b.dense("fc", f, 1000, true);
    b.g.push("softmax", Op::Softmax, vec![fc]);
    b.g
}

/// ResNet-18 or ResNet-34 exactly as Table 2.3: a 7x7 stem, four stages of
/// basic residual blocks (`[2,2,2,2]` or `[3,4,6,3]`), 1x1 strided projection
/// shortcuts where dimensions change, global average pooling and a 1000-way
/// classifier. ResNet-18: 3.66G FLOPs / 11.7M params; ResNet-34: 7.36G /
/// 21.8M (Table 6.14).
///
/// # Panics
/// Panics unless `depth` is 18 or 34.
pub fn resnet(depth: usize) -> Graph {
    let blocks: [usize; 4] = match depth {
        18 => [2, 2, 2, 2],
        34 => [3, 4, 6, 3],
        _ => panic!("only ResNet-18 and ResNet-34 are modeled (got {depth})"),
    };
    let model: &'static str = if depth == 18 { "resnet18" } else { "resnet34" };
    let mut b = Builder::new(model, Shape::chw(3, 224, 224));

    let mut x = b.conv("conv1", 0, 64, 7, 2, 3, false);
    x = b.bn("conv1_bn", x);
    x = b.relu("conv1_relu", x);
    x = b.g.push(
        "pool1",
        Op::MaxPool {
            window: 3,
            stride: 2,
            pad: 1,
        },
        vec![x],
    );

    let mut channels = 64usize;
    for (stage, &nblocks) in blocks.iter().enumerate() {
        let stage_ch = 64 << stage;
        for blk in 0..nblocks {
            let name = |s: &str| format!("conv{}_{}_{s}", stage + 2, blk + 1);
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let identity = x;

            let mut out = b.conv(&name("a"), x, stage_ch, 3, stride, 1, false);
            out = b.bn(&name("a_bn"), out);
            out = b.relu(&name("a_relu"), out);
            out = b.conv(&name("b"), out, stage_ch, 3, 1, 1, false);
            out = b.bn(&name("b_bn"), out);

            let skip = if stride != 1 || channels != stage_ch {
                // "A linear projection is required to match dimensions
                // between f(x) and x ... performed by 1x1 convolutions"
                // (§2.1.5).
                let p = b.conv(&name("proj"), identity, stage_ch, 1, stride, 0, false);
                b.bn(&name("proj_bn"), p)
            } else {
                identity
            };
            let added = b.g.push(name("add"), Op::Add, vec![out, skip]);
            x = b.relu(&name("relu"), added);
            channels = stage_ch;
        }
    }

    let pool = b.g.push(
        "pool",
        Op::AvgPool {
            window: 7,
            stride: 1,
            pad: 0,
        },
        vec![x],
    );
    let f = b.g.push("flatten", Op::Flatten, vec![pool]);
    let fc = b.dense("fc", f, 1000, true);
    b.g.push("softmax", Op::Softmax, vec![fc]);
    b.g
}

/// AlexNet (Krizhevsky et al., 2012) — not one of the thesis' deployment
/// targets, but the workload behind the DNNWeaver comparison of Table 6.19.
/// Building and deploying it directly makes that comparison apples-to-apples
/// in a way the thesis could not afford ("a direct comparison is not
/// possible since we do not evaluate this network", §6.6.2).
///
/// This is the single-column (ungrouped) variant — our graph IR has no
/// grouped convolutions — at ~2.27G FLOPs / ~61M parameters; the original
/// two-group network (DNNWeaver's 1.33G) halves conv2/4/5.
pub fn alexnet() -> Graph {
    let mut b = Builder::new("alexnet", Shape::chw(3, 224, 224));
    let mut x = b.conv("conv1", 0, 96, 11, 4, 2, true);
    x = b.relu("relu1", x);
    x = b.g.push(
        "pool1",
        Op::MaxPool {
            window: 3,
            stride: 2,
            pad: 0,
        },
        vec![x],
    );
    x = b.conv("conv2", x, 256, 5, 1, 2, true);
    x = b.relu("relu2", x);
    x = b.g.push(
        "pool2",
        Op::MaxPool {
            window: 3,
            stride: 2,
            pad: 0,
        },
        vec![x],
    );
    x = b.conv("conv3", x, 384, 3, 1, 1, true);
    x = b.relu("relu3", x);
    x = b.conv("conv4", x, 384, 3, 1, 1, true);
    x = b.relu("relu4", x);
    x = b.conv("conv5", x, 256, 3, 1, 1, true);
    x = b.relu("relu5", x);
    x = b.g.push(
        "pool5",
        Op::MaxPool {
            window: 3,
            stride: 2,
            pad: 0,
        },
        vec![x],
    );
    let f = b.g.push("flatten", Op::Flatten, vec![x]);
    let d6 = b.dense("fc6", f, 4096, true);
    let r6 = b.relu("relu6", d6);
    let d7 = b.dense("fc7", r6, 4096, true);
    let r7 = b.relu("relu7", d7);
    let d8 = b.dense("fc8", r7, 1000, true);
    b.g.push("softmax", Op::Softmax, vec![d8]);
    b.g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::graph_flops;
    use crate::graph::{Node, GENERATED};
    use std::sync::Barrier;

    #[test]
    fn lenet_shapes_match_table_2_1() {
        let g = lenet5();
        let by_name = |n: &str| {
            g.nodes
                .iter()
                .find(|x| x.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert_eq!(by_name("conv1").out_shape, Shape::chw(6, 26, 26));
        assert_eq!(by_name("pool1").out_shape, Shape::chw(6, 13, 13));
        assert_eq!(by_name("conv2").out_shape, Shape::chw(16, 11, 11));
        assert_eq!(by_name("pool2").out_shape, Shape::chw(16, 5, 5));
        assert_eq!(by_name("flatten").out_shape, Shape::d1(400));
        assert_eq!(by_name("dense1").out_shape, Shape::d1(120));
        assert_eq!(by_name("dense2").out_shape, Shape::d1(84));
        assert_eq!(by_name("dense3").out_shape, Shape::d1(10));
    }

    #[test]
    fn lenet_flops_and_params_match_thesis() {
        let g = lenet5();
        let flops = graph_flops(&g);
        // Thesis: 389K FP ops, 60K parameters (§6.3.1, Table 6.9).
        assert!(
            (380_000..=410_000).contains(&flops),
            "LeNet FLOPs {flops} out of range"
        );
        let params = g.param_count();
        assert!(
            (59_000..=63_000).contains(&params),
            "LeNet params {params} out of range"
        );
    }

    #[test]
    fn mobilenet_shapes_match_table_2_2() {
        let g = mobilenet_v1();
        let by_name = |n: &str| &g.nodes.iter().find(|x| x.name == n).unwrap().out_shape;
        assert_eq!(by_name("conv_1"), &Shape::chw(32, 112, 112));
        assert_eq!(by_name("conv_2"), &Shape::chw(64, 112, 112));
        assert_eq!(by_name("conv_3_dw"), &Shape::chw(64, 56, 56));
        assert_eq!(by_name("conv_7"), &Shape::chw(512, 14, 14));
        assert_eq!(by_name("conv_14"), &Shape::chw(1024, 7, 7));
        assert_eq!(by_name("pool"), &Shape::chw(1024, 1, 1));
        assert_eq!(by_name("fc"), &Shape::d1(1000));
    }

    #[test]
    fn mobilenet_flops_and_params_match_thesis() {
        let g = mobilenet_v1();
        let flops = graph_flops(&g);
        // Thesis: 1.11G FP ops, 4.2M parameters (Table 6.11).
        assert!(
            (1_050_000_000..=1_160_000_000).contains(&flops),
            "MobileNet FLOPs {flops} out of range"
        );
        let params = g.param_count();
        assert!(
            (4_000_000..=4_500_000).contains(&params),
            "MobileNet params {params} out of range"
        );
    }

    #[test]
    fn mobilenet_1x1_share_matches_thesis() {
        // 1x1 convolutions make up ~94.9% of multiply-adds (§3.1).
        let g = mobilenet_v1();
        let total = graph_flops(&g) as f64;
        let one_by_one: u64 = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d { kernel: 1, .. }))
            .map(|n| crate::flops::node_flops(&g, n))
            .sum();
        let share = one_by_one as f64 / total;
        assert!(
            (0.93..0.96).contains(&share),
            "1x1 share {share} out of range"
        );
    }

    #[test]
    fn resnet18_shapes_and_flops() {
        let g = resnet(18);
        let by_name = |n: &str| &g.nodes.iter().find(|x| x.name == n).unwrap().out_shape;
        assert_eq!(by_name("conv1"), &Shape::chw(64, 112, 112));
        assert_eq!(by_name("pool1"), &Shape::chw(64, 56, 56));
        assert_eq!(by_name("conv3_1_a"), &Shape::chw(128, 28, 28));
        assert_eq!(by_name("conv5_2_b"), &Shape::chw(512, 7, 7));
        let flops = graph_flops(&g);
        // Thesis: 3.66G FP ops, 11.7M parameters (Table 6.14).
        assert!(
            (3_500_000_000..=3_800_000_000).contains(&flops),
            "ResNet-18 FLOPs {flops} out of range"
        );
        let params = g.param_count();
        assert!(
            (11_000_000..=12_200_000).contains(&params),
            "ResNet-18 params {params} out of range"
        );
    }

    #[test]
    fn resnet34_flops_and_params() {
        let g = resnet(34);
        let flops = graph_flops(&g);
        // Thesis: 7.36G FP ops, 21.8M parameters (Table 6.14).
        assert!(
            (7_100_000_000..=7_600_000_000).contains(&flops),
            "ResNet-34 FLOPs {flops} out of range"
        );
        let params = g.param_count();
        assert!(
            (21_000_000..=22_500_000).contains(&params),
            "ResNet-34 params {params} out of range"
        );
    }

    #[test]
    fn alexnet_shapes_and_flops() {
        let g = alexnet();
        let by_name = |n: &str| &g.nodes.iter().find(|x| x.name == n).unwrap().out_shape;
        assert_eq!(by_name("conv1"), &Shape::chw(96, 55, 55));
        assert_eq!(by_name("pool1"), &Shape::chw(96, 27, 27));
        assert_eq!(by_name("conv2"), &Shape::chw(256, 27, 27));
        assert_eq!(by_name("conv5"), &Shape::chw(256, 13, 13));
        assert_eq!(by_name("pool5"), &Shape::chw(256, 6, 6));
        assert_eq!(by_name("fc6"), &Shape::d1(4096));
        let flops = graph_flops(&g);
        // Single-column AlexNet: ~2.27G FLOPs (grouped original: 1.33G).
        assert!((2_100_000_000..2_400_000_000).contains(&flops), "{flops}");
        let params = g.param_count();
        assert!((58_000_000..64_000_000).contains(&params), "{params}");
    }

    #[test]
    fn resnet34_has_more_blocks_than_resnet18() {
        let n18 = resnet(18).nodes.len();
        let n34 = resnet(34).nodes.len();
        assert!(n34 > n18);
    }

    #[test]
    #[should_panic(expected = "only ResNet-18 and ResNet-34")]
    fn resnet_rejects_other_depths() {
        resnet(50);
    }

    #[test]
    fn fused_lenet_is_deterministic_and_matches_the_unfused_graph() {
        let g = Model::LeNet5.build();
        let x = crate::data::synthetic_digit(5, 2);
        let fused = g.clone().fuse().execute(&x);
        assert_eq!(fused.numel(), 10);
        assert!((fused.sum() - 1.0).abs() < 1e-5 && fused.all_finite());
        assert!(crate::allclose(&g.execute(&x), &fused, 1e-5, 1e-6));
        assert_eq!(fused.argmax(), g.fuse().execute(&x).argmax());
    }

    #[test]
    fn fused_graphs_only_contain_kernel_ops() {
        // After fusion + padding materialization, only conv/dense/pool/pad/
        // flatten/softmax nodes remain (§3.1).
        for model in [Model::LeNet5] {
            let g = model.build().fuse().materialize_padding();
            for n in g.kernel_nodes() {
                assert!(
                    matches!(
                        n.op,
                        Op::Conv2d { .. }
                            | Op::Dense { .. }
                            | Op::MaxPool { .. }
                            | Op::AvgPool { .. }
                            | Op::Pad { .. }
                            | Op::Flatten
                            | Op::Softmax
                    ),
                    "unexpected residual op {:?} in fused graph",
                    n.op
                );
            }
        }
    }

    /// Reads every weight of `g` on this thread and returns how many
    /// tensors the reads generated.
    fn read_weights(g: &Graph) -> usize {
        GENERATED.with(|n| n.set(0));
        for w in g.nodes.iter().filter_map(|n| n.weights.as_deref()) {
            std::hint::black_box(w.data());
        }
        GENERATED.with(|n| n.get())
    }

    #[test]
    fn zoo_weights_are_generated_once_on_first_read_as_seeded() {
        for model in Model::ALL {
            let g = model.build();
            let compiled = g.clone().fuse().materialize_padding();
            assert!(g.param_count() > 0 && graph_flops(&compiled) > 0);
            let weighted: Vec<&Node> = g.nodes.iter().filter(|n| n.weights.is_some()).collect();
            let generated = weighted
                .iter()
                .filter(|n| n.weights.as_ref().unwrap().is_generated());
            assert_eq!(generated.count(), 0, "{}: generated before a read", g.name);

            // The first read goes through the passes' clone, from two
            // threads at once.
            let start = Barrier::new(2);
            let read = || {
                start.wait();
                read_weights(&compiled)
            };
            let (a, b) = std::thread::scope(|s| {
                let (a, b) = (s.spawn(read), s.spawn(read));
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(a + b, weighted.len(), "{}: generations", g.name);
            assert_eq!(read_weights(&g), 0, "{}: the source shares them", g.name);

            for n in weighted {
                let input = &g.nodes[n.inputs[0]].out_shape;
                let fan_in = match n.op {
                    Op::Conv2d {
                        kernel,
                        depthwise: true,
                        ..
                    } => kernel * kernel,
                    Op::Conv2d { kernel, .. } => input.dim(0) * kernel * kernel,
                    _ => input.dim(0),
                };
                let w = n.weights.as_deref().unwrap();
                let seed = layer_seed(&g.name, &n.name);
                let expect = Tensor::he_init(w.shape().clone(), fan_in, seed);
                let (got, want) = (w.data(), expect.data());
                let same = got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same && got.len() == want.len(), "{}/{}", g.name, n.name);
            }
        }
    }
}
