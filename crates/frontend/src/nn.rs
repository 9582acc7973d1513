//! Neural-network front-end and model zoo.
//!
//! Each model is built as a `func.func` whose body is a chain (or DAG, for residual
//! networks) of named linalg-style layers over `i8` tensors — the representation the
//! paper's Torch-MLIR front-end produces after quantization-friendly lowering. The
//! zoo covers every model in Table 8 plus LeNet for the §2 case study.

use crate::{INPUT, OUTPUT};
use hida_dialects::linalg::{build_layer, LinalgOp};
use hida_ir_core::{Attribute, Context, OpBuilder, OpId, Type, ValueId};

/// The neural-network models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// LeNet-5 on 28x28 grayscale images (the §2 case study).
    LeNet,
    /// ResNet-18 on 224x224 RGB images (residual shortcuts).
    ResNet18,
    /// MobileNet-V1 on 224x224 RGB images (depthwise separable convolutions).
    MobileNetV1,
    /// ZFNet on 224x224 RGB images (irregular convolution sizes).
    ZfNet,
    /// VGG-16 on 224x224 RGB images.
    Vgg16,
    /// Tiny-YOLO-v2 on 416x416 RGB images (high-resolution input).
    TinyYolo,
    /// A three-layer fully-connected network on flattened MNIST images.
    Mlp,
}

impl Model {
    /// All models of the Table 8 evaluation plus LeNet.
    pub fn all() -> Vec<Model> {
        vec![
            Model::LeNet,
            Model::ResNet18,
            Model::MobileNetV1,
            Model::ZfNet,
            Model::Vgg16,
            Model::TinyYolo,
            Model::Mlp,
        ]
    }

    /// The models reported in Table 8 (ResNet-18 through MLP).
    pub fn table8() -> Vec<Model> {
        vec![
            Model::ResNet18,
            Model::MobileNetV1,
            Model::ZfNet,
            Model::Vgg16,
            Model::TinyYolo,
            Model::Mlp,
        ]
    }

    /// Canonical lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Model::LeNet => "lenet",
            Model::ResNet18 => "resnet-18",
            Model::MobileNetV1 => "mobilenet",
            Model::ZfNet => "zfnet",
            Model::Vgg16 => "vgg-16",
            Model::TinyYolo => "yolo",
            Model::Mlp => "mlp",
        }
    }

    /// Input tensor shape `[channels, height, width]` (or `[features]` for MLP).
    pub fn input_shape(&self) -> Vec<i64> {
        match self {
            Model::LeNet => vec![1, 28, 28],
            Model::ResNet18 | Model::MobileNetV1 | Model::ZfNet | Model::Vgg16 => {
                vec![3, 224, 224]
            }
            Model::TinyYolo => vec![3, 416, 416],
            Model::Mlp => vec![784],
        }
    }
}

/// Incremental builder used by the model definitions below.
struct GraphBuilder<'a> {
    ctx: &'a mut Context,
    func: OpId,
    cur: ValueId,
    layer_index: usize,
}

impl<'a> GraphBuilder<'a> {
    fn new(ctx: &'a mut Context, module: OpId, model: Model) -> Self {
        let func = OpBuilder::at_end_of(ctx, module).create_func(model.name(), vec![], vec![]);
        let input_ty = Type::tensor(model.input_shape(), Type::i8());
        let mut b = OpBuilder::at_end_of(ctx, func);
        let (_, results) = b.create(
            INPUT,
            vec![],
            vec![input_ty],
            vec![("source", Attribute::Str("host".into()))],
        );
        GraphBuilder {
            ctx,
            func,
            cur: results[0],
            layer_index: 0,
        }
    }

    fn apply(&mut self, layer: LinalgOp, inputs: &[ValueId]) -> ValueId {
        self.layer_index += 1;
        let name = format!(
            "{}{}",
            layer.op_name().rsplit('.').next().unwrap(),
            self.layer_index
        );
        let mut b = OpBuilder::at_end_of(self.ctx, self.func);
        build_layer(&mut b, &layer, inputs, &name)
    }

    fn conv(&mut self, out_channels: i64, kernel: i64, stride: i64, padding: i64) -> &mut Self {
        let in_channels = self.cur_shape()[0];
        self.cur = self.apply(
            LinalgOp::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            },
            &[self.cur],
        );
        self
    }

    fn depthwise(&mut self, kernel: i64, stride: i64, padding: i64) -> &mut Self {
        let channels = self.cur_shape()[0];
        self.cur = self.apply(
            LinalgOp::DepthwiseConv2d {
                channels,
                kernel,
                stride,
                padding,
            },
            &[self.cur],
        );
        self
    }

    fn relu(&mut self) -> &mut Self {
        self.cur = self.apply(LinalgOp::Relu, &[self.cur]);
        self
    }

    fn maxpool(&mut self, kernel: i64, stride: i64) -> &mut Self {
        self.cur = self.apply(LinalgOp::MaxPool2d { kernel, stride }, &[self.cur]);
        self
    }

    fn avgpool(&mut self, kernel: i64, stride: i64) -> &mut Self {
        self.cur = self.apply(LinalgOp::AvgPool2d { kernel, stride }, &[self.cur]);
        self
    }

    fn linear(&mut self, out_features: i64) -> &mut Self {
        let in_features = self.cur_shape().iter().product();
        if self.cur_shape().len() > 1 {
            self.flatten();
        }
        self.cur = self.apply(
            LinalgOp::Linear {
                in_features,
                out_features,
            },
            &[self.cur],
        );
        self
    }

    fn flatten(&mut self) -> &mut Self {
        self.cur = self.apply(LinalgOp::Flatten, &[self.cur]);
        self
    }

    fn add(&mut self, other: ValueId) -> &mut Self {
        self.cur = self.apply(LinalgOp::Add, &[self.cur, other]);
        self
    }

    fn cur_shape(&self) -> Vec<i64> {
        self.ctx
            .value_type(self.cur)
            .shape()
            .map(|s| s.to_vec())
            .unwrap_or_default()
    }

    fn finish(self) -> OpId {
        let cur = self.cur;
        let mut b = OpBuilder::at_end_of(self.ctx, self.func);
        b.create(OUTPUT, vec![cur], vec![], vec![]);
        self.func
    }
}

/// Builds the given model into `module`, returning the model's `func.func`.
pub fn build_model(ctx: &mut Context, module: OpId, model: Model) -> OpId {
    match model {
        Model::LeNet => build_lenet(ctx, module),
        Model::ResNet18 => build_resnet18(ctx, module),
        Model::MobileNetV1 => build_mobilenet(ctx, module),
        Model::ZfNet => build_zfnet(ctx, module),
        Model::Vgg16 => build_vgg16(ctx, module),
        Model::TinyYolo => build_tiny_yolo(ctx, module),
        Model::Mlp => build_mlp(ctx, module),
    }
}

fn build_lenet(ctx: &mut Context, module: OpId) -> OpId {
    let mut g = GraphBuilder::new(ctx, module, Model::LeNet);
    g.conv(6, 5, 1, 2).relu().maxpool(2, 2);
    g.conv(16, 5, 1, 0).relu().maxpool(2, 2);
    g.conv(120, 5, 1, 0).relu();
    g.linear(84).relu();
    g.linear(10);
    g.finish()
}

fn build_resnet18(ctx: &mut Context, module: OpId) -> OpId {
    let mut g = GraphBuilder::new(ctx, module, Model::ResNet18);
    g.conv(64, 7, 2, 3).relu().maxpool(2, 2);
    // Four stages of two basic blocks each.
    let stage_channels = [64_i64, 128, 256, 512];
    for (stage, &channels) in stage_channels.iter().enumerate() {
        for block in 0..2 {
            let downsample = stage > 0 && block == 0;
            let shortcut = g.cur;
            let stride = if downsample { 2 } else { 1 };
            g.conv(channels, 3, stride, 1).relu();
            g.conv(channels, 3, 1, 1);
            let shortcut = if downsample {
                // Projection shortcut: 1x1 convolution with stride 2.
                let in_channels = g.ctx.value_type(shortcut).shape().unwrap()[0];
                g.apply(
                    LinalgOp::Conv2d {
                        in_channels,
                        out_channels: channels,
                        kernel: 1,
                        stride: 2,
                        padding: 0,
                    },
                    &[shortcut],
                )
            } else {
                shortcut
            };
            g.add(shortcut).relu();
        }
    }
    g.avgpool(7, 7);
    g.linear(1000);
    g.finish()
}

fn build_mobilenet(ctx: &mut Context, module: OpId) -> OpId {
    let mut g = GraphBuilder::new(ctx, module, Model::MobileNetV1);
    g.conv(32, 3, 2, 1).relu();
    // (pointwise output channels, depthwise stride) for the 13 separable blocks.
    let blocks = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for &(out_channels, stride) in &blocks {
        g.depthwise(3, stride, 1).relu();
        g.conv(out_channels, 1, 1, 0).relu();
    }
    g.avgpool(7, 7);
    g.linear(1000);
    g.finish()
}

fn build_zfnet(ctx: &mut Context, module: OpId) -> OpId {
    let mut g = GraphBuilder::new(ctx, module, Model::ZfNet);
    g.conv(96, 7, 2, 1).relu().maxpool(3, 2);
    g.conv(256, 5, 2, 0).relu().maxpool(3, 2);
    g.conv(384, 3, 1, 1).relu();
    g.conv(384, 3, 1, 1).relu();
    g.conv(256, 3, 1, 1).relu().maxpool(3, 2);
    g.linear(4096).relu();
    g.linear(4096).relu();
    g.linear(1000);
    g.finish()
}

fn build_vgg16(ctx: &mut Context, module: OpId) -> OpId {
    let mut g = GraphBuilder::new(ctx, module, Model::Vgg16);
    let stages = [(64_i64, 2_usize), (128, 2), (256, 3), (512, 3), (512, 3)];
    for &(channels, convs) in &stages {
        for _ in 0..convs {
            g.conv(channels, 3, 1, 1).relu();
        }
        g.maxpool(2, 2);
    }
    g.linear(4096).relu();
    g.linear(4096).relu();
    g.linear(1000);
    g.finish()
}

fn build_tiny_yolo(ctx: &mut Context, module: OpId) -> OpId {
    let mut g = GraphBuilder::new(ctx, module, Model::TinyYolo);
    let backbone = [16_i64, 32, 64, 128, 256, 512];
    for (i, &channels) in backbone.iter().enumerate() {
        g.conv(channels, 3, 1, 1).relu();
        // The final pooling layer of tiny-YOLO keeps the spatial size (stride 1).
        let stride = if i == backbone.len() - 1 { 1 } else { 2 };
        g.maxpool(2, stride);
    }
    g.conv(1024, 3, 1, 1).relu();
    g.conv(512, 3, 1, 1).relu();
    g.conv(125, 1, 1, 0);
    g.finish()
}

fn build_mlp(ctx: &mut Context, module: OpId) -> OpId {
    let mut g = GraphBuilder::new(ctx, module, Model::Mlp);
    g.linear(4096).relu();
    g.linear(4096).relu();
    g.linear(1000);
    g.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dialects::linalg;

    /// Multiply-accumulates per inference, from the layer profiles.
    fn model_macs(ctx: &Context, func: OpId) -> i64 {
        hida_dialects::analysis::profile_body(ctx, func).macs
    }

    fn build(model: Model) -> (Context, OpId) {
        let mut ctx = Context::new();
        let module = ctx.create_module("models");
        let func = build_model(&mut ctx, module, model);
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        (ctx, func)
    }

    #[test]
    fn lenet_structure_matches_the_case_study() {
        let (ctx, func) = build(Model::LeNet);
        let convs = ctx.collect_ops(func, linalg::CONV2D);
        let pools = ctx.collect_ops(func, linalg::MAXPOOL2D);
        let fcs = ctx.collect_ops(func, linalg::LINEAR);
        assert_eq!(convs.len(), 3);
        assert_eq!(pools.len(), 2);
        assert_eq!(fcs.len(), 2);
        // LeNet on 28x28 needs roughly 0.2-0.5 M MACs per image.
        let macs = model_macs(&ctx, func);
        assert!(macs > 100_000 && macs < 5_000_000, "lenet macs = {macs}");
    }

    #[test]
    fn resnet18_has_shortcut_adds_and_correct_mac_scale() {
        let (ctx, func) = build(Model::ResNet18);
        let adds = ctx.collect_ops(func, linalg::ADD);
        assert_eq!(adds.len(), 8, "resnet-18 has 8 residual additions");
        let macs = model_macs(&ctx, func);
        // ResNet-18 is ~1.8 GMACs per 224x224 image.
        assert!(
            macs > 1_500_000_000 && macs < 2_300_000_000,
            "resnet-18 macs = {macs}"
        );
    }

    #[test]
    fn mobilenet_uses_depthwise_convolutions() {
        let (ctx, func) = build(Model::MobileNetV1);
        let dw = ctx.collect_ops(func, linalg::DEPTHWISE_CONV2D);
        let pw = ctx.collect_ops(func, linalg::CONV2D);
        assert_eq!(dw.len(), 13);
        assert_eq!(pw.len(), 14); // 13 pointwise + the stem convolution.
        let macs = model_macs(&ctx, func);
        // MobileNet-V1 is ~0.57 GMACs.
        assert!(
            macs > 400_000_000 && macs < 800_000_000,
            "mobilenet macs = {macs}"
        );
    }

    #[test]
    fn vgg16_is_the_heaviest_model() {
        let (ctx_vgg, vgg) = build(Model::Vgg16);
        let vgg_macs = model_macs(&ctx_vgg, vgg);
        // VGG-16 is ~15.5 GMACs.
        assert!(
            vgg_macs > 13_000_000_000 && vgg_macs < 18_000_000_000,
            "vgg macs = {vgg_macs}"
        );
        let (ctx_res, res) = build(Model::ResNet18);
        assert!(vgg_macs > model_macs(&ctx_res, res));
    }

    #[test]
    fn zfnet_and_yolo_and_mlp_build_and_have_expected_layers() {
        let (ctx, zf) = build(Model::ZfNet);
        assert_eq!(ctx.collect_ops(zf, linalg::CONV2D).len(), 5);
        assert_eq!(ctx.collect_ops(zf, linalg::LINEAR).len(), 3);

        let (ctx, yolo) = build(Model::TinyYolo);
        assert_eq!(ctx.collect_ops(yolo, linalg::CONV2D).len(), 9);
        assert_eq!(ctx.collect_ops(yolo, linalg::MAXPOOL2D).len(), 6);

        let (ctx, mlp) = build(Model::Mlp);
        assert_eq!(ctx.collect_ops(mlp, linalg::LINEAR).len(), 3);
        assert!(ctx.collect_ops(mlp, linalg::CONV2D).is_empty());
        let macs = model_macs(&ctx, mlp);
        assert!(macs > 20_000_000 && macs < 30_000_000, "mlp macs = {macs}");
    }

    /// A layer's work has one source, `LinalgOp::work`; the loop nest
    /// `LinalgOp::profile` builds for the same input must iterate exactly
    /// that work: the MACs of a convolution or linear layer, the other ops of
    /// pooling, ReLU and addition.
    #[test]
    fn every_layer_loop_nest_iterates_its_work() {
        let mut kinds = Vec::new();
        for model in Model::all() {
            let (ctx, func) = build(model);
            for &name in linalg::ALL_NAMED_OPS {
                for op in ctx.collect_ops(func, name) {
                    let layer = LinalgOp::from_op(&ctx, op).unwrap();
                    let input = ctx.op(op).operands[0];
                    let shape = ctx.value_type(input).shape().unwrap();
                    let work = layer.work(shape);
                    let expected = match layer {
                        LinalgOp::Conv2d { .. }
                        | LinalgOp::DepthwiseConv2d { .. }
                        | LinalgOp::Linear { .. } => work.macs,
                        LinalgOp::MaxPool2d { .. }
                        | LinalgOp::AvgPool2d { .. }
                        | LinalgOp::Relu
                        | LinalgOp::Add => work.other_ops,
                        LinalgOp::Flatten => continue,
                    };
                    let trips: i64 = layer
                        .profile(shape)
                        .loop_dims
                        .iter()
                        .map(|d| d.trip)
                        .product();
                    assert_eq!(trips, expected, "{}: {name} {op}", model.name());
                    if !kinds.contains(&name) {
                        kinds.push(name);
                    }
                }
            }
        }
        for name in [
            linalg::CONV2D,
            linalg::DEPTHWISE_CONV2D,
            linalg::LINEAR,
            linalg::MAXPOOL2D,
            linalg::AVGPOOL2D,
            linalg::RELU,
            linalg::ADD,
        ] {
            assert!(kinds.contains(&name), "no model builds a {name} layer");
        }
    }

    #[test]
    fn every_model_builds_and_verifies() {
        for model in Model::all() {
            let (ctx, func) = build(model);
            assert!(!ctx.body_ops(func).is_empty(), "{} is empty", model.name());
            assert!(model_macs(&ctx, func) > 0 || model == Model::Mlp);
            assert!(!model.name().is_empty());
            assert!(!model.input_shape().is_empty());
        }
        assert_eq!(Model::table8().len(), 6);
    }
}
