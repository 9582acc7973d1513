//! Named tensor compute operations (the `linalg`-style payload of Figure 5).
//!
//! The PyTorch front-end lowers neural-network layers into these named ops. Each op
//! knows its own *virtual loop nest*: the loop dimensions it iterates, how each
//! operand/result dimension is indexed by those loops, and how many MAC operations it
//! performs. HIDA-OPT's intensity and connection analysis (§6.5) consumes exactly
//! this information, whether the op came from a named layer or an explicit affine
//! loop nest.
//!
//! Weights are modelled as op attributes (their storage is accounted by the resource
//! estimator) so that the SSA graph contains only the activation tensors that flow
//! through the dataflow architecture.

use crate::analysis::ProfileLoopDim;
use hida_ir_core::{Attribute, Context, OpBuilder, OpId, Type, ValueId};

/// Convolution layer op name.
pub const CONV2D: &str = "linalg.conv2d";
/// Depthwise convolution layer op name.
pub const DEPTHWISE_CONV2D: &str = "linalg.depthwise_conv2d";
/// Fully-connected layer op name.
pub const LINEAR: &str = "linalg.linear";
/// Max-pooling layer op name.
pub const MAXPOOL2D: &str = "linalg.maxpool2d";
/// Average-pooling layer op name.
pub const AVGPOOL2D: &str = "linalg.avgpool2d";
/// Rectified linear activation op name.
pub const RELU: &str = "linalg.relu";
/// Element-wise addition (residual shortcut) op name.
pub const ADD: &str = "linalg.add";
/// Flatten / reshape op name.
pub const FLATTEN: &str = "linalg.flatten";

/// All named linalg-style op names, used by walkers.
pub const ALL_NAMED_OPS: &[&str] = &[
    CONV2D,
    DEPTHWISE_CONV2D,
    LINEAR,
    MAXPOOL2D,
    AVGPOOL2D,
    RELU,
    ADD,
    FLATTEN,
];

/// Returns true if `name` is one of the named linalg-style ops.
pub fn is_linalg_op_name(name: &str) -> bool {
    ALL_NAMED_OPS.contains(&name)
}

/// A structured description of a named compute layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgOp {
    /// Standard 2-D convolution (`out[k][y][x] += in[c][y*s+r][x*s+q] * w[k][c][r][q]`).
    Conv2d {
        /// Input channels.
        in_channels: i64,
        /// Output channels.
        out_channels: i64,
        /// Kernel height/width (square kernels).
        kernel: i64,
        /// Spatial stride.
        stride: i64,
        /// Symmetric zero padding.
        padding: i64,
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DepthwiseConv2d {
        /// Channels (input == output).
        channels: i64,
        /// Kernel height/width.
        kernel: i64,
        /// Spatial stride.
        stride: i64,
        /// Symmetric zero padding.
        padding: i64,
    },
    /// Fully-connected layer (`out[o] += in[i] * w[o][i]`).
    Linear {
        /// Input features.
        in_features: i64,
        /// Output features.
        out_features: i64,
    },
    /// Max pooling.
    MaxPool2d {
        /// Window size.
        kernel: i64,
        /// Window stride.
        stride: i64,
    },
    /// Average pooling.
    AvgPool2d {
        /// Window size.
        kernel: i64,
        /// Window stride.
        stride: i64,
    },
    /// Rectified linear unit.
    Relu,
    /// Element-wise addition of two tensors with identical shapes.
    Add,
    /// Collapse all dimensions into one.
    Flatten,
}

/// A loop dimension of a layer's virtual loop nest; trip counts below 1 count as 1.
fn dim(trip: i64, reduction: bool) -> ProfileLoopDim {
    ProfileLoopDim {
        trip: trip.max(1),
        reduction,
    }
}

/// How one dimension of an operand/result aggregate is indexed: by which virtual loop
/// and with what stride, or `None` when no single loop drives it.
pub type DimAccess = Option<(usize, i64)>;

/// The scalar work of a layer for a concrete input shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerWork {
    /// Multiply-accumulate operations per output sample.
    pub macs: i64,
    /// Non-MAC scalar operations per output sample (comparisons, adds).
    pub other_ops: i64,
    /// Number of weight parameters held by the layer.
    pub weight_params: i64,
}

/// The virtual loop nest of a layer for a concrete input shape; its work is
/// [`LinalgOp::work`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Virtual loop dimensions, outermost first.
    pub loop_dims: Vec<ProfileLoopDim>,
    /// Per input operand: how each of its aggregate dimensions is indexed.
    pub input_accesses: Vec<Vec<DimAccess>>,
    /// How each result dimension is indexed.
    pub result_access: Vec<DimAccess>,
}

impl LinalgOp {
    /// Fully-qualified op name of this layer kind.
    pub fn op_name(&self) -> &'static str {
        match self {
            LinalgOp::Conv2d { .. } => CONV2D,
            LinalgOp::DepthwiseConv2d { .. } => DEPTHWISE_CONV2D,
            LinalgOp::Linear { .. } => LINEAR,
            LinalgOp::MaxPool2d { .. } => MAXPOOL2D,
            LinalgOp::AvgPool2d { .. } => AVGPOOL2D,
            LinalgOp::Relu => RELU,
            LinalgOp::Add => ADD,
            LinalgOp::Flatten => FLATTEN,
        }
    }

    /// Computes the output shape for the given input shape.
    ///
    /// Convolution/pooling inputs are `[channels, height, width]`; linear inputs are
    /// `[features]`; element-wise ops preserve the input shape.
    ///
    /// # Panics
    /// Panics if the input shape has the wrong rank for the layer kind.
    pub fn output_shape(&self, input_shape: &[i64]) -> Vec<i64> {
        match self {
            LinalgOp::Conv2d { out_channels, .. } => {
                let (h, w) = self.output_hw(input_shape);
                vec![*out_channels, h, w]
            }
            LinalgOp::DepthwiseConv2d { channels, .. } => {
                let (h, w) = self.output_hw(input_shape);
                vec![*channels, h, w]
            }
            LinalgOp::Linear { out_features, .. } => vec![*out_features],
            LinalgOp::MaxPool2d { .. } | LinalgOp::AvgPool2d { .. } => {
                let (h, w) = self.output_hw(input_shape);
                vec![input_shape[0], h, w]
            }
            LinalgOp::Relu | LinalgOp::Add => input_shape.to_vec(),
            LinalgOp::Flatten => vec![input_shape.iter().product()],
        }
    }

    /// Output height and width of a convolution or pooling layer.
    ///
    /// # Panics
    /// Panics if the input shape is not `[C, H, W]`, or for any other layer kind.
    fn output_hw(&self, input_shape: &[i64]) -> (i64, i64) {
        let (kernel, stride, padding) = match *self {
            LinalgOp::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                assert_eq!(input_shape.len(), 3, "conv2d expects [C, H, W] input");
                (kernel, stride, padding)
            }
            LinalgOp::DepthwiseConv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                assert_eq!(
                    input_shape.len(),
                    3,
                    "depthwise conv2d expects [C, H, W] input"
                );
                (kernel, stride, padding)
            }
            LinalgOp::MaxPool2d { kernel, stride } | LinalgOp::AvgPool2d { kernel, stride } => {
                assert_eq!(input_shape.len(), 3, "pooling expects [C, H, W] input");
                (kernel, stride, 0)
            }
            _ => unreachable!("only convolutions and pooling have a spatial output"),
        };
        let h = (input_shape[1] + 2 * padding - kernel) / stride + 1;
        let w = (input_shape[2] + 2 * padding - kernel) / stride + 1;
        (h.max(1), w.max(1))
    }

    /// The scalar work of the layer for the given input shape. The trips of
    /// [`LinalgOp::profile`]'s loop nest multiply to `macs` for convolutions
    /// and linear layers, and to `other_ops` for pooling, ReLU and addition.
    ///
    /// # Panics
    /// Panics if the input shape has the wrong rank for the layer kind.
    pub fn work(&self, input_shape: &[i64]) -> LayerWork {
        let (macs, other_ops, weight_params) = match *self {
            LinalgOp::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                let (h, w) = self.output_hw(input_shape);
                (
                    out_channels * in_channels * h * w * kernel * kernel,
                    0,
                    out_channels * in_channels * kernel * kernel,
                )
            }
            LinalgOp::DepthwiseConv2d {
                channels, kernel, ..
            } => {
                let (h, w) = self.output_hw(input_shape);
                (
                    channels * h * w * kernel * kernel,
                    0,
                    channels * kernel * kernel,
                )
            }
            LinalgOp::Linear {
                in_features,
                out_features,
            } => (in_features * out_features, 0, in_features * out_features),
            LinalgOp::MaxPool2d { kernel, .. } | LinalgOp::AvgPool2d { kernel, .. } => {
                let (h, w) = self.output_hw(input_shape);
                (0, input_shape[0] * h * w * kernel * kernel, 0)
            }
            LinalgOp::Relu | LinalgOp::Add => (0, input_shape.iter().product(), 0),
            LinalgOp::Flatten => (0, 0, 0),
        };
        LayerWork {
            macs,
            other_ops,
            weight_params,
        }
    }

    /// Computes the virtual loop nest for the given input shape.
    pub fn profile(&self, input_shape: &[i64]) -> LayerProfile {
        let identity =
            |rank: usize| -> Vec<DimAccess> { (0..rank).map(|i| Some((i, 1))).collect() };
        let (loop_dims, input_accesses, result_access) = match *self {
            LinalgOp::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                ..
            } => {
                let (h, w) = self.output_hw(input_shape);
                (
                    vec![
                        dim(out_channels, false), // k: out channels
                        dim(in_channels, true),   // c: in channels
                        dim(h, false),
                        dim(w, false),
                        dim(kernel, true), // r
                        dim(kernel, true), // s
                    ],
                    // input[c][h*stride + r][w*stride + s]
                    vec![vec![Some((1, 1)), Some((2, stride)), Some((3, stride))]],
                    // output[k][h][w]
                    vec![Some((0, 1)), Some((2, 1)), Some((3, 1))],
                )
            }
            LinalgOp::DepthwiseConv2d {
                channels,
                kernel,
                stride,
                ..
            } => {
                let (h, w) = self.output_hw(input_shape);
                (
                    vec![
                        dim(channels, false), // c
                        dim(h, false),
                        dim(w, false),
                        dim(kernel, true), // r
                        dim(kernel, true), // s
                    ],
                    vec![vec![Some((0, 1)), Some((1, stride)), Some((2, stride))]],
                    vec![Some((0, 1)), Some((1, 1)), Some((2, 1))],
                )
            }
            LinalgOp::Linear {
                in_features,
                out_features,
            } => (
                vec![
                    dim(out_features, false), // o
                    dim(in_features, true),   // i
                ],
                vec![vec![Some((1, 1))]],
                vec![Some((0, 1))],
            ),
            LinalgOp::MaxPool2d { kernel, stride } | LinalgOp::AvgPool2d { kernel, stride } => {
                let (h, w) = self.output_hw(input_shape);
                (
                    vec![
                        dim(input_shape[0], false), // c
                        dim(h, false),
                        dim(w, false),
                        dim(kernel, true), // r
                        dim(kernel, true), // s
                    ],
                    vec![vec![Some((0, 1)), Some((1, stride)), Some((2, stride))]],
                    vec![Some((0, 1)), Some((1, 1)), Some((2, 1))],
                )
            }
            LinalgOp::Relu => (
                input_shape.iter().map(|&d| dim(d, false)).collect(),
                vec![identity(input_shape.len())],
                identity(input_shape.len()),
            ),
            LinalgOp::Add => (
                input_shape.iter().map(|&d| dim(d, false)).collect(),
                vec![identity(input_shape.len()), identity(input_shape.len())],
                identity(input_shape.len()),
            ),
            LinalgOp::Flatten => (
                vec![dim(input_shape.iter().product(), false)],
                vec![vec![None; input_shape.len()]],
                vec![Some((0, 1))],
            ),
        };
        LayerProfile {
            loop_dims,
            input_accesses,
            result_access,
        }
    }

    /// Serialises the layer parameters to operation attributes.
    pub fn to_attrs(&self) -> Vec<(&'static str, Attribute)> {
        match self {
            LinalgOp::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            } => vec![
                ("in_channels", Attribute::Int(*in_channels)),
                ("out_channels", Attribute::Int(*out_channels)),
                ("kernel", Attribute::Int(*kernel)),
                ("stride", Attribute::Int(*stride)),
                ("padding", Attribute::Int(*padding)),
            ],
            LinalgOp::DepthwiseConv2d {
                channels,
                kernel,
                stride,
                padding,
            } => vec![
                ("channels", Attribute::Int(*channels)),
                ("kernel", Attribute::Int(*kernel)),
                ("stride", Attribute::Int(*stride)),
                ("padding", Attribute::Int(*padding)),
            ],
            LinalgOp::Linear {
                in_features,
                out_features,
            } => vec![
                ("in_features", Attribute::Int(*in_features)),
                ("out_features", Attribute::Int(*out_features)),
            ],
            LinalgOp::MaxPool2d { kernel, stride } | LinalgOp::AvgPool2d { kernel, stride } => {
                vec![
                    ("kernel", Attribute::Int(*kernel)),
                    ("stride", Attribute::Int(*stride)),
                ]
            }
            LinalgOp::Relu | LinalgOp::Add | LinalgOp::Flatten => vec![],
        }
    }

    /// Reconstructs the layer description from an operation in the IR.
    ///
    /// Returns `None` if the op is not a named linalg-style op.
    pub fn from_op(ctx: &Context, op: OpId) -> Option<LinalgOp> {
        let operation = ctx.op(op);
        let i = |key: &str| operation.attr_int(key).unwrap_or(0);
        match operation.name.as_str() {
            CONV2D => Some(LinalgOp::Conv2d {
                in_channels: i("in_channels"),
                out_channels: i("out_channels"),
                kernel: i("kernel"),
                stride: i("stride").max(1),
                padding: i("padding"),
            }),
            DEPTHWISE_CONV2D => Some(LinalgOp::DepthwiseConv2d {
                channels: i("channels"),
                kernel: i("kernel"),
                stride: i("stride").max(1),
                padding: i("padding"),
            }),
            LINEAR => Some(LinalgOp::Linear {
                in_features: i("in_features"),
                out_features: i("out_features"),
            }),
            MAXPOOL2D => Some(LinalgOp::MaxPool2d {
                kernel: i("kernel"),
                stride: i("stride").max(1),
            }),
            AVGPOOL2D => Some(LinalgOp::AvgPool2d {
                kernel: i("kernel"),
                stride: i("stride").max(1),
            }),
            RELU => Some(LinalgOp::Relu),
            ADD => Some(LinalgOp::Add),
            FLATTEN => Some(LinalgOp::Flatten),
            _ => None,
        }
    }
}

/// Builds a named layer op at the tensor level: `result = op(inputs...)`.
///
/// The result type is computed from the first input's shape and the layer parameters.
/// Returns the result tensor value.
///
/// # Panics
/// Panics if `inputs` is empty or the first input is not a tensor/memref type.
pub fn build_layer(
    builder: &mut OpBuilder<'_>,
    layer: &LinalgOp,
    inputs: &[ValueId],
    name: &str,
) -> ValueId {
    assert!(!inputs.is_empty(), "a layer needs at least one input");
    let input_ty = *builder.context().value_type(inputs[0]);
    let input_shape = input_ty
        .shape()
        .expect("layer input must be a shaped type")
        .to_vec();
    let elem = *input_ty.elem_type();
    let out_shape = layer.output_shape(&input_shape);
    let result_ty = if input_ty.is_memref() {
        Type::memref(out_shape, elem)
    } else {
        Type::tensor(out_shape, elem)
    };
    let mut attrs = layer.to_attrs();
    attrs.push(("layer_name", Attribute::from(name)));
    let (_, results) = builder.create(layer.op_name(), inputs.to_vec(), vec![result_ty], attrs);
    builder.context().set_name_hint(results[0], name);
    results[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_ir_core::Context;

    #[test]
    fn conv2d_output_shape_and_macs() {
        let conv = LinalgOp::Conv2d {
            in_channels: 3,
            out_channels: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let out = conv.output_shape(&[3, 32, 32]);
        assert_eq!(out, vec![16, 32, 32]);
        let work = conv.work(&[3, 32, 32]);
        assert_eq!(work.macs, 16 * 3 * 32 * 32 * 9);
        assert_eq!(work.weight_params, 16 * 3 * 9);
        let p = conv.profile(&[3, 32, 32]);
        assert_eq!(p.loop_dims.len(), 6);
        assert!(p.loop_dims[1].reduction);
        assert!(!p.loop_dims[0].reduction);
    }

    #[test]
    fn strided_conv_halves_spatial_dims() {
        let conv = LinalgOp::Conv2d {
            in_channels: 64,
            out_channels: 128,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(conv.output_shape(&[64, 56, 56]), vec![128, 28, 28]);
        // Input spatial dims are accessed with stride 2.
        let p = conv.profile(&[64, 56, 56]);
        assert_eq!(p.input_accesses[0][1], Some((2, 2)));
        assert_eq!(p.input_accesses[0][2], Some((3, 2)));
        assert_eq!(p.result_access[1], Some((2, 1)));
    }

    #[test]
    fn depthwise_conv_macs_are_channelwise() {
        let dw = LinalgOp::DepthwiseConv2d {
            channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(dw.output_shape(&[32, 28, 28]), vec![32, 28, 28]);
        let work = dw.work(&[32, 28, 28]);
        assert_eq!(work.macs, 32 * 28 * 28 * 9);
        assert_eq!(work.weight_params, 32 * 9);
    }

    #[test]
    fn pooling_and_linear_shapes() {
        let pool = LinalgOp::MaxPool2d {
            kernel: 2,
            stride: 2,
        };
        assert_eq!(pool.output_shape(&[16, 32, 32]), vec![16, 16, 16]);
        assert_eq!(pool.work(&[16, 32, 32]).macs, 0);

        let fc = LinalgOp::Linear {
            in_features: 256,
            out_features: 10,
        };
        assert_eq!(fc.output_shape(&[256]), vec![10]);
        assert_eq!(fc.work(&[256]).macs, 2560);
        assert_eq!(fc.work(&[256]).weight_params, 2560);
    }

    #[test]
    fn elementwise_ops_preserve_shape() {
        assert_eq!(LinalgOp::Relu.output_shape(&[8, 4, 4]), vec![8, 4, 4]);
        assert_eq!(LinalgOp::Add.output_shape(&[8, 4, 4]), vec![8, 4, 4]);
        assert_eq!(LinalgOp::Flatten.output_shape(&[8, 4, 4]), vec![128]);
        let add = LinalgOp::Add.profile(&[8, 4, 4]);
        assert_eq!(add.input_accesses.len(), 2);
        assert_eq!(LinalgOp::Add.work(&[8, 4, 4]).other_ops, 128);
    }

    #[test]
    fn attrs_round_trip_through_ir() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let (_, input) = b.create(
            "test.source",
            vec![],
            vec![Type::tensor(vec![3, 32, 32], Type::i8())],
            vec![],
        );
        let conv = LinalgOp::Conv2d {
            in_channels: 3,
            out_channels: 6,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        let out = build_layer(&mut b, &conv, &[input[0]], "conv1");
        assert_eq!(
            ctx.value_type(out),
            &Type::tensor(vec![6, 28, 28], Type::i8())
        );
        let op = ctx.value(out).defining_op().unwrap();
        assert_eq!(LinalgOp::from_op(&ctx, op), Some(conv));
        assert!(is_linalg_op_name(ctx.op(op).name.as_str()));
        assert_eq!(ctx.op(op).attr_str("layer_name"), Some("conv1"));
    }

    #[test]
    fn from_op_rejects_non_linalg_ops() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        assert_eq!(LinalgOp::from_op(&ctx, module), None);
        assert!(!is_linalg_op_name("affine.for"));
    }
}
