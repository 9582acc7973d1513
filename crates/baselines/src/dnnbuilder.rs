//! DNNBuilder-style analytic model.
//!
//! DNNBuilder is a hand-tuned, RTL-based DNN accelerator generator that pipelines one
//! dedicated IP per layer and reaches very high DSP efficiency (79.7%-96.2% in
//! Table 8). It only supports plain CNN topologies: no residual shortcuts, no
//! depthwise convolutions, and no fully-connected-only networks. Because its IPs are
//! RTL (not produced by an HLS flow we can run), we model it analytically at the
//! efficiency levels the paper reports.

use hida_estimator::device::FpgaDevice;
use hida_estimator::report::DesignEstimate;
use hida_estimator::resource::Resources;
use hida_frontend::nn::Model;

/// DSP efficiency achieved by the hand-tuned RTL pipeline.
pub const DNNBUILDER_DSP_EFFICIENCY: f64 = 0.88;
/// Fraction of the device's DSPs the generator typically instantiates.
pub const DNNBUILDER_DSP_BUDGET: f64 = 0.45;

/// Returns true when DNNBuilder supports the model (Table 8: ResNet-18 and MobileNet
/// are unsupported because of shortcut paths and depthwise convolutions; the MLP has
/// no convolution layers to map onto its CNN pipeline).
pub fn supports(model: Model) -> bool {
    matches!(
        model,
        Model::ZfNet | Model::Vgg16 | Model::TinyYolo | Model::LeNet
    )
}

/// Analytic estimate of a DNNBuilder design for a model with `macs_per_sample`
/// multiply-accumulates per inference on `device`.
///
/// Returns `None` for unsupported models.
pub fn estimate(model: Model, macs_per_sample: i64, device: &FpgaDevice) -> Option<DesignEstimate> {
    if !supports(model) {
        return None;
    }
    let dsp = (device.dsp as f64 * DNNBUILDER_DSP_BUDGET) as i64;
    // Every DSP retires `efficiency` MACs per cycle on average.
    let macs_per_cycle = dsp as f64 * DNNBUILDER_DSP_EFFICIENCY;
    let interval = (macs_per_sample as f64 / macs_per_cycle).ceil().max(1.0) as i64;
    let resources = Resources::new(
        dsp,
        (device.bram_18k as f64 * 0.55) as i64,
        (device.lut as f64 * 0.4) as i64,
        (device.ff as f64 * 0.3) as i64,
    );
    Some(DesignEstimate {
        name: format!("dnnbuilder-{}", model.name()).into(),
        interval_cycles: interval,
        latency_cycles: interval * 2,
        resources,
        macs_per_sample,
        node_estimates: vec![],
        buffer_count: 0,
        clock_mhz: device.clock_mhz,
        utilization: resources.utilization(device),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_matrix_matches_table8() {
        assert!(!supports(Model::ResNet18), "no shortcut support");
        assert!(!supports(Model::MobileNetV1), "no depthwise support");
        assert!(!supports(Model::Mlp));
        assert!(supports(Model::ZfNet));
        assert!(supports(Model::Vgg16));
        assert!(supports(Model::TinyYolo));
    }

    #[test]
    fn estimate_reaches_reported_efficiency() {
        let device = FpgaDevice::vu9p_slr();
        let est = estimate(Model::Vgg16, 15_500_000_000, &device).unwrap();
        // The analytic model is self-consistent: measured efficiency equals the
        // modelled constant within rounding.
        assert!((est.dsp_efficiency() - DNNBUILDER_DSP_EFFICIENCY).abs() < 0.05);
        assert!(est.throughput() > 1.0);
        assert!(estimate(Model::ResNet18, 1_800_000_000, &device).is_none());
    }
}
