//! Design-level QoR reports.
//!
//! [`DesignEstimate`] is the unit every benchmark harness prints: throughput in
//! samples per second, resource counts, utilization, and DSP efficiency as defined in
//! Equation (1) of the paper.

use crate::latency::NodeEstimate;
use crate::resource::Resources;
use hida_ir_core::Symbol;

/// Complete QoR summary of one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEstimate {
    /// Design name (schedule or function name): the IR's own interned symbol.
    pub name: Symbol,
    /// Cycles between consecutive data frames (initiation interval of the design).
    pub interval_cycles: i64,
    /// Cycles from frame entry to frame exit.
    pub latency_cycles: i64,
    /// Total resources (compute plus buffers).
    pub resources: Resources,
    /// Multiply-accumulate operations performed per sample.
    pub macs_per_sample: i64,
    /// Per-node estimates (one entry for plain functions).
    pub node_estimates: Vec<NodeEstimate>,
    /// Number of on-chip buffers instantiated.
    pub buffer_count: i64,
    /// Clock frequency assumed for throughput conversion (MHz).
    pub clock_mhz: f64,
    /// `max(BRAM%, DSP%, LUT%)` on the target device.
    pub utilization: f64,
}

impl DesignEstimate {
    /// Throughput in samples (frames) per second.
    pub fn throughput(&self) -> f64 {
        self.clock_mhz * 1.0e6 / self.interval_cycles.max(1) as f64
    }

    /// DSP efficiency as defined by Equation (1):
    /// `throughput * OPs / (DSP * frequency)` where `OPs` is MACs per sample.
    ///
    /// A value of 1.0 means every instantiated DSP performs one MAC every cycle.
    pub fn dsp_efficiency(&self) -> f64 {
        if self.resources.dsp == 0 {
            return 0.0;
        }
        self.throughput() * self.macs_per_sample as f64
            / (self.resources.dsp as f64 * self.clock_mhz * 1.0e6)
    }

    /// Throughput ratio `self / other` (how many times faster this design is).
    pub fn speedup_over(&self, other: &DesignEstimate) -> f64 {
        self.throughput() / other.throughput().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(interval: i64, dsp: i64, macs: i64) -> DesignEstimate {
        DesignEstimate {
            name: "test".into(),
            interval_cycles: interval,
            latency_cycles: interval * 2,
            resources: Resources::new(dsp, 10, 1000, 1000),
            macs_per_sample: macs,
            node_estimates: vec![],
            buffer_count: 1,
            clock_mhz: 200.0,
            utilization: 0.5,
        }
    }

    #[test]
    fn throughput_follows_clock() {
        let d = estimate(200_000, 100, 1_000_000);
        // 200 MHz / 200k cycles = 1000 samples/s.
        assert!((d.throughput() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn dsp_efficiency_equation_matches_paper_definition() {
        // 1000 samples/s * 1e6 MACs / (100 DSP * 200e6 Hz) = 0.05.
        let d = estimate(200_000, 100, 1_000_000);
        assert!((d.dsp_efficiency() - 0.05).abs() < 1e-9);
        // Perfect efficiency: every DSP does one MAC per cycle.
        let perfect = estimate(10_000, 100, 1_000_000);
        assert!((perfect.dsp_efficiency() - 1.0).abs() < 1e-9);
        // No DSPs -> zero efficiency, no division by zero.
        let none = estimate(10_000, 0, 1_000_000);
        assert_eq!(none.dsp_efficiency(), 0.0);
    }

    #[test]
    fn speedup_is_throughput_ratio() {
        let fast = estimate(10_000, 10, 100);
        let slow = estimate(80_000, 10, 100);
        assert!((fast.speedup_over(&slow) - 8.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 0.125).abs() < 1e-9);
    }
}
