//! FPGA device catalogs for the platforms used in the paper's evaluation.
//!
//! * AMD PYNQ-Z2 (Zynq-7020) — the LeNet case study platform (§2).
//! * AMD-Xilinx ZU3EG — the PolyBench C++ kernel platform (§7.1).
//! * One super logic region (SLR) of an AMD-Xilinx VU9P — the DNN platform (§7.2).

/// The catalog, in ascending size order: each device's name and the
/// constructor that builds it under that name.
const CATALOG: [(&str, Build); 3] = [
    (PYNQ_Z2, FpgaDevice::pynq_z2),
    (ZU3EG, FpgaDevice::zu3eg),
    (VU9P_SLR, FpgaDevice::vu9p_slr),
];
const PYNQ_Z2: &str = "pynq-z2";
const ZU3EG: &str = "zu3eg";
const VU9P_SLR: &str = "vu9p-slr";
type Build = fn() -> FpgaDevice;

/// Static description of an FPGA target.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Human-readable device name.
    pub name: String,
    /// Number of DSP48 blocks.
    pub dsp: i64,
    /// Number of 18 Kb block RAMs.
    pub bram_18k: i64,
    /// Number of UltraRAM blocks (0 when the family has none).
    pub uram: i64,
    /// Number of LUTs.
    pub lut: i64,
    /// Number of flip-flops.
    pub ff: i64,
    /// Target clock frequency in MHz (the paper holds 200 MHz for DNNs).
    pub clock_mhz: f64,
    /// Round-trip latency of an external (AXI) memory access in cycles.
    pub axi_latency: i64,
    /// Sustained external-memory bandwidth in bytes per cycle per port.
    pub axi_bytes_per_cycle: f64,
    /// Maximum AXI burst length in beats.
    pub axi_burst: i64,
}

impl FpgaDevice {
    /// AMD PYNQ-Z2 board (Zynq-7020), used for the LeNet case study.
    pub fn pynq_z2() -> Self {
        FpgaDevice {
            name: PYNQ_Z2.to_string(),
            dsp: 220,
            bram_18k: 280,
            uram: 0,
            lut: 53_200,
            ff: 106_400,
            clock_mhz: 100.0,
            axi_latency: 80,
            axi_bytes_per_cycle: 8.0,
            axi_burst: 256,
        }
    }

    /// AMD-Xilinx ZU3EG, used for the PolyBench kernels (Table 7).
    pub fn zu3eg() -> Self {
        FpgaDevice {
            name: ZU3EG.to_string(),
            dsp: 360,
            bram_18k: 432,
            uram: 0,
            lut: 70_560,
            ff: 141_120,
            clock_mhz: 150.0,
            axi_latency: 80,
            axi_bytes_per_cycle: 8.0,
            axi_burst: 256,
        }
    }

    /// One super logic region of an AMD-Xilinx VU9P, used for the DNN models
    /// (Table 8). The paper constrains resources to match DNNBuilder.
    pub fn vu9p_slr() -> Self {
        FpgaDevice {
            name: VU9P_SLR.to_string(),
            dsp: 2_280,
            bram_18k: 1_440,
            uram: 320,
            lut: 394_000,
            ff: 788_000,
            clock_mhz: 200.0,
            axi_latency: 120,
            axi_bytes_per_cycle: 32.0,
            axi_burst: 256,
        }
    }

    /// Every device in the catalog, in ascending size order.
    pub fn catalog() -> Vec<FpgaDevice> {
        CATALOG.iter().map(|(_, build)| build()).collect()
    }

    /// The names of the catalog's devices, in the catalog's order: what the
    /// textual pipeline syntax's `device=` option accepts. Builds nothing.
    pub fn catalog_names() -> impl Iterator<Item = &'static str> {
        CATALOG.iter().map(|&(name, _)| name)
    }

    /// Looks a catalog device up by its name (`"pynq-z2"`, `"zu3eg"`,
    /// `"vu9p-slr"`): the name is matched first, and only the device it
    /// names is built.
    pub fn by_name(name: &str) -> Option<FpgaDevice> {
        CATALOG
            .iter()
            .find(|&&(known, _)| known == name)
            .map(|(_, build)| build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_catalog_sizes_are_ordered() {
        let pynq = FpgaDevice::pynq_z2();
        let zu3 = FpgaDevice::zu3eg();
        let vu9p = FpgaDevice::vu9p_slr();
        assert!(pynq.dsp < zu3.dsp);
        assert!(zu3.dsp < vu9p.dsp);
        assert!(pynq.bram_18k < vu9p.bram_18k);
        assert!(vu9p.uram > 0);
        assert_eq!(pynq.uram, 0);
    }

    #[test]
    fn catalog_lookup_by_name_round_trips() {
        for device in FpgaDevice::catalog() {
            assert_eq!(FpgaDevice::by_name(&device.name), Some(device.clone()));
        }
        assert_eq!(FpgaDevice::by_name("unknown-board"), None);
        let names: Vec<String> = FpgaDevice::catalog().into_iter().map(|d| d.name).collect();
        assert!(FpgaDevice::catalog_names().eq(names.iter().map(String::as_str)));
    }

    #[test]
    fn devices_debug_and_clone_round_trip() {
        let d = FpgaDevice::zu3eg();
        let text = format!("{d:?}");
        assert!(text.contains("zu3eg"));
        let clone = d.clone();
        assert_eq!(d, clone);
    }
}
