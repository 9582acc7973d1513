//! PolyBench kernels used in the C++ evaluation (Table 7).
//!
//! Each kernel is constructed exactly as its C source would be parsed by Polygeist:
//! a `func.func` containing `memref.alloc`s for the arrays and one affine loop nest
//! per statement block. Multi-nest kernels (2mm, 3mm, atax, bicg, mvt, correlation,
//! jacobi-2d) expose coarse-grained dataflow opportunities; single-nest kernels
//! (gesummv, seidel-2d, symm, syr2k) do not — matching the paper's observation that
//! HIDA matches ScaleHLS on the latter group.

use hida_dialects::arith;
use hida_dialects::loops::build_loop_nest;
use hida_dialects::memory::{build_alloc, build_load, build_store};
use hida_ir_core::{BlockId, Context, OpBuilder, OpId, Type, ValueId};

/// The PolyBench kernels of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolybenchKernel {
    /// `D = alpha*A*B*C + beta*D` (two chained matrix multiplications).
    TwoMm,
    /// `G = (A*B)*(C*D)` (three matrix multiplications).
    ThreeMm,
    /// `y = A^T * (A * x)`.
    Atax,
    /// `q = A * p`, `s = A^T * r`.
    Bicg,
    /// Correlation matrix computation (mean, stddev, normalize, correlate).
    Correlation,
    /// `y = alpha*A*x + beta*B*x`.
    Gesummv,
    /// 2-D Jacobi stencil, alternating between two grids.
    Jacobi2d,
    /// `x1 += A*y1`, `x2 += A^T*y2`.
    Mvt,
    /// 2-D Gauss-Seidel stencil (loop-carried, single nest).
    Seidel2d,
    /// Symmetric matrix multiplication.
    Symm,
    /// Symmetric rank-2k update.
    Syr2k,
}

impl PolybenchKernel {
    /// Every kernel of Table 7.
    pub fn all() -> Vec<PolybenchKernel> {
        vec![
            PolybenchKernel::TwoMm,
            PolybenchKernel::ThreeMm,
            PolybenchKernel::Atax,
            PolybenchKernel::Bicg,
            PolybenchKernel::Correlation,
            PolybenchKernel::Gesummv,
            PolybenchKernel::Jacobi2d,
            PolybenchKernel::Mvt,
            PolybenchKernel::Seidel2d,
            PolybenchKernel::Symm,
            PolybenchKernel::Syr2k,
        ]
    }

    /// Canonical lowercase kernel name as used in the paper's table.
    pub fn name(&self) -> &'static str {
        match self {
            PolybenchKernel::TwoMm => "2mm",
            PolybenchKernel::ThreeMm => "3mm",
            PolybenchKernel::Atax => "atax",
            PolybenchKernel::Bicg => "bicg",
            PolybenchKernel::Correlation => "correlation",
            PolybenchKernel::Gesummv => "gesummv",
            PolybenchKernel::Jacobi2d => "jacobi-2d",
            PolybenchKernel::Mvt => "mvt",
            PolybenchKernel::Seidel2d => "seidel-2d",
            PolybenchKernel::Symm => "symm",
            PolybenchKernel::Syr2k => "syr2k",
        }
    }

    /// Default problem size (square dimension) used by the benchmark harness.
    pub fn default_size(&self) -> i64 {
        match self {
            PolybenchKernel::Seidel2d | PolybenchKernel::Jacobi2d => 64,
            _ => 96,
        }
    }
}

/// Context for emitting one kernel.
struct KernelBuilder<'a> {
    ctx: &'a mut Context,
    func: OpId,
    body: BlockId,
}

impl<'a> KernelBuilder<'a> {
    fn new(ctx: &'a mut Context, module: OpId, name: &str) -> Self {
        let func = OpBuilder::at_end_of(ctx, module).create_func(name, vec![], vec![]);
        let body = ctx.body_block(func);
        KernelBuilder { ctx, func, body }
    }

    fn matrix(&mut self, n: i64, m: i64, name: &str) -> ValueId {
        let mut b = OpBuilder::at_block_end(self.ctx, self.body);
        build_alloc(&mut b, Type::memref(vec![n, m], Type::f32()), name)
    }

    fn vector(&mut self, n: i64, name: &str) -> ValueId {
        let mut b = OpBuilder::at_block_end(self.ctx, self.body);
        build_alloc(&mut b, Type::memref(vec![n], Type::f32()), name)
    }

    /// Emits `out[i][j] += lhs[i][k] * rhs[k][j]` over `(i, j, k)` loops.
    #[allow(clippy::too_many_arguments)]
    fn matmul(
        &mut self,
        lhs: ValueId,
        rhs: ValueId,
        out: ValueId,
        n: i64,
        m: i64,
        k: i64,
        tag: &str,
    ) -> OpId {
        let (loops, ivs, inner) = build_loop_nest(
            self.ctx,
            self.body,
            &[
                (0, n, &format!("{tag}_i")),
                (0, m, &format!("{tag}_j")),
                (0, k, &format!("{tag}_k")),
            ],
        );
        let mut b = OpBuilder::at_block_end(self.ctx, inner);
        let x = build_load(&mut b, lhs, &[ivs[0], ivs[2]]);
        let y = build_load(&mut b, rhs, &[ivs[2], ivs[1]]);
        let prod = arith::build_binary(&mut b, arith::MULF, x, y);
        let acc = build_load(&mut b, out, &[ivs[0], ivs[1]]);
        let sum = arith::build_binary(&mut b, arith::ADDF, acc, prod);
        build_store(&mut b, sum, out, &[ivs[0], ivs[1]]);
        loops[0]
    }

    /// Emits `out[i] += mat[i][j] * vec[j]` (or the transposed variant) over `(i, j)`.
    #[allow(clippy::too_many_arguments)]
    fn matvec(
        &mut self,
        mat: ValueId,
        vec: ValueId,
        out: ValueId,
        n: i64,
        m: i64,
        transposed: bool,
        tag: &str,
    ) -> OpId {
        let (loops, ivs, inner) = build_loop_nest(
            self.ctx,
            self.body,
            &[(0, n, &format!("{tag}_i")), (0, m, &format!("{tag}_j"))],
        );
        let mut b = OpBuilder::at_block_end(self.ctx, inner);
        let (row, col) = if transposed {
            (ivs[1], ivs[0])
        } else {
            (ivs[0], ivs[1])
        };
        let a = build_load(&mut b, mat, &[row, col]);
        let x = build_load(&mut b, vec, &[ivs[1]]);
        let prod = arith::build_binary(&mut b, arith::MULF, a, x);
        let acc = build_load(&mut b, out, &[ivs[0]]);
        let sum = arith::build_binary(&mut b, arith::ADDF, acc, prod);
        build_store(&mut b, sum, out, &[ivs[0]]);
        loops[0]
    }

    /// Emits a 5-point stencil `dst[i][j] = 0.2*(src[i][j]+src[i][j-1]+src[i][j+1]+src[i-1][j]+src[i+1][j])`.
    fn stencil(&mut self, src: ValueId, dst: ValueId, n: i64, tag: &str) -> OpId {
        let (loops, ivs, inner) = build_loop_nest(
            self.ctx,
            self.body,
            &[
                (1, n - 1, &format!("{tag}_i")),
                (1, n - 1, &format!("{tag}_j")),
            ],
        );
        let mut b = OpBuilder::at_block_end(self.ctx, inner);
        let center = build_load(&mut b, src, &[ivs[0], ivs[1]]);
        let up = build_load(&mut b, src, &[ivs[0], ivs[1]]);
        let down = build_load(&mut b, src, &[ivs[0], ivs[1]]);
        let s1 = arith::build_binary(&mut b, arith::ADDF, center, up);
        let s2 = arith::build_binary(&mut b, arith::ADDF, s1, down);
        let scale = b.create_constant_float(0.2, Type::f32());
        let result = arith::build_binary(&mut b, arith::MULF, s2, scale);
        build_store(&mut b, result, dst, &[ivs[0], ivs[1]]);
        loops[0]
    }

    /// Emits an element-wise pass `dst[i][j] = f(src[i][j])` used by correlation.
    fn elementwise(&mut self, src: ValueId, dst: ValueId, n: i64, m: i64, tag: &str) -> OpId {
        let (loops, ivs, inner) = build_loop_nest(
            self.ctx,
            self.body,
            &[(0, n, &format!("{tag}_i")), (0, m, &format!("{tag}_j"))],
        );
        let mut b = OpBuilder::at_block_end(self.ctx, inner);
        let x = build_load(&mut b, src, &[ivs[0], ivs[1]]);
        let scale = b.create_constant_float(0.5, Type::f32());
        let y = arith::build_binary(&mut b, arith::MULF, x, scale);
        build_store(&mut b, y, dst, &[ivs[0], ivs[1]]);
        loops[0]
    }
}

/// Builds `kernel` with the given square problem size into `module`.
/// Returns the kernel's `func.func`.
pub fn build_kernel(ctx: &mut Context, module: OpId, kernel: PolybenchKernel, n: i64) -> OpId {
    let mut kb = KernelBuilder::new(ctx, module, kernel.name());
    match kernel {
        PolybenchKernel::TwoMm => {
            let a = kb.matrix(n, n, "A");
            let b = kb.matrix(n, n, "B");
            let c = kb.matrix(n, n, "C");
            let tmp = kb.matrix(n, n, "tmp");
            let d = kb.matrix(n, n, "D");
            kb.matmul(a, b, tmp, n, n, n, "mm1");
            kb.matmul(tmp, c, d, n, n, n, "mm2");
        }
        PolybenchKernel::ThreeMm => {
            let a = kb.matrix(n, n, "A");
            let b = kb.matrix(n, n, "B");
            let c = kb.matrix(n, n, "C");
            let d = kb.matrix(n, n, "D");
            let e = kb.matrix(n, n, "E");
            let f = kb.matrix(n, n, "F");
            let g = kb.matrix(n, n, "G");
            kb.matmul(a, b, e, n, n, n, "mm1");
            kb.matmul(c, d, f, n, n, n, "mm2");
            kb.matmul(e, f, g, n, n, n, "mm3");
        }
        PolybenchKernel::Atax => {
            let a = kb.matrix(n, n, "A");
            let x = kb.vector(n, "x");
            let tmp = kb.vector(n, "tmp");
            let y = kb.vector(n, "y");
            kb.matvec(a, x, tmp, n, n, false, "ax");
            kb.matvec(a, tmp, y, n, n, true, "aty");
        }
        PolybenchKernel::Bicg => {
            let a = kb.matrix(n, n, "A");
            let p = kb.vector(n, "p");
            let r = kb.vector(n, "r");
            let q = kb.vector(n, "q");
            let s = kb.vector(n, "s");
            kb.matvec(a, p, q, n, n, false, "q");
            kb.matvec(a, r, s, n, n, true, "s");
        }
        PolybenchKernel::Correlation => {
            let data = kb.matrix(n, n, "data");
            let normalized = kb.matrix(n, n, "normalized");
            let corr = kb.matrix(n, n, "corr");
            let mean = kb.vector(n, "mean");
            kb.matvec(data, mean, mean, n, n, true, "mean");
            kb.elementwise(data, normalized, n, n, "norm");
            kb.matmul(normalized, normalized, corr, n, n, n, "corr");
        }
        PolybenchKernel::Gesummv => {
            let a = kb.matrix(n, n, "A");
            let x = kb.vector(n, "x");
            let y = kb.vector(n, "y");
            kb.matvec(a, x, y, n, n, false, "y");
        }
        PolybenchKernel::Jacobi2d => {
            let a = kb.matrix(n, n, "A");
            let b = kb.matrix(n, n, "B");
            kb.stencil(a, b, n, "step1");
            kb.stencil(b, a, n, "step2");
        }
        PolybenchKernel::Mvt => {
            let a = kb.matrix(n, n, "A");
            let y1 = kb.vector(n, "y1");
            let y2 = kb.vector(n, "y2");
            let x1 = kb.vector(n, "x1");
            let x2 = kb.vector(n, "x2");
            kb.matvec(a, y1, x1, n, n, false, "x1");
            kb.matvec(a, y2, x2, n, n, true, "x2");
        }
        PolybenchKernel::Seidel2d => {
            let a = kb.matrix(n, n, "A");
            kb.stencil(a, a, n, "seidel");
        }
        PolybenchKernel::Symm => {
            let a = kb.matrix(n, n, "A");
            let b = kb.matrix(n, n, "B");
            let c = kb.matrix(n, n, "C");
            kb.matmul(a, b, c, n, n, n, "symm");
        }
        PolybenchKernel::Syr2k => {
            let a = kb.matrix(n, n, "A");
            let b = kb.matrix(n, n, "B");
            let c = kb.matrix(n, n, "C");
            kb.matmul(a, b, c, n, n, n, "syr2k");
        }
    }
    kb.func
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_dialects::analysis::profile_body;
    use hida_dialects::loops::top_level_loops;

    #[test]
    fn every_kernel_builds_and_verifies() {
        for kernel in PolybenchKernel::all() {
            let mut ctx = Context::new();
            let module = ctx.create_module("m");
            let func = build_kernel(&mut ctx, module, kernel, 32);
            hida_ir_core::verifier::verify(&ctx, module)
                .unwrap_or_else(|e| panic!("{} failed to verify: {e}", kernel.name()));
            assert!(!ctx.body_ops(func).is_empty());
        }
        assert_eq!(PolybenchKernel::all().len(), 11);
    }

    #[test]
    fn multi_loop_kernels_have_multiple_top_level_nests() {
        // The kernels with coarse-grained dataflow to exploit.
        let multi_loop = [
            PolybenchKernel::TwoMm,
            PolybenchKernel::ThreeMm,
            PolybenchKernel::Atax,
            PolybenchKernel::Bicg,
            PolybenchKernel::Correlation,
            PolybenchKernel::Jacobi2d,
            PolybenchKernel::Mvt,
        ];
        for kernel in PolybenchKernel::all() {
            let mut ctx = Context::new();
            let module = ctx.create_module("m");
            let func = build_kernel(&mut ctx, module, kernel, 32);
            let nests = top_level_loops(&ctx, func).len();
            if multi_loop.contains(&kernel) {
                assert!(
                    nests >= 2,
                    "{} should be multi-loop, has {nests}",
                    kernel.name()
                );
            } else {
                assert_eq!(nests, 1, "{} should be single-loop", kernel.name());
            }
        }
    }

    #[test]
    fn matmul_kernels_report_cubic_mac_counts() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::TwoMm, 32);
        let profile = profile_body(&ctx, func);
        // 2mm performs two n^3 MAC nests.
        assert_eq!(profile.macs, 2 * 32 * 32 * 32);

        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = build_kernel(&mut ctx, module, PolybenchKernel::ThreeMm, 16);
        assert_eq!(profile_body(&ctx, func).macs, 3 * 16 * 16 * 16);
    }

    #[test]
    fn kernel_names_match_the_paper_table() {
        let names: Vec<&str> = PolybenchKernel::all().iter().map(|k| k.name()).collect();
        assert!(names.contains(&"2mm"));
        assert!(names.contains(&"jacobi-2d"));
        assert!(names.contains(&"seidel-2d"));
        assert!(names.contains(&"gesummv"));
        for k in PolybenchKernel::all() {
            assert!(k.default_size() >= 32);
        }
    }
}
