// Cache-blocked, register-tiled single-core GEMM.
//
// All three `tensor::matmul*` variants, and the raw-pointer conv/linear hot
// paths, lower onto these kernels. The structure is the classic three-level
// blocking (Goto/BLIS):
//
//   for jc over n in NC:                 B panel (KC x NC) stays in L2/L3
//     for pc over k in KC:               pack B once per (jc, pc)
//       pack B[pc:pc+KC, jc:jc+NC] into NR-wide panels
//       for ic over m in MC:             A block (MC x KC) stays in L2
//         pack A[ic:ic+MC, pc:pc+KC] into MR-tall panels
//         for jr, ir over the block:     MR x NR register microkernel
//
// Packing zero-pads the M/N edges to full MR/NR tiles so the microkernel
// has no edge branches; edge tiles are computed into a stack tile and only
// the valid region is written back. The k dimension is never padded.
//
// Numeric policy (uniform across all variants, documented here and in
// ARCHITECTURE.md): accumulation is float32 in microkernel registers,
// with partial sums spilled to C every KC=256 k-steps. The seed code mixed
// float (matmul, matmul_transA) and double (matmul_transB) accumulation;
// the blocked float policy keeps the three variants bit-consistent with
// each other and bounds the accumulation chain at KC. Double stays the rule
// for *reductions* (sum, norms, softmax denominators) in tensor/ops.
//
// No term is ever skipped — a 0 multiplier still contributes 0 x b, so
// NaN/Inf injected by Byzantine models propagate through (0 x NaN = NaN),
// unlike the seed ikj loop's `aik == 0` fast path.
//
// Scratch comes from the thread-local `Workspace`, so steady-state calls
// are heap-allocation-free and the kernels are safe to run concurrently
// from ThreadPool workers.
#pragma once

#include <cstddef>

namespace fedms::tensor {

// C(m x n) = beta * C + A(m x k) * B(k x n); row-major, beta in {0, 1}.
// With beta == 0, C is overwritten (it may be uninitialized).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, float beta);

// C(m x n) = beta * C + A^T * B where A is stored (k x m) row-major.
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, float beta);

// C(m x n) = beta * C + A * B^T where B is stored (n x k) row-major.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, float beta);

// Unblocked ijk reference with float accumulation and no zero-skip; the
// oracle for the equivalence tests in tests/tensor_gemm_test.cpp.
void gemm_reference(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c);

}  // namespace fedms::tensor
