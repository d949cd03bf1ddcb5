// The block kernels' AVX2 level (see delta_impl.hpp for the why).
//
// This translation unit alone is compiled with -O3 -mavx2 -ffp-contract=off
// and no -mfma (src/CMakeLists.txt), and block_kernels() returns its table
// only when isa_level() reports AVX2. It holds no code of its own: the
// kernels are delta_impl.hpp's, so every level runs one source.
#include "ivnet/cib/delta_impl.hpp"

namespace ivnet::detail {

const BlockKernels* avx2_block_kernels() { return &kLevelKernels; }

}  // namespace ivnet::detail
