// The block kernels' AVX-512 level (see delta_impl.hpp for the why).
//
// This translation unit alone is compiled with -O3 -mavx512f
// -ffp-contract=off and no -mfma (src/CMakeLists.txt), and block_kernels()
// returns its table only when isa_level() reports AVX-512. It holds no code
// of its own: the kernels are delta_impl.hpp's, so every level runs one
// source.
#include "ivnet/cib/delta_impl.hpp"

namespace ivnet::detail {

const BlockKernels* avx512_block_kernels() { return &kLevelKernels; }

}  // namespace ivnet::detail
