// The delta evaluator's AVX2 level (see delta_impl.hpp for the why).
//
// This translation unit alone is compiled with -O3 -mavx2 -ffp-contract=off
// and no -mfma (src/CMakeLists.txt), and delta_objective.cpp calls into it
// only when isa_level() reports AVX2. It holds no code of its own: the
// kernels are delta_impl.hpp's, so both levels run one source.
#include "ivnet/cib/delta_impl.hpp"

namespace ivnet::detail {

const DeltaKernels* avx2_delta_kernels() { return &kLevelKernels; }

}  // namespace ivnet::detail
