// Compiled with the same SIMD flags as the library kernels, so the label
// reports which kernel path the libraries dispatch to in this process.
#include "pnc/util/simd.hpp"

namespace perfbench {
const char* library_simd_kind() { return pnc::simd::kind(); }
}  // namespace perfbench
