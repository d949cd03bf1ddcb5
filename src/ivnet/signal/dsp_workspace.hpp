// Reusable scratch-buffer arena for the split-lane FIR kernels.
//
// fir_filter and decimate split a complex waveform into re/im lanes; a
// DspWorkspace keeps returned lane buffers on a free list so repeated calls
// run allocation-free after the first. Checkouts are best-fit by capacity
// (smallest parked buffer that already holds `n`), so mixed-size checkout
// patterns recycle instead of regrowing.
//
// Ownership rules (see docs/ARCHITECTURE.md, "DSP fast path"):
//  - A workspace is single-threaded state. Give each thread its own;
//    never share one across concurrent callers.
//  - acquire_real() returns a buffer resized to `n` with UNSPECIFIED
//    contents (it may hold stale samples from a previous checkout); callers
//    must fully overwrite it before reading.
//  - release() hands the buffer's capacity back for reuse. Releasing is an
//    optimization, not a correctness requirement: keeping (or moving out)
//    an acquired buffer is fine, the workspace just allocates a fresh one
//    next time.
//  - Nesting is safe: a kernel that has buffers checked out and calls
//    another workspace-taking kernel simply sees the free list minus its
//    own checkouts. Prefer ScopedBuffer so early returns can't leak a
//    checkout.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ivnet {

class DspWorkspace {
 public:
  /// Check out a buffer resized to `n`. Contents unspecified.
  std::vector<double> acquire_real(std::size_t n);

  /// Return a buffer's storage to the free list (size is irrelevant; only
  /// capacity is recycled).
  void release(std::vector<double>&& buf);

  /// Buffers currently parked on the free list (for tests).
  std::size_t pooled_real() const { return real_pool_.size(); }

 private:
  std::vector<std::vector<double>> real_pool_;
};

/// RAII checkout: acquires on construction, releases on destruction, so a
/// kernel with multiple exits can't strand its scratch.
class ScopedBuffer {
 public:
  ScopedBuffer(DspWorkspace& ws, std::size_t n)
      : ws_(&ws), buf_(ws.acquire_real(n)) {}
  ~ScopedBuffer() { ws_->release(std::move(buf_)); }
  ScopedBuffer(const ScopedBuffer&) = delete;
  ScopedBuffer& operator=(const ScopedBuffer&) = delete;

  double* data() { return buf_.data(); }
  const double* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

 private:
  DspWorkspace* ws_;
  std::vector<double> buf_;
};

}  // namespace ivnet
