// Reusable scratch-buffer arena for the sample-domain DSP pipeline.
//
// The hot waveform paths (SawFilter::apply, decimate, the complex FIR's
// split re/im lanes) used to allocate fresh vectors — often hundreds of
// kilosamples — on every call, which dominated the allocator traffic of a
// waveform-session trial. A DspWorkspace keeps returned buffers on per-type
// free lists so steady-state trials run allocation-free: the campaign engine
// shards thousands of cells, and each cell's trials recycle the same few
// megasample buffers. Checkouts are best-fit by capacity (smallest parked
// buffer that already holds `n`), so mixed-size checkout patterns — a batch
// cycling small envelopes and large backscatter records — recycle instead of
// regrowing.
//
// Ownership rules (see docs/ARCHITECTURE.md, "DSP fast path"):
//  - A workspace is single-threaded state. Give each thread its own;
//    never share one across concurrent callers. The value-returning
//    DSP convenience overloads use a thread_local instance (tls()), so
//    pool workers each get their own automatically.
//  - acquire_*() returns a buffer resized to `n` with UNSPECIFIED contents
//    (it may hold stale samples from a previous checkout); callers must
//    fully overwrite it before reading.
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
#include <type_traits>
#include <utility>
#include <vector>

#include "ivnet/signal/waveform.hpp"

namespace ivnet {

class DspWorkspace {
 public:
  /// Check out a real/complex buffer resized to `n`. Contents unspecified.
  std::vector<double> acquire_real(std::size_t n);
  std::vector<cplx> acquire_cplx(std::size_t n);

  /// Return a buffer's storage to the free list (size is irrelevant; only
  /// capacity is recycled).
  void release(std::vector<double>&& buf);
  void release(std::vector<cplx>&& buf);

  /// Buffers currently parked on the free lists (for tests).
  std::size_t pooled_real() const { return real_pool_.size(); }
  std::size_t pooled_cplx() const { return cplx_pool_.size(); }

  /// Per-thread workspace used by the value-returning DSP convenience
  /// overloads (fir_filter, decimate, ...). Each pool worker gets its own,
  /// so the default path is both allocation-free in steady state and safe
  /// under the parallel trial loops.
  static DspWorkspace& tls();

 private:
  std::vector<std::vector<double>> real_pool_;
  std::vector<std::vector<cplx>> cplx_pool_;
};

/// RAII checkout: acquires on construction, releases on destruction, so a
/// kernel with multiple exits can't strand its scratch.
template <typename T>
class ScopedBuffer {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, cplx>,
                "DspWorkspace pools double and cplx buffers only");

 public:
  ScopedBuffer(DspWorkspace& ws, std::size_t n) : ws_(&ws) {
    if constexpr (std::is_same_v<T, double>) {
      buf_ = ws.acquire_real(n);
    } else {
      buf_ = ws.acquire_cplx(n);
    }
  }
  ~ScopedBuffer() { ws_->release(std::move(buf_)); }
  ScopedBuffer(const ScopedBuffer&) = delete;
  ScopedBuffer& operator=(const ScopedBuffer&) = delete;

  std::vector<T>& operator*() { return buf_; }
  std::vector<T>* operator->() { return &buf_; }
  T* data() { return buf_.data(); }
  const T* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

 private:
  DspWorkspace* ws_;
  std::vector<T> buf_;
};

}  // namespace ivnet
