// Shared parallel-execution engine for the Monte-Carlo trial loops.
//
// A lazily-initialized fixed thread pool (size from the IVNET_THREADS
// environment variable, else hardware_concurrency) runs parallel_for and
// parallel_reduce over trial indices. Pool threads claim one index at a time
// (parallel_reduce: one fixed-size chunk at a time), so even a loop of a few
// coarse trials spreads over every thread. The pool is created once and
// reused across calls, so per-call overhead is a wakeup, not a thread spawn.
//
// Determinism contract: every helper here produces BITWISE-IDENTICAL results
// for any pool size, including 1. parallel_for touches each index exactly
// once and callers write to per-index slots; parallel_reduce folds fixed-size
// index chunks (chunk boundaries depend only on n, never on the thread
// count) and combines the chunk partials in chunk order. Randomness must
// come from per-index streams (Rng::stream), never from a shared generator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "ivnet/obs/obs.hpp"

namespace ivnet {

/// Number of threads the pool uses (IVNET_THREADS if set and valid, else
/// hardware_concurrency, else 1). Reflects any set_parallel_threads override.
std::size_t parallel_thread_count();

/// Override the pool size: tears down the current pool and lazily rebuilds
/// it with `count` threads (0 restores the automatic choice). Intended for
/// benchmarks and the determinism suite; not safe to call concurrently with
/// in-flight parallel work.
void set_parallel_threads(std::size_t count);

/// Parse an IVNET_THREADS-style value. Returns 0 (meaning "automatic") for
/// null, empty, non-numeric, zero, or absurdly large input.
std::size_t parse_thread_count(const char* text);

namespace detail {

/// parallel_reduce's chunk grain. Part of the determinism contract: reduce
/// chunk boundaries are multiples of this regardless of the pool size.
/// parallel_for does not chunk; it hands out single indices.
inline constexpr std::size_t kParallelGrain = 16;

/// Runs f(i) for every i in [0, n) on the shared pool, one index per claim,
/// blocking until all complete. The calling thread participates. Calls from
/// inside a pool worker run inline (no nested pools, no deadlock). The pool
/// runs one job at a time: callers on different threads that submit
/// concurrently are serialized, each waiting until the job ahead of it has
/// finished, so which caller's indices run first is up to thread scheduling.
void pool_run(std::size_t n, const std::function<void(std::size_t)>& f);

/// True when the calling thread is a pool worker (nested calls run inline).
bool in_pool_worker();

/// Set the calling thread's pool-worker mark; returns the previous value.
bool set_in_pool_worker(bool value);

/// The one dispatch path: f(i) for every i in [0, n), one index per pool
/// claim, or inline in index order when the pool cannot help (n <= 1, a
/// one-thread pool, or a caller that is itself a pool worker). Records no
/// telemetry; parallel_for and parallel_reduce count their own calls.
template <typename F>
void for_each_index(std::size_t n, F&& f) {
  if (n <= 1 || in_pool_worker() || parallel_thread_count() <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  pool_run(n, [&f](std::size_t i) { f(i); });
}

/// for_each_index for bodies that may throw. An exception cannot unwind
/// through the pool, so the first one thrown is captured, indices not yet
/// started are skipped, and it is rethrown once every started index has
/// finished.
void for_each_index_guarded(std::size_t n,
                            const std::function<void(std::size_t)>& f);

}  // namespace detail

/// Marks the calling thread as a parallel-pool participant for the scope's
/// lifetime: nested parallel_for / parallel_reduce calls run
/// inline on this thread instead of dispatching to the shared pool. The
/// service front-end (svc/service.hpp) wraps each worker in one of these so
/// a request handler that reaches a parallelized kernel (the frequency
/// optimizer's Monte-Carlo scoring, for instance) cannot oversubscribe the
/// machine by stacking the shared pool on top of the service's own workers —
/// and cannot serialize unrelated requests behind the pool's one-job-at-a-
/// time submit lock.
class ScopedInlineParallel {
 public:
  ScopedInlineParallel() : prev_(detail::set_in_pool_worker(true)) {}
  ~ScopedInlineParallel() { detail::set_in_pool_worker(prev_); }
  ScopedInlineParallel(const ScopedInlineParallel&) = delete;
  ScopedInlineParallel& operator=(const ScopedInlineParallel&) = delete;

 private:
  bool prev_;
};

/// Calls f(i) for every i in [0, n), in unspecified order, possibly
/// concurrently. f must be safe to run concurrently for distinct indices;
/// the canonical pattern is writing to out[i].
template <typename F>
void parallel_for(std::size_t n, F&& f) {
  // Structural telemetry: invocation and item counts depend only on the
  // call graph, never on the pool size, so they are safe in byte-stable
  // snapshots (dispatch counts would not be — the inline path skips the
  // pool entirely at 1 thread).
  obs::count("parallel.for.calls");
  obs::count("parallel.for.items", n);
  detail::for_each_index(n, f);
}

/// Materializes map(i) for i in [0, n) into a vector, in index order.
template <typename T, typename Map>
std::vector<T> parallel_map(std::size_t n, Map&& map) {
  std::vector<T> out(n);
  parallel_for(n, [&out, &map](std::size_t i) { out[i] = map(i); });
  return out;
}

/// Deterministic reduction: acc = combine(acc, map(i)) folded sequentially
/// inside each fixed-grain chunk, then chunk partials combined in chunk
/// order. `identity` must be the identity element of `combine` (it seeds
/// every chunk). Bitwise identical for any pool size.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, T identity, Map&& map, Combine&& combine) {
  if (n == 0) return identity;
  // Counted as one parallel_for over n items, as the telemetry always has.
  obs::count("parallel.for.calls");
  obs::count("parallel.for.items", n);
  const std::size_t chunks =
      (n + detail::kParallelGrain - 1) / detail::kParallelGrain;
  std::vector<T> partials(chunks, identity);
  detail::for_each_index(chunks, [&](std::size_t ci) {
    // One chunk per claim: its indices fold in ascending order on one
    // thread.
    const std::size_t lo = ci * detail::kParallelGrain;
    const std::size_t hi = std::min(n, lo + detail::kParallelGrain);
    for (std::size_t i = lo; i < hi; ++i) {
      partials[ci] = combine(std::move(partials[ci]), map(i));
    }
  });
  T total = std::move(partials[0]);
  for (std::size_t ci = 1; ci < chunks; ++ci) {
    total = combine(std::move(total), std::move(partials[ci]));
  }
  return total;
}

}  // namespace ivnet
