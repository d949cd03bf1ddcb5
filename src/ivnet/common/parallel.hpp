// Shared parallel-execution engine for the Monte-Carlo trial loops.
//
// A lazily-initialized fixed thread pool (size from the IVNET_THREADS
// environment variable, else hardware_concurrency) runs chunked parallel_for
// and parallel_reduce over trial indices. The pool is created once and reused
// across calls, so per-call overhead is a wakeup, not a thread spawn.
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

/// Fixed chunk grain. Part of the determinism contract: parallel_reduce
/// chunk boundaries are multiples of this regardless of the pool size.
inline constexpr std::size_t kParallelGrain = 16;

/// Runs chunk(ci) for every ci in [0, chunks) on the shared pool, blocking
/// until all chunks complete. The calling thread participates. Calls from
/// inside a pool worker run inline (no nested pools, no deadlock). The pool
/// runs one job at a time: callers on different threads that submit
/// concurrently are serialized, each waiting until the job ahead of it has
/// finished, so which caller's chunks run first is up to thread scheduling.
void pool_run(std::size_t chunks, const std::function<void(std::size_t)>& chunk);

/// True when the calling thread is a pool worker (nested calls run inline).
bool in_pool_worker();

/// Set the calling thread's pool-worker mark; returns the previous value.
bool set_in_pool_worker(bool value);

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
  const std::size_t chunks =
      (n + detail::kParallelGrain - 1) / detail::kParallelGrain;
  if (chunks <= 1 || parallel_thread_count() <= 1 || detail::in_pool_worker()) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  detail::pool_run(chunks, [&f, n](std::size_t ci) {
    const std::size_t lo = ci * detail::kParallelGrain;
    const std::size_t hi = std::min(n, lo + detail::kParallelGrain);
    for (std::size_t i = lo; i < hi; ++i) f(i);
  });
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
  const std::size_t chunks =
      (n + detail::kParallelGrain - 1) / detail::kParallelGrain;
  std::vector<T> partials(chunks, identity);
  parallel_for(n, [&](std::size_t i) {
    // parallel_for visits each index once; indices of one chunk always run
    // on the same thread in ascending order, so this fold is sequential
    // within the chunk.
    partials[i / detail::kParallelGrain] =
        combine(std::move(partials[i / detail::kParallelGrain]), map(i));
  });
  T total = std::move(partials[0]);
  for (std::size_t ci = 1; ci < chunks; ++ci) {
    total = combine(std::move(total), std::move(partials[ci]));
  }
  return total;
}

}  // namespace ivnet
