// Flight recorder: a lock-free per-worker ring of fixed-size binary events
// that is cheap enough to leave on in production and rich enough to
// reconstruct the last few thousand scheduling decisions after an incident.
//
// Design:
//  - One ring per worker thread (plus ring 0 for the submitter), each an
//    array of kSlotsPerRing 32-byte slots. A slot is four std::atomic
//    u64 fields written with relaxed stores by its ring's single writer;
//    the ring head is published with a release store after the slot is
//    complete. Readers acquire-load the head and walk backwards. A dump
//    racing a wrapping writer can observe a torn slot — acceptable for
//    forensics (at most the oldest retained event per ring), and every
//    access is atomic so the recorder is TSan-clean by construction.
//  - Recording is 5 relaxed atomic stores + 1 release store; there is no
//    branch on "is anyone listening" beyond the facade's null check.
//  - Dumps are Chrome trace_event JSON ("chrome://tracing", Perfetto):
//    stage enter/exit become ph "B"/"E" duration events, everything else
//    instants (ph "i"). dump_json() is the convenient path; dump_to_fd()
//    is async-signal-safe (no malloc, no stdio — manual integer
//    formatting and raw write(2)) so the fatal-signal handler can use it.
//    Both run one walk over the rings and differ only in where the bytes
//    go.
//  - install_crash_handler() points SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL
//    at a handler that opens a configured path, dumps, and re-raises with
//    the default disposition (SA_RESETHAND), preserving the crash status.
//
// Timestamps are caller-supplied seconds, emitted as integer microseconds —
// the unit Chrome trace viewers expect. The service stamps every event with
// its request's offered schedule time, the clock the telemetry layer uses;
// stage events add the wall time elapsed since execution began, so their
// spans are real durations. This is the one trace with wall-measured
// durations: obs/trace.hpp records simulated time only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ivnet::obs {

enum class FlightEvent : std::uint8_t {
  kEnqueue = 0,
  kDequeue = 1,
  kStageEnter = 2,
  kStageExit = 3,
  kShed = 4,
  kBrownout = 5,
  kRetry = 6,
  kAnomaly = 7,
};

/// Human-readable event name ("enqueue", "stage", ...). Returns a static
/// string; safe to call from a signal handler.
const char* flight_event_name(FlightEvent kind);

class FlightRecorder {
 public:
  /// Events each ring retains (a power of two, so a slot is head & mask).
  static constexpr std::size_t kSlotsPerRing = 4096;

  /// `rings` is the number of independent writers (workers + 1 for the
  /// submit path is the service convention); memory is fixed at
  /// construction.
  explicit FlightRecorder(std::size_t rings);

  /// Record one event on `ring`. Single-writer per ring: only one thread
  /// may record on a given ring (readers may run concurrently on any
  /// thread). `id` is the request id; `arg` is event-specific (stage
  /// index for kStageEnter/kStageExit, retry count for kRetry, ...).
  void record(std::size_t ring, FlightEvent kind, double t_s,
              std::uint64_t id, std::uint64_t arg = 0);

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one entry per
  /// retained event, tid = ring index. Safe to call concurrently with
  /// writers (see the torn-slot caveat above).
  std::string dump_json() const;

  /// Async-signal-safe dump of the same document to an open descriptor.
  /// Uses only write(2) and stack buffers. Returns bytes written, or -1
  /// on the first write error.
  long dump_to_fd(int fd) const;

  /// Total events ever recorded across all rings.
  std::uint64_t total_events() const;

  /// Install a fatal-signal handler (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
  /// SIGILL) that dumps `recorder` to `path` and re-raises. The pointer
  /// and a copy of the path live in static storage; passing nullptr
  /// disarms the dump (handlers stay installed but become pass-through).
  /// `recorder` must outlive any crash. Not reentrant with itself.
  static void install_crash_handler(const FlightRecorder* recorder,
                                    const char* path);

 private:
  // 4 x u64 = 32 bytes: timestamp (microseconds), kind, id, arg.
  struct Slot {
    std::atomic<std::uint64_t> t_us{0};
    std::atomic<std::uint64_t> kind{0};
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> arg{0};
  };
  struct Ring {
    std::unique_ptr<Slot[]> slots;
    std::atomic<std::uint64_t> head{0};  // events ever written to this ring
  };
  /// Where a dump's bytes go: a string or a descriptor (flight_recorder.cpp).
  struct Sink;

  /// Writes the whole trace document to `sink`, oldest retained event first
  /// per ring; false at the first failed write.
  bool write_trace(Sink& sink) const;

  static constexpr std::size_t kMask = kSlotsPerRing - 1;
  static_assert((kSlotsPerRing & kMask) == 0, "kSlotsPerRing: power of two");

  std::vector<Ring> rings_;
};

}  // namespace ivnet::obs
