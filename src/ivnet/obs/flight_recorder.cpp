#include "ivnet/obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace ivnet::obs {
namespace {

// ---------------------------------------------------------------------------
// Async-signal-safe building blocks. Everything the dump path touches must
// avoid malloc, stdio, and locks: the crash handler runs on a corrupted
// process.

/// Write v as decimal into buf (no terminator), return the length.
std::size_t u64_to_dec(std::uint64_t v, char* buf) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(FlightEvent::kAnomaly);

// ---------------------------------------------------------------------------
// Crash-handler statics. The recorder pointer is swapped atomically; the
// path lives in a fixed buffer so the handler never touches the heap.

std::atomic<const FlightRecorder*> g_crash_recorder{nullptr};
char g_crash_path[512] = {0};
bool g_handlers_installed = false;

void crash_handler(int signo) {
  const FlightRecorder* recorder =
      g_crash_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr && g_crash_path[0] != '\0') {
    const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      recorder->dump_to_fd(fd);
      ::close(fd);
    }
  }
  // SA_RESETHAND already restored the default disposition; re-raise so the
  // process still dies with the original signal's status.
  ::raise(signo);
}

}  // namespace

/// Byte sink: appends to a std::string (normal dumps) or write(2)s to a
/// descriptor (signal dumps). The descriptor path allocates nothing.
struct FlightRecorder::Sink {
  std::string* out = nullptr;  ///< string dumps append here; else `fd`
  int fd = -1;
  long written = 0;

  bool put(const char* data, std::size_t len);

  bool put(const char* text) { return put(text, std::strlen(text)); }

  bool put_u64(std::uint64_t v) {
    char buf[20];
    return put(buf, u64_to_dec(v, buf));
  }

  /// One trace_event entry. `first` tracks the leading comma.
  bool event(bool& first, std::size_t ring, std::uint64_t t_us,
             std::uint64_t kind_raw, std::uint64_t id, std::uint64_t arg) {
    if (kind_raw > kMaxEventKind) return true;  // torn slot: skip, keep going
    const auto kind = static_cast<FlightEvent>(kind_raw);
    if (!first && !put(",")) return false;
    first = false;
    put("{\"name\":\"");
    put(flight_event_name(kind));
    if (kind == FlightEvent::kStageEnter || kind == FlightEvent::kStageExit) {
      put_u64(arg);  // "stage0", "stage1", ... so spans pair up by name
    }
    put("\",\"ph\":\"");
    switch (kind) {
      case FlightEvent::kStageEnter:
        put("B");
        break;
      case FlightEvent::kStageExit:
        put("E");
        break;
      default:
        put("i\",\"s\":\"t");
        break;
    }
    put("\",\"ts\":");
    put_u64(t_us);
    put(",\"pid\":0,\"tid\":");
    put_u64(ring);
    put(",\"args\":{\"id\":");
    put_u64(id);
    put(",\"arg\":");
    put_u64(arg);
    return put("}}");
  }
};

const char* flight_event_name(FlightEvent kind) {
  switch (kind) {
    case FlightEvent::kEnqueue:
      return "enqueue";
    case FlightEvent::kDequeue:
      return "dequeue";
    case FlightEvent::kStageEnter:
    case FlightEvent::kStageExit:
      return "stage";
    case FlightEvent::kShed:
      return "shed";
    case FlightEvent::kBrownout:
      return "brownout";
    case FlightEvent::kRetry:
      return "retry";
    case FlightEvent::kAnomaly:
      return "anomaly";
  }
  return "unknown";
}

bool FlightRecorder::Sink::put(const char* data, std::size_t len) {
  if (out != nullptr) {
    out->append(data, len);
    written += static_cast<long>(len);
    return true;
  }
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) return false;
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
    written += n;
  }
  return true;
}

FlightRecorder::FlightRecorder(std::size_t rings)
    : rings_(std::max<std::size_t>(1, rings)) {
  for (Ring& ring : rings_) {
    ring.slots = std::make_unique<Slot[]>(kSlotsPerRing);
  }
}

void FlightRecorder::record(std::size_t ring_index, FlightEvent kind,
                            double t_s, std::uint64_t id, std::uint64_t arg) {
  if (ring_index >= rings_.size()) ring_index = rings_.size() - 1;
  Ring& ring = rings_[ring_index];
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[head & kMask];
  const double clamped = t_s > 0.0 ? t_s : 0.0;
  slot.t_us.store(static_cast<std::uint64_t>(clamped * 1e6),
                  std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint64_t>(kind), std::memory_order_relaxed);
  slot.id.store(id, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  ring.head.store(head + 1, std::memory_order_release);
}

bool FlightRecorder::write_trace(Sink& sink) const {
  if (!sink.put("{\"traceEvents\":[")) return false;
  bool first = true;
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const Ring& ring = rings_[r];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t retained = std::min<std::uint64_t>(head, kSlotsPerRing);
    for (std::uint64_t k = head - retained; k < head; ++k) {
      const Slot& slot = ring.slots[k & kMask];
      if (!sink.event(first, r, slot.t_us.load(std::memory_order_relaxed),
                      slot.kind.load(std::memory_order_relaxed),
                      slot.id.load(std::memory_order_relaxed),
                      slot.arg.load(std::memory_order_relaxed))) {
        return false;
      }
    }
  }
  return sink.put("]}");
}

std::string FlightRecorder::dump_json() const {
  std::string out;
  Sink sink;
  sink.out = &out;
  write_trace(sink);
  return out;
}

long FlightRecorder::dump_to_fd(int fd) const {
  Sink sink;
  sink.fd = fd;
  return write_trace(sink) ? sink.written : -1;
}

std::uint64_t FlightRecorder::total_events() const {
  std::uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.head.load(std::memory_order_acquire);
  }
  return total;
}

void FlightRecorder::install_crash_handler(const FlightRecorder* recorder,
                                           const char* path) {
  if (path != nullptr) {
    const std::size_t len =
        std::min(std::strlen(path), sizeof(g_crash_path) - 1);
    std::memcpy(g_crash_path, path, len);
    g_crash_path[len] = '\0';
  } else {
    g_crash_path[0] = '\0';
  }
  g_crash_recorder.store(recorder, std::memory_order_release);
  if (recorder == nullptr || g_handlers_installed) return;
  g_handlers_installed = true;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = crash_handler;
  sigemptyset(&action.sa_mask);
  // One shot: the handler dumps, then the re-raise hits the restored
  // default disposition. Avoids recursing if the dump itself faults.
  action.sa_flags = SA_RESETHAND;
  for (const int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    ::sigaction(signo, &action, nullptr);
  }
}

}  // namespace ivnet::obs
