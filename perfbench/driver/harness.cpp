#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/campaign.hpp"

namespace perfbench {

namespace {
const auto kEpoch = std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return mix64(mix64(seed ^ mix64(stream)) + index) >> 12;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::int64_t SpanLog::open(const char* name, std::uint64_t id, double work) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.work = work;
  span.t0_s = now_s();
  spans_.push_back(span);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].t1_s = now_s();
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"name\":\"%s\",\"parent\":%lld,\"id\":%llu,"
                 "\"t0\":%.9f,\"t1\":%.9f,\"work\":%.17g}\n",
                 i, s.name, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id), s.t0_s, s.t1_s,
                 s.work);
  }
  return std::fclose(f) == 0;
}

void Report::check(const std::string& what, bool ok, std::size_t n,
                   std::size_t bad) {
  attempted += n;
  if (ok) return;
  failed += std::max<std::size_t>(1, bad);
  failures.push_back(what);
}

std::string Context::tmp_path(const std::string& stem) {
  static std::size_t counter = 0;
  const std::string path =
      tmp_dir + "/" + stem + "-" + std::to_string(counter++) + ".jsonl";
  std::remove(path.c_str());  // a journal left by an earlier run would hit
  return path;
}

TraceScope::TraceScope(Context& ctx, bool on) : ctx_(ctx), on_(on) {
  if (!on_) return;
  ivnet::obs::install(ivnet::obs::Sink{.metrics = &ctx_.registry});
  ctx_.spans.set_enabled(true);
}

TraceScope::~TraceScope() {
  if (!on_) return;
  ctx_.spans.set_enabled(false);
  ivnet::obs::install_null();
}

void run_passes(Context& ctx, std::size_t warmup_passes,
                std::size_t min_passes,
                const std::function<PassResult(PassKind)>& pass) {
  std::size_t untraced = 0;
  std::size_t traced = 0;
  bool have_digest = false;
  std::uint64_t digest = 0;
  std::size_t mismatches = 0;
  for (std::size_t w = 0; w < warmup_passes; ++w) {
    const PassResult result = pass(PassKind::kWarmup);
    mismatches += have_digest && result.digest != digest;
    digest = result.digest;
    have_digest = true;
  }
  const double start = now_s();
  for (;;) {
    const bool enough_time = now_s() - start >= ctx.seconds;
    const bool enough_passes =
        untraced >= min_passes && (!ctx.trace || traced >= min_passes);
    if (enough_time && enough_passes) break;
    // Traced runs alternate untraced and traced passes.
    const bool trace_this = ctx.trace && traced < untraced;
    PassResult result;
    {
      TraceScope scope(ctx, trace_this);
      result = pass(trace_this ? PassKind::kTraced : PassKind::kMeasured);
    }
    if (trace_this) {
      ++traced;
      ctx.report.traced_cost.push_back(result.cost);
    } else {
      ++untraced;
      ctx.report.untraced_cost.push_back(result.cost);
      ctx.report.setup_s.insert(ctx.report.setup_s.end(),
                                result.setup_s.begin(), result.setup_s.end());
    }
    if (!have_digest) {
      digest = result.digest;
      have_digest = true;
    } else if (result.digest != digest) {
      ++mismatches;
    }
  }
  ctx.report.check("every pass of one seed produces the same output digest",
                   mismatches == 0, warmup_passes + untraced + traced,
                   mismatches);
}

void clear_cell_cache() { ivnet::CellCache::instance().clear(); }

std::uint64_t counter(Context& ctx, const char* name) {
  return ctx.registry.counter(name).value();
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(std::clamp(q, 0.0, 1.0) * n)));
  return values[rank - 1];
}

}  // namespace perfbench
