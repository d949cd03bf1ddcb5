// perfbench_driver — runs one benchmark workload and writes its raw record.
//
//   perfbench_driver --workload sweep|serve|vitals|plan --seed N
//                    --seconds S --trace 0|1 --tmp DIR --out FILE
//                    [--spans FILE]
//
// run.py builds this binary, runs it, and derives the reported metrics
// from FILE (and, for traced runs, from the span log). The exit code is 0
// whenever the record was written; failed output checks are listed in it.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "ivnet/common/json.hpp"
#include "ivnet/signal/gauss.hpp"

namespace {

using perfbench::Context;

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void write_numbers(ivnet::JsonWriter& w, const char* key,
                   const std::vector<double>& values) {
  w.key(key).begin_array();
  for (const double v : values) w.value(v);  // NaN is written as null
  w.end_array();
}

void write_groups(ivnet::JsonWriter& w, const char* key,
                  const std::vector<std::vector<double>>& groups) {
  w.key(key).begin_array();
  for (const auto& group : groups) {
    w.begin_array();
    for (const double v : group) w.value(v);
    w.end_array();
  }
  w.end_array();
}

void write_map(ivnet::JsonWriter& w, const char* key,
               const std::map<std::string, double>& values) {
  w.key(key).begin_object();
  for (const auto& [name, value] : values) w.field(name, value);
  w.end_object();
}

std::string raw_json(const Context& ctx) {
  const perfbench::Report& r = ctx.report;
  ivnet::JsonWriter w;
  w.begin_object();
  w.field("workload", ctx.workload);
  w.field("seed", static_cast<std::size_t>(ctx.seed));
  w.field("trace", ctx.trace);
  w.key("fingerprint").begin_object();
  w.field("nproc", ctx.nproc);
  w.field("gauss_simd_enabled", ivnet::signal::gauss_simd_enabled());
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.key("knobs").begin_object();
  for (const auto& [name, value] : r.knobs) w.field(name, value);
  w.end_object();
  w.end_object();
  write_numbers(w, "setup_s", r.setup_s);
  write_numbers(w, "rate_per_s", r.rate_per_s);
  write_groups(w, "latency_ms", r.latency_ms);
  write_groups(w, "due_s", r.due_s);
  write_groups(w, "done_s", r.done_s);
  w.field("tail_percentile", r.tail_percentile);
  w.field("quality", r.quality);
  w.field("peak_rss_mib", perfbench::peak_rss_mib());
  write_numbers(w, "untraced_cost", r.untraced_cost);
  write_numbers(w, "traced_cost", r.traced_cost);
  write_map(w, "named", r.named);
  write_map(w, "layer", r.layer);
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  w.key("failures").begin_array();
  for (const std::string& f : r.failures) w.value(f);
  w.end_array();
  w.end_object();
  return w.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload sweep|serve|vitals|plan "
               "--seed N --seconds S --trace 0|1 --tmp DIR --out FILE "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  std::string out_path;
  std::string spans_path;
  if (argc % 2 == 0) return usage();  // options come in --key value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      ctx.workload = value;
    } else if (key == "--seed") {
      ctx.seed = std::stoull(value);
    } else if (key == "--seconds") {
      ctx.seconds = std::stod(value);
    } else if (key == "--trace") {
      ctx.trace = value == "1";
    } else if (key == "--tmp") {
      ctx.tmp_dir = value;
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (out_path.empty() || ctx.tmp_dir.empty()) return usage();
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());

  try {
    if (ctx.workload == "sweep") {
      perfbench::run_sweep(ctx);
    } else if (ctx.workload == "serve") {
      perfbench::run_serve(ctx);
    } else if (ctx.workload == "vitals") {
      perfbench::run_vitals(ctx);
    } else if (ctx.workload == "plan") {
      perfbench::run_plan(ctx);
    } else {
      return usage();
    }
    if (ctx.trace) perfbench::run_layer_probes(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  if (!spans_path.empty() && !ctx.spans.write_jsonl(spans_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 spans_path.c_str());
    return 1;
  }
  if (!write_text(out_path, raw_json(ctx))) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}
