// Benchmark program for the conservation-rules library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process (so peak_rss_mb is that workload's
// alone), checks its outputs, and prints every metric by name with its
// unit; the last line is the result object BENCHMARK.json describes.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// from a separate traced run. perfbench/run.py builds and runs this.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"discover_s", "s"},
    {"ticks_per_s", "ticks/s"}, {"ack_p50_ms", "ms"},
    {"ack_p99_ms", "ms"},      {"fresh_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"series.build_s", "s"},
    {"interval.generate_s", "s"},
    {"interval.work_s", "s"},
    {"interval.imbalance", "ratio"},
    {"interval.intervals_tested", "count"},
    {"interval.endpoint_steps", "count"},
    {"interval.candidates", "count"},
    {"interval.useful_frac", "ratio"},
    {"interval.anchors_pruned", "count"},
    {"interval.prune_hit_frac", "ratio"},
    {"interval.sketch_blocks", "count"},
    {"interval.lane_occupancy", "ratio"},
    {"cover.seed_s", "s"},
    {"cover.select_s", "s"},
    {"cover.rounds", "count"},
    {"cover.heap_pops", "count"},
    {"cover.stale_reevaluations", "count"},
    {"cover.tick_visits", "count"},
    {"serve.decode_s", "s"},
    {"serve.enqueue_s", "s"},
    {"serve.rejected_frac", "ratio"},
    {"serve.backlog_ticks_max", "ticks"},
    {"serve.ticks_per_dispatch", "ticks"},
    {"serve.cover_refreshes", "count"},
    {"serve.ack_samples", "count"},
    {"serve.apply_s", "s"},
    {"serve.apply_p50_ms", "ms"},
    {"serve.apply_p99_ms", "ms"},
    {"serve.apply_samples", "count"},
    {"serve.refresh_s", "s"},
    {"incr.create_s", "s"},
    {"incr.append_s", "s"},
    {"incr.append_p99_ms", "ms"},
    {"incr.append_samples", "count"},
    {"incr.candidates_extended", "count"},
    {"incr.dirty_anchors", "count"},
    {"incr.refresh_s", "s"},
    {"incr.refresh_p99_ms", "ms"},
    {"incr.refresh_samples", "count"},
    {"incr.cover_warm_pops", "count"},
    {"stream.observe_s", "s"},
    {"other_s", "s"},
    {"trace_overhead_s", "s"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <discover_outage|"
               "serve_long_history> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               message);
  std::exit(2);
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && errno != ERANGE;
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int k = 1; k < argc; k += 2) {
    if (k + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[k];
    const char* value = argv[k + 1];
    double number = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || errno == ERANGE || value[0] == '-') {
        Usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || !(number > 0) || number > 3600) {
        Usage("--seconds takes a number in (0, 3600]");
      }
      args.seconds = number;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  Report report;
  if (args.workload == "discover_outage") {
    RunDiscoverOutage(args, &report);
  } else if (args.workload == "serve_long_history") {
    RunServeLongHistory(args, &report);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  report.Set("peak_rss_mb", PeakRssMb());
  report.Print(args.trace ? kPerLayer : kEndToEnd);
  return 0;
}
