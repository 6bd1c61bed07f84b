// perfbench: the whole-stack benchmark binary.
//
//   perfbench --workload <paper_index|skewed_match|durable_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--commit <id>]
//
// Prints a human-readable report (run stamp, every metric with its unit
// and sample count) on stderr and, as the last line of stdout, one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A run the gate
// refuses (too short, unconverged, too few checkpoint cycles) prints its
// reasons and exits 3 without a result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/alloc_hook.h"
#include "report.h"
#include "workloads.h"

// Counts heap allocations process-wide (exec.heap_allocs_per_batch). GCC
// pairs the inlined malloc in the replaced operator new with the free in
// the replaced operator delete and mis-reports a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_index|skewed_match|"
               "durable_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--commit <id>]\n");
  return 2;
}

std::string HostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string commit = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || opt.trace;
    } else if (k == "--out-dir") {
      opt.out_dir = v;
    } else if (k == "--commit") {
      commit = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_trace || !(opt.seconds > 0.0)) return Usage();

  void (*run)(const perfbench::RunOptions&, perfbench::Report*) = nullptr;
  if (opt.workload == "paper_index") run = perfbench::RunPaperIndex;
  if (opt.workload == "skewed_match") run = perfbench::RunSkewedMatch;
  if (opt.workload == "durable_churn") run = perfbench::RunDurableChurn;
  if (run == nullptr) return Usage();

  perfbench::Report report;
  report.Stamp("workload", opt.workload);
  report.Stamp("seed", std::to_string(opt.seed));
  report.Stamp("seconds", std::to_string(opt.seconds));
  report.Stamp("trace", opt.trace ? "1" : "0");
  report.Stamp("host", HostName());
  report.Stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.Stamp("commit", commit);
  run(opt, &report);

  report.PrintHuman(stderr);
  if (!report.refusals().empty()) {
    for (const std::string& why : report.refusals()) {
      std::fprintf(stderr, "refused: %s\n", why.c_str());
    }
    return 3;
  }
  const auto& defs = opt.trace ? perfbench::PerLayerMetrics()
                               : perfbench::EndToEndMetrics();
  std::printf("%s\n", report.ResultJson(defs).c_str());
  return 0;
}
