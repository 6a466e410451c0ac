// netloc_perfbench: one benchmark run of one workload.
//
//   netloc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--workdir <dir>] [--span-dir <dir>]
//
// --trace 0 runs the workload's set-up, timed region and checks and
// prints the end-to-end metrics; --trace 1 replays the workload module
// by module three times (tracer off, on, off), prints the per-layer
// metrics of the traced replay and writes its spans to <span-dir>.
// The last line of standard output is the JSON result; diagnostics go
// to stderr.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "netloc_perfbench: " << problem
            << "\nusage: netloc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--span-dir <dir>]\nworkloads:";
  for (const auto& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  fs::path workdir = ".bench_build/perfbench-work";
  options.span_dir = ".bench_build/perfbench-spans";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--workdir") {
        workdir = value;
      } else if (flag == "--span-dir") {
        options.span_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  options.workdir =
      workdir / (options.workload + "-" + std::to_string(getpid()));
  return options;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  explicit ScratchDir(const fs::path& path) : path(path) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  fs::path path;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const auto& w : workloads()) {
    if (w.name == options.workload) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + options.workload + "'");

  try {
    ScratchDir scratch(options.workdir);
    if (!options.trace) {
      Ledger ledger;
      const Measurement m = workload->run(options, ledger);
      print_result(std::cout, ledger, end_to_end_metrics(m));
      return 0;
    }
    // Untraced, traced, untraced: the overhead compares the traced
    // replay with the mean of the two around it, so warm-up and slow
    // drift of the machine cancel instead of landing on one side.
    const auto untraced = [&] {
      Tracer off(false);
      Ledger ignored;
      const auto begin = Clock::now();
      workload->replay(options, off, ignored);
      return seconds_since(begin);
    };
    const double untraced_before_s = untraced();
    Tracer tracer(true);
    Ledger ledger;
    const auto begin = Clock::now();
    workload->replay(options, tracer, ledger);
    const double traced_s = seconds_since(begin);
    const double untraced_s = 0.5 * (untraced_before_s + untraced());
    fs::create_directories(options.span_dir);
    const fs::path spans = options.span_dir / (options.workload + "-seed" +
                                               std::to_string(options.seed) +
                                               ".jsonl");
    tracer.write(spans);
    std::cerr << "perfbench: " << tracer.spans().size() << " spans in "
              << spans.string() << "\n";
    print_result(std::cout, ledger,
                 layer_metrics(tracer, traced_s, untraced_s));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "netloc_perfbench: " << options.workload << ": " << e.what()
              << "\n";
    return 3;
  }
}
