/// \file main.cpp
/// Paper-scale step benchmark driver.
///
///   stepbench --workload NAME --seed N --seconds S [--trace 0|1] [--run-dir DIR]
///
/// Workloads: trad_paper, dlpic_f64, ensemble8_f64, wire_int8. Prints one
/// JSON line of raw samples, counters, checks and run context on stdout;
/// stepbench/run.py turns it into the benchmark's metrics. The worker count
/// is the library's (DLPIC_THREADS); run.py pins it per workload.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "nn/backend.hpp"
#include "util/parallel.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stepbench: %s\nusage: stepbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--run-dir DIR]\n",
               why);
  std::exit(2);
}

stepbench::Options parse(int argc, char** argv) {
  stepbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage((arg + " needs a value").c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--run-dir") {
        opt.run_dir = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stepbench;
  const Options opt = parse(argc, argv);
  if (std::string(STEPBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "stepbench: refusing to time a %s build; configure with Release\n",
                 STEPBENCH_BUILD_TYPE);
    return 3;
  }
  Report report;
  report.context["workload"] = opt.workload;
  report.context["seed"] = std::to_string(opt.seed);
  report.context["trace"] = opt.trace ? "1" : "0";
  report.context["build_type"] = STEPBENCH_BUILD_TYPE;
  report.context["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  report.context["workers"] = std::to_string(dlpic::util::parallel_workers());
  report.context["kernel_backend"] = dlpic::nn::active_backend().name();
  try {
    if (opt.workload == "trad_paper")
      run_traditional(opt, report);
    else if (opt.workload == "dlpic_f64")
      run_dlpic(opt, report);
    else if (opt.workload == "ensemble8_f64")
      run_ensemble(opt, report);
    else if (opt.workload == "wire_int8")
      run_wire(opt, report);
    else
      usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.counters["peak_rss_mb"] = peak_rss_mb();
  report.print_json();
  return 0;
}
