#pragma once
/// \file bench.hpp
/// Shared pieces of the paper-scale step benchmark: the paper configuration,
/// seed streams, clocks, physics gates and the report the driver prints.
/// Every workload drives the library only through its public functions and
/// times each layer from outside, around those calls.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pic/history.hpp"
#include "pic/simulation.hpp"

namespace stepbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline Clock::time_point after_seconds(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir = ".";  ///< where the wire workload puts its socket
};

/// Everything one run measured. The Python front end turns the raw samples
/// into percentiles and rates; see stepbench/metrics.py.
struct Report {
  std::string op = "step";         ///< what one op_ms sample times
  std::vector<double> setup_s;     ///< one sample per full set-up
  std::vector<double> op_ms;       ///< untraced step or request latencies
  std::vector<double> op_done_s;   ///< requests: completion of each op_ms sample, s into the window
  double items_per_op = 1.0;       ///< particles advanced per step (1 per request)
  size_t attempted = 0;
  size_t failed = 0;
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Check> checks;
  std::map<std::string, double> layers;    ///< per-layer metrics (traced run)
  std::map<std::string, double> counters;  ///< work and failure counts
  std::map<std::string, std::string> context;

  /// Records an output check; a failed check also marks the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// One line of JSON on stdout.
  void print_json() const;
};

/// Counts failures of one check over many trials and keeps the first reason.
struct Tally {
  size_t trials = 0;
  size_t failures = 0;
  std::string first_failure;
  void add(bool ok, const std::string& why) {
    ++trials;
    if (!ok && failures++ == 0) first_failure = why;
  }
  /// Records the tally as one check: ok when something was checked and
  /// nothing failed.
  void report(Report& r, const std::string& name, const std::string& summary) const {
    std::string detail = std::to_string(failures) + " of " + std::to_string(trials) + " failed";
    if (failures) detail += " (first: " + first_failure + ")";
    if (!summary.empty()) detail += "; " + summary;
    r.check(name, trials > 0 && failures == 0, detail);
  }
};

/// The paper's run (§III): 64 cells, L = 2π/3.06, 1000 electrons per cell,
/// dt = 0.2, two beams at ±0.2 with vth = 0.025, CIC, 200 steps.
[[nodiscard]] dlpic::pic::SimulationConfig paper_config(uint64_t seed);

/// Independent seed for stream `stream` of a run seeded with `seed`. Runs
/// measured one after another use streams 0, 1, ...; the model, the set-up
/// repeats and the wire payload runs draw from their own ranges.
[[nodiscard]] uint64_t derive_seed(uint64_t seed, uint64_t stream);
inline constexpr uint64_t kModelSeedStream = 1u << 20;
inline constexpr uint64_t kSetupSeedStream = 1u << 21;
inline constexpr uint64_t kPayloadSeedStream = 1u << 22;

/// Two-stream physics of one finished run against linear theory.
struct Physics {
  bool valid = false;        ///< a growth window was found
  double gamma = 0.0;        ///< fitted growth rate of mode 1
  double gamma_theory = 0.0;
  double rel_error = 0.0;    ///< gamma / gamma_theory - 1
  double r2 = 0.0;
  double energy_variation = 0.0;
  double momentum_drift = 0.0;
  [[nodiscard]] std::string describe() const;
};
[[nodiscard]] Physics measure_physics(const dlpic::pic::History& history,
                                      const dlpic::pic::Grid1D& grid,
                                      double v0);

/// Physics gates, from the repository's own test tolerances. One noise-seeded
/// run fits its growth rate with ~6% scatter, so a single run is held to
/// tests/core/test_dlpic.cpp's 30% and the mean over a benchmark run's
/// simulations to tests/pic/test_simulation.cpp's 15% and R² > 0.85. Energy
/// variation: < 0.06 traditional (test_simulation), < 0.25 DL (test_dlpic).
/// Momentum: < 2e-4 traditional (test_simulation); DL-PIC does not conserve
/// it (paper Fig. 5), so DL runs only need it finite.
[[nodiscard]] bool traditional_physics_ok(const Physics& p);
[[nodiscard]] bool dl_physics_ok(const Physics& p);
[[nodiscard]] bool mean_physics_ok(double mean_rel_error, double mean_r2);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Median of a copy of `v` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// True when two vectors hold bitwise-identical doubles.
[[nodiscard]] bool same_bits(const std::vector<double>& a, const std::vector<double>& b);
[[nodiscard]] bool all_finite(const std::vector<double>& v);

/// Workload entry points.
void run_traditional(const Options& opt, Report& report);
void run_dlpic(const Options& opt, Report& report);
void run_ensemble(const Options& opt, Report& report);
void run_wire(const Options& opt, Report& report);

}  // namespace stepbench
