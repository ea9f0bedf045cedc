#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <numeric>
#include <sstream>

#include "bench.hpp"
#include "core/theory.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"

namespace stepbench {

using namespace dlpic;

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class Map, class Fn>
void write_object(std::ostringstream& os, const Map& map, Fn value) {
  os << '{';
  bool first = true;
  for (const auto& [key, v] : map) {
    if (!first) os << ',';
    first = false;
    os << json_string(key) << ':' << value(v);
  }
  os << '}';
}

void write_array(std::ostringstream& os, const std::vector<double>& values) {
  os << '[';
  for (size_t i = 0; i < values.size(); ++i) os << (i ? "," : "") << json_number(values[i]);
  os << ']';
}

}  // namespace

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks.push_back({name, ok, detail});
  if (!ok) std::fprintf(stderr, "stepbench: check %s FAILED: %s\n", name.c_str(), detail.c_str());
}

void Report::print_json() const {
  std::ostringstream os;
  os << "{\"op\":" << json_string(op) << ",\"setup_s\":";
  write_array(os, setup_s);
  os << ",\"op_ms\":";
  write_array(os, op_ms);
  os << ",\"op_done_s\":";
  write_array(os, op_done_s);
  os << ",\"items_per_op\":" << json_number(items_per_op) << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"checks\":[";
  for (size_t i = 0; i < checks.size(); ++i) {
    os << (i ? "," : "") << "{\"name\":" << json_string(checks[i].name)
       << ",\"ok\":" << (checks[i].ok ? "true" : "false")
       << ",\"detail\":" << json_string(checks[i].detail) << '}';
  }
  os << "],\"layers\":";
  write_object(os, layers, json_number);
  os << ",\"counters\":";
  write_object(os, counters, json_number);
  os << ",\"context\":";
  write_object(os, context, json_string);
  os << "}\n";
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
}

pic::SimulationConfig paper_config(uint64_t seed) {
  pic::SimulationConfig c;
  c.ncells = 64;
  c.length = 2.0 * std::numbers::pi / 3.06;
  c.particles_per_cell = 1000;
  c.dt = 0.2;
  c.nsteps = 200;
  c.beams.v0 = 0.2;
  c.beams.vth = 0.025;
  c.shape = pic::Shape::CIC;
  c.solver = "spectral";
  c.seed = seed;
  return c;
}

uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  return math::Rng::stream(seed, stream).next_u64();
}

std::string Physics::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "gamma=%.4f theory=%.4f (%+.1f%%) R2=%.3f energy_var=%.3g momentum_drift=%.3g%s",
                gamma, gamma_theory, 100.0 * rel_error, r2, energy_variation, momentum_drift,
                valid ? "" : " (no growth window)");
  return buf;
}

Physics measure_physics(const pic::History& history, const pic::Grid1D& grid, double v0) {
  Physics p;
  const auto fit = math::fit_growth_rate(history.times(), history.e1_amplitude());
  p.valid = fit.valid;
  p.gamma = fit.gamma;
  p.r2 = fit.r2;
  p.gamma_theory = core::two_stream_growth_rate(grid.mode_wavenumber(1), v0);
  p.rel_error = p.gamma / p.gamma_theory - 1.0;
  p.energy_variation = history.max_energy_variation();
  p.momentum_drift = history.max_momentum_drift();
  return p;
}

bool traditional_physics_ok(const Physics& p) {
  return p.valid && std::abs(p.rel_error) <= 0.30 && p.energy_variation < 0.06 &&
         p.momentum_drift < 2e-4;
}

bool dl_physics_ok(const Physics& p) {
  return p.valid && std::abs(p.rel_error) <= 0.30 && p.energy_variation < 0.25 &&
         std::isfinite(p.momentum_drift);
}

bool mean_physics_ok(double mean_rel_error, double mean_r2) {
  return std::abs(mean_rel_error) <= 0.15 && mean_r2 > 0.85;
}

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark. getrusage's
  // ru_maxrss would also carry the launching process's peak across exec.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) m = 0.5 * (m + *std::max_element(v.begin(), v.begin() + static_cast<long>(mid)));
  return m;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

}  // namespace stepbench
