/// \file pic_workloads.cpp
/// trad_paper (pic::TraditionalPic) and dlpic_f64 (core::DlPicSimulation at
/// f64, one batch-1 forward per step). The timed run steps whole paper runs
/// back to back and gates each on two-stream physics; the traced run steps a
/// replica built from the same public stage functions next to the library's
/// own driver, times each stage, and requires the two trajectories to agree
/// bitwise.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/dl_field_solver.hpp"
#include "core/dlpic.hpp"
#include "math/rng.hpp"
#include "nn/execution_context.hpp"
#include "paper_model.hpp"
#include "phase_space/binner.hpp"
#include "pic/deposit.hpp"
#include "pic/diagnostics.hpp"
#include "pic/efield.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"
#include "pic/poisson.hpp"
#include "pic/sorter.hpp"

namespace stepbench {

using namespace dlpic;

namespace {

constexpr size_t kSetupRepeatsDl = 5;
constexpr size_t kCheckEvery = 20;  // DL steps between bitwise recomputes

struct PhysicsSummary {
  size_t runs = 0;
  double sum_gamma_error = 0.0, sum_r2 = 0.0;
  double worst_gamma_error = 0.0, min_r2 = 1.0;
  double max_energy_variation = 0.0, max_momentum_drift = 0.0;
  void add(const Physics& p) {
    ++runs;
    sum_gamma_error += p.rel_error;
    sum_r2 += p.r2;
    worst_gamma_error = std::max(worst_gamma_error, std::abs(p.rel_error));
    min_r2 = std::min(min_r2, p.r2);
    max_energy_variation = std::max(max_energy_variation, p.energy_variation);
    max_momentum_drift = std::max(max_momentum_drift, p.momentum_drift);
  }
  [[nodiscard]] double mean_gamma_error() const { return runs ? sum_gamma_error / runs : 0.0; }
  [[nodiscard]] double mean_r2() const { return runs ? sum_r2 / runs : 0.0; }
  [[nodiscard]] std::string describe() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%zu runs: mean gamma error %+.1f%% (worst |%.1f%%|), mean R2 %.3f (min %.3f), "
                  "max energy variation %.3g, max momentum drift %.3g",
                  runs, 100.0 * mean_gamma_error(), 100.0 * worst_gamma_error, mean_r2(), min_r2,
                  max_energy_variation, max_momentum_drift);
    return buf;
  }
  /// The run-level gate; on failure every step of the run counts as failed.
  void gate(Report& r, const std::string& name) const {
    const bool ok = runs > 0 && mean_physics_ok(mean_gamma_error(), mean_r2());
    r.check(name, ok, describe());
    if (!ok) r.failed = r.attempted;
  }
  void record(Report& r) const {
    r.counters["physics.mean_gamma_rel_error"] = mean_gamma_error();
    r.counters["physics.worst_gamma_rel_error"] = worst_gamma_error;
    r.counters["physics.mean_r2"] = mean_r2();
    r.counters["physics.min_r2"] = min_r2;
    r.counters["physics.max_energy_variation"] = max_energy_variation;
    r.counters["physics.max_momentum_drift"] = max_momentum_drift;
  }
};

bool same_diagnostics(const pic::History& a, const pic::History& b) {
  return a.size() == b.size() &&
         std::memcmp(a.entries().data(), b.entries().data(),
                     a.size() * sizeof(pic::StepDiagnostics)) == 0;
}

bool same_state(const pic::Species& a, const pic::Species& b) {
  return same_bits(a.x(), b.x()) && same_bits(a.v(), b.v());
}

// ------------------------------------------------------------ traditional ---

/// TraditionalPic re-driven from the public stage functions, in the order
/// and arithmetic of pic/simulation.cpp, with a span around each stage.
struct TradReplica {
  explicit TradReplica(const pic::SimulationConfig& cfg)
      : config(cfg),
        grid(cfg.ncells, cfg.length),
        electrons("electrons", -1.0, 1.0),
        solver(pic::make_poisson_solver(cfg.solver)) {
    math::Rng rng(cfg.seed);
    electrons = pic::load_two_stream(grid, cfg.total_particles(), cfg.beams, rng);
    background = -electrons.charge() * static_cast<double>(electrons.size()) / grid.length();
    rho = grid.make_field();
    phi = grid.make_field();
    E = grid.make_field();
    history.reserve(cfg.nsteps + 1);
    deposit();
    field();
    pic::stagger_velocities_back(grid, cfg.shape, E, electrons, cfg.dt);
    history.record(pic::compute_diagnostics(grid, electrons, E, time));
  }

  void deposit() {
    rho.assign(grid.ncells(), 0.0);
    pic::deposit_charge(grid, config.shape, electrons, rho);
    for (auto& r : rho) r += background;
  }
  void field() {
    solver->solve(grid, rho, phi);
    pic::efield_from_phi(grid, phi, E);
  }

  struct Spans {
    double sort = 0, push = 0, deposit = 0, poisson = 0, diag = 0, total = 0;
  };
  Spans step() {
    Spans s;
    const auto t0 = Clock::now();
    auto t = t0;
    auto lap = [&t](double& into) {
      const auto now = Clock::now();
      into = ms_between(t, now);
      t = now;
    };
    if (config.sort_interval > 0 && steps > 0 && steps % config.sort_interval == 0)
      pic::sort_by_cell(grid, electrons);
    lap(s.sort);
    pic::leapfrog_step(grid, config.shape, E, electrons, config.dt);
    lap(s.push);
    deposit();
    lap(s.deposit);
    field();
    lap(s.poisson);
    time += config.dt;
    ++steps;
    history.record(pic::compute_diagnostics(grid, electrons, E, time));
    lap(s.diag);
    s.total = ms_between(t0, t);
    return s;
  }

  pic::SimulationConfig config;
  pic::Grid1D grid;
  pic::Species electrons;
  std::unique_ptr<pic::PoissonSolver> solver;
  std::vector<double> rho, phi, E;
  pic::History history;
  double background = 0.0;
  double time = 0.0;
  size_t steps = 0;
};

void timed_traditional(const Options& opt, Report& r) {
  Tally physics, throws;
  PhysicsSummary summary;
  const auto deadline = after_seconds(Clock::now(), opt.seconds);
  size_t sims = 0;
  while (Clock::now() < deadline) {
    const auto cfg = paper_config(derive_seed(opt.seed, sims++));
    r.attempted += cfg.nsteps;
    try {
      // Set-up is the particle load plus the initial field solve: exactly one
      // construction, so every run's construction is a set-up sample and the
      // samples span the whole window.
      const auto t_setup = Clock::now();
      pic::TraditionalPic sim(cfg);
      r.setup_s.push_back(s_between(t_setup, Clock::now()));
      for (size_t s = 0; s < cfg.nsteps; ++s) {
        const auto t0 = Clock::now();
        sim.step();
        r.op_ms.push_back(ms_between(t0, Clock::now()));
      }
      const Physics p = measure_physics(sim.history(), sim.grid(), cfg.beams.v0);
      summary.add(p);
      const bool ok = traditional_physics_ok(p);
      physics.add(ok, p.describe());
      throws.add(true, "");
      if (!ok) r.failed += cfg.nsteps;
    } catch (const std::exception& e) {
      throws.add(false, e.what());
      r.failed += cfg.nsteps;
    }
  }
  r.counters["runs"] = static_cast<double>(sims);
  summary.record(r);
  physics.report(r, "trad.physics_per_run", "");
  summary.gate(r, "trad.physics_mean");
  throws.report(r, "trad.no_exceptions", "");
}

void traced_traditional(const Options& opt, Report& r) {
  Tally bitwise;
  std::vector<double> sort, push, deposit, poisson, diag, traced, untraced;
  const auto deadline = after_seconds(Clock::now(), opt.seconds);
  size_t sims = 0;
  while (Clock::now() < deadline) {
    const auto cfg = paper_config(derive_seed(opt.seed, sims++));
    pic::TraditionalPic ref(cfg);
    TradReplica rep(cfg);
    bitwise.add(same_state(ref.electrons(), rep.electrons) && same_bits(ref.efield(), rep.E),
                "initial state differs");
    for (size_t s = 0; s < cfg.nsteps; ++s) {
      // Alternate which side runs first so neither always meets warm caches.
      TradReplica::Spans spans;
      double ref_ms = 0.0;
      auto run_ref = [&] {
        const auto t0 = Clock::now();
        ref.step();
        ref_ms = ms_between(t0, Clock::now());
      };
      if (s % 2 == 0) run_ref();
      spans = rep.step();
      if (s % 2 == 1) run_ref();
      untraced.push_back(ref_ms);
      traced.push_back(spans.total);
      sort.push_back(spans.sort);
      push.push_back(spans.push);
      deposit.push_back(spans.deposit);
      poisson.push_back(spans.poisson);
      diag.push_back(spans.diag);
      bitwise.add(same_state(ref.electrons(), rep.electrons) && same_bits(ref.efield(), rep.E) &&
                      same_diagnostics(ref.history(), rep.history),
                  "traced trajectory diverged at step " + std::to_string(s + 1));
    }
    r.attempted += cfg.nsteps;
  }
  r.op_ms = untraced;
  r.counters["runs"] = static_cast<double>(sims);
  bitwise.report(r, "trad.traced_matches_library_bitwise", "");
  r.layers["pic.sort_ms"] = mean(sort);
  r.layers["pic.push_ms"] = mean(push);
  r.layers["pic.deposit_ms"] = mean(deposit);
  r.layers["pic.poisson_ms"] = mean(poisson);
  r.layers["pic.diag_ms"] = mean(diag);
  r.layers["core.step_other_ms"] =
      mean(traced) - (mean(sort) + mean(push) + mean(deposit) + mean(poisson) + mean(diag));
  r.layers["trace.op_ms"] = mean(traced);
  r.layers["trace.overhead_ms"] = median(traced) - median(untraced);
}

// ------------------------------------------------------------------ DL-PIC ---

/// DlPicSimulation re-driven from the public stage functions (push, bin,
/// normalize, forward, diagnostics), in the order and arithmetic of
/// core/dlpic.cpp and DlFieldSolver::solve_histogram.
struct DlReplica {
  DlReplica(const pic::SimulationConfig& cfg, core::DlFieldSolver& solver)
      : config(cfg),
        grid(cfg.ncells, cfg.length),
        electrons("electrons", -1.0, 1.0),
        binner(solver.binner_config()),
        model(solver.model()),
        normalizer(solver.normalizer()),
        x({1, binner.size()}) {
    math::Rng rng(cfg.seed);
    electrons = pic::load_two_stream(grid, cfg.total_particles(), cfg.beams, rng);
    Spans unused;
    solve(unused);
    pic::stagger_velocities_back(grid, cfg.shape, E, electrons, cfg.dt);
    history.record(pic::compute_diagnostics(grid, electrons, E, time));
  }

  struct Spans {
    double push = 0, bin = 0, normalize = 0, forward = 0, diag = 0, total = 0;
    size_t clamped = 0;
  };

  void solve(Spans& s) {
    auto t = Clock::now();
    auto lap = [&t](double& into) {
      const auto now = Clock::now();
      into = ms_between(t, now);
      t = now;
    };
    const std::vector<double> histogram = binner.bin(electrons);
    s.clamped = binner.clamped_particles();
    lap(s.bin);
    std::copy(histogram.begin(), histogram.end(), x.data());
    normalizer.apply(x.data(), x.size());
    lap(s.normalize);
    const nn::Tensor& y = model.predict(ctx, x);
    E = y.vec();
    lap(s.forward);
  }

  Spans step() {
    Spans s;
    const auto t0 = Clock::now();
    pic::leapfrog_step(grid, config.shape, E, electrons, config.dt);
    s.push = ms_between(t0, Clock::now());
    solve(s);
    const auto t1 = Clock::now();
    time += config.dt;
    ++steps;
    history.record(pic::compute_diagnostics(grid, electrons, E, time));
    const auto t2 = Clock::now();
    s.diag = ms_between(t1, t2);
    s.total = ms_between(t0, t2);
    return s;
  }

  pic::SimulationConfig config;
  pic::Grid1D grid;
  pic::Species electrons;
  phase_space::PhaseSpaceBinner binner;
  nn::Sequential& model;
  const data::MinMaxNormalizer& normalizer;
  nn::ExecutionContext ctx;
  nn::Tensor x;
  std::vector<double> E;
  pic::History history;
  double time = 0.0;
  size_t steps = 0;
};

/// Recomputes E for the current particles on a fresh context and compares it
/// with `E` bitwise; also checks the histogram holds every particle.
bool recompute_matches(core::DlFieldSolver& solver, const pic::Species& electrons,
                       const std::vector<double>& E, std::string& why) {
  const phase_space::PhaseSpaceBinner binner(solver.binner_config());
  const std::vector<double> histogram = binner.bin(electrons);
  const double mass = phase_space::PhaseSpaceBinner::total_count(histogram);
  if (mass != static_cast<double>(electrons.size())) {
    why = "histogram mass " + std::to_string(mass) + " != " + std::to_string(electrons.size());
    return false;
  }
  nn::Tensor x({1, histogram.size()});
  std::copy(histogram.begin(), histogram.end(), x.data());
  solver.normalizer().apply(x.data(), x.size());
  nn::ExecutionContext fresh;
  const nn::Tensor& y = solver.model().predict(fresh, x);
  if (!same_bits(y.vec(), E)) {
    why = "E differs from a fresh-context recompute";
    return false;
  }
  return true;
}

std::shared_ptr<core::DlFieldSolver> make_solver(uint64_t seed) {
  auto pm = build_paper_model(paper_config(seed), derive_seed(seed, kModelSeedStream));
  return std::make_shared<core::DlFieldSolver>(std::move(pm.model), pm.normalizer, pm.binner);
}

void timed_dlpic(const Options& opt, const std::shared_ptr<core::DlFieldSolver>& solver,
                 Report& r) {
  Tally physics, recompute, finite, throws;
  PhysicsSummary summary;
  const auto deadline = after_seconds(Clock::now(), opt.seconds);
  size_t sims = 0;
  while (Clock::now() < deadline) {
    const auto cfg = paper_config(derive_seed(opt.seed, sims++));
    r.attempted += cfg.nsteps;
    bool ok = true;
    try {
      core::DlPicSimulation sim(cfg, solver);
      for (size_t s = 0; s < cfg.nsteps; ++s) {
        const auto t0 = Clock::now();
        sim.step();
        r.op_ms.push_back(ms_between(t0, Clock::now()));
        const bool is_finite = all_finite(sim.efield());
        finite.add(is_finite, "non-finite E at step " + std::to_string(s + 1));
        ok = ok && is_finite;
        if ((s + 1) % kCheckEvery == 0) {
          std::string why;
          const bool same = recompute_matches(*solver, sim.electrons(), sim.efield(), why);
          recompute.add(same, why + " at step " + std::to_string(s + 1));
          ok = ok && same;
        }
      }
      const Physics p = measure_physics(sim.history(), sim.grid(), cfg.beams.v0);
      summary.add(p);
      const bool physics_ok = dl_physics_ok(p);
      physics.add(physics_ok, p.describe());
      ok = ok && physics_ok;
      throws.add(true, "");
    } catch (const std::exception& e) {
      throws.add(false, e.what());
      ok = false;
    }
    if (!ok) r.failed += cfg.nsteps;
  }
  r.counters["runs"] = static_cast<double>(sims);
  summary.record(r);
  physics.report(r, "dlpic.physics_per_run", "");
  summary.gate(r, "dlpic.physics_mean");
  recompute.report(r, "dlpic.fresh_context_recompute_bitwise", "histogram mass == particles");
  finite.report(r, "dlpic.finite_E", "");
  throws.report(r, "dlpic.no_exceptions", "");
}

void traced_dlpic(const Options& opt, const std::shared_ptr<core::DlFieldSolver>& solver,
                  Report& r) {
  Tally bitwise;
  std::vector<double> push, bin, normalize, forward, diag, traced, untraced;
  double clamped = 0.0, binned = 0.0;
  const auto deadline = after_seconds(Clock::now(), opt.seconds);
  size_t sims = 0;
  while (Clock::now() < deadline) {
    const auto cfg = paper_config(derive_seed(opt.seed, sims++));
    core::DlPicSimulation ref(cfg, solver);
    DlReplica rep(cfg, *solver);
    bitwise.add(same_state(ref.electrons(), rep.electrons) && same_bits(ref.efield(), rep.E),
                "initial state differs");
    for (size_t s = 0; s < cfg.nsteps; ++s) {
      DlReplica::Spans spans;
      double ref_ms = 0.0;
      auto run_ref = [&] {
        const auto t0 = Clock::now();
        ref.step();
        ref_ms = ms_between(t0, Clock::now());
      };
      if (s % 2 == 0) run_ref();
      spans = rep.step();
      if (s % 2 == 1) run_ref();
      untraced.push_back(ref_ms);
      traced.push_back(spans.total);
      push.push_back(spans.push);
      bin.push_back(spans.bin);
      normalize.push_back(spans.normalize);
      forward.push_back(spans.forward);
      diag.push_back(spans.diag);
      clamped += static_cast<double>(spans.clamped);
      binned += static_cast<double>(rep.electrons.size());
      bitwise.add(same_state(ref.electrons(), rep.electrons) && same_bits(ref.efield(), rep.E) &&
                      same_diagnostics(ref.history(), rep.history),
                  "traced trajectory diverged at step " + std::to_string(s + 1));
    }
    r.attempted += cfg.nsteps;
  }
  r.op_ms = untraced;
  r.counters["runs"] = static_cast<double>(sims);
  bitwise.report(r, "dlpic.traced_matches_library_bitwise", "");
  const ForwardWork work = forward_work(solver->model());
  const double fwd = mean(forward);
  r.layers["pic.push_ms"] = mean(push);
  r.layers["pic.diag_ms"] = mean(diag);
  r.layers["phase_space.bin_ms"] = mean(bin);
  r.layers["phase_space.clamped_frac"] = binned > 0 ? clamped / binned : 0.0;
  r.layers["data.normalize_ms"] = mean(normalize);
  r.layers["nn.forward_ms"] = fwd;
  r.layers["nn.forward_batch"] = 1.0;
  r.layers["nn.forward_gflops"] = work.flop_per_sample / (fwd * 1e6);
  r.layers["nn.forward_weight_gbps"] = work.weight_bytes(nn::Precision::kF64) / (fwd * 1e6);
  r.layers["core.step_other_ms"] =
      mean(traced) - (mean(push) + mean(bin) + mean(normalize) + fwd + mean(diag));
  r.layers["trace.op_ms"] = mean(traced);
  r.layers["trace.overhead_ms"] = median(traced) - median(untraced);
}

}  // namespace

void run_traditional(const Options& opt, Report& r) {
  r.op = "step";
  const auto cfg = paper_config(opt.seed);
  r.items_per_op = static_cast<double>(cfg.total_particles());
  r.counters["pic.particles_per_step"] = r.items_per_op;
  if (opt.trace)
    traced_traditional(opt, r);
  else
    timed_traditional(opt, r);
}

void run_dlpic(const Options& opt, Report& r) {
  r.op = "step";
  const auto cfg = paper_config(opt.seed);
  r.items_per_op = static_cast<double>(cfg.total_particles());
  r.counters["pic.particles_per_step"] = r.items_per_op;
  // Set-up: model build (weights included), solver, particle load and the
  // initial forward pass. Repeated; the last solver is the one measured.
  std::shared_ptr<core::DlFieldSolver> solver;
  for (size_t k = 0; k < kSetupRepeatsDl; ++k) {
    solver.reset();
    std::optional<core::DlPicSimulation> sim;
    const auto t0 = Clock::now();
    solver = make_solver(opt.seed);
    sim.emplace(paper_config(derive_seed(opt.seed, kSetupSeedStream + k)), solver);
    r.setup_s.push_back(s_between(t0, Clock::now()));
  }
  const ForwardWork work = forward_work(solver->model());
  r.counters["nn.flop_per_sample"] = work.flop_per_sample;
  r.counters["nn.weight_bytes_per_forward"] = work.weight_bytes(nn::Precision::kF64);
  if (opt.trace)
    traced_dlpic(opt, solver, r);
  else
    timed_dlpic(opt, solver, r);
}

}  // namespace stepbench
