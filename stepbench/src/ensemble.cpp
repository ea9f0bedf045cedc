/// \file ensemble.cpp
/// ensemble8_f64: eight paper runs with different seeds stepped in lockstep.
/// Each step pushes and bins all eight members, then submits the eight
/// histograms together to one serve::InferenceServer (f64, max_batch 8) and
/// waits for all of them. Binning everything before submitting anything is
/// part of the workload: it is what lets the batcher see full batches.

#include <array>
#include <future>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "math/rng.hpp"
#include "nn/execution_context.hpp"
#include "paper_model.hpp"
#include "phase_space/binner.hpp"
#include "pic/diagnostics.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"
#include "serving.hpp"

namespace stepbench {

using namespace dlpic;

namespace {

constexpr size_t kMembers = 8;
constexpr size_t kSetupRepeats = 5;
constexpr size_t kCheckEvery = 50;  // lockstep steps between batch-1 recomputes
constexpr size_t kTraceCapacity = 1u << 15;

serve::ServerConfig server_config(bool trace) {
  serve::ServerConfig c;
  c.max_batch = kMembers;
  // Long enough that a batch opened by the first submit always sees the
  // other seven, which follow within microseconds.
  c.max_wait_us = 2000;
  c.precision = nn::Precision::kF64;
  c.worker_threads = 1;
  c.context_worker_cap = 0;  // the batch forward uses every worker
  c.trace_capacity = trace ? kTraceCapacity : 0;
  return c;
}

struct Member {
  explicit Member(const pic::SimulationConfig& cfg)
      : config(cfg), grid(cfg.ncells, cfg.length), electrons("electrons", -1.0, 1.0) {
    math::Rng rng(cfg.seed);
    electrons = pic::load_two_stream(grid, cfg.total_particles(), cfg.beams, rng);
    history.reserve(cfg.nsteps + 1);
  }
  pic::SimulationConfig config;
  pic::Grid1D grid;
  pic::Species electrons;
  std::vector<double> E;
  pic::History history;
  double time = 0.0;
};

struct Spans {
  double push = 0, bin = 0, serve = 0, diag = 0, total = 0;
  size_t clamped = 0;
};

/// Eight members and the server they share.
class Ensemble {
 public:
  Ensemble(uint64_t seed, uint64_t first_stream, const PaperModel& pm,
           serve::InferenceServer& server)
      : server_(server), binner_(pm.binner) {
    for (size_t i = 0; i < kMembers; ++i)
      members_.emplace_back(paper_config(derive_seed(seed, first_stream + i)));
    Spans unused;
    solve_all(false, unused);
    for (auto& m : members_) {
      pic::stagger_velocities_back(m.grid, m.config.shape, m.E, m.electrons, m.config.dt);
      m.history.record(pic::compute_diagnostics(m.grid, m.electrons, m.E, m.time));
    }
  }

  Spans step(bool trace) {
    Spans s;
    const auto t0 = Clock::now();
    for (auto& m : members_) pic::leapfrog_step(m.grid, m.config.shape, m.E, m.electrons, m.config.dt);
    s.push = ms_between(t0, Clock::now());
    solve_all(trace, s);
    const auto t3 = Clock::now();
    for (auto& m : members_) {
      m.time += m.config.dt;
      m.history.record(pic::compute_diagnostics(m.grid, m.electrons, m.E, m.time));
    }
    const auto t4 = Clock::now();
    s.diag = ms_between(t3, t4);
    s.total = ms_between(t0, t4);
    return s;
  }

  /// Batch-1 recompute of every member's E on a fresh context; each must
  /// equal the served E bitwise. Also checks histogram mass.
  bool served_matches_serial(PaperModel& pm, std::string& why) const {
    for (size_t i = 0; i < members_.size(); ++i) {
      const auto& m = members_[i];
      const std::vector<double> histogram = binner_.bin(m.electrons);
      if (phase_space::PhaseSpaceBinner::total_count(histogram) !=
          static_cast<double>(m.electrons.size())) {
        why = "member " + std::to_string(i) + ": histogram mass != particle count";
        return false;
      }
      nn::Tensor x({1, histogram.size()});
      std::copy(histogram.begin(), histogram.end(), x.data());
      pm.normalizer.apply(x.data(), x.size());
      nn::ExecutionContext fresh;
      const nn::Tensor& y = pm.model.predict(fresh, x);
      if (!same_bits(y.vec(), m.E) || !all_finite(m.E)) {
        why = "member " + std::to_string(i) + ": served E != batch-1 recompute";
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] size_t particles() const {
    size_t n = 0;
    for (const auto& m : members_) n += m.electrons.size();
    return n;
  }

 private:
  void solve_all(bool trace, Spans& s) {
    const auto t1 = Clock::now();
    for (size_t i = 0; i < members_.size(); ++i) {
      histograms_[i] = binner_.bin(members_[i].electrons);
      s.clamped += binner_.clamped_particles();
    }
    const auto t2 = Clock::now();
    serve::SubmitOptions options;
    options.trace = trace;
    for (size_t i = 0; i < members_.size(); ++i)
      futures_[i] = server_.submit(std::move(histograms_[i]), options);
    for (size_t i = 0; i < members_.size(); ++i) members_[i].E = futures_[i].get();
    s.bin = ms_between(t1, t2);
    s.serve = ms_between(t2, Clock::now());
  }

  serve::InferenceServer& server_;
  phase_space::PhaseSpaceBinner binner_;
  std::vector<Member> members_;
  std::array<std::vector<double>, kMembers> histograms_;
  std::array<std::future<std::vector<double>>, kMembers> futures_;
};

}  // namespace

void run_ensemble(const Options& opt, Report& r) {
  r.op = "step";
  // Set-up: model build, server start, eight particle loads and the first
  // served solve. Repeated; the last one is measured.
  std::unique_ptr<PaperModel> pm;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<Ensemble> ens;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    ens.reset();
    server.reset();
    pm.reset();
    const auto t0 = Clock::now();
    pm = std::make_unique<PaperModel>(
        build_paper_model(paper_config(opt.seed), derive_seed(opt.seed, kModelSeedStream)));
    server = std::make_unique<serve::InferenceServer>(pm->model, pm->binner.nx * pm->binner.nv,
                                                      server_config(opt.trace), &pm->normalizer);
    ens = std::make_unique<Ensemble>(opt.seed, kSetupSeedStream + k * kMembers, *pm, *server);
    r.setup_s.push_back(s_between(t0, Clock::now()));
  }
  ens.reset();
  server->reset_stats();
  r.items_per_op = static_cast<double>(kMembers * paper_config(opt.seed).total_particles());
  r.counters["pic.particles_per_step"] = r.items_per_op;
  r.counters["members"] = static_cast<double>(kMembers);
  const ForwardWork work = forward_work(pm->model);
  r.counters["nn.flop_per_sample"] = work.flop_per_sample;
  r.counters["nn.weight_bytes_per_forward"] = work.weight_bytes(nn::Precision::kF64);

  Tally served_checks, throws;
  std::vector<double> push, bin, serve_span, diag, traced, untraced;
  double clamped = 0.0, binned = 0.0;
  const size_t nsteps = paper_config(opt.seed).nsteps;
  const auto deadline = after_seconds(Clock::now(), opt.seconds);
  for (size_t run = 0; Clock::now() < deadline; ++run) {
    try {
      Ensemble e(opt.seed, run * kMembers, *pm, *server);
      throws.add(true, "");
      for (size_t s = 0; s < nsteps && Clock::now() < deadline; ++s) {
        ++r.attempted;
        const bool trace_step = opt.trace && s % 2 == 1;
        Spans spans;
        try {
          spans = e.step(trace_step);
        } catch (const std::exception& ex) {
          ++r.failed;
          throws.add(false, ex.what());
          break;  // a member without its field cannot continue
        }
        if (!opt.trace) {
          r.op_ms.push_back(spans.total);
        } else if (trace_step) {
          traced.push_back(spans.total);
          push.push_back(spans.push);
          bin.push_back(spans.bin);
          serve_span.push_back(spans.serve);
          diag.push_back(spans.diag);
          clamped += static_cast<double>(spans.clamped);
          binned += static_cast<double>(e.particles());
        } else {
          untraced.push_back(spans.total);
        }
        if ((s + 1) % kCheckEvery == 0) {
          std::string why;
          const bool same = e.served_matches_serial(*pm, why);
          served_checks.add(same, why + " at step " + std::to_string(s + 1));
          if (!same) ++r.failed;
        }
      }
    } catch (const std::exception& ex) {  // loading a run or its first solve failed
      ++r.attempted;
      ++r.failed;
      throws.add(false, ex.what());
    }
  }
  server->shutdown();
  served_checks.report(r, "ensemble.served_equals_batch1_bitwise", "8 members per check");
  throws.report(r, "ensemble.no_exceptions", "");
  const serve::ServerStats st = server->stats();
  record_server_stats(st, r);

  if (opt.trace) {
    r.op_ms = untraced;
    const ServeTrace t = summarize_trace(server->trace_snapshot());
    const double steps = static_cast<double>(traced.size());
    const double forward_per_step = steps > 0 ? t.forward_ms * t.batches / steps : 0.0;
    const double batch = t.batches > 0 ? t.requests / t.batches : 0.0;
    r.layers["pic.push_ms"] = mean(push);
    r.layers["pic.diag_ms"] = mean(diag);
    r.layers["phase_space.bin_ms"] = mean(bin);
    r.layers["phase_space.clamped_frac"] = binned > 0 ? clamped / binned : 0.0;
    r.layers["serve.queue_wait_ms"] = t.queue_wait_ms;
    r.layers["serve.batch_wait_ms"] = t.batch_wait_ms;
    r.layers["serve.assemble_ms"] = t.assemble_ms;
    r.layers["serve.batch_forward_ms"] = t.forward_ms;
    r.layers["serve.mean_batch"] = st.mean_batch();
    r.layers["serve.self_ms"] = mean(serve_span) - forward_per_step;
    r.layers["nn.forward_ms"] = t.forward_ms;
    r.layers["nn.forward_batch"] = batch;
    if (t.forward_ms > 0) {
      r.layers["nn.forward_gflops"] = work.flop_per_sample * batch / (t.forward_ms * 1e6);
      r.layers["nn.forward_weight_gbps"] =
          work.weight_bytes(nn::Precision::kF64) / (t.forward_ms * 1e6);
    }
    r.layers["core.step_other_ms"] =
        mean(traced) - (mean(push) + mean(bin) + mean(serve_span) + mean(diag));
    r.layers["trace.op_ms"] = mean(traced);
    r.layers["trace.overhead_ms"] = median(traced) - median(untraced);
  }
}

}  // namespace stepbench
