/// \file test_serving_stress.cpp
/// Adversarial serving/concurrency stress suite. Saturation soak: many
/// producers over mixed lanes / models / deadlines with a mid-traffic
/// shutdown racing the submissions, asserting that no promise is ever lost
/// (every accepted future resolves), that a request already expired at
/// submission never produces a value (expired requests never reach a
/// forward pass), and that every completed response is bitwise identical to
/// the serial single-sample reference for its model. Plus the lane-isolation
/// guarantee under saturation: with a deep bulk backlog, interactive-lane
/// p99 latency stays strictly below bulk-lane p99. The whole file runs under
/// TSan in CI (and under forced scalar/avx2 backends in the x86-64-v3 job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "nn/execution_context.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "serve/inference_server.hpp"

namespace {

using namespace dlpic;
using serve::InferenceServer;
using serve::Priority;
using serve::ServerConfig;

constexpr size_t kInputDim = 48;
constexpr size_t kOutputDim = 12;

nn::Sequential make_model(uint64_t seed) {
  nn::MlpSpec spec;
  spec.input_dim = kInputDim;
  spec.output_dim = kOutputDim;
  // Heavy enough that a deep backlog means real saturation (milliseconds of
  // queued work) — the lane-isolation assertion needs genuine contention.
  spec.hidden = 64;
  spec.depth = 3;
  spec.seed = seed;
  return nn::build_mlp(spec);
}

std::vector<std::vector<double>> make_samples(size_t count, uint64_t seed) {
  math::Rng rng(seed);
  std::vector<std::vector<double>> samples(count);
  for (auto& s : samples) {
    s.resize(kInputDim);
    for (auto& v : s) v = rng.uniform(0.0, 10.0);
  }
  return samples;
}

std::vector<std::vector<double>> serial_reference(nn::Sequential& model,
                                                  const std::vector<std::vector<double>>& in) {
  nn::ExecutionContext ctx(/*worker_cap=*/1);
  std::vector<std::vector<double>> out(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    nn::Tensor x({1, kInputDim});
    std::copy(in[i].begin(), in[i].end(), x.data());
    out[i] = model.predict(ctx, x).vec();
  }
  return out;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(p * static_cast<double>(values.size() - 1))];
}

// What a producer recorded about one submitted request.
struct Submitted {
  std::future<std::vector<double>> future;
  size_t model = 0;
  size_t sample = 0;
  bool pre_expired = false;  // deadline already passed at submission
};

TEST(ServingStress, SaturationSoakMixedLanesModelsDeadlinesAndShutdown) {
  constexpr size_t kModels = 2;
  constexpr size_t kProducers = 6;
  constexpr size_t kPerProducer = 120;
  constexpr size_t kSamples = 16;

  nn::Sequential models[kModels] = {make_model(101), make_model(102)};
  const auto samples = make_samples(kSamples, 7);
  std::vector<std::vector<double>> expected[kModels];
  for (size_t m = 0; m < kModels; ++m) expected[m] = serial_reference(models[m], samples);

  ServerConfig cfg;
  cfg.worker_threads = 3;
  cfg.context_worker_cap = 1;
  cfg.queue_capacity = 64;  // backpressure is part of the soak
  InferenceServer server(cfg);
  serve::ModelConfig mc;
  mc.max_batch = 8;
  mc.max_wait_us = 500;
  size_t ids[kModels];
  ids[0] = server.add_model("m0", models[0], kInputDim, mc);
  ids[1] = server.add_model("m1", models[1], kInputDim, mc);

  std::vector<std::vector<Submitted>> submitted(kProducers);
  std::atomic<size_t> accepted{0};
  std::atomic<size_t> rejected_after_close{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      math::Rng rng(1000 + p);
      auto& mine = submitted[p];
      mine.reserve(kPerProducer);
      for (size_t i = 0; i < kPerProducer; ++i) {
        Submitted record;
        record.model = static_cast<size_t>(rng.uniform(0.0, 1.0) < 0.5 ? 0 : 1);
        record.sample = static_cast<size_t>(rng.uniform(0.0, double(kSamples))) % kSamples;
        serve::SubmitOptions options;
        options.model_id = ids[record.model];
        options.priority =
            rng.uniform(0.0, 1.0) < 0.3 ? Priority::kInteractive : Priority::kBulk;
        const double dice = rng.uniform(0.0, 1.0);
        if (dice < 0.15) {
          // Already expired at submission: must NEVER produce a value.
          options.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
          record.pre_expired = true;
        } else if (dice < 0.4) {
          options.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
        }
        try {
          record.future = server.submit(samples[record.sample], options);
        } catch (const std::runtime_error&) {
          // Shutdown raced this submit (queue closed): legitimate rejection,
          // no future to track.
          rejected_after_close.fetch_add(1);
          continue;
        }
        accepted.fetch_add(1);
        mine.push_back(std::move(record));
        if (i % 16 == 0) std::this_thread::yield();
        // A fraction of clients abandon their future immediately ("cancel"):
        // the promise must still be fulfilled without anyone waiting.
        if (rng.uniform(0.0, 1.0) < 0.05 && !mine.empty()) mine.pop_back();
      }
    });
  }

  // Shut down mid-traffic: accepted requests must still all resolve.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.shutdown();
  for (auto& t : producers) t.join();

  size_t values = 0, expired = 0;
  for (auto& per_producer : submitted) {
    for (auto& record : per_producer) {
      ASSERT_TRUE(record.future.valid());
      // No lost promises: every accepted future must be resolvable. get()
      // would hang forever on a dropped promise; bound it for diagnostics.
      ASSERT_EQ(record.future.wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "a submitted request was neither served nor failed";
      try {
        const auto result = record.future.get();
        ASSERT_FALSE(record.pre_expired)
            << "an expired request reached a forward pass and produced a value";
        ASSERT_EQ(result, expected[record.model][record.sample])
            << "served response differs from the serial single-sample reference";
        ++values;
      } catch (const serve::DeadlineExpired&) {
        ++expired;
      }
    }
  }
  // Accounting closes: every ACCEPTED request (tracked or abandoned by its
  // client) was popped and resolved exactly once; nothing was dropped by
  // the mid-traffic shutdown.
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, accepted.load());
  EXPECT_GE(stats.expired, expired);
  EXPECT_GT(values, 0u) << "soak served nothing";
  EXPECT_GT(expired, 0u) << "soak never exercised expiry";
  EXPECT_EQ(accepted.load() + rejected_after_close.load(), kProducers * kPerProducer);

  // Per-model accounting: served + expired across lanes covers every
  // accepted request (abandoned futures included — their promises were
  // fulfilled into the void).
  size_t model_served = 0, model_expired = 0;
  for (size_t m = 0; m < kModels; ++m) {
    const auto ms = server.model_stats(ids[m]);
    model_served += ms.served;
    model_expired += ms.expired;
  }
  EXPECT_EQ(model_served + model_expired, accepted.load());
  EXPECT_GE(model_served, values);
  EXPECT_GE(model_expired, expired);
}

TEST(ServingStress, InteractiveP99StaysBelowBulkP99UnderSaturation) {
  // One serial-context worker saturated by a deep pipelined bulk backlog.
  // Interactive requests must cut ahead of the backlog (strict lane
  // priority), so their p99 latency sits far below bulk p99 — the
  // acceptance criterion of the priority-lane scheduler.
  auto model = make_model(77);
  const auto samples = make_samples(4, 11);

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 200;
  cfg.worker_threads = 1;
  cfg.context_worker_cap = 1;
  InferenceServer server(model, kInputDim, cfg);

  constexpr size_t kBacklog = 64;    // bulk requests kept outstanding at all times
  constexpr size_t kInteractive = 24;
  std::vector<double> bulk_us, interactive_us;
  interactive_us.reserve(kInteractive);
  std::atomic<bool> interactive_done{false};

  std::thread bulk_producer([&] {
    // Sustained saturation: a sliding window of kBacklog outstanding bulk
    // requests, refilled as results come back, for as long as interactive
    // traffic is flowing — every interactive request genuinely arrives into
    // a deep bulk queue it must cut ahead of.
    struct InFlight {
      std::chrono::steady_clock::time_point t0;
      std::future<std::vector<double>> future;
    };
    std::deque<InFlight> window;
    size_t sent = 0;
    auto submit_one = [&] {
      InFlight f;
      f.t0 = std::chrono::steady_clock::now();
      f.future = server.submit(samples[sent++ % samples.size()]);
      window.push_back(std::move(f));
    };
    for (size_t i = 0; i < kBacklog; ++i) submit_one();
    while (!window.empty()) {
      (void)window.front().future.get();
      bulk_us.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - window.front().t0)
                            .count());
      window.pop_front();
      if (!interactive_done.load(std::memory_order_relaxed)) submit_one();
    }
  });

  std::thread interactive_producer([&] {
    // Let the bulk window establish itself, then trickle interactive
    // requests into the saturated server.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    serve::SubmitOptions options;
    options.priority = Priority::kInteractive;
    for (size_t i = 0; i < kInteractive; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      auto future = server.submit(samples[i % samples.size()], options);
      (void)future.get();
      interactive_us.push_back(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    interactive_done = true;
  });

  bulk_producer.join();
  interactive_producer.join();

  const double interactive_p99 = percentile(interactive_us, 0.99);
  const double bulk_p99 = percentile(bulk_us, 0.99);
  EXPECT_LT(interactive_p99, bulk_p99)
      << "interactive lane did not cut ahead of the bulk backlog: interactive p99 = "
      << interactive_p99 << " us, bulk p99 = " << bulk_p99 << " us";
  std::printf("lane isolation: interactive p99 = %.0f us, bulk p99 = %.0f us (%.1fx)\n",
              interactive_p99, bulk_p99, bulk_p99 / std::max(1.0, interactive_p99));

  const auto stats = server.model_stats(0);
  EXPECT_EQ(stats.lanes[size_t(Priority::kInteractive)].served, kInteractive);
  EXPECT_GE(stats.lanes[size_t(Priority::kBulk)].served, kBacklog);
}

TEST(ServingStress, RepeatedCloseAndRestartCycles) {
  // Close/recreate timing torture: servers built, hit with a burst from
  // several threads, and torn down mid-burst, repeatedly. No hang, no lost
  // promise, every resolved value bitwise-correct.
  auto model = make_model(88);
  const auto samples = make_samples(4, 13);
  const auto expected = serial_reference(model, samples);

  for (int cycle = 0; cycle < 8; ++cycle) {
    ServerConfig cfg;
    cfg.max_batch = 4;
    cfg.max_wait_us = 100;
    cfg.worker_threads = 2;
    InferenceServer server(model, kInputDim, cfg);
    std::vector<std::thread> clients;
    std::vector<std::vector<std::pair<size_t, std::future<std::vector<double>>>>> futures(3);
    for (size_t c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < 20; ++i) {
          const size_t s = (c + i) % samples.size();
          try {
            futures[c].emplace_back(s, server.submit(samples[s]));
          } catch (const std::runtime_error&) {
            break;  // shutdown raced us
          }
        }
      });
    }
    if (cycle % 2 == 0) std::this_thread::sleep_for(std::chrono::microseconds(300));
    server.shutdown();
    for (auto& t : clients) t.join();
    for (auto& per_client : futures)
      for (auto& [s, future] : per_client) EXPECT_EQ(future.get(), expected[s]);
  }
}

}  // namespace
