/// \file wire.cpp
/// wire_int8: a closed loop over a unix socket, net::Client → net::NetServer
/// → net::Router → serve::InferenceServer at int8, with the prepared weight
/// cache built at registration. One client connection keeps eight requests
/// in flight, so every batch is full. Payloads are real 64×64 histograms
/// binned during set-up from this workload's seeded paper runs; every
/// response must equal the in-process int8 result for its payload bitwise.

#include <unistd.h>

#include <deque>
#include <future>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "nn/execution_context.hpp"
#include "nn/quantize.hpp"
#include "paper_model.hpp"
#include "phase_space/binner.hpp"
#include "serving.hpp"

namespace stepbench {

using namespace dlpic;

namespace {

// One connection and one worker keep the threads that are runnable at once
// (client loop, its reader, the server's reader and writer, the batch
// worker) within a few cores: with two connections at four workers the
// wire figures moved 50-80% between runs on a shared 4-vCPU host.
constexpr size_t kInFlight = 8;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kPayloadRuns = 2;
constexpr size_t kPayloadEvery = 4;  // steps between binned payloads
constexpr size_t kTraceCapacity = 1u << 16;
const char* const kModelName = "paper";

net::RouterConfig router_config(bool trace) {
  net::RouterConfig c;
  c.replicas = 1;
  c.server.max_batch = kInFlight;
  // Long enough that a batch always waits for all eight requests of the
  // closed loop, so the batch size does not depend on thread timing.
  c.server.max_wait_us = 2000;
  c.server.precision = nn::Precision::kInt8;
  c.server.worker_threads = 1;
  c.server.context_worker_cap = 0;
  c.server.trace_capacity = trace ? kTraceCapacity : 0;
  return c;
}

/// One full set-up. Members are destroyed in reverse order: the client closes
/// before the wire server stops, which happens before the router shuts down.
struct Stack {
  PaperModel pm;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::NetServer> server;
  std::unique_ptr<net::Client> client;
  std::vector<std::vector<double>> payloads;

  Stack(const Options& opt, const std::string& socket_path)
      : pm(build_paper_model(paper_config(opt.seed), derive_seed(opt.seed, kModelSeedStream))) {
    router = std::make_unique<net::Router>(router_config(opt.trace));
    serve::ModelConfig mc = router->config().server.model_defaults();
    router->add_model(kModelName, pm.model, pm.binner.nx * pm.binner.nv, mc, &pm.normalizer);
    server = std::make_unique<net::NetServer>(*router, net::Address::unix_socket(socket_path));
    client = std::make_unique<net::Client>(server->address());
    const phase_space::PhaseSpaceBinner binner(pm.binner);
    for (size_t run = 0; run < kPayloadRuns; ++run) {
      const auto cfg = paper_config(derive_seed(opt.seed, kPayloadSeedStream + run));
      pic::TraditionalPic sim(cfg);
      for (size_t s = 1; s <= cfg.nsteps; ++s) {
        sim.step();
        if (s % kPayloadEvery == 0) payloads.push_back(binner.bin(sim.electrons()));
      }
    }
  }
};

/// The in-process int8 result for each payload: the same model, normalizer
/// and precise weight cache as the served bundle, at batch 1.
std::vector<std::vector<double>> expected_results(Stack& stack) {
  nn::QuantizedWeightCache cache;
  cache.build(stack.pm.model, nn::Precision::kInt8);
  nn::ExecutionContext ctx;
  ctx.set_precision(nn::Precision::kInt8);
  ctx.set_weight_cache(&cache);
  std::vector<std::vector<double>> out;
  nn::Tensor x({1, stack.pm.binner.nx * stack.pm.binner.nv});
  for (const auto& p : stack.payloads) {
    std::copy(p.begin(), p.end(), x.data());
    stack.pm.normalizer.apply(x.data(), x.size());
    out.push_back(stack.pm.model.predict(ctx, x).vec());
  }
  return out;
}

struct LoopResult {
  std::vector<double> latency_ms;  // successful requests only
  std::vector<double> done_s;      // their completion times, s after the loop opened
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_failure;
  void fail(const std::string& why) {
    if (failed++ == 0) first_failure = why;
  }
};

/// One closed-loop client on the calling thread: keeps kInFlight requests
/// outstanding for `seconds`, then drains. Responses come back in submission
/// order (the wire server pipelines FIFO per connection), so waiting on the
/// oldest request times each one from submit to response.
template <class Submit, class Take>
LoopResult closed_loop(Submit submit, Take take, size_t payload_count, double seconds) {
  LoopResult out;
  using Future = decltype(submit(size_t{0}));
  struct InFlight {
    Future future;
    Clock::time_point sent;
    size_t index;
  };
  std::deque<InFlight> queue;
  size_t next = 0;
  const auto start = Clock::now();
  const auto deadline = after_seconds(start, seconds);
  auto finish_oldest = [&] {
    InFlight f = std::move(queue.front());
    queue.pop_front();
    try {
      auto value = f.future.get();
      const auto done = Clock::now();
      std::string why;
      if (take(std::move(value), f.index, why)) {
        out.latency_ms.push_back(ms_between(f.sent, done));
        out.done_s.push_back(s_between(start, done));
      } else {
        out.fail(why);
      }
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  };
  while (Clock::now() < deadline) {
    while (queue.size() < kInFlight) {
      const size_t index = next++ % payload_count;
      ++out.attempted;
      try {
        const auto sent = Clock::now();
        queue.push_back({submit(index), sent, index});
      } catch (const std::exception& e) {
        out.fail(e.what());
      }
    }
    if (!queue.empty()) finish_oldest();
  }
  while (!queue.empty()) finish_oldest();
  return out;
}

}  // namespace

void run_wire(const Options& opt, Report& r) {
  r.op = "request";
  r.items_per_op = 1.0;
  const std::string socket_path =
      opt.run_dir + "/wire-" + std::to_string(static_cast<long>(::getpid())) + ".sock";
  // Set-up: model build, router + int8 registration (the prepared weight
  // cache), wire server, client connections and the binned payloads.
  std::unique_ptr<Stack> stack;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = std::make_unique<Stack>(opt, socket_path);
    r.setup_s.push_back(s_between(t0, Clock::now()));
  }
  const auto expected = expected_results(*stack);
  const size_t payload_count = stack->payloads.size();
  const ForwardWork work = forward_work(stack->pm.model);
  r.counters["payloads"] = static_cast<double>(payload_count);
  r.counters["nn.flop_per_sample"] = work.flop_per_sample;
  r.counters["nn.weight_bytes_per_forward"] = work.weight_bytes(nn::Precision::kInt8);
  r.counters["clients"] = 1.0;
  r.counters["in_flight_per_client"] = static_cast<double>(kInFlight);

  auto take_vector = [&expected](std::vector<double>&& value, size_t index, std::string& why) {
    if (same_bits(value, expected[index])) return true;
    why = "result for payload " + std::to_string(index) + " != in-process int8 result";
    return false;
  };
  net::Client& client = *stack->client;
  auto submit_wire = [&client, &stack](size_t i) {
    return client.submit_async(kModelName, stack->payloads[i]);
  };
  auto take_wire = [&take_vector](net::NetResponse&& resp, size_t index, std::string& why) {
    if (resp.status != net::Status::kOk) {
      why = "status " + std::to_string(static_cast<int>(resp.status)) + ": " + resp.error;
      return false;
    }
    return take_vector(std::move(resp.payload), index, why);
  };

  // Timed run: the whole window on the wire. Traced run: four quarters --
  // on the wire; through Router::submit in process (the baseline of
  // net.overhead_ms); straight to the replica's InferenceServer untraced; and
  // the same with tracing on (the pair that gives trace.overhead_ms).
  const double part_seconds = opt.trace ? opt.seconds / 4.0 : opt.seconds;
  LoopResult wire = closed_loop(submit_wire, take_wire, payload_count, part_seconds);
  r.op_ms = wire.latency_ms;
  r.op_done_s = wire.done_s;
  r.attempted = wire.attempted;
  r.failed = wire.failed;
  r.check("wire.responses_equal_in_process_int8_bitwise", wire.failed == 0 && !wire.latency_ms.empty(),
          wire.failed ? wire.first_failure
                      : std::to_string(wire.latency_ms.size()) + " responses checked");

  LoopResult routed, direct, traced;
  if (opt.trace) {
    net::Router& router = *stack->router;
    auto submit_routed = [&router, &stack](size_t i) {
      return router.submit(kModelName, stack->payloads[i]);
    };
    routed = closed_loop(submit_routed, take_vector, payload_count, part_seconds);
    serve::InferenceServer& replica = router.replica(0);
    auto replica_loop = [&](bool trace) {
      serve::SubmitOptions options;
      options.model_id = replica.model_id(kModelName);
      options.trace = trace;
      auto submit = [&replica, &stack, options](size_t i) {
        return replica.submit(stack->payloads[i], options);
      };
      return closed_loop(submit, take_vector, payload_count, part_seconds);
    };
    direct = replica_loop(false);
    traced = replica_loop(true);
    const LoopResult* parts[] = {&routed, &direct, &traced};
    std::string first_failure;
    size_t failed = 0;
    for (const LoopResult* p : parts) {
      r.attempted += p->attempted;
      failed += p->failed;
      if (first_failure.empty()) first_failure = p->first_failure;
    }
    r.failed += failed;
    r.check("wire.in_process_results_bitwise", failed == 0, first_failure);
  }

  // Quiesce before reading the counters so every sent response is counted.
  stack->client.reset();
  stack->server->stop();
  const net::NetServerStats ns = stack->server->stats();
  r.counters["net.connections_accepted"] = static_cast<double>(ns.connections_accepted);
  r.counters["net.frames_decoded"] = static_cast<double>(ns.requests_decoded);
  r.counters["net.responses_sent"] = static_cast<double>(ns.responses_sent);
  r.counters["net.protocol_errors"] = static_cast<double>(ns.protocol_errors);
  r.counters["net.app_errors"] = static_cast<double>(ns.app_errors);
  r.check("net.every_frame_answered",
          ns.requests_decoded == wire.attempted && ns.responses_sent == ns.requests_decoded &&
              ns.protocol_errors == 0 && ns.app_errors == 0,
          "decoded " + std::to_string(ns.requests_decoded) + " of " +
              std::to_string(wire.attempted) + " sent, " + std::to_string(ns.responses_sent) +
              " answered, " + std::to_string(ns.protocol_errors) + " protocol errors");
  stack->router->shutdown();
  const serve::ServerStats st = stack->router->stats().total;
  record_server_stats(st, r);

  if (opt.trace) {
    const ServeTrace t = summarize_trace(stack->router->replica(0).trace_snapshot());
    const double batch = t.batches > 0 ? t.requests / t.batches : 0.0;
    r.layers["serve.queue_wait_ms"] = t.queue_wait_ms;
    r.layers["serve.batch_wait_ms"] = t.batch_wait_ms;
    r.layers["serve.assemble_ms"] = t.assemble_ms;
    r.layers["serve.batch_forward_ms"] = t.forward_ms;
    r.layers["serve.mean_batch"] = st.mean_batch();
    r.layers["serve.self_ms"] = mean(traced.latency_ms) - t.forward_ms;
    r.layers["nn.forward_ms"] = t.forward_ms;
    r.layers["nn.forward_batch"] = batch;
    if (t.forward_ms > 0) {
      r.layers["nn.forward_gflops"] = work.flop_per_sample * batch / (t.forward_ms * 1e6);
      r.layers["nn.forward_weight_gbps"] =
          work.weight_bytes(nn::Precision::kInt8) / (t.forward_ms * 1e6);
    }
    r.layers["net.overhead_ms"] = median(wire.latency_ms) - median(routed.latency_ms);
    r.layers["net.frames_decoded"] = static_cast<double>(ns.requests_decoded);
    r.layers["net.protocol_errors"] = static_cast<double>(ns.protocol_errors);
    r.layers["trace.op_ms"] = mean(traced.latency_ms);
    r.layers["trace.overhead_ms"] = median(traced.latency_ms) - median(direct.latency_ms);
  }
}

}  // namespace stepbench
