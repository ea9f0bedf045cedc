#pragma once
/// \file serving.hpp
/// Readers of the serving layer's own accounting shared by the ensemble and
/// wire workloads: stage times from the trace ring and ServerStats.

#include <vector>

#include "bench.hpp"
#include "serve/inference_server.hpp"
#include "serve/trace.hpp"

namespace stepbench {

/// Per-request and per-batch stage means from the server's trace ring
/// (submit → enqueue → pop → assemble → forward → scatter), over served
/// requests. Requests of one batch share its forward and scatter stamps.
struct ServeTrace {
  double queue_wait_ms = 0;   ///< enqueue → pop, per request
  double batch_wait_ms = 0;   ///< pop → assemble (batch window), per request
  double assemble_ms = 0;     ///< assemble → forward, per batch
  double forward_ms = 0;      ///< forward → scatter, per batch
  double batches = 0;
  double requests = 0;
};
[[nodiscard]] ServeTrace summarize_trace(const std::vector<dlpic::serve::TraceRecord>& records);

/// Records ServerStats as counters and checks that the accounting closes
/// (requests == served + expired + rejected).
void record_server_stats(const dlpic::serve::ServerStats& stats, Report& report);

}  // namespace stepbench
