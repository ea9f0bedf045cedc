#include "serving.hpp"

#include <map>

namespace stepbench {

using namespace dlpic;

ServeTrace summarize_trace(const std::vector<serve::TraceRecord>& records) {
  using serve::TraceStage;
  ServeTrace t;
  std::map<int64_t, const serve::TraceRecord*> batches;  // keyed by forward stamp
  for (const auto& rec : records) {
    if (rec.outcome != serve::TraceOutcome::kServed) continue;
    t.requests += 1;
    t.queue_wait_ms += 1e-6 * static_cast<double>(rec.stage_ns(TraceStage::kEnqueue, TraceStage::kPop));
    t.batch_wait_ms += 1e-6 * static_cast<double>(rec.stage_ns(TraceStage::kPop, TraceStage::kAssemble));
    batches.emplace(rec.ts_ns[static_cast<size_t>(TraceStage::kForward)], &rec);
  }
  for (const auto& [stamp, rec] : batches) {
    t.assemble_ms += 1e-6 * static_cast<double>(rec->stage_ns(TraceStage::kAssemble, TraceStage::kForward));
    t.forward_ms += 1e-6 * static_cast<double>(rec->stage_ns(TraceStage::kForward, TraceStage::kScatter));
  }
  t.batches = static_cast<double>(batches.size());
  if (t.requests > 0) {
    t.queue_wait_ms /= t.requests;
    t.batch_wait_ms /= t.requests;
  }
  if (t.batches > 0) {
    t.assemble_ms /= t.batches;
    t.forward_ms /= t.batches;
  }
  return t;
}

void record_server_stats(const serve::ServerStats& st, Report& r) {
  r.counters["serve.requests"] = static_cast<double>(st.requests);
  r.counters["serve.served"] = static_cast<double>(st.served);
  r.counters["serve.expired"] = static_cast<double>(st.expired);
  r.counters["serve.rejected"] = static_cast<double>(st.rejected);
  r.counters["serve.batches"] = static_cast<double>(st.batches);
  r.counters["serve.forward_errors"] = static_cast<double>(st.forward_errors);
  r.counters["serve.mean_batch"] = st.mean_batch();
  r.check("serve.accounting_closes", st.requests == st.served + st.expired + st.rejected,
          "requests " + std::to_string(st.requests) + ", served " + std::to_string(st.served) +
              ", expired " + std::to_string(st.expired) + ", rejected " +
              std::to_string(st.rejected));
}

}  // namespace stepbench
