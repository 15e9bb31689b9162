// kdj_cold: one client calling the library directly, each request starting
// from a cleared buffer.

#include <optional>

#include "core/cost_model.h"
#include "core/distance_join.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using amdj::Status;

constexpr uint64_t kK = 100'000;
/// 1/12 of the two trees at the default scale.
constexpr size_t kBufferBytes = 512 * 1024;
constexpr size_t kQueueMemoryBytes = 512 * 1024;

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

}  // namespace

void RunKdjCold(const Args& args, HostProbe* probe, Result* result) {
  std::vector<double> reference = ReferenceDistances(args.seed, kK);
  SpanLog spans;
  SpanLog* const setup_log = args.trace ? &spans : nullptr;
  SetupSamples setup;
  std::unique_ptr<Env> owned;
  double probe_ms = probe->Run();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    owned.reset();  // frees the previous repetition's trees first
    double total_s;
    SetupTimes times;
    {
      const Clock::time_point start = Clock::now();
      const ScopedSpan span(setup_log, "setup", SpanLog::kNoParent,
                            SpanLog::kNoRequest);
      owned = BuildEnv(args.seed, kBufferBytes, setup_log, span.id(), &times);
      total_s = SecondsBetween(start, Clock::now());
    }
    const double next_ms = probe->Run();
    setup.Add(total_s, HostScale(probe_ms, next_ms), times);
    probe_ms = next_ms;
  }
  const Env& env = *owned;
  OutputChecker checker(env, std::move(reference));

  storage::InMemoryDiskManager spill;
  core::JoinOptions options;
  options.queue_memory_bytes = kQueueMemoryBytes;
  options.queue_disk = &spill;
  const core::CostModel cost_model;

  std::optional<JoinStats> first_stats;
  JoinStats sum;
  double sim_io_s = 0.0;
  // Wall times, and the same scaled by the probes on either side of each.
  std::vector<double> latency_ms, scaled_ms, traced_ms, untraced_ms;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int64_t id = 0; Clock::now() < deadline; ++id) {
    // Traced runs trace every other request; the untraced ones between
    // them measure what tracing costs.
    SpanLog* const log = args.trace && id % 2 == 1 ? &spans : nullptr;
    JoinStats stats;
    Status status;
    std::vector<core::ResultPair> pairs;
    Clock::time_point start, end;
    const storage::DiskStats tree_before = env.tree_disk->stats();
    const storage::DiskStats spill_before = spill.stats();
    {
      const ScopedSpan request(log, "request", SpanLog::kNoParent, id);
      {
        const ScopedSpan span(log, "storage.clear", request.id(), id);
        const Status cleared = env.pool->Clear();
        if (!cleared.ok()) Die("BufferPool::Clear failed: " + cleared.ToString());
      }
      const ScopedSpan span(log, "core.kdj", request.id(), id);
      start = Clock::now();
      auto run = core::RunKDistanceJoin(*env.r, *env.s, kK,
                                        core::KdjAlgorithm::kAmKdj, options,
                                        &stats);
      end = Clock::now();
      if (run.ok()) {
        pairs = std::move(*run);
      } else {
        status = run.status();
      }
      if (log != nullptr) log->Attach(request.id(), stats.ToJson());
    }
    // The probe runs between requests, so each request sits between two.
    const double next_probe_ms = probe->Run();
    const double scale = HostScale(probe_ms, next_probe_ms);
    probe_ms = next_probe_ms;
    const double request_sim_io_s =
        cost_model.Seconds(core::CostModel::Delta(tree_before,
                                                  env.tree_disk->stats())) +
        cost_model.Seconds(core::CostModel::Delta(spill_before, spill.stats()));

    ++result->attempted;
    std::string error = status.ok() ? checker.Check(pairs, kK)
                                    : "join failed: " + status.ToString();
    if (!error.empty()) {
      ++result->failed;
      result->Error("request " + std::to_string(id) + ": " + error);
    }
    if (!first_stats.has_value()) {
      first_stats = stats;
    } else if (const std::string drift = CompareCounters(*first_stats, stats);
               !drift.empty()) {
      result->Error("request " + std::to_string(id) + ": " + drift);
    }
    // The first request is a warm-up, checked but not measured: it also
    // pays for growing the process's heap.
    if (id == 0) continue;
    sum.Add(stats);
    sim_io_s += request_sim_io_s;
    const double ms = SecondsBetween(start, end) * 1e3;
    latency_ms.push_back(ms);
    scaled_ms.push_back(ms * scale);
    (log != nullptr ? traced_ms : untraced_ms).push_back(ms);
  }

  const uint64_t n = latency_ms.size();
  if (first_stats.has_value()) result->SetCounters(*first_stats);
  AddSetupMetrics(result, setup, env, args.trace);
  const double tail = TailPercentile(n);
  result->Note("requests", std::to_string(n));
  result->Note("query_tail_percentile", std::to_string(tail));
  if (!args.trace) {
    const double scaled_busy_s = Sum(scaled_ms) / 1e3;
    result->Metric("query_p50_ms", Percentile(scaled_ms, 50), "ms");
    result->Metric("query_tail_ms", Percentile(scaled_ms, tail), "ms");
    result->Metric("pairs_per_s",
                   static_cast<double>(sum.pairs_produced) / scaled_busy_s,
                   "pairs/s");
    result->Note("wall_query_p50_ms",
                 std::to_string(Percentile(latency_ms, 50)));
    result->Note("wall_query_tail_ms",
                 std::to_string(Percentile(latency_ms, tail)));
    return;
  }
  AddJoinLayerMetrics(result, sum, n, sim_io_s);
  AddBypassedServiceMetrics(result, n == 0 ? 0.0 : 1.0 - 1.0 / n);
  AddSelfTimeMetrics(result, spans, traced_ms.size());
  result->Metric("trace.overhead_ms",
                 Percentile(traced_ms, 50) - Percentile(untraced_ms, 50),
                 "ms");
  if (!args.spans_path.empty() && !spans.WriteJsonLines(args.spans_path)) {
    result->Error("cannot write spans to " + args.spans_path);
  }
}

}  // namespace perfbench
