// svc_open: independent users sending Poisson arrivals to one JoinService
// at fixed absolute rates, then a search over a fixed rate ladder for the
// highest rate that still meets the latency limit.

#include <algorithm>
#include <cmath>
#include <future>
#include <random>
#include <thread>

#include "core/cost_model.h"
#include "perfbench.h"
#include "service/join_service.h"

namespace perfbench {
namespace {

namespace service = amdj::service;

/// Query workers; with the generator thread that is nproc = 4.
constexpr uint32_t kMaxInflight = 3;
constexpr size_t kQueueMemoryPerQuery = 512 * 1024;
/// Holds both trees (about 6.1 MB at the default scale); warmed in set-up.
constexpr size_t kBufferBytes = 8 * 1024 * 1024;
constexpr double kKdjShare = 0.75;
constexpr double kMinK = 10.0;
constexpr double kMaxK = 10'000.0;
/// Requests with k up to this show the per-query fixed cost.
constexpr uint64_t kSmallK = 1'000;

/// The fixed offered rate, well below the knee: the capacity for this mix
/// with three workers on the 4-core reference host measured between about
/// 240 and 600 qps, depending on the host's load.
constexpr double kFixedQps = 100.0;
/// An untraced run sends kSegments segments at kFixedQps, taking
/// kFixedShare of --seconds, with one of kSearches max_qps searches after
/// every kSegments / kSearches of them; max_qps is the median search. The
/// tail is the median of the segments' tails: at 50 s a segment sends
/// 350 requests, so p90 with 35 samples beyond it. A slow stretch of
/// the host then moves one or two segments, not the metric (README.md).
constexpr int kSegments = 6;
constexpr int kSearches = 3;
constexpr double kFixedShare = 0.42;
/// An unmeasured warm-up comes first: kWarmupSeconds at kFixedQps, then
/// one whole max_qps search. Plans are numbered per seed: fixed segments
/// from 0, search steps from kSearchPhase (the warm-up search as round
/// kSearches), and the fixed-rate warm-up kWarmupPhase.
constexpr double kWarmupSeconds = 3.0;
constexpr uint64_t kSearchPhase = 100;
constexpr uint64_t kWarmupPhase = 1000;
/// max_qps search: rung j of the ladder offers 50 * 2^(j / kRungsPerDouble)
/// qps for j in [0, kLadderRungs): 50 to 3,200 qps in steps of 4.4%. The
/// search doubles the rate from kFirstRung (200 qps) until a rung fails,
/// then bisects between the last pass and the first fail, so the noisy
/// decisions near the knee come last and move the answer by a rung or two.
constexpr double kLadderBase = 50.0;
constexpr int kRungsPerDouble = 16;
constexpr int kLadderRungs = 6 * kRungsPerDouble;
constexpr int kFirstRung = 2 * kRungsPerDouble;
constexpr int kSearchSteps = 8;
/// Seconds of arrivals per search step: about 600 requests near the knee,
/// so p90 with 60 samples beyond it. A step of a fixed length, rather
/// than a fixed count, makes the requests in flight at its end (see
/// Phase::achieved_qps) the same share of it at every rate.
constexpr double kSearchStepSeconds = 1.2;

/// A rate meets the limit when its tail latency stays within kTailLimitMs
/// (about twice a warm k=10,000 AM-KDJ), it completes at least
/// kMinAchievedShare of the offered rate, every request succeeds, and the
/// admission backlog does not grow.
constexpr double kTailLimitMs = 100.0;
constexpr double kMinAchievedShare = 0.95;
/// Backlog growth: the mean queued count over the last third of a phase
/// exceeds the first third's by more than this many requests, or by more
/// than kBacklogGrowthShare of the phase's requests if that is more.
constexpr double kBacklogGrowth = 2.0 * kMaxInflight;
constexpr double kBacklogGrowthShare = 0.05;
/// A search step stops sending once this many requests wait for a worker;
/// it has failed by then.
constexpr uint32_t kAbortBacklog = 100;
/// At the fixed rate the generator checks finished responses only while
/// the next arrival is at least kCheckSlack away. In a search step it
/// spins through the last kSpin before each arrival.
constexpr Clock::duration kCheckSlack = std::chrono::milliseconds(5);
constexpr Clock::duration kSpin = std::chrono::milliseconds(2);

struct Planned {
  service::JoinRequest::Kind kind;
  uint64_t k;
  double at_s;  ///< scheduled arrival, seconds after the phase starts
};

/// `n` requests over `duration` seconds. Arrivals are n sorted uniform
/// times: a Poisson process conditioned on exactly n arrivals, so the
/// offered rate is exact. Exactly kKdjShare of them are AM-KDJ, and k is
/// log-uniform over [kMinK, kMaxK], drawn one per stratum so the work mix
/// barely varies between seeds.
std::vector<Planned> PlanPhase(uint64_t seed, uint64_t phase, size_t n,
                               double duration) {
  std::seed_seq seq{seed, phase};
  std::mt19937_64 rng(seq);
  std::vector<double> at(n);
  for (double& t : at) t = Uniform(rng) * duration;
  std::sort(at.begin(), at.end());
  std::vector<uint64_t> ks(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + Uniform(rng)) / n;
    ks[i] = static_cast<uint64_t>(std::llround(kMinK * std::pow(kMaxK / kMinK, u)));
  }
  Shuffle(&ks, rng);
  std::vector<uint8_t> kdj(n, 0);
  std::fill_n(kdj.begin(), std::llround(kKdjShare * n), 1);
  Shuffle(&kdj, rng);
  std::vector<Planned> plan(n);
  for (size_t i = 0; i < n; ++i) {
    plan[i] = Planned{kdj[i] ? service::JoinRequest::Kind::kKdj
                             : service::JoinRequest::Kind::kIdj,
                      ks[i], at[i]};
  }
  return plan;
}

/// What open-loop traffic at one offered rate measured, summed over every
/// Run() that fed it. Latencies run from each request's scheduled arrival
/// to its response: generator lateness + Submit + admission wait +
/// execution.
struct Phase {
  explicit Phase(double offered) : offered_qps(offered) {}

  double offered_qps;
  size_t sent = 0;
  uint64_t failed = 0;
  bool aborted = false;
  bool backlog_grew = false;
  uint32_t backlog_max = 0;
  /// Responses completed by the last scheduled arrival of their run, and
  /// the summed span of those arrivals (see achieved_qps).
  uint64_t done_in_time = 0;
  double arrivals_s = 0.0;
  std::vector<double> latency_ms, traced_ms, untraced_ms, wait_ms, exec_ms,
      exec_small_ms, submit_us, lag_ms;
  double exec_s = 0.0;
  double wall_s = 0.0;
  JoinStats sum;

  /// Responses completed while requests were still arriving, per second
  /// of arrivals. Requests still queued or running at the last arrival
  /// count against it, so it falls below the offered rate as the backlog
  /// grows; for a service that keeps up they are about 2% of a search
  /// step (mean latency / kSearchStepSeconds).
  double achieved_qps() const {
    return arrivals_s > 0.0 ? static_cast<double>(done_in_time) / arrivals_s
                            : 0.0;
  }
  double tail_percentile() const { return TailPercentile(latency_ms.size()); }
  double tail_ms() const { return Percentile(latency_ms, tail_percentile()); }
  bool MeetsLimit() const {
    return !aborted && failed == 0 && tail_ms() <= kTailLimitMs &&
           achieved_qps() >= kMinAchievedShare * offered_qps && !backlog_grew;
  }
};

/// True when the mean queued count over the last third of `backlog`
/// exceeds the first third's by more than the kBacklogGrowth allowance.
bool BacklogGrows(const std::vector<uint32_t>& backlog) {
  const size_t third = backlog.size() / 3;
  if (third == 0) return false;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < third; ++i) {
    first += backlog[i];
    last += backlog[backlog.size() - 1 - i];
  }
  return (last - first) / third >
         std::max(kBacklogGrowth, kBacklogGrowthShare * backlog.size());
}

class OpenLoop {
 public:
  OpenLoop(service::JoinService* service, OutputChecker* checker,
           Result* result)
      : service_(service), checker_(checker), result_(result) {}

  /// Sends `plan` at its scheduled times and adds what it measured to
  /// `phase`. `log` traces every other request. A `search` step stops
  /// sending once overloaded, and checks every finished response before
  /// the next arrival even when that makes the arrival late: at search
  /// rates there is seldom slack, and answers held for later would count
  /// in the peak resident set.
  void Run(const std::vector<Planned>& plan, SpanLog* log, bool search,
           Phase* phase) {
    pending_.clear();
    done_s_.clear();
    std::vector<uint32_t> backlog;  // queued count sampled at every submit
    double last_arrival_s = 0.0;
    start_ = Clock::now();
    for (size_t i = 0; i < plan.size(); ++i) {
      const Clock::time_point due = At(plan[i].at_s);
      // At the fixed rate, check finished responses only while the next
      // arrival is far enough off that a check (about 1 ms at k=10,000)
      // cannot make it late.
      while ((search || Clock::now() + kCheckSlack < due) &&
             CollectOne(/*block=*/false, plan, log, phase)) {
      }
      // A search step sleeps, then spins through the last stretch: at its
      // rates arrivals are under 2 ms apart, and waking an idle vCPU can
      // take that long. At the fixed rate the generator only sleeps: a
      // spinning generator slowed the workers' requests by up to half in
      // whole runs, while the lateness of a plain sleep, which the latency
      // counts, is about 0.2 ms at the median (README.md).
      std::this_thread::sleep_until(search ? due - kSpin : due);
      while (Clock::now() < due) {
      }
      last_arrival_s = plan[i].at_s;
      Pending pending;
      pending.index = i;
      pending.id = next_id_++;
      pending.traced = log != nullptr && pending.id % 2 == 0;
      service::JoinRequest request;
      request.kind = plan[i].kind;
      request.k = plan[i].k;
      pending.submit_start = Clock::now();
      pending.future = service_->Submit(std::move(request));
      pending.submit_end = Clock::now();
      pending_.push_back(std::move(pending));
      ++phase->sent;
      const uint32_t queued = service_->admission_snapshot().queued;
      backlog.push_back(queued);
      if (search && queued >= kAbortBacklog) {
        phase->aborted = true;
        break;
      }
    }
    while (CollectOne(/*block=*/true, plan, log, phase)) {
    }
    phase->wall_s += SecondsBetween(start_, Clock::now());
    phase->arrivals_s += last_arrival_s;
    phase->done_in_time += std::count_if(
        done_s_.begin(), done_s_.end(),
        [last_arrival_s](double t) { return t <= last_arrival_s; });
    phase->backlog_grew = phase->backlog_grew || BacklogGrows(backlog);
    for (const uint32_t queued : backlog) {
      phase->backlog_max = std::max(phase->backlog_max, queued);
    }
  }

 private:
  struct Pending {
    size_t index = 0;  ///< into the plan
    int64_t id = 0;    ///< request id, unique within the run
    bool traced = false;
    Clock::time_point submit_start;
    Clock::time_point submit_end;
    std::future<service::JoinResponse> future;
  };

  Clock::time_point At(double seconds) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  }

  /// Takes one finished response (waiting for the oldest when `block`),
  /// checks it and records it; false when there was none to take.
  bool CollectOne(bool block, const std::vector<Planned>& plan, SpanLog* log,
                  Phase* phase) {
    auto it = pending_.begin();
    if (!block) {
      while (it != pending_.end() &&
             it->future.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready) {
        ++it;
      }
    }
    if (it == pending_.end()) return false;
    Pending pending = std::move(*it);
    pending_.erase(it);
    const service::JoinResponse response = pending.future.get();
    const Planned& planned = plan[pending.index];
    const Clock::time_point due = At(planned.at_s);
    const auto wait_end =
        pending.submit_end + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(response.wait_seconds));
    const auto done =
        wait_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(response.exec_seconds));

    ++result_->attempted;
    const std::string error =
        response.status.ok() ? checker_->Check(response.results, planned.k)
                             : response.status.ToString();
    if (!error.empty()) {
      ++result_->failed;
      ++phase->failed;
      result_->Error("k=" + std::to_string(planned.k) + ": " + error);
    }
    phase->sum.Add(response.stats);
    phase->exec_s += response.exec_seconds;
    done_s_.push_back(SecondsBetween(start_, done));
    if (error.empty()) {
      const double latency_ms = SecondsBetween(due, done) * 1e3;
      phase->latency_ms.push_back(latency_ms);
      (pending.traced ? phase->traced_ms : phase->untraced_ms)
          .push_back(latency_ms);
      phase->wait_ms.push_back(response.wait_seconds * 1e3);
      phase->exec_ms.push_back(response.exec_seconds * 1e3);
      if (planned.k <= kSmallK) {
        phase->exec_small_ms.push_back(response.exec_seconds * 1e3);
      }
      phase->submit_us.push_back(
          SecondsBetween(pending.submit_start, pending.submit_end) * 1e6);
      phase->lag_ms.push_back(SecondsBetween(due, pending.submit_start) * 1e3);
    }
    if (pending.traced) {
      const int32_t request = log->Add("request", due, done,
                                       SpanLog::kNoParent, pending.id);
      log->Add("service.submit", pending.submit_start, pending.submit_end,
               request, pending.id);
      log->Add("service.wait", pending.submit_end, wait_end, request,
               pending.id);
      log->Add("service.exec", wait_end, done, request, pending.id);
      log->Attach(request, response.stats.ToJson());
    }
    return true;
  }

  service::JoinService* service_;
  OutputChecker* checker_;
  Result* result_;
  Clock::time_point start_;
  std::vector<Pending> pending_;
  std::vector<double> done_s_;  ///< this run's response times, s after start_
  int64_t next_id_ = 0;
};

/// Fills the buffer with every page of both trees.
void WarmBuffer(const Env& env) {
  for (uint32_t page = 0; page < env.tree_disk->PageCount(); ++page) {
    auto guard = env.pool->FetchPage(page);
    if (!guard.ok()) Die("warming the buffer failed: " + guard.status().ToString());
  }
}

/// Share of requests identical (kind and k) to an earlier one.
double RepeatShare(const std::vector<Planned>& plan) {
  std::vector<std::pair<int, uint64_t>> keys;
  for (const Planned& p : plan) keys.emplace_back(static_cast<int>(p.kind), p.k);
  std::sort(keys.begin(), keys.end());
  const size_t distinct =
      std::unique(keys.begin(), keys.end()) - keys.begin();
  return plan.empty() ? 0.0
                      : static_cast<double>(plan.size() - distinct) / plan.size();
}

/// Highest ladder rate that meets the limit (see kRungsPerDouble). Returns
/// the achieved rate of the best passing step (0 when none did) and
/// appends every step's outcome to `steps` as JSON.
double SearchMaxQps(OpenLoop* loop, uint64_t seed, int round,
                    std::string* steps) {
  int lo = -1;            // highest rung known to pass
  int hi = kLadderRungs;  // lowest rung known to fail
  double best = 0.0;
  *steps += "[";
  for (int step = 0; step < kSearchSteps && hi - lo > 1; ++step) {
    const int mid = hi == kLadderRungs
                        ? std::min(lo < 0 ? kFirstRung : lo + kRungsPerDouble,
                                   kLadderRungs - 1)
                        : lo + (hi - lo) / 2;
    const double rate =
        kLadderBase * std::exp2(static_cast<double>(mid) / kRungsPerDouble);
    Phase phase(rate);
    const auto requests =
        static_cast<size_t>(std::lround(rate * kSearchStepSeconds));
    loop->Run(PlanPhase(seed, kSearchPhase + kSearchSteps * round + step,
                        requests, kSearchStepSeconds),
              nullptr, /*search=*/true, &phase);
    const bool pass = phase.MeetsLimit();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"offered\":%.1f,\"achieved\":%.1f,\"tail_ms\":%.2f,"
                  "\"backlog_grows\":%s,\"aborted\":%s,\"pass\":%s}",
                  step > 0 ? "," : "", rate, phase.achieved_qps(),
                  phase.tail_ms(), phase.backlog_grew ? "true" : "false",
                  phase.aborted ? "true" : "false", pass ? "true" : "false");
    *steps += buf;
    if (pass) {
      lo = mid;
      best = phase.achieved_qps();
    } else {
      hi = mid;
    }
  }
  *steps += "]";
  return best;
}

}  // namespace

void RunSvcOpen(const Args& args, HostProbe* probe, Result* result) {
  std::vector<double> reference =
      ReferenceDistances(args.seed, static_cast<uint64_t>(kMaxK));
  SpanLog spans;
  SpanLog* const log = args.trace ? &spans : nullptr;
  SetupSamples setup;
  std::unique_ptr<Env> owned;
  std::unique_ptr<service::JoinService> svc;
  service::JoinService::Options options;
  options.max_inflight = kMaxInflight;
  options.queue_memory_budget_bytes = kMaxInflight * kQueueMemoryPerQuery;
  double probe_ms = probe->Run();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();  // the service references the trees: drop it first
    owned.reset();
    double total_s;
    SetupTimes times;
    {
      const Clock::time_point start = Clock::now();
      const ScopedSpan span(log, "setup", SpanLog::kNoParent,
                            SpanLog::kNoRequest);
      owned = BuildEnv(args.seed, kBufferBytes, log, span.id(), &times);
      {
        const ScopedSpan start_span(log, "service.start", span.id(),
                                    SpanLog::kNoRequest);
        svc = std::make_unique<service::JoinService>(*owned->r, *owned->s,
                                                     options);
      }
      {
        const ScopedSpan warm_span(log, "storage.warm", span.id(),
                                   SpanLog::kNoRequest);
        WarmBuffer(*owned);
      }
      total_s = SecondsBetween(start, Clock::now());
    }
    const double next_ms = probe->Run();
    setup.Add(total_s, HostScale(probe_ms, next_ms), times);
    probe_ms = next_ms;
  }
  const Env& env = *owned;
  OutputChecker checker(env, std::move(reference));
  OpenLoop loop(svc.get(), &checker, result);

  // Warm-up, checked but not measured: the process's first requests also
  // pay for growing its heap, which on a VM can stall for a second or
  // more. Without the warm-up search, the first search's first step
  // failed at 200 qps in 7 of 10 runs, with tails of 110-400 ms, and no
  // later search's did; one overloaded step in its place did not help.
  Phase warmup(kFixedQps);
  loop.Run(PlanPhase(args.seed, kWarmupPhase,
                     static_cast<size_t>(kFixedQps * kWarmupSeconds),
                     kWarmupSeconds),
           nullptr, /*search=*/false, &warmup);
  std::string warmup_search;
  if (!args.trace) SearchMaxQps(&loop, args.seed, kSearches, &warmup_search);

  // The fixed rate and the max_qps search take turns, so both sample the
  // host over the whole run. Traced runs only send at the fixed rate. The
  // probe runs while the service is idle, before and after every segment
  // and search, and scales what each measured (HostScale).
  const double segment_s =
      (args.trace ? args.seconds : kFixedShare * args.seconds) / kSegments;
  Phase fixed(kFixedQps);
  std::vector<Planned> fixed_requests;
  // Scaled to the reference host: every fixed-rate latency, each
  // segment's tail, and each search's max_qps.
  std::vector<double> scaled_ms, segment_tail_ms, max_qps;
  std::vector<double> wall_tail_ms, wall_max_qps;
  double scaled_exec_s = 0.0;
  double segment_tail_percentile = 0.0;
  std::string searches = "[";
  probe_ms = probe->RunMedian3();
  for (int segment = 0; segment < kSegments; ++segment) {
    const std::vector<Planned> plan = PlanPhase(
        args.seed, segment, static_cast<size_t>(kFixedQps * segment_s),
        segment_s);
    fixed_requests.insert(fixed_requests.end(), plan.begin(), plan.end());
    const size_t before = fixed.latency_ms.size();
    const double exec_before_s = fixed.exec_s;
    loop.Run(plan, log, /*search=*/false, &fixed);
    double next_ms = probe->RunMedian3();
    double scale = HostScale(probe_ms, next_ms);
    probe_ms = next_ms;
    const std::vector<double> latency(fixed.latency_ms.begin() + before,
                                      fixed.latency_ms.end());
    for (const double ms : latency) scaled_ms.push_back(ms * scale);
    segment_tail_percentile = TailPercentile(latency.size());
    wall_tail_ms.push_back(Percentile(latency, segment_tail_percentile));
    segment_tail_ms.push_back(wall_tail_ms.back() * scale);
    scaled_exec_s += (fixed.exec_s - exec_before_s) * scale;
    if (args.trace || (segment + 1) % (kSegments / kSearches) != 0) continue;
    const int round = static_cast<int>(max_qps.size());
    if (round > 0) searches += ",";
    const double qps = SearchMaxQps(&loop, args.seed, round, &searches);
    next_ms = probe->RunMedian3();
    scale = HostScale(probe_ms, next_ms);
    probe_ms = next_ms;
    wall_max_qps.push_back(qps);
    max_qps.push_back(qps / scale);  // a rate: faster host, more per second
  }
  const service::JoinService::AdmissionSnapshot admission =
      svc->admission_snapshot();

  AddSetupMetrics(result, setup, env, args.trace);
  result->Note("requests", std::to_string(fixed.sent));
  result->Note("query_tail_percentile", std::to_string(segment_tail_percentile));
  std::string tails = "[";
  for (const double ms : segment_tail_ms) {
    tails += (tails.size() > 1 ? "," : "") + std::to_string(ms);
  }
  result->Note("segment_tail_ms", tails + "]");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "{\"offered_qps\":%.1f,\"achieved_qps\":%.2f,"
                "\"backlog_grows\":%s,\"meets_limit\":%s}",
                kFixedQps, fixed.achieved_qps(),
                fixed.backlog_grew ? "true" : "false",
                fixed.MeetsLimit() ? "true" : "false");
  result->Note("fixed_rate", buf);
  if (!args.trace) {
    result->Note("max_qps_searches", searches + "]");
    result->Note("warmup_search", warmup_search);
    result->Metric("query_p50_ms", Percentile(scaled_ms, 50), "ms");
    result->Metric("query_tail_ms", Percentile(segment_tail_ms, 50), "ms");
    result->Metric("pairs_per_s",
                   static_cast<double>(fixed.sum.pairs_produced) /
                       scaled_exec_s,
                   "pairs/s");
    // A summary figure, not a metric: whole runs of the host moved it by
    // up to 40%, which the single-threaded probe only partly follows.
    result->Note("max_qps", std::to_string(Percentile(max_qps, 50)));
    result->Note("wall_query_p50_ms",
                 std::to_string(Percentile(fixed.latency_ms, 50)));
    result->Note("wall_query_tail_ms",
                 std::to_string(Percentile(wall_tail_ms, 50)));
    result->Note("wall_max_qps", std::to_string(Percentile(wall_max_qps, 50)));
    result->Note("wall_pairs_per_s",
                 std::to_string(static_cast<double>(fixed.sum.pairs_produced) /
                                fixed.exec_s));
    return;
  }

  double sim_io_s = 0.0;  // spill disks are private to the service: all random
  {
    storage::DiskStats io;
    io.random_reads = fixed.sum.node_disk_reads + fixed.sum.queue_page_reads;
    io.random_writes = fixed.sum.queue_page_writes;
    sim_io_s = core::CostModel().Seconds(io);
  }
  AddJoinLayerMetrics(result, fixed.sum, fixed.sent, sim_io_s);
  const double tail = TailPercentile(fixed.latency_ms.size());
  result->Metric("service.submit_us_p50", Percentile(fixed.submit_us, 50), "us");
  result->Metric("service.submit_us_tail", Percentile(fixed.submit_us, tail), "us");
  result->Metric("service.gen_lag_ms_p99", Percentile(fixed.lag_ms, 99), "ms");
  result->Metric("service.gen_lag_ms_max", Percentile(fixed.lag_ms, 100), "ms");
  result->Metric("service.wait_ms_p50", Percentile(fixed.wait_ms, 50), "ms");
  result->Metric("service.wait_ms_tail", Percentile(fixed.wait_ms, tail), "ms");
  result->Metric("service.exec_ms_p50", Percentile(fixed.exec_ms, 50), "ms");
  result->Metric("service.exec_ms_tail", Percentile(fixed.exec_ms, tail), "ms");
  result->Metric("service.exec_small_ms", Percentile(fixed.exec_small_ms, 50), "ms");
  result->Metric("service.utilization",
                 fixed.exec_s / (fixed.wall_s * kMaxInflight), "ratio");
  result->Metric("service.backlog_max", fixed.backlog_max, "count");
  result->Metric("service.peak_inflight", admission.peak_inflight, "count");
  result->Metric("service.rejected", static_cast<double>(admission.rejected),
                 "count");
  result->Metric("service.repeat_share", RepeatShare(fixed_requests), "ratio");
  AddSelfTimeMetrics(result, spans, fixed.traced_ms.size());
  result->Metric("trace.overhead_ms",
                 Percentile(fixed.traced_ms, 50) -
                     Percentile(fixed.untraced_ms, 50),
                 "ms");
  if (!args.spans_path.empty() && !spans.WriteJsonLines(args.spans_path)) {
    result->Error("cannot write spans to " + args.spans_path);
  }
}

}  // namespace perfbench
