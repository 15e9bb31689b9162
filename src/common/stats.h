#ifndef AMDJ_COMMON_STATS_H_
#define AMDJ_COMMON_STATS_H_

#include <cstdint>
#include <string>

namespace amdj {

/// How a JoinStats field combines across runs (Add) and subtracts into
/// per-phase deltas (common/run_report.h).
enum class StatFieldKind : uint8_t {
  kAdd,  ///< Additive counter or time: Add sums, deltas subtract.
  kMax,  ///< High-water mark: Add takes the max; deltas report the end value.
};

/// Counters collected while executing a distance join. These are the three
/// metrics the paper's evaluation reports (Section 5.1) plus a few extras
/// used by the ablation benches.
///
/// A JoinStats instance is owned by the caller and passed (by pointer) into
/// the storage, queue and core layers, which increment the counters they are
/// responsible for:
///   - real/axis distance computations: core (plane sweeper, HS expansion)
///   - queue insertions:                queue (main queue)
///   - node accesses / page I/O:        storage (buffer pool, disk manager)
///
/// When adding a field, extend ForEachJoinStatsField below and bump the
/// sizeof check in stats.cc — Add/Reset/ToString/ToJson and the run-report
/// phase deltas are all derived from that one visitor, so a field listed
/// there cannot be silently dropped anywhere.
struct JoinStats {
  // --- computational cost (Figure 10(a), 11, 12(a), 14(a)) ---
  /// Number of real (Euclidean MBR) distance computations.
  uint64_t real_distance_computations = 0;
  /// Number of axis (1-d projected) distance computations done by sweeps.
  uint64_t axis_distance_computations = 0;

  // --- queue cost (Figure 10(b), 12(b), 14(b)) ---
  /// Insertions into the main queue.
  uint64_t main_queue_insertions = 0;
  /// Insertions into the distance queue.
  uint64_t distance_queue_insertions = 0;
  /// Insertions into the compensation queue (AM-KDJ / AM-IDJ only).
  uint64_t compensation_queue_insertions = 0;
  /// Peak number of live entries in the main queue.
  uint64_t main_queue_peak_size = 0;
  /// Main-queue split events (in-memory tier overflow -> disk; one event
  /// may spill several buckets into several segments).
  uint64_t queue_splits = 0;
  /// Main-queue segment swap-ins (disk segment -> in-memory tier).
  uint64_t queue_swapins = 0;
  /// Adaptive front-bucket refinements (gather+sort passes when the
  /// estimator-derived bucket boundaries are off).
  uint64_t queue_bucket_refinements = 0;
  /// Peak number of in-memory key-space buckets.
  uint64_t main_queue_peak_buckets = 0;

  // --- I/O cost (Table 2, Figure 10(c), 12(c), 13, 15) ---
  /// R-tree node fetches that were served by the buffer pool.
  uint64_t node_buffer_hits = 0;
  /// R-tree node fetches that went to disk (buffer misses). The paper's
  /// Table 2 reports this as "nodes fetched from disk".
  uint64_t node_disk_reads = 0;
  /// Logical node accesses (hits + misses). The paper's Table 2 reports this
  /// in parentheses as accesses without any buffer.
  uint64_t node_accesses = 0;
  /// Queue-related page reads/writes (hybrid queue disk segments, external
  /// sort runs).
  uint64_t queue_page_reads = 0;
  uint64_t queue_page_writes = 0;

  // --- results ---
  /// Number of object pairs produced.
  uint64_t pairs_produced = 0;
  /// Number of node-pair expansions performed.
  uint64_t node_expansions = 0;

  // --- cross-query shared work (service/shared_work.h) ---
  /// 1 when this response was produced by the JoinService shared-work
  /// layer — piggybacked on an identical in-flight execution or answered
  /// from the semantic result cache — instead of its own tree traversal.
  /// The leader execution of a deduped group reports 0: exactly one
  /// response per group carries the real traversal counters.
  uint64_t shared_hit = 0;

  // --- time ---
  /// Measured wall-clock CPU time, seconds.
  double cpu_seconds = 0.0;
  /// Simulated I/O time, seconds (see core::CostModel).
  double simulated_io_seconds = 0.0;

  /// Total "response time" in the paper's sense: CPU + simulated I/O.
  double response_seconds() const { return cpu_seconds + simulated_io_seconds; }

  /// Total distance computations (real + axis), as Figure 11 plots.
  uint64_t total_distance_computations() const {
    return real_distance_computations + axis_distance_computations;
  }

  /// Adds all counters of `other` into this (times included).
  void Add(const JoinStats& other);

  /// Resets every counter to zero.
  void Reset();

  /// Multi-line human readable dump.
  std::string ToString() const;

  /// Single-line JSON object with every field (and the two derived totals,
  /// keyed "response_seconds" / "total_distance_computations").
  std::string ToJson() const;
};

/// Invokes fn(name, a.field, b.field, kind) for every JoinStats field, in
/// declaration order, zipping two stats objects (Add and phase deltas walk
/// a mutable destination alongside a const source). This list is the single
/// source of truth for Add/ToString/ToJson, the bench JSON, and run-report
/// phase deltas; the sizeof check in stats.cc guarantees it stays complete.
template <typename StatsA, typename StatsB, typename Fn>
void ForEachJoinStatsFieldPair(StatsA&& a, StatsB&& b, Fn&& fn) {
  fn("real_distance_computations", a.real_distance_computations,
     b.real_distance_computations, StatFieldKind::kAdd);
  fn("axis_distance_computations", a.axis_distance_computations,
     b.axis_distance_computations, StatFieldKind::kAdd);
  fn("main_queue_insertions", a.main_queue_insertions,
     b.main_queue_insertions, StatFieldKind::kAdd);
  fn("distance_queue_insertions", a.distance_queue_insertions,
     b.distance_queue_insertions, StatFieldKind::kAdd);
  fn("compensation_queue_insertions", a.compensation_queue_insertions,
     b.compensation_queue_insertions, StatFieldKind::kAdd);
  fn("main_queue_peak_size", a.main_queue_peak_size, b.main_queue_peak_size,
     StatFieldKind::kMax);
  fn("queue_splits", a.queue_splits, b.queue_splits, StatFieldKind::kAdd);
  fn("queue_swapins", a.queue_swapins, b.queue_swapins, StatFieldKind::kAdd);
  fn("queue_bucket_refinements", a.queue_bucket_refinements,
     b.queue_bucket_refinements, StatFieldKind::kAdd);
  fn("main_queue_peak_buckets", a.main_queue_peak_buckets,
     b.main_queue_peak_buckets, StatFieldKind::kMax);
  fn("node_buffer_hits", a.node_buffer_hits, b.node_buffer_hits,
     StatFieldKind::kAdd);
  fn("node_disk_reads", a.node_disk_reads, b.node_disk_reads,
     StatFieldKind::kAdd);
  fn("node_accesses", a.node_accesses, b.node_accesses, StatFieldKind::kAdd);
  fn("queue_page_reads", a.queue_page_reads, b.queue_page_reads,
     StatFieldKind::kAdd);
  fn("queue_page_writes", a.queue_page_writes, b.queue_page_writes,
     StatFieldKind::kAdd);
  fn("pairs_produced", a.pairs_produced, b.pairs_produced,
     StatFieldKind::kAdd);
  fn("node_expansions", a.node_expansions, b.node_expansions,
     StatFieldKind::kAdd);
  fn("shared_hit", a.shared_hit, b.shared_hit, StatFieldKind::kAdd);
  fn("cpu_seconds", a.cpu_seconds, b.cpu_seconds, StatFieldKind::kAdd);
  fn("simulated_io_seconds", a.simulated_io_seconds, b.simulated_io_seconds,
     StatFieldKind::kAdd);
}

/// Single-object view of the field list: fn(name, field_reference, kind).
template <typename StatsT, typename Fn>
void ForEachJoinStatsField(StatsT&& s, Fn&& fn) {
  ForEachJoinStatsFieldPair(
      s, s, [&fn](const char* name, auto& field, auto&, StatFieldKind kind) {
        fn(name, field, kind);
      });
}

/// Per-field difference `end - begin` (kMax fields report the end value —
/// a cumulative high-water mark has no meaningful per-phase difference).
JoinStats SubtractJoinStats(const JoinStats& end, const JoinStats& begin);

}  // namespace amdj

#endif  // AMDJ_COMMON_STATS_H_
