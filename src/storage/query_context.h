#ifndef AMDJ_STORAGE_QUERY_CONTEXT_H_
#define AMDJ_STORAGE_QUERY_CONTEXT_H_

#include <cstdint>

#include "common/stats.h"

namespace amdj {
class Tracer;  // common/trace.h
}  // namespace amdj

namespace amdj::storage {

/// The per-query observability wiring a thread carries while it executes
/// one query: the query's JoinStats sink, its tracer, and the windowed
/// hit-ratio counters the BufferPool samples into that tracer. Owned by a
/// QueryAttributionScope on the executing thread's stack; the buffer pool
/// reads it through QueryAttributionScope::Current().
///
/// `stats`/`tracer` may both be null — an *active* scope with null members
/// means "this thread is running a query that wants no attribution", which
/// deliberately shadows any pool-wide sink (a concurrent query must never
/// leak accesses into another query's counters).
struct QueryAttribution {
  JoinStats* stats = nullptr;
  Tracer* tracer = nullptr;
  /// Windowed buffer-hit-ratio sampling state (BufferPool::kTraceWindow).
  /// Lives here, not in the pool, so concurrent queries sample their own
  /// windows. Touched only by the owning thread.
  uint64_t window_accesses = 0;
  uint64_t window_hits = 0;
};

/// RAII registration of the calling thread's query attribution. While a
/// scope is alive, every BufferPool access performed by this thread is
/// counted against the scope's JoinStats instead of the pool-wide sink.
///
/// Scopes nest (a join that internally runs an uncharged oracle pass can
/// push a detached scope); destruction restores the previous scope.
/// Per-thread, so N threads running N queries over one shared BufferPool
/// each keep exact node-access / hit-ratio accounting — the concurrency
/// model the JoinService (src/service/) is built on.
class QueryAttributionScope {
 public:
  QueryAttributionScope(JoinStats* stats, Tracer* tracer);
  ~QueryAttributionScope();

  QueryAttributionScope(const QueryAttributionScope&) = delete;
  QueryAttributionScope& operator=(const QueryAttributionScope&) = delete;

  /// The innermost scope active on the calling thread; nullptr when the
  /// thread runs outside any query (pool-wide sinks then apply).
  static QueryAttribution* Current();

 private:
  QueryAttribution attribution_;
  QueryAttribution* previous_;
};

}  // namespace amdj::storage

#endif  // AMDJ_STORAGE_QUERY_CONTEXT_H_
