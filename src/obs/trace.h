// Request-scoped causal tracing: named wall-clock intervals pushed into
// a bounded in-memory ring of recent events, each carrying trace/span/
// parent ids so the spans of one request reassemble into a tree. The
// ring is the "what just happened" complement to the metrics registry's
// aggregates — an operator scraping p99s sees *that* requests are slow;
// the span tree of the slow request shows *where* the time went (queue
// wait vs. EM fan-out vs. snapshot I/O).
//
// Causality propagates through a thread_local TraceContext: a scope that
// opens a span installs itself as the current context, so spans opened
// beneath it (same thread) become children automatically. Work that hops
// threads — ParallelFor shards — carries a TraceContext from the
// submission site and adopts it on the worker via ScopedTraceContext,
// stitching the tree back together; the daemon adopts a request's root
// span the same way for the spans under its handler.
//
// Spans are call-granularity (one per request, ingest batch, refresh,
// snapshot put…), never per-record, so a mutex-guarded ring is plenty:
// pushes are rare relative to the work they bracket, and the mutex keeps
// the layer trivially ThreadSanitizer-clean. The ring is fixed-capacity
// and overwrites oldest-first; DroppedCount() says how much history was
// lost, and the global ring exports recorded/dropped totals as counters.
//
// Like ScopedTimer, spans honour the global timing-enabled flag and are
// free when disabled. They never affect computation — determinism is
// identical with tracing on or off, at any thread count.

#ifndef PPDM_OBS_TRACE_H_
#define PPDM_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ppdm::obs {

/// Position in a trace: which request (trace_id) and which span within it
/// is currently open on this thread. span_id 0 means "no enclosing span"
/// — spans opened under such a context become roots of the trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  /// This thread's current context ({0, 0} outside any trace).
  static TraceContext Current();
};

/// Fresh process-unique ids. Trace ids are mixed so concurrent daemons
/// restarted at different times rarely collide; both are never 0 (0 is
/// the "absent" sentinel).
std::uint64_t NewTraceId();
std::uint64_t NewSpanId();

/// Nanoseconds since the process's steady-clock epoch (the timestamp
/// base every SpanEvent uses).
std::uint64_t SteadyNowNs();
/// The same timestamp for an earlier steady-clock reading (say, to open
/// a PendingSpan at a time already taken).
std::uint64_t SinceEpochNs(std::chrono::steady_clock::time_point t);

/// RAII adopt: installs `context` as this thread's current context and
/// restores the previous one on destruction. This is the capture/adopt
/// half of propagation — capture Current() where work is submitted,
/// adopt it where the work runs (queue jobs, pool shards).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  ~ScopedTraceContext();

 private:
  TraceContext saved_;
};

/// One completed span.
struct SpanEvent {
  std::string name;
  /// Start, nanoseconds since the process's steady-clock epoch.
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  /// Stable small id of the recording thread (per-process, first-use
  /// ordered) — enough to see interleavings without OS thread ids.
  std::uint32_t thread = 0;
  /// Causal ids: which trace this span belongs to, its own id, and the
  /// id of the enclosing span (0 = root). All 0 for spans recorded
  /// outside any trace — they still land in the ring, just flat.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  /// Small rendered label set ('key="value",...'), e.g. the tenant and
  /// verb of a request span. Empty for most spans.
  std::string labels;
};

/// Bounded ring of recent spans.
class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit TraceRing(std::size_t capacity = kDefaultCapacity);

  /// The process-wide ring (leaky singleton; never destroyed). Records
  /// into this ring bump ppdm_trace_recorded_total, and overwrites bump
  /// ppdm_trace_dropped_total, so scrapes see ring loss.
  static TraceRing& Global();

  /// Appends `event`, stamping `event.thread`; overwrites the oldest
  /// event once the ring is full.
  void Record(SpanEvent event);

  /// Recent spans, oldest first (at most `capacity` of them).
  std::vector<SpanEvent> Snapshot() const;

  /// Spans recorded since construction / Clear().
  std::uint64_t TotalRecorded() const;

  /// Spans overwritten before ever being snapshot — total minus retained.
  std::uint64_t DroppedCount() const;

  std::size_t capacity() const { return capacity_; }

  void Clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;  // ring storage, guarded by mu_
  std::size_t next_ = 0;           // guarded by mu_
  std::uint64_t total_ = 0;        // guarded by mu_
};

/// A span whose open and close are not one C++ scope, and whose start
/// may be set after it opens: the daemon opens one per request at
/// dispatch, back-dates its start to the read that completed the frame,
/// and closes it once the handler returns. Value-copyable.
struct PendingSpan {
  const char* name = nullptr;  // null when disarmed or already ended
  std::string labels;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_ns = 0;
};

/// RAII span: records [construction, destruction) into the ring (and,
/// when given one, the same duration into a latency Histogram, so a code
/// path gets aggregate percentiles and recent-event tracing from a single
/// annotation). While open, the span is this thread's current context,
/// so spans opened beneath it become its children.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Histogram* histogram = nullptr,
                      TraceRing* ring = &TraceRing::Global(),
                      std::string labels = "");

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan();

 private:
  PendingSpan span_;  // disarmed (name null) while timing is disabled
  Histogram* const histogram_;
  TraceRing* const ring_;
};

/// Opens a pending span as a child of `parent` (does NOT touch the
/// thread-local context — install {parent.trace_id, span.span_id} with
/// ScopedTraceContext wherever descendants should attach). Disarmed
/// (name null, ids 0) when timing is disabled.
PendingSpan BeginSpan(const char* name, TraceContext parent,
                      std::string labels = "");

/// Closes `span` into `ring` and disarms it; safe to call twice.
void EndSpan(PendingSpan* span, TraceRing* ring = &TraceRing::Global());

/// Records an already-measured interval as a span under this thread's
/// current context (and, when given one, into `histogram`) — for
/// intervals whose endpoints are not scoped to one stack frame, like a
/// request's wait on its loop. No-op when timing is disabled.
void RecordSpan(const char* name,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point stop,
                Histogram* histogram = nullptr,
                TraceRing* ring = &TraceRing::Global());

/// Renders `events` as Chrome trace-event JSON (chrome://tracing /
/// Perfetto "traceEvents" format, complete "X" phases in microseconds).
/// Trace/span/parent ids and labels ride in each event's args.
std::string RenderChromeTrace(const std::vector<SpanEvent>& events);

/// Renders the spans of `trace_id` as an indented tree, children under
/// parents ordered by start time — the slow-request-log format. Spans
/// whose parent is missing (evicted from the ring) print as roots.
std::string RenderSpanTree(const std::vector<SpanEvent>& events,
                           std::uint64_t trace_id);

}  // namespace ppdm::obs

#endif  // PPDM_OBS_TRACE_H_
