#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace ppdm::obs {
namespace {

std::uint32_t ThreadTraceId() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// The thread's current trace position ({0,0} outside any trace).
thread_local TraceContext t_current_context;

/// splitmix64 finaliser — spreads a counter into id space.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

Counter& TraceRecordedCounter() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("ppdm_trace_recorded_total");
  return *counter;
}

Counter& TraceDroppedCounter() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("ppdm_trace_dropped_total");
  return *counter;
}

void AppendJsonEscaped(std::string* out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// The one sink every span kind closes through (ScopedSpan, EndSpan,
/// RecordSpan): clamps the duration at 0, records the event into `ring`
/// and the duration into `histogram` (either may be null), and disarms
/// `span`.
void CloseSpan(PendingSpan* span, std::uint64_t stop_ns, Histogram* histogram,
               TraceRing* ring) {
  SpanEvent event;
  event.name = span->name;
  event.start_ns = span->start_ns;
  event.duration_ns = stop_ns > span->start_ns ? stop_ns - span->start_ns : 0;
  event.trace_id = span->trace_id;
  event.span_id = span->span_id;
  event.parent_id = span->parent_id;
  event.labels = std::move(span->labels);
  span->name = nullptr;
  if (histogram != nullptr) {
    histogram->Observe(static_cast<double>(event.duration_ns) * 1e-9);
  }
  if (ring != nullptr) ring->Record(std::move(event));
}

std::string HexId(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

TraceContext TraceContext::Current() { return t_current_context; }

std::uint64_t NewTraceId() {
  // Counter mixed with a per-process steady-clock seed: sequential within
  // one process, but two daemons (or restarts) diverge immediately.
  static const std::uint64_t seed = Mix64(SteadyNowNs() ^ 0x5050444d'74726163ull);
  static std::atomic<std::uint64_t> next{0};
  const std::uint64_t id =
      Mix64(seed + next.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

std::uint64_t NewSpanId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SinceEpochNs(std::chrono::steady_clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

std::uint64_t SteadyNowNs() {
  return SinceEpochNs(std::chrono::steady_clock::now());
}

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : saved_(t_current_context) {
  t_current_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { t_current_context = saved_; }

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceRing& TraceRing::Global() {
  static TraceRing* const ring = [] {
    // Touch the loss counters so the exposition carries them from the
    // first scrape, not the first record.
    TraceRecordedCounter();
    TraceDroppedCounter();
    return new TraceRing;  // leaked on purpose
  }();
  return *ring;
}

void TraceRing::Record(SpanEvent event) {
  event.thread = ThreadTraceId();
  bool overwrote = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < capacity_) {
      events_.push_back(std::move(event));
    } else {
      events_[next_] = std::move(event);
      overwrote = true;
    }
    next_ = (next_ + 1) % capacity_;
    ++total_;
  }
  if (this == &Global()) {
    TraceRecordedCounter().Increment();
    if (overwrote) TraceDroppedCounter().Increment();
  }
}

std::vector<SpanEvent> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanEvent> ordered;
  ordered.reserve(events_.size());
  if (events_.size() < capacity_) {
    ordered = events_;
  } else {
    // next_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < events_.size(); ++i) {
      ordered.push_back(events_[(next_ + i) % capacity_]);
    }
  }
  return ordered;
}

std::uint64_t TraceRing::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t TraceRing::DroppedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - events_.size();
}

void TraceRing::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  next_ = 0;
  total_ = 0;
}

ScopedSpan::ScopedSpan(const char* name, Histogram* histogram, TraceRing* ring,
                       std::string labels)
    : span_(BeginSpan(name, TraceContext::Current(), std::move(labels))),
      histogram_(histogram),
      ring_(ring) {
  if (span_.name == nullptr) return;
  t_current_context = TraceContext{span_.trace_id, span_.span_id};
}

ScopedSpan::~ScopedSpan() {
  if (span_.name == nullptr) return;
  t_current_context = TraceContext{span_.trace_id, span_.parent_id};
  CloseSpan(&span_, SteadyNowNs(), histogram_, ring_);
}

PendingSpan BeginSpan(const char* name, TraceContext parent,
                      std::string labels) {
  PendingSpan span;
  if (!TimingEnabled()) return span;
  span.name = name;
  span.labels = std::move(labels);
  span.trace_id = parent.trace_id;
  span.parent_id = parent.span_id;
  span.span_id = NewSpanId();
  span.start_ns = SteadyNowNs();
  return span;
}

void EndSpan(PendingSpan* span, TraceRing* ring) {
  if (span == nullptr || span->name == nullptr) return;
  CloseSpan(span, SteadyNowNs(), nullptr, ring);
}

void RecordSpan(const char* name, std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point stop,
                Histogram* histogram, TraceRing* ring) {
  if (!TimingEnabled()) return;
  const TraceContext parent = TraceContext::Current();
  PendingSpan span;
  span.name = name;
  span.trace_id = parent.trace_id;
  span.parent_id = parent.span_id;
  span.span_id = NewSpanId();
  span.start_ns = SinceEpochNs(start);
  CloseSpan(&span, SinceEpochNs(stop), histogram, ring);
}

std::string RenderChromeTrace(const std::vector<SpanEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const SpanEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, event.name);
    out += "\",\"cat\":\"ppdm\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                  static_cast<double>(event.start_ns) * 1e-3,
                  static_cast<double>(event.duration_ns) * 1e-3, event.thread);
    out += buf;
    out += ",\"args\":{\"trace\":\"" + HexId(event.trace_id) +
           "\",\"span\":\"" + HexId(event.span_id) + "\",\"parent\":\"" +
           HexId(event.parent_id) + "\"";
    if (!event.labels.empty()) {
      out += ",\"labels\":\"";
      AppendJsonEscaped(&out, event.labels);
      out += "\"";
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

std::string RenderSpanTree(const std::vector<SpanEvent>& events,
                           std::uint64_t trace_id) {
  // Collect this trace's spans and index them by span id.
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].trace_id == trace_id) members.push_back(i);
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "trace %s (%zu spans)\n",
                HexId(trace_id).c_str(), members.size());
  out += line;
  if (members.empty()) return out;

  std::vector<std::size_t> roots;
  std::vector<std::vector<std::size_t>> children(members.size());
  // span id → member position; a parent id absent from the map means the
  // parent span was evicted from the ring (or never closed) — render the
  // orphan as a root rather than dropping it.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id;
  by_id.reserve(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    by_id.emplace_back(events[members[m]].span_id, m);
  }
  std::sort(by_id.begin(), by_id.end());
  const auto find_member = [&](std::uint64_t span_id) -> std::size_t {
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(),
        std::make_pair(span_id, static_cast<std::size_t>(0)));
    if (it != by_id.end() && it->first == span_id) return it->second;
    return members.size();  // not present
  };
  for (std::size_t m = 0; m < members.size(); ++m) {
    const SpanEvent& event = events[members[m]];
    const std::size_t parent =
        event.parent_id == 0 ? members.size() : find_member(event.parent_id);
    if (parent == members.size() ||
        events[members[parent]].span_id == event.span_id) {
      roots.push_back(m);
    } else {
      children[parent].push_back(m);
    }
  }
  const auto by_start = [&](std::size_t a, std::size_t b) {
    const SpanEvent& ea = events[members[a]];
    const SpanEvent& eb = events[members[b]];
    return ea.start_ns != eb.start_ns ? ea.start_ns < eb.start_ns
                                      : ea.span_id < eb.span_id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& list : children) std::sort(list.begin(), list.end(), by_start);

  // Iterative pre-order walk; each member appears in exactly one list, so
  // the walk terminates without a visited set.
  std::vector<std::pair<std::size_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [m, depth] = stack.back();
    stack.pop_back();
    const SpanEvent& event = events[members[m]];
    const int indent = std::min(depth, 16) * 2;
    std::snprintf(line, sizeof(line), "%*s%-s %.3fms", indent, "",
                  event.name.c_str(),
                  static_cast<double>(event.duration_ns) * 1e-6);
    out += line;
    if (!event.labels.empty()) {
      out += " {";
      out += event.labels;
      out += "}";
    }
    std::snprintf(line, sizeof(line), " thread %u\n", event.thread);
    out += line;
    for (auto it = children[m].rbegin(); it != children[m].rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return out;
}

}  // namespace ppdm::obs
