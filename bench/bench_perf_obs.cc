// P-OBS — cost of the observability layer's hot paths: recording a span
// into a trace ring (armed and fully disarmed), adopting a trace context,
// incrementing a labeled counter through the registry (cached-pointer and
// per-call lookup), and the begin/end pending-span pair the daemon pays
// per request. The disarmed rows bound the tracing tax when
// SetTimingEnabled(false) turns the whole layer off — the determinism
// contract says that toggle may change *nothing* but time.

#include <cstdio>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

int main() {
  using namespace ppdm;
  bench::PrintBanner("P-OBS", "observability hot-path costs");
  const std::size_t ops = bench::BenchRecords(2000000);
  std::printf("ops per case=%zu\n\n", ops);

  bench::ThroughputReporter reporter("ops", 3, "perf_obs");

  // Spans into a private ring, under an adopted context so every event
  // carries trace/span/parent ids — the armed steady state.
  obs::TraceRing ring(512);
  reporter.Measure("span.record", ops, "span.record", [&] {
    obs::ScopedTraceContext adopt(
        obs::TraceContext{obs::NewTraceId(), 0});
    for (std::size_t i = 0; i < ops; ++i) {
      obs::ScopedSpan span("bench.span", nullptr, &ring);
    }
  });

  // The same loop with instrumentation globally disarmed: the span
  // constructor must reduce to a flag test.
  obs::SetTimingEnabled(false);
  reporter.Measure("span.disarmed", ops, "span.record", [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      obs::ScopedSpan span("bench.span", nullptr, &ring);
    }
  });
  obs::SetTimingEnabled(true);

  // The daemon's per-request shape: open at dispatch, close in the
  // completion callback.
  reporter.Measure("span.begin_end", ops, "span.record", [&] {
    const obs::TraceContext parent{obs::NewTraceId(), 0};
    for (std::size_t i = 0; i < ops; ++i) {
      obs::PendingSpan pending = obs::BeginSpan("bench.pending", parent);
      obs::EndSpan(&pending, &ring);
    }
  });

  // Labeled counters: the steady-state increment through a cached
  // pointer, then the full name+labels lookup the dispatch path pays
  // when it resolves a tenant's series per request.
  obs::MetricsRegistry registry;
  obs::Counter* cached =
      registry.GetCounter("bench_labeled_total", obs::LabelSet{{"tenant", "t0"}});
  reporter.Measure("counter.increment", ops, "counter.increment", [&] {
    for (std::size_t i = 0; i < ops; ++i) cached->Increment();
  });
  const obs::LabelSet labels{{"tenant", "t0"}};
  reporter.Measure("counter.lookup_inc", ops, "counter.increment", [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      registry.GetCounter("bench_labeled_total", labels)->Increment();
    }
  });

  std::printf("\nring recorded=%llu dropped=%llu\n",
              static_cast<unsigned long long>(ring.TotalRecorded()),
              static_cast<unsigned long long>(ring.DroppedCount()));
  return 0;
}
