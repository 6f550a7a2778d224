// Tests for the observability layer (src/obs): instrument semantics,
// exposition well-formedness, thread-safety under concurrent scrape (the
// TSan job builds this binary), and the layer's core contract — telemetry
// never changes what the serving stack computes.

#include <chrono>
#include <cstring>
#include <optional>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset_session.h"
#include "common/random.h"
#include "data/row_batch.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/generator.h"

namespace ppdm {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::ScopedSpan;
using obs::ScopedTimer;
using obs::SpanEvent;
using obs::TraceRing;

// Every test touching the global timing flag restores it; instruments use
// test-unique names so tests stay independent inside one process.

// A span outside any trace (all ids 0), as TraceRing::Record takes it.
SpanEvent FlatSpan(const char* name, std::uint64_t start_ns,
                   std::uint64_t duration_ns) {
  SpanEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.duration_ns = duration_ns;
  return event;
}

TEST(CounterTest, IncrementsAndMerges) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, AddAndSet) {
  Gauge gauge;
  gauge.Add(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.Value(), 3);
  gauge.Set(100);
  EXPECT_EQ(gauge.Value(), 100);
  gauge.Add(-150);
  EXPECT_EQ(gauge.Value(), -50);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(HistogramTest, BucketsCountAndSum) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);   // bucket 0 (le="1")
  histogram.Observe(1.5);   // bucket 1 (le="2")
  histogram.Observe(2.0);   // also bucket 1 — le bounds are inclusive
  histogram.Observe(100.0); // +Inf bucket
  const std::vector<std::uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.5 + 1.5 + 2.0 + 100.0);
  histogram.Reset();
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.0);
}

TEST(HistogramTest, QuantilesInterpolate) {
  Histogram histogram({10.0, 20.0, 30.0});
  // 10 samples uniform in (0,10], 10 in (10,20].
  for (int i = 0; i < 10; ++i) histogram.Observe(5.0);
  for (int i = 0; i < 10; ++i) histogram.Observe(15.0);
  // Rank 10 of 20 sits at the boundary of the first bucket.
  EXPECT_NEAR(histogram.Quantile(0.5), 10.0, 1.0);
  // The top of the occupied range.
  EXPECT_NEAR(histogram.Quantile(1.0), 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(Histogram({1.0}).Quantile(0.5), 0.0);  // empty
  // +Inf samples clamp to the last finite bound.
  Histogram overflow({1.0});
  overflow.Observe(50.0);
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.99), 1.0);
}

TEST(HistogramTest, ExponentialBuckets) {
  const std::vector<double> bounds =
      Histogram::ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ScopedTimerTest, RecordsOnceAndStopDisarms) {
  Histogram histogram(Histogram::LatencyBucketsSeconds());
  {
    ScopedTimer timer(&histogram);
    EXPECT_GE(timer.Stop(), 0.0);
    // Disarmed: destruction must not record a second sample.
  }
  EXPECT_EQ(histogram.Count(), 1u);
  {
    ScopedTimer timer(&histogram);  // records via the destructor
  }
  EXPECT_EQ(histogram.Count(), 2u);
  ScopedTimer null_timer(nullptr);  // must be inert
  EXPECT_DOUBLE_EQ(null_timer.Stop(), 0.0);
}

TEST(TimingEnabledTest, DisablingElidesSamples) {
  Histogram histogram(Histogram::LatencyBucketsSeconds());
  obs::SetTimingEnabled(false);
  histogram.Observe(1.0);
  {
    ScopedTimer timer(&histogram);
  }
  EXPECT_EQ(histogram.Count(), 0u);
  obs::SetTimingEnabled(true);
  histogram.Observe(1.0);
  EXPECT_EQ(histogram.Count(), 1u);
}

TEST(MetricsRegistryTest, IdentityIsNamePlusLabels) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("obs_test_ids_total");
  EXPECT_EQ(a, registry.GetCounter("obs_test_ids_total"));
  EXPECT_NE(a, registry.GetCounter("obs_test_ids_total", {{"kind", "x"}}));
  Histogram* h = registry.GetHistogram("obs_test_ids_seconds", {1.0, 2.0});
  // First registration wins, even with different bounds.
  EXPECT_EQ(h, registry.GetHistogram("obs_test_ids_seconds", {5.0}));
  EXPECT_EQ(h->bounds().size(), 2u);
}

// A name keeps the kind it was first registered with, under any label
// set: asking for it as another kind aborts, naming both, instead of
// handing back a null instrument the caller would dereference.
TEST(MetricsRegistryDeathTest, KindClashAbortsNamingBothKinds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry registry;
  registry.GetGauge("obs_test_clash_total");
  registry.GetHistogram("obs_test_clash_seconds", {1.0}, {{"verb", "a"}});
  EXPECT_DEATH(registry.GetCounter("obs_test_clash_total"),
               "'obs_test_clash_total' is a gauge, requested as a counter");
  EXPECT_DEATH(
      registry.GetGauge("obs_test_clash_seconds", {{"verb", "b"}}),
      "'obs_test_clash_seconds' is a histogram, requested as a gauge");
  EXPECT_NE(registry.GetGauge("obs_test_clash_total"), nullptr);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsPointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("obs_test_reset_total");
  Histogram* histogram =
      registry.GetHistogram("obs_test_reset_seconds", {1.0});
  counter->Increment(7);
  histogram->Observe(0.5);
  registry.ResetAll();
  EXPECT_EQ(counter, registry.GetCounter("obs_test_reset_total"));
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Count(), 0u);
}

// Every non-comment exposition line must parse as `name{labels} value` —
// the same property the CI smoke asserts on the live binary.
TEST(MetricsRegistryTest, RenderTextIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("obs_test_render_total")->Increment(3);
  registry.GetGauge("obs_test_render_depth")->Set(-2);
  Histogram* histogram = registry.GetHistogram(
      "obs_test_render_seconds", {0.001, 0.01}, {{"kind", "unit"}});
  histogram->Observe(0.005);
  histogram->Observe(5.0);

  const std::string text = registry.RenderText();
  ASSERT_FALSE(text.empty());
  const std::regex type_line("# TYPE [a-zA-Z_][a-zA-Z0-9_]* "
                             "(counter|gauge|histogram)");
  const std::regex sample_line(
      "[a-zA-Z_][a-zA-Z0-9_]*(\\{[^{}]*\\})? -?[0-9.eE+-]+");
  std::size_t samples = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, type_line)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_line)) << line;
      ++samples;
    }
  }
  EXPECT_GT(samples, 0u);
  EXPECT_NE(text.find("obs_test_render_total 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test_render_depth -2"), std::string::npos);
  // Histogram renders the cumulative series plus _sum/_count, with the
  // instrument labels composed before le.
  EXPECT_NE(text.find("obs_test_render_seconds_bucket{kind=\"unit\","
                      "le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_seconds_count{kind=\"unit\"} 2"),
            std::string::npos);
}

// The lock-striped cells under fire: writers increment while a scraper
// merges and renders. TSan (the CI tsan job builds this test) verifies
// the absence of data races; the final totals verify no lost updates.
TEST(MetricsRegistryTest, ConcurrentIncrementAndScrape) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("obs_test_race_total");
  Gauge* gauge = registry.GetGauge("obs_test_race_depth");
  Histogram* histogram =
      registry.GetHistogram("obs_test_race_seconds", {1e-3, 1e-2, 1e-1});

  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
        gauge->Add(1);
        gauge->Add(-1);
        histogram->Observe(5e-3);
      }
    });
  }
  // Scrape continuously while the writers run.
  for (int s = 0; s < 50; ++s) {
    (void)counter->Value();
    (void)gauge->Value();
    (void)histogram->BucketCounts();
    (void)registry.RenderText();
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(counter->Value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(histogram->Count(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(TraceRingTest, BoundedOldestFirst) {
  TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ring.Record(FlatSpan("span", /*start_ns=*/i * 100, /*duration_ns=*/i));
  }
  const std::vector<SpanEvent> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().duration_ns, 3u);  // 1 and 2 were overwritten
  EXPECT_EQ(spans.back().duration_ns, 6u);
  EXPECT_EQ(ring.TotalRecorded(), 6u);
  EXPECT_EQ(ring.DroppedCount(), 2u);
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.TotalRecorded(), 0u);
}

TEST(ScopedSpanTest, RecordsRingAndHistogram) {
  TraceRing ring(8);
  Histogram histogram(Histogram::LatencyBucketsSeconds());
  {
    ScopedSpan span("obs_test.work", &histogram, &ring);
  }
  const std::vector<SpanEvent> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "obs_test.work");
  EXPECT_EQ(histogram.Count(), 1u);

  obs::SetTimingEnabled(false);
  {
    ScopedSpan span("obs_test.disabled", &histogram, &ring);
  }
  obs::SetTimingEnabled(true);
  EXPECT_EQ(ring.Snapshot().size(), 1u);
  EXPECT_EQ(histogram.Count(), 1u);
}

TEST(TraceContextTest, IdsAreNonZeroAndDistinct) {
  const std::uint64_t a = obs::NewTraceId();
  const std::uint64_t b = obs::NewTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(obs::NewSpanId(), obs::NewSpanId());
}

TEST(TraceContextTest, ScopedAdoptInstallsAndRestores) {
  EXPECT_EQ(obs::TraceContext::Current().trace_id, 0u);
  {
    obs::ScopedTraceContext outer(obs::TraceContext{42, 7});
    EXPECT_EQ(obs::TraceContext::Current().trace_id, 42u);
    EXPECT_EQ(obs::TraceContext::Current().span_id, 7u);
    {
      obs::ScopedTraceContext inner(obs::TraceContext{43, 8});
      EXPECT_EQ(obs::TraceContext::Current().trace_id, 43u);
    }
    EXPECT_EQ(obs::TraceContext::Current().trace_id, 42u);
    EXPECT_EQ(obs::TraceContext::Current().span_id, 7u);
  }
  EXPECT_EQ(obs::TraceContext::Current().trace_id, 0u);
}

// Nested ScopedSpans under an adopted context must form a well-nested
// tree: each child's parent is the enclosing span, all share the trace.
TEST(ScopedSpanTest, NestedSpansParentCorrectly) {
  TraceRing ring(8);
  const std::uint64_t trace = obs::NewTraceId();
  {
    obs::ScopedTraceContext adopt(obs::TraceContext{trace, 7});
    ScopedSpan outer("obs_test.outer", nullptr, &ring);
    { ScopedSpan inner("obs_test.inner", nullptr, &ring); }
  }
  const std::vector<SpanEvent> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanEvent& inner = spans[0];  // closes first
  const SpanEvent& outer = spans[1];
  EXPECT_EQ(inner.name, "obs_test.inner");
  EXPECT_EQ(outer.name, "obs_test.outer");
  EXPECT_EQ(outer.trace_id, trace);
  EXPECT_EQ(inner.trace_id, trace);
  EXPECT_EQ(outer.parent_id, 7u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_NE(inner.span_id, outer.span_id);
  // Well-nested in time too.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
}

// The daemon's request-span shape: a root under an installed trace id,
// opened at an earlier steady-clock reading and ended before its scope
// closes. It records once, with its labels and the back-dated start, and
// End() returns the seconds it recorded.
TEST(ScopedSpanTest, BackDatedEndRecordsOnceAndIsIdempotent) {
  TraceRing ring(8);
  const std::uint64_t trace = obs::NewTraceId();
  const auto start =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  const auto start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  double seconds = 0.0;
  {
    obs::ScopedTraceContext root(obs::TraceContext{trace, 0});
    ScopedSpan span("obs_test.request", start, nullptr, &ring,
                    "tenant=\"t1\"");
    seconds = span.End();
    EXPECT_EQ(span.End(), 0.0);  // second close must be a no-op
    // Ending restored the enclosing context.
    EXPECT_EQ(obs::TraceContext::Current().trace_id, trace);
    EXPECT_EQ(obs::TraceContext::Current().span_id, 0u);
  }  // nor may the destructor record it again
  const std::vector<SpanEvent> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "obs_test.request");
  EXPECT_EQ(spans[0].trace_id, trace);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].labels, "tenant=\"t1\"");
  EXPECT_EQ(spans[0].start_ns, start_ns);
  EXPECT_GE(spans[0].duration_ns, 5000000u);
  EXPECT_DOUBLE_EQ(seconds, static_cast<double>(spans[0].duration_ns) * 1e-9);

  obs::SetTimingEnabled(false);
  {
    obs::ScopedTraceContext root(obs::TraceContext{trace, 0});
    ScopedSpan disarmed("obs_test.disarmed", start, nullptr, &ring);
    EXPECT_EQ(disarmed.End(), 0.0);
  }
  obs::SetTimingEnabled(true);
  EXPECT_EQ(ring.Snapshot().size(), 1u);
}

// Concurrent requests, each its own trace: every trace's spans must stay
// self-contained (no cross-trace parents) and well-nested in time.
TEST(SpanTreeTest, ConcurrentRequestsStayWellNested) {
  TraceRing ring(256);
  constexpr int kRequests = 8;
  std::vector<std::uint64_t> traces(kRequests);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRequests; ++r) {
    traces[r] = obs::NewTraceId();
    threads.emplace_back([&ring, trace = traces[r]] {
      obs::ScopedTraceContext adopt(obs::TraceContext{trace, 0});
      ScopedSpan request("obs_test.request", nullptr, &ring);
      for (int i = 0; i < 3; ++i) {
        ScopedSpan step("obs_test.step", nullptr, &ring);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<SpanEvent> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kRequests) * 4);
  for (const std::uint64_t trace : traces) {
    const SpanEvent* root = nullptr;
    std::vector<const SpanEvent*> members;
    for (const SpanEvent& span : spans) {
      if (span.trace_id != trace) continue;
      members.push_back(&span);
      if (span.parent_id == 0) root = &span;
    }
    ASSERT_EQ(members.size(), 4u);
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->name, "obs_test.request");
    for (const SpanEvent* span : members) {
      if (span == root) continue;
      // Every step hangs off the request and fits inside it.
      EXPECT_EQ(span->parent_id, root->span_id);
      EXPECT_GE(span->start_ns, root->start_ns);
      EXPECT_LE(span->start_ns + span->duration_ns,
                root->start_ns + root->duration_ns);
    }
  }
  const std::string tree = obs::RenderSpanTree(spans, traces[0]);
  EXPECT_NE(tree.find("obs_test.request"), std::string::npos);
  EXPECT_NE(tree.find("  obs_test.step"), std::string::npos);  // indented
}

TEST(TraceRingTest, GlobalRingFeedsRecordedAndDroppedCounters) {
  auto& registry = MetricsRegistry::Global();
  Counter* recorded = registry.GetCounter("ppdm_trace_recorded_total");
  Counter* dropped = registry.GetCounter("ppdm_trace_dropped_total");
  const std::uint64_t recorded_before = recorded->Value();
  const std::uint64_t dropped_before = dropped->Value();
  const std::size_t capacity = TraceRing::Global().capacity();
  for (std::size_t i = 0; i < capacity + 5; ++i) {
    TraceRing::Global().Record(FlatSpan("obs_test.flood", 1, 1));
  }
  EXPECT_GE(recorded->Value(), recorded_before + capacity + 5);
  EXPECT_GE(dropped->Value() - dropped_before, 5u);
  // A private ring never touches the process counters.
  TraceRing local(2);
  const std::uint64_t recorded_mid = recorded->Value();
  local.Record(FlatSpan("obs_test.local", 1, 1));
  EXPECT_EQ(recorded->Value(), recorded_mid);
  // Both families are present in the exposition.
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("ppdm_trace_recorded_total"), std::string::npos);
  EXPECT_NE(text.find("ppdm_trace_dropped_total"), std::string::npos);
}

TEST(LabelSetTest, RenderCanonicalizesOrderAndEscapes) {
  EXPECT_EQ(obs::RenderLabelSet({}), "");
  EXPECT_EQ(obs::RenderLabelSet({{"tenant", "t1"}}), "tenant=\"t1\"");
  // Sorted by key regardless of insertion order.
  EXPECT_EQ(obs::RenderLabelSet({{"verb", "open"}, {"tenant", "t1"}}),
            "tenant=\"t1\",verb=\"open\"");
  // Quotes, backslashes and newlines escape per the Prometheus text rules.
  EXPECT_EQ(obs::RenderLabelSet({{"key", "a\"b\\c\nd"}}),
            "key=\"a\\\"b\\\\c\\nd\"");
}

TEST(LabelSetTest, LabelOrderNeverSplitsASeries) {
  MetricsRegistry registry;
  Counter* forward = registry.GetCounter(
      "obs_test_family_total", {{"tenant", "t1"}, {"verb", "open"}});
  Counter* reversed = registry.GetCounter(
      "obs_test_family_total", {{"verb", "open"}, {"tenant", "t1"}});
  EXPECT_EQ(forward, reversed);
  forward->Increment(3);
  const std::string text = registry.RenderText();
  EXPECT_NE(
      text.find("obs_test_family_total{tenant=\"t1\",verb=\"open\"} 3"),
      std::string::npos);
}

TEST(ChromeTraceTest, RendersValidEventShape) {
  TraceRing ring(8);
  const std::uint64_t trace = obs::NewTraceId();
  {
    obs::ScopedTraceContext adopt(obs::TraceContext{trace, 0});
    ScopedSpan span("obs_test.chrome", nullptr, &ring,
                    "tenant=\"t\\\"1\"");
  }
  const std::string json = obs::RenderChromeTrace(ring.Snapshot());
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs_test.chrome\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Label quotes arrive JSON-escaped, not raw.
  EXPECT_NE(json.find("tenant=\\\"t"), std::string::npos);
  EXPECT_EQ(json.find("tenant=\"t"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  std::ptrdiff_t braces = 0;
  std::ptrdiff_t brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // An empty snapshot still renders a loadable document.
  EXPECT_NE(obs::RenderChromeTrace({}).find("\"traceEvents\":["),
            std::string::npos);
}

// ------------------------------------------------------------ determinism
//
// The layer's core contract: instrumenting the serving stack changes
// nothing about what it computes. One perturbed stream, ingested and
// reconstructed at several thread counts with metrics enabled and
// disabled, must yield bit-identical masses in every configuration pair.
// Its first batch spans three ingestion shards, so the sharded fold and
// its merge run under every configuration.

std::vector<double> ReconstructedBits(std::size_t threads) {
  api::DatasetSessionSpec spec;
  spec.schema = synth::BenchmarkSchema();
  api::AttributeSpec attr;
  attr.column = 0;  // salary
  attr.intervals = 20;
  attr.noise = perturb::NoiseKind::kUniform;
  attr.privacy_fraction = 1.0;
  attr.confidence = 0.95;
  spec.attributes.push_back(attr);

  std::optional<engine::ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  Result<std::unique_ptr<api::DatasetSession>> session =
      api::DatasetSession::Open(spec, pool ? &*pool : nullptr);
  EXPECT_TRUE(session.ok()) << session.status().message();

  synth::GeneratorOptions gen;
  gen.num_records = 40000;
  gen.function = synth::Function::kF1;
  gen.seed = 20000607;
  synth::RecordStream stream(gen);
  Rng noise_rng(99);
  std::vector<double> scratch;
  while (!stream.Done()) {
    const data::RowBatch rows =
        stream.Next(2 * engine::kIngestShardRows + 500);
    scratch.assign(rows.values(),
                   rows.values() + rows.num_rows() * rows.num_cols());
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      scratch[r * rows.num_cols()] +=
          session.value()->noise_model(0).Sample(&noise_rng);
    }
    const Status ingested = session.value()->Ingest(data::RowBatch(
        scratch.data(), rows.num_rows(), rows.num_cols()));
    EXPECT_TRUE(ingested.ok()) << ingested.message();
  }
  Result<std::vector<reconstruct::Reconstruction>> estimates =
      session.value()->ReconstructAll();
  EXPECT_TRUE(estimates.ok()) << estimates.status().message();
  return estimates.value().front().masses;
}

bool BitIdentical(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(DeterminismTest, MetricsNeverPerturbReconstruction) {
  ASSERT_TRUE(obs::TimingEnabled());
  for (const std::size_t threads : {0, 1, 2, 8}) {
    const std::vector<double> with_metrics = ReconstructedBits(threads);
    ASSERT_FALSE(with_metrics.empty());
    obs::SetTimingEnabled(false);
    const std::vector<double> without_metrics = ReconstructedBits(threads);
    obs::SetTimingEnabled(true);
    EXPECT_TRUE(BitIdentical(with_metrics, without_metrics))
        << "metrics on/off diverge at threads=" << threads;
  }
  // The engine's own cross-thread-count guarantee, with metrics enabled.
  const std::vector<double> one = ReconstructedBits(1);
  EXPECT_TRUE(BitIdentical(one, ReconstructedBits(2)));
  EXPECT_TRUE(BitIdentical(one, ReconstructedBits(8)));
}

// Same contract for causal tracing: running the whole pipeline inside an
// active trace (context installed, spans recording to the global ring)
// changes nothing, at every thread shape, and neither does disabling
// instrumentation outright.
TEST(DeterminismTest, TracingNeverPerturbsReconstruction) {
  ASSERT_TRUE(obs::TimingEnabled());
  for (const std::size_t threads : {0, 1, 2, 8}) {
    const std::vector<double> untraced = ReconstructedBits(threads);
    ASSERT_FALSE(untraced.empty());
    std::vector<double> traced;
    {
      obs::ScopedTraceContext adopt(
          obs::TraceContext{obs::NewTraceId(), 0});
      ScopedSpan root("obs_test.traced_request");
      traced = ReconstructedBits(threads);
    }
    EXPECT_TRUE(BitIdentical(untraced, traced))
        << "tracing on/off diverge at threads=" << threads;
    obs::SetTimingEnabled(false);
    const std::vector<double> disarmed = ReconstructedBits(threads);
    obs::SetTimingEnabled(true);
    EXPECT_TRUE(BitIdentical(untraced, disarmed))
        << "disarmed tracing diverges at threads=" << threads;
  }
}

}  // namespace
}  // namespace ppdm
