#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "common/check.h"

namespace ppdm::obs {
namespace {

std::atomic<bool> g_timing_enabled{true};

/// %.9g is enough to round-trip the bucket bounds and sums we render and
/// keeps exposition lines compact.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::uint64_t DoubleBits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void AppendEscapedLabelValue(std::string* out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

}  // namespace

std::string RenderLabelSet(const LabelSet& labels) {
  std::vector<const Label*> sorted;
  sorted.reserve(labels.size());
  for (const Label& label : labels) sorted.push_back(&label);
  std::sort(sorted.begin(), sorted.end(),
            [](const Label* a, const Label* b) {
              return a->key != b->key ? a->key < b->key : a->value < b->value;
            });
  std::string out;
  for (const Label* label : sorted) {
    if (!out.empty()) out += ",";
    out += label->key;
    out += "=\"";
    AppendEscapedLabelValue(&out, label->value);
    out += "\"";
  }
  return out;
}

void SetTimingEnabled(bool enabled) {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

bool TimingEnabled() {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

namespace internal {

std::size_t ThreadShard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

// ------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      cells_(internal::kShards * (bounds_.size() + 1)) {}

void Histogram::Observe(double value) {
  if (!TimingEnabled()) return;
  // First bucket whose upper bound admits the sample; the +Inf bucket
  // (index bounds_.size()) catches the rest.
  const std::size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  const std::size_t shard = internal::ThreadShard();
  cells_[shard * (bounds_.size() + 1) + bucket].value.fetch_add(
      1, std::memory_order_relaxed);
  // The sum cell is this shard's alone, so the CAS loop only ever retries
  // against increments from threads that happen to share the stripe.
  std::atomic<std::uint64_t>& sum = sums_[shard].bits;
  std::uint64_t observed = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(
      observed, DoubleBits(BitsDouble(observed) + value),
      std::memory_order_relaxed)) {
  }
}

std::vector<double> Histogram::ExponentialBuckets(double start, double factor,
                                                  std::size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  const std::size_t num_buckets = bounds_.size() + 1;
  std::vector<std::uint64_t> counts(num_buckets, 0);
  for (std::size_t s = 0; s < internal::kShards; ++s) {
    for (std::size_t b = 0; b < num_buckets; ++b) {
      counts[b] +=
          cells_[s * num_buckets + b].value.load(std::memory_order_relaxed);
    }
  }
  return counts;
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : BucketCounts()) total += c;
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const SumCell& cell : sums_) {
    total += BitsDouble(cell.bits.load(std::memory_order_relaxed));
  }
  return total;
}

double Histogram::Quantile(double q) const {
  const std::vector<std::uint64_t> counts = BucketCounts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target sample, 1-based; walk the cumulative counts.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < rank) continue;
    if (b >= bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
    const double hi = bounds_[b];
    const double lo = b == 0 ? 0.0 : bounds_[b - 1];
    const double within =
        (rank - static_cast<double>(before)) / static_cast<double>(counts[b]);
    return lo + (hi - lo) * std::min(std::max(within, 0.0), 1.0);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::Reset() {
  for (internal::Cell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
  for (SumCell& cell : sums_) {
    cell.bits.store(0, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry;  // leaked
  return *registry;
}

const char* MetricsRegistry::KindName(Kind kind) {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

MetricsRegistry::Instrument* MetricsRegistry::Get(
    Kind kind, const std::string& name, const LabelSet& labels,
    std::vector<double>* bounds) {
  const std::string rendered = RenderLabelSet(labels);
  std::lock_guard<std::mutex> lock(mu_);
  for (Instrument& instrument : instruments_) {
    if (instrument.name != name) continue;
    // A family has one kind: its exposition has one TYPE line, and the
    // caller would dereference the requested kind's (empty) member.
    PPDM_CHECK_MSG(instrument.kind == kind,
                   ("metric '" + name + "' is a " +
                    KindName(instrument.kind) + ", requested as a " +
                    KindName(kind))
                       .c_str());
    if (instrument.labels == rendered) return &instrument;
  }
  Instrument& instrument = instruments_.emplace_back();
  instrument.kind = kind;
  instrument.name = name;
  instrument.labels = rendered;
  switch (kind) {
    case Kind::kCounter:
      instrument.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      instrument.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      instrument.histogram = std::make_unique<Histogram>(
          bounds != nullptr ? std::move(*bounds) : std::vector<double>{});
      break;
  }
  return &instrument;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  return Get(Kind::kCounter, name, labels, nullptr)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  return Get(Kind::kGauge, name, labels, nullptr)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const LabelSet& labels) {
  return Get(Kind::kHistogram, name, labels, &bounds)->histogram.get();
}

std::string MetricsRegistry::RenderText() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Group instruments into families (same name, different labels) and
  // render families in name order for a stable exposition.
  std::map<std::string, std::vector<const Instrument*>> families;
  for (const Instrument& instrument : instruments_) {
    families[instrument.name].push_back(&instrument);
  }
  std::string out;
  for (const auto& [name, members] : families) {
    out += "# TYPE " + name + " " + KindName(members.front()->kind) + "\n";
    for (const Instrument* instrument : members) {
      const std::string& labels = instrument->labels;
      switch (instrument->kind) {
        case Kind::kCounter:
          out += name + (labels.empty() ? "" : "{" + labels + "}") + " " +
                 std::to_string(instrument->counter->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += name + (labels.empty() ? "" : "{" + labels + "}") + " " +
                 std::to_string(instrument->gauge->Value()) + "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *instrument->histogram;
          const std::vector<std::uint64_t> counts = h.BucketCounts();
          const std::string prefix = labels.empty() ? "" : labels + ",";
          std::uint64_t cumulative = 0;
          for (std::size_t b = 0; b < h.bounds().size(); ++b) {
            cumulative += counts[b];
            out += name + "_bucket{" + prefix + "le=\"" +
                   FormatDouble(h.bounds()[b]) + "\"} " +
                   std::to_string(cumulative) + "\n";
          }
          cumulative += counts.back();
          out += name + "_bucket{" + prefix + "le=\"+Inf\"} " +
                 std::to_string(cumulative) + "\n";
          out += name + "_sum" +
                 (labels.empty() ? "" : "{" + labels + "}") + " " +
                 FormatDouble(h.Sum()) + "\n";
          out += name + "_count" +
                 (labels.empty() ? "" : "{" + labels + "}") + " " +
                 std::to_string(cumulative) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Instrument& instrument : instruments_) {
    switch (instrument.kind) {
      case Kind::kCounter:
        instrument.counter->Reset();
        break;
      case Kind::kGauge:
        instrument.gauge->Reset();
        break;
      case Kind::kHistogram:
        instrument.histogram->Reset();
        break;
    }
  }
}

}  // namespace ppdm::obs
