#include "api/dataset_session.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "api/spec.h"
#include "common/strings.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdm::api {
namespace {

// Session telemetry, recorded per call (one batch, one refresh) — the
// sharded fold itself is untouched. Latencies also land in the global
// trace ring, so a `--trace-out` dump shows recent ingests/refreshes.
obs::Histogram& IngestSecondsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_session_ingest_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Histogram& ReconstructSecondsHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_session_reconstruct_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Counter& IngestRecordsCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_session_ingest_records_total");
  return counter;
}

obs::Counter& IngestBatchesCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_session_ingest_batches_total");
  return counter;
}

obs::Counter& IngestRejectedCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_session_ingest_rejected_total");
  return counter;
}

// Kernel tables: a build on an attribute's first refit, a hit on every
// later one (the O(wbins + K) CDF evaluations it skips); memo hits touch
// no table.
obs::Counter& KernelCacheHitsCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_kernel_cache_hits_total");
  return counter;
}

obs::Counter& KernelCacheBuildsCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_kernel_cache_builds_total");
  return counter;
}

// A fresh fit tag: one process-wide counter, so no two installs (in any
// session) ever share a tag, and 0 is never minted.
std::uint64_t NewFitTag() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Upper bound on an attribute's interval count and on the padding bins its
// perturbed layout derives per side: far beyond any real workload, but
// small enough that building the session cannot become an allocation
// abort.
constexpr double kMaxLayoutBins = static_cast<double>(1u << 20);

// The per-attribute checks: the field's domain with the declared interval
// count, the providers' noise, and the size of the layout they derive.
// PerturbedBinning pads the partition by ceil(EffectiveHalfWidth / width)
// bins per side, so valid noise settings (a confidence of 1e-12, say) can
// still derive an astronomically large w-grid. Every way a spec reaches a
// session (the `open` verb, Restore, a decoded snapshot) runs this first.
Status ValidateAttribute(const data::FieldSpec& field,
                         const AttributeSpec& attr) {
  PPDM_RETURN_IF_ERROR(ValidateDomain(field.lo, field.hi, attr.intervals));
  if (static_cast<double>(attr.intervals) > kMaxLayoutBins) {
    return Status::InvalidArgument(StrFormat(
        "%zu intervals exceed the layout bound of %.0f", attr.intervals,
        kMaxLayoutBins));
  }
  perturb::RandomizerOptions as_noise;
  as_noise.kind = attr.noise;
  as_noise.privacy_fraction = attr.privacy_fraction;
  as_noise.confidence = attr.confidence;
  PPDM_RETURN_IF_ERROR(ValidateNoise(as_noise));
  // A noise width that is not a normal double would round the derived
  // noise scale to 0 or make it infinite.
  if (attr.noise != perturb::NoiseKind::kNone &&
      !std::isnormal(attr.privacy_fraction * field.Range())) {
    return Status::InvalidArgument(StrFormat(
        "privacy %g of a %g-wide domain derives no usable noise width",
        attr.privacy_fraction, field.Range()));
  }
  const perturb::NoiseModel model = perturb::NoiseForPrivacy(
      attr.noise, attr.privacy_fraction, field.Range(), attr.confidence);
  const stats::Partition partition(field.lo, field.hi, attr.intervals);
  const double pad = model.EffectiveHalfWidth() / partition.width();
  if (std::isfinite(pad) && pad <= kMaxLayoutBins) {
    // Near the ends of the double range the padded grid's edges or width
    // can still overflow.
    const stats::Partition wgrid =
        reconstruct::BayesReconstructor(model, {}).PerturbedBinning(
            partition);
    if (std::isfinite(wgrid.lo()) && std::isfinite(wgrid.hi()) &&
        std::isfinite(wgrid.width())) {
      return Status::Ok();
    }
  }
  return Status::InvalidArgument(
      "noise and domain derive an implausibly large perturbed-value bin "
      "layout");
}

}  // namespace

Status DatasetSessionSpec::Validate() const {
  PPDM_RETURN_IF_ERROR(schema.Validate());
  if (attributes.empty()) {
    return Status::InvalidArgument(
        "dataset session needs at least one attribute spec");
  }
  std::vector<bool> seen(schema.NumFields(), false);
  for (std::size_t a = 0; a < attributes.size(); ++a) {
    const AttributeSpec& attr = attributes[a];
    if (attr.column >= schema.NumFields()) {
      return Status::InvalidArgument(
          StrFormat("attribute %zu: column %zu out of range for a %zu-field "
                    "schema",
                    a, attr.column, schema.NumFields()));
    }
    if (seen[attr.column]) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: column %zu appears more than once", a,
          attr.column));
    }
    seen[attr.column] = true;
    const Status s = ValidateAttribute(schema.Field(attr.column), attr);
    if (!s.ok()) {
      return Status::InvalidArgument(
          StrFormat("attribute %zu ('%s'): %s", a,
                    schema.Field(attr.column).name.c_str(),
                    s.message().c_str()));
    }
  }
  return Status::Ok();
}

DatasetSession::Attribute::Attribute(const data::FieldSpec& field,
                                     const AttributeSpec& spec)
    : partition(field.lo, field.hi, spec.intervals),
      reconstructor(perturb::NoiseForPrivacy(spec.noise,
                                             spec.privacy_fraction,
                                             field.Range(), spec.confidence),
                    reconstruct::ReconstructionOptions{}),
      counts(reconstructor.PerturbedBinning(partition)) {}

DatasetSession::DatasetSession(const DatasetSessionSpec& spec,
                               engine::ThreadPool* pool)
    : spec_(spec), pool_(pool) {
  attrs_.reserve(spec_.attributes.size());
  columns_.reserve(spec_.attributes.size());
  for (const AttributeSpec& attr : spec_.attributes) {
    attrs_.emplace_back(spec_.schema.Field(attr.column), attr);
    columns_.push_back(attr.column);
  }
}

Result<std::unique_ptr<DatasetSession>> DatasetSession::Open(
    const DatasetSessionSpec& spec, engine::ThreadPool* pool) {
  PPDM_RETURN_IF_ERROR(spec.Validate());
  return std::unique_ptr<DatasetSession>(new DatasetSession(spec, pool));
}

Result<std::unique_ptr<DatasetSession>> DatasetSession::Restore(
    const DatasetSessionSpec& spec, DatasetSessionState state,
    engine::ThreadPool* pool) {
  PPDM_RETURN_IF_ERROR(spec.Validate());
  std::unique_ptr<DatasetSession> session(new DatasetSession(spec, pool));

  const std::size_t num_attrs = session->attrs_.size();
  if (state.counts.size() != num_attrs ||
      state.last_masses.size() != num_attrs) {
    return Status::InvalidArgument(StrFormat(
        "snapshot state carries %zu/%zu attribute entries, spec has %zu",
        state.counts.size(), state.last_masses.size(), num_attrs));
  }
  if (state.fitted_rows > state.rows) {
    return Status::InvalidArgument(StrFormat(
        "memoized fit claims %llu rows, the session holds %llu",
        static_cast<unsigned long long>(state.fitted_rows),
        static_cast<unsigned long long>(state.rows)));
  }
  // A refit memoizes every attribute at once, and only over rows > 0.
  const bool has_memo = state.fitted_rows > 0;
  for (std::size_t a = 0; a < num_attrs; ++a) {
    const Attribute& derived = session->attrs_[a];
    const std::vector<std::uint64_t>& counts = state.counts[a];
    if (counts.size() != derived.counts.bins()) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: snapshot counts are %zu bins; the spec derives %zu",
          a, counts.size(), derived.counts.bins()));
    }
    // A sum that wraps around 2^64 is refused too, so astronomical counts
    // cannot pass for the claimed rows.
    std::uint64_t total = 0;
    bool wrapped = false;
    for (std::uint64_t c : counts) {
      wrapped = wrapped || total + c < total;
      total += c;
    }
    if (wrapped || total != state.rows) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: counts sum to %llu%s, session claims %llu", a,
          static_cast<unsigned long long>(total), wrapped ? " (wrapped)" : "",
          static_cast<unsigned long long>(state.rows)));
    }
    const std::vector<double>& masses = state.last_masses[a];
    if (masses.empty() == has_memo) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: %s memoized masses for a fit over %llu rows", a,
          has_memo ? "no" : "unexpected",
          static_cast<unsigned long long>(state.fitted_rows)));
    }
    if (!masses.empty() && masses.size() != derived.partition.intervals()) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: %zu memoized masses for a %zu-interval partition",
          a, masses.size(), derived.partition.intervals()));
    }
    double sum = 0.0;
    for (double m : masses) {
      if (!std::isfinite(m) || m < 0.0) {
        return Status::InvalidArgument(StrFormat(
            "attribute %zu: non-finite or negative memoized mass", a));
      }
      sum += m;
    }
    if (!masses.empty() && std::fabs(sum - 1.0) > 1e-9) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: memoized masses sum to %.17g, not 1", a, sum));
    }
  }

  // Shapes agree; install. No lock needed — the session has not escaped.
  for (std::size_t a = 0; a < num_attrs; ++a) {
    Attribute& attr = session->attrs_[a];
    attr.counts = stats::Histogram(attr.counts.partition(),
                                   std::move(state.counts[a]));
    attr.last_masses = std::move(state.last_masses[a]);
  }
  session->rows_ = state.rows;
  session->batches_ = state.batches;
  session->fitted_rows_ = state.fitted_rows;
  if (has_memo) session->fit_tag_ = NewFitTag();
  return session;
}

DatasetSessionState DatasetSession::ExportState() const {
  std::lock_guard<std::mutex> lock(mu_);
  DatasetSessionState state;
  state.rows = rows_;
  state.batches = batches_;
  state.fitted_rows = fitted_rows_;
  state.counts.reserve(attrs_.size());
  state.last_masses.reserve(attrs_.size());
  for (const Attribute& attr : attrs_) {
    state.counts.push_back(attr.counts.counts());
    state.last_masses.push_back(attr.last_masses);
  }
  return state;
}

Status DatasetSession::Ingest(const data::RowBatch& rows) {
  return Fold(rows, spec_.schema.NumFields(), columns_);
}

Status DatasetSession::IngestTracked(const data::RowBatch& rows) {
  // Attribute a sits at column a of a tracked row.
  std::vector<std::size_t> positions(columns_.size());
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  return Fold(rows, positions.size(), positions);
}

Status DatasetSession::Fold(const data::RowBatch& rows, std::size_t width,
                            const std::vector<std::size_t>& columns) {
  obs::ScopedSpan span("session.ingest", &IngestSecondsHistogram());
  if (rows.num_rows() > 0 && rows.num_cols() != width) {
    IngestRejectedCounter().Increment();
    return Status::InvalidArgument(
        StrFormat("row batch is %zu columns wide, the session expects %zu",
                  rows.num_cols(), width));
  }

  // Binning runs over the pool and outside the session lock; counting runs
  // under it. `bins` holds 4 B per tracked value, at most half the batch's
  // own 8 B per value. One non-finite value rejects the whole batch before
  // anything is counted.
  const std::size_t num_rows = rows.num_rows();
  const std::size_t num_attrs = attrs_.size();
  std::vector<const stats::Partition*> grids(num_attrs);
  for (std::size_t a = 0; a < num_attrs; ++a) {
    grids[a] = &attrs_[a].counts.partition();
  }
  // Left uninitialized: BinColumns writes every index before it is read.
  const std::unique_ptr<std::uint32_t[]> bins(
      new std::uint32_t[num_rows * num_attrs]);
  if (!engine::BinColumns(rows.values(), num_rows, width, columns, grids,
                          pool_, bins.get())) {
    IngestRejectedCounter().Increment();
    return Status::InvalidArgument(
        "batch contains a non-finite value in a tracked column; batch "
        "rejected");
  }

  // Under the lock: O(rows x attrs) increments, one index run per
  // attribute, each bound-checked once.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t a = 0; a < num_attrs; ++a) {
      attrs_[a].counts.AddIndices(bins.get() + a * num_rows, num_rows);
    }
    rows_ += num_rows;
    ++batches_;
  }
  IngestRecordsCounter().Increment(rows.num_rows());
  IngestBatchesCounter().Increment();
  return Status::Ok();
}

Result<std::vector<reconstruct::Reconstruction>>
DatasetSession::ReconstructAll(std::uint64_t held_tag, std::uint64_t* tag) {
  obs::ScopedSpan span("session.reconstruct_all",
                       &ReconstructSecondsHistogram());
  if (tag != nullptr) *tag = 0;
  // Under the lock: the row count and the memo, and on a refit the counts
  // they go with. The EM fan-out runs outside it so ingestion continues
  // while the estimates refresh.
  const std::size_t num_attrs = attrs_.size();
  std::vector<reconstruct::Reconstruction> estimates;
  std::vector<std::vector<double>> weights(num_attrs);
  std::vector<double> totals(num_attrs);
  std::vector<std::shared_ptr<const reconstruct::KernelTable>> kernels(
      num_attrs);
  std::uint64_t rows = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows = rows_;
    if (kRefitGrowthDivisor * (rows - fitted_rows_) < fitted_rows_) {
      // A memo hit: the last refit's masses, no EM, and nothing at all
      // for a caller that already holds them.
      if (tag != nullptr) *tag = fit_tag_;
      if (held_tag != 0 && held_tag == fit_tag_) return estimates;
      estimates.resize(num_attrs);
      for (std::size_t a = 0; a < num_attrs; ++a) {
        estimates[a].masses = attrs_[a].last_masses;
        estimates[a].sample_count = static_cast<std::size_t>(fitted_rows_);
      }
      return estimates;
    }
    for (std::size_t a = 0; a < num_attrs; ++a) {
      weights[a] = attrs_[a].counts.Weights();
      totals[a] = static_cast<double>(attrs_[a].counts.total());
      kernels[a] = attrs_[a].kernel_table;
    }
  }

  // One cold fit per attribute over the pool. An attribute's first refit
  // builds its kernel table (outside the lock; it reads only the fixed
  // layout), every later one reuses it. FitFromCounts is thread-count
  // invariant and its nested engine primitives run inline on a worker, so
  // each attribute's estimate matches a standalone session's byte for
  // byte.
  estimates.resize(num_attrs);
  engine::ParallelFor(pool_, num_attrs, [&](std::size_t a) {
    const Attribute& attr = attrs_[a];
    if (kernels[a] == nullptr) {
      KernelCacheBuildsCounter().Increment();
      kernels[a] = std::make_shared<const reconstruct::KernelTable>(
          attr.reconstructor.BuildKernelTable(attr.partition));
    } else {
      KernelCacheHitsCounter().Increment();
    }
    estimates[a] = attr.reconstructor.FitFromCounts(weights[a], totals[a],
                                                    *kernels[a], pool_);
  });

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Memoize only a fit over more rows than the installed one, so a
    // slower racing refresh never moves the memo backwards.
    const bool install = rows > fitted_rows_;
    for (std::size_t a = 0; a < num_attrs; ++a) {
      if (install) attrs_[a].last_masses = estimates[a].masses;
      // Keep the first table installed; a racing refresh's copy is equal.
      if (attrs_[a].kernel_table == nullptr) {
        attrs_[a].kernel_table = std::move(kernels[a]);
      }
    }
    if (install) {
      fitted_rows_ = rows;
      fit_tag_ = NewFitTag();
      if (tag != nullptr) *tag = fit_tag_;
    }
  }
  return estimates;
}

std::uint64_t DatasetSession::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

std::uint64_t DatasetSession::batch_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

std::size_t DatasetSession::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = sizeof(*this) +
                      columns_.capacity() * sizeof(std::size_t);
  for (const Attribute& attr : attrs_) {
    // `phantom` charges a w-grid count vector, header and heap, that no
    // session allocates. It keeps the per-tenant charge the registry
    // workloads were sized for; ROADMAP's spill-churn item drops it
    // together with the benchmark change that resizes spill-churn.
    const std::size_t phantom = sizeof(std::vector<std::size_t>) +
                                attr.counts.bins() * sizeof(std::size_t);
    bytes += sizeof(Attribute) + attr.counts.ApproxHeapBytes() + phantom +
             attr.last_masses.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace ppdm::api
