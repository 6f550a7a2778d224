#include "api/dataset_session.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "api/spec.h"
#include "common/strings.h"
#include "engine/shard_stats.h"
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

// The per-attribute checks: the field's domain with the declared interval
// count, and the providers' noise.
Status ValidateAttribute(const data::FieldSpec& field,
                         const AttributeSpec& attr) {
  PPDM_RETURN_IF_ERROR(ValidateDomain(field.lo, field.hi, attr.intervals));
  perturb::RandomizerOptions as_noise;
  as_noise.kind = attr.noise;
  as_noise.privacy_fraction = attr.privacy_fraction;
  as_noise.confidence = attr.confidence;
  return ValidateNoise(as_noise);
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
      wgrid(reconstructor.PerturbedBinning(partition)),
      counts(wgrid.intervals()) {}

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
  if (state.stats.size() != num_attrs ||
      state.last_masses.size() != num_attrs) {
    return Status::InvalidArgument(StrFormat(
        "snapshot state carries %zu/%zu attribute entries, spec has %zu",
        state.stats.size(), state.last_masses.size(), num_attrs));
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
    const engine::ShardStats& stats = state.stats[a];
    if (stats.num_bins() != derived.wgrid.intervals()) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: snapshot counts are %zu bins; the spec derives %zu",
          a, stats.num_bins(), derived.wgrid.intervals()));
    }
    if (stats.record_count() != state.rows) {
      return Status::InvalidArgument(StrFormat(
          "attribute %zu: %llu records in counts, session claims %llu",
          a, static_cast<unsigned long long>(stats.record_count()),
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
    session->attrs_[a].counts = std::move(state.stats[a]);
    session->attrs_[a].last_masses = std::move(state.last_masses[a]);
  }
  session->rows_ = state.rows;
  session->batches_ = state.batches;
  session->fitted_rows_ = state.fitted_rows;
  return session;
}

DatasetSessionState DatasetSession::ExportState() const {
  std::lock_guard<std::mutex> lock(mu_);
  DatasetSessionState state;
  state.rows = rows_;
  state.batches = batches_;
  state.fitted_rows = fitted_rows_;
  state.stats.reserve(attrs_.size());
  state.last_masses.reserve(attrs_.size());
  for (const Attribute& attr : attrs_) {
    state.stats.push_back(attr.counts);
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

  // One pass over the arriving records, sharded over the pool and outside
  // the session lock: each shard bins every tracked attribute of its rows
  // into its own integer counts. Shard boundaries depend only on the row
  // count, and the per-attribute merge below runs in ascending shard
  // order, so the folded counts are byte-identical to N independent
  // per-attribute ingests of the same columns, for every pool size.
  const std::size_t num_attrs = attrs_.size();
  const std::vector<engine::ChunkRange> shards =
      engine::MakeChunks(rows.num_rows(), engine::kIngestShardRows);
  std::vector<std::vector<engine::ShardStats>> partials(shards.size());
  for (std::vector<engine::ShardStats>& shard : partials) {
    shard.reserve(num_attrs);
    for (std::size_t a = 0; a < num_attrs; ++a) {
      shard.emplace_back(attrs_[a].wgrid.intervals());
    }
  }
  std::atomic<bool> finite{true};
  engine::ParallelFor(pool_, shards.size(), [&](std::size_t s) {
    std::vector<engine::ShardStats>& local = partials[s];
    const std::size_t begin = shards[s].begin;
    const std::size_t end = shards[s].end;
    // Finiteness gate first: ingestion is all-or-nothing per batch, so
    // validating before any counting lets the bin+increment fold below run
    // branch-free over contiguous column batches.
    for (std::size_t r = begin; r < end; ++r) {
      const double* row = rows.row(r);
      for (std::size_t a = 0; a < num_attrs; ++a) {
        if (!std::isfinite(row[columns[a]])) {
          finite.store(false, std::memory_order_relaxed);
          return;  // abandon the shard; nothing is folded below
        }
      }
    }
    // Per attribute: gather the strided column into a small contiguous
    // batch and let ShardStats::AddBinned bin and count it on the w-grid.
    constexpr std::size_t kBatch = 256;
    double vals[kBatch];
    for (std::size_t a = 0; a < num_attrs; ++a) {
      const stats::Partition& wgrid = attrs_[a].wgrid;
      const std::size_t col = columns[a];
      for (std::size_t r0 = begin; r0 < end; r0 += kBatch) {
        const std::size_t n = std::min(kBatch, end - r0);
        for (std::size_t j = 0; j < n; ++j) {
          vals[j] = rows.row(r0 + j)[col];
        }
        local[a].AddBinned(vals, n, wgrid);
      }
    }
  });
  if (!finite.load(std::memory_order_relaxed)) {
    IngestRejectedCounter().Increment();
    return Status::InvalidArgument(
        "batch contains a non-finite value in a tracked column; batch "
        "rejected");
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::vector<engine::ShardStats>& shard : partials) {
      for (std::size_t a = 0; a < num_attrs; ++a) {
        attrs_[a].counts.MergeFrom(shard[a]);
      }
    }
    rows_ += rows.num_rows();
    ++batches_;
  }
  IngestRecordsCounter().Increment(rows.num_rows());
  IngestBatchesCounter().Increment();
  return Status::Ok();
}

Result<std::vector<reconstruct::Reconstruction>>
DatasetSession::ReconstructAll() {
  obs::ScopedSpan span("session.reconstruct_all",
                       &ReconstructSecondsHistogram());
  // Under the lock: the row count and the memo, and on a refit the counts
  // they go with. The EM fan-out runs outside it so ingestion continues
  // while the estimates refresh.
  const std::size_t num_attrs = attrs_.size();
  std::vector<reconstruct::Reconstruction> estimates(num_attrs);
  std::vector<std::vector<double>> weights(num_attrs);
  std::vector<double> totals(num_attrs);
  std::vector<std::shared_ptr<const reconstruct::KernelTable>> kernels(
      num_attrs);
  std::uint64_t rows = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows = rows_;
    if (kRefitGrowthDivisor * (rows - fitted_rows_) < fitted_rows_) {
      // A memo hit: the last refit's masses, no EM.
      for (std::size_t a = 0; a < num_attrs; ++a) {
        estimates[a].masses = attrs_[a].last_masses;
        estimates[a].sample_count = static_cast<std::size_t>(fitted_rows_);
      }
      return estimates;
    }
    for (std::size_t a = 0; a < num_attrs; ++a) {
      weights[a] = attrs_[a].counts.BinWeights();
      totals[a] = static_cast<double>(attrs_[a].counts.record_count());
      kernels[a] = attrs_[a].kernel_table;
    }
  }

  // One cold fit per attribute over the pool. An attribute's first refit
  // builds its kernel table (outside the lock; it reads only the fixed
  // layout), every later one reuses it. FitFromCounts is thread-count
  // invariant and its nested engine primitives run inline on a worker, so
  // each attribute's estimate matches a standalone session's byte for
  // byte.
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
    if (install) fitted_rows_ = rows;
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
                                attr.wgrid.intervals() * sizeof(std::size_t);
    bytes += sizeof(Attribute) + attr.counts.ApproxHeapBytes() + phantom +
             attr.last_masses.capacity() * sizeof(double);
  }
  return bytes;
}

}  // namespace ppdm::api
