#include "engine/shard_stats.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "engine/simd.h"

namespace ppdm::engine {

ShardStats::ShardStats(std::size_t num_bins) : counts_(num_bins, 0) {
  PPDM_CHECK_GT(num_bins, 0u);
}

ShardStats ShardStats::FromCounts(std::size_t num_bins,
                                  std::uint64_t record_count,
                                  std::vector<std::uint64_t> counts) {
  PPDM_CHECK_GT(num_bins, 0u);
  PPDM_CHECK_EQ(counts.size(), num_bins);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  PPDM_CHECK_EQ(total, record_count);
  ShardStats stats;
  stats.record_count_ = record_count;
  stats.counts_ = std::move(counts);
  return stats;
}

void ShardStats::Add(std::size_t bin) {
  PPDM_CHECK_LT(bin, counts_.size());
  ++counts_[bin];
  ++record_count_;
}

void ShardStats::AddBinned(const double* values, std::size_t n,
                           const stats::Partition& grid) {
  // Bin a batch at a time so the index computation vectorizes; 256 values
  // keeps the index scratch inside one page and well inside L1.
  constexpr std::size_t kBatch = 256;
  const std::size_t bins = counts_.size();
  PPDM_CHECK_EQ(grid.intervals(), bins);
  std::uint32_t idx[kBatch];
  for (std::size_t i = 0; i < n; i += kBatch) {
    const std::size_t m = std::min(kBatch, n - i);
    simd::BinIndices(values + i, m, grid.lo(), grid.hi(), grid.width(), bins,
                     idx);
    for (std::size_t j = 0; j < m; ++j) {
      PPDM_CHECK_LT(idx[j], bins);
      ++counts_[idx[j]];
    }
  }
  record_count_ += n;
}

void ShardStats::MergeFrom(const ShardStats& other) {
  PPDM_CHECK_EQ(counts_.size(), other.counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  record_count_ += other.record_count_;
}

std::uint64_t ShardStats::BinCount(std::size_t bin) const {
  PPDM_CHECK_LT(bin, counts_.size());
  return counts_[bin];
}

std::vector<double> ShardStats::BinWeights() const {
  return std::vector<double>(counts_.begin(), counts_.end());
}

ShardStats IngestBinnedColumn(const double* values, std::size_t count,
                              const stats::Partition& grid, ThreadPool* pool,
                              std::size_t shard_size) {
  const std::vector<ChunkRange> shards = MakeChunks(count, shard_size);
  ShardStats init(grid.intervals());
  if (shards.empty()) return init;
  return ChunkedReduce<ShardStats>(
      pool, shards, std::move(init),
      [&](std::size_t /*shard*/, const ChunkRange& range) {
        ShardStats local(grid.intervals());
        local.AddBinned(values + range.begin, range.end - range.begin, grid);
        return local;
      },
      [](ShardStats* acc, const ShardStats& shard) { acc->MergeFrom(shard); });
}

}  // namespace ppdm::engine
