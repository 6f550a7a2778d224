// The per-layer latency ledger of a traced run: the daemon's span ring
// (Chrome trace JSON from the stats verb) parsed back into spans, and a
// table per verb that splits the client-observed latency into the
// client's stages and the daemon's spans, with the residual no span
// covers.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "loop.h"

namespace perfbench {

/// Parses obs::RenderChromeTrace output; malformed events are skipped.
std::vector<DaemonSpan> ParseChromeTrace(std::string_view json);

/// Per-request stage times of the joined samples of one verb.
struct LedgerStages {
  std::vector<double> encode, round_trip, request, queue, run, unspanned,
      decode, total, residual;
  /// Spans under service.run, summed per name per request.
  std::vector<std::pair<std::string, std::vector<double>>> inner;
  std::size_t traced = 0;
};

/// Collects the stages of the samples with `query == query` that joined
/// a net.request span.
LedgerStages CollectStages(const std::vector<StageSample>& samples,
                           bool query);

/// The ledger table of one verb: p50/p99/mean per stage with sample
/// counts, the residual, and the check that the stage means add up to
/// the client-observed mean.
std::string RenderLedger(const std::string& title, const LedgerStages& stages);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
