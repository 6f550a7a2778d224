#include "ledger.h"

#include <cstdlib>
#include <optional>

#include "common/strings.h"
#include "sample_stats.h"

namespace perfbench {

using ppdm::StrFormat;

namespace {

/// The text right after `key` in `event`, if present.
std::optional<std::string_view> After(std::string_view event,
                                      std::string_view key) {
  const std::size_t at = event.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  return event.substr(at + key.size());
}

std::optional<std::uint64_t> HexField(std::string_view event,
                                      std::string_view key) {
  const std::optional<std::string_view> text = After(event, key);
  if (!text.has_value()) return std::nullopt;
  const std::string digits(text->substr(0, text->find('"')));
  return std::strtoull(digits.c_str(), nullptr, 16);
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

std::string Row(const std::string& label, const std::vector<double>& values) {
  const Summary s = Summarize(values);
  return StrFormat("  %-44s %7zu %10.1f %10s %10.1f\n", label.c_str(), s.n,
                   s.p50,
                   s.p99.has_value() ? StrFormat("%.1f", *s.p99).c_str() : "-",
                   s.mean);
}

}  // namespace

std::vector<DaemonSpan> ParseChromeTrace(std::string_view json) {
  static constexpr std::string_view kOpen = "{\"name\":\"";
  std::vector<DaemonSpan> spans;
  std::size_t pos = json.find(kOpen);
  while (pos != std::string_view::npos) {
    const std::size_t next = json.find(kOpen, pos + kOpen.size());
    const std::string_view event = json.substr(
        pos, next == std::string_view::npos ? std::string_view::npos
                                            : next - pos);
    pos = next;
    const std::size_t name_end = event.find('"', kOpen.size());
    const std::optional<std::string_view> dur = After(event, "\"dur\":");
    const std::optional<std::uint64_t> trace = HexField(event, "\"trace\":\"");
    const std::optional<std::uint64_t> span = HexField(event, "\"span\":\"");
    const std::optional<std::uint64_t> parent =
        HexField(event, "\"parent\":\"");
    if (name_end == std::string_view::npos || !dur || !trace || !span ||
        !parent) {
      continue;
    }
    DaemonSpan out;
    out.name = std::string(event.substr(kOpen.size(), name_end - kOpen.size()));
    out.dur_us = std::strtod(std::string(dur->substr(0, 32)).c_str(), nullptr);
    out.trace = *trace;
    out.span = *span;
    out.parent = *parent;
    spans.push_back(std::move(out));
  }
  return spans;
}

LedgerStages CollectStages(const std::vector<StageSample>& samples,
                           bool query) {
  LedgerStages stages;
  for (const StageSample& sample : samples) {
    if (sample.query != query) continue;
    ++stages.traced;
    const DaemonSpan* request = nullptr;
    const DaemonSpan* run = nullptr;
    double queue = 0.0;
    for (const DaemonSpan& span : sample.spans) {
      if (span.name == "net.request") request = &span;
      if (span.name == "service.run") run = &span;
      if (span.name == "service.queue") queue += span.dur_us;
    }
    if (request == nullptr || run == nullptr) continue;
    stages.encode.push_back(sample.encode_us);
    stages.round_trip.push_back(sample.round_trip_us);
    stages.request.push_back(request->dur_us);
    stages.queue.push_back(queue);
    stages.run.push_back(run->dur_us);
    stages.unspanned.push_back(sample.round_trip_us - request->dur_us);
    stages.decode.push_back(sample.decode_us);
    stages.total.push_back(sample.total_us);
    stages.residual.push_back(sample.total_us - sample.encode_us -
                              request->dur_us - sample.decode_us);
    // Direct children of service.run, summed per name for this request;
    // a name first seen late is back-filled with zeros for earlier ones.
    const std::size_t row = stages.total.size() - 1;
    for (auto& [name, values] : stages.inner) values.push_back(0.0);
    for (const DaemonSpan& span : sample.spans) {
      if (span.parent != run->span) continue;
      auto it = stages.inner.begin();
      while (it != stages.inner.end() && it->first != span.name) ++it;
      if (it == stages.inner.end()) {
        stages.inner.emplace_back(span.name, std::vector<double>(row + 1, 0.0));
        it = stages.inner.end() - 1;
      }
      it->second[row] += span.dur_us;
    }
  }
  return stages;
}

std::string RenderLedger(const std::string& title, const LedgerStages& s) {
  std::string out = StrFormat(
      "ledger %s: %zu of %zu traced requests joined to daemon spans (us)\n",
      title.c_str(), s.total.size(), s.traced);
  if (s.total.empty()) return out;
  out += StrFormat("  %-44s %7s %10s %10s %10s\n", "stage", "n", "p50", "p99",
                   "mean");
  out += Row("client.encode (Writer + EncodeFrame)", s.encode);
  out += Row("client.round_trip (SendRaw -> ReadFrame)", s.round_trip);
  out += Row("  net.request (daemon span)", s.request);
  out += Row("    service.queue", s.queue);
  out += Row("    service.run", s.run);
  std::vector<double> run_rest = s.run;
  for (const auto& [name, values] : s.inner) {
    out += Row("      " + name, values);
    for (std::size_t i = 0; i < values.size(); ++i) run_rest[i] -= values[i];
  }
  out += Row("      (service.run, no child span)", run_rest);
  std::vector<double> request_rest = s.request;
  for (std::size_t i = 0; i < request_rest.size(); ++i) {
    request_rest[i] -= s.queue[i] + s.run[i];
  }
  out += Row("    (net.request, no child span)", request_rest);
  out += Row("  net.unspanned (round_trip - net.request)", s.unspanned);
  out += Row("client.decode (DecodeResponseBody + Reader)", s.decode);
  out += Row("client.total (observed)", s.total);
  out += Row("residual (total - encode - request - decode)", s.residual);
  const double total = Mean(s.total);
  out += StrFormat(
      "  means: encode %.1f + net.request %.1f + decode %.1f + residual %.1f "
      "= %.1f us; observed %.1f us; residual is %.1f%% of the client "
      "latency\n",
      Mean(s.encode), Mean(s.request), Mean(s.decode), Mean(s.residual),
      Mean(s.encode) + Mean(s.request) + Mean(s.decode) + Mean(s.residual),
      total, total > 0 ? 100.0 * Mean(s.residual) / total : 0.0);
  return out;
}

}  // namespace perfbench
