// Reads the daemon's Prometheus text exposition (the stats verb) into a
// flat series map, so the benchmark can take counter deltas and histogram
// _sum/_count means over a measured window.

#ifndef PERFBENCH_EXPOSITION_H_
#define PERFBENCH_EXPOSITION_H_

#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// One scrape: series key (name plus its {labels} text, verbatim) → value.
class Scrape {
 public:
  static Scrape Parse(std::string_view text);

  /// Per-series growth from `before` to `after`: counter and histogram
  /// _sum/_count deltas over a measured window.
  static Scrape Growth(const Scrape& before, const Scrape& after);

  /// Adds every series of `other` into this one (windows of several
  /// daemons summed).
  void Add(const Scrape& other);

  /// The value of an exact series key; 0 when absent (an instrument the
  /// daemon has not touched yet).
  double Get(const std::string& key) const;

  /// The value of label `label` on the family's first series whose value
  /// is `value` — e.g. the active path of the ppdm_simd_path info gauge.
  std::string LabelWhere(const std::string& name, const std::string& label,
                         double value) const;

 private:
  std::map<std::string, double> series_;
};

/// Mean of a histogram in a growth scrape: _sum / _count (0 when no
/// observations landed).
double HistogramMean(const Scrape& growth, const std::string& histogram);

}  // namespace perfbench

#endif  // PERFBENCH_EXPOSITION_H_
