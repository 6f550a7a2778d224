#include "exposition.h"

#include <cstdlib>

namespace perfbench {

Scrape Scrape::Parse(std::string_view text) {
  Scrape scrape;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line.front() == '#') continue;
    // Label values never contain spaces in this exposition, so the value
    // is whatever follows the last space.
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    const std::string value(line.substr(space + 1));
    scrape.series_[std::string(line.substr(0, space))] =
        std::strtod(value.c_str(), nullptr);
  }
  return scrape;
}

Scrape Scrape::Growth(const Scrape& before, const Scrape& after) {
  Scrape growth = after;
  for (auto& [key, value] : growth.series_) value -= before.Get(key);
  return growth;
}

void Scrape::Add(const Scrape& other) {
  for (const auto& [key, value] : other.series_) series_[key] += value;
}

double Scrape::Get(const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? 0.0 : it->second;
}

std::string Scrape::LabelWhere(const std::string& name,
                               const std::string& label, double value) const {
  const std::string prefix = name + "{";
  const std::string needle = label + "=\"";
  for (auto it = series_.lower_bound(prefix); it != series_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, prefix.size(), prefix) != 0) break;
    if (it->second != value) continue;
    const std::size_t at = key.find(needle);
    if (at == std::string::npos) continue;
    const std::size_t begin = at + needle.size();
    return key.substr(begin, key.find('"', begin) - begin);
  }
  return "unknown";
}

double HistogramMean(const Scrape& growth, const std::string& histogram) {
  const double count = growth.Get(histogram + "_count");
  return count > 0 ? growth.Get(histogram + "_sum") / count : 0.0;
}

}  // namespace perfbench
