#ifndef WAVEMR_PERFBENCH_REPORT_H_
#define WAVEMR_PERFBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace wavemr {
namespace perfbench {

/// Quantile q in [0, 1] of `values`, linearly interpolated between the two
/// nearest ranks (0 when empty).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The named metrics of one run, in the order they were set. Serializes to
/// the benchmark's result object: {"name": {"value": v, "unit": u}, ...},
/// each value printed with every significant digit.
class MetricSet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back(Entry{name, value, unit});
  }

  const Entry* Find(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }

  const std::vector<Entry>& entries() const { return entries_; }

  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      // JSON has no inf/nan; a non-finite value is a bench bug, reported
      // as a failed check by the caller, and printed as 0 here.
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(e.value) ? e.value : 0.0);
      out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace perfbench
}  // namespace wavemr

#endif  // WAVEMR_PERFBENCH_REPORT_H_
