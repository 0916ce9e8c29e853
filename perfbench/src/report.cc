#include "perfbench/src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  ++failed_checks_;
  if (failures_.size() < 10) failures_.push_back(what);
}

void Report::CountOp(const std::string& type, bool ok) {
  OpCount& count = ops_[type];
  ++count.attempted;
  if (!ok) ++count.failed;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Print(const std::string& workload, bool trace) const {
  std::printf("workload %s (%s run)\n", workload.c_str(),
              trace ? "traced" : "untraced");
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::printf("  %-10s %12s %8s\n", "operation", "attempted", "failed");
  for (const auto& [type, count] : ops_) {
    std::printf("  %-10s %12llu %8llu\n", type.c_str(),
                static_cast<unsigned long long>(count.attempted),
                static_cast<unsigned long long>(count.failed));
    attempted += count.attempted;
    failed += count.failed;
  }
  for (const auto& [name, value] : metrics_) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("  correctness: %s (%llu failed checks)\n",
              correct_ ? "ok" : "FAILED",
              static_cast<unsigned long long>(failed_checks_));
  for (const std::string& f : failures_) {
    std::printf("    check failed: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].second.first)
                         ? metrics_[i].second.first
                         : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].first + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
