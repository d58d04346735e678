#ifndef CPDBENCH_WORKLOAD_DATA_H_
#define CPDBENCH_WORKLOAD_DATA_H_

// Shared plumbing of the benchmark driver: flags, the result line, the
// benchmark's own dump of a trained model, percentiles, and the process
// memory readers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "reference.h"
#include "spans.h"

namespace bench {

/// --key value flags.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& fallback = "") const;
  int64_t Int(const std::string& key, int64_t fallback) const;
  double Num(const std::string& key, double fallback) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Tallies operations and check failures, and collects named metrics.
class Outcome {
 public:
  /// One attempted operation; `ok` false counts it failed.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Ops(int64_t n) { attempted_ += n; }
  /// A correctness check that did not hold (the run reports correct=false).
  /// The first few messages go to stderr.
  void CheckFailed(const std::string& what);
  /// Expects `problem` empty; otherwise CheckFailed(context + problem).
  void Expect(const std::string& problem, const std::string& context);
  void Metric(const std::string& name, double value, const std::string& unit);
  bool correct() const { return check_failures_ == 0; }
  /// Prints the result line: {"correct","attempted","failed","metrics"}.
  void Print() const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t check_failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// One timed observation: when it completed (ns, NowNs()) and its value.
struct TimedSample {
  int64_t end_ns = 0;
  double value = 0.0;
};

/// Splits [start_ns, end_ns) into `slices` equal slices, applies `stat` to
/// the values that completed in each (with the slice length in seconds),
/// and returns the median of the per-slice results. A stretch of the run
/// disturbed by something outside the program then moves at most the
/// slices it covers, not the whole figure.
template <typename Stat>
double SliceMedian(const std::vector<TimedSample>& samples, int64_t start_ns, int64_t end_ns,
                   int slices, Stat stat);

/// Seconds since `start_ns` (NowNs()).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// The benchmark's own binary dump of a trained model ("CPDBENCH" +
/// dims + raw doubles + newline-separated vocabulary). Written from the
/// trainer's in-memory estimates, never from the program's artifact codec.
bool SaveDense(const std::string& path, const DenseModel& model);
bool LoadDense(const std::string& path, DenseModel* model);

/// A field of /proc/<pid>/status in MB ("VmHWM", "RssAnon", "RssFile");
/// pid 0 = this process. Negative when unreadable.
double ProcStatusMb(int pid, const std::string& field);

/// Reads the histogram `family` (cumulative "_bucket" rows) for the label
/// set whose text contains `label_match`, from a /metricsz scrape: bucket
/// upper bounds and cumulative counts.
struct Histogram {
  std::vector<double> upper;
  std::vector<double> cumulative;
};
Histogram ParseHistogram(const std::string& exposition, const std::string& family,
                         const std::string& label_match);
/// The quantile of the counts recorded between two scrapes (after - before),
/// linearly interpolated inside the bucket that holds it; 0 when empty.
double HistogramDeltaQuantile(const Histogram& before, const Histogram& after,
                              double q);

template <typename Stat>
double SliceMedian(const std::vector<TimedSample>& samples, int64_t start_ns, int64_t end_ns,
                   int slices, Stat stat) {
  const double width = static_cast<double>(end_ns - start_ns) / slices;
  std::vector<std::vector<double>> by_slice(static_cast<size_t>(slices));
  for (const TimedSample& s : samples) {
    const int64_t slice = static_cast<int64_t>(static_cast<double>(s.end_ns - start_ns) / width);
    if (slice >= 0 && slice < slices) by_slice[static_cast<size_t>(slice)].push_back(s.value);
  }
  std::vector<double> results;
  for (const auto& values : by_slice) results.push_back(stat(values, width * 1e-9));
  return Median(results);
}

}  // namespace bench

#endif  // CPDBENCH_WORKLOAD_DATA_H_
