#include "workload_data.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace bench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "cpdbench: expected --flag value, got '%s'\n",
                   key.c_str());
      std::exit(2);
    }
    values_[key.substr(2)] = argv[++i];
  }
}

std::string Args::Str(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Args::Int(const std::string& key, int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Args::Num(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

void Outcome::CheckFailed(const std::string& what) {
  if (check_failures_ < 10) std::fprintf(stderr, "cpdbench: check failed: %s\n", what.c_str());
  ++check_failures_;
}

void Outcome::Expect(const std::string& problem, const std::string& context) {
  if (!problem.empty()) CheckFailed(context + ": " + problem);
}

void Outcome::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Outcome::Print() const {
  std::string metrics = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) metrics += ",";
    AppendJsonString(&metrics, metrics_[i].first);
    metrics += ":{\"value\":";
    AppendJsonNumber(&metrics, metrics_[i].second.first);
    metrics += ",\"unit\":";
    AppendJsonString(&metrics, metrics_[i].second.second);
    metrics += "}";
  }
  metrics += "}";
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
              correct() ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

constexpr char kDenseMagic[8] = {'C', 'P', 'D', 'B', 'E', 'N', 'C', 'H'};

bool WriteDoubles(std::FILE* f, const std::vector<double>& v) {
  const uint64_t n = v.size();
  return std::fwrite(&n, sizeof(n), 1, f) == 1 &&
         std::fwrite(v.data(), sizeof(double), v.size(), f) == v.size();
}

bool ReadDoubles(std::FILE* f, std::vector<double>* v) {
  uint64_t n = 0;
  if (std::fread(&n, sizeof(n), 1, f) != 1 || n > (uint64_t{1} << 34)) return false;
  v->resize(n);
  return std::fread(v->data(), sizeof(double), n, f) == n;
}

}  // namespace

bool SaveDense(const std::string& path, const DenseModel& model) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const int64_t dims[4] = {model.num_communities, model.num_topics,
                           static_cast<int64_t>(model.num_users),
                           static_cast<int64_t>(model.vocab_size)};
  bool ok = std::fwrite(kDenseMagic, 1, 8, f) == 8 &&
            std::fwrite(dims, sizeof(dims), 1, f) == 1 &&
            WriteDoubles(f, model.pi) && WriteDoubles(f, model.theta) &&
            WriteDoubles(f, model.phi) && WriteDoubles(f, model.eta);
  for (const std::string& word : model.vocab) {
    ok = ok && std::fprintf(f, "%s\n", word.c_str()) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

bool LoadDense(const std::string& path, DenseModel* model) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[8];
  int64_t dims[4];
  bool ok = std::fread(magic, 1, 8, f) == 8 &&
            std::memcmp(magic, kDenseMagic, 8) == 0 &&
            std::fread(dims, sizeof(dims), 1, f) == 1 &&
            ReadDoubles(f, &model->pi) && ReadDoubles(f, &model->theta) &&
            ReadDoubles(f, &model->phi) && ReadDoubles(f, &model->eta);
  if (ok) {
    model->num_communities = static_cast<int>(dims[0]);
    model->num_topics = static_cast<int>(dims[1]);
    model->num_users = static_cast<size_t>(dims[2]);
    model->vocab_size = static_cast<size_t>(dims[3]);
    model->vocab.clear();
    char line[4096];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      std::string word(line);
      if (!word.empty() && word.back() == '\n') word.pop_back();
      model->vocab.push_back(word);
    }
    ok = model->pi.size() == model->num_users * static_cast<size_t>(dims[0]);
  }
  std::fclose(f);
  return ok;
}

double ProcStatusMb(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

Histogram ParseHistogram(const std::string& exposition, const std::string& family,
                         const std::string& label_match) {
  std::map<double, double> by_le;
  std::istringstream in(exposition);
  std::string line;
  const std::string prefix = family + "_bucket{";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const size_t close = line.find('}');
    if (close == std::string::npos) continue;
    const std::string labels = line.substr(prefix.size(), close - prefix.size());
    if (labels.find(label_match) == std::string::npos) continue;
    const size_t le_at = labels.find("le=\"");
    if (le_at == std::string::npos) continue;
    const size_t le_end = labels.find('"', le_at + 4);
    const std::string le = labels.substr(le_at + 4, le_end - le_at - 4);
    const double upper = le == "+Inf" ? std::numeric_limits<double>::infinity()
                                      : std::strtod(le.c_str(), nullptr);
    by_le[upper] += std::strtod(line.c_str() + close + 1, nullptr);
  }
  Histogram h;
  for (const auto& [upper, count] : by_le) {
    h.upper.push_back(upper);
    h.cumulative.push_back(count);
  }
  return h;
}

double HistogramDeltaQuantile(const Histogram& before, const Histogram& after,
                              double q) {
  if (after.upper.empty()) return 0.0;
  std::vector<double> delta(after.cumulative.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    const double prior = i < before.cumulative.size() ? before.cumulative[i] : 0.0;
    delta[i] = after.cumulative[i] - prior;
  }
  const double total = delta.back();
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] >= target) {
      const double lo = i == 0 ? 0.0 : after.upper[i - 1];
      const double below = i == 0 ? 0.0 : delta[i - 1];
      const double in_bucket = delta[i] - below;
      double hi = after.upper[i];
      if (!std::isfinite(hi)) return lo;
      const double frac = in_bucket > 0.0 ? (target - below) / in_bucket : 1.0;
      return lo + (hi - lo) * frac;
    }
  }
  return after.upper.back();
}

}  // namespace bench
