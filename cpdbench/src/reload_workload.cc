// The `reload` workload: a large v3 artifact (the large preset's |C| = 200,
// |Z| = 32, V = 50k, with |U| in the hundreds of thousands) served through
// mmap under default options. Each round switches between two pre-written
// artifacts with full POST /admin/reload calls, then walks a chain of
// .cpdd deltas that each touch a small share of users, while one reader
// connection keeps querying. Per-load O(|U|) work dominates here; at the
// few-thousand-user size of `ingest` it would go unmeasured.
//
// Every round also rewrites a small served artifact in place through the
// program's own WriteModelArtifact and reads a fixed set of users before
// reloading it. WriteStringToFile truncates and rewrites its target in
// place, so those reads see the new file's pi rows under the old
// generation: each one is counted as a failed operation. The inputs of
// this step do not depend on the seed, so the count is the same in every
// round; a writer that replaced the file atomically would bring it to 0.
//
// All estimates are generated row by row from (seed, variant, row), so the
// client recomputes any expected row without holding the matrices.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>

#include "core/model_artifact.h"
#include "core/model_delta.h"
#include "core/model_state.h"
#include "http_client.h"
#include "serve/profile_index.h"
#include "workloads.h"

namespace bench {
namespace {

struct Dims {
  int communities;
  int topics;
  size_t users;
  size_t vocab;
  int time_bins;
};
constexpr Dims kLarge = {200, 32, 200000, 50000, 8};
constexpr Dims kFault = {20, 8, 2000, 500, 4};
constexpr uint64_t kFaultSeed = 20170830;  // fixed: the fault step ignores --seed
constexpr int kDeltas = 2;
// Users touched per delta: assumed, not measured. It is the share of the
// graph one ingest batch adds (20 new users on 4,000), so a delta reload
// carries an ingest-sized change.
constexpr double kDeltaShare = 0.005;
constexpr int kFaultReads = 8;              // users 0..7 of the fault artifact
constexpr int kSampledRows = 16;            // rows checked after each reload
constexpr uint64_t kBaseGeneration = 1;
constexpr uint64_t kOtherGeneration = 1000;

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL) * 0xC2B2AE3D27D4EB4FULL ^
               (c + 0x165667B19E3779F9ULL) * 0x94D049BB133111EBULL;
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

// pi row u of artifact `variant`: a home community, two secondary ones,
// and a small floor everywhere, normalized.
void PiRow(uint64_t seed, uint64_t variant, size_t u, int communities, double* row) {
  std::mt19937_64 rng(Mix(seed, variant, u));
  const size_t kc = static_cast<size_t>(communities);
  double sum = 0.0;
  for (size_t c = 0; c < kc; ++c) {
    row[c] = 1e-4 * (1.0 + static_cast<double>((u * 31 + c * 17) % 13));
    sum += row[c];
  }
  const double masses[3] = {0.6, 0.2, 0.1};
  for (const double mass : masses) {
    const double w = mass * (0.5 + std::uniform_real_distribution<double>(0, 1)(rng));
    row[rng() % kc] += w;
    sum += w;
  }
  for (size_t c = 0; c < kc; ++c) row[c] /= sum;
}

std::vector<double> PiRowVector(uint64_t seed, uint64_t variant, size_t u, int communities) {
  std::vector<double> row(static_cast<size_t>(communities));
  PiRow(seed, variant, u, communities, row.data());
  return row;
}

// Row-normalized random matrix.
std::vector<double> Stochastic(std::mt19937_64* rng, size_t rows, size_t cols) {
  std::vector<double> m(rows * cols);
  std::uniform_real_distribution<double> u(0.01, 1.0);
  for (size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols; ++c) sum += (m[r * cols + c] = u(*rng) * u(*rng));
    for (size_t c = 0; c < cols; ++c) m[r * cols + c] /= sum;
  }
  return m;
}

struct Globals {
  std::vector<double> theta, phi, eta, weights, popularity;
};

Globals MakeGlobals(uint64_t seed, uint64_t variant, const Dims& d) {
  std::mt19937_64 rng(Mix(seed, variant, ~0ULL));
  Globals g;
  const size_t kc = static_cast<size_t>(d.communities);
  const size_t kz = static_cast<size_t>(d.topics);
  g.theta = Stochastic(&rng, kc, kz);
  g.phi = Stochastic(&rng, kz, d.vocab);
  g.eta.resize(kc * kc * kz);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (double& e : g.eta) e = 0.001 + 0.1 * u(rng) * u(rng);
  for (int i = 0; i < cpd::kNumDiffusionWeights; ++i) g.weights.push_back(u(rng) - 0.5);
  g.popularity = Stochastic(&rng, static_cast<size_t>(d.time_bins), kz);
  return g;
}

cpd::ModelArtifact MakeArtifact(uint64_t seed, uint64_t variant, const Dims& d,
                                uint64_t generation, const char* word_prefix) {
  cpd::ModelArtifact a;
  a.num_communities = d.communities;
  a.num_topics = d.topics;
  a.num_users = d.users;
  a.vocab_size = d.vocab;
  a.num_time_bins = d.time_bins;
  a.generation = generation;
  a.pi.resize(d.users * static_cast<size_t>(d.communities));
  for (size_t u = 0; u < d.users; ++u) {
    PiRow(seed, variant, u, d.communities, a.pi.data() + u * static_cast<size_t>(d.communities));
  }
  Globals g = MakeGlobals(seed, variant, d);
  a.theta = std::move(g.theta);
  a.phi = std::move(g.phi);
  a.eta = std::move(g.eta);
  a.weights = std::move(g.weights);
  a.popularity = std::move(g.popularity);
  std::mt19937_64 rng(Mix(seed, variant, 7));
  char word[32];
  for (size_t w = 0; w < d.vocab; ++w) {
    std::snprintf(word, sizeof(word), "%s%05zu", word_prefix, w);
    a.vocab_words.push_back(word);
    a.vocab_frequencies.push_back(static_cast<int64_t>(1 + rng() % 1000));
  }
  return a;
}

// Users touched by delta i (1-based): a seeded sample, sorted.
std::vector<uint64_t> DeltaUsers(uint64_t seed, int i, size_t users) {
  std::mt19937_64 rng(Mix(seed, 500 + static_cast<uint64_t>(i), 0));
  std::vector<uint64_t> touched;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(static_cast<double>(users) * kDeltaShare));
  for (size_t k = 0; k < n; ++k) touched.push_back(rng() % users);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

uint64_t DeltaVariant(int i) { return 10 + static_cast<uint64_t>(i); }

cpd::ModelDelta MakeDelta(uint64_t seed, int i, const Dims& d) {
  cpd::ModelDelta delta;
  delta.num_communities = d.communities;
  delta.num_topics = d.topics;
  delta.num_users = d.users;
  delta.vocab_size = d.vocab;
  delta.num_time_bins = d.time_bins;
  delta.base_generation = kBaseGeneration + static_cast<uint64_t>(i) - 1;
  delta.generation = kBaseGeneration + static_cast<uint64_t>(i);
  delta.base_num_users = d.users;
  delta.base_vocab_size = d.vocab;
  delta.touched_users = DeltaUsers(seed, i, d.users);
  for (const uint64_t u : delta.touched_users) {
    const auto row = PiRowVector(seed, DeltaVariant(i), u, d.communities);
    delta.touched_pi.insert(delta.touched_pi.end(), row.begin(), row.end());
  }
  Globals g = MakeGlobals(seed, DeltaVariant(i), d);
  delta.theta = std::move(g.theta);
  delta.phi = std::move(g.phi);
  delta.eta = std::move(g.eta);
  delta.weights = std::move(g.weights);
  delta.popularity = std::move(g.popularity);
  std::mt19937_64 rng(Mix(seed, DeltaVariant(i), 7));
  for (size_t w = 0; w < d.vocab; ++w) {
    delta.vocab_frequencies.push_back(static_cast<int64_t>(1 + rng() % 1000));
  }
  return delta;
}

std::string Path(const std::string& dir, const std::string& name) { return dir + "/" + name; }
std::string DeltaName(int i) {
  char name[32];
  std::snprintf(name, sizeof(name), "d%d.cpdd", i);
  return name;
}

bool FetchPi(HttpConn* conn, size_t user, std::vector<double>* pi, std::string* error) {
  int status = 0;
  std::string body;
  if (!conn->RoundTrip(EncodeRequest("GET", "/v1/membership/" + std::to_string(user) +
                                                "?k=5&distribution=1", ""),
                       &status, &body, error)) {
    return false;
  }
  JVal json;
  if (status != 200 || !ParseJson(body, &json, error) || !ReadDistribution(json, pi)) {
    *error = "HTTP " + std::to_string(status) + " " + body.substr(0, 200);
    return false;
  }
  return true;
}

// The reader connection: random memberships across the whole user range,
// paused only while the fault step has a small model live.
struct Reader {
  std::atomic<bool> stop{false};
  std::atomic<bool> pause{false};
  std::atomic<bool> paused{false};
  int64_t attempted = 0, failed = 0;
  std::string first_error;
};

void ReadLoop(int port, size_t users, uint64_t seed, Reader* r) {
  HttpConn conn;
  std::string error;
  if (!conn.Connect(port, &error)) {
    r->first_error = "reader connect: " + error;
    ++r->failed;
    return;
  }
  std::mt19937_64 rng(seed);
  std::vector<double> pi;
  while (!r->stop.load()) {
    if (r->pause.load()) {
      r->paused.store(true);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    r->paused.store(false);
    const size_t user = rng() % users;
    ++r->attempted;
    const bool ok = FetchPi(&conn, user, &pi, &error);
    const std::string problem = ok ? CheckSimplex(pi, 1e-9) : error;
    if (!problem.empty()) {
      ++r->failed;
      if (r->first_error.empty()) r->first_error = "read of user " + std::to_string(user) + ": " + problem;
      if (!ok) conn.Connect(port, &error);
    }
  }
}

// POST /admin/reload; returns the new registry generation, or -1.
int64_t Reload(HttpConn* conn, const std::string& field, const std::string& path,
               double* ms, SpanRecorder* spans, int64_t parent, const std::string& span_name,
               std::string* error) {
  std::string body = "{\"" + field + "\":";
  AppendJsonString(&body, path);
  body += "}";
  static std::atomic<int64_t> next_id{1};
  const std::string request_id = "bench-reload-" + std::to_string(next_id++);
  int status = 0;
  std::string reply;
  const int64_t start = NowNs();
  const bool ok = conn->RoundTrip(EncodeRequest("POST", "/admin/reload", body, request_id),
                                  &status, &reply, error);
  const int64_t end = NowNs();
  spans->Add(span_name, parent, start, end, request_id);
  *ms = static_cast<double>(end - start) * 1e-6;
  JVal json;
  if (!ok || status != 200 || !ParseJson(reply, &json, error)) {
    *error = "reload " + path + ": HTTP " + std::to_string(status) + " " + reply.substr(0, 200) +
             *error;
    return -1;
  }
  const JVal* generation = json.get("generation");
  return generation != nullptr && generation->is_num() ? static_cast<int64_t>(generation->num) : -1;
}

}  // namespace

int PrepareReload(const Args& args) {
  const std::string dir = args.Str("dir");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  const Dims d = kLarge;
  const struct { const char* name; uint64_t variant; uint64_t generation; } files[] = {
      {"a.cpdb", 0, kBaseGeneration}, {"b.cpdb", 1, kOtherGeneration}};
  for (const auto& f : files) {
    const cpd::Status written =
        cpd::WriteModelArtifact(Path(dir, f.name), MakeArtifact(seed, f.variant, d, f.generation, "w"));
    if (!written.ok()) {
      std::fprintf(stderr, "cpdbench: %s: %s\n", f.name, written.ToString().c_str());
      return 1;
    }
  }
  for (int i = 1; i <= kDeltas; ++i) {
    const cpd::Status written = cpd::WriteModelDelta(Path(dir, DeltaName(i)), MakeDelta(seed, i, d));
    if (!written.ok()) {
      std::fprintf(stderr, "cpdbench: delta %d: %s\n", i, written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

int ReloadWorkload(const Args& args) {
  const std::string dir = args.Str("dir");
  const int port = static_cast<int>(args.Int("port", 0));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  const double seconds = args.Num("seconds", 10.0);
  const bool traced = args.Int("trace", 0) != 0;
  const bool fault_step = args.Int("fault_step", 1) != 0;
  const Dims d = kLarge;
  SpanRecorder spans(traced);
  Outcome outcome;

  // The fault step's two same-size artifacts, seed-independent.
  const cpd::ModelArtifact fault[2] = {MakeArtifact(kFaultSeed, 0, kFault, 1, "f"),
                                       MakeArtifact(kFaultSeed, 1, kFault, 1, "f")};
  const std::string fault_path = Path(dir, "fault.cpdb");
  if (!cpd::WriteModelArtifact(fault_path, fault[0]).ok()) {
    std::fprintf(stderr, "cpdbench: cannot write %s\n", fault_path.c_str());
    return 1;
  }

  // Expected state after the delta chain: the last delta touching a user
  // owns its row; the globals are the last delta's.
  std::vector<std::pair<uint64_t, int>> chain_rows;  // (user, delta) samples
  {
    std::mt19937_64 rng(seed + 5);
    for (int i = 1; i <= kDeltas; ++i) {
      const auto users = DeltaUsers(seed, i, d.users);
      for (int k = 0; k < kSampledRows / 2; ++k) chain_rows.push_back({users[rng() % users.size()], 0});
    }
    for (int k = 0; k < kSampledRows; ++k) chain_rows.push_back({rng() % d.users, 0});
    for (auto& [user, owner] : chain_rows) {
      for (int i = 1; i <= kDeltas; ++i) {
        const auto users = DeltaUsers(seed, i, d.users);
        if (std::binary_search(users.begin(), users.end(), user)) owner = i;
      }
    }
  }
  DenseModel chain_globals;
  {
    Globals g = MakeGlobals(seed, DeltaVariant(kDeltas), d);
    chain_globals.num_communities = d.communities;
    chain_globals.num_topics = d.topics;
    chain_globals.vocab_size = d.vocab;
    chain_globals.theta = std::move(g.theta);
    chain_globals.phi = std::move(g.phi);
    chain_globals.eta = std::move(g.eta);
  }
  std::vector<std::vector<int>> rank_queries;
  {
    std::mt19937_64 rng(seed + 6);
    for (int q = 0; q < 4; ++q) {
      rank_queries.push_back({static_cast<int>(rng() % d.vocab), static_cast<int>(rng() % d.vocab)});
    }
  }

  HttpConn conn;
  std::string error;
  if (!conn.Connect(port, &error)) {
    std::fprintf(stderr, "cpdbench: connect: %s\n", error.c_str());
    return 1;
  }
  std::mt19937_64 sample_rng(seed + 4);
  std::vector<double> full_ms, delta_ms, full_a_ms;
  std::vector<double> pi;
  int64_t generation = 0;
  auto expect_generation = [&](int64_t got, const std::string& what) {
    if (got < 0) {
      outcome.Op(false);
      outcome.CheckFailed(what + ": " + error);
      return false;
    }
    outcome.Op(true);
    if (got <= generation) outcome.CheckFailed(what + " did not raise the generation");
    generation = got;
    return true;
  };
  auto check_row = [&](size_t user, const std::vector<double>& expected, const std::string& what) {
    const bool ok = FetchPi(&conn, user, &pi, &error);
    outcome.Op(ok);
    if (!ok) {
      outcome.CheckFailed(what + ": " + error);
    } else if (pi != expected) {
      outcome.CheckFailed(what + ": pi of user " + std::to_string(user) + " differs");
    }
  };

  // The server's memory after full reloads alone (B, A, B, A), read before
  // the reader starts: with no other request in flight the figure repeats
  // to the megabyte, while read later it carries whatever the allocator's
  // per-thread arenas kept of dropped generations and delta overlays.
  const int server_pid = static_cast<int>(args.Int("pid", 0));
  for (const char* name : {"b.cpdb", "a.cpdb", "b.cpdb", "a.cpdb"}) {
    double ms = 0.0;
    const int64_t got = Reload(&conn, "path", Path(dir, name), &ms, &spans, 0,
                               "http.reload_memory_probe", &error);
    if (got <= generation) outcome.CheckFailed("memory-probe reload of " + std::string(name) + ": " + error);
    generation = got;
  }
  const double anon_mb = ProcStatusMb(server_pid, "RssAnon");
  const double file_mb = ProcStatusMb(server_pid, "RssFile");

  Reader reader;
  std::thread reader_thread(ReadLoop, port, d.users, seed * 17 + 1, &reader);
  const int64_t window_start = NowNs();
  int rounds = 0;
  for (; rounds == 0 || SecondsSince(window_start) < seconds; ++rounds) {
    const int64_t round_span = spans.Open("reload.round", 0);
    double ms = 0.0;
    // Full switches: B, A, B, A (A is the base the deltas patch).
    for (const auto& [name, variant] : {std::pair<const char*, uint64_t>{"b.cpdb", 1},
                                        std::pair<const char*, uint64_t>{"a.cpdb", 0},
                                        std::pair<const char*, uint64_t>{"b.cpdb", 1},
                                        std::pair<const char*, uint64_t>{"a.cpdb", 0}}) {
      if (!expect_generation(Reload(&conn, "path", Path(dir, name), &ms, &spans, round_span,
                                    "http.reload_full", &error),
                             std::string("full reload of ") + name)) {
        break;
      }
      full_ms.push_back(ms);
      if (variant == 0) full_a_ms.push_back(ms);
      for (int k = 0; k < kSampledRows; ++k) {
        const size_t user = sample_rng() % d.users;
        check_row(user, PiRowVector(seed, variant, user, d.communities),
                  std::string("after reloading ") + name);
      }
    }
    for (int i = 1; i <= kDeltas; ++i) {
      if (!expect_generation(Reload(&conn, "delta", Path(dir, DeltaName(i)), &ms, &spans,
                                    round_span, "http.reload_delta", &error),
                             "delta reload " + std::to_string(i))) {
        break;
      }
      delta_ms.push_back(ms);
    }
    for (const auto& [user, owner] : chain_rows) {
      check_row(user, PiRowVector(seed, owner == 0 ? 0 : DeltaVariant(owner), user, d.communities),
                "after the delta chain");
    }
    for (const auto& words : rank_queries) {
      std::string body = "{\"type\":\"rank\",\"words\":[" + std::to_string(words[0]) + "," +
                         std::to_string(words[1]) + "],\"top_k\":5}";
      int status = 0;
      std::string reply;
      JVal json;
      const bool ok = conn.RoundTrip(EncodeRequest("POST", "/v1/query", body), &status, &reply, &error) &&
                      status == 200 && ParseJson(reply, &json, &error);
      outcome.Op(ok);
      outcome.Expect(ok ? CheckRank(json, Eq19Scores(chain_globals, words),
                                    Eq19Terms(chain_globals, words), 5, 1e-9)
                        : "HTTP " + std::to_string(status) + " " + error,
                     "rank after the delta chain");
    }

    // The fault step, with the reader paused: serve the small artifact,
    // rewrite it in place, read, then reload it and go back to A. A traced
    // run of another workload skips it (--fault_step 0): that run counts
    // only its own workload's operations, and these reads fail by design.
    if (fault_step) {
      reader.pause.store(true);
      while (!reader.paused.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
      const cpd::ModelArtifact& live = fault[rounds % 2];
      const cpd::ModelArtifact& next = fault[(rounds + 1) % 2];
      expect_generation(Reload(&conn, "path", fault_path, &ms, &spans, round_span,
                               "http.reload_fault", &error), "reload of the fault artifact");
      const int64_t write_start = NowNs();
      if (!cpd::WriteModelArtifact(fault_path, next).ok()) {
        outcome.CheckFailed("cannot rewrite " + fault_path);
      }
      spans.Add("core.WriteModelArtifact", round_span, write_start, NowNs());
      const size_t kc = static_cast<size_t>(kFault.communities);
      for (int u = 0; u < kFaultReads; ++u) {
        const bool ok = FetchPi(&conn, static_cast<size_t>(u), &pi, &error);
        const std::vector<double> expected(live.pi.begin() + u * kc,
                                           live.pi.begin() + (u + 1) * kc);
        outcome.Op(ok && pi == expected);
      }
      expect_generation(Reload(&conn, "path", fault_path, &ms, &spans, round_span,
                               "http.reload_fault", &error), "reload of the rewritten artifact");
      for (int u = 0; u < kFaultReads; ++u) {
        check_row(static_cast<size_t>(u),
                  std::vector<double>(next.pi.begin() + u * kc, next.pi.begin() + (u + 1) * kc),
                  "after reloading the rewritten artifact");
      }
      expect_generation(Reload(&conn, "path", Path(dir, "a.cpdb"), &ms, &spans, round_span,
                               "http.reload_back", &error), "reload back to a.cpdb");
      reader.pause.store(false);
    }
    spans.Close(round_span);
  }
  const double window_s = SecondsSince(window_start);
  reader.stop.store(true);
  reader_thread.join();
  // attempted/failed count the rounds' operations only, so the fault reads
  // are the same share of them in every run; the reader's reads (their
  // number follows the speed of the run) must all succeed.
  if (reader.failed > 0) {
    outcome.CheckFailed(std::to_string(reader.failed) + " reader requests failed, first: " +
                        reader.first_error);
  }
  std::fprintf(stderr,
               "cpdbench: reload: %d rounds, %d users; full %.1f ms (n=%zu), delta %.1f ms "
               "(n=%zu); %lld reader requests\n",
               rounds, static_cast<int>(d.users), Median(full_ms), full_ms.size(),
               Median(delta_ms), delta_ms.size(), static_cast<long long>(reader.attempted));

  // The workload's figures, in both runs; run.py picks what it reports.
  outcome.Metric("reload_ms", Median(full_ms), "ms");
  outcome.Metric("reload_delta_ms", Median(delta_ms), "ms");
  outcome.Metric("reloads_per_s",
                 static_cast<double>(full_ms.size() + delta_ms.size()) / window_s, "1/s");
  outcome.Metric("server_anon_rss_mb", anon_mb, "MB");
  if (traced) {
    // The layers of one load, in-process on the same files.
    std::vector<double> open_ms, index_ms, bare_ms, read_ms, overlay_ms;
    for (int rep = 0; rep < 5; ++rep) {
      int64_t t = NowNs();
      auto mapped = cpd::MappedModelArtifact::Open(Path(dir, "a.cpdb"));
      spans.Add("core.MappedModelArtifact::Open", 0, t, NowNs());
      open_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      if (!mapped.ok()) {
        outcome.CheckFailed("in-process map: " + mapped.status().ToString());
        break;
      }
      t = NowNs();
      auto index = cpd::serve::ProfileIndex::FromMapped(*mapped);
      spans.Add("serve.ProfileIndex::FromMapped", 0, t, NowNs());
      index_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      cpd::serve::ProfileIndexOptions bare;
      bare.precompute_scoring = false;
      t = NowNs();
      auto unscored = cpd::serve::ProfileIndex::FromMapped(*mapped, bare);
      spans.Add("serve.ProfileIndex::FromMapped(precompute_scoring=false)", 0, t, NowNs());
      bare_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      const int i = 1 + rep % kDeltas;
      t = NowNs();
      auto delta = cpd::ReadModelDelta(Path(dir, DeltaName(i)));
      spans.Add("core.ReadModelDelta", 0, t, NowNs());
      read_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
      if (!index.ok() || !unscored.ok() || !delta.ok()) {
        outcome.CheckFailed("in-process index or delta read failed");
        break;
      }
      if (i == 1) {
        t = NowNs();
        auto overlay = cpd::serve::ProfileIndex::FromMappedWithDelta(*mapped, *delta);
        spans.Add("serve.ProfileIndex::FromMappedWithDelta", 0, t, NowNs());
        overlay_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
        if (!overlay.ok()) outcome.CheckFailed("in-process overlay: " + overlay.status().ToString());
      }
    }
    outcome.Metric("core.map_open_ms", Median(open_ms), "ms");
    outcome.Metric("serve.index_from_mapped_ms", Median(index_ms), "ms");
    outcome.Metric("serve.scoring_tables_ms", Median(index_ms) - Median(bare_ms), "ms");
    outcome.Metric("core.delta_read_ms", Median(read_ms), "ms");
    outcome.Metric("serve.delta_overlay_ms", Median(overlay_ms), "ms");
    outcome.Metric("server.rss_file_mb", file_mb, "MB");
    outcome.Metric("server.reload_overhead_ms",
                   Median(full_a_ms) - Median(open_ms) - Median(index_ms), "ms");
    if (args.Has("trace_out") && !spans.WriteFile(args.Str("trace_out"))) {
      std::fprintf(stderr, "cpdbench: cannot write %s\n", args.Str("trace_out").c_str());
    }
  }
  outcome.Print();
  return 0;
}

}  // namespace bench
