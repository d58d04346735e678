// The `ingest` workload: writes beside reads on one cpd_serve started with
// the training-graph quartet. A sequence of UpdateBatches goes to
// POST /admin/ingest while a reader connection keeps querying memberships.
// One reader, not more: the ingest handler keeps one core busy for the
// whole window, and on a 4-core machine a second reader chain made the
// read tail a measure of CPU oversubscription rather than of the server.
// Each batch mints new users whose documents replay documents of planted
// community-mates and who befriend members of their planted community;
// some of their documents diffuse existing ones.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "core/cpd_model.h"
#include "graph/graph_io.h"
#include "http_client.h"
#include "ingest/ingest_pipeline.h"
#include "workloads.h"

namespace bench {
namespace {

// A new user's shape is bench_ingest's: 4 documents, 4 friendships each
// way, 2 diffusion links per new user. The batch size is assumed, not
// measured: 20 new users, 0.5% of the 4,000-user graph, so the 15-20
// batches of a 10 s run grow it by under a tenth and the last batch costs
// about what the first does.
constexpr int kNewUsersPerBatch = 20;
constexpr int kDocsPerNewUser = 4;
constexpr int kFriendsPerNewUser = 4;
constexpr int kDiffusionsPerBatch = 2 * kNewUsersPerBatch;
constexpr int kReaders = 1;
constexpr size_t kWatchedUsers = 200;  // untouched-row sample

struct Batch {
  size_t num_users = 0;
  std::vector<cpd::ingest::NewDocument> documents;
  std::vector<cpd::FriendshipLink> friendships;
  std::vector<cpd::ingest::NewDiffusion> diffusions;
  std::vector<int> new_users;
  std::set<int> touched;  // every user whose evidence the batch changes

  std::string ToJson() const {
    std::string out = "{\"num_users\":" + std::to_string(num_users) + ",\"documents\":[";
    for (size_t i = 0; i < documents.size(); ++i) {
      const auto& d = documents[i];
      out += (i ? ",{\"user\":" : "{\"user\":") + std::to_string(d.user) +
             ",\"time\":" + std::to_string(d.time) + ",\"tokens\":[";
      for (size_t k = 0; k < d.tokens.size(); ++k) {
        if (k) out.push_back(',');
        AppendJsonString(&out, d.tokens[k]);
      }
      out += "]}";
    }
    out += "],\"friendships\":[";
    for (size_t i = 0; i < friendships.size(); ++i) {
      out += (i ? ",{\"u\":" : "{\"u\":") + std::to_string(friendships[i].u) +
             ",\"v\":" + std::to_string(friendships[i].v) + "}";
    }
    out += "],\"diffusions\":[";
    for (size_t i = 0; i < diffusions.size(); ++i) {
      out += (i ? ",{\"i\":" : "{\"i\":") + std::to_string(diffusions[i].i) +
             ",\"j\":" + std::to_string(diffusions[i].j) +
             ",\"time\":" + std::to_string(diffusions[i].time) + "}";
    }
    return out + "]}";
  }

  cpd::ingest::UpdateBatch ToUpdate() const {
    cpd::ingest::UpdateBatch update;
    update.num_users = num_users;
    update.documents = documents;
    update.friendships = friendships;
    update.diffusions = diffusions;
    return update;
  }
};

// Deterministic batch sequence over the loaded base graph.
class BatchMaker {
 public:
  BatchMaker(const cpd::SocialGraph& graph, const std::vector<int>& home, uint64_t seed)
      : graph_(graph), home_(home), rng_(seed * 0x94D049BB133111EBULL + 7),
        num_users_(graph.num_users()), num_docs_(graph.num_documents()) {
    int communities = 0;
    for (const int h : home) communities = std::max(communities, h + 1);
    members_.resize(static_cast<size_t>(communities));
    for (size_t u = 0; u < home.size(); ++u) members_[static_cast<size_t>(home[u])].push_back(static_cast<int>(u));
  }

  Batch Next() {
    Batch b;
    const auto& vocab = graph_.corpus().vocabulary();
    const size_t base_docs = num_docs_;
    for (int n = 0; n < kNewUsersPerBatch; ++n) {
      const int user = static_cast<int>(num_users_++);
      const auto& mates = members_[static_cast<size_t>(home_[rng_() % home_.size()])];
      for (int d = 0; d < kDocsPerNewUser; ++d) {
        const int mate = mates[rng_() % mates.size()];
        const auto docs = graph_.DocumentsOf(mate);
        const cpd::Document& source = graph_.document(docs[rng_() % docs.size()]);
        cpd::ingest::NewDocument doc;
        doc.user = user;
        doc.time = source.time;
        for (const cpd::WordId w : source.words) doc.tokens.push_back(vocab.WordOf(w));
        b.documents.push_back(std::move(doc));
      }
      for (int f = 0; f < kFriendsPerNewUser; ++f) {
        const int mate = mates[rng_() % mates.size()];
        b.friendships.push_back({user, mate});
        b.friendships.push_back({mate, user});
        b.touched.insert(mate);
      }
      b.new_users.push_back(user);
      b.touched.insert(user);
    }
    for (int e = 0; e < kDiffusionsPerBatch; ++e) {
      const size_t row = rng_() % b.documents.size();
      const cpd::DocId j = static_cast<cpd::DocId>(rng_() % graph_.num_documents());
      cpd::ingest::NewDiffusion link;
      link.i = static_cast<int64_t>(base_docs + row);
      link.j = j;
      link.time = std::max(b.documents[row].time, graph_.document(j).time);
      b.documents[row].time = link.time;
      b.diffusions.push_back(link);
      b.touched.insert(graph_.document(j).user);
    }
    b.num_users = num_users_;
    num_docs_ += b.documents.size();
    return b;
  }

 private:
  const cpd::SocialGraph& graph_;
  const std::vector<int>& home_;
  std::mt19937_64 rng_;
  std::vector<std::vector<int>> members_;
  size_t num_users_;
  size_t num_docs_;
};

bool GetPi(HttpConn* conn, int user, int* status, std::vector<double>* pi,
           std::string* error) {
  std::string body;
  const std::string request =
      EncodeRequest("GET", "/v1/membership/" + std::to_string(user) + "?k=5&distribution=1", "");
  if (!conn->RoundTrip(request, status, &body, error)) return false;
  if (*status != 200) return true;
  JVal json;
  if (!ParseJson(body, &json, error) || !ReadDistribution(json, pi)) {
    *error = "membership reply without a distribution";
    return false;
  }
  return true;
}

// A reader connection: random base-user memberships until told to stop.
struct Reader {
  std::atomic<bool> stop{false};
  std::atomic<bool> quiet{true};  // no ingest in flight in this phase
  std::vector<double> quiet_us;
  std::vector<TimedSample> busy;  // completion, rtt (us) beside ingests
  int64_t attempted = 0, failed = 0;
  std::string first_error;
};

void ReadLoop(int port, int num_users, uint64_t seed, Reader* r) {
  HttpConn conn;
  std::string error;
  if (!conn.Connect(port, &error)) {
    r->first_error = "reader connect: " + error;
    ++r->failed;
    return;
  }
  std::mt19937_64 rng(seed);
  std::vector<double> pi;
  while (!r->stop.load(std::memory_order_relaxed)) {
    const int user = static_cast<int>(rng() % static_cast<uint64_t>(num_users));
    const bool quiet = r->quiet.load(std::memory_order_relaxed);
    int status = 0;
    const int64_t start = NowNs();
    const bool ok = GetPi(&conn, user, &status, &pi, &error);
    const double us = static_cast<double>(NowNs() - start) * 1e-3;
    ++r->attempted;
    const std::string problem = !ok ? error
                                : status != 200 ? "HTTP " + std::to_string(status)
                                                : CheckSimplex(pi, 1e-9);
    if (!problem.empty()) {
      ++r->failed;
      if (r->first_error.empty()) r->first_error = "read of user " + std::to_string(user) + ": " + problem;
      if (!ok) conn.Connect(port, &error);
      continue;
    }
    if (quiet) {
      r->quiet_us.push_back(us);
    } else {
      r->busy.push_back({NowNs(), us});
    }
  }
}

}  // namespace

int IngestWorkload(const Args& args) {
  const std::string dir = args.Str("dir");
  const int port = static_cast<int>(args.Int("port", 0));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  const double seconds = args.Num("seconds", 10.0);
  const bool traced = args.Int("trace", 0) != 0;
  SpanRecorder spans(traced);
  Outcome outcome;

  DenseModel model;
  if (!LoadDense(dir + "/model.dense", &model)) {
    std::fprintf(stderr, "cpdbench: cannot read %s/model.dense\n", dir.c_str());
    return 1;
  }
  auto graph = cpd::LoadSocialGraph(model.num_users, dir + "/docs.tsv",
                                    dir + "/friends.tsv", dir + "/diffusion.tsv");
  if (!graph.ok()) {
    std::fprintf(stderr, "cpdbench: graph load: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::vector<int> home;
  {
    std::FILE* f = std::fopen((dir + "/truth.tsv").c_str(), "r");
    int c = 0;
    while (f != nullptr && std::fscanf(f, "%d", &c) == 1) home.push_back(c);
    if (f != nullptr) std::fclose(f);
  }
  BatchMaker maker(*graph, home, seed);
  std::mt19937_64 rng(seed + 99);
  std::vector<int> watched;
  for (size_t i = 0; i < kWatchedUsers; ++i) {
    watched.push_back(static_cast<int>(rng() % model.num_users));
  }
  std::sort(watched.begin(), watched.end());
  watched.erase(std::unique(watched.begin(), watched.end()), watched.end());

  HttpConn conn;
  std::string error;
  if (!conn.Connect(port, &error)) {
    std::fprintf(stderr, "cpdbench: connect: %s\n", error.c_str());
    return 1;
  }

  std::vector<std::unique_ptr<Reader>> readers;
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<Reader>());
    threads.emplace_back(ReadLoop, port, static_cast<int>(model.num_users),
                         seed * 31 + static_cast<uint64_t>(r), readers.back().get());
  }
  // A quiet second of reads alone, then the ingest window.
  std::this_thread::sleep_for(std::chrono::seconds(1));
  for (auto& r : readers) r->quiet.store(false);

  std::vector<Batch> sent;
  std::vector<double> rtt_ms, warm_s, swap_s, overhead_ms;
  std::set<int> touched_ever;
  std::map<int, std::vector<double>> baseline;  // pi after the first ingest
  const int server_pid = static_cast<int>(args.Int("pid", 0));
  double anon_mb = 0.0;
  const int64_t window_start = NowNs();
  const int64_t window_span = spans.Open("phase.ingest", 0);
  for (uint64_t sequence = 1; sequence == 1 || SecondsSince(window_start) < seconds; ++sequence) {
    Batch batch = maker.Next();
    int status = 0;
    std::vector<double> pi;
    // Users new in this batch are unknown before it...
    for (const int u : batch.new_users) {
      const bool ok = GetPi(&conn, u, &status, &pi, &error);
      outcome.Op(ok && status == 404);
      if (!ok || status != 404) {
        outcome.CheckFailed("new user " + std::to_string(u) + " answered before its batch");
      }
    }
    const std::string body = batch.ToJson();
    const std::string request_id = "bench-ingest-" + std::to_string(sequence);
    std::string reply;
    const int64_t start = NowNs();
    const bool ok = conn.RoundTrip(EncodeRequest("POST", "/admin/ingest", body, request_id),
                                   &status, &reply, &error);
    const int64_t end = NowNs();
    spans.Add("http.admin_ingest", window_span, start, end, request_id);
    outcome.Op(ok && status == 200);
    JVal json;
    if (!ok || status != 200 || !ParseJson(reply, &json, &error)) {
      outcome.CheckFailed("ingest " + std::to_string(sequence) + " failed: HTTP " +
                          std::to_string(status) + " " + reply.substr(0, 200) + error);
      break;
    }
    const JVal* seq = json.get("sequence");
    const JVal* ingested = json.get("ingested");
    const JVal* docs = ingested ? ingested->get("documents") : nullptr;
    const JVal* dropped = ingested ? ingested->get("dropped_documents") : nullptr;
    const JVal* warm = json.get("warm_seconds");
    const JVal* total = json.get("total_seconds");
    if (seq == nullptr || seq->num != static_cast<double>(sequence)) {
      outcome.CheckFailed("ingest sequence did not rise by one");
    }
    if (docs == nullptr || docs->num != static_cast<double>(batch.documents.size()) ||
        dropped == nullptr || dropped->num != 0) {
      outcome.CheckFailed("not every token document of batch " + std::to_string(sequence) +
                          " was ingested");
    }
    rtt_ms.push_back(static_cast<double>(end - start) * 1e-6);
    if (warm != nullptr && total != nullptr) {
      warm_s.push_back(warm->num);
      swap_s.push_back(total->num - warm->num);
      overhead_ms.push_back(rtt_ms.back() - total->num * 1e3);
    }
    // ...and known after it.
    for (const int u : batch.new_users) {
      const bool got = GetPi(&conn, u, &status, &pi, &error);
      outcome.Op(got && status == 200);
      if (!got || status != 200) {
        outcome.CheckFailed("new user " + std::to_string(u) + " unknown after its batch");
      } else {
        outcome.Expect(CheckSimplex(pi, 1e-9), "new user " + std::to_string(u));
      }
    }
    // Users no batch touched keep bit-identical pi rows from the first
    // ingest on (the first one replaces the cold artifact's estimates with
    // the pipeline's own, reconstructed from them).
    touched_ever.insert(batch.touched.begin(), batch.touched.end());
    for (const int u : watched) {
      if (touched_ever.count(u)) continue;
      const bool got = GetPi(&conn, u, &status, &pi, &error);
      outcome.Op(got && status == 200);
      if (!got || status != 200) {
        outcome.CheckFailed("read of user " + std::to_string(u) + " failed");
      } else if (sequence == 1) {
        baseline[u] = pi;
      } else if (baseline.count(u) && pi != baseline[u]) {
        outcome.CheckFailed("pi of untouched user " + std::to_string(u) + " changed in ingest " +
                            std::to_string(sequence));
      }
    }
    sent.push_back(std::move(batch));
    // The server's memory once the pipeline holds its first update. Read
    // after later batches it grows by a few MB a batch, by amounts that
    // differ from run to run (47 MB after the first batch on two seeds,
    // 138 and 158 MB after the eighteenth).
    if (sequence == 1) anon_mb = ProcStatusMb(server_pid, "RssAnon");
  }
  const int64_t window_end = NowNs();
  spans.Close(window_span);
  for (auto& r : readers) r->stop.store(true);
  for (std::thread& t : threads) t.join();

  std::vector<double> quiet_us;
  std::vector<TimedSample> busy;
  for (const auto& r : readers) {
    outcome.Ops(r->attempted - r->failed);
    for (int64_t f = 0; f < r->failed; ++f) outcome.Op(false);
    if (!r->first_error.empty()) outcome.CheckFailed(r->first_error);
    quiet_us.insert(quiet_us.end(), r->quiet_us.begin(), r->quiet_us.end());
    busy.insert(busy.end(), r->busy.begin(), r->busy.end());
  }
  // The reads beside ingests, as medians over ten slices of the window.
  const auto busy_quantile = [&](double q) {
    return SliceMedian(busy, window_start, window_end, 10,
                       [q](const std::vector<double>& v, double) { return Quantile(v, q); });
  };
  const double busy_p90 = busy_quantile(0.9);
  const double busy_p99 = busy_quantile(0.99);
  std::fprintf(stderr,
               "cpdbench: ingest: %zu batches, median %.1f ms (warm %.1f ms); reads: "
               "%zu quiet p99 %.0f us, %zu beside ingest p50/p90/p99 %.0f/%.0f/%.0f us\n",
               sent.size(), Median(rtt_ms), Median(warm_s) * 1e3, quiet_us.size(),
               Quantile(quiet_us, 0.99), busy.size(), busy_quantile(0.5), busy_p90, busy_p99);

  // The workload's figures, in both runs; run.py picks what it reports.
  outcome.Metric("ingest_batch_ms", Median(rtt_ms), "ms");
  outcome.Metric("ingest_read_p90_us", busy_p90, "us");
  outcome.Metric("ingest_anon_rss_mb", anon_mb, "MB");
  // New users made servable per second of ingest round trips.
  outcome.Metric("ingest_users_per_s",
                 kNewUsersPerBatch * static_cast<double>(rtt_ms.size()) /
                     (std::accumulate(rtt_ms.begin(), rtt_ms.end(), 0.0) * 1e-3),
                 "1/s");
  if (traced) {
    outcome.Metric("ingest.warm_s", Median(warm_s), "s");
    outcome.Metric("ingest.swap_s", Median(swap_s), "s");
    outcome.Metric("ingest.rtt_overhead_ms", Median(overhead_ms), "ms");
    outcome.Metric("ingest.read_p99_us", busy_p99, "us");
    outcome.Metric("ingest.read_p99_us_quiet", Quantile(quiet_us, 0.99), "us");
    // The same batches through an in-process IngestPipeline set up as
    // cpd_serve sets up its own: the pipeline without HTTP or the swap.
    auto trained = cpd::CpdModel::LoadBinary(dir + "/model.cpdb");
    if (!trained.ok()) {
      std::fprintf(stderr, "cpdbench: %s\n", trained.status().ToString().c_str());
      return 1;
    }
    cpd::ingest::IngestOptions options;
    options.config = trained->config();
    options.config.num_communities = trained->num_communities();
    options.config.num_topics = trained->num_topics();
    options.config.num_threads = 1;
    options.warm_iterations = 2;
    options.artifact_base = dir + "/inprocess";
    auto pipeline = cpd::ingest::IngestPipeline::Create(
        std::make_shared<const cpd::SocialGraph>(std::move(*graph)), *trained, options);
    std::vector<double> pipeline_s;
    if (!pipeline.ok()) {
      outcome.CheckFailed("in-process pipeline: " + pipeline.status().ToString());
    } else {
      for (const Batch& b : sent) {
        const int64_t start = NowNs();
        const auto result = (*pipeline)->Ingest(b.ToUpdate());
        spans.Add("ingest.IngestPipeline::Ingest", 0, start, NowNs());
        if (!result.ok()) {
          outcome.CheckFailed("in-process ingest: " + result.status().ToString());
          break;
        }
        pipeline_s.push_back(SecondsSince(start));
      }
    }
    outcome.Metric("ingest.pipeline_s", Median(pipeline_s), "s");
    if (args.Has("trace_out") && !spans.WriteFile(args.Str("trace_out"))) {
      std::fprintf(stderr, "cpdbench: cannot write %s\n", args.Str("trace_out").c_str());
    }
  }
  outcome.Print();
  return 0;
}

}  // namespace bench
