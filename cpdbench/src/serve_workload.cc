// The `serve` workload: read-only traffic to a running cpd_serve as a
// closed loop from this one client process, first on 1 connection, then
// on 4. Callers of a profile service are application backends with fixed
// connection pools that wait for each reply, hence the closed loop.
//
// The mix (membership, text rank, diffusion, top_users, and a small share
// of batches) is a fixed set of distinct requests drawn from the seed.
// Before the timed phases every distinct request is sent once and its
// reply checked against the benchmark's own recomputation from the model
// it kept from training; during the phases every reply must be 200 and
// byte-identical to that checked reply (the model is read-only).

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "graph/graph_io.h"
#include "http_client.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "text/tokenizer.h"
#include "workloads.h"

namespace bench {
namespace {

constexpr size_t kMembershipK = 5;  // the index's default membership_top_k
constexpr size_t kRankK = 5;
constexpr size_t kTopUsersK = 10;
// The batch slice is assumed, not measured: no trace of real callers
// exists. It is kept small so that single queries dominate the figures,
// and a batch is half the 16 slots the server's coalescer seals by default.
constexpr int kBatchPercent = 5;
constexpr int kBatchSize = 8;
constexpr size_t kDistinctRequests = 2048;
// Connections of the second phase: the 4 cores of the machine the sizes
// were chosen on.
constexpr int kConnections = 4;

enum Type { kMembership = 0, kRank, kDiffusion, kTopUsers, kBatch, kNumTypes };
const char* const kTypeNames[kNumTypes] = {"membership", "rank", "diffusion",
                                           "top_users", "batch"};

// One query as the benchmark knows it: what to send and what to expect.
struct Query {
  Type type = kMembership;
  int user = 0;          // membership; diffusion source
  int target = 0;        // diffusion
  int document = 0;      // diffusion
  int time_bin = 0;      // diffusion
  int community = 0;     // top_users
  std::vector<int> words;  // rank
  std::string text;        // rank
};

std::string QueryBody(const Query& q) {
  switch (q.type) {
    case kMembership:
      return "{\"type\":\"membership\",\"user\":" + std::to_string(q.user) +
             ",\"top_k\":5,\"include_distribution\":true}";
    case kRank: {
      std::string body = "{\"type\":\"rank\",\"query\":";
      AppendJsonString(&body, q.text);
      return body + ",\"top_k\":5}";
    }
    case kDiffusion:
      return "{\"type\":\"diffusion\",\"source\":" + std::to_string(q.user) +
             ",\"target\":" + std::to_string(q.target) +
             ",\"document\":" + std::to_string(q.document) +
             ",\"time_bin\":" + std::to_string(q.time_bin) + "}";
    default:
      return "{\"type\":\"top_users\",\"community\":" + std::to_string(q.community) +
             ",\"top_k\":10}";
  }
}

// A request of the mix: one query, or a batch of them.
struct Request {
  Type type = kMembership;
  std::vector<Query> queries;
  std::string method, target, body;
};

class Expectations {
 public:
  explicit Expectations(const DenseModel& model)
      : model_(model),
        top_users_(TopUsersReference(model, kTopUsersK, kMembershipK)) {}

  // "" when `response` answers `q` correctly.
  std::string Check(const Query& q, const JVal& response) const {
    switch (q.type) {
      case kMembership:
        return CheckMembership(response, model_.PiRow(static_cast<size_t>(q.user)),
                               kMembershipK);
      case kRank:
        return CheckRank(response, Eq19Scores(model_, q.words),
                         Eq19Terms(model_, q.words), kRankK, 1e-9);
      case kDiffusion:
        return CheckDiffusion(response,
                              Sigmoid(Dot(model_.PiRow(static_cast<size_t>(q.user)),
                                          model_.PiRow(static_cast<size_t>(q.target)))));
      default: {
        const std::vector<int>& users = top_users_[static_cast<size_t>(q.community)];
        std::vector<double> weights;
        for (const int u : users) {
          weights.push_back(model_.PiRow(static_cast<size_t>(u))[static_cast<size_t>(q.community)]);
        }
        return CheckTopUsers(response, users, weights);
      }
    }
  }

 private:
  const DenseModel& model_;
  const std::vector<std::vector<int>> top_users_;
};

std::vector<Request> BuildMix(const DenseModel& model, const cpd::SocialGraph& graph,
                              uint64_t seed) {
  std::mt19937_64 rng(seed * 0x2545F4914F6CDD1DULL + 3);
  auto uniform = [&rng](size_t n) { return static_cast<int>(rng() % n); };
  std::unordered_map<std::string, int> word_id;
  for (size_t w = 0; w < model.vocab.size(); ++w) word_id[model.vocab[w]] = static_cast<int>(w);
  const int num_docs = static_cast<int>(graph.num_documents());

  auto make_query = [&](Type type) {
    Query q;
    q.type = type;
    switch (type) {
      case kMembership:
        q.user = uniform(model.num_users);
        break;
      case kRank: {
        // One or two words of a random document, each one the tokenizer
        // keeps as it is, so the server resolves the text to these ids.
        const int want = 1 + uniform(2);
        for (int attempt = 0; attempt < 64 && static_cast<int>(q.words.size()) < want; ++attempt) {
          const auto& words = graph.document(uniform(static_cast<size_t>(num_docs))).words;
          const std::string& word = model.vocab[static_cast<size_t>(words[rng() % words.size()])];
          const auto tokens = cpd::Tokenize(word);
          if (tokens.size() != 1 || tokens[0] != word) continue;
          const int id = word_id.at(word);
          if (std::find(q.words.begin(), q.words.end(), id) != q.words.end()) continue;
          q.words.push_back(id);
          if (!q.text.empty()) q.text.push_back(' ');
          q.text.append(word);
        }
        break;
      }
      case kDiffusion: {
        q.document = uniform(static_cast<size_t>(num_docs));
        const cpd::Document& doc = graph.document(q.document);
        q.target = doc.user;
        do {
          q.user = uniform(model.num_users);
        } while (q.user == q.target);
        q.time_bin = std::min(doc.time + 1, graph.num_time_bins() - 1);
        break;
      }
      default:
        q.community = uniform(static_cast<size_t>(model.num_communities));
        break;
    }
    return q;
  };
  // Single queries follow bench_query's serving mix: membership 55%,
  // rank 25%, diffusion 10%, top_users 10%. kBatchPercent of requests are
  // batches of kBatchSize queries drawn from the same mix.
  const auto single_type = [&uniform]() {
    const int draw = uniform(100);
    return draw < 55 ? kMembership : draw < 80 ? kRank : draw < 90 ? kDiffusion : kTopUsers;
  };
  std::vector<Request> mix;
  for (size_t i = 0; i < kDistinctRequests; ++i) {
    Request r;
    r.type = uniform(100) < kBatchPercent ? kBatch : single_type();
    if (r.type == kBatch) {
      r.method = "POST";
      r.target = "/v1/query";
      r.body = "{\"batch\":[";
      for (int b = 0; b < kBatchSize; ++b) {
        r.queries.push_back(make_query(single_type()));
        if (b > 0) r.body.push_back(',');
        r.body += QueryBody(r.queries.back());
      }
      r.body += "]}";
    } else if (r.type == kMembership) {
      r.queries.push_back(make_query(kMembership));
      r.method = "GET";
      r.target = "/v1/membership/" + std::to_string(r.queries[0].user) +
                 "?k=5&distribution=1";
    } else {
      r.queries.push_back(make_query(r.type));
      r.method = "POST";
      r.target = "/v1/query";
      r.body = QueryBody(r.queries[0]);
    }
    mix.push_back(std::move(r));
  }
  return mix;
}

std::string CheckReply(const Expectations& expect, const Request& r, int status,
                       const std::string& body) {
  if (status != 200) return "HTTP " + std::to_string(status) + ": " + body.substr(0, 200);
  JVal json;
  std::string error;
  if (!ParseJson(body, &json, &error)) return "unparsable reply: " + error;
  if (r.type != kBatch) return expect.Check(r.queries[0], json);
  const JVal* responses = json.get("responses");
  if (responses == nullptr || !responses->is_arr() ||
      responses->arr.size() != r.queries.size()) {
    return "batch reply has the wrong number of slots";
  }
  for (size_t i = 0; i < r.queries.size(); ++i) {
    const std::string problem = expect.Check(r.queries[i], responses->arr[i]);
    if (!problem.empty()) return "batch slot " + std::to_string(i) + ": " + problem;
  }
  return "";
}

// The timed closed loop of one connection.
struct LoopResult {
  std::vector<float> rtt_us[kNumTypes];
  std::vector<TimedSample> samples;  // every request: completion, rtt (us)
  int64_t attempted = 0;
  int64_t failed = 0;
};

void ClosedLoop(int port, const std::vector<Request>& mix,
                const std::vector<std::string>& encoded,
                const std::vector<std::string>& expected_body, uint64_t order_seed,
                int64_t deadline_ns, SpanRecorder* spans, int64_t parent_span,
                const std::string& id_prefix, LoopResult* out, Outcome* errors,
                std::mutex* errors_mutex) {
  HttpConn conn;
  std::string error, body;
  if (!conn.Connect(port, &error)) {
    std::lock_guard<std::mutex> lock(*errors_mutex);
    errors->CheckFailed("connect: " + error);
    return;
  }
  std::mt19937_64 rng(order_seed);
  for (auto& v : out->rtt_us) v.reserve(1 << 16);
  out->samples.reserve(1 << 18);
  int64_t n = 0;
  while (NowNs() < deadline_ns) {
    const size_t i = rng() % mix.size();
    std::string traced_request;
    std::string request_id;
    if (spans->enabled()) {
      request_id = id_prefix + std::to_string(n);
      traced_request = EncodeRequest(mix[i].method, mix[i].target, mix[i].body, request_id);
    }
    int status = 0;
    const int64_t start = NowNs();
    const bool ok = conn.RoundTrip(spans->enabled() ? traced_request : encoded[i],
                                   &status, &body, &error);
    const int64_t end = NowNs();
    ++n;
    ++out->attempted;
    if (spans->enabled()) {
      spans->Add(std::string("http.") + kTypeNames[mix[i].type], parent_span, start, end,
                 request_id);
    }
    if (!ok || status != 200 || body != expected_body[i]) {
      ++out->failed;
      std::lock_guard<std::mutex> lock(*errors_mutex);
      errors->CheckFailed(ok ? "reply differs from the checked reply: HTTP " +
                                   std::to_string(status)
                             : "transport: " + error);
      if (!ok && !conn.Connect(port, &error)) return;
      continue;
    }
    out->rtt_us[mix[i].type].push_back(static_cast<float>((end - start) * 1e-3));
    out->samples.push_back({end, static_cast<double>(end - start) * 1e-3});
  }
}

std::vector<TimedSample> AllSamples(const std::vector<LoopResult>& results) {
  std::vector<TimedSample> all;
  for (const LoopResult& r : results) all.insert(all.end(), r.samples.begin(), r.samples.end());
  return all;
}

// Each phase is reported as the median over this many equal time slices.
constexpr int kSlices = 10;

double SliceQuantile(const std::vector<TimedSample>& samples, int64_t start, int64_t end,
                     double q) {
  return SliceMedian(samples, start, end, kSlices,
                     [q](const std::vector<double>& v, double) { return Quantile(v, q); });
}

std::string Scrape(int port) {
  int status = 0;
  std::string body, error;
  if (!HttpOnce(port, "GET", "/metricsz", "", &status, &body, &error) || status != 200) {
    return "";
  }
  return body;
}

// In-process QueryEngine over the same artifact and queries: the scoring
// layer without transport, parsing or serialization (traced run only).
void EngineLayer(const std::string& artifact, const cpd::SocialGraph& graph,
                 const std::vector<Request>& mix, SpanRecorder* spans, Outcome* outcome) {
  auto index = cpd::serve::ProfileIndex::LoadFromFile(artifact);
  if (!index.ok()) {
    outcome->CheckFailed("in-process index load: " + index.status().ToString());
    return;
  }
  const cpd::serve::QueryEngine engine(*index, &graph);
  const int64_t parent = spans->Open("serve.engine_loop", 0);
  std::vector<double> us[4];
  const int64_t deadline = NowNs() + 1'000'000'000;
  for (size_t round = 0; NowNs() < deadline; ++round) {
    const Request& r = mix[round % mix.size()];
    for (const Query& q : r.queries) {
      cpd::serve::QueryRequest request;
      if (q.type == kMembership) {
        request = cpd::serve::MembershipRequest{q.user, 5, true};
      } else if (q.type == kRank) {
        request = cpd::serve::RankCommunitiesRequest{
            std::vector<cpd::WordId>(q.words.begin(), q.words.end()), 5, true};
      } else if (q.type == kDiffusion) {
        request = cpd::serve::DiffusionRequest{q.user, q.target, q.document, q.time_bin};
      } else {
        request = cpd::serve::TopUsersRequest{q.community, 10};
      }
      const int64_t start = NowNs();
      const auto response = engine.Query(request);
      const int64_t end = NowNs();
      spans->Add(std::string("serve.QueryEngine::") + kTypeNames[q.type], parent, start, end);
      if (!response.ok()) outcome->CheckFailed("in-process query: " + response.status().ToString());
      us[q.type].push_back(static_cast<double>(end - start) * 1e-3);
    }
  }
  spans->Close(parent);
  for (int t = 0; t < 4; ++t) {
    outcome->Metric(std::string("serve.engine_p50_us.") + kTypeNames[t], Median(us[t]), "us");
  }
}

}  // namespace

int ServeWorkload(const Args& args) {
  const std::string dir = args.Str("dir");
  const int port = static_cast<int>(args.Int("port", 0));
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  const double seconds = args.Num("seconds", 10.0);
  const bool traced = args.Int("trace", 0) != 0;
  SpanRecorder spans(traced);
  Outcome outcome;
  std::mutex outcome_mutex;

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
  const std::vector<Request> mix = BuildMix(model, *graph, seed);
  const Expectations expect(model);
  std::vector<std::string> encoded;
  for (const Request& r : mix) encoded.push_back(EncodeRequest(r.method, r.target, r.body));

  // Check pass (untimed): every distinct request once; its reply, once
  // checked, is what every later reply to it must equal byte for byte.
  std::vector<std::string> expected_body(mix.size());
  {
    HttpConn conn;
    std::string error;
    if (!conn.Connect(port, &error)) {
      std::fprintf(stderr, "cpdbench: connect: %s\n", error.c_str());
      return 1;
    }
    for (size_t i = 0; i < mix.size(); ++i) {
      int status = 0;
      const bool ok = conn.RoundTrip(encoded[i], &status, &expected_body[i], &error);
      outcome.Op(ok && status == 200);
      outcome.Expect(ok ? CheckReply(expect, mix[i], status, expected_body[i]) : error,
                     std::string(kTypeNames[mix[i].type]) + " request " + std::to_string(i));
    }
  }

  // Phase 1: one connection. Phase 2: kConnections connections.
  const std::string before_c1 = traced ? Scrape(port) : "";
  std::vector<LoopResult> c1(1);
  const int64_t c1_span = spans.Open("phase.c1", 0);
  const int64_t c1_start = NowNs();
  const int64_t c1_deadline = c1_start + static_cast<int64_t>(seconds * 0.5e9);
  ClosedLoop(port, mix, encoded, expected_body, seed + 101, c1_deadline, &spans, c1_span,
             "bench-c1-", &c1[0], &outcome, &outcome_mutex);
  spans.Close(c1_span);
  const std::string after_c1 = traced ? Scrape(port) : "";

  std::vector<LoopResult> cn(static_cast<size_t>(kConnections));
  std::vector<std::thread> threads;
  const int64_t cn_span = spans.Open("phase.c" + std::to_string(kConnections), 0);
  const int64_t cn_start = NowNs();
  const int64_t cn_deadline = cn_start + static_cast<int64_t>(seconds * 0.5e9);
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back(ClosedLoop, port, std::cref(mix), std::cref(encoded),
                         std::cref(expected_body), seed + 202 + static_cast<uint64_t>(t),
                         cn_deadline, &spans, cn_span,
                         "bench-c" + std::to_string(kConnections) + "-" + std::to_string(t) + "-",
                         &cn[static_cast<size_t>(t)], &outcome, &outcome_mutex);
  }
  for (std::thread& t : threads) t.join();
  const double cn_seconds = SecondsSince(cn_start);
  spans.Close(cn_span);
  for (const auto* phase : {&c1, &cn}) {
    for (const LoopResult& r : *phase) {
      outcome.Ops(r.attempted - r.failed);
      for (int64_t f = 0; f < r.failed; ++f) outcome.Op(false);
    }
  }

  const std::vector<TimedSample> c1_samples = AllSamples(c1);
  const std::vector<TimedSample> cn_samples = AllSamples(cn);
  const double c1_p50 = SliceQuantile(c1_samples, c1_start, c1_deadline, 0.5);
  const double cn_qps = SliceMedian(cn_samples, cn_start, cn_deadline, kSlices,
                                    [](const std::vector<double>& v, double slice_s) {
                                      return static_cast<double>(v.size()) / slice_s;
                                    });
  const double cn_p50 = SliceQuantile(cn_samples, cn_start, cn_deadline, 0.5);
  const double cn_p90 = SliceQuantile(cn_samples, cn_start, cn_deadline, 0.9);
  const double cn_p99 = SliceQuantile(cn_samples, cn_start, cn_deadline, 0.99);
  std::fprintf(stderr,
               "cpdbench: serve: c1 %zu requests, p50 %.1f us; c%d %zu requests in %.2f s, "
               "%.0f req/s, p90 %.1f us, p99 %.1f us (medians over %d slices)\n",
               c1_samples.size(), c1_p50, kConnections, cn_samples.size(), cn_seconds, cn_qps,
               cn_p90, cn_p99, kSlices);
  // The workload's figures, in both runs; run.py picks what it reports.
  outcome.Metric("query_c1_p50_us", c1_p50, "us");
  outcome.Metric("query_qps", cn_qps, "req/s");
  outcome.Metric("query_p50_us", cn_p50, "us");
  outcome.Metric("query_p90_us", cn_p90, "us");
  outcome.Metric("serve_anon_rss_mb",
                 ProcStatusMb(static_cast<int>(args.Int("pid", 0)), "RssAnon"), "MB");
  if (traced) {
    outcome.Metric("server.rtt_c4_p99_us", cn_p99, "us");
    for (int t = 0; t < kNumTypes; ++t) {
      const auto& v = c1[0].rtt_us[t];
      outcome.Metric(std::string("server.rtt_c1_p50_us.") + kTypeNames[t],
                     Median(std::vector<double>(v.begin(), v.end())), "us");
    }
    const struct { const char* stage; const char* family; } kStages[] = {
        {"queue_wait", "cpd_request_stage_us"}, {"parse", "cpd_query_stage_us"},
        {"scoring", "cpd_query_stage_us"}, {"serialize", "cpd_query_stage_us"},
        {"write", "cpd_request_stage_us"}};
    for (const auto& s : kStages) {
      const std::string label = std::string("stage=\"") + s.stage + "\"";
      outcome.Metric(std::string("server.stage_p50_us.") + s.stage,
                     HistogramDeltaQuantile(ParseHistogram(before_c1, s.family, label),
                                            ParseHistogram(after_c1, s.family, label), 0.5),
                     "us");
    }
    const double handler_p50 = HistogramDeltaQuantile(
        ParseHistogram(before_c1, "cpd_query_latency_us", ""),
        ParseHistogram(after_c1, "cpd_query_latency_us", ""), 0.5);
    outcome.Metric("server.handler_p50_us", handler_p50, "us");
    outcome.Metric("server.transport_share_c1", 1.0 - handler_p50 / c1_p50, "1");
    EngineLayer(dir + "/model.cpdb", *graph, mix, &spans, &outcome);
    if (args.Has("trace_out") && !spans.WriteFile(args.Str("trace_out"))) {
      std::fprintf(stderr, "cpdbench: cannot write %s\n", args.Str("trace_out").c_str());
    }
  }
  outcome.Print();
  return 0;
}

}  // namespace bench
