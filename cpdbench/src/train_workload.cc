// The `train` workload and the graph preparation shared with `serve` and
// `ingest`: a planted Twitter-like graph, cold training through the
// library's public entry points (LoadSocialGraph -> EmTrainer /
// CpdModel::Train -> SaveBinary, as cpd_train does), and quality checks
// against the planted truth and documents the model never trained on.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <unordered_map>

#include "core/cpd_model.h"
#include "core/em_trainer.h"
#include "core/model_artifact.h"
#include "graph/graph_io.h"
#include "synth/generator.h"
#include "text/tokenizer.h"
#include "workloads.h"

namespace bench {
namespace {

// The planted graph of train, serve and ingest, and the training set-up of
// the train workload (fixed: the paper's scalability claim is read at 4
// shards on 4 threads).
constexpr int kGraphUsers = 4000;
constexpr int kTrainThreads = 4;
constexpr int kTrainShards = 4;

std::string Join(const cpd::Vocabulary& vocab, const std::vector<cpd::WordId>& words) {
  std::string text;
  for (size_t k = 0; k < words.size(); ++k) {
    if (k > 0) text.push_back(' ');
    text += vocab.WordOf(words[k]);
  }
  return text;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

DenseModel ToDense(const cpd::CpdModel& model, const cpd::Vocabulary& vocab) {
  DenseModel dense;
  dense.num_communities = model.num_communities();
  dense.num_topics = model.num_topics();
  dense.num_users = model.num_users();
  dense.vocab_size = model.vocab_size();
  for (size_t u = 0; u < dense.num_users; ++u) {
    const auto row = model.Membership(static_cast<cpd::UserId>(u));
    dense.pi.insert(dense.pi.end(), row.begin(), row.end());
  }
  for (int c = 0; c < dense.num_communities; ++c) {
    const auto row = model.ContentProfile(c);
    dense.theta.insert(dense.theta.end(), row.begin(), row.end());
  }
  for (int z = 0; z < dense.num_topics; ++z) {
    const auto row = model.TopicWords(z);
    dense.phi.insert(dense.phi.end(), row.begin(), row.end());
  }
  const auto eta = model.EtaTensor();
  dense.eta.assign(eta.begin(), eta.end());
  for (size_t w = 0; w < vocab.size(); ++w) {
    dense.vocab.push_back(vocab.WordOf(static_cast<cpd::WordId>(w)));
  }
  return dense;
}

// Sums the durations of the trainer's own sweep spans (its trace_out
// recorder) by span name, in seconds.
std::map<std::string, double> SweepPhaseSeconds(const cpd::obs::TraceRecorder& recorder) {
  std::map<std::string, double> seconds;
  JVal trace;
  std::string error;
  if (!ParseJson(recorder.ToJson(), &trace, &error)) return seconds;
  const JVal* events = trace.get("traceEvents");
  if (events == nullptr || !events->is_arr()) return seconds;
  for (const JVal& event : events->arr) {
    const JVal* ph = event.get("ph");
    const JVal* name = event.get("name");
    const JVal* dur = event.get("dur");
    if (ph == nullptr || ph->str != "X" || name == nullptr || dur == nullptr) continue;
    seconds[name->str] += dur->num * 1e-6;
  }
  return seconds;
}

}  // namespace

int PrepareGraph(const Args& args) {
  const std::string dir = args.Str("dir");
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 1));
  cpd::SynthConfig config = cpd::SynthConfig::TwitterLike();
  config.num_users = kGraphUsers;
  config.seed = seed;
  auto generated = cpd::GenerateSocialGraph(config);
  if (!generated.ok()) {
    std::fprintf(stderr, "cpdbench: generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const cpd::SocialGraph& graph = generated->graph;
  const cpd::Vocabulary& vocab = graph.corpus().vocabulary();

  // Hold out one document of about half the users that have at least
  // three, never one that takes part in a diffusion link, so every user
  // keeps documents and the diffusion file needs only renumbering.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<bool> held(graph.num_documents(), false);
  for (size_t u = 0; u < graph.num_users(); ++u) {
    const auto docs = graph.DocumentsOf(static_cast<cpd::UserId>(u));
    if (docs.size() < 3 || std::uniform_real_distribution<double>(0, 1)(rng) > 0.5) continue;
    const cpd::DocId d = docs[rng() % docs.size()];
    if (graph.DiffusionNeighbors(d).empty()) held[static_cast<size_t>(d)] = true;
  }
  std::vector<int64_t> row_of(graph.num_documents(), -1);
  std::ostringstream docs, heldout, friends, diffusion, truth;
  int64_t rows = 0;
  size_t held_count = 0;
  for (size_t d = 0; d < graph.num_documents(); ++d) {
    const cpd::Document& doc = graph.document(static_cast<cpd::DocId>(d));
    std::ostringstream& out = held[d] ? heldout : docs;
    out << doc.user << '\t' << doc.time << '\t' << Join(vocab, doc.words) << '\n';
    if (held[d]) {
      ++held_count;
    } else {
      row_of[d] = rows++;
    }
  }
  for (const cpd::FriendshipLink& link : graph.friendship_links()) {
    friends << link.u << '\t' << link.v << '\n';
  }
  for (const cpd::DiffusionLink& link : graph.diffusion_links()) {
    diffusion << row_of[static_cast<size_t>(link.i)] << '\t'
              << row_of[static_cast<size_t>(link.j)] << '\t' << link.time << '\n';
  }
  for (const int c : generated->truth.user_community) truth << c << '\n';
  if (!WriteText(dir + "/docs.tsv", docs.str()) ||
      !WriteText(dir + "/heldout.tsv", heldout.str()) ||
      !WriteText(dir + "/friends.tsv", friends.str()) ||
      !WriteText(dir + "/diffusion.tsv", diffusion.str()) ||
      !WriteText(dir + "/truth.tsv", truth.str())) {
    std::fprintf(stderr, "cpdbench: cannot write graph files under %s\n", dir.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "cpdbench: graph: %zu users, %lld training docs, %zu held out, "
               "%zu friendships, %zu diffusions, %zu words\n",
               graph.num_users(), static_cast<long long>(rows), held_count,
               graph.num_friendship_links(), graph.num_diffusion_links(),
               vocab.size());
  return 0;
}

int TrainWorkload(const Args& args) {
  const std::string dir = args.Str("dir");
  const bool traced = args.Int("trace", 0) != 0;
  const double seconds = args.Num("seconds", 0.0);
  const bool check = args.Int("check", 0) != 0;
  const std::string artifact_path = dir + "/model.cpdb";
  SpanRecorder spans(traced);
  Outcome outcome;

  const std::vector<std::string> truth_lines = ReadLines(dir + "/truth.tsv");
  const size_t num_users = truth_lines.size();
  cpd::CpdConfig config;
  config.em_iterations = static_cast<int>(args.Int("iters", 10));
  config.num_threads = kTrainThreads;
  config.num_shards = kTrainShards;
  if (traced) config.trace_out = dir + "/sweeps.trace.json";

  // Each round is what a cpd_train invocation does after argument parsing:
  // load the TSVs, train, write the v3 artifact. Rounds repeat on the same
  // inputs until the run's time is up; all must produce the same model.
  std::vector<double> round_seconds;
  std::vector<double> first_pi;
  std::unique_ptr<cpd::SocialGraph> graph;
  std::unique_ptr<cpd::CpdModel> model;
  std::map<std::string, double> layer;  // per-layer seconds of the last round
  cpd::TrainStats stats;
  cpd::MhStats mh;
  const int64_t window_start = NowNs();
  do {
    const int64_t round_start = NowNs();
    const int64_t round_span = spans.Open("train.round", 0);
    int64_t t = NowNs();
    auto loaded = cpd::LoadSocialGraph(num_users, dir + "/docs.tsv",
                                       dir + "/friends.tsv", dir + "/diffusion.tsv");
    spans.Add("graph.LoadSocialGraph", round_span, t, NowNs());
    if (!loaded.ok()) {
      std::fprintf(stderr, "cpdbench: graph load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::make_unique<cpd::SocialGraph>(std::move(*loaded));
    if (graph->num_users() != num_users) {
      std::fprintf(stderr, "cpdbench: loader kept %zu of %zu users\n",
                   graph->num_users(), num_users);
      return 1;
    }
    if (!traced) {
      // The untraced run makes cpd_train's exact call.
      auto trained = cpd::CpdModel::Train(*graph, config);
      if (!trained.ok()) {
        std::fprintf(stderr, "cpdbench: training failed: %s\n",
                     trained.status().ToString().c_str());
        return 1;
      }
      model = std::make_unique<cpd::CpdModel>(std::move(*trained));
      stats = model->stats();
    } else {
      // The traced run makes the same calls one public step at a time
      // (EmTrainer::Train's own loop), with a span around each.
      cpd::EmTrainer trainer(*graph, config);
      t = NowNs();
      cpd::Status status = trainer.Initialize();
      spans.Add("core.EmTrainer::Initialize", round_span, t, NowNs());
      for (int iter = 0; status.ok() && iter < config.em_iterations; ++iter) {
        t = NowNs();
        status = trainer.EStep();
        spans.Add("core.EmTrainer::EStep", round_span, t, NowNs());
        t = NowNs();
        trainer.MStep();
        spans.Add("core.EmTrainer::MStep", round_span, t, NowNs());
        trainer.sampler()->LinkLogLikelihood();
      }
      if (!status.ok()) {
        std::fprintf(stderr, "cpdbench: training failed: %s\n", status.ToString().c_str());
        return 1;
      }
      stats = trainer.stats();
      mh = trainer.sampler()->mh_stats();
      layer = SweepPhaseSeconds(*trainer.trace_recorder());
      t = NowNs();
      model = std::make_unique<cpd::CpdModel>(
          cpd::CpdModel::FromState(*graph, config, trainer.state(), trainer.stats()));
      spans.Add("core.CpdModel::FromState", round_span, t, NowNs());
    }
    t = NowNs();
    const cpd::Status saved =
        model->SaveBinary(artifact_path, &graph->corpus().vocabulary());
    spans.Add("core.CpdModel::SaveBinary", round_span, t, NowNs());
    if (!saved.ok()) {
      std::fprintf(stderr, "cpdbench: artifact write failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    spans.Close(round_span);
    round_seconds.push_back(SecondsSince(round_start));
    outcome.Op(true);

    std::vector<double> pi;
    for (size_t u = 0; u < num_users; ++u) {
      const auto row = model->Membership(static_cast<cpd::UserId>(u));
      pi.insert(pi.end(), row.begin(), row.end());
    }
    if (first_pi.empty()) {
      first_pi = std::move(pi);
    } else if (pi != first_pi) {
      outcome.CheckFailed("training the same inputs twice gave different pi");
    }
  } while (SecondsSince(window_start) < seconds);

  const DenseModel dense = ToDense(*model, graph->corpus().vocabulary());
  if (args.Has("dense") && !SaveDense(args.Str("dense"), dense)) {
    std::fprintf(stderr, "cpdbench: cannot write %s\n", args.Str("dense").c_str());
    return 1;
  }

  // ----- checks (outside the timed rounds) -----
  auto artifact = cpd::ReadModelArtifact(artifact_path);
  if (!artifact.ok()) {
    outcome.CheckFailed("written artifact unreadable: " + artifact.status().ToString());
  } else {
    const auto rows = [&outcome](const std::vector<double>& m, size_t width,
                                 const char* what) {
      for (size_t r = 0; width > 0 && r * width < m.size(); ++r) {
        const std::string problem =
            CheckSimplex(std::span<const double>(m.data() + r * width, width), 1e-9);
        if (!problem.empty()) {
          outcome.CheckFailed(std::string(what) + " row " + std::to_string(r) + ": " + problem);
          return;
        }
      }
    };
    rows(artifact->pi, static_cast<size_t>(artifact->num_communities), "pi");
    rows(artifact->theta, static_cast<size_t>(artifact->num_topics), "theta");
    rows(artifact->phi, artifact->vocab_size, "phi");
  }

  // Detection quality: argmax pi_u against the planted home community.
  std::vector<int> planted(num_users), detected(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    planted[u] = std::atoi(truth_lines[u].c_str());
    detected[u] = TopKOrder(dense.PiRow(u), 1)[0];
  }
  const double nmi = Nmi(planted, detected);
  std::vector<int> shuffled = planted;
  std::mt19937_64 rng(12345);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const double shuffled_nmi = Nmi(shuffled, detected);

  // Held-out perplexity, tokenized as the graph loader tokenizes.
  std::unordered_map<std::string, int> word_id;
  for (size_t w = 0; w < dense.vocab.size(); ++w) word_id[dense.vocab[w]] = static_cast<int>(w);
  std::vector<HeldOutDoc> heldout;
  size_t oov = 0;
  for (const std::string& line : ReadLines(dir + "/heldout.tsv")) {
    const size_t tab1 = line.find('\t');
    const size_t tab2 = line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) continue;
    HeldOutDoc doc;
    doc.user = static_cast<size_t>(std::atoll(line.c_str()));
    for (const std::string& token : cpd::Tokenize(line.substr(tab2 + 1))) {
      const auto it = word_id.find(token);
      if (it == word_id.end()) {
        ++oov;
      } else {
        doc.words.push_back(it->second);
      }
    }
    if (!doc.words.empty()) heldout.push_back(std::move(doc));
  }
  const double perplexity = HeldOutPerplexity(dense, heldout);
  if (check) {
    if (!(nmi >= shuffled_nmi + 0.1 && nmi >= 5.0 * shuffled_nmi)) {
      outcome.CheckFailed("detect_nmi " + std::to_string(nmi) +
                          " is not well above shuffled labels' " +
                          std::to_string(shuffled_nmi));
    }
    if (heldout.empty() || !(perplexity > 1.0 && perplexity < static_cast<double>(dense.vocab_size))) {
      outcome.CheckFailed("held-out perplexity " + std::to_string(perplexity) +
                          " is not below the vocabulary size " +
                          std::to_string(dense.vocab_size));
    }
  }
  std::fprintf(stderr,
               "cpdbench: train: %zu rounds, median %.3f s; nmi %.4f (shuffled %.4f); "
               "perplexity %.2f over %zu held-out docs (%zu OOV tokens), V=%zu\n",
               round_seconds.size(), Median(round_seconds), nmi, shuffled_nmi,
               perplexity, heldout.size(), oov, dense.vocab_size);

  size_t tokens = 0;
  for (size_t d = 0; d < graph->num_documents(); ++d) {
    tokens += graph->document(static_cast<cpd::DocId>(d)).words.size();
  }
  const double tokens_sampled =
      static_cast<double>(tokens) * config.em_iterations * config.gibbs_sweeps_per_em;
  // The workload's figures, in both runs; run.py picks what it reports.
  outcome.Metric("train_s", Median(round_seconds), "s");
  outcome.Metric("train_tokens_per_s", tokens_sampled / Median(round_seconds), "1/s");
  outcome.Metric("train_peak_rss_mb", ProcStatusMb(0, "VmHWM"), "MB");
  outcome.Metric("detect_nmi", nmi, "1");
  outcome.Metric("heldout_perplexity", perplexity, "1");
  if (traced) {
    const double rounds = static_cast<double>(round_seconds.size());
    outcome.Metric("graph.load_s", spans.TotalSeconds("graph.LoadSocialGraph") / rounds, "s");
    outcome.Metric("core.initialize_s", spans.TotalSeconds("core.EmTrainer::Initialize") / rounds, "s");
    outcome.Metric("core.estep_s", spans.TotalSeconds("core.EmTrainer::EStep") / rounds, "s");
    outcome.Metric("core.mstep_s", spans.TotalSeconds("core.EmTrainer::MStep") / rounds, "s");
    for (const char* phase : {"snapshot", "sample_shards", "merge", "augment", "m_step"}) {
      outcome.Metric(std::string("core.sweep_phase_s.") + phase, layer[phase], "s");
    }
    outcome.Metric("core.artifact_write_s",
                   (spans.TotalSeconds("core.CpdModel::FromState") +
                    spans.TotalSeconds("core.CpdModel::SaveBinary")) / rounds, "s");
    const double lookups =
        static_cast<double>(stats.eta_collapse_hits + stats.eta_collapse_misses);
    outcome.Metric("core.eta_collapse_hit_ratio",
                   lookups > 0 ? static_cast<double>(stats.eta_collapse_hits) / lookups : 0.0,
                   "1");
    outcome.Metric("parallel.snapshot_s", stats.snapshot_seconds, "s");
    outcome.Metric("parallel.merge_s", stats.merge_seconds, "s");
    const auto& busy = stats.thread_actual_seconds;
    const double busy_max = busy.empty() ? 0.0 : *std::max_element(busy.begin(), busy.end());
    const double busy_mean =
        busy.empty() ? 0.0 : std::accumulate(busy.begin(), busy.end(), 0.0) /
                                 static_cast<double>(busy.size());
    outcome.Metric("parallel.shard_busy_max_s", busy_max, "s");
    outcome.Metric("parallel.shard_busy_mean_s", busy_mean, "s");
    outcome.Metric("parallel.shard_imbalance", busy_mean > 0 ? busy_max / busy_mean : 0.0, "1");
    outcome.Metric("sampling.mh_accept.topic", mh.TopicAcceptRate(), "1");
    outcome.Metric("sampling.mh_accept.community", mh.CommunityAcceptRate(), "1");
    outcome.Metric("sampling.tokens_sampled", tokens_sampled, "count");
    if (args.Has("trace_out") && !spans.WriteFile(args.Str("trace_out"))) {
      std::fprintf(stderr, "cpdbench: cannot write %s\n", args.Str("trace_out").c_str());
    }
  }
  outcome.Print();
  return 0;
}

}  // namespace bench
