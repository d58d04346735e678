// The benchmark's own tests: each reference computation against small
// cases worked by hand, and each response check against a correct reply
// and against corrupted copies of it. Run with
//   python3 cpdbench/run.py --selftest
// Exits 0 when every case holds.

#include <cmath>
#include <cstdio>
#include <string>

#include "minijson.h"
#include "reference.h"
#include "workload_data.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Near(double got, double want, double tol, const std::string& what) {
  Expect(std::fabs(got - want) <= tol,
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

bench::JVal Parse(const std::string& text) {
  bench::JVal v;
  std::string error;
  Expect(bench::ParseJson(text, &v, &error), "parse " + text + ": " + error);
  return v;
}

// A check must pass the correct reply and reject every corrupted one.
template <typename Check>
void Rejects(const std::string& name, const std::string& good,
             const std::vector<std::string>& corrupted, Check check) {
  Expect(check(Parse(good)).empty(), name + " rejects the correct reply: " + check(Parse(good)));
  for (const std::string& bad : corrupted) {
    Expect(!check(Parse(bad)).empty(), name + " accepts a corrupted reply: " + bad);
  }
}

// C = 2 communities, Z = 2 topics, V = 2 words, 3 users.
bench::DenseModel HandModel() {
  bench::DenseModel m;
  m.num_communities = 2;
  m.num_topics = 2;
  m.num_users = 3;
  m.vocab_size = 2;
  m.pi = {0.6, 0.4, 0.3, 0.7, 0.6, 0.4};
  m.theta = {0.7, 0.3, 0.4, 0.6};
  m.phi = {0.9, 0.1, 0.2, 0.8};
  // eta(c, c2, z) at (c * 2 + c2) * 2 + z.
  m.eta = {0.5, 0.1, 0.2, 0.3, 0.1, 0.4, 0.6, 0.2};
  return m;
}

void TestNmi() {
  Near(bench::Nmi(std::vector<int>{0, 0, 1, 1}, std::vector<int>{1, 1, 0, 0}), 1.0, 1e-12,
       "NMI of a relabeled partition");
  Near(bench::Nmi(std::vector<int>{0, 0, 1, 1}, std::vector<int>{0, 1, 0, 1}), 0.0, 1e-12,
       "NMI of independent partitions");
  // H(a) = H(3/4, 1/4), H(b) = ln 2, I = 1/2 ln 4/3 + 1/4 ln 2/3 + 1/4 ln 2.
  Near(bench::Nmi(std::vector<int>{0, 0, 0, 1}, std::vector<int>{0, 0, 1, 1}),
       0.3437110184854508, 1e-12, "NMI worked by hand");
}

void TestPerplexity() {
  bench::DenseModel uniform;
  uniform.num_communities = 1;
  uniform.num_topics = 1;
  uniform.num_users = 1;
  uniform.vocab_size = 4;
  uniform.pi = {1.0};
  uniform.theta = {1.0};
  uniform.phi = {0.25, 0.25, 0.25, 0.25};
  Near(bench::HeldOutPerplexity(uniform, {{0, {0, 1, 2, 3, 3}}}), 4.0, 1e-12,
       "perplexity of a uniform model is the vocabulary size");
  // pi_u = (1/2, 1/2), theta = I: p(w0|u) = .55, p(w1|u) = .45.
  bench::DenseModel m = HandModel();
  m.pi = {0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  m.theta = {1.0, 0.0, 0.0, 1.0};
  Near(bench::HeldOutPerplexity(m, {{0, {0, 1}}}), 2.010075630518424, 1e-12,
       "perplexity worked by hand");
}

void TestEq19() {
  // Query {w0}: g = (1, 0.2 / 0.9).
  //   score(0) = (.5*.7 + .2*.4) + g1 (.1*.3 + .3*.6) = .43 + .21 g1
  //   score(1) = (.1*.7 + .6*.4) + g1 (.4*.3 + .2*.6) = .31 + .24 g1
  const bench::DenseModel m = HandModel();
  const std::vector<double> scores = bench::Eq19Scores(m, std::vector<int>{0});
  Near(scores[0], 0.4766666666666667, 1e-15, "Eq. 19 score of community 0");
  Near(scores[1], 0.36333333333333334, 1e-15, "Eq. 19 score of community 1");
  const std::vector<double> empty = bench::Eq19Scores(m, std::vector<int>{});
  Near(empty[0], 0.43 + 0.21, 1e-15, "Eq. 19 with an empty query");
}

void TestTopK() {
  const std::vector<int> order = bench::TopKOrder(std::vector<double>{0.2, 0.5, 0.2, 0.1}, 3);
  Expect(order == std::vector<int>({1, 0, 2}), "top-k breaks ties by index");
  // Top-1 lists: u0 -> 0, u1 -> 1, u2 -> 0; users 0 and 2 tie at 0.6.
  const auto top = bench::TopUsersReference(HandModel(), 10, 1);
  Expect(top[0] == std::vector<int>({0, 2}), "top users of community 0 break ties by id");
  Expect(top[1] == std::vector<int>({1}), "top users count members only");
}

void TestChecks() {
  const bench::DenseModel m = HandModel();
  const std::vector<double> pi0 = {0.6, 0.4};
  Rejects("membership",
          R"({"type":"membership","top":[{"community":0,"weight":0.6}],"distribution":[0.6,0.4]})",
          {R"({"type":"membership","top":[{"community":0,"weight":0.6}],"distribution":[0.6,0.40000000000000008]})",
           R"({"type":"membership","top":[{"community":1,"weight":0.4}],"distribution":[0.6,0.4]})",
           R"({"type":"membership","top":[{"community":0,"weight":0.5}],"distribution":[0.6,0.4]})",
           R"({"type":"membership","top":[{"community":0,"weight":0.6}]})",
           R"({"type":"membership","top":[],"distribution":[0.6,0.4]})"},
          [&pi0](const bench::JVal& r) { return bench::CheckMembership(r, pi0, 1); });

  const std::vector<int> q = {0};
  const auto scores = bench::Eq19Scores(m, q);
  const auto terms = bench::Eq19Terms(m, q);
  char good[512];
  std::snprintf(good, sizeof(good),
                R"({"type":"rank","ranked":[{"community":0,"score":%.17g},{"community":1,"score":%.17g}]})",
                scores[0], scores[1]);
  char swapped[512];
  std::snprintf(swapped, sizeof(swapped),
                R"({"type":"rank","ranked":[{"community":1,"score":%.17g},{"community":0,"score":%.17g}]})",
                scores[1], scores[0]);
  char off[512];
  std::snprintf(off, sizeof(off),
                R"({"type":"rank","ranked":[{"community":0,"score":%.17g},{"community":1,"score":%.17g}]})",
                scores[0] * (1 + 1e-7), scores[1]);
  const double z0 = terms[0] / scores[0];
  char dist_good[512], dist_bad[512];
  std::snprintf(dist_good, sizeof(dist_good),
                R"({"ranked":[{"community":0,"score":%.17g,"topic_distribution":[%.17g,%.17g]}]})",
                scores[0], z0, 1 - z0);
  std::snprintf(dist_bad, sizeof(dist_bad),
                R"({"ranked":[{"community":0,"score":%.17g,"topic_distribution":[%.17g,%.17g]}]})",
                scores[0], 1 - z0, z0);
  Rejects("rank", good,
          {swapped, off, R"({"type":"rank","ranked":[{"community":0,"score":0.4766666666666667}]})",
           R"({"type":"rank"})"},
          [&](const bench::JVal& r) { return bench::CheckRank(r, scores, terms, 2, 1e-9); });
  Rejects("rank topic_distribution", dist_good, {dist_bad},
          [&](const bench::JVal& r) { return bench::CheckRank(r, scores, terms, 1, 1e-9); });

  const auto top = bench::TopUsersReference(m, 10, 1);
  Rejects("top_users", R"({"type":"top_users","users":[0,2],"weights":[0.6,0.6]})",
          {R"({"type":"top_users","users":[2,0],"weights":[0.6,0.6]})",
           R"({"type":"top_users","users":[0,2],"weights":[0.6,0.59999999999999987]})",
           R"({"type":"top_users","users":[0,2,1],"weights":[0.6,0.6,0.3]})",
           R"({"type":"top_users","users":[0]})"},
          [&top](const bench::JVal& r) {
            return bench::CheckTopUsers(r, top[0], std::vector<double>{0.6, 0.6});
          });

  const double f = bench::Sigmoid(0.6 * 0.3 + 0.4 * 0.7);
  char diffusion[256], diffusion_off[256], diffusion_one[256];
  std::snprintf(diffusion, sizeof(diffusion), R"({"probability":0.3,"friendship_score":%.17g})", f);
  std::snprintf(diffusion_off, sizeof(diffusion_off), R"({"probability":0.3,"friendship_score":%.17g})",
                f * (1 + 1e-9));
  std::snprintf(diffusion_one, sizeof(diffusion_one), R"({"probability":1,"friendship_score":%.17g})", f);
  Rejects("diffusion", diffusion, {diffusion_off, diffusion_one, R"({"probability":0.3})"},
          [f](const bench::JVal& r) { return bench::CheckDiffusion(r, f); });

  Expect(bench::CheckSimplex(std::vector<double>{0.25, 0.75}, 1e-9).empty(), "simplex accepts a row");
  Expect(!bench::CheckSimplex(std::vector<double>{0.5, 0.6}, 1e-9).empty(), "simplex rejects sum 1.1");
  Expect(!bench::CheckSimplex(std::vector<double>{1.5, -0.5}, 1e-9).empty(),
         "simplex rejects a negative entry");
}

void TestParsersAndStats() {
  const bench::JVal v = Parse(R"({"a":[0.1,-2e-3,"😀"],"b":true})");
  Expect(v.get("a")->arr[0].num == 0.1 && v.get("a")->arr[1].num == -0.002,
         "numbers parse to the nearest double");
  Expect(v.get("a")->arr[2].str == "\xF0\x9F\x98\x80", "surrogate pairs decode");
  bench::JVal out;
  std::string error;
  Expect(!bench::ParseJson("{} x", &out, &error), "trailing bytes are rejected");
  Expect(!bench::ParseJson("[1,]", &out, &error), "a dangling comma is rejected");

  const std::string before =
      "h_bucket{stage=\"x\",le=\"1\"} 0\nh_bucket{stage=\"x\",le=\"2\"} 0\n"
      "h_bucket{stage=\"x\",le=\"+Inf\"} 0\n";
  const std::string after =
      "h_bucket{stage=\"x\",le=\"1\"} 1\nh_bucket{stage=\"x\",le=\"2\"} 4\n"
      "h_bucket{stage=\"x\",le=\"+Inf\"} 4\nh_bucket{stage=\"y\",le=\"1\"} 9\n";
  // Median of {<=1: 1, (1,2]: 3}: target 2 lies a third into (1, 2].
  Near(bench::HistogramDeltaQuantile(bench::ParseHistogram(before, "h", "stage=\"x\""),
                                     bench::ParseHistogram(after, "h", "stage=\"x\""), 0.5),
       1.0 + 1.0 / 3.0, 1e-12, "histogram delta median");
  Near(bench::Quantile({1, 2, 3, 4}, 0.5), 2.5, 1e-12, "interpolated median");
  Near(bench::Quantile({1, 2, 3, 4, 5}, 0.75), 4.0, 1e-12, "interpolated quartile");
}

}  // namespace

int main() {
  TestNmi();
  TestPerplexity();
  TestEq19();
  TestTopK();
  TestChecks();
  TestParsersAndStats();
  if (g_failures > 0) {
    std::fprintf(stderr, "cpdbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "cpdbench_selftest: all cases pass\n");
  return 0;
}
