#include "reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace bench {

double Nmi(std::span<const int> a, std::span<const int> b) {
  const size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  std::map<int, double> pa, pb;
  std::map<std::pair<int, int>, double> pab;
  for (size_t i = 0; i < n; ++i) {
    pa[a[i]] += 1.0;
    pb[b[i]] += 1.0;
    pab[{a[i], b[i]}] += 1.0;
  }
  const double total = static_cast<double>(n);
  auto entropy = [total](const std::map<int, double>& counts) {
    double h = 0.0;
    for (const auto& [label, count] : counts) {
      const double p = count / total;
      h -= p * std::log(p);
    }
    return h;
  };
  const double ha = entropy(pa);
  const double hb = entropy(pb);
  double mi = 0.0;
  for (const auto& [key, count] : pab) {
    const double p = count / total;
    mi += p * std::log(p / ((pa[key.first] / total) * (pb[key.second] / total)));
  }
  if (ha + hb == 0.0) return 1.0;
  return 2.0 * mi / (ha + hb);
}

double HeldOutPerplexity(const DenseModel& model,
                         const std::vector<HeldOutDoc>& docs) {
  const size_t kc = static_cast<size_t>(model.num_communities);
  const size_t kz = static_cast<size_t>(model.num_topics);
  double log_sum = 0.0;
  size_t tokens = 0;
  std::vector<double> user_topic(kz);
  for (const HeldOutDoc& doc : docs) {
    // p(z | u) = sum_c pi_uc theta_cz, then p(w | u) = sum_z p(z|u) phi_zw.
    std::fill(user_topic.begin(), user_topic.end(), 0.0);
    for (size_t c = 0; c < kc; ++c) {
      const double pi = model.pi[doc.user * kc + c];
      for (size_t z = 0; z < kz; ++z) {
        user_topic[z] += pi * model.theta[c * kz + z];
      }
    }
    for (const int w : doc.words) {
      double p = 0.0;
      for (size_t z = 0; z < kz; ++z) {
        p += user_topic[z] * model.phi[z * model.vocab_size + static_cast<size_t>(w)];
      }
      log_sum += std::log(p);
      ++tokens;
    }
  }
  if (tokens == 0) return 0.0;
  return std::exp(-log_sum / static_cast<double>(tokens));
}

std::vector<double> Eq19Terms(const DenseModel& model, std::span<const int> words) {
  const size_t kc = static_cast<size_t>(model.num_communities);
  const size_t kz = static_cast<size_t>(model.num_topics);
  std::vector<double> log_g(kz, 0.0);
  for (size_t z = 0; z < kz; ++z) {
    for (const int w : words) {
      log_g[z] += std::log(std::max(
          model.phi[z * model.vocab_size + static_cast<size_t>(w)], 1e-300));
    }
  }
  const double max_log = *std::max_element(log_g.begin(), log_g.end());
  std::vector<double> terms(kc * kz, 0.0);
  for (size_t c = 0; c < kc; ++c) {
    for (size_t z = 0; z < kz; ++z) {
      double inner = 0.0;
      for (size_t c2 = 0; c2 < kc; ++c2) {
        inner += model.eta[(c * kc + c2) * kz + z] * model.theta[c2 * kz + z];
      }
      terms[c * kz + z] = inner * std::exp(log_g[z] - max_log);
    }
  }
  return terms;
}

std::vector<double> Eq19Scores(const DenseModel& model,
                               std::span<const int> words) {
  const size_t kz = static_cast<size_t>(model.num_topics);
  const std::vector<double> terms = Eq19Terms(model, words);
  std::vector<double> scores(static_cast<size_t>(model.num_communities), 0.0);
  for (size_t c = 0; c < scores.size(); ++c) {
    for (size_t z = 0; z < kz; ++z) scores[c] += terms[c * kz + z];
  }
  return scores;
}

std::vector<int> TopKOrder(std::span<const double> weights, size_t k) {
  std::vector<int> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&weights](int a, int b) {
    return weights[static_cast<size_t>(a)] > weights[static_cast<size_t>(b)];
  });
  order.resize(std::min(k, order.size()));
  return order;
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double Dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) s += a[i] * b[i];
  return s;
}

std::vector<std::vector<int>> TopUsersReference(const DenseModel& model, size_t k,
                                                size_t membership_k) {
  std::vector<std::vector<int>> members(static_cast<size_t>(model.num_communities));
  for (size_t u = 0; u < model.num_users; ++u) {
    for (const int c : TopKOrder(model.PiRow(u), membership_k)) {
      members[static_cast<size_t>(c)].push_back(static_cast<int>(u));
    }
  }
  for (size_t c = 0; c < members.size(); ++c) {
    std::stable_sort(members[c].begin(), members[c].end(), [&model, c](int a, int b) {
      return model.PiRow(static_cast<size_t>(a))[c] >
             model.PiRow(static_cast<size_t>(b))[c];
    });
    members[c].resize(std::min(k, members[c].size()));
  }
  return members;
}

std::string CheckSimplex(std::span<const double> row, double tol) {
  double sum = 0.0;
  for (const double v : row) {
    if (!(v >= 0.0)) return "negative or NaN entry";
    sum += v;
  }
  if (std::fabs(sum - 1.0) > tol) {
    return "row sums to " + std::to_string(sum);
  }
  return "";
}

bool ReadDistribution(const JVal& response, std::vector<double>* out) {
  const JVal* dist = response.get("distribution");
  if (dist == nullptr || !dist->is_arr()) return false;
  out->clear();
  for (const JVal& v : dist->arr) {
    if (!v.is_num()) return false;
    out->push_back(v.num);
  }
  return true;
}

std::string CheckMembership(const JVal& response, std::span<const double> pi_u,
                            size_t k) {
  std::vector<double> dist;
  if (!ReadDistribution(response, &dist)) return "no distribution";
  if (dist.size() != pi_u.size()) return "distribution has wrong length";
  for (size_t c = 0; c < dist.size(); ++c) {
    if (dist[c] != pi_u[c]) {
      return "distribution[" + std::to_string(c) + "] differs from pi_u";
    }
  }
  const JVal* top = response.get("top");
  if (top == nullptr || !top->is_arr()) return "no top list";
  const std::vector<int> expected = TopKOrder(dist, k);
  if (top->arr.size() != expected.size()) return "top list has wrong length";
  for (size_t i = 0; i < expected.size(); ++i) {
    const JVal* c = top->arr[i].get("community");
    const JVal* w = top->arr[i].get("weight");
    if (c == nullptr || w == nullptr || !c->is_num() || !w->is_num()) {
      return "malformed top entry";
    }
    if (static_cast<int>(c->num) != expected[i]) {
      return "top[" + std::to_string(i) + "] is not the next largest entry";
    }
    if (w->num != dist[static_cast<size_t>(expected[i])]) {
      return "top[" + std::to_string(i) + "] weight differs from distribution";
    }
  }
  return "";
}

std::string CheckRank(const JVal& response, std::span<const double> ref_scores,
                      std::span<const double> ref_terms, size_t k, double rel_tol) {
  const JVal* ranked = response.get("ranked");
  if (ranked == nullptr || !ranked->is_arr()) return "no ranked list";
  const size_t want = std::min(k, ref_scores.size());
  if (ranked->arr.size() != want) return "ranked list has wrong length";
  auto close = [rel_tol](double a, double b) {
    return std::fabs(a - b) <= rel_tol * std::max(std::fabs(a), std::fabs(b));
  };
  std::vector<bool> returned(ref_scores.size(), false);
  double previous = 0.0;
  double lowest = 0.0;
  for (size_t i = 0; i < want; ++i) {
    const JVal* c = ranked->arr[i].get("community");
    const JVal* s = ranked->arr[i].get("score");
    if (c == nullptr || s == nullptr || !c->is_num() || !s->is_num()) {
      return "malformed ranked entry";
    }
    const int community = static_cast<int>(c->num);
    if (community < 0 || static_cast<size_t>(community) >= ref_scores.size() ||
        returned[static_cast<size_t>(community)]) {
      return "bad or repeated community";
    }
    returned[static_cast<size_t>(community)] = true;
    const double ref = ref_scores[static_cast<size_t>(community)];
    if (!close(s->num, ref)) {
      return "score of community " + std::to_string(community) +
             " differs from the reference";
    }
    if (i > 0 && ref > previous && !close(ref, previous)) {
      return "ranked list out of order";
    }
    if (const JVal* dist = ranked->arr[i].get("topic_distribution")) {
      const size_t kz = ref_terms.size() / ref_scores.size();
      if (!dist->is_arr() || dist->arr.size() != kz) return "malformed topic_distribution";
      const size_t row = static_cast<size_t>(community) * kz;
      for (size_t z = 0; z < kz; ++z) {
        if (!dist->arr[z].is_num() ||
            std::fabs(dist->arr[z].num - ref_terms[row + z] / ref) > rel_tol) {
          return "topic_distribution of community " + std::to_string(community) +
                 " differs from the reference";
        }
      }
    }
    previous = ref;
    lowest = (i == 0) ? ref : std::min(lowest, ref);
  }
  for (size_t c = 0; c < ref_scores.size(); ++c) {
    if (!returned[c] && ref_scores[c] > lowest && !close(ref_scores[c], lowest)) {
      return "community " + std::to_string(c) + " belongs in the top-k";
    }
  }
  return "";
}

std::string CheckTopUsers(const JVal& response, const std::vector<int>& users,
                          std::span<const double> weights) {
  const JVal* got_users = response.get("users");
  const JVal* got_weights = response.get("weights");
  if (got_users == nullptr || got_weights == nullptr || !got_users->is_arr() ||
      !got_weights->is_arr()) {
    return "no users/weights";
  }
  if (got_users->arr.size() != users.size() ||
      got_weights->arr.size() != users.size()) {
    return "top_users has wrong length";
  }
  for (size_t i = 0; i < users.size(); ++i) {
    if (!got_users->arr[i].is_num() ||
        static_cast<int>(got_users->arr[i].num) != users[i]) {
      return "users[" + std::to_string(i) + "] differs from the reference";
    }
    if (!got_weights->arr[i].is_num() || got_weights->arr[i].num != weights[i]) {
      return "weights[" + std::to_string(i) + "] differs from pi";
    }
  }
  return "";
}

std::string CheckDiffusion(const JVal& response, double friendship_score) {
  const JVal* p = response.get("probability");
  const JVal* f = response.get("friendship_score");
  if (p == nullptr || f == nullptr || !p->is_num() || !f->is_num()) {
    return "no probability/friendship_score";
  }
  if (!(p->num > 0.0 && p->num < 1.0)) return "probability outside (0, 1)";
  if (std::fabs(f->num - friendship_score) > 1e-12 * friendship_score) {
    return "friendship_score differs from sigmoid(pi_u . pi_v)";
  }
  return "";
}

}  // namespace bench
