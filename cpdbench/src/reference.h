#ifndef CPDBENCH_REFERENCE_H_
#define CPDBENCH_REFERENCE_H_

// The benchmark's own reference computations and response checks. Nothing
// here calls into the program under test: each quantity is recomputed from
// the estimates the benchmark holds (the trained model it kept in memory,
// or the matrices it generated itself), with the plainest loops, in the
// definitions docs/HTTP_API.md and the paper give.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "minijson.h"

namespace bench {

/// Dense row-major estimates: pi (U x C), theta (C x Z), phi (Z x V),
/// eta (C x C x Z, index (c * C + c2) * Z + z).
struct DenseModel {
  int num_communities = 0;
  int num_topics = 0;
  size_t num_users = 0;
  size_t vocab_size = 0;
  std::vector<double> pi;
  std::vector<double> theta;
  std::vector<double> phi;
  std::vector<double> eta;
  std::vector<std::string> vocab;  ///< Word of each id (may be empty).

  std::span<const double> PiRow(size_t u) const {
    return {pi.data() + u * static_cast<size_t>(num_communities),
            static_cast<size_t>(num_communities)};
  }
};

/// Normalized mutual information, 2 I(A;B) / (H(A) + H(B)); 1 for two
/// constant labelings (identical partitions).
double Nmi(std::span<const int> a, std::span<const int> b);

/// A held-out document: its author and word ids.
struct HeldOutDoc {
  size_t user = 0;
  std::vector<int> words;
};

/// exp(-sum log p(w|u) / N) with p(w|u) = sum_c pi_uc sum_z theta_cz phi_zw.
double HeldOutPerplexity(const DenseModel& model,
                         const std::vector<HeldOutDoc>& docs);

/// Eq. 19 community scores for a conjunctive word query:
///   score(c) = sum_z g_z sum_c2 eta(c, c2, z) theta(c2, z),
///   g_z = exp(sum_w log phi(z, w) - max_z' sum_w log phi(z', w)).
/// (The max-rescaling is a per-query constant that the served scores
/// share; an empty query leaves g = 1.)
std::vector<double> Eq19Scores(const DenseModel& model,
                               std::span<const int> words);
/// The per-topic terms of the same sum, C x Z row-major: term(c, z) =
/// g_z sum_c2 eta(c, c2, z) theta(c2, z). Row c normalized is p(z | q, c).
std::vector<double> Eq19Terms(const DenseModel& model, std::span<const int> words);

/// Indices of the k largest weights ordered by (weight desc, index asc).
std::vector<int> TopKOrder(std::span<const double> weights, size_t k);

double Sigmoid(double x);
double Dot(std::span<const double> a, std::span<const double> b);

/// Strongest members of each community c: users whose own
/// top-`membership_k` list contains c, sorted by (pi_uc desc, id asc),
/// first k. One list per community.
std::vector<std::vector<int>> TopUsersReference(const DenseModel& model, size_t k,
                                                size_t membership_k);

/// "" when every entry is >= 0 and the row sums to 1 within `tol`.
std::string CheckSimplex(std::span<const double> row, double tol);

// ----- response checks: "" when the response is right, else why not -----

/// GET /v1/membership/{u}?k=K&distribution=1. The distribution must equal
/// `pi_u` bit for bit and the top list must be the K largest entries of
/// that same distribution, weights included.
std::string CheckMembership(const JVal& response, std::span<const double> pi_u,
                            size_t k);

/// Reads "distribution" into `out`; false when it is missing or malformed.
bool ReadDistribution(const JVal& response, std::vector<double>* out);

/// rank: the returned communities are the top-k of `ref_scores` in order,
/// and each score agrees within a relative `rel_tol`. Near-ties (scores
/// within rel_tol) may come in either order. When an entry carries a
/// topic_distribution it must equal row c of `ref_terms` normalized,
/// within an absolute rel_tol.
std::string CheckRank(const JVal& response, std::span<const double> ref_scores,
                      std::span<const double> ref_terms, size_t k, double rel_tol);

/// top_users: users and weights equal the reference exactly.
std::string CheckTopUsers(const JVal& response, const std::vector<int>& users,
                          std::span<const double> weights);

/// diffusion: friendship_score == sigmoid(pi_u . pi_v) within a relative
/// 1e-12, and probability in (0, 1).
std::string CheckDiffusion(const JVal& response, double friendship_score);

}  // namespace bench

#endif  // CPDBENCH_REFERENCE_H_
