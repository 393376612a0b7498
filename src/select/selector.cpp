#include "select/selector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/observer.hpp"
#include "trace/format.hpp"

namespace dbi::select {

namespace {

/// Feature count of the predicted-mode linear model:
/// [1, toggle_density, zero_mass, entropy].
constexpr int kFeatures = 4;

/// Ridge floor that keeps the normal equations solvable before the
/// probe history spans the feature space.
constexpr double kRidge = 1e-6;

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Solves the 4x4 system A w = b in place (partial-pivot Gaussian
/// elimination). Returns false when A is numerically singular.
bool solve4(double a[kFeatures][kFeatures], double b[kFeatures],
            double w[kFeatures]) {
  int perm[kFeatures] = {0, 1, 2, 3};
  for (int col = 0; col < kFeatures; ++col) {
    int pivot = col;
    for (int r = col + 1; r < kFeatures; ++r)
      if (std::fabs(a[perm[r]][col]) > std::fabs(a[perm[pivot]][col]))
        pivot = r;
    std::swap(perm[col], perm[pivot]);
    const double p = a[perm[col]][col];
    if (std::fabs(p) < 1e-30) return false;
    for (int r = col + 1; r < kFeatures; ++r) {
      const double m = a[perm[r]][col] / p;
      if (m == 0.0) continue;
      for (int c = col; c < kFeatures; ++c) a[perm[r]][c] -= m * a[perm[col]][c];
      b[perm[r]] -= m * b[perm[col]];
    }
  }
  for (int row = kFeatures - 1; row >= 0; --row) {
    double acc = b[perm[row]];
    for (int c = row + 1; c < kFeatures; ++c) acc -= a[perm[row]][c] * w[c];
    w[row] = acc / a[perm[row]][row];
  }
  return true;
}

}  // namespace

/// One candidate scheme's engines, scratch line states, running totals
/// and (predicted mode) fitted cost model.
struct ChunkSelector::Candidate {
  Candidate(Scheme s, const CostWeights& w) : scheme(s), engine(s, w) {}

  Scheme scheme;
  engine::BatchEncoder engine;
  std::vector<dbi::BusState> states;  // scratch; committed_ copied in
  std::unique_ptr<engine::StreamEncoder> enc;

  std::int64_t blocks_chosen = 0;
  std::int64_t bursts_chosen = 0;
  std::int64_t trial_blocks = 0;
  double trial_cost = 0.0;
  double chosen_cost = 0.0;

  // Last trial's outcome (valid between trial_all and commit).
  std::int64_t last_d_zeros = 0;
  std::int64_t last_d_transitions = 0;
  std::span<const engine::BurstResult> last_results;

  // Predicted-mode linear model: cost-per-burst ~ w . features, fitted
  // by ridge normal equations over the probe history.
  double xtx[kFeatures][kFeatures] = {};
  double xty[kFeatures] = {};
  double weights[kFeatures] = {};
  std::int64_t samples = 0;
  bool fitted = false;

  obs::Counter obs_chunks;
  obs::Counter obs_bursts;

  [[nodiscard]] double predict(const double f[kFeatures]) const {
    double y = 0.0;
    for (int i = 0; i < kFeatures; ++i) y += weights[i] * f[i];
    return y;
  }

  void add_sample(const double f[kFeatures], double cost_per_burst) {
    for (int i = 0; i < kFeatures; ++i) {
      for (int j = 0; j < kFeatures; ++j) xtx[i][j] += f[i] * f[j];
      xty[i] += f[i] * cost_per_burst;
    }
    ++samples;
  }

  void refit() {
    double a[kFeatures][kFeatures];
    double b[kFeatures];
    double trace = 0.0;
    for (int i = 0; i < kFeatures; ++i) trace += xtx[i][i];
    const double ridge = kRidge * std::max(trace / kFeatures, 1.0);
    for (int i = 0; i < kFeatures; ++i) {
      for (int j = 0; j < kFeatures; ++j) a[i][j] = xtx[i][j];
      a[i][i] += ridge;
      b[i] = xty[i];
    }
    double solved[kFeatures];
    if (solve4(a, b, solved)) {
      std::memcpy(weights, solved, sizeof(weights));
    } else {
      // Intercept-only fallback: the mean probed cost per burst.
      weights[0] = samples > 0 ? xty[0] / static_cast<double>(samples) : 0.0;
      weights[1] = weights[2] = weights[3] = 0.0;
    }
    fitted = true;
  }
};

ChunkSelector::ChunkSelector(const Config& cfg)
    : policy_(cfg.policy), geometry_(cfg.geometry), weights_(cfg.weights) {
  policy_.validate();
  if (!policy_.adaptive())
    throw std::invalid_argument(
        "ChunkSelector: the policy must be adaptive (" + policy_.describe() +
        " is not)");
  geometry_.validate();
  weights_.validate();
  obs_ = cfg.obs;

  // Candidate trials are an implementation detail of one logical encode
  // pass, so the per-candidate stream encoders do not report into the
  // observer (chunk counts would inflate by the candidate count); the
  // selector publishes its own dbi_select_* counters instead.
  stream_opt_.lanes = cfg.lanes;
  stream_opt_.reset_state_per_burst = cfg.reset_state_per_burst;
  stream_opt_.pool = cfg.pool;
  stream_opt_.obs = nullptr;

  const std::size_t units = static_cast<std::size_t>(cfg.lanes) *
                            static_cast<std::size_t>(geometry_.groups());

  candidates_.reserve(policy_.candidates().size());
  for (Scheme s : policy_.candidates()) {
    auto c = std::make_unique<Candidate>(s, weights_);
    if (cfg.kernel) c->engine.set_kernel(*cfg.kernel);
    c->states.resize(units);
    c->enc = std::make_unique<engine::StreamEncoder>(
        c->engine, geometry_, stream_opt_,
        std::span<dbi::BusState>(c->states));
    c->enc->reset();  // all-ones boundary into the caller-owned states
    if (obs_) {
      const std::string label =
          "scheme=\"" + std::string(scheme_slug(s)) + "\"";
      c->obs_chunks =
          obs_->registry().counter("dbi_select_chunks_total", label);
      c->obs_bursts =
          obs_->registry().counter("dbi_select_bursts_total", label);
    }
    candidates_.push_back(std::move(c));
  }
  committed_ = candidates_.front()->states;
  if (cfg.kernel) decoder_.set_kernel(*cfg.kernel);
}

ChunkSelector::~ChunkSelector() = default;

double ChunkSelector::block_cost(Candidate& c,
                                 std::span<const std::uint8_t> payload,
                                 std::span<const engine::BurstResult> results,
                                 std::int64_t d_zeros,
                                 std::int64_t d_transitions) {
  switch (policy_.cost_model()) {
    case CostModel::kTransitions:
      return static_cast<double>(d_transitions);
    case CostModel::kEnergy:
      return weights_.alpha * static_cast<double>(d_transitions) +
             weights_.beta * static_cast<double>(d_zeros);
    case CostModel::kBytes: {
      // Materialise the transmitted stream (payload with the candidate's
      // inversions applied) and cost it as the trace writer would store
      // it: zero-run RLE of the wire bytes plus the mask stream.
      (void)c;
      wire_.assign(payload.begin(), payload.end());
      mask_words_.resize(results.size());
      for (std::size_t i = 0; i < results.size(); ++i)
        mask_words_[i] = results[i].invert_mask;
      decoder_.apply(wire_, mask_words_, geometry_, wire_);
      rle_scratch_.clear();
      trace::rle_compress(wire_, rle_scratch_);
      double bytes = static_cast<double>(rle_scratch_.size());
      wire_.clear();
      trace::append_masks(wire_, mask_words_);
      rle_scratch_.clear();
      trace::rle_compress(wire_, rle_scratch_);
      bytes += static_cast<double>(rle_scratch_.size());
      return bytes;
    }
  }
  return static_cast<double>(d_transitions);
}

std::size_t ChunkSelector::trial_all(std::int64_t first_burst,
                                     std::span<const std::uint8_t> payload,
                                     std::size_t burst_count,
                                     std::vector<double>& costs) {
  costs.resize(candidates_.size());
  std::size_t winner = 0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    Candidate& c = *candidates_[i];
    std::copy(committed_.begin(), committed_.end(), c.states.begin());
    const std::int64_t z0 = c.enc->zeros();
    const std::int64_t t0 = c.enc->transitions();
    c.last_results =
        c.enc->encode_chunk(first_burst, payload, burst_count, true);
    c.last_d_zeros = c.enc->zeros() - z0;
    c.last_d_transitions = c.enc->transitions() - t0;
    costs[i] = block_cost(c, payload, c.last_results, c.last_d_zeros,
                          c.last_d_transitions);
    c.trial_blocks += 1;
    c.trial_cost += costs[i];
    if (costs[i] < costs[winner]) winner = i;
  }
  return winner;
}

void ChunkSelector::compute_features(std::span<const std::uint8_t> payload,
                                     double features[kFeatures]) const {
  features[0] = 1.0;
  features[1] = features[2] = features[3] = 0.0;
  const std::size_t n = payload.size();
  if (n == 0) return;

  std::uint64_t hist[256] = {};
  std::size_t zero_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++hist[payload[i]];
    zero_bytes += payload[i] == 0 ? 1 : 0;
  }
  features[2] = static_cast<double>(zero_bytes) / static_cast<double>(n);

  // Toggle density: mean bit flips between consecutive beats of the
  // same line (stride = bytes per beat in both layouts).
  const auto stride = static_cast<std::size_t>(geometry_.bytes_per_beat());
  if (n > stride) {
    std::uint64_t toggles = 0;
    for (std::size_t i = stride; i < n; ++i)
      toggles += static_cast<std::uint64_t>(
          std::popcount(static_cast<unsigned>(payload[i] ^ payload[i - stride])));
    features[1] = static_cast<double>(toggles) /
                  (8.0 * static_cast<double>(n - stride));
  }

  double entropy = 0.0;
  for (const std::uint64_t count : hist) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / static_cast<double>(n);
    entropy -= p * std::log2(p);
  }
  features[3] = entropy / 8.0;
}

void ChunkSelector::commit(Candidate& c, std::size_t burst_count, double cost,
                           std::int64_t d_zeros, std::int64_t d_transitions) {
  std::copy(c.states.begin(), c.states.end(), committed_.begin());
  c.blocks_chosen += 1;
  c.bursts_chosen += static_cast<std::int64_t>(burst_count);
  c.chosen_cost += cost;
  blocks_ += 1;
  bursts_ += static_cast<std::int64_t>(burst_count);
  zeros_ += d_zeros;
  transitions_ += d_transitions;
  selected_cost_ += cost;
  if (obs_) {
    c.obs_chunks.inc();
    c.obs_bursts.add(static_cast<std::uint64_t>(burst_count));
  }
}

ChunkSelector::BlockResult ChunkSelector::encode_block(
    std::int64_t first_burst, std::span<const std::uint8_t> payload,
    std::size_t burst_count) {
  const bool predicted =
      policy_.mode() == SchemePolicy::Mode::kAdaptivePredicted;
  const bool probe =
      !predicted || blocks_ % static_cast<std::int64_t>(
                                  policy_.probe_interval()) ==
                        0;

  if (probe) {
    double features[kFeatures];
    if (predicted) compute_features(payload, features);
    const std::size_t winner =
        trial_all(first_burst, payload, burst_count, trial_costs_);
    if (predicted) {
      // Score the pre-refit model against the exact argmin, then fold
      // the probe into every candidate's history and re-fit.
      bool all_fitted = true;
      for (const auto& c : candidates_) all_fitted = all_fitted && c->fitted;
      if (all_fitted) {
        std::size_t guessed = 0;
        for (std::size_t i = 1; i < candidates_.size(); ++i)
          if (candidates_[i]->predict(features) <
              candidates_[guessed]->predict(features))
            guessed = i;
        probes_ += 1;
        if (guessed == winner) probe_hits_ += 1;
      }
      for (std::size_t i = 0; i < candidates_.size(); ++i) {
        candidates_[i]->add_sample(
            features,
            trial_costs_[i] / static_cast<double>(std::max<std::size_t>(
                                  burst_count, 1)));
        candidates_[i]->refit();
      }
    }
    Candidate& w = *candidates_[winner];
    commit(w, burst_count, trial_costs_[winner], w.last_d_zeros,
           w.last_d_transitions);
    return {w.scheme, w.last_results};
  }

  // Predicted fast path: score features, encode only the guessed
  // winner. Ties (an unfitted model predicts 0 for everyone) break
  // toward the earlier candidate, keeping the run deterministic.
  double features[kFeatures];
  compute_features(payload, features);
  std::size_t winner = 0;
  for (std::size_t i = 1; i < candidates_.size(); ++i)
    if (candidates_[i]->predict(features) <
        candidates_[winner]->predict(features))
      winner = i;

  Candidate& w = *candidates_[winner];
  std::copy(committed_.begin(), committed_.end(), w.states.begin());
  const std::int64_t z0 = w.enc->zeros();
  const std::int64_t t0 = w.enc->transitions();
  w.last_results = w.enc->encode_chunk(first_burst, payload, burst_count, true);
  w.last_d_zeros = w.enc->zeros() - z0;
  w.last_d_transitions = w.enc->transitions() - t0;
  const double cost = block_cost(w, payload, w.last_results, w.last_d_zeros,
                                 w.last_d_transitions);
  commit(w, burst_count, cost, w.last_d_zeros, w.last_d_transitions);
  return {w.scheme, w.last_results};
}

SelectionReport ChunkSelector::report() const {
  SelectionReport rep;
  rep.mode = policy_.mode();
  rep.cost_model = policy_.cost_model();
  rep.blocks = blocks_;
  rep.bursts = bursts_;
  rep.selected_cost = selected_cost_;
  rep.probes = probes_;
  rep.probe_hits = probe_hits_;
  bool first = true;
  for (const auto& c : candidates_) {
    CandidateReport cr;
    cr.scheme = c->scheme;
    cr.blocks_chosen = c->blocks_chosen;
    cr.bursts_chosen = c->bursts_chosen;
    cr.trial_blocks = c->trial_blocks;
    cr.trial_cost = c->trial_cost;
    cr.chosen_cost = c->chosen_cost;
    rep.candidates.push_back(cr);
    if (c->trial_blocks > 0 && (first || c->trial_cost < rep.best_trial_cost)) {
      rep.best_trial_cost = c->trial_cost;
      first = false;
    }
  }
  return rep;
}

std::string SelectionReport::to_json() const {
  std::string out = "{";
  out += "\"mode\":\"";
  out += SchemePolicy::mode_name(mode);
  out += "\",\"cost_model\":\"";
  out += cost_model_name(cost_model);
  out += "\",\"blocks\":" + std::to_string(blocks);
  out += ",\"bursts\":" + std::to_string(bursts);
  out += ",\"selected_cost\":" + json_num(selected_cost);
  out += ",\"best_trial_cost\":" + json_num(best_trial_cost);
  out += ",\"cost_ratio_vs_best_fixed\":" + json_num(cost_ratio_vs_best_fixed());
  out += ",\"probes\":" + std::to_string(probes);
  out += ",\"probe_hits\":" + std::to_string(probe_hits);
  out += ",\"accuracy\":" + json_num(accuracy());
  out += ",\"candidates\":[";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CandidateReport& c = candidates[i];
    if (i) out += ',';
    out += "{\"scheme\":\"";
    out += scheme_slug(c.scheme);
    out += "\",\"blocks_chosen\":" + std::to_string(c.blocks_chosen);
    out += ",\"bursts_chosen\":" + std::to_string(c.bursts_chosen);
    out += ",\"trial_blocks\":" + std::to_string(c.trial_blocks);
    out += ",\"trial_cost\":" + json_num(c.trial_cost);
    out += ",\"chosen_cost\":" + json_num(c.chosen_cost);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace dbi::select
