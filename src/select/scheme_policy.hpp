// dbi::SchemePolicy — how a Session chooses the encoding scheme
// (SessionSpec::policy is the one place a session names it).
//
// Real traffic is heterogeneous (sparse pages next to high-entropy
// tensors), and the paper's central result is that no single scheme is
// optimal across data statistics — so a policy either pins one scheme
// for the whole stream or re-selects per block:
//
//   spec.policy = Scheme::kAc;                             // fixed(ac)
//   spec.policy = SchemePolicy::adaptive_exact(            // mixed-block
//       {Scheme::kDc, Scheme::kAc, Scheme::kOpt},
//       CostModel::kTransitions);
//   spec.policy = SchemePolicy::adaptive_predicted(
//       {Scheme::kDc, Scheme::kAc, Scheme::kOpt});
//
// Adaptive sessions re-decide the scheme every `block_bursts` bursts:
// exact mode encodes each block under every candidate through the
// engine kernels and keeps the minimum-cost result; predicted mode
// scores cheap per-block features (toggle density, zero mass, entropy)
// through a fitted linear model and exact-probes every
// `probe_interval`-th block to re-fit. Encoded traces written by an
// adaptive session carry a per-chunk scheme tag (trace format v3) so
// decode and verify stay self-describing.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/encoder.hpp"

namespace dbi {

/// What the per-block selector minimises.
enum class CostModel : std::uint8_t {
  kTransitions,  ///< wire + DBI-line transitions (AC energy)
  kEnergy,       ///< alpha * transitions + beta * zeros (session weights)
  kBytes,        ///< RLE-compressed transmitted byte volume
};

[[nodiscard]] constexpr std::string_view cost_model_name(CostModel m) {
  switch (m) {
    case CostModel::kTransitions:
      return "transitions";
    case CostModel::kEnergy:
      return "energy";
    case CostModel::kBytes:
      return "bytes";
  }
  return "?";
}

class SchemePolicy {
 public:
  enum class Mode : std::uint8_t {
    kFixed,             ///< one scheme for the whole stream
    kAdaptiveExact,     ///< encode-all-candidates, keep the cheapest
    kAdaptivePredicted  ///< feature model + periodic exact probe
  };

  /// Bursts per selection block (and per trace chunk in mixed traces).
  static constexpr int kDefaultBlockBursts = 256;
  /// Every Nth block of a predicted session is exact-probed to re-fit.
  static constexpr int kDefaultProbeInterval = 16;

  /// fixed(Scheme::kOpt), so a default SessionSpec runs DBI OPT.
  SchemePolicy() : SchemePolicy(Scheme::kOpt) {}
  /// A bare Scheme is a fixed policy: `spec.policy = Scheme::kAc;`.
  SchemePolicy(Scheme s) : candidates_{s} {}  // NOLINT

  [[nodiscard]] static SchemePolicy fixed(Scheme s) { return SchemePolicy(s); }

  [[nodiscard]] static SchemePolicy adaptive_exact(
      std::vector<Scheme> candidates = default_candidates(),
      CostModel cost = CostModel::kTransitions) {
    SchemePolicy p;
    p.mode_ = Mode::kAdaptiveExact;
    p.candidates_ = std::move(candidates);
    p.cost_model_ = cost;
    return p;
  }

  [[nodiscard]] static SchemePolicy adaptive_predicted(
      std::vector<Scheme> candidates = default_candidates(),
      CostModel cost = CostModel::kTransitions,
      int probe_interval = kDefaultProbeInterval) {
    SchemePolicy p;
    p.mode_ = Mode::kAdaptivePredicted;
    p.candidates_ = std::move(candidates);
    p.cost_model_ = cost;
    p.probe_interval_ = probe_interval;
    return p;
  }

  /// The candidate menu adaptive factories default to: the paper's
  /// fixed schemes plus the optimal trellis.
  [[nodiscard]] static std::vector<Scheme> default_candidates() {
    return {Scheme::kDc, Scheme::kAc, Scheme::kAcDc, Scheme::kOpt};
  }

  /// "fixed" / "adaptive-exact" / "adaptive-predicted": the mode as
  /// describe(), Session::scheme_name() and report JSON spell it.
  [[nodiscard]] static constexpr std::string_view mode_name(Mode m) {
    switch (m) {
      case Mode::kFixed:
        return "fixed";
      case Mode::kAdaptiveExact:
        return "adaptive-exact";
      case Mode::kAdaptivePredicted:
        return "adaptive-predicted";
    }
    return "?";
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] bool adaptive() const {
    return mode_ == Mode::kAdaptiveExact || mode_ == Mode::kAdaptivePredicted;
  }
  /// The pinned scheme of a kFixed policy (callers check mode() first).
  [[nodiscard]] Scheme fixed_scheme() const { return candidates_.front(); }
  [[nodiscard]] const std::vector<Scheme>& candidates() const {
    return candidates_;
  }
  [[nodiscard]] CostModel cost_model() const { return cost_model_; }
  [[nodiscard]] int probe_interval() const { return probe_interval_; }
  [[nodiscard]] int block_bursts() const { return block_bursts_; }
  SchemePolicy& set_block_bursts(int bursts) {
    block_bursts_ = bursts;
    return *this;
  }

  void validate() const {
    if (adaptive()) {
      if (candidates_.size() < 2)
        throw std::invalid_argument(
            "SchemePolicy: an adaptive policy needs at least two candidate "
            "schemes");
      for (std::size_t i = 0; i < candidates_.size(); ++i)
        for (std::size_t j = i + 1; j < candidates_.size(); ++j)
          if (candidates_[i] == candidates_[j])
            throw std::invalid_argument(
                "SchemePolicy: duplicate candidate scheme " +
                std::string(scheme_slug(candidates_[i])));
    }
    if (block_bursts_ < 1)
      throw std::invalid_argument("SchemePolicy: block_bursts must be >= 1");
    if (probe_interval_ < 1)
      throw std::invalid_argument(
          "SchemePolicy: probe_interval must be >= 1");
  }

  /// "fixed(ac)" / "adaptive-exact(dc,ac,opt; cost=transitions)" — the
  /// form reports and error messages embed.
  [[nodiscard]] std::string describe() const {
    std::string out(mode_name(mode_));
    out += '(';
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (i) out += ',';
      out += scheme_slug(candidates_[i]);
    }
    if (adaptive()) {
      out += "; cost=";
      out += cost_model_name(cost_model_);
    }
    out += ')';
    return out;
  }

  friend bool operator==(const SchemePolicy&, const SchemePolicy&) = default;

 private:
  Mode mode_ = Mode::kFixed;
  std::vector<Scheme> candidates_;
  CostModel cost_model_ = CostModel::kTransitions;
  int probe_interval_ = kDefaultProbeInterval;
  int block_bursts_ = kDefaultBlockBursts;
};

}  // namespace dbi
