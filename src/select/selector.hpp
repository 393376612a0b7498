// select::ChunkSelector — the per-block scheme selection engine behind
// adaptive SchemePolicy sessions ("mixed-block" coding).
//
// The selector owns one BatchEncoder + StreamEncoder pair per candidate
// scheme, all sharing one committed line-state history: a block trial
// copies the committed states into the candidate's scratch span, runs
// the real engine kernels over the block, and costs the result under
// the policy's CostModel; the winner's scratch becomes the committed
// history. Exact mode trials every candidate on every block, so the
// selected cost is block-wise minimal by construction. Predicted mode
// trials only every probe_interval-th block; the other blocks score
// cheap payload features (toggle density, zero-byte mass, byte entropy)
// through per-candidate linear models fitted on the probes, and the
// probes double as an accuracy measurement of the predictor.
//
// The selector is deterministic: no clocks, no RNG — ties break toward
// the earlier candidate, and the predicted model is re-fitted by exact
// normal equations in candidate order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/geometry.hpp"
#include "core/cost.hpp"
#include "core/encoder.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/metrics.hpp"
#include "select/scheme_policy.hpp"

namespace dbi::obs {
class Observer;
}  // namespace dbi::obs

namespace dbi::select {

/// Per-candidate totals of one adaptive run. `trial_cost` sums the
/// candidate's block costs over the blocks it was actually trial-encoded
/// on (every block in exact mode, probes only in predicted mode), each
/// trial starting from the committed mixed history — so in exact mode
/// `trial_cost` is what the candidate would have cost had it been forced
/// on every block of this stream.
struct CandidateReport {
  Scheme scheme = Scheme::kRaw;
  std::int64_t blocks_chosen = 0;
  std::int64_t bursts_chosen = 0;
  std::int64_t trial_blocks = 0;
  double trial_cost = 0.0;
  double chosen_cost = 0.0;
};

/// Selection outcome of one adaptive session run.
struct SelectionReport {
  SchemePolicy::Mode mode = SchemePolicy::Mode::kFixed;
  CostModel cost_model = CostModel::kTransitions;
  std::int64_t blocks = 0;
  std::int64_t bursts = 0;
  /// Total cost of the blocks the selector actually committed.
  double selected_cost = 0.0;
  /// min over candidates of trial_cost — in exact mode, the cost of the
  /// best single fixed scheme on this stream (the Pareto baseline).
  double best_trial_cost = 0.0;
  /// Predicted mode only: exact probes run, and how many of them the
  /// feature model called correctly (argmin match).
  std::int64_t probes = 0;
  std::int64_t probe_hits = 0;
  std::vector<CandidateReport> candidates;

  /// Probe accuracy of the predictor in [0,1]; 1.0 when never probed.
  [[nodiscard]] double accuracy() const {
    return probes > 0 ? static_cast<double>(probe_hits) /
                            static_cast<double>(probes)
                      : 1.0;
  }
  /// best_trial_cost / selected_cost: > 1 means the mixed stream beat
  /// the best single candidate (exact mode; probe-sampled otherwise).
  [[nodiscard]] double cost_ratio_vs_best_fixed() const {
    return selected_cost > 0.0 ? best_trial_cost / selected_cost : 1.0;
  }
  [[nodiscard]] std::string to_json() const;
};

class ChunkSelector {
 public:
  struct Config {
    SchemePolicy policy;  ///< must be adaptive (validated)
    Geometry geometry;
    CostWeights weights;
    int lanes = 1;
    bool reset_state_per_burst = false;
    engine::ShardPool* pool = nullptr;
    obs::Observer* obs = nullptr;
    /// Kernel variant handed to every candidate engine (null: registry
    /// default).
    const engine::KernelVariant* kernel = nullptr;
  };

  explicit ChunkSelector(const Config& cfg);
  ChunkSelector(const ChunkSelector&) = delete;
  ChunkSelector& operator=(const ChunkSelector&) = delete;
  ~ChunkSelector();

  struct BlockResult {
    Scheme scheme = Scheme::kRaw;
    /// Winner's per-(burst, group) results in trace order; valid until
    /// this selector encodes its next block.
    std::span<const engine::BurstResult> results;
  };

  /// Encodes one selection block (`burst_count` packed bursts) under the
  /// policy, commits the winning scheme's line states, and returns the
  /// winner. `first_burst` is the stream-global index of the block's
  /// first burst (fixes the lane interleave).
  BlockResult encode_block(std::int64_t first_burst,
                           std::span<const std::uint8_t> payload,
                           std::size_t burst_count);

  /// 64-bit totals over every committed block.
  [[nodiscard]] std::int64_t bursts() const { return bursts_; }
  [[nodiscard]] std::int64_t zeros() const { return zeros_; }
  [[nodiscard]] std::int64_t transitions() const { return transitions_; }

  [[nodiscard]] SelectionReport report() const;

 private:
  struct Candidate;

  double block_cost(Candidate& c, std::span<const std::uint8_t> payload,
                    std::span<const engine::BurstResult> results,
                    std::int64_t d_zeros, std::int64_t d_transitions);
  std::size_t trial_all(std::int64_t first_burst,
                        std::span<const std::uint8_t> payload,
                        std::size_t burst_count, std::vector<double>& costs);
  void compute_features(std::span<const std::uint8_t> payload,
                        double features[4]) const;
  void commit(Candidate& c, std::size_t burst_count, double cost,
              std::int64_t d_zeros, std::int64_t d_transitions);

  SchemePolicy policy_;
  Geometry geometry_;
  CostWeights weights_;
  engine::StreamEncodeOptions stream_opt_;
  obs::Observer* obs_ = nullptr;

  std::vector<std::unique_ptr<Candidate>> candidates_;
  std::vector<dbi::BusState> committed_;  // lanes x groups, group-minor
  engine::BatchDecoder decoder_;          // kBytes wire materialisation
  std::vector<std::uint8_t> wire_;        // kBytes scratch
  std::vector<std::uint64_t> mask_words_;
  std::vector<std::uint8_t> rle_scratch_;

  std::int64_t blocks_ = 0;
  std::int64_t bursts_ = 0;
  std::int64_t zeros_ = 0;
  std::int64_t transitions_ = 0;
  double selected_cost_ = 0.0;
  std::int64_t probes_ = 0;
  std::int64_t probe_hits_ = 0;
  std::vector<double> trial_costs_;  // scratch, one slot per candidate
};

}  // namespace dbi::select
