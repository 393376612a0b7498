// DBI OPT: the paper's contribution. Finds the minimum-energy inversion
// pattern of a whole burst by solving the trellis shortest-path problem
// (Section III). Three variants:
//   * OptEncoder       — real-valued coefficients (alpha, beta)
//   * OptIntEncoder    — integer coefficients (the 3-bit hardware design)
//   * DBI OPT (Fixed)  — OptIntEncoder with alpha = beta = 1 (Fig. 5
//                        datapath without multipliers)
#include <string>

#include "core/encoder.hpp"
#include "core/trellis.hpp"

namespace dbi {
namespace {

class OptEncoder final : public Encoder {
 public:
  explicit OptEncoder(const CostWeights& w) : w_(w) { w_.validate(); }

  [[nodiscard]] std::string_view name() const override {
    return scheme_name(Scheme::kOpt);
  }

  [[nodiscard]] EncodedBurst encode(const Burst& data,
                                    const BusState& prev) const override {
    const TrellisResult<double> r = solve_trellis(data, prev, w_);
    return EncodedBurst::from_inversion_mask(data, r.invert_mask);
  }

 private:
  CostWeights w_;
};

class OptIntEncoder final : public Encoder {
 public:
  OptIntEncoder(const IntCostWeights& w, std::string name)
      : w_(w), name_(std::move(name)) {
    w_.validate();
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] EncodedBurst encode(const Burst& data,
                                    const BusState& prev) const override {
    const TrellisResult<std::int64_t> r = solve_trellis(data, prev, w_);
    return EncodedBurst::from_inversion_mask(data, r.invert_mask);
  }

 private:
  IntCostWeights w_;
  std::string name_;
};

}  // namespace

std::unique_ptr<Encoder> make_opt_encoder(const CostWeights& w) {
  return std::make_unique<OptEncoder>(w);
}

std::unique_ptr<Encoder> make_opt_fixed_encoder() {
  return std::make_unique<OptIntEncoder>(
      IntCostWeights{1, 1}, std::string(scheme_name(Scheme::kOptFixed)));
}

std::unique_ptr<Encoder> make_opt_int_encoder(const IntCostWeights& w) {
  return std::make_unique<OptIntEncoder>(
      w, "DBI OPT (int " + std::to_string(w.alpha) + "," +
             std::to_string(w.beta) + ")");
}

}  // namespace dbi
