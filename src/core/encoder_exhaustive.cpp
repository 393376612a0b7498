// Brute-force reference encoder: evaluates all 2^burst_length inversion
// patterns (the "naive algorithm" of Section III) and keeps the
// cheapest. Exists to prove the trellis solver optimal in tests and to
// enumerate Pareto frontiers; far too slow for production use.
#include <limits>
#include <stdexcept>

#include "core/encoder.hpp"

namespace dbi {
namespace {

constexpr int kMaxExhaustiveLength = 20;  // 2^20 patterns ~ 1M, still fast

class ExhaustiveEncoder final : public Encoder {
 public:
  explicit ExhaustiveEncoder(const CostWeights& w) : w_(w) { w_.validate(); }

  [[nodiscard]] std::string_view name() const override {
    return scheme_name(Scheme::kExhaustive);
  }

  [[nodiscard]] EncodedBurst encode(const Burst& data,
                                    const BusState& prev) const override {
    const int n = data.length();
    if (n > kMaxExhaustiveLength)
      throw std::invalid_argument(
          "ExhaustiveEncoder: burst too long for brute force");
    double best_cost = std::numeric_limits<double>::infinity();
    std::uint64_t best_mask = 0;
    const std::uint64_t end = std::uint64_t{1} << n;
    for (std::uint64_t mask = 0; mask < end; ++mask) {
      const EncodedBurst e = EncodedBurst::from_inversion_mask(data, mask);
      const double cost = encoded_cost(e, prev, w_);
      if (cost < best_cost) {  // ties keep the lowest mask
        best_cost = cost;
        best_mask = mask;
      }
    }
    return EncodedBurst::from_inversion_mask(data, best_mask);
  }

 private:
  CostWeights w_;
};

}  // namespace

std::unique_ptr<Encoder> make_exhaustive_encoder(const CostWeights& w) {
  return std::make_unique<ExhaustiveEncoder>(w);
}

}  // namespace dbi
