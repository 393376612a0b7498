// DBI DC (paper, Section I): invert a beat whenever inversion reduces
// the number of transmitted zeros, counting the extra zero the DBI line
// itself contributes for an inverted beat.
//
// A beat with z zeros transmits z zeros non-inverted and
// (width - z) + 1 zeros inverted, so inversion pays iff
// width - z + 1 < z  <=>  2 z > width + 1. For the JEDEC width of 8
// this is the familiar "5 or more zeros" rule, which guarantees at most
// 4 zeros per transmitted beat.
#include "core/byte_utils.hpp"
#include "core/encoder.hpp"

namespace dbi {
namespace {

class DcEncoder final : public Encoder {
 public:
  [[nodiscard]] std::string_view name() const override {
    return scheme_name(Scheme::kDc);
  }

  [[nodiscard]] EncodedBurst encode(const Burst& data,
                                    const BusState& /*prev*/) const override {
    const BusConfig& cfg = data.config();
    std::uint64_t mask = 0;
    for (int i = 0; i < data.length(); ++i) {
      const int zeros = count_zeros(data.word(i), cfg);
      if (2 * zeros > cfg.width + 1) mask |= std::uint64_t{1} << i;
    }
    return EncodedBurst::from_inversion_mask(data, mask);
  }
};

}  // namespace

std::unique_ptr<Encoder> make_dc_encoder() {
  return std::make_unique<DcEncoder>();
}

}  // namespace dbi
