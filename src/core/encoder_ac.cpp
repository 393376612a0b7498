// DBI AC (paper, Section I): invert a beat whenever inversion reduces
// the number of line transitions relative to the previously transmitted
// beat, counting the DBI line's own toggle.
//
// With width + 1 lines the two options toggle t and (width + 1) - t
// lines, so for even widths there is never a tie; the tie rule
// (prefer non-inverted) only matters for odd bus widths.
#include "core/byte_utils.hpp"
#include "core/encoder.hpp"

namespace dbi {
namespace {

class AcEncoder final : public Encoder {
 public:
  [[nodiscard]] std::string_view name() const override {
    return scheme_name(Scheme::kAc);
  }

  [[nodiscard]] EncodedBurst encode(const Burst& data,
                                    const BusState& prev) const override {
    const BusConfig& cfg = data.config();
    std::vector<Beat> beats;
    beats.reserve(static_cast<std::size_t>(data.length()));
    Beat last = prev.last;
    for (int i = 0; i < data.length(); ++i) {
      const Beat keep{data.word(i), true};
      const Beat inv{invert(data.word(i), cfg), false};
      const int t_keep = beat_transitions(last, keep, cfg);
      const int t_inv = beat_transitions(last, inv, cfg);
      last = (t_inv < t_keep) ? inv : keep;
      beats.push_back(last);
    }
    return EncodedBurst(cfg, std::move(beats));
  }
};

}  // namespace

std::unique_ptr<Encoder> make_ac_encoder() {
  return std::make_unique<AcEncoder>();
}

}  // namespace dbi
