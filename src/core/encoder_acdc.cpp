// DBI ACDC (Hollis, "Data bus inversion in high-speed memory
// applications", TCAS-II 2009; paper Section II): the first beat of a
// burst is encoded with the DC rule, the remaining beats with the AC
// rule. Under the paper's all-ones boundary condition the first-beat
// DC and AC decisions coincide, which is why the paper reports ACDC
// behaving identically to AC there; with other boundary states the two
// schemes differ (exercised by our ablation bench).
#include "core/byte_utils.hpp"
#include "core/encoder.hpp"

namespace dbi {
namespace {

class AcDcEncoder final : public Encoder {
 public:
  [[nodiscard]] std::string_view name() const override {
    return scheme_name(Scheme::kAcDc);
  }

  [[nodiscard]] EncodedBurst encode(const Burst& data,
                                    const BusState& prev) const override {
    const BusConfig& cfg = data.config();
    std::vector<Beat> beats;
    beats.reserve(static_cast<std::size_t>(data.length()));
    Beat last = prev.last;
    for (int i = 0; i < data.length(); ++i) {
      const Word w = data.word(i);
      bool do_invert = false;
      if (i == 0) {
        const int zeros = count_zeros(w, cfg);
        do_invert = 2 * zeros > cfg.width + 1;
      } else {
        const Beat keep{w, true};
        const Beat inv{invert(w, cfg), false};
        do_invert = beat_transitions(last, inv, cfg) <
                    beat_transitions(last, keep, cfg);
      }
      last = do_invert ? Beat{invert(w, cfg), false} : Beat{w, true};
      beats.push_back(last);
    }
    return EncodedBurst(cfg, std::move(beats));
  }
};

}  // namespace

std::unique_ptr<Encoder> make_acdc_encoder() {
  return std::make_unique<AcDcEncoder>();
}

}  // namespace dbi
