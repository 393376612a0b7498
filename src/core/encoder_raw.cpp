// RAW transmission: no DBI wire, data sent as-is. The baseline every
// figure of the paper normalises against.
#include "core/encoder.hpp"

namespace dbi {
namespace {

class RawEncoder final : public Encoder {
 public:
  [[nodiscard]] std::string_view name() const override {
    return scheme_name(Scheme::kRaw);
  }

  [[nodiscard]] EncodedBurst encode(const Burst& data,
                                    const BusState& /*prev*/) const override {
    std::vector<Beat> beats;
    beats.reserve(static_cast<std::size_t>(data.length()));
    for (int i = 0; i < data.length(); ++i)
      beats.push_back(Beat{data.word(i), true});
    return EncodedBurst(data.config(), std::move(beats),
                        /*uses_dbi_line=*/false);
  }
};

}  // namespace

std::unique_ptr<Encoder> make_raw_encoder() {
  return std::make_unique<RawEncoder>();
}

}  // namespace dbi
