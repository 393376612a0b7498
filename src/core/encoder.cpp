#include "core/encoder.hpp"

#include <array>
#include <stdexcept>

namespace dbi {

namespace {

struct SchemeRow {
  Scheme scheme;
  std::string_view name;
  std::string_view slug;
  std::uint8_t tag;  // persisted in traces and on the wire: never renumber
};

constexpr std::array<SchemeRow, 7> kSchemes{{
    {Scheme::kRaw, "RAW", "raw", 1},
    {Scheme::kDc, "DBI DC", "dc", 2},
    {Scheme::kAc, "DBI AC", "ac", 3},
    {Scheme::kAcDc, "DBI ACDC", "acdc", 4},
    {Scheme::kOpt, "DBI OPT", "opt", 5},
    {Scheme::kOptFixed, "DBI OPT (Fixed)", "opt-fixed", 6},
    {Scheme::kExhaustive, "EXHAUSTIVE", "exhaustive", 7},
}};

const SchemeRow& row(Scheme s) {
  for (const SchemeRow& r : kSchemes)
    if (r.scheme == s) return r;
  throw std::invalid_argument("unknown scheme " +
                              std::to_string(static_cast<int>(s)));
}

}  // namespace

std::string_view scheme_name(Scheme s) { return row(s).name; }

std::string_view scheme_slug(Scheme s) { return row(s).slug; }

std::optional<Scheme> scheme_from_slug(std::string_view slug) {
  for (const SchemeRow& r : kSchemes)
    if (r.slug == slug) return r.scheme;
  return std::nullopt;
}

std::string scheme_slug_list() {
  std::string out;
  for (const SchemeRow& r : kSchemes) {
    if (!out.empty()) out += '|';
    out += r.slug;
  }
  return out;
}

std::uint8_t scheme_to_tag(Scheme s) { return row(s).tag; }

std::optional<Scheme> scheme_from_tag(std::uint8_t tag) {
  for (const SchemeRow& r : kSchemes)
    if (r.tag == tag) return r.scheme;
  return std::nullopt;
}

std::unique_ptr<Encoder> make_encoder(Scheme s, const CostWeights& w) {
  switch (s) {
    case Scheme::kRaw:
      return make_raw_encoder();
    case Scheme::kDc:
      return make_dc_encoder();
    case Scheme::kAc:
      return make_ac_encoder();
    case Scheme::kAcDc:
      return make_acdc_encoder();
    case Scheme::kOpt:
      return make_opt_encoder(w);
    case Scheme::kOptFixed:
      return make_opt_fixed_encoder();
    case Scheme::kExhaustive:
      return make_exhaustive_encoder(w);
  }
  throw std::invalid_argument("make_encoder: unknown scheme");
}

}  // namespace dbi
