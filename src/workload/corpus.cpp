#include "workload/corpus.hpp"

#include <array>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace dbi::workload {
namespace {

using dbi::Burst;
using dbi::BusConfig;
using dbi::Word;

/// Cache-line copies of heap-object data: a byte stream of 16-byte
/// records [48-bit pointer | u32 length | u32 flags], little-endian —
/// near-constant high pointer bytes, small-integer fields whose high
/// bytes are mostly zero, and sparse flag words. Models the memcpy /
/// struct-assignment traffic that dominates many CPU workloads.
/// Requires width == 8.
class CachelineMemcpySource final : public BurstSource {
 public:
  CachelineMemcpySource(const BusConfig& cfg, std::uint64_t seed)
      : BurstSource(cfg), rng_(seed) {
    if (cfg.width != 8)
      throw std::invalid_argument(
          "cacheline-memcpy corpus requires width == 8");
    heap_base_ = 0x00007F0000000000ULL |
                 ((rng_.next() & 0xFFFULL) << 28);  // one mmap region
  }
  [[nodiscard]] std::string_view name() const override {
    return "cacheline-memcpy";
  }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      if (pos_ == record_.size()) refill();
      b.set_word(i, record_[pos_++]);
    }
    return b;
  }

 private:
  void refill() {
    const std::uint64_t ptr =
        heap_base_ + ((rng_.next() & 0xFFFFFFULL) << 4);  // 16-aligned
    const std::uint32_t len =
        static_cast<std::uint32_t>(rng_.next() & 0x3FULL) + 1;  // small
    const std::uint32_t flags =
        (rng_.next() & 3ULL) == 0
            ? static_cast<std::uint32_t>(rng_.next() & 0xFFULL)
            : 0;  // mostly zero
    for (int i = 0; i < 8; ++i)
      record_[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(ptr >> (8 * i));
    for (int i = 0; i < 4; ++i) {
      record_[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
      record_[static_cast<std::size_t>(12 + i)] =
          static_cast<std::uint8_t>(flags >> (8 * i));
    }
    pos_ = 0;
  }

  util::Xoshiro256 rng_;
  std::uint64_t heap_base_;
  std::array<std::uint8_t, 16> record_{};
  std::size_t pos_ = record_.size();  // refill on first beat
};

/// Block-interleaved mix of the extremes of the coding-gain spectrum —
/// sparse-zeros, ascii-text, float-tensor and high-entropy phases of
/// 256 bursts each. No single scheme is optimal across the phases (DC
/// wins the zero-heavy and noise-like phases on combined energy, AC
/// the low-toggle text), so this is the scenario adaptive
/// "mixed-block" selection is measured on; the phase length matches
/// the default selection block size.
class MixedPhaseSource final : public BurstSource {
 public:
  MixedPhaseSource(const BusConfig& cfg, std::uint64_t seed)
      : BurstSource(cfg) {
    parts_[0] = make_sparse_source(cfg, 0.85, seed);
    parts_[1] = make_text_source(cfg, seed + 1);
    parts_[2] = make_tensor_source(cfg, seed + 2);
    parts_[3] = make_uniform_source(cfg, seed + 3);
  }
  [[nodiscard]] std::string_view name() const override { return "mixed"; }

  [[nodiscard]] Burst next() override {
    const auto phase =
        static_cast<std::size_t>(bursts_++ / kPhaseBursts) % parts_.size();
    return parts_[phase]->next();
  }

 private:
  static constexpr std::int64_t kPhaseBursts = 256;
  std::array<std::unique_ptr<BurstSource>, 4> parts_;
  std::int64_t bursts_ = 0;
};

constexpr std::array<CorpusScenario, 8> kScenarios{{
    {"cacheline-memcpy",
     "heap-object copies: pointers, small ints, sparse flags"},
    {"sparse-zeros", "zero-dominated pages (85% zero words)"},
    {"float-tensor", "float32 NN weights ~N(0, 0.05), streamed byte-wise"},
    {"ascii-text", "English-like ASCII byte stream"},
    {"high-entropy", "pre-compressed / encrypted data (uniform bits)"},
    {"address-stream", "cache-line-strided addresses (counter, stride 64)"},
    {"framebuffer", "ARGB8888 scanline gradients with dithering noise"},
    {"mixed",
     "block-interleaved sparse-zeros / ascii-text / float-tensor / "
     "high-entropy phases"},
}};

}  // namespace

std::span<const CorpusScenario> corpus_scenarios() { return kScenarios; }

std::unique_ptr<BurstSource> make_corpus_source(std::string_view name,
                                                const dbi::BusConfig& cfg,
                                                std::uint64_t seed) {
  if (name == "cacheline-memcpy")
    return std::make_unique<CachelineMemcpySource>(cfg, seed);
  if (name == "sparse-zeros") return make_sparse_source(cfg, 0.85, seed);
  if (name == "float-tensor") return make_tensor_source(cfg, seed);
  if (name == "ascii-text") return make_text_source(cfg, seed);
  if (name == "high-entropy") return make_uniform_source(cfg, seed);
  if (name == "address-stream")
    return make_counter_source(cfg, seed * 64, 64);
  if (name == "framebuffer") return make_framebuffer_source(cfg, seed);
  if (name == "mixed") return std::make_unique<MixedPhaseSource>(cfg, seed);

  std::string known;
  for (const CorpusScenario& s : kScenarios) {
    if (!known.empty()) known += "|";
    known += std::string(s.name);
  }
  throw std::invalid_argument("unknown corpus scenario \"" +
                              std::string(name) + "\" (" + known + ")");
}

void fill_wide_bursts(BurstSource& source, const dbi::WideBusConfig& cfg,
                      std::span<std::uint8_t> out) {
  cfg.validate();
  if (source.config().width != 8)
    throw std::invalid_argument(
        "fill_wide_bursts: the source must stream bytes (width 8), got "
        "width " +
        std::to_string(source.config().width));
  const auto bb = static_cast<std::size_t>(cfg.bytes_per_burst());
  if (out.size() % bb != 0)
    throw std::invalid_argument(
        "fill_wide_bursts: output of " + std::to_string(out.size()) +
        " bytes is not a multiple of the " + std::to_string(bb) +
        "-byte packed wide burst");
  const auto groups = static_cast<std::size_t>(cfg.groups());
  const auto gmask =
      static_cast<std::uint8_t>(cfg.group_mask(cfg.groups() - 1));

  std::size_t pos = 0;
  while (pos < out.size()) {
    const dbi::Burst burst = source.next();
    for (int t = 0; t < burst.length() && pos < out.size(); ++t) {
      auto byte = static_cast<std::uint8_t>(burst.word(t));
      if (pos % groups == groups - 1) byte &= gmask;
      out[pos++] = byte;
    }
  }
}

void fill_wide_corpus(std::string_view name, const dbi::WideBusConfig& cfg,
                      std::uint64_t seed, std::span<std::uint8_t> out) {
  const auto source =
      make_corpus_source(name, dbi::BusConfig{8, cfg.burst_length}, seed);
  fill_wide_bursts(*source, cfg, out);
}

}  // namespace dbi::workload
