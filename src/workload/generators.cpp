#include "workload/generators.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace dbi::workload {
namespace {

using dbi::Burst;
using dbi::BusConfig;
using dbi::Word;

class UniformSource final : public BurstSource {
 public:
  UniformSource(const BusConfig& cfg, std::uint64_t seed)
      : BurstSource(cfg), rng_(seed) {}
  [[nodiscard]] std::string_view name() const override { return "uniform"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i)
      b.set_word(i, static_cast<Word>(rng_.next()) & config().dq_mask());
    return b;
  }

 private:
  util::Xoshiro256 rng_;
};

class BiasedSource final : public BurstSource {
 public:
  BiasedSource(const BusConfig& cfg, double p_one, std::uint64_t seed)
      : BurstSource(cfg), p_one_(p_one), rng_(seed) {
    if (p_one < 0.0 || p_one > 1.0)
      throw std::invalid_argument("BiasedSource: p_one must be in [0,1]");
  }
  [[nodiscard]] std::string_view name() const override { return "biased"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i)
      b.set_word(i, rng_.next_biased_bits(config().width, p_one_));
    return b;
  }

 private:
  double p_one_;
  util::Xoshiro256 rng_;
};

class SparseSource final : public BurstSource {
 public:
  SparseSource(const BusConfig& cfg, double p_zero_word, std::uint64_t seed)
      : BurstSource(cfg), p_zero_word_(p_zero_word), rng_(seed) {
    if (p_zero_word < 0.0 || p_zero_word > 1.0)
      throw std::invalid_argument("SparseSource: p_zero_word not in [0,1]");
  }
  [[nodiscard]] std::string_view name() const override { return "sparse"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      if (rng_.next_bool(p_zero_word_)) continue;  // word stays zero
      b.set_word(i, static_cast<Word>(rng_.next()) & config().dq_mask());
    }
    return b;
  }

 private:
  double p_zero_word_;
  util::Xoshiro256 rng_;
};

class CounterSource final : public BurstSource {
 public:
  CounterSource(const BusConfig& cfg, std::uint64_t start, std::uint64_t step)
      : BurstSource(cfg), value_(start), step_(step) {}
  [[nodiscard]] std::string_view name() const override { return "counter"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      b.set_word(i, static_cast<Word>(value_) & config().dq_mask());
      value_ += step_;
    }
    return b;
  }

 private:
  std::uint64_t value_;
  std::uint64_t step_;
};

class GrayCounterSource final : public BurstSource {
 public:
  GrayCounterSource(const BusConfig& cfg, std::uint64_t start)
      : BurstSource(cfg), value_(start) {}
  [[nodiscard]] std::string_view name() const override {
    return "gray-counter";
  }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      const std::uint64_t gray = value_ ^ (value_ >> 1);
      b.set_word(i, static_cast<Word>(gray) & config().dq_mask());
      ++value_;
    }
    return b;
  }

 private:
  std::uint64_t value_;
};

class WalkingOnesSource final : public BurstSource {
 public:
  explicit WalkingOnesSource(const BusConfig& cfg)
      : BurstSource(cfg), position_(0) {}
  [[nodiscard]] std::string_view name() const override {
    return "walking-ones";
  }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      b.set_word(i, Word{1} << position_);
      position_ = (position_ + 1) % config().width;
    }
    return b;
  }

 private:
  int position_;
};

// Approximate English letter frequencies (per mille), space-heavy like
// running text; enough realism for interface statistics.
class TextSource final : public BurstSource {
 public:
  TextSource(const BusConfig& cfg, std::uint64_t seed)
      : BurstSource(cfg), rng_(seed) {
    if (cfg.width != 8)
      throw std::invalid_argument("TextSource requires width == 8");
  }
  [[nodiscard]] std::string_view name() const override { return "text"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i)
      b.set_word(i, static_cast<Word>(next_char()));
    return b;
  }

 private:
  char next_char() {
    if (word_remaining_ == 0) {
      // Geometric word length, mean ~5, then one separator.
      word_remaining_ = 1;
      while (word_remaining_ < 12 && rng_.next_bool(0.8)) ++word_remaining_;
      return ' ';
    }
    --word_remaining_;
    static constexpr std::string_view kAlphabet =
        "etaoinshrdlcumwfgypbvkjxqz";
    // Zipf-flavoured pick biased towards the frequent letters.
    const auto r = rng_.next_double() * rng_.next_double();
    const auto idx = static_cast<std::size_t>(
        r * static_cast<double>(kAlphabet.size()));
    char c = kAlphabet[std::min(idx, kAlphabet.size() - 1)];
    if (word_remaining_ > 0 && rng_.next_bool(0.04)) c -= 'a' - 'A';
    return c;
  }

  util::Xoshiro256 rng_;
  int word_remaining_ = 0;
};

class FloatSource final : public BurstSource {
 public:
  FloatSource(const BusConfig& cfg, std::uint64_t seed)
      : BurstSource(cfg), rng_(seed) {
    if (cfg.width != 8)
      throw std::invalid_argument("FloatSource requires width == 8");
  }
  [[nodiscard]] std::string_view name() const override { return "float32"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      if (byte_index_ == 0) {
        value_ += (rng_.next_double() - 0.5) * 0.125 * (1.0 + value_ * 0.01);
        const float f = static_cast<float>(value_);
        static_assert(sizeof(f) == sizeof(current_));
        std::memcpy(&current_, &f, sizeof(f));
      }
      b.set_word(i, (current_ >> (8 * byte_index_)) & 0xFFU);
      byte_index_ = (byte_index_ + 1) % 4;
    }
    return b;
  }

 private:
  util::Xoshiro256 rng_;
  double value_ = 1.0;
  std::uint32_t current_ = 0;
  int byte_index_ = 0;
};

class MarkovSource final : public BurstSource {
 public:
  MarkovSource(const BusConfig& cfg, double p_stay, std::uint64_t seed)
      : BurstSource(cfg), p_stay_(p_stay), rng_(seed) {
    if (p_stay < 0.0 || p_stay > 1.0)
      throw std::invalid_argument("MarkovSource: p_stay must be in [0,1]");
    state_ = static_cast<Word>(rng_.next()) & cfg.dq_mask();
  }
  [[nodiscard]] std::string_view name() const override { return "markov"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      Word flips = 0;
      for (int bit = 0; bit < config().width; ++bit)
        if (!rng_.next_bool(p_stay_)) flips |= Word{1} << bit;
      state_ = (state_ ^ flips) & config().dq_mask();
      b.set_word(i, state_);
    }
    return b;
  }

 private:
  double p_stay_;
  util::Xoshiro256 rng_;
  Word state_;
};

class FramebufferSource final : public BurstSource {
 public:
  FramebufferSource(const BusConfig& cfg, std::uint64_t seed)
      : BurstSource(cfg), rng_(seed) {
    if (cfg.width != 8)
      throw std::invalid_argument("FramebufferSource requires width == 8");
    new_scanline();
  }
  [[nodiscard]] std::string_view name() const override {
    return "framebuffer";
  }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      if (channel_ == 0) advance_pixel();
      // Byte order B, G, R, A per pixel (little-endian ARGB8888).
      const double value =
          channel_ == 3 ? 255.0
                        : colour_[static_cast<std::size_t>(channel_)];
      const double dithered =
          value + (rng_.next_double() - 0.5) * 2.0;  // +-1 LSB dither
      b.set_word(i, static_cast<Word>(
                        std::clamp(static_cast<int>(dithered), 0, 255)));
      channel_ = (channel_ + 1) % 4;
    }
    return b;
  }

 private:
  void new_scanline() {
    for (auto& c : colour_) c = 255.0 * rng_.next_double();
    for (auto& s : slope_) s = (rng_.next_double() - 0.5) * 1.5;
    pixels_left_ = 64 + static_cast<int>(rng_.next_below(192));
  }
  void advance_pixel() {
    if (--pixels_left_ <= 0) new_scanline();
    for (std::size_t c = 0; c < colour_.size(); ++c)
      colour_[c] = std::clamp(colour_[c] + slope_[c], 0.0, 255.0);
  }

  util::Xoshiro256 rng_;
  std::array<double, 3> colour_{};  // B, G, R
  std::array<double, 3> slope_{};
  int pixels_left_ = 0;
  int channel_ = 0;
};

class TensorSource final : public BurstSource {
 public:
  TensorSource(const BusConfig& cfg, std::uint64_t seed)
      : BurstSource(cfg), rng_(seed) {
    if (cfg.width != 8)
      throw std::invalid_argument("TensorSource requires width == 8");
  }
  [[nodiscard]] std::string_view name() const override { return "tensor"; }

  [[nodiscard]] Burst next() override {
    Burst b(config());
    for (int i = 0; i < b.length(); ++i) {
      if (byte_index_ == 0) {
        // Approximate N(0, 0.05) via a sum of uniforms (CLT).
        double sum = 0.0;
        for (int k = 0; k < 6; ++k) sum += rng_.next_double() - 0.5;
        const float weight = static_cast<float>(sum * 0.07);
        static_assert(sizeof(weight) == sizeof(current_));
        std::memcpy(&current_, &weight, sizeof(weight));
      }
      b.set_word(i, (current_ >> (8 * byte_index_)) & 0xFFU);
      byte_index_ = (byte_index_ + 1) % 4;
    }
    return b;
  }

 private:
  util::Xoshiro256 rng_;
  std::uint32_t current_ = 0;
  int byte_index_ = 0;
};

}  // namespace

std::unique_ptr<BurstSource> make_uniform_source(const BusConfig& cfg,
                                                 std::uint64_t seed) {
  return std::make_unique<UniformSource>(cfg, seed);
}
std::unique_ptr<BurstSource> make_biased_source(const BusConfig& cfg,
                                                double p_one,
                                                std::uint64_t seed) {
  return std::make_unique<BiasedSource>(cfg, p_one, seed);
}
std::unique_ptr<BurstSource> make_sparse_source(const BusConfig& cfg,
                                                double p_zero_word,
                                                std::uint64_t seed) {
  return std::make_unique<SparseSource>(cfg, p_zero_word, seed);
}
std::unique_ptr<BurstSource> make_counter_source(const BusConfig& cfg,
                                                 std::uint64_t start,
                                                 std::uint64_t stride) {
  return std::make_unique<CounterSource>(cfg, start, stride);
}
std::unique_ptr<BurstSource> make_gray_counter_source(const BusConfig& cfg,
                                                      std::uint64_t start) {
  return std::make_unique<GrayCounterSource>(cfg, start);
}
std::unique_ptr<BurstSource> make_walking_ones_source(const BusConfig& cfg) {
  return std::make_unique<WalkingOnesSource>(cfg);
}
std::unique_ptr<BurstSource> make_text_source(const BusConfig& cfg,
                                              std::uint64_t seed) {
  return std::make_unique<TextSource>(cfg, seed);
}
std::unique_ptr<BurstSource> make_float_source(const BusConfig& cfg,
                                               std::uint64_t seed) {
  return std::make_unique<FloatSource>(cfg, seed);
}
std::unique_ptr<BurstSource> make_markov_source(const BusConfig& cfg,
                                                double p_stay,
                                                std::uint64_t seed) {
  return std::make_unique<MarkovSource>(cfg, p_stay, seed);
}

std::unique_ptr<BurstSource> make_framebuffer_source(const BusConfig& cfg,
                                                     std::uint64_t seed) {
  return std::make_unique<FramebufferSource>(cfg, seed);
}
std::unique_ptr<BurstSource> make_tensor_source(const BusConfig& cfg,
                                                std::uint64_t seed) {
  return std::make_unique<TensorSource>(cfg, seed);
}

}  // namespace dbi::workload
