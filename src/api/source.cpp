#include "api/source.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "trace/trace_reader.hpp"
#include "workload/corpus.hpp"
#include "workload/generators.hpp"

namespace dbi {

namespace {

/// Bursts per pulled chunk for sources that stage into a buffer: large
/// enough to amortise the virtual call and fill the engine's SWAR
/// kernels, small enough to keep the staging buffer in cache-friendly
/// territory (<= 2 MiB at the widest geometry).
constexpr std::int64_t kChunkBursts = 1 << 13;

/// Packs one narrow burst's words into the little-endian beat layout.
void pack_burst(const dbi::Burst& b, int bytes_per_beat, std::uint8_t* dst) {
  for (const dbi::Word w : b.words())
    for (int k = 0; k < bytes_per_beat; ++k)
      *dst++ = static_cast<std::uint8_t>(w >> (8 * k));
}

class BurstSpanSource final : public Source {
 public:
  explicit BurstSpanSource(std::span<const dbi::Burst> bursts)
      : bursts_(bursts) {}

  // Every burst is checked against the bound geometry as it is packed
  // (on the unpacked fast path, Session::run_bursts and the engine's
  // lane loop check them).
  void bind(const Geometry& g) override {
    if (g.is_wide())
      throw std::invalid_argument(
          "burst source: Burst spans are narrow single-group payloads; "
          "session geometry is " + g.to_string());
    cfg_ = g.bus();
    bb_ = static_cast<std::size_t>(g.bytes_per_burst());
    bpb_ = g.bytes_per_beat();
    next_ = 0;
  }

  std::optional<SourceChunk> next() override {
    if (next_ >= static_cast<std::int64_t>(bursts_.size())) return {};
    const auto n =
        std::min(kChunkBursts,
                 static_cast<std::int64_t>(bursts_.size()) - next_);
    buffer_.resize(static_cast<std::size_t>(n) * bb_);
    for (std::int64_t i = 0; i < n; ++i) {
      const dbi::Burst& b = bursts_[static_cast<std::size_t>(next_ + i)];
      if (b.config() != cfg_)
        throw std::invalid_argument(
            "burst source: burst " + std::to_string(next_ + i) + " is " +
            Geometry::of(b.config()).to_string() + ", session geometry is " +
            Geometry::of(cfg_).to_string());
      pack_burst(b, bpb_, buffer_.data() + static_cast<std::size_t>(i) * bb_);
    }
    next_ += n;
    return SourceChunk{buffer_, n, {}};
  }

  std::span<const dbi::Burst> bursts() const override { return bursts_; }

 private:
  std::span<const dbi::Burst> bursts_;
  dbi::BusConfig cfg_;
  std::size_t bb_ = 0;
  int bpb_ = 1;
  std::int64_t next_ = 0;
  std::vector<std::uint8_t> buffer_;
};

class PackedSpanSource final : public Source {
 public:
  explicit PackedSpanSource(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  /// Encoded variant: transmitted bytes plus per-(burst, group) masks.
  PackedSpanSource(std::span<const std::uint8_t> bytes,
                   std::span<const std::uint64_t> masks)
      : bytes_(bytes), masks_(masks), encoded_(true) {}

  void bind(const Geometry& g) override {
    bb_ = static_cast<std::size_t>(g.bytes_per_burst());
    if (bytes_.size() % bb_ != 0)
      throw std::invalid_argument(
          "packed source: " + std::to_string(bytes_.size()) +
          " bytes is not a multiple of the " + std::to_string(bb_) +
          "-byte packed burst of geometry " + g.to_string());
    if (encoded_) {
      const std::size_t bursts = bytes_.size() / bb_;
      const auto groups = static_cast<std::size_t>(g.groups());
      if (masks_.size() != bursts * groups)
        throw std::invalid_argument(
            "encoded packed source: " + std::to_string(bursts) +
            " bursts of " + std::to_string(groups) + " DBI groups need " +
            std::to_string(bursts * groups) + " masks, got " +
            std::to_string(masks_.size()));
    }
    next_ = 0;
  }

  std::optional<SourceChunk> next() override {
    // The whole span is one zero-copy chunk: the engine core blocks
    // internally for 64-bit accumulation, so there is nothing to gain
    // from slicing it here and a facade-overhead tax to pay.
    const auto total = static_cast<std::int64_t>(bytes_.size() / bb_);
    if (next_ >= total) return {};
    next_ = total;
    return SourceChunk{bytes_, total, masks_};
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::span<const std::uint64_t> masks_;
  bool encoded_ = false;
  std::size_t bb_ = 1;
  std::int64_t next_ = 0;
};

class TraceFileSource final : public Source {
 public:
  explicit TraceFileSource(const trace::TraceReader& reader)
      : reader_(reader) {}

  void bind(const Geometry& g) override {
    const Geometry mine = reader_.geometry();
    if (mine != g)
      throw std::invalid_argument("trace source: trace geometry " +
                                  mine.to_string() +
                                  " does not match session geometry " +
                                  g.to_string());
    next_chunk_ = 0;
  }

  std::optional<SourceChunk> next() override {
    if (next_chunk_ >= reader_.chunk_count()) return {};
    const trace::ChunkInfo& info = reader_.chunk(next_chunk_);
    const auto payload = reader_.chunk_payload(next_chunk_, scratch_);
    SourceChunk chunk{payload, static_cast<std::int64_t>(info.burst_count),
                      {}};
    if (reader_.encoded())
      chunk.masks =
          reader_.chunk_masks(next_chunk_, mask_scratch_, mask_words_);
    ++next_chunk_;
    return chunk;
  }

  const trace::TraceReader* trace_reader() const override { return &reader_; }

 private:
  const trace::TraceReader& reader_;
  std::size_t next_chunk_ = 0;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::uint8_t> mask_scratch_;
  std::vector<std::uint64_t> mask_words_;
};

/// Streams a workload generator as packed bursts at the bound
/// geometry. Generators are stateful PRNG streams, so this source is
/// single-pass: a second bind() throws instead of silently replaying
/// different data.
class GeneratorSource : public Source {
 public:
  GeneratorSource(std::unique_ptr<workload::BurstSource> generator,
                  std::int64_t total_bursts)
      : generator_(std::move(generator)), total_(total_bursts) {
    if (total_ < 0)
      throw std::invalid_argument("generator source: negative burst count");
  }

  void bind(const Geometry& g) override {
    if (bound_)
      throw std::logic_error(
          "generator source: single-pass stream cannot be rebound; "
          "construct a new source (or use a corpus source, which reseeds)");
    bound_ = true;
    bind_generator(g);
  }

  std::optional<SourceChunk> next() override {
    if (produced_ >= total_) return {};
    const auto n = std::min(kChunkBursts, total_ - produced_);
    buffer_.resize(static_cast<std::size_t>(n) * bb_);
    if (geometry_.is_wide()) {
      workload::fill_wide_bursts(*generator_, geometry_.wide_bus(), buffer_);
    } else {
      for (std::int64_t i = 0; i < n; ++i)
        pack_burst(generator_->next(), geometry_.bytes_per_beat(),
                   buffer_.data() + static_cast<std::size_t>(i) * bb_);
    }
    produced_ += n;
    return SourceChunk{buffer_, n, {}};
  }

 protected:
  GeneratorSource(std::int64_t total_bursts) : total_(total_bursts) {
    if (total_ < 0)
      throw std::invalid_argument("corpus source: negative burst count");
  }

  void bind_generator(const Geometry& g) {
    g.validate();
    if (g.is_wide()) {
      if (generator_->config().width != 8 ||
          generator_->config().burst_length != g.burst_length())
        throw std::invalid_argument(
            "generator source: wide geometry " + g.to_string() +
            " needs a width-8 byte generator with the same burst length");
    } else if (generator_->config() != g.bus()) {
      throw std::invalid_argument(
          "generator source: generator geometry does not match session "
          "geometry " + g.to_string());
    }
    geometry_ = g;
    bb_ = static_cast<std::size_t>(g.bytes_per_burst());
    produced_ = 0;
  }

  std::unique_ptr<workload::BurstSource> generator_;

 private:
  std::int64_t total_ = 0;
  std::int64_t produced_ = 0;
  bool bound_ = false;
  Geometry geometry_;
  std::size_t bb_ = 1;
  std::vector<std::uint8_t> buffer_;
};

/// Corpus scenarios adopt whatever geometry the session binds and are
/// rewindable: every bind() re-creates the scenario generator at the
/// same seed, so repeated runs see identical data.
class CorpusScenarioSource final : public GeneratorSource {
 public:
  CorpusScenarioSource(std::string scenario, std::int64_t total_bursts,
                       std::uint64_t seed)
      : GeneratorSource(total_bursts),
        scenario_(std::move(scenario)),
        seed_(seed) {}

  void bind(const Geometry& g) override {
    const dbi::BusConfig generator_cfg =
        g.is_wide() ? dbi::BusConfig{8, g.burst_length()} : g.bus();
    generator_ =
        workload::make_corpus_source(scenario_, generator_cfg, seed_);
    bind_generator(g);
  }

 private:
  std::string scenario_;
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Source> make_burst_source(std::span<const dbi::Burst> bursts) {
  return std::make_unique<BurstSpanSource>(bursts);
}

std::unique_ptr<Source> make_packed_source(
    std::span<const std::uint8_t> bytes) {
  return std::make_unique<PackedSpanSource>(bytes);
}

std::unique_ptr<Source> make_encoded_packed_source(
    std::span<const std::uint8_t> bytes,
    std::span<const std::uint64_t> masks) {
  return std::make_unique<PackedSpanSource>(bytes, masks);
}

std::unique_ptr<Source> make_trace_source(const trace::TraceReader& reader) {
  return std::make_unique<TraceFileSource>(reader);
}

std::unique_ptr<Source> make_generator_source(
    std::unique_ptr<workload::BurstSource> generator,
    std::int64_t total_bursts) {
  if (!generator)
    throw std::invalid_argument("generator source: null generator");
  return std::make_unique<GeneratorSource>(std::move(generator),
                                           total_bursts);
}

std::unique_ptr<Source> make_corpus_source(std::string scenario,
                                           std::int64_t total_bursts,
                                           std::uint64_t seed) {
  return std::make_unique<CorpusScenarioSource>(std::move(scenario),
                                                total_bursts, seed);
}

}  // namespace dbi
