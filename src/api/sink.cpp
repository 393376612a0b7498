#include "api/sink.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/batch_decoder.hpp"
#include "trace/trace_writer.hpp"

namespace dbi {

namespace {

class StatsSink final : public Sink {
 public:
  void consume(const SinkChunk&) override {}
};

class ResultBufferSink final : public Sink {
 public:
  explicit ResultBufferSink(std::vector<engine::BurstResult>& out)
      : out_(out) {}

  bool wants_results() const override { return true; }

  void begin(const Geometry&, int) override { out_.clear(); }

  void consume(const SinkChunk& chunk) override {
    out_.insert(out_.end(), chunk.results.begin(), chunk.results.end());
  }

 private:
  std::vector<engine::BurstResult>& out_;
};

class ObserverSink final : public Sink {
 public:
  using Fn = std::function<void(std::int64_t,
                                std::span<const engine::BurstResult>)>;
  explicit ObserverSink(Fn fn) : fn_(std::move(fn)) {
    if (!fn_) throw std::invalid_argument("observer sink: null callback");
  }

  bool wants_results() const override { return true; }

  void consume(const SinkChunk& chunk) override {
    fn_(chunk.first_burst, chunk.results);
  }

 private:
  Fn fn_;
};

class TraceWriterSink final : public Sink {
 public:
  explicit TraceWriterSink(trace::TraceWriter& writer) : writer_(writer) {}

  bool wants_payload() const override { return true; }

  void begin(const Geometry& geometry, int) override {
    if (writer_.geometry() != geometry)
      throw std::invalid_argument("trace sink: writer geometry " +
                                  writer_.geometry().to_string() +
                                  " does not match session geometry " +
                                  geometry.to_string());
  }

  void consume(const SinkChunk& chunk) override {
    writer_.write_packed(chunk.payload);
  }

  void finish(const StreamStats&) override { writer_.finish(); }

 private:
  trace::TraceWriter& writer_;
};

class PayloadBufferSink final : public Sink {
 public:
  explicit PayloadBufferSink(std::vector<std::uint8_t>& out) : out_(out) {}

  bool wants_payload() const override { return true; }

  void begin(const Geometry&, int) override { out_.clear(); }

  void consume(const SinkChunk& chunk) override {
    out_.insert(out_.end(), chunk.payload.begin(), chunk.payload.end());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Applies each chunk's masks to its payload (payload -> transmitted
/// stream) and writes both through an encoded-mode TraceWriter.
class EncodedTraceWriterSink final : public Sink {
 public:
  explicit EncodedTraceWriterSink(trace::TraceWriter& writer)
      : writer_(writer) {}

  bool wants_results() const override { return true; }
  bool wants_payload() const override { return true; }

  void begin(const Geometry& geometry, int) override {
    if (writer_.geometry() != geometry)
      throw std::invalid_argument("encoded trace sink: writer geometry " +
                                  writer_.geometry().to_string() +
                                  " does not match session geometry " +
                                  geometry.to_string());
    geometry_ = geometry;
  }

  void consume(const SinkChunk& chunk) override {
    if (writer_.per_chunk_schemes()) {
      if (!chunk.scheme)
        throw std::invalid_argument(
            "encoded trace sink: the writer records per-chunk schemes but "
            "this chunk carries none (mixed traces need an adaptive "
            "session)");
      writer_.set_chunk_scheme(*chunk.scheme);
    }
    masks_.resize(chunk.results.size());
    for (std::size_t i = 0; i < chunk.results.size(); ++i)
      masks_[i] = chunk.results[i].invert_mask;
    tx_.resize(chunk.payload.size());
    decoder_.apply(chunk.payload, masks_, geometry_, tx_);
    writer_.write_encoded(tx_, masks_);
  }

  void finish(const StreamStats&) override { writer_.finish(); }

 private:
  trace::TraceWriter& writer_;
  Geometry geometry_;
  engine::BatchDecoder decoder_;
  std::vector<std::uint64_t> masks_;
  std::vector<std::uint8_t> tx_;
};

}  // namespace

std::unique_ptr<Sink> make_stats_sink() {
  return std::make_unique<StatsSink>();
}

std::unique_ptr<Sink> make_result_sink(std::vector<engine::BurstResult>& out) {
  return std::make_unique<ResultBufferSink>(out);
}

std::unique_ptr<Sink> make_observer_sink(
    std::function<void(std::int64_t, std::span<const engine::BurstResult>)>
        fn) {
  return std::make_unique<ObserverSink>(std::move(fn));
}

std::unique_ptr<Sink> make_trace_sink(trace::TraceWriter& writer) {
  return std::make_unique<TraceWriterSink>(writer);
}

std::unique_ptr<Sink> make_payload_sink(std::vector<std::uint8_t>& out) {
  return std::make_unique<PayloadBufferSink>(out);
}

std::unique_ptr<Sink> make_encoded_trace_sink(trace::TraceWriter& writer) {
  return std::make_unique<EncodedTraceWriterSink>(writer);
}

}  // namespace dbi
