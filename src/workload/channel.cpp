#include "workload/channel.hpp"

#include <stdexcept>
#include <string>

namespace dbi::workload {

void ChannelConfig::validate() const {
  lane.validate();
  if (lanes < 1 || lanes > 64)
    throw std::invalid_argument("ChannelConfig: lanes must be in [1,64]");
  if (lane.width != 8)
    throw std::invalid_argument(
        "ChannelConfig: byte-lane channels require lane.width == 8");
}

Channel::Channel(const ChannelConfig& cfg,
                 std::unique_ptr<dbi::Encoder> encoder)
    : cfg_(cfg), encoder_(std::move(encoder)) {
  cfg_.validate();
  if (!encoder_) throw std::invalid_argument("Channel: null encoder");
  lane_state_.assign(static_cast<std::size_t>(cfg_.lanes),
                     dbi::BusState::all_ones(cfg_.lane));
}

dbi::Burst Channel::lane_burst(std::span<const std::uint8_t> data,
                               int lane) const {
  dbi::Burst burst(cfg_.lane);
  for (int beat = 0; beat < cfg_.lane.burst_length; ++beat)
    burst.set_word(beat,
                   data[static_cast<std::size_t>(beat * cfg_.lanes + lane)]);
  return burst;
}

std::vector<dbi::EncodedBurst> Channel::write(
    std::span<const std::uint8_t> data) {
  if (static_cast<std::int64_t>(data.size()) != cfg_.bytes_per_write())
    throw std::invalid_argument(
        "Channel::write: expected " + std::to_string(cfg_.bytes_per_write()) +
        " bytes, got " + std::to_string(data.size()));

  std::vector<dbi::EncodedBurst> encoded;
  encoded.reserve(static_cast<std::size_t>(cfg_.lanes));
  for (int lane = 0; lane < cfg_.lanes; ++lane) {
    const dbi::Burst burst = lane_burst(data, lane);
    dbi::BusState& state = lane_state_[static_cast<std::size_t>(lane)];
    if (cfg_.reset_state_per_write)
      state = dbi::BusState::all_ones(cfg_.lane);

    dbi::EncodedBurst e = encoder_->encode(burst, state);
    stats_.add(e.stats(state));
    state = e.final_state();
    encoded.push_back(std::move(e));
  }
  ++stats_.writes;
  return encoded;
}

StreamStats Channel::write_stream(std::span<const std::uint8_t> data) {
  const auto bpw = static_cast<std::size_t>(cfg_.bytes_per_write());
  if (data.size() % bpw != 0)
    throw std::invalid_argument(
        "Channel::write_stream: data size must be a multiple of " +
        std::to_string(bpw) + " bytes, got " + std::to_string(data.size()));
  const auto writes = static_cast<std::int64_t>(data.size() / bpw);
  if (writes == 0) return {};

  StreamStats delta;
  delta.writes = writes;
  delta.bursts = writes * cfg_.lanes;
  for (int lane = 0; lane < cfg_.lanes; ++lane) {
    dbi::BusState& state = lane_state_[static_cast<std::size_t>(lane)];
    for (std::int64_t w = 0; w < writes; ++w) {
      const dbi::Burst burst =
          lane_burst(data.subspan(static_cast<std::size_t>(w) * bpw, bpw),
                     lane);
      if (cfg_.reset_state_per_write)
        state = dbi::BusState::all_ones(cfg_.lane);
      const dbi::EncodedBurst e = encoder_->encode(burst, state);
      const dbi::BurstStats s = e.stats(state);
      delta.zeros += s.zeros;
      delta.transitions += s.transitions;
      state = e.final_state();
    }
  }
  stats_ += delta;
  return delta;
}

void Channel::reset() {
  lane_state_.assign(static_cast<std::size_t>(cfg_.lanes),
                     dbi::BusState::all_ones(cfg_.lane));
  stats_ = StreamStats{};
}

}  // namespace dbi::workload
