// StreamEncoder: pool-sharded encoding of a packed burst stream, one
// chunk at a time.
//
// This is the one sharding implementation behind every streaming
// front-end: dbi::Session's chunk loop feeds it chunks pulled from any
// Source (in-RAM packed spans, generators, zero-copy trace views),
// Session::write / write_stream feed it channel writes (in place up to
// 8 lanes, lane-interleaved narrow bursts above), and the adaptive
// selector, the encoded-trace verifier and dbid drive it the same way.
// Only lake replay, which shards whole trace files, runs its own
// ShardPool work. It takes the bus shape as a dbi::Geometry and picks
// the BatchEncoder route itself: two or more DBI groups take the
// multi-group entry points (encode_packed_wide / encode_packed_group),
// every other geometry — narrow, or a one-group wide bus such as
// Geometry::wide(8) — is one BusConfig group (encode_packed).
// The stream is interpreted like a channel write sequence: burst g
// belongs to lane g % lanes, and each (lane, byte group) pair has its
// own threaded BusState.
//
// Shard units depend on the scheme, never on the kernel:
//   * The fixed rules (RAW / DC / AC / ACDC) shard by (lane, group):
//     each unit threads one group over the lane's whole share of the
//     chunk. Chunks of less than 32 KB of payload run their units on
//     the caller even with a pool, since a fork-join costs more than
//     their kernel work.
//   * Every other scheme (OPT, OPT (Fixed), the exhaustive ablation)
//     shards by (lane, burst range) of whole bursts, so a single lane
//     spreads over the pool. A range after the first does not know the
//     line state it starts from until the range before it is encoded,
//     but per group that state has two values: the previous burst's
//     last beat sent plain or inverted. The range runs from the plain
//     entry over all of its bursts, and from the inverted entry burst
//     by burst until both runs leave a burst with the same exit bit;
//     from there on the runs agree, since the encoder is deterministic.
//     One serial pass after the join walks the ranges in order and,
//     wherever the range before left a group inverted, splices in that
//     group's inverted-entry prefix and its stats delta. Each lane gets
//     up to workers / lanes ranges, as long as every range keeps a
//     minimum of estimated trellis work, and a chunk of two or more
//     units goes to the pool; a single-lane chunk under twice that
//     minimum is one unit and encodes on the caller.
// Results are identical with and without a pool, at any split.
//
// A caller that wants to act on the results while they are still in the
// cache of the core that made them passes a RangeConsumer. It is called
// exactly once for every chunk-local burst range whose results are
// final, with disjoint ranges that together cover the chunk:
//   * on the thread that encoded it, for a single-lane range's bursts
//     after its entry prefix (all of the lane's first range, and all of
//     every range under per-burst resets) — these calls run
//     concurrently on the pool's workers;
//   * on the caller after the stitch, for each later range's entry
//     prefix (the bursts up to where both entry runs agree, which the
//     stitch may still rewrite; a whole range if they never do), and
//     for the whole of a chunk that has no such ranges (fixed rules,
//     multi-lane streams).
// Totals accumulate in 64-bit counters internally (chunks of any size
// are block-split so BurstStats's int fields never overflow),
// single-lane streams are encoded in place with zero copy (wide groups
// read their bytes at stride groups()), and multi-lane streams gather
// each unit's bursts, 8-byte bursts with a constant-size copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "api/geometry.hpp"
#include "core/types.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"

namespace dbi::engine {

struct StreamEncodeOptions {
  /// Interleaved lane streams: burst g goes to lane g % lanes, each
  /// threading its own line state (matches Channel's write order).
  int lanes = 1;
  /// Reset every unit to the all-ones boundary before each burst (the
  /// paper's per-burst assumption) instead of threading state.
  bool reset_state_per_burst = false;
  /// Shard the units (see above) across this pool; null encodes
  /// serially, and so do chunks under the fixed-scheme floor or the
  /// trellis work minimum. Results are identical either way.
  ShardPool* pool = nullptr;
  /// Chunk counters + stage spans (encode_chunk / unit / gather); null
  /// disables. Must outlive the StreamEncoder or be detached first.
  const obs::Observer* obs = nullptr;

  void validate() const;
};

/// Receives a chunk-local burst range whose results are final (see
/// above): its first burst and its results, burst-major with groups()
/// per burst. A non-owning reference to a callable, like
/// std::function_ref: building one allocates nothing, and the callable
/// must outlive the encode call it is passed to.
class RangeConsumer {
 public:
  RangeConsumer() = default;
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RangeConsumer> &&
             std::is_invocable_v<F&, std::size_t,
                                 std::span<const BurstResult>>)
  RangeConsumer(F&& f)  // NOLINT(google-explicit-constructor)
      : callable_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* callable, std::size_t begin,
                 std::span<const BurstResult> results) {
          (*static_cast<std::remove_reference_t<F>*>(callable))(begin,
                                                                results);
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  void operator()(std::size_t begin,
                  std::span<const BurstResult> results) const {
    call_(callable_, begin, results);
  }

 private:
  void* callable_ = nullptr;
  void (*call_)(void*, std::size_t, std::span<const BurstResult>) = nullptr;
};

class StreamEncoder {
 public:
  /// Stream of packed bursts at `geometry` (the trace payload layout,
  /// bytes_per_burst() bytes each). `encoder` must outlive the
  /// StreamEncoder.
  /// `states` optionally hands in caller-owned line states (lanes x
  /// groups() entries, group-minor, threaded in place, must outlive
  /// the StreamEncoder) so several encode surfaces can share one bus
  /// history; empty means internally owned states. Geometries of two
  /// or more groups take the multi-group route (BatchEncoder's wide
  /// entry points); every other geometry, including a one-group wide
  /// one, is a single BusConfig group (group_config(0)).
  StreamEncoder(const BatchEncoder& encoder, const dbi::Geometry& geometry,
                const StreamEncodeOptions& options,
                std::span<dbi::BusState> states = {});

  StreamEncoder(const StreamEncoder&) = delete;
  StreamEncoder& operator=(const StreamEncoder&) = delete;

  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] std::size_t bytes_per_burst() const { return bytes_per_burst_; }

  /// Restores every line state to the all-ones boundary and zeroes the
  /// totals.
  void reset();

  /// Re-targets the shard pool (results are pool-independent, so this
  /// is safe between chunks; null returns to serial encoding).
  void set_pool(ShardPool* pool) { opt_.pool = pool; }

  /// Encodes `burst_count` packed bursts (payload holds burst_count *
  /// bytes_per_burst() bytes); `first_burst` is the stream-global index
  /// of the chunk's first burst, which fixes the lane interleave.
  /// With collect_results, returns the per-(burst, group) results in
  /// trace order — burst j's group g at [j * groups() + g]; an empty
  /// span otherwise. The span is valid until the next call. A consumer
  /// (see RangeConsumer) implies collect_results and must be safe to
  /// call concurrently on disjoint ranges.
  std::span<const BurstResult> encode_chunk(
      std::int64_t first_burst, std::span<const std::uint8_t> payload,
      std::size_t burst_count, bool collect_results = false,
      RangeConsumer consumer = {});

  /// encode_chunk with an explicit range plan, for the parity tests and
  /// the fuzz harness: every lane's share of the chunk splits into
  /// (lane, burst range) units at `range_starts` (lane-local burst
  /// offsets, ascending; 0 and offsets at or past a lane's share are
  /// ignored), whatever the scheme and the work, and the units go to
  /// the pool whenever there are two or more. Results and consumer
  /// calls follow encode_chunk's rules.
  std::span<const BurstResult> encode_chunk_ranges(
      std::int64_t first_burst, std::span<const std::uint8_t> payload,
      std::size_t burst_count, bool collect_results,
      std::span<const std::size_t> range_starts,
      RangeConsumer consumer = {});

  /// 64-bit totals over everything encoded since the last reset().
  [[nodiscard]] std::int64_t bursts() const { return bursts_; }
  [[nodiscard]] std::int64_t zeros() const { return zeros_; }
  [[nodiscard]] std::int64_t transitions() const { return transitions_; }

 private:
  /// One group's run from the inverted entry in a range after the
  /// lane's first: its prefix ends at the first burst whose exit bit
  /// matches the plain-entry run's, or at the range's end.
  struct AltRun {
    std::size_t bursts = 0;  // prefix length
    bool rejoined = false;   // exit bits met inside the range
    std::int64_t zeros = 0;  // stats delta against the plain run
    std::int64_t transitions = 0;
  };

  /// One shard unit: lane `lane`'s bursts [begin, end) (lane-local
  /// indices) over groups [group, group + group_count), plus its
  /// scratch, reused across chunks.
  struct Unit {
    int lane = 0;
    int group = 0;
    int group_count = 1;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<std::uint8_t> bytes;    // gathered payload (multi-lane)
    std::vector<BurstResult> results;   // staged results
    std::vector<dbi::BusState> states;  // plain-entry run (begin > 0)
    std::vector<AltRun> alt;            // per group (begin > 0)
    std::vector<dbi::BusState> alt_states;  // inverted run; its exit
                                            // where it never rejoined
    std::vector<BurstResult> alt_results;  // inverted prefix, burst-major
    std::size_t prefix = 0;  // leading bursts the stitch may rewrite
    std::int64_t zeros = 0;  // this chunk's plain-run totals
    std::int64_t transitions = 0;
  };

  /// The chunk being encoded, as every unit sees it.
  struct Chunk {
    std::int64_t first_burst = 0;
    std::span<const std::uint8_t> payload;
    std::size_t bursts = 0;
    bool collect = false;
    bool ranged = false;  // (lane, range) units, else (lane, group)
    RangeConsumer consumer;
  };

  /// Checks the payload size and lays out this chunk's units: (lane,
  /// group) units, or `ranges` even (lane, range) units per lane, or
  /// ranges split at `starts`.
  void plan(const Chunk& c, std::size_t ranges,
            std::span<const std::size_t> starts);
  std::span<const BurstResult> run(const Chunk& c);
  void encode_unit(Unit& u, const Chunk& c);
  /// Runs a range's first bursts from both entries until every group's
  /// exit bits agree; returns how many bursts the plain run covered.
  std::size_t encode_prefix(Unit& u, std::span<const std::uint8_t> bytes,
                            std::span<dbi::BusState> states,
                            BurstResult* results);
  /// Adds the units' totals and threads each lane's ranges onto one
  /// another (see above).
  void stitch(const Chunk& c);
  /// Whether the chunk's units are single-lane ranges, which write their
  /// results in chunk order in place (chunk-local index = lane-local).
  [[nodiscard]] bool in_place(const Chunk& c) const {
    return c.ranged && opt_.lanes == 1;
  }
  /// Hands chunk-local bursts [begin, begin + count) to the consumer.
  void deliver(const Chunk& c, std::size_t begin, std::size_t count) const;
  /// First chunk-local index of lane `lane`'s bursts.
  [[nodiscard]] std::size_t lane_offset(std::int64_t first_burst,
                                        int lane) const;
  /// Bus config of line state s (lane-major, group-minor).
  [[nodiscard]] dbi::BusConfig state_config(std::size_t s) const;

  const BatchEncoder& encoder_;
  dbi::Geometry geometry_;
  StreamEncodeOptions opt_;
  int groups_ = 1;
  std::size_t bytes_per_burst_ = 0;
  std::int64_t bursts_ = 0;
  std::int64_t zeros_ = 0;
  std::int64_t transitions_ = 0;
  std::vector<Unit> units_;  // lane-major; the first unit_count_ are live
  std::size_t unit_count_ = 0;
  std::vector<dbi::BusState> owned_states_;  // empty with external states
  std::span<dbi::BusState> states_;  // lanes x groups, group-minor
  std::vector<BurstResult> chunk_results_;  // only when collecting
};

}  // namespace dbi::engine
