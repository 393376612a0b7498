// dbi::Session — the one public front-end over every encode path.
//
// Construct it from a SessionSpec (scheme policy, Geometry, lanes,
// cost weights, threading, state-reset policy) and drive it with one
// pair of abstractions:
//
//   Session session(SessionSpec{.policy = Scheme::kAc,
//                               .geometry = Geometry::wide(64)});
//   auto source = make_trace_source(reader);   // or packed / bursts /
//   auto sink = make_stats_sink();             //    corpus / generator
//   const StreamStats totals = session.run(*source, *sink);
//
// Session::run has one chunk loop for every source and direction: it
// pulls a chunk (trace chunks arrive as zero-copy mmap views, RLE'd
// ones expanded in Source::next), checks it, runs the direction's step
// (the shared engine::StreamEncoder for encode, the BatchDecoder for
// decode, both for a round trip, select::ChunkSelector for adaptive
// policies) and hands the result to the sink. Single-lane narrow Burst
// spans skip the packing pass through BatchEncoder::encode_lane /
// boundary_totals instead.
//
// For memory-controller-style incremental traffic, write() /
// write_stream() consume beat-major interleaved channel bytes against
// persistent per-lane line state held by one engine::StreamEncoder:
// up to 8 lanes encode in place as the byte groups of one wide bus,
// more lanes as lane-interleaved narrow bursts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <functional>

#include "api/geometry.hpp"
#include "api/kernels.hpp"
#include "api/sink.hpp"
#include "api/source.hpp"
#include "api/stream_stats.hpp"
#include "api/verify.hpp"
#include "core/cost.hpp"
#include "core/encoder.hpp"
#include "core/encoding.hpp"
#include "engine/batch_decoder.hpp"
#include "engine/batch_encoder.hpp"
#include "engine/shard_pool.hpp"
#include "engine/stream_encoder.hpp"
#include "obs/observer.hpp"
#include "select/scheme_policy.hpp"
#include "select/selector.hpp"

namespace dbi {

/// How line state flows from burst to burst on each (lane, group) unit.
enum class StatePolicy {
  kThread,         ///< persistent history (real controller behaviour)
  kResetPerBurst,  ///< the paper's all-ones boundary before every burst
};

/// Which way a Session::run moves the data.
enum class Direction {
  /// Payload in, DBI decisions out (the original pipeline).
  kEncode,
  /// Encoded (transmitted + mask) source in, recovered payload out:
  /// the source must carry masks (an encoded trace or
  /// make_encoded_packed_source), sinks receive the decoded payload,
  /// and the returned StreamStats counts bursts only (the receiver
  /// re-derives no line statistics).
  kDecode,
  /// Encode, materialise the wire stream, decode it back and compare
  /// bit-exactly against the original payload in one pass; the verdict
  /// and per-lane mismatch positions land in Session::verify_report().
  /// Sinks see the round-tripped (receiver-side) payload and the
  /// encode results; totals are the encode totals.
  kRoundTrip,
};

struct SessionSpec {
  /// How the session chooses the encoding scheme: SchemePolicy::fixed()
  /// pins one (the default is fixed(Scheme::kOpt), and a bare Scheme
  /// converts implicitly, so `spec.policy = Scheme::kAc;` works); the
  /// adaptive modes re-select per block of policy.block_bursts() bursts
  /// ("mixed-block" coding; encode-direction runs only).
  SchemePolicy policy{};
  Geometry geometry{};  ///< narrow x8 BL8 by default
  /// Interleaved lane streams: burst g of a run() source goes to lane
  /// g % lanes; write()/write_stream() treat lanes as byte lanes side
  /// by side (requires narrow x8 geometry, lanes <= 64).
  int lanes = 1;
  CostWeights weights{};  ///< parameterises kOpt / kExhaustive
  /// 0 or 1: encode on the calling thread. N >= 2: an encode or
  /// round-trip session owns a ShardPool of N workers and shards each
  /// chunk's units across it: (lane, group) units for the fixed rules,
  /// (lane, burst range) units for OPT, OPT (Fixed) and exhaustive (see
  /// engine/stream_encoder.hpp). A round trip decodes and compares a
  /// single-lane trellis range on the worker that encoded it. A kDecode
  /// session builds no pool (the decoder runs on the calling thread).
  int threads = 0;
  /// Non-null: share this caller-owned pool instead (overrides
  /// `threads`; the pool must outlive the session).
  engine::ShardPool* pool = nullptr;
  StatePolicy state_policy = StatePolicy::kThread;
  /// Kernel variant for the hot fixed-scheme encode / decode paths:
  /// "" or "auto" picks the best available variant for this host (the
  /// DBI_KERNEL environment variable overrides the automatic choice);
  /// a registry name ("swar", "avx2-fixed8", "avx512-fixed8",
  /// "neon-fixed8") pins that variant. Construction throws, naming the
  /// candidates, when the name is unknown, the host lacks the required
  /// instruction set, or the variant's envelope covers no path of this
  /// spec's scheme and geometry. See api/kernels.hpp and
  /// Session::report().kernel. Selection never changes results — every
  /// variant is bit-exact against "swar".
  std::string kernel;
  Direction direction = Direction::kEncode;
  /// Round-trip sessions only: called once per slice (a source chunk;
  /// multi-lane sessions cut chunks into slices of 65536 bursts), on
  /// the calling thread, after the whole slice is encoded and
  /// materialised and before any of it is decoded, with its
  /// transmitted bytes and per-(burst, group) inversion masks (both
  /// mutable), so fault studies can corrupt the wire or the DBI
  /// decisions at engine speed and watch verify_report() catch the
  /// damage. With an injector, a pooled round trip decodes and
  /// compares on the caller after it. Corruptions must stay
  /// on the physical lines: a bus of width w has no wires above
  /// dq_mask, so pushing a transmitted beat out of range (possible at
  /// non-byte widths, where packed bytes have spare bits) is not a
  /// modellable fault — the decoder rejects it like any malformed
  /// packed input and the run throws instead of reporting mismatches.
  std::function<void(std::int64_t first_burst,
                     std::span<std::uint8_t> tx,
                     std::span<std::uint64_t> masks)>
      fault_injector;
  /// Observability: kOff (the default) adds no instrumentation at all —
  /// the hot paths see a null observer and skip every counter. kCounters
  /// makes the session own an obs::Observer (metrics via
  /// Session::report().metrics); kFull adds stage-span tracing
  /// (Chrome trace_event JSON via Session::observer()). See src/obs/.
  obs::ObsConfig obs{};
  /// Non-null: share this caller-owned observer instead (overrides
  /// `obs`; must outlive the session). Lets several sessions aggregate
  /// into one metrics registry / trace, e.g. dbitool's scheme sweeps.
  obs::Observer* observer = nullptr;

  void validate() const;
};

/// One unified report of everything a session can tell about itself —
/// scheme / policy, kernel routing, adaptive selection outcome and the
/// observer's metrics snapshot — with a single JSON rendering (the
/// dbitool --report payload).
struct SessionReport {
  std::string scheme;           ///< Session::scheme_name()
  std::string policy;           ///< SchemePolicy::describe()
  KernelReport kernel;
  bool adaptive = false;        ///< selection below is meaningful
  select::SelectionReport selection;
  obs::Snapshot metrics;        ///< empty when observability is off

  [[nodiscard]] std::string to_json() const;
};

class Session {
 public:
  explicit Session(const SessionSpec& spec);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const SessionSpec& spec() const { return spec_; }
  /// The fixed scheme's display name ("DBI AC"), or an adaptive
  /// policy's mode name ("adaptive-exact").
  [[nodiscard]] std::string_view scheme_name() const;

  /// Everything the session knows about itself in one struct (with
  /// to_json()): scheme / policy, kernel routing (which variant serves
  /// each engine path), the latest adaptive selection outcome (empty on
  /// fixed-scheme sessions or before the first run) and the metrics
  /// snapshot (empty when observability is off; exact on deterministic
  /// runs: dbi_bursts_total / dbi_bytes_total equal the summed
  /// StreamStats).
  [[nodiscard]] SessionReport report() const;

  /// Streams the whole source into the sink once and returns the
  /// 64-bit totals (also handed to sink.finish()). Restartable: every
  /// run starts from fresh all-ones states; rewindable sources can be
  /// run repeatedly with identical results. The spec's Direction picks
  /// the pipeline: encode, decode (mask-carrying sources only) or
  /// round-trip (see Direction).
  StreamStats run(Source& source, Sink& sink);

  /// Stats-only run.
  StreamStats run(Source& source);

  /// Verdict of the latest kRoundTrip run (reset at every run start):
  /// bit-exact flag plus the first mismatching (burst, lane, group)
  /// sites with their beat masks.
  [[nodiscard]] const VerifyReport& verify_report() const { return verify_; }

  /// The live observer (session-owned or spec.observer), null when off.
  [[nodiscard]] obs::Observer* observer() const { return obs_; }

  // ------------------------------------------------- incremental writes
  //
  // Channel semantics: `lanes` byte lanes side by side, data beat-major
  // (byte of beat t, lane l at data[t * lanes + l]), persistent
  // per-lane line state across calls (or per-write all-ones with
  // StatePolicy::kResetPerBurst). Requires narrow x8 geometry. Both
  // calls encode through one engine::StreamEncoder built on first use:
  // up to 8 lanes it encodes the interleaved bytes in place as one
  // width-8*lanes bus (lane l = byte group l); more lanes are
  // transposed, a block of writes at a time, into narrow bursts where
  // burst w * lanes + l is lane l of write w.

  /// Bytes of one full write (lanes * burst_length).
  [[nodiscard]] std::int64_t bytes_per_write() const;

  /// Encodes one write on the calling thread; fills `encoded` with the
  /// per-lane physical bursts when non-null. Returns this write's stats
  /// delta.
  StreamStats write(std::span<const std::uint8_t> data,
                    std::vector<dbi::EncodedBurst>* encoded = nullptr);

  /// Batched stats-only write path: any number of consecutive writes
  /// (data.size() a multiple of bytes_per_write()), sharded across the
  /// session's pool, or across `pool_override` when non-null (results
  /// are identical either way). Returns this call's stats delta.
  StreamStats write_stream(std::span<const std::uint8_t> data,
                           engine::ShardPool* pool_override = nullptr);

  /// Running totals over every write()/write_stream() since the last
  /// reset().
  [[nodiscard]] const StreamStats& stats() const { return stats_; }

  /// Restores all-ones line state on every lane and clears stats().
  void reset();

 private:
  [[nodiscard]] engine::ShardPool* pool() const {
    return spec_.pool ? spec_.pool : owned_pool_.get();
  }
  /// Which kernel variant serves each engine path for the session
  /// engine's scheme (an adaptive policy's first candidate): the
  /// resolved variant where its envelope covers the path, the portable
  /// "swar" reference where it does not, "n/a" for paths the scheme and
  /// geometry never exercise.
  [[nodiscard]] KernelReport kernel_routing() const;
  /// Throws unless this session can take writes (fixed scheme, encode
  /// direction, narrow x8 geometry, at most 64 lanes).
  void require_write_surface(const char* what) const;
  /// Encodes whole writes (already validated) and folds the delta into
  /// stats(). `encoded`, non-null only for a single write, receives its
  /// per-lane physical bursts.
  StreamStats encode_writes(std::span<const std::uint8_t> data,
                            engine::ShardPool* pool,
                            std::vector<dbi::EncodedBurst>* encoded);
  /// Folds a completed surface's delta into the observer counters
  /// (bytes derived as bursts x geometry.bytes_per_burst()).
  void publish_stats(const StreamStats& delta, bool whole_run) const;
  [[nodiscard]] std::unique_ptr<engine::StreamEncoder> make_stream_encoder()
      const;
  StreamStats run_bursts(std::span<const dbi::Burst> bursts);
  /// The one chunk loop behind every other run().
  StreamStats run_chunks(Source& source, Sink& sink);
  /// Round-trip step for one slice: encodes it on `enc` with a range
  /// consumer that builds each range's wire bytes where its results
  /// are final and, without a fault injector, decodes and compares
  /// them there too (with one, the caller runs the injector, decode and
  /// compare after the encode); records mismatches into verify_.
  /// Returns the encode results; the received payload is left in
  /// roundtrip_wire_.
  std::span<const engine::BurstResult> roundtrip_slice(
      engine::StreamEncoder& enc, std::int64_t first_burst,
      std::span<const std::uint8_t> bytes);
  /// Records every (burst, group) of the slice whose received bytes in
  /// roundtrip_wire_ differ from `bytes`, in burst order.
  void record_mismatches(std::int64_t first_burst,
                         std::span<const std::uint8_t> bytes);

  SessionSpec spec_;
  engine::BatchEncoder engine_;
  engine::BatchDecoder decoder_;
  VerifyReport verify_;
  std::unique_ptr<engine::ShardPool> owned_pool_;
  std::unique_ptr<obs::Observer> owned_obs_;
  obs::Observer* obs_ = nullptr;  // owned_obs_ or spec_.observer; nullable

  // Incremental-write surface: the encoder owning the persistent lane
  // states (built on first use) and, above 8 lanes, the transposed
  // block of writes.
  std::unique_ptr<engine::StreamEncoder> writer_;
  std::vector<std::uint8_t> write_block_;
  // kRoundTrip runs: the encoder and wire / mask scratch, reused across
  // runs (reset at the start of each). Encode runs build their encoder
  // per run and decode scratch lives for one run: a session that kept
  // them would hold its largest result buffer for its whole lifetime.
  std::unique_ptr<engine::StreamEncoder> roundtrip_enc_;
  std::vector<std::uint8_t> roundtrip_wire_;
  std::vector<std::uint64_t> roundtrip_masks_;
  StreamStats stats_;
  select::SelectionReport selection_;  // latest adaptive run's outcome
};

}  // namespace dbi
