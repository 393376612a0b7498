#include "api/session.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "trace/trace_reader.hpp"

namespace dbi {

namespace {

/// Block size (bursts) for int64 accumulation over the Burst-span fast
/// path: BurstStats counts in int, 64K bursts stay far inside range.
constexpr std::size_t kAccumBlockBursts = 1 << 16;

/// Bursts per transposed block on the > 8-lane write route: bounds the
/// block buffer (and the encoder's per-lane gathers) at 128 KB whatever
/// the stream size, and keeps a block of fixed-scheme writes past the
/// StreamEncoder's 32 KB pool floor.
constexpr std::int64_t kWriteBlockBursts = 1 << 14;

/// A trace reader's monotonic RLE tallies at one point in time.
struct RleTally {
  std::uint64_t chunks = 0;
  std::uint64_t compressed = 0;
  std::uint64_t expanded = 0;
};

RleTally rle_tally(const trace::TraceReader& reader) {
  const trace::ReaderMetrics& m = reader.metrics();
  return {m.rle_chunks.load(), m.rle_bytes_compressed.load(),
          m.rle_bytes_expanded.load()};
}

}  // namespace

void SessionSpec::validate() const {
  geometry.validate();
  weights.validate();
  policy.validate();
  if (lanes < 1 || lanes > 65536)
    throw std::invalid_argument("SessionSpec: lanes must be in [1, 65536]");
  if (threads < 0 || threads > 1024)
    throw std::invalid_argument("SessionSpec: threads must be in [0, 1024]");
  if (fault_injector && direction != Direction::kRoundTrip)
    throw std::invalid_argument(
        "SessionSpec: fault_injector only applies to kRoundTrip sessions");
  if (policy.adaptive() && direction != Direction::kEncode)
    throw std::invalid_argument(
        "SessionSpec: adaptive scheme policies are encode-only (decode and "
        "round-trip take their schemes from the trace's tags)");
}

// The session's own BatchEncoder runs the pinned scheme of a fixed
// policy. Adaptive sessions spin up per-candidate engines in the
// selector and use this one (built for the first candidate) only for
// kernel routing. Validation runs first: an invalid adaptive policy may
// have no candidates.
Session::Session(const SessionSpec& spec)
    : spec_(spec),
      engine_((spec_.validate(), spec_.policy.candidates().front()),
              spec_.weights) {
  // Kernel selection: resolve the spec's pin (unknown names and absent
  // ISAs throw there, naming the candidates), hand the variant to both
  // engine directions, then reject a pin whose envelope covers no path
  // of this scheme and geometry — a session that silently ran the
  // portable fallback everywhere would make the pin a no-op lie.
  const engine::KernelVariant& kernel = engine::resolve_kernel(spec_.kernel);
  engine_.set_kernel(kernel);
  decoder_.set_kernel(kernel);
  // Adaptive sessions exercise every candidate scheme, so the
  // single-scheme envelope strictness below does not apply to them.
  if (!spec_.kernel.empty() && spec_.kernel != "auto" &&
      kernel.isa() != engine::KernelIsa::kPortable &&
      !spec_.policy.adaptive()) {
    const KernelReport rep = kernel_routing();
    if (rep.fixed_encode != kernel.name() && rep.trellis != kernel.name() &&
        rep.decode != kernel.name())
      throw std::invalid_argument(
          "SessionSpec: kernel '" + spec_.kernel +
          "' supports no path of scheme " + std::string(engine_.name()) +
          " on " + spec_.geometry.to_string() +
          " (this spec runs entirely on the portable reference; candidates: " +
          engine::kernel_candidates() + ")");
  }
  // Only encode and round-trip sessions shard across a pool (a round
  // trip decodes inside the encode's fork-join); a kDecode session runs
  // the decoder on the calling thread and builds none.
  if (!spec_.pool && spec_.threads >= 2 &&
      spec_.direction != Direction::kDecode)
    owned_pool_ = std::make_unique<engine::ShardPool>(spec_.threads);
  // Observability: a caller-owned observer wins (so e.g. dbitool's
  // scheme sweeps aggregate several sessions into one registry); an
  // ObsConfig above kOff makes the session own one. Either way the
  // engine directions and the pool report into it.
  if (spec_.observer) {
    obs_ = spec_.observer;
  } else if (spec_.obs.level != obs::ObsLevel::kOff) {
    owned_obs_ = std::make_unique<obs::Observer>(spec_.obs);
    obs_ = owned_obs_.get();
  }
  if (obs_) {
    engine_.set_observer(obs_);
    decoder_.set_observer(obs_);
    if (engine::ShardPool* p = pool()) obs_->attach_pool(*p);
  }
}

Session::~Session() {
  // A session-owned observer dies with the session: detach it from the
  // caller-owned pool (the owned pool is destroyed here anyway). A
  // caller-owned observer's attachment is the caller's to manage.
  if (owned_obs_ && spec_.pool) spec_.pool->set_observer(nullptr);
}

void Session::publish_stats(const StreamStats& delta, bool whole_run) const {
  if (!obs_) return;
  const auto byte_count =
      static_cast<std::uint64_t>(delta.bursts) *
      static_cast<std::uint64_t>(spec_.geometry.bytes_per_burst());
  if (whole_run)
    obs_->count_run(delta, byte_count);
  else
    obs_->count_stats(delta, byte_count);
}

std::string_view Session::scheme_name() const {
  return spec_.policy.adaptive() ? SchemePolicy::mode_name(spec_.policy.mode())
                                 : engine_.name();
}

KernelReport Session::kernel_routing() const {
  const engine::KernelVariant& k = engine_.kernel();
  KernelReport rep;
  rep.variant = k.name();
  rep.isa = engine::isa_name(k.isa());

  const int bl = spec_.geometry.burst_length();
  const int width = spec_.geometry.width();
  // The engine routes by group count: two or more DBI groups take the
  // multi-group paths, every other geometry (a one-group wide bus
  // included) the single-group ones.
  const bool multi_group = spec_.geometry.groups() > 1;
  // Which encode kernels this scheme/geometry exercises: full byte
  // groups take the packed fixed kernels, a narrow non-8 width or a
  // wide remainder group takes the bit-plane kernel, OPT schemes the
  // trellis (OPT on x64 through the variant's whole-burst entry), and
  // kExhaustive bypasses the engine kernels entirely.
  const bool has_byte_group = multi_group ? width >= 8 : width == 8;
  const bool has_narrow_group = multi_group ? width % 8 != 0 : width != 8;
  const Scheme scheme = engine_.scheme();
  const auto rule = engine::fixed8_rule(scheme);
  if (rule) {
    rep.fixed_encode =
        !has_byte_group ? "n/a"
        : k.supports_fixed8(*rule, bl) ? k.name()
                                       : engine::portable_kernel().name();
    rep.planar_encode =
        has_narrow_group ? engine::portable_kernel().name() : "n/a";
    rep.trellis = "n/a";
  } else if (scheme == Scheme::kOpt || scheme == Scheme::kOptFixed) {
    rep.fixed_encode = "n/a";
    rep.planar_encode = "n/a";
    rep.trellis = scheme == Scheme::kOpt && multi_group &&
                          engine::trellis_wide8_geometry(
                              spec_.geometry.wide_bus()) &&
                          k.supports_trellis_wide8(bl)
                      ? k.name()
                      : engine::portable_kernel().name();
  } else {  // kExhaustive: the scalar ablation encoder
    rep.fixed_encode = "n/a";
    rep.planar_encode = "n/a";
    rep.trellis = "n/a";
  }

  // The receive direction is scheme-blind, so the decode path depends
  // on geometry alone: byte-per-beat lanes and the full-group wide fast
  // path go through the variant, everything else through the portable
  // strided loops.
  if (!multi_group) {
    rep.decode =
        width <= 8 && k.supports_decode8(spec_.geometry.group_config(0))
            ? k.name()
            : engine::portable_kernel().name();
  } else {
    rep.decode = spec_.geometry.groups() == 8 && width % 8 == 0 &&
                         k.supports_decode_wide8(bl)
                     ? k.name()
                     : engine::portable_kernel().name();
  }
  return rep;
}

void Session::require_write_surface(const char* what) const {
  if (spec_.policy.adaptive())
    throw std::logic_error(
        std::string("Session::") + what +
        ": the incremental write surface encodes with one fixed scheme; "
        "adaptive policies run through Session::run()");
  if (spec_.geometry.is_wide() || spec_.geometry.width() != 8 ||
      spec_.lanes > 64)
    throw std::logic_error(
        std::string("Session::") + what +
        ": the incremental write surface needs narrow x8 geometry with at "
        "most 64 lanes (channel semantics); this session is " +
        spec_.geometry.to_string() + " with " + std::to_string(spec_.lanes) +
        " lanes");
  if (spec_.direction != Direction::kEncode)
    throw std::logic_error(std::string("Session::") + what +
                           ": the incremental write surface is encode-only");
}

std::int64_t Session::bytes_per_write() const {
  return static_cast<std::int64_t>(spec_.lanes) *
         static_cast<std::int64_t>(spec_.geometry.burst_length());
}

StreamStats Session::encode_writes(std::span<const std::uint8_t> data,
                                   engine::ShardPool* pool,
                                   std::vector<dbi::EncodedBurst>* encoded) {
  const int lanes = spec_.lanes;
  const auto L = static_cast<std::size_t>(lanes);
  const auto bl = static_cast<std::size_t>(spec_.geometry.burst_length());
  const std::size_t bpw = L * bl;
  const std::size_t writes = data.size() / bpw;
  if (!writer_) {
    // Up to 8 lanes the beat-major interleave IS the packed layout of a
    // width-8*lanes bus (lane l = byte group l), one burst per write;
    // wider channels encode one narrow burst per lane.
    const bool in_place = lanes * 8 <= dbi::WideBusConfig::kMaxWidth;
    engine::StreamEncodeOptions so;
    so.lanes = in_place ? 1 : lanes;
    so.reset_state_per_burst =
        spec_.state_policy == StatePolicy::kResetPerBurst;
    writer_ = std::make_unique<engine::StreamEncoder>(
        engine_,
        in_place ? Geometry::wide(8 * lanes, spec_.geometry.burst_length())
                 : spec_.geometry,
        so);
  }
  engine::StreamEncoder& enc = *writer_;
  enc.set_pool(pool);
  const std::int64_t zeros0 = enc.zeros();
  const std::int64_t transitions0 = enc.transitions();

  // Either route leaves lane l of a block's write w at
  // results[w * lanes + l].
  std::span<const engine::BurstResult> results;
  if (enc.bytes_per_burst() == bpw) {  // one wide burst per write
    results = enc.encode_chunk(0, data, writes, encoded != nullptr);
  } else {
    // Transpose each block of writes so that lane l's beats of write w
    // form burst w * lanes + l.
    const auto block_writes =
        static_cast<std::size_t>(kWriteBlockBursts / lanes);
    for (std::size_t w0 = 0; w0 < writes; w0 += block_writes) {
      const std::size_t n = std::min(block_writes, writes - w0);
      write_block_.resize(n * bpw);
      for (std::size_t w = 0; w < n; ++w) {
        const std::uint8_t* src = data.data() + (w0 + w) * bpw;
        std::uint8_t* dst = write_block_.data() + w * bpw;
        for (std::size_t t = 0; t < bl; ++t)
          for (std::size_t l = 0; l < L; ++l) dst[l * bl + t] = src[t * L + l];
      }
      results = enc.encode_chunk(0, write_block_, n * L, encoded != nullptr);
    }
  }

  if (encoded) {
    encoded->clear();
    encoded->reserve(L);
    dbi::Burst burst(spec_.geometry.bus());
    for (std::size_t l = 0; l < L; ++l) {
      for (std::size_t t = 0; t < bl; ++t)
        burst.set_word(static_cast<int>(t), data[t * L + l]);
      encoded->push_back(engine_.materialize(burst, results[l]));
    }
  }

  StreamStats delta;
  delta.writes = static_cast<std::int64_t>(writes);
  delta.bursts = delta.writes * lanes;
  delta.zeros = enc.zeros() - zeros0;
  delta.transitions = enc.transitions() - transitions0;
  stats_ += delta;
  publish_stats(delta, /*whole_run=*/false);
  return delta;
}

StreamStats Session::write(std::span<const std::uint8_t> data,
                           std::vector<dbi::EncodedBurst>* encoded) {
  require_write_surface("write");
  if (static_cast<std::int64_t>(data.size()) != bytes_per_write())
    throw std::invalid_argument(
        "Session::write: expected " + std::to_string(bytes_per_write()) +
        " bytes, got " + std::to_string(data.size()));
  // One write is far below the work a fork-join pays for.
  return encode_writes(data, nullptr, encoded);
}

StreamStats Session::write_stream(std::span<const std::uint8_t> data,
                                  engine::ShardPool* pool_override) {
  require_write_surface("write_stream");
  const auto bpw = static_cast<std::size_t>(bytes_per_write());
  if (data.size() % bpw != 0)
    throw std::invalid_argument(
        "Session::write_stream: data size must be a multiple of " +
        std::to_string(bpw) + " bytes, got " + std::to_string(data.size()));
  if (data.empty()) return {};
  return encode_writes(data, pool_override ? pool_override : pool(), nullptr);
}

void Session::reset() {
  if (writer_) writer_->reset();
  stats_ = StreamStats{};
}

StreamStats Session::run_bursts(std::span<const dbi::Burst> bursts) {
  const dbi::BusConfig cfg = spec_.geometry.bus();
  const dbi::BusState boundary = dbi::BusState::all_ones(cfg);
  StreamStats totals;
  dbi::BusState state = boundary;
  const auto shape_error = [&](std::size_t i) {
    return std::invalid_argument(
        "Session::run: burst " + std::to_string(i) + " is " +
        Geometry::of(bursts[i].config()).to_string() +
        ", session geometry is " + spec_.geometry.to_string());
  };
  for (std::size_t b0 = 0; b0 < bursts.size(); b0 += kAccumBlockBursts) {
    const std::size_t n = std::min(kAccumBlockBursts, bursts.size() - b0);
    const std::span<const dbi::Burst> block = bursts.subspan(b0, n);
    if (block.front().config() != cfg) throw shape_error(b0);
    // The engine checks every burst of the block against its first, in
    // its encode loop (a separate pass here cost about 4% of an x8 AC
    // span encode on a 4-vCPU AVX-512 VM); the error path rescans.
    dbi::BurstStats s;
    try {
      s = spec_.state_policy == StatePolicy::kResetPerBurst
              ? engine_.boundary_totals(block, boundary)
              : engine_.encode_lane(block, state);
    } catch (const std::invalid_argument&) {
      for (std::size_t i = 1; i < n; ++i)
        if (block[i].config() != cfg) throw shape_error(b0 + i);
      throw;
    }
    totals.add(s, static_cast<std::int64_t>(n));
  }
  return totals;
}

std::unique_ptr<engine::StreamEncoder> Session::make_stream_encoder() const {
  engine::StreamEncodeOptions so;
  so.lanes = spec_.lanes;
  so.reset_state_per_burst = spec_.state_policy == StatePolicy::kResetPerBurst;
  so.pool = pool();
  so.obs = obs_;
  return std::make_unique<engine::StreamEncoder>(engine_, spec_.geometry, so);
}

std::span<const engine::BurstResult> Session::roundtrip_slice(
    engine::StreamEncoder& enc, std::int64_t first_burst,
    std::span<const std::uint8_t> bytes) {
  const Geometry& geometry = spec_.geometry;
  const auto groups = static_cast<std::size_t>(geometry.groups());
  const auto bb = static_cast<std::size_t>(geometry.bytes_per_burst());
  const std::size_t n = bytes.size() / bb;
  std::vector<std::uint8_t>& wire = roundtrip_wire_;
  std::vector<std::uint64_t>& masks = roundtrip_masks_;
  wire.resize(bytes.size());
  masks.resize(n * groups);
  const bool inject = static_cast<bool>(spec_.fault_injector);

  // The receive side of one range of final results, on the thread that
  // holds them (a pool worker for a single-lane trellis range, else the
  // caller): materialise its wire bytes, then, unless the fault
  // injector still has to see the whole slice, decode them in place
  // and compare them with the payload.
  std::atomic<bool> mismatch{false};
  const auto receive = [&](std::size_t begin,
                           std::span<const engine::BurstResult> results) {
    const auto range_masks =
        std::span<std::uint64_t>(masks).subspan(begin * groups, results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      range_masks[i] = results[i].invert_mask;
    const std::size_t len = results.size() / groups * bb;
    const auto sent = bytes.subspan(begin * bb, len);
    const auto got = std::span<std::uint8_t>(wire).subspan(begin * bb, len);
    decoder_.apply(sent, range_masks, geometry, got);
    if (inject) return;
    decoder_.decode(got, range_masks, geometry, got);
    if (std::memcmp(got.data(), sent.data(), len) != 0)
      mismatch.store(true, std::memory_order_relaxed);
  };
  const auto results = enc.encode_chunk(first_burst, bytes, n, true, receive);
  if (inject) {
    spec_.fault_injector(first_burst, wire, masks);
    decoder_.decode(wire, masks, geometry, wire);
    if (std::memcmp(wire.data(), bytes.data(), wire.size()) != 0)
      mismatch.store(true, std::memory_order_relaxed);
  }
  verify_.bursts += static_cast<std::int64_t>(n);
  if (mismatch.load(std::memory_order_relaxed))
    record_mismatches(first_burst, bytes);
  return results;
}

void Session::record_mismatches(std::int64_t first_burst,
                                std::span<const std::uint8_t> bytes) {
  const int groups = spec_.geometry.groups();
  const int bl = spec_.geometry.burst_length();
  const auto bpb = static_cast<std::size_t>(spec_.geometry.bytes_per_beat());
  const auto bb = static_cast<std::size_t>(spec_.geometry.bytes_per_burst());
  // Bytes of one group in one beat: the whole beat on a single-group
  // bus, one byte of the beat-major layout on a multi-group one.
  const std::size_t group_bytes = bpb / static_cast<std::size_t>(groups);

  // Compares one round-tripped burst's group against the original and
  // returns the beat mask of the differing beats.
  const auto diff_mask = [&](const std::uint8_t* original,
                             const std::uint8_t* roundtripped, int group) {
    std::uint64_t mask = 0;
    for (int t = 0; t < bl; ++t) {
      const std::size_t at = static_cast<std::size_t>(t) * bpb +
                             static_cast<std::size_t>(group) * group_bytes;
      if (std::memcmp(original + at, roundtripped + at, group_bytes) != 0)
        mask |= std::uint64_t{1} << t;
    }
    return mask;
  };

  const auto n = static_cast<std::int64_t>(bytes.size() / bb);
  for (std::int64_t j = 0; j < n; ++j) {
    const std::uint8_t* orig = bytes.data() + static_cast<std::size_t>(j) * bb;
    const std::uint8_t* got =
        roundtrip_wire_.data() + static_cast<std::size_t>(j) * bb;
    if (std::memcmp(orig, got, bb) == 0) continue;
    const std::int64_t burst = first_burst + j;
    for (int g = 0; g < groups; ++g) {
      const std::uint64_t mask = diff_mask(orig, got, g);
      if (mask != 0)
        verify_.record(burst, static_cast<int>(burst % spec_.lanes), g, mask);
    }
  }
}

StreamStats Session::run_chunks(Source& source, Sink& sink) {
  enum class Step { kEncode, kDecode, kRoundTrip, kAdaptive };
  const SchemePolicy& policy = spec_.policy;
  const Step step = spec_.direction == Direction::kDecode ? Step::kDecode
                    : spec_.direction == Direction::kRoundTrip
                        ? Step::kRoundTrip
                    : policy.adaptive() ? Step::kAdaptive
                                        : Step::kEncode;
  const bool collect = sink.wants_results();
  const bool pass_payload = sink.wants_payload();
  const int groups = spec_.geometry.groups();
  const auto bb = static_cast<std::size_t>(spec_.geometry.bytes_per_burst());

  // Per-step state. Encode runs build their encoder for this run only;
  // the round-trip encoder and its wire / mask buffers stay on the
  // session, so their allocations are reused instead of faulting in
  // fresh pages on every call; decode and re-block scratch lives for
  // this run.
  std::unique_ptr<engine::StreamEncoder> run_enc;
  engine::StreamEncoder* enc = nullptr;
  if (step == Step::kEncode) {
    run_enc = make_stream_encoder();
    enc = run_enc.get();
  } else if (step == Step::kRoundTrip) {
    if (roundtrip_enc_)
      roundtrip_enc_->reset();
    else
      roundtrip_enc_ = make_stream_encoder();
    enc = roundtrip_enc_.get();
  }
  std::vector<std::uint8_t> scratch;  // decoded payload / re-block carry
  std::unique_ptr<select::ChunkSelector> selector;
  if (step == Step::kAdaptive) {
    selection_ = select::SelectionReport{};
    select::ChunkSelector::Config scfg;
    scfg.policy = policy;
    scfg.geometry = spec_.geometry;
    scfg.weights = spec_.weights;
    scfg.lanes = spec_.lanes;
    scfg.reset_state_per_burst =
        spec_.state_policy == StatePolicy::kResetPerBurst;
    scfg.pool = pool();
    scfg.obs = obs_;
    scfg.kernel = &engine_.kernel();
    selector = std::make_unique<select::ChunkSelector>(scfg);
    scratch.reserve(static_cast<std::size_t>(policy.block_bursts()) * bb);
  }

  std::int64_t first_burst = 0;  // stream index of the next burst

  // The one hand-off to the sink: every step delivers through here.
  const auto emit = [&](std::int64_t n, std::span<const std::uint8_t> payload,
                        std::span<const engine::BurstResult> results,
                        std::optional<Scheme> scheme = std::nullopt) {
    obs::ScopedSpan span(obs_, obs::Stage::kSinkWrite, first_burst,
                         static_cast<std::int32_t>(
                             std::min<std::int64_t>(n, INT32_MAX)));
    SinkChunk chunk;
    chunk.first_burst = first_burst;
    chunk.bursts = n;
    chunk.groups = groups;
    if (pass_payload) chunk.payload = payload;
    if (collect) chunk.results = results;
    chunk.scheme = scheme;
    sink.consume(chunk);
    first_burst += n;
  };

  // Adaptive step: re-block the source's chunks to the policy's
  // selection granularity. Full blocks landing on a carry boundary
  // encode straight from the source's view, partial ones gather into
  // `scratch` first.
  const auto block_bursts = static_cast<std::int64_t>(policy.block_bursts());
  const auto select_block = [&](std::span<const std::uint8_t> bytes) {
    const auto n = static_cast<std::int64_t>(bytes.size() / bb);
    const select::ChunkSelector::BlockResult r = selector->encode_block(
        first_burst, bytes, static_cast<std::size_t>(n));
    emit(n, bytes, r.results, r.scheme);
  };
  const auto reblock = [&](std::span<const std::uint8_t> rest) {
    const auto block_bytes = static_cast<std::size_t>(block_bursts) * bb;
    while (!rest.empty()) {
      if (scratch.empty() && rest.size() >= block_bytes) {
        select_block(rest.first(block_bytes));
        rest = rest.subspan(block_bytes);
        continue;
      }
      const std::size_t take =
          std::min(block_bytes - scratch.size(), rest.size());
      scratch.insert(scratch.end(), rest.begin(),
                     rest.begin() + static_cast<std::ptrdiff_t>(take));
      rest = rest.subspan(take);
      if (scratch.size() == block_bytes) {
        select_block(scratch);
        scratch.clear();
      }
    }
  };

  const auto next_chunk = [&] {
    obs::ScopedSpan span(obs_, obs::Stage::kSourceRead);
    return source.next();
  };

  // Multi-lane encodes gather each unit's slice into per-unit scratch;
  // slicing big chunks bounds that scratch at O(kAccumBlockBursts)
  // regardless of how large a span the source serves in one piece.
  // Single-lane streams encode in place, so slicing would only cost.
  const std::int64_t slice_bursts =
      enc && spec_.lanes > 1 ? static_cast<std::int64_t>(kAccumBlockBursts)
                             : std::numeric_limits<std::int64_t>::max();

  while (const auto c = next_chunk()) {
    // Decode takes bursts x groups masks per chunk; every other step
    // takes payload only.
    if (step == Step::kDecode) {
      if (c->masks.size() != static_cast<std::size_t>(c->bursts) *
                                 static_cast<std::size_t>(groups))
        throw std::invalid_argument(
            "Session::run: a kDecode session needs an encoded source "
            "(a mask-carrying trace or make_encoded_packed_source); this "
            "chunk has " + std::to_string(c->masks.size()) + " masks for " +
            std::to_string(c->bursts) + " bursts of " +
            std::to_string(groups) + " groups");
    } else if (!c->masks.empty()) {
      throw std::invalid_argument(
          step == Step::kRoundTrip
              ? "Session::run: kRoundTrip takes payload sources; verify an "
                "already-encoded trace with verify_encoded_trace / dbitool "
                "verify"
              : "Session::run: the source is already encoded "
                "(mask-carrying); run a kDecode session instead of "
                "re-encoding it");
    }
    for (std::int64_t b0 = 0; b0 < c->bursts; b0 += slice_bursts) {
      const std::int64_t n = std::min(slice_bursts, c->bursts - b0);
      const auto bytes = c->bytes.subspan(static_cast<std::size_t>(b0) * bb,
                                          static_cast<std::size_t>(n) * bb);
      switch (step) {
        case Step::kEncode:
          emit(n, bytes,
               enc->encode_chunk(first_burst, bytes,
                                 static_cast<std::size_t>(n), collect));
          break;
        case Step::kRoundTrip: {
          const auto results = roundtrip_slice(*enc, first_burst, bytes);
          emit(n, roundtrip_wire_, results);
          break;
        }
        case Step::kDecode: {
          scratch.resize(bytes.size());
          {
            obs::ScopedSpan span(obs_, obs::Stage::kDecodeChunk, first_burst,
                                 static_cast<std::int32_t>(
                                     std::min<std::int64_t>(n, INT32_MAX)));
            if (obs_) obs_->chunks.inc();
            decoder_.decode(bytes, c->masks, spec_.geometry, scratch);
          }
          emit(n, scratch, {});
          break;
        }
        case Step::kAdaptive:
          reblock(bytes);
          break;
      }
    }
  }

  StreamStats totals;
  switch (step) {
    case Step::kDecode:
      totals.bursts = first_burst;
      break;
    case Step::kAdaptive:
      if (!scratch.empty()) select_block(scratch);
      selection_ = selector->report();
      totals.bursts = selector->bursts();
      totals.zeros = selector->zeros();
      totals.transitions = selector->transitions();
      break;
    case Step::kEncode:
    case Step::kRoundTrip:
      totals.bursts = enc->bursts();
      totals.zeros = enc->zeros();
      totals.transitions = enc->transitions();
  }
  return totals;
}

StreamStats Session::run(Source& source, Sink& sink) {
  source.bind(spec_.geometry);
  sink.begin(spec_.geometry, spec_.lanes);
  verify_ = VerifyReport{};

  const trace::TraceReader* reader = source.trace_reader();
  if (spec_.direction == Direction::kDecode) {
    if (reader && !reader->encoded())
      throw std::invalid_argument(
          "Session::run: kDecode needs an encoded trace (this one has no "
          "mask stream)");
    if (sink.wants_results())
      throw std::invalid_argument(
          "Session::run: kDecode sessions recover payload, not encode "
          "results; use a payload / stats / trace sink");
  } else if (reader && reader->encoded()) {
    throw std::invalid_argument(
        "Session::run: the trace is already encoded; run a kDecode "
        "session or verify_encoded_trace instead of re-encoding the "
        "transmitted stream");
  }
  // RLE volume is tallied per reader; fold only this run's delta into
  // the monotonic counters so repeated runs don't double-count.
  const RleTally rle0 = obs_ && reader ? rle_tally(*reader) : RleTally{};

  // Single-lane narrow Burst spans skip the packing pass entirely.
  const std::span<const dbi::Burst> burst_span = source.bursts();
  const StreamStats totals =
      spec_.direction == Direction::kEncode &&
              !spec_.policy.adaptive() && !burst_span.empty() &&
              spec_.lanes == 1 && !spec_.geometry.is_wide() &&
              !sink.wants_results() && !sink.wants_payload()
          ? run_bursts(burst_span)
          : run_chunks(source, sink);

  if (obs_ && reader) {
    const RleTally rle = rle_tally(*reader);
    const std::uint64_t rle_in = rle.compressed - rle0.compressed;
    const std::uint64_t rle_out = rle.expanded - rle0.expanded;
    obs_->rle_chunks.add(rle.chunks - rle0.chunks);
    obs_->rle_bytes_compressed.add(rle_in);
    obs_->rle_bytes_expanded.add(rle_out);
    obs_->trace_file_bytes.set(static_cast<double>(reader->file_bytes()));
    obs_->trace_payload_bytes.set(
        static_cast<double>(reader->bursts()) *
        static_cast<double>(spec_.geometry.bytes_per_burst()));
    obs_->trace_crc_ns.set(static_cast<double>(reader->metrics().crc_ns));
    if (rle_in > 0)
      obs_->trace_rle_expand_ratio.set(static_cast<double>(rle_out) /
                                       static_cast<double>(rle_in));
  }
  publish_stats(totals, /*whole_run=*/true);
  sink.finish(totals);
  return totals;
}

StreamStats Session::run(Source& source) {
  const std::unique_ptr<Sink> sink = make_stats_sink();
  return run(source, *sink);
}

SessionReport Session::report() const {
  SessionReport rep;
  rep.scheme = std::string(scheme_name());
  rep.policy = spec_.policy.describe();
  rep.kernel = kernel_routing();
  rep.adaptive = spec_.policy.adaptive();
  rep.selection = selection_;
  if (obs_) rep.metrics = obs_->snapshot();
  return rep;
}

std::string SessionReport::to_json() const {
  auto field = [](std::string_view v) { return std::string(v); };
  std::string out = "{\"scheme\":\"" + scheme + "\"";
  out += ",\"policy\":\"" + policy + "\"";
  out += ",\"kernel\":{\"variant\":\"" + field(kernel.variant) + "\"";
  out += ",\"isa\":\"" + field(kernel.isa) + "\"";
  out += ",\"fixed_encode\":\"" + field(kernel.fixed_encode) + "\"";
  out += ",\"planar_encode\":\"" + field(kernel.planar_encode) + "\"";
  out += ",\"trellis\":\"" + field(kernel.trellis) + "\"";
  out += ",\"decode\":\"" + field(kernel.decode) + "\"}";
  out += ",\"adaptive\":";
  out += adaptive ? "true" : "false";
  out += ",\"selection\":" + selection.to_json();
  out += ",\"metrics\":" + metrics.to_json();
  out += "}";
  return out;
}

}  // namespace dbi
