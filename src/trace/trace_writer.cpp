#include "trace/trace_writer.hpp"

#include <algorithm>
#include <bit>

namespace dbi::trace {

TraceWriter::TraceWriter(std::ostream& os, const dbi::Geometry& geometry,
                         const TraceWriterOptions& opt)
    : geometry_(geometry), opt_(opt), os_(&os) {
  init();
}

TraceWriter::TraceWriter(const std::string& path, const dbi::Geometry& geometry,
                         const TraceWriterOptions& opt)
    : geometry_(geometry),
      opt_(opt),
      owned_os_(std::make_unique<std::ofstream>(
          path, std::ios::binary | std::ios::trunc)),
      os_(owned_os_.get()) {
  if (!*owned_os_)
    throw TraceError("TraceWriter: cannot open " + path + " for writing");
  init();
}

void TraceWriter::init() {
  if (opt_.per_chunk_schemes && opt_.enc_scheme != 0 &&
      opt_.enc_scheme != kEncSchemeMixed)
    throw std::invalid_argument(
        "TraceWriterOptions: a mixed-scheme trace records its schemes per "
        "chunk; enc_scheme must be left 0 (the writer stamps the 0xFF "
        "sentinel)");
  // Version 3 with the 0xFF sentinel marks only mixed-scheme traces,
  // and byte 16 stays zero for narrow ones, so every other file keeps
  // the bytes older writers produced.
  const bool mixed = opt_.per_chunk_schemes;
  const TraceHeader header{
      .cfg = {geometry_.width(), geometry_.burst_length()},
      .groups = static_cast<std::uint8_t>(
          geometry_.is_wide() ? geometry_.groups() : 0),
      .flags = static_cast<std::uint16_t>(
          (opt_.compress ? kFileFlagCompressed : 0) |
          (opt_.encoded ? kFileFlagEncoded : 0)),
      .bursts_per_chunk = opt_.bursts_per_chunk,
      .enc_scheme = mixed ? kEncSchemeMixed : opt_.enc_scheme,
      .enc_lanes = opt_.enc_lanes,
      .enc_policy = opt_.enc_policy,
      .version = mixed ? kFormatVersionMixed : kFormatVersion,
  };
  // The geometry and options must make a header every reader accepts.
  try {
    validate_header(header);
  } catch (const TraceError& e) {
    throw std::invalid_argument(std::string("TraceWriter: ") + e.what());
  }
  // The chunk header stores the payload size as a u32; compression only
  // ever shrinks a kept payload, so bounding the raw chunk bounds both.
  const std::uint64_t max_chunk_bytes =
      static_cast<std::uint64_t>(opt_.bursts_per_chunk) *
      std::max<std::uint64_t>(
          static_cast<std::uint64_t>(bytes_per_burst()),
          opt_.encoded ? static_cast<std::uint64_t>(geometry_.groups()) *
                             kMaskBytesPerBurst
                       : 0);
  if (max_chunk_bytes > 0xFFFFFFFFULL)
    throw std::invalid_argument(
        "TraceWriter: bursts_per_chunk * bytes_per_burst exceeds the u32 "
        "chunk payload size field");
  pending_.reserve(static_cast<std::size_t>(opt_.bursts_per_chunk) *
                   bytes_per_burst());
  emit(encode_header(header));
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructors must not throw; call finish() explicitly to observe
    // write errors.
  }
}

void TraceWriter::emit(std::span<const std::uint8_t> bytes) {
  crc_.update(bytes);
  os_->write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!*os_) throw TraceError("TraceWriter: write failed");
}

void TraceWriter::account(std::span<const dbi::Word> words) {
  stats_.bursts += 1;
  stats_.payload_bits += cfg_.width * cfg_.burst_length;
  dbi::Word last = cfg_.dq_mask();  // the paper's all-ones boundary
  for (const dbi::Word w : words) {
    stats_.payload_zeros += cfg_.width - std::popcount(w);
    stats_.raw_transitions += std::popcount((last ^ w) & cfg_.dq_mask());
    last = w;
  }
}

void TraceWriter::write(const dbi::Burst& burst) {
  if (!(burst.config() == cfg_))
    throw std::invalid_argument("TraceWriter: burst geometry mismatch");
  write_words(burst.words());
}

void TraceWriter::account_packed_wide(std::span<const std::uint8_t> burst,
                                      const dbi::WideBusConfig& wcfg) {
  stats_.bursts += 1;
  stats_.payload_bits += wcfg.width * wcfg.burst_length;
  const int groups = wcfg.groups();
  for (int g = 0; g < groups; ++g) {
    const int gw = wcfg.group_width(g);
    const std::uint32_t gmask = wcfg.group_mask(g);
    std::uint32_t last = gmask;  // the paper's all-ones boundary
    for (int t = 0; t < wcfg.burst_length; ++t) {
      const std::uint32_t b =
          burst[static_cast<std::size_t>(t * groups + g)];
      stats_.payload_zeros += gw - std::popcount(b);
      stats_.raw_transitions += std::popcount((last ^ b) & gmask);
      last = b;
    }
  }
}

void TraceWriter::write_packed(std::span<const std::uint8_t> bytes) {
  if (opt_.encoded)
    throw std::invalid_argument(
        "TraceWriter: encoded traces take write_encoded(bytes, masks), "
        "not write_packed");
  append_packed(bytes, nullptr);
}

void TraceWriter::write_encoded(std::span<const std::uint8_t> bytes,
                                std::span<const std::uint64_t> masks) {
  if (!opt_.encoded)
    throw std::invalid_argument(
        "TraceWriter: write_encoded needs TraceWriterOptions::encoded");
  const std::size_t bb = bytes_per_burst();
  if (bb != 0 && bytes.size() % bb != 0)
    throw std::invalid_argument(
        "TraceWriter::write_encoded: payload of " +
        std::to_string(bytes.size()) + " bytes is not a multiple of the " +
        std::to_string(bb) + "-byte packed burst");
  const std::size_t bursts = bytes.size() / bb;
  const auto groups = static_cast<std::size_t>(geometry_.groups());
  if (masks.size() != bursts * groups)
    throw std::invalid_argument(
        "TraceWriter::write_encoded: " + std::to_string(bursts) +
        " bursts of " + std::to_string(groups) + " DBI groups need " +
        std::to_string(bursts * groups) + " masks, got " +
        std::to_string(masks.size()));
  const int bl = geometry_.burst_length();
  if (bl < 64) {
    for (std::size_t i = 0; i < masks.size(); ++i)
      if ((masks[i] >> bl) != 0)
        throw std::invalid_argument(
            "TraceWriter::write_encoded: burst " +
            std::to_string(i / groups) + " group " +
            std::to_string(i % groups) +
            ": inversion mask has bits beyond burst length " +
            std::to_string(bl));
  }
  append_packed(bytes, masks.data());
}

void TraceWriter::set_chunk_scheme(dbi::Scheme scheme) {
  if (!opt_.per_chunk_schemes)
    throw std::invalid_argument(
        "TraceWriter::set_chunk_scheme: the writer was not opened with "
        "per_chunk_schemes (mixed-scheme v3 mode)");
  if (finished_) throw TraceError("TraceWriter: already finished");
  if (chunk_scheme_ && *chunk_scheme_ != scheme) flush_chunk();
  chunk_scheme_ = scheme;
}

void TraceWriter::append_packed(std::span<const std::uint8_t> bytes,
                                const std::uint64_t* masks) {
  if (finished_) throw TraceError("TraceWriter: already finished");
  if (opt_.per_chunk_schemes && !chunk_scheme_)
    throw std::invalid_argument(
        "TraceWriter: a mixed-scheme trace needs set_chunk_scheme() "
        "before its first burst");
  const std::size_t bb = bytes_per_burst();
  if (bytes.size() % bb != 0)
    throw std::invalid_argument(
        "TraceWriter::write_packed: payload of " +
        std::to_string(bytes.size()) + " bytes is not a multiple of the " +
        std::to_string(bb) + "-byte packed burst");
  std::vector<dbi::Word> words(
      static_cast<std::size_t>(cfg_.burst_length));
  const int groups = geometry_.groups();
  for (std::size_t i = 0; i * bb < bytes.size(); ++i) {
    const auto burst = bytes.subspan(i * bb, bb);
    if (groups > 1) {
      // Full byte groups accept any value; remainder-group bytes must
      // fit their narrower mask.
      const dbi::WideBusConfig wcfg = geometry_.wide_bus();
      const int gw_last = wcfg.group_width(groups - 1);
      if (gw_last < 8) {
        const auto gmask =
            static_cast<std::uint8_t>(wcfg.group_mask(groups - 1));
        for (int t = 0; t < wcfg.burst_length; ++t) {
          const std::uint8_t b =
              burst[static_cast<std::size_t>(t * groups + groups - 1)];
          if ((b & ~gmask) != 0)
            throw std::invalid_argument(
                "TraceWriter::write_packed: burst " + std::to_string(i) +
                " beat " + std::to_string(t) + ": byte does not fit the " +
                "width-" + std::to_string(gw_last) + " remainder group");
        }
      }
      account_packed_wide(burst, wcfg);
    } else {
      // Unpack validates each beat against the single-group mask.
      try {
        unpack_burst(burst.data(), cfg_, words);
      } catch (const TraceError& e) {
        throw std::invalid_argument("TraceWriter::write_packed: burst " +
                                    std::to_string(i) + ": " + e.what());
      }
      account(words);
    }
    pending_.insert(pending_.end(), burst.begin(), burst.end());
    if (masks) {
      const auto g_count = static_cast<std::size_t>(groups);
      append_masks(pending_masks_, {masks + i * g_count, g_count});
    }
    if (++pending_bursts_ == opt_.bursts_per_chunk) flush_chunk();
  }
}

void TraceWriter::write_words(std::span<const dbi::Word> words) {
  if (finished_) throw TraceError("TraceWriter: already finished");
  if (opt_.encoded)
    throw std::invalid_argument(
        "TraceWriter: encoded traces take write_encoded(bytes, masks), "
        "not Burst words");
  if (geometry_.groups() > 1)
    throw std::invalid_argument(
        "TraceWriter: multi-group traces take write_packed(), not Burst words");
  const auto bl = static_cast<std::size_t>(cfg_.burst_length);
  if (words.size() % bl != 0)
    throw std::invalid_argument(
        "TraceWriter: word count not a multiple of burst_length");
  const dbi::Word mask = cfg_.dq_mask();
  for (std::size_t i = 0; i < words.size(); i += bl) {
    const auto burst = words.subspan(i, bl);
    for (const dbi::Word w : burst)
      if ((w & ~mask) != 0)
        throw std::invalid_argument("TraceWriter: word does not fit width");
    const std::size_t at = pending_.size();
    pending_.resize(at + static_cast<std::size_t>(cfg_.bytes_per_burst()));
    pack_burst(burst, cfg_, pending_.data() + at);
    account(burst);
    if (++pending_bursts_ == opt_.bursts_per_chunk) flush_chunk();
  }
}

void TraceWriter::emit_chunk(std::uint32_t bursts, std::uint32_t kind_flags,
                             std::span<const std::uint8_t> raw) {
  std::uint32_t flags = kind_flags;
  std::span<const std::uint8_t> payload = raw;
  if (opt_.compress) {
    scratch_.clear();
    rle_compress(raw, scratch_);
    if (scratch_.size() < raw.size()) {
      flags |= kChunkFlagRle;
      payload = scratch_;
    }
  }

  std::vector<std::uint8_t> header;
  put_magic(header, kChunkMagic);
  put_le(header, bursts, 4);
  put_le(header, flags, 4);
  put_le(header, payload.size(), 4);
  emit(header);
  emit(payload);
}

void TraceWriter::flush_chunk() {
  if (pending_bursts_ == 0) return;

  std::uint32_t payload_flags = 0;
  if (opt_.per_chunk_schemes)
    payload_flags = chunk_scheme_flags(scheme_to_tag(*chunk_scheme_));
  emit_chunk(pending_bursts_, payload_flags, pending_);
  // The mask-stream chunk rides directly behind its payload chunk; it
  // is not counted in chunks_ (the footer describes the payload stream).
  if (opt_.encoded) {
    emit_chunk(pending_bursts_, kChunkFlagMask, pending_masks_);
    pending_masks_.clear();
  }

  ++chunks_;
  pending_.clear();
  pending_bursts_ = 0;
}

void TraceWriter::finish() {
  if (finished_) return;
  flush_chunk();

  // The CRC seals everything before its own field, the footer stats
  // included.
  TraceFooter footer{chunks_, stats_, 0};
  std::array<std::uint8_t, kFooterBytes> record = encode_footer(footer);
  crc_.update(std::span(record).first(kFooterCrcOffset));
  footer.crc = crc_.value();
  record = encode_footer(footer);
  os_->write(reinterpret_cast<const char*>(record.data()),
             static_cast<std::streamsize>(record.size()));
  os_->flush();
  if (!*os_) throw TraceError("TraceWriter: write failed");
  finished_ = true;
}

}  // namespace dbi::trace
