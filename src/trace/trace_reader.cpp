#include "trace/trace_reader.hpp"

#include <chrono>
#include <fstream>
#include <utility>

#include "core/encoder.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DBI_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define DBI_TRACE_HAVE_MMAP 0
#endif

namespace dbi::trace {

// ------------------------------------------------------------ MappedFile

MappedFile::~MappedFile() {
#if DBI_TRACE_HAVE_MMAP
  if (mapped_ && data_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  if (!mapped_) data_ = fallback_.data();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
#if DBI_TRACE_HAVE_MMAP
    if (mapped_ && data_ != nullptr)
      ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    if (!mapped_) data_ = fallback_.data();
  }
  return *this;
}

MappedFile MappedFile::from_vector(std::vector<std::uint8_t> data) {
  MappedFile mf;
  mf.fallback_ = std::move(data);
  mf.data_ = mf.fallback_.data();
  mf.size_ = mf.fallback_.size();
  mf.mapped_ = false;
  return mf;
}

MappedFile MappedFile::open(const std::string& path) {
#if DBI_TRACE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw TraceError("trace: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw TraceError("trace: cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  MappedFile mf;
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      throw TraceError("trace: mmap failed for " + path);
    }
#if defined(POSIX_MADV_SEQUENTIAL)
    (void)::posix_madvise(p, size, POSIX_MADV_SEQUENTIAL);
#endif
    mf.data_ = static_cast<const std::uint8_t*>(p);
    mf.size_ = size;
    mf.mapped_ = true;
  }
  ::close(fd);
  return mf;
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("trace: cannot open " + path);
  std::vector<std::uint8_t> data(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw TraceError("trace: read failed for " + path);
  return from_vector(std::move(data));
#endif
}

// ------------------------------------------------------------ TraceReader

TraceReader TraceReader::open(const std::string& path, bool verify_crc) {
  TraceReader r(MappedFile::open(path));
  r.parse(verify_crc);
  return r;
}

TraceReader TraceReader::from_bytes(std::vector<std::uint8_t> image,
                                    bool verify_crc) {
  TraceReader r(MappedFile::from_vector(std::move(image)));
  r.parse(verify_crc);
  return r;
}

void TraceReader::parse(bool verify_crc) {
  const std::span<const std::uint8_t> file = file_.bytes();
  if (file.size() < kHeaderBytes + kFooterBytes)
    throw TraceError("trace: file too small (" + std::to_string(file.size()) +
                     " bytes) for a v2 header + footer");

  header_ = decode_header(file.first<kHeaderBytes>());
  const std::size_t footer_off = file.size() - kFooterBytes;
  const TraceFooter footer =
      decode_footer(file.last<kFooterBytes>(), file.size());
  stats_ = footer.stats;

  if (verify_crc) {
    const auto crc_start = std::chrono::steady_clock::now();
    const std::uint32_t got = crc32(file.first(footer_off + kFooterCrcOffset));
    metrics_->crc_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - crc_start)
            .count());
    if (got != footer.crc)
      throw TraceError("trace: CRC mismatch (file corrupted or truncated)");
  }

  // Chunk index. The cursor only moves forward, inside [header end,
  // footer), and every chunk holds at least one burst, so the recorded
  // offsets are disjoint, in file order and clear of the footer, and
  // first_burst rises strictly.
  const auto burst_bytes =
      static_cast<std::uint64_t>(header_.bytes_per_burst());
  ByteReader cur(file.first(footer_off), "trace chunks");
  (void)cur.bytes(kHeaderBytes);
  std::int64_t bursts_seen = 0;
  // decode_footer bounds the count by the file size, so a corrupted
  // footer cannot drive a huge allocation here.
  chunks_.reserve(static_cast<std::size_t>(footer.chunk_count));
  while (cur.remaining() > 0) {
    cur.expect_magic(kChunkMagic, "chunk");
    const auto burst_count = static_cast<std::uint32_t>(cur.le(4));
    const auto flags = static_cast<std::uint32_t>(cur.le(4));
    const auto payload_bytes = static_cast<std::uint32_t>(cur.le(4));
    // Scheme-tag bits are legal only in v3 files (payload chunks);
    // anything else is an unknown-flag rejection, so v2 stays strict.
    const std::uint32_t known_flags =
        kChunkFlagRle | kChunkFlagMask |
        (header_.version == kFormatVersionMixed
             ? kChunkFlagSchemeTag | kChunkSchemeTagMask
             : 0U);
    if ((flags & ~known_flags) != 0)
      throw TraceError("trace: chunk carries unknown flag bits");
    if ((flags & kChunkSchemeTagMask) != 0 &&
        (flags & kChunkFlagSchemeTag) == 0)
      throw TraceError(
          "trace: chunk carries scheme-tag bits without the scheme-tag "
          "flag");
    if (burst_count < 1 || burst_count > header_.bursts_per_chunk)
      throw TraceError("trace: chunk burst count " +
                       std::to_string(burst_count) +
                       " outside [1, bursts_per_chunk]");
    const bool compressed = (flags & kChunkFlagRle) != 0;
    const bool mask_chunk = (flags & kChunkFlagMask) != 0;
    const std::uint64_t raw_bytes =
        burst_count *
        (mask_chunk ? static_cast<std::uint64_t>(header_.group_count()) *
                          kMaskBytesPerBurst
                    : burst_bytes);
    if (!compressed && payload_bytes != raw_bytes)
      throw TraceError("trace: uncompressed chunk payload size mismatch");
    if (compressed && (header_.flags & kFileFlagCompressed) == 0)
      throw TraceError("trace: compressed chunk in an uncompressed file");
    // Zero-run RLE expands at most 128x (one control byte per up to 128
    // zeros), so a decoded size beyond that bound can never be produced
    // by the writer — reject it here so chunk_payload never sizes its
    // scratch buffer from a lying header.
    if (compressed &&
        raw_bytes > static_cast<std::uint64_t>(payload_bytes) * 128)
      throw TraceError("trace: compressed chunk decoded size exceeds the "
                       "128x RLE expansion bound");

    std::uint8_t scheme_tag = 0;
    if (header_.version == kFormatVersionMixed && !mask_chunk) {
      if ((flags & kChunkFlagSchemeTag) == 0)
        throw TraceError(
            "trace: mixed-scheme (v3) payload chunk is missing its scheme "
            "tag");
      scheme_tag =
          static_cast<std::uint8_t>(flags >> kChunkSchemeTagShift);
      if (!scheme_from_tag(scheme_tag))
        throw TraceError("trace: chunk scheme tag " +
                         std::to_string(scheme_tag) + " out of range");
    }
    if (mask_chunk && (flags & kChunkFlagSchemeTag) != 0)
      throw TraceError(
          "trace: mask-stream chunk carries a scheme tag (tags belong to "
          "payload chunks)");

    if (mask_chunk) {
      // A mask-stream chunk is the rider of the payload chunk directly
      // before it: out-of-order riders (mask first, two masks in a row,
      // mask in a non-encoded file) are index corruption.
      if (!header_.encoded())
        throw TraceError(
            "trace: mask-stream chunk in a trace without the encoded flag");
      if (chunks_.empty() || chunks_.back().has_mask())
        throw TraceError(
            "trace: mask-stream chunk without a payload chunk directly "
            "before it (out-of-order chunk index)");
      ChunkInfo& owner = chunks_.back();
      if (burst_count != owner.burst_count)
        throw TraceError("trace: mask-stream burst count " +
                         std::to_string(burst_count) +
                         " != its payload chunk's " +
                         std::to_string(owner.burst_count));
      owner.mask_offset = cur.pos();
      owner.mask_flags = flags;
      owner.mask_bytes = payload_bytes;
      (void)cur.bytes(payload_bytes);
      continue;
    }

    if (header_.encoded() && !chunks_.empty() && !chunks_.back().has_mask())
      throw TraceError(
          "trace: encoded trace has consecutive payload chunks (chunk " +
          std::to_string(chunks_.size() - 1) + " is missing its mask "
          "stream)");
    ChunkInfo info;
    info.burst_count = burst_count;
    info.flags = flags;
    info.payload_bytes = payload_bytes;
    info.scheme_tag = scheme_tag;
    info.first_burst = bursts_seen;
    info.payload_offset = cur.pos();
    (void)cur.bytes(info.payload_bytes);
    bursts_seen += info.burst_count;
    chunks_.push_back(info);
  }
  if (header_.encoded() && !chunks_.empty() && !chunks_.back().has_mask())
    throw TraceError(
        "trace: encoded trace is missing the final mask-stream chunk");
  if (chunks_.size() != footer.chunk_count)
    throw TraceError("trace: footer chunk count " +
                     std::to_string(footer.chunk_count) +
                     " != chunks present " +
                     std::to_string(chunks_.size()));
  if (bursts_seen != stats_.bursts)
    throw TraceError("trace: footer burst count " +
                     std::to_string(stats_.bursts) + " != bursts present " +
                     std::to_string(bursts_seen));
}

std::span<const std::uint8_t> TraceReader::expand(
    std::span<const std::uint8_t> on_disk, std::size_t raw,
    std::vector<std::uint8_t>& scratch) const {
  scratch.resize(raw);
  rle_decompress(on_disk, scratch);
  metrics_->rle_chunks.fetch_add(1, std::memory_order_relaxed);
  metrics_->rle_bytes_compressed.fetch_add(on_disk.size(),
                                           std::memory_order_relaxed);
  metrics_->rle_bytes_expanded.fetch_add(raw, std::memory_order_relaxed);
  return scratch;
}

std::span<const std::uint8_t> TraceReader::chunk_payload(
    std::size_t i, std::vector<std::uint8_t>& scratch) const {
  const ChunkInfo& info = chunks_.at(i);
  const auto on_disk = file_.bytes().subspan(
      static_cast<std::size_t>(info.payload_offset), info.payload_bytes);
  if (!info.compressed()) return on_disk;  // zero copy
  return expand(on_disk,
                static_cast<std::size_t>(info.burst_count) *
                    static_cast<std::size_t>(header_.bytes_per_burst()),
                scratch);
}

std::span<const std::uint64_t> TraceReader::chunk_masks(
    std::size_t i, std::vector<std::uint8_t>& scratch,
    std::vector<std::uint64_t>& out) const {
  const ChunkInfo& info = chunks_.at(i);
  if (!info.has_mask())
    throw TraceError(
        "trace: chunk has no mask stream (not an encoded trace)");
  const auto on_disk = file_.bytes().subspan(
      static_cast<std::size_t>(info.mask_offset), info.mask_bytes);
  const std::size_t raw = static_cast<std::size_t>(info.burst_count) *
                          static_cast<std::size_t>(header_.group_count()) *
                          kMaskBytesPerBurst;
  const std::span<const std::uint8_t> bytes =
      (info.mask_flags & kChunkFlagRle) != 0 ? expand(on_disk, raw, scratch)
                                             : on_disk;
  out.resize(raw / kMaskBytesPerBurst);
  read_masks(bytes, out);
  const int bl = header_.cfg.burst_length;
  if (bl < 64) {
    for (std::size_t w = 0; w < out.size(); ++w) {
      if ((out[w] >> bl) == 0) continue;
      const auto groups = static_cast<std::size_t>(header_.group_count());
      throw TraceError("trace: inversion mask of burst " +
                       std::to_string(w / groups) + " group " +
                       std::to_string(w % groups) +
                       " has bits beyond burst length " + std::to_string(bl));
    }
  }
  return out;
}

void TraceReader::unpack_burst_at(std::span<const std::uint8_t> payload,
                                  std::size_t j,
                                  std::span<dbi::Word> words) const {
  if (header_.wide())
    throw TraceError(
        "trace: wide multi-group bursts have no single-word beat view; "
        "slice per group (see WideBusConfig) or replay through the engine");
  const auto bb = static_cast<std::size_t>(header_.cfg.bytes_per_burst());
  if ((j + 1) * bb > payload.size())
    throw TraceError("trace: burst index outside chunk payload");
  unpack_burst(payload.data() + j * bb, header_.cfg, words);
}

workload::BurstTrace TraceReader::to_burst_trace() const {
  if (header_.wide())
    throw TraceError(
        "trace: wide multi-group traces cannot be materialised as a "
        "single-group BurstTrace; replay through the engine instead");
  if (header_.encoded())
    throw TraceError(
        "trace: encoded traces hold the transmitted stream, not payload "
        "bursts; decode first (dbitool decode / a kDecode Session)");
  workload::BurstTrace trace(header_.cfg);
  std::vector<std::uint8_t> scratch;
  std::vector<dbi::Word> words(
      static_cast<std::size_t>(header_.cfg.burst_length));
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const auto payload = chunk_payload(c, scratch);
    for (std::size_t j = 0; j < chunks_[c].burst_count; ++j) {
      unpack_burst_at(payload, j, words);
      trace.push(dbi::Burst(header_.cfg, words));
    }
  }
  return trace;
}

}  // namespace dbi::trace
