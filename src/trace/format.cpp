#include "trace/format.hpp"

#include <cstring>

#include "engine/kernel_registry.hpp"

namespace dbi::trace {

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t ByteReader::le(int n) {
  if (remaining() < static_cast<std::size_t>(n))
    throw TraceError(std::string(what_) + ": truncated (need " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ")");
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += static_cast<std::size_t>(n);
  return v;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  if (remaining() < n)
    throw TraceError(std::string(what_) + ": truncated (need " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ")");
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::expect_magic(const std::uint8_t (&magic)[4],
                              std::string_view name) {
  const auto got = bytes(4);
  if (std::memcmp(got.data(), magic, 4) != 0)
    throw TraceError(std::string(what_) + ": bad " + std::string(name) +
                     " magic at offset " + std::to_string(pos_ - 4));
}

// ---------------------------------------------------------------- CRC-32

Crc32::Crc32() : kernel_(&engine::default_kernel()) {}

void Crc32::update(std::span<const std::uint8_t> bytes) {
  state_ = kernel_->crc32_update(state_, bytes);
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  Crc32 crc;
  crc.update(bytes);
  return crc.value();
}

// ------------------------------------------------------------- zero RLE

void rle_compress(std::span<const std::uint8_t> in,
                  std::vector<std::uint8_t>& out) {
  std::size_t i = 0;
  const std::size_t n = in.size();
  while (i < n) {
    if (in[i] == 0) {
      std::size_t run = 1;
      while (i + run < n && run < 128 && in[i + run] == 0) ++run;
      out.push_back(static_cast<std::uint8_t>(0x80U | (run - 1)));
      i += run;
    } else {
      // Literal run: stop at a zero pair so short isolated zeros don't
      // fragment the stream into one-byte tokens.
      std::size_t run = 1;
      while (i + run < n && run < 128 &&
             !(in[i + run] == 0 &&
               (i + run + 1 >= n || in[i + run + 1] == 0)))
        ++run;
      out.push_back(static_cast<std::uint8_t>(run - 1));
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(i),
                 in.begin() + static_cast<std::ptrdiff_t>(i + run));
      i += run;
    }
  }
}

void rle_decompress(std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out) {
  std::size_t ip = 0;
  std::size_t op = 0;
  // One token with every check: long runs and the tail.
  const auto checked_token = [&] {
    const std::uint8_t c = in[ip++];
    const std::size_t run = static_cast<std::size_t>(c & 0x7FU) + 1;
    if (op + run > out.size())
      throw TraceError("rle: decoded size exceeds chunk payload size");
    if (c & 0x80U) {
      std::memset(out.data() + op, 0, run);
    } else {
      if (in.size() - ip < run)
        throw TraceError("rle: truncated literal run");
      std::memcpy(out.data() + op, in.data() + ip, run);
      ip += run;
    }
    op += run;
  };
  // Fast loop: with 17 input and 16 output bytes left, a run of up to 16
  // bytes can neither overrun `out` nor be a truncated literal, and a
  // fixed 16-byte move from in[ip + 1] to out[op] stays inside both
  // spans. The bytes it writes past the run are rewritten by the tokens
  // that follow (or the stream underfills and throws).
  while (in.size() - ip >= 17 && out.size() - op >= 16) {
    const std::uint8_t c = in[ip];
    const std::size_t run = static_cast<std::size_t>(c & 0x7FU) + 1;
    if (run > 16) {
      checked_token();
    } else if (c & 0x80U) {
      std::memset(out.data() + op, 0, 16);
      ip += 1;
      op += run;
    } else {
      std::memcpy(out.data() + op, in.data() + ip + 1, 16);
      ip += 1 + run;
      op += run;
    }
  }
  while (ip < in.size()) checked_token();
  if (op != out.size())
    throw TraceError("rle: decoded size " + std::to_string(op) +
                     " != expected " + std::to_string(out.size()));
}

// ----------------------------------------------------- beat word packing

void pack_burst(std::span<const dbi::Word> words, const dbi::BusConfig& cfg,
                std::uint8_t* out) {
  const int bpb = cfg.bytes_per_beat();
  for (const dbi::Word w : words) {
    for (int i = 0; i < bpb; ++i)
      *out++ = static_cast<std::uint8_t>(w >> (8 * i));
  }
}

void unpack_burst(const std::uint8_t* in, const dbi::BusConfig& cfg,
                  std::span<dbi::Word> words) {
  const int bpb = cfg.bytes_per_beat();
  const dbi::Word mask = cfg.dq_mask();
  for (dbi::Word& w : words) {
    dbi::Word v = 0;
    for (int i = 0; i < bpb; ++i)
      v |= static_cast<dbi::Word>(*in++) << (8 * i);
    if ((v & ~mask) != 0)
      throw TraceError("trace payload: beat word exceeds width-" +
                       std::to_string(cfg.width) + " mask");
    w = v;
  }
}

}  // namespace dbi::trace
