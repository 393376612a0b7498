#include "trace/probe.hpp"

#include <array>
#include <filesystem>
#include <fstream>

namespace dbi::trace {
namespace {

/// Opens the `size`-byte trace `path` for bounded reads.
std::ifstream open_trace(const std::string& path, std::uint64_t size) {
  if (size < kHeaderBytes + kFooterBytes)
    throw TraceError("trace: file too small (" + std::to_string(size) +
                     " bytes) for a v2 header + footer: " + path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("trace: cannot open " + path);
  return in;
}

/// Reads N bytes of `in` at `offset`.
template <std::size_t N>
std::array<std::uint8_t, N> read_at(std::ifstream& in, std::uint64_t offset,
                                    const std::string& path) {
  std::array<std::uint8_t, N> buf{};
  in.seekg(static_cast<std::streamoff>(offset), std::ios::beg);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(N));
  if (!in) throw TraceError("trace: read failed for " + path);
  return buf;
}

}  // namespace

TraceFileProbe probe_trace_file(const std::string& path) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) throw TraceError("trace: cannot open " + path);
  std::ifstream in = open_trace(path, size);
  TraceFileProbe p;
  p.header = decode_header(read_at<kHeaderBytes>(in, 0, path));
  p.footer =
      decode_footer(read_at<kFooterBytes>(in, size - kFooterBytes, path), size);
  p.file_bytes = size;
  return p;
}

TraceFooter probe_trace_footer(const std::string& path,
                               std::uint64_t file_bytes) {
  std::ifstream in = open_trace(path, file_bytes);
  return decode_footer(
      read_at<kFooterBytes>(in, file_bytes - kFooterBytes, path), file_bytes);
}

}  // namespace dbi::trace
