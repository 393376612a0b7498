// probe_trace_file: catalog-grade metadata probe of a binary trace.
//
// Reads ONLY the 32-byte header and 64-byte footer of a v2/v3 trace
// file — two bounded reads, no mmap, no chunk walk, no CRC pass — and
// checks them through decode_header / decode_footer, the same record
// codecs and field rules TraceReader applies. This is what the lake
// catalog builder records for every member (geometry, scheme, burst
// count, byte extent, stored CRC): cheap enough to run on thousands of
// members, strict enough that a probe that succeeds describes a
// structurally plausible trace. Full validation of the chunk index and
// payload CRC stays TraceReader's job (`LakeReader::verify_members`,
// `dbitool lake verify`).
#pragma once

#include <cstdint>
#include <string>

#include "trace/format.hpp"

namespace dbi::trace {

/// Header + footer records of one trace file.
struct TraceFileProbe {
  TraceHeader header;
  TraceFooter footer;  ///< payload-stream totals and the stored CRC
  std::uint64_t file_bytes = 0;
};

/// Probes `path`. Throws TraceError on I/O failure or any header /
/// footer violation (bad magic, unsupported version, bad geometry,
/// negative counts, ...).
[[nodiscard]] TraceFileProbe probe_trace_file(const std::string& path);

/// The footer record alone of `path`, a file of `file_bytes` bytes (one
/// bounded read), checked like the probe's: what the lake's stale check
/// re-reads per member, on every open, after its own size check.
/// Throws TraceError.
[[nodiscard]] TraceFooter probe_trace_footer(const std::string& path,
                                             std::uint64_t file_bytes);

}  // namespace dbi::trace
