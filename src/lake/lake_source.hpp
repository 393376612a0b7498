// make_lake_source: a Session Source replaying every member of a
// trace lake as one concatenated stream.
//
// Members are served in catalog order, each through its own
// TraceReader with the zero-copy chunk views the single-file trace
// source uses; every member's first chunk carries
// SourceChunk::first_of_stream, so the session restores the all-ones
// line state and restarts the lane interleave at each member boundary
// — the concatenated run's StreamStats totals (and per-burst masks)
// are bit-exact against replaying each member file on its own, merged
// in catalog order.
//
// Members open lazily on the pulling thread: the next member's
// TraceReader (and its CRC pass) is opened when the previous member's
// last chunk has been served, so its open time lands in the session's
// source_read span. The mmap + POSIX_MADV_SEQUENTIAL advice of
// MappedFile applies per member.
#pragma once

#include <memory>

#include "api/source.hpp"
#include "lake/lake.hpp"

namespace dbi::lake {

struct LakeSourceOptions {
  /// Full whole-file CRC pass when opening each member. Off, the
  /// catalog's per-member stale check (LakeReader::open) is the only
  /// integrity guard.
  bool verify_crc = true;
};

/// Source over `lake`'s members whose geometry matches the session's
/// bind() geometry (a mixed-geometry lake replays per geometry; bind
/// throws std::invalid_argument, listing the available geometries,
/// when nothing matches). The reader must outlive the source.
///
/// Encoded members are served with their mask streams (a kDecode
/// session consumes them); an encode-direction session rejects them,
/// as it does for single encoded traces. The member-boundary state
/// reset applies to the fixed-scheme encode paths — adaptive policies
/// re-block across boundaries and are better run per member
/// (lake::run_sweep does).
[[nodiscard]] std::unique_ptr<dbi::Source> make_lake_source(
    const LakeReader& lake, const LakeSourceOptions& options = {});

}  // namespace dbi::lake
