#include "lake/lake_source.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_reader.hpp"

namespace dbi::lake {

namespace {

[[nodiscard]] dbi::Geometry reader_geometry(const trace::TraceReader& r) {
  return r.wide() ? dbi::Geometry::of(r.header().wide_config())
                  : dbi::Geometry::of(r.config());
}

class LakeSource final : public dbi::Source {
 public:
  LakeSource(const LakeReader& lake, const LakeSourceOptions& options)
      : lake_(lake), opt_(options) {}

  void bind(const dbi::Geometry& g) override {
    selected_.clear();
    for (std::size_t i = 0; i < lake_.members().size(); ++i)
      if (lake_.members()[i].geometry() == g) selected_.push_back(i);
    if (selected_.empty()) {
      std::string available;
      for (const LakeMember& m : lake_.members()) {
        const std::string s = m.geometry().to_string();
        if (available.find(s) == std::string::npos)
          available += (available.empty() ? "" : ", ") + s;
      }
      throw std::invalid_argument(
          "lake source: no member matches session geometry " + g.to_string() +
          (available.empty() ? " (the lake is empty)"
                             : " (lake geometries: " + available + ")"));
    }
    pos_ = 0;
    next_chunk_ = 0;
    reader_ = open_member(selected_[0]);
  }

  std::optional<dbi::SourceChunk> next() override {
    while (reader_) {
      if (next_chunk_ < reader_->chunk_count()) {
        const trace::ChunkInfo& info = reader_->chunk(next_chunk_);
        dbi::SourceChunk chunk{reader_->chunk_payload(next_chunk_, scratch_),
                               static_cast<std::int64_t>(info.burst_count),
                               {}};
        if (reader_->encoded())
          chunk.masks =
              reader_->chunk_masks(next_chunk_, mask_scratch_, mask_words_);
        chunk.first_of_stream = next_chunk_ == 0;
        ++next_chunk_;
        return chunk;
      }
      advance_member();
    }
    return {};
  }

 private:
  [[nodiscard]] std::unique_ptr<trace::TraceReader> open_member(
      std::size_t member_index) const {
    const LakeMember& m = lake_.members()[member_index];
    auto reader = std::make_unique<trace::TraceReader>(
        trace::TraceReader::open(lake_.member_path(member_index),
                                 opt_.verify_crc));
    // Catch a member that changed after the catalog's stale check (or
    // with checking disabled) before serving its bytes as another
    // geometry's stream.
    if (reader_geometry(*reader) != m.geometry() ||
        reader->bursts() != m.stats.bursts)
      throw LakeError("lake: member " + m.name +
                      " no longer matches its catalog record "
                      "(re-run dbitool lake add)");
    return reader;
  }

  void advance_member() {
    ++pos_;
    next_chunk_ = 0;
    if (pos_ >= selected_.size()) {
      reader_.reset();
      return;
    }
    reader_ = open_member(selected_[pos_]);
  }

  const LakeReader& lake_;
  const LakeSourceOptions opt_;
  std::vector<std::size_t> selected_;  // member indices at the bound geometry
  std::size_t pos_ = 0;
  std::unique_ptr<trace::TraceReader> reader_;  // current member
  std::size_t next_chunk_ = 0;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::uint8_t> mask_scratch_;
  std::vector<std::uint64_t> mask_words_;
};

}  // namespace

std::unique_ptr<dbi::Source> make_lake_source(
    const LakeReader& lake, const LakeSourceOptions& options) {
  return std::make_unique<LakeSource>(lake, options);
}

}  // namespace dbi::lake
