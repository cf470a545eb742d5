#include "adi/adi_index.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/logging.h"

namespace partminer {

namespace {

/// Append-only int32 stream over consecutive pages.
class PageStreamWriter {
 public:
  explicit PageStreamWriter(BufferPool* pool) : pool_(pool) {}

  ~PageStreamWriter() { Close(); }

  /// Position (page, offset) the next Put will write to; opens the first
  /// page lazily and pre-advances when the current page cannot hold another
  /// value, so the returned position is exactly where the next Put lands.
  Status Position(PageId* page, int32_t* offset) {
    if (current_ == nullptr || offset_ + 4 > kPageSize) {
      PARTMINER_RETURN_IF_ERROR(NextPage());
    }
    *page = page_id_;
    *offset = offset_;
    return Status::Ok();
  }

  Status Put(int32_t value) {
    if (current_ == nullptr || offset_ + 4 > kPageSize) {
      PARTMINER_RETURN_IF_ERROR(NextPage());
    }
    std::memcpy(current_ + offset_, &value, 4);
    offset_ += 4;
    return Status::Ok();
  }

  int64_t pages_written() const { return pages_written_; }

  /// Unpins the current page as dirty, so a following FlushAll writes it.
  void Close() {
    if (current_ != nullptr) {
      pool_->Unpin(page_id_, /*dirty=*/true);
      current_ = nullptr;
    }
  }

 private:
  Status NextPage() {
    Close();
    PARTMINER_RETURN_IF_ERROR_CTX(pool_->Allocate(&page_id_, &current_),
                                  "graph stream writer");
    offset_ = 0;
    ++pages_written_;
    return Status::Ok();
  }

  BufferPool* pool_;
  char* current_ = nullptr;
  PageId page_id_ = kInvalidPageId;
  int32_t offset_ = 0;
  int64_t pages_written_ = 0;
};

/// Sequential int32 reader starting at (page, offset); follows consecutive
/// page ids, which is how the writer lays streams out.
class PageStreamReader {
 public:
  PageStreamReader(BufferPool* pool, PageId page, int32_t offset)
      : pool_(pool), page_id_(page), offset_(offset) {}

  ~PageStreamReader() {
    if (current_ != nullptr) pool_->Unpin(page_id_, /*dirty=*/false);
  }

  Status Get(int32_t* value) {
    if (current_ == nullptr) {
      PARTMINER_RETURN_IF_ERROR_CTX(pool_->Fetch(page_id_, &current_),
                                    "graph stream reader");
    }
    if (offset_ + 4 > kPageSize) {
      pool_->Unpin(page_id_, /*dirty=*/false);
      ++page_id_;
      offset_ = 0;
      // Fetch nulls current_ on failure, so the destructor cannot unpin
      // the page we just released.
      PARTMINER_RETURN_IF_ERROR_CTX(pool_->Fetch(page_id_, &current_),
                                    "graph stream reader");
    }
    std::memcpy(value, current_ + offset_, 4);
    offset_ += 4;
    return Status::Ok();
  }

 private:
  BufferPool* pool_;
  PageId page_id_;
  int32_t offset_;
  char* current_ = nullptr;
};

}  // namespace

Status AdiIndex::Build(const GraphDatabase& db) {
  directory_.clear();
  edge_table_.clear();
  pages_used_ = 0;

  PageStreamWriter writer(pool_);
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    DirectoryEntry entry;
    PARTMINER_RETURN_IF_ERROR_CTX(
        writer.Position(&entry.first_page, &entry.byte_offset),
        "serializing graph " + std::to_string(i));
    directory_.push_back(entry);

    PARTMINER_RETURN_IF_ERROR(writer.Put(g.VertexCount()));
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      PARTMINER_RETURN_IF_ERROR(writer.Put(g.vertex_label(v)));
    }
    const std::vector<EdgeEntry> edges = g.UndirectedEdges();
    PARTMINER_RETURN_IF_ERROR(
        writer.Put(static_cast<int32_t>(edges.size())));
    std::set<std::tuple<Label, Label, Label>> triples;
    for (const EdgeEntry& e : edges) {
      PARTMINER_RETURN_IF_ERROR(writer.Put(e.from));
      PARTMINER_RETURN_IF_ERROR(writer.Put(e.to));
      PARTMINER_RETURN_IF_ERROR(writer.Put(e.label));
      Label a = g.vertex_label(e.from);
      Label b = g.vertex_label(e.to);
      if (a > b) std::swap(a, b);
      triples.insert({a, e.label, b});
    }
    for (const auto& t : triples) edge_table_[t].push_back(i);
  }
  pages_used_ = writer.pages_written();
  writer.Close();
  PARTMINER_RETURN_IF_ERROR_CTX(pool_->FlushAll(), "flushing index pages");
  return Status::Ok();
}

Status AdiIndex::LoadGraph(int index, Graph* out) const {
  PM_CHECK_GE(index, 0);
  PM_CHECK_LT(index, graph_count());
  const DirectoryEntry& entry = directory_[index];
  const std::string context = "loading graph " + std::to_string(index);

  PageStreamReader reader(pool_, entry.first_page, entry.byte_offset);
  int32_t vertex_count = 0;
  PARTMINER_RETURN_IF_ERROR_CTX(reader.Get(&vertex_count), context);
  if (vertex_count < 0) return Status::Corruption("negative vertex count");
  *out = Graph();
  for (int32_t v = 0; v < vertex_count; ++v) {
    int32_t label = 0;
    PARTMINER_RETURN_IF_ERROR_CTX(reader.Get(&label), context);
    out->AddVertex(label);
  }
  int32_t edge_count = 0;
  PARTMINER_RETURN_IF_ERROR_CTX(reader.Get(&edge_count), context);
  if (edge_count < 0) return Status::Corruption("negative edge count");
  for (int32_t e = 0; e < edge_count; ++e) {
    int32_t from = 0, to = 0, label = 0;
    PARTMINER_RETURN_IF_ERROR_CTX(reader.Get(&from), context);
    PARTMINER_RETURN_IF_ERROR_CTX(reader.Get(&to), context);
    PARTMINER_RETURN_IF_ERROR_CTX(reader.Get(&label), context);
    if (from < 0 || to < 0 || from >= vertex_count || to >= vertex_count) {
      return Status::Corruption("edge endpoint out of range");
    }
    out->AddEdge(from, to, label);
  }
  return Status::Ok();
}

std::vector<int> AdiIndex::GraphsWithFrequentEdges(int min_support) const {
  std::set<int> keep;
  for (const auto& [triple, tids] : edge_table_) {
    (void)triple;
    if (static_cast<int>(tids.size()) >= min_support) {
      keep.insert(tids.begin(), tids.end());
    }
  }
  return std::vector<int>(keep.begin(), keep.end());
}

}  // namespace partminer
