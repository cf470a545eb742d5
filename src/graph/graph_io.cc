#include "graph/graph_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace partminer {

namespace {

Status ParseError(int line_number, std::string_view line,
                  const std::string& why) {
  std::ostringstream msg;
  msg << "line " << line_number << " ('" << line << "'): " << why;
  return Status::Corruption(msg.str());
}

/// A cursor over one line that reads tokens as `std::istream >>` does: a
/// word is a maximal run of non-space characters, and a number is the
/// longest decimal prefix at the cursor (an optional sign, then digits), so
/// "12x" reads 12 and leaves "x" for the next token. It parses in place,
/// with no stream and no copy of the line.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line) : rest_(line) {}

  bool Word(std::string_view* word) {
    SkipSpace();
    if (rest_.empty()) return false;
    size_t n = 0;
    while (n < rest_.size() && !IsSpace(rest_[n])) ++n;
    *word = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return true;
  }

  bool Number(long* value) {
    SkipSpace();
    const char* first = rest_.data();
    const char* last = first + rest_.size();
    // from_chars takes no '+', which the stream accepts before a digit.
    if (first != last && *first == '+') {
      ++first;
      if (first == last || *first < '0' || *first > '9') return false;
    }
    const auto [end, error] = std::from_chars(first, last, *value);
    if (error != std::errc()) return false;
    rest_.remove_prefix(end - rest_.data());
    return true;
  }

  /// True when only spaces are left.
  bool AtEnd() {
    SkipSpace();
    return rest_.empty();
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  void SkipSpace() {
    size_t n = 0;
    while (n < rest_.size() && IsSpace(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

}  // namespace

Status ReadGraphDatabase(std::string_view text, GraphDatabase* db) {
  int line_number = 0;
  bool have_graph = false;
  Graph current;
  GraphId current_gid = -1;

  auto flush = [&]() {
    if (have_graph) db->Add(std::move(current), current_gid);
    current = Graph();
    have_graph = false;
  };

  for (size_t pos = 0; pos < text.size();) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    LineScanner tokens(line);
    std::string_view tag;
    if (!tokens.Word(&tag)) continue;  // Blank line.
    if (tag == "t") {
      std::string_view hash;
      long gid = -1;
      if (!tokens.Word(&hash) || hash != "#" || !tokens.Number(&gid)) {
        return ParseError(line_number, line, "expected 't # <gid>'");
      }
      if (gid < 0) {
        return ParseError(line_number, line,
                          "negative graph id " + std::to_string(gid));
      }
      if (!tokens.AtEnd()) {
        return ParseError(line_number, line,
                          "trailing tokens after 't # <gid>'");
      }
      flush();
      have_graph = true;
      current_gid = static_cast<GraphId>(gid);
    } else if (tag == "v") {
      long id = -1, label = -1;
      if (!tokens.Number(&id) || !tokens.Number(&label)) {
        return ParseError(line_number, line, "expected 'v <id> <label>'");
      }
      if (!tokens.AtEnd()) {
        return ParseError(line_number, line,
                          "trailing tokens after 'v <id> <label>'");
      }
      if (!have_graph) {
        return ParseError(line_number, line, "vertex before 't' header");
      }
      if (id < current.VertexCount()) {
        return ParseError(line_number, line,
                          "duplicate vertex id " + std::to_string(id));
      }
      if (id != current.VertexCount()) {
        return ParseError(
            line_number, line,
            "non-dense vertex id " + std::to_string(id) + " (expected " +
                std::to_string(current.VertexCount()) + ")");
      }
      current.AddVertex(static_cast<Label>(label));
    } else if (tag == "e") {
      long from = -1, to = -1, label = -1;
      if (!tokens.Number(&from) || !tokens.Number(&to) ||
          !tokens.Number(&label)) {
        return ParseError(line_number, line,
                          "expected 'e <from> <to> <label>'");
      }
      if (!tokens.AtEnd()) {
        return ParseError(line_number, line,
                          "trailing tokens after 'e <from> <to> <label>'");
      }
      if (!have_graph) {
        return ParseError(line_number, line, "edge before 't' header");
      }
      if (from == to) {
        return ParseError(line_number, line,
                          "self-loop edge at vertex " + std::to_string(from));
      }
      if (from < 0 || to < 0 || from >= current.VertexCount() ||
          to >= current.VertexCount()) {
        const long dangling =
            (from < 0 || from >= current.VertexCount()) ? from : to;
        return ParseError(
            line_number, line,
            "dangling edge endpoint " + std::to_string(dangling) +
                " (graph has " + std::to_string(current.VertexCount()) +
                " vertices)");
      }
      if (current.HasEdge(static_cast<VertexId>(from),
                          static_cast<VertexId>(to))) {
        return ParseError(line_number, line,
                          "duplicate edge " + std::to_string(from) + "-" +
                              std::to_string(to));
      }
      current.AddEdge(static_cast<VertexId>(from), static_cast<VertexId>(to),
                      static_cast<Label>(label));
    } else if (tag[0] == '#') {
      continue;  // Comment.
    } else {
      return ParseError(line_number, line,
                        "unknown record tag '" + std::string(tag) + "'");
    }
  }
  flush();
  return Status::Ok();
}

Status ReadGraphDatabase(std::istream& in, GraphDatabase* db) {
  std::ostringstream text;
  text << in.rdbuf();
  return ReadGraphDatabase(std::move(text).str(), db);
}

Status ReadGraphDatabaseFile(const std::string& path, GraphDatabase* db) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadGraphDatabase(in, db);
}

Status WriteGraphDatabase(const GraphDatabase& db, std::ostream& out) {
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    out << "t # " << db.gid(i) << "\n";
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      out << "v " << v << " " << g.vertex_label(v) << "\n";
    }
    for (const EdgeEntry& e : g.UndirectedEdges()) {
      out << "e " << e.from << " " << e.to << " " << e.label << "\n";
    }
  }
  if (!out) return Status::IoError("write failed");
  return Status::Ok();
}

Status WriteGraphDatabaseFile(const GraphDatabase& db,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return WriteGraphDatabase(db, out);
}

}  // namespace partminer
