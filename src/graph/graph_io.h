#ifndef PARTMINER_GRAPH_GRAPH_IO_H_
#define PARTMINER_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/graph.h"

namespace partminer {

/// Reads a graph database in the de-facto standard gSpan text format:
///
///   t # <gid>
///   v <vertex-id> <label>
///   e <from> <to> <label>
///
/// Vertex ids within a graph must be dense starting from 0. Lines beginning
/// with '#' (other than the `t # gid` header) and blank lines are ignored.
/// The input is read whole and tokenized in place.
Status ReadGraphDatabase(std::istream& in, GraphDatabase* db);
/// The same over text already in memory.
Status ReadGraphDatabase(std::string_view text, GraphDatabase* db);

/// Convenience overload reading from a file path.
Status ReadGraphDatabaseFile(const std::string& path, GraphDatabase* db);

/// Writes `db` in the same format.
Status WriteGraphDatabase(const GraphDatabase& db, std::ostream& out);

/// Convenience overload writing to a file path.
Status WriteGraphDatabaseFile(const GraphDatabase& db,
                              const std::string& path);

}  // namespace partminer

#endif  // PARTMINER_GRAPH_GRAPH_IO_H_
