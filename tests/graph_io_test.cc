#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "datagen/generator.h"
#include "graph/canonical.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

TEST(GraphIoTest, ParsesBasicDatabase) {
  std::istringstream in(
      "t # 0\n"
      "v 0 5\n"
      "v 1 6\n"
      "e 0 1 7\n"
      "\n"
      "# a comment line\n"
      "t # 3\n"
      "v 0 1\n");
  GraphDatabase db;
  ASSERT_TRUE(ReadGraphDatabase(in, &db).ok());
  ASSERT_EQ(db.size(), 2);
  EXPECT_EQ(db.gid(0), 0);
  EXPECT_EQ(db.gid(1), 3);
  EXPECT_EQ(db.graph(0).VertexCount(), 2);
  EXPECT_EQ(db.graph(0).EdgeLabelBetween(0, 1), 7);
  EXPECT_EQ(db.graph(1).VertexCount(), 1);
  EXPECT_EQ(db.graph(1).EdgeCount(), 0);
}

TEST(GraphIoTest, RejectsMalformedInput) {
  const char* bad_inputs[] = {
      "v 0 1\n",                       // Vertex before header.
      "t # 0\nv 1 5\n",                // Non-dense vertex ids.
      "t # 0\nv 0 1\ne 0 3 1\n",       // Edge endpoint out of range.
      "t # 0\nv 0 1\ne 0 0 1\n",       // Self loop.
      "t 0\n",                         // Missing '#'.
      "x nonsense\n",                  // Unknown tag.
  };
  for (const char* text : bad_inputs) {
    std::istringstream in(text);
    GraphDatabase db;
    EXPECT_FALSE(ReadGraphDatabase(in, &db).ok()) << text;
  }
}

TEST(GraphIoTest, ErrorsAreLineNumberedAndSpecific) {
  struct Case {
    const char* text;
    const char* line;       // Expected "line <n>" location.
    const char* substring;  // Expected diagnosis.
  };
  const Case cases[] = {
      {"t # 0\nv 0 1\nv 0 2\n", "line 3", "duplicate vertex id 0"},
      {"t # 0\nv 0 1\nv 2 2\n", "line 3", "non-dense vertex id 2"},
      {"t # 0\nv 0 1\nv 1 2\ne 0 5 1\n", "line 4",
       "dangling edge endpoint 5 (graph has 2 vertices)"},
      {"t # 0\nv 0 1\ne 0 0 1\n", "line 3", "self-loop edge at vertex 0"},
      {"t # 0\nv 0 1\nv 1 2\ne 0 1 3\ne 0 1 4\n", "line 5",
       "duplicate edge 0-1"},
      {"t # -7\n", "line 1", "negative graph id -7"},
      {"t # 0\nv 0 1 9\n", "line 2", "trailing tokens"},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    GraphDatabase db;
    const Status status = ReadGraphDatabase(in, &db);
    ASSERT_EQ(status.code(), Status::Code::kCorruption) << c.text;
    EXPECT_NE(status.message().find(c.line), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(c.substring), std::string::npos)
        << status.ToString();
  }
}

// Every file in data/corpus/malformed/ carries a first-line
// `# expect-error: <substring>` annotation; loading it must fail with a
// Corruption status containing that substring and a line number. New
// rejection paths get coverage by dropping in a file — no code changes.
TEST(GraphIoCorpusTest, MalformedCorpusIsRejectedAsAnnotated) {
  const std::filesystem::path dir =
      std::filesystem::path(PARTMINER_SOURCE_DIR) / "data" / "corpus" /
      "malformed";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".lg") continue;
    ++files;
    SCOPED_TRACE(entry.path().filename().string());

    std::ifstream in(entry.path());
    ASSERT_TRUE(in.is_open());
    std::string annotation;
    ASSERT_TRUE(std::getline(in, annotation));
    const std::string marker = "# expect-error: ";
    ASSERT_EQ(annotation.rfind(marker, 0), 0u)
        << "first line must be '" << marker << "<substring>'";
    const std::string expected = annotation.substr(marker.size());
    ASSERT_FALSE(expected.empty());

    in.seekg(0);
    GraphDatabase db;
    const Status status = ReadGraphDatabase(in, &db);
    ASSERT_FALSE(status.ok()) << "parsed successfully";
    EXPECT_EQ(status.code(), Status::Code::kCorruption);
    EXPECT_NE(status.message().find(expected), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("line "), std::string::npos)
        << status.ToString();
  }
  EXPECT_GE(files, 10);  // The corpus covers every rejection path.
}

TEST(GraphIoTest, RoundTripPreservesIsomorphismClass) {
  Rng rng(5);
  GraphDatabase db;
  for (int i = 0; i < 20; ++i) {
    db.Add(testutil::RandomConnectedGraph(&rng, 8, 4, 4, 3), i * 3);
  }
  std::ostringstream out;
  ASSERT_TRUE(WriteGraphDatabase(db, out).ok());
  std::istringstream in(out.str());
  GraphDatabase reloaded;
  ASSERT_TRUE(ReadGraphDatabase(in, &reloaded).ok());
  ASSERT_EQ(reloaded.size(), db.size());
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_EQ(reloaded.gid(i), db.gid(i));
    EXPECT_EQ(MinimumDfsCode(reloaded.graph(i)), MinimumDfsCode(db.graph(i)));
  }
}

// The reader tokenizes as stream extraction does: a number is the longest
// signed decimal prefix of a token, any C-locale space separates tokens,
// and a value out of range is a parse failure.
TEST(GraphIoTest, TokenizesLikeStreamExtraction) {
  GraphDatabase db;
  ASSERT_TRUE(
      ReadGraphDatabase("t\t#  +4\r\nv 0 +1\nv\v1\f2\r\ne 0 1 007\n", &db)
          .ok());
  ASSERT_EQ(db.size(), 1);
  EXPECT_EQ(db.gid(0), 4);
  EXPECT_EQ(db.graph(0).vertex_label(0), 1);
  EXPECT_EQ(db.graph(0).vertex_label(1), 2);
  EXPECT_EQ(db.graph(0).EdgeLabelBetween(0, 1), 7);

  struct Case {
    const char* text;
    const char* message;  // The whole status message.
  };
  const Case cases[] = {
      {"t # 0\nv 0 12x\n",
       "line 2 ('v 0 12x'): trailing tokens after 'v <id> <label>'"},
      {"t # 0\nv 0 x12\n", "line 2 ('v 0 x12'): expected 'v <id> <label>'"},
      {"t # 0\nv 0 +-1\n", "line 2 ('v 0 +-1'): expected 'v <id> <label>'"},
      {"t # 99999999999999999999\n",
       "line 1 ('t # 99999999999999999999'): expected 't # <gid>'"},
      {"t #5\n", "line 1 ('t #5'): expected 't # <gid>'"},
      {"\n\nt # 0\nw\n", "line 4 ('w'): unknown record tag 'w'"},
  };
  for (const Case& c : cases) {
    GraphDatabase bad;
    const Status status = ReadGraphDatabase(c.text, &bad);
    EXPECT_EQ(status.code(), Status::Code::kCorruption) << c.text;
    EXPECT_EQ(status.message(), c.message) << c.text;
  }
}

// Write then read returns every generated database as it was written.
TEST(GraphIoTest, GeneratedDatabasesRoundTrip) {
  for (const uint64_t seed : {1, 2, 3}) {
    for (const int graphs : {1, 50, 300}) {
      GeneratorParams params;
      params.num_graphs = graphs;
      params.avg_edges = 12;
      params.num_labels = 8;
      params.num_kernels = 20;
      params.avg_kernel_edges = 4;
      params.seed = seed;
      const GraphDatabase db = GenerateDatabase(params);
      std::ostringstream out;
      ASSERT_TRUE(WriteGraphDatabase(db, out).ok());
      GraphDatabase reloaded;
      ASSERT_TRUE(ReadGraphDatabase(out.str(), &reloaded).ok());
      ASSERT_EQ(reloaded.size(), db.size());
      for (int i = 0; i < db.size(); ++i) {
        EXPECT_EQ(reloaded.gid(i), db.gid(i));
        ASSERT_EQ(reloaded.graph(i).VertexCount(), db.graph(i).VertexCount());
        for (VertexId v = 0; v < db.graph(i).VertexCount(); ++v) {
          EXPECT_EQ(reloaded.graph(i).vertex_label(v),
                    db.graph(i).vertex_label(v));
        }
      }
      std::ostringstream again;
      ASSERT_TRUE(WriteGraphDatabase(reloaded, again).ok());
      EXPECT_EQ(again.str(), out.str()) << "seed " << seed << ", " << graphs;
    }
  }
}

TEST(GraphIoTest, FileRoundTrip) {
  GraphDatabase db;
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddEdge(0, 1, 3);
  db.Add(g, 42);
  const std::string path =
      "/tmp/partminer_io_test_" + std::to_string(::getpid()) + ".lg";
  ASSERT_TRUE(WriteGraphDatabaseFile(db, path).ok());
  GraphDatabase reloaded;
  ASSERT_TRUE(ReadGraphDatabaseFile(path, &reloaded).ok());
  ASSERT_EQ(reloaded.size(), 1);
  EXPECT_EQ(reloaded.gid(0), 42);
  ::unlink(path.c_str());
}

TEST(GraphIoTest, MissingFileReportsIoError) {
  GraphDatabase db;
  const Status status =
      ReadGraphDatabaseFile("/nonexistent/path/of/doom.lg", &db);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIoError);
}

}  // namespace
}  // namespace partminer
