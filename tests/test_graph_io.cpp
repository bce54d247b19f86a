#include "cg/graph_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "designs/generator.hpp"
#include "sched/scheduler.hpp"
#include "testutil.hpp"

namespace relsched::cg {
namespace {

using relsched::testing::Fig2Graph;

/// Unique scratch path for one binary-format test; removed on
/// destruction.
struct TempBinaryFile {
  std::string path;

  explicit TempBinaryFile(const std::string& name)
      : path(::testing::TempDir() + "relsched_graph_io_" + name + ".cgb") {}
  ~TempBinaryFile() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(GraphIo, RoundTripPreservesStructure) {
  Fig2Graph f;
  const std::string text = to_text(f.g);
  const auto parsed = from_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ConstraintGraph& g2 = *parsed.graph;
  EXPECT_EQ(g2.name(), f.g.name());
  ASSERT_EQ(g2.vertex_count(), f.g.vertex_count());
  ASSERT_EQ(g2.edge_count(), f.g.edge_count());
  for (int i = 0; i < f.g.vertex_count(); ++i) {
    EXPECT_EQ(g2.vertex(VertexId(i)).name, f.g.vertex(VertexId(i)).name);
    EXPECT_EQ(g2.vertex(VertexId(i)).delay, f.g.vertex(VertexId(i)).delay);
  }
  for (int i = 0; i < f.g.edge_count(); ++i) {
    const Edge& a = f.g.edge(EdgeId(i));
    const Edge& b = g2.edge(EdgeId(i));
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.fixed_weight, b.fixed_weight);
  }
}

TEST(GraphIo, RoundTripPreservesSchedule) {
  Fig2Graph f;
  const auto parsed = from_text(to_text(f.g));
  ASSERT_TRUE(parsed.ok());
  const auto original = sched::schedule(f.g);
  const auto reparsed = sched::schedule(*parsed.graph);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reparsed.ok());
  for (int i = 0; i < f.g.vertex_count(); ++i) {
    EXPECT_EQ(original.schedule.offsets(VertexId(i)),
              reparsed.schedule.offsets(VertexId(i)));
  }
}

TEST(GraphIo, ParsesHandWrittenGraph) {
  const auto parsed = from_text(R"(
# a tiny example
graph demo
vertex v0 0
vertex a unbounded
vertex v1 3
seq v0 a
seq a v1
min v0 v1 2
max v0 v1 9
)");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const ConstraintGraph& g = *parsed.graph;
  EXPECT_EQ(g.vertex_count(), 3);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_TRUE(g.vertex(VertexId(1)).delay.is_unbounded());
  EXPECT_EQ(g.backward_edge_count(), 1);
}

TEST(GraphIo, ErrorsNameTheLine) {
  EXPECT_NE(from_text("graph g\nvertex v0 0\nseq v0 missing\n").error.find(
                "line 3"),
            std::string::npos);
  EXPECT_FALSE(from_text("vertex v0 0\n").ok());          // missing header
  EXPECT_FALSE(from_text("graph g\nvertex v0 -2\n").ok());  // bad delay
  EXPECT_FALSE(from_text("graph g\nbogus a b\n").ok());     // bad keyword
  EXPECT_FALSE(from_text("").ok());                         // empty
  EXPECT_FALSE(
      from_text("graph g\nvertex v 0\nvertex v 0\n").ok());  // duplicate
  EXPECT_FALSE(
      from_text("graph g\nvertex a 0\nvertex b 0\nmin a b -1\n").ok());
}

// Every item has a fixed arity and numeric fields are whole tokens:
// trailing tokens and non-numeric suffixes are errors naming the line,
// not silently dropped.
TEST(GraphIo, RejectsTrailingTokensAndNumericSuffixes) {
  const std::string header = "graph g\nvertex src 0\nvertex a 1\n";
  const struct {
    std::string text;
    std::string line;
  } cases[] = {
      {"graph g extra\n", "line 1"},
      {"graph g\nvertex a 3abc\n", "line 2"},
      {"graph g\nvertex a 3 extra\n", "line 2"},
      {"graph g\nvertex a unbounded extra\n", "line 2"},
      {header + "seq src a junk\n", "line 4"},
      {header + "min src a 2x\n", "line 4"},
      {header + "max src a 4 5\n", "line 4"},
      {header + "max src a 0x4\n", "line 4"},
  };
  for (const auto& c : cases) {
    const ParseResult parsed = from_text(c.text);
    EXPECT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.error.rfind(c.line + ": ", 0), 0u)
        << c.text << " -> " << parsed.error;
  }
  // The same lines without the junk still parse.
  const ParseResult clean =
      from_text(header + "seq src a\nmin src a 2\nmax src a 4 # note\n");
  ASSERT_TRUE(clean.ok()) << clean.error;
  EXPECT_EQ(clean.graph->edge_count(), 3);
}

TEST(GraphIo, CommentsAndBlankLinesIgnored)
{
  const auto parsed = from_text(
      "graph g   # name\n\n# full-line comment\nvertex v0 0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.graph->vertex_count(), 1);
}

// Property: for generated designs across seeds and shapes, writing the
// binary format and loading it back yields a graph whose text
// rendering is byte-identical to the original's -- the binary format
// preserves edge order and user orientation exactly.
TEST(GraphIoBinary, RoundTripMatchesTextOnGeneratedDesigns) {
  const std::uint64_t seeds[] = {1, 7, 42, 90};
  for (const std::uint64_t seed : seeds) {
    designs::GeneratorParams params;
    params.seed = seed;
    params.vertices = 300 + static_cast<int>(seed % 3) * 150;
    params.anchor_density = 150;
    auto g = designs::generate(params);

    TempBinaryFile file("roundtrip_" + std::to_string(seed));
    ASSERT_EQ(write_binary_file(g, file.path), "") << "seed " << seed;
    EXPECT_TRUE(is_binary_graph_file(file.path));
    const auto loaded = read_binary_file(file.path);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": " << loaded.error;
    EXPECT_EQ(to_text(*loaded.graph), to_text(g)) << "seed " << seed;
  }
}

TEST(GraphIoBinary, RoundTripPreservesSchedule) {
  Fig2Graph f;
  TempBinaryFile file("fig2");
  ASSERT_EQ(write_binary_file(f.g, file.path), "");
  const auto loaded = read_binary_file(file.path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const auto original = sched::schedule(f.g);
  const auto reparsed = sched::schedule(*loaded.graph);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reparsed.ok());
  for (int i = 0; i < f.g.vertex_count(); ++i) {
    EXPECT_EQ(original.schedule.offsets(VertexId(i)),
              reparsed.schedule.offsets(VertexId(i)));
  }
}

// Corruption is reported through ParseResult::error, never loaded: a
// flipped payload byte trips the checksum, truncation and trailing
// garbage are length errors, and a bad magic or version never reaches
// the payload.
TEST(GraphIoBinary, RejectsCorruption) {
  Fig2Graph f;
  TempBinaryFile file("corrupt");
  ASSERT_EQ(write_binary_file(f.g, file.path), "");
  const std::string pristine = slurp(file.path);
  ASSERT_GT(pristine.size(), 16u);

  // Sanity: the pristine bytes load.
  ASSERT_TRUE(read_binary_file(file.path).ok());

  // One flipped payload byte: checksum mismatch.
  std::string bytes = pristine;
  bytes[bytes.size() / 2] ^= 0x01;
  spill(file.path, bytes);
  EXPECT_FALSE(read_binary_file(file.path).ok());

  // Truncation anywhere: never loads.
  spill(file.path, pristine.substr(0, pristine.size() - 3));
  EXPECT_FALSE(read_binary_file(file.path).ok());
  spill(file.path, pristine.substr(0, 10));
  EXPECT_FALSE(read_binary_file(file.path).ok());

  // Trailing garbage after the checksum: rejected, not ignored.
  spill(file.path, pristine + "xx");
  EXPECT_FALSE(read_binary_file(file.path).ok());

  // Bad magic / unknown version.
  bytes = pristine;
  bytes[0] ^= 0x01;
  spill(file.path, bytes);
  EXPECT_FALSE(read_binary_file(file.path).ok());
  EXPECT_FALSE(is_binary_graph_file(file.path));
  bytes = pristine;
  bytes[8] ^= 0x01;  // version word follows the 8-byte magic
  spill(file.path, bytes);
  EXPECT_FALSE(read_binary_file(file.path).ok());

  // Missing file and a text-format file: sniff says no, reader errors.
  EXPECT_FALSE(is_binary_graph_file(file.path + ".does-not-exist"));
  EXPECT_FALSE(read_binary_file(file.path + ".does-not-exist").ok());
  spill(file.path, to_text(f.g));
  EXPECT_FALSE(is_binary_graph_file(file.path));
  EXPECT_FALSE(read_binary_file(file.path).ok());
}

}  // namespace
}  // namespace relsched::cg
