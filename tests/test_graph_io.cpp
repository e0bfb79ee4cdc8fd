#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generator.hpp"

namespace dprank {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dprank_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, RoundTrip) {
  const Digraph g = paper_graph(2000, 77);
  const auto path = dir_ / "g.dpg";
  save_graph(g, path);
  const Digraph loaded = load_graph(path);
  ASSERT_EQ(loaded.num_nodes(), g.num_nodes());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.out_neighbors(u);
    const auto b = loaded.out_neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()));
  }
}

TEST_F(GraphIoTest, EmptyGraphRoundTrip) {
  const Digraph g = Digraph::from_edges(3, {});
  const auto path = dir_ / "empty.dpg";
  save_graph(g, path);
  const Digraph loaded = load_graph(path);
  EXPECT_EQ(loaded.num_nodes(), 3u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW(load_graph(dir_ / "nope.dpg"), std::runtime_error);
}

TEST_F(GraphIoTest, BadMagicThrows) {
  const auto path = dir_ / "junk.dpg";
  std::ofstream(path) << "this is not a graph file at all.............";
  EXPECT_THROW(load_graph(path), std::runtime_error);
}

TEST_F(GraphIoTest, TruncatedFileThrows) {
  const Digraph g = paper_graph(500, 1);
  const auto path = dir_ / "trunc.dpg";
  save_graph(g, path);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_THROW(load_graph(path), std::runtime_error);
}

// A header-only file: magic, version, then the declared n and m.
void write_header(const std::filesystem::path& path, std::uint64_t n,
                  std::uint64_t m) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t magic = 0x44505247'52415048ULL;  // "DPRGRAPH"
  const std::uint32_t version = 1;
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(&m), sizeof(m));
}

std::string load_error(const std::filesystem::path& path) {
  try {
    (void)load_graph(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(GraphIoTest, EdgeCountBeyondFileSizeThrows) {
  // 2^40 declared edges would reserve 8 TB; the file holds none.
  const auto path = dir_ / "huge_m.dpg";
  write_header(path, 10, std::uint64_t{1} << 40);
  const std::string err = load_error(path);
  EXPECT_NE(err.find("edge count"), std::string::npos) << err;
}

TEST_F(GraphIoTest, NodeCountBeyondNodeIdRangeThrows) {
  // 2^32 + 5 nodes would truncate to a 5-node graph through NodeId.
  const auto path = dir_ / "huge_n.dpg";
  write_header(path, (std::uint64_t{1} << 32) + 5, 0);
  const std::string err = load_error(path);
  EXPECT_NE(err.find("node count"), std::string::npos) << err;
}

TEST_F(GraphIoTest, LoadOrBuildBuildsOnceThenLoads) {
  const auto path = dir_ / "cache.dpg";
  int builds = 0;
  auto make = [&] {
    ++builds;
    return paper_graph(300, 5);
  };
  const Digraph a = load_or_build(path, make);
  const Digraph b = load_or_build(path, make);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace dprank
