#include "train/dataset_cache.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <vector>

namespace cgps {
namespace {

std::string temp_dir() {
  const auto dir = std::filesystem::temp_directory_path() / "cgps_ds_cache_test";
  std::filesystem::create_directories(dir);
  return dir.string();
}

DatasetOptions options_fixture() {
  DatasetOptions options;
  options.seed = 77;
  return options;
}

void expect_equal_datasets(const CircuitDataset& a, const CircuitDataset& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.is_train, b.is_train);
  EXPECT_EQ(a.netlist.num_devices(), b.netlist.num_devices());
  EXPECT_EQ(a.netlist.num_nets(), b.netlist.num_nets());
  EXPECT_EQ(a.netlist.num_pins(), b.netlist.num_pins());
  ASSERT_EQ(a.extraction.links.size(), b.extraction.links.size());
  for (std::size_t i = 0; i < a.extraction.links.size(); ++i) {
    EXPECT_EQ(a.extraction.links[i].a, b.extraction.links[i].a);
    EXPECT_EQ(a.extraction.links[i].kind, b.extraction.links[i].kind);
    EXPECT_DOUBLE_EQ(a.extraction.links[i].cap, b.extraction.links[i].cap);
  }
  ASSERT_EQ(a.link_samples.size(), b.link_samples.size());
  for (std::size_t i = 0; i < a.link_samples.size(); ++i) {
    EXPECT_EQ(a.link_samples[i].node_a, b.link_samples[i].node_a);
    EXPECT_EQ(a.link_samples[i].label, b.link_samples[i].label);
  }
  ASSERT_EQ(a.node_samples.size(), b.node_samples.size());
  // Derived state rebuilt identically.
  EXPECT_EQ(a.graph.graph.num_nodes(), b.graph.graph.num_nodes());
  EXPECT_EQ(a.link_graph.num_edges(), b.link_graph.num_edges());
  ASSERT_EQ(a.placement.device_center.size(), b.placement.device_center.size());
  for (std::size_t i = 0; i < a.placement.device_center.size(); ++i)
    EXPECT_EQ(a.placement.device_center[i].x, b.placement.device_center[i].x);
}

TEST(DatasetCache, SaveLoadRoundTrip) {
  const DatasetOptions options = options_fixture();
  const CircuitDataset original = build_dataset(gen::DatasetId::kTimingControl, options);
  const std::string path = temp_dir() + "/roundtrip.cgds";
  save_dataset(original, path);
  const CircuitDataset loaded = load_dataset(path, options);
  expect_equal_datasets(original, loaded);
  std::filesystem::remove(path);
}

TEST(DatasetCache, CachedBuildHitsAndMatches) {
  const DatasetOptions options = options_fixture();
  const std::string dir = temp_dir() + "/hits";
  std::filesystem::remove_all(dir);
  const CircuitDataset first =
      build_dataset_cached(gen::DatasetId::kTimingControl, options, dir);
  // Second call must read the file written by the first.
  ASSERT_FALSE(std::filesystem::is_empty(dir));
  const CircuitDataset second =
      build_dataset_cached(gen::DatasetId::kTimingControl, options, dir);
  expect_equal_datasets(first, second);
  std::filesystem::remove_all(dir);
}

TEST(DatasetCache, KeyChangesWithOptions) {
  DatasetOptions a = options_fixture();
  DatasetOptions b = a;
  b.seed = 78;
  DatasetOptions c = a;
  c.extraction.pin_radius *= 2;
  const auto id = gen::DatasetId::kSsram;
  EXPECT_NE(dataset_cache_key(id, a), dataset_cache_key(id, b));
  EXPECT_NE(dataset_cache_key(id, a), dataset_cache_key(id, c));
  EXPECT_EQ(dataset_cache_key(id, a), dataset_cache_key(id, a));
  EXPECT_NE(dataset_cache_key(gen::DatasetId::kSsram, a),
            dataset_cache_key(gen::DatasetId::kUltra8t, a));
}

TEST(DatasetCache, CorruptFileFallsBackToBuild) {
  const DatasetOptions options = options_fixture();
  const std::string dir = temp_dir() + "/corrupt";
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" + dataset_cache_key(gen::DatasetId::kTimingControl, options);
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  const CircuitDataset ds = build_dataset_cached(gen::DatasetId::kTimingControl, options, dir);
  EXPECT_GT(ds.netlist.num_devices(), 0);
  std::filesystem::remove_all(dir);
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Every record count the cache sizes a container from, patched to 2^40 in a
// saved cache, must be rejected with std::runtime_error before anything is
// allocated (not std::bad_alloc). The counts sit at fixed distances from the
// end of the file: each is followed by its records (on-disk sizes: pin 8,
// link 20, ground cap 8, link sample 24, node sample 12) and what comes after.
TEST(DatasetCache, OversizedCountsThrow) {
  const DatasetOptions options = options_fixture();
  const CircuitDataset ds = build_dataset(gen::DatasetId::kTimingControl, options);
  const std::string path = temp_dir() + "/counts.cgds";
  save_dataset(ds, path);
  const std::vector<char> saved = read_bytes(path);
  ASSERT_FALSE(ds.netlist.devices().empty());

  struct Count {
    const char* what;
    std::uint64_t n;
    std::size_t record;
  };
  // Last to first, as they sit before the end of the file.
  const Count counts[] = {
      {"node samples", ds.node_samples.size(), 12},
      {"link samples", ds.link_samples.size(), 24},
      {"pin ground caps", ds.extraction.pin_ground_cap.size(), 8},
      {"net ground caps", ds.extraction.net_ground_cap.size(), 8},
      {"links", ds.extraction.links.size(), 20},
      {"last device's pins", ds.netlist.devices().back().pins.size(), 8},
  };
  std::size_t end = saved.size();
  for (const Count& c : counts) {
    const std::size_t at = end - c.n * c.record - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, saved.data() + at, sizeof(stored));
    ASSERT_EQ(stored, c.n) << c.what;
    std::vector<char> bytes = saved;
    const std::uint64_t huge = std::uint64_t{1} << 40;
    std::memcpy(bytes.data() + at, &huge, sizeof(huge));
    write_bytes(path, bytes);
    EXPECT_THROW(load_dataset(path, options), std::runtime_error) << c.what;
    end = at;
  }
  std::filesystem::remove(path);
}

TEST(DatasetCache, BadMagicThrows) {
  const std::string path = temp_dir() + "/bad.cgds";
  {
    std::ofstream out(path, std::ios::binary);
    out << "XXXXYYYY";
  }
  EXPECT_THROW(load_dataset(path, options_fixture()), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cgps
