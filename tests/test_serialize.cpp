#include "util/serialize.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

namespace cgps {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundTripAllTypes) {
  const std::string path = temp_path("cgps_serialize_test.bin");
  {
    BinaryWriter w(path);
    w.write_u32(0xDEADBEEF);
    w.write_u64(1234567890123ULL);
    w.write_f32(3.5f);
    w.write_f64(-2.25);
    w.write_string("hello world");
    w.write_f32_vector({1.0f, 2.0f, 3.0f});
    w.write_i64_vector({-1, 0, 42});
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 1234567890123ULL);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.5f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_f32_vector(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(r.read_i64_vector(), (std::vector<std::int64_t>{-1, 0, 42}));
  std::filesystem::remove(path);
}

TEST(Serialize, EmptyVectorsAndStrings) {
  const std::string path = temp_path("cgps_serialize_empty.bin");
  {
    BinaryWriter w(path);
    w.write_string("");
    w.write_f32_vector({});
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.read_f32_vector().empty());
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedReadThrows) {
  const std::string path = temp_path("cgps_serialize_trunc.bin");
  {
    BinaryWriter w(path);
    w.write_u32(1);
  }
  BinaryReader r(path);
  r.read_u32();
  EXPECT_THROW(r.read_u64(), std::runtime_error);
  std::filesystem::remove(path);
}

// Writes one length-prefixed record through `write`, overwrites its u64
// length prefix with `prefix` and expects `read` to throw
// std::runtime_error: a corrupt prefix must be rejected before the reader
// allocates, not end in std::bad_alloc.
template <typename Write, typename Read>
void expect_prefix_rejected(const char* name, std::uint64_t prefix, Write write, Read read) {
  const std::string path = temp_path(name);
  {
    BinaryWriter w(path);
    write(w);
  }
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.write(reinterpret_cast<const char*>(&prefix), sizeof(prefix));
  }
  BinaryReader r(path);
  EXPECT_THROW(read(r), std::runtime_error) << name << " prefix " << prefix;
  std::filesystem::remove(path);
}

constexpr std::uint64_t kHugeLength = std::uint64_t{1} << 40;

TEST(Serialize, OversizedStringLengthThrows) {
  expect_prefix_rejected(
      "cgps_serialize_huge_string.bin", kHugeLength,
      [](BinaryWriter& w) { w.write_string("abc"); }, [](BinaryReader& r) { r.read_string(); });
}

TEST(Serialize, OversizedF32LengthThrows) {
  const auto write = [](BinaryWriter& w) { w.write_f32_vector({1.0f, 2.0f}); };
  const auto read = [](BinaryReader& r) { r.read_f32_vector(); };
  expect_prefix_rejected("cgps_serialize_huge_f32.bin", kHugeLength, write, read);
  // 2^62 floats are 2^64 bytes: a bound that multiplied would wrap to 0.
  expect_prefix_rejected("cgps_serialize_huge_f32.bin", std::uint64_t{1} << 62, write, read);
}

TEST(Serialize, OversizedI64LengthThrows) {
  expect_prefix_rejected(
      "cgps_serialize_huge_i64.bin", kHugeLength,
      [](BinaryWriter& w) { w.write_i64_vector({-1, 42}); },
      [](BinaryReader& r) { r.read_i64_vector(); });
}

TEST(Serialize, OversizedI8LengthThrows) {
  expect_prefix_rejected(
      "cgps_serialize_huge_i8.bin", kHugeLength,
      [](BinaryWriter& w) { w.write_i8_vector({-3, 7}); },
      [](BinaryReader& r) { r.read_i8_vector(); });
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/path/file.bin"), std::runtime_error);
}

}  // namespace
}  // namespace cgps
