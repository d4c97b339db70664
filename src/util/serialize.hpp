// Minimal binary serialization used for model checkpoints (pre-train once,
// fine-tune later) and dataset caches. Little-endian POD framing with a magic
// header and explicit sizes; no versioned schema evolution needed here. The
// reader bounds every length prefix by the bytes left in the file, so a
// corrupt prefix throws std::runtime_error instead of allocating.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cgps {

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_vector(const std::vector<float>& v);
  void write_i64_vector(const std::vector<std::int64_t>& v);
  void write_i8_vector(const std::vector<std::int8_t>& v);

 private:
  void write_raw(const void* data, std::size_t n);
  std::ofstream out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vector();
  std::vector<std::int64_t> read_i64_vector();
  std::vector<std::int8_t> read_i8_vector();
  // Reads a u64 element count and rejects it unless that many elements of
  // `elem_size` bytes fit in the bytes left. Callers that size a container
  // from a count of records pass the record's on-disk size.
  std::uint64_t read_length(std::size_t elem_size);

 private:
  void read_raw(void* data, std::size_t n);
  std::ifstream in_;
  std::uint64_t remaining_ = 0;  // bytes not yet read
};

}  // namespace cgps
