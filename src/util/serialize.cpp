#include "util/serialize.hpp"

namespace cgps {

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("BinaryWriter: cannot open " + path);
}

void BinaryWriter::write_raw(const void* data, std::size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out_) throw std::runtime_error("BinaryWriter: write failed");
}

void BinaryWriter::write_u32(std::uint32_t v) { write_raw(&v, sizeof(v)); }
void BinaryWriter::write_u64(std::uint64_t v) { write_raw(&v, sizeof(v)); }
void BinaryWriter::write_f32(float v) { write_raw(&v, sizeof(v)); }
void BinaryWriter::write_f64(double v) { write_raw(&v, sizeof(v)); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_raw(s.data(), s.size());
}

void BinaryWriter::write_f32_vector(const std::vector<float>& v) {
  write_u64(v.size());
  if (!v.empty()) write_raw(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::write_i64_vector(const std::vector<std::int64_t>& v) {
  write_u64(v.size());
  if (!v.empty()) write_raw(v.data(), v.size() * sizeof(std::int64_t));
}

void BinaryWriter::write_i8_vector(const std::vector<std::int8_t>& v) {
  write_u64(v.size());
  if (!v.empty()) write_raw(v.data(), v.size());
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary | std::ios::ate) {
  if (!in_) throw std::runtime_error("BinaryReader: cannot open " + path);
  const std::streamoff size = in_.tellg();
  in_.seekg(0);
  if (size < 0 || !in_) throw std::runtime_error("BinaryReader: cannot size " + path);
  remaining_ = static_cast<std::uint64_t>(size);
}

void BinaryReader::read_raw(void* data, std::size_t n) {
  if (n > remaining_) throw std::runtime_error("BinaryReader: truncated read");
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (!in_) throw std::runtime_error("BinaryReader: truncated read");
  remaining_ -= n;
}

// A corrupt prefix must fail here, before the caller allocates n elements.
// Dividing the bytes left (rather than multiplying n) cannot overflow.
std::uint64_t BinaryReader::read_length(std::size_t elem_size) {
  const std::uint64_t n = read_u64();
  if (n > remaining_ / elem_size)
    throw std::runtime_error("BinaryReader: length prefix " + std::to_string(n) + " exceeds the " +
                             std::to_string(remaining_) + " bytes left");
  return n;
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
float BinaryReader::read_f32() {
  float v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
double BinaryReader::read_f64() {
  double v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_length(1);
  std::string s(n, '\0');
  if (n > 0) read_raw(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::read_f32_vector() {
  const std::uint64_t n = read_length(sizeof(float));
  std::vector<float> v(n);
  if (n > 0) read_raw(v.data(), n * sizeof(float));
  return v;
}

std::vector<std::int64_t> BinaryReader::read_i64_vector() {
  const std::uint64_t n = read_length(sizeof(std::int64_t));
  std::vector<std::int64_t> v(n);
  if (n > 0) read_raw(v.data(), n * sizeof(std::int64_t));
  return v;
}

std::vector<std::int8_t> BinaryReader::read_i8_vector() {
  const std::uint64_t n = read_length(1);
  std::vector<std::int8_t> v(n);
  if (n > 0) read_raw(v.data(), n);
  return v;
}

}  // namespace cgps
