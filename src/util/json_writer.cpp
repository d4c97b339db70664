#include "util/json_writer.hpp"

#include "util/logging.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cgps {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c) & 0xFF);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!counts_.empty()) {
    if (counts_.back() > 0) out_ += ',';
    ++counts_.back();
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  counts_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  counts_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (!counts_.empty() && counts_.back() > 0) out_ += ',';
  if (!counts_.empty()) ++counts_.back();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

const JsonValue* JsonValue::find(std::string_view k) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object)
    if (name == k) return &value;
  return nullptr;
}

namespace {

// Recursive-descent JSON parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!parse_value(v, 0)) {
      if (error) *error = error_.empty() ? "parse error" : error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error) *error = "trailing characters at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& msg) {
    if (error_.empty()) error_ = msg + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  static void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad hex digit in \\u escape");
      }
    }
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control char in string");
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
              return fail("unpaired surrogate");
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!parse_hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    eat('-');
    // JSON forbids leading zeros: "0" is the only integer part starting '0'.
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
      return fail("leading zero in number");
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

JsonlFile::JsonlFile(std::string path, std::int64_t max_bytes)
    : path_(std::move(path)), max_bytes_(max_bytes) {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ != nullptr) {
    // "ab" positions at end-of-file; the offset is the current size.
    const long pos = std::ftell(file_);
    bytes_ = pos > 0 ? static_cast<std::int64_t>(pos) : 0;
  }
}

JsonlFile::~JsonlFile() {
  if (file_ != nullptr) std::fclose(file_);
}

bool rotate_file(const std::string& path, const std::string& rotated,
                 std::string* detail, bool allow_rename) {
  // A failed remove only matters if the stale target then blocks the rename
  // or copy below; ENOENT (nothing to remove) is the common, harmless case.
  std::remove(rotated.c_str());
  if (allow_rename && std::rename(path.c_str(), rotated.c_str()) == 0) return true;

  // rename fails across filesystems (EXDEV) and on blocked targets: fall
  // back to streaming the bytes over, then truncating the source.
  std::FILE* src = std::fopen(path.c_str(), "rb");
  if (src == nullptr) {
    if (detail) *detail = "cannot reopen " + path + " for copy";
    return false;
  }
  bool copied = false;
  std::FILE* dst = std::fopen(rotated.c_str(), "wb");
  if (dst == nullptr) {
    if (detail) *detail = "cannot create " + rotated;
  } else {
    copied = true;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), src)) > 0) {
      if (std::fwrite(buf, 1, n, dst) != n) {
        copied = false;
        break;
      }
    }
    if (std::ferror(src)) copied = false;
    if (std::fclose(dst) != 0) copied = false;
    if (!copied && detail) *detail = "short copy into " + rotated;
  }
  std::fclose(src);
  // Truncate the source even when the copy failed: the size cap is the
  // contract, and the caller is told (via `false`) that the old records
  // were lost rather than preserved.
  std::FILE* trunc = std::fopen(path.c_str(), "wb");
  if (trunc != nullptr) {
    std::fclose(trunc);
  } else {
    copied = false;
    if (detail && detail->empty()) *detail = "cannot truncate " + path;
  }
  return copied;
}

void JsonlFile::write_line(std::string_view line) {
  if (file_ == nullptr) return;
  const std::scoped_lock lock(mu_);
  const std::int64_t incoming = static_cast<std::int64_t>(line.size()) + 1;
  if (max_bytes_ > 0 && bytes_ > 0 && bytes_ + incoming > max_bytes_) {
    std::fclose(file_);
    std::string detail;
    if (!rotate_file(path_, path_ + ".1", &detail)) {
      log_warn("run-log rotation of ", path_, " failed (", detail,
               "); older records were dropped to hold the size cap");
    }
    file_ = std::fopen(path_.c_str(), "ab");
    bytes_ = 0;
    if (file_ == nullptr) return;
  }
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
  bytes_ += incoming;
}

EnvJsonlSink& EnvJsonlSink::process_lifetime(const Spec& spec) {
  return *new EnvJsonlSink(spec);
}

void EnvJsonlSink::write_line(std::string_view line) {
  const std::string path = spec_.path();
  const std::scoped_lock lock(mu_);
  if (path.empty()) {
    file_.reset();
    path_.clear();
    return;
  }
  if (path_ != path) {
    path_ = path;
    file_ = std::make_unique<JsonlFile>(path_, spec_.max_bytes ? spec_.max_bytes() : 0);
    if (!file_->ok()) {
      log_warn(spec_.var, ": cannot open ", path_, "; ", spec_.stream, " disabled");
      file_.reset();
    } else if (spec_.header) {
      file_->write_line(spec_.header());
    }
  }
  if (file_) file_->write_line(line);
}

}  // namespace cgps
