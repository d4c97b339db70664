// Streaming JSON/JSONL emission and a minimal parser for validating emitted
// documents. The writer manages commas and escaping so call sites stay
// declarative; the parser exists for tests and smoke checks (round-tripping
// our own telemetry), not as a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cgps {

// Escape a UTF-8 string for inclusion inside a JSON string literal
// (quotes, backslashes, and control characters < 0x20).
std::string json_escape(std::string_view s);

// Incremental JSON document builder. Commas are inserted automatically;
// keys are only legal directly inside an object. Non-finite doubles are
// emitted as null (JSON has no NaN/Inf).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::uint64_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null_value();

  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  JsonWriter& null_field(std::string_view k) {
    key(k);
    return null_value();
  }

  // Splice a pre-rendered JSON value (object/array/scalar) in value position.
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  void before_value();
  std::string out_;
  // One entry per open container: number of items emitted so far.
  std::vector<std::int64_t> counts_;
  bool pending_key_ = false;
};

// Parsed JSON value (tagged union). Object member order is preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }
};

// Strict-ish recursive-descent parse of a full JSON document (trailing
// whitespace allowed, trailing garbage rejected). Returns nullopt and fills
// `error` (if given) on malformed input.
std::optional<JsonValue> json_parse(std::string_view text, std::string* error = nullptr);

// Move `path` to `rotated` for log rotation: remove any stale `rotated`,
// then rename; when rename fails (EXDEV across filesystems, or a blocked
// target) fall back to copy-then-truncate so the source keeps honoring a
// size cap. Returns false — with a human-readable reason in `detail` — only
// when the old contents could not be preserved; the source file is truncated
// even then, because an unbounded log is the worse failure. `allow_rename =
// false` forces the copy fallback (used by tests to exercise that path).
bool rotate_file(const std::string& path, const std::string& rotated,
                 std::string* detail = nullptr, bool allow_rename = true);

// Append-mode JSONL sink: one record per line, flushed per line so partial
// runs still leave a readable log. Thread-safe per line. With a non-zero
// `max_bytes`, a write that would push the file past the cap first rotates
// it to `<path>.1` (replacing any previous rotation, falling back to
// copy+truncate when rename fails — see rotate_file) and restarts the file,
// so long sweeps keep a bounded, always-fresh tail. Rotation failures are
// reported through util/logging, never by growing past the cap.
class JsonlFile {
 public:
  explicit JsonlFile(std::string path, std::int64_t max_bytes = 0);
  ~JsonlFile();
  JsonlFile(const JsonlFile&) = delete;
  JsonlFile& operator=(const JsonlFile&) = delete;

  bool ok() const { return file_ != nullptr; }
  void write_line(std::string_view line);

 private:
  std::mutex mu_;
  std::string path_;
  std::FILE* file_ = nullptr;
  std::int64_t max_bytes_ = 0;
  std::int64_t bytes_ = 0;  // current file size (tracked for rotation)
};

// A JSONL stream at the path an environment variable names, read afresh on
// every write so tests can retarget it: the file is reopened when the path
// changes and closed when the variable is unset, and a path that cannot be
// opened warns once. The span trace and the serve access log both use one.
class EnvJsonlSink {
 public:
  struct Spec {
    const char* var;                        // named in the open warning
    std::string (*path)();                  // reads `var` (util/env)
    const char* stream;                     // "<stream> disabled" in the warning
    std::int64_t (*max_bytes)() = nullptr;  // rotation cap of each opened file
    std::string (*header)() = nullptr;      // first line of each opened file
  };

  // A sink that is never destroyed: records still arrive from destructors
  // that run while statics are destroyed, after a static sink would be gone.
  static EnvJsonlSink& process_lifetime(const Spec& spec);

  // Append one line to the file the variable names now, if it is open.
  void write_line(std::string_view line);

 private:
  explicit EnvJsonlSink(const Spec& spec) : spec_(spec) {}

  const Spec spec_;
  std::mutex mu_;
  std::string path_;  // path the current file (or failure) corresponds to
  std::unique_ptr<JsonlFile> file_;
};

}  // namespace cgps
