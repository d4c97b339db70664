#include "util/lint/scan.hpp"

#include "util/parallel.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace cgps::lint {

namespace fs = std::filesystem;

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

LexResult lex(std::string_view text) {
  LexResult r;
  r.stripped.assign(text.begin(), text.end());
  std::string& s = r.stripped;
  const std::size_t n = text.size();
  int line = 1;
  std::size_t i = 0;
  const auto blank = [&](std::size_t j) {
    if (s[j] != '\n') s[j] = ' ';
  };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
    } else if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') blank(i++);
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      blank(i);
      blank(i + 1);
      i += 2;
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        blank(i++);
      }
      if (i < n) {
        blank(i);
        blank(i + 1);
        i += 2;
      }
    } else if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
               (i == 0 || !is_ident_char(text[i - 1]))) {
      // Raw string literal R"delim( ... )delim".
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && text[p] != '(' && text[p] != '\n') delim += text[p++];
      const std::string close = ")" + delim + "\"";
      const std::size_t body = p < n ? p + 1 : n;
      std::size_t end = text.find(close, body);
      if (end == std::string_view::npos) end = n;
      Literal lit;
      lit.start = i + 1;  // the opening quote
      lit.line = line;
      lit.value.assign(text.substr(body, end - body));
      const std::size_t stop = std::min(end + close.size(), n);
      lit.end = stop > 0 ? stop - 1 : 0;
      for (std::size_t j = i + 2; j < std::min(end + close.size() - 1, n); ++j) {
        if (text[j] == '\n')
          ++line;
        else
          blank(j);
      }
      r.literals.push_back(std::move(lit));
      i = stop;
    } else if (c == '"' || (c == '\'' && (i == 0 || !is_ident_char(text[i - 1])))) {
      const char quote = c;
      Literal lit;
      lit.start = i;
      lit.line = line;
      std::size_t j = i + 1;
      while (j < n && text[j] != quote && text[j] != '\n') {
        if (text[j] == '\\' && j + 1 < n && text[j + 1] != '\n') {
          lit.value += text[j];
          lit.value += text[j + 1];
          blank(j);
          blank(j + 1);
          j += 2;
        } else {
          lit.value += text[j];
          blank(j++);
        }
      }
      lit.end = j < n ? j : n - 1;
      if (quote == '"') r.literals.push_back(std::move(lit));
      i = j < n ? j + 1 : n;
    } else {
      ++i;
    }
  }
  return r;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::vector<FileUnit> scan_tree(const std::string& root, std::string* error) {
  const fs::path root_path(root);
  std::error_code ec;

  // Deterministic file order: collect, then sort by relative path.
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    const fs::path sub = root_path / dir;
    if (!fs::is_directory(sub, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(sub, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h")
        files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());

  // Read + lex in parallel: each index owns its slot, so the result vector
  // is identical at any thread count. Reads that fail surface through a
  // per-slot empty `rel`; the first failing path (in sorted order) wins the
  // error message.
  std::vector<FileUnit> units(files.size());
  std::vector<char> failed(files.size(), 0);
  par::parallel_for(0, static_cast<std::int64_t>(files.size()), 1,
                    [&](std::int64_t b, std::int64_t e) {
                      for (std::int64_t idx = b; idx < e; ++idx) {
                        const auto u = static_cast<std::size_t>(idx);
                        FileUnit& f = units[u];
                        std::error_code rel_ec;
                        f.rel = fs::relative(files[u], root_path, rel_ec).generic_string();
                        if (rel_ec) f.rel = files[u].generic_string();
                        if (!read_file(files[u].string(), f.raw)) {
                          failed[u] = 1;
                          continue;
                        }
                        f.lexed = lex(f.raw);
                        f.starts = line_starts(f.raw);
                        const std::string ext = files[u].extension().string();
                        f.is_header = ext == ".hpp" || ext == ".h";
                        f.is_test = f.rel.rfind("tests/", 0) == 0;
                      }
                    });
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (failed[u] != 0) {
      if (error != nullptr && error->empty()) *error = "cannot read " + units[u].rel;
      return {};
    }
  }
  return units;
}

std::string trim_copy(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::size_t> line_starts(std::string_view text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  return starts;
}

int line_of(const std::vector<std::size_t>& starts, std::size_t offset) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), offset);
  return static_cast<int>(it - starts.begin());
}

std::string line_text(std::string_view text, const std::vector<std::size_t>& starts,
                      int line) {
  const std::size_t b = starts[static_cast<std::size_t>(line - 1)];
  const std::size_t e = text.find('\n', b);
  return trim_copy(text.substr(b, e == std::string_view::npos ? e : e - b));
}

std::vector<std::size_t> token_offsets(std::string_view text, std::string_view token) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t after = pos + token.size();
    const bool right_ok = after >= text.size() || !is_ident_char(text[after]);
    if (left_ok && right_ok) out.push_back(pos);
    pos = after;
  }
  return out;
}

std::size_t skip_ws(std::string_view text, std::size_t i) {
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  return i;
}

std::vector<Row> rows_of(std::string_view text) {
  std::vector<Row> rows;
  int line = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    ++line;
    const std::size_t eol = text.find('\n', pos);
    std::string row = trim_copy(
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos));
    if (!row.empty() && row[0] != '#') rows.push_back({line, std::move(row)});
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return rows;
}

std::string table_key(const std::string& row) {
  if (row.size() <= 3 || row[0] != '|') return "";
  const std::size_t tick = row.find('`');
  if (tick == std::string::npos || row.find_first_not_of("| ") != tick) return "";
  const std::size_t close = row.find('`', tick + 1);
  return close == std::string::npos ? "" : row.substr(tick + 1, close - tick - 1);
}

void add_finding(std::vector<Finding>& out, const FileUnit& f, int line, std::string rule,
                 std::string message) {
  add_finding(out, f.rel, line, std::move(rule), std::move(message));
  if (line > 0) out.back().excerpt = line_text(f.raw, f.starts, line);
}

void add_finding(std::vector<Finding>& out, std::string file, int line, std::string rule,
                 std::string message) {
  Finding v;
  v.file = std::move(file);
  v.line = line;
  v.rule = std::move(rule);
  v.message = std::move(message);
  out.push_back(std::move(v));
}

void cross_check(const std::map<std::string, SourceRef>& used,
                 const std::map<std::string, int>& listed, const std::string& list_file,
                 const std::string& unlisted_rule, const MessageOf& unlisted_message,
                 const std::string& unused_rule, const MessageOf& unused_message,
                 std::vector<Finding>& out) {
  for (const auto& [name, ref] : used)
    if (listed.count(name) == 0)
      add_finding(out, ref.file, ref.line, unlisted_rule, unlisted_message(name));
  for (const auto& [name, line] : listed)
    if (used.count(name) == 0) add_finding(out, list_file, line, unused_rule, unused_message(name));
}

}  // namespace cgps::lint
