// Source-tree scanner for cgps_lint. One scan of the tree — collect, sort,
// read, and lex every C++ file under src/, tools/, bench/, examples/, and
// tests/ — feeds both the per-line invariant rules (lint.cpp) and the
// whole-program include graph analysis (include_graph.cpp), so the two rule
// families never disagree about what a comment or a string literal is. Both
// families also read their manifests and document tables through one row
// reader (rows_of), build findings through one add_finding, and check every
// "code <-> list" registry through one cross_check.
//
// Lexing is offset-preserving: the stripped text has comments and literal
// contents blanked with spaces but keeps every byte and newline in place,
// so offsets computed on the stripped text index straight into the raw
// text. Files are lexed in parallel over util/parallel; the returned order
// is the sorted relative-path order regardless of thread count.
#pragma once

#include "util/lint/lint.hpp"

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cgps::lint {

bool is_ident_char(char c);

// One string/char literal found by the lexer. `start` is the opening
// quote's byte offset in the file, `end` the closing quote's; `value` is
// the raw content between them (escapes unprocessed — the rules only
// substring-match).
struct Literal {
  std::size_t start = 0;
  std::size_t end = 0;
  int line = 0;
  std::string value;
};

struct LexResult {
  std::string stripped;
  std::vector<Literal> literals;
};

// Single pass that blanks comment and literal contents (offset-preserving)
// while collecting the literals. Quotes themselves survive in the stripped
// text so call-shape checks can still see where a literal argument starts.
LexResult lex(std::string_view text);

// One scanned file, ready for rule evaluation.
struct FileUnit {
  std::string rel;  // path relative to the scanned root, '/'-separated
  std::string raw;
  LexResult lexed;
  std::vector<std::size_t> starts;  // line-start offsets (line_of/line_text)
  bool is_header = false;
  bool is_test = false;  // under tests/
};

// Read `path` in binary mode into `out`; false when unreadable.
bool read_file(const std::string& path, std::string& out);

// Scan a repo root: every .cpp/.hpp/.cc/.h under src/, tools/, bench/,
// examples/, and tests/, sorted by path, read and lexed (in parallel).
// On an unreadable file, `error` gets a message and the scan is aborted.
std::vector<FileUnit> scan_tree(const std::string& root, std::string* error);

// --- text helpers shared by the rule implementations ---------------------

std::string trim_copy(std::string_view s);

// Byte offset -> 1-based line number lookup table.
std::vector<std::size_t> line_starts(std::string_view text);
int line_of(const std::vector<std::size_t>& starts, std::size_t offset);
std::string line_text(std::string_view text, const std::vector<std::size_t>& starts,
                      int line);

// Offsets of `token` in `text` with identifier boundaries on both sides.
std::vector<std::size_t> token_offsets(std::string_view text, std::string_view token);

std::size_t skip_ws(std::string_view text, std::size_t i);

// --- manifests, document tables, findings --------------------------------

// One row of a manifest or a markdown document: a trimmed line that is
// neither blank nor a `#` line, with its 1-based line number.
struct Row {
  int line = 0;
  std::string text;
};
std::vector<Row> rows_of(std::string_view text);

// The backticked first cell of a markdown table row (`| \`NAME\` | ... |`),
// or "" when the row has none.
std::string table_key(const std::string& row);

// A finding at a line of a scanned file, with that line as its excerpt
// (line 0 = the whole file, no excerpt).
void add_finding(std::vector<Finding>& out, const FileUnit& f, int line, std::string rule,
                 std::string message);
// A finding without an excerpt: at a manifest or document row, or at a
// code site a cross-check names.
void add_finding(std::vector<Finding>& out, std::string file, int line, std::string rule,
                 std::string message);

// Where code first used a name, for cross-check findings.
struct SourceRef {
  std::string file;
  int line = 0;
};

// The two-way check of a list against the code. A name in `used` that is not
// `listed` is reported at its first use under `unlisted_rule`; then a listed
// name no code uses is reported at its row of `list_file` under
// `unused_rule`. Both passes walk names in sorted order.
using MessageOf = std::function<std::string(const std::string& name)>;
void cross_check(const std::map<std::string, SourceRef>& used,
                 const std::map<std::string, int>& listed, const std::string& list_file,
                 const std::string& unlisted_rule, const MessageOf& unlisted_message,
                 const std::string& unused_rule, const MessageOf& unused_message,
                 std::vector<Finding>& out);

}  // namespace cgps::lint
