#include "util/lint/lint.hpp"

#include "util/json_writer.hpp"
#include "util/lint/include_graph.hpp"
#include "util/lint/scan.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

namespace cgps::lint {

namespace {

namespace fs = std::filesystem;

// --- rule: getenv-outside-env -------------------------------------------
void check_getenv(const FileUnit& f, std::vector<Finding>& out) {
  if (f.rel == "src/util/env.cpp") return;
  for (const std::size_t pos : token_offsets(f.lexed.stripped, "getenv")) {
    add_finding(out, f, line_of(f.starts, pos), "getenv-outside-env",
                "environment access must go through util/env (strict parsing, "
                "warn-once); src/util/env.cpp is the only allowed getenv site");
  }
}

// --- rule: naked-new ----------------------------------------------------
void check_naked_new(const FileUnit& f, std::vector<Finding>& out) {
  if (f.is_test) return;
  const std::string_view s = f.lexed.stripped;
  for (const std::size_t pos : token_offsets(s, "new")) {
    const std::size_t next = skip_ws(s, pos + 3);
    if (next >= s.size() || (!is_ident_char(s[next]) && s[next] != '(')) continue;
    add_finding(out, f, line_of(f.starts, pos), "naked-new",
                "owning allocations use std::make_unique/containers; naked new "
                "needs an allowlist justification");
  }
  for (const std::size_t pos : token_offsets(s, "delete")) {
    // `= delete` (deleted functions) is not a deallocation.
    std::size_t prev = pos;
    while (prev > 0 && std::isspace(static_cast<unsigned char>(s[prev - 1]))) --prev;
    if (prev > 0 && s[prev - 1] == '=') continue;
    add_finding(out, f, line_of(f.starts, pos), "naked-new",
                "manual delete is banned in non-test code; use RAII owners");
  }
}

// --- rule: exec-kernel-alloc ----------------------------------------------
// Kernel backend TUs (src/exec/backend_*.cpp) execute inside the plan
// executor's hot path: every buffer they touch was carved from the arena at
// bind time, so the whole TU must stay allocation-free — no heap calls and
// no owning containers (DESIGN.md §10). `new`/`delete` are already covered
// by naked-new; this rule catches the indirect allocators.
void check_exec_alloc(const FileUnit& f, std::vector<Finding>& out) {
  if (f.rel.rfind("src/exec/backend_", 0) != 0) return;
  for (const std::string_view token :
       {std::string_view("malloc"), std::string_view("calloc"), std::string_view("realloc"),
        std::string_view("free"), std::string_view("push_back"),
        std::string_view("emplace_back"), std::string_view("resize"),
        std::string_view("reserve"), std::string_view("make_unique"),
        std::string_view("make_shared"), std::string_view("vector"),
        std::string_view("string"), std::string_view("deque"), std::string_view("map"),
        std::string_view("unordered_map")}) {
    for (const std::size_t pos : token_offsets(f.lexed.stripped, token)) {
      add_finding(out, f, line_of(f.starts, pos), "exec-kernel-alloc",
                  "kernel backends are arena-only: `" + std::string(token) +
                      "` allocates or owns storage on the executor hot path "
                      "(kernels take caller-carved pointers)");
    }
  }
}

// --- rule: no-cout-outside-tools ------------------------------------------
// Library code (src/) must not write to stdout: user-facing text belongs to
// the CLIs (tools/, bench/, examples/) and diagnostics go through
// util/logging, which writes to stderr. A stray std::cout in a library TU
// corrupts machine-read stdout (bench JSON captures, piped tool output).
// Only the qualified name is flagged — a local identifier `cout` is legal.
void check_cout(const FileUnit& f, std::vector<Finding>& out) {
  if (f.rel.rfind("src/", 0) != 0) return;
  const std::string_view s = f.lexed.stripped;
  for (const std::size_t pos : token_offsets(s, "cout")) {
    std::size_t p = pos;
    while (p > 0 && std::isspace(static_cast<unsigned char>(s[p - 1]))) --p;
    if (p < 2 || s[p - 1] != ':' || s[p - 2] != ':') continue;
    p -= 2;
    while (p > 0 && std::isspace(static_cast<unsigned char>(s[p - 1]))) --p;
    if (p < 3 || s.compare(p - 3, 3, "std") != 0) continue;
    if (p > 3 && is_ident_char(s[p - 4])) continue;
    add_finding(out, f, line_of(f.starts, pos), "no-cout-outside-tools",
                "library code must not write to stdout; use util/logging "
                "(stderr) or move the print into a tools//bench CLI");
  }
}

// --- rule: header hygiene -----------------------------------------------
void check_headers(const FileUnit& f, std::vector<Finding>& out) {
  if (!f.is_header) return;
  if (f.raw.find("#pragma once") == std::string::npos)
    add_finding(out, f, 0, "header-pragma-once", "header is missing #pragma once");
  std::size_t pos = 0;
  const std::string_view s = f.lexed.stripped;
  while ((pos = s.find("using namespace", pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    if (left_ok)
      add_finding(out, f, line_of(f.starts, pos), "header-using-namespace",
                  "`using namespace` in a header leaks into every includer");
    pos += 15;
  }
}

// --- rules: metric-key-format / metric-key-registry ---------------------
// Shared extraction: every literal name handed to the metrics registry or
// TraceSpan as the whole first argument. Computed names (any non-literal
// first argument, or a literal spliced with +) are skipped — the histogram
// registry prefixes "trace." itself and per-layer span names are built at
// runtime.
template <typename Fn>
void for_each_instrument_literal(const FileUnit& f, Fn&& fn) {
  const std::string_view s = f.lexed.stripped;
  const auto literal_at = [&](std::size_t offset) -> const Literal* {
    for (const Literal& lit : f.lexed.literals)
      if (lit.start == offset) return &lit;
    return nullptr;
  };
  for (const std::string_view token :
       {std::string_view("metric_counter"), std::string_view("metric_gauge"),
        std::string_view("metric_histogram"), std::string_view("TraceSpan")}) {
    for (const std::size_t pos : token_offsets(s, token)) {
      std::size_t i = skip_ws(s, pos + token.size());
      // Allow one identifier between the type and the paren: `TraceSpan span(`.
      if (i < s.size() && is_ident_char(s[i])) {
        while (i < s.size() && is_ident_char(s[i])) ++i;
        i = skip_ws(s, i);
      }
      if (i >= s.size() || s[i] != '(') continue;
      i = skip_ws(s, i + 1);
      const Literal* lit = i < s.size() && s[i] == '"' ? literal_at(i) : nullptr;
      if (lit == nullptr) continue;
      const std::size_t after = skip_ws(s, lit->end + 1);
      if (after < s.size() && s[after] != ',' && s[after] != ')') continue;
      fn(*lit);
    }
  }
}

void check_metric_keys(const FileUnit& f, std::vector<Finding>& out) {
  for_each_instrument_literal(f, [&](const Literal& lit) {
    if (!is_dotted_metric_key(lit.value))
      add_finding(out, f, lit.line, "metric-key-format",
                  "instrument name \"" + lit.value +
                      "\" must be a dotted lowercase key like "
                      "\"sampling.extract\" (DESIGN.md §8)");
  });
}

void collect_metric_keys(const FileUnit& f, std::map<std::string, SourceRef>& refs) {
  for_each_instrument_literal(f, [&](const Literal& lit) {
    refs.emplace(lit.value, SourceRef{f.rel, lit.line});
  });
}

// --- rule: env-var table cross-check ------------------------------------
void collect_env_refs(const FileUnit& f, std::map<std::string, SourceRef>& refs) {
  for (const Literal& lit : f.lexed.literals) {
    const std::string_view v = lit.value;
    for (const std::string_view prefix :
         {std::string_view("CIRCUITGPS_"), std::string_view("CGPS_")}) {
      std::size_t pos = 0;
      while ((pos = v.find(prefix, pos)) != std::string_view::npos) {
        const bool left_ok = pos == 0 || !(std::isupper(static_cast<unsigned char>(
                                               v[pos - 1])) ||
                                           v[pos - 1] == '_' ||
                                           std::isdigit(static_cast<unsigned char>(
                                               v[pos - 1])));
        std::size_t end = pos + prefix.size();
        while (end < v.size() &&
               (std::isupper(static_cast<unsigned char>(v[end])) ||
                std::isdigit(static_cast<unsigned char>(v[end])) || v[end] == '_'))
          ++end;
        if (left_ok && end > pos + prefix.size()) {
          std::string name(v.substr(pos, end - pos));
          while (!name.empty() && name.back() == '_') name.pop_back();
          refs.emplace(std::move(name), SourceRef{f.rel, lit.line});
        }
        pos = end;
      }
    }
  }
}

}  // namespace

bool is_dotted_metric_key(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool saw_dot = false;
  char prev = '.';
  for (const char c : name) {
    if (c == '.') {
      if (prev == '.') return false;
      saw_dot = true;
    } else if (!(std::islower(static_cast<unsigned char>(c)) ||
                 std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
    prev = c;
  }
  return saw_dot;
}

std::string strip_comments_and_strings(std::string_view text) {
  return lex(text).stripped;
}

std::vector<AllowlistEntry> parse_allowlist(std::string_view text, std::string* error) {
  std::vector<AllowlistEntry> out;
  for (const Row& row : rows_of(text)) {
    std::istringstream ss(row.text);
    AllowlistEntry entry;
    entry.line_no = row.line;
    ss >> entry.rule >> entry.path_suffix;
    if (entry.path_suffix.empty()) {
      if (error != nullptr && error->empty())
        *error = "allowlist line " + std::to_string(row.line) +
                 ": want `<rule> <path-suffix> [line substring]`";
      continue;
    }
    std::string rest;
    std::getline(ss, rest);
    entry.needle = trim_copy(rest);
    out.push_back(std::move(entry));
  }
  return out;
}

LintReport run_lint(const LintOptions& options) {
  Stopwatch watch;
  LintReport report;
  std::error_code ec;
  if (!fs::is_directory(fs::path(options.root), ec)) {
    report.error = "not a directory: " + options.root;
    return report;
  }

  std::vector<AllowlistEntry> allow;
  if (!options.allowlist_path.empty()) {
    std::string text;
    if (!read_file(options.allowlist_path, text)) {
      report.error = "cannot read allowlist: " + options.allowlist_path;
      return report;
    }
    allow = parse_allowlist(text, &report.error);
    if (!report.error.empty()) return report;
  }

  const std::vector<FileUnit> units = scan_tree(options.root, &report.error);
  if (!report.error.empty()) return report;
  report.files_scanned = static_cast<int>(units.size());

  // Per-file rules are independent, so they run in parallel with one result
  // slot per file; the in-order merge below keeps findings (and the
  // first-reference winner of each cross-check name) identical at any
  // thread count.
  struct PerFile {
    std::vector<Finding> findings;
    std::map<std::string, SourceRef> env_refs;
    std::map<std::string, SourceRef> metric_refs;
  };
  std::vector<PerFile> slots(units.size());
  par::parallel_for(
      0, static_cast<std::int64_t>(units.size()), 1,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t idx = b; idx < e; ++idx) {
          const auto u = static_cast<std::size_t>(idx);
          const FileUnit& f = units[u];
          PerFile& slot = slots[u];
          check_getenv(f, slot.findings);
          check_naked_new(f, slot.findings);
          check_exec_alloc(f, slot.findings);
          check_cout(f, slot.findings);
          check_headers(f, slot.findings);
          check_metric_keys(f, slot.findings);
          // Tests are exempt: their literals name hypothetical variables and
          // throwaway instruments (the lint fixtures themselves,
          // strict-parsing probes) that would pollute the cross-checks both
          // ways.
          if (!f.is_test) {
            collect_env_refs(f, slot.env_refs);
            collect_metric_keys(f, slot.metric_refs);
          }
        }
      });
  std::map<std::string, SourceRef> env_refs;
  std::map<std::string, SourceRef> metric_refs;
  for (PerFile& slot : slots) {
    for (Finding& v : slot.findings) report.findings.push_back(std::move(v));
    for (auto& [name, ref] : slot.env_refs) env_refs.emplace(name, ref);
    for (auto& [name, ref] : slot.metric_refs) metric_refs.emplace(name, ref);
  }

  // The include-graph rule family (layering, cycles, include order, unused
  // includes, atomics discipline — see include_graph.hpp) runs over the
  // same scan, and the module DAG it builds is what --dot prints.
  {
    DepsReport deps = analyze_includes(units, options.root);
    if (!deps.error.empty()) {
      report.error = deps.error;
      return report;
    }
    for (Finding& v : deps.findings) report.findings.push_back(std::move(v));
    report.module_dot = render_dot(deps.edges);
  }

  // --- rule: metric-key-registry ----------------------------------------
  // When tools/cgps_metric_keys.txt exists, every literal instrument/span
  // name in non-test code must appear in it (and every manifest row must be
  // registered somewhere), so the stats payload schema cannot drift without
  // a reviewed manifest diff. Absent manifest = rule off (fixture trees).
  std::string manifest_text;
  if (read_file(options.root + "/tools/cgps_metric_keys.txt", manifest_text)) {
    std::map<std::string, int> manifest;
    for (const Row& row : rows_of(manifest_text)) manifest.emplace(row.text, row.line);
    cross_check(
        metric_refs, manifest, "tools/cgps_metric_keys.txt", "metric-key-registry",
        [](const std::string& name) {
          return "instrument name \"" + name +
                 "\" is registered in code but missing from tools/cgps_metric_keys.txt; "
                 "add a row (the manifest is the reviewed schema of the stats payload)";
        },
        "metric-key-registry",
        [](const std::string& name) {
          return "\"" + name +
                 "\" is listed in the key manifest but no non-test code registers it; "
                 "delete the row";
        },
        report.findings);
  }

  // --- rules: env-var-undocumented / env-var-unreferenced ---------------
  // Table rows look like `| \`NAME\` | default | meaning |`; only names with
  // an env prefix take part. The README table always counts (a missing file
  // is an empty table); the operator guide, when present, is held to the
  // same lockstep, since operators configure daemons from its table.
  for (const std::string doc : {"README.md", "docs/OPERATIONS.md"}) {
    std::string text;
    if (!read_file(options.root + "/" + doc, text) && doc != "README.md") continue;
    std::map<std::string, int> documented;
    for (const Row& row : rows_of(text)) {
      const std::string name = table_key(row.text);
      if (name.rfind("CIRCUITGPS_", 0) == 0 || name.rfind("CGPS_", 0) == 0)
        documented.emplace(name, row.line);
    }
    cross_check(
        env_refs, documented, doc, "env-var-undocumented",
        [&doc](const std::string& name) {
          return name + " is read in code but missing from the " + doc +
                 " environment-variable table";
        },
        "env-var-unreferenced",
        [&doc](const std::string& name) {
          return name + " is documented in the " + doc + " table but no code references it";
        },
        report.findings);
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
            });

  for (Finding& v : report.findings) {
    for (AllowlistEntry& entry : allow) {
      if (entry.rule != v.rule) continue;
      if (v.file.size() < entry.path_suffix.size() ||
          v.file.compare(v.file.size() - entry.path_suffix.size(),
                         entry.path_suffix.size(), entry.path_suffix) != 0)
        continue;
      if (!entry.needle.empty() && v.excerpt.find(entry.needle) == std::string::npos &&
          v.message.find(entry.needle) == std::string::npos)
        continue;
      v.allowlisted = true;
      ++entry.uses;
      break;
    }
  }
  // --- rule: stale-allowlist --------------------------------------------
  for (const AllowlistEntry& entry : allow) {
    if (entry.uses == 0)
      add_finding(report.findings, options.allowlist_path, entry.line_no, "stale-allowlist",
                  "entry `" + entry.rule + " " + entry.path_suffix +
                      "` matched nothing; delete it");
  }
  report.violations = static_cast<int>(
      std::count_if(report.findings.begin(), report.findings.end(),
                    [](const Finding& v) { return !v.allowlisted; }));
  report.wall_ms = watch.milliseconds();
  return report;
}

namespace {

// One `cgps-lint-v1` JSONL record per finding.
std::string finding_record(const Finding& v) {
  JsonWriter w;
  w.begin_object()
      .field("schema", "cgps-lint-v1")
      .field("file", v.file)
      .field("line", v.line)
      .field("rule", v.rule)
      .field("message", v.message)
      .field("excerpt", v.excerpt)
      .field("allowlisted", v.allowlisted)
      .end_object();
  return w.str();
}

// Minimal cgps-bench-v1 report so the CI trend gate can track the linter
// itself (wall time down-is-better, violations must stay at zero).
std::string lint_bench_report(const LintReport& report, std::string_view git) {
  JsonWriter w;
  w.begin_object()
      .field("schema", "cgps-bench-v1")
      .field("bench", "lint")
      .field("git", git);
  w.key("metrics")
      .begin_object()
      .field("lint.wall_ms", report.wall_ms)
      .field("lint.violations", report.violations)
      .field("lint.files", report.files_scanned)
      .end_object();
  w.key("directions")
      .begin_object()
      .field("lint.wall_ms", "down")
      .field("lint.violations", "down")
      .field("lint.files", "both")
      .end_object();
  w.end_object();
  return w.str();
}

}  // namespace

int lint_main(int argc, const char* const* argv, std::string& out) {
  std::string root;
  std::string allowlist;
  std::string bench_report_path;
  bool json = false;
  bool dot = false;
  const auto usage = [&out] {
    out += "usage: cgps_lint <repo-root> [--allowlist FILE] [--json] "
           "[--bench-report FILE] [--dot]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--allowlist" && i + 1 < argc) {
      allowlist = argv[++i];
    } else if (arg == "--bench-report" && i + 1 < argc) {
      bench_report_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (!arg.empty() && arg[0] != '-' && root.empty()) {
      root = arg;
    } else {
      return usage();
    }
  }
  if (root.empty()) return usage();

  const LintReport report = run_lint({root, allowlist});
  if (!report.error.empty()) {
    out += "cgps_lint: " + report.error + "\n";
    return 2;
  }
  if (dot) {
    out += report.module_dot;
    return 0;
  }

  int suppressed = 0;
  for (const Finding& v : report.findings)
    if (v.allowlisted) ++suppressed;

  if (json) {
    // JSONL: one record per finding (allowlisted included, flagged), then a
    // summary record.
    for (const Finding& v : report.findings) out += finding_record(v) + "\n";
    JsonWriter w;
    w.begin_object()
        .field("schema", "cgps-lint-v1")
        .field("violations", report.violations)
        .field("allowlisted", suppressed)
        .field("files", report.files_scanned)
        .field("wall_ms", report.wall_ms)
        .end_object();
    out += w.str() + "\n";
  } else {
    for (const Finding& v : report.findings) {
      if (v.allowlisted) continue;
      out += v.file + ":" + std::to_string(v.line) + " " + v.rule + " " + v.message + "\n";
      if (!v.excerpt.empty()) out += "    > " + v.excerpt + "\n";
    }
    char wall[64];
    std::snprintf(wall, sizeof(wall), "%.1f", report.wall_ms);
    out += "cgps_lint: " + std::to_string(report.violations) + " violation(s), " +
           std::to_string(suppressed) + " allowlisted, " +
           std::to_string(report.files_scanned) + " files in " + wall + " ms\n";
  }

  if (!bench_report_path.empty()) {
#ifdef CGPS_GIT_DESCRIBE
    const std::string_view git = CGPS_GIT_DESCRIBE;
#else
    const std::string_view git = "unknown";
#endif
    const std::string doc = lint_bench_report(report, git);
    std::FILE* f = std::fopen(bench_report_path.c_str(), "wb");
    if (f == nullptr) {
      out += "cgps_lint: cannot write bench report: " + bench_report_path + "\n";
      return 2;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return report.violations > 0 ? 1 : 0;
}

}  // namespace cgps::lint
