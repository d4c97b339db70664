// cgps_lint: source-tree invariant checker for the conventions that the
// observability and env layers turned into load-bearing contracts
// (DESIGN.md §9). Scans src/, tools/, bench/, examples/, and tests/ under a
// repo root and reports `file:line rule message` findings with the same
// 0/1/2 exit contract as cgps_bench_diff. Logic lives here (not in the CLI)
// so fixture trees can exercise every rule without spawning a binary.
//
// Rules:
//   getenv-outside-env      std::getenv anywhere but src/util/env.cpp
//   env-var-undocumented    CIRCUITGPS_*/CGPS_* literal in non-test code
//                           missing from the README.md env-variable table
//   env-var-unreferenced    table row whose variable no non-test code
//                           references
//   metric-key-format       literal metric_counter/gauge/histogram or
//                           TraceSpan name that is not a dotted lowercase
//                           key (DESIGN.md §8)
//   metric-key-registry     literal instrument/span name in non-test code
//                           missing from the tools/cgps_metric_keys.txt
//                           manifest, or a manifest row no code registers;
//                           skipped when the manifest file is absent
//   header-pragma-once      header without #pragma once
//   header-using-namespace  `using namespace` at any scope in a header
//   naked-new               naked new/delete in non-test code
//   no-cout-outside-tools   qualified std::cout in library code (src/);
//                           stdout belongs to the CLIs, diagnostics to
//                           util/logging (stderr)
//   stale-allowlist         allowlist entry that matched nothing, reported
//                           at its allowlist line after every other finding
//
// The include-graph rule family (layering-violation, include-cycle,
// include-order, unused-include, the atomics/volatile discipline, and
// module-map-drift — see util/lint/include_graph.hpp) runs as part of
// run_lint over the same tree scan.
//
// When docs/OPERATIONS.md exists, the env-var cross-check additionally
// requires its environment-variable table to stay in lockstep with the
// code, exactly like the README table. The metric-key, env-var and
// module-map rules are one two-way check each (scan.hpp cross_check): a
// name used in code but unlisted, at its first use; a listed name no code
// uses, at its row.
//
// Scanning and per-file rule evaluation are parallelized over
// util/parallel; findings and cross-check winners are merged in sorted
// file order, so output is identical at any thread count.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cgps::lint {

struct Finding {
  std::string file;     // path relative to the scanned root
  int line = 0;         // 1-based; 0 for file-level findings
  std::string rule;     // stable rule id, e.g. "getenv-outside-env"
  std::string message;
  std::string excerpt;  // trimmed offending source line ("" for file-level)
  bool allowlisted = false;
};

// One grandfathered exception: `<rule> <path-suffix> [line substring...]`.
// Matches a finding when the rule is equal, the finding's file ends with
// path_suffix, and (if given) the offending line contains the substring.
struct AllowlistEntry {
  std::string rule;
  std::string path_suffix;
  std::string needle;
  int line_no = 0;  // line in the allowlist file, for diagnostics
  int uses = 0;     // findings suppressed; 0 after a run = stale-allowlist
};

struct LintOptions {
  std::string root;            // repo root (contains src/, README.md, ...)
  std::string allowlist_path;  // optional allowlist file
};

struct LintReport {
  // Every finding, allowlisted included, sorted by (file, line, rule); then
  // one stale-allowlist finding per allowlist entry that suppressed nothing.
  std::vector<Finding> findings;
  int violations = 0;     // non-allowlisted findings
  int files_scanned = 0;  // C++ files read and lexed
  double wall_ms = 0.0;   // scan + all rules, wall time
  std::string error;  // non-empty when the scan itself failed (exit 2)
  std::string module_dot;  // Graphviz src-module DAG (include_graph.hpp)
};

LintReport run_lint(const LintOptions& options);

// Blank out //- and /**/-comments and string/char literal *contents* with
// spaces, preserving both byte offsets and line structure so rule positions
// computed on the stripped text index straight into the raw text.
std::string strip_comments_and_strings(std::string_view text);

// Dotted metric-key convention from DESIGN.md §8: two or more lowercase
// [a-z0-9_]+ tokens joined by single dots ("pool.width", "trace.pe.drnl").
bool is_dotted_metric_key(std::string_view name);

// Parse an allowlist file's text (see AllowlistEntry). Malformed lines are
// reported through `error` (one message, first offender wins).
std::vector<AllowlistEntry> parse_allowlist(std::string_view text, std::string* error);

// CLI driver for tools/cgps_lint:
//   cgps_lint <repo-root> [--allowlist FILE] [--json] [--bench-report FILE]
//             [--dot]
// Appends human-readable output to *out (or, with --json, one
// `cgps-lint-v1` JSONL record per finding plus a summary record; with
// --dot, only the module DAG as Graphviz, exit 0 unless the scan fails).
// `--bench-report` additionally writes a minimal cgps-bench-v1 document
// with the lint wall time, for the CI bench-trend gate. Returns 0 when the
// tree is clean (allowlisted findings included), 1 on violations, 2 on bad
// usage or an unreadable root/allowlist.
int lint_main(int argc, const char* const* argv, std::string& out);

}  // namespace cgps::lint
