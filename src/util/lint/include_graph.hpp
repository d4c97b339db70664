// Whole-program include-graph analysis (DESIGN.md §9). Where
// lint.cpp checks per-line invariants, this subsystem parses every
// `#include` in the tree (through the same offset-preserving stripped
// lexer), resolves project headers to modules, and checks structural
// properties no substring rule can see:
//
//   layering-violation        a src/<A> file includes a src/<B> header but
//                             the edge `A -> B` is not declared in the
//                             committed module-DAG manifest
//                             tools/cgps_layering.txt
//   layering-manifest-stale   a manifest edge no include realizes (the
//                             manifest is shrink-only, like the allowlist)
//   include-cycle             project headers that include each other
//                             (any SCC of size > 1, or a self-include)
//   include-order             include-order hygiene: own header first,
//                             then project headers, then system headers;
//                             contiguous runs sorted; no duplicates
//                             (includes under #if/#ifdef are exempt)
//   unused-include            IWYU-lite: a project header none of whose
//                             declared top-level symbols appear in the
//                             includer
//   atomic-order-unmanifested a memory_order_relaxed/acquire/release site
//                             in non-test code missing from the reviewed
//                             tools/cgps_atomics.txt manifest
//   atomics-manifest-stale    an atomics-manifest row matching no site
//   atomics-manifest-unjustified  a row without a justification
//   volatile-banned           `volatile` anywhere in non-test code
//   module-map-drift          the README.md (and, when present,
//                             docs/OPERATIONS.md) module-map table lists a
//                             module that does not exist, or misses one
//                             that does
//
// Both manifest rules are skipped when their manifest file is absent, so
// fixture trees stay clean by default. The analysis runs inside run_lint
// over its one tree scan; `cgps_lint <root> --dot` renders the module DAG
// for the docs.
#pragma once

#include "util/lint/lint.hpp"
#include "util/lint/scan.hpp"

#include <string>
#include <vector>

namespace cgps::lint {

// One deduplicated src-module dependency, with the first include site (in
// sorted file order) that realizes it.
struct ModuleEdge {
  std::string from;
  std::string to;
  std::string example_file;
  int example_line = 0;
};

struct DepsReport {
  std::vector<Finding> findings;
  std::vector<ModuleEdge> edges;  // actual src-module graph, sorted
  std::string error;  // non-empty when a manifest is malformed
};

// Run the include-graph rules over the tree scanned from `root`; the
// manifests are read from `<root>/tools/cgps_layering.txt` and
// `<root>/tools/cgps_atomics.txt`, and a missing file disables its rule.
DepsReport analyze_includes(const std::vector<FileUnit>& units, const std::string& root);

// Graphviz rendering of the module DAG, deterministic node/edge order.
std::string render_dot(const std::vector<ModuleEdge>& edges);

// Top-level declared symbols of a header (types, enumerators, namespace-
// scope functions/variables/aliases, macro names), as used by the
// unused-include rule. Exposed for tests.
std::vector<std::string> exported_symbols(const FileUnit& header);

}  // namespace cgps::lint
