// Fixture-tree tests for util/lint: each test seeds a throwaway repo root
// with targeted violations and asserts the rule ids, locations, allowlist
// behaviour, and the cgps_lint 0/1/2 exit contract.
#include "util/json_writer.hpp"
#include "util/lint/include_graph.hpp"
#include "util/lint/lint.hpp"
#include "util/lint/scan.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <regex>
#include <string>
#include <vector>

namespace cgps::lint {
namespace {

namespace fs = std::filesystem;

class LintFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("cgps_lint_" +
             std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << text;
  }

  LintReport lint(const std::string& allowlist_rel = "") {
    LintOptions options;
    options.root = root_.string();
    if (!allowlist_rel.empty()) options.allowlist_path = (root_ / allowlist_rel).string();
    return run_lint(options);
  }

  static std::vector<std::string> rules(const LintReport& report, bool allowlisted) {
    std::vector<std::string> out;
    for (const Finding& f : report.findings)
      if (f.allowlisted == allowlisted) out.push_back(f.rule);
    std::sort(out.begin(), out.end());
    return out;
  }

  fs::path root_;
};

TEST_F(LintFixture, CleanTreeHasNoFindings) {
  write("README.md", "| `CIRCUITGPS_USED` | unset | doc |\n");
  write("src/util/env.cpp", "#include <cstdlib>\nchar* v = std::getenv(\"CIRCUITGPS_USED\");\n");
  write("src/ok.hpp", "#pragma once\nnamespace x { int f(); }\n");
  const LintReport report = lint();
  EXPECT_TRUE(report.error.empty());
  EXPECT_EQ(report.violations, 0);
  EXPECT_TRUE(report.findings.empty());
}

TEST_F(LintFixture, RogueGetenvFlaggedWithLocation) {
  write("README.md", "");
  write("src/util/env.cpp", "#include <cstdlib>\nchar* a = std::getenv(\"X\");\n");
  write("src/rogue.cpp", "#include <cstdlib>\n\nchar* b = std::getenv(\"X\");\n");
  const LintReport report = lint();
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "getenv-outside-env");
  EXPECT_EQ(report.findings[0].file, "src/rogue.cpp");
  EXPECT_EQ(report.findings[0].line, 3);
  EXPECT_EQ(report.violations, 1);
}

TEST_F(LintFixture, GetenvInCommentOrStringIgnored) {
  write("README.md", "");
  write("src/clean.cpp",
        "// callers must not use std::getenv here\n"
        "const char* kDoc = \"std::getenv is banned\";\n"
        "/* getenv getenv */\n");
  EXPECT_EQ(lint().violations, 0);
}

TEST_F(LintFixture, UndocumentedEnvVarCrossCheck) {
  write("README.md",
        "| `CIRCUITGPS_DOCUMENTED` | unset | documented but unused |\n"
        "| `CIRCUITGPS_USED` | unset | documented and used |\n");
  write("src/uses.cpp",
        "const char* a = \"CIRCUITGPS_USED\";\n"
        "const char* b = \"CIRCUITGPS_MYSTERY\";\n"
        "// CIRCUITGPS_COMMENTED never counts: comments are stripped\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"env-var-undocumented", "env-var-unreferenced"}));
  for (const Finding& f : report.findings) {
    if (f.rule == "env-var-undocumented") {
      EXPECT_EQ(f.file, "src/uses.cpp");
      EXPECT_EQ(f.line, 2);
      EXPECT_NE(f.message.find("CIRCUITGPS_MYSTERY"), std::string::npos);
    } else {
      EXPECT_EQ(f.file, "README.md");
      EXPECT_EQ(f.line, 1);
      EXPECT_NE(f.message.find("CIRCUITGPS_DOCUMENTED"), std::string::npos);
    }
  }
}

TEST_F(LintFixture, MetricKeyConvention) {
  write("README.md", "");
  write("src/metrics_use.cpp",
        "void f() {\n"
        "  metric_counter(\"sampling.ok_key\").add(1);\n"
        "  metric_gauge(\"BadKey\").set(1.0);\n"
        "  metric_histogram(\"trace.\" + name, bounds);\n"  // computed: skipped
        "  TraceSpan span(\"Sampling.Extract\");\n"
        "  TraceSpan dynamic(span_names[i]);\n"  // computed: skipped
        "}\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"metric-key-format", "metric-key-format"}));
  EXPECT_EQ(report.findings[0].line, 3);
  EXPECT_EQ(report.findings[1].line, 5);
}

TEST_F(LintFixture, MetricKeyRegistryCrossCheck) {
  write("README.md", "");
  write("src/metrics_use.cpp",
        "void f() {\n"
        "  metric_counter(\"serve.ok_key\").add(1);\n"
        "  metric_counter(\"serve.mystery\").add(1);\n"
        "  metric_histogram(\"trace.\" + name, bounds);\n"  // computed: skipped
        "  TraceSpan span(\"sampling.extract\");\n"
        "}\n");
  write("tests/test_probe.cpp",
        "void t() { metric_counter(\"test.only_key\").add(1); }\n");
  // No manifest: the rule is off and the tree is clean.
  EXPECT_EQ(lint().violations, 0);
  // With a manifest, unlisted code keys and dead rows are both findings;
  // test-only instruments stay out of the cross-check.
  write("tools/cgps_metric_keys.txt",
        "# instrument manifest\n"
        "serve.ok_key\n"
        "sampling.extract\n"
        "serve.retired_key\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got,
            (std::vector<std::string>{"metric-key-registry", "metric-key-registry"}));
  for (const Finding& f : report.findings) {
    if (f.file == "src/metrics_use.cpp") {
      EXPECT_EQ(f.line, 3);
      EXPECT_NE(f.message.find("serve.mystery"), std::string::npos);
    } else {
      EXPECT_EQ(f.file, "tools/cgps_metric_keys.txt");
      EXPECT_EQ(f.line, 4);
      EXPECT_NE(f.message.find("serve.retired_key"), std::string::npos);
    }
  }
}

TEST_F(LintFixture, HeaderHygiene) {
  write("README.md", "");
  write("src/bad.hpp",
        "#include <string>\n"
        "using namespace std;\n"
        "inline int f() { return 1; }\n");
  write("src/good.hpp", "#pragma once\nnamespace y { void g(); }\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got,
            (std::vector<std::string>{"header-pragma-once", "header-using-namespace"}));
  // `using namespace` inside a .cpp is fine.
  write("src/impl.cpp", "using namespace std;\n");
  EXPECT_EQ(lint().violations, 2);
}

TEST_F(LintFixture, NakedNewInNonTestCodeOnly) {
  write("README.md", "");
  write("src/owner.cpp",
        "void f() {\n"
        "  int* p = new int(3);\n"
        "  delete p;\n"
        "  auto q = std::make_unique<int>(4);\n"
        "  int x_new = 1; (void)x_new;\n"
        "}\n"
        "struct NoCopy { NoCopy(const NoCopy&) = delete; };\n");
  write("tests/test_owner.cpp", "void g() { int* p = new int(5); delete p; }\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"naked-new", "naked-new"}));
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_EQ(report.findings[1].line, 3);
}

TEST_F(LintFixture, CoutBannedInLibraryCodeOnly) {
  write("README.md", "");
  write("src/chatty.cpp",
        "#include <iostream>\n"
        "void f() {\n"
        "  std::cout << \"hi\";\n"
        "  std :: cout << \"spaced qualification still counts\";\n"
        "  int cout = 3; (void)cout;\n"         // local identifier is legal
        "  // std::cout in a comment never counts\n"
        "  mystd::cout << 1;\n"                 // different namespace
        "}\n");
  write("tools/cli.cpp", "#include <iostream>\nvoid g() { std::cout << \"ok\"; }\n");
  write("bench/bench_x.cpp", "#include <iostream>\nvoid h() { std::cout << 1; }\n");
  write("tests/test_x.cpp", "#include <iostream>\nvoid t() { std::cout << 1; }\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"no-cout-outside-tools",
                                           "no-cout-outside-tools"}));
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].file, "src/chatty.cpp");
  EXPECT_EQ(report.findings[0].line, 3);
  EXPECT_EQ(report.findings[1].line, 4);
}

TEST_F(LintFixture, OperationsGuideJoinsEnvCrossCheck) {
  write("README.md",
        "| `CIRCUITGPS_USED` | unset | in both tables |\n"
        "| `CIRCUITGPS_README_ONLY` | unset | missing from the ops guide |\n");
  write("src/uses.cpp",
        "const char* a = \"CIRCUITGPS_USED\";\n"
        "const char* b = \"CIRCUITGPS_README_ONLY\";\n");
  // Without docs/OPERATIONS.md the tree is clean (the guide is optional).
  EXPECT_EQ(lint().violations, 0);
  // With it, every code-referenced var must appear there, and dead rows are
  // flagged with the guide as the location.
  write("docs/OPERATIONS.md",
        "| `CIRCUITGPS_USED` | unset | doc |\n"
        "| `CIRCUITGPS_OPS_ONLY` | unset | dead row |\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"env-var-undocumented", "env-var-unreferenced"}));
  for (const Finding& f : report.findings) {
    if (f.rule == "env-var-undocumented") {
      EXPECT_EQ(f.file, "src/uses.cpp");
      EXPECT_NE(f.message.find("CIRCUITGPS_README_ONLY"), std::string::npos);
      EXPECT_NE(f.message.find("OPERATIONS.md"), std::string::npos);
    } else {
      EXPECT_EQ(f.file, "docs/OPERATIONS.md");
      EXPECT_EQ(f.line, 2);
      EXPECT_NE(f.message.find("CIRCUITGPS_OPS_ONLY"), std::string::npos);
    }
  }
}

TEST_F(LintFixture, ExecKernelAllocScopedToBackendTus) {
  write("README.md", "");
  write("src/exec/backend_scalar.cpp",
        "#include <cstdlib>\n"
        "void f(float* out) {\n"
        "  float* p = (float*)malloc(8);\n"    // line 3
        "  scratch.resize(64);\n"              // line 4
        "  names.push_back(1);\n"              // line 5
        "  // a vector mentioned in a comment is fine\n"
        "  const char* s = \"std::vector\";\n"  // literal: fine
        "}\n");
  // Same tokens outside src/exec/backend_*: not this rule's business.
  write("src/exec/executor_helper.cpp", "void g(S& s) { s.buf.resize(4); }\n");
  write("src/other.cpp", "void h(S& s) { s.v.push_back(2); }\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"exec-kernel-alloc", "exec-kernel-alloc",
                                           "exec-kernel-alloc"}));
  EXPECT_EQ(report.findings[0].file, "src/exec/backend_scalar.cpp");
  EXPECT_EQ(report.findings[0].line, 3);
  EXPECT_EQ(report.findings[1].line, 4);
  EXPECT_EQ(report.findings[2].line, 5);
}

TEST_F(LintFixture, AllowlistSuppressesAndStaleEntriesFlagged) {
  write("README.md", "");
  write("src/owner.cpp", "int* p = new int(3);\n");
  write("allow.txt",
        "# comment\n"
        "naked-new src/owner.cpp new int(3)\n");
  LintReport report = lint("allow.txt");
  EXPECT_EQ(report.violations, 0);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings[0].allowlisted);

  // A non-matching needle leaves the finding live.
  write("allow.txt", "naked-new src/owner.cpp new Sink()\n");
  report = lint("allow.txt");
  EXPECT_EQ(report.violations, 2);  // live finding + stale entry
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[1].rule, "stale-allowlist");
  EXPECT_EQ(report.findings[1].file, (root_ / "allow.txt").string());
  EXPECT_EQ(report.findings[1].line, 1);
  EXPECT_FALSE(report.findings[1].allowlisted);
}

TEST_F(LintFixture, CliExitContract) {
  write("README.md", "");
  write("src/clean.cpp", "int f() { return 0; }\n");
  const std::string root = root_.string();

  std::string out;
  const char* clean_argv[] = {"cgps_lint", root.c_str()};
  EXPECT_EQ(lint_main(2, clean_argv, out), 0);
  EXPECT_NE(out.find("0 violation(s)"), std::string::npos);

  write("src/rogue.cpp", "char* v = std::getenv(\"X\");\n");
  out.clear();
  EXPECT_EQ(lint_main(2, clean_argv, out), 1);
  EXPECT_NE(out.find("src/rogue.cpp:1 getenv-outside-env"), std::string::npos);

  out.clear();
  const char* bad_argv[] = {"cgps_lint"};
  EXPECT_EQ(lint_main(1, bad_argv, out), 2);
  const char* bad_root[] = {"cgps_lint", "/nonexistent/cgps"};
  EXPECT_EQ(lint_main(2, bad_root, out), 2);
  const std::string missing_allow = (root_ / "missing.txt").string();
  const char* bad_allow[] = {"cgps_lint", root.c_str(), "--allowlist",
                             missing_allow.c_str()};
  EXPECT_EQ(lint_main(4, bad_allow, out), 2);
}

// --- include-graph rule family (see include_graph.hpp) --------------------

TEST_F(LintFixture, IncludeCycleDetected) {
  write("README.md", "");
  write("src/a/x.hpp",
        "#pragma once\n"
        "#include \"a/y.hpp\"\n"
        "inline int x() { return y(); }\n");
  write("src/a/y.hpp",
        "#pragma once\n"
        "#include \"a/x.hpp\"\n"
        "inline int y() { return x(); }\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"include-cycle", "include-cycle"}));
  EXPECT_EQ(report.findings[0].file, "src/a/x.hpp");
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_NE(report.findings[0].message.find("src/a/x.hpp -> src/a/y.hpp"),
            std::string::npos);
}

TEST_F(LintFixture, LayeringManifestGovernsModuleEdges) {
  write("README.md", "");
  write("src/low/base.hpp", "#pragma once\ninline int base() { return 1; }\n");
  write("src/high/user.cpp",
        "#include \"low/base.hpp\"\nint u() { return base(); }\n");
  // No manifest: the rule is off and the tree is clean.
  EXPECT_EQ(lint().violations, 0);
  // Declared edge + one row nothing realizes: only the stale row fires.
  write("tools/cgps_layering.txt", "high -> low\nhigh -> ghost\n");
  LintReport report = lint();
  std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"layering-manifest-stale"}));
  EXPECT_EQ(report.findings[0].file, "tools/cgps_layering.txt");
  EXPECT_EQ(report.findings[0].line, 2);
  // Undeclared edge: flagged at the include site that realizes it.
  write("tools/cgps_layering.txt", "ghost -> low\n");
  report = lint();
  got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"layering-manifest-stale",
                                           "layering-violation"}));
  for (const Finding& f : report.findings) {
    if (f.rule == "layering-violation") {
      EXPECT_EQ(f.file, "src/high/user.cpp");
      EXPECT_EQ(f.line, 1);
      EXPECT_NE(f.message.find("high -> low"), std::string::npos);
    }
  }
}

TEST_F(LintFixture, IncludeOrderConvention) {
  write("README.md", "");
  write("src/m/b.hpp", "#pragma once\ninline int b() { return 2; }\n");
  write("src/m/z.hpp", "#pragma once\ninline int z() { return 3; }\n");
  write("src/m/own.hpp", "#pragma once\nint own_impl();\n");
  // Project header after a system header: category regression.
  write("src/m/a.cpp",
        "#include <vector>\n"
        "#include \"m/b.hpp\"\n"
        "int a() { return b(); }\n");
  // Unsorted run within one block.
  write("src/m/c.cpp",
        "#include \"m/z.hpp\"\n"
        "#include \"m/b.hpp\"\n"
        "int c() { return b() + z(); }\n");
  // Duplicate include.
  write("src/m/d.cpp",
        "#include \"m/b.hpp\"\n"
        "#include \"m/b.hpp\"\n"
        "int d() { return b(); }\n");
  // Own header must lead.
  write("src/m/own.cpp",
        "#include \"m/b.hpp\"\n"
        "#include \"m/own.hpp\"\n"
        "int own_impl() { return b(); }\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"include-order", "include-order",
                                           "include-order", "include-order"}));
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.line, 2) << f.file;
    if (f.file == "src/m/d.cpp") {
      EXPECT_NE(f.message.find("duplicate"), std::string::npos);
    } else if (f.file == "src/m/own.cpp") {
      EXPECT_NE(f.message.find("own header"), std::string::npos);
    } else if (f.file == "src/m/c.cpp") {
      EXPECT_NE(f.message.find("sorts before"), std::string::npos);
    }
  }
}

TEST_F(LintFixture, ConditionalIncludesExemptFromOrdering) {
  write("README.md", "");
  write("src/m/b.hpp", "#pragma once\ninline int b() { return 2; }\n");
  write("src/m/port.cpp",
        "#include \"m/b.hpp\"\n"
        "\n"
        "#ifdef _WIN32\n"
        "#include <windows.h>\n"
        "#endif\n"
        "\n"
        "#include <vector>\n"
        "int p() { return b(); }\n");
  EXPECT_EQ(lint().violations, 0);
}

TEST_F(LintFixture, UnusedIncludeIwyuLite) {
  write("README.md", "");
  write("src/u/used.hpp", "#pragma once\ninline int used_fn() { return 1; }\n");
  write("src/u/unused.hpp", "#pragma once\ninline int unused_fn() { return 2; }\n");
  write("src/u/opaque.hpp", "#pragma once\n");  // no symbols: never flagged
  write("src/u/main.hpp", "#pragma once\nint m();\n");
  write("src/u/main.cpp",
        "#include \"u/main.hpp\"\n"
        "\n"
        "#include \"u/opaque.hpp\"\n"
        "#include \"u/unused.hpp\"\n"
        "#include \"u/used.hpp\"\n"
        "int q() { return used_fn(); }\n");  // own header exempt despite no `m`
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"unused-include"}));
  EXPECT_EQ(report.findings[0].file, "src/u/main.cpp");
  EXPECT_EQ(report.findings[0].line, 4);
  EXPECT_NE(report.findings[0].message.find("u/unused.hpp"), std::string::npos);
}

TEST_F(LintFixture, AtomicsManifestDiscipline) {
  write("README.md", "");
  write("src/at/a.cpp",
        "void f(C& c) { c.fetch_add(1, std::memory_order_relaxed); }\n");
  write("src/at/b.cpp",
        "int g(A& x) { return x.load(std::memory_order_acquire); }\n");
  write("src/at/c.cpp",
        "void h(A& y) { y.store(1, std::memory_order_release); }\n");
  write("src/at/d.cpp",
        "void i(A& y) { y.store(1, std::memory_order::release); }\n");
  write("tests/test_at.cpp",
        "void t(C& c) { c.fetch_add(1, std::memory_order_relaxed); }\n");
  // No manifest: the whole family is off.
  EXPECT_EQ(lint().violations, 0);
  write("tools/cgps_atomics.txt",
        "# manifest\n"
        "src/at/a.cpp memory_order_relaxed counter, no ordering needed\n"
        "src/at/gone.cpp memory_order_relaxed retired site\n"
        "src/at/c.cpp memory_order_release\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{
                     "atomic-order-unmanifested",   // b.cpp acquire, no row
                     "atomic-order-unmanifested",   // d.cpp scoped spelling
                     "atomics-manifest-stale",      // gone.cpp row
                     "atomics-manifest-unjustified"  // c.cpp row, no reason
                 }));
  for (const Finding& f : report.findings) {
    if (f.file == "src/at/b.cpp") {
      EXPECT_EQ(f.line, 1);
    } else if (f.file == "src/at/d.cpp") {
      EXPECT_NE(f.message.find("memory_order_*"), std::string::npos);
    } else if (f.rule == "atomics-manifest-stale") {
      EXPECT_EQ(f.line, 3);
    } else if (f.rule == "atomics-manifest-unjustified") {
      EXPECT_EQ(f.line, 4);
    }
  }
}

TEST_F(LintFixture, VolatileBannedEverywhereOutsideTests) {
  write("README.md", "");
  write("src/v/bad.cpp", "volatile int spin = 0;\n");
  // The header that once held the one sanctioned volatile is flagged too.
  write("src/exec/quant.hpp",
        "#pragma once\n"
        "inline float round_product(float a) { volatile float r = a; return r; }\n");
  write("tests/test_v.cpp", "volatile int probe = 0;\n");  // tests exempt
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"volatile-banned", "volatile-banned"}));
  EXPECT_EQ(report.findings[0].file, "src/exec/quant.hpp");
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_EQ(report.findings[1].file, "src/v/bad.cpp");
  EXPECT_EQ(report.findings[1].line, 1);
}

TEST_F(LintFixture, ModuleMapDriftBothDirections) {
  write("README.md",
        "## Module map\n"
        "| Path | What |\n"
        "|---|---|\n"
        "| `src/util` | utilities |\n"
        "| `src/ghost` | no longer exists |\n");
  write("src/util/x.cpp", "int x() { return 1; }\n");
  write("src/real/y.cpp", "int y() { return 2; }\n");
  const LintReport report = lint();
  const std::vector<std::string> got = rules(report, /*allowlisted=*/false);
  EXPECT_EQ(got, (std::vector<std::string>{"module-map-drift", "module-map-drift"}));
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.file, "README.md");
    if (f.line == 5) {
      EXPECT_NE(f.message.find("src/ghost"), std::string::npos);
    } else {
      EXPECT_EQ(f.line, 0);
      EXPECT_NE(f.message.find("src/real"), std::string::npos);
    }
  }
}

TEST_F(LintFixture, CliDotAndIncludeGraphExitContract) {
  write("README.md", "");
  write("src/p/x.cpp", "#include \"q/y.hpp\"\nint x() { return y(); }\n");
  write("src/q/y.hpp", "#pragma once\ninline int y() { return 1; }\n");
  const std::string root = root_.string();

  // Clean tree (no manifests): exit 0 with a summary line.
  std::string out;
  const char* check_argv[] = {"cgps_lint", root.c_str()};
  EXPECT_EQ(lint_main(2, check_argv, out), 0);
  EXPECT_NE(out.find("0 violation(s)"), std::string::npos);

  // --dot renders the live module graph.
  out.clear();
  const char* dot_argv[] = {"cgps_lint", root.c_str(), "--dot"};
  EXPECT_EQ(lint_main(3, dot_argv, out), 0);
  EXPECT_NE(out.find("digraph cgps_modules"), std::string::npos);
  EXPECT_NE(out.find("\"p\" -> \"q\";"), std::string::npos);

  // An include-graph violation flips the exit code to 1.
  write("tools/cgps_layering.txt", "p -> elsewhere\n");
  out.clear();
  EXPECT_EQ(lint_main(2, check_argv, out), 1);
  EXPECT_NE(out.find("layering-violation"), std::string::npos);

  // Bad root: exit 2, with or without --dot.
  out.clear();
  const char* bad_root[] = {"cgps_lint", "/nonexistent/cgps", "--dot"};
  EXPECT_EQ(lint_main(3, bad_root, out), 2);
}

TEST_F(LintFixture, JsonOutputIsValidRecords) {
  write("README.md", "");
  write("src/rogue.cpp", "char* v = std::getenv(\"X\");\n");
  const std::string root = root_.string();
  std::string out;
  const char* argv[] = {"cgps_lint", root.c_str(), "--json"};
  EXPECT_EQ(lint_main(3, argv, out), 1);

  // JSONL: every line parses; finding records carry the v1 schema fields,
  // the trailing summary record the totals.
  std::vector<JsonValue> records;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::string line = out.substr(pos, eol - pos);
    if (!line.empty()) {
      std::string error;
      auto parsed = json_parse(line, &error);
      ASSERT_TRUE(parsed.has_value()) << error << ": " << line;
      records.push_back(std::move(*parsed));
    }
    pos = eol + 1;
  }
  ASSERT_EQ(records.size(), 2u);
  const JsonValue& finding = records[0];
  EXPECT_EQ(finding.find("schema")->string, "cgps-lint-v1");
  EXPECT_EQ(finding.find("file")->string, "src/rogue.cpp");
  EXPECT_EQ(finding.find("line")->number, 1.0);
  EXPECT_EQ(finding.find("rule")->string, "getenv-outside-env");
  ASSERT_TRUE(finding.has("message"));
  ASSERT_TRUE(finding.has("excerpt"));
  EXPECT_FALSE(finding.find("allowlisted")->boolean);
  const JsonValue& summary = records[1];
  EXPECT_EQ(summary.find("schema")->string, "cgps-lint-v1");
  EXPECT_EQ(summary.find("violations")->number, 1.0);
  EXPECT_EQ(summary.find("allowlisted")->number, 0.0);
  EXPECT_GE(summary.find("files")->number, 1.0);
  ASSERT_TRUE(summary.has("wall_ms"));
}

const char* const kGoldenText = R"golden(README.md:0 module-map-drift module map has no row for `src/exec`; every src/ module must be documented
README.md:0 module-map-drift module map has no row for `src/core`; every src/ module must be documented
README.md:6 module-map-drift module map documents `src/ghost` but no such module exists; delete or rename the row
README.md:12 env-var-unreferenced CIRCUITGPS_DOCUMENTED is documented in the README.md table but no code references it
docs/OPERATIONS.md:0 module-map-drift module map has no row for `src/core`; every src/ module must be documented
docs/OPERATIONS.md:4 env-var-unreferenced CIRCUITGPS_OPS_ONLY is documented in the docs/OPERATIONS.md table but no code references it
src/core/atomic.cpp:2 atomic-order-unmanifested memory_order_acquire in src/core/atomic.cpp has no reviewed row in tools/cgps_atomics.txt; weaker-than-seq_cst orders need a one-line justification (DESIGN.md §9)
    > int g(A& x) { return x.load(std::memory_order_acquire); }
src/core/atomic.cpp:4 atomic-order-unmanifested use the memory_order_* spelling; the scoped memory_order:: form hides the site from the tools/cgps_atomics.txt scanner
    > void i(A& y) { y.store(1, std::memory_order::release); }
src/core/bad.hpp:0 header-pragma-once header is missing #pragma once
src/core/bad.hpp:2 header-using-namespace `using namespace` in a header leaks into every includer
    > using namespace std;
src/core/chatty.cpp:2 no-cout-outside-tools library code must not write to stdout; use util/logging (stderr) or move the print into a tools//bench CLI
    > void g() { std::cout << 1; }
src/core/metrics_use.cpp:3 metric-key-format instrument name "BadKey" must be a dotted lowercase key like "sampling.extract" (DESIGN.md §8)
    > metric_gauge("BadKey").set(1.0);
src/core/metrics_use.cpp:3 metric-key-registry instrument name "BadKey" is registered in code but missing from tools/cgps_metric_keys.txt; add a row (the manifest is the reviewed schema of the stats payload)
src/core/metrics_use.cpp:4 metric-key-registry instrument name "serve.mystery" is registered in code but missing from tools/cgps_metric_keys.txt; add a row (the manifest is the reviewed schema of the stats payload)
src/core/owner.cpp:3 naked-new manual delete is banned in non-test code; use RAII owners
    > delete p;
src/core/rogue.cpp:2 getenv-outside-env environment access must go through util/env (strict parsing, warn-once); src/util/env.cpp is the only allowed getenv site
    > char* a = std::getenv("X");
src/core/rogue.cpp:3 env-var-undocumented CIRCUITGPS_MYSTERY is read in code but missing from the docs/OPERATIONS.md environment-variable table
src/core/rogue.cpp:3 env-var-undocumented CIRCUITGPS_MYSTERY is read in code but missing from the README.md environment-variable table
src/core/spin.cpp:1 volatile-banned `volatile` is not a concurrency tool; use std::atomic
    > volatile int spin = 0;
src/core/user.cpp:2 include-order a project include appears after a later block; convention is own header, then project headers, then system headers (DESIGN.md §9)
    > #include "util/env.hpp"
src/core/user.cpp:2 layering-violation module edge `core -> util` is not declared in tools/cgps_layering.txt; refactor the dependency or (for a genuinely new layer edge) add the manifest row in the same reviewed change
    > #include "util/env.hpp"
src/core/user.cpp:3 include-order duplicate include of "util/env.hpp" (first included on line 2)
    > #include "util/env.hpp"
src/core/user.cpp:4 include-order a project include appears after a later block; convention is own header, then project headers, then system headers (DESIGN.md §9)
    > #include "util/unused.hpp"
src/core/user.cpp:4 unused-include none of the 1 top-level symbols of "util/unused.hpp" appear in this file; drop the include (or include what you use instead)
    > #include "util/unused.hpp"
src/core/x.hpp:2 include-cycle header include cycle: src/core/x.hpp -> src/core/y.hpp -> src/core/x.hpp; break it with a forward declaration or by moving the shared type down a layer
    > #include "core/y.hpp"
src/core/y.hpp:2 include-cycle header include cycle: src/core/x.hpp -> src/core/y.hpp -> src/core/x.hpp; break it with a forward declaration or by moving the shared type down a layer
    > #include "core/x.hpp"
src/exec/backend_scalar.cpp:2 exec-kernel-alloc kernel backends are arena-only: `malloc` allocates or owns storage on the executor hot path (kernels take caller-carved pointers)
    > void k(float* out) { float* p = (float*)malloc(8); out[0] = p[0]; }
tools/cgps_atomics.txt:3 atomics-manifest-stale row `src/core/atomic.cpp memory_order_relaxed` matches no site; the manifest is shrink-only — delete the row
tools/cgps_atomics.txt:4 atomics-manifest-stale row `src/core/gone.cpp memory_order_relaxed` matches no site; the manifest is shrink-only — delete the row
tools/cgps_atomics.txt:5 atomics-manifest-unjustified row `src/core/atomic.cpp memory_order_release` carries no justification; every manifest entry must say why the weaker order is sound
tools/cgps_layering.txt:3 layering-manifest-stale edge `exec -> util` is declared but no include realizes it; the manifest is shrink-only — delete the row
tools/cgps_layering.txt:4 layering-manifest-stale edge `core -> ghost` is declared but no include realizes it; the manifest is shrink-only — delete the row
tools/cgps_metric_keys.txt:3 metric-key-registry "serve.retired_key" is listed in the key manifest but no non-test code registers it; delete the row
allow.txt:3 stale-allowlist entry `getenv-outside-env src/core/nowhere.cpp` matched nothing; delete it
cgps_lint: 34 violation(s), 1 allowlisted, 16 files in W ms
)golden";

const char* const kGoldenJson = R"golden({"schema":"cgps-lint-v1","file":"README.md","line":0,"rule":"module-map-drift","message":"module map has no row for `src/exec`; every src/ module must be documented","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"README.md","line":0,"rule":"module-map-drift","message":"module map has no row for `src/core`; every src/ module must be documented","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"README.md","line":6,"rule":"module-map-drift","message":"module map documents `src/ghost` but no such module exists; delete or rename the row","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"README.md","line":12,"rule":"env-var-unreferenced","message":"CIRCUITGPS_DOCUMENTED is documented in the README.md table but no code references it","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"docs/OPERATIONS.md","line":0,"rule":"module-map-drift","message":"module map has no row for `src/core`; every src/ module must be documented","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"docs/OPERATIONS.md","line":4,"rule":"env-var-unreferenced","message":"CIRCUITGPS_OPS_ONLY is documented in the docs/OPERATIONS.md table but no code references it","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/atomic.cpp","line":2,"rule":"atomic-order-unmanifested","message":"memory_order_acquire in src/core/atomic.cpp has no reviewed row in tools/cgps_atomics.txt; weaker-than-seq_cst orders need a one-line justification (DESIGN.md §9)","excerpt":"int g(A& x) { return x.load(std::memory_order_acquire); }","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/atomic.cpp","line":4,"rule":"atomic-order-unmanifested","message":"use the memory_order_* spelling; the scoped memory_order:: form hides the site from the tools/cgps_atomics.txt scanner","excerpt":"void i(A& y) { y.store(1, std::memory_order::release); }","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/bad.hpp","line":0,"rule":"header-pragma-once","message":"header is missing #pragma once","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/bad.hpp","line":2,"rule":"header-using-namespace","message":"`using namespace` in a header leaks into every includer","excerpt":"using namespace std;","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/chatty.cpp","line":2,"rule":"no-cout-outside-tools","message":"library code must not write to stdout; use util/logging (stderr) or move the print into a tools//bench CLI","excerpt":"void g() { std::cout << 1; }","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/metrics_use.cpp","line":3,"rule":"metric-key-format","message":"instrument name \"BadKey\" must be a dotted lowercase key like \"sampling.extract\" (DESIGN.md §8)","excerpt":"metric_gauge(\"BadKey\").set(1.0);","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/metrics_use.cpp","line":3,"rule":"metric-key-registry","message":"instrument name \"BadKey\" is registered in code but missing from tools/cgps_metric_keys.txt; add a row (the manifest is the reviewed schema of the stats payload)","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/metrics_use.cpp","line":4,"rule":"metric-key-registry","message":"instrument name \"serve.mystery\" is registered in code but missing from tools/cgps_metric_keys.txt; add a row (the manifest is the reviewed schema of the stats payload)","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/owner.cpp","line":2,"rule":"naked-new","message":"owning allocations use std::make_unique/containers; naked new needs an allowlist justification","excerpt":"int* p = new int(3);","allowlisted":true}
{"schema":"cgps-lint-v1","file":"src/core/owner.cpp","line":3,"rule":"naked-new","message":"manual delete is banned in non-test code; use RAII owners","excerpt":"delete p;","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/rogue.cpp","line":2,"rule":"getenv-outside-env","message":"environment access must go through util/env (strict parsing, warn-once); src/util/env.cpp is the only allowed getenv site","excerpt":"char* a = std::getenv(\"X\");","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/rogue.cpp","line":3,"rule":"env-var-undocumented","message":"CIRCUITGPS_MYSTERY is read in code but missing from the docs/OPERATIONS.md environment-variable table","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/rogue.cpp","line":3,"rule":"env-var-undocumented","message":"CIRCUITGPS_MYSTERY is read in code but missing from the README.md environment-variable table","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/spin.cpp","line":1,"rule":"volatile-banned","message":"`volatile` is not a concurrency tool; use std::atomic","excerpt":"volatile int spin = 0;","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/user.cpp","line":2,"rule":"include-order","message":"a project include appears after a later block; convention is own header, then project headers, then system headers (DESIGN.md §9)","excerpt":"#include \"util/env.hpp\"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/user.cpp","line":2,"rule":"layering-violation","message":"module edge `core -> util` is not declared in tools/cgps_layering.txt; refactor the dependency or (for a genuinely new layer edge) add the manifest row in the same reviewed change","excerpt":"#include \"util/env.hpp\"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/user.cpp","line":3,"rule":"include-order","message":"duplicate include of \"util/env.hpp\" (first included on line 2)","excerpt":"#include \"util/env.hpp\"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/user.cpp","line":4,"rule":"include-order","message":"a project include appears after a later block; convention is own header, then project headers, then system headers (DESIGN.md §9)","excerpt":"#include \"util/unused.hpp\"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/user.cpp","line":4,"rule":"unused-include","message":"none of the 1 top-level symbols of \"util/unused.hpp\" appear in this file; drop the include (or include what you use instead)","excerpt":"#include \"util/unused.hpp\"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/x.hpp","line":2,"rule":"include-cycle","message":"header include cycle: src/core/x.hpp -> src/core/y.hpp -> src/core/x.hpp; break it with a forward declaration or by moving the shared type down a layer","excerpt":"#include \"core/y.hpp\"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/core/y.hpp","line":2,"rule":"include-cycle","message":"header include cycle: src/core/x.hpp -> src/core/y.hpp -> src/core/x.hpp; break it with a forward declaration or by moving the shared type down a layer","excerpt":"#include \"core/x.hpp\"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"src/exec/backend_scalar.cpp","line":2,"rule":"exec-kernel-alloc","message":"kernel backends are arena-only: `malloc` allocates or owns storage on the executor hot path (kernels take caller-carved pointers)","excerpt":"void k(float* out) { float* p = (float*)malloc(8); out[0] = p[0]; }","allowlisted":false}
{"schema":"cgps-lint-v1","file":"tools/cgps_atomics.txt","line":3,"rule":"atomics-manifest-stale","message":"row `src/core/atomic.cpp memory_order_relaxed` matches no site; the manifest is shrink-only — delete the row","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"tools/cgps_atomics.txt","line":4,"rule":"atomics-manifest-stale","message":"row `src/core/gone.cpp memory_order_relaxed` matches no site; the manifest is shrink-only — delete the row","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"tools/cgps_atomics.txt","line":5,"rule":"atomics-manifest-unjustified","message":"row `src/core/atomic.cpp memory_order_release` carries no justification; every manifest entry must say why the weaker order is sound","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"tools/cgps_layering.txt","line":3,"rule":"layering-manifest-stale","message":"edge `exec -> util` is declared but no include realizes it; the manifest is shrink-only — delete the row","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"tools/cgps_layering.txt","line":4,"rule":"layering-manifest-stale","message":"edge `core -> ghost` is declared but no include realizes it; the manifest is shrink-only — delete the row","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"tools/cgps_metric_keys.txt","line":3,"rule":"metric-key-registry","message":"\"serve.retired_key\" is listed in the key manifest but no non-test code registers it; delete the row","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","file":"allow.txt","line":3,"rule":"stale-allowlist","message":"entry `getenv-outside-env src/core/nowhere.cpp` matched nothing; delete it","excerpt":"","allowlisted":false}
{"schema":"cgps-lint-v1","violations":34,"allowlisted":1,"files":16,"wall_ms":W}
)golden";

// Every rule's output, byte for byte: a tree that trips all 21 rules, with
// duplicate manifest and table rows and findings that tie on (file, line,
// rule), rendered as text and as --json with the wall time masked.
TEST_F(LintFixture, GoldenOutputCoversEveryRule) {
  write("README.md",
        "# Fixture\n"
        "## Module map\n"
        "| Path | What |\n"
        "|---|---|\n"
        "| `src/util` | utilities |\n"
        "| `src/ghost` | no such module |\n"
        "| `src/util` | duplicate row, merged |\n"
        "\n"
        "| Variable | Default | Meaning |\n"
        "|---|---|---|\n"
        "| `CIRCUITGPS_USED` | unset | read by util/env |\n"
        "| `CIRCUITGPS_DOCUMENTED` | unset | read by nothing |\n"
        "| `CIRCUITGPS_DOCUMENTED` | unset | duplicate row, merged |\n");
  write("docs/OPERATIONS.md",
        "| `src/util` | utilities |\n"
        "| `src/exec` | kernels |\n"
        "| `CIRCUITGPS_USED` | unset | doc |\n"
        "| `CIRCUITGPS_OPS_ONLY` | unset | dead row |\n");
  write("allow.txt",
        "# fixture allowlist\n"
        "naked-new src/core/owner.cpp new int(3)\n"
        "getenv-outside-env src/core/nowhere.cpp\n");
  write("tools/cgps_metric_keys.txt",
        "# manifest\n"
        "serve.ok_key\n"
        "serve.retired_key\n"
        "serve.retired_key\n");
  write("tools/cgps_layering.txt",
        "# manifest\n"
        "exec -> util\n"
        "exec -> util\n"
        "core -> ghost\n");
  write("tools/cgps_atomics.txt",
        "# manifest\n"
        "src/core/atomic.cpp memory_order_relaxed counter, no ordering needed\n"
        "src/core/atomic.cpp memory_order_relaxed duplicate row\n"
        "src/core/gone.cpp memory_order_relaxed retired site\n"
        "src/core/atomic.cpp memory_order_release\n");
  write("src/util/env.hpp", "#pragma once\nconst char* used();\n");
  write("src/util/env.cpp",
        "#include \"util/env.hpp\"\n"
        "\n"
        "#include <cstdlib>\n"
        "\n"
        "const char* used() { return std::getenv(\"CIRCUITGPS_USED\"); }\n");
  write("src/util/unused.hpp", "#pragma once\ninline int unused_fn() { return 2; }\n");
  write("src/exec/plan.cpp", "#include \"util/env.hpp\"\nconst char* p() { return used(); }\n");
  write("src/exec/backend_scalar.cpp",
        "#include <cstdlib>\n"
        "void k(float* out) { float* p = (float*)malloc(8); out[0] = p[0]; }\n");
  write("src/core/rogue.cpp",
        "#include <cstdlib>\n"
        "char* a = std::getenv(\"X\");\n"
        "const char* b = \"CIRCUITGPS_MYSTERY\";\n");
  write("src/core/owner.cpp",
        "void f() {\n"
        "  int* p = new int(3);\n"
        "  delete p;\n"
        "}\n");
  write("src/core/chatty.cpp", "#include <iostream>\nvoid g() { std::cout << 1; }\n");
  write("src/core/metrics_use.cpp",
        "void h() {\n"
        "  metric_counter(\"serve.ok_key\").add(1);\n"
        "  metric_gauge(\"BadKey\").set(1.0);\n"
        "  metric_counter(\"serve.mystery\").add(1);\n"
        "}\n");
  write("src/core/bad.hpp",
        "#include <string>\n"
        "using namespace std;\n"
        "inline int bad() { return 1; }\n");
  write("src/core/x.hpp",
        "#pragma once\n#include \"core/y.hpp\"\ninline int x() { return y(); }\n");
  write("src/core/y.hpp",
        "#pragma once\n#include \"core/x.hpp\"\ninline int y() { return x(); }\n");
  write("src/core/user.cpp",
        "#include <vector>\n"
        "#include \"util/env.hpp\"\n"
        "#include \"util/env.hpp\"\n"
        "#include \"util/unused.hpp\"\n"
        "int u() { return used() != nullptr; }\n");
  write("src/core/atomic.cpp",
        "void f(C& c) { c.fetch_add(1, std::memory_order_relaxed); }\n"
        "int g(A& x) { return x.load(std::memory_order_acquire); }\n"
        "void h(A& y) { y.store(1, std::memory_order_release); }\n"
        "void i(A& y) { y.store(1, std::memory_order::release); }\n");
  write("src/core/spin.cpp", "volatile int spin = 0;\n");
  write("tests/test_fixture.cpp",
        "void t() {\n"
        "  metric_counter(\"test.only\").add(1);\n"
        "  const char* v = \"CIRCUITGPS_TEST_ONLY\";\n"
        "  volatile int z = 0;\n"
        "}\n");

  const std::string root = root_.string();
  const std::string allow = (root_ / "allow.txt").string();
  const auto run = [&](bool json) {
    std::vector<const char*> argv{"cgps_lint", root.c_str(), "--allowlist", allow.c_str()};
    if (json) argv.push_back("--json");
    std::string out;
    EXPECT_EQ(lint_main(static_cast<int>(argv.size()), argv.data(), out), 1);
    for (std::size_t at = out.find(allow); at != std::string::npos; at = out.find(allow))
      out.replace(at, allow.size(), "allow.txt");
    out = std::regex_replace(out, std::regex(" in [0-9.]+ ms\n"), " in W ms\n");
    return std::regex_replace(out, std::regex("\"wall_ms\":[^}]*\\}"), "\"wall_ms\":W}");
  };
  EXPECT_EQ(run(false), kGoldenText);
  EXPECT_EQ(run(true), kGoldenJson);
}

TEST(LintHelpers, ExportedSymbols) {
  FileUnit f;
  f.rel = "src/x/widget.hpp";
  f.raw =
      "#pragma once\n"
      "#define WIDGET_CAP 8\n"
      "namespace cgps {\n"
      "struct Widget { int member_fn(); int field; };\n"
      "enum class Color { kRed, kGreen };\n"
      "using Alias = int;\n"
      "int free_fn(int arg);\n"
      "inline constexpr int kLimit = 3;\n"
      "}\n";
  f.lexed = lex(f.raw);
  f.starts = line_starts(f.raw);
  f.is_header = true;
  const std::vector<std::string> symbols = exported_symbols(f);
  const auto has = [&](const char* name) {
    return std::find(symbols.begin(), symbols.end(), name) != symbols.end();
  };
  EXPECT_TRUE(has("WIDGET_CAP"));
  EXPECT_TRUE(has("Widget"));
  EXPECT_TRUE(has("Color"));
  EXPECT_TRUE(has("kRed"));
  EXPECT_TRUE(has("kGreen"));
  EXPECT_TRUE(has("Alias"));
  EXPECT_TRUE(has("free_fn"));
  EXPECT_TRUE(has("kLimit"));
  EXPECT_FALSE(has("member_fn"));  // class members are not top-level
  EXPECT_FALSE(has("field"));
  EXPECT_FALSE(has("arg"));  // parameters are inside parens
}

TEST(LintHelpers, DottedMetricKey) {
  EXPECT_TRUE(is_dotted_metric_key("pool.width"));
  EXPECT_TRUE(is_dotted_metric_key("trace.model.gps0.fwd"));
  EXPECT_TRUE(is_dotted_metric_key("sampling.subgraphs_extracted"));
  EXPECT_FALSE(is_dotted_metric_key("runs"));           // no dot
  EXPECT_FALSE(is_dotted_metric_key("Pool.width"));     // uppercase
  EXPECT_FALSE(is_dotted_metric_key("pool..width"));    // empty token
  EXPECT_FALSE(is_dotted_metric_key(".pool.width"));
  EXPECT_FALSE(is_dotted_metric_key("pool.width."));
  EXPECT_FALSE(is_dotted_metric_key("pool.wid th"));
  EXPECT_FALSE(is_dotted_metric_key(""));
}

TEST(LintHelpers, StripPreservesOffsetsAndLines) {
  const std::string text =
      "int a; // new int\n"
      "const char* s = \"delete me\";\n"
      "/* using namespace */ int b;\n";
  const std::string stripped = strip_comments_and_strings(text);
  ASSERT_EQ(stripped.size(), text.size());
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 3);
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_EQ(stripped.find("delete"), std::string::npos);
  EXPECT_EQ(stripped.find("using namespace"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  // Quotes survive so call-shape checks can find literal arguments.
  EXPECT_NE(stripped.find('"'), std::string::npos);
}

TEST(LintHelpers, StripHandlesRawStringsAndEscapes) {
  const std::string text =
      "auto j = R\"({\"new\": 1})\";\n"
      "auto e = \"escaped \\\" delete\";\n"
      "char c = '\\'';\n"
      "int n = 1'000'000;\n";
  const std::string stripped = strip_comments_and_strings(text);
  ASSERT_EQ(stripped.size(), text.size());
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_EQ(stripped.find("delete"), std::string::npos);
  EXPECT_NE(stripped.find("int n = 1'000'000;"), std::string::npos);
}

TEST(LintHelpers, ParseAllowlist) {
  std::string error;
  const auto entries = parse_allowlist(
      "# header comment\n"
      "\n"
      "naked-new src/util/trace.cpp new Sink()\n"
      "getenv-outside-env src/legacy.cpp\n",
      &error);
  EXPECT_TRUE(error.empty());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "naked-new");
  EXPECT_EQ(entries[0].path_suffix, "src/util/trace.cpp");
  EXPECT_EQ(entries[0].needle, "new Sink()");
  EXPECT_EQ(entries[0].line_no, 3);
  EXPECT_EQ(entries[1].needle, "");

  parse_allowlist("just-a-rule\n", &error);
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace cgps::lint
