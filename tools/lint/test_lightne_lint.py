"""Tests for the repo-invariant linter.

Fixtures live under testdata/{bad,good}/, each a miniature repo tree. Every
bad fixture declares the rule it must trip in a leading `// expect-lint:
<rule>` (or `# expect-lint:` for CMake) comment; the test fails if that rule
does not fire on that file, or if any *other* file trips it, so both false
negatives and false positives in a rule break the suite (registered as the
`lint_selftest` ctest — a broken rule fails tier-1).
"""

import os
import re
import unittest

import lightne_lint

HERE = os.path.dirname(os.path.abspath(__file__))
BAD_ROOT = os.path.join(HERE, "testdata", "bad")
GOOD_ROOT = os.path.join(HERE, "testdata", "good")

EXPECT_RE = re.compile(r"expect-lint:\s*([a-z]+)")


def expected_rules(root):
    """Maps repo-relative fixture path -> rule it must trip."""
    expectations = {}
    for rel in lightne_lint.discover(root):
        full = os.path.join(root, rel)
        if not os.path.isfile(full):
            continue
        with open(full, encoding="utf-8") as fh:
            m = EXPECT_RE.search(fh.read())
        if m:
            expectations[rel] = m.group(1)
    return expectations


class BadFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.findings = lightne_lint.scan_repo(BAD_ROOT)
        cls.expected = expected_rules(BAD_ROOT)

    def test_every_rule_has_a_bad_fixture(self):
        self.assertEqual(set(self.expected.values()),
                         set(lightne_lint.RULES),
                         "each lint rule needs at least one bad fixture")

    def test_each_bad_fixture_trips_its_rule(self):
        for path, rule in self.expected.items():
            with self.subTest(fixture=path):
                hits = [f for f in self.findings
                        if f.path == path and f.rule == rule]
                self.assertTrue(
                    hits, f"{path} should trip rule '{rule}' but did not")

    def test_no_unexpected_rules_fire(self):
        for f in self.findings:
            with self.subTest(finding=f):
                self.assertEqual(
                    f.rule, self.expected.get(f.path),
                    f"{f.path}:{f.line} tripped unexpected rule "
                    f"'{f.rule}': {f.message}")


class GoodFixtures(unittest.TestCase):
    def test_good_tree_is_clean(self):
        findings = lightne_lint.scan_repo(GOOD_ROOT)
        self.assertEqual(
            [], findings,
            "good fixtures must produce zero findings:\n" +
            "\n".join(f"{f.path}:{f.line}: [{f.rule}]" for f in findings))


class StrippingInternals(unittest.TestCase):
    def test_comments_and_strings_are_blanked(self):
        stripped = lightne_lint.strip_comments_and_strings(
            'int x = 1; // std::rand()\n'
            'const char* s = "std::rand()";\n'
            '/* std::mt19937 */ int y = 2;\n')
        self.assertNotIn("rand", stripped)
        self.assertNotIn("mt19937", stripped)
        self.assertIn("int x = 1;", stripped)
        self.assertIn("int y = 2;", stripped)

    def test_newlines_survive_for_line_numbers(self):
        raw = 'a /* multi\nline\ncomment */ b\n'
        stripped = lightne_lint.strip_comments_and_strings(raw)
        self.assertEqual(raw.count("\n"), stripped.count("\n"))

    def test_escaped_quote_in_string(self):
        stripped = lightne_lint.strip_comments_and_strings(
            'f("a\\"b srand("); srand(1);\n')
        self.assertEqual(stripped.count("srand"), 1)


class FastmathFmaInternals(unittest.TestCase):
    def lint_source(self, path, body):
        f = lightne_lint.SourceFile(path, body)
        return [x.line for x in lightne_lint.check_fastmath(f)]

    def test_fma_in_targets_and_pragmas_is_flagged(self):
        body = ('__attribute__((target("avx2,fma"))) void A();\n'
                '[[gnu::target_clones("fma4", "default")]] void B();\n'
                '#pragma GCC target("avx2", "fma")\n'
                '#pragma clang attribute push '
                '(__attribute__((target("fma"))), apply_to = function)\n')
        self.assertEqual([1, 2, 3, 4],
                         self.lint_source("src/graph/x.cc", body))

    def test_fma_free_targets_comments_and_strings_are_quiet(self):
        body = ('__attribute__((target("avx2"))) void A();  // no fma\n'
                '__attribute__((target("avx512ifma"))) void B();\n'
                'const char* s = "fma";\n'
                '/* #pragma GCC target("fma") */\n')
        self.assertEqual([], self.lint_source("src/la/x.cc", body))

    def test_fma_calls_are_flagged_in_la_and_core_only(self):
        body = ('float F(float a) { return std::fma(a, a, a); }\n'
                'double G(double a) { return __builtin_fmaf(a, a, a); }\n')
        self.assertEqual([1, 2], self.lint_source("src/la/x.cc", body))
        self.assertEqual([1, 2], self.lint_source("src/core/x.cc", body))
        self.assertEqual([], self.lint_source("src/eval/x.cc", body))
        body = ('float F(float a) { return std::fmax(a, a); }\n'
                'double G(double a) { return __builtin_fmax(a, a); }\n'
                'float H(float a) { return __builtin_fmaf32(a, a, a); }\n')
        self.assertEqual([3], self.lint_source("src/la/x.cc", body))


class StatusRuleInternals(unittest.TestCase):
    def lint_source(self, body):
        f = lightne_lint.SourceFile("src/graph/x.cc", body)
        names = lightne_lint.collect_status_names([f])
        return list(lightne_lint.check_status(f, names))

    DECLS = "class Status {};\nStatus Op();\nStatus Other(int v);\n"

    def test_bare_call_is_flagged(self):
        findings = self.lint_source(self.DECLS + "void F() {\n  Op();\n}\n")
        self.assertEqual(1, len(findings))
        self.assertEqual("status", findings[0].rule)
        self.assertEqual(5, findings[0].line)

    def test_multiline_bare_call_is_flagged(self):
        findings = self.lint_source(
            self.DECLS + "void F() {\n  Other(\n      42);\n}\n")
        self.assertEqual(1, len(findings))

    def test_consumed_calls_are_not_flagged(self):
        findings = self.lint_source(
            self.DECLS +
            "Status F() {\n"
            "  Status s = Op();\n"
            "  (void)Op();\n"
            "  if (!Other(1).ok()) return Op();\n"
            "  return Other(2);\n"
            "}\n")
        self.assertEqual([], findings)

    def test_object_chain_drop_is_flagged(self):
        body = (
            "class Status {};\n"
            "struct S { Status Op(); };\n"
            "void F(S* s) {\n  s->Op();\n}\n")
        findings = self.lint_source(body)
        self.assertEqual(1, len(findings))
        self.assertEqual(4, findings[0].line)


class AtomicioRuleInternals(unittest.TestCase):
    def lint_source(self, path, body):
        f = lightne_lint.SourceFile(path, body)
        return list(lightne_lint.check_atomicio(f))

    def test_ofstream_is_flagged(self):
        findings = self.lint_source(
            "src/core/x.cc", "#include <fstream>\nstd::ofstream out(p);\n")
        self.assertEqual(1, len(findings))
        self.assertEqual("atomicio", findings[0].rule)
        self.assertEqual(2, findings[0].line)

    def test_write_modes_are_flagged(self):
        for mode in ('"w"', '"wb"', '"a"', '"ab"', '"w+"', '"r+b"'):
            with self.subTest(mode=mode):
                findings = self.lint_source(
                    "bench/x.cc", f"void F() {{ fopen(p, {mode}); }}\n")
                self.assertEqual(1, len(findings))

    def test_read_mode_is_not_flagged(self):
        for mode in ('"r"', '"rb"'):
            with self.subTest(mode=mode):
                self.assertEqual([], self.lint_source(
                    "examples/x.cpp", f"void F() {{ fopen(p, {mode}); }}\n"))

    def test_variable_mode_is_not_flagged(self):
        # Mode not a literal: the linter cannot tell, so it stays quiet.
        self.assertEqual([], self.lint_source(
            "src/la/x.cc", "void F(const char* m) { fopen(p, m); }\n"))

    def test_tests_are_out_of_scope(self):
        self.assertEqual([], self.lint_source(
            "tests/x.cc", "std::ofstream out(p);\nfopen(p, \"w\");\n"))

    def test_artifact_io_is_exempt(self):
        self.assertEqual([], self.lint_source(
            "src/util/artifact_io.cc", "fopen(p, \"wb\");\n"))

    def test_fopen_in_comment_is_not_flagged(self):
        self.assertEqual([], self.lint_source(
            "src/core/x.cc", "// fopen(p, \"w\") would be wrong here\n"))


class SuppressionInternals(unittest.TestCase):
    def test_suppression_is_line_and_rule_scoped(self):
        f = lightne_lint.SourceFile(
            "src/util/x.cc",
            "int a = std::rand();  // lint-ok: random (why)\n"
            "int b = std::rand();\n")
        findings = [x for x in lightne_lint.check_random(f)
                    if not f.suppresses(x.line, x.rule)]
        self.assertEqual(1, len(findings))
        self.assertEqual(2, findings[0].line)


class StatementStartInternals(unittest.TestCase):
    SOURCE = (
        "void F() {\n"
        "  Use(1,\n"
        "      std::time(nullptr));\n"
        "}\n")

    def test_multiline_statement_points_at_start(self):
        f = lightne_lint.SourceFile("bench/x.cc", self.SOURCE)
        findings = list(lightne_lint.check_random(f))
        self.assertEqual(1, len(findings))
        self.assertEqual(2, findings[0].line)        # statement start
        self.assertEqual(3, findings[0].match_line)  # offending token

    def test_suppression_works_on_either_line(self):
        for lineno in (2, 3):
            with self.subTest(comment_line=lineno):
                lines = self.SOURCE.splitlines(keepends=True)
                lines[lineno - 1] = (lines[lineno - 1].rstrip("\n")
                                     + "  // lint-ok: random (timestamp)\n")
                f = lightne_lint.SourceFile("bench/x.cc", "".join(lines))
                self.assertEqual([], lightne_lint.lint_files([f]))

    def test_preprocessor_line_is_its_own_statement(self):
        f = lightne_lint.SourceFile(
            "src/core/x.cc", "#include <fstream>\nstd::ofstream out(p);\n")
        findings = list(lightne_lint.check_atomicio(f))
        self.assertEqual(1, len(findings))
        self.assertEqual(2, findings[0].line)


def _index(path, body):
    return lightne_lint.FileIndex(lightne_lint.SourceFile(path, body))


class ParfloatInternals(unittest.TestCase):
    def lint(self, body, path="src/core/x.cc"):
        return list(lightne_lint.check_parfloat(_index(path, body)))

    def test_captured_float_accumulate_is_flagged(self):
        findings = self.lint(
            "double Total(const double* x, uint64_t n) {\n"
            "  double sum = 0.0;\n"
            "  ParallelFor(0, n, [&](uint64_t i) { sum += x[i]; });\n"
            "  return sum;\n"
            "}\n")
        self.assertEqual(1, len(findings))
        self.assertEqual("parfloat", findings[0].rule)

    def test_lambda_local_accumulator_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "void F(const double* x, uint64_t n, double* out) {\n"
            "  ParallelFor(0, n, [&](uint64_t i) {\n"
            "    double acc = 0.0;\n"
            "    acc += x[i];\n"
            "    out[i] = acc;\n"
            "  });\n"
            "}\n"))

    def test_worker_partition_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "void F(const double* x, uint64_t n, double* partial) {\n"
            "  ParallelForWorkers([&](int worker, int workers) {\n"
            "    partial[worker] += x[worker];\n"
            "  });\n"
            "}\n"))

    def test_gemm_row_pointer_idiom_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "void F(float* c, uint64_t n, uint64_t cols) {\n"
            "  ParallelFor(0, n, [&](uint64_t i) {\n"
            "    float* ci = c + i * cols;\n"
            "    for (uint64_t j = 0; j < cols; ++j) ci[j] += 1.0f;\n"
            "  });\n"
            "}\n"))

    def test_fixed_point_counter_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "void F(uint64_t n, uint64_t* mass_fp20) {\n"
            "  ParallelFor(0, n, [&](uint64_t i) { *mass_fp20 += i; });\n"
            "}\n"))

    def test_integer_accumulate_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "void F(uint64_t n) {\n"
            "  uint64_t hits = 0;\n"
            "  ParallelFor(0, n, [&](uint64_t i) { hits += i; });\n"
            "}\n"))

    def test_out_of_scope_paths_are_quiet(self):
        self.assertEqual([], self.lint(
            "void F(const double* x, uint64_t n) {\n"
            "  double sum = 0.0;\n"
            "  ParallelFor(0, n, [&](uint64_t i) { sum += x[i]; });\n"
            "}\n", path="tests/x.cc"))

    CAS_LOOP = (
        "void F(uint64_t n) {{\n"
        "  std::atomic<{t}> total{{0}};\n"
        "  ParallelFor(0, n, [&](uint64_t i) {{\n"
        "    {t} expected = total.load(std::memory_order_relaxed);\n"
        "    while (!total.compare_exchange_weak(expected, expected + i)) {{\n"
        "    }}\n"
        "  }});\n"
        "}}\n")

    def test_cas_loop_on_float_atomic_is_flagged(self):
        findings = self.lint(self.CAS_LOOP.format(t="double"))
        self.assertEqual(1, len(findings))
        self.assertEqual("parfloat", findings[0].rule)
        self.assertEqual(5, findings[0].line)
        self.assertIn("total", findings[0].message)

    def test_cas_loop_on_integer_atomic_is_not_flagged(self):
        self.assertEqual([], self.lint(self.CAS_LOOP.format(t="uint64_t")))

    def test_fetch_add_and_helper_on_float_atomics_are_flagged(self):
        findings = self.lint(
            "void F(uint64_t n, std::vector<std::atomic<float>>& bins) {\n"
            "  std::atomic<double> sum{0.0};\n"
            "  ParallelFor(0, n, [&](uint64_t i) {\n"
            "    sum.fetch_add(1.0, std::memory_order_relaxed);\n"
            "    AtomicFetchAdd(bins[i % 8], 1.0f);\n"
            "  });\n"
            "}\n")
        self.assertEqual([4, 5], sorted(f.line for f in findings))

    def test_integer_atomic_helpers_are_not_flagged(self):
        self.assertEqual([], self.lint(
            "void F(uint64_t n, std::vector<std::atomic<uint64_t>>& c) {\n"
            "  std::atomic<uint64_t> sum{0};\n"
            "  ParallelFor(0, n, [&](uint64_t i) {\n"
            "    sum.fetch_add(i, std::memory_order_relaxed);\n"
            "    AtomicFetchAdd(c[i % 8], uint64_t{1});\n"
            "  });\n"
            "}\n"))


class RngflowInternals(unittest.TestCase):
    def lint(self, body, path="src/graph/x.cc"):
        return list(lightne_lint.check_rngflow(_index(path, body)))

    def test_short_circuit_draw_is_flagged(self):
        findings = self.lint(
            "uint64_t F(Rng& rng, bool gate, double p) {\n"
            "  if (gate && rng.Bernoulli(p)) return 1;\n"
            "  return 0;\n"
            "}\n")
        self.assertEqual(1, len(findings))
        self.assertIn("short-circuit", findings[0].message)

    def test_first_operand_draw_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "uint64_t F(Rng& rng, bool gate, double p) {\n"
            "  if (rng.Bernoulli(p) && gate) return 1;\n"
            "  return 0;\n"
            "}\n"))

    def test_branch_body_draw_is_flagged(self):
        findings = self.lint(
            "uint64_t F(Rng& rng, bool gate) {\n"
            "  if (gate) {\n"
            "    return rng.UniformInt(7);\n"
            "  }\n"
            "  return 0;\n"
            "}\n")
        self.assertEqual(1, len(findings))

    def test_ternary_draw_is_flagged(self):
        findings = self.lint(
            "uint64_t F(Rng& rng, bool gate) {\n"
            "  return gate ? rng.UniformInt(7) : 0;\n"
            "}\n")
        self.assertEqual(1, len(findings))

    def test_for_body_draw_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "uint64_t F(Rng& rng, uint64_t n) {\n"
            "  uint64_t acc = 0;\n"
            "  for (uint64_t i = 0; i < n; ++i) acc += rng.UniformInt(3);\n"
            "  return acc;\n"
            "}\n"))

    def test_captured_rng_in_parallel_lambda_is_flagged(self):
        findings = self.lint(
            "void F(Rng& rng, uint64_t n, uint64_t* out) {\n"
            "  ParallelFor(0, n, [&](uint64_t i) {\n"
            "    out[i] = rng.UniformInt(9);\n"
            "  });\n"
            "}\n", path="src/la/x.cc")
        self.assertEqual(1, len(findings))
        self.assertIn("captured", findings[0].message)

    def test_per_item_rng_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "void F(uint64_t seed, uint64_t n, uint64_t* out) {\n"
            "  ParallelFor(0, n, [&](uint64_t i) {\n"
            "    Rng rng(HashCombine64(seed, i));\n"
            "    out[i] = rng.UniformInt(9);\n"
            "  });\n"
            "}\n"))

    def test_conditional_check_is_hot_path_scoped(self):
        # src/la is outside the sampling hot paths: the conditional-draw
        # check stays quiet there (the capture check still applies).
        self.assertEqual([], self.lint(
            "uint64_t F(Rng& rng, bool gate, double p) {\n"
            "  if (gate && rng.Bernoulli(p)) return 1;\n"
            "  return 0;\n"
            "}\n", path="src/la/x.cc"))


class LockorderInternals(unittest.TestCase):
    def lint(self, body, path="src/core/x.cc"):
        return lightne_lint.check_lockorder([_index(path, body)])

    DECLS = "Mutex g_mu_a;\nMutex g_mu_b;\n"

    def test_inversion_is_flagged_with_both_chains(self):
        findings = self.lint(
            self.DECLS +
            "void A() {\n"
            "  MutexLock ha(g_mu_a);\n"
            "  MutexLock hb(g_mu_b);\n"
            "}\n"
            "void B() {\n"
            "  MutexLock hb(g_mu_b);\n"
            "  MutexLock ha(g_mu_a);\n"
            "}\n")
        self.assertEqual(1, len(findings))
        self.assertEqual("lockorder", findings[0].rule)
        self.assertIn("g_mu_a", findings[0].message)
        self.assertIn("g_mu_b", findings[0].message)
        # Both acquisition chains are spelled out.
        self.assertEqual(2, findings[0].message.count("held from"))

    def test_consistent_order_is_clean(self):
        self.assertEqual([], self.lint(
            self.DECLS +
            "void A() {\n"
            "  MutexLock ha(g_mu_a);\n"
            "  MutexLock hb(g_mu_b);\n"
            "}\n"
            "void B() {\n"
            "  MutexLock ha(g_mu_a);\n"
            "  MutexLock hb(g_mu_b);\n"
            "}\n"))

    def test_transitive_cycle_through_a_call_is_flagged(self):
        findings = self.lint(
            self.DECLS +
            "void TakeB() {\n"
            "  MutexLock hb(g_mu_b);\n"
            "}\n"
            "void A() {\n"
            "  MutexLock ha(g_mu_a);\n"
            "  TakeB();\n"
            "}\n"
            "void B() {\n"
            "  MutexLock hb(g_mu_b);\n"
            "  MutexLock ha(g_mu_a);\n"
            "}\n")
        self.assertEqual(1, len(findings))
        self.assertIn("TakeB()", findings[0].message)

    def test_requires_annotation_seeds_the_held_set(self):
        findings = self.lint(
            self.DECLS +
            "void G() LIGHTNE_REQUIRES(g_mu_a) {\n"
            "  MutexLock hb(g_mu_b);\n"
            "}\n"
            "void K() {\n"
            "  MutexLock hb(g_mu_b);\n"
            "  MutexLock ha(g_mu_a);\n"
            "}\n")
        self.assertEqual(1, len(findings))
        self.assertIn("required held", findings[0].message)

    def test_function_local_mutexes_stay_distinct(self):
        # Each function's local `mu` is its own lock: nesting them in
        # opposite orders across functions is not a cycle.
        self.assertEqual([], self.lint(
            "void A() {\n"
            "  Mutex mu;\n"
            "  MutexLock h(mu);\n"
            "}\n"
            "void B() {\n"
            "  Mutex mu;\n"
            "  MutexLock h(mu);\n"
            "}\n"))


class PtrhashInternals(unittest.TestCase):
    def lint(self, body, path="src/core/x.cc"):
        return list(lightne_lint.check_ptrhash(_index(path, body)))

    def test_pointer_keyed_map_is_flagged(self):
        findings = self.lint("std::map<const Node*, int> ranks;\n")
        self.assertEqual(1, len(findings))
        self.assertEqual("ptrhash", findings[0].rule)

    def test_pointer_valued_map_is_not_flagged(self):
        self.assertEqual(
            [], self.lint("std::map<uint64_t, const Node*> by_id;\n"))

    def test_std_hash_of_pointer_is_flagged(self):
        findings = self.lint("std::hash<Node*> h;\n")
        self.assertEqual(1, len(findings))

    def test_pointer_bits_into_hash_are_flagged(self):
        findings = self.lint(
            "uint64_t F(const Node* n, uint64_t seed) {\n"
            "  return HashCombine64(reinterpret_cast<uint64_t>(n), seed);\n"
            "}\n")
        self.assertEqual(1, len(findings))

    def test_value_hash_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "uint64_t F(uint64_t id, uint64_t seed) {\n"
            "  return HashCombine64(id, seed);\n"
            "}\n"))

    def test_relational_pointer_compare_is_flagged(self):
        findings = self.lint(
            "bool F(const Node* a, uint64_t b) {\n"
            "  return reinterpret_cast<uintptr_t>(a) < b;\n"
            "}\n")
        self.assertEqual(1, len(findings))

    def test_pointer_equality_is_not_flagged(self):
        self.assertEqual([], self.lint(
            "bool F(const Node* a, const Node* b) { return a == b; }\n"))


class SuppressionHygieneInternals(unittest.TestCase):
    def lint(self, body, path="src/util/x.cc"):
        return lightne_lint.lint_files(
            [lightne_lint.SourceFile(path, body)])

    def test_missing_justification_is_flagged(self):
        findings = self.lint("int a = std::rand();  // lint-ok: random\n")
        self.assertEqual(["suppression"], [f.rule for f in findings])
        self.assertIn("no justification", findings[0].message)

    def test_stale_suppression_is_flagged(self):
        findings = self.lint("int a = 1;  // lint-ok: timer (old clock)\n")
        self.assertEqual(["suppression"], [f.rule for f in findings])
        self.assertIn("stale", findings[0].message)

    def test_unknown_rule_is_flagged(self):
        findings = self.lint("int a = 1;  // lint-ok: frobnicate (what)\n")
        self.assertEqual(["suppression"], [f.rule for f in findings])
        self.assertIn("names no suppressible rule", findings[0].message)

    def test_justified_matching_suppression_is_clean(self):
        self.assertEqual([], self.lint(
            "int a = std::rand();  // lint-ok: random (demo value)\n"))

    def test_suppression_findings_are_not_suppressible(self):
        # `suppression` is not itself a suppressible rule, and hygiene
        # findings bypass the suppression filter entirely.
        findings = self.lint("int a = 1;  // lint-ok: suppression (mask)\n")
        self.assertEqual(["suppression"], [f.rule for f in findings])
        self.assertIn("names no suppressible rule", findings[0].message)



if __name__ == "__main__":
    unittest.main()
