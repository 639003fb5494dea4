#!/usr/bin/env python3
"""LightNE repo-invariant linter (stdlib only).

Mechanically enforces the invariants that neither the compiler nor the test
suite can guarantee — see DESIGN.md §9 ("Static-analysis contract").

Line-scoped rules (regex over comment/string-stripped text):

  random     The determinism contract bans ambient randomness: no rand()/
             std::rand/srand, no std::random_device, no std::mt19937, and no
             time()-seeded anything outside src/util/random.h. All
             randomness flows through the counter-seedable Rng so results
             are a pure function of (seed, work item).
  fastmath   No -ffast-math-style flags or optimize pragmas anywhere
             (sources or CMake): value-changing FP transforms would break
             the bit-identical kernel contract of DESIGN.md §8. Nor fma in
             a target(...) / target_clones(...) attribute or a
             `#pragma GCC target`, and no std::fma / __builtin_fma* call in
             src/la or src/core: a fused multiply-add rounds once where the
             naive references round twice, so a SIMD arm built with one
             would differ from the references even without
             -ffp-contract=off.
  unordered  src/core, src/la, src/graph may not use std::unordered_{map,
             set,multimap,multiset}: their iteration order is unspecified,
             so any result-affecting traversal becomes nondeterministic.
  status     Every call to a Status/Result<T>-returning function must be
             consumed (assigned, returned, tested, or explicitly cast to
             (void)). Bare-statement drops lose the error path.
  layering   Include hygiene: a module may include only itself and the
             layers below it (util -> parallel -> {graph, la} -> data ->
             core -> {baselines, eval}).
  rawmutex   No raw std::mutex/std::shared_mutex/std::condition_variable
             (or their lock RAII types) outside src/util/
             thread_annotations.h: all locks must be the annotated wrappers
             so Clang's -Wthread-safety sees every acquisition.
  timer      No raw std::chrono clocks outside src/util/timer.h and
             src/util/trace.h: all timing goes through Timer/StageTimer/
             TraceSpan (DESIGN.md §10).
  atomicio   No direct file writes in src/, bench/ or examples/ outside
             src/util/artifact_io.cc: every persisted file goes through
             AtomicFileWriter's write-tmp -> fsync -> rename (DESIGN.md
             §12). Read-only fopen("rb") is fine; tests/ is out of scope.

Scope-aware rules (C++ tokenizer + brace/scope tracking + function/lambda
extraction + a static call/lock graph — see FileIndex below):

  parfloat   Floating-point compound assignment (+=, -=, *=, /=) on state
             captured into a ParallelFor / ParallelForWorkers / RunOnAll
             lambda is schedule-dependent (FP addition does not associate).
             Deterministic patterns pass unflagged: targets that are local
             to the lambda (per-item state, the GemmTN row-pointer idiom),
             targets indexed by a lambda-local (per-worker partitions like
             partial[worker]), and integer fixed-point counters (names
             matching *_fp<N>, e.g. mass_fp20). The same holds for atomic
             read-modify-writes: fetch_add / fetch_sub /
             compare_exchange_* on, or AtomicFetchAdd / CasLoopFetchAdd of,
             a captured std::atomic<float|double> sums in arrival order.
             Everything else needs a justified suppression. Scope: src/.
  rngflow    The one-Uniform-per-draw contract: in sampling hot paths
             (src/graph/, src/core/) an Rng draw may not sit behind a
             conditional — an if/else/switch branch, a while/do loop, the
             right side of &&/|| in a condition, a ternary — because a
             data-dependent draw count desynchronizes the replayable RNG
             cursor. Draws as the *first* operand of a condition are fine
             (always consumed). `for` bodies are deliberately not flagged
             (trip counts are data, not draw-conditional — a documented
             blind spot). Additionally, anywhere in src/: a draw inside a
             parallel lambda on an Rng not declared inside that lambda
             (i.e. captured) shares one stream across workers; derive a
             per-item Rng(HashCombine64(seed, item)) instead.
  lockorder  Cycle detection over the static lock graph: annotated RAII
             acquisitions (MutexLock / WriterMutexLock / ReaderMutexLock),
             LIGHTNE_REQUIRES preconditions, and lock acquisitions reached
             transitively through calls (name-matched, depth-capped). An
             A->B edge means B is (or may be) acquired while A is held;
             any cycle is a potential deadlock and is reported with the
             acquisition chain for every edge. Locks are identified as
             file::name (file::function::name for function-local locks),
             so same-named members in different files stay distinct —
             cross-TU aliasing of one shared mutex is a known blind spot.
  ptrhash    Pointer-derived values feeding hashes, comparisons, or
             container ordering (std::hash/less/greater over pointer
             types, std::map/set keyed by a pointer, reinterpret_cast
             inside a *Hash*/SplitMix64 argument list, relational
             comparison of reinterpret_cast results): addresses differ
             run to run, so any result-affecting use is nondeterministic.
  suppression  Suppression hygiene (always on): every `lint-ok: <rule>`
             must name a real rule and carry a non-empty justification
             (at least one word), and a suppression on a line where its
             rule no longer fires is itself an error, so the suppression
             set cannot rot. Suppression findings are not suppressible.

Suppression: append a comment containing `lint-ok: <rule> <justification>`
to the offending line. For a multi-line statement the comment may sit either
on the line the finding points at (the statement start) or on the line the
offending token actually occupies. Example:

    std::time(nullptr));  // lint-ok: random (timestamp, not an RNG seed)

Usage:
    tools/lint/lightne_lint.py                 # lint src/ tests/ bench/ examples/
    tools/lint/lightne_lint.py PATH...         # lint specific files/dirs
    tools/lint/lightne_lint.py --report F.json # also write a JSON report
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import json
import os
import re
import sys
from bisect import bisect_right
from collections import namedtuple

# `line` points at the statement start (editor jump-to-error lands on the
# statement); `match_line` at the offending token when that differs, so
# suppressions on either line are honored. None when they coincide.
Finding = namedtuple("Finding", ["path", "line", "rule", "message",
                                 "match_line"])
Finding.__new__.__defaults__ = (None,)

RULES = ("random", "fastmath", "unordered", "status", "layering", "rawmutex",
         "timer", "atomicio", "parfloat", "rngflow", "lockorder", "ptrhash",
         "suppression")

CPP_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")
DEFAULT_ROOTS = ("src", "tests", "bench", "examples")

# Files exempt from specific rules (the one place each primitive may live).
RANDOM_EXEMPT = ("src/util/random.h",)
RAWMUTEX_EXEMPT = ("src/util/thread_annotations.h",)
TIMER_EXEMPT = ("src/util/timer.h", "src/util/trace.h")
STATUS_COLLECT_SKIP = ("src/util/status.h",)

# Module layering: each src/<dir> may include only the listed src/<dir>s.
LAYERING = {
    "util": {"util"},
    "parallel": {"util", "parallel"},
    "graph": {"util", "parallel", "graph"},
    "la": {"util", "parallel", "la"},
    "data": {"util", "parallel", "graph", "data"},
    "core": {"util", "parallel", "graph", "data", "la", "core"},
    "baselines": {"util", "parallel", "graph", "data", "la", "core",
                  "baselines"},
    "eval": {"util", "parallel", "graph", "data", "la", "eval"},
}

# Rule name plus the rest of the comment line — the justification text.
SUPPRESS_RE = re.compile(r"lint-ok:\s*([a-z]+)\b:?[ \t]*([^\n]*)")
JUSTIFICATION_RE = re.compile(r"[A-Za-z]{3,}")


def is_cmake(rel_path):
    base = os.path.basename(rel_path)
    return base == "CMakeLists.txt" or base.endswith(".cmake")


def is_cpp(rel_path):
    return rel_path.endswith(CPP_EXTENSIONS)


def strip_comments_and_strings(text, keep_strings=False):
    """Replaces comments and string/char literal *contents* with spaces,
    preserving newlines so line numbers survive. keep_strings leaves the
    literals as written and blanks only the comments."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append(c + nxt if keep_strings else "  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            elif keep_strings:
                out.append(c)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def suppressed_lines(text):
    """Maps 1-based line number -> set of rule names suppressed there."""
    result = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for rule, _ in SUPPRESS_RE.findall(line):
            result.setdefault(lineno, set()).add(rule)
    return result


def suppression_sites(text):
    """All (line, rule, justification-text) suppression comments."""
    sites = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for rule, rest in SUPPRESS_RE.findall(line):
            sites.append((lineno, rule, rest))
    return sites


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


PREPROC_LINE_RE = re.compile(r"(?m)^[ \t]*#[^\n]*\n")


def stmt_start_line(text, pos):
    """1-based line where the statement containing pos begins: just after
    the previous ;/{/} boundary, with preprocessor directives treated as
    line-scoped statements of their own."""
    boundary = max(text.rfind(";", 0, pos), text.rfind("{", 0, pos),
                   text.rfind("}", 0, pos))
    base = boundary + 1
    start = base
    for m in PREPROC_LINE_RE.finditer(text, base, pos):
        start = m.end()
    while start < pos and text[start] in " \t\n\r":
        start += 1
    return line_of(text, start)


def anchored(path, rule, message, text, pos):
    """Finding pointing at the statement start, remembering the line the
    pattern actually matched when that differs."""
    match_line = line_of(text, pos)
    stmt_line = stmt_start_line(text, pos)
    if stmt_line == match_line:
        return Finding(path, stmt_line, rule, message, None)
    return Finding(path, stmt_line, rule, message, match_line)


class SourceFile:
    def __init__(self, rel_path, raw):
        self.rel_path = rel_path
        self.raw = raw
        self.stripped = strip_comments_and_strings(raw) if is_cpp(
            rel_path) else raw
        self.suppressed = suppressed_lines(raw)
        self.suppress_sites = suppression_sites(raw)

    def suppresses(self, lineno, rule):
        return rule in self.suppressed.get(lineno, set())

    def suppresses_finding(self, finding):
        if self.suppresses(finding.line, finding.rule):
            return True
        return (finding.match_line is not None
                and self.suppresses(finding.match_line, finding.rule))


# --------------------------------------------------------------------------
# random
RANDOM_PATTERNS = (
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"(?<!:)\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()-seeded value"),
)


def check_random(f):
    if f.rel_path in RANDOM_EXEMPT or not is_cpp(f.rel_path):
        return
    seen = set()
    for pattern, label in RANDOM_PATTERNS:
        for m in pattern.finditer(f.stripped):
            lineno = line_of(f.stripped, m.start())
            if (lineno, label) in seen:
                continue
            seen.add((lineno, label))
            yield anchored(
                f.rel_path, "random",
                f"{label} is banned by the determinism contract; derive "
                "randomness from util/random.h (Rng / ItemRng / "
                "HashCombine64)", f.stripped, m.start())


# --------------------------------------------------------------------------
# fastmath
FASTMATH_PATTERNS = (
    re.compile(r"-ffast-math\b"),
    re.compile(r"-funsafe-math-optimizations\b"),
    re.compile(r"-fassociative-math\b"),
    re.compile(r"-freciprocal-math\b"),
    re.compile(r"#\s*pragma\s+(?:GCC|clang)\s+optimize\b"),
    re.compile(r"#\s*pragma\s+clang\s+fp\b"),
    re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON\b"),
)


# A target attribute or pragma, with its argument text; the features sit in
# string literals, so these run over comment-stripped text that keeps them.
FMA_TARGET_RE = re.compile(
    r"#\s*pragma\s+(?:GCC|clang)\s+target\b([^\n]*)"
    r"|\btarget(?:_clones)?\s*\(([^()]*)\)")
FMA_FEATURE_RE = re.compile(r"(?<![A-Za-z0-9_])fma4?(?![A-Za-z0-9_])")
FMA_CALL_RE = re.compile(
    r"(?:\bstd::fma[fl]?|\b__builtin_fma(?:[fl]|f\d+x?)?)\s*\(")
FMA_CALL_DIRS = ("src/la/", "src/core/")


def check_fastmath(f):
    # CMake files are scanned raw (flags live inside quoted strings);
    # C++ files are scanned with comments/strings stripped.
    text = f.raw if is_cmake(f.rel_path) else f.stripped
    for pattern in FASTMATH_PATTERNS:
        for m in pattern.finditer(text):
            message = (f"'{m.group(0).strip()}' breaks the bit-identical "
                       "kernel contract (DESIGN.md §8); value-changing FP "
                       "transforms are banned")
            if is_cmake(f.rel_path):
                yield Finding(f.rel_path, line_of(text, m.start()),
                              "fastmath", message)
            else:
                yield anchored(f.rel_path, "fastmath", message, text,
                               m.start())
    if not is_cpp(f.rel_path) or "fma" not in f.raw:
        return
    code = strip_comments_and_strings(f.raw, keep_strings=True)
    for m in FMA_TARGET_RE.finditer(code):
        group = 1 if m.group(1) is not None else 2
        for feature in FMA_FEATURE_RE.finditer(m.group(group)):
            yield anchored(
                f.rel_path, "fastmath",
                f"'{feature.group(0)}' in a SIMD target lets the compiler "
                "fuse a multiply-add the naive references round twice "
                "(DESIGN.md §8); arms target avx2 without fma",
                code, m.start(group) + feature.start())
    if f.rel_path.startswith(FMA_CALL_DIRS):
        for m in FMA_CALL_RE.finditer(f.stripped):
            yield anchored(
                f.rel_path, "fastmath",
                f"'{m.group(0).rstrip('( ')}' rounds a product and a sum "
                "once; src/la and src/core round every product before it "
                "is added, as the naive references do (DESIGN.md §8)",
                f.stripped, m.start())


# --------------------------------------------------------------------------
# unordered
UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
UNORDERED_DIRS = ("src/core/", "src/la/", "src/graph/")


def check_unordered(f):
    if not f.rel_path.startswith(UNORDERED_DIRS) or not is_cpp(f.rel_path):
        return
    for m in UNORDERED_RE.finditer(f.stripped):
        yield anchored(
            f.rel_path, "unordered",
            f"{m.group(0)} has unspecified iteration order; result-affecting "
            "paths must use std::map, sorted vectors, or "
            "ConcurrentHashTable+sort", f.stripped, m.start())


# --------------------------------------------------------------------------
# status
STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}]|\n)\s*(?:static\s+|inline\s+|constexpr\s+)*"
    r"(?:Status|Result<[^;{}()=]+>)\s+([A-Za-z_]\w*)\s*\(",
    re.MULTILINE)
# An object/namespace chain like `foo.`, `it->second->`, `lightne::`,
# `FaultRegistry::Global().` — i.e. the call really is the whole statement.
CHAIN_RE = re.compile(
    r"^(?:[A-Za-z_]\w*(?:\(\))?\s*(?:\.|->|::)\s*)*$")


def collect_status_names(files):
    """Names of functions declared to return Status or Result<T>."""
    names = set()
    for f in files:
        if not is_cpp(f.rel_path) or f.rel_path in STATUS_COLLECT_SKIP:
            continue
        for m in STATUS_DECL_RE.finditer(f.stripped):
            names.add(m.group(1))
    return names


def matching_paren(text, open_pos):
    """Position just past the paren group opened at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def check_status(f, status_names):
    if not is_cpp(f.rel_path) or not status_names:
        return
    text = f.stripped
    for name in status_names:
        for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(", text):
            # Statement start: the last ; { or } before the call chain.
            stmt_start = max(text.rfind(";", 0, m.start()),
                             text.rfind("{", 0, m.start()),
                             text.rfind("}", 0, m.start()))
            prefix = text[stmt_start + 1:m.start()].strip()
            # Preprocessor lines are not statements.
            if "#" in prefix:
                continue
            if not CHAIN_RE.match(prefix):
                continue  # assigned / returned / tested / wrapped — consumed
            close = matching_paren(text, m.end() - 1)
            if close < 0:
                continue
            rest = text[close:close + 2].lstrip()
            if not rest.startswith(";"):
                continue  # member access / operator — the value is used
            yield anchored(
                f.rel_path, "status",
                f"return value of {name}() (Status/Result) is dropped; "
                "assign it, LIGHTNE_RETURN_IF_ERROR it, or cast to (void) "
                "with a comment", text, m.start())


# --------------------------------------------------------------------------
# layering
INCLUDE_RE = re.compile(r"#\s*include\s+\"([a-z_]+)/[^\"]+\"")


def check_layering(f):
    if not f.rel_path.startswith("src/") or not is_cpp(f.rel_path):
        return
    parts = f.rel_path.split("/")
    if len(parts) < 3:
        return
    module = parts[1]
    allowed = LAYERING.get(module)
    if allowed is None:
        return
    # Raw text: include paths are string literals, which stripping blanks.
    for m in INCLUDE_RE.finditer(f.raw):
        target = m.group(1)
        if target in LAYERING and target not in allowed:
            yield Finding(
                f.rel_path, line_of(f.raw, m.start()), "layering",
                f"src/{module} may not include src/{target} (dependency "
                "order: util -> parallel -> {graph, la} -> data -> core -> "
                "{baselines, eval})")


# --------------------------------------------------------------------------
# rawmutex
RAWMUTEX_TYPE_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock)\b")
RAWMUTEX_INCLUDE_RE = re.compile(
    r"#\s*include\s+<(?:mutex|shared_mutex|condition_variable)>")


def check_rawmutex(f):
    if f.rel_path in RAWMUTEX_EXEMPT or not is_cpp(f.rel_path):
        return
    for pattern in (RAWMUTEX_TYPE_RE, RAWMUTEX_INCLUDE_RE):
        for m in pattern.finditer(f.stripped):
            yield anchored(
                f.rel_path, "rawmutex",
                f"'{m.group(0)}' bypasses thread-safety analysis; use the "
                "annotated Mutex/SharedMutex/CondVar wrappers from "
                "util/thread_annotations.h", f.stripped, m.start())


# --------------------------------------------------------------------------
# timer
TIMER_RE = re.compile(
    r"\bstd::chrono::(?:steady_clock|system_clock|high_resolution_clock)\b")


def check_timer(f):
    if f.rel_path in TIMER_EXEMPT or not is_cpp(f.rel_path):
        return
    for m in TIMER_RE.finditer(f.stripped):
        yield anchored(
            f.rel_path, "timer",
            f"'{m.group(0)}' bypasses the trace-layer clock; time with "
            "Timer/StageTimer (util/timer.h) or TraceSpan (util/trace.h) so "
            "bench numbers and pipeline traces agree", f.stripped, m.start())


# --------------------------------------------------------------------------
# atomicio
ATOMICIO_DIRS = ("src/", "bench/", "examples/")
ATOMICIO_EXEMPT = ("src/util/artifact_io.cc",)
ATOMICIO_STREAM_RE = re.compile(r"\bstd::(?:ofstream|fstream)\b")
ATOMICIO_FOPEN_RE = re.compile(r"\bfopen\s*\(")
# A mode literal containing w, a, or + opens the file for writing.
ATOMICIO_WRITE_MODE_RE = re.compile(r'"[rwab+]*[wa+][rwab+]*"\s*\)\s*$')


def check_atomicio(f):
    if (f.rel_path in ATOMICIO_EXEMPT or not is_cpp(f.rel_path)
            or not f.rel_path.startswith(ATOMICIO_DIRS)):
        return
    for m in ATOMICIO_STREAM_RE.finditer(f.stripped):
        yield anchored(
            f.rel_path, "atomicio",
            f"{m.group(0)} writes files directly; persisted files must go "
            "through AtomicFileWriter (util/artifact_io.h) so a crash or "
            "disk-full never leaves a torn artifact", f.stripped, m.start())
    for m in ATOMICIO_FOPEN_RE.finditer(f.stripped):
        close = matching_paren(f.stripped, m.end() - 1)
        if close < 0:
            continue
        # strip_comments_and_strings is length-preserving, so the raw text
        # at the same offsets still holds the mode literal it blanked.
        if ATOMICIO_WRITE_MODE_RE.search(f.raw[m.start():close]):
            yield anchored(
                f.rel_path, "atomicio",
                "fopen() in a write mode bypasses atomic "
                "write-tmp -> fsync -> rename; use AtomicFileWriter "
                "(util/artifact_io.h) so a crash never leaves a torn file",
                f.stripped, m.start())


# --------------------------------------------------------------------------
# Scope-aware core: tokenizer, bracket matching, function/lambda extraction,
# parallel-region detection. Shared by parfloat / rngflow / lockorder /
# ptrhash. Deliberately lightweight — it understands just enough C++ to
# track scopes; templates are skipped structurally, not parsed.

TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\.?\d(?:[\w.]|[eEpP][+-])*"
    r"|<<=|>>=|->\*|\.\.\.|::|->|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|"
    r"==|!=|<=|>=|&&|\|\||<<|>>"
    r"|[^\sA-Za-z_0-9]")

OPENERS = {"(": ")", "{": "}", "[": "]"}
CLOSERS = {")", "}", "]"}

CPP_KEYWORDS = frozenset((
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "sizeof", "alignof", "decltype",
    "new", "delete", "this", "true", "false", "nullptr", "const",
    "constexpr", "consteval", "constinit", "static", "inline", "extern",
    "mutable", "volatile", "register", "thread_local", "typedef", "using",
    "namespace", "class", "struct", "union", "enum", "template", "typename",
    "public", "private", "protected", "friend", "virtual", "override",
    "final", "noexcept", "try", "catch", "throw", "operator", "explicit",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "co_await", "co_yield", "co_return", "requires", "concept", "auto",
    "void", "bool", "char", "int", "short", "long", "float", "double",
    "signed", "unsigned", "wchar_t", "static_assert",
))

# Tokens allowed between a parameter list's ')' and the function body '{'
# (besides annotation macros, ctor init lists and trailing return types).
FUNC_TAIL_OK = frozenset((
    "const", "noexcept", "override", "final", "mutable", "volatile", "&",
    "&&", "try", "::", "<", ">", ",", "...", "*", "[", "]", ".",
))

# Thread-safety annotation macros whose argument names locks the function
# interacts with; REQUIRES/ACQUIRE seed the lock graph.
ANNOT_LOCK_MACROS = frozenset((
    "LIGHTNE_REQUIRES", "LIGHTNE_REQUIRES_SHARED", "LIGHTNE_ACQUIRE",
    "LIGHTNE_ACQUIRE_SHARED",
))

PARALLEL_CALLS = frozenset((
    "ParallelFor", "ParallelForWorkers", "RunOnAll", "Submit",
))

LOCK_RAII = frozenset(("MutexLock", "WriterMutexLock", "ReaderMutexLock"))

Func = namedtuple("Func", ["name", "line", "params", "body", "requires_"])
Lam = namedtuple("Lam", ["intro", "params", "body", "line"])

IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")


def is_ident(tok):
    return bool(IDENT_RE.match(tok)) and tok not in CPP_KEYWORDS


class FileIndex:
    """Token-level index of one C++ file (built on the stripped text)."""

    def __init__(self, f):
        self.f = f
        self.path = f.rel_path
        self.text = f.stripped
        self.toks = [(m.group(0), m.start())
                     for m in TOKEN_RE.finditer(self.text)]
        self._nl = [i for i, c in enumerate(self.text) if c == "\n"]
        self.match = self._match_brackets()
        self.parent = self._build_parents()
        self.functions = self._extract_functions()
        self.lambdas = self._extract_lambdas()
        self.callable_bodies = (
            {fn.body[0] for fn in self.functions}
            | {lam.body[0] for lam in self.lambdas})

    def tline(self, i):
        """1-based line of token i."""
        return bisect_right(self._nl, self.toks[i][1]) + 1

    def _match_brackets(self):
        match = {}
        stack = []
        for i, (t, _) in enumerate(self.toks):
            if t in OPENERS:
                stack.append(i)
            elif t in CLOSERS:
                # Pop until the matching opener kind (tolerates mismatches
                # from macro tricks or truncated files).
                while stack:
                    j = stack.pop()
                    if OPENERS[self.toks[j][0]] == t:
                        match[j] = i
                        match[i] = j
                        break
        return match

    def _build_parents(self):
        """parent[i] = index of the innermost bracket opener enclosing i."""
        parent = [None] * len(self.toks)
        stack = []
        for i, (t, _) in enumerate(self.toks):
            if t in CLOSERS and stack and self.match.get(i) == stack[-1]:
                stack.pop()
            parent[i] = stack[-1] if stack else None
            if t in OPENERS and i in self.match:
                stack.append(i)
        return parent

    def _extract_functions(self):
        """Function definitions: `name ( params ) [tail] { body }`, where
        tail may hold cv/ref qualifiers, LIGHTNE_* annotation macros, a ctor
        init list, or a trailing return type."""
        funcs = []
        n = len(self.toks)
        for i, (t, _) in enumerate(self.toks):
            if not is_ident(t) or i + 1 >= n or self.toks[i + 1][0] != "(":
                continue
            close = self.match.get(i + 1)
            if close is None:
                continue
            body, requires_ = self._body_after_params(close)
            if body is None:
                continue
            funcs.append(Func(t, self.tline(i), (i + 1, close),
                              (body, self.match[body]), tuple(requires_)))
        return funcs

    def _body_after_params(self, close):
        """From the ')' at `close`, finds the '{' opening a function body.
        Returns (body_open_idx, requires_lock_names) or (None, None)."""
        n = len(self.toks)
        i = close + 1
        requires_ = []
        in_tail = False  # saw ->, :, or an annotation macro
        while i < n:
            t = self.toks[i][0]
            if t == "{":
                if i not in self.match:
                    return None, None
                after = (self.toks[self.match[i] + 1][0]
                         if self.match[i] + 1 < n else "")
                if in_tail and after in (",", "{"):
                    # brace-init in a ctor init list: a_{1}, b_{2} { body }
                    i = self.match[i] + 1
                    continue
                return i, requires_
            if t in (";", ")", "}", "=", "?"):
                return None, None
            if t in ANNOT_LOCK_MACROS and i + 1 < n \
                    and self.toks[i + 1][0] == "(":
                mclose = self.match.get(i + 1)
                if mclose is None:
                    return None, None
                requires_.extend(
                    tok for tok, _ in self.toks[i + 2:mclose]
                    if is_ident(tok))
                i = mclose + 1
                in_tail = True
                continue
            if t.startswith("LIGHTNE_"):
                if i + 1 < n and self.toks[i + 1][0] == "(":
                    mclose = self.match.get(i + 1)
                    if mclose is None:
                        return None, None
                    i = mclose + 1
                else:
                    i += 1
                in_tail = True
                continue
            if t in ("->", ":"):
                in_tail = True
                i += 1
                continue
            if t == "(":
                pclose = self.match.get(i)
                if pclose is None:
                    return None, None
                i = pclose + 1
                continue
            if t in FUNC_TAIL_OK or (in_tail and (is_ident(t)
                                                  or t in CPP_KEYWORDS
                                                  or t.isdigit())):
                i += 1
                continue
            return None, None
        return None, None

    def _extract_lambdas(self):
        lams = []
        n = len(self.toks)
        for i, (t, _) in enumerate(self.toks):
            if t != "[":
                continue
            prev = self.toks[i - 1][0] if i > 0 else ""
            # A '[' after a value expression is a subscript, not a capture.
            if prev and (prev[0].isalnum() or prev[0] == "_"
                         or prev in (")", "]")):
                continue
            close = self.match.get(i)
            if close is None:
                continue
            j = close + 1
            params = None
            if j < n and self.toks[j][0] == "(":
                pclose = self.match.get(j)
                if pclose is None:
                    continue
                params = (j, pclose)
                j = pclose + 1
            # Specifier / trailing-return zone up to the body '{'.
            k = j
            ok = False
            while k < n:
                tk = self.toks[k][0]
                if tk == "{":
                    ok = True
                    break
                if tk in ("class", "struct", "enum", "namespace", ";", ")",
                          ",", "]", "}", "="):
                    break
                if tk == "(":  # e.g. noexcept(...)
                    pc = self.match.get(k)
                    if pc is None:
                        break
                    k = pc + 1
                    continue
                k += 1
            if not ok or k not in self.match:
                continue
            lams.append(Lam((i, close), params, (k, self.match[k]),
                            self.tline(i)))
        return lams

    def parallel_arg_ranges(self):
        """Token ranges of argument lists of parallel-dispatch calls."""
        ranges = []
        n = len(self.toks)
        for i, (t, _) in enumerate(self.toks):
            if t not in PARALLEL_CALLS:
                continue
            j = i + 1
            if j < n and self.toks[j][0] == "<":  # skip template args
                depth = 0
                while j < n:
                    tj = self.toks[j][0]
                    if tj == "<":
                        depth += 1
                    elif tj == ">":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    elif tj == ">>":
                        depth -= 2
                        if depth <= 0:
                            j += 1
                            break
                    elif tj in (";", "{", ")"):
                        j = -1
                        break
                    j += 1
                if j < 0:
                    continue
            if j < n and self.toks[j][0] == "(" and j in self.match:
                ranges.append((j, self.match[j], t))
        return ranges

    def parallel_lambdas(self):
        """(Lam, callee) for each lambda passed directly (not nested inside
        another lambda) to a parallel-dispatch call."""
        result = []
        for lo, hi, callee in self.parallel_arg_ranges():
            in_range = [lam for lam in self.lambdas
                        if lo < lam.intro[0] < hi]
            for lam in in_range:
                nested = any(o is not lam
                             and o.body[0] < lam.intro[0] < o.body[1]
                             for o in in_range)
                if not nested:
                    result.append((lam, callee))
        return result

    def locals_of(self, lam):
        """Names that are per-item inside a parallel lambda: its parameters,
        every variable declared anywhere in its body (including nested
        lambdas' bodies), and nested lambdas' parameters. The declaration
        heuristic over-approximates on purpose: treating a shared name as
        local can only silence a finding, never invent one."""
        names = set()
        ranges = [lam.body]
        if lam.params is not None:
            ranges.append(lam.params)
        for o in self.lambdas:
            if lam.body[0] < o.intro[0] < lam.body[1] and o.params:
                ranges.append(o.params)
        for lo, hi in ranges:
            names |= self._decls_in(lo, hi)
        return names

    def _decls_in(self, lo, hi):
        names = set()
        n = len(self.toks)
        i = lo + 1
        while i < hi:
            t = self.toks[i][0]
            if t == "auto" and i + 1 < hi and self.toks[i + 1][0] == "[":
                # structured binding: auto [a, b] = ...
                bclose = self.match.get(i + 1, i + 1)
                names |= {tok for tok, _ in self.toks[i + 2:bclose]
                          if is_ident(tok)}
                i = bclose + 1
                continue
            if is_ident(t):
                prev = self.toks[i - 1][0] if i > 0 else ""
                nxt = self.toks[i + 1][0] if i + 1 < n else ""
                prev_typeish = (bool(prev) and (prev[0].isalnum()
                                                or prev[0] == "_"
                                                or prev in ("*", "&", "&&",
                                                            ">", "]")))
                if prev_typeish and nxt in ("=", ";", "{", "(", ":", ",",
                                            ")"):
                    names.add(t)
            i += 1
        return names

    def stmt_first_tok(self, d):
        """Index of the first token of the statement containing token d
        (bracket groups are skipped whole on the way back)."""
        k = d
        while k > 0:
            t = self.toks[k - 1][0]
            if t in (";", "{", "}"):
                return k
            if t in (")", "]") and (k - 1) in self.match:
                k = self.match[k - 1]
                continue
            k -= 1
        return 0

    def enclosing_function(self, i):
        """Innermost Func whose body contains token i, or None."""
        best = None
        for fn in self.functions:
            lo, hi = fn.body
            if lo < i < hi and (best is None or lo > best.body[0]):
                best = fn
        return best


# --------------------------------------------------------------------------
# parfloat
COMPOUND_OPS = ("+=", "-=", "*=", "/=")
FLOATY_DECL_RE = re.compile(
    r"\b(?:float|double|Matrix)\b[^;(){}=]*?[\s*&>]([A-Za-z_]\w*)\s*"
    r"[;=({,)\[]")
FIXED_POINT_RE = re.compile(r"_fp\d*$")
FLOAT_ATOMIC_DECL_RE = re.compile(
    r"\batomic\s*<\s*(?:long\s+)?(?:float|double)\s*>[^;(){}=]*?[\s*&>]"
    r"([A-Za-z_]\w*)\s*[;=({,)\[]")
ATOMIC_RMW_METHODS = frozenset((
    "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong",
))
ATOMIC_RMW_HELPERS = frozenset(("AtomicFetchAdd", "CasLoopFetchAdd"))


def floaty_names(text):
    """Names declared anywhere in the file with a floating type (float,
    double, Matrix, or containers thereof — the type word just has to
    appear in the declarator)."""
    return {m.group(1) for m in FLOATY_DECL_RE.finditer(text)}


def params_of(idx, lam):
    """Parameter names of a lambda plus those of lambdas nested in it —
    the per-item / per-worker indices of the parallel region."""
    ranges = []
    if lam.params is not None:
        ranges.append(lam.params)
    for o in idx.lambdas:
        if lam.body[0] < o.intro[0] < lam.body[1] and o.params:
            ranges.append(o.params)
    names = set()
    for lo, hi in ranges:
        names |= idx._decls_in(lo, hi)
    return names


def object_chain(idx, end, lo):
    """Identifiers of the postfix expression ending at token `end` (e.g.
    a, b for `a[i].b` or `a->b`), scanning back no further than `lo`;
    bracket groups are skipped whole."""
    toks = idx.toks
    names = []
    k = end
    while k > lo:
        t = toks[k][0]
        if t in (")", "]") and k in idx.match:
            k = idx.match[k] - 1
            continue
        if not is_ident(t):
            break
        names.append(t)
        if toks[k - 1][0] not in (".", "->", "::"):
            break
        k -= 2
    return names


def float_atomic_rmw_sites(idx, lam, float_atomics):
    """(token index, atomic name) of each read-modify-write on a captured
    floating-point std::atomic inside a parallel lambda."""
    toks = idx.toks
    locs = idx.locals_of(lam)
    lo, hi = lam.body
    for i in range(lo + 1, hi):
        t = toks[i][0]
        if t in ATOMIC_RMW_METHODS and toks[i - 1][0] in (".", "->"):
            chain = object_chain(idx, i - 2, lo)
        elif (t in ATOMIC_RMW_HELPERS and toks[i + 1][0] == "("
              and (i + 1) in idx.match):
            # The first argument: up to the first top-level comma.
            k = i + 2
            close = idx.match[i + 1]
            while k < close and toks[k][0] != ",":
                k = idx.match.get(k, k) + 1 if toks[k][0] in OPENERS else k + 1
            chain = object_chain(idx, k - 1, i + 1)
        else:
            continue
        hits = [name for name in chain if name in float_atomics]
        if hits and not any(name in locs for name in chain):
            yield i, hits[0]


def check_parfloat(idx):
    if not idx.path.startswith("src/"):
        return
    floaty = floaty_names(idx.text)
    float_atomics = {m.group(1)
                     for m in FLOAT_ATOMIC_DECL_RE.finditer(idx.text)}
    toks = idx.toks
    for lam, callee in idx.parallel_lambdas():
        for i, name in float_atomic_rmw_sites(idx, lam, float_atomics):
            yield anchored(
                idx.path, "parfloat",
                f"'{toks[i][0]}' on floating-point atomic '{name}' inside a "
                f"{callee} lambda sums in arrival order, which is "
                "schedule-dependent; keep per-item results and sum them in "
                "index order, use an integer fixed-point atomic, or suppress "
                "with a written justification", idx.text, toks[i][1])
        locs = idx.locals_of(lam)
        pars = params_of(idx, lam)
        lo, hi = lam.body
        for i in range(lo + 1, hi):
            if toks[i][0] not in COMPOUND_OPS:
                continue
            s = idx.stmt_first_tok(i)
            slice_toks = [t for t, _ in toks[s:i]]
            slice_ids = [t for t in slice_toks if is_ident(t)]
            if not slice_ids:
                continue
            # The object being assigned: identifiers before the first
            # subscript / member access.
            head_ids = []
            for t in slice_toks:
                if t in ("[", ".", "->"):
                    break
                if is_ident(t):
                    head_ids.append(t)
            if any(t in locs for t in (head_ids or slice_ids)):
                continue  # target is per-item state inside the lambda
            if any(t in pars for t in slice_ids):
                continue  # partitioned by the item/worker index
            if any(FIXED_POINT_RE.search(t) for t in slice_ids):
                continue  # integer fixed-point counter (e.g. mass_fp20)
            if not any(t in floaty for t in slice_ids):
                continue  # integer or unknown-typed accumulation
            target = "".join(slice_toks).rstrip("=")
            yield anchored(
                idx.path, "parfloat",
                f"float '{toks[i][0]}' on captured '{target}' inside a "
                f"{callee} lambda is schedule-dependent (FP addition does "
                "not associate); use a per-worker partition, an integer "
                "fixed-point counter (*_fp20), or suppress with a written "
                "justification", idx.text, toks[i][1])


# --------------------------------------------------------------------------
# rngflow
RNGFLOW_HOT_DIRS = ("src/graph/", "src/core/")
RNG_DECL_RE = re.compile(r"\b(?:Rng|ItemRng)\s*&?\s*([A-Za-z_]\w*)\s*[(={;,)]")
DRAW_METHODS = frozenset(("Uniform", "UniformInt", "UniformRange",
                          "Bernoulli", "Gaussian", "Next"))


def rng_draw_sites(idx, rng_names):
    """Token indexes of `rng.Draw(` / `rng->Draw(` call heads."""
    toks = idx.toks
    n = len(toks)
    for i, (t, _) in enumerate(toks):
        if (t in rng_names and i + 3 < n
                and toks[i + 1][0] in (".", "->")
                and toks[i + 2][0] in DRAW_METHODS
                and toks[i + 3][0] == "("):
            yield i


def brace_kind(idx, g):
    """What introduced the brace at token g: if/else/while/do/for/switch,
    or 'block' for a plain scope."""
    toks = idx.toks
    p = g - 1
    if p < 0:
        return "top"
    t = toks[p][0]
    if t in ("else", "do", "try"):
        return t
    if t == ")" and p in idx.match:
        o = idx.match[p]
        intro = toks[o - 1][0] if o > 0 else ""
        if intro in ("if", "while", "for", "switch", "catch"):
            return intro
    return "block"


def draw_context(idx, d):
    """Why the draw at token d is conditionally executed, or None. The walk
    stops at the enclosing function/lambda body (interprocedural draw
    conditions are a documented blind spot), and `for` bodies never flag
    (their trip count is data, not a draw condition)."""
    toks = idx.toks
    # A '?' earlier in the same statement conditions everything after it.
    k = d - 1
    while k >= 0 and toks[k][0] not in (";", "{", "}"):
        if toks[k][0] == "?":
            return "behind '?' in a ternary"
        if toks[k][0] in (")", "]") and k in idx.match:
            k = idx.match[k]
            continue
        k -= 1
    saw_cond_paren = False
    g = idx.parent[d]
    while g is not None:
        t = toks[g][0]
        if t == "(":
            intro = toks[g - 1][0] if g > 0 else ""
            if intro in ("if", "while"):
                saw_cond_paren = True
                for k2 in range(g + 1, d):
                    if idx.parent[k2] == g and toks[k2][0] in ("&&", "||"):
                        return (f"behind '{toks[k2][0]}' in a {intro} "
                                "condition (short-circuit)")
        elif t == "{":
            if g in idx.callable_bodies:
                break
            kind = brace_kind(idx, g)
            if kind in ("if", "else", "switch"):
                return f"inside a conditional branch ({kind})"
            if kind in ("while", "do"):
                return "inside a loop body"
        g = idx.parent[g]
    if not saw_cond_paren:
        s = idx.stmt_first_tok(d)
        t0 = toks[s][0]
        if t0 in ("if", "else"):
            return "in a braceless conditional body"
        if t0 in ("while", "do"):
            return "in a braceless loop body"
    return None


def check_rngflow(idx):
    if not idx.path.startswith("src/"):
        return
    rng_names = ({"rng"}
                 | {m.group(1) for m in RNG_DECL_RE.finditer(idx.text)})
    draws = list(rng_draw_sites(idx, rng_names))
    if not draws:
        return
    toks = idx.toks
    # Shared-stream check (all of src/): a draw inside a parallel lambda on
    # an Rng that is not declared inside that lambda uses one stream across
    # workers — schedule-dependent consumption.
    reported = set()
    for lam, callee in idx.parallel_lambdas():
        locs = idx.locals_of(lam)
        lo, hi = lam.body
        for d in draws:
            if not lo < d < hi or toks[d][0] in locs:
                continue
            reported.add(d)
            yield anchored(
                idx.path, "rngflow",
                f"Rng '{toks[d][0]}' is captured into a {callee} lambda: "
                "one stream shared across workers makes the draw sequence "
                "schedule-dependent; derive a per-item "
                "Rng(HashCombine64(seed, item)) inside the lambda",
                idx.text, toks[d][1])
    # One-Uniform-per-draw check (sampling hot paths only).
    if not idx.path.startswith(RNGFLOW_HOT_DIRS):
        return
    for d in draws:
        if d in reported:
            continue
        reason = draw_context(idx, d)
        if reason is None:
            continue
        method = toks[d + 2][0]
        yield anchored(
            idx.path, "rngflow",
            f"{toks[d][0]}.{method}() {reason}: a data-dependent draw "
            "count desynchronizes the replayable RNG cursor "
            "(one-Uniform-per-draw contract); restructure so every code "
            "path consumes the same draws, or suppress with a written "
            "justification", idx.text, toks[d][1])


# --------------------------------------------------------------------------
# lockorder
LOCK_DECL_RE = re.compile(r"\b(?:Mutex|SharedMutex)\s+([A-Za-z_]\w*)\s*[;{=]")

LockSite = namedtuple("LockSite", ["lock", "path", "line", "tok", "scope"])

LOCK_CHAIN_CAP = 6  # max interprocedural hops in a witness chain


def _lock_id(idx, tok_i, name):
    """file::name, or file::function::name for function-local mutexes."""
    fn = idx.enclosing_function(tok_i)
    if fn is not None:
        lo, hi = fn.body
        body_text = idx.text[idx.toks[lo][1]:idx.toks[hi][1]]
        if re.search(r"\b(?:Mutex|SharedMutex)\s+" + re.escape(name)
                     + r"\s*[;{=(]", body_text):
            return f"{idx.path}::{fn.name}::{name}"
    return f"{idx.path}::{name}"


def _lock_sites(idx):
    """RAII acquisition sites with their lexical scope (to the end of the
    innermost enclosing brace — the guard's lifetime)."""
    sites = []
    toks = idx.toks
    n = len(toks)
    for i, (t, _) in enumerate(toks):
        if t not in LOCK_RAII:
            continue
        if i + 2 >= n or not is_ident(toks[i + 1][0]) \
                or toks[i + 2][0] != "(":
            continue
        close = idx.match.get(i + 2)
        if close is None:
            continue
        arg_ids = [tok for tok, _ in toks[i + 3:close] if is_ident(tok)]
        if not arg_ids:
            continue
        name = arg_ids[-1]  # i.mu -> mu, FaultRegistry::...().mu -> mu
        g = idx.parent[i]
        while g is not None and toks[g][0] != "{":
            g = idx.parent[g]
        if g is None or g not in idx.match:
            continue
        sites.append(LockSite(_lock_id(idx, i, name), idx.path,
                              idx.tline(i), i, (i, idx.match[g])))
    return sites


def _calls_in(idx, lo, hi, defined_names):
    """(callee, line) for name-matched calls inside a token range."""
    toks = idx.toks
    for i in range(lo, hi):
        t = toks[i][0]
        if (t in defined_names and t not in LOCK_RAII
                and i + 1 < len(toks) and toks[i + 1][0] == "("):
            yield t, idx.tline(i)


def check_lockorder(indexes):
    """Cross-file: builds the static lock-acquisition graph and reports
    every cycle with the acquisition chain of each edge."""
    indexes = [idx for idx in indexes if idx.path.startswith("src/")]
    if not indexes:
        return []
    func_defs = {}   # name -> [(idx, Func)]
    for idx in indexes:
        for fn in idx.functions:
            func_defs.setdefault(fn.name, []).append((idx, fn))
    defined_names = set(func_defs)

    all_sites = {}   # idx.path -> [LockSite]
    for idx in indexes:
        all_sites[idx.path] = _lock_sites(idx)

    # Locks each function acquires, directly or through calls (fixpoint,
    # chains capped at LOCK_CHAIN_CAP hops). trans[name] = {lock: chain}.
    trans = {name: {} for name in func_defs}
    direct = {name: {} for name in func_defs}
    for idx in indexes:
        for site in all_sites[idx.path]:
            fn = idx.enclosing_function(site.tok)
            if fn is None:
                continue
            direct[fn.name].setdefault(
                site.lock, f"{site.lock} acquired at {site.path}:{site.line}")
    for name in func_defs:
        trans[name].update(direct[name])
    for _ in range(LOCK_CHAIN_CAP):
        changed = False
        for name, defs in func_defs.items():
            for idx, fn in defs:
                for callee, line in _calls_in(idx, fn.body[0], fn.body[1],
                                              defined_names):
                    if callee == name:
                        continue
                    for lock, chain in trans.get(callee, {}).items():
                        if lock not in trans[name]:
                            trans[name][lock] = (
                                f"{name}() calls {callee}() at "
                                f"{idx.path}:{line} -> {chain}")
                            changed = True
        if not changed:
            break

    # Edges: A -> B when B is acquired (directly or transitively through a
    # call) while A's RAII guard is live; plus LIGHTNE_REQUIRES(A) on a
    # function that acquires B (callers hold A when B is taken).
    edges = {}  # (a, b) -> (witness, path, line)
    def add_edge(a, b, witness, path, line):
        if (a, b) not in edges:
            edges[(a, b)] = (witness, path, line)

    for idx in indexes:
        sites = all_sites[idx.path]
        for site in sites:
            lo, hi = site.scope
            held = f"{site.lock} held from {site.path}:{site.line}"
            for other in sites:
                if other.tok > site.tok and lo < other.tok < hi:
                    add_edge(site.lock, other.lock,
                             f"{held}; {other.lock} acquired at "
                             f"{other.path}:{other.line}",
                             site.path, site.line)
            for callee, line in _calls_in(idx, site.tok, hi, defined_names):
                for lock, chain in trans.get(callee, {}).items():
                    if lock == site.lock:
                        continue
                    add_edge(site.lock, lock,
                             f"{held}; {callee}() called at "
                             f"{idx.path}:{line} -> {chain}",
                             site.path, site.line)
        for fn in idx.functions:
            if not fn.requires_:
                continue
            for req in fn.requires_:
                a = f"{idx.path}::{req}"
                for lock, chain in trans.get(fn.name, {}).items():
                    if lock == a:
                        continue
                    add_edge(a, lock,
                             f"{a} required held by {fn.name}() "
                             f"({idx.path}:{fn.line}); {chain}",
                             idx.path, fn.line)

    # Cycle detection: every strongly connected component with >= 2 locks
    # (or a self-loop) is a potential deadlock.
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())
    findings = []
    for comp in _sccs(adj):
        if len(comp) == 1:
            a = next(iter(comp))
            if a in adj.get(a, ()):
                w, path, line = edges[(a, a)]
                findings.append(Finding(
                    path, line, "lockorder",
                    f"lock {a} may be re-acquired while already held "
                    f"(self-deadlock): {w}"))
            continue
        cycle = _cycle_in(comp, adj)
        chains = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            w, _, _ = edges[(a, b)]
            chains.append(f"[{a} -> {b}] {w}")
        _, path, line = edges[(cycle[0], cycle[1])]
        findings.append(Finding(
            path, line, "lockorder",
            "lock-order cycle (potential deadlock) between "
            + " and ".join(sorted(comp)) + ": " + "; ".join(chains)))
    return findings


def _sccs(adj):
    """Tarjan strongly-connected components (iterative)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]
    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _cycle_in(comp, adj):
    """A simple cycle through the nodes of one SCC (node list, in order)."""
    start = min(comp)
    path = [start]
    seen = {start}
    v = start
    while True:
        nxts = [w for w in sorted(adj.get(v, ())) if w in comp]
        back = [w for w in nxts if w == start]
        if back and len(path) > 1:
            return path
        unvisited = [w for w in nxts if w not in seen]
        if not unvisited:
            return path  # defensive; an SCC always closes the loop
        v = unvisited[0]
        seen.add(v)
        path.append(v)


# --------------------------------------------------------------------------
# ptrhash
HASH_FN_RE = re.compile(r"(?:\w*Hash\w*|SplitMix64)\Z")
PTR_ORDER_TEMPLATES = frozenset(("hash", "less", "greater"))
PTR_KEY_CONTAINERS = frozenset(("map", "set", "multimap", "multiset"))
RELATIONAL = frozenset(("<", ">", "<=", ">="))


def _template_group(idx, i):
    """Token index just past the '>' closing the template list opened by
    the '<' at i, or None ('>>' counts as two closers)."""
    depth = 0
    toks = idx.toks
    for j in range(i, len(toks)):
        t = toks[j][0]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}"):
            return None
    return None


def check_ptrhash(idx):
    toks = idx.toks
    n = len(toks)
    for i, (t, off) in enumerate(toks):
        # std::hash<T*> / std::less<T*> / std::greater<T*>
        if (t in PTR_ORDER_TEMPLATES and i >= 2
                and toks[i - 1][0] == "::" and toks[i - 2][0] == "std"
                and i + 1 < n and toks[i + 1][0] == "<"):
            end = _template_group(idx, i + 1)
            if end and any(tok == "*" for tok, _ in toks[i + 2:end - 1]):
                yield anchored(
                    idx.path, "ptrhash",
                    f"std::{t} over a pointer type orders/hashes by "
                    "address, which differs run to run; key by a stable id "
                    "(NodeId, name, index) instead", idx.text, off)
        # std::map<K*, ...> / std::set<K*>: pointer in the first (key)
        # template argument.
        if (t in PTR_KEY_CONTAINERS and i >= 2
                and toks[i - 1][0] == "::" and toks[i - 2][0] == "std"
                and i + 1 < n and toks[i + 1][0] == "<"):
            end = _template_group(idx, i + 1)
            if end:
                key_toks = []
                for j in range(i + 2, end - 1):
                    if toks[j][0] == "," and _at_template_top(toks, i + 1, j):
                        break
                    key_toks.append(toks[j][0])
                if "*" in key_toks:
                    yield anchored(
                        idx.path, "ptrhash",
                        f"std::{t} keyed by a pointer iterates in address "
                        "order, which differs run to run; key by a stable "
                        "id instead", idx.text, off)
        # reinterpret_cast inside a *Hash*/SplitMix64 argument list.
        if (HASH_FN_RE.match(t) and i + 1 < n and toks[i + 1][0] == "("
                and (i + 1) in idx.match):
            close = idx.match[i + 1]
            for j in range(i + 2, close):
                if toks[j][0] == "reinterpret_cast":
                    yield anchored(
                        idx.path, "ptrhash",
                        f"pointer bits (reinterpret_cast) fed to {t}() "
                        "hash addresses, which differ run to run; hash a "
                        "stable id instead", idx.text, toks[j][1])
                    break
        # Relational comparison of a reinterpret_cast result.
        if t == "reinterpret_cast" and i + 1 < n and toks[i + 1][0] == "<":
            end = _template_group(idx, i + 1)
            if (end and end < n and toks[end][0] == "("
                    and end in idx.match):
                after = idx.match[end] + 1
                prev = toks[i - 1][0] if i > 0 else ""
                if (after < n and toks[after][0] in RELATIONAL) \
                        or prev in RELATIONAL:
                    yield anchored(
                        idx.path, "ptrhash",
                        "relational comparison of reinterpret_cast results "
                        "orders by address, which differs run to run; "
                        "compare stable ids instead", idx.text, off)


def _at_template_top(toks, open_i, j):
    """True if token j sits at depth 1 of the template list opened at
    open_i (i.e. a top-level ',' separating template arguments)."""
    depth = 0
    for k in range(open_i, j):
        t = toks[k][0]
        if t in ("<", "(", "["):
            depth += 1
        elif t in (">", ")", "]"):
            depth -= 1
        elif t == ">>":
            depth -= 2
    return depth == 1


# --------------------------------------------------------------------------
# suppression hygiene
SUPPRESSIBLE = frozenset(RULES) - {"suppression"}


def check_suppressions(f, raw_findings):
    """Validates every `lint-ok:` comment in f against the raw (pre-
    suppression) findings: unknown rule names, missing justifications, and
    suppressions whose rule no longer fires on their line are all errors.
    These findings are themselves unsuppressible — the hygiene rule is the
    one thing a suppression comment cannot wave away."""
    fired = set()
    for x in raw_findings:
        fired.add((x.line, x.rule))
        if x.match_line is not None:
            fired.add((x.match_line, x.rule))
    for lineno, rule, rest in f.suppress_sites:
        if rule not in SUPPRESSIBLE:
            yield Finding(
                f.rel_path, lineno, "suppression",
                f"'lint-ok: {rule}' names no suppressible rule (rules: "
                + ", ".join(sorted(SUPPRESSIBLE)) + ")")
            continue
        if not JUSTIFICATION_RE.search(rest):
            yield Finding(
                f.rel_path, lineno, "suppression",
                f"suppression of '{rule}' has no justification; write why "
                "the finding is intentional, e.g. "
                f"`lint-ok: {rule} (reason)`")
        if (lineno, rule) not in fired:
            yield Finding(
                f.rel_path, lineno, "suppression",
                f"stale suppression: no '{rule}' finding fires on this "
                "line any more — delete the lint-ok comment")


# --------------------------------------------------------------------------
# Fixture trees under tools/lint/testdata/{bad,good}/ are miniature repos:
# lint them as if rooted at their own top, so path-scoped rules (unordered,
# layering, exemptions) apply to a fixture invoked directly by path.
TESTDATA_RE = re.compile(r"(?:^|/)testdata/(?:bad|good)/(.+)$")


def rule_path(rel):
    m = TESTDATA_RE.search(rel)
    return m.group(1) if m else rel


def discover(root, paths=None):
    """Yields repo-relative paths of lintable files under root."""
    rels = []
    if paths:
        for p in paths:
            ap = os.path.abspath(p)
            if os.path.isdir(ap):
                for dirpath, dirnames, filenames in os.walk(ap):
                    dirnames[:] = sorted(
                        d for d in dirnames if not d.startswith("."))
                    for name in sorted(filenames):
                        rels.append(
                            os.path.relpath(os.path.join(dirpath, name),
                                            root))
            else:
                rels.append(os.path.relpath(ap, root))
    else:
        for top in DEFAULT_ROOTS:
            ap = os.path.join(root, top)
            if os.path.isdir(ap):
                rels.extend(discover_dir(root, ap))
        rels.append("CMakeLists.txt")
    seen = set()
    for rel in rels:
        rel = rel.replace(os.sep, "/")
        if rel in seen:
            continue
        seen.add(rel)
        if is_cpp(rel) or is_cmake(rel):
            yield rel


def discover_dir(root, ap):
    for dirpath, dirnames, filenames in os.walk(ap):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            yield os.path.relpath(os.path.join(dirpath, name), root)


def load_files(root, rel_paths):
    files = []
    for rel in rel_paths:
        full = os.path.join(root, rel)
        if not os.path.isfile(full):
            continue
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                files.append(SourceFile(rule_path(rel), fh.read()))
        except OSError as e:
            print(f"lightne_lint: cannot read {rel}: {e}", file=sys.stderr)
    return files


def lint_files(files):
    """Runs every rule over the loaded files; returns unsuppressed findings
    plus the suppression-hygiene findings derived from the raw set."""
    status_names = collect_status_names(files)
    indexes = {}
    for f in files:
        if is_cpp(f.rel_path):
            indexes[f.rel_path] = FileIndex(f)
    raw = {f.rel_path: [] for f in files}
    for f in files:
        for gen in (check_random(f), check_fastmath(f), check_unordered(f),
                    check_status(f, status_names), check_layering(f),
                    check_rawmutex(f), check_timer(f), check_atomicio(f)):
            raw[f.rel_path].extend(gen)
        idx = indexes.get(f.rel_path)
        if idx is not None:
            raw[f.rel_path].extend(check_parfloat(idx))
            raw[f.rel_path].extend(check_rngflow(idx))
            raw[f.rel_path].extend(check_ptrhash(idx))
    for finding in check_lockorder(list(indexes.values())):
        raw.setdefault(finding.path, []).append(finding)
    findings = []
    for f in files:
        file_raw = raw.get(f.rel_path, [])
        findings.extend(x for x in file_raw if not f.suppresses_finding(x))
        findings.extend(check_suppressions(f, file_raw))
    findings.sort(key=lambda x: (x.path, x.line, x.rule))
    return findings


def scan_repo(root, paths=None):
    return lint_files(load_files(root, discover(root, paths)))


def repo_root():
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def write_report(path, findings, files_scanned):
    by_rule = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    doc = {
        "schema": "lightne-lint-v1",
        "total": len(findings),
        "files_scanned": files_scanned,
        "by_rule": dict(sorted(by_rule.items())),
        "findings": [{"path": f.path, "line": f.line, "rule": f.rule,
                      "match_line": f.match_line, "message": f.message}
                     for f in findings],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(argv):
    args = argv[1:]
    if args and args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    report_path = None
    if "--report" in args:
        i = args.index("--report")
        if i + 1 >= len(args):
            print("lightne_lint: --report needs a path", file=sys.stderr)
            return 2
        report_path = args[i + 1]
        del args[i:i + 2]
    if args and args[0].startswith("-"):
        print(f"lightne_lint: unknown option {args[0]}", file=sys.stderr)
        return 2
    root = repo_root()
    files = load_files(root, discover(root, args or None))
    findings = lint_files(files)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if report_path:
        write_report(report_path, findings, len(files))
    if findings:
        print(f"lightne_lint: {len(findings)} finding(s) across "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
