#!/usr/bin/env python3
"""Repo-specific static lint: charge-discipline and convention invariants.

The repo's central contract — every result and charged KernelStats
counter bit-identical across depths, devices, and thread counts — is
pinned dynamically by the stat-invariance goldens. This linter enforces
the *preconditions* of that contract statically, so a violation is
caught in review instead of as a golden diff three PRs later:

  nondeterminism    src/sim/, src/gpujoin/, and src/exec/ (the layers
                    whose behavior is charged — src/exec since the PR-7
                    fault/recovery paths) must not read wall clocks, OS
                    randomness, or iterate hash-ordered containers:
                    std::rand/srand, time(), ::now(),
                    std::chrono::{steady,system,high_resolution}_clock,
                    std::random_device, and std::unordered_{map,set} are
                    banned there. Fault randomness must come from a
                    seeded sim::FaultInjector stream, and query deadlines
                    / quarantine probation run on the modeled clock —
                    naming a wall-clock type in a charged layer is a bug
                    even before anyone calls ::now() on it.
  timeline-mutation computed Schedule lane fields (busy_s, lane_busy_s,
                    start_s, finish_s) may only be written inside
                    src/sim/; everyone else builds DAGs through
                    Timeline::Add and reads the evaluated Schedule.
  obs-read-only     src/obs/ (tracing + metrics) is a charge-free
                    consumer of executed timelines: it must not build or
                    extend them (Timeline::Add / AddLane calls are
                    banned there) and must not include the charged
                    execution layers (src/exec/, src/gpujoin/) — those
                    layers publish *into* obs, never the reverse.
  nontemporal-guard non-temporal store intrinsics (_mm_stream_*,
                    _mm_sfence, __builtin_nontemporal_*) live only in
                    src/util/scatter_buffer.h, behind its __SSE2__
                    guards and the StreamCopyU32/StreamFence publication
                    protocol. A bare intrinsic elsewhere skips both: a
                    portability break on non-SSE2 hosts and a
                    memory-ordering hazard under threads (NT stores are
                    not ordered by plain loads/stores).
  mapping-guard     host memory-mapping calls (mmap, munmap, madvise,
                    mremap) live only in src/util/hostalloc.cc, the one
                    owner of host-allocator policy: device buffers map
                    2 MiB-aligned huge-page blocks there, with the
                    AddressSanitizer heap fallback that keeps device
                    buffers bounds-checked. A mapping made elsewhere
                    bypasses both, and its munmap must agree with the
                    size and path that allocated it.
  nodiscard         function declarations in src/ headers returning
                    util::Status or util::Result<...> must be
                    [[nodiscard]]: a silently dropped Status is how a
                    charged-stats divergence escapes unnoticed.
  include-convention project includes are repo-root-relative
                    ("src/<layer>/<file>.h", "bench/...", "tests/...")
                    and must resolve to an existing file.

Suppression: append `// lint:allow <rule>` to the flagged line, or put
it alone on the line directly above. Use sparingly; every suppression
should say why in a neighboring comment.

Usage:
  scripts/check_invariants.py             lint the tree (exit 1 on findings)
  scripts/check_invariants.py --self-test run the embedded fixture suite
  scripts/check_invariants.py --fix-includes
                                          rewrite bare includes to the
                                          repo-root-relative form
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose sources are linted.
LINT_DIRS = ("src", "bench", "tests", "examples")
# Layers under the determinism contract (charged stats computed here;
# src/exec joined with the fault/recovery layer — injected faults must
# draw from seeded FaultInjector streams, never ambient entropy).
CHARGED_DIRS = ("src/sim", "src/gpujoin", "src/exec")

SOURCE_EXTS = (".h", ".cc", ".cpp")

ALLOW_RE = re.compile(r"//\s*lint:allow\s+([\w,-]+)")

NONDET_PATTERNS = [
    (re.compile(r"\bstd::rand\b|\bsrand\s*\(|[^\w.:]rand\s*\("),
     "C rand()/srand() is seed-global and nondeterministic"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device draws OS entropy"),
    (re.compile(r"[^\w.]time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "wall-clock time() read"),
    (re.compile(r"::now\s*\(\s*\)"),
     "clock ::now() read (wall time must not feed charged stats)"),
    (re.compile(
        r"\bstd::chrono::(steady_clock|system_clock|high_resolution_clock)\b"),
     "wall-clock type in a charged layer (deadlines and probation timers "
     "run on the modeled clock, never std::chrono)"),
    (re.compile(r"\bstd::unordered_(map|set)\b"),
     "unordered container iteration order is address/hash-dependent"),
]

# Writes to a Schedule's computed lane arrays (always subscripted — the
# scalar `finish_s` fields of other structs are not this rule's target).
SCHEDULE_WRITE_RE = re.compile(
    r"(\.|->)(busy_s|lane_busy_s|start_s|finish_s)\s*\[[^\]]*\]\s*"
    r"(=[^=]|\+=|-=|\*=|/=)")

# Timeline-building calls: forbidden in src/obs/, which only serializes
# timelines it is handed. (Method-call syntax only — obs' own AddHostSpan
# and friends are not Timeline mutators.)
OBS_MUTATOR_RE = re.compile(r"(\.|->)(Add|AddLane)\s*\(")
# Charged execution layers src/obs/ must never include: dependencies run
# exec -> obs, so a reverse include would make observability load-bearing
# (and a cycle).
OBS_BANNED_INCLUDE_PREFIXES = ("src/exec/", "src/gpujoin/")

# Non-temporal store intrinsics: allowed only in the one audited header
# (its StreamCopyU32/StreamFence pair is the publication protocol every
# caller inherits).
NONTEMPORAL_RE = re.compile(
    r"\b(_mm(256|512)?_stream_\w+|_mm_sfence|__builtin_nontemporal_\w+)\b")
NONTEMPORAL_ALLOWED_FILE = "src/util/scatter_buffer.h"

# Host memory-mapping calls: allowed only in the host-allocator policy
# file (AllocateZeroed/FreeZeroed own every mapping's size and path).
MAPPING_RE = re.compile(r"\b(mmap(64)?|munmap|madvise|mremap)\s*\(")
MAPPING_ALLOWED_FILE = "src/util/hostalloc.cc"

# A function declaration returning Status/Result. Google-style names:
# functions are CamelCase, so an uppercase identifier after the return
# type distinguishes declarations from `Status status_;` members and
# `Status st = ...` locals. Plain references (`Status&`) are assignment
# operators and don't need the attribute.
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|friend\s+|inline\s+)*"
    r"(?:util::|gjoin::util::)?(?:Status|Result<[^;={}]*>)\s+"
    r"([A-Z]\w*)\s*\(")
NODISCARD_ATTR_RE = re.compile(r"\[\[nodiscard\]\]")

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
INCLUDE_PREFIXES = ("src/", "bench/", "tests/", "examples/")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Removes // comments, string and char literals (keeps structure)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end < 0:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def suppressed(lines, idx, rule):
    """True when line idx (0-based) carries or follows a lint:allow."""
    for probe in (lines[idx], lines[idx - 1] if idx > 0 else ""):
        m = ALLOW_RE.search(probe)
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            return True
    return False


def iter_source_files(root):
    for lint_dir in LINT_DIRS:
        base = os.path.join(root, lint_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root).replace(os.sep, "/")


def lint_file(root, path):
    findings = []
    relpath = rel(root, path)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    in_charged = relpath.startswith(tuple(d + "/" for d in CHARGED_DIRS))
    in_sim = relpath.startswith("src/sim/")
    in_obs = relpath.startswith("src/obs/")
    is_header = relpath.startswith("src/") and relpath.endswith(".h")

    for idx, raw in enumerate(lines):
        code = strip_comments_and_strings(raw)

        if in_charged:
            for pattern, why in NONDET_PATTERNS:
                if pattern.search(code) and not suppressed(
                        lines, idx, "nondeterminism"):
                    findings.append(Finding(
                        relpath, idx + 1, "nondeterminism", why))

        if not in_sim and SCHEDULE_WRITE_RE.search(code):
            if not suppressed(lines, idx, "timeline-mutation"):
                findings.append(Finding(
                    relpath, idx + 1, "timeline-mutation",
                    "computed Schedule lane fields may only be written "
                    "inside src/sim/"))

        if relpath != NONTEMPORAL_ALLOWED_FILE and \
                NONTEMPORAL_RE.search(code):
            if not suppressed(lines, idx, "nontemporal-guard"):
                findings.append(Finding(
                    relpath, idx + 1, "nontemporal-guard",
                    "non-temporal intrinsics live only in "
                    "src/util/scatter_buffer.h (use StreamCopyU32 + "
                    "StreamFence, which carry the __SSE2__ guard and "
                    "the publication fence)"))

        if relpath != MAPPING_ALLOWED_FILE and MAPPING_RE.search(code):
            if not suppressed(lines, idx, "mapping-guard"):
                findings.append(Finding(
                    relpath, idx + 1, "mapping-guard",
                    "host memory mappings live only in "
                    "src/util/hostalloc.cc (use util::AllocateZeroed / "
                    "FreeZeroed, or a sim::DeviceMemory buffer)"))

        if in_obs and OBS_MUTATOR_RE.search(code):
            if not suppressed(lines, idx, "obs-read-only"):
                findings.append(Finding(
                    relpath, idx + 1, "obs-read-only",
                    "src/obs/ serializes executed timelines; it must not "
                    "build or extend them (Timeline::Add/AddLane)"))

        if is_header:
            m = NODISCARD_DECL_RE.match(code)
            if m:
                prev = lines[idx - 1] if idx > 0 else ""
                has_attr = (NODISCARD_ATTR_RE.search(raw)
                            or NODISCARD_ATTR_RE.search(prev))
                if not has_attr and not suppressed(lines, idx, "nodiscard"):
                    findings.append(Finding(
                        relpath, idx + 1, "nodiscard",
                        f"declaration of {m.group(1)}() returns "
                        "Status/Result but is not [[nodiscard]]"))

        m = INCLUDE_RE.match(raw)
        if m:
            inc = m.group(1)
            ok_prefix = inc.startswith(INCLUDE_PREFIXES)
            resolves = os.path.isfile(os.path.join(root, inc))
            if (not ok_prefix or not resolves) and not suppressed(
                    lines, idx, "include-convention"):
                why = ("not repo-root-relative (expected "
                       '"src/<layer>/<file>.h")') if not ok_prefix else \
                      "does not resolve to a file in the repository"
                findings.append(Finding(
                    relpath, idx + 1, "include-convention",
                    f'#include "{inc}" {why}'))
            if in_obs and inc.startswith(OBS_BANNED_INCLUDE_PREFIXES) \
                    and not suppressed(lines, idx, "obs-read-only"):
                findings.append(Finding(
                    relpath, idx + 1, "obs-read-only",
                    f'#include "{inc}" reverses the exec -> obs '
                    "dependency: charged layers publish into obs, "
                    "never the other way"))

    return findings


def lint_tree(root):
    findings = []
    for path in iter_source_files(root):
        findings.extend(lint_file(root, path))
    return findings


# --------------------------------------------------------------------------
# --fix-includes: rewrite bare project includes to repo-root-relative form.
# --------------------------------------------------------------------------

def build_header_index(root):
    """basename -> sorted list of repo-relative paths."""
    index = {}
    for lint_dir in LINT_DIRS:
        base = os.path.join(root, lint_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in filenames:
                if name.endswith(".h"):
                    index.setdefault(name, []).append(
                        rel(root, os.path.join(dirpath, name)))
    for paths in index.values():
        paths.sort()
    return index


def fix_includes(root):
    index = build_header_index(root)
    rewritten = 0
    for path in iter_source_files(root):
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
        changed = False
        for i, line in enumerate(lines):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            inc = m.group(1)
            if inc.startswith(INCLUDE_PREFIXES) and \
                    os.path.isfile(os.path.join(root, inc)):
                continue
            candidates = index.get(os.path.basename(inc), [])
            # Prefer a candidate whose tail matches the written path.
            matches = [c for c in candidates if c.endswith("/" + inc)] \
                or (candidates if len(candidates) == 1 else [])
            if len(matches) == 1:
                lines[i] = line.replace(f'"{inc}"', f'"{matches[0]}"')
                changed = True
                rewritten += 1
                print(f"{rel(root, path)}: {inc} -> {matches[0]}")
            elif candidates:
                print(f"{rel(root, path)}: ambiguous include {inc}: "
                      f"{', '.join(candidates)}", file=sys.stderr)
        if changed:
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(lines)
    print(f"fix-includes: rewrote {rewritten} include(s)")
    return 0


# --------------------------------------------------------------------------
# Self-test: deliberately-bad fixtures must be caught, clean ones not.
# --------------------------------------------------------------------------

FIXTURES = {
    # path -> (contents, set of rules expected to fire)
    "src/sim/bad_clock.cc": (
        "#include <random>\n"
        "#include \"src/sim/timeline.h\"\n"
        "int Jitter() {\n"
        "  std::random_device rd;\n"
        "  return static_cast<int>(rd()) + std::rand();\n"
        "}\n",
        {"nondeterminism"},
    ),
    "src/gpujoin/bad_hash_iter.cc": (
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> g_stats;\n",
        {"nondeterminism"},
    ),
    "src/gpujoin/suppressed_ok.cc": (
        "// host-only wall timing, never charged\n"
        "double Wall() { return Clock::now().t; }  // lint:allow nondeterminism\n",
        set(),
    ),
    "src/exec/bad_lane_poke.cc": (
        "#include \"src/sim/timeline.h\"\n"
        "void Cheat(gjoin::sim::Schedule* s) {\n"
        "  s->busy_s[0] = 0;\n"
        "  s->lane_busy_s[2] += 1.5;\n"
        "}\n",
        {"timeline-mutation"},
    ),
    "src/exec/bad_wall_deadline.cc": (
        # A deadline held as a wall-clock time point is nondeterministic
        # even before anyone reads the clock: charged abort decisions
        # would depend on host speed. (No ::now() call here — this pins
        # the type-name rule, not the read rule.)
        "#include <chrono>\n"
        "struct QueryState {\n"
        "  std::chrono::steady_clock::time_point deadline;\n"
        "  std::chrono::system_clock::duration probation;\n"
        "};\n",
        {"nondeterminism"},
    ),
    "src/util/clean_wall_profiler.cc": (
        # Wall clocks are fine outside the charged layers (src/util,
        # src/obs host profiling never feeds charged stats).
        "#include <chrono>\n"
        "using WallClock = std::chrono::steady_clock;\n",
        set(),
    ),
    "src/exec/bad_fault_entropy.cc": (
        # Fault paths must draw from the plan's seeded PRNG stream, not
        # ambient entropy: charged retry/penalty seconds would differ
        # run to run.
        "#include <cstdlib>\n"
        "#include <random>\n"
        "bool FlakyTransfer() {\n"
        "  std::random_device entropy;\n"
        "  return (entropy() ^ static_cast<unsigned>(rand())) & 1u;\n"
        "}\n",
        {"nondeterminism"},
    ),
    "src/cpu/bad_inline_stream.cc": (
        # A hand-rolled NT store outside the audited header: no __SSE2__
        # guard and no inherited fence protocol.
        "#include <emmintrin.h>\n"
        "void Flush(__m128i v, __m128i* dst) {\n"
        "  _mm_stream_si128(dst, v);\n"
        "  _mm_sfence();\n"
        "}\n",
        {"nontemporal-guard"},
    ),
    "src/util/scatter_buffer.h": (
        # The one audited home of the intrinsics; must lint clean.
        "#if defined(__SSE2__)\n"
        "#include <emmintrin.h>\n"
        "#endif\n"
        "inline void StreamFence() {\n"
        "#if defined(__SSE2__)\n"
        "  _mm_sfence();\n"
        "#endif\n"
        "}\n",
        set(),
    ),
    "src/gpujoin/bad_raw_mapping.cc": (
        # A hand-rolled huge-page mapping outside the allocator: no ASan
        # fallback, and nothing ties its munmap to its mapped size.
        "#include <sys/mman.h>\n"
        "void* Pool(size_t bytes) {\n"
        "  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,\n"
        "                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);\n"
        "  madvise(p, bytes, MADV_HUGEPAGE);\n"
        "  return p;\n"
        "}\n"
        "void Drop(void* p, size_t bytes) { munmap(p, bytes); }\n",
        {"mapping-guard"},
    ),
    "src/util/hostalloc.cc": (
        # The one audited home of the mapping calls; must lint clean.
        "#include <sys/mman.h>\n"
        "void* AllocateZeroed(size_t bytes) {\n"
        "  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,\n"
        "                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);\n"
        "  madvise(p, bytes, MADV_HUGEPAGE);\n"
        "  return p;\n"
        "}\n"
        "void FreeZeroed(void* p, size_t bytes) { munmap(p, bytes); }\n",
        set(),
    ),
    "src/util/bad_missing_nodiscard.h": (
        "#include \"src/util/status.h\"\n"
        "namespace gjoin::util {\n"
        "Status Frob(int x);\n"
        "[[nodiscard]] Status Annotated(int x);\n"
        "Result<int> Count();\n"
        "Status status_field_;\n"
        "}\n",
        {"nodiscard"},
    ),
    "src/util/bad_include.cc": (
        "#include \"status.h\"\n"
        "#include \"src/util/no_such_file.h\"\n",
        {"include-convention"},
    ),
    "src/sim/clean.cc": (
        "#include \"src/sim/timeline.h\"\n"
        "namespace gjoin::sim {\n"
        "void Evaluate(Schedule* s) { s->busy_s[0] = 0; }  // in src/sim\n"
        "}\n",
        set(),
    ),
    "src/obs/bad_mutating_exporter.cc": (
        # An exporter that extends the timeline it was handed — and pulls
        # in the execution layer to do it — is load-bearing, not
        # observability.
        "#include \"src/exec/session.h\"\n"
        "#include \"src/sim/timeline.h\"\n"
        "void Pad(gjoin::sim::Timeline* t) {\n"
        "  const int lane = t->AddLane(\"obs\");\n"
        "  t->Add(lane, 1.0, {}, \"padding\");\n"
        "}\n",
        {"obs-read-only"},
    ),
    "src/obs/clean_reader.cc": (
        "#include \"src/sim/timeline.h\"\n"
        "size_t CountOps(const gjoin::sim::Timeline& t) {\n"
        "  return t.size();\n"
        "}\n",
        set(),
    ),
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="gjoin_lint_selftest_") as tmp:
        # Real files referenced by fixtures must resolve.
        for needed in ("src/sim/timeline.h", "src/util/status.h",
                       "src/exec/session.h"):
            dst = os.path.join(tmp, needed)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, "w", encoding="utf-8") as f:
                f.write("// fixture stand-in\n")
        for path, (contents, _) in FIXTURES.items():
            dst = os.path.join(tmp, path)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, "w", encoding="utf-8") as f:
                f.write(contents)
        findings = lint_tree(tmp)
        by_file = {}
        for f in findings:
            by_file.setdefault(f.path, set()).add(f.rule)
        for path, (_, expected) in FIXTURES.items():
            got = by_file.get(path, set())
            if expected and not expected <= got:
                failures.append(
                    f"{path}: expected rules {sorted(expected)}, got "
                    f"{sorted(got)}")
            if not expected and got:
                failures.append(
                    f"{path}: expected clean, got {sorted(got)}")
        # The stand-in headers themselves must not produce findings.
        for f in findings:
            if f.path not in FIXTURES:
                failures.append(f"unexpected finding: {f}")
    if failures:
        print("self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print(f"self-test passed: {len(FIXTURES)} fixtures, all rules verified")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded fixture suite")
    parser.add_argument("--fix-includes", action="store_true",
                        help="rewrite bare project includes in place")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.fix_includes:
        return fix_includes(args.root)

    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} finding(s). Suppress a deliberate one "
              "with '// lint:allow <rule>' on or above the line.",
              file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
