#!/usr/bin/env python3
"""Concurrency lint for the Gravel tree (DESIGN.md §8).

Rules
-----
naked-atomic
    ``std::atomic<...>`` / ``std::atomic_flag`` may only appear in the shim
    home (src/common/atomic.hpp) and the verification layer (src/verify/).
    Product code must use ``gravel::atomic`` so the model checker can
    instrument it. ``std::atomic_ref`` is allowed everywhere: it adapts
    plain memory the symmetric heap hands out and has no gravel wrapper.

implicit-order
    Every atomic operation (.load/.store/.exchange/.fetch_*/
    .compare_exchange_*/.test_and_set) must name an explicit memory order —
    either a ``std::memory_order_*`` constant or a forwarded ``order``
    parameter. The default seq_cst hides the author's intent and defeats
    the mutation self-test's site accounting. The shim home is exempt —
    it forwards caller-supplied orders under the name ``mo``.

hot-path-blocking
    Files marked ``// gravel-lint: hot-path`` (the lock-free queues) must
    not take locks, sleep, or call the raw OS yield. Spin loops there go
    through ``gravel::spinYield()`` so the model checker can intercept
    them.

unclassified-hot-path
    Drift gate: every header under src/queue/ or src/obs/ that uses
    atomics must either carry the ``gravel-lint: hot-path`` marker (or be
    pinned in HOT_PATH_FILES) or be explicitly classified with
    ``// gravel-lint: cold-path`` (sampler/collector cadence, audited by
    hand). A new atomics-bearing header cannot silently dodge the
    hot-path rules and tools/gravel_analyze.py's purity check.

Suppress a finding with ``// gravel-lint: allow(<rule>)`` on the same line.

Usage:
    lint_concurrency.py <repo-root>     lint src/ of the given tree
    lint_concurrency.py --self-test     prove the rules fire on violations

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

HOT_PATH_MARKER = "gravel-lint: hot-path"
COLD_PATH_MARKER = "gravel-lint: cold-path"
# Files (relative to the scanned root) that are hot-path REGARDLESS of the
# marker. The queue dequeue/enqueue paths and the observability record path
# run on every message of every runtime thread, so a dropped marker comment
# must not silently exempt them.
HOT_PATH_FILES = (
    "queue/gravel_queue.hpp",
    "queue/mpmc_queue.hpp",
    "queue/spsc_queue.hpp",
    "obs/flight_recorder.hpp",
    "obs/trace.hpp",
    "obs/latency.hpp",
    "obs/watchdog.hpp",
    "obs/profiler.hpp",
)
# Directories whose headers are covered by the classification drift gate:
# an atomics-bearing header here must be hot-path or explicitly cold-path.
CLASSIFIED_DIRS = ("queue/", "obs/")
ATOMIC_USE_RE = re.compile(r"\batomic\s*<|\batomic_flag\b|\batomic_ref\b")
ALLOW_RE = re.compile(r"gravel-lint:\s*allow\(([a-z-]+)\)")

NAKED_ATOMIC_RE = re.compile(r"std::atomic\s*<|std::atomic_flag\b")
# Files (relative to the scanned root) that ARE the instrumentation: the
# shim home and the verification layer. Exempt from the atomic rules —
# they wrap std::atomic and forward caller-supplied orders (named `mo`).
SHIM_HOME = (
    "common/atomic.hpp",
    "verify/",
)

ATOMIC_OP_RE = re.compile(
    r"\.(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|compare_exchange_weak|compare_exchange_strong"
    r"|test_and_set)\s*\("
)
ORDER_OK_RE = re.compile(r"memory_order|\border\b")

BLOCKING_RE = re.compile(
    r"std::mutex\b|gravel::mutex\b|std::shared_mutex\b|condition_variable"
    r"|scoped_lock|lock_guard|unique_lock|sleep_for|sleep_until|\busleep\s*\("
    r"|this_thread::yield"
)

LINE_COMMENT_RE = re.compile(r"//.*$")


def strip_block_comments(text: str) -> str:
    """Blank out /* ... */ runs, preserving line structure."""
    out = []
    i = 0
    while i < len(text):
        start = text.find("/*", i)
        if start < 0:
            out.append(text[i:])
            break
        out.append(text[i:start])
        end = text.find("*/", start + 2)
        if end < 0:
            end = len(text)
        out.append("".join(c if c == "\n" else " " for c in text[start:end + 2]))
        i = end + 2
    return "".join(out)


def call_args(lines: list[str], row: int, col: int, max_rows: int = 8) -> str:
    """Text of the parenthesized argument list opening at lines[row][col]."""
    depth = 0
    collected = []
    for r in range(row, min(row + max_rows, len(lines))):
        segment = lines[r][col:] if r == row else lines[r]
        for ch in segment:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    collected.append(ch)
                    return "".join(collected)
            collected.append(ch)
    return "".join(collected)  # unbalanced within window; judge what we saw


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(raw_line: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw_line)
    return bool(m) and m.group(1) == rule


def lint_file(path: Path, rel: str) -> list[Finding]:
    raw = path.read_text(errors="replace")
    raw_lines = raw.splitlines()
    text = strip_block_comments(raw)
    lines = [LINE_COMMENT_RE.sub("", ln) for ln in text.splitlines()]
    hot_path = HOT_PATH_MARKER in raw or rel in HOT_PATH_FILES
    findings: list[Finding] = []

    atomic_exempt = any(
        rel == e or (e.endswith("/") and rel.startswith(e))
        for e in SHIM_HOME
    )

    for i, line in enumerate(lines):
        lineno = i + 1
        raw_line = raw_lines[i] if i < len(raw_lines) else ""

        if not atomic_exempt and NAKED_ATOMIC_RE.search(line):
            if not allowed(raw_line, "naked-atomic"):
                findings.append(Finding(
                    path, lineno, "naked-atomic",
                    "use gravel::atomic from common/atomic.hpp so the "
                    "verification shim can instrument this"))

        for m in ATOMIC_OP_RE.finditer(line) if not atomic_exempt else ():
            args = call_args(lines, i, m.end() - 1)
            if ORDER_OK_RE.search(args):
                continue
            if allowed(raw_line, "implicit-order"):
                continue
            findings.append(Finding(
                path, lineno, "implicit-order",
                f".{m.group(1)}() without an explicit std::memory_order"))

        if hot_path and BLOCKING_RE.search(line):
            if not allowed(raw_line, "hot-path-blocking"):
                findings.append(Finding(
                    path, lineno, "hot-path-blocking",
                    "locks/sleeps are banned in hot-path files; spin via "
                    "gravel::spinYield()"))

    # Drift gate: a header in a classified directory that uses atomics must
    # either be hot-path (marker or pin) or carry an explicit cold-path
    # classification. Checked after the line loop so the per-line rules
    # above still run on whatever classification the file claims.
    if (path.suffix in (".hpp", ".h")
            and any(rel.startswith(d) for d in CLASSIFIED_DIRS)
            and not hot_path
            and COLD_PATH_MARKER not in raw
            and not atomic_exempt):
        for i, line in enumerate(lines):
            if ATOMIC_USE_RE.search(line):
                raw_line = raw_lines[i] if i < len(raw_lines) else ""
                if not allowed(raw_line, "unclassified-hot-path"):
                    findings.append(Finding(
                        path, i + 1, "unclassified-hot-path",
                        "atomics-bearing header under src/queue|src/obs is "
                        "neither 'gravel-lint: hot-path' (or pinned in "
                        "HOT_PATH_FILES) nor 'gravel-lint: cold-path'"))
                break

    return findings


def lint_tree(root: Path) -> list[Finding]:
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        sys.exit(2)
    findings: list[Finding] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        rel = path.relative_to(src).as_posix()
        findings.extend(lint_file(path, rel))
    return findings


# ---------------------------------------------------------------------------
# Self-test: the lint must fire on each violation class and stay quiet on
# idiomatic code. Run as a ctest so a regressed regex can't silently let
# violations back into the tree.

SELFTEST_CASES = [
    # (filename, contents, expected rule or None)
    ("queue/bad_atomic.hpp",
     "struct S { std::atomic<int> x{0}; };\n",
     "naked-atomic"),
    ("queue/bad_flag.hpp",
     "struct S { std::atomic_flag f; };\n",
     "naked-atomic"),
    ("queue/bad_order.hpp",
     "inline int f(gravel::atomic<int>& a) { return a.load(); }\n",
     "implicit-order"),
    ("queue/bad_order_multiline.hpp",
     "inline void f(gravel::atomic<int>& a) {\n"
     "  a.store(\n      42);\n}\n",
     "implicit-order"),
    ("queue/bad_hot_sleep.hpp",
     "// gravel-lint: hot-path\n"
     "inline void f() { std::this_thread::yield(); }\n",
     "hot-path-blocking"),
    ("queue/bad_hot_lock.hpp",
     "// gravel-lint: hot-path\n"
     "struct S { gravel::mutex m; };\n",
     "hot-path-blocking"),
    ("queue/good.hpp",
     "// gravel-lint: hot-path\n"
     "inline int f(gravel::atomic<int>& a) {\n"
     "  a.store(1, std::memory_order_release);\n"
     "  return a.load(std::memory_order_acquire);\n"
     "}\n",
     None),
    ("queue/good_comment.hpp",
     "// std::atomic<int> in a comment is fine; so is std::mutex here\n"
     "/* std::atomic_flag too */\n",
     None),
    ("runtime/good_allow.hpp",
     "std::atomic<int> migrating;  // gravel-lint: allow(naked-atomic)\n",
     None),
    ("runtime/good_fwd_order.hpp",
     "template <class T>\n"
     "T get(gravel::atomic<T>& a, std::memory_order order) {\n"
     "  return a.load(order);\n"
     "}\n",
     None),
    ("common/atomic.hpp",
     "template <class T> using atomic = std::atomic<T>;\n",
     None),  # shim home is exempt
    ("verify/inner.hpp",
     "std::atomic<bool> aborted{false};\n",
     None),  # verification layer is exempt
    ("verify/fwd_mo.hpp",
     "inline int peek(std::atomic<int>& v, std::memory_order mo) {\n"
     "  return v.load(mo);\n"
     "}\n",
     None),  # shim home forwards orders as `mo`
    ("runtime/good_ref.hpp",
     "std::atomic_ref<unsigned long> r(x);\n",
     None),  # atomic_ref has no gravel wrapper
    ("obs/flight_recorder.hpp",
     "struct S { gravel::mutex m; };\n",
     "hot-path-blocking"),  # listed hot-path file, marker absent
    ("queue/gravel_queue.hpp",
     "struct S { gravel::mutex m; };\n",
     "hot-path-blocking"),  # pinned queue header, marker absent
    ("obs/bad_unclassified.hpp",
     "struct S { gravel::atomic<int> pending{0}; };\n",
     "unclassified-hot-path"),  # atomics, no classification
    ("obs/good_cold.hpp",
     "// gravel-lint: cold-path — sampler cadence only, audited by hand\n"
     "struct S {\n"
     "  gravel::atomic<int> pending{0};\n"
     "  int peek() { return pending.load(std::memory_order_relaxed); }\n"
     "};\n",
     None),  # explicit cold-path classification satisfies the drift gate
    ("queue/bad_unclassified_ref.hpp",
     "inline void bump(unsigned long& x) {\n"
     "  std::atomic_ref<unsigned long> r(x);\n"
     "  r.fetch_add(1, std::memory_order_relaxed);\n"
     "}\n",
     "unclassified-hot-path"),  # atomic_ref counts as atomics use
]


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="gravel_lint_") as tmp:
        root = Path(tmp)
        for name, contents, _ in SELFTEST_CASES:
            p = root / "src" / name
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(contents)
        findings = lint_tree(root)
        by_file = {}
        for f in findings:
            by_file.setdefault(f.path.relative_to(root / "src").as_posix(),
                               set()).add(f.rule)
        for name, _, expected in SELFTEST_CASES:
            got = by_file.get(name, set())
            if expected is None and got:
                print(f"self-test FAIL: {name}: unexpected findings {got}")
                failures += 1
            elif expected is not None and expected not in got:
                print(f"self-test FAIL: {name}: wanted [{expected}], got {got}")
                failures += 1
    if failures:
        return 2
    print(f"self-test OK: {len(SELFTEST_CASES)} cases")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    findings = lint_tree(Path(argv[1]))
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} concurrency lint finding(s)")
        return 1
    print("concurrency lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
