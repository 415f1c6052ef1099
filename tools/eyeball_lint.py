#!/usr/bin/env python3
"""eyeball-lint: repo-specific determinism & UB invariants, checked statically.

The parallel pipeline's correctness contract — "byte-identical to the serial
path at any thread count" — survives refactors only if a handful of idioms
stay out of the codebase.  Each rule below names one way that contract has
historically been broken in systems like this:

  unordered-iter-in-merge  Iterating std::unordered_{map,set} inside a
                           *merge*/*reduce*/*fold* function or inside a
                           parallel_map_reduce call: bucket order is
                           implementation- and size-dependent, so the merged
                           result ceases to be deterministic.
  nondet-seed              std::rand/srand, std::random_device, std::mt19937,
                           or time-derived seeding outside src/util/rng.*:
                           all randomness must flow through the explicitly
                           seeded xoshiro generator.
  float-accumulate         std::accumulate with a floating-point initial
                           value in a file that uses the thread pool:
                           reassociating float sums changes results; parallel
                           code must reduce through an explicit ordered fold.
                           Bodies of convolve_*_fixed functions are exempt —
                           their tap loops accumulate in a fixed compile-time
                           order by construction (see src/kde/estimator.cpp).
  naked-new                Raw new/delete expressions: ownership lives in
                           containers and smart pointers (`= delete` for
                           deleted members is, of course, fine).
  mutable-shared-capture   A named by-reference capture ([&x]) of *mutable*
                           state on a lambda handed to submit/parallel_for/
                           parallel_map_reduce: one variable written from
                           every task is a data race or an order dependence.
                           Captures of const-declared state are fine, as is
                           [&] with writes to disjoint indices, or private
                           per-shard state merged in order.  (Supersedes the
                           old ref-capture-parallel rule, which could not
                           tell const from mutable and ignored submit().)
  unchecked-status         A call to a util::Status-returning function in
                           statement position, i.e. with the result
                           discarded.  `class [[nodiscard]] Status` makes the
                           compiler catch this in compiled code; the lint
                           extends the contract to code the compiler never
                           sees (ifdef'd paths, fixtures) and to refactors
                           that launder the result through auto&&.  Function
                           names are harvested from `Status name(...)`
                           declarations across the scan set.  A deliberate
                           discard is spelled static_cast<void>(...) plus a
                           reasoned allow.
  unannotated-mutex        A raw std::mutex / std::shared_mutex member in
                           src/ with no EYEBALL_GUARDED_BY(member) user and
                           no EYEBALL_CAPABILITY wrapper above it: a lock
                           that guards nothing the analysis can see. Use
                           util::Mutex / util::SharedMutex (src/util/
                           mutex.hpp) and annotate what it protects.
  unchecked-io             A raw fwrite/fread/rename/fsync call in statement
                           position (return value discarded) outside the
                           checked I/O layer (src/util/file.*): a short write
                           or failed rename that nobody looks at is exactly
                           the torn-snapshot bug the crash-safety harness
                           exists to catch.  All raw I/O goes through
                           util::FileSystem's Status-returning wrappers.
  swallowed-exception      A `catch (...)` or `catch (std::exception&)` whose
                           body neither rethrows (throw;, rethrow_exception,
                           current_exception) nor converts the failure into a
                           util::Status: the error vanishes — a long-lived
                           server keeps running on silently-wrong state.  A
                           std::exception& handler that produces a Status
                           passes (e.what() preserves the type's story); a
                           `catch (...)` that converts to Status still needs
                           a reasoned allow, because the dynamic type is
                           unrecoverably gone — the publish firewall in
                           serve/service.cpp is the one blessed site.
  shared-temp-dir          A testing::TempDir() call outside tests/scratch.hpp:
                           TempDir() is one host-wide directory, so a fixed
                           name under it is shared by every build tree's
                           copy of a test, and two trees running at once
                           delete each other's files.  Scratch paths go
                           through testing::scratch_path, which adds the
                           process id.

Suppression: a finding is silenced by an annotation on the same line or the
line directly above, and the annotation must carry a reason:

    // eyeball-lint: allow(naked-new): arena block handed to mmap teardown

Annotations without a reason, naming an unknown rule, or suppressing nothing
are themselves findings — suppressions never go stale silently.

Exit status: 0 clean, 1 findings, 2 usage/self-test harness error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULES = {
    "unordered-iter-in-merge":
        "iteration over an unordered container in a merge/reduce/fold path",
    "nondet-seed":
        "non-deterministic randomness source outside src/util/rng",
    "float-accumulate":
        "std::accumulate over floats in parallel code (use an ordered fold; "
        "convolve_*_fixed bodies are exempt)",
    "naked-new":
        "raw new/delete expression (use containers or smart pointers)",
    "mutable-shared-capture":
        "named by-reference capture of mutable state in a lambda handed to "
        "submit/parallel_for/parallel_map_reduce",
    "unchecked-status":
        "util::Status-returning call in statement position (result discarded)",
    "unannotated-mutex":
        "raw std::mutex member with no EYEBALL_GUARDED_BY users or capability "
        "wrapper (use util::Mutex and annotate what it guards)",
    "unchecked-io":
        "raw fwrite/fread/rename/fsync with its return value discarded "
        "(route I/O through util/file's Status-returning layer)",
    "swallowed-exception":
        "catch (...) / catch (std::exception&) body that neither rethrows nor "
        "produces a util::Status (the error vanishes)",
    "shared-temp-dir":
        "testing::TempDir() outside tests/scratch.hpp (use "
        "testing::scratch_path, which is unique per process)",
}

META_RULES = {
    "allow-without-reason":
        "eyeball-lint allow(...) annotation without a ': reason' suffix",
    "unknown-rule":
        "eyeball-lint allow(...) annotation naming a rule that does not exist",
    "unused-allow":
        "eyeball-lint allow(...) annotation that suppresses nothing",
}

SCAN_DIRS = ("src", "tests", "bench", "examples")
SCAN_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
# Files allowed to own non-deterministic-looking RNG machinery.
NONDET_EXEMPT = ("src/util/rng.hpp", "src/util/rng.cpp")
# The checked I/O layer: the ONE place raw libc I/O calls may live (their
# results feed util::Status there, under test by the fault harness).
IO_EXEMPT = ("src/util/file.hpp", "src/util/file.cpp")
# The one file that may name gtest's host-wide temp directory.
TEMP_DIR_EXEMPT = "tests/scratch.hpp"
TEMP_DIR_RE = re.compile(r"\btesting\s*::\s*TempDir\s*\(")

ALLOW_RE = re.compile(
    r"//\s*eyeball-lint:\s*allow\(([A-Za-z0-9_-]+)\)(\s*:\s*(\S.*))?")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure
    so reported line numbers stay exact."""
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
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def matching_brace_span(text: str, open_index: int) -> int:
    """Index one past the brace/paren that closes the one at open_index."""
    pairs = {"{": "}", "(": ")"}
    close = pairs[text[open_index]]
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == text[open_index]:
            depth += 1
        elif text[i] == close:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def back_over_group(text: str, close_index: int) -> int:
    """Index of the paren/bracket/brace that opens the one closing at
    close_index."""
    pairs = {")": "(", "]": "[", "}": "{"}
    open_c = pairs[text[close_index]]
    close_c = text[close_index]
    depth = 0
    for i in range(close_index, -1, -1):
        if text[i] == close_c:
            depth += 1
        elif text[i] == open_c:
            depth -= 1
            if depth == 0:
                return i
    return 0


def line_of(text: str, index: int) -> int:
    return text.count("\n", 0, index) + 1


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


MERGE_FN_RE = re.compile(r"\b\w*(?:merge|reduce|fold)\w*\s*\(")
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*&?\s*(\w+)\s*[;={(]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*:\s*[^)]+)\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(")
ACCUMULATE_RE = re.compile(r"std\s*::\s*accumulate\s*\(")
FLOATISH_RE = re.compile(r"\d\.\d*|\.\d|\d\.?\d*f\b|\b(?:double|float)\b")
NEW_RE = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:])")
DELETE_RE = re.compile(r"\bdelete\b\s*(?:\[\s*\])?\s*[A-Za-z_(*&]")
PARALLEL_CALL_RE = re.compile(r"\bparallel_(?:for|map_reduce)\s*\(")
# The pool's full task-spawning surface: anything here runs the lambda on
# another thread (submit) or on many (parallel_*).
TASK_CALL_RE = re.compile(r"\b(?:submit|parallel_for|parallel_map_reduce)\s*\(")
NAMED_REF_CAPTURE_RE = re.compile(r"\[((?:[^\[\]]*,)?\s*&\s*\w+[^\]]*)\]\s*\(")
# `Status name(` — declaration or definition of a Status-returning function.
# Matches plain, util::-qualified, [[nodiscard]], virtual, static forms (the
# qualifier/attribute sits left of the \b).  "status" itself is denied so a
# variable named like the type can never poison the harvest.
STATUS_FN_RE = re.compile(r"\bStatus\s+(\w+)\s*\(")
STATUS_NAME_DENYLIST = {"status"}
# std::filesystem's API shares names with the checked layer it underlies
# (create_directories, rename, ...) but reports through bool/error_code —
# calls reached through these namespace qualifiers are not Status discards.
STD_FS_QUALIFIER_RE = re.compile(r"\b(?:filesystem|stdfs)\s*::\s*$")
CONVOLVE_FIXED_RE = re.compile(r"\bconvolve_\w*_fixed\s*\(")
RAW_MUTEX_RE = re.compile(r"\bstd\s*::\s*(?:shared_)?mutex\s+(\w+)\s*[;={]")
NONDET_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*rand\b|\bsrand\s*\("), "std::rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937 (stdlib-dependent stream)"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time()-derived value"),
)
CLOCK_NOW_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\s*\(")
SEEDY_RE = re.compile(r"seed|rng", re.IGNORECASE)
IO_CALL_RE = re.compile(r"\b(fwrite|fread|rename|fsync)\s*\(")
# The two catch forms that can swallow ANY failure.  Handlers for specific
# types (catch (const std::bad_alloc&)) are deliberately not matched: naming
# the type is itself evidence the author reasoned about that failure.
CATCH_ALL_RE = re.compile(
    r"\bcatch\s*\(\s*(\.\.\.|(?:const\s+)?std\s*::\s*exception\s*&\s*\w*)\s*\)")
# Tokens that prove the failure leaves the handler: a bare rethrow, storing /
# rethrowing the exception_ptr, or std::rethrow_exception.
RETHROW_TOKEN_RE = re.compile(r"\bthrow\b|rethrow_exception|current_exception")
STATUS_TOKEN_RE = re.compile(r"\bStatus\b")


def io_call_in_statement_position(stripped: str, start: int) -> bool:
    """True when the raw-I/O call at `start` discards its return value.

    Heuristic: walk back over optional `std` / `::` qualifiers, then look at
    the preceding non-space character.  A `;`, `{`, `}` (or file start) means
    the call opens a statement, so nothing consumes the result.  Anything
    else — `=`, `(`, `!`, `,`, a cast, `return` — means the result flows
    somewhere.  `rename_file(` and `fs.rename(` never reach here: the word
    boundary and the `.`/`_` context rule them out.  Deliberately does NOT
    follow member chains the way status_result_discarded does: `fs.rename(`
    is a *wrapper* call that must stay out of this libc-level rule.
    """
    i = start
    while True:
        j = i
        while j > 0 and stripped[j - 1] in " \t\n":
            j -= 1
        if j >= 2 and stripped[j - 2:j] == "::":
            i = j - 2
            continue
        if (j >= 3 and stripped[j - 3:j] == "std"
                and (j == 3 or not (stripped[j - 4].isalnum()
                                    or stripped[j - 4] == "_"))):
            i = j - 3
            continue
        break
    k = i - 1
    while k >= 0 and stripped[k] in " \t\n":
        k -= 1
    return k < 0 or stripped[k] in ";{}"


def status_result_discarded(stripped: str, name_start: int) -> bool:
    """True when the Status-returning call whose name starts at name_start
    opens a statement, i.e. nothing consumes the returned Status.

    Unlike the libc walker above, this one follows postfix chains leftward —
    `builder.save_snapshot(dir);` and `fs().remove_file(p);` are discards even
    though the name is not the first token of the statement.  Each loop turn
    consumes one connector (`.`, `->`, `::`) plus the chain element before it
    (trailing call/index groups, then an identifier).  The walk stops at:

      ; { }  or file start  ->  statement position, result discarded;
      anything else (=, (, !, &&, return's final 'n', a type name in a
      declaration, a cast's closing paren)  ->  the result flows somewhere.
    """
    i = name_start
    while True:
        j = i
        while j > 0 and stripped[j - 1] in " \t\n":
            j -= 1
        if j == 0:
            return True
        if stripped[j - 1] in ";{}":
            return True
        if stripped[j - 2:j] in ("::", "->"):
            i = j - 2
        elif stripped[j - 1] == ".":
            i = j - 1
        else:
            return False
        # Consume the chain element left of the connector: first any trailing
        # (...) / [...] / {...} groups (the last for brace-init temporaries,
        # `Status{}.with_context(...)`), then the identifier that owns them.
        j = i
        while True:
            while j > 0 and stripped[j - 1] in " \t\n":
                j -= 1
            if j > 0 and stripped[j - 1] in ")]}":
                j = back_over_group(stripped, j - 1)
            else:
                break
        while j > 0 and (stripped[j - 1].isalnum() or stripped[j - 1] == "_"):
            j -= 1
        i = j


def unordered_names(stripped: str) -> set[str]:
    return set(UNORDERED_DECL_RE.findall(stripped))


def harvest_status_names(stripped: str) -> set[str]:
    """Function names declared/defined as returning (util::)Status."""
    return {name for name in STATUS_FN_RE.findall(stripped)
            if name.lower() not in STATUS_NAME_DENYLIST}


def function_body_span(stripped: str, open_paren: int) -> tuple[int, int] | None:
    """If the argument list opening at open_paren belongs to a function
    *definition*, the span of its brace-enclosed body; None for plain calls
    and declarations.  Tolerates const/noexcept/trailing-return between the
    `)` and the `{`."""
    after_args = matching_brace_span(stripped, open_paren)
    tail = stripped[after_args:after_args + 120]
    tail_head = tail.lstrip()
    body_match = re.match(
        r"(?:const\b\s*)?(?:noexcept\b\s*)?(?:->\s*[\w:<>&,\s]+?)?\{", tail_head)
    if not body_match:
        return None
    brace_at = after_args + (len(tail) - len(tail_head)) + body_match.end() - 1
    return brace_at, matching_brace_span(stripped, brace_at)


def merge_scope_spans(stripped: str) -> list[tuple[int, int]]:
    """Spans of merge/reduce/fold function bodies and parallel_map_reduce
    call arguments (where ordered reduction is the whole point)."""
    spans = []
    for m in MERGE_FN_RE.finditer(stripped):
        span = function_body_span(stripped, m.end() - 1)
        if span:
            spans.append(span)
    for m in re.finditer(r"\bparallel_map_reduce\s*\(", stripped):
        open_paren = m.end() - 1
        spans.append((open_paren, matching_brace_span(stripped, open_paren)))
    return spans


def fixed_order_spans(stripped: str) -> list[tuple[int, int]]:
    """Bodies of convolve_*_fixed definitions: their accumulation order is
    pinned by a compile-time tap window, so float-accumulate does not apply."""
    spans = []
    for m in CONVOLVE_FIXED_RE.finditer(stripped):
        span = function_body_span(stripped, m.end() - 1)
        if span:
            spans.append(span)
    return spans


def const_declared(stripped: str, name: str) -> bool:
    """True if `name` appears as a const-qualified declaration/parameter
    somewhere in the file — `const T& name`, `const T name`.  The character
    class forbids crossing `;`/`=`/braces, so a const elsewhere in the file
    cannot launder an unrelated mutable variable."""
    return re.search(
        rf"\bconst\b[^;{{}}=]{{0,200}}?[&\s]\s*{re.escape(name)}\b",
        stripped) is not None


def scan_text(rel_path: str, raw: str,
              status_names: set[str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    stripped = strip_comments_and_strings(raw)
    add = lambda line, rule, msg: findings.append(Finding(rel_path, line, rule, msg))

    # --- unordered-iter-in-merge ------------------------------------------
    names = unordered_names(stripped)
    for lo, hi in merge_scope_spans(stripped):
        scope = stripped[lo:hi]
        for m in RANGE_FOR_RE.finditer(scope):
            iterable = m.group(1).split(":", 1)[-1]
            if "unordered_" in iterable or any(
                    re.search(rf"\b{re.escape(n)}\b", iterable) for n in names):
                add(line_of(stripped, lo + m.start()), "unordered-iter-in-merge",
                    "range-for over an unordered container in an ordered "
                    "merge/reduce path — bucket order is not deterministic")
        for m in BEGIN_CALL_RE.finditer(scope):
            if m.group(1) in names:
                add(line_of(stripped, lo + m.start()), "unordered-iter-in-merge",
                    f"iterator walk of unordered container '{m.group(1)}' in an "
                    "ordered merge/reduce path")

    # --- nondet-seed -------------------------------------------------------
    if not rel_path.endswith(NONDET_EXEMPT):
        for pattern, what in NONDET_PATTERNS:
            for m in pattern.finditer(stripped):
                add(line_of(stripped, m.start()), "nondet-seed",
                    f"{what} — all randomness must flow through util/rng "
                    "with an explicit seed")
        for m in CLOCK_NOW_RE.finditer(stripped):
            line = line_of(stripped, m.start())
            line_text = stripped.splitlines()[line - 1]
            if SEEDY_RE.search(line_text):
                add(line, "nondet-seed",
                    "clock-derived seed — derive seeds from util/rng instead")

    # --- float-accumulate --------------------------------------------------
    if PARALLEL_CALL_RE.search(stripped) or "thread_pool.hpp" in raw:
        exempt_spans = fixed_order_spans(stripped)
        for m in ACCUMULATE_RE.finditer(stripped):
            if any(lo <= m.start() < hi for lo, hi in exempt_spans):
                continue
            args = stripped[m.end() - 1: matching_brace_span(stripped, m.end() - 1)]
            if FLOATISH_RE.search(args):
                add(line_of(stripped, m.start()), "float-accumulate",
                    "float std::accumulate in a parallel translation unit — "
                    "reassociation changes results; use an explicit ordered fold")

    # --- naked-new ---------------------------------------------------------
    for m in NEW_RE.finditer(stripped):
        add(line_of(stripped, m.start()), "naked-new",
            "raw new expression — ownership belongs in containers/smart pointers")
    for m in DELETE_RE.finditer(stripped):
        add(line_of(stripped, m.start()), "naked-new",
            "raw delete expression — ownership belongs in containers/smart pointers")

    # --- mutable-shared-capture -------------------------------------------
    for m in TASK_CALL_RE.finditer(stripped):
        span_base = m.end() - 1
        span = stripped[span_base: matching_brace_span(stripped, span_base)]
        for cap in NAMED_REF_CAPTURE_RE.finditer(span):
            named_refs = re.findall(r"&\s*(\w+)", cap.group(1))
            mutable_refs = [n for n in named_refs
                            if not const_declared(stripped, n)]
            if mutable_refs:
                add(line_of(stripped, span_base + cap.start()),
                    "mutable-shared-capture",
                    f"task lambda captures mutable {mutable_refs} by "
                    "reference — shared mutation across tasks breaks the "
                    "determinism contract (const state, [&] with disjoint "
                    "writes, or per-shard state merged in order)")

    # --- unchecked-status --------------------------------------------------
    # In compiled code `class [[nodiscard]] Status` already makes this a
    # compiler warning; the lint re-checks it name-wise so ifdef'd-out paths
    # and never-compiled fixtures honor the same contract.
    if status_names is None:
        status_names = harvest_status_names(stripped)
    if status_names:
        call_re = re.compile(
            r"\b(" + "|".join(sorted(re.escape(n) for n in status_names)) + r")\s*\(")
        for m in call_re.finditer(stripped):
            if STD_FS_QUALIFIER_RE.search(stripped, 0, m.start(1)):
                continue
            if status_result_discarded(stripped, m.start(1)):
                add(line_of(stripped, m.start(1)), "unchecked-status",
                    f"result of Status-returning '{m.group(1)}' discarded — "
                    "check it, propagate it, or spell the discard "
                    "static_cast<void>(...) with a reasoned allow")

    # --- unannotated-mutex -------------------------------------------------
    # src/-only: production locks must be visible to the Clang thread-safety
    # analysis.  A raw std::mutex member passes only when something in the
    # file is EYEBALL_GUARDED_BY it, or when it sits inside a capability
    # wrapper (util::Mutex itself — the EYEBALL_CAPABILITY text precedes the
    # member in that case).
    if rel_path.startswith("src/"):
        for m in RAW_MUTEX_RE.finditer(stripped):
            name = m.group(1)
            if re.search(rf"\bEYEBALL_GUARDED_BY\s*\(\s*{re.escape(name)}\s*\)",
                         stripped):
                continue
            if "EYEBALL_CAPABILITY" in stripped[:m.start()]:
                continue
            add(line_of(stripped, m.start()), "unannotated-mutex",
                f"raw mutex member '{name}' guards nothing the thread-safety "
                "analysis can see — use util::Mutex/util::SharedMutex and "
                "EYEBALL_GUARDED_BY the state it protects")

    # --- unchecked-io ------------------------------------------------------
    if not rel_path.endswith(IO_EXEMPT):
        for m in IO_CALL_RE.finditer(stripped):
            if io_call_in_statement_position(stripped, m.start(1)):
                add(line_of(stripped, m.start(1)), "unchecked-io",
                    f"return value of {m.group(1)} discarded — raw I/O belongs "
                    "in util/file's checked layer; here, at minimum, the "
                    "result must be examined")

    # --- swallowed-exception -----------------------------------------------
    # A catch-all handler passes when its body rethrows (the failure keeps
    # travelling) or — for std::exception& only, where e.what() preserves the
    # story — when it produces a util::Status.  A `catch (...)` converting to
    # Status is still a finding: the dynamic type is gone, so the one such
    # firewall site must carry a reasoned allow.
    for m in CATCH_ALL_RE.finditer(stripped):
        brace = stripped.find("{", m.end())
        if brace < 0:
            continue
        body = stripped[brace:matching_brace_span(stripped, brace)]
        if RETHROW_TOKEN_RE.search(body):
            continue
        caught = m.group(1)
        if caught != "..." and STATUS_TOKEN_RE.search(body):
            continue
        what = "catch (...)" if caught == "..." else "catch (std::exception&)"
        add(line_of(stripped, m.start()), "swallowed-exception",
            f"{what} body neither rethrows nor produces a util::Status — "
            "the failure vanishes; rethrow it, convert it to a typed "
            "Status, or (for a reasoned firewall) carry an allow")

    # --- shared-temp-dir ---------------------------------------------------
    if not rel_path.endswith(TEMP_DIR_EXEMPT):
        for m in TEMP_DIR_RE.finditer(stripped):
            add(line_of(stripped, m.start()), "shared-temp-dir",
                "testing::TempDir() names a host-wide directory — a fixed "
                "name under it collides between build trees; use "
                "testing::scratch_path from tests/scratch.hpp")

    # --- suppression handling ---------------------------------------------
    allows = []  # (line, rule, has_reason, used)
    raw_lines = raw.splitlines()
    for i, line_text in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line_text)
        if not m:
            continue
        rule, reason = m.group(1), m.group(3)
        if rule not in RULES:
            findings.append(Finding(rel_path, i, "unknown-rule",
                                    f"allow({rule}) names no known rule; known: "
                                    + ", ".join(sorted(RULES))))
            continue
        if not reason:
            findings.append(Finding(rel_path, i, "allow-without-reason",
                                    f"allow({rule}) must explain itself: "
                                    f"`// eyeball-lint: allow({rule}): <why>`"))
            continue
        allows.append({"line": i, "rule": rule, "used": False})

    kept = []
    for f in findings:
        suppressed = False
        for a in allows:
            if a["rule"] == f.rule and f.line in (a["line"], a["line"] + 1):
                a["used"] = True
                suppressed = True
        if not suppressed:
            kept.append(f)
    for a in allows:
        if not a["used"]:
            kept.append(Finding(rel_path, a["line"], "unused-allow",
                                f"allow({a['rule']}) suppresses nothing — stale "
                                "annotation, remove it"))
    kept.sort(key=lambda f: f.line)
    return kept


def iter_source_files(root: Path):
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SCAN_SUFFIXES and path.is_file():
                yield path


def run_scan(root: Path, paths: list[Path]) -> list[Finding]:
    findings = []
    targets = paths if paths else list(iter_source_files(root))
    # unchecked-status needs the cross-file picture: a Status API declared in
    # util/file.hpp must be flagged when discarded in core/snapshot.cpp.  One
    # harvest pass over the whole scan set (plus any explicit targets) feeds
    # every file's scan.
    status_names: set[str] = set()
    for path in {*targets, *iter_source_files(root)}:
        status_names |= harvest_status_names(
            strip_comments_and_strings(path.read_text(encoding="utf-8")))
    for path in targets:
        rel = str(path.relative_to(root)) if path.is_absolute() else str(path)
        findings.extend(scan_text(rel, path.read_text(encoding="utf-8"),
                                  status_names))
    return findings


# --------------------------------------------------------------------------
# Self-test: every rule must fire on its fixture and stay quiet on the clean
# ones.  Fixtures live in tools/lint_fixtures/ and are never compiled.  Each
# fixture is scanned as if it lived at src/<name> so src/-scoped rules
# (unannotated-mutex) apply; status names are harvested per-fixture.
FIXTURE_EXPECTATIONS = {
    "unordered_iter_in_merge.cpp": ["unordered-iter-in-merge"],
    "nondet_seed.cpp": ["nondet-seed"],
    "float_accumulate.cpp": ["float-accumulate"],
    "float_accumulate_convolve_fixed.cpp": [],
    "naked_new.cpp": ["naked-new"],
    "mutable_shared_capture.cpp": ["mutable-shared-capture"],
    "mutable_shared_capture_const.cpp": [],
    "mutable_shared_capture_allow.cpp": [],
    "mutable_shared_capture_allow_stale.cpp": ["unused-allow"],
    "unchecked_status.cpp": ["unchecked-status"],
    "unchecked_status_allow.cpp": [],
    "unchecked_status_allow_stale.cpp": ["unused-allow"],
    "unannotated_mutex.cpp": ["unannotated-mutex"],
    "unannotated_mutex_allow.cpp": [],
    "unannotated_mutex_allow_stale.cpp": ["unused-allow"],
    "unchecked_io.cpp": ["unchecked-io"],
    "swallowed_exception.cpp": ["swallowed-exception"],
    "swallowed_exception_firewall.cpp": [],
    "swallowed_exception_rethrow.cpp": [],
    "swallowed_exception_allow_stale.cpp": ["unused-allow"],
    "shared_temp_dir.cpp": ["shared-temp-dir"],
    "allow_ok.cpp": [],
    "allow_missing_reason.cpp": ["allow-without-reason", "naked-new"],
    "allow_unknown_rule.cpp": ["unknown-rule"],
    "allow_stale.cpp": ["unused-allow"],
    "clean.cpp": [],
}


def run_self_test(root: Path) -> int:
    fixtures = root / "tools" / "lint_fixtures"
    failures = 0
    for name, expected_rules in sorted(FIXTURE_EXPECTATIONS.items()):
        path = fixtures / name
        if not path.is_file():
            print(f"SELF-TEST FAIL {name}: fixture missing")
            failures += 1
            continue
        found = scan_text("src/" + name, path.read_text(encoding="utf-8"))
        found_rules = sorted({f.rule for f in found})
        if expected_rules and found_rules != sorted(set(expected_rules)):
            print(f"SELF-TEST FAIL {name}: expected {sorted(set(expected_rules))}, "
                  f"got {found_rules}")
            for f in found:
                print(f"    {f}")
            failures += 1
        elif not expected_rules and found:
            print(f"SELF-TEST FAIL {name}: expected clean, got {found_rules}")
            for f in found:
                print(f"    {f}")
            failures += 1
        else:
            label = ", ".join(expected_rules) if expected_rules else "clean"
            print(f"self-test ok   {name}: {label}")
    if failures:
        print(f"\n{failures} self-test failure(s)")
        return 2
    print(f"\nall {len(FIXTURE_EXPECTATIONS)} lint self-tests passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="specific files to lint (default: src/, tests/, "
                             "bench/, examples/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture self-tests and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule, blurb in {**RULES, **META_RULES}.items():
            print(f"{rule:26} {blurb}")
        return 0
    if args.self_test:
        return run_self_test(args.root.resolve())

    findings = run_scan(args.root.resolve(), args.paths)
    for f in findings:
        print(f)
    if findings:
        print(f"\neyeball-lint: {len(findings)} finding(s)")
        return 1
    print("eyeball-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
