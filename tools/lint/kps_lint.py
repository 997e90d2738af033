#!/usr/bin/env python3
"""kps_lint: repo-local concurrency/catalog lint for the kps headers.

Rules
-----
  order-tag      every memory_order_relaxed / memory_order_seq_cst use in
                 include/kps/**/*.hpp carries a `// order:` justification —
                 on the site line, or on a comment reachable by walking up
                 through the continuation lines of the same statement.
  trace-sync     kTraceEvNames (support/trace.hpp) matches the TraceEv
                 name column of DESIGN.md's trace-event table, both ways.
  seam-sync      every KPS_FAILPOINT/KPS_FAILPOINT_FAIL seam literal in the
                 headers appears in DESIGN.md's seam catalog, and vice
                 versa (no phantom documentation).  A row's Kind says
                 FAIL iff some site of its seam is KPS_FAILPOINT_FAIL
                 (a timing-only seam ignores `fail`).
  counter-sync   kCounterNames (support/stats.hpp) matches the counter
                 glossary table in DESIGN.md, both ways.
  header-hygiene every header has `#pragma once` and never includes
                 <iostream> (header-only library: iostream drags in static
                 init order and ~100 KB of code per TU).
  option-caller  every field of StorageConfig (core/storage_traits.hpp)
                 and AdaptiveKConfig (core/relaxation_policy.hpp) is
                 assigned — `.field =`, as a member or in a designated
                 initializer — in at least one C++ file under bench/,
                 tools/ or perfbench/.  A field only tests set is a knob
                 no experiment turns: it belongs in a named constant.

Diagnostics are `path:line: error: message` (relative to --root) on
stdout; exit status is non-zero iff anything was reported.
"""

import argparse
import os
import re
import sys

# Orders that demand a written justification.  acquire/release/acq_rel
# carry their intent in the name; relaxed and seq_cst are the two poles
# where "why is this sound/necessary" is a real question.
TAGGED_ORDERS = ("memory_order_relaxed", "memory_order_seq_cst")

# A statement continues onto the next line when it ends mid-expression,
# or when the next line leads with the operator (the wrapped-ternary /
# wrapped-conjunction style clang-format emits).
CONTINUATION_ENDINGS = (",", "(", "=", "&&", "||", "+", "-", "?", ":", "<<")
CONTINUATION_STARTS = ("?", ":", "&&", "||", ".", "+", "-", ")", "<<")
# ...and ends at one of these (after stripping the trailing comment).
BOUNDARY_ENDINGS = (";", "{", "}")
WALK_LIMIT = 12

FAILPOINT_RE = re.compile(r'KPS_FAILPOINT(_FAIL)?\(\s*"([^"]+)"')
# A data member declaration: `Type name;` or `Type name = init;`.
FIELD_RE = re.compile(r"^[\w:<>]+\s*[*&]?\s+(\w+)\s*(?:=[^;]*)?;$")
# The option structs, by header, and where their callers must live.
OPTION_STRUCTS = (("StorageConfig", os.path.join("core", "storage_traits.hpp")),
                  ("AdaptiveKConfig",
                   os.path.join("core", "relaxation_policy.hpp")))
CALLER_DIRS = ("bench", "tools", "perfbench")
CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")
STRING_RE = re.compile(r'"([^"]*)"')
BACKTICK_RE = re.compile(r"`([^`]+)`")


def code_part(line: str) -> str:
    """The line with any trailing // comment removed (no string-aware
    parsing: the headers never put // inside a literal)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def is_pure_comment(line: str) -> bool:
    return line.lstrip().startswith("//")


class Diagnostics:
    def __init__(self, root: str):
        self.root = root
        self.lines = []

    def error(self, path: str, line: int, msg: str) -> None:
        rel = os.path.relpath(path, self.root)
        self.lines.append(f"{rel}:{line}: error: {msg}")

    def flush(self) -> int:
        for entry in sorted(self.lines):
            print(entry)
        return 1 if self.lines else 0


# ------------------------------------------------------------- order tags
def has_order_tag(lines, i) -> bool:
    """True iff the memory-order site on lines[i] (0-based) is justified:
    the tag sits on the line itself, or on a comment line reachable by
    walking up through the continuation lines of the same statement."""
    if "order:" in lines[i] and "//" in lines[i]:
        return True
    below = code_part(lines[i]).lstrip()
    for j in range(i - 1, max(i - 1 - WALK_LIMIT, -1), -1):
        raw = lines[j]
        if not raw.strip():
            return False  # blank line: statement (and context) over
        if is_pure_comment(raw):
            if "order:" in raw:
                return True
            continue  # comments never break a statement
        code = code_part(raw).rstrip()
        if code.endswith(BOUNDARY_ENDINGS):
            return False  # previous statement ended here
        if (code.endswith(CONTINUATION_ENDINGS)
                or below.startswith(CONTINUATION_STARTS)):
            below = code_part(raw).lstrip()
            continue  # same statement, keep walking
        return False  # not obviously the same statement: be strict
    return False


def check_order_tags(diag, path, lines) -> None:
    for i, raw in enumerate(lines):
        code = code_part(raw)
        for order in TAGGED_ORDERS:
            if order in code and not has_order_tag(lines, i):
                diag.error(
                    path, i + 1,
                    f"{order} without a `// order:` justification tag "
                    f"(same line or the statement's preceding comment)")


# --------------------------------------------------------- header hygiene
def check_header_hygiene(diag, path, lines) -> None:
    if not any(line.strip() == "#pragma once" for line in lines):
        diag.error(path, 1, "header missing `#pragma once`")
    for i, raw in enumerate(lines):
        if re.match(r"\s*#\s*include\s*<iostream>", code_part(raw)):
            diag.error(path, i + 1,
                       "<iostream> in a header (use <ostream>/<istream>)")


# ---------------------------------------------------------- option caller
def parse_struct_fields(lines, struct_name):
    """Data members of `struct NAME { ... };` as [(name, line)], or None
    if the struct is missing.  Only declarations at the struct's own
    brace depth count, so member-function bodies are skipped."""
    out, depth = [], None
    for i, raw in enumerate(lines):
        code = code_part(raw).strip()
        if depth is None:
            if re.match(rf"struct\s+{struct_name}\s*\{{", code):
                depth = 1
            continue
        if depth == 1 and "(" not in code:
            m = FIELD_RE.match(code)
            if m and not code.startswith(("using", "friend")):
                out.append((m.group(1), i + 1))
        depth += code.count("{") - code.count("}")
        if depth <= 0:
            return out
    return out if depth is not None else None


def caller_sources(root):
    """Comment-stripped code of every C++ file under CALLER_DIRS."""
    text = []
    for sub in CALLER_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, sub)):
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    with open(os.path.join(dirpath, fn),
                              encoding="utf-8") as f:
                        text.extend(code_part(line)
                                    for line in f.read().splitlines())
    return "\n".join(text)


def check_option_callers(diag, root, include_root, by_name):
    callers = caller_sources(root)
    for struct_name, rel in OPTION_STRUCTS:
        path, lines = by_name.get(rel, (None, None))
        fields = parse_struct_fields(lines, struct_name) if lines else None
        if fields is None:
            diag.error(path or include_root, 1,
                       f"struct {struct_name} not found in {rel}")
            continue
        for name, line in fields:
            if not re.search(rf"\.\s*{name}\s*=(?!=)", callers):
                diag.error(path, line,
                           f"option `{struct_name}::{name}` is set by no "
                           "file under bench/, tools/ or perfbench/ (a "
                           "test-only knob belongs in a named constant)")


# ------------------------------------------------------- catalog parsing
def parse_name_array(path, lines, array_name):
    """String literals of `inline constexpr const char* NAME[...] = {...};`
    as [(name, line)], or None if the array is missing."""
    out, active = [], False
    for i, raw in enumerate(lines):
        code = code_part(raw)
        if not active and array_name in code and "{" in code:
            active = True
            code = code.split("{", 1)[1]
        if active:
            for m in STRING_RE.finditer(code):
                out.append((m.group(1), i + 1))
            if "}" in code:
                return out
    return None


def parse_md_rows(md_lines, header_cells):
    """Data rows of the markdown table whose header row contains all of
    header_cells, as [(cells, line)], or None if there is no such
    table."""
    out, active = [], False
    for i, raw in enumerate(md_lines):
        stripped = raw.strip()
        if not active:
            if stripped.startswith("|") and all(
                    cell in stripped for cell in header_cells):
                active = True
            continue
        if not stripped.startswith("|"):
            break
        cells = [c.strip() for c in stripped.strip("|").split("|")]
        if set(cells[0]) <= {"-", " ", ":"}:
            continue  # separator row
        out.append((cells, i + 1))
    return out if active else None


def parse_md_table(md_lines, header_cells, col):
    """Backticked tokens from column `col` of the markdown table whose
    header row contains all of header_cells, as [(token, line)]."""
    rows = parse_md_rows(md_lines, header_cells)
    if rows is None:
        return None
    return [(m.group(1), line) for cells, line in rows if col < len(cells)
            for m in BACKTICK_RE.finditer(cells[col])]


def check_sync(diag, kind, code_side, doc_side):
    """Both-direction set comparison with per-name diagnostics."""
    (code_path, code_entries), (doc_path, doc_entries) = code_side, doc_side
    code_names = {name for name, _ in code_entries}
    doc_names = {name for name, _ in doc_entries}
    for name, line in code_entries:
        if name not in doc_names:
            diag.error(code_path, line,
                       f"{kind} `{name}` is not documented in "
                       f"{os.path.basename(doc_path)}")
    for name, line in doc_entries:
        if name not in code_names:
            diag.error(doc_path, line,
                       f"{kind} `{name}` is documented but absent from "
                       "the code")


def collect_seams(headers):
    """Every seam site as (path, name, line, is_fail_site)."""
    out = []
    for path, lines in headers:
        for i, raw in enumerate(lines):
            for m in FAILPOINT_RE.finditer(code_part(raw)):
                out.append((path, m.group(2), i + 1, bool(m.group(1))))
    return out


# ----------------------------------------------------------------- driver
def run(root: str) -> int:
    diag = Diagnostics(root)
    include_root = os.path.join(root, "include", "kps")
    design_md = os.path.join(root, "DESIGN.md")

    headers = []
    for dirpath, _, filenames in os.walk(include_root):
        for fn in sorted(filenames):
            if fn.endswith(".hpp"):
                path = os.path.join(dirpath, fn)
                with open(path, encoding="utf-8") as f:
                    headers.append((path, f.read().splitlines()))
    if not headers:
        print(f"{include_root}: error: no headers found", file=sys.stderr)
        return 2

    for path, lines in headers:
        check_order_tags(diag, path, lines)
        check_header_hygiene(diag, path, lines)

    try:
        with open(design_md, encoding="utf-8") as f:
            md_lines = f.read().splitlines()
    except OSError:
        print(f"{design_md}: error: unreadable", file=sys.stderr)
        return 2

    by_name = {os.path.relpath(p, include_root): (p, ls)
               for p, ls in headers}

    check_option_callers(diag, root, include_root, by_name)

    # trace-sync
    trace_path, trace_lines = by_name.get(
        os.path.join("support", "trace.hpp"), (None, None))
    trace_code = (parse_name_array(trace_path, trace_lines, "kTraceEvNames")
                  if trace_path else None)
    trace_doc = parse_md_table(md_lines, ("`TraceEv`", "name"), 1)
    if trace_code is None:
        diag.error(trace_path or include_root, 1,
                   "kTraceEvNames array not found in support/trace.hpp")
    elif trace_doc is None:
        diag.error(design_md, 1, "TraceEv name table not found")
    else:
        check_sync(diag, "trace event", (trace_path, trace_code),
                   (design_md, trace_doc))

    # counter-sync
    stats_path, stats_lines = by_name.get(
        os.path.join("support", "stats.hpp"), (None, None))
    counter_code = (parse_name_array(stats_path, stats_lines,
                                     "kCounterNames")
                    if stats_path else None)
    counter_doc = parse_md_table(md_lines, ("| Counter |", "Meaning"), 0)
    if counter_code is None:
        diag.error(stats_path or include_root, 1,
                   "kCounterNames array not found in support/stats.hpp")
    elif counter_doc is None:
        diag.error(design_md, 1, "counter glossary table not found")
    else:
        check_sync(diag, "counter", (stats_path, counter_code),
                   (design_md, counter_doc))

    # seam-sync
    seam_header = ("| Seam |", "Injected meaning")
    seam_rows = parse_md_rows(md_lines, seam_header)
    seam_code = collect_seams(headers)
    if seam_rows is None:
        diag.error(design_md, 1, "failpoint seam catalog table not found")
    else:
        seam_doc = parse_md_table(md_lines, seam_header, 0)
        doc_names = {name for name, _ in seam_doc}
        code_names = {name for _, name, _, _ in seam_code}
        fail_names = {name for _, name, _, fail in seam_code if fail}
        seen = set()
        for path, name, line, _ in seam_code:
            if name not in doc_names and name not in seen:
                seen.add(name)
                diag.error(path, line,
                           f"failpoint seam `{name}` is not in the "
                           "DESIGN.md seam catalog")
        for name, line in seam_doc:
            if name not in code_names:
                diag.error(design_md, line,
                           f"failpoint seam `{name}` is documented but "
                           "absent from the code")
        for cells, line in seam_rows:
            says_fail = len(cells) > 1 and "FAIL" in cells[1]
            for m in BACKTICK_RE.finditer(cells[0]):
                name = m.group(1)
                if name not in code_names or says_fail == (
                        name in fail_names):
                    continue
                diag.error(design_md, line,
                           f"failpoint seam `{name}` has Kind "
                           f"{'FAIL' if says_fail else 'timing'} but "
                           f"{'no' if says_fail else 'a'} site uses "
                           "KPS_FAILPOINT_FAIL")

    return diag.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."),
        help="repo root (contains include/kps and DESIGN.md)")
    args = ap.parse_args()
    return run(os.path.abspath(args.root))


if __name__ == "__main__":
    sys.exit(main())
