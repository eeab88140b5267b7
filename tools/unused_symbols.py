#!/usr/bin/env python3
"""Unused-symbol scan: library names that no program reaches.

Takes every function and class name declared in src/*/*.h and reports the
ones that no C++ file under src/, bench/, examples/ or perfbench/ mentions
apart from their own declaration and definition. Tests do not count: a name
that only a test reaches is reported.

It is a name grep, not a linker: comments and string literals are stripped
first, and a name counts as used when any file mentions it outside a
declaration or definition of that name. Two unrelated functions that share
a name therefore hide each other; the scan can miss dead code, but every
name it reports has no caller in those directories.

Each reported name must appear in tools/unused_symbols.allow, one name and
its reason a line:

    dev_scale_into  ROADMAP item 7: the interpreter's device-born scale

A reason starts with "test seam:", "test reference:" or "ROADMAP item <n>".
The scan fails (exit 1) on a reported name that the allow list does not
name, on an allow entry whose name is no longer reported (it has a caller
now, or it is gone), and on a malformed allow line.

    python3 tools/unused_symbols.py [--root DIR] [--allow FILE]
"""

import argparse
import os
import re
import sys

SCANNED_DIRS = ("src", "bench", "examples", "perfbench")
CPP_SUFFIXES = (".h", ".hpp", ".cpp", ".cc")
REASON = re.compile(r"^(test seam:|test reference:|ROADMAP item \d+)")

# Words that can precede "name(" in a statement that is not a declaration.
NOT_A_TYPE = {
    "return", "new", "delete", "throw", "else", "case", "co_return",
    "co_yield", "co_await", "sizeof", "alignof", "typeid", "decltype",
    "goto", "do", "not", "and", "or", "using", "typedef", "operator",
}
KEYWORD_CALLS = {
    "if", "for", "while", "switch", "catch", "sizeof", "alignof", "decltype",
    "static_assert", "return", "operator", "noexcept", "alignas", "defined",
}
CALL = re.compile(r"([A-Za-z_]\w*)\s*\(")
QUALIFIERS = re.compile(r"((?:[A-Za-z_]\w*::)+)$")
TYPE_PREFIX = re.compile(r"^[\w:<>,\s\*&\[\]~]*$")
CLASS_HEAD = re.compile(
    r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?([A-Za-z_]\w*)"
    r"(?:\s+final)?\s*(?::[^;{()]*)?\{")
CLASS_MENTION = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)")
WORD = re.compile(r"[A-Za-z_]\w*")


def strip_code(text):
    """Blanks comments and the contents of string and character literals,
    keeping every newline so line numbers stay put."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def declared_name(line):
    """(name, qualifiers) when the line declares or defines a function or
    constructor "name(", else None."""
    stripped = line.strip()
    if stripped.startswith("#"):
        return None
    m = CALL.search(line)
    if m is None:
        return None
    name = m.group(1)
    prefix = line[:m.start()].rstrip()
    quals = QUALIFIERS.search(prefix)
    owners = quals.group(1).split("::")[:-1] if quals else []
    # A declaration names a type (or explicit/virtual) before the name and
    # its qualifiers: "OpResult f(", "double Cls::f(", not "detail::f(".
    words = WORD.findall(prefix[:quals.start()] if quals else prefix)
    if name in KEYWORD_CALLS or not words or not TYPE_PREFIX.match(prefix):
        return None
    if words[-1] in NOT_A_TYPE:
        return None
    return name, owners


def class_bodies(text):
    """Yields (name, start, end) for each class or struct body in text."""
    for m in CLASS_HEAD.finditer(text):
        depth, j = 0, m.end() - 1
        while j < len(text):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        yield m.group(1), m.start(), j


def read_tree(root):
    files = {}
    for top in SCANNED_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith(CPP_SUFFIXES):
                    path = os.path.join(dirpath, f)
                    with open(path, encoding="utf-8") as fh:
                        files[os.path.relpath(path, root)] = strip_code(
                            fh.read())
    return files


def is_library_header(rel):
    parts = rel.split(os.sep)
    return len(parts) == 3 and parts[0] == "src" and parts[2].endswith(".h")


def scan(root):
    files = read_tree(root)
    declared = {}  # name -> first header that declares it
    own_bodies = {}  # class name -> [(file, start, end)]
    for rel, text in files.items():
        if not is_library_header(rel):
            continue
        for line in text.splitlines():
            decl = declared_name(line)
            if decl is not None:
                declared.setdefault(decl[0], rel)
        for name, start, end in class_bodies(text):
            declared.setdefault(name, rel)
            own_bodies.setdefault(name, []).append((rel, start, end))

    used = set()
    for rel, text in files.items():
        offset = 0
        for line in text.splitlines(keepends=True):
            decl = declared_name(line)
            skip = set()
            if decl is not None:
                skip.add(decl[0])
                skip.update(decl[1])
            skip.update(CLASS_MENTION.findall(line))
            for m in WORD.finditer(line):
                name = m.group(0)
                if name not in declared or name in used or name in skip:
                    continue
                pos = offset + m.start()
                if any(f == rel and s <= pos <= e
                       for f, s, e in own_bodies.get(name, [])):
                    continue
                used.add(name)
            offset += len(line)
    return {name: declared[name] for name in declared if name not in used}


def read_allow(path):
    allow, errors = {}, []
    if not os.path.exists(path):
        return allow, errors
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            reason = parts[1].strip() if len(parts) > 1 else ""
            if not REASON.match(reason):
                errors.append(f"{path}:{lineno}: '{parts[0]}' needs a reason "
                              "starting with 'test seam:', 'test reference:' "
                              "or 'ROADMAP item <n>'")
            allow[parts[0]] = reason
    return allow, errors


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(here))
    ap.add_argument("--allow",
                    default=os.path.join(here, "unused_symbols.allow"))
    args = ap.parse_args()

    unused = scan(args.root)
    allow, errors = read_allow(args.allow)
    for name in sorted(unused):
        if name not in allow:
            errors.append(f"{unused[name]}: '{name}' has no caller in "
                          f"{', '.join(SCANNED_DIRS)}; delete it, or allow it "
                          "with a reason")
    for name in sorted(set(allow) - set(unused)):
        errors.append(f"{args.allow}: '{name}' is allowed but no longer "
                      "reported; remove its line")
    for name in sorted(set(unused) & set(allow)):
        print(f"allowed  {name:32} {allow[name]}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{len(unused)} unused name(s), {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
