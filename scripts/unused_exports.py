#!/usr/bin/env python3
"""Fail when a library interface exports a value that nothing names.

    unused_exports.py [ROOT]

Every `val` declared in an `.mli` under `lib/` must be named by at least
one other OCaml source file (`.ml` or `.mli`) under `lib/`, `bin/`,
`bench/`, `test/` or `examples/`; tests count as users. A name counts
wherever it appears as a whole identifier in the code of another file,
qualified or not. Comments (nested `(* *)`), string literals (`"..."`
with escapes, `{|...|}` and `{id|...|id}`) and char literals are
skipped, so a name mentioned only in prose or in a message does not
count; the check can still miss an unused export whose name some other
file happens to use as code. An export used only through a
signature, by a functor argument or an `include`, would be flagged even
though it is in use; no module does that today. The module's own
`.ml` and `.mli` do not count: an export that only its implementation
uses belongs out of the interface.

The user facade `lib/core/occlum.mli` is allowlisted: it is the API the
examples show, not an interface that has to earn its callers.

Stdlib only; exit 0 = every export is named, 1 = unused exports (listed
as `file:line: Module.name`), 2 = usage error.
"""

import os
import re
import sys

SCAN_DIRS = ("lib", "bin", "bench", "test", "examples")
ALLOWLIST = {os.path.join("lib", "core", "occlum.mli")}

VAL_RE = re.compile(r"^\s*val\s+(?:\(\s*([^)\s]+)\s*\)|([a-z_][A-Za-z0-9_']*))")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
CHAR_RE = re.compile(
    r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}"
    r"|u\{[0-9a-fA-F]+\}))'")
QUOTED_RE = re.compile(r"\{([a-z_]*)\|")
IDENT_CHAR = re.compile(r"[A-Za-z0-9_']")


def code_only(s):
    """`s` with every comment, string and char literal blanked to spaces
    (newlines kept, so line numbers still hold)."""
    out = list(s)
    n = len(s)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def skip_literal(i):
        """End of the literal starting at i, or None if none starts there."""
        c = s[i]
        if c == '"':
            j = i + 1
            while j < n and s[j] != '"':
                j += 2 if s[j] == "\\" else 1
            return min(j + 1, n)
        if c == "{":
            m = QUOTED_RE.match(s, i)
            if m:
                close = s.find("|%s}" % m.group(1), m.end())
                return n if close < 0 else close + len(m.group(1)) + 2
        if c == "'" and (i == 0 or not IDENT_CHAR.match(s[i - 1])):
            m = CHAR_RE.match(s, i)
            if m:
                return m.end()
        return None

    i = 0
    while i < n:
        if s.startswith("(*", i):
            start, depth, i = i, 1, i + 2
            while i < n and depth:
                if s.startswith("(*", i):
                    depth, i = depth + 1, i + 2
                elif s.startswith("*)", i):
                    depth, i = depth - 1, i + 2
                else:
                    end = skip_literal(i)
                    i = end if end is not None else i + 1
            blank(start, i)
            continue
        end = skip_literal(i)
        if end is not None:
            blank(i, end)
            i = end
        else:
            i += 1
    return "".join(out)


def sources(root):
    for d in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = sorted(x for x in dirnames if not x.startswith(("_", ".")))
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")):
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def main(argv):
    if len(argv) > 2:
        print("usage: unused_exports.py [ROOT]", file=sys.stderr)
        return 2
    root = argv[1] if len(argv) == 2 else os.path.join(os.path.dirname(__file__), "..")
    text = {}
    for f in sources(root):
        with open(os.path.join(root, f), encoding="utf-8") as h:
            text[f] = code_only(h.read())
    idents = {f: set(IDENT_RE.findall(s)) for f, s in text.items()}
    unused = []
    for f in text:
        if not f.startswith("lib" + os.sep) or not f.endswith(".mli") or f in ALLOWLIST:
            continue
        own = {f, f[:-1]}
        module = os.path.basename(f)[:-4].capitalize()
        for lineno, line in enumerate(text[f].splitlines(), 1):
            m = VAL_RE.match(line)
            if not m:
                continue
            if m.group(2):
                name = m.group(2)
                named = any(name in idents[g] for g in text if g not in own)
            else:  # an operator: look for its symbol
                name = "( %s )" % m.group(1)
                named = any(m.group(1) in text[g] for g in text if g not in own)
            if not named:
                unused.append("%s:%d: %s.%s" % (f, lineno, module, name))
    for u in unused:
        print(u)
    if unused:
        print("FAIL: %d exported value(s) named by no other file; delete them "
              "from the interface, and from the implementation if nothing "
              "there uses them" % len(unused), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
