#!/usr/bin/env python3
"""List the public `val`s of lib/*.mli that nothing outside test/ reads.

A val is read when a `.ml` file of bin/, examples/, bench/ or a lib/
module other than its own names it: `M.v`, `Dd_lib.M.v`, `A.v` after
`module A = M`, a bare `v` in a file that opens `M` (`open M`,
`let open M in`, `include M`), or a bare `v` inside the parentheses of
a local open `M.( ... )`.  Comments and string literals are skipped.  The test is a grep, so it errs towards finding a
reader: a bare name that a file opening `M` binds itself counts too.

Each listed val must appear in the allowlist (tools/surface_allowlist.txt,
one `Module.val  reason` per line, `#` starts a comment), and each
allowlist entry must still be listed.  Exit status 1 otherwise.

Usage: python3 tools/surface.py   (or `make surface`)
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
READER_DIRS = ["bin", "examples", "bench", "lib"]
IDENT = r"[a-z_][A-Za-z0-9_']*"


def strip_comments_and_strings(src):
    """Blank out OCaml comments (nested) and string literals."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            if depth == 0:
                out.append('""')
        elif depth == 0 and c == "'" and re.match(r"'(\\[^']+|[^\\'\n])'", src[i:]) \
                and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] in "_'")):
            m = re.match(r"'(\\[^']+|[^\\'\n])'", src[i:])
            out.append("' '")
            i += m.end()
        else:
            if depth == 0:
                out.append(c)
            elif c == "\n":
                out.append(c)
            i += 1
    return "".join(out)


def interfaces():
    """(.ml path, library name, module name, val names) for each lib/*.mli."""
    found = []
    for dirpath, _, files in os.walk(os.path.join(ROOT, "lib")):
        dune = os.path.join(dirpath, "dune")
        lib = None
        if os.path.exists(dune):
            m = re.search(r"\(name\s+(\w+)\)", open(dune).read())
            lib = m.group(1) if m else None
        for f in sorted(files):
            if not f.endswith(".mli"):
                continue
            mod = f[:-4].capitalize()
            src = strip_comments_and_strings(open(os.path.join(dirpath, f)).read())
            vals, stack = [], []
            for line in src.splitlines():
                sub = re.match(r"\s*module\s+([A-Z]\w*)\s*:\s*sig\b", line)
                if sub:
                    stack.append(sub.group(1))
                    continue
                if stack and re.match(r"\s*end\b", line):
                    stack.pop()
                    continue
                v = re.match(r"\s*val\s+(" + IDENT + r")\s*:", line)
                if v:
                    vals.append(".".join(stack + [v.group(1)]))
            found.append((os.path.join(dirpath, f[:-4] + ".ml"), lib, mod, vals))
    return found


def readers():
    for d in READER_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            for f in files:
                if f.endswith(".ml"):
                    yield os.path.join(dirpath, f)


def words(text):
    return set(re.findall(r"(?<![\w.'])" + IDENT, text))


def local_open_end(src, i):
    """Index of the parenthesis that closes the one opened just before i."""
    depth = 1
    while i < len(src) and depth:
        depth += {"(": 1, ")": -1}.get(src[i], 0)
        i += 1
    return i - 1


def uses(path, modules):
    """Names read from each module: {module: set of val paths or bare names}."""
    src = strip_comments_and_strings(open(path).read())
    qual = r"(?:Dd_\w+\.)?"
    alias = {m: m for m in modules}
    for a, m in re.findall(r"\bmodule\s+([A-Z]\w*)\s*=\s*" + qual + r"([A-Z]\w*)\b(?!\s*\.)", src):
        if m in modules:
            alias[a] = m
    read = {}
    for a, rest in re.findall(r"(?<![\w.'])" + qual + r"([A-Z]\w*)((?:\.[A-Z]\w*)*\." + IDENT + ")", src):
        if a in alias:
            read.setdefault(alias[a], set()).add(rest[1:])
    for a in re.findall(r"\b(?:open!?|include)\s+" + qual + r"([A-Z]\w*)\b", src):
        if a in alias:
            read.setdefault(alias[a], set()).update(words(src))
    for m in re.finditer(r"(?<![\w.'])" + qual + r"([A-Z]\w*)\.\(", src):
        if m.group(1) in alias:
            scope = src[m.end():local_open_end(src, m.end())]
            read.setdefault(alias[m.group(1)], set()).update(words(scope))
    return read


def main():
    allow_path = os.path.join(ROOT, "tools", "surface_allowlist.txt")
    mods = interfaces()
    counts = {}
    for _, _, mod, _ in mods:
        counts[mod] = counts.get(mod, 0) + 1
    names = {m for _, _, m, _ in mods}
    reads = {os.path.abspath(p): uses(p, names) for p in readers()}
    unread = []
    for ml, lib, mod, vals in mods:
        key = mod if counts[mod] == 1 else "%s.%s" % (lib.capitalize(), mod)
        for v in vals:
            hit = any(v in r.get(mod, ()) for p, r in reads.items() if p != os.path.abspath(ml))
            if not hit:
                unread.append("%s.%s" % (key, v))
    allow = {}
    if os.path.exists(allow_path):
        for line in open(allow_path):
            line = line.split("#", 1)[0].strip()
            if line:
                name, _, reason = line.partition(" ")
                allow[name] = reason.strip()
    bad = 0
    for name in unread:
        if name in allow:
            print("%-44s %s" % (name, allow[name]))
        else:
            print("%-44s NOT ALLOWLISTED: no reader outside test/" % name)
            bad = 1
    for name in sorted(set(allow) - set(unread)):
        print("%-44s STALE allowlist entry: has a reader or is gone" % name)
        bad = 1
    print("%d vals with no reader outside test/, %d allowlisted"
          % (len(unread), len([n for n in unread if n in allow])), file=sys.stderr)
    return bad


if __name__ == "__main__":
    sys.exit(main())
