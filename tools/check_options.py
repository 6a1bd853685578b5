#!/usr/bin/env python3
"""Fail when a core::Options field is never set outside options.hh.

Usage:
    check_options.py [<repo_root>]

Every field of core::Options should be a real choice: some caller, bench,
example, tool or test sets it to a value of its own. A field nothing ever
writes is a constant in disguise, and each such field doubles the
configurations the tests claim to cover; make it a named constexpr beside
its reader instead.

A write is `.field =` (or `->field =`, or a compound assignment), or a
member write through the field, as in `o.fault.seed =` or
`o.fault.site(...)`. The script lists each unwritten field by name and
exits 1; with every field written it exits 0.
"""

import os
import re
import sys

OPTIONS_HH = os.path.join("src", "core", "options.hh")
SCAN_DIRS = ("src", "bench", "tests", "examples", "perfbench", "tools")
SOURCE_EXT = (".cc", ".hh", ".cpp", ".h")

# One field declaration at the struct's top level: a type, an optional
# '*', the name, an optional default, ';'.
FIELD = re.compile(r"^\s*[A-Za-z_][\w:<>]*\s*\*?\s*([A-Za-z_]\w*)\s*"
                   r"(?:=[^;]*)?;")


def options_fields(text):
    """Field names of `struct Options`, in declaration order."""
    start = re.search(r"^struct Options\s*\n?\{", text, re.M)
    if not start:
        sys.exit("check_options: no `struct Options` in " + OPTIONS_HH)
    fields = []
    depth = 0
    for line in text[start.end() - 1:].splitlines():
        code = line.split("//")[0]
        if depth == 1:
            m = FIELD.match(code)
            if m:
                fields.append(m.group(1))
        depth += code.count("{") - code.count("}")
        if depth == 0:
            break
    return fields


def write_pattern(field):
    """A write to @p field, directly or through one of its members."""
    f = re.escape(field)
    assign = r"\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)"
    return re.compile(r"(?:\.|->)\s*" + f + r"\b(?:" + assign +
                      r"|\s*\.\s*\w+(?:" + assign + r"|\s*\())")


def sources(root):
    skip = os.path.normpath(os.path.join(root, OPTIONS_HH))
    for d in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in names:
                path = os.path.join(dirpath, name)
                if name.endswith(SOURCE_EXT) and \
                        os.path.normpath(path) != skip:
                    yield path


def main(argv):
    root = argv[1] if len(argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, OPTIONS_HH)) as f:
        fields = options_fields(f.read())
    if not fields:
        sys.exit("check_options: found no Options fields")
    texts = []
    for path in sources(root):
        with open(path, errors="replace") as f:
            texts.append(f.read())
    unwritten = [fld for fld in fields
                 if not any(write_pattern(fld).search(t) for t in texts)]
    for fld in unwritten:
        print(f"check_options: Options::{fld} is never set outside "
              f"{OPTIONS_HH}; make it a constant or set it somewhere")
    print(f"check_options: {len(fields)} fields, "
          f"{len(unwritten)} never set")
    return 1 if unwritten else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
