#!/usr/bin/env python3
"""Fail when a configuration field is never set outside its header.

Usage:
    check_options.py [<repo_root>]

Every field of core::Options, and of the other configuration structs in
CONFIGS, should be a real choice: some caller, bench, example, tool or
test sets it to a value of its own. A field nothing ever writes is a
constant in disguise, and each such field doubles the configurations the
tests claim to cover; make it a named constexpr beside its reader
instead.

A write is `.field =` (or `->field =`, or a compound assignment, also
through a subscript as in `.prob[i] =`), a member write through the
field, as in `o.fault.seed =` or `o.fault.site(...)`, or a call of a
member function of the struct that assigns the field, as in
`.site(...)` for `FaultConfig::prob`. A write inside the struct's own
header does not count. The script lists each unwritten
field by name and exits 1; with every field written it exits 0.
"""

import os
import re
import sys

# (header, struct as named in the header, name printed in messages).
CONFIGS = (
    (os.path.join("src", "core", "options.hh"), "Options", "Options"),
    (os.path.join("src", "ipf", "machine.hh"), "MachineConfig",
     "ipf::MachineConfig"),
    (os.path.join("src", "support", "profile.hh"), "Config",
     "prof::Config"),
    (os.path.join("src", "support", "sentinel.hh"), "Config",
     "sentinel::Config"),
    (os.path.join("src", "core", "checkpoint.hh"), "CheckpointConfig",
     "core::CheckpointConfig"),
    (os.path.join("src", "support", "faultinject.hh"), "FaultConfig",
     "FaultConfig"),
)
SCAN_DIRS = ("src", "bench", "tests", "examples", "perfbench", "tools")
SOURCE_EXT = (".cc", ".hh", ".cpp", ".h")

# One field declaration at the struct's top level: a type (template
# arguments allowed), an optional '*', the name, an optional default
# ('= ...' or '{...}'), ';'.
FIELD = re.compile(r"^\s*[A-Za-z_][\w:]*(?:<[^;]*>)?\s*\*?\s*"
                   r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;")
# The name of a member function whose declaration starts on this line.
METHOD = re.compile(r"^\s*(?:[\w:<>]+\s*[&*]?\s+)?([A-Za-z_]\w*)\s*\(")
ASSIGN = r"(?:\[[^\]]*\])?\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)"


def struct_fields(text, struct, header):
    """{field: [member functions assigning it]} of `struct <struct>`,
    in declaration order."""
    start = re.search(r"^struct " + struct + r"\s*\n?\{", text, re.M)
    if not start:
        sys.exit(f"check_options: no `struct {struct}` in {header}")
    fields = {}
    method = None
    depth = 0
    for line in text[start.end() - 1:].splitlines():
        code = line.split("//")[0]
        if depth == 1:
            m = FIELD.match(code)
            if m:
                fields[m.group(1)] = []
            m = METHOD.match(code)
            if m:
                method = m.group(1)
        elif depth > 1 and method:
            for fld, setters in fields.items():
                if re.search(r"\b" + fld + r"\b" + ASSIGN, code):
                    setters.append(method)
        depth += code.count("{") - code.count("}")
        if depth == 0:
            break
    return fields


def write_pattern(field, setters=()):
    """A write to @p field, directly, through one of its members, or by
    calling one of @p setters."""
    f = re.escape(field)
    calls = "".join(r"|(?:\.|->)\s*" + re.escape(s) + r"\s*\("
                    for s in setters)
    return re.compile(r"(?:\.|->)\s*" + f + r"\b(?:" + ASSIGN +
                      r"|\s*\.\s*\w+(?:" + ASSIGN + r"|\s*\())" + calls)


def sources(root):
    """(normalized path, text) of every scanned source file."""
    for d in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in names:
                path = os.path.join(dirpath, name)
                if name.endswith(SOURCE_EXT):
                    with open(path, errors="replace") as f:
                        yield os.path.normpath(path), f.read()


def main(argv):
    root = argv[1] if len(argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = list(sources(root))
    total = unwritten = 0
    for header, struct, shown in CONFIGS:
        path = os.path.normpath(os.path.join(root, header))
        with open(path) as f:
            fields = struct_fields(f.read(), struct, header)
        if not fields:
            sys.exit(f"check_options: found no {shown} fields")
        texts = [t for p, t in files if p != path]
        for fld, setters in fields.items():
            pattern = write_pattern(fld, setters)
            if not any(pattern.search(t) for t in texts):
                unwritten += 1
                print(f"check_options: {shown}::{fld} is never set "
                      f"outside {header}; make it a constant or set it "
                      f"somewhere")
        total += len(fields)
    print(f"check_options: {total} fields in {len(CONFIGS)} structs, "
          f"{unwritten} never set")
    return 1 if unwritten else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
