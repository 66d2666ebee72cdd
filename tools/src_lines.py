#!/usr/bin/env python3
"""Count the code lines under src/.

    python3 tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the src/ directory beside this script's tools/.
Every src/**/*.h, src/**/*.cpp and src/**/CMakeLists.txt line counts
unless it is blank, starts with `//`, is a CMake `#` line, or holds
nothing once its `/* ... */` comment text (which may span lines) is
removed; an X-macro line left holding only its continuation `\\`
counts as nothing too.  Prints the total, then one line per module.

To count another revision, unpack its src/ first:

    git archive REV src | tar -x -C /tmp/rev && \\
        python3 tools/src_lines.py /tmp/rev/src
"""

import os
import sys


def code_lines(lines, cmake):
    """Yield True for each line that holds code (see the module doc)."""
    in_block = False
    for line in lines:
        text = line.strip()
        if cmake:
            yield bool(text) and not text.startswith("#")
            continue
        if not in_block and text.startswith("//"):
            yield False
            continue
        code = []
        i = 0
        while i < len(text):
            if in_block:
                end = text.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
            elif text.startswith("/*", i):
                in_block = True
                i += 2
            elif text.startswith("//", i):
                break
            else:
                code.append(text[i])
                i += 1
        yield "".join(code).strip() not in ("", "\\")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = sys.argv[1] if len(sys.argv) > 1 else os.path.join(root, "src")
    if len(sys.argv) > 2 or not os.path.isdir(src):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    per_module = {}
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            cmake = name == "CMakeLists.txt"
            if not cmake and not name.endswith((".h", ".cpp")):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                n = sum(code_lines(f, cmake))
            module = os.path.relpath(dirpath, src).split(os.sep)[0]
            per_module[module] = per_module.get(module, 0) + n
    print(sum(per_module.values()))
    for module in sorted(per_module):
        print("  %-12s %6d" % (module if module != "." else "(top)",
                               per_module[module]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
