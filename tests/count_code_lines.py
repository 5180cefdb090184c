"""Count the code lines of Python sources.

A line counts when it holds a token other than a comment or a docstring;
blank lines, comment lines and the lines of a docstring do not.  A
docstring is a string that is a whole statement on its own.  A string
that spans lines counts on each of them when it is not a docstring.

    python3 tests/count_code_lines.py [PATH ...]

Each PATH is a file or a directory searched for *.py files; the default
is src/mobiuskit beside this script's directory.  Prints one line per
file, then the total.
"""

import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    with open(path, "rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline) if t.type != tokenize.ENCODING]
    lines = set()
    statement = []  # the tokens of the current logical line
    for token in tokens:
        if token.type in _LAYOUT:
            if token.type == tokenize.NEWLINE and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(token)
    return len(lines)


def sources(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, name) for name in sorted(files) if name.endswith(".py"))
        else:
            yield path


def main(argv) -> int:
    paths = argv or [os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "mobiuskit")]
    total = 0
    for path in sources(paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {os.path.relpath(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
