"""kgkit stays within Python 3.10, the oldest version pyproject.toml admits, whichever Python runs the tests.

Both checks are best-effort and do not replace the CI matrix: `ast.parse`
with `feature_version=(3, 10)` rejects newer grammar where it can, and the
regular expressions kgkit compiles may use no construct that `re` reads only
from 3.11 on, atomic groups and possessive quantifiers.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kgkit

PACKAGE = Path(kgkit.__file__).parent

# Import every kgkit module and build both scanners in a fresh interpreter,
# printing each (pattern, flags) that kgkit's own code hands to re.compile.
RECORD_PATTERNS = """
import json, pkgutil, re, sys
package = sys.argv[1]
seen, compile_ = [], re.compile

def recording(pattern, flags=0):
    if sys._getframe(1).f_code.co_filename.startswith(package):
        seen.append((pattern, int(flags)))
    return compile_(pattern, flags)

re.compile = recording
import kgkit
for module in pkgutil.iter_modules(kgkit.__path__):
    __import__("kgkit." + module.name)
from kgkit.io import _scanner
_scanner.cache_clear()
_scanner(False), _scanner(True)
print(json.dumps(seen))
"""

NEWER_THAN_3_10 = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def test_every_module_parses_as_python_3_10():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _opcodes(node):
    """The opcode names of a parsed pattern, nested groups and repeats included."""
    if isinstance(node, re._parser.SubPattern):
        for op, av in node:
            yield str(op)
            yield from _opcodes(av)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item)


@pytest.mark.skipif(not hasattr(re, "_parser"), reason="atomic groups and possessive quantifiers exist only where re._parser does")
def test_no_pattern_kgkit_compiles_needs_python_3_11():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", RECORD_PATTERNS, str(PACKAGE)], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    patterns = json.loads(result.stdout)
    assert len(patterns) > 10  # the scanners and the module-level patterns were seen
    newer = [(pattern, sorted(NEWER_THAN_3_10 & set(_opcodes(re._parser.parse(pattern, flags))))) for pattern, flags in patterns]
    assert [(pattern, ops) for pattern, ops in newer if ops] == []
