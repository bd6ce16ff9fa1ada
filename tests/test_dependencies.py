import ast
import sys
from pathlib import Path

import veroschur


def test_program_imports_only_stdlib():
    # the package declares no dependencies; every import in it must be the
    # standard library or the package itself
    files = sorted(Path(veroschur.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "veroschur", \
                    f"{path.name} imports {name}"
