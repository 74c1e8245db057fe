import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polygauss"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "polygauss"}


def test_src_imports_only_stdlib_numpy_and_itself():
    # scipy, sympy and hypothesis are test or scratch tools, not runtime deps
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside polygauss
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert outside == []
