"""The README's library example runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["report"].converged
    assert namespace["mesh"].dirichlet_vertices.sum() == 2 * 9**2
    iterations, residual, _ = out.getvalue().split()
    assert int(iterations) == namespace["report"].iterations and float(residual) <= 1e-11
