import re
from pathlib import Path

from sharegraph import generate_clustered_trace, render_trace

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # The quickstart reads trace.csv from the working directory.
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE))
    assert blocks
    (tmp_path / "trace.csv").write_text(render_trace(generate_clustered_trace(seed=1)))
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        # Padded so that a traceback names the block's line in README.md.
        lines_before = text.count("\n", 0, block.start(1))
        code = "\n" * lines_before + block.group(1)
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
