"""The README's code stays runnable."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    """README's "Library" example, run on a small corpus with one alias."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    left = [f"L{i}" for i in range(5)]
    right = [f"R{i}" for i in range(5)]
    lines = [{"id": "left", "persons": left}, {"id": "right", "persons": right},
             {"id": "bridge", "persons": ["L0", "Ar"]}]
    (tmp_path / "articles.jsonl").write_text(
        "".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    (tmp_path / "aliases.csv").write_text("alias,canonical\nAr,R0\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    g = namespace["g"]
    assert g.names == (*left, *right) and g.edge_count == 21
    assert 0.0 < float(capsys.readouterr().out) < 1.0
