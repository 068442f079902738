"""Guard: the crawl engine is configured only through ``CrawlSettings``
and its constructor arguments.  No module of the engine may read the
process environment, so a run's behaviour never depends on a hidden
switch (such as an environment-gated profiler)."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "neocrawler_ray"
ENGINE = [PKG / "pipelines" / "crawl.py", PKG / "pipelines" / "scheduler.py",
          *sorted((PKG / "state").glob("*.py")),
          *sorted((PKG / "stages").glob("*.py"))]
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def env_reads(source: str) -> list[int]:
    """Line numbers of every ``os.environ``/``os.getenv`` access (also
    through an ``import os as x`` alias or ``from os import environ``)."""
    tree = ast.parse(source)
    os_aliases = {"os"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_aliases.update(a.asname or a.name for a in node.names
                              if a.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for a in node.names
                      if a.name in _ENV_NAMES]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id in os_aliases):
            lines.append(node.lineno)
    return sorted(lines)


def test_env_reads_detector():
    assert env_reads("import os\nos.environ.get('X')\n") == [2]
    assert env_reads("import os as o\nv = o.getenv('X')\n") == [2]
    assert env_reads("from os import environ\n") == [1]
    assert env_reads("import os\nos.path.join('a', 'b')\n") == []


def test_crawl_engine_reads_no_environment():
    assert all(p.exists() for p in ENGINE[:2]) and len(ENGINE) > 4
    hits = {str(p.relative_to(PKG)): env_reads(p.read_text())
            for p in ENGINE}
    assert {k: v for k, v in hits.items() if v} == {}
