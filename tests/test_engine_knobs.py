"""Guards on the crawl engine's source.

- It is configured only through ``CrawlSettings`` and its constructor
  arguments: no module of the engine may read the process environment,
  so a run's behaviour never depends on a hidden switch (such as an
  environment-gated profiler).
- Its only Ray remote is the ``CrawlHost`` actor class: no function
  becomes a Ray task, so a crawl starts no task-worker process beside
  the hosts.
- The wave loop and the scheduler use no pandas, and the crawl reads the
  corpus' pages only through ``CrawlHost.load_pages``: no second scan
  of the pages dataset (its robots rules come from the loaded
  partitions)."""

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


def _is_ray_remote(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "remote"
            and isinstance(node.value, ast.Name) and node.value.id == "ray")


def remote_wraps(source: str) -> list[int]:
    """Line numbers of every bare ``@ray.remote`` on a ``def`` and every
    ``ray.remote(...)`` call but ``ray.remote(CrawlHost)`` (which also
    covers ``@ray.remote(**opts)`` and ``ray.remote(**opts)(f)``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [d.lineno for d in node.decorator_list
                      if _is_ray_remote(d)]
        elif (isinstance(node, ast.Call) and _is_ray_remote(node.func)
              and not (len(node.args) == 1 and not node.keywords
                       and getattr(node.args[0], "id", None)
                       == "CrawlHost")):
            lines.append(node.lineno)
    return sorted(lines)


def test_remote_wraps_detector():
    assert remote_wraps("import ray\n@ray.remote\ndef f(): pass\n") == [2]
    assert remote_wraps(
        "import ray\n@ray.remote(num_cpus=1)\ndef f(): pass\n") == [2]
    assert remote_wraps("import ray\ng = ray.remote(f)\n") == [2]
    assert remote_wraps("import ray\ng = ray.remote(num_cpus=0)(f)\n") == [2]
    assert remote_wraps("import ray\nA = ray.remote(CrawlHost)\n") == []
    assert remote_wraps("import ray\nray.get(h.f.remote())\n") == []


def test_crawl_engine_remote_is_only_crawl_host():
    hits = {str(p.relative_to(PKG)): remote_wraps(p.read_text())
            for p in ENGINE}
    assert {k: v for k, v in hits.items() if v} == {}
    assert "ray.remote(CrawlHost)" in ENGINE[0].read_text()


def imports_and_names(source: str) -> tuple[set[str], set[str]]:
    """Every module a source imports (``from a import b`` also counts as
    ``a.b``), and every name and attribute it references or imports."""
    mods, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mods.add(node.module or "")
            mods.update(f"{node.module}.{a.name}" for a in node.names)
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return mods, names


def test_imports_and_names_detector():
    mods, names = imports_and_names(
        "from pyarrow import dataset as d\nimport pandas.api\nx.f(y)\n")
    assert {"pyarrow.dataset", "pandas.api"} <= mods
    assert {"dataset", "x", "f", "y"} <= names


def test_wave_loop_uses_no_pandas_and_no_second_pages_scan():
    crawl, scheduler = ENGINE[:2]
    for p in (crawl, scheduler):
        mods, _ = imports_and_names(p.read_text())
        assert not [m for m in mods if m.split(".")[0] == "pandas"], p.name
    mods, names = imports_and_names(crawl.read_text())
    assert "pyarrow.dataset" not in mods
    assert "build_robots_map" not in names
