"""Import-layering contract: core -> optimizer -> experiments -> cli.

An AST-based stand-in for import-linter (no third-party dependency):
every intra-package import in ``src/repro`` must point *strictly
downward* in the layer ranking below.  A back-edge — e.g. the obs
layer importing from experiments, or optimizer importing cli — fails
with the offending file and import named.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Layer rank per top-level package (or top-level module) of ``repro``.
#: An importer may only import from strictly lower-ranked layers (or
#: from inside its own package).  Rank ties are allowed only for
#: packages with no edges between them.
LAYER_RANK = {
    "obs": 0,
    "catalog": 0,
    "core": 1,
    "dbgen": 1,
    "storage": 2,
    "optimizer": 3,
    "sql": 4,
    "workloads": 4,
    "executor": 4,
    "experiments": 5,
    "serve": 6,
    "cli": 7,
    "__main__": 8,
}


def _layer_of(path: Path) -> str:
    """The repro-relative top package (or module stem) of a file."""
    relative = path.relative_to(SRC)
    if len(relative.parts) == 1:
        return relative.stem  # cli.py, __main__.py, __init__.py
    return relative.parts[0]


def _module_package(path: Path) -> list[str]:
    """The package a file's relative imports resolve against.

    ``repro/a/b.py`` lives in package ``repro.a``; ``repro/a/__init__.py``
    *is* package ``repro.a`` — same formula either way.
    """
    relative = path.relative_to(SRC)
    return ["repro", *relative.parts[:-1]]


def _imported_repro_modules(path: Path) -> list[str]:
    """Absolute ``repro.*`` module names imported anywhere in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = _module_package(path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.split(".")[0] == "repro":
                    found.append(node.module)
                continue
            base = package[: len(package) - (node.level - 1)]
            module = ".".join(base + ([node.module] if node.module else []))
            if module.split(".")[0] == "repro":
                found.append(module)
    return found


def _target_layer(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def test_every_layer_is_ranked():
    for path in sorted(SRC.rglob("*.py")):
        layer = _layer_of(path)
        if layer in ("__init__",):
            continue
        assert layer in LAYER_RANK, (
            f"{path} introduces unranked layer {layer!r}; "
            "add it to LAYER_RANK with a deliberate position"
        )


def test_no_upward_or_sideways_imports():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        source_layer = _layer_of(path)
        # repro/__init__.py is the package root: it may see everything.
        if source_layer == "__init__":
            continue
        source_rank = LAYER_RANK[source_layer]
        for module in _imported_repro_modules(path):
            target_layer = _target_layer(module)
            if not target_layer or target_layer == "__init__":
                continue  # "from .. import __version__" etc.
            if target_layer == source_layer:
                continue  # intra-package imports are free
            target_rank = LAYER_RANK.get(target_layer)
            if target_rank is None:
                violations.append(
                    f"{path.relative_to(SRC)}: imports unranked "
                    f"layer {target_layer!r} ({module})"
                )
            elif target_rank >= source_rank:
                violations.append(
                    f"{path.relative_to(SRC)} (layer {source_layer}, "
                    f"rank {source_rank}) imports {module} (layer "
                    f"{target_layer}, rank {target_rank}) — back-edge"
                )
    assert not violations, "\n".join(violations)


def test_headline_chain_is_ordered():
    """The README's headline layering, spelled out explicitly."""
    chain = ["core", "optimizer", "experiments", "cli"]
    ranks = [LAYER_RANK[layer] for layer in chain]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == len(ranks)


def test_scipy_is_imported_only_inside_lp_functions():
    """scipy's one use is ``linprog`` in ``core/lp.py``, imported
    inside the functions that call it so startup never pays for it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nested = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            else:
                continue
            if not any(m.split(".")[0] == "scipy" for m in modules):
                continue
            where = path.relative_to(SRC).as_posix()
            if where != "core/lp.py" or id(node) not in nested:
                offenders.append(f"{where}:{node.lineno}")
    assert not offenders, offenders


def test_obs_package_is_complete_and_bottom_ranked():
    """The observability toolkit lives at rank 0: anything may import
    it, it may import nothing above itself.  Pin its module roster so a
    new obs module is placed (and checked) deliberately."""
    modules = sorted(
        path.stem
        for path in (SRC / "obs").glob("*.py")
        if path.stem != "__init__"
    )
    assert modules == [
        "bench", "decisions", "export", "faults", "history", "logs",
        "manifest", "metrics", "profile", "progress", "report",
        "trace",
    ]
    assert LAYER_RANK["obs"] == 0
    # No obs module may import another repro layer at all.
    for path in sorted((SRC / "obs").glob("*.py")):
        for module in _imported_repro_modules(path):
            target = _target_layer(module)
            assert target in ("", "obs", "__init__"), (
                f"obs/{path.name} imports {module} — the obs layer "
                "must stay dependency-free"
            )


def test_profiler_is_the_only_thread_starter():
    """One sampling path: the ``--profile`` sampler is the only thread
    ``src/repro`` starts itself (worker pools aside), so no other
    mechanism samples the run behind its back."""
    starters = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", "")
            )
            if name in ("Thread", "Timer", "start_new_thread"):
                starters.append(path.relative_to(SRC).as_posix())
    assert starters == ["obs/profile.py"]
