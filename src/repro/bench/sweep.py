"""One declarative harness for the layout × parameter sweeps.

The paper's evaluation (Figs. 6–8) has one shape: the same seeded
workload replayed on every layout while one parameter varies.  A
:class:`Sweep` declares it once: name and help, one column axis (or
none), its :class:`Param` s, an optional ``setup(run)`` hook for state
shared by every cell, a per-cell ``measure(run, layout, value, row)``
(``row`` holds the layout's cells measured so far), and the
``(title, header, cell)`` tables it renders.  The harness owns the rest:
argument binding, one positive-count check for every count (raising
:class:`BenchmarkError`), the layout × axis loop, the ``meta`` record,
rendering, and the ``--json`` writer.  ``repro-bench`` builds one
subcommand per entry of :data:`SWEEPS`.

``run`` is a :class:`Run` namespace holding ``shape``, ``layouts``,
``drive`` and every parameter (axis included) by name, plus the setup
hook's entries.  Entries named after a parameter replace it; ``meta``
records the parameters as resolved, the drive, the layouts, and every
other setup entry not starting with ``_`` — evaluated after the loop
and made JSON-friendly (tuples become lists, objects their
``describe()`` or ``name``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from repro.bench.reporting import render_table
from repro.errors import BenchmarkError
from repro.registry import Registry

__all__ = ["DEFAULT_LAYOUTS", "SWEEPS", "Param", "Run", "Sweep", "ints",
           "register", "strs", "write_json"]

DEFAULT_LAYOUTS = ("naive", "zorder", "hilbert", "multimap")


def ints(value) -> tuple[int, ...]:
    """Comma-separated text or a sequence -> tuple of ints."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v]
    return tuple(int(v) for v in value)


def strs(value) -> tuple[str, ...]:
    """Comma-separated text or a sequence -> tuple of names."""
    if isinstance(value, str):
        value = value.split(",")
    return tuple(str(v).strip() for v in value if str(v).strip())


@dataclass(frozen=True)
class Param:
    """One sweep parameter: its keyword, default, CLI flag and help.

    ``type`` converts CLI text and library values alike (``None``
    passes values through); ``type=bool`` makes the flag a switch.
    ``count`` requires a positive integer (every element, for a tuple
    axis).  ``flag=None`` keeps a parameter library-only.
    """

    name: str
    default: object
    flag: str | None = None
    help: str = ""
    type: Callable | None = None
    count: bool = False
    choices: tuple | None = None

    def resolve(self, sweep: str, value):
        if value is not None and self.type is not None:
            try:
                value = self.type(value)
            except (TypeError, ValueError) as exc:
                raise BenchmarkError(
                    f"{sweep}: bad {self.name} {value!r}: {exc}"
                ) from None
        if self.count:
            items = value if isinstance(value, tuple) else (value,)
            if not items or not all(
                isinstance(n, int) and n >= 1 for n in items
            ):
                raise BenchmarkError(
                    f"{sweep}: {self.name} must be positive integers, "
                    f"got {value!r}"
                )
        return value


def _jsonable(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "describe"):
        return value.describe()
    return getattr(value, "name", str(value))


def _format(spec, value) -> str:
    """A header (axis value) or cell (dict) through a format string or a
    callable."""
    if callable(spec):
        return spec(value)
    return spec.format_map(value) if isinstance(value, dict) \
        else spec.format(value)


class Run(SimpleNamespace):
    """One sweep's bound arguments and setup state (see module docs)."""

    def dataset(self, layout: str):
        """A fresh same-seed dataset: every cell starts from one, so
        cells differ only in placement and the swept parameter."""
        from repro.api.dataset import Dataset

        return Dataset.create(self.shape, layout=layout, drive=self.drive,
                              seed=self.seed)


@dataclass
class Sweep:
    """A layout × axis experiment, declared once (see module docs).

    ``tables`` holds ``(title, header, cell)`` triples; ``header``
    formats an axis value and ``cell`` a measured cell.  A sweep without
    an axis measures one cell per layout, and its tables take tuples of
    headers and cells, one column each.
    """

    name: str
    help: str
    description: str
    shape: tuple[int, ...]
    drive: str
    axis: Param | None
    params: tuple[Param, ...]
    measure: Callable
    tables: tuple
    title: str | None = None
    setup: Callable | None = None

    @property
    def all_params(self) -> tuple[Param, ...]:
        return ((self.axis,) if self.axis else ()) + self.params

    def bind(self, shape=None, *args, **kwargs) -> Run:
        """Resolve ``run`` arguments (``layouts`` and the axis values may
        come positionally, as in the historical signatures)."""
        slots = ("layouts",) + ((self.axis.name,) if self.axis else ())
        if len(args) > len(slots):
            raise TypeError(f"{self.name}: too many positional arguments")
        kwargs.update(zip(slots, args))
        params = {p.name: p for p in self.all_params}
        unknown = set(kwargs) - set(params) - {"layouts", "drive"}
        if unknown:
            raise TypeError(
                f"{self.name}: unexpected argument(s) "
                f"{', '.join(sorted(unknown))}"
            )
        run = Run(
            shape=ints(self.shape if shape is None else shape),
            layouts=strs(kwargs.get("layouts", DEFAULT_LAYOUTS)),
            drive=kwargs.get("drive", self.drive),
        )
        for name, p in params.items():
            setattr(run, name, p.resolve(self.name,
                                         kwargs.get(name, p.default)))
        return run

    def run(self, shape=None, *args, **kwargs) -> dict:
        """Measure every layout × axis cell; returns
        ``{layout: {value: cell}, "meta": {...}}`` (``{layout: cell}``
        without an axis)."""
        run = self.bind(shape, *args, **kwargs)
        state = self.setup(run) if self.setup else {}
        vars(run).update(state)
        data: dict = {}
        for layout in run.layouts:
            if self.axis is None:
                data[layout] = self.measure(run, layout, None, {})
                continue
            row: dict = {}
            for value in getattr(run, self.axis.name):
                row[value] = self.measure(run, layout, value, row)
            data[layout] = row
        meta = {"shape": list(run.shape), "drive": _jsonable(run.drive)}
        for p in self.all_params:
            meta[p.name] = _jsonable(getattr(run, p.name))
        meta.update((k, _jsonable(v)) for k, v in state.items()
                    if not k.startswith("_"))
        meta["layouts"] = list(run.layouts)
        data["meta"] = meta
        return data

    def render(self, data: dict) -> str:
        """The title line, then each table: one row per layout, one
        column per axis value."""
        meta = data["meta"]
        values = meta[self.axis.name] if self.axis else [None]
        layouts = [k for k in data if k != "meta"]
        parts = []
        if self.title:
            parts.append(self.title.format_map(
                {**meta, "shape": tuple(meta["shape"])}
            ))
        for title, header, cell in self.tables:
            columns = (list(zip(header, cell)) if isinstance(header, tuple)
                       else [(header, cell)])
            headers = ["layout"] + [
                _format(h, v) for v in values for h, _ in columns
            ]
            rows = [
                [layout] + [
                    _format(c, data[layout] if self.axis is None
                            else data[layout][v])
                    for v in values for _, c in columns
                ]
                for layout in layouts
            ]
            if title:
                parts.append(title)
            parts.append(render_table(headers, rows))
        return "\n\n".join(parts)


def write_json(dest: str, data: dict, default_name: str,
               quiet: bool) -> Path:
    """The ``--json`` writer shared by every report subcommand.

    ``dest`` may be a ``.json`` file path or a directory (the payload
    then lands in ``dest/default_name``); parents are created either
    way and the resolved path is announced unless ``quiet``.
    """
    path = Path(dest)
    if path.suffix != ".json":
        path.mkdir(parents=True, exist_ok=True)
        path = path / default_name
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, default=str))
    if not quiet:
        print(f"\nsaved {path}")
    return path


_DECLARING_MODULES = (
    "repro.traffic.storm",
    "repro.cache.sweep",
    "repro.shard.scale",
    "repro.replica.avail",
    "repro.ingest.sweep",
    "repro.perf.sweep",
)


def _import_declarations() -> None:
    for module in _DECLARING_MODULES:
        import_module(module)


#: subcommand name -> :class:`Sweep`
SWEEPS = Registry("sweep", populate=_import_declarations)


def register(sweep: Sweep) -> Sweep:
    SWEEPS.add(sweep.name, sweep)
    return sweep
