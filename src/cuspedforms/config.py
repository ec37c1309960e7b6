"""Run configuration and engine assembly."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .fill import FillEngine
from .graph import CuspedGraph
from .quasicocycle import QuasiCocycle
from .words import Automorphism, DEFAULT_PSI


@dataclass
class RunConfig:
    kappa: int = 8
    distance_cap: int = 24
    psi_images: dict = field(default_factory=dict)       # {"a": word, "b": word}

    def __post_init__(self):
        self.psi()  # rejects images that are not a basis of F(a,b)

    # -- construction ---------------------------------------------------

    def psi(self) -> Automorphism:
        """The twist; psi^-1 is derived from the images."""
        return Automorphism(self.psi_images) if self.psi_images \
            else DEFAULT_PSI

    def selfcheck(self) -> dict:
        """{"ok": True} once `build` has run: each constructor it calls
        raises on a failed startup invariant, so no other answer exists."""
        self.build()
        return {"ok": True}

    def build(self) -> QuasiCocycle:
        """The engine; each constructor checks what its object requires."""
        graph = CuspedGraph(self.psi(), distance_cap=self.distance_cap)
        return QuasiCocycle(FillEngine(graph, kappa=self.kappa))

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        values: dict = {}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
        if overrides:
            values.update(overrides)
        return cls.from_dict(values)

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        kwargs = {}
        known = {f.name: f.type for f in fields(cls)}
        for key, val in values.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if key == "psi_images":
                kwargs[key] = val if isinstance(val, dict) else _parse_words(val)
            else:
                kwargs[key] = int(val)
        return cls(**kwargs)


def _parse_words(text: str) -> dict:
    # "a:ba,b:bab"
    out = {}
    for part in text.split(","):
        key, _, word = (x.strip() for x in part.partition(":"))
        if key in out:
            raise ValueError(f"psi_images names {key!r} twice")
        out[key] = word
    return out
