"""Finitely supported vertex functions and their CSV form.

A :class:`Field` is a sparse map ``vertex -> value``; reads off the support
return 0.  Serialization is a "vertex_id,value" CSV with 17 significant
digits, which round-trips float64 bit-exactly.
"""

from __future__ import annotations

import math

from .graphs import ball, lattice_coords, rings


def vertex_to_str(v):
    """Canonical textual form of a vertex id (tuples join with ':')."""
    if isinstance(v, tuple):
        return ":".join(str(c) for c in v)
    return str(v)


def vertex_from_str(s, generator):
    """Inverse of :func:`vertex_to_str` on the ids of ``generator``.

    The integer tuple ``s`` spells if ``generator`` has that vertex, else
    ``s`` as written (a custom graph's ids are text, such as ``"1"``).
    """
    try:
        v = tuple(int(p) for p in s.split(":"))
        generator.degree(v)   # raises UnknownVertexError, a ValueError, if it has not
        return v
    except ValueError:
        return s


class Field:
    """Finitely supported real function on checked vertex ids; on ``Z^N`` also ``coords``."""

    def __init__(self, generator, values):
        self.generator = generator
        vals = {}
        for v, x in values.items():
            x = float(x)
            if not math.isfinite(x):
                raise ValueError(f"non-finite value {x} at vertex {v!r}")
            if x != 0.0:
                vals[v] = x
        self.values = vals
        self.coords = lattice_coords(generator, vals)

    def __getitem__(self, v):
        return self.values.get(v, 0.0)

    def __len__(self):
        return len(self.values)

    def support(self):
        """Support vertices in canonical order."""
        return sorted(self.values, key=self.generator.sort_key)

    def dominates(self, other):
        """True if ``self >= other`` pointwise."""
        keys = set(self.values) | set(other.values)
        return all(self[v] >= other[v] for v in keys)

    def offsets(self, x0):
        """The support's :func:`graphs.lattice_coords` less those of ``x0``, or ``None``."""
        at = lattice_coords(self.generator, [x0])
        return None if self.coords is None or at is None else self.coords - at

    def support_radius(self, x0):
        """Largest graph distance from ``x0`` to a support vertex (0 without support).

        On ``Z^N`` the largest l1 norm of the :meth:`offsets`, elsewhere a BFS.
        """
        rel = self.offsets(x0)
        if rel is not None:
            return int(abs(rel).sum(axis=1).max(initial=0))
        remaining = set(self.values)
        for d, ring in enumerate(rings(self.generator, x0, 10 ** 6)):
            remaining.difference_update(ring)
            if not remaining:
                return d
        raise ValueError(f"{len(remaining)} support vertices unreachable from {x0!r}")

    def sup_norm(self):
        if not self.values:
            return 0.0
        return max(abs(x) for x in self.values.values())

    # -- serialization --------------------------------------------------

    def to_csv_text(self):
        lines = ["vertex_id,value"]
        for v in self.support():
            lines.append(f"{vertex_to_str(v)},{self.values[v]:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, generator, text):
        values = {}
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "vertex_id,value":
            raise ValueError("missing 'vertex_id,value' header")
        for ln in lines[1:]:
            key, val = ln.rsplit(",", 1)
            v = vertex_from_str(key, generator)
            if v in values:
                raise ValueError(f"vertex id {vertex_to_str(v)!r} is listed twice "
                                 f"(the second time as {key!r})")
            values[v] = float(val)
        return cls(generator, values)


def delta_field(generator, x0, amplitude=1.0):
    """Point mass ``amplitude`` at ``x0``."""
    return Field(generator, {x0: amplitude})


def ball_indicator_field(generator, x0, radius, amplitude=1.0):
    """Indicator of the ball ``B_radius(x0)`` scaled by ``amplitude``."""
    reg = ball(generator, x0, radius)
    return Field(generator, {v: amplitude for v in reg.vertices})
