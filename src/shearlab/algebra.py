"""Arithmetic in PSL(2, R), Iwasawa coordinates, and the action on forms.

Elements are stored by a canonical sign representative (c > 0, or c = 0 and
a > 0) so that equality mod +-I is plain componentwise comparison.  Real
elements renormalize their determinant whenever drift exceeds 1e-12, which
keeps long word products usable.  Integer elements are exact throughout.

Points of the unit tangent bundle carry (x, y, theta) with theta the angle
of the tangent vector measured counterclockwise from upward vertical,
normalized to [-pi, pi).
"""

import cmath
import math
from typing import NamedTuple

DET_TOL = 1e-12


def _wrap_pm_pi(t: float) -> float:
    t = math.fmod(t + math.pi, 2.0 * math.pi)
    if t < 0:
        t += 2.0 * math.pi
    return t - math.pi


class _Checked:
    """Base of a record whose __new__ checks and normalizes its fields.

    Records are NamedTuples; one that checks its fields is a subclass of
    its NamedTuple whose __new__ holds the defaults, runs the checks and
    builds the tuple with tuple.__new__.  namedtuple's own _make calls
    tuple.__new__ too, so it would skip them: _make here calls the class,
    and so does _replace, which builds through _make.  Unpickling calls
    __new__ with the fields namedtuple's __getnewargs__ saved, so it
    checks them as well."""
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _GroupElement(NamedTuple):
    a: float
    b: float
    c: float
    d: float


class GroupElement(_Checked, _GroupElement):
    __slots__ = ()

    def __new__(cls, a, b, c, d):
        det = a * d - b * c
        if not det > 0:
            raise ValueError(f"element must have positive determinant, got {det}")
        if abs(det - 1.0) > DET_TOL:
            r = math.sqrt(det)
            a, b, c, d = a / r, b / r, c / r, d / r
        scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
        ctol = 1e-13 * scale
        if c < -ctol or (abs(c) <= ctol and a < 0):
            a, b, c, d = -a, -b, -c, -d
        return tuple.__new__(cls, (a, b, c, d))

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def n(x: float) -> "GroupElement":
        """Unipotent n_x = (1 x; 0 1)."""
        return GroupElement(1.0, float(x), 0.0, 1.0)

    @staticmethod
    def a_diag(y: float) -> "GroupElement":
        """Diagonal a_y = (sqrt(y) 0; 0 1/sqrt(y)); moves i to iy."""
        if y <= 0:
            raise ValueError("a_y needs y > 0")
        r = math.sqrt(y)
        return GroupElement(r, 0.0, 0.0, 1.0 / r)

    @staticmethod
    def k(theta: float) -> "GroupElement":
        return GroupElement(math.cos(theta), -math.sin(theta),
                            math.sin(theta), math.cos(theta))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def isclose(self, other: "GroupElement", tol: float = 1e-9) -> bool:
        return max(abs(x - y) for x, y in zip(self.entries(), other.entries())) <= tol


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(
        g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d,
    )


class _IntGroupElement(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class IntGroupElement(_Checked, _IntGroupElement):
    """Exact integer element of PSL(2, Z), canonical sign representative.
    g * h is the group product, not tuple repetition."""
    __slots__ = ()

    def __new__(cls, a, b, c, d):
        if a * d - b * c != 1:
            raise ValueError("integer element must have determinant 1")
        if c < 0 or (c == 0 and a < 0):
            a, b, c, d = -a, -b, -c, -d
        return tuple.__new__(cls, (a, b, c, d))

    @staticmethod
    def identity() -> "IntGroupElement":
        return IntGroupElement(1, 0, 0, 1)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "IntGroupElement":
        return IntGroupElement(self.d, -self.b, -self.c, self.a)

    def to_real(self) -> GroupElement:
        return GroupElement(float(self.a), float(self.b),
                            float(self.c), float(self.d))

    def __mul__(self, other: "IntGroupElement") -> "IntGroupElement":
        return IntGroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


INT_S = IntGroupElement(0, -1, 1, 0)
INT_T = IntGroupElement(1, 1, 0, 1)


class _UTBPoint(NamedTuple):
    x: float
    y: float
    theta: float


class UTBPoint(_Checked, _UTBPoint):
    """Base point x + iy with a unit tangent direction theta."""
    __slots__ = ()

    def __new__(cls, x, y, theta=0.0):
        if not y > 0:
            raise ValueError("UTBPoint needs y > 0")
        return tuple.__new__(cls, (x, y, _wrap_pm_pi(theta)))

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def point_xy(z):
    """(x, y) of a UTBPoint or of a complex number in the upper half plane."""
    if isinstance(z, UTBPoint):
        return z.x, z.y
    zz = complex(z)
    if not zz.imag > 0:
        raise ValueError("evaluation point needs positive imaginary part")
    return zz.real, zz.imag


class IwasawaCoords(NamedTuple):
    x: float
    y: float
    theta: float


def mobius_act(g, p: UTBPoint) -> UTBPoint:
    """Left action (z, zeta) -> ((az+b)/(cz+d), zeta/(cz+d)^2)."""
    if isinstance(g, IntGroupElement):
        g = g.to_real()
    z = p.z
    den = g.c * z + g.d
    if abs(den) < 1e-300:
        raise ValueError("mobius denominator underflow")
    w = (g.a * z + g.b) / den
    return UTBPoint(w.real, w.imag, p.theta - 2.0 * cmath.phase(den))


def iwasawa_decompose(g: GroupElement) -> IwasawaCoords:
    """g = n_x a_y k_theta, with theta folded into [-pi/2, pi/2)."""
    c2d2 = g.c * g.c + g.d * g.d
    y = 1.0 / c2d2
    x = (g.a * g.c + g.b * g.d) * y
    theta = math.atan2(g.c, g.d)
    if theta >= 0.5 * math.pi:
        theta -= math.pi
    elif theta < -0.5 * math.pi:
        theta += math.pi
    return IwasawaCoords(x, y, theta)


def iwasawa_recompose(iw: IwasawaCoords) -> GroupElement:
    return compose(compose(GroupElement.n(iw.x), GroupElement.a_diag(iw.y)),
                   GroupElement.k(iw.theta))


class FormVector(NamedTuple):
    """Binary quadratic form p u^2 + q uv + r v^2 as a vector (p, q, r)."""
    p: float
    q: float
    r: float

    def disc(self) -> float:
        return self.q * self.q - 4.0 * self.p * self.r

    def sup_norm(self) -> float:
        return max(abs(self.p), abs(self.q), abs(self.r))

    def euclid_norm(self) -> float:
        return math.sqrt(self.p ** 2 + self.q ** 2 + self.r ** 2)

    def entries(self):
        return (self.p, self.q, self.r)


def spin_cover(g, v: FormVector) -> FormVector:
    """Right action of g on forms by substituting (u, v) -> (au+bv, cu+dv).

    Quadratic in the entries, so -g acts identically and the map descends
    to PSL(2).  Preserves the discriminant q^2 - 4pr.
    """
    a, b, c, d = (g.a, g.b, g.c, g.d)
    p, q, r = v.p, v.q, v.r
    return FormVector(
        p * a * a + q * a * c + r * c * c,
        2 * p * a * b + q * (a * d + b * c) + 2 * r * c * d,
        p * b * b + q * b * d + r * d * d,
    )

