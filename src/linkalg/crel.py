"""Relations between c-sets that respect contention.

An arrow f: X -> Y assigns to every element of X an independent subset
of Y, subject to: whenever the images of x and x' contend (some member
of one contends with some member of the other, reflexively), x and x'
must themselves contend in X.  Identities are singleton maps and
composition goes through the union lift, so these arrows form a
category; tests exercise the unit and associativity laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .contention import (
    CSet,
    _indep_mask,
    discrete,
    mask_of,
    members,
    pc_contends_masks,
    set_of,
)
from .shape import nat, nat_rows, need


class CheckResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True, init=False)
class CRel:
    """dom, cod: c-sets; img_masks: per dom element, its image in cod as a bitmask.

    CRel(dom, cod, images) checks the number and range of the images;
    CRel(dom, cod, masks=masks) takes masks derived from arrows already
    built, unchecked.  validate checks the arrow conditions.
    """

    dom: CSet
    cod: CSet
    img_masks: tuple

    def __init__(self, dom, cod, images=(), *, masks=None):
        if masks is None:
            if len(images) != dom.size:
                raise ValueError(f"map has {len(images)} entries for domain size {dom.size}")
            masks = [mask_of(cod, u) for u in images]
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "img_masks", tuple(masks))

    @property
    def map(self):
        """Per dom element, its image as a frozenset."""
        return tuple(set_of(m) for m in self.img_masks)

    def to_dict(self):
        return {
            "dom": self.dom.to_dict(),
            "cod": self.cod.to_dict(),
            "map": [list(members(m)) for m in self.img_masks],
        }

    @classmethod
    def from_dict(cls, d):
        """Load; SpanFormatError if the JSON has the wrong shape."""
        dom = need(d, "dom")
        size = nat(need(dom, "size"), "dom size")  # map first: the c-set allocates a row per element
        cod = CSet.from_dict(need(d, "cod"), "cod")
        rows = nat_rows(d, "map", size, None, cod.size)
        return cls(CSet.from_dict(dom, "dom"), cod, rows)


def validate(r):
    """Check the two arrow conditions, reporting the first violation."""
    for x, m in enumerate(r.img_masks):
        if not _indep_mask(r.cod, m):
            return CheckResult(False, f"image of {x} is not independent")
    for x, row in enumerate(r.dom.adj):
        for y in range(x + 1, r.dom.size):
            if not (row >> y) & 1 and pc_contends_masks(r.cod, r.img_masks[x], r.img_masks[y]):
                return CheckResult(False, f"images of {x} and {y} contend but {x},{y} are independent")
    return CheckResult(True)


def crel(dom, cod, images):
    """Build and validate in one go; raises on an invalid arrow."""
    r = CRel(dom, cod, images)
    res = validate(r)
    if not res:
        raise ValueError(f"invalid relation: {res.reason}")
    return r


def identity(x):
    return CRel(x, x, masks=[1 << i for i in range(x.size)])


def lift_mask(f, umask):
    out = 0
    mm = umask
    while mm:
        low = mm & -mm
        out |= f.img_masks[low.bit_length() - 1]
        mm ^= low
    return out


def lift(f, u):
    """Union of images over an independent subset of the domain.

    The result is again independent: members coming from the same
    element share an image, members from distinct independent elements
    cannot contend without violating the arrow condition.
    """
    m = mask_of(f.dom, u)
    if not _indep_mask(f.dom, m):
        raise ValueError(f"{sorted(u)} is not independent in the domain")
    return set_of(lift_mask(f, m))


def compose(f, g):
    """Kleisli composite: x maps to the lift of g over f(x)."""
    if f.cod != g.dom:
        raise ValueError("middle objects differ")
    return CRel(f.dom, g.cod, masks=[lift_mask(g, m) for m in f.img_masks])


def graph(fn, cod_size, dom=None):
    """The function graph x |-> {fn(x)} as a relation.

    With the default discrete domain this is only a valid arrow for
    injective fn; pass an explicit dom carrying enough contention
    otherwise.
    """
    if dom is None:
        dom = discrete(len(fn))
    return CRel(dom, discrete(cod_size), [[v] for v in fn])


def op_graph(fn, cod_size):
    """The preimage map of fn: dom(op) is the codomain of fn.

    >>> [sorted(u) for u in op_graph([0, 0], 1).map]
    [[0, 1]]
    """
    pre = [0] * cod_size
    for x, v in enumerate(fn):
        pre[nat(v, f"function value at {x}", cod_size)] |= 1 << x
    return CRel(discrete(cod_size), discrete(len(fn)), masks=pre)
