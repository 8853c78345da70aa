"""Quivers, graded path algebras with monomial quadratic relations, their
elements, the quadratic-dual construction, and graded bimodules.

A graded bimodule is its basis and two product rules: each basis key
(a path, or a pair of paths for the translation bimodule θ) times a basis
path of either algebra is a basis key or zero. The generator matrices, the
action of any element, the balanced tensor of ``jwcat.modules`` and the
structure maps α, β, γ all read those rules.

Conventions, fixed once and used everywhere:

* a path ``p = (α_1, ..., α_l)`` applies the rightmost arrow first; the
  product ``p·q`` is "p after q" (concatenate ``p.arrows + q.arrows``);
* an arrow x from vertex u to vertex v satisfies x = e(v)·x·e(u), so for the
  two-vertex algebra the generators sandwich as a = e(2)a e(1),
  b = e(1)b e(2), c = ab = e(2)c e(2);
* grading = sum of arrow degrees (arrows default to degree 1; the dual-number
  algebra uses a degree-2 loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, _frac


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int = 1


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ConstructionError("duplicate arrow names")
        if len(set(self.vertices)) != len(self.vertices):
            raise ConstructionError("duplicate vertices")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise ConstructionError(f"arrow {a.name} has undeclared endpoint")
        # name -> arrow for ``arrow``; not a field, so equality and hash skip it
        object.__setattr__(self, "_by_name", {a.name: a for a in self.arrows})

    def arrow(self, name: str) -> Arrow:
        return self._by_name[name]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "source": a.source,
                        "target": a.target, "degree": a.degree}
                       for a in self.arrows],
        }

    @classmethod
    def from_json(cls, d: dict) -> Quiver:
        return cls(tuple(d["vertices"]),
                   tuple(Arrow(a["name"], a["source"], a["target"], a.get("degree", 1))
                         for a in d["arrows"]))


class Path:
    """arrows applied right-to-left; length 0 = trivial path at ``vertex``,
    which is None on a longer path.

    Paths are canonical: equal fields give one object, stored once in
    ``_interned``. Paths key every element's ``terms`` dict, so a lookup
    hashes and compares them by identity, in C."""
    __slots__ = ("arrows", "vertex")
    _interned: dict = {}   # (arrows, vertex) -> the one Path

    def __new__(cls, arrows: tuple[str, ...], vertex: str | None = None):
        self = cls._interned.get((arrows, vertex))
        if self is None:
            self = object.__new__(cls)
            self.arrows = arrows
            self.vertex = vertex
            # setdefault keeps one object per value if two threads race here
            self = cls._interned.setdefault((arrows, vertex), self)
        return self

    def __reduce__(self):
        # rebuilt through the table, so a copy or an unpickled path is the one path
        return Path, (self.arrows, self.vertex)

    def __repr__(self):
        return f"Path(arrows={self.arrows!r}, vertex={self.vertex!r})"

    def is_trivial(self) -> bool:
        return not self.arrows

    def word(self) -> str:
        if self.is_trivial():
            return f"e({self.vertex})"
        return "".join(self.arrows)


class PathAlgebra:
    """Path algebra of a quiver modulo monomial quadratic relations.

    ``relations`` are words (tuples of two arrow names, rightmost first) that
    are composable in the quiver and declared zero; the surviving paths up to
    ``d_max`` form the basis.
    """

    def __init__(self, quiver: Quiver, relations: list[tuple[str, str]], d_max: int = 4,
                 name: str = "A"):
        self.quiver = quiver
        self.name = name
        self.d_max = d_max
        self.relations = tuple(tuple(r) for r in relations)
        for r in self.relations:
            if len(r) != 2:
                raise ConstructionError("only quadratic monomial relations supported")
            a1, a2 = quiver.arrow(r[0]), quiver.arrow(r[1])
            if a1.source != a2.target:
                raise ConstructionError(f"relation path {r} is not composable")
        self._build_basis()
        # _products[p][q] = p·q for every pair of basis paths with a nonzero
        # product; AlgebraElement.__mul__ reads it instead of mul_paths.
        self._products = {p: {q: r for q in self.basis
                              if (r := self.mul_paths(p, q)) is not None}
                          for p in self.basis}
        # projective_paths[v] is the basis of P(v) = e(v)·A in its canonical
        # order: the paths with target v, by degree, then by word
        self.projective_paths = {
            v: tuple(sorted((p for p in self.basis if self.target(p) == v),
                            key=lambda p: (self.path_degree(p), p.word())))
            for v in quiver.vertices}
        self._sums: dict = {}   # summand tuple -> its module, stored by modules.projective_sum
        self._zero = AlgebraElement(self, {})
        self._idempotents = {v: AlgebraElement(self, {Path((), v): 1})
                             for v in quiver.vertices}
        self._arrow_elements = {a.name: AlgebraElement(self, {p: 1})
                                for a in quiver.arrows
                                if (p := Path((a.name,))) in self._index}

    # --- basis enumeration ---

    def _forbidden(self, arrows: tuple[str, ...]) -> bool:
        return any((arrows[i], arrows[i + 1]) in self.relations
                   for i in range(len(arrows) - 1))

    def _build_basis(self) -> None:
        by_degree: dict[int, list[Path]] = {0: [Path((), v) for v in self.quiver.vertices]}
        frontier = [Path((), v) for v in self.quiver.vertices]
        while frontier:
            new = []
            for p in frontier:
                tgt = self.target(p)
                for a in self.quiver.arrows:
                    if a.source != tgt:
                        continue
                    arrows = (a.name,) + p.arrows
                    if self._forbidden(arrows):
                        continue
                    q = Path(arrows)
                    d = self.path_degree(q)
                    if d > self.d_max:
                        continue
                    by_degree.setdefault(d, []).append(q)
                    new.append(q)
            frontier = new
        self.basis_by_degree = {d: tuple(sorted(ps, key=lambda p: (p.arrows, p.vertex or "")))
                                for d, ps in sorted(by_degree.items())}
        self.basis = tuple(p for d in sorted(self.basis_by_degree)
                           for p in self.basis_by_degree[d])
        self._index = {p: i for i, p in enumerate(self.basis)}

    def path_degree(self, p: Path) -> int:
        return sum(self.quiver.arrow(n).degree for n in p.arrows)

    def source(self, p: Path) -> str:
        if p.is_trivial():
            return p.vertex
        return self.quiver.arrow(p.arrows[-1]).source

    def target(self, p: Path) -> str:
        if p.is_trivial():
            return p.vertex
        return self.quiver.arrow(p.arrows[0]).target

    def graded_dimensions(self, up_to: int | None = None) -> list[int]:
        hi = self.d_max if up_to is None else up_to
        return [len(self.basis_by_degree.get(d, ())) for d in range(hi + 1)]

    # --- multiplication ---

    def mul_paths(self, p: Path, q: Path) -> Path | None:
        """p·q = p after q; None when zero (non-composable or hits a relation)."""
        if p.is_trivial():
            return q if p.vertex == self.target(q) else None
        if q.is_trivial():
            return p if q.vertex == self.source(p) else None
        if self.source(p) != self.target(q):
            return None
        arrows = p.arrows + q.arrows
        if self._forbidden(arrows):
            return None
        if sum(self.quiver.arrow(n).degree for n in arrows) > self.d_max:
            return None
        return Path(arrows)

    # --- elements ---

    def element(self, terms: dict) -> AlgebraElement:
        return AlgebraElement(self, terms)

    def zero(self) -> AlgebraElement:
        """The algebra's one zero element (elements are immutable)."""
        return self._zero

    def idempotent(self, v: str) -> AlgebraElement:
        if v not in self._idempotents:
            raise KeyError(f"unknown vertex {v!r}")
        return self._idempotents[v]

    def arrow_element(self, name: str) -> AlgebraElement:
        if name not in self._arrow_elements:
            self.quiver.arrow(name)   # KeyError for an unknown arrow
            raise ConstructionError(f"{name} is not a basis path of {self.name}")
        return self._arrow_elements[name]

    def path_element(self, word: str | tuple) -> AlgebraElement:
        if isinstance(word, str):
            word = tuple(word)
        p = Path(tuple(word))
        if self._forbidden(p.arrows):
            return self.zero()
        # validate composability
        for i in range(len(p.arrows) - 1):
            if self.quiver.arrow(p.arrows[i]).source != self.quiver.arrow(p.arrows[i + 1]).target:
                raise ConstructionError(f"word {word} is not composable")
        return AlgebraElement(self, {p: 1})

    def radical_basis(self) -> list[Path]:
        return [p for p in self.basis if self.path_degree(p) > 0]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "quiver": self.quiver.to_json(),
            "relations": [list(r) for r in self.relations],
            "d_max": self.d_max,
            "assertions": {"graded_dimensions": self.graded_dimensions()},
        }

    @classmethod
    def from_json(cls, d: dict) -> PathAlgebra:
        alg = cls(Quiver.from_json(d["quiver"]),
                  [tuple(r) for r in d["relations"]],
                  d.get("d_max", 4), d.get("name", "A"))
        want = d.get("assertions", {}).get("graded_dimensions")
        if want is not None and alg.graded_dimensions(len(want) - 1) != list(want):
            raise ConstructionError("fixture graded-dimension assertion failed")
        return alg

    def __repr__(self):
        return f"PathAlgebra({self.name}, dims={self.graded_dimensions()})"


class AlgebraElement:
    """Finitely supported rational combination of basis paths.

    Elements are immutable: ``terms`` maps basis paths to nonzero ints and
    non-integral Fractions (``linalg._frac``) and is never changed after
    construction, so an element (the algebra's one shared zero included) may
    sit in any number of matrices at once.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: PathAlgebra, terms: dict):
        self.algebra = algebra
        clean = {}
        for p, c in terms.items():
            c = _frac(c)
            if c == 0:
                continue
            if p not in algebra._index:
                raise ConstructionError(f"{p.word()} is not a basis path of {algebra.name}")
            clean[p] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, algebra: PathAlgebra, terms: dict) -> AlgebraElement:
        """Element from basis paths with exact coefficients, zeros dropped.

        The arithmetic below builds its results here: sums and products of
        basis-path terms need no basis check, and only a Fraction, which may
        come out integral, goes through ``_frac``. The element takes ``terms``
        over, so callers pass a dict of their own; a zero is the shared zero.
        """
        if Fraction in map(type, terms.values()):
            terms = {p: _frac(c) for p, c in terms.items()}
        clean = terms if all(terms.values()) else {p: c for p, c in terms.items() if c}
        if not clean:
            return algebra._zero
        self = cls.__new__(cls)
        self.algebra = algebra
        self.terms = clean
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.terms.items(), key=lambda t: t[0].word()))))

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._same_parent(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            v = out.get(p)
            out[p] = c if v is None else v + c
        return AlgebraElement._trusted(self.algebra, out)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement._trusted(self.algebra, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scale(self, c) -> AlgebraElement:
        c = _frac(c)
        return AlgebraElement._trusted(self.algebra, {p: c * v for p, v in self.terms.items()})

    def _same_parent(self, other: AlgebraElement) -> None:
        if self.algebra is not other.algebra:
            raise ConstructionError("elements of different algebras")

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        self._same_parent(other)
        table = self.algebra._products
        out: dict = {}
        for p, cp in self.terms.items():
            row = table[p]
            for q, cq in other.terms.items():
                r = row.get(q)
                if r is not None:
                    v = out.get(r)
                    out[r] = cp * cq if v is None else v + cp * cq
        return AlgebraElement._trusted(self.algebra, out)

    def degree(self) -> int | None:
        """degree of a homogeneous element; None for 0."""
        degs = {self.algebra.path_degree(p) for p in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ConstructionError("element is not homogeneous")
        return degs.pop()

    def scalar_part(self) -> Fraction:
        """Coefficient sum on trivial paths (the degree-0 component)."""
        return sum(c for p, c in self.terms.items() if p.is_trivial())

    def coefficient(self, p: Path) -> Fraction:
        return self.terms.get(p, 0)

    def vertex_sandwich(self) -> tuple[str, str] | None:
        """(target, source) when all terms agree, else None."""
        pairs = {(self.algebra.target(p), self.algebra.source(p)) for p in self.terms}
        if len(pairs) == 1:
            return pairs.pop()
        return None

    def word(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p in sorted(self.terms, key=lambda p: (self.algebra.path_degree(p), p.word())):
            c = self.terms[p]
            mag = abs(c)
            body = p.word() if mag == 1 else f"{mag}·{p.word()}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self.word()}>"


# ---------------------------------------------------------------------------
# The two-vertex algebra and its quadratic dual
# ---------------------------------------------------------------------------

def zigzag_quiver() -> Quiver:
    return Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))


def build_B() -> PathAlgebra:
    """The two-vertex algebra with arrows a, b and relation ba = 0."""
    return PathAlgebra(zigzag_quiver(), [("b", "a")], name="B")


def build_C() -> PathAlgebra:
    """Dual numbers with the generator in degree 2: one vertex, loop x, x^2 = 0."""
    q = Quiver(("*",), (Arrow("x", "*", "*", degree=2),))
    return PathAlgebra(q, [("x", "x")], name="C")


def koszul_dual(alg: PathAlgebra) -> tuple[PathAlgebra, dict]:
    """Quadratic dual of a two-vertex algebra of the supported shape, plus the
    vertex-and-arrow correspondence phi (an algebra isomorphism onto it).

    Supported shape: two vertices, two mutually inverse arrows, one quadratic
    monomial relation. The dual lives on the reversed quiver with starred
    arrow names; its relation is the reversed-starred *complementary* word,
    which is exactly what makes phi multiplicative (the image of the original
    relation must die, the image of the surviving loop must survive).
    """
    q = alg.quiver
    if len(q.vertices) != 2 or len(q.arrows) != 2 or len(alg.relations) != 1:
        raise ConstructionError("unsupported algebra shape for koszul_dual")
    x, y = q.arrows
    if not (x.source == y.target and x.target == y.source and x.source != x.target):
        raise ConstructionError("unsupported algebra shape for koszul_dual")
    dual_q = Quiver(q.vertices, tuple(Arrow(a.name + "*", a.target, a.source, a.degree)
                                      for a in q.arrows))
    (r1, r2) = alg.relations[0]
    # composable length-2 words in the original quiver
    words = [(p.name, s.name) for p in q.arrows for s in q.arrows
             if p.source == s.target]
    complements = [w for w in words if w != (r1, r2)]
    # dual word of (α1, α2) is (α2*, α1*)
    dual_relations = [(w[1] + "*", w[0] + "*") for w in complements]
    dual = PathAlgebra(dual_q, dual_relations, alg.d_max, name=alg.name + "!")

    other = {q.vertices[0]: q.vertices[1], q.vertices[1]: q.vertices[0]}
    phi_table: dict[Path, AlgebraElement] = {}
    for v in q.vertices:
        phi_table[Path((), v)] = dual.idempotent(other[v])
    for a in q.arrows:
        phi_table[Path((a.name,))] = dual.arrow_element(a.name + "*")

    def phi(elem: AlgebraElement) -> AlgebraElement:
        out = dual.zero()
        for p, c in elem.terms.items():
            if p in phi_table:
                img = phi_table[p]
            else:
                acc = None
                for name in p.arrows:
                    step = dual.arrow_element(name + "*")
                    acc = step if acc is None else acc * step
                img = acc
            out = out + img.scale(c)
        return out

    return dual, {"phi": phi, "vertex_map": other,
                  "arrow_map": {a.name: a.name + "*" for a in q.arrows}}


# ---------------------------------------------------------------------------
# Graded bimodules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BimodBasisVector:
    label: str
    degree: int
    left_vertex: str
    right_vertex: str


class GradedBimodule:
    """Finite graded (A, B)-bimodule on a basis of keys, given by two product
    rules.

    ``index`` maps each basis key to its position and ``basis`` labels the
    positions. ``left(key, q)`` is the key of q·key and ``right(key, q)``
    the key of key·q, for a basis path q of the left or the right algebra;
    a key that is not in ``index`` (None included) is zero. So the bimodule
    is monomial: a basis path times a basis key is a basis key or zero.

    ``left_action`` and ``right_action`` are the matrices of the generators
    (the arrows, then the idempotents e(v), keyed by name; entry [j][i] =
    coefficient of basis j in the image of basis i), built once from the
    rules and checked at construction; ``act`` gives the matrix of any
    element.
    """

    def __init__(self, left_algebra: PathAlgebra, right_algebra: PathAlgebra,
                 index: dict, basis: list[BimodBasisVector], left, right,
                 name: str = "W"):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.index = index
        self.basis = list(basis)
        self.left = left
        self.right = right
        self.left_action = generator_matrices(left_algebra, index, left)
        self.right_action = generator_matrices(right_algebra, index, right)
        self.name = name
        self._validate()

    def dim(self) -> int:
        return len(self.basis)

    def degrees(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in self.basis:
            out[v.degree] = out.get(v.degree, 0) + 1
        return out

    def lowest_degree(self) -> int:
        return min(v.degree for v in self.basis)

    def act(self, elem: AlgebraElement, left: bool) -> Matrix:
        """Matrix of elem acting on the left (elem·m) or the right (m·elem)."""
        return multiplication_matrix(self.index, elem, self.left if left else self.right)

    def _validate(self) -> None:
        for side, alg, action, labels in (
                ("left", self.left_algebra, self.left_action,
                 [bv.left_vertex for bv in self.basis]),
                ("right", self.right_algebra, self.right_action,
                 [bv.right_vertex for bv in self.basis])):
            # the idempotents act as the vertex-label projections
            for v in alg.quiver.vertices:
                want = Matrix(self.dim(), self.dim())
                for i, label in enumerate(labels):
                    if label == v:
                        want.data[i][i] = 1
                if action[f"e({v})"] != want:
                    raise ConstructionError(
                        f"{side} idempotent e({v}) is not the label projection")
            # relations act as zero; on the right m·(r1 r2) = (m·r1)·r2
            for (r1, r2) in alg.relations:
                m = (action[r1] * action[r2] if side == "left"
                     else action[r2] * action[r1])
                if not m.is_zero():
                    raise ConstructionError(f"{side} relation {r1}{r2} does not act as zero")
        # left and right actions commute on (generator, basis, generator)
        for a in self.left_algebra.quiver.arrows:
            for b in self.right_algebra.quiver.arrows:
                la, rb = self.left_action[a.name], self.right_action[b.name]
                if la * rb != rb * la:
                    raise ConstructionError(
                        f"left action of {a.name} and right action of {b.name} do not commute")


def multiplication_matrix(index: dict, elem: AlgebraElement, product) -> Matrix:
    """Matrix of multiplication by elem on a basis numbered by ``index``:
    basis vector k goes to the sum of c·product(k, q) over the terms c·q of
    elem, where a product that is None or off the basis counts as zero."""
    m = Matrix(len(index), len(index))
    for key, i in index.items():
        for q, c in elem.terms.items():
            j = index.get(product(key, q))
            if j is not None:
                m.data[j][i] += c
    return m


def generator_matrices(alg: PathAlgebra, index: dict, product) -> dict[str, Matrix]:
    """``multiplication_matrix`` of each generator of alg: the arrows, then
    the idempotents e(v), keyed by name."""
    gens = {a.name: alg.arrow_element(a.name) for a in alg.quiver.arrows}
    gens.update((f"e({v})", alg.idempotent(v)) for v in alg.quiver.vertices)
    return {g: multiplication_matrix(index, z, product) for g, z in gens.items()}


def build_theta(B: PathAlgebra) -> GradedBimodule:
    """The translation bimodule: (paths into 2) ⊗ (paths out of 2), graded so
    the tensor of the two trivial paths sits in degree -1. Its keys are the
    pairs (p, q) for p⊗q; B acts on p from the left and on q from the right."""
    into2 = [p for p in B.basis if B.source(p) == "2"]   # p·e(2) = p
    outof2 = B.projective_paths["2"]                     # e(2)·q = q
    basis: list[BimodBasisVector] = []
    index: dict[tuple[Path, Path], int] = {}
    for p in into2:
        for q in outof2:
            index[(p, q)] = len(basis)
            basis.append(BimodBasisVector(
                label=f"{p.word()}⊗{q.word()}",
                degree=B.path_degree(p) + B.path_degree(q) - 1,
                left_vertex=B.target(p), right_vertex=B.source(q)))
    return GradedBimodule(B, B, index, basis,
                          lambda pq, g: (B.mul_paths(g, pq[0]), pq[1]),
                          lambda pq, g: (pq[0], B.mul_paths(pq[1], g)), name="theta")


class BimoduleMap:
    """Degree-homogeneous map of (B, B)-bimodules given on the full basis."""

    def __init__(self, source: GradedBimodule | PathAlgebra, target: GradedBimodule,
                 matrix: Matrix, degree: int, name: str = "f"):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.degree = degree
        self.name = name

    def __call__(self, vec: list[Fraction]) -> list[Fraction]:
        return self.matrix.apply(vec)

    def compose(self, other: BimoduleMap) -> BimoduleMap:
        """self after other."""
        return BimoduleMap(other.source, self.target, self.matrix * other.matrix,
                           self.degree + other.degree, f"{self.name}∘{other.name}")

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def algebra_as_bimodule(B: PathAlgebra) -> GradedBimodule:
    """B as the regular (B, B)-bimodule, keyed by its basis paths."""
    basis = [BimodBasisVector(p.word(), B.path_degree(p), B.target(p), B.source(p))
             for p in B.basis]
    index = {p: i for i, p in enumerate(B.basis)}
    return GradedBimodule(B, B, index, basis, lambda p, g: B.mul_paths(g, p),
                          B.mul_paths, name="B")


def _bimodule_map_from_generator_images(source: GradedBimodule, target: GradedBimodule,
                                        gen_images: dict, degree: int,
                                        name: str) -> BimoduleMap:
    """Extend images of bimodule generators x·gen·y-linearly; verify welldefinedness.

    ``gen_images`` maps basis keys of the source to their image vectors. The
    source must be generated by those keys under the two actions: from each
    key k reached, every arrow g reaches g·k, with image g·img(k), and k·g,
    with image img(k)·g, until no new key appears. Consistency across
    different factorizations is checked by verifying the result commutes
    with both actions.
    """
    images = dict(gen_images)
    todo = list(images)
    while todo:
        key = todo.pop()
        for a in source.left_algebra.quiver.arrows:
            g = Path((a.name,))
            for moved, action in ((source.left(key, g), target.left_action),
                                  (source.right(key, g), target.right_action)):
                if moved in source.index and moved not in images:
                    images[moved] = action[a.name].apply(images[key])
                    todo.append(moved)
    if len(images) < source.dim():
        raise ConstructionError(f"generators do not generate the bimodule for {name}")
    mat = Matrix(target.dim(), source.dim())
    for key, img in images.items():
        for r, c in enumerate(img):
            mat.data[r][source.index[key]] = c
    f = BimoduleMap(source, target, mat, degree, name)
    verify_bimodule_map(f)
    return f


def verify_bimodule_map(f: BimoduleMap) -> None:
    """Raise unless f commutes with both generator actions."""
    src, tgt = f.source, f.target
    B = tgt.left_algebra
    keys = [a.name for a in B.quiver.arrows] + [f"e({v})" for v in B.quiver.vertices]
    for key in keys:
        ls, lt = src.left_action[key], tgt.left_action[key]
        if f.matrix * ls != lt * f.matrix:
            raise ConstructionError(f"{f.name} fails left {key}-equivariance")
        rs, rt = src.right_action[key], tgt.right_action[key]
        if f.matrix * rs != rt * f.matrix:
            raise ConstructionError(f"{f.name} fails right {key}-equivariance")


# The structure maps of the topological projector complex, by their images
# of generators: structure map -> {generator: terms (coefficient, x, y) of
# the image, the element Σ coefficient·x⊗y of θ}, where x is a path into 2
# (θ's left factor) and y a path out of 2 (its right factor). alpha leaves
# the regular bimodule, generated by the idempotents; beta and gamma are
# endomorphisms of θ, generated by e(2)⊗e(2). This table is the one place
# they are stated: the bimodule maps below and the formal columns of
# ``functors.CK_on_object`` are both derived from it.
_E1, _E2, _AB = Path((), "1"), Path((), "2"), Path(("a", "b"))
STRUCTURE_MAPS = {
    "alpha": {_E2: ((1, _AB, _E2), (1, _E2, _AB)),
              _E1: ((1, Path(("b",)), Path(("a",))),)},
    "beta": {(_E2, _E2): ((1, _AB, _E2), (-1, _E2, _AB))},
    "gamma": {(_E2, _E2): ((1, _AB, _E2), (1, _E2, _AB))},
}


def structure_map_on_column(k: int) -> str:
    """The structure map from column k to column k + 1 of the projector
    complex: alpha out of the regular bimodule, then beta on odd columns and
    gamma on even ones."""
    if k == 0:
        return "alpha"
    return "beta" if k % 2 == 1 else "gamma"


def bimodule_maps_alpha_beta_gamma(B: PathAlgebra, theta: GradedBimodule):
    """The three structure maps of ``STRUCTURE_MAPS`` as bimodule maps into
    theta, each of the degree its generator images have."""
    reg = algebra_as_bimodule(B)
    maps = []
    for name, images in STRUCTURE_MAPS.items():
        source = reg if name == "alpha" else theta
        gen_images = {}
        for g, terms in images.items():
            img = [0] * theta.dim()
            for coef, x, y in terms:
                img[theta.index[(x, y)]] += coef
            gen_images[g] = img
            degree = (theta.basis[theta.index[(x, y)]].degree
                      - source.basis[source.index[g]].degree)
        maps.append(_bimodule_map_from_generator_images(source, theta, gen_images,
                                                        degree, name))
    return tuple(maps)
