"""Bundled JSON fixtures and their loaders.

Three schemas, all round-tripping bit-exactly:

* algebra: quiver (vertices, arrows with degrees), relations (word lists),
  assertions (graded dimensions);
* module: basis per degree with vertex labels, action matrices;
* complex: terms per homological degree as [vertex, shift] pairs,
  differentials as entry-word matrices, optional tail descriptor.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .complexes import ProjComplex
from .linalg import _frac
from .modules import GradedModule
from .quiver import PathAlgebra, build_B, build_C, koszul_dual

_ALGEBRAS = {
    "B": build_B,
    "C": build_C,
    "B!": lambda: koszul_dual(build_B())[0],
}


# each fixture kind's parser from its payload; ``load_fixture`` checks that
# the parsed object writes the payload back bit-exactly
_PARSERS = {
    "algebra": PathAlgebra.from_json,
    "module": lambda d: GradedModule.from_json(d, _ALGEBRAS[d["algebra"]]()),
    "complex": lambda d: projcomplex_from_json(d, _ALGEBRAS[d["algebra"]]()),
}


def _data_dir():
    return resources.files("jwcat") / "data"


def available_fixtures() -> list[str]:
    return sorted(p.name[:-5] for p in _data_dir().iterdir()
                  if p.name.endswith(".json"))


def load_fixture(name: str):
    """Load by bundled name or filesystem path; returns (kind, object)."""
    path = Path(name)
    if path.suffix == ".json" and path.exists():
        blob = json.loads(path.read_text())
    else:
        res = _data_dir() / f"{name}.json"
        if not res.is_file():
            raise FileNotFoundError(name)
        blob = json.loads(res.read_text())
    kind = blob.get("kind")
    if kind not in _PARSERS:
        raise ValueError(f"unknown fixture kind {kind!r}")
    obj = _PARSERS[kind](blob["payload"])
    _assert_roundtrip(blob["payload"], obj.to_json())
    return kind, obj


def _assert_roundtrip(original: dict, regenerated: dict) -> None:
    a = json.dumps(original, sort_keys=True, ensure_ascii=False)
    b = json.dumps(regenerated, sort_keys=True, ensure_ascii=False)
    if a != b:
        raise ValueError("fixture does not round-trip bit-exactly")


def projcomplex_from_json(d: dict, algebra: PathAlgebra) -> ProjComplex:
    from .complexes import AlgMatrix, Summand, TailSpec

    paths = {p.word(): p for p in algebra.basis}

    def word_to_element(w: str):
        """Read back ``AlgebraElement.word``: terms [-][c·]path joined by
        " + " and " - "."""
        out = algebra.zero()
        if w == "0":
            return out
        for part in w.replace("- ", "+ -").split("+ "):
            part = part.strip()
            sign = -1 if part.startswith("-") else 1
            coeff, _, word = part.lstrip("-").rpartition("·")
            out = out + algebra.element({paths[word]: sign * _frac(coeff or 1)})
        return out

    terms = {int(i): tuple(Summand(v, s) for (v, s) in t)
             for i, t in d["terms"].items()}
    diffs = {}
    for i, rows in d["diffs"].items():
        i = int(i)
        mat = AlgMatrix(algebra, terms[i + 1], terms[i],
                        [[word_to_element(w) for w in row] for row in rows])
        diffs[i] = mat
    tail = None
    if d.get("tail"):
        t = d["tail"]
        tail = TailSpec(t["side"], t["start"], t["period"], t["shift"])
    return ProjComplex(algebra, terms, diffs, tail, d.get("name", "X"))


def render_fixture(kind: str, obj) -> str:
    if kind == "algebra":
        lines = [f"algebra {obj.name}: vertices {list(obj.quiver.vertices)}",
                 f"  arrows: " + ", ".join(
                     f"{a.name}: {a.source}→{a.target} (degree {a.degree})"
                     for a in obj.quiver.arrows),
                 f"  relations: " + ", ".join("".join(r) for r in obj.relations),
                 f"  graded dimensions: {obj.graded_dimensions()}"]
        lines.append("  basis: " + ", ".join(p.word() for p in obj.basis))
        return "\n".join(lines)
    if kind == "module":
        dims = {d: list(obj.basis[d]) for d in obj.degrees()}
        return f"module {obj.name} over {obj.algebra.name}: labels by degree {dims}"
    if kind == "complex":
        return f"complex {obj.name} over {obj.algebra.name}:\n  {obj.pretty()}"
    return repr(obj)


def write_bundled_fixtures(target: Path) -> None:
    """Regenerate the bundled fixture files (used at development time)."""
    from .modules import projective, simple
    target.mkdir(parents=True, exist_ok=True)
    B = build_B()
    dual, _ = koszul_dual(B)
    C = build_C()
    payloads = {
        "algebra_two_vertex": ("algebra", B.to_json()),
        "algebra_two_vertex_dual": ("algebra", dual.to_json()),
        "algebra_dual_numbers": ("algebra", C.to_json()),
        "module_p1": ("module", projective(B, "1").to_json()),
        "module_p2": ("module", projective(B, "2").to_json()),
        "module_l1": ("module", simple(B, "1").to_json()),
    }
    from .resolutions import projective_resolution
    payloads["complex_simple_resolution"] = (
        "complex", projective_resolution(simple(B, "1"), 4).to_json())
    from .functors import Setup, P_on_object
    payloads["complex_projector_p1"] = (
        "complex", P_on_object(Setup.create(), projective(B, "1"), depth=8).to_json())
    for name, (kind, payload) in payloads.items():
        blob = {"kind": kind, "payload": payload}
        (target / f"{name}.json").write_text(
            json.dumps(blob, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
