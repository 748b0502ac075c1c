"""Plain-text problem files and JSON solution files.

The problem format stores dimensions, the cone list, sparse triplets
for P (upper triangle) and A, and dense q, b.  Floats are written with
repr so that write-then-read reproduces the numeric data bit-exactly.
Solution files are JSON and carry a hash of the canonical problem text
for provenance plus the dimensions for hard validation.
"""

import hashlib
import json
import math

import numpy as np
import scipy.sparse as sp

from .cones import ConeKind, ConeProduct, ConeSpec, order_of_packed
from .errors import ParseError, Unsupported
from .ipm import ConicProblem

_MAGIC = "conepath-problem 1"
_SOL_MAGIC = "conepath-solution 1"


def _cone_line(spec):
    if spec.kind is ConeKind.POWER:
        return f"cone pow {spec.dim} {float(spec.alpha)!r}"
    return f"cone {spec.kind.value} {spec.dim}"


def _parse_cone(parts, lineno):
    """'cone <kind> <dim> [alpha]' as a ConeSpec; its own checks become ParseErrors."""
    _expect(len(parts) >= 3, "cone line needs a kind and a dimension", lineno)
    try:
        kind, dim = ConeKind(parts[1]), int(parts[2])
        alpha = float(parts[3]) if len(parts) > 3 else None
        order = order_of_packed(dim) if kind is ConeKind.PSD_TRIANGLE else None
        return ConeSpec(kind, dim, alpha=alpha, order=order)
    except (Unsupported, ValueError) as exc:
        raise ParseError(f"bad cone line: {exc}", line=lineno)


def problem_text(problem):
    """Canonical serialization; also the hashing preimage."""
    out = [_MAGIC, f"n {problem.n}", f"m {problem.m}"]
    out.append(f"cones {len(problem.cones.blocks)}")
    out.extend(_cone_line(spec) for spec in problem.cones.blocks)
    upper = sp.triu(problem.P).tocoo()
    out.append(f"P {upper.nnz}")
    out.extend(
        f"{i} {j} {float(v)!r}" for i, j, v in zip(upper.row, upper.col, upper.data)
    )
    acoo = problem.A.tocoo()
    out.append(f"A {acoo.nnz}")
    out.extend(
        f"{i} {j} {float(v)!r}" for i, j, v in zip(acoo.row, acoo.col, acoo.data)
    )
    out.append("q " + " ".join(repr(float(v)) for v in problem.q))
    out.append("b " + " ".join(repr(float(v)) for v in problem.b))
    return "\n".join(out) + "\n"


def problem_hash(problem):
    return hashlib.sha256(problem_text(problem).encode("utf-8")).hexdigest()


def write_problem(problem, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(problem_text(problem))


def _expect(condition, message, lineno):
    if not condition:
        raise ParseError(message, line=lineno)


def read_problem(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        _expect(pos < len(lines), "unexpected end of file", len(lines))
        pos += 1
        return lines[pos - 1].strip(), pos

    header, ln = next_line()
    _expect(header == _MAGIC, f"expected header {_MAGIC!r}", ln)

    def scalar(tag):
        """The count on a '<tag> <count>' line; a negative count is a ParseError."""
        text, ln = next_line()
        parts = text.split()
        ok = len(parts) == 2 and parts[0] == tag and parts[1].isdecimal()
        _expect(ok, f"expected '{tag} <count>' with a non-negative integer count", ln)
        return int(parts[1])

    n = scalar("n")
    m = scalar("m")
    ncones = scalar("cones")
    specs = []
    for _ in range(ncones):
        text, ln = next_line()
        parts = text.split()
        _expect(parts and parts[0] == "cone", "expected a cone line", ln)
        specs.append(_parse_cone(parts, ln))

    def triplets(tag, shape, mirror):
        """The (values, (rows, cols)) of a '<tag> <count>' block; no array of the declared shape.

        Checks raise directly, so no message is formatted on valid lines.
        """
        nnz = scalar(tag)
        entries = {}  # (i, j) -> value
        for _ in range(nnz):
            text, ln = next_line()
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'i j value' in {tag} block", line=ln)
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(f"bad triplet {text!r}", line=ln)
            if not (0 <= i < shape[0] and 0 <= j < shape[1]):
                raise ParseError(f"triplet ({i},{j}) outside {shape}", line=ln)
            if mirror and i > j:
                # upper-triangular only, so a mirrored repeat is caught here
                raise ParseError("P triplets must be upper-triangular", line=ln)
            if (i, j) in entries:
                raise ParseError(f"repeated triplet ({i},{j}) in {tag} block", line=ln)
            entries[i, j] = v
        ij = np.array(list(entries), dtype=int).reshape(-1, 2)
        rows, cols, vals = ij[:, 0], ij[:, 1], np.array(list(entries.values()))
        if mirror:
            off = rows != cols
            rows, cols, vals = np.r_[rows, cols[off]], np.r_[cols, rows[off]], np.r_[vals, vals[off]]
        return vals, (rows, cols)

    P = triplets("P", (n, n), mirror=True)
    A = triplets("A", (m, n), mirror=False)

    def vector(tag, size):
        text, ln = next_line()
        parts = text.split()
        _expect(parts and parts[0] == tag, f"expected the {tag} vector", ln)
        _expect(len(parts) == size + 1, f"{tag} needs {size} values", ln)
        try:
            return np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise ParseError(f"bad float in {tag}", line=ln)

    q = vector("q", n)
    b = vector("b", m)
    # the matrices are built at the declared n and m only now, when q and
    # b have held that many values: memory follows the file's size
    P = sp.csc_matrix(P, shape=(n, n), dtype=float)
    A = sp.csc_matrix(A, shape=(m, n), dtype=float)
    try:
        return ConicProblem(P=P, q=q, A=A, b=b, cones=ConeProduct(tuple(specs)))
    except Unsupported as exc:
        raise ParseError(str(exc))


def write_solution(path, problem, report, objective, warm=None):
    """JSON solution stamped with dimensions and the problem hash.

    Optimal solutions store the tau-scaled point (reusable as the next
    warm start); other statuses store the raw embedding iterate, whose
    (x, z) acts as the infeasibility certificate.
    """
    scaled = report.status.value == "Optimal"
    if scaled:
        x, s, z = report.solution
    else:
        x, s, z = report.x, report.s, report.z
    doc = {
        "format": _SOL_MAGIC,
        "problem_hash": problem_hash(problem),
        "n": problem.n,
        "m": problem.m,
        "status": report.status.value,
        "objective": objective if math.isfinite(objective) else None,  # no NaN in JSON
        "iterations": report.iterations,
        "scaled": scaled,
        "x": list(map(float, x)),
        "s": list(map(float, s)),
        "z": list(map(float, z)),
    }
    if warm is not None:
        doc["warmstart"] = {
            "per_block": [
                {"lam": blk.lam, "mu0": blk.mu0, "rule": blk.rule}
                for blk in warm.per_block
            ],
            "fallback_blocks": list(warm.fallback_blocks),
        }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_solution(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}")
    if doc.get("format") != _SOL_MAGIC:
        raise ParseError(f"expected format {_SOL_MAGIC!r}")
    for key in ("n", "m", "status", "x", "s", "z"):
        if key not in doc:
            raise ParseError(f"solution file missing {key!r}")
    for key, size in (("x", doc["n"]), ("s", doc["m"]), ("z", doc["m"])):
        # JSON numbers load as int or float; a bool, string or null entry is not one
        if not (type(doc[key]) is list and len(doc[key]) == size
                and all(type(v) in (int, float) for v in doc[key])):
            raise ParseError(f"solution {key!r} must be a list of {size} numbers")
        doc[key] = np.array(doc[key], dtype=float)
    return doc
