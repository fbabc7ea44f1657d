"""Expected answers for every benchmark query, outside the timed region.

Closed forms are used wherever they exist, computed with this file's own
arithmetic:

* pullback at level m: phi(m) / 2 (1 for m <= 2);
* A(v): 4 if gcd(v, 24) = 1, 2 if it is 2 or 3, else 1; every Moore, Chang
  and sphere atom has genus 1;
* |GL(r, Z/m)| from the prime-power product formula;
* |E(r, Z/m)| = |GL(r, Z/m)| / phi(m) * |{+-1}|.

An order spec's genus is phi(m)^k / |<det K, {+-1}^k>| (H is the set of
blockwise det = +-1 matrices, normal in U with abelian quotient).  The
subring comes from genuskit's public ``subring_closure``; the determinants,
the unit test and the subgroup join in ((Z/m)^x)^k are computed here, so
none of the counting code being timed is reused.
"""

from __future__ import annotations

import itertools
import math

A_FAMILY_GENUS = {1: 4, 2: 2, 3: 2}


def factorize(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def totient(m: int) -> int:
    result = m
    for p in factorize(m):
        result = result // p * (p - 1)
    return result


def sign_count(m: int) -> int:
    """|{+1, -1}| in Z/m."""
    return 1 if m <= 2 else 2


def pullback_genus(m: int) -> int:
    return 1 if m <= 2 else totient(m) // 2


def atom_genus(name: str) -> int:
    if name.startswith("A("):
        v = int(name[2 : name.index(")")])
        return A_FAMILY_GENUS.get(math.gcd(v, 24), 1)
    return 1


def gl_order(r: int, m: int) -> int:
    total = 1
    for p, e in factorize(m).items():
        field = 1
        for i in range(r):
            field *= p**r - p**i
        total *= p ** ((e - 1) * r * r) * field
    return total


def stable_order(r: int, m: int) -> int:
    return gl_order(r, m) // totient(m) * sign_count(m)


def _det(entries, r: int) -> int:
    """Leibniz expansion over the integers (r <= 3 here)."""
    total = 0
    for perm in itertools.permutations(range(r)):
        inversions = sum(
            1 for i in range(r) for j in range(i + 1, r) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= entries[i * r + j]
        total += term
    return total


def spec_genus(spec: dict) -> dict:
    """Genus of a JSON order spec with the sizes |S| and |K| behind it."""
    import genuskit

    m = spec["m"]
    blocks = tuple(spec["blocks"])
    subring = genuskit.subring_closure(genuskit.order_spec_from_dict(spec))
    det_image = set()
    units = 0
    for element in subring:
        dets = tuple(_det(mat.entries, r) % m for mat, r in zip(element, blocks))
        if all(math.gcd(d, m) == 1 for d in dets):
            units += 1
            det_image.add(dets)
    signs = [
        tuple((m - 1) % m if b == flip else 1 % m for b in range(len(blocks)))
        for flip in range(len(blocks))
    ]
    group = set(det_image)
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for s in signs:
            y = tuple(a * b % m for a, b in zip(x, s))
            if y not in group:
                group.add(y)
                frontier.append(y)
    genus = totient(m) ** len(blocks) // len(group)
    bound = 1 if m <= 2 else (totient(m) // 2) ** len(blocks)
    return {"genus": genus, "bound": bound, "subring": len(subring), "units": units}


def table_a_rows() -> list[dict]:
    rows = []
    for v in range(1, 13):
        d = math.gcd(v, 24)
        g = pullback_genus(24 // d)
        rows.append({"v": v, "d": d, "m": 24 // d, "gBrute": g, "gFormula": g})
    return rows


def expected_answers(workload: dict) -> tuple[list, dict]:
    """One expected answer per query, plus the exact sizes |S| and |K|
    summed over the spec queries."""
    spec_truth = [spec_genus(s) for s in workload["specs"]]
    counts = {"subring_elems": 0, "unit_elems": 0}
    expected = []
    for q in workload["queries"]:
        verb = q["verb"]
        if q.get("spec") is not None:
            truth = spec_truth[q["spec"]]
            counts["subring_elems"] += truth["subring"]
            counts["unit_elems"] += truth["units"]
        if verb == "genus":
            answer = {"total": truth["genus"], "relative": truth["genus"],
                      "bound": truth["bound"]}
        elif verb == "genus-order":
            answer = {"total": truth["genus"], "relative": truth["genus"],
                      "maximal": 1, "bound": truth["bound"]}
        elif verb == "double-cosets":
            answer = truth["genus"]
        elif verb == "genus-pullback":
            g = pullback_genus(int(q["argv"][1]))
            answer = {"brute": g, "formula": g}
        elif verb == "genus-atom":
            answer = atom_genus(q["argv"][1])
        elif verb == "table-A":
            answer = table_a_rows()
        elif verb == "totient":
            answer = totient(int(q["argv"][1]))
        elif verb == "gl-order":
            answer = gl_order(int(q["argv"][1]), int(q["argv"][2]))
        elif verb == "stable-image":
            answer = stable_order(int(q["argv"][1]), int(q["argv"][2]))
        elif verb == "check":
            answer = q["argv"][2]
        else:
            raise ValueError(f"no oracle for verb {verb!r}")
        expected.append(answer)
    return expected, counts


def accepts(query: dict, expected, answer: dict) -> bool:
    """Whether a worker's answer record matches the expected answer.

    ``answer`` holds ``status`` (CLI exit code, 0 for library calls) and
    ``result`` (the parsed ``result`` field, or the GenusResult fields), or
    ``error`` when the call raised.
    """
    if "error" in answer or answer.get("status") != 0:
        return False
    result = answer.get("result")
    if query["verb"] == "check":
        # the named criterion alone ran, and passed
        return isinstance(result, dict) and result.get("passed") is True and [
            (c.get("name"), c.get("passed")) for c in result.get("checks", [])
        ] == [(expected, True)]
    return result == expected
