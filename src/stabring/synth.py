"""Stabilizability decision, controller synthesis, and closed-loop checks.

The decision asks whether the generalized-elementary-factor generators
together generate the unit ideal.  Over Q[z^S] that is one univariate gcd
(see `stabilizable`); over Q[x1..xn] it is a reduced Groebner basis, without
cofactors for the subsets tried.  The same test picks the smallest subset of
factors that still generates A; only that set's lifts into the ring
presentation go through one cofactor-tracked Buchberger (over Q[x1..xn] the
full set's, when no smaller subset is chosen), whose verified Bezout
certificate is grouped per index set into a partition of unity
sum(lambda_I) = 1 with lambda_I in the factor for I.

Synthesis follows the constructive sufficiency argument: a right-coprime
factorization of the plant over each localization A_{lambda_I}, whose Bezout
coefficients are the row selector of I (the witness has rows_I(K) =
lambda_I E), an exponent omega clearing every localized denominator,
coefficients a_I with sum(a_I * lambda_I^omega) = 1, and the candidate
controller

    C = (sum a_I lam_I^w D_I Xtil_I)^-1 (sum a_I lam_I^w D_I Ytil_I).

When the candidate denominator is Z-singular it is repaired by a 0/1 selector
matrix obtained from a Z-nonsingular full-size minor search, after which the
controller is recomputed.  Every synthesized controller is verified against
the exact closed-loop map before it is returned.

The closed loop is computed over the ring, never in the fraction field.  The
plant and the controller are each put over one scalar common denominator,
P = N d^-1 and C = X^-1 Y with X = c E; with Delta = X d + Y N,

    H = [[E - N Delta^-1 Y, -N Delta^-1 X], [d Delta^-1 Y, d Delta^-1 X]],

which needs ring products, one det(Delta) and adj(Delta) of size m x m, and
exact division by det(Delta).  A synthesized controller is verified the same
way as one read from a file: from its fractions alone.  Fractions appear only
where plants and controllers are parsed and where reports are rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .gef import (GefResult, LocalFreenessWitness, PlantFraction, gef,
                  local_freeness_witness)
from .matrixring import IndexSet, Mat, selection
from .poly import (NotDivisibleError, Polynomial, common_denominator,
                   divide_exact, gcd_univariate)
from .ring import (LocalElem, PolyFraction, RingModel, causal,
                   fraction_in_ring, in_Z, matrix_strictly_causal,
                   membership, z_nonsingular)


class SynthError(Exception):
    pass


class NotStabilizableError(SynthError):
    pass


class IllPosedError(SynthError):
    """det(E + P*C) vanishes; the feedback loop is not well posed."""


class NoNonsingularMinorError(SynthError):
    """The stacked matrix has no Z-nonsingular full-size minor."""


class RepairImpossibleError(SynthError):
    """The denominator repair failed; a theorem precondition was violated."""


class SynthesisInternalError(SynthError):
    """A synthesized controller failed verification (engine bug)."""


# ---------------------------------------------------------------------------
# stabilizability
# ---------------------------------------------------------------------------

_SUBSET_SEARCH_BUDGET = 200


@dataclass
class StabilizabilityCertificate:
    """Partition of unity drawn from the generalized elementary factors."""

    ring: RingModel
    sharp: list[tuple[IndexSet, Polynomial]]  # (I, lambda_I != 0), ascending I
    omega: int
    coeffs: list[Polynomial]                  # a_I aligned with sharp

    def lambdas(self) -> list[Polynomial]:
        return [lam for _, lam in self.sharp]

    def verify(self) -> bool:
        total = Polynomial.zero(self.ring.variables)
        for a, (_, lam) in zip(self.coeffs, self.sharp):
            total = total + a * lam ** self.omega
        if total != Polynomial.one(self.ring.variables):
            return False
        return all(membership(lam, self.ring) and membership(a, self.ring)
                   for a, (_, lam) in zip(self.coeffs, self.sharp))


@dataclass
class StabilizabilityResult:
    stabilizable: bool
    certificate: StabilizabilityCertificate | None
    gef_result: GefResult
    evidence_basis: list[Polynomial]  # pushed reduced basis when not stabilizable


def _running_gcd(polys: list[Polynomial]) -> Polynomial:
    """A gcd of nonzero univariate polynomials, stopping at the first constant."""
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            break
        g = gcd_univariate(g, p)
    return g


def stabilizable(pf: PlantFraction) -> StabilizabilityResult:
    """Decide stabilizability and produce a partition-of-unity certificate.

    Whether a set of GEF generators generates A is decided without
    cofactors.  Over A = Q[z^S] it is one univariate gcd: Q[z] is integral
    over A, so by lying-over an ideal J of A is proper exactly when J*Q[z]
    is, that is, when its generators have a nonconstant gcd.  The running gcd
    g_I of each index set's generators is computed once; the full set and
    each subset of index sets are tested by the gcd of their g_I.  Over
    Q[x1..xn] the full set is decided by its cofactor-tracked `is_unit`, and
    each subset by an untracked reduced basis equal to [1].  The Bezout
    certificate comes from one cofactor-tracked `is_unit` on the set chosen:
    the smallest subset of index sets that generates A within the search
    budget, else all of them, whose certificate over Q[x1..xn] is the one
    already computed.
    """
    gr = gef(pf)
    pres = gr.pres
    tagged: list[tuple[IndexSet, Polynomial]] = []  # (I, lifted generator)
    for entry in gr.entries:
        for lam in entry.generators:
            tagged.append((entry.index_set, pres.lift(lam)))
    if not tagged:
        return StabilizabilityResult(False, None, gr, [])
    index_sets = []
    for index_set, _ in tagged:
        if index_set not in index_sets:
            index_sets.append(index_set)

    one = Polynomial.one(pres.variables)

    def ideal(combo):
        return pres.ideal([lift for i, lift in tagged if i in combo])

    full = ideal(index_sets)
    full_cert = None
    if pf.ring.kind == "monomial":
        gcds = {e.index_set: _running_gcd(e.generators) for e in gr.entries if e.generators}

        def generates(combo) -> bool:
            return _running_gcd([gcds[i] for i in combo]).is_constant()
        ok = generates(index_sets)
        if not ok and full.reduced_basis() == [one]:
            raise SynthesisInternalError("the gcd test and the Groebner basis disagree")
    else:
        def generates(combo) -> bool:
            return ideal(combo).reduced_basis() == [one]
        ok, full_cert = full.is_unit()
    if not ok:
        evidence = [pres.push(g) for g in full.reduced_basis()]
        evidence = [g for g in evidence if not g.is_zero()]
        return StabilizabilityResult(False, None, gr, evidence)

    chosen = index_sets
    budget = _SUBSET_SEARCH_BUDGET
    for size in range(1, len(index_sets)):
        for combo in combinations(index_sets, size):
            budget -= 1
            if budget < 0:
                break
            if generates(combo):
                chosen = combo
                break
        if chosen is not index_sets or budget < 0:
            break
    chosen_tagged = [(i, lift) for i, lift in tagged if i in chosen]
    if chosen is index_sets and full_cert is not None:
        chosen_cert = full_cert
    else:
        ok, chosen_cert = ideal(chosen).is_unit()
        if not ok:
            raise SynthesisInternalError("the unit test and the Bezout certificate disagree")

    acc: dict[IndexSet, Polynomial] = {}
    for pos, (index_set, lift) in enumerate(chosen_tagged):
        h = chosen_cert.coefficients.get(pos)
        if h is None:
            continue
        prev = acc.get(index_set, Polynomial.zero(pres.variables))
        acc[index_set] = prev + h * lift
    lambdas = {i: pres.push(p) for i, p in acc.items()}
    total = Polynomial.zero(pf.ring.variables)
    for lam in lambdas.values():
        total = total + lam
    if total != Polynomial.one(pf.ring.variables):
        raise SynthesisInternalError("partition of unity does not sum to 1")
    sharp = sorted(((i, lam) for i, lam in lambdas.items() if not lam.is_zero()),
                   key=lambda pair: pair[0])
    certificate = StabilizabilityCertificate(
        ring=pf.ring, sharp=sharp, omega=1,
        coeffs=[Polynomial.one(pf.ring.variables) for _ in sharp])
    return StabilizabilityResult(True, certificate, gr, [])


# ---------------------------------------------------------------------------
# local coprime factorizations
# ---------------------------------------------------------------------------


@dataclass
class LocalFactorization:
    """Right-coprime factorization of the plant over A_{lambda_I}."""

    index_set: IndexSet
    lam: Polynomial
    N_loc: Mat   # n x m LocalElem
    D_loc: Mat   # m x m LocalElem
    Ytil: Mat    # m x n LocalElem
    Xtil: Mat    # m x m LocalElem
    x_sel: Mat   # (m+n) x n polynomial 0/1 embedding
    witness: LocalFreenessWitness

    def bezout_holds(self) -> bool:
        m = self.Xtil.rows
        lhs = self.Ytil * self.N_loc + self.Xtil * self.D_loc
        zero = self.Xtil.entries[0].zero_like()
        one = self.Xtil.entries[0].one_like()
        return lhs == Mat.identity(m, one, zero)


def local_factorization(pf: PlantFraction, index_set: IndexSet,
                        lam: Polynomial) -> LocalFactorization:
    """Factor P = N_I * D_I^-1 over A_{lam} with Ytil*N_I + Xtil*D_I = E."""
    ring = pf.ring
    w = local_freeness_witness(pf, index_set, lam)
    loc = w.K.map(lambda k: LocalElem(k, 1, lam, ring))
    N_loc = loc.take_rows(range(pf.n))
    D_loc = loc.take_rows(range(pf.n, pf.n + pf.m))
    # rows_I(K) = lam E_m, so the first m rows of [K/lam | x_sel]^-1 are the
    # row selector of I
    delta, x_sel = selection(index_set, pf.m, pf.n)
    W = delta.map(lambda p: LocalElem(p.with_variables(ring.variables), 0, lam, ring))
    Ytil = W.submatrix(list(range(pf.m)), list(range(pf.n)))
    Xtil = W.submatrix(list(range(pf.m)), list(range(pf.n, pf.n + pf.m)))
    lf = LocalFactorization(index_set, lam, N_loc, D_loc, Ytil, Xtil, x_sel, w)
    if not lf.bezout_holds():
        raise SynthesisInternalError("local Bezout identity failed")
    Nf = N_loc.map(LocalElem.to_fraction)
    Df = D_loc.map(LocalElem.to_fraction)
    if pf.P * Df != Nf:
        raise SynthesisInternalError("local factorization does not reproduce the plant")
    return lf


# ---------------------------------------------------------------------------
# partition of unity powers
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def partition_powers(lambdas: list[Polynomial], omega: int) -> list[Polynomial]:
    """Coefficients a_I with sum(a_I * lambda_I^omega) = 1 given sum(lambda_I) = 1.

    Expands (sum lambda_I)^(s*(omega-1)+1) and assigns each multinomial term
    to the first index whose exponent reaches omega (one always exists by
    pigeonhole), then divides that index's power by lambda_I^omega.
    """
    s = len(lambdas)
    if s == 0:
        raise SynthError("empty partition")
    variables = lambdas[0].variables
    total = Polynomial.zero(variables)
    for lam in lambdas:
        total = total + lam
    if total != Polynomial.one(variables):
        raise SynthError("lambdas do not sum to 1")
    exponent = s * (omega - 1) + 1
    powers: list[dict[int, Polynomial]] = [dict() for _ in range(s)]

    def lam_power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        if e not in cache:
            cache[e] = lambdas[i] ** e
        return cache[e]

    coeffs = [Polynomial.zero(variables) for _ in range(s)]
    fact = math.factorial
    for combo in _compositions(exponent, s):
        target = next(i for i, k in enumerate(combo) if k >= omega)
        multinom = fact(exponent)
        for k in combo:
            multinom //= fact(k)
        term = Polynomial.const(multinom, variables)
        for i, k in enumerate(combo):
            e = k - omega if i == target else k
            if e:
                term = term * lam_power(i, e)
        coeffs[target] = coeffs[target] + term

    check = Polynomial.zero(variables)
    for a, lam in zip(coeffs, lambdas):
        check = check + a * lam ** omega
    if check != Polynomial.one(variables):
        raise SynthesisInternalError("partition-of-unity powers do not sum to 1")
    return coeffs


# ---------------------------------------------------------------------------
# denominator repair
# ---------------------------------------------------------------------------


@dataclass
class RepairResult:
    R: Mat                    # 0/1 selector with A + R*B Z-nonsingular
    minor: Polynomial         # the chosen Z-nonsingular full-size minor
    rows: tuple[int, ...]     # 0-based rows of [A; B] forming the minor


def repair_nonsingular(Amat: Mat, Bmat: Mat, ring: RingModel) -> RepairResult:
    """A 0/1 matrix R making A + R*B Z-nonsingular.

    Full-size minors of the stacked [A; B] are scanned by (number of B-rows
    ascending, then lexicographic row selection); the first Z-nonsingular
    minor fixes R by matching excluded A-rows with included B-rows.
    """
    if not Amat.is_square() or Bmat.cols != Amat.cols:
        raise SynthError("repair needs square A and B with matching columns")
    p, q = Amat.rows, Bmat.rows
    stack = Amat.vstack(Bmat)
    zero = Polynomial.zero(ring.variables)
    one = Polynomial.one(ring.variables)
    choices = sorted(combinations(range(p + q), p),
                     key=lambda c: (sum(1 for i in c if i >= p), c))
    for rows in choices:
        minor = stack.take_rows(rows).det()
        if in_Z(minor, ring):
            continue
        excluded = [i for i in range(p) if i not in rows]
        included = [i - p for i in rows if i >= p]
        cells = set(zip(excluded, included))
        R = Mat.build(p, q, lambda i, j: one if (i, j) in cells else zero)
        repaired = Amat + R * Bmat
        if in_Z(repaired.det(), ring):
            raise RepairImpossibleError("selector failed its post-verification")
        return RepairResult(R, minor, rows)
    raise NoNonsingularMinorError("no Z-nonsingular full-size minor in [A; B]")


# ---------------------------------------------------------------------------
# closed-loop verification
# ---------------------------------------------------------------------------


def _over(num: Polynomial, den: Polynomial) -> PolyFraction:
    """num/den, built without a gcd when den divides num."""
    try:
        return PolyFraction.from_poly(divide_exact(num, den))
    except NotDivisibleError:
        return PolyFraction(num, den)


def _closed_loop(N: Mat, d: Polynomial, Y: Mat, c: Polynomial) -> Mat:
    """The closed loop of P = N d^-1 and C = (cE)^-1 Y from ring products.

    With X = cE and Delta = X d + Y N,
    H = [[E - N Delta^-1 Y, -N Delta^-1 X], [d Delta^-1 Y, d Delta^-1 X]],
    so every entry is a ring element over det(Delta), with adj(Delta) in
    place of the inverse.
    """
    n, m = N.rows, N.cols
    zero = d.zero_like()
    delta = Mat.scalar_matrix(m, c * d, zero) + Y * N
    det = delta.det()
    if det.is_zero():
        # det(Delta) = (c d)^m det(E + P*C), and c and d are nonzero
        raise IllPosedError("det(E + P*C) = 0")
    adj = delta.adjugate()
    if delta * adj != Mat.scalar_matrix(m, det, zero):
        raise SynthesisInternalError("adj(Delta) is not the inverse of Delta up to det(Delta)")
    adj_y = adj * Y
    adj_x = adj.scale(c)
    H11 = Mat.scalar_matrix(n, det, zero) - N * adj_y
    H12 = -(N * adj_x)
    H21 = adj_y.scale(d)
    H22 = adj_x.scale(d)
    return H11.hstack(H12).vstack(H21.hstack(H22)).map(lambda e: _over(e, det))


def _scalar_fraction(M: Mat, variables: tuple[str, ...]) -> tuple[Mat, Polynomial]:
    """A polynomial matrix and one scalar c with M = (numerators) / c."""
    dens = [e.den.with_variables(variables) for e in M.entries]
    c = common_denominator(dens, variables)
    return Mat(M.rows, M.cols, [e.num.with_variables(variables) * divide_exact(c, den)
                                for e, den in zip(M.entries, dens)]), c


def closed_loop(P: Mat, C: Mat) -> Mat:
    """The (m+n)-square transfer matrix from (u1, u2) to (e1, e2)."""
    n, m = P.rows, P.cols
    if C.rows != m or C.cols != n:
        raise SynthError(f"controller shape ({C.rows},{C.cols}) does not match plant")
    variables: tuple[str, ...] = ()
    for e in P.entries + C.entries:
        variables += tuple(v for v in e.num.variables if v not in variables)
    N, d = _scalar_fraction(P, variables)
    Y, c = _scalar_fraction(C, variables)
    return _closed_loop(N, d, Y, c)


@dataclass
class VerificationReport:
    well_posed: bool
    H: Mat | None                        # PolyFraction entries, (m+n) square
    entry_membership: list[list[bool]]
    ok: bool
    H_ring: Mat | None                   # polynomial entries when ok

    def failures(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.entry_membership)
                for j, good in enumerate(row) if not good]


def verify_stabilizing(P: Mat, C: Mat, ring: RingModel) -> VerificationReport:
    """Exact closed-loop computation and per-entry ring membership."""
    try:
        H = closed_loop(P, C)
    except IllPosedError:
        return VerificationReport(False, None, [], False, None)
    flags = [[fraction_in_ring(H[i, j], ring) for j in range(H.cols)]
             for i in range(H.rows)]
    ok = all(all(row) for row in flags)
    H_ring = None
    if ok:
        H_ring = H.map(lambda e: e.as_polynomial().with_variables(ring.variables))
    return VerificationReport(True, H, flags, ok, H_ring)


def transpose_duality_check(P: Mat, C: Mat, ring: RingModel | None = None) -> bool:
    """The closed loop of the transposed pair is the permuted closed loop."""
    n, m = P.rows, P.cols
    H = closed_loop(P, C)
    H_t = closed_loop(P.transpose(), C.transpose())
    order = list(range(n, n + m)) + list(range(n))
    if H_t.transpose() != H.submatrix(order, order):
        return False
    if ring is not None:
        direct = all(fraction_in_ring(e, ring) for e in H.entries)
        transposed = all(fraction_in_ring(e, ring) for e in H_t.entries)
        if direct and not transposed:
            return False
    return True


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


@dataclass
class ControllerResult:
    C: Mat                       # m x n PolyFraction
    Den: Mat                     # m x m over the ring, Z-nonsingular
    Num: Mat                     # m x n over the ring
    H: Mat                       # (m+n) square over the ring
    repair_applied: bool
    repair_index_set: IndexSet | None
    repair_selector: Mat | None  # R' from the minor search
    certificate: StabilizabilityCertificate
    omega: int
    coeffs: list[Polynomial]
    locals: list[LocalFactorization]
    report: VerificationReport


def _clear(mat: Mat, omega: int) -> Mat:
    return mat.map(lambda e: e.clear_denominator(omega))


def synthesize(pf: PlantFraction,
               decision: StabilizabilityResult | None = None) -> ControllerResult:
    """Construct and verify a stabilizing controller for the plant."""
    ring = pf.ring
    m, n = pf.m, pf.n
    if decision is None:
        decision = stabilizable(pf)
    if not decision.stabilizable:
        raise NotStabilizableError("the generalized elementary factors are not coprime")
    cert = decision.certificate

    locals_: list[LocalFactorization] = [
        local_factorization(pf, index_set, lam) for index_set, lam in cert.sharp]
    dx = [lf.D_loc * lf.Xtil for lf in locals_]
    dy = [lf.D_loc * lf.Ytil for lf in locals_]
    nx = [lf.N_loc * lf.Xtil for lf in locals_]
    ny = [lf.N_loc * lf.Ytil for lf in locals_]
    omega = 1
    for group in (dx, dy, nx, ny):
        for mat in group:
            for e in mat.entries:
                omega = max(omega, e.exp)
    lambdas = cert.lambdas()
    coeffs = partition_powers(lambdas, omega)
    cert.omega = omega
    cert.coeffs = coeffs
    if not cert.verify():
        raise SynthesisInternalError("certificate failed verification")

    def build_den_num() -> tuple[Mat, Mat]:
        zero = Polynomial.zero(ring.variables)
        den = Mat.build(m, m, lambda i, j: zero)
        num = Mat.build(m, n, lambda i, j: zero)
        for a, dxi, dyi in zip(coeffs, dx, dy):
            den = den + _clear(dxi, omega).scale(a)
            num = num + _clear(dyi, omega).scale(a)
        return den, num

    def check_identity(den: Mat, num: Mat):
        # sum a lam^w D_I (Ytil N + Xtil D) = D, the key closed-loop identity
        dE = Mat.scalar_matrix(m, pf.d, Polynomial.zero(ring.variables))
        if num * pf.N + den * dE != dE:
            raise SynthesisInternalError("denominator/numerator identity failed")

    Den, Num = build_den_num()
    check_identity(Den, Num)

    repair_applied = False
    repair_index_set = None
    repair_selector = None
    if not z_nonsingular(Den, ring):
        pos = next((k for k, (a, (_, lam)) in enumerate(zip(coeffs, cert.sharp))
                    if not in_Z(a, ring) and not in_Z(lam, ring)), None)
        if pos is None:
            raise RepairImpossibleError("no summand avoids the causality ideal")
        lf = locals_[pos]
        lam = lf.lam
        a0 = coeffs[pos]
        D0 = _clear(lf.D_loc, omega)          # lam^w * D_I over the ring
        N0 = _clear(lf.N_loc, omega)          # lam^w * N_I over the ring
        adj_D0 = D0.adjugate()
        det_D0 = D0.det()
        N_tilde = N0 * adj_D0                 # n x m over the ring
        D_tilde = Mat.scalar_matrix(n, det_D0, Polynomial.zero(ring.variables))
        scalar = a0 * lam ** omega * det_D0
        Bmat = (N_tilde.scale(scalar)).map(lambda e: -e)
        repair = repair_nonsingular(Den, Bmat, ring)
        R0 = (adj_D0.scale(lam ** omega)) * repair.R   # m x n over the ring
        to_local = lambda p: LocalElem(p, 0, lam, ring)
        R0_loc = R0.map(to_local)
        N_tilde_loc = N_tilde.map(to_local)
        D_tilde_loc = D_tilde.map(to_local)
        new_Xtil = lf.Xtil - R0_loc * N_tilde_loc
        new_Ytil = lf.Ytil + R0_loc * D_tilde_loc
        locals_[pos] = LocalFactorization(lf.index_set, lf.lam, lf.N_loc, lf.D_loc,
                                          new_Ytil, new_Xtil, lf.x_sel, lf.witness)
        if not locals_[pos].bezout_holds():
            raise SynthesisInternalError("local Bezout identity broke during repair")
        dx[pos] = locals_[pos].D_loc * new_Xtil
        dy[pos] = locals_[pos].D_loc * new_Ytil
        Den, Num = build_den_num()
        check_identity(Den, Num)
        if not z_nonsingular(Den, ring):
            raise RepairImpossibleError("denominator is Z-singular after repair")
        repair_applied = True
        repair_index_set = lf.index_set
        repair_selector = repair.R

    det_den = Den.det()
    adj_num = Den.adjugate() * Num
    C = adj_num.map(lambda e: PolyFraction(e, det_den))
    report = verify_stabilizing(pf.P, C, ring)
    if not report.ok:
        raise SynthesisInternalError(
            f"synthesized controller failed verification at {report.failures()}")
    return ControllerResult(C=C, Den=Den, Num=Num, H=report.H_ring,
                            repair_applied=repair_applied,
                            repair_index_set=repair_index_set,
                            repair_selector=repair_selector,
                            certificate=cert, omega=omega, coeffs=coeffs,
                            locals=locals_, report=report)


# ---------------------------------------------------------------------------
# causality of the result
# ---------------------------------------------------------------------------


@dataclass
class CausalityReport:
    denominator_nonsingular: bool
    adjugate_in_ring: bool
    entry_causal: list[list[bool]]
    controller_causal: bool
    plant_strictly_causal: bool

    @property
    def ok(self) -> bool:
        return (self.denominator_nonsingular and self.adjugate_in_ring
                and self.controller_causal)


def causality_check(pf: PlantFraction, result: ControllerResult) -> CausalityReport:
    """Causality of the synthesized controller, entrywise and structurally.

    Structurally: Den is Z-nonsingular, so C = (det(Den) E)^-1 (adj(Den) Num)
    exhibits every entry as a ring element over a denominator outside Z.  For
    a strictly causal plant every stabilizing controller must moreover be
    entrywise causal, which the per-entry decisions confirm.
    """
    ring = pf.ring
    den_ok = z_nonsingular(result.Den, ring)
    adj_num = result.Den.adjugate() * result.Num
    adj_ok = all(membership(e, ring) for e in adj_num.entries) and \
        membership(result.Den.det(), ring)
    flags = [[causal(result.C[i, j], ring) for j in range(result.C.cols)]
             for i in range(result.C.rows)]
    all_causal = den_ok and adj_ok and all(all(row) for row in flags)
    strict = matrix_strictly_causal(pf.P, ring)
    return CausalityReport(den_ok, adj_ok, flags, all_causal, strict)
