"""Stabilizability decision, controller synthesis, and closed-loop verification.

The decision asks whether the generalized-elementary-factor generators
together generate the unit ideal.  Over Q[z^S] that is one univariate gcd
(see `stabilizable`); over Q[x1..xn] it is a reduced Groebner basis, without
cofactors for the subsets tried.  The same test picks the smallest subset of
factors that still generates A; only that set's lifts into the ring
presentation go through one cofactor-tracked Buchberger (over Q[x1..xn] the
full set's, when no smaller subset is chosen), whose verified Bezout
certificate is grouped per index set into a partition of unity
sum(lambda_I) = 1 with lambda_I in the factor for I.

Synthesis follows the constructive sufficiency argument with every matrix
over A.  The witness K of lambda_I, lambda_I T = K rows_I(T), splits into K_N
(first n rows) and K_D (last m rows): P = K_N K_D^-1 is a right-coprime
factorization over the localization A_{lambda_I}, whose Bezout coefficients
are the row selector [Y_I | X_I] of I, since Y_I K_N + X_I K_D =
rows_I(K) = lambda_I E.  Every localized entry is k/lambda_I, so lambda_I
itself clears the denominators (omega = 1 in the paper's lambda_I^omega),
sum(lambda_I) = 1 needs no coefficients, and the candidate controller is

    C = (sum K_D^I X_I)^-1 (sum K_D^I Y_I).

When the candidate denominator is Z-singular it is repaired by a 0/1 selector
matrix obtained from a Z-nonsingular full-size minor search, after which the
controller is recomputed.  The search decides each minor on residues mod Z,
as det(M) mod Z = det(M mod Z).  Every synthesized controller is verified
against the exact closed-loop map before it is returned.

The closed loop is computed over the ring, never in the fraction field.  The
plant is put over one scalar common denominator, P = N d^-1, and the
controller is given by a left factorization C = X^-1 Y over the ring, X
nonsingular; with Delta = X d + Y N, so that
det(Delta) = det(X) d^m det(E + P C),

    H = [[E - N Delta^-1 Y, -N Delta^-1 X], [d Delta^-1 Y, d Delta^-1 X]],

so det(Delta) H is a ring matrix, from ring products and one det(Delta)
and adj(Delta) of size m x m.  `_closed_loop` returns these numerators with
det(Delta), and no fraction is reduced: an entry lies in A exactly when
det(Delta) divides its numerator and the quotient lies in A, which
`verify_stabilizing` decides with one exact division and one membership
test.  Synthesis verifies its own factors, X = Den and Y = Num, for which
Delta is a scalar matrix by the identity Num N + Den d E = d E it checks; a
controller read from a file puts each row over its own common denominator,
X = diag(c_i) (`row_factors`).  Fractions appear only where plants and
controllers are parsed and where reports are rendered.  The tests put the
numerators over det(Delta) with `closed_loop(P, C)`, and their oracles
(tests/oracles.py) check it against the fraction field, the transposed
loop and a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gef import GefResult, PlantFraction, gef, running_gcd, witness_matrix
from .matrixring import IndexSet, Mat, selection
from .poly import NotDivisibleError, Polynomial, common_denominator, divide_exact
from .ring import PolyFraction, RingModel, in_Z, membership, z_nonsingular


class SynthError(Exception):
    pass


class NotStabilizableError(SynthError):
    pass


class IllPosedError(SynthError):
    """det(E + P*C) vanishes; the feedback loop is not well posed.

    Over the ring it shows as det(Delta) = det(X) d^m det(E + P*C) = 0.
    """


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

    def lambdas(self) -> list[Polynomial]:
        return [lam for _, lam in self.sharp]

    def verify(self) -> bool:
        variables = self.ring.variables
        if sum(self.lambdas(), Polynomial.zero(variables)) != Polynomial.one(variables):
            return False
        return all(membership(lam, self.ring) for lam in self.lambdas())


@dataclass
class StabilizabilityResult:
    stabilizable: bool
    certificate: StabilizabilityCertificate | None
    gef_result: GefResult
    evidence_basis: list[Polynomial]  # pushed reduced basis when not stabilizable


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
        gcds = {e.index_set: running_gcd(e.generators) for e in gr.entries if e.generators}

        def generates(combo) -> bool:
            return running_gcd([gcds[i] for i in combo]).is_constant()
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
    variables = pf.ring.variables
    if sum(lambdas.values(), Polynomial.zero(variables)) != Polynomial.one(variables):
        raise SynthesisInternalError("partition of unity does not sum to 1")
    sharp = sorted(((i, lam) for i, lam in lambdas.items() if not lam.is_zero()),
                   key=lambda pair: pair[0])
    return StabilizabilityResult(True, StabilizabilityCertificate(pf.ring, sharp), gr, [])


# ---------------------------------------------------------------------------
# local coprime factorizations
# ---------------------------------------------------------------------------


@dataclass
class LocalFactorization:
    """Right-coprime factorization P = K_N K_D^-1 over A_{lambda_I}, cleared by lambda_I.

    K_N and K_D are the first n and last m rows of the witness K, so over
    A_{lambda_I} the factors are K_N/lambda_I and K_D/lambda_I; Y and X, the
    row selector of I split at column n, are their Bezout coefficients.
    """

    index_set: IndexSet
    lam: Polynomial
    K_N: Mat   # n x m over the ring
    K_D: Mat   # m x m over the ring
    Y: Mat     # m x n over the ring
    X: Mat     # m x m over the ring

    def bezout_holds(self) -> bool:
        """Y K_N + X K_D = lambda_I E_m, the local Bezout identity times lambda_I."""
        lam_e = Mat.scalar_matrix(self.X.rows, self.lam, self.lam.zero_like())
        return self.Y * self.K_N + self.X * self.K_D == lam_e


def local_factorization(gr: GefResult, index_set: IndexSet,
                        lam: Polynomial) -> LocalFactorization:
    """Factor P = K_N K_D^-1 with Y K_N + X K_D = lam E_m, all over the ring.

    The witness K is built from the (h, C/g) that `gef` kept on the entry for I.
    """
    if lam.is_zero():
        raise SynthError("a local factorization needs a nonzero lambda")
    pf = gr.plant
    m, n, variables = pf.m, pf.n, pf.ring.variables
    K = witness_matrix(pf, index_set, lam, gr.quotients(index_set))
    K_N = K.take_rows(range(n))
    K_D = K.take_rows(range(n, n + m))
    # rows_I(K) = lam E_m, so the row selector of I is [Y | X]
    sel = selection(index_set, m, n).map(lambda p: p.with_variables(variables))
    Y = sel.submatrix(list(range(m)), list(range(n)))
    X = sel.submatrix(list(range(m)), list(range(n, n + m)))
    lf = LocalFactorization(index_set, lam, K_N, K_D, Y, X)
    if not lf.bezout_holds():
        raise SynthesisInternalError("local Bezout identity failed")
    if pf.N * K_D != K_N.scale(pf.d):
        raise SynthesisInternalError("local factorization does not reproduce the plant")
    return lf


def partition_powers(lambdas: list[Polynomial]) -> list[Polynomial]:
    """Coefficients a_I with sum(a_I * lambda_I) = 1: all ones, as sum(lambda_I) = 1.

    Synthesis clears every localized denominator with lambda_I itself, so the
    partition of unity needs no power expansion and synthesis does not call
    this; only the tests do, and it stays because perfbench/layers.py traces
    it.
    """
    if not lambdas:
        raise SynthError("empty partition")
    one = Polynomial.one(lambdas[0].variables)
    if sum(lambdas, one.zero_like()) != one:
        raise SynthError("lambdas do not sum to 1")
    return [one for _ in lambdas]


# ---------------------------------------------------------------------------
# denominator repair
# ---------------------------------------------------------------------------


@dataclass
class RepairResult:
    R: Mat                    # 0/1 selector with A + R*B Z-nonsingular
    rows: tuple[int, ...]     # 0-based rows of [A; B] of a Z-nonsingular minor


def repair_nonsingular(Amat: Mat, Bmat: Mat, ring: RingModel) -> RepairResult:
    """A 0/1 matrix R making A + R*B Z-nonsingular.

    Full-size minors of the stacked [A; B] are scanned in lexicographic
    order of their row selections, each decided on residues mod Z; the first
    Z-nonsingular minor fixes R by matching excluded A-rows with included
    B-rows.  That minor also has the fewest B-rows: the rows of [A; B] mod Z
    form a matroid (linear independence over Q, or over the fraction field
    when Z = 0), whose lexicographically first basis is the greedy one, and
    the greedy basis takes every A-row independent of the A-rows before it,
    so it holds as many A-rows as any basis.
    """
    if not Amat.is_square() or Bmat.cols != Amat.cols:
        raise SynthError("repair needs square A and B with matching columns")
    p, q = Amat.rows, Bmat.rows
    stack = Amat.vstack(Bmat)
    zero = Polynomial.zero(ring.variables)
    one = Polynomial.one(ring.variables)
    for rows in combinations(range(p + q), p):
        if not z_nonsingular(stack.take_rows(rows), ring):
            continue
        excluded = [i for i in range(p) if i not in rows]
        included = [i - p for i in rows if i >= p]
        cells = set(zip(excluded, included))
        R = Mat.build(p, q, lambda i, j: one if (i, j) in cells else zero)
        if not z_nonsingular(Amat + R * Bmat, ring):
            raise RepairImpossibleError("selector failed its post-verification")
        return RepairResult(R, rows)
    raise NoNonsingularMinorError("no Z-nonsingular full-size minor in [A; B]")


# ---------------------------------------------------------------------------
# closed-loop verification
# ---------------------------------------------------------------------------


def _closed_loop(N: Mat, d: Polynomial, X: Mat, Y: Mat) -> tuple[Mat, Polynomial]:
    """The closed loop of P = N d^-1 and C = X^-1 Y as ring numerators over det(Delta).

    With Delta = X d + Y N,
    H = [[E - N Delta^-1 Y, -N Delta^-1 X], [d Delta^-1 Y, d Delta^-1 X]],
    so det(Delta) H is a ring matrix, with adj(Delta) in place of the
    inverse; it is returned with det(Delta).  X must be nonsingular.
    """
    n, m = N.rows, N.cols
    if Y.rows != m or Y.cols != n or X.rows != m or X.cols != m:
        raise SynthError(f"controller shape ({Y.rows},{Y.cols}) does not match plant")
    zero = d.zero_like()
    delta = X.scale(d) + Y * N
    det = delta.det()
    if det.is_zero():
        # det(Delta) = det(X) d^m det(E + P*C), and det(X) and d are nonzero
        raise IllPosedError("det(E + P*C) = 0")
    adj = delta.adjugate()
    if delta * adj != Mat.scalar_matrix(m, det, zero):
        raise SynthesisInternalError("adj(Delta) is not the inverse of Delta up to det(Delta)")
    adj_y = adj * Y
    adj_x = adj * X
    H11 = Mat.scalar_matrix(n, det, zero) - N * adj_y
    H12 = -(N * adj_x)
    H21 = adj_y.scale(d)
    H22 = adj_x.scale(d)
    return H11.hstack(H12).vstack(H21.hstack(H22)), det


def _scalar_fraction(M: Mat, variables: tuple[str, ...]) -> tuple[Mat, Polynomial]:
    """A polynomial matrix and one scalar c with M = (numerators) / c."""
    nums, c = common_denominator(
        [(e.num.with_variables(variables), e.den.with_variables(variables))
         for e in M.entries], variables)
    return Mat(M.rows, M.cols, nums), c


def row_factors(C: Mat, variables: tuple[str, ...]) -> tuple[Mat, Mat]:
    """X = diag(c_i) and Y over the ring with C = X^-1 Y.

    Row i is put over its own common denominator c_i, as `sim` realizes
    each output channel; a zero row has c_i = 1.
    """
    zero = Polynomial.zero(variables)
    rows = [_scalar_fraction(C.take_rows([i]), variables) for i in range(C.rows)]
    X = Mat.build(C.rows, C.rows, lambda i, j: rows[i][1] if i == j else zero)
    Y = Mat(C.rows, C.cols, [e for Y_i, _ in rows for e in Y_i.entries])
    return X, Y


def closed_loop(P: Mat, C: Mat) -> Mat:
    """The (m+n)-square transfer matrix from (u1, u2) to (e1, e2).

    The library verifies over the ring (`verify_stabilizing`) and does not
    call this; only the tests do, and it stays here because
    perfbench/layers.py traces it as a layer.
    """
    variables: tuple[str, ...] = ()
    for e in P.entries + C.entries:
        variables += tuple(v for v in e.num.variables if v not in variables)
    N, d = _scalar_fraction(P, variables)
    H, det = _closed_loop(N, d, *row_factors(C, variables))
    return H.map(lambda e: PolyFraction(e, det))


@dataclass
class VerificationReport:
    well_posed: bool
    entry_membership: list[list[bool]]
    ok: bool
    H_ring: Mat | None                   # polynomial entries when ok

    def failures(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.entry_membership)
                for j, good in enumerate(row) if not good]


def verify_stabilizing(N: Mat, d: Polynomial, X: Mat, Y: Mat,
                       ring: RingModel) -> VerificationReport:
    """Exact closed loop of P = N d^-1 and C = X^-1 Y, and per-entry ring membership.

    N and d are the plant's own factors and X, Y a left factorization of the
    controller over the ring: `synthesize` passes its Den and Num, and a
    controller read as fractions comes through `row_factors`.  An entry
    e/det(Delta) is in the ring exactly when det(Delta) divides e and the
    quotient is in the ring.
    """
    try:
        H, det = _closed_loop(N, d, X, Y)
    except IllPosedError:
        return VerificationReport(False, [], False, None)
    entries = []
    for e in H.entries:
        try:
            q = divide_exact(e, det).with_variables(ring.variables)
        except NotDivisibleError:
            q = None
        entries.append(q if q is not None and membership(q, ring) else None)
    flags = [[e is not None for e in entries[i * H.cols:(i + 1) * H.cols]]
             for i in range(H.rows)]
    ok = all(e is not None for e in entries)
    return VerificationReport(True, flags, ok, Mat(H.rows, H.cols, entries) if ok else None)


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
    locals: list[LocalFactorization]
    report: VerificationReport

    # the power of lambda_I that clears the local denominators;
    # rows_I(K) = lambda_I E makes it 1, and nothing in the library reads
    # it: it stays because perfbench/layers.py records it
    omega = 1


def synthesize(pf: PlantFraction, decision: StabilizabilityResult) -> ControllerResult:
    """Construct and verify a stabilizing controller from `stabilizable(pf)`'s decision."""
    ring = pf.ring
    m, n = pf.m, pf.n
    zero = Polynomial.zero(ring.variables)
    if not decision.stabilizable:
        raise NotStabilizableError("the generalized elementary factors are not coprime")
    cert = decision.certificate
    if not cert.verify():
        raise SynthesisInternalError("certificate failed verification")
    locals_: list[LocalFactorization] = [
        local_factorization(decision.gef_result, index_set, lam)
        for index_set, lam in cert.sharp]

    def build_den_num() -> tuple[Mat, Mat]:
        den = Mat.build(m, m, lambda i, j: zero)
        num = Mat.build(m, n, lambda i, j: zero)
        for lf in locals_:
            den = den + lf.K_D * lf.X
            num = num + lf.K_D * lf.Y
        # Y N + X d = d (Y K_N + X K_D) K_D^-1 = d lam K_D^-1 for each I, so
        # num N + den d = sum(d lam E) = d E, as sum(lam) = 1
        dE = Mat.scalar_matrix(m, pf.d, zero)
        if num * pf.N + den * dE != dE:
            raise SynthesisInternalError("denominator/numerator identity failed")
        return den, num

    Den, Num = build_den_num()

    repair_applied = False
    repair_index_set = None
    repair_selector = None
    if not z_nonsingular(Den, ring):
        pos = next((k for k, (_, lam) in enumerate(cert.sharp) if not in_Z(lam, ring)), None)
        if pos is None:
            raise RepairImpossibleError("no summand avoids the causality ideal")
        lf = locals_[pos]
        adj_KD = lf.K_D.adjugate()
        det_KD = lf.K_D.det()
        N_tilde = lf.K_N * adj_KD             # n x m over the ring
        D_tilde = Mat.scalar_matrix(n, det_KD, zero)
        Bmat = -N_tilde.scale(lf.lam * det_KD)
        repair = repair_nonsingular(Den, Bmat, ring)
        R0 = adj_KD.scale(lf.lam) * repair.R  # m x n over the ring
        locals_[pos] = LocalFactorization(lf.index_set, lf.lam, lf.K_N, lf.K_D,
                                          lf.Y + R0 * D_tilde, lf.X - R0 * N_tilde)
        if not locals_[pos].bezout_holds():
            raise SynthesisInternalError("local Bezout identity broke during repair")
        Den, Num = build_den_num()
        if not z_nonsingular(Den, ring):
            raise RepairImpossibleError("denominator is Z-singular after repair")
        repair_applied = True
        repair_index_set = lf.index_set
        repair_selector = repair.R

    report = verify_stabilizing(pf.N, pf.d, Den, Num, ring)
    if not report.ok:
        raise SynthesisInternalError(
            f"synthesized controller failed verification at {report.failures()}")
    # the reported fractions are exactly Den^-1 Num = adj(Den) Num / det(Den)
    det_den = Den.det()
    adj_den = Den.adjugate()
    if Den * adj_den != Mat.scalar_matrix(m, det_den, zero):
        raise SynthesisInternalError("adj(Den) is not the inverse of Den up to det(Den)")
    C = (adj_den * Num).map(lambda e: PolyFraction(e, det_den))
    return ControllerResult(C=C, Den=Den, Num=Num, H=report.H_ring,
                            repair_applied=repair_applied,
                            repair_index_set=repair_index_set,
                            repair_selector=repair_selector,
                            certificate=cert, locals=locals_, report=report)

