"""Chain complexes of graded modules, in two layers.

``ProjComplex`` is the workhorse: a complex of formal direct sums of shifted
indecomposable projectives P(v)<r> with differentials given by matrices of
left-multiplication elements. Gaussian elimination, minimality, chain-map
solving, homotopies and the homotopy-category isomorphism test all live here,
where "unit entry" and "entry in the radical" are literal statements about
algebra elements.

``Complex`` realizes terms as honest graded modules; it is what the duality
functor consumes and what homology is computed from.

Cohomological indexing throughout: differentials raise the homological
degree. Semi-infinite complexes carry an eventually-periodic tail descriptor
(``TailSpec``). Its direction ``outward`` is +1 on a right tail and -1 on a
left one, and for every degree i from ``start`` outward
term(i) = term(i - outward·period) internally shifted by ``shift``, and so is
d(i). The stored window must exhibit the pattern over two periods. The
tail's ``repeat`` is the innermost degree from which its construction
certified the pattern.

Windows and margins
-------------------
Every verdict is certified on a finite window (lo, hi), and a construction
that works on a window may have to reach degrees past it. Each such reach
is owned by one construction, written there once, and derived here. A
caller passes only the window it works at. Below, a tail has direction o
(``outward``), period p and shift s.

* Two-period seam (``check_tail_seam``, ``detect_tail``). A stored tail is
  accepted only when every stored degree from ``start`` outward follows
  term(i) = term(i - o·p)<s> and d(i) likewise, and the window reaches
  ``TailSpec.two_period_end``: the repeated period shows twice.
  ``detect_tail`` puts that end at the edge and ``start`` no further in than
  ``TailSpec.reference_bound``: 3p stored degrees, the two repeats and the
  period they are compared with. Periods up to 4 are tried. Copies are not
  checked: a construction checks d∘d on the degrees it computed, and
  ``attach_tail`` extends its repeat by ``_copy_outward``. A copied degree
  holds the value one period in, shifted by s, and the seam walk (for a
  resolution, its repeat d(i) = d(i + p)<s>; for D and CK,
  ``TailSpec.certify`` on the head) compared that value with the one a
  period further in, so every copied d∘d product is a shifted computed one.
  The map functors copy components by the same rule: P's lift below its
  repeat, CK past both tops + 2 and D past its cone's head (the lift repeat,
  the CK period and D's head below). Each checks the chain identity only
  where it reads a computed component (``ProjChainMap.check_identity``): P
  from the lowest solved degree - 1 to -1, CK on its built degrees, D by its
  cone's d∘d on the head. An identity past them reads copies of components
  and differentials one period in, so it is the shifted copy of one nearer
  the seam, and by induction of a checked one.
* Ladder seam (``ladder_degrees``, ``_common_tail``). A ladder family
  φ_i: A^i -> B^{i+offset} with a common tail repeats from the seam σ,
  where both A^i and B^{i+offset} lie in the tail: the later of ``start``
  and ``start - offset`` on a right tail, the earlier on a left tail, taken
  inside the window. From one period past σ the identification
  φ_i = φ_{i-o·p}<s> is well typed, so the unknowns stop one period past σ
  and ``LadderSystem.build`` fills the rest of the window from them, by the
  copy rule ``materialize`` extends terms and differentials with. Which
  equations the system keeps is the equation cut below.
  The seam is walked, by the ladder alone (``_common_tail``). It starts at
  the outer of the two tails' starts: from there each complex follows its
  own tail, so both follow the doubled pattern from one ladder period
  further out, which is all the identification reads. It moves in to the
  innermost degree from which both complexes follow the doubled pattern at
  every stored degree out to their edges (``_break_at``, the test that
  ``_tail_break`` walks with), when that degree lies further in: the outer
  of the two complexes' ``_repeat_start``s. Each walks inward from its
  complex's own stored edge, or from the degree that its own tail, certified
  from its ``repeat``, already carries into the doubled pattern
  (``TailSpec.implied_from``), compares summands by identity and entry lists
  without building shifted copies, and stops at the first break or at
  ``TailSpec.reference_bound``, so it reads no degree the complex does not
  store, and a break that only the complex stored further out holds is not
  skipped. The stored ``TailSpec`` of each complex is left as it is. The
  carried repeats do not replace the walk: in each of the suite's 8 calls
  it moves the seam in past the outer stored start and past the outer of
  the repeats the two tails carry (to 6 or 7 on the right tails where those
  give 10 to 14, at N = 16 and 48 alike), which keeps the ladders of
  ``duality-maps`` at their size.
  Soundness: the walk moves the seam only across degrees where both
  complexes are periodic, so a solution is still a chain map or homotopy of
  the semi-infinite complexes. The ansatz identifies more components, so it
  admits fewer solutions: it can lose a "true", as an empty periodic
  solution set between tailed models is inconclusive, but it never adds a
  "false". In ``duality-maps`` both models follow their pattern from degree
  6 or 7, so the largest ladder system has 18 unknowns at every N (252 and
  1,020 at N = 128 and 512 with the seam at the stored tails' starts).
  The ladder's period p is twice the lcm L of the two tails' periods
  (``TailSpec.common`` with k = 2). Every solution periodic under L is
  periodic under 2L, so doubling loses none, and it admits the solutions
  that change sign at each step of L: a tail with differential d and its
  copy with -d, as a homological shift of a period-1 tail gives, are
  isomorphic only through φ_i = (-1)^i, which has period 2. Nothing proves
  2L complete (a solution that repeats only after three steps of L would
  still be missed), so an empty solution set of the ansatz is inconclusive,
  never "false".
* Equation cut (``LadderSystem.cut``). Each block list of a ladder
  system, a family's chain blocks d∘φ_i ∓ φ_(i+1)∘d (less a given f - g
  for a homotopy) or the intertwining blocks ψ_t∘F - G∘ψ_s (- dh - hd),
  states what block i reads: its unknown components, and its fixed
  matrices besides the families' differentials (f - g, F and G). Under the
  one pattern (side, period p, shift s) the families' tails share, D is the
  innermost degree from which each block is the shifted copy of the one a
  period in: each component it reads is ``LadderSystem.copied`` and each
  fixed matrix a copy by ``_is_copy``. The differentials need no
  comparison: a component copied past its family's unknowns lies a period
  past the seam, from where both complexes repeat (the ladder seam above),
  and one that holds no unknown is zero, so the differentials it meets add
  nothing. A block past D thus has the coordinates and, at every vec, the
  value of the one a period in: by induction it repeats rows of the period
  before D, and dropping it leaves every kernel and solution as it is. The
  cut keeps the blocks up to D and one period of repeats from it,
  D .. D + o·(p - 1), which checks a repeated period explicitly, as the
  seam check does on the terms. Chain blocks without a given map repeat
  from where both components they read lie a period past the seam, where
  f - g never repeats they run to the window edge, and those of a family
  without a tail, beside a tailed one, repeat from a period past its
  models' top. Without one shared pattern every block is kept.
* Reduction margin (``reduce_on_window``): 2p + 2 degrees on the tail
  side. It serves left tails and the printed original: the sweep of a right
  tail stops at its repeat (the reduction repeat below), and the original
  that a ``Reduction`` keeps and replays is materialized with the margin.
  ``gaussian_reduce`` always cancels at the lowest degree whose
  differential has a unit. A cancellation at i rewrites d(i), drops a row
  of d(i - 1) and a column of d(i + 1), and none of these creates a unit
  below d(i), so degrees the sweep has passed are final. On a right tail
  this makes the cut at the materialized top M invisible below it: every
  degree through M - 1 and every differential through d(M - 2) comes out as
  in any longer materialization, and one degree of margin would do. On a
  left tail the sweep starts at the cut. The materialized complex repeats,
  so the sweep from one period further out is this sweep moved by one
  period, and within the tail the reduced complex at distance m from the
  cut depends on m only. Near the cut it differs from the interior: a contractible pair
  P -> P straddling the cut leaves a stray summand at the cut, and the next
  cancellations can choose other pivots until the reduced complex turns
  periodic. The kept window is read as exact matrices (``detect_tail``
  compares three periods at the kept edge, the ladder solvers read every
  kept degree), so it must start past that transient. No formula bounds
  it; 2p + 2 allows the stray degree at the cut, the differential into it
  and two periods more. A longer transient leaves the kept edge without a
  periodic pattern unless it repeats for three periods, and there
  ``attach_tail`` raises ``WindowTooSmall``. Over the suite at
  N = 4…16 and the eval pool at N = 12 no reduction needed more than one
  degree: right tails one, left tails none.
* Reduction repeat (``_Eliminator``, ``gaussian_reduce``, ``Reduction``).
  The sweep of a right tail of period p and shift s, certified from its
  ``repeat`` r, stops once it repeats. The cancellations at degree j read
  only d(j) as the sweep reaches it: the input's d(j) less the columns the
  cancellations at j - 1 dropped. They rewrite d(j) and drop rows of
  d(j - 1) and columns of d(j + 1). Let j be the first degree at which d(j)
  as reached, rows, columns and entries, is the shifted copy of d(j - p) as
  reached, with j - p >= r. The input follows its tail from j - p on, so its
  d(j + 1) is the copy of d(j + 1 - p); the cancellations at j are the
  copies of those at j - p and drop the copied columns, so d(j + 1) as
  reached is the copy of d(j + 1 - p) as reached, and by induction every
  step from j on is the shifted copy of the step one period in. The sweep
  runs on through end, the ``TailSpec.two_period_end`` of the tail from j,
  where the input stores d(end), and stops. The terms through end and the
  differentials through end - 1 are final, and they repeat from j: term(j)
  is the columns of the reached d(j) less those the cancellations at j drop,
  the copy of term(j - p), and d(j) also loses the rows of the cancellations
  at j + 1, copies of those at j + 1 - p. One period would do; the second is
  checked: every swept degree for d∘d, and the stretch from j for the
  pattern (``_tail_break``). The log ends at end, and the witnesses are
  replayed from it and copied past it (``_copy_outward``). F[i] and G[i] are
  final once the cancellations at i - 1 and i are made, copies for
  i >= j + 1, so past end each is the one a period in, shifted. h[i] sums
  the rank-one terms of the cancellations at i - 1, which read G[i - 1] and
  F[i], so it is a copy for i >= j + 2 and is copied past end + 1, through
  the original's top M: by the reduction margin above, M changes no entry
  below it, and M, with no d(M), has none, so these are the h a full sweep
  makes. ``reduce_on_window`` hands the stretch to ``attach_tail`` with the
  stop's tail, which copies it through the kept window; the kept tail is
  found at the kept edge, as for a full sweep, and its repeat is j where the
  stop's pattern is the found one taken once or twice (``_carry_repeat``).
  Where the stretch holds no term from j on, it carries no tail, and the
  reduction is bounded (the gap rule below). Left tails are swept whole:
  their sweep starts at the cut.
* Gap rule (``attach_tail``). Let the content clipped to the window end at
  degree ``end`` with its last term nonzero, and let the gap be the number
  of degrees from ``end`` out to the window's edge. A tail of period p
  claims term(end + o·p) = term(end)<s>, which is nonzero. When gap >= p,
  degree end + o·p lies inside the window, where it is empty, so the
  pattern breaks inside the window and no tail can be claimed. Only when
  gap < p does the content reach the last period before the edge, and the
  found tail is kept. Otherwise a complex that carries no tail is bounded,
  and so is an empty clip: the reduction of a tailed complex, computed
  with margin past the window (the reduction margin above), is the caller
  that ends there. Content ending within one degree of the edge (gap <= 1)
  without a pattern cannot tell bounded from cut, and raises
  ``WindowTooSmall``. A carried tail repeats with a term in every period,
  so a complex that carries one is never bounded: where no tail is kept,
  ``attach_tail`` raises ``WindowTooSmall``. Neither is a resolution cut at
  the floor, which raises where it keeps none. D, CK and the resolutions
  reach the edge with content (gap 0) at every call of the suite and the
  eval pool.
* Complete CK degrees (``functors._ck_cells``, ``functors._ck_total``).
  Cell (k, i) of X ⊗ CK, projector column k and X^i, lies in total degree
  k + i. With columns k <= K and X starting at x_lo, total degree n is
  complete, every cell of it built, exactly when n <= x_lo + K. The output
  window reads degrees through out_hi, and X is materialized through
  out_hi: X^i with i > out_hi meets only degrees past out_hi. The
  bicomplex is built through the head of the CK period below, the
  two-period end of its tail from x_hi + 3, so K = head - x_lo.
* CK period (``functors.ck_bicomplex``, ``functors._ck_total``,
  ``functors.CK_on_map``). X stops at its top x_hi, so each cell (k, i) of
  total degree n has k = n - i >= n - x_hi: past x_hi every cell lies in a
  column k >= 1, and from x_hi + 3 on in a column k >= 3. Column k >= 1 is
  X ⊗ θ<1 - 2k>, so its θ-parts are column 1's shifted by -2(k - 1), and so
  is m ⊗ id on it; the structure map out of it alternates β and γ
  (``quiver.structure_map_on_column``), so d1 on column k is d1 on column
  k - 2 shifted by -4 for k >= 3, and Tot's sign (-1)^k on d2 has period 2
  too. Hence for n >= x_hi + 3, Tot^n has the cells of Tot^(n-2) moved two
  columns right, in the same order and at the same offsets, and
  Tot^n = Tot^(n-2)<-4>, d(n) = d(n-2)<-4>: a right tail of period 2 and
  shift -4 from x_hi + 3, its repeat. ``_ck_total`` builds this tail and
  computes Tot through the head, its ``TailSpec.two_period_end``. A window
  with out_hi < head raises ``WindowTooSmall`` before any cell is built, and
  so does every nonzero right-tailed X: it is materialized through out_hi,
  so x_hi = out_hi. ``total_complex`` checks d∘d on the head, so that a
  broken d∘d is reported as such; ``TailSpec.certify`` checks the tail
  there, as for D, and ``attach_tail`` copies Tot on to out_hi by it (see
  the two-period seam) and finds the printed tail at out_hi. From
  out_hi - 3 >= x_hi + 3 on Tot repeats with period 2, so the found tail has
  period 2, or period 1 and shift -2 where two degrees there repeat so: then
  every degree further out does, each the copy of one two degrees in. A map
  f ⊗ id has the cells of its source and target, so its component at n is
  the one at n - 2 shifted by -4 once n passes both tops by 3: it is built
  through max(top of source, top of target) + 2 and copied beyond. The
  offsets it is built at are those of each side's complete cells through
  its built degree (``functors._ck_cells``), in ``total_layout`` order: the
  same cells the object's total complex holds there, computed or copied.
* D's head (``functors._koszul_D``). A basis vector of bidegree (r, j) lands
  in degree r + j. Let the input x have a left tail of period p and shift s.
  One period outward moves r by -p and the internal degrees by s, so a
  term's degrees in D by s - p; only for s > p does each degree of D read
  finitely many terms, and otherwise D raises ``RegimeError``. Every output
  of P has p = 1 and s = 2. Let e be a degree from which x follows its
  tail: the tail's ``repeat``, which the construction of x certified. Let
  reach be the highest degree a term above e reaches, the largest
  r + (top internal degree of x^r) over the stored r > e; a formal summand
  P(v)<k> spans the degrees k + deg(q) for the paths q of P(v), so this
  bound realizes no term. Past reach,
  D^q reads only the terms x^r with r <= e, which repeat, and
  (r, j) -> (r - p, j + s) sends D^q onto D^(q + s - p) in the same order,
  internally shifted by -s, with the scalar parts and arrow actions that x
  repeats. D's differential carries the sign (-1)^q, so D has a right tail
  of period P = s - p, doubled when s - p is odd, and shift -s·P/(s - p),
  from q0 = max(reach + 1, out_lo) + P, the first degree whose copy source
  lies past reach and in the window; q0 is the tail's repeat. D is computed
  and its d∘d validated on (out_lo, head), head the tail's
  ``TailSpec.two_period_end``; the derived tail is checked there by
  ``TailSpec.certify``, and ``attach_tail`` copies it on to out_hi (see the
  two-period seam) and finds the stored tail at out_hi. The copy starts at
  the head's top stored degree, which lies past q0: a vector of the tail's
  innermost period lands at most s - p past reach, its copies land every
  s - p degrees above, so each P consecutive degrees past q0 hold a summand.
  When head > out_hi the head is stored past the window, and ``attach_tail``
  keeps the tail it finds at out_hi only where that tail holds on the head's
  degrees past out_hi and on one period of their copies: from there each
  degree and its reference are the copies of two of those, P degrees in, so
  the found pattern holds on the whole tail. A pattern that the window's
  edge shows and the head past it breaks raises ``WindowTooSmall``, and so
  does a window that holds none of D's terms. The read: walking down from e,
  degree r - p lands s - p higher than degree r, so once a whole input
  period lands above head + 1 every degree further out does too, and only
  the degrees from that period to the stored top are materialized and
  realized. A map f: X -> Y is read off D of its mapping cone
  (``functors._cone``), cone^i = X^(i+1) ⊕ Y^i on the degrees where either
  side is stored, each tailed side materialized there, repeating with the
  pattern the sides share (``TailSpec.common``; sides that share none are a
  ``RegimeError``), from the outer of the sides' repeats. D is termwise, so
  D(cone)^q is D(X)^(q+1) ⊕ D(Y)^q, its differential has -d of D(X) and d of
  D(Y) on the diagonal and D(f)^(q+1) below it, and its d∘d states D(f)'s
  chain identity. D is built on (out_lo - 1, out_hi), so both sides and the
  components come from one head with one d∘d check; a tailed side takes the
  derived tail (from q0 + 1 for X), and the components past the head are
  copied by it.
* Lift repeat (``functors.lift_through_resolutions``). The comparison lift φ
  between two resolutions solves at each degree i < 0 the system
  d_N(i)∘φ_i = φ_(i+1)∘d_M(i), which reads the two differentials at i and
  φ_(i+1). Let both resolutions follow their doubled pattern (period p,
  shift s, ``TailSpec.common`` with k = 2) from e on: e is the outer of the
  degrees from which the two resolutions' repeats carry them into that
  pattern (``TailSpec.implied_from``; -3 for ℙ(e(1)) at every depth), and
  no walk reads a degree for it. It is not the seam of ``_common_tail``,
  which keeps the outer stored start where the walk stops further out,
  since a ladder reads the pattern only a period past its seam and the lift
  reads it from e on. Let φ_i = φ_(i+p)<s> with i - 1 <= e and
  i + p <= 0. Then the system at i - 1 is the system at i - 1 + p shifted by
  s, with the same coordinates in the same order, and ``solve_from_columns``
  returns a solution fixed by the system alone (its reduced form), so
  φ_(i-1) = φ_(i-1+p)<s>, and by induction every component below i is the
  copy of the one p above. The lift stops there and ``_copy_outward`` fills
  the rest down to the higher of the two bottoms; below that bottom a
  component maps into or out of zero. ℙ(e(1)) solves degrees 0, -1 and -2 at
  every depth.
* Resolution repeat (``resolutions.resolve_complex``). The step that
  computes degree k of a resolution of Y covers the pairs (y, z), y in Y^k
  and z a cycle of P^(k+1), with d_Y(y) equal to the augmentation of z.
  Below the lowest term ylo of a bounded Y, for k <= ylo - 2, Y^k and
  Y^(k+1) are zero and the step reads only d(k + 1): a minimal cover of
  its kernel. Such a step is pure and takes that kernel alone: with Y^k and
  Y^(k+1) zero, Y^k ⊕ Z is Z and the map (d_Y, -ε∘incl_Z) lands in zero,
  so the fiber product W is all of Z. Its reduced basis is the reduced form
  of Z's unit vectors, which is those unit vectors in order, so W is Z on
  its own basis, with the identity inclusion. Shift by s moves each basis
  vector of P^(k+1) s degrees up and keeps the order within a degree, from
  which the kernel and the cover's generators are chosen, so d(k + 1)<s>
  gives d(k)<s>. If d(i) = d(i + p)<s>, terms included, with
  i + p <= ylo - 1, the step at i - 1 thus repeats the step at
  i + p - 1 <= ylo - 2 shifted, and by induction every degree below i is
  the copy of the one p above. The descent stops there, p <= 4 as in the
  seam, and ``attach_tail`` copies it on to the floor (see the two-period
  seam). The bound is tight: the step at ylo - 1 reads the augmentation.
  A left-tailed input has terms down to the floor and is resolved in full.
  Below a bounded input a descent that reaches the floor with no repeat
  takes the step past it as well: only when that step is nonzero does the
  resolution go on, and only then is it cut at the floor and must show its
  tail; otherwise it is finite and ends where its last term stands.
* P's depth (``functors.projector_depth``): hi - lo + 6. P's resolution is
  stored that many degrees down. Below a bounded input the covers stop at
  the resolution repeat, so the depth sets the stored window, not the
  number of covers computed. D sends P's homological degree r and
  internal degree s to r + s, and down P's resolutions s grows by 2 per
  degree (their tails have period 1 and shift 2), so each degree of depth
  carries D∘P one degree further up: reading D∘P on (lo, hi) takes about
  hi - lo degrees. The suite gives the same reports from depth hi - lo on
  and fails a check at hi - lo - 1 (N = 8, 12, 16). The other 6 degrees
  are kept because the eval language prints P's resolution window, so the
  value is part of its output.
* Homotopy reach (``solve_homotopy``): ±1. The homotopy h is a
  ``ProjChainMap`` of degree -1, h_i: X^i -> Y^(i-1), and the equation at
  degree i, its ``defect`` d∘h_i + h_(i+1)∘d, reads h_i and h_(i+1), so on
  (lo, hi) the unknowns run over lo..hi + 1 and read X through hi + 1 and
  Y from lo - 1; both are materialized one degree past each side.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from fractions import Fraction

from .linalg import (Matrix, _div, kernel_from_columns, search_invertible,
                     solve_from_columns)
from .modules import (GradedModule, ModuleHom, Summand, add_left_multiplication,
                      projective_sum, sum_layout)
from .quiver import AlgebraElement, ConstructionError, Path, PathAlgebra


class RegimeError(ValueError):
    """Operation applied to a complex in the wrong boundedness regime."""


class WindowTooSmall(ValueError):
    """The materialized window cannot certify the requested statement."""


LEFT_TAIL = "left"    # extends to -infinity homologically
RIGHT_TAIL = "right"  # extends to +infinity homologically
_OUTWARD = {LEFT_TAIL: -1, RIGHT_TAIL: 1}   # the direction a tail runs in


def _edge(side: str, window: tuple[int, int]) -> int:
    """The end of ``window`` on ``side``."""
    return window[1] if side == RIGHT_TAIL else window[0]


def shift_summands(term: tuple[Summand, ...], r: int) -> tuple[Summand, ...]:
    return tuple(s.shifted(r) for s in term)


class AlgMatrix:
    """Matrix of homogeneous algebra elements acting by left multiplication.

    Entry z in row i, column j is a map P(cols[j].vertex)<cols[j].shift> ->
    P(rows[i].vertex)<rows[i].shift>, so z = e(rows[i].vertex)·z·e(cols[j].vertex)
    homogeneous of degree cols[j].shift - rows[i].shift. Zero entries allowed.
    """

    __slots__ = ("algebra", "rows", "cols", "entries")

    def __init__(self, algebra: PathAlgebra, rows: tuple[Summand, ...],
                 cols: tuple[Summand, ...], entries=None, validate: bool = True):
        self.algebra = algebra
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        if entries is None:
            zero = algebra.zero()
            self.entries = [[zero] * len(self.cols) for _ in self.rows]
        else:
            self.entries = [list(row) for row in entries]
        if validate:
            self._validate()

    def _validate(self):
        if len(self.entries) != len(self.rows) or \
           any(len(r) != len(self.cols) for r in self.entries):
            raise ConstructionError("AlgMatrix shape mismatch")
        for i, srow in enumerate(self.rows):
            for j, scol in enumerate(self.cols):
                z = self.entries[i][j]
                if z.is_zero():
                    continue
                want_deg = scol.shift - srow.shift
                if z.degree() != want_deg:
                    raise ConstructionError(
                        f"entry ({i},{j}) degree {z.degree()} != {want_deg}")
                sandwich = z.vertex_sandwich()
                if sandwich != (srow.vertex, scol.vertex):
                    raise ConstructionError(
                        f"entry ({i},{j}) sandwich {sandwich} mismatches "
                        f"{(srow.vertex, scol.vertex)}")

    @classmethod
    def zero(cls, algebra, rows, cols):
        return cls(algebra, rows, cols, validate=False)

    @classmethod
    def identity(cls, algebra, term: tuple[Summand, ...]):
        m = cls(algebra, term, term, validate=False)
        for i, s in enumerate(term):
            m.entries[i][i] = algebra.idempotent(s.vertex)
        return m

    def is_zero(self) -> bool:
        return not any(e.terms for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __mul__(self, other: AlgMatrix) -> AlgMatrix:
        if self.cols != other.rows:
            raise ConstructionError("AlgMatrix composition shape mismatch")
        out = AlgMatrix.zero(self.algebra, self.rows, other.cols)
        # the nonzero entries of each row of the right factor, listed once
        nonzero = [[(j, w) for j, w in enumerate(row) if w.terms]
                   for row in other.entries]
        for row, orow in zip(self.entries, out.entries):
            for z, nz in zip(row, nonzero):
                if not z.terms:
                    continue
                for j, w in nz:
                    v = orow[j]
                    orow[j] = z * w if not v.terms else v + z * w
        return out

    def __add__(self, other: AlgMatrix) -> AlgMatrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ConstructionError("AlgMatrix sum shape mismatch")
        out = AlgMatrix.zero(self.algebra, self.rows, self.cols)
        for i in range(len(self.rows)):
            for j in range(len(self.cols)):
                out.entries[i][j] = self.entries[i][j] + other.entries[i][j]
        return out

    def __neg__(self) -> AlgMatrix:
        return self.scale(-1)

    def __sub__(self, other: AlgMatrix) -> AlgMatrix:
        return self + (-other)

    def scale(self, c) -> AlgMatrix:
        out = AlgMatrix.zero(self.algebra, self.rows, self.cols)
        for i in range(len(self.rows)):
            for j in range(len(self.cols)):
                out.entries[i][j] = self.entries[i][j].scale(c)
        return out

    def place(self, blk: AlgMatrix, ro: int, co: int) -> None:
        """Copy ``blk`` into this matrix with its top-left entry at (ro, co)."""
        for r, row in enumerate(blk.entries):
            self.entries[ro + r][co:co + len(row)] = row

    def submatrix(self, rows: list[int], cols: list[int]) -> AlgMatrix:
        """The entries at ``rows`` and ``cols``, in the order listed."""
        return AlgMatrix(self.algebra, tuple(self.rows[i] for i in rows),
                         tuple(self.cols[j] for j in cols),
                         [[self.entries[i][j] for j in cols] for i in rows],
                         validate=False)

    def shifted(self, r: int) -> AlgMatrix:
        """Same entries between internally shifted summands."""
        return AlgMatrix(self.algebra, shift_summands(self.rows, r),
                         shift_summands(self.cols, r), self.entries,
                         validate=False)

    def all_entries_in_radical(self) -> bool:
        return all(e.scalar_part() == 0 for row in self.entries for e in row)

    def __repr__(self):
        body = "; ".join(" ".join(e.word() for e in row) for row in self.entries)
        return f"AlgMatrix[{body}]"


def _is_copy(m: AlgMatrix, ref: AlgMatrix, s: int) -> bool:
    """m == ref.shifted(s), read off the summands and the entry lists
    without building the copy."""
    return (m.entries == ref.entries and m.rows == shift_summands(ref.rows, s)
            and m.cols == shift_summands(ref.cols, s))


@dataclass(frozen=True)
class TailSpec:
    """An eventually periodic tail: for every degree i from ``start``
    outward, term(i) = term(i - outward·period)<shift>, and so is d(i).

    ``start`` is where the stored window shows the pattern, two periods in
    from its edge for a detected tail; ``to_json`` prints it. ``repeat`` is
    the innermost degree from which the construction certified the pattern
    on its stored degrees, no further out than ``start``: D's q0, the
    resolution repeat, x_hi + 3 for the tail ``functors._ck_total`` derives
    (the CK period), a reduction's stop (the reduction repeat of "Windows
    and margins" in the module docstring), the outer of a cone's sides'
    repeats (``functors._cone``), and ``start`` itself for a tail detected
    or written by hand. It is neither printed nor compared, so fixtures and
    equality read the pattern alone. ``attach_tail`` keeps a carried repeat
    where it finds the same pattern at the edge, ``ProjComplex.shift`` moves
    it, and the right-tailed sweep of ``gaussian_reduce``, D's head, P's
    lift and the ladder seam's walk read it. Each
    tail rule of "Windows and margins" is written once, here:
    ``two_period_end``, ``reference_bound``, pattern agreement (``common``,
    ``implied_from``) and ``certify``. A tail that does not run left or
    right, or whose period is below 1, is a ``ValueError``."""
    side: str       # LEFT_TAIL or RIGHT_TAIL
    start: int      # pattern governs every degree from here outward
    period: int
    shift: int      # internal shift per period step, moving outward
    repeat: int = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.side not in _OUTWARD or self.period < 1:
            raise ValueError(f"a tail runs left or right with a period of at "
                             f"least 1, not {self.side!r} with {self.period!r}")
        if self.repeat is None:
            object.__setattr__(self, "repeat", self.start)

    def moved(self, r: int) -> TailSpec:
        """The same pattern r degrees up, its start and repeat moved."""
        return TailSpec(self.side, self.start + r, self.period, self.shift, self.repeat + r)

    @property
    def outward(self) -> int:
        """The direction the tail runs in: +1 on a right tail, -1 on a left."""
        return _OUTWARD[self.side]

    def edge(self, window: tuple[int, int]) -> int:
        """The end of ``window`` on the tail side."""
        return _edge(self.side, window)

    def outer(self, *degrees: int) -> int:
        """The outermost of ``degrees`` on the tail side."""
        return max(degrees) if self.outward > 0 else min(degrees)

    def inner(self, *degrees: int) -> int:
        """The innermost of ``degrees`` on the tail side."""
        return min(degrees) if self.outward > 0 else max(degrees)

    def two_period_end(self) -> int:
        """The degree through which the pattern shows twice from ``start``."""
        return self.start + self.outward * (2 * self.period - 1)

    def reference_bound(self, window: tuple[int, int]) -> int:
        """The innermost degree of ``window`` whose reference, one period
        in, lies in ``window``."""
        return self.inner(*window) + self.outward * self.period

    @staticmethod
    def common(tails, k: int) -> TailSpec | None:
        """The pattern of period P = k·lcm of the periods that each of
        ``tails``, of period p and shift s, follows with shift s·P/p, from
        the outer of their starts; None where one is None or their sides or
        those shifts differ."""
        if None in tails:
            return None
        period = k * math.lcm(*(t.period for t in tails))
        kinds = {(t.side, t.shift * (period // t.period)) for t in tails}
        if len(kinds) != 1:
            return None
        ((side, shift),) = kinds
        return TailSpec(side, tails[0].outer(*(t.start for t in tails)), period, shift)

    def implied_from(self, t: TailSpec) -> int | None:
        """The innermost degree from which a complex that follows this tail
        from its ``repeat`` follows ``t``, where ``t`` is this pattern taken
        k times (``common`` of the two has t's period): k steps of this tail
        from there stay outside the repeat. None where it is not."""
        both = TailSpec.common((self, t), 1)
        if both is None or both.period != t.period:
            return None
        return self.repeat + t.outward * (t.period - self.period)

    def certify(self, c: ProjComplex, message: str) -> None:
        """Give ``c`` this tail where it holds on the stored degrees from
        ``start`` out, else raise ``WindowTooSmall(message)``."""
        if _tail_break(c, self) is not None:
            raise WindowTooSmall(message)
        c.tail = self


def _copy_outward(values: dict, t: TailSpec, edge: int, far: int, shift) -> None:
    """The one copy rule of the tail ``t``: each degree i past ``edge`` out
    to ``far`` takes the value one period in, shifted, where that value is
    present: values[i] = shift(values[i - o·p], s)."""
    o, step = t.outward, t.outward * t.period
    for i in range(edge + o, far + o, o):
        v = values.get(i - step)
        if v is not None:
            values[i] = shift(v, t.shift)


class _StoredComplex:
    """What ``ProjComplex`` and ``Complex`` share: terms and differentials
    stored on a window, and their extension past it by the tail rule."""

    def window(self) -> tuple[int, int]:
        if not self.terms:
            return (0, -1)
        return (min(self.terms), max(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def materialize(self, lo: int, hi: int):
        """Extend the stored window to cover [lo, hi] by the tail's copy
        rule, terms and differentials alike; only the tail side is extended.
        A stored window shorter than one period cannot seed the extension:
        ``WindowTooSmall``, with the text of ``check_tail_seam``."""
        terms, diffs = dict(self.terms), dict(self.diffs)
        t = self.tail
        if t is not None:
            o, stored = t.outward, self.window()
            edge, far = t.edge(stored), t.edge((lo, hi))
            if o * (far - edge) > 0 and stored[1] - stored[0] + 1 < t.period:
                raise WindowTooSmall(f"window {stored} cannot exhibit tail of {self.name}")
            _copy_outward(terms, t, edge, far, self._shift_term)
            # d(j) joins j to j + 1: on a right tail its edge is one lower
            _copy_outward(diffs, t, min(edge, edge - o), min(far, far - o),
                          self._shift_diff)
        return type(self)(self.algebra, terms, diffs, self.tail, self.name,
                          validate=False)

    def clip(self, lo: int, hi: int):
        """The stored degrees in [lo, hi], without a tail."""
        terms = {i: t for i, t in self.terms.items() if lo <= i <= hi}
        diffs = {i: d for i, d in self.diffs.items() if lo <= i and i + 1 <= hi}
        return type(self)(self.algebra, terms, diffs, None, self.name, validate=False)


class ProjComplex(_StoredComplex):
    """Complex of formal sums of shifted projectives over one algebra."""

    _shift_term = staticmethod(shift_summands)
    _shift_diff = staticmethod(AlgMatrix.shifted)
    _is_copy = staticmethod(_is_copy)

    def __init__(self, algebra: PathAlgebra, terms: dict[int, tuple[Summand, ...]],
                 diffs: dict[int, AlgMatrix], tail: TailSpec | None = None,
                 name: str = "X", validate: bool = True):
        self.algebra = algebra
        self.terms = {i: tuple(t) for i, t in terms.items() if t}
        self.diffs = {i: d for i, d in diffs.items()
                      if d.rows and d.cols and not d.is_zero()}
        self.tail = tail
        self.name = name
        if validate:
            self._validate()

    # --- shape ---

    def term(self, i: int) -> tuple[Summand, ...]:
        return self.terms.get(i, ())

    def diff(self, i: int) -> AlgMatrix:
        d = self.diffs.get(i)
        if d is None:
            return AlgMatrix.zero(self.algebra, self.term(i + 1), self.term(i))
        return d

    def _validate(self):
        for i, d in self.diffs.items():
            if d.cols != self.term(i) or d.rows != self.term(i + 1):
                raise ConstructionError(f"differential at {i} has wrong shape in {self.name}")
        lo, hi = self.window()
        for i in range(lo, hi):
            dd = self.diff(i + 1) * self.diff(i)
            if not dd.is_zero():
                raise ConstructionError(f"d∘d != 0 at degree {i} of {self.name}")
        if self.tail is not None:
            self.check_tail_seam()

    def check_tail_seam(self) -> None:
        """The stored window must exhibit the tail pattern over two periods,
        and every stored degree from ``start`` outward must follow it: the
        two-period seam of "Windows and margins" in the module docstring."""
        t = self.tail
        if t.outward * (t.edge(self.window()) - t.two_period_end()) < 0:
            raise WindowTooSmall(
                f"window {self.window()} cannot exhibit tail of {self.name}")
        broken = _tail_break(self, t)
        if broken is not None:
            kind, i = broken
            raise ConstructionError(f"tail {kind} pattern broken at {i} in {self.name}")

    # --- constructions ---

    @classmethod
    def zero_complex(cls, algebra: PathAlgebra) -> ProjComplex:
        return cls(algebra, {}, {}, name="0")

    @classmethod
    def from_summand(cls, algebra: PathAlgebra, vertex: str, shift: int = 0,
                     name: str | None = None) -> ProjComplex:
        """P(vertex)<shift> in homological degree 0."""
        s = Summand(vertex, shift)
        return cls(algebra, {0: (s,)}, {}, name=name or s.label())

    def shift(self, internal: int = 0, homological: int = 0) -> ProjComplex:
        """<internal>[homological] with the sign (-1)^homological on d."""
        terms = {i - homological: shift_summands(t, internal)
                 for i, t in self.terms.items()}
        sign = -1 if homological % 2 else 1
        diffs = {}
        for i, d in self.diffs.items():
            nd = d.shifted(internal)
            if sign < 0:
                nd = nd.scale(-1)
            diffs[i - homological] = nd
        tail = self.tail and self.tail.moved(-homological)
        return ProjComplex(self.algebra, terms, diffs, tail,
                           f"{self.name}<{internal}>[{homological}]", validate=False)

    def summand_count(self) -> int:
        return sum(len(t) for t in self.terms.values())

    def pretty(self) -> str:
        lo, hi = self.window()
        if self.is_zero():
            return "0"
        chunks = []
        for i in range(lo, hi + 1):
            t = self.term(i)
            label = " ⊕ ".join(s.label() for s in t) if t else "0"
            chunks.append(f"[{i}] {label}")
        body = "  →  ".join(chunks)
        if self.tail is not None:
            body = ("⋯  →  " + body) if self.tail.side == LEFT_TAIL else (body + "  →  ⋯")
        return body

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "name": self.name,
            "terms": {str(i): [[s.vertex, s.shift] for s in t]
                      for i, t in sorted(self.terms.items())},
            "diffs": {str(i): [[e.word() for e in row] for row in d.entries]
                      for i, d in sorted(self.diffs.items())},
            "tail": None if self.tail is None else {
                "side": self.tail.side, "start": self.tail.start,
                "period": self.tail.period, "shift": self.tail.shift},
        }

    def __repr__(self):
        return f"ProjComplex({self.name}, window={self.window()}, tail={self.tail})"


def _has_tail(c: ProjComplex, side: str) -> bool:
    return c.tail is not None and c.tail.side == side


def _break_at(c: _StoredComplex, t: TailSpec, i: int, hi: int) -> str | None:
    """The one per-degree test of the pattern ``t``: "term" when term(i) is
    not term(i - outward·period)<shift>, "diff" when d(i) is not d(i -
    outward·period)<shift> (tested while i + 1 <= ``hi``, the stored top),
    None when degree i follows the pattern."""
    j, s = i - t.outward * t.period, t.shift
    if c.term(i) != c._shift_term(c.term(j), s):
        return "term"
    if i < hi and not c._is_copy(c.diff(i), c.diff(j), s):
        return "diff"
    return None


def _tail_break(c: _StoredComplex, t: TailSpec) -> tuple[str, int] | None:
    """The first break of the pattern ``t`` in the stored window of ``c``:
    walks from ``t.start`` outward to the window's edge and returns
    (``_break_at``'s kind, i) at the first degree that fails, or None when
    the stored degrees follow the pattern."""
    hi = c.window()[1]
    for i in range(t.start, t.edge(c.window()) + t.outward, t.outward):
        if (kind := _break_at(c, t, i, hi)) is not None:
            return kind, i
    return None


def _repeat_start(t: TailSpec, window: tuple[int, int], follows) -> int:
    """The innermost degree of ``window`` from which ``follows(i)`` holds at
    every degree i out to the window's edge on the side of ``t``. The walk
    runs inward from that edge and stops at the first degree that fails, or
    at ``TailSpec.reference_bound``; past that it returns the degree past
    the edge."""
    o = t.outward
    e = t.edge(window) + o
    for i in range(t.edge(window), t.reference_bound(window) - o, -o):
        if not follows(i):
            break
        e = i
    return e


def detect_tail(c: ProjComplex, side: str) -> TailSpec | None:
    """Smallest periodic pattern, of period at most 4, visible over two
    periods at the outward end (the two-period seam of "Windows and
    margins" in the module docstring). A found tail passes
    ``check_tail_seam``: it is accepted by the same walk."""
    if c.is_zero():
        return None
    window = c.window()
    edge = _edge(side, window)
    for p in range(1, 5):
        ref_out, ref_in = c.term(edge), c.term(edge - _OUTWARD[side] * p)
        if len(ref_out) != len(ref_in):
            continue
        t = TailSpec(side, edge, p, ref_out[0].shift - ref_in[0].shift)
        t = t.moved(edge - t.two_period_end())   # shown twice through the edge
        if t.outer(t.start, t.reference_bound(window)) == t.start and _tail_break(c, t) is None:
            return t
    return None


def attach_tail(c: ProjComplex, window: tuple[int, int], side: str,
                message: str) -> ProjComplex:
    """The one rule at a window's edge: ``c``, extended through ``window``
    by the tail it carries (a repeat its construction certified) and
    clipped to ``window``, with the tail ``detect_tail`` finds there on
    ``side``, or bounded, or ``WindowTooSmall(message)``, by the gap rule of
    "Windows and margins" in the module docstring; a complex that carries a
    tail is never bounded. ``c`` must be validated on its stored degrees: by
    the two-period seam the copies need no check, so the result is not
    validated again. The carried tail's repeat is kept where it implies the
    found tail (``_carry_repeat``). Where ``c`` stores computed degrees past
    ``window`` (D's head, a stopped sweep), the found tail must hold on them
    and on one period of their copies, or ``WindowTooSmall``."""
    carried = c.tail
    if carried is not None:
        c = c.materialize(*window)
    out = c.clip(*window)
    tail = None if out.is_zero() else detect_tail(out, side)
    # degrees between the content's outward end and the window's edge
    gap = _OUTWARD[side] * (_edge(side, window) - _edge(side, out.window()))
    if tail is None or gap >= tail.period:
        # no tail kept: bounded where none is carried and the content ends
        # inside the window: empty, a pattern broken there, or gap >= 2
        if carried is None and (out.is_zero() or tail is not None or gap > 1):
            return out
        raise WindowTooSmall(message)
    o, edge = tail.outward, tail.edge(c.window())
    if carried is not None and o * (edge - tail.edge(window)) > 0:
        # c holds computed degrees past the window: the pattern found at its
        # edge is the object's only if it holds on them and on one period of
        # their copies, which repeat every degree further out
        far = edge + o * carried.period
        past = c.materialize(*((window[0], far) if o > 0 else (far, window[1])))
        tail.certify(past, message)
    return ProjComplex(c.algebra, out.terms, out.diffs,
                       _carry_repeat(tail, carried, out.window()), out.name,
                       validate=False)


def _carry_repeat(tail: TailSpec, carried: TailSpec | None,
                  window: tuple[int, int]) -> TailSpec:
    """``tail``, found on the stored ``window``, with the repeat of
    ``carried`` where that pattern is the found one taken once or twice
    (``TailSpec.implied_from``): moved out to the reference bound, and no
    further out than ``tail.start``, which is certified as well.
    ``detect_tail`` checked the found pattern on the 2p degrees out to the
    edge, two of its periods and so one of carried's. A degree i past
    carried's repeat is the copy of one of them, i + m·P for its period P,
    and so is its reference i - o·p: the found pattern holds at i."""
    if carried is None or carried.period > 2 * tail.period \
            or tail.implied_from(carried) is None:
        return tail
    bound = tail.reference_bound(window)
    return replace(tail, repeat=tail.inner(tail.start, tail.outer(carried.repeat, bound)))


# ---------------------------------------------------------------------------
# chain maps and homotopies
# ---------------------------------------------------------------------------

class ProjChainMap:
    """Map of complexes of homological degree ``degree`` given by AlgMatrix
    components φ_i: source^i -> target^(i + degree): a chain map at degree
    0, a homotopy h: X^i -> Y^(i-1) at degree -1. The chain identity is
    stated once, by ``sides`` and ``defect``."""

    def __init__(self, source: ProjComplex, target: ProjComplex,
                 maps: dict[int, AlgMatrix], name: str = "f",
                 validate: bool = True, degree: int = 0):
        self.source = source
        self.target = target
        self.maps = {i: m for i, m in maps.items() if m.rows and m.cols}
        self.name = name
        self.degree = degree
        if validate:
            self._validate()

    def component(self, i: int) -> AlgMatrix:
        m = self.maps.get(i)
        if m is None:
            return AlgMatrix.zero(self.source.algebra, self.target.term(i + self.degree),
                                  self.source.term(i))
        return m

    def sides(self, i: int) -> tuple[AlgMatrix, AlgMatrix]:
        """(d∘φ_i, φ_(i+1)∘d), the two sides of the chain identity at i."""
        return (self.target.diff(i + self.degree) * self.component(i),
                self.component(i + 1) * self.source.diff(i))

    def defect(self, i: int) -> AlgMatrix:
        """d∘φ_i - (-1)^degree φ_(i+1)∘d: zero at every degree for a chain
        map, and d∘h + h∘d for a homotopy h."""
        out, back = self.sides(i)
        return out + back if self.degree % 2 else out - back

    def _validate(self):
        for i, m in self.maps.items():
            if m.cols != self.source.term(i) or m.rows != self.target.term(i + self.degree):
                raise ConstructionError(f"chain map component at {i} has wrong shape")
        self.check_identity(-math.inf, math.inf)

    def check_identity(self, lo: float, hi: float) -> None:
        """The chain identity at each degree from ``lo`` to ``hi`` where it
        reads stored degrees. A map functor that copies components past the
        ones it computed passes the degrees that read a computed one."""
        # the identity at i reads source^i and target^(i+degree+1); past a
        # cut edge that has a tail the unstored degree is not zero, so not there
        (s_lo, s_hi), (t_lo, t_hi) = self.source.window(), self.target.window()
        t_lo, t_hi = t_lo - self.degree, t_hi - self.degree
        lo = max(lo, s_lo, t_lo if _has_tail(self.target, LEFT_TAIL) else t_lo - 1)
        hi = min(hi, s_hi - 1 if _has_tail(self.source, RIGHT_TAIL) else s_hi, t_hi - 1)
        for i in range(lo, hi + 1):
            out, back = self.sides(i)
            if out != (-back if self.degree % 2 else back):
                raise ConstructionError(
                    f"{self.name} does not commute with differentials at {i}")

    @classmethod
    def identity(cls, c: ProjComplex) -> ProjChainMap:
        maps = {i: AlgMatrix.identity(c.algebra, c.term(i)) for i in c.terms}
        return cls(c, c, maps, name="id", validate=False)

    def compose(self, other: ProjChainMap) -> ProjChainMap:
        """self∘other, of degree self.degree + other.degree."""
        d = other.degree
        maps = {}
        for i in {j - d for j in self.maps} | set(other.maps):
            maps[i] = self.component(i + d) * other.component(i)
        return ProjChainMap(other.source, self.target, maps,
                            f"{self.name}∘{other.name}", validate=False,
                            degree=self.degree + d)

    def __add__(self, other: ProjChainMap) -> ProjChainMap:
        if self.degree != other.degree:
            raise ConstructionError("maps of different degrees cannot be added")
        maps = {}
        for i in set(self.maps) | set(other.maps):
            maps[i] = self.component(i) + other.component(i)
        return ProjChainMap(self.source, self.target, maps, self.name,
                            validate=False, degree=self.degree)

    def __sub__(self, other: ProjChainMap) -> ProjChainMap:
        return self + other.scale(-1)

    def scale(self, c) -> ProjChainMap:
        return ProjChainMap(self.source, self.target,
                            {i: m.scale(c) for i, m in self.maps.items()},
                            self.name, validate=False, degree=self.degree)

    def witnesses(self, f: ProjChainMap, g: ProjChainMap,
                  window: tuple[int, int]) -> bool:
        """For a homotopy: f - g = d∘h + h∘d on the window."""
        lo, hi = window
        return all(f.component(i) - g.component(i) == self.defect(i)
                   for i in range(lo, hi + 1))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps.values())

    def __repr__(self):
        return f"ProjChainMap({self.name}: {self.source.name} -> {self.target.name})"


# ---------------------------------------------------------------------------
# realization to module level
# ---------------------------------------------------------------------------

class Complex(_StoredComplex):
    """Module-level complex: terms are graded modules, differentials are
    internally degree-0 module maps."""

    _shift_term = staticmethod(GradedModule.shift)
    _shift_diff = staticmethod(ModuleHom.shift)
    _is_copy = staticmethod(lambda m, ref, s: m == ref.shift(s))

    def __init__(self, algebra: PathAlgebra, terms: dict[int, GradedModule],
                 diffs: dict[int, ModuleHom], tail: TailSpec | None = None,
                 name: str = "X", validate: bool = True):
        self.algebra = algebra
        self.terms = {i: m for i, m in terms.items() if not m.is_zero()}
        self.diffs = {i: d for i, d in diffs.items() if not d.is_zero()}
        self.tail = tail
        self.name = name
        if validate:
            self._validate()

    def term(self, i: int) -> GradedModule:
        return self.terms.get(i) or GradedModule.zero_module(self.algebra)

    def diff(self, i: int) -> ModuleHom:
        d = self.diffs.get(i)
        if d is None:
            return ModuleHom(self.term(i), self.term(i + 1), 0, {}, "0", validate=False)
        return d

    def _validate(self):
        for i, d in self.diffs.items():
            if d.degree != 0:
                raise ConstructionError("differential must be internally degree 0")
        lo, hi = self.window()
        for i in range(lo, hi):
            comp = self.diff(i + 1).compose(self.diff(i))
            if not comp.is_zero():
                raise ConstructionError(f"d∘d != 0 at {i} of {self.name}")

    @classmethod
    def from_module(cls, M: GradedModule, degree: int = 0) -> Complex:
        return cls(M.algebra, {degree: M}, {}, name=M.name)


def realize(pc: ProjComplex) -> Complex:
    """Module-level realization of a formal complex of projectives."""
    terms = {i: projective_sum(pc.algebra, t) for i, t in pc.terms.items()}
    diffs = {i: _alg_matrix_to_hom(d, terms[i], terms[i + 1], pc.algebra)
             for i, d in pc.diffs.items() if (i + 1) in terms}
    return Complex(pc.algebra, terms, diffs, pc.tail, pc.name, validate=False)


def _alg_matrix_to_hom(d: AlgMatrix, src: GradedModule, tgt: GradedModule,
                       alg: PathAlgebra) -> ModuleHom:
    """The degree-0 module map between the realized sums src = ⊕ d.cols and
    tgt = ⊕ d.rows that left-multiplies by each entry of d, checked to
    commute with the arrow actions."""
    mats: dict[int, Matrix] = {}
    src_layout = sum_layout(alg, d.cols)
    for row, t, tgt_positions in zip(d.entries, d.rows, sum_layout(alg, d.rows)):
        for z, s, src_positions in zip(row, d.cols, src_layout):
            if z.is_zero():
                continue
            if z.degree() + t.shift - s.shift != 0:
                raise ConstructionError("differential block is not degree 0")
            add_left_multiplication(mats, z, src_positions, tgt_positions, src, tgt)
    return ModuleHom(src, tgt, 0, mats, "d", validate=True)


# ---------------------------------------------------------------------------
# bicomplexes and totalization
# ---------------------------------------------------------------------------

class ProjBicomplex:
    """Doubly indexed terms with genuinely commuting differentials; the total
    complex inserts the sign (-1)^p on the second differential, where p is
    the first (horizontal) index.

    A bicomplex has no check of its own: its identities are checked once,
    by ``total_complex``. From cell (p, q), Tot's d∘d lands in three
    distinct cells, with blocks d1∘d1 at (p + 2, q), d2∘d2 at (p, q + 2) and
    (-1)^p·(d1∘d2 - d2∘d1) at (p + 1, q + 1), so Tot's d∘d = 0 holds exactly
    when d1∘d1 = 0, d2∘d2 = 0 and d1, d2 commute on every cell."""

    def __init__(self, algebra: PathAlgebra,
                 terms: dict[tuple[int, int], tuple[Summand, ...]],
                 d1: dict[tuple[int, int], AlgMatrix],
                 d2: dict[tuple[int, int], AlgMatrix],
                 name: str = "XX"):
        self.algebra = algebra
        self.terms = {k: tuple(t) for k, t in terms.items() if t}
        self.d1 = {k: m for k, m in d1.items() if m.rows and m.cols and not m.is_zero()}
        self.d2 = {k: m for k, m in d2.items() if m.rows and m.cols and not m.is_zero()}
        self.name = name

    def term(self, p: int, q: int) -> tuple[Summand, ...]:
        return self.terms.get((p, q), ())

    def D1(self, p: int, q: int) -> AlgMatrix:
        m = self.d1.get((p, q))
        if m is None:
            return AlgMatrix.zero(self.algebra, self.term(p + 1, q), self.term(p, q))
        return m

    def D2(self, p: int, q: int) -> AlgMatrix:
        m = self.d2.get((p, q))
        if m is None:
            return AlgMatrix.zero(self.algebra, self.term(p, q + 1), self.term(p, q))
        return m


def total_layout(cells: dict[tuple[int, int], tuple[Summand, ...]]
                 ) -> dict[int, dict[tuple[int, int], int]]:
    """The antidiagonal layout of the total complex of a bicomplex with the
    terms ``cells``: for each total degree n, the cells (p, q) with p + q = n
    in increasing p, each with the offset of its summands in Tot^n."""
    layout: dict[int, dict[tuple[int, int], int]] = {}
    size: dict[int, int] = {}
    for (p, q) in sorted(cells):
        n = p + q
        layout.setdefault(n, {})[(p, q)] = size.get(n, 0)
        size[n] = size.get(n, 0) + len(cells[(p, q)])
    return layout


def total_complex(bc: ProjBicomplex, name: str | None = None) -> ProjComplex:
    """Antidiagonal direct sums, each the summands of its cells in
    ``total_layout`` order, with differential d1 + (-1)^p d2. Validating
    the total complex checks the identities of ``bc`` (``ProjBicomplex``)."""
    layout = total_layout(bc.terms)
    terms = {n: tuple(s for cell in cells for s in bc.term(*cell))
             for n, cells in sorted(layout.items())}
    diffs: dict[int, AlgMatrix] = {}
    for n, cells in sorted(layout.items()):
        up = layout.get(n + 1)
        if up is None:
            continue
        d = AlgMatrix.zero(bc.algebra, terms[n + 1], terms[n])
        for (p, q), co in cells.items():
            if (p + 1, q) in up:
                d.place(bc.D1(p, q), up[(p + 1, q)], co)
            if (p, q + 1) in up:
                blk = bc.D2(p, q)
                d.place(blk.scale(-1) if p % 2 else blk, up[(p, q + 1)], co)
        diffs[n] = d
    return ProjComplex(bc.algebra, terms, diffs, None, name or f"Tot({bc.name})",
                       validate=True)


# ---------------------------------------------------------------------------
# Gaussian elimination
# ---------------------------------------------------------------------------

class Reduction:
    """``reduced``, the minimal model of ``original``, and the
    homotopy-equivalence witnesses F = ``to_reduced`` (original -> reduced),
    G = ``from_reduced`` (reduced -> original) and h = ``homotopy``, of
    degree -1 on original, with F∘G = id and id - G∘F = dh + hd; F and G
    have the degrees of ``reduced``. The witnesses are built on first read
    from ``log``, the cancellations that reduced ``original``: ``_replay``
    runs once and builds F and G with h's rank-one factors, and h is summed
    from those factors only when it is read. A caller that reads only
    ``reduced`` pays for none of them, and one that reads F and G pays for
    no h.

    ``stop`` is the tail at which the sweep of a right-tailed ``original``
    stopped, None where it swept every degree (the reduction repeat of
    "Windows and margins" in the module docstring). Then ``log`` holds the
    cancellations swept through its ``two_period_end``, the replay runs on
    all of them, and F, G and h past the swept degrees are copies of the
    ones a period in, shifted (``_copy_outward``)."""

    def __init__(self, original: ProjComplex, reduced: ProjComplex, log: list,
                 stop: TailSpec | None):
        self.original = original
        self.reduced = reduced
        self.log = log
        self.stop = stop

    @cached_property
    def _replayed(self) -> tuple[ProjChainMap, ProjChainMap, list]:
        c, red, t = self.original, self.reduced, self.stop
        if t is None:
            F, G, factors = _replay(c, self.log)
        else:
            end = t.two_period_end()
            F, G, factors = _replay(c.clip(c.window()[0], end + 1), self.log)
            for maps in (F, G):
                _copy_outward(maps, t, end, red.window()[1], AlgMatrix.shifted)
        return (ProjChainMap(c, red, {i: F[i] for i in red.terms}, "F", validate=False),
                ProjChainMap(red, c, {i: G[i] for i in red.terms}, "G", validate=False),
                factors)

    to_reduced = property(lambda self: self._replayed[0])
    from_reduced = property(lambda self: self._replayed[1])

    @cached_property
    def homotopy(self) -> ProjChainMap:
        c, t = self.original, self.stop
        h = _homotopy(c, self._replayed[2])
        if t is not None:   # h[i] reads the cancellations at i - 1
            _copy_outward(h.maps, t, t.two_period_end() + 1, c.window()[1],
                          AlgMatrix.shifted)
        return h


def _drop(terms: dict, i: int, k: int, into: AlgMatrix | None,
          out_of: AlgMatrix | None) -> None:
    """Delete summand k of degree i from ``terms``, row k of ``into``, a map
    into degree i, and column k of ``out_of``, a map out of it. Either map
    may be None."""
    t = terms[i] = terms[i][:k] + terms[i][k + 1:]
    if into is not None:
        del into.entries[k]
        into.rows = t
    if out_of is not None:
        for row in out_of.entries:
            del row[k]
        out_of.cols = t


class _Eliminator:
    """Mutable elimination state: the differentials, as ``AlgMatrix``
    copies, and the log of the cancellations made on them, from which
    ``_replay`` builds the witnesses. A cancelled summand leaves the
    differentials through ``_drop``.

    On a right-tailed complex the sweep stops at its first repeat: ``stop``
    is the tail from the degree j whose differential, as the sweep reaches
    it, is the shifted copy of d(j - p) as the sweep reached that one, with
    j - p at or past the input's repeat, and ``end``, its two-period end, is
    the last degree swept (the reduction repeat of "Windows and margins" in
    the module docstring)."""

    def __init__(self, c: ProjComplex):
        self.terms = dict(c.terms)
        self.diffs = {i: AlgMatrix(c.algebra, d.rows, d.cols, d.entries, validate=False)
                      for i, d in c.diffs.items()}
        self.degrees = sorted(self.diffs)   # ``_drop`` removes summands, not degrees
        self.log: list = []
        self.tail = c.tail if _has_tail(c, RIGHT_TAIL) else None
        self.top = c.window()[1]
        self.reached = -math.inf
        self.arrivals: dict[int, AlgMatrix] = {}
        self.stop: TailSpec | None = None
        self.end = math.inf

    def _arrive(self, j: int) -> None:
        """The sweep reaches d(j): on a right tail, stop at j when d(j) is
        the shifted copy of d(j - p) as the sweep reached it, j - p lies at
        or past the input's repeat and the input stores d at the stop's
        two-period end; else keep d(j) as reached, from the repeat on."""
        self.reached, t = j, self.tail
        if t is None or self.stop is not None:
            return
        d, p = self.diffs[j], t.period
        ref = self.arrivals.get(j - p)   # kept from the repeat on: j - p >= repeat
        stop = None if ref is None else TailSpec(RIGHT_TAIL, j, p, t.shift)
        if stop is not None and stop.two_period_end() < self.top and _is_copy(d, ref, t.shift):
            self.stop, self.end = stop, stop.two_period_end()
        elif j >= t.repeat:
            self.arrivals[j] = AlgMatrix(d.algebra, d.rows, d.cols, d.entries,
                                         validate=False)

    def find_pivot(self, start: int):
        """(i, (row, col)): the first entry, row by row, with an invertible
        degree-0 part between equal summands in the lowest differential
        d(i), ``start`` <= i <= ``end``, that has one; None when no d(i)
        does. Each d(i) the scan reaches for the first time is passed to
        ``_arrive``, which may stop the sweep.

        ``gaussian_reduce`` passes the degree of the last cancellation as
        ``start``: below it no differential had a unit, and a cancellation
        at i only rewrites d(i), drops a row of d(i - 1) and a column of
        d(i + 1), so none can have gained one."""
        for i in self.degrees[bisect.bisect_left(self.degrees, start):]:
            if i > self.reached:
                self._arrive(i)
            if i > self.end:
                return None
            d = self.diffs[i]
            for r, (srow, row) in enumerate(zip(d.rows, d.entries)):
                for col, (scol, z) in enumerate(zip(d.cols, row)):
                    if z.terms and srow == scol and z.scalar_part() != 0:
                        return i, (r, col)
        return None

    def eliminate(self, i: int, r: int, col: int):
        """Cancel target summand r of degree i+1 against source summand col
        of degree i along the unit entry λ; Bar-Natan style correction.

        With κ = d(i)[:, col] and β = d(i)[r, :], d(i) gains the Schur
        complement term -κₖλ⁻¹βⱼ at every kept (k, j) where κₖ and βⱼ are
        both nonzero; only nonzero entries are visited. The cancellation is
        logged as (i, r, col, λ⁻¹, κ, β) for ``_replay``: the update writes
        no entry of κ or β, and elements are immutable. Then ``_drop``
        deletes summand col of degree i and summand r of degree i + 1 from
        every differential."""
        d = self.diffs[i]
        lam_inv = _div(1, d.entries[r][col].scalar_part())
        kappa = [(k, row[col]) for k, row in enumerate(d.entries)
                 if k != r and row[col].terms]
        beta = [(j, z) for j, z in enumerate(d.entries[r]) if j != col and z.terms]
        for k, z in kappa:
            row = d.entries[k]
            for j, b in beta:
                row[j] = row[j] - (z * b).scale(lam_inv)
        self.log.append((i, r, col, lam_inv, kappa, beta))
        _drop(self.terms, i, col, self.diffs.get(i - 1), d)
        _drop(self.terms, i + 1, r, d, self.diffs.get(i + 1))


def _replay(c: ProjComplex, log: list) -> tuple[dict, dict, list]:
    """The witnesses F and G of the cancellations ``log`` on ``c``, as maps
    by degree, and the rank-one factors of h. F and G start as identities,
    and each cancellation (i, r, col, λ⁻¹, κ, β) composes them with its step
    maps by one row operation on F and one column operation on G, with no
    whole-matrix products: F[i+1] adds -κₖλ⁻¹·F[i+1][r] to each kept row k,
    and G[i] adds G[i][:, col]·(-βⱼλ⁻¹) to each kept column j. Its term of
    h[i+1] is the rank-one (G[i][:, col]·λ⁻¹) ⊗ F[i+1][r], recorded as
    (i, λ⁻¹, G[i][:, col], F[i+1][r]) for ``_homotopy``. Then ``_drop``
    deletes summand col of degree i and summand r of degree i + 1 from F
    and G. Only nonzero entries are visited."""
    terms = dict(c.terms)
    F = {i: AlgMatrix.identity(c.algebra, t) for i, t in terms.items()}
    G = {i: AlgMatrix.identity(c.algebra, t) for i, t in terms.items()}
    factors = []
    for i, r, col, lam_inv, kappa, beta in log:
        F_i1, G_i = F[i + 1], G[i]
        f_row = [(n, z) for n, z in enumerate(F_i1.entries[r]) if z.terms]
        g_col = [(m, g_row[col]) for m, g_row in enumerate(G_i.entries)
                 if g_row[col].terms]
        factors.append((i, lam_inv, g_col, f_row))
        for k, z in kappa:
            a = -(z.scale(lam_inv))
            row = F_i1.entries[k]
            for n, w in f_row:
                row[n] = row[n] + a * w
        betas = [(j, -(b.scale(lam_inv))) for j, b in beta]
        for m, u in g_col:
            g_row = G_i.entries[m]
            for j, a in betas:
                g_row[j] = g_row[j] + u * a
        _drop(terms, i, col, F[i], G_i)
        _drop(terms, i + 1, r, F_i1, G[i + 1])
    return F, G, factors


def _homotopy(c: ProjComplex, factors: list) -> ProjChainMap:
    """h of degree -1 on ``c``, the sum of the rank-one terms ``_replay``
    recorded, in their order: h[i+1] gains (G[i][:, col]·λ⁻¹) ⊗ F[i+1][r]."""
    H: dict[int, AlgMatrix] = {}
    for i, lam_inv, g_col, f_row in factors:
        h = H.get(i + 1)
        if h is None:
            h = H[i + 1] = AlgMatrix.zero(c.algebra, c.term(i), c.term(i + 1))
        for m, u in g_col:
            u, h_row = u.scale(lam_inv), h.entries[m]
            for n, z in f_row:
                h_row[n] = h_row[n] + u * z
    return ProjChainMap(c, c, H, "h", validate=False, degree=-1)


def gaussian_reduce(c: ProjComplex) -> Reduction:
    """Cancel unit components of the differential until none remain.

    Returns the minimal complex (all remaining entries in the radical) with
    the log of its cancellations, from which the ``Reduction`` builds the
    homotopy-equivalence witnesses F, G, h with F∘G = id and
    id - G∘F = d∘h + h∘d on first read (``_replay``). The stored degrees are
    reduced as they stand; a tailed complex is reduced on a window with
    margin by ``reduce_on_window``.

    The sweep of a right-tailed complex stops at its first repeat
    (``_Eliminator.stop``, from j, swept through its two-period end): the
    reduced complex keeps the degrees through end with the stop's tail,
    none when its terms from j on are zero, and the log ends at end (the
    reduction repeat of "Windows and margins" in the module docstring). The
    swept degrees are checked for d∘d and the stretch from j for its
    pattern.
    """
    st = _Eliminator(c)
    budget = c.summand_count() + 8
    steps = 0
    i = c.window()[0]
    while True:
        piv = st.find_pivot(i)
        if piv is None:
            break
        steps += 1
        if steps > budget:
            raise ConstructionError("reduction step budget exceeded")
        i, (r, col) = piv
        st.eliminate(i, r, col)
    t, end = st.stop, st.end
    reduced = ProjComplex(c.algebra, {i: x for i, x in st.terms.items() if i <= end},
                          {i: d for i, d in st.diffs.items() if i < end}, None,
                          f"min({c.name})", validate=True)
    if t is not None:
        if (broken := _tail_break(reduced, t)) is not None:
            raise ConstructionError(f"reduction of {c.name} breaks its repeat at "
                                    f"{broken[1]}")
        if reduced.window()[1] >= t.start:
            reduced.tail = t
    return Reduction(c, reduced, st.log, t)


# ---------------------------------------------------------------------------
# linear solving over ladder systems
# ---------------------------------------------------------------------------

def _allowed_paths(algebra: PathAlgebra, tgt: Summand, src: Summand):
    """Basis paths that can sit in an entry src -> tgt of a degree-0 map."""
    deg = src.shift - tgt.shift
    if deg < 0:
        return []
    return [p for p in algebra.basis_by_degree.get(deg, ())
            if algebra.target(p) == tgt.vertex and algebra.source(p) == src.vertex]


def _coordinates(algebra: PathAlgebra, rows: tuple[Summand, ...],
                 cols: tuple[Summand, ...]) -> list[tuple[int, int, Path]]:
    """The (row, column, path) coordinates of a degree-0 map ⊕cols -> ⊕rows,
    by row, then column, then path in ``basis_by_degree`` order."""
    return [(r, c, p) for r, sr in enumerate(rows) for c, sc in enumerate(cols)
            for p in _allowed_paths(algebra, sr, sc)]


def _mat_coords(m: AlgMatrix) -> list[Fraction]:
    return [m.entries[r][c].coefficient(p)
            for r, c, p in _coordinates(m.algebra, m.rows, m.cols)]


def _common_tail(X: ProjComplex, Y: ProjComplex) -> TailSpec | None:
    """The tail of the ladders between X and Y: the pattern both tails
    follow with period twice the lcm of theirs (``TailSpec.common``), moved
    in to the innermost degree from which both follow it on their stored
    degrees when that lies further in (the ladder seam of "Windows and
    margins" in the module docstring). Each complex is walked by
    ``_break_at`` over its own stored window, in from the degree its own
    tail carries into the pattern (``TailSpec.implied_from``), so no
    reference degree is read outside a stored window."""
    t = TailSpec.common((X.tail, Y.tail), 2)
    if t is None:
        return None

    def walk(c: ProjComplex) -> int:
        window = c.window()
        top, o, inner = window[1], t.outward, c.tail.implied_from(t)
        if o * (t.edge(window) - inner) > 0:
            inner = t.outer(inner, t.reference_bound(window))
            window = (window[0], inner) if o > 0 else (inner, window[1])
        return _repeat_start(t, window, lambda i: _break_at(c, t, i, top) is None)

    return replace(t, start=t.inner(t.start, t.outer(walk(X), walk(Y))))


def ladder_degrees(window: tuple[int, int], offset: int,
                   tail: TailSpec | None) -> range:
    """The unknown degrees of a ladder family φ_i: A^i -> B^{i+offset}: the
    whole window without a tail. With a common tail of A and B (period p)
    they stop one period past the seam σ, through σ + p - 1 on a right tail
    and from σ - p + 1 on a left tail, and ``build`` fills the rest of the
    window by the periodic identification (the ladder seam of "Windows and
    margins" in the module docstring).
    """
    lo, hi = window
    if tail is None:
        return range(lo, hi + 1)
    p = tail.period
    if tail.side == RIGHT_TAIL:
        seam = max(lo, tail.start, tail.start - offset)
        return range(lo, min(hi, seam + p - 1) + 1)
    seam = min(hi, tail.start, tail.start - offset)
    return range(max(lo, seam - p + 1), hi + 1)


@dataclass(frozen=True)
class LadderFamily:
    """Unknown maps φ_i: source^i -> target^{i+offset} for i in ``window``,
    identified periodically along ``tail`` (a common tail of both)."""
    source: ProjComplex
    target: ProjComplex
    offset: int
    window: tuple[int, int]
    tail: TailSpec | None = None


class LadderSystem:
    """A linear system whose unknowns are the coefficients of one or more
    ladder families.

    ``unknowns`` is the one table of them: (family, degree, (row, column,
    path)), ordered by family, then degree and ``_coordinates``, over each
    family's unknown ``degrees``. ``build`` turns a coefficient vector into
    the families' maps, one ``ProjChainMap`` per family, of the family's
    offset as its degree.

    The equations come as blocks ``(reads, fn)``: ``fn(maps)`` is the list of
    coordinates of an affine expression in the components named by
    ``reads``, (family, degree) pairs, of the maps. ``cut`` makes a list of
    them from one statement of what block i reads, components and fixed
    matrices, and drops those that repeat rows it keeps. ``probe`` turns a
    list of blocks into matrix columns and a right-hand side for
    ``kernel_from_columns`` or ``solve_from_columns``.
    """

    def __init__(self, families: list[LadderFamily]):
        self.families = list(families)
        self.degrees = [ladder_degrees(f.window, f.offset, f.tail)
                        for f in self.families]
        self.unknowns = [(k, i, slot) for k, (fam, degrees)
                         in enumerate(zip(self.families, self.degrees))
                         for i in degrees
                         for slot in _coordinates(fam.source.algebra,
                                                  fam.target.term(i + fam.offset),
                                                  fam.source.term(i))]
        self.n = len(self.unknowns)

    def _empty(self) -> list[ProjChainMap]:
        """Each family's map with no components."""
        return [ProjChainMap(f.source, f.target, {}, validate=False, degree=f.offset)
                for f in self.families]

    @cached_property
    def _copy_edges(self) -> list[int | None]:
        """Each tailed family's last unknown degree on its tail side, None
        for a family without a tail: the copy rule fills the window past it."""
        return [None if f.tail is None else f.tail.edge((d[0], d[-1]))
                for f, d in zip(self.families, self.degrees)]

    @cached_property
    def _slotted(self) -> set[tuple[int, int]]:
        """The (family, degree) pairs that hold an unknown."""
        return {(k, i) for k, i, _ in self.unknowns}

    @cached_property
    def _pattern(self) -> TailSpec | None:
        """The one pattern the families' tails share, ``TailSpec.common``
        with k = 1, or None when they share none."""
        return TailSpec.common([f.tail for f in self.families if f.tail is not None], 1)

    def copied(self, k: int, i: int) -> bool:
        """Whether family k's component i, with the family's differentials it
        meets, is at every vec the copy of its component i - o·p shifted by
        s, under ``_pattern`` (outward o, period p, shift s): where the copy
        rule fills it, past the unknown degrees, or where neither holds an
        unknown and their zero matrices are copies (the equation cut of
        "Windows and margins" in the module docstring)."""
        t, edge = self._pattern, self._copy_edges[k]
        if edge is not None and t.outward * (i - edge) > 0:
            return True
        fam, j = self.families[k], i - t.outward * t.period
        src, tgt, off, s = fam.source, fam.target, fam.offset, t.shift
        return ((k, i) not in self._slotted and (k, j) not in self._slotted
                and src.term(i) == shift_summands(src.term(j), s)
                and tgt.term(i + off) == shift_summands(tgt.term(j + off), s))

    @cached_property
    def _copied_from(self) -> list[int]:
        """For each family, the innermost degree of its window from which
        every component out to the window edge is ``copied``."""
        return [_repeat_start(self._pattern, f.window, lambda i, k=k: self.copied(k, i))
                for k, f in enumerate(self.families)]

    def _place(self, maps: list[ProjChainMap], coefficients) -> list[ProjChainMap]:
        """Add each (unknown j, value v) of ``coefficients`` to ``maps`` as
        v times unknown j's path at its entry, then fill each family's
        window past its unknown degrees by the tail's copy rule."""
        for j, v in coefficients:
            k, i, (r, c, path) = self.unknowns[j]
            m = maps[k].maps.get(i)
            if m is None:
                m = maps[k].maps[i] = maps[k].component(i)
            m.entries[r][c] = m.entries[r][c] + m.algebra.element({path: v})
        for k, (fam, f) in enumerate(zip(self.families, maps)):
            if fam.tail is not None and f.maps:
                _copy_outward(f.maps, fam.tail, self._copy_edges[k],
                              fam.tail.edge(fam.window), AlgMatrix.shifted)
        return maps

    def build(self, vec) -> list[ProjChainMap]:
        """The maps at ``vec``: every unknown degree, then its copies."""
        return self._place(self._empty(), ((j, v) for j, v in enumerate(vec) if v != 0))

    def cut(self, reads, fixed, fn, degrees: range) -> list:
        """The blocks i -> ``fn(maps, i)`` for i in ``degrees``, as ``probe``
        reads them, cut by the equation cut of "Windows and margins" in the
        module docstring. Block i reads the components (k, i + a) for each
        (k, a) in ``reads``, and the fixed matrices m(i) for each m in
        ``fixed`` besides the families' differentials. Under ``_pattern`` the
        blocks are kept up to the innermost degree D from which each is the
        shifted copy of the one a period in (every component it reads is
        ``copied`` and every fixed matrix a copy by ``_is_copy``), and one
        period of repeats from D. Without one pattern every block is kept."""
        t = self._pattern
        if t is not None and degrees:
            o, p, s = t.outward, t.period, t.shift
            copied_from = t.outer(*(self._copied_from[k] - a for k, a in reads))

            def repeats(i):
                return o * (i - copied_from) >= 0 and all(
                    _is_copy(m(i), m(i - o * p), s) for m in fixed)

            D = _repeat_start(t, (degrees[0], degrees[-1]), repeats)
            degrees = [i for i in degrees if o * (i - D) < p]
        return [(tuple([(k, i + a) for k, a in reads]), partial(fn, i=i)) for i in degrees]

    def chain_blocks(self, k: int, given: ProjChainMap | None = None) -> list:
        """The blocks of family k's ``defect``, minus ``given``, one per
        degree i of the window but its top, cut by ``cut``; block i reads
        φ_i and φ_{i+1}, and given_i."""
        def fn(maps, i):
            m = maps[k].defect(i)
            return _mat_coords(m if given is None else m - given.component(i))

        fixed = () if given is None else (given.component,)
        return self.cut(((k, 0), (k, 1)), fixed, fn, range(*self.families[k].window))

    def probe(self, blocks: list) -> tuple:
        """(column_fn, rhs) of the affine map r: vec -> the blocks'
        coordinates at build(vec), in block order, with column_fn(j) =
        r(e_j) - r(0) and rhs = -r(0), so that r(vec) = 0 exactly when
        A·vec = rhs for the matrix A with those columns.

        r(0) is evaluated once. Column j places the j-th unit vector as
        ``build`` does, holding only the components it makes nonzero (the
        unknown's own and its periodic copies), and evaluates only the
        blocks that read one of them; every other block reads zeros only,
        so its part of the column is zero.
        """
        empty = self._empty()
        base = [fn(empty) for _, fn in blocks]
        rhs = [-x for part in base for x in part]
        offsets = [0]
        readers: dict[tuple[int, int], list[int]] = {}
        for b, (reads, _) in enumerate(blocks):
            offsets.append(offsets[-1] + len(base[b]))
            for key in reads:
                readers.setdefault(key, []).append(b)

        def column_fn(j: int) -> list[Fraction]:
            maps = self._place(self._empty(), [(j, 1)])
            k = self.unknowns[j][0]
            col = [0] * len(rhs)
            for b in {b for i in maps[k].maps for b in readers.get((k, i), ())}:
                part = blocks[b][1](maps)
                if any(base[b]):
                    part = [x - y for x, y in zip(part, base[b])]
                col[offsets[b]:offsets[b + 1]] = part
            return col

        return column_fn, rhs


def solve_chain_maps(X: ProjComplex, Y: ProjComplex,
                     window: tuple[int, int]) -> list[ProjChainMap]:
    """Basis of degree-0 chain maps X -> Y on a window; with aligned tails the
    tail components are identified periodically, so a solution certifies a map
    of the semi-infinite complexes."""
    ladder = LadderSystem([LadderFamily(X, Y, 0, window, _common_tail(X, Y))])
    column, _ = ladder.probe(ladder.chain_blocks(0))
    kernel = kernel_from_columns(column, ladder.n)
    return [ladder.build(vec)[0] for vec in kernel]


def solve_homotopy(X: ProjComplex, Y: ProjComplex, f_minus_g: ProjChainMap,
                   window: tuple[int, int], periodic: bool = True
                   ) -> ProjChainMap | None:
    """h: X^i -> Y^{i-1}, a map of degree -1, with (f-g) = d∘h + h∘d on the
    window, or None. X and Y are read one degree past the window on each
    side (the homotopy reach of "Windows and margins" in the module
    docstring)."""
    lo, hi = window
    tail = _common_tail(X, Y) if periodic else None
    X, Y = X.materialize(lo - 1, hi + 1), Y.materialize(lo - 1, hi + 1)
    ladder = LadderSystem([LadderFamily(X, Y, -1, (lo, hi + 1), tail)])
    column, rhs = ladder.probe(ladder.chain_blocks(0, f_minus_g))
    sol = solve_from_columns(column, ladder.n, rhs)
    return None if sol is None else ladder.build(sol)[0]


# ---------------------------------------------------------------------------
# homotopy-category decisions
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    value: str                      # "true" | "false" | "inconclusive"
    witness: object = None
    reason: str = ""


def _window_cut(window: tuple[int, int], *complexes: ProjComplex) -> Verdict | None:
    """The one window rule of every decision: an input with a stored term
    outside ``window`` on a side where it has no tail is inconclusive, since
    the window would drop that term unseen. None when no input is cut."""
    for c in complexes:
        lo, hi = c.window()
        if not c.is_zero() and (lo < window[0] and not _has_tail(c, LEFT_TAIL)
                                or hi > window[1] and not _has_tail(c, RIGHT_TAIL)):
            return Verdict("inconclusive",
                           reason=f"{c.name} has terms outside the window {window}")
    return None


def _summand_multisets_match(X: ProjComplex, Y: ProjComplex,
                             window: tuple[int, int]) -> bool:
    lo, hi = window
    for i in range(lo, hi + 1):
        if sorted((s.vertex, s.shift) for s in X.term(i)) != \
           sorted((s.vertex, s.shift) for s in Y.term(i)):
            return False
    return True


def reduce_on_window(c: ProjComplex, window: tuple[int, int]) -> Reduction:
    """Gaussian-reduce ``c`` and keep the degrees in ``window``.

    A periodic tail is first materialized 2·period + 2 degrees past the
    window on its side, one margin for every caller; the reduction margin
    of "Windows and margins" in the module docstring derives it. The
    reduction of a tailed complex is kept by ``attach_tail``: a stopped
    sweep (a right tail) carries the stop's tail, which copies its stretch
    through ``window`` (the reduction repeat there), and the kept tail is
    the one found at the kept edge under the gap rule. F and G, built when
    first read, keep the kept degrees.
    """
    t = c.tail
    if t is not None:
        margin = 2 * t.period + 2
        c = c.materialize(window[0] - margin, window[1] + margin)
    red = gaussian_reduce(c)
    kept = red.reduced.clip(*window) if t is None else attach_tail(
        red.reduced, window, t.side, f"reduction of {c.name} reaches the window "
        f"edge without a periodic pattern; enlarge the window")
    return Reduction(c, kept, red.log, red.stop)


def iso_in_homotopy_category(x: ProjComplex, y: ProjComplex,
                             window: tuple[int, int]) -> Verdict:
    """Reduce both to minimal form and search for an invertible chain map.

    Minimal complexes over a finite-dimensional graded algebra are unique up
    to isomorphism in their homotopy class, so a summand-multiset mismatch is
    a certified "false"; an invertible chain map is a certified "true"; a
    failed search on matching shapes is reported inconclusive, never false.
    No nonzero chain map at all is "false" between bounded minimal models;
    between tailed ones it is inconclusive, since the periodic ansatz of the
    ladder seam is not known to be complete. A window cut (``_window_cut``)
    is inconclusive, and so is a reduction the window cuts
    (``WindowTooSmall`` out of ``reduce_on_window``).
    """
    if (cut := _window_cut(window, x, y)) is not None:
        return cut
    try:
        xm = reduce_on_window(x, window).reduced
        ym = reduce_on_window(y, window).reduced
    except WindowTooSmall as exc:
        return Verdict("inconclusive", reason=str(exc))
    if xm.is_zero() and ym.is_zero():
        return Verdict("true", witness=None, reason="both reduce to zero")
    if not _summand_multisets_match(xm, ym, window):
        return Verdict("false", reason="minimal models have different summands")
    if (xm.tail is None) != (ym.tail is None):
        return Verdict("false", reason="one side is bounded, the other is not")
    if xm.tail is not None and TailSpec.common((xm.tail, ym.tail), 2) is None:
        return Verdict("inconclusive", reason="tail patterns do not align")
    sols = solve_chain_maps(xm, ym, window)
    inv = search_invertible(sols, lambda f: _chain_map_invertible(f, window))
    if inv is not None:
        return Verdict("true", witness=(xm, ym, inv))
    if not sols and xm.tail is None:
        return Verdict("false", reason="no nonzero chain maps between minimal models")
    if not sols:
        # the periodic ansatz is not known to be complete (ladder seam)
        return Verdict("inconclusive",
                       reason="no nonzero periodic chain maps between minimal models")
    return Verdict("inconclusive", reason="no invertible chain map found in the window")


def _chain_map_invertible(f: ProjChainMap, window: tuple[int, int]) -> bool:
    """Invertible iff the scalar part of each component on the window is. A
    nonzero scalar entry joins equal summands (degree 0 forces equal shifts
    and a trivial path), so one rank test decides every isotype block at
    once; radical entries are nilpotent and cannot obstruct invertibility."""
    lo, hi = window
    for i in range(lo, hi + 1):
        m = f.component(i)
        if (m.rows or m.cols) and not Matrix(
                len(m.rows), len(m.cols),
                [[e.scalar_part() for e in row] for row in m.entries]).is_invertible():
            return False
    return True


def maps_agree_under_identification(F: ProjChainMap, G: ProjChainMap,
                                    window: tuple[int, int]) -> Verdict:
    """Whether two maps between (possibly different models of) the same
    objects agree once the objects are identified.

    F: S1 -> T1 and G: S2 -> T2 with S1 ≅ S2, T1 ≅ T2 in the homotopy
    category. Solves jointly for invertible chain maps ψ_s: S1 -> S2,
    ψ_t: T1 -> T2 with ψ_t∘F = G∘ψ_s strictly, then up to homotopy; the
    verdict notes which level held. When the models literally coincide the
    identity identification is tried first so that equality is recognized
    as stated. An identification is looked for only where the sources and
    the targets each have aligned tails, both none or a common one, as
    ``iso_in_homotopy_category`` requires; a bounded model and a tailed one
    are never identified. "false" is certified only where
    ``iso_in_homotopy_category`` certifies that the sources or the targets
    are not isomorphic.
    """
    S1, T1 = F.source, F.target
    S2, T2 = G.source, G.target
    if (cut := _window_cut(window, S1, T1, S2, T2)) is not None:
        return cut
    aligned = all((a.tail is None and b.tail is None)
                  or TailSpec.common((a.tail, b.tail), 2) is not None
                  for a, b in ((S1, S2), (T1, T2)))
    if aligned and S1.terms == S2.terms and T1.terms == T2.terms and \
       {i: d.entries for i, d in S1.diffs.items()} == {i: d.entries for i, d in S2.diffs.items()} and \
       {i: d.entries for i, d in T1.diffs.items()} == {i: d.entries for i, d in T2.diffs.items()}:
        Gsame = ProjChainMap(S1, T1, G.maps, G.name, validate=False)
        direct = chain_maps_homotopic(F, Gsame, window)
        if direct.value == "true":
            level = "strict" if (F - Gsame).is_zero() else "homotopy"
            return Verdict("true", witness=direct.witness,
                           reason=f"equal under the identity identification ({level})")
    for strict in (True, False) if aligned else ():
        found = _solve_intertwining(F, G, window, strict=strict)
        if found is not None:
            level = "strict" if strict else "homotopy"
            return Verdict("true", witness=found,
                           reason=f"agree under an identification ({level})")
    if any(iso_in_homotopy_category(a, b, window).value == "false"
           for a, b in ((S1, S2), (T1, T2))):
        return Verdict("false", reason="objects are not isomorphic")
    return Verdict("inconclusive",
                   reason="no invertible intertwining identification found")


def _intertwining_system(F: ProjChainMap, G: ProjChainMap,
                         window: tuple[int, int], strict: bool):
    """The ladder system and blocks of ψ_t∘F - G∘ψ_s = (0 | dh + hd) with
    ψ_s: S1 -> S2 and ψ_t: T1 -> T2 chain maps (families 0 and 1) and, up to
    homotopy, h: S1^i -> T2^{i-1} (family 2). Intertwining block i reads
    ψ_s(i), ψ_t(i), up to homotopy h(i) and h(i+1), and the fixed matrices
    F_i and G_i; ``LadderSystem.cut`` cuts every block list."""
    S1, T1 = F.source, F.target
    S2, T2 = G.source, G.target
    families = [LadderFamily(S1, S2, 0, window, _common_tail(S1, S2)),
                LadderFamily(T1, T2, 0, window, _common_tail(T1, T2))]
    if not strict:
        families.append(LadderFamily(S1, T2, -1, window, _common_tail(S1, T2)))
    ladder = LadderSystem(families)

    def fn(maps, i):
        m = maps[1].component(i) * F.component(i) - G.component(i) * maps[0].component(i)
        return _mat_coords(m if strict else m - maps[2].defect(i))

    reads = ((0, 0), (1, 0)) if strict else ((0, 0), (1, 0), (2, 0), (2, 1))
    blocks = (ladder.chain_blocks(0) + ladder.chain_blocks(1)
              + ladder.cut(reads, (F.component, G.component), fn, range(*window)))
    return ladder, blocks


def _solve_intertwining(F: ProjChainMap, G: ProjChainMap,
                        window: tuple[int, int], strict: bool):
    """Solution search for ψ_t∘F - G∘ψ_s = (0 | dh + hd) with ψ's invertible:
    the pair (ψ_s, ψ_t), or None."""
    ladder, blocks = _intertwining_system(F, G, window, strict)
    if ladder.n == 0:
        return None
    column, _ = ladder.probe(blocks)
    kernel = kernel_from_columns(column, ladder.n)
    # each kernel vector as a 1 x n row, so that the search's sums are vectors
    row = search_invertible(
        [Matrix.from_rows([v]) for v in kernel],
        lambda r: all(_chain_map_invertible(f, window)
                      for f in ladder.build(r.data[0])[:2]))
    return None if row is None else tuple(ladder.build(row.data[0])[:2])


def chain_maps_homotopic(f: ProjChainMap, g: ProjChainMap,
                         window: tuple[int, int]) -> Verdict:
    """f ≃ g, decided by solving for a homotopy (periodic ansatz on tails)."""
    if f.source.terms != g.source.terms or f.target.terms != g.target.terms:
        raise ConstructionError("chain maps must share source and target")
    if (cut := _window_cut(window, f.source, f.target)) is not None:
        return cut
    diff = f - g
    if diff.is_zero():
        return Verdict("true", witness=ProjChainMap(f.source, f.target, {},
                                                    validate=False, degree=-1),
                       reason="maps are equal")
    h = solve_homotopy(f.source, f.target, diff, window, periodic=True)
    if h is not None:
        return Verdict("true", witness=h)
    h2 = solve_homotopy(f.source, f.target, diff, window, periodic=False)
    if h2 is None:
        return Verdict("false", reason="window system is unsolvable")
    return Verdict("inconclusive",
                   reason="solvable on the window but not periodically")


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def homology(c: Complex, i: int) -> dict[tuple[int, str], int]:
    """The nonzero dimensions of ker/im per (internal degree, vertex), as
    ``graded_dims_by_vertex`` gives them for a module: exact ranks of the
    label blocks of the two differentials."""
    term, d_in, d_out = c.term(i), c.diff(i - 1), c.diff(i)
    dims: dict[tuple[int, str], int] = {}
    for deg in term.degrees():
        for v in sorted(set(term.basis[deg])):
            h = len(term.positions(deg, v)) - d_out.block(deg, v).rank() \
                - d_in.block(deg, v).rank()
            if h:
                dims[(deg, v)] = h
    return dims


# ---------------------------------------------------------------------------
# fixture comparison up to a diagonal sign change
# ---------------------------------------------------------------------------

def match_up_to_diagonal_signs(computed: ProjComplex, fixture: ProjComplex,
                               window: tuple[int, int]
                               ) -> tuple[bool, dict[int, list[int]] | None]:
    """Entrywise equality after a diagonal ±1 change of basis per summand.

    Returns (ok, signs) with signs[i][k] the sign applied to summand k of
    degree i of the computed complex.
    """
    lo, hi = window
    for i in range(lo, hi + 1):
        if computed.term(i) != fixture.term(i):
            return False, None
    signs: dict[int, list[int]] = {i: [0] * len(computed.term(i))
                                   for i in range(lo, hi + 1)}
    for i in range(lo, hi + 1):
        for k in range(len(computed.term(i))):
            if signs[i][k] == 0:
                signs[i][k] = 1
                _propagate_signs(computed, fixture, signs, i, k, lo, hi)
    for i in range(lo, hi):
        dc, dfix = computed.diff(i), fixture.diff(i)
        for r in range(len(dc.rows)):
            for cidx in range(len(dc.cols)):
                got = dc.entries[r][cidx].scale(signs[i][cidx] * signs[i + 1][r])
                if got != dfix.entries[r][cidx]:
                    return False, None
    return True, signs


def _propagate_signs(computed, fixture, signs, i0, k0, lo, hi):
    stack = [(i0, k0)]
    while stack:
        i, k = stack.pop()
        sgn = signs[i][k]
        # forward neighbors through the outgoing differential
        if i < hi:
            dc, dfix = computed.diff(i), fixture.diff(i)
            for r in range(len(dc.rows)):
                ratio = _sign_ratio(dc.entries[r][k], dfix.entries[r][k])
                if ratio is not None and signs[i + 1][r] == 0:
                    signs[i + 1][r] = sgn * ratio
                    stack.append((i + 1, r))
        # backward neighbors through the incoming differential
        if i > lo:
            dc, dfix = computed.diff(i - 1), fixture.diff(i - 1)
            if k < len(dc.rows):
                for cidx in range(len(dc.cols)):
                    ratio = _sign_ratio(dc.entries[k][cidx], dfix.entries[k][cidx])
                    if ratio is not None and signs[i - 1][cidx] == 0:
                        signs[i - 1][cidx] = sgn * ratio
                        stack.append((i - 1, cidx))


def _sign_ratio(e: AlgebraElement, f: AlgebraElement):
    if e.is_zero() or f.is_zero():
        return None
    if e == f:
        return 1
    if e == (-f):
        return -1
    return None
