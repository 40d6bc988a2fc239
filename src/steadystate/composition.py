"""Order-by-order assembly of the expansion inhomogeneities.

The coefficient grids z_nu(t) of the amplitude expansion satisfy, order
by order, the same linear dynamics with an inhomogeneity Phi_nu built
from lower orders. Order 1 is forced by the (unit-normalized) input
itself, which each cascade maps into its modal inputs on its own;
higher orders are forced by the polynomial nonlinearity composed with
the partial sums, collected per total order, and those are what this
module builds (assemble_phi refuses orders below 2).

A field is F(z) = C m(y), monomials m in its linear forms y = Lambda z
(PolynomialField; Lambda is the identity unless given). Since the forms
are linear, their order-nu coefficients are y_nu = Lambda z_nu, computed
once per live order and time block from the columns of z_nu that some
form reads (a spring chain's positions, not its velocities) and kept in
the CompositionCache.
A monomial is handled as its factor list, the form PolynomialField
builds: its form indices in ascending order, each repeated as often as
its exponent. For a factor list (i, rest...) of degree d, the order-nu
coefficient of the product along the expansion is

    H[(i,), nu] = y^i_nu,
    H[(i, rest...), nu] = sum_{a=d-1}^{nu-1} H[(rest...), a] * y^i_{nu-a},

and H = 0 whenever nu < d (each factor contributes at least order one).
Phi_nu = (g_nu, 0), and its force block g_nu is one contraction per
order, -C @ stack(H) over the terms; the lower block is zero and is
never built. What the kernel filters take is the image P g_nu under a
linear map P, the retained units' rows of the modal projection
(SpectralData.force_rows), and since the map is linear it goes into the
contraction's matrix, (-P C) @ stack(H). So the products meet the
filters' modal inputs in one matmul, with no state grid between them
(assemble_phi with a basis, compose_field with coef).

The recursion runs on a batch of factor lists of one degree at a time,
as the columns of their (rows, d) factor matrix: the pivot column picks
rows of the order's grid (a slice when they are consecutive), and each
product multiplies (rows, length) arrays, so a batch costs the NumPy
calls of one factor list. Every row is computed by the same operations
in the same order as on its own, so batching changes no bit.
compose_field batches up to max(1, _BATCH_SAMPLES // length) rows: on
the 'qp' backend's few harmonics a field's whole degree runs as one
batch and the per-call overhead is paid once per order, while a time
block of 8,192 samples stays at one row per product, since there a batch
of rows would only push the products out of cache.

Not every order is reached. Order 1 is live; order nu >= 2 is live iff
nu is a sum of d live orders for some monomial degree d of the field
that drives the cascade, since a product of d factors can be nonzero
only at such sums. A field with cubic terms only reaches the odd
orders, one with quartic terms only 1, 4, 7, ...; any quadratic term
makes every order live. The CompositionCache carries that table (see
CompositionCache.reaches): the recursion skips every split whose rest
or pivot order cannot be nonzero, and compose_field every term whose
degree cannot reach nu. A skipped split would only add exact zeros, so
every live order keeps its bits, and compute_taylor_gss neither
composes nor propagates the orders that are not live: its tensor stores
no slot for them, and they read as zeros.

The recursion only multiplies and adds what component returns, and the
multiplication is a parameter: elementwise on time grids (the default),
a truncated convolution along the last axis of harmonic coefficient
arrays (the 'qp' backend, where a product of Fourier series convolves
their coefficients). Every product below the top degree (what is left of
a batch after peeling its pivot column) is cached once per order and
shared by every batch ending in the same columns, across all orders of
one time block.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GridMismatch, InvalidParameters, OrderUnavailable
from .model import MechanicalSystem, PolynomialField

__all__ = [
    "CoefficientTensor",
    "CompositionCache",
    "compose_field",
    "assemble_phi",
]

# samples per composition product: compose_field batches up to
# max(1, _BATCH_SAMPLES // length) rows of one degree into a product, so
# a time block of 8,192 samples keeps one row per product
_BATCH_SAMPLES = 8192


@dataclass
class CoefficientTensor:
    """Expansion coefficient grids, filled one order at a time.

    stored lists the orders the tensor keeps, ascending, one slot each:
    data has shape (state_dim, len(stored), T) and slot [:, s, :] holds
    z_nu of nu = stored[s] on the grid. stored defaults to every order
    1..data.shape[1], and order_max to the largest stored order. An
    order that is not stored reads as a read-only view of +0.0 that
    allocates nothing: it is an order the field cannot reach (see the
    module docstring), marked filled by insert_zeros; inserting a grid
    at such an order raises OrderUnavailable. Slots are allocated as
    zeros (pages the system hands out zeroed, with no fill pass), so an
    unfilled slot is not marked by its values: order_slice and
    assemble_phi refuse an order that is not filled. dt / t0 /
    pad_length describe the grid: sample k sits at time t0 + k dt, so
    t0 is the time of the first stored sample, pad included. A tensor
    loaded from a container holds the stored slots of its completed
    orders, as a read-only memory map of the saved file. The 'qp'
    backend also keeps a complex tensor whose last axis indexes
    harmonics instead of grid samples.
    """

    data: np.ndarray
    dt: float
    t0: float
    pad_length: int
    _filled: set = field(default_factory=set, repr=False)
    stored: tuple | None = None
    order_max: int | None = None
    # _grids[nu] is order nu's (state_dim, T) view: its slot, or the zero view
    _grids: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.stored is None:
            self.stored = tuple(range(1, self.data.shape[1] + 1))
        self.stored = tuple(self.stored)
        if self.order_max is None:
            self.order_max = self.stored[-1] if self.stored else 0
        bounded = (0,) + self.stored + (self.order_max + 1,)
        if len(self.stored) != self.data.shape[1] or any(
            a >= b for a, b in zip(bounded, bounded[1:])
        ):
            raise DimensionMismatch(
                f"stored orders {self.stored} are not {self.data.shape[1]} ascending "
                f"orders in 1..{self.order_max}"
            )
        zero = np.broadcast_to(np.zeros((), self.data.dtype), (self.state_dim, self.length))
        self._grids = [zero] * (self.order_max + 1)
        for s, nu in enumerate(self.stored):
            self._grids[nu] = self.data[:, s, :]

    @classmethod
    def empty(cls, state_dim, order_max, length, dt, t0=0.0, pad_length=0, stored=None):
        """A tensor of orders 1..order_max, none filled, that stores the
        orders in stored (default: every order) in zeroed slots."""
        if order_max < 1:
            raise DimensionMismatch(f"order_max must be >= 1, got {order_max}")
        if length < 2:
            raise GridMismatch("grid needs at least 2 samples")
        if stored is None:
            stored = range(1, order_max + 1)
        data = np.zeros((state_dim, len(stored), length))
        return cls(
            data=data, dt=float(dt), t0=float(t0), pad_length=int(pad_length),
            stored=stored, order_max=order_max,
        )

    @property
    def state_dim(self):
        return self.data.shape[0]

    @property
    def length(self):
        return self.data.shape[2]

    @property
    def orders_complete(self):
        nu = 0
        while (nu + 1) in self._filled:
            nu += 1
        return nu

    def _check_order(self, nu):
        if not 1 <= nu <= self.order_max:
            raise OrderUnavailable(f"order {nu} outside 1..{self.order_max}")

    def insert_slice(self, nu, grid):
        """Fill order nu with grid; the order's own slot (filled in place)
        is only marked filled."""
        grid = np.asarray(grid)
        if grid is not self.slot(nu):
            if grid.shape != (self.state_dim, self.length):
                raise GridMismatch(
                    f"slice shape {grid.shape} != ({self.state_dim}, {self.length})"
                )
            self._grids[nu][...] = grid
        self._filled.add(nu)

    def slot(self, nu):
        """Order nu's writable (state_dim, T) storage, for a solver to
        fill in place before insert_slice(nu, slot)."""
        self._check_order(nu)
        if nu not in self.stored:
            raise OrderUnavailable(f"order {nu} has no slot; stored orders are {self.stored}")
        return self._grids[nu]

    def insert_zeros(self, nu):
        """Fill order nu with exact zeros: an order no product reaches.
        An order without a slot already reads as zeros."""
        self._check_order(nu)
        if nu in self.stored:
            self._grids[nu][...] = 0.0
        self._filled.add(nu)

    def order_slice(self, nu):
        if not 1 <= nu <= self.order_max or nu not in self._filled:
            raise OrderUnavailable(
                f"order {nu} not available (complete through {self.orders_complete})"
            )
        return self._grids[nu]

    def component(self, i, nu):
        """Rows i of order nu (an int, a slice or an index array; its
        whole grid for i = slice(None)); the lookup the composition
        recursion uses.

        It does not validate nu: an unfilled order reads its slot as
        allocated (zeros) or as a previous block left it, an order
        without a slot its zero view. assemble_phi checks
        orders_complete once per call instead; use order_slice for a
        checked read.
        """
        return self._grids[nu][i]

    def window(self, block):
        """The tensor on the samples of one time block (a slice of the
        grid), as a view with the same stored orders: orders inserted
        into it land in this tensor. It starts with no order filled."""
        return CoefficientTensor(
            data=self.data[:, :, block],
            dt=self.dt,
            t0=self.t0 + block.start * self.dt,
            pad_length=max(self.pad_length - block.start, 0),
            stored=self.stored,
            order_max=self.order_max,
        )


@dataclass
class CompositionCache:
    """Shared H[factors, nu] store for one expansion run, and the table
    of the orders its products can reach.

    degrees are the monomial degrees of the field that drives the
    cascade (the field whose composition forces each order); they fix
    the live orders, see reaches. The default, one quadratic degree,
    makes every order live and skips nothing.

    The store is keyed by a batch's factor columns and order (see
    _product). Only what is left of a batch after peeling its pivot
    column (degree < max_degree) is kept: the top-degree products are
    consumed exactly once, so storing them would only cost memory.
    hits / misses count the rows of cacheable lookups: unless two
    terms share a sub-product, they do not depend on the batching. A
    cache is tied to the coefficient grids it was filled from, and to
    the field if its forms are not the identity (its products are over
    that field's forms); never reuse one across tensors or such fields
    without clear().
    compute_taylor_gss and reduced_gss keep their caches for the run,
    and their per-order steps clear them at order 1, the first of each
    time block of the cascade, so products and form grids are
    block-length.
    """

    max_degree: int
    degrees: tuple = (2,)
    hits: int = 0
    misses: int = 0
    _store: dict = field(default_factory=dict, repr=False)
    # _sums[nu] has bit d set iff nu is a sum of d live orders; bit 1
    # marks nu itself live. Grown on demand, one order at a time.
    _sums: list = field(default_factory=lambda: [0], repr=False)
    # _splits[d, nu] memoizes splits(d, nu); like _sums it depends only
    # on degrees, so clear() keeps it
    _splits: dict = field(default_factory=dict, repr=False)
    # _forms[m] is forms @ z_m, the order-m grid of a field's forms (see
    # compose_field); like _store it holds one block's grids
    _forms: dict = field(default_factory=dict, repr=False)

    def reaches(self, d, nu):
        """Whether a product of d >= 1 factors, each a coefficient grid
        of the cascade, can be nonzero at order nu >= 1; reaches(1, nu)
        says whether order nu is live."""
        sums = self._sums
        while len(sums) <= nu:
            k = len(sums)
            reach = 0
            for a in range(1, k):
                if sums[a] & 2:
                    reach |= sums[k - a] << 1
            if k == 1 or any(reach >> g & 1 for g in self.degrees if g >= 2):
                reach |= 2
            sums.append(reach)
        return bool(sums[nu] >> d & 1)

    def splits(self, d, nu):
        """The orders a in d..nu-1, ascending, at which both a product
        of d factors (at order a) and one more factor (at order nu - a)
        can be nonzero, by reaches; built once per (d, nu)."""
        got = self._splits.get((d, nu))
        if got is None:
            got = self._splits[d, nu] = tuple(
                a for a in range(d, nu) if self.reaches(d, a) and self.reaches(1, nu - a)
            )
        return got

    def clear(self):
        """Drop the stored products and form grids, keeping the counters:
        the grids they were built from are about to change (the next
        time block)."""
        self._store.clear()
        self._forms.clear()

    def stats(self):
        """hits and misses, in rows, since the cache was made (summed
        over the blocks of a blocked run); entries is the number of rows
        stored now, one block's products after a blocked run."""
        entries = sum(len(columns[0]) for columns, _ in self._store)
        return {"hits": self.hits, "misses": self.misses, "entries": entries}


@functools.lru_cache(maxsize=1024)
def _rows(column):
    """The index of a factor column's rows: a slice when they are
    consecutive and ascending, so component returns a view, else a
    read-only index array (it is shared by every caller)."""
    first = column[0]
    if column == tuple(range(first, first + len(column))):
        return slice(first, first + len(column))
    index = np.array(column, dtype=np.intp)
    index.flags.writeable = False
    return index


def _product(columns, nu, component, cache, product=operator.mul):
    """H[factors, nu] of a batch of factor lists of one degree d =
    len(columns), shape (rows, length), where cache.reaches(d, nu).

    columns[c] holds factor c of every list of the batch, so row r is
    H[(columns[0][r], ..., columns[d-1][r]), nu]. Peel the pivot column
    columns[0] and recurse on the rest, over the splits (a, nu - a) at
    which both the rest's product and the pivot's order can be nonzero
    (cache.splits); the others would add exact zeros. The pivot selects
    rows of each order's grid (_rows). product multiplies two of what
    component returns, row by row; each row gets the operations of its
    factor list alone, in the same order, so its bits do not depend on
    the batch. The cache keys an entry by (columns, nu).
    """
    pivot, rest = _rows(columns[0]), columns[1:]
    if not rest:
        return component(pivot, nu)

    cacheable = len(columns) < cache.max_degree
    key = (columns, nu)
    if cacheable:
        got = cache._store.get(key)
        if got is not None:
            cache.hits += len(columns[0])
            return got
        cache.misses += len(columns[0])

    splits = cache.splits(len(rest), nu)
    out = product(
        _product(rest, splits[0], component, cache, product), component(pivot, nu - splits[0])
    )
    for a in splits[1:]:
        out += product(_product(rest, a, component, cache, product), component(pivot, nu - a))
    if cacheable:
        cache._store[key] = out
    return out


def _form_component(fld, component, cache):
    """component over the forms y = forms @ z of fld: rows k of y_m,
    where y_m is computed from the rows of order m's grid that some form
    reads, component(columns, m) (fld._read_forms: on a spring chain the
    positions, not the velocities), once per order and kept in
    cache._forms until the cache is cleared."""
    grids = cache._forms
    columns, forms = fld._read_forms

    def form(k, m):
        y = grids.get(m)
        if y is None:
            y = grids[m] = forms @ component(columns, m)
        return y[k]

    return form


@functools.lru_cache(maxsize=256)
def _batches(factors, degrees, size):
    """The plan of compose_field for the terms whose degree is in
    degrees: (live, batches), live the indices of those terms in term
    order and batches a (rows, columns) pair per product, rows the
    positions in live of up to size terms of one degree (a slice when
    consecutive) and columns their factor lists' columns. Terms of one
    degree batch in term order."""
    live = tuple(k for k, f in enumerate(factors) if len(f) in degrees)
    batches = []
    for d in degrees:
        positions = [p for p, k in enumerate(live) if len(factors[k]) == d]
        for s in range(0, len(positions), size):
            chunk = tuple(positions[s : s + size])
            batches.append((_rows(chunk), tuple(zip(*(factors[live[p]] for p in chunk)))))
    return live, tuple(batches)


def compose_field(
    fld: PolynomialField, component, nu, length, cache, dtype=float, product=operator.mul,
    coef=None,
):
    """Order-nu grid of fld evaluated along the expansion, shape (out_dim, length),
    or of a linear map of it, shape (k, length).

    No sign convention applied; callers add their own. The recursion
    runs on the factor lists of the field's form terms: over the state
    rows component returns for the identity, over the forms y_m =
    forms @ z_m otherwise (component(columns, m) must then return the
    rows of order m's grid that the forms read, see _form_component).
    Terms whose degree cannot reach nu (see CompositionCache.reaches)
    contribute nothing and are skipped; the others run in batches of one
    degree and up to max(1, _BATCH_SAMPLES // length) terms (see the
    module docstring), their products H are stacked in the field's term
    order, and the result is one contraction coef @ H, so the floating
    point result is deterministic and does not depend on the batches.
    coef, (k, n_terms), defaults to the field's coefficient matrix C; a
    caller that wants P F for a linear map P passes P C, so the map
    costs no pass of its own. The result has the dtype of coef @ H.
    product is handed to the recursion (see _product).
    """
    coef = fld._coef if coef is None else coef
    out_dtype = np.result_type(coef, dtype)
    degrees = tuple(d for d in fld.degrees if cache.reaches(d, nu))
    if not degrees:
        return np.zeros((coef.shape[0], length), dtype=out_dtype)
    if fld.forms is not None:
        component = _form_component(fld, component, cache)
    live, batches = _batches(fld._factors, degrees, max(1, _BATCH_SAMPLES // length))
    H = np.empty((len(live), length), dtype=dtype)
    for rows, columns in batches:
        H[rows] = _product(columns, nu, component, cache, product)
    if len(live) != fld.n_terms:
        coef = coef[:, list(live)]
    return np.matmul(coef, H, out=np.empty((coef.shape[0], length), dtype=out_dtype))


def assemble_phi(
    system: MechanicalSystem,
    tensor: CoefficientTensor,
    nu: int,
    cache: CompositionCache | None = None,
    product=operator.mul,
    basis=None,
):
    """The image P g_nu, shape (k, T), of the force block g_nu of the
    order-nu inhomogeneity Phi_nu = (g_nu, 0), nu >= 2, under a basis P,
    shape (k, n); P defaults to the identity, which gives g_nu itself,
    shape (n, T). The lower block of Phi_nu is identically zero and is
    not built.

    g_nu is minus the order-nu composition C @ H of the internal force
    field (the field enters the balance on the left-hand side), and
    orders 1..nu-1 of the tensor must be filled. The map is linear, so
    the basis goes into the composition's one contraction: P g_nu is
    (-P C) @ H, with no negation pass or force block made. The cascades
    pass SpectralData.force_rows as P and get the modal inputs
    propagate_order takes. Order 1 is the normalized forcing, which
    every caller maps itself (P g_1 = P @ forcing.T); nu < 2 raises
    InvalidParameters, as faadibruno_phi does.

    The orders are composed with product (see _product) and the result
    has the dtype of the tensor's and P's product, so a complex tensor
    of harmonic coefficients (T then counts harmonics) gives Phi_nu's
    harmonic coefficients. Without a cache, every order of the tensor
    counts as live, so any filled grids compose; compute_taylor_gss
    passes a cache built from the field's degrees, whose tensor reads as
    zeros at the orders the field cannot reach.
    """
    n = system.n
    if tensor.state_dim != 2 * n:
        raise DimensionMismatch(
            f"tensor state dim {tensor.state_dim} != system state dim {2 * n}"
        )
    if basis is not None and (np.ndim(basis) != 2 or np.shape(basis)[1] != n):
        raise DimensionMismatch(f"basis has shape {np.shape(basis)}, expected (k, {n})")
    if nu < 2:
        raise InvalidParameters(f"composition covers orders >= 2, got {nu}")
    if tensor.orders_complete < nu - 1:
        raise OrderUnavailable(
            f"order {nu} needs orders 1..{nu - 1}; tensor holds "
            f"{tensor.orders_complete}"
        )
    fld = system.nonlinearity
    if cache is None:
        cache = CompositionCache(max_degree=fld.max_degree)
    coef = -fld._coef if basis is None else -(basis @ fld._coef)
    return compose_field(
        fld, tensor.component, nu, tensor.length, cache, dtype=tensor.data.dtype,
        product=product, coef=coef,
    )
