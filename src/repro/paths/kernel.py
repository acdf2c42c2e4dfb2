"""The analytic costing kernel: a scalar reference and a fused array coster.

Every cost in the analytic layer is produced here, by walking
:class:`~repro.paths.ir.HopStage` records and charging each hop from
the machine's Table-2/3/4 constants.  There are exactly two costers:

* the **scalar reference** — :func:`hop_cost` / :func:`stage_cost` /
  :func:`evaluate_stages` / :func:`cost_plan` over plans compiled from
  one scalar :class:`~repro.models.pattern_summary.PatternSummary`
  (``StrategyModel.time``, validation, the selector, crossovers);
* the **fused array coster** — :func:`stack_plans` lowers any number of
  compiled plans into padded tensors, and :meth:`FusedPlans.evaluate`
  costs every (plan, element) cell at once (``StrategyModel.time_sweep``,
  the scenario sweeps, the atlas, and ``best_strategy`` point queries).
  Plans compiled from an array-form summary stack at the batch width;
  plans compiled from a scalar summary (one-cell queries) stack at
  width 1.  What the machine and the plans' hop structure fix — copy
  constants, stage repeats, max-rate masks, NIC rates and each send
  hop's tier-scaled protocol row — is a layout cached per (machine,
  plan structure), so a call only gathers hop counts, sizes and
  ``enabled`` flags and selects every send hop's protocol at once.

Bit-exactness contract: stage sums start from the first hop's cost,
stages accumulate left-associatively, and a ``repeat`` factor
multiplies the finished stage sum (exact for the power-of-two repeats
the models use).  The fused coster applies the same floating-point
operations in the same order per element, so it is bit-identical to the
scalar reference; the goldens in ``tests/test_equivalence.py`` pin both.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.machine.topology import MachineSpec
from repro.paths.ir import Hop, HopKind, HopPlan, HopStage, Serialization


def tier_scaled(machine: MachineSpec, tier: Optional[int], alpha: Any,
                beta: Any) -> Tuple[Any, Any]:
    """Refine a flat ``(alpha, beta)`` with tier ``tier``'s scale factors.

    Scalars or arrays alike.  Flat hops (``tier is None``) and unit
    scales leave the operands untouched, so the degenerate case takes
    exactly the pre-hierarchy values.
    """
    if tier is not None:
        scales = machine.locality_hierarchy[tier]
        if scales.alpha_scale != 1.0:
            alpha = scales.alpha_scale * alpha
        if scales.beta_scale != 1.0:
            beta = scales.beta_scale * beta
    return alpha, beta


def resolve_link(machine: MachineSpec, hop: Hop) -> Tuple[float, float]:
    """Tier-aware ``(alpha, beta)`` for a send hop.

    Protocol selection runs over the hop's flat ``locality`` by
    individual-message size (honoring ``pre_posted`` persistent
    channels); :func:`tier_scaled` then applies the hop's tier.
    """
    comm = machine.comm_params
    select = comm.persistent_link if hop.pre_posted else comm.for_message
    _protocol, link = select(hop.kind.transport_kind, hop.locality,
                             hop.nbytes)
    return tier_scaled(machine, hop.tier, link.alpha, link.beta)


def cpu_injection_rate(machine: MachineSpec, hop: Hop) -> float:
    """Effective NIC rate (bytes/s) for one CPU MAX_RATE hop.

    The legacy node-aggregate rate unless the hop pins its senders to a
    port subset: an explicit ``nics_used`` serializes through
    ``min(nics_used, nics_per_node)`` ports and overrides the tier's
    ``nic_share``; otherwise a tier's share scales the node rate.
    """
    nic = machine.nic
    if hop.nics_used is not None:
        return nic.injection_rate * min(hop.nics_used, nic.nics_per_node)
    if hop.tier is not None:
        share = machine.locality_hierarchy[hop.tier].nic_share
        if share != 1.0:
            return nic.injection_rate * nic.nics_per_node * share
    return nic.injection_rate * nic.nics_per_node


def hop_cost(machine: MachineSpec, hop: Hop) -> float:
    """Cost of one hop from the machine's measured constants.

    SEQUENTIAL: postal model times count.  MAX_RATE: eq. (4.3) for CPU
    sends (NIC injection guard over the busiest node) or eq. (4.4) for
    GPU sends (postal, with the injection guard only on machines that
    declare a finite GPU injection rate).  MEMCPY: Table-3 row for the
    hop's direction and process count.
    """
    if hop.kind is HopKind.MEMCPY:
        link = machine.copy_params.link(hop.direction, hop.nproc)
        return link.alpha + link.beta * hop.nbytes
    alpha, beta = resolve_link(machine, hop)
    if hop.serialization is Serialization.SEQUENTIAL:
        return hop.count * (alpha + beta * hop.nbytes)
    if hop.kind is HopKind.CPU_SEND:
        rn = cpu_injection_rate(machine, hop)
        return alpha * hop.count + max(hop.node_bytes / rn,
                                       hop.total_bytes * beta)
    base = alpha * hop.count + hop.total_bytes * beta
    gpu_rate = machine.nic.gpu_injection_rate
    if gpu_rate != float("inf"):
        gpn = max(machine.gpus_per_node, 1)
        base = alpha * hop.count + max(
            gpn * hop.total_bytes / (gpu_rate * machine.nic.nics_per_node),
            hop.total_bytes * beta)
    return base


def stage_cost(machine: MachineSpec, stage: HopStage) -> float:
    """Cost of one stage: enabled hop costs summed in order, times ``repeat``.

    Disabled conditional hops are skipped.  SETUP stages amortize: the
    finished (repeated) sum divides by ``amortize_over``.
    """
    total = None
    for hop in stage.hops:
        if not hop.enabled:
            continue
        cost = hop_cost(machine, hop)
        total = cost if total is None else total + cost
    if stage.repeat != 1.0:
        total = stage.repeat * total
    if stage.amortize_over != 1.0:
        total = total / stage.amortize_over
    return total


def evaluate_stages(machine: MachineSpec,
                    stages: Sequence[HopStage]) -> float:
    """Total plan cost: stage costs summed left-associatively."""
    total = None
    for stage in stages:
        cost = stage_cost(machine, stage)
        total = cost if total is None else total + cost
    return 0.0 if total is None else total


def cost_plan(machine: MachineSpec, plan: HopPlan) -> float:
    """Evaluate a compiled scalar :class:`HopPlan`."""
    return evaluate_stages(machine, plan.stages)


# -- fused multi-plan evaluation ---------------------------------------------
#
# stack_plans() lowers a *list* of compiled plans into padded operand
# tensors of shape (plans, stages, hops, elements); the hop formulas
# then evaluate over the entire tensor with one numpy expression per
# formula, and FusedPlans.evaluate() folds hops and stages with the same
# left-associative order as evaluate_stages() (explicit small loops, not
# pairwise np.sum), so every element's result is bit-identical to the
# scalar reference on that element's summary.
#
# Padding is engineered to be a bitwise no-op: padded hop slots carry
# alpha=beta=count=bytes=0 (their cost is exactly +0.0) and
# enabled=False (the where-fold leaves the running sum's bits alone);
# padded stages scale +0.0 by repeat 1.0 and add +0.0 to the plan total
# (exact for the non-negative totals the models produce).  MEMCPY hops
# share the SEQUENTIAL formula with count=1: ``1.0 * x`` is bit-identical
# to ``x``.


@dataclass(frozen=True)
class FusedPlans:
    """Padded operand tensors for a list of compiled plans.

    All array attributes have shape ``(S, St, H, N)``: ``S`` plans,
    ``St`` = max stages per plan, ``H`` = max hops per stage, ``N``
    elements (the width of the batch the plans were compiled from).
    """

    labels: Tuple[str, ...]
    alpha: np.ndarray
    beta: np.ndarray
    count: np.ndarray
    nbytes: np.ndarray
    total_bytes: np.ndarray
    node_bytes: np.ndarray
    enabled: np.ndarray          # bool: padded or disabled slots are False
    is_cpu_max_rate: np.ndarray  # bool, shape (S, St, H, 1)
    is_gpu_max_rate: np.ndarray  # bool, shape (S, St, H, 1)
    repeat: np.ndarray           # shape (S, St, 1)
    # machine constants captured at stack time
    cpu_rate_node: float         # injection_rate * nics_per_node
    gpu_rate: float              # gpu_injection_rate (may be inf)
    gpu_rate_denom: float        # gpu_injection_rate * nics_per_node
    gpus_per_node: int           # max(gpus_per_node, 1)
    # locality-hierarchy extensions; None for all-flat plan sets (the
    # evaluator then takes exactly the pre-hierarchy expressions)
    cpu_rate: Optional[np.ndarray] = None   # (S, St, H, 1) per-hop NIC rate
    amortize: Optional[np.ndarray] = None   # (S, St, 1) setup divisor

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        return self.alpha.shape

    def evaluate(self) -> np.ndarray:
        """Cost every plan for every element: returns shape ``(S, N)``.

        Hop formulas run over the whole tensor; the three formula
        families are then selected per hop slot.  Folds are explicit
        left-associative loops over the (small) hop and stage axes so
        the accumulation order matches :func:`evaluate_stages` exactly.
        """
        alpha, beta, count = self.alpha, self.beta, self.count
        # SEQUENTIAL (and MEMCPY with count=1): postal model times count.
        cost = count * (alpha + beta * self.nbytes)
        if np.any(self.is_cpu_max_rate):
            rate = (self.cpu_rate if self.cpu_rate is not None
                    else self.cpu_rate_node)
            cpu_mr = alpha * count + np.maximum(
                self.node_bytes / rate,
                self.total_bytes * beta)
            cost = np.where(self.is_cpu_max_rate, cpu_mr, cost)
        if np.any(self.is_gpu_max_rate):
            if self.gpu_rate != float("inf"):
                gpu_mr = alpha * count + np.maximum(
                    self.gpus_per_node * self.total_bytes
                    / self.gpu_rate_denom,
                    self.total_bytes * beta)
            else:
                gpu_mr = alpha * count + self.total_bytes * beta
            cost = np.where(self.is_gpu_max_rate, gpu_mr, cost)
        # hop fold: the leading hop is unconditional by IR contract;
        # later hops fold through where() exactly like stage_cost().
        stage_total = cost[:, :, 0, :]
        for h in range(1, cost.shape[2]):
            stage_total = np.where(self.enabled[:, :, h, :],
                                   stage_total + cost[:, :, h, :],
                                   stage_total)
        scaled = self.repeat * stage_total
        if self.amortize is not None:
            scaled = scaled / self.amortize
        total = scaled[:, 0, :]
        for st in range(1, scaled.shape[1]):
            total = total + scaled[:, st, :]
        return total


def _plan_width(plans: Sequence[HopPlan]) -> int:
    """Element width of the batch the plans were compiled from."""
    for plan in plans:
        for stage in plan.stages:
            for hop in stage.hops:
                for q in (hop.count, hop.nbytes, hop.total_bytes,
                          hop.node_bytes, hop.enabled):
                    if isinstance(q, np.ndarray) and q.ndim == 1:
                        return int(q.size)
    return 1


def _fill(out: np.ndarray, value: Any) -> None:
    """Broadcast a scalar or (N,) quantity into one hop slot."""
    arr = np.asarray(value, dtype=out.dtype)
    if arr.ndim > 1 or (arr.ndim == 1 and arr.shape != out.shape):
        raise ValueError(
            f"hop quantity of shape {arr.shape} does not broadcast to "
            f"batch width {out.shape[0]}")
    out[...] = arr


def _rows(values: Sequence[Any], n: int) -> np.ndarray:
    """Per-hop quantities (scalars or ``(n,)`` arrays) as float rows.

    All-scalar lists become one ``(len, 1)`` column that broadcasts
    over the width; all-array lists one ``(len, n)`` block.  Mixed or
    misshapen lists fill row by row through :func:`_fill`, which names
    the offending shape.
    """
    try:
        block = np.array(values, dtype=float)
    except ValueError:  # scalars mixed with arrays
        block = None
    if block is not None:
        if block.ndim == 1:
            return block[:, None]
        if block.ndim == 2 and block.shape[1] == n:
            return block
    out = np.empty((len(values), n))
    for row, value in zip(out, values):
        _fill(row, value)
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a layout array read-only: every stacked tensor shares it."""
    arr.flags.writeable = False
    return arr


class _StackLayout:
    """The half of a :class:`FusedPlans` that summary data cannot change.

    Built once per (machine, plan structure) by :func:`stack_plans`:
    the padded shape, each hop's flat slot, the MEMCPY alpha/beta, the
    stage ``repeat`` and ``amortize`` divisors, the MAX_RATE masks and
    per-hop NIC rates, and one tier-scaled protocol row per send hop —
    the inclusive size limits and per-protocol alphas/betas that
    ``CommParams._link_rows`` holds for the hop's (kind, locality,
    pre_posted), scaled by :func:`tier_scaled`.  Hops are numbered in
    walk order (plan, stage, hop).
    """

    def __init__(self, machine: MachineSpec,
                 plans: Sequence[HopPlan]) -> None:
        n_stages = max(max(len(p.stages) for p in plans), 1)
        n_hops = max(max((len(st.hops) for p in plans for st in p.stages),
                         default=1), 1)
        shape = (len(plans), n_stages, n_hops)
        size = shape[0] * n_stages * n_hops
        nic = machine.nic
        rate_node = nic.injection_rate * nic.nics_per_node
        slots, sends, max_rate, cpu_max_rate = [], [], [], []
        copies, copy_links, rows, cpu_rates, gpu_slots = [], [], [], [], []
        repeat = np.ones(shape[:2] + (1,))
        amortize = np.ones(shape[:2] + (1,))
        for s, plan in enumerate(plans):
            for t, stage in enumerate(plan.stages):
                repeat[s, t, 0] = stage.repeat
                amortize[s, t, 0] = stage.amortize_over
                for h, hop in enumerate(stage.hops):
                    slot = (s * n_stages + t) * n_hops + h
                    position = len(slots)
                    slots.append(slot)
                    if hop.kind is HopKind.MEMCPY:
                        copies.append(slot)
                        copy_links.append((hop.direction, hop.nproc))
                        continue
                    sends.append(position)
                    rows.append((hop.kind.transport_kind, hop.locality,
                                 hop.pre_posted, hop.tier))
                    if hop.serialization is Serialization.MAX_RATE:
                        max_rate.append(position)
                        if hop.kind is HopKind.CPU_SEND:
                            cpu_max_rate.append(position)
                            cpu_rates.append(cpu_injection_rate(machine, hop))
                        else:
                            gpu_slots.append(slot)
        self.shape = shape
        self.size = size
        self.slots = np.array(slots, dtype=np.intp)
        self.sends = sends
        self.send_slots = self.slots[sends]
        self.max_rate = max_rate
        self.max_rate_slots = self.slots[max_rate]
        self.cpu_max_rate = cpu_max_rate
        self.cpu_max_rate_slots = self.slots[cpu_max_rate]
        self.copy_slots = np.array(copies, dtype=np.intp)
        links = {key: machine.copy_params.link(*key)
                 for key in set(copy_links)}
        self.copy_alpha = np.array([links[key].alpha for key in copy_links]
                                   ).reshape(-1, 1)
        self.copy_beta = np.array([links[key].beta for key in copy_links]
                                  ).reshape(-1, 1)
        self._protocol_rows(machine, rows)
        is_cpu_mr = np.zeros(size, dtype=bool)
        is_cpu_mr[self.cpu_max_rate_slots] = True
        is_gpu_mr = np.zeros(size, dtype=bool)
        is_gpu_mr[gpu_slots] = True
        self.is_cpu_max_rate = _frozen(is_cpu_mr.reshape(shape + (1,)))
        self.is_gpu_max_rate = _frozen(is_gpu_mr.reshape(shape + (1,)))
        self.repeat = _frozen(repeat)
        self.amortize = (_frozen(amortize) if np.any(amortize != 1.0)
                         else None)
        self.cpu_rate = None
        if any(rate != rate_node for rate in cpu_rates):
            cpu_rate = np.full(size, rate_node)
            cpu_rate[self.cpu_max_rate_slots] = cpu_rates
            self.cpu_rate = _frozen(cpu_rate.reshape(shape + (1,)))
        self.constants = dict(
            cpu_rate_node=rate_node,
            gpu_rate=nic.gpu_injection_rate,
            gpu_rate_denom=nic.gpu_injection_rate * nic.nics_per_node,
            gpus_per_node=max(machine.gpus_per_node, 1))

    def _protocol_rows(self, machine: MachineSpec, rows: list) -> None:
        """One tier-scaled Table-2 row per send hop, keyed
        ``(kind, locality, pre_posted, tier)``.

        Rows pad to the longest protocol chain: an ``inf`` limit is
        never exceeded by a number, and NaN (past every limit) takes
        the repeated last protocol, as ``searchsorted`` would.  The
        alphas and betas are flat, send hop k's row starting at
        ``k * width``; ``limits`` holds one column per protocol
        boundary.
        """
        table = machine.comm_params._link_rows
        width = max(a.size for _l, a, _b in table.values())
        padded = {}
        for key in set(rows):
            limits, alphas, betas = table[key[:3]]
            alphas, betas = tier_scaled(machine, key[3], alphas, betas)
            pad = width - alphas.size
            padded[key] = (limits.tolist() + [np.inf] * pad,
                           alphas.tolist() + [alphas[-1]] * pad,
                           betas.tolist() + [betas[-1]] * pad)
        limits = np.array([padded[key][0] for key in rows]
                          ).reshape(len(rows), width - 1)
        self.limits = [limits[:, j:j + 1] for j in range(width - 1)]
        self.row_offsets = np.arange(0, len(rows) * width, width,
                                     dtype=np.intp)[:, None]
        self.alphas = np.array([padded[key][1] for key in rows]).reshape(-1)
        self.betas = np.array([padded[key][2] for key in rows]).reshape(-1)

    def _links(self, nbytes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-slot alpha and beta: copy constants, and for every send
        hop the Table-2 entry of its protocol at its message size."""
        sizes = nbytes[self.send_slots]
        if (sizes < 0).any():
            raise ValueError("message sizes must be >= 0")
        # one lookup for every send hop: a size's protocol is the
        # number of limits it exceeds (``searchsorted(side="left")``),
        # offset to its hop's row of the flat alpha/beta tables
        index = self.row_offsets + np.zeros(sizes.shape, dtype=np.intp)
        for limit in self.limits:
            index += ~(sizes <= limit)
        alpha = np.zeros(nbytes.shape)
        beta = np.zeros(nbytes.shape)
        alpha[self.copy_slots] = self.copy_alpha
        beta[self.copy_slots] = self.copy_beta
        alpha[self.send_slots] = self.alphas.take(index)
        beta[self.send_slots] = self.betas.take(index)
        return alpha, beta

    def stack(self, labels: Tuple[str, ...], hops: Sequence[Hop],
              n: int) -> FusedPlans:
        """Lay ``hops`` (walk order, this structure) out over width ``n``."""
        size = self.size
        shape = self.shape + (n,)
        nbytes = np.zeros((size, n))
        nbytes[self.slots] = _rows([hop.nbytes for hop in hops], n)
        alpha, beta = self._links(nbytes)
        count = np.zeros((size, n))
        count[self.copy_slots] = 1.0  # MEMCPY = SEQUENTIAL with count 1
        count[self.send_slots] = _rows([hops[i].count for i in self.sends],
                                       n)
        total_bytes = np.zeros((size, n))
        total_bytes[self.max_rate_slots] = _rows(
            [hops[i].total_bytes for i in self.max_rate], n)
        node_bytes = np.zeros((size, n))
        node_bytes[self.cpu_max_rate_slots] = _rows(
            [hops[i].node_bytes for i in self.cpu_max_rate], n)
        enabled = np.zeros((size, n), dtype=bool)
        enabled[self.slots] = True
        for position, hop in enumerate(hops):
            if hop.enabled is not True:
                enabled[self.slots[position]] = np.asarray(hop.enabled,
                                                           dtype=bool)
        return FusedPlans(
            labels=labels,
            alpha=alpha.reshape(shape), beta=beta.reshape(shape),
            count=count.reshape(shape), nbytes=nbytes.reshape(shape),
            total_bytes=total_bytes.reshape(shape),
            node_bytes=node_bytes.reshape(shape),
            enabled=enabled.reshape(shape),
            is_cpu_max_rate=self.is_cpu_max_rate,
            is_gpu_max_rate=self.is_gpu_max_rate, repeat=self.repeat,
            cpu_rate=self.cpu_rate, amortize=self.amortize,
            **self.constants)


#: stacking layouts per live machine: ``id(machine)`` -> (weak
#: reference, {plan structure: layout}); an entry dies with its machine
_LAYOUTS: Dict[int, Tuple[Any, Dict[tuple, _StackLayout]]] = {}

#: distinct plan structures kept per machine before the cache restarts
_MAX_LAYOUTS = 64


def _machine_layouts(machine: MachineSpec) -> Dict[tuple, _StackLayout]:
    key = id(machine)
    entry = _LAYOUTS.get(key)
    if entry is None or entry[0]() is not machine:
        ref = weakref.ref(machine, lambda _ref: _LAYOUTS.pop(key, None))
        entry = _LAYOUTS[key] = (ref, {})
    return entry[1]


def _structure(plans: Sequence[HopPlan]) -> Tuple[tuple, list]:
    """The plans' layout key and their hops in walk order.

    The key holds everything :class:`_StackLayout` reads from the
    plans — stage and hop counts, ``repeat``/``amortize_over`` and each
    hop's kind, serialization, locality, copy row, tier, NIC ports and
    channel persistence — so two plan lists share a layout exactly when
    they lower identically.
    """
    key, hops = [], []
    for plan in plans:
        key.append(len(plan.stages))
        for stage in plan.stages:
            key.append((len(stage.hops), stage.repeat, stage.amortize_over))
            for hop in stage.hops:
                hops.append(hop)
                # enum members are singletons: their ids key them
                # without a Python-level ``Enum.__hash__`` per field
                key.append((id(hop.kind), id(hop.serialization),
                            id(hop.locality), id(hop.direction), hop.nproc,
                            hop.tier, hop.nics_used, hop.pre_posted))
    return tuple(key), hops


def stack_plans(machine: MachineSpec, plans: Sequence[HopPlan],
                n: Optional[int] = None) -> FusedPlans:
    """Lower compiled plans into padded :class:`FusedPlans` tensors.

    ``n`` is the element width; inferred from the first array-valued hop
    quantity when omitted (``1`` for all-scalar plans).  Everything the
    machine and the plans' hop structure fix — MEMCPY constants, stage
    repeats, MAX_RATE masks, NIC rates and one tier-scaled Table-2
    protocol row per send hop (the rows behind
    :meth:`~repro.machine.params.CommParams.link_arrays`, scaled by
    :func:`tier_scaled`) — comes from a layout cached per (machine,
    structure).  A call only gathers the hops' counts, sizes and
    ``enabled`` values and picks every send hop's protocol in one
    vectorized lookup, so the tensors are a pure re-layout of what the
    scalar :func:`resolve_link` selects.
    """
    plans = list(plans)
    if not plans:
        raise ValueError("stack_plans requires at least one plan")
    if n is None:
        n = _plan_width(plans)
    key, hops = _structure(plans)
    layouts = _machine_layouts(machine)
    layout = layouts.get(key)
    if layout is None:
        if len(layouts) >= _MAX_LAYOUTS:
            layouts.clear()
        layout = layouts[key] = _StackLayout(machine, plans)
    return layout.stack(tuple(p.strategy for p in plans), hops, n)


def evaluate_plans_fused(machine: MachineSpec, plans: Sequence[HopPlan],
                         n: Optional[int] = None) -> np.ndarray:
    """Cost all ``plans`` over their shared batch in one fused pass.

    Returns shape ``(len(plans), N)``; element ``i`` of row ``s`` is
    bit-identical to :func:`cost_plan` on ``plans[s]`` compiled from the
    batch's ``i``-th scalar summary.
    """
    return stack_plans(machine, plans, n).evaluate()
