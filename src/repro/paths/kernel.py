"""The analytic costing kernel: a scalar reference and a fused array coster.

Every cost in the analytic layer is produced here, by walking
:class:`~repro.paths.ir.HopStage` records and charging each hop from
the machine's Table-2/3/4 constants.  There are exactly two costers:

* the **scalar reference** — :func:`hop_cost` / :func:`stage_cost` /
  :func:`evaluate_stages` / :func:`cost_plan` over plans compiled from
  one scalar :class:`~repro.models.pattern_summary.PatternSummary`
  (``StrategyModel.time``, validation, the selector, crossovers);
* the **fused array coster** — :func:`stack_plans` lowers any number of
  plans compiled from an array-form summary into padded tensors, and
  :meth:`FusedPlans.evaluate` costs every (plan, element) cell at once
  (``StrategyModel.time_sweep``, the scenario sweeps, the atlas).

Bit-exactness contract: stage sums start from the first hop's cost,
stages accumulate left-associatively, and a ``repeat`` factor
multiplies the finished stage sum (exact for the power-of-two repeats
the models use).  The fused coster applies the same floating-point
operations in the same order per element, so it is bit-identical to the
scalar reference; the goldens in ``tests/test_equivalence.py`` pin both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

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


def stack_plans(machine: MachineSpec, plans: Sequence[HopPlan],
                n: Optional[int] = None) -> FusedPlans:
    """Lower compiled plans into padded :class:`FusedPlans` tensors.

    ``n`` is the element width; inferred from the first array-valued hop
    quantity when omitted (``1`` for all-scalar plans).  Protocol
    selection (Table-2 alpha/beta per individual message size) happens
    here, once per real hop slot, through
    :meth:`~repro.machine.params.CommParams.link_arrays` and the same
    :func:`tier_scaled` refinement the scalar :func:`resolve_link`
    applies — so the tensors are a pure re-layout, not a re-derivation.
    """
    plans = list(plans)
    if not plans:
        raise ValueError("stack_plans requires at least one plan")
    if n is None:
        n = _plan_width(plans)
    n_stages = max(len(p.stages) for p in plans)
    n_hops = max((len(st.hops) for p in plans for st in p.stages), default=1)
    shape = (len(plans), max(n_stages, 1), max(n_hops, 1), n)
    nic = machine.nic
    rate_node = nic.injection_rate * nic.nics_per_node
    alpha = np.zeros(shape)
    beta = np.zeros(shape)
    count = np.zeros(shape)
    nbytes = np.zeros(shape)
    total_bytes = np.zeros(shape)
    node_bytes = np.zeros(shape)
    enabled = np.zeros(shape, dtype=bool)
    is_cpu_mr = np.zeros(shape[:3] + (1,), dtype=bool)
    is_gpu_mr = np.zeros(shape[:3] + (1,), dtype=bool)
    repeat = np.ones(shape[:2] + (1,))
    cpu_rate: Optional[np.ndarray] = None
    amortize: Optional[np.ndarray] = None
    for s, plan in enumerate(plans):
        for t, stage in enumerate(plan.stages):
            repeat[s, t, 0] = stage.repeat
            if stage.amortize_over != 1.0:
                if amortize is None:
                    amortize = np.ones(shape[:2] + (1,))
                amortize[s, t, 0] = stage.amortize_over
            for h, hop in enumerate(stage.hops):
                _fill(nbytes[s, t, h], hop.nbytes)
                if hop.kind is HopKind.MEMCPY:
                    link = machine.copy_params.link(hop.direction, hop.nproc)
                    alpha[s, t, h] = link.alpha
                    beta[s, t, h] = link.beta
                    count[s, t, h] = 1.0  # MEMCPY = SEQUENTIAL with count 1
                else:
                    alpha[s, t, h], beta[s, t, h] = tier_scaled(
                        machine, hop.tier,
                        *machine.comm_params.link_arrays(
                            hop.kind.transport_kind, hop.locality,
                            nbytes[s, t, h], pre_posted=hop.pre_posted))
                    _fill(count[s, t, h], hop.count)
                    if hop.serialization is Serialization.MAX_RATE:
                        _fill(total_bytes[s, t, h], hop.total_bytes)
                        if hop.kind is HopKind.CPU_SEND:
                            _fill(node_bytes[s, t, h], hop.node_bytes)
                            is_cpu_mr[s, t, h, 0] = True
                            rate = cpu_injection_rate(machine, hop)
                            if rate != rate_node and cpu_rate is None:
                                cpu_rate = np.full(shape[:3] + (1,),
                                                   rate_node)
                            if cpu_rate is not None:
                                cpu_rate[s, t, h, 0] = rate
                        else:
                            is_gpu_mr[s, t, h, 0] = True
                enabled[s, t, h] = (True if hop.enabled is True
                                    else np.asarray(hop.enabled, dtype=bool))
    return FusedPlans(
        labels=tuple(p.strategy for p in plans),
        alpha=alpha, beta=beta, count=count, nbytes=nbytes,
        total_bytes=total_bytes, node_bytes=node_bytes,
        enabled=enabled, is_cpu_max_rate=is_cpu_mr,
        is_gpu_max_rate=is_gpu_mr, repeat=repeat,
        cpu_rate_node=rate_node,
        gpu_rate=nic.gpu_injection_rate,
        gpu_rate_denom=nic.gpu_injection_rate * nic.nics_per_node,
        gpus_per_node=max(machine.gpus_per_node, 1),
        cpu_rate=cpu_rate, amortize=amortize,
    )


def evaluate_plans_fused(machine: MachineSpec, plans: Sequence[HopPlan],
                         n: Optional[int] = None) -> np.ndarray:
    """Cost all ``plans`` over their shared batch in one fused pass.

    Returns shape ``(len(plans), N)``; element ``i`` of row ``s`` is
    bit-identical to :func:`cost_plan` on ``plans[s]`` compiled from the
    batch's ``i``-th scalar summary.
    """
    return stack_plans(machine, plans, n).evaluate()
