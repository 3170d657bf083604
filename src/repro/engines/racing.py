"""Engine racing: competing lanes, first proof wins, losers cancelled.

A hard query (size > k + m) has three very different routes to an
answer, with wildly different and *unpredictable* costs:

* the optimal ``A_i``-list scan -- exact within reach ``L``, seconds of
  numpy work, and when the function is *out* of reach all that work
  only buys a lower bound;
* SAT iterative deepening -- exact everywhere, usually far slower, but
  occasionally fast (shallow circuits, lucky conflict order);
* the MMD heuristic -- milliseconds, never a proof on its own.

Instead of guessing which route to take, the ``race`` engine launches
all three as cancellable :class:`repro.service.tasks.WorkItem` lanes
and returns the first *provably optimal* finisher:

* the optimal lane finishing exactly wins outright;
* the SAT lane finishing wins outright;
* the optimal lane proving a lower bound that *meets* the heuristic's
  circuit promotes that circuit to provably optimal (the paper's
  Section 4.4 argument).

The remaining lanes are cancelled through their tokens the moment a
winner is decided -- the scan stops at its next ``A_i`` boundary, the
SAT solver at its next conflict.  When the request's deadline expires
before any proof, every lane is cancelled and the best known bound is
returned with ``guarantee: "upper_bound"`` (the degraded wire
semantics), never an error.

Results carry ``extra["winner"]`` and ``extra["cancelled_lanes"]`` so
callers -- and the daemon's wire protocol -- can see which lane paid
for the answer and which were preempted.  When the scan proved a lower
bound, ``extra["lower_bound"]`` and the heuristic's
``extra["upper_bound"]`` record the gap the winning proof closed.

This module lives in the engines layer: :mod:`repro.service.tasks` is
imported lazily inside methods (the sanctioned exempt pattern for the
``engines -> service`` boundary), and the engine degrades to plain
unracing work items when constructed without a service registry.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.engines.api import (
    GUARANTEE_HEURISTIC,
    GUARANTEE_OPTIMAL,
    GUARANTEE_UPPER_BOUND,
    Engine,
    EngineCapabilities,
    SynthesisRequest,
    SynthesisResult,
)
from repro.engines.baselines import HeuristicEngine, SatEngine
from repro.engines.optimal import OptimalEngine
from repro.errors import SizeLimitExceededError, SynthesisError
from repro.perf.trace import trace

#: Lane names, in winner-priority order where ties happen.
LANES: tuple[str, ...] = ("optimal", "sat", "heuristic")

#: How often the referee loop re-examines lane states (seconds).  Lane
#: completions also wake it immediately via an event.
_POLL_SECONDS = 0.005

#: Bounded grace for loser threads to observe their checkpoint before
#: the race returns (they keep running as daemon threads past this and
#: mark themselves cancelled at the next boundary).
_JOIN_GRACE_SECONDS = 0.25


class RaceEngine(Engine):
    """Race the optimal scan, SAT, and the MMD heuristic; cancel losers."""

    name = "race"

    def __init__(
        self,
        n_wires: int = 4,
        k: int = 6,
        max_list_size: "int | None" = None,
        cache_dir: Any = None,
        verbose: bool = False,
        sat_max_gates: int = 8,
        sat_conflict_budget: "int | None" = None,
        time_budget: "float | None" = None,
        handle: Any = None,
        tasks: Any = None,
    ) -> None:
        self.optimal = OptimalEngine(
            n_wires=n_wires,
            k=k,
            max_list_size=max_list_size,
            cache_dir=cache_dir,
            verbose=verbose,
        )
        if handle is not None:
            # A warm handle (the daemon's) replaces the lane's facade so
            # the race never re-prepares the database.
            from repro.synth.synthesizer import OptimalSynthesizer

            self.optimal.impl = OptimalSynthesizer.from_handle(handle)
        self.sat = SatEngine(
            max_gates=sat_max_gates, conflict_budget=sat_conflict_budget
        )
        self.heuristic = HeuristicEngine()
        #: Optional :class:`repro.service.tasks.TaskRegistry`; when the
        #: daemon creates this engine it injects its own, so race lanes
        #: show up in ``stats``/``health`` like every other work item.
        self.tasks = tasks
        #: Default wall-clock budget when the request carries none.
        self.time_budget = time_budget
        self.capabilities = EngineCapabilities(
            guarantee=GUARANTEE_OPTIMAL,
            max_wires=4,
            reach=(
                "every function; provably optimal when a proof lane wins, "
                "best upper bound at the deadline"
            ),
            servable=True,
            cancellable=True,
        )

    def prepare(self) -> "RaceEngine":
        self.optimal.prepare()
        return self

    # ------------------------------------------------------------------
    # The race
    # ------------------------------------------------------------------
    def synthesize(self, request: SynthesisRequest) -> SynthesisResult:
        from repro.service.tasks import CANCELLED, DEGRADED, DONE, WorkItem

        perm = request.permutation(self.optimal.impl.n_wires)
        started = time.perf_counter()
        deadline = self._race_deadline(request)
        group = self._group_token(deadline)
        finished = threading.Event()

        def lane_fn(lane: str, engine: Engine) -> Any:
            def run(token: Any) -> SynthesisResult:
                options: dict[str, Any] = {"cancel": token.checkpoint}
                if deadline is not None:
                    options["time_budget"] = max(0.0, deadline.remaining())
                with trace("race.lane", lane=lane):
                    return engine.synthesize(
                        SynthesisRequest(
                            spec=perm, n_wires=perm.n_wires, options=options
                        )
                    )

            return run

        lanes: dict[str, Any] = {}
        engines: dict[str, Engine] = {
            "optimal": self.optimal,
            "sat": self.sat,
            "heuristic": self.heuristic,
        }
        with trace("race.start", lanes=len(LANES)):
            for lane in LANES:
                fn = lane_fn(lane, engines[lane])
                token = group.child()
                if self.tasks is not None:
                    item = self.tasks.create(f"race.{lane}", fn, token=token)
                else:
                    item = WorkItem(f"race.{lane}", fn, token=token)
                lanes[lane] = item

                def runner(work: Any = item) -> None:
                    work.run()
                    finished.set()

                threading.Thread(
                    target=runner, name=f"race-{lane}", daemon=True
                ).start()

        winner: "str | None" = None
        timed_out = False
        while winner is None:
            opt, sat, heu = lanes["optimal"], lanes["sat"], lanes["heuristic"]
            if opt.state == DONE:
                winner = "optimal"
                break
            if sat.state == DONE:
                winner = "sat"
                break
            bound = self._optimal_bound(opt)
            if (
                bound is not None
                and heu.state == DONE
                and heu.result.size <= bound
            ):
                # The scan's failure is the proof: LB meets the circuit.
                winner = "heuristic"
                break
            if group.cancelled or (deadline is not None and deadline.expired()):
                timed_out = True
                break
            states = {item.state for item in lanes.values()}
            if states <= {DONE, CANCELLED, DEGRADED}:
                break  # every lane terminal, no proof possible
            finished.wait(timeout=_POLL_SECONDS)
            finished.clear()

        cancelled_lanes = self._cancel_losers(
            lanes, winner, "deadline" if timed_out else "lost_race"
        )
        with trace("race.winner", winner=winner or "none"):
            return self._decide(
                lanes, winner, cancelled_lanes, perm.spec(), started,
                timed_out=timed_out,
            )

    # ------------------------------------------------------------------
    # Referee helpers
    # ------------------------------------------------------------------
    def _race_deadline(self, request: SynthesisRequest) -> Any:
        """The race's deadline object (duck-typed ``expired()``), from
        the request's ``deadline`` option, else its ``time_budget``,
        else this engine's default budget.  None = run to completion."""
        deadline = request.options.get("deadline")
        if deadline is not None:
            return deadline
        budget = request.options.get("time_budget", self.time_budget)
        if budget is None:
            return None
        from repro.service.resilience import Deadline

        return Deadline(float(budget))

    def _group_token(self, deadline: Any) -> Any:
        from repro.service.tasks import CancelToken

        return CancelToken(deadline=deadline)

    @staticmethod
    def _optimal_bound(item: Any) -> "int | None":
        """The lower bound proven by a degraded optimal lane, if any."""
        from repro.service.tasks import DEGRADED

        if item.state == DEGRADED and isinstance(
            item.error, SizeLimitExceededError
        ):
            return int(item.error.lower_bound)
        return None

    @staticmethod
    def _cancel_losers(
        lanes: dict[str, Any], winner: "str | None", reason: str
    ) -> list[str]:
        """Cancel every non-winning lane; returns the lanes that were
        preempted (asked to stop -- by the referee or by the deadline --
        instead of finishing on their own)."""
        from repro.service.tasks import CANCELLED

        preempted: list[str] = []
        for lane, item in lanes.items():
            if lane == winner or item.finished:
                continue
            item.cancel(reason)
            preempted.append(lane)
        deadline_grace = time.monotonic() + _JOIN_GRACE_SECONDS
        for lane in preempted:
            remaining = deadline_grace - time.monotonic()
            if remaining <= 0:
                break
            lanes[lane].wait(timeout=remaining)
        return sorted(
            lane
            for lane, item in lanes.items()
            if item.state == CANCELLED
            or (not item.finished and item.token.cancelled)
        )

    def _decide(
        self,
        lanes: dict[str, Any],
        winner: "str | None",
        cancelled_lanes: list[str],
        spec: str,
        started: float,
        *,
        timed_out: bool = False,
    ) -> SynthesisResult:
        """Shape the final result from the lane states."""
        opt, heu = lanes["optimal"], lanes["heuristic"]
        lower_bound = self._optimal_bound(opt)
        if winner is not None:
            inner = lanes[winner].result
            extra: dict[str, Any] = {}
            if lower_bound is not None:
                # The scan proved a bound: report the gap the winner closed.
                extra["lower_bound"] = lower_bound
                if heu.result is not None:
                    extra["upper_bound"] = heu.result.size
            return self._finish(
                inner, spec, started, winner, cancelled_lanes,
                guarantee=GUARANTEE_OPTIMAL, **extra,
            )
        # No proof: fall back to the best upper bound we have.  The
        # heuristic lane is milliseconds of work, so normally it already
        # finished; if even that was preempted, run it inline -- a
        # response beats purity, exactly as in the degraded service path.
        upper = heu.result
        if upper is None:
            upper = self.heuristic.synthesize(
                SynthesisRequest(spec=spec, n_wires=self.optimal.impl.n_wires)
            )
        if upper is None:  # pragma: no cover - heuristic cannot fail
            raise SynthesisError("race ended with no usable lane result")
        guarantee = GUARANTEE_UPPER_BOUND if timed_out else GUARANTEE_HEURISTIC
        extra = {"upper_bound": upper.size}
        if lower_bound is not None:
            extra["lower_bound"] = lower_bound
        if timed_out:
            extra["degraded_reason"] = "deadline"
        return self._finish(
            upper, spec, started, None, cancelled_lanes,
            guarantee=guarantee, **extra,
        )

    def _finish(
        self,
        inner: SynthesisResult,
        spec: str,
        started: float,
        winner: "str | None",
        cancelled_lanes: list[str],
        *,
        guarantee: str,
        **extra: Any,
    ) -> SynthesisResult:
        """Re-badge a lane's result as the race's answer (``tier``
        names the lane that paid)."""
        merged = dict(inner.extra)
        merged["tier"] = winner if winner is not None else "heuristic"
        merged["winner"] = winner
        merged["cancelled_lanes"] = cancelled_lanes
        merged.update(extra)
        return SynthesisResult(
            engine=self.name,
            spec=spec,
            size=inner.size,
            circuit=inner.circuit,
            guarantee=guarantee,
            metric=inner.metric,
            depth=inner.depth,
            cost=inner.cost,
            seconds=time.perf_counter() - started,
            extra=merged,
            circuit_obj=inner.circuit_obj,
        )


def make_engine(
    n_wires: int = 4,
    k: int = 6,
    max_list_size: "int | None" = None,
    cache_dir: Any = None,
    verbose: bool = False,
    sat_max_gates: int = 8,
    sat_conflict_budget: "int | None" = None,
    time_budget: "float | None" = None,
    handle: Any = None,
    tasks: Any = None,
) -> RaceEngine:
    """Registry factory for the ``race`` engine."""
    return RaceEngine(
        n_wires=n_wires,
        k=k,
        max_list_size=max_list_size,
        cache_dir=cache_dir,
        verbose=verbose,
        sat_max_gates=sat_max_gates,
        sat_conflict_budget=sat_conflict_budget,
        time_budget=time_budget,
        handle=handle,
        tasks=tasks,
    )


__all__ = ["LANES", "RaceEngine", "make_engine"]
