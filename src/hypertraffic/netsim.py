"""Simulated V2X message layer over the best-response sweep.

One roadside unit hosts the human player's computation and the stopping
criterion; each autonomous vehicle that decides in the game runs on its own
node. Strategies cross node boundaries only inside ProtocolMessage values, so
a session trace is a complete record of what every node knew and when. The
sweep itself is the engine from the game module driven through its observer
hooks, which keeps the distributed run numerically identical to a centralized
one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .game import _NullObserver, solve_games

RSU = "rsu"
CENTER = "center"

SESSION_START = "session_start"
ROUND_START = "round_start"
STRATEGY_BROADCAST = "strategy_broadcast"
STOP_SIGNAL = "stop_signal"


def node_for(vid):
    """Node hosting a player's computation: the roadside unit for id 0."""
    return RSU if vid == 0 else f"cav{vid}"


@dataclass(frozen=True)
class ProtocolMessage:
    """One transmission on the simulated link."""

    kind: str
    sender: str
    recipients: tuple
    iteration: int
    player: object = None
    payload: object = None


@dataclass(frozen=True)
class ComputeEvent:
    """One node-local computation with its measured duration."""

    node: str
    kind: str
    player: object
    iteration: int
    seconds: float


@dataclass(frozen=True)
class SessionTrace:
    """Everything that happened on the link and on the nodes during one game."""

    mode: str
    messages: tuple
    events: tuple
    rounds: int
    total_seconds: float

    @property
    def message_count(self):
        return len(self.messages)

    def messages_in_round(self, zeta):
        return tuple(m for m in self.messages if m.iteration == zeta)

    def node_seconds(self, node, zeta=None):
        return sum(
            e.seconds
            for e in self.events
            if e.node == node and (zeta is None or e.iteration == zeta)
        )

    def simulated_seconds(self):
        """Session duration under the deployment model.

        Distributed rounds cost as much as their slowest node; a centralized
        session costs its wall-clock total.
        """
        if self.mode == "centralized":
            return self.total_seconds
        nodes = {e.node for e in self.events}
        total = 0.0
        for zeta in range(1, self.rounds + 1):
            total += max((self.node_seconds(node, zeta) for node in nodes), default=0.0)
        return total

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for msg in self.messages:
                row = {
                    "record": "message",
                    "kind": msg.kind,
                    "sender": msg.sender,
                    "recipients": list(msg.recipients),
                    "iteration": msg.iteration,
                    "player": msg.player,
                }
                if msg.kind == STRATEGY_BROADCAST:
                    row["payload_norm"] = float(np.linalg.norm(msg.payload.data))
                fh.write(json.dumps(row) + "\n")
            for ev in self.events:
                fh.write(
                    json.dumps(
                        {
                            "record": "event",
                            "node": ev.node,
                            "kind": ev.kind,
                            "player": ev.player,
                            "iteration": ev.iteration,
                            "seconds": ev.seconds,
                        }
                    )
                    + "\n"
                )
            fh.write(
                json.dumps(
                    {
                        "record": "summary",
                        "mode": self.mode,
                        "rounds": self.rounds,
                        "messages": self.message_count,
                        "total_seconds": self.total_seconds,
                        "simulated_seconds": self.simulated_seconds(),
                    }
                )
                + "\n"
            )


class _DistributedObserver:
    """Observer that turns sweep callbacks into node mailboxes and messages.

    Every node keeps its own copy of the strategy profile; a node's view of
    its opponents is read from that mailbox alone, never from the engine's
    shared state, so anything a best response consumes provably arrived by
    message (or was session data seeded at start).
    """

    def __init__(self, game):
        self.game = game
        self.nodes = [RSU] + [node_for(vid) for vid in game.decision_ids if vid != 0]
        self.mailboxes = {}
        self.messages = []
        self.events = []
        self.rounds = 0

    def _cav_nodes(self):
        return tuple(n for n in self.nodes if n != RSU)

    def session_started(self, game, strategies):
        for node in self.nodes:
            self.mailboxes[node] = dict(strategies)
        self.messages.append(
            ProtocolMessage(
                kind=SESSION_START,
                sender=RSU,
                recipients=self._cav_nodes(),
                iteration=0,
                payload=dict(strategies),
            )
        )

    def round_started(self, zeta):
        self.rounds = zeta
        self.messages.append(
            ProtocolMessage(
                kind=ROUND_START, sender=RSU, recipients=self._cav_nodes(), iteration=zeta
            )
        )

    def opponents_view(self, vid, current):
        return dict(self.mailboxes[node_for(vid)])

    def computed(self, vid, zeta, strategy, seconds, status):
        sender = node_for(vid)
        self.events.append(ComputeEvent(sender, "best_response", vid, zeta, seconds))
        self.mailboxes[sender][vid] = strategy
        recipients = tuple(n for n in self.nodes if n != sender)
        self.messages.append(
            ProtocolMessage(
                kind=STRATEGY_BROADCAST,
                sender=sender,
                recipients=recipients,
                iteration=zeta,
                player=vid,
                payload=strategy,
            )
        )
        for node in recipients:
            self.mailboxes[node][vid] = strategy

    def criterion(self, zeta, rel_step, violation, seconds, stop):
        self.events.append(ComputeEvent(RSU, "criterion", None, zeta, seconds))
        if stop:
            self.messages.append(
                ProtocolMessage(
                    kind=STOP_SIGNAL, sender=RSU, recipients=self._cav_nodes(), iteration=zeta
                )
            )

    def session_finished(self, result):
        pass


class _CentralizedObserver(_NullObserver):
    """Single-node bookkeeping: compute events only, nothing on the link."""

    def __init__(self):
        self.messages = []
        self.events = []
        self.rounds = 0

    def round_started(self, zeta):
        self.rounds = zeta

    def computed(self, vid, zeta, strategy, seconds, status):
        self.events.append(ComputeEvent(CENTER, "best_response", vid, zeta, seconds))

    def criterion(self, zeta, rel_step, violation, seconds, stop):
        self.events.append(ComputeEvent(CENTER, "criterion", None, zeta, seconds))


def _run(mode, observer, game, settings, initial):
    t0 = time.perf_counter()
    result = solve_games(game, settings=settings, initial=initial, observer=observer)
    total = time.perf_counter() - t0
    trace = SessionTrace(
        mode=mode,
        messages=tuple(observer.messages),
        events=tuple(observer.events),
        rounds=observer.rounds,
        total_seconds=total,
    )
    return result, trace


def run_distributed(game, settings=None, initial=None):
    """Solve one game over the simulated message layer.

    Returns the equilibrium result together with the full session trace.
    """
    return _run("distributed", _DistributedObserver(game), game, settings, initial)


def run_centralized(game, settings=None, initial=None):
    """Solve the same game on a single node, tracing computations only."""
    return _run("centralized", _CentralizedObserver(), game, settings, initial)
