import json

import numpy as np

from hypertraffic.game import make_game, solve_games
from hypertraffic.netsim import (
    RSU,
    ROUND_START,
    SESSION_START,
    STOP_SIGNAL,
    STRATEGY_BROADCAST,
    node_for,
    run_distributed,
)
from hypertraffic.scenario import (
    default_offline_scenario,
    style_weights_for,
    success_study_scenario,
)


def _subjective_game(scen):
    weights = {0: scen.hv.weights_true}
    for cav in scen.cavs:
        weights[cav.vid] = style_weights_for(cav.behavior.kind, cav.style)
    return make_game(scen, weights)


def test_node_mapping():
    assert node_for(0) == RSU
    assert node_for(3) == "cav3"


def test_distributed_equals_centralized_bitwise():
    scen = default_offline_scenario()
    game = _subjective_game(scen)
    dist_result, dist_trace = run_distributed(game)
    cent_result = solve_games(game)
    assert dist_result.converged and cent_result.converged
    assert dist_result.iterations == cent_result.iterations
    for vid in dist_result.strategies:
        assert np.array_equal(
            dist_result.strategies[vid].data, cent_result.strategies[vid].data
        )
    assert dist_result.gaps == cent_result.gaps
    assert dist_trace.rounds == cent_result.iterations


def test_message_accounting_for_converged_session():
    scen = default_offline_scenario()
    game = _subjective_game(scen)
    result, trace = run_distributed(game)
    players = len(game.decision_ids)
    kinds = [m.kind for m in trace.messages]
    assert kinds.count(SESSION_START) == 1
    assert kinds.count(ROUND_START) == trace.rounds
    assert kinds.count(STRATEGY_BROADCAST) == trace.rounds * players
    assert kinds.count(STOP_SIGNAL) == 1
    assert trace.message_count == 1 + trace.rounds * (1 + players) + 1
    assert trace.rounds == result.iterations
    # the stop signal is the final transmission of the final round
    assert trace.messages[-1].kind == STOP_SIGNAL
    assert trace.messages[-1].iteration == trace.rounds
    # broadcasts within a round go out in sweep order
    for zeta in range(1, trace.rounds + 1):
        senders = [
            m.player for m in trace.messages
            if m.iteration == zeta and m.kind == STRATEGY_BROADCAST
        ]
        assert senders == sorted(game.decision_ids)


def test_stalled_session_sends_no_stop_signal():
    scen = success_study_scenario()
    game = make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    result, trace = run_distributed(game)
    assert not result.converged
    kinds = [m.kind for m in trace.messages]
    assert kinds.count(STOP_SIGNAL) == 0
    assert kinds.count(ROUND_START) == result.iterations
    # Each best-response event carries its QP status: the human's QP is
    # infeasible in rounds 2 and 3, every other one optimal.
    failed = [(e.player, e.iteration, e.status) for e in trace.events
              if e.kind == "best_response" and e.status != "optimal"]
    assert failed == [(0, 2, "infeasible"), (0, 3, "infeasible")]
    assert {e.status for e in trace.events if e.kind == "criterion"} == {None}


def test_broadcast_recipients_exclude_sender():
    scen = default_offline_scenario()
    game = _subjective_game(scen)
    _, trace = run_distributed(game)
    nodes = {node_for(vid) for vid in game.decision_ids}
    for msg in trace.messages:
        if msg.kind == STRATEGY_BROADCAST:
            assert msg.sender == node_for(msg.player)
            assert msg.sender not in msg.recipients
            assert set(msg.recipients) == nodes - {msg.sender}


def test_simulated_seconds_model():
    scen = default_offline_scenario()
    game = _subjective_game(scen)
    _, dist = run_distributed(game)
    # per-round maxima can never exceed the per-round sums, which the
    # session's wall clock covers
    per_round_sum = sum(
        dist.node_seconds(node, zeta)
        for node in {e.node for e in dist.events}
        for zeta in range(1, dist.rounds + 1)
    )
    assert 0.0 < dist.simulated_seconds() <= per_round_sum + 1e-12
    assert per_round_sum <= dist.total_seconds


def test_trace_jsonl_round_trip(tmp_path):
    scen = default_offline_scenario()
    game = _subjective_game(scen)
    _, trace = run_distributed(game)
    path = tmp_path / "session.jsonl"
    trace.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[-1]["record"] == "summary"
    assert rows[-1]["messages"] == trace.message_count
    assert rows[-1]["rounds"] == trace.rounds
    messages = [r for r in rows if r["record"] == "message"]
    events = [r for r in rows if r["record"] == "event"]
    assert len(messages) == trace.message_count
    assert len(events) == len(trace.events)
    assert [r["status"] for r in events] == [e.status for e in trace.events]
    assert {r["status"] for r in events} == {"optimal", None}
    # broadcast payloads are summarized by norm, never dumped raw
    for row in messages:
        if row["kind"] == STRATEGY_BROADCAST:
            assert row["payload_norm"] > 0.0
