"""The simlint rule corpus, suppression grammar, baseline differ, and
``repro lint`` CLI.

Fixture snippets are written under a ``repro/...`` directory layout in
tmp_path so the scope-limited rules (sim paths, reporting paths) see
the same dotted module names the real tree produces.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LINT_RULES,
    diff_against_baseline,
    finding_from_dict,
    finding_to_dict,
    lint_paths,
    load_baseline,
    resolve_lint_rules,
    write_baseline,
)
from repro.cli import main
from repro.errors import ConfigError

#: The shipped source tree, independent of the test runner's cwd.
SRC_REPRO = str(Path(__file__).resolve().parent.parent / "src" / "repro")


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# ---------------------------------------------------------------------------
# no-wallclock-in-sim
# ---------------------------------------------------------------------------


def test_wallclock_flagged_in_sim_paths(tmp_path):
    path = write(tmp_path, "repro/sim/clock.py", """\
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert rule_ids(findings) == ["no-wallclock-in-sim"] * 2
    assert findings[0].line == 5


def test_wallclock_allowed_outside_sim_paths(tmp_path):
    path = write(tmp_path, "repro/rago/timing.py", """\
        import time

        def stamp():
            return time.time()
    """)
    assert lint_paths([path], rules=["no-wallclock-in-sim"]) == []


def test_wallclock_resolves_import_aliases(tmp_path):
    path = write(tmp_path, "repro/workloads/alias.py", """\
        from time import monotonic as clock

        def stamp():
            return clock()
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert rule_ids(findings) == ["no-wallclock-in-sim"]
    assert "time.monotonic" in findings[0].message


# ---------------------------------------------------------------------------
# seeded-rng-required
# ---------------------------------------------------------------------------


def test_global_random_import_flagged_in_sim(tmp_path):
    path = write(tmp_path, "repro/sim/chaos.py", """\
        import random

        def pick(options):
            return random.choice(options)
    """)
    findings = lint_paths([path], rules=["seeded-rng-required"])
    # Both the module-level import and the global-RNG draw are flagged.
    assert rule_ids(findings) == ["seeded-rng-required"] * 2
    assert findings[0].line == 1


def test_unseeded_constructors_flagged_seeded_ones_clean(tmp_path):
    flagged = write(tmp_path, "repro/sim/unseeded.py", """\
        import numpy as np
        from random import Random

        def build():
            return Random(), np.random.default_rng()
    """)
    clean = write(tmp_path, "repro/sim/seeded.py", """\
        import numpy as np
        from random import Random

        def build(seed):
            return Random(seed), np.random.default_rng(seed)
    """)
    assert len(lint_paths([flagged], rules=["seeded-rng-required"])) == 2
    assert lint_paths([clean], rules=["seeded-rng-required"]) == []


def test_numpy_global_randomstate_flagged(tmp_path):
    path = write(tmp_path, "repro/workloads/legacy.py", """\
        import numpy as np

        def draw(n):
            return np.random.rand(n)
    """)
    findings = lint_paths([path], rules=["seeded-rng-required"])
    assert rule_ids(findings) == ["seeded-rng-required"]
    assert "default_rng" in findings[0].message


def test_rng_rules_ignore_non_sim_paths(tmp_path):
    path = write(tmp_path, "repro/retrieval/shuffle.py", """\
        import random

        def pick(options):
            return random.choice(options)
    """)
    assert lint_paths([path], rules=["seeded-rng-required"]) == []


# ---------------------------------------------------------------------------
# listener-rebind (the PR 5 LiveServer completion-drop bug)
# ---------------------------------------------------------------------------

#: Minimal reproduction of the PR 5 bug: the engine listener holds
#: self._completions.append, then flush() rebinds the attribute --
#: every completion after the first flush is silently dropped.
PR5_LISTENER_REBIND = """\
    class LiveThing:
        def __init__(self, engine):
            self._completions = []
            engine.add_listener(self._completions.append)

        def flush(self):
            done = self._completions
            self._completions = []
            return done
"""


def test_pr5_listener_rebind_bug_is_flagged(tmp_path):
    path = write(tmp_path, "server.py", PR5_LISTENER_REBIND)
    findings = lint_paths([path], rules=["listener-rebind"])
    assert rule_ids(findings) == ["listener-rebind"]
    assert findings[0].line == 8
    assert "_completions" in findings[0].message
    assert "__init__" in findings[0].message


def test_drain_in_place_fix_is_clean(tmp_path):
    path = write(tmp_path, "server.py", """\
        class LiveThing:
            def __init__(self, engine):
                self._completions = []
                engine.add_listener(self._completions.append)

            def flush(self):
                done = list(self._completions)
                del self._completions[:len(done)]
                return done
    """)
    assert lint_paths([path], rules=["listener-rebind"]) == []


def test_rebind_without_escape_is_clean(tmp_path):
    path = write(tmp_path, "plain.py", """\
        class Counter:
            def __init__(self):
                self._items = []

            def reset(self):
                self._items = []
    """)
    assert lint_paths([path], rules=["listener-rebind"]) == []


# ---------------------------------------------------------------------------
# registry-drift
# ---------------------------------------------------------------------------


def test_phantom_dunder_all_export_flagged(tmp_path):
    path = write(tmp_path, "exports.py", """\
        __all__ = ["exists", "phantom"]

        def exists():
            return 1
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    assert rule_ids(findings) == ["registry-drift"]
    assert "phantom" in findings[0].message


def test_registry_needs_entry_point_and_resolvable_values(tmp_path):
    path = write(tmp_path, "drifted.py", """\
        FOO_POLICIES = {
            "real": RealPolicy,
        }
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    messages = " | ".join(finding.message for finding in findings)
    assert len(findings) == 2
    assert "RealPolicy" in messages  # unresolvable factory
    assert "parse_foo" in messages  # missing entry point


def test_registry_entry_point_found_cross_module(tmp_path):
    write(tmp_path, "pkg/registry.py", """\
        class RealPolicy:
            pass

        FOO_POLICIES = {
            "real": RealPolicy,
        }
    """)
    write(tmp_path, "pkg/frontend.py", """\
        def resolve_foo_policy(name):
            return name
    """)
    assert lint_paths([str(tmp_path / "pkg")],
                      rules=["registry-drift"]) == []


def test_registry_duplicate_key_flagged(tmp_path):
    path = write(tmp_path, "dupes.py", """\
        class A:
            pass

        def resolve_bar_policy(name):
            return name

        BAR_POLICIES = {
            "a": A,
            "a": A,
        }
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    assert rule_ids(findings) == ["registry-drift"]
    assert "repeats key" in findings[0].message


def test_registry_must_appear_in_dunder_all(tmp_path):
    path = write(tmp_path, "hidden.py", """\
        __all__ = ["resolve_baz_policy"]

        class B:
            pass

        def resolve_baz_policy(name):
            return name

        BAZ_POLICIES = {
            "b": B,
        }
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    assert rule_ids(findings) == ["registry-drift"]
    assert "__all__" in findings[0].message


# ---------------------------------------------------------------------------
# mutable-default-arg / unsorted-dict-iteration-in-reporting
# ---------------------------------------------------------------------------


def test_mutable_defaults_flagged(tmp_path):
    path = write(tmp_path, "defaults.py", """\
        def collect(items=[], *, index={}):
            return items, index

        def fine(items=(), index=None):
            return items, index
    """)
    findings = lint_paths([path], rules=["mutable-default-arg"])
    assert rule_ids(findings) == ["mutable-default-arg"] * 2


def test_unsorted_dict_iteration_in_reporting_paths(tmp_path):
    flagged = write(tmp_path, "repro/reporting/loose.py", """\
        def render(stats):
            return [key for key, value in stats.items()]
    """)
    sorted_ok = write(tmp_path, "repro/reporting/stable.py", """\
        def render(stats):
            return [key for key, value in sorted(stats.items())]
    """)
    assert rule_ids(lint_paths(
        [flagged], rules=["unsorted-dict-iteration-in-reporting"])) \
        == ["unsorted-dict-iteration-in-reporting"]
    assert lint_paths(
        [sorted_ok], rules=["unsorted-dict-iteration-in-reporting"]) == []


def test_format_functions_checked_outside_reporting(tmp_path):
    path = write(tmp_path, "repro/rago/tables.py", """\
        def format_cells(cells):
            for key in cells.keys():
                yield key

        def internal_walk(cells):
            for key in cells.keys():
                yield key
    """)
    findings = lint_paths(
        [path], rules=["unsorted-dict-iteration-in-reporting"])
    # Only the format_* function is report-output scope.
    assert [finding.line for finding in findings] == [2]


# ---------------------------------------------------------------------------
# no-per-event-allocation-in-hot-loop
# ---------------------------------------------------------------------------


def test_hotpath_marker_flags_dict_list_and_lambda(tmp_path):
    path = write(tmp_path, "repro/sim/loop.py", """\
        class Station:
            # simlint: hotpath
            def dispatch(self, batch):
                extras = {}
                order = [batch]
                key = lambda item: item.slab
                return extras, order, key
    """)
    findings = lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"])
    assert rule_ids(findings) == \
        ["no-per-event-allocation-in-hot-loop"] * 3
    assert [finding.line for finding in findings] == [4, 5, 6]
    assert "dispatch()" in findings[0].message


def test_hotpath_marker_works_on_the_def_line(tmp_path):
    path = write(tmp_path, "repro/sim/loop.py", """\
        def advance(events):  # simlint: hotpath
            return {event: True for event in events} and []
    """)
    findings = lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"])
    # The dict comprehension is allowed (no literal); the list is not.
    assert rule_ids(findings) == ["no-per-event-allocation-in-hot-loop"]


def test_unmarked_functions_may_allocate(tmp_path):
    path = write(tmp_path, "repro/sim/setup.py", """\
        def build():
            return {"stations": [], "handlers": [lambda s: s]}
    """)
    assert lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"]) == []


def test_hotpath_clean_function_passes(tmp_path):
    path = write(tmp_path, "repro/sim/loop.py", """\
        # simlint: hotpath
        def drain(heap, out):
            while heap:
                out.append(heap.pop())
            return tuple(out)
    """)
    assert lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"]) == []


# ---------------------------------------------------------------------------
# no-blocking-io-in-coordinator
# ---------------------------------------------------------------------------


def test_blocking_calls_flagged_in_coordinator_coroutines(tmp_path):
    path = write(tmp_path, "repro/distrib/bad_coord.py", """\
        import socket
        import time
        from select import select

        async def handle(reader):
            time.sleep(0.1)
            conn = socket.create_connection(("h", 1))
            select([conn], [], [])
            return reader
    """)
    findings = lint_paths([path],
                          rules=["no-blocking-io-in-coordinator"])
    assert rule_ids(findings) == ["no-blocking-io-in-coordinator"] * 3
    assert [finding.line for finding in findings] == [6, 7, 8]
    assert "asyncio.sleep" in findings[0].message
    assert "handle()" in findings[0].message
    assert "socket.create_connection" in findings[1].message


def test_blocking_calls_allowed_in_sync_functions_and_nested_defs(
        tmp_path):
    path = write(tmp_path, "repro/distrib/worker_side.py", """\
        import socket
        import time

        def run_worker(host, port):
            # The sync worker *should* block on its socket.
            conn = socket.create_connection((host, port))
            time.sleep(0.01)
            return conn

        async def spawn(loop):
            def blocking_probe():
                # Runs on an executor thread, not the event loop.
                return socket.create_connection(("h", 1))

            return await loop.run_in_executor(None, blocking_probe)
    """)
    assert lint_paths(
        [path], rules=["no-blocking-io-in-coordinator"]) == []


def test_blocking_calls_allowed_outside_coordinator_scopes(tmp_path):
    path = write(tmp_path, "repro/workloads/loader.py", """\
        import time

        async def fetch():
            time.sleep(1.0)
    """)
    assert lint_paths(
        [path], rules=["no-blocking-io-in-coordinator"]) == []


def test_serve_scope_is_also_coordinator_side(tmp_path):
    path = write(tmp_path, "repro/serve.py", """\
        import time

        async def tick():
            time.sleep(0.5)
    """)
    findings = lint_paths([path],
                          rules=["no-blocking-io-in-coordinator"])
    assert rule_ids(findings) == ["no-blocking-io-in-coordinator"]
    assert "event loop" in findings[0].message


# ---------------------------------------------------------------------------
# suppression grammar
# ---------------------------------------------------------------------------


def test_suppression_silences_one_rule_on_one_line(tmp_path):
    path = write(tmp_path, "repro/sim/mapped.py", """\
        import time

        def epoch():
            return time.time()  # simlint: allow[no-wallclock-in-sim]

        def leak():
            return time.time()
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert [finding.line for finding in findings] == [7]


def test_suppression_list_and_wildcard(tmp_path):
    path = write(tmp_path, "repro/sim/multi.py", """\
        import random  # simlint: allow[seeded-rng-required, other-rule]
        import time

        def both():
            return time.time(), random.choice([1])  # simlint: allow[*]
    """)
    findings = lint_paths(
        [path], rules=["no-wallclock-in-sim", "seeded-rng-required"])
    assert findings == []


def test_wrong_rule_id_does_not_suppress(tmp_path):
    path = write(tmp_path, "repro/sim/wrong.py", """\
        import time

        def stamp():
            return time.time()  # simlint: allow[seeded-rng-required]
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert rule_ids(findings) == ["no-wallclock-in-sim"]


# ---------------------------------------------------------------------------
# findings model, rule registry, baseline differ
# ---------------------------------------------------------------------------


def test_finding_round_trips_and_orders():
    finding = Finding(path="a.py", line=3, rule_id="registry-drift",
                      severity="error", message="m")
    assert finding_from_dict(finding_to_dict(finding)) == finding
    with pytest.raises(ConfigError):
        Finding(path="a.py", line=0, rule_id="x", severity="error",
                message="m")
    with pytest.raises(ConfigError):
        Finding(path="a.py", line=1, rule_id="x", severity="fatal",
                message="m")


def test_finding_from_dict_rejects_mistyped_fields():
    good = finding_to_dict(Finding(path="a.py", line=3, rule_id="r",
                                   severity="error", message="m"))
    for corrupt in ({**good, "line": "7"}, {**good, "line": True},
                    {**good, "line": 3.0}, {**good, "path": 7},
                    {**good, "message": None}):
        with pytest.raises(ConfigError):
            finding_from_dict(corrupt)


def test_listener_rebind_message_is_line_insensitive(tmp_path):
    # Shifting the escape site down a file must not change the finding
    # message: the baseline differ keys on it.
    snippet = """\
        class Server:
            def __init__(self, engine):
                self._done = []

            def hook(self, engine):
                engine.add_listener(self._done.append)

            def flush(self):
                self._done = []
    """
    messages = []
    for name, prefix in (("plain.py", ""), ("padded.py", "# pad\n\n")):
        path = write(tmp_path, f"repro/{name}",
                     prefix + textwrap.dedent(snippet))
        findings = lint_paths([path], rules=["listener-rebind"])
        assert rule_ids(findings) == ["listener-rebind"]
        messages.append(findings[0].message)
    assert messages[0] == messages[1]


def test_rule_registry_resolves_names_and_rejects_unknown():
    assert {rule.rule_id for rule in resolve_lint_rules(None)} \
        == set(LINT_RULES)
    only = resolve_lint_rules(["listener-rebind"])
    assert [rule.rule_id for rule in only] == ["listener-rebind"]
    with pytest.raises(ConfigError) as excinfo:
        resolve_lint_rules(["no-such-rule"])
    assert "listener-rebind" in str(excinfo.value)


def test_baseline_diff_is_line_insensitive_but_count_sensitive(tmp_path):
    accepted = Finding(path="x.py", line=10, rule_id="r",
                       severity="error", message="m")
    moved = Finding(path="x.py", line=99, rule_id="r",
                    severity="error", message="m")
    fresh = Finding(path="x.py", line=12, rule_id="r",
                    severity="error", message="new hazard")
    baseline_path = str(tmp_path / "baseline.json")
    write_baseline(baseline_path, [accepted])
    baseline = load_baseline(baseline_path)
    # The accepted finding moved lines: still absorbed.
    new, old = diff_against_baseline([moved], baseline)
    assert (new, old) == ([], [moved])
    # A second instance of the same key exceeds the baseline budget.
    new, old = diff_against_baseline([moved, accepted], baseline)
    assert len(new) == 1 and len(old) == 1
    # A genuinely new finding fails the gate -- the CI lint-job
    # contract demonstrated against the differ.
    new, old = diff_against_baseline([moved, fresh], baseline)
    assert new == [fresh] and old == [moved]


def test_baseline_loader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(str(bad))
    newer = tmp_path / "newer.json"
    newer.write_text(json.dumps({"baseline_version": 99, "findings": []}),
                     encoding="utf-8")
    with pytest.raises(ConfigError):
        load_baseline(str(newer))


# ---------------------------------------------------------------------------
# the repro lint CLI
# ---------------------------------------------------------------------------


def test_cli_lint_exit_codes_and_baseline_gate(tmp_path, capsys):
    dirty = write(tmp_path, "repro/sim/dirty.py", """\
        import time

        def stamp():
            return time.time()
    """)
    # Findings without a baseline: exit 1, table printed.
    assert main(["lint", dirty]) == 1
    out = capsys.readouterr().out
    assert "no-wallclock-in-sim" in out
    # Adopt the current findings as the baseline: exit 0 afterwards.
    baseline = str(tmp_path / "baseline.json")
    assert main(["lint", dirty, "--baseline", baseline,
                 "--write-baseline"]) == 0
    assert main(["lint", dirty, "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "0 new vs baseline" in out
    # A synthetically introduced new finding fails against the
    # baseline -- exactly what the CI lint job enforces.
    write(tmp_path, "repro/sim/dirty.py", """\
        import time

        def stamp():
            return time.time()

        def another():
            return time.monotonic()
    """)
    json_path = str(tmp_path / "report.json")
    assert main(["lint", dirty, "--baseline", baseline,
                 "--json", json_path]) == 1
    with open(json_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert len(payload["findings"]) == 2
    assert len(payload["new_findings"]) == 1
    assert payload["new_findings"][0]["rule"] == "no-wallclock-in-sim"
    assert "monotonic" in payload["new_findings"][0]["message"]


def test_cli_lint_rule_selection_and_unknown_rule(tmp_path, capsys):
    path = write(tmp_path, "repro/sim/mixed.py", """\
        import time

        def f(x=[]):
            return time.time(), x
    """)
    assert main(["lint", path, "--rule", "mutable-default-arg"]) == 1
    out = capsys.readouterr().out
    assert "mutable-default-arg" in out
    assert "no-wallclock-in-sim" not in out
    assert main(["lint", path, "--rule", "no-such-rule"]) == 1
    assert "unknown lint rule" in capsys.readouterr().out


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in LINT_RULES:
        assert rule_id in out


def test_cli_lint_rejects_missing_path(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 1
    assert "no such file" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the acceptance pin: the shipped tree lints clean
# ---------------------------------------------------------------------------


def test_shipped_tree_lints_clean():
    """`repro lint src/repro` exits 0: every real finding is fixed or
    carries an audited inline suppression."""
    assert lint_paths([SRC_REPRO]) == []


def test_shipped_tree_suppressions_are_audited():
    """The tree's inline allowances stay limited to the known audited
    sites: the serve wall->sim mapping, the two insertion-order
    reporting tables, and the bench harness's wall-clock timers. (The
    engine binds its decode executor once and the executor registers
    its own handlers, so no listener-rebind allowance is needed.)

    No module is excluded: suppressions are parsed from COMMENT
    tokens, so the analysis package and CLI docstrings/help text that
    *mention* the grammar no longer register as live allowances."""
    from repro.analysis import build_index

    index = build_index([SRC_REPRO])
    allowed = {}
    for module in index.modules:
        for line, rules in sorted(module.suppressions.items()):
            allowed.setdefault(module.name, []).append(sorted(rules))
    assert allowed == {
        "repro.serve": [["no-wallclock-in-sim"],
                        ["no-wallclock-in-sim"]],
        "repro.reporting.figures":
            [["unsorted-dict-iteration-in-reporting"]],
        "repro.reporting.tables":
            [["unsorted-dict-iteration-in-reporting"]],
        "repro.sim.bench": [["no-wallclock-in-sim"],
                            ["no-wallclock-in-sim"]],
    }


def test_shipped_tree_suppression_audit_is_clean():
    """Every inline allowance in the shipped tree still shields a
    finding (the CLI's --audit-suppressions promise)."""
    from repro.analysis import audit_suppressions, build_index

    assert audit_suppressions(build_index([SRC_REPRO])) == []
