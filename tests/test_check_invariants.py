"""Tests for tools/check_invariants.py — the determinism-invariant checker."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL_PATH = REPO_ROOT / "tools" / "check_invariants.py"
SRC_ROOT = REPO_ROOT / "src" / "repro"


def _load_tool():
    spec = importlib.util.spec_from_file_location("check_invariants", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the defining module through sys.modules, so the
    # tool must be registered before execution.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

MINIMAL_EVENTS = """\
DELIVERY_PRIORITY = 1


class SimulationEvent:
    pass


class MessageDelivery(SimulationEvent):
    priority = DELIVERY_PRIORITY


class RefreshHorizon(SimulationEvent):
    pass


class RefreshTimerFire(SimulationEvent):
    pass


def event_rank(event, stamp=None):
    if isinstance(event, MessageDelivery):
        return (0,)
    if isinstance(event, RefreshTimerFire):
        return (3, str(event.address))
    return (1, stamp)
"""


@pytest.fixture
def tree(tmp_path):
    """A minimal package tree with hot-path dirs and a rank-covered events.py."""
    (tmp_path / "net").mkdir()
    (tmp_path / "engine").mkdir()
    (tmp_path / "harness").mkdir()
    (tmp_path / "net" / "events.py").write_text(MINIMAL_EVENTS, encoding="utf-8")
    return tmp_path


def _rules(findings):
    return sorted({f.rule for f in findings})


class TestRealTreeIsClean:
    def test_src_repro_has_no_violations(self):
        findings = tool.check_tree(SRC_ROOT)
        assert findings == [], [f.render() for f in findings]


class TestWallClock:
    def test_time_time_in_hot_path_flagged(self, tree):
        (tree / "net" / "mod.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
        )
        findings = tool.check_tree(tree)
        assert "INV001" in _rules(findings)

    def test_datetime_now_in_hot_path_flagged(self, tree):
        (tree / "engine" / "mod.py").write_text(
            "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
            encoding="utf-8",
        )
        assert "INV001" in _rules(tool.check_tree(tree))

    def test_wall_clock_outside_hot_path_allowed(self, tree):
        (tree / "harness" / "mod.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
        )
        assert "INV001" not in _rules(tool.check_tree(tree))

    def test_time_time_in_service_flagged(self, tree):
        # The query service plane is hot path: token buckets and cache TTLs
        # run on simulated time only.
        (tree / "service").mkdir()
        (tree / "service" / "ratelimit.py").write_text(
            "import time\n\ndef refill():\n    return time.monotonic()\n",
            encoding="utf-8",
        )
        assert "INV001" in _rules(tool.check_tree(tree))

    def test_simulated_time_in_service_allowed(self, tree):
        (tree / "service").mkdir()
        (tree / "service" / "ratelimit.py").write_text(
            "def refill(bucket, now):\n"
            "    return min(bucket.burst, bucket.tokens + now - bucket.updated)\n",
            encoding="utf-8",
        )
        assert "INV001" not in _rules(tool.check_tree(tree))


class TestRandomness:
    def test_module_level_random_flagged_everywhere(self, tree):
        (tree / "harness" / "mod.py").write_text(
            "import random\n\ndef f():\n    return random.randint(0, 3)\n",
            encoding="utf-8",
        )
        assert "INV002" in _rules(tool.check_tree(tree))

    def test_unseeded_random_instance_flagged(self, tree):
        (tree / "net" / "mod.py").write_text(
            "import random\n\ndef f():\n    return random.Random()\n",
            encoding="utf-8",
        )
        assert "INV002" in _rules(tool.check_tree(tree))

    def test_seeded_random_instance_allowed(self, tree):
        (tree / "net" / "mod.py").write_text(
            "import random\n\ndef f(seed):\n    return random.Random(seed)\n",
            encoding="utf-8",
        )
        assert "INV002" not in _rules(tool.check_tree(tree))


class TestEventRankCoverage:
    def test_delivery_event_without_rank_branch_flagged(self, tree):
        (tree / "net" / "events.py").write_text(
            MINIMAL_EVENTS
            + "\n\nclass StrayDelivery(SimulationEvent):\n"
            "    priority = DELIVERY_PRIORITY\n",
            encoding="utf-8",
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV003"]
        assert findings and "StrayDelivery" in findings[0].message

    def test_event_subclass_outside_events_py_flagged(self, tree):
        (tree / "engine" / "rogue.py").write_text(
            "from repro.net.events import SimulationEvent\n\n\n"
            "class RogueEvent(SimulationEvent):\n    pass\n",
            encoding="utf-8",
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV003"]
        assert findings and "RogueEvent" in findings[0].message

    def test_covered_tree_is_clean(self, tree):
        # Includes the timer-wheel refresh plane events: RefreshHorizon is a
        # stamped control event, RefreshTimerFire carries a content rank.
        assert "INV003" not in _rules(tool.check_tree(tree))

    def test_anti_delta_wire_kind_as_delivery_needs_rank_branch(self, tree):
        # A hypothetical events.py that models anti-delta traffic as its own
        # delivery-priority event class (instead of a Message kind inside
        # MessageDelivery) must rank it, or retraction replay order would be
        # stamp-dependent.
        (tree / "net" / "events.py").write_text(
            MINIMAL_EVENTS
            + "\n\nclass AntiDeltaDelivery(SimulationEvent):\n"
            "    priority = DELIVERY_PRIORITY\n",
            encoding="utf-8",
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV003"]
        assert findings and "AntiDeltaDelivery" in findings[0].message

    def test_timer_fire_promoted_to_delivery_needs_rank_branch(self, tree):
        # If RefreshTimerFire were given delivery priority, its existing
        # content branch keeps the tree clean — remove the branch and the
        # checker must flag the class.
        promoted = MINIMAL_EVENTS.replace(
            "class RefreshTimerFire(SimulationEvent):\n    pass",
            "class RefreshTimerFire(SimulationEvent):\n"
            "    priority = DELIVERY_PRIORITY",
        )
        (tree / "net" / "events.py").write_text(promoted, encoding="utf-8")
        assert "INV003" not in _rules(tool.check_tree(tree))
        unranked = promoted.replace(
            "    if isinstance(event, RefreshTimerFire):\n"
            "        return (3, str(event.address))\n",
            "",
        )
        (tree / "net" / "events.py").write_text(unranked, encoding="utf-8")
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV003"]
        assert findings and "RefreshTimerFire" in findings[0].message

    def test_timer_event_outside_events_py_flagged(self, tree):
        (tree / "net" / "rogue_timer.py").write_text(
            "from repro.net.events import SimulationEvent\n\n\n"
            "class StrayTimerFire(SimulationEvent):\n    pass\n",
            encoding="utf-8",
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV003"]
        assert findings and "StrayTimerFire" in findings[0].message


class TestSetIteration:
    def test_set_display_iteration_flagged(self, tree):
        (tree / "net" / "mod.py").write_text(
            "def f():\n    for x in {1, 2, 3}:\n        pass\n", encoding="utf-8"
        )
        assert "INV004" in _rules(tool.check_tree(tree))

    def test_set_call_in_comprehension_flagged(self, tree):
        (tree / "engine" / "mod.py").write_text(
            "def f(xs):\n    return [x for x in set(xs)]\n", encoding="utf-8"
        )
        assert "INV004" in _rules(tool.check_tree(tree))

    def test_sorted_wrapping_allowed(self, tree):
        (tree / "net" / "mod.py").write_text(
            "def f(xs):\n"
            "    for x in sorted(set(xs)):\n"
            "        pass\n"
            "    return [x for x in sorted({1, 2})]\n",
            encoding="utf-8",
        )
        assert "INV004" not in _rules(tool.check_tree(tree))

    def test_set_iteration_outside_hot_path_allowed(self, tree):
        (tree / "harness" / "mod.py").write_text(
            "def f(xs):\n    return [x for x in set(xs)]\n", encoding="utf-8"
        )
        assert "INV004" not in _rules(tool.check_tree(tree))


class TestModuleLevelCaches:
    def test_empty_dict_in_provenance_flagged(self, tree):
        (tree / "provenance").mkdir()
        (tree / "provenance" / "mod.py").write_text(
            "_CACHE = {}\n", encoding="utf-8"
        )
        assert "INV006" in _rules(tool.check_tree(tree))

    def test_empty_list_call_in_engine_flagged(self, tree):
        (tree / "engine" / "mod.py").write_text(
            "_PENDING = list()\n", encoding="utf-8"
        )
        assert "INV006" in _rules(tool.check_tree(tree))

    def test_annotated_empty_set_flagged(self, tree):
        (tree / "provenance").mkdir()
        (tree / "provenance" / "mod.py").write_text(
            "from typing import Set\n\n_SEEN: Set[str] = set()\n",
            encoding="utf-8",
        )
        assert "INV006" in _rules(tool.check_tree(tree))

    def test_nonempty_display_is_a_data_table(self, tree):
        (tree / "provenance").mkdir()
        (tree / "provenance" / "mod.py").write_text(
            "MODES = {'memory': 1, 'tiered': 2}\nNAMES = ['a', 'b']\n",
            encoding="utf-8",
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_function_local_containers_allowed(self, tree):
        (tree / "engine" / "mod.py").write_text(
            "def f():\n    cache = {}\n    return cache\n", encoding="utf-8"
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_class_attribute_containers_allowed(self, tree):
        # Class bodies are not module top-level statements; dataclass field
        # defaults and similar shapes stay out of scope for INV006.
        (tree / "provenance").mkdir()
        (tree / "provenance" / "mod.py").write_text(
            "class Archive:\n    defaults = {}\n", encoding="utf-8"
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_empty_dict_outside_bounded_dirs_allowed(self, tree):
        (tree / "harness" / "mod.py").write_text(
            "_CACHE = {}\n", encoding="utf-8"
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_module_level_memo_in_service_flagged(self, tree):
        # A module-global result memo would defeat the cache capacity/TTL
        # knobs the service plane exists to enforce.
        (tree / "service").mkdir()
        (tree / "service" / "cache.py").write_text(
            "_MEMO = {}\n", encoding="utf-8"
        )
        assert "INV006" in _rules(tool.check_tree(tree))

    def test_instance_held_cache_in_service_allowed(self, tree):
        (tree / "service").mkdir()
        (tree / "service" / "cache.py").write_text(
            "class ClosureCache:\n"
            "    def __init__(self, capacity):\n"
            "        self.capacity = capacity\n"
            "        self._entries = {}\n",
            encoding="utf-8",
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_allow_comment_suppresses(self, tree):
        (tree / "provenance").mkdir()
        (tree / "provenance" / "mod.py").write_text(
            "_CACHE = {}  # invariant: ok(INV006)\n", encoding="utf-8"
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_module_level_size_table_in_net_flagged(self, tree):
        # The tempting wrong size memo: keyed by FactKey it would hand
        # ('r', (True,)) the byte count rendered for ('r', (1,)).
        (tree / "net" / "message.py").write_text(
            "_KEY_SIZES = {}\n", encoding="utf-8"
        )
        assert "INV006" in _rules(tool.check_tree(tree))

    @pytest.mark.parametrize(
        "decorator",
        (
            "@functools.cache",
            "@cache",
            "@functools.lru_cache(maxsize=None)",
            "@lru_cache(None)",
        ),
    )
    def test_unbounded_function_memo_flagged(self, tree, decorator):
        (tree / "net" / "message.py").write_text(
            "import functools\nfrom functools import cache, lru_cache\n\n\n"
            f"{decorator}\ndef key_payload_bytes(key):\n    return len(str(key))\n",
            encoding="utf-8",
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV006"]
        assert [f.line for f in findings] == [5]
        assert "key_payload_bytes" in findings[0].message

    @pytest.mark.parametrize(
        "decorator",
        ("@lru_cache(maxsize=65536)", "@functools.lru_cache(128)", "@lru_cache"),
    )
    def test_bounded_function_memo_allowed(self, tree, decorator):
        # engine/tuples.py's _render_str_tuple was the in-tree instance until
        # the renderer stopped needing it; src/ holds none today.
        (tree / "engine" / "tuples.py").write_text(
            "import functools\nfrom functools import lru_cache\n\n\n"
            f"{decorator}\ndef _render_str_tuple(value):\n    return '|'.join(value)\n",
            encoding="utf-8",
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_memoized_method_and_unrelated_cache_name_allowed(self, tree):
        # Only module-level functions are in scope, and only functools'
        # decorators: a project-local ``registry.cache`` is something else.
        (tree / "net" / "mod.py").write_text(
            "import functools\n\n\n"
            "class Kernel:\n"
            "    @functools.cache\n"
            "    def route(self, pair):\n        return pair\n\n\n"
            "@registry.cache\ndef f(x):\n    return x\n",
            encoding="utf-8",
        )
        assert "INV006" not in _rules(tool.check_tree(tree))

    def test_unbounded_function_memo_outside_bounded_dirs_allowed(self, tree):
        (tree / "harness" / "mod.py").write_text(
            "from functools import cache\n\n\n@cache\ndef f(x):\n    return x\n",
            encoding="utf-8",
        )
        assert "INV006" not in _rules(tool.check_tree(tree))


class TestDynamicCode:
    @pytest.mark.parametrize(
        "call", ("exec(text, scope)", "eval(text)", "compile(text, 'f', 'exec')")
    )
    @pytest.mark.parametrize("where", ("engine", "harness"))
    def test_dynamic_code_flagged_everywhere(self, tree, call, where):
        (tree / where / "mod.py").write_text(
            f"def f(text, scope):\n    return {call}\n", encoding="utf-8"
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV007"]
        assert [f.line for f in findings] == [2]
        assert call.split("(")[0] in findings[0].message

    def test_through_the_builtins_module_flagged(self, tree):
        (tree / "net" / "mod.py").write_text(
            "import builtins\n\ndef f(text):\n    return builtins.eval(text)\n",
            encoding="utf-8",
        )
        assert "INV007" in _rules(tool.check_tree(tree))

    def test_the_rule_compiler_may(self, tree):
        (tree / "datalog").mkdir()
        (tree / "datalog" / "codegen.py").write_text(
            "def generate(source, name, scope):\n"
            "    exec(compile(source, name, 'exec'), scope)\n",
            encoding="utf-8",
        )
        assert "INV007" not in _rules(tool.check_tree(tree))

    def test_no_other_datalog_module_may(self, tree):
        (tree / "datalog").mkdir()
        (tree / "datalog" / "planner.py").write_text(
            "def generate(source, scope):\n    exec(source, scope)\n",
            encoding="utf-8",
        )
        assert "INV007" in _rules(tool.check_tree(tree))

    def test_same_named_methods_are_something_else(self, tree):
        (tree / "net" / "mod.py").write_text(
            "import re\n\nPATTERN = re.compile('x')\n\n"
            "def f(query, model):\n"
            "    return query.compile(), model.eval(), PATTERN\n",
            encoding="utf-8",
        )
        assert "INV007" not in _rules(tool.check_tree(tree))

    def test_allow_comment_suppresses(self, tree):
        (tree / "harness" / "mod.py").write_text(
            "def f(text):\n    return eval(text)  # invariant: ok(INV007)\n",
            encoding="utf-8",
        )
        assert "INV007" not in _rules(tool.check_tree(tree))


class TestOneSigningPath:
    SECOND_PATH = (
        "from repro.security.rsa import sign\n\n"
        "def export(fact, key):\n    return sign(fact.payload(), key)\n"
    )

    def test_second_signing_path_in_the_engine_flagged(self, tree):
        (tree / "engine" / "node_engine.py").write_text(
            self.SECOND_PATH, encoding="utf-8"
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV008"]
        assert [(f.path, f.line) for f in findings] == [("engine/node_engine.py", 1)]

    def test_the_envelope_module_may(self, tree):
        (tree / "security").mkdir()
        (tree / "security" / "authenticator.py").write_text(
            self.SECOND_PATH, encoding="utf-8"
        )
        assert "INV008" not in _rules(tool.check_tree(tree))

    def test_through_the_rsa_module_or_the_package_flagged(self, tree):
        (tree / "net" / "mod.py").write_text(
            "from repro.security import rsa, verify\n\n"
            "def f(m, s, k):\n    return rsa.verify(m, s, k) and verify(m, s, k)\n",
            encoding="utf-8",
        )
        findings = [f for f in tool.check_tree(tree) if f.rule == "INV008"]
        assert [f.line for f in findings] == [1, 4]

    def test_same_named_methods_are_something_else(self, tree):
        (tree / "net" / "mod.py").write_text(
            "from repro.security import KeyStore\n\n"
            "def f(graph, keystore):\n    return graph.verify(keystore)\n",
            encoding="utf-8",
        )
        assert "INV008" not in _rules(tool.check_tree(tree))


class TestAllowlist:
    def test_inline_comment_suppresses_matching_rule(self, tree):
        (tree / "net" / "mod.py").write_text(
            "import time\n\n\ndef f():\n"
            "    return time.time()  # invariant: ok(INV001)\n",
            encoding="utf-8",
        )
        assert "INV001" not in _rules(tool.check_tree(tree))

    def test_comment_for_other_rule_does_not_suppress(self, tree):
        (tree / "net" / "mod.py").write_text(
            "import time\n\n\ndef f():\n"
            "    return time.time()  # invariant: ok(INV004)\n",
            encoding="utf-8",
        )
        assert "INV001" in _rules(tool.check_tree(tree))


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert tool.main(["--list"]) == 0
        out = capsys.readouterr().out
        for rule in tool.RULES:
            assert rule in out

    def test_missing_root_is_usage_error(self, tmp_path, capsys):
        assert tool.main(["--root", str(tmp_path / "nope")]) == 2

    def test_clean_tree_exits_zero(self, tree, capsys):
        assert tool.main(["--root", str(tree)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violating_tree_exits_one(self, tree, capsys):
        (tree / "net" / "mod.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
        )
        assert tool.main(["--root", str(tree)]) == 1
        assert "INV001" in capsys.readouterr().out

    def test_real_tree_via_cli(self, capsys):
        assert tool.main(["--root", str(SRC_ROOT)]) == 0
