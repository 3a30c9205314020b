"""Tests for the 116-app corpus: determinism and aggregate calibration."""

from collections import Counter

from repro.appsim.corpus import (
    CLOUD_APPS,
    CORPUS_SIZE,
    HANDBUILT,
    SEVEN_APPS,
    build,
    cloud_apps,
    corpus,
    seven_apps,
)


class TestComposition:
    def test_size(self, full_corpus):
        assert len(full_corpus) == CORPUS_SIZE == 116

    def test_hand_built_first(self, full_corpus):
        names = [app.name for app in full_corpus[: len(CLOUD_APPS)]]
        assert names == list(CLOUD_APPS)

    def test_unique_names(self, full_corpus):
        names = [app.name for app in full_corpus]
        assert len(set(names)) == len(names)

    def test_seven_apps_subset_of_cloud(self):
        assert set(SEVEN_APPS) <= set(CLOUD_APPS)
        assert [a.name for a in seven_apps()] == list(SEVEN_APPS)

    def test_fifteen_cloud_apps(self):
        assert len(cloud_apps()) == 15

    def test_build_by_name(self):
        app = build("redis")
        assert app.name == "redis"

    def test_custom_size(self):
        assert len(corpus(20)) == 20


class TestDeterminism:
    def test_same_programs_each_call(self):
        first = corpus(30)
        second = corpus(30)
        for a, b in zip(first, second):
            assert a.name == b.name
            assert a.program.ops == b.program.ops
            assert a.program.static_extra == b.program.static_extra
            assert a.year == b.year

    def test_each_call_returns_a_fresh_list_of_the_same_apps(self):
        first = corpus()
        names = [app.name for app in first]
        first.reverse()
        first.pop()
        first.append(build("redis"))
        second = corpus()
        assert second is not first
        assert [app.name for app in second] == names
        assert all(a is b for a, b in zip(second, corpus(), strict=True))


class TestAggregateCalibration:
    def test_traced_union_near_180(self, bench_results):
        """Section 5.1: naive analysis finds ~180 syscalls corpus-wide."""
        union = set()
        for result in bench_results:
            union |= result.traced_syscalls()
        assert 170 <= len(union) <= 205

    def test_required_union_near_148(self, bench_results):
        """Section 5.1: Loupe reports ~148 syscalls needing implementation."""
        union = set()
        for result in bench_results:
            union |= result.required_syscalls()
        assert 125 <= len(union) <= 160

    def test_required_union_smaller_than_traced(self, bench_results):
        traced, required = set(), set()
        for result in bench_results:
            traced |= result.traced_syscalls()
            required |= result.required_syscalls()
        assert required < traced

    def test_common_core_required_everywhere(self, bench_results):
        """execve/mmap are required by essentially every application."""
        counts = Counter()
        for result in bench_results:
            for name in result.required_syscalls():
                counts[name] += 1
        total = len(bench_results)
        assert counts["execve"] == total
        assert counts["mmap"] >= total * 0.95

    def test_avoidable_fraction_realistic(self, bench_results):
        """Section 5.1: 40-60% of invoked syscalls avoid implementation."""
        fractions = [
            len(r.avoidable_syscalls()) / len(r.traced_syscalls())
            for r in bench_results
        ]
        mean = sum(fractions) / len(fractions)
        assert 0.35 <= mean <= 0.70

    def test_every_corpus_app_analyzable(self, bench_results, full_corpus):
        assert len(bench_results) == len(full_corpus)
        for result in bench_results:
            assert result.final_run_ok
