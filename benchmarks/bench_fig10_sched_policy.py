"""Fig. 10: thread scheduling policies (RR / Random / CFS).

Paper result: the three policies deliver similar performance -- all give
waiting threads comparable chances to issue SSD requests -- so SkyByte
defaults to CFS, the standard Linux policy.
"""

from conftest import bench_records, print_table, run_figure


def test_fig10_sched_policy(benchmark):
    rows = benchmark.pedantic(
        run_figure,
        args=("fig10",),
        kwargs={"records": bench_records()},
        rounds=1,
        iterations=1,
    )
    table = {
        f"{wl}/{policy}": data
        for wl, policies in rows.items()
        for policy, data in policies.items()
    }
    print_table("Fig. 10: scheduling policies (normalized to RR)", table)
    for wl, policies in rows.items():
        times = [p["normalized_time"] for p in policies.values()]
        # Policies within ~40% of each other ("similar performance").
        assert max(times) / min(times) < 1.4
