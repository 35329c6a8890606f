import json

import pytest

from quasiherm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--q", "3")
    assert code == 0
    d = json.loads(out)
    assert d["header"]["q"] == 3
    assert d["header"]["s"]["code"] == 2
    assert {"code", "log", "x0", "x1"} <= set(d["header"]["xi"])


def test_geometry_counts(capsys):
    code, out, _ = run(capsys, "geometry", "--q", "3")
    d = json.loads(out)
    assert code == 0
    assert (d["points"], d["planes"], d["lines"]) == (820, 820, 7462)


def test_idempotent_output(capsys):
    _, a, _ = run(capsys, "surfaces", "--q", "3")
    _, b, _ = run(capsys, "surfaces", "--q", "3")
    assert a == b


def test_csv_and_json_agree(capsys):
    _, js, _ = run(capsys, "geometry", "--q", "3")
    _, cs, _ = run(capsys, "--format", "csv", "geometry", "--q", "3")
    d = json.loads(js)
    rows = dict(
        line.split(",", 1) for line in cs.strip().splitlines()[1:]
    )
    assert int(rows["points"]) == d["points"]
    assert int(rows["lines"]) == d["lines"]


def test_verify_quasi_pass(capsys):
    code, out, _ = run(capsys, "verify-quasi", "--q", "3", "--kind", "SH2", "--j", "1")
    assert code == 0
    d = json.loads(out)
    assert d["results"][0]["is_quasi"] is True


def test_verify_quasi_empty_range_usage_error(capsys):
    code, _, err = run(capsys, "verify-quasi", "--q", "3", "--kind", "SE", "--j", "1", "--k", "1")
    assert code == 2
    assert "invalid" in err


def test_even_q_rejected(capsys):
    code, _, err = run(capsys, "orbits", "--q", "4")
    assert code == 2 and "even" in err


def test_non_prime_power_rejected(capsys):
    code, _, err = run(capsys, "orbits", "--q", "15")
    assert code == 2


def test_bound_enforced(capsys):
    code, _, err = run(capsys, "field-info", "--q", "11")
    assert code == 2 and "bound" in err
    code, _, _ = run(capsys, "field-info", "--q", "11", "--allow-large")
    assert code == 0


def test_orbits_table(capsys):
    code, out, _ = run(capsys, "orbits", "--q", "3", "--group", "K")
    d = json.loads(out)
    assert code == 0 and d["n_orbits"] == 10
    assert len(d["orbits"]) == 10
    sizes = sorted(r["size"] for r in d["orbits"])
    assert sizes == [10, 15, 15, 90, 90, 90, 90, 120, 120, 180]


def test_tables_command(capsys):
    code, out, _ = run(capsys, "tables", "--q", "3", "--group", "G")
    assert code == 0
    assert json.loads(out)["all_match"] is True


def test_lines_command(capsys):
    code, out, _ = run(capsys, "lines", "--q", "3", "--set", "V4:SH2:j=1")
    d = json.loads(out)
    assert code == 0
    assert d["contained_lines"] == 40
    assert d["per_point_histogram"] == {"0": 90, "2": 180, "4": 10}


def test_yj_and_net(capsys):
    code, out, _ = run(capsys, "yj", "--q", "3", "--i", "1", "--j", "3")
    d = json.loads(out)
    assert code == 0 and d["count"] == 68 and d["match"]
    code, out, _ = run(capsys, "net-census", "--q", "3", "--i", "1", "--j", "3")
    d = json.loads(out)
    assert code == 0 and d["match"]


def test_known_v2(capsys):
    code, out, _ = run(capsys, "known", "--q", "3", "--kind", "V2")
    d = json.loads(out)
    assert code == 0 and d["ok"] and d["contained_lines"] == 4


def test_klein_single_omega(capsys):
    code, out, _ = run(capsys, "klein", "--q", "3", "--omega", "0")
    d = json.loads(out)
    assert code == 0 and d["orbits"][0]["orbit_length"] == 720


def test_code_weights(capsys):
    code, out, _ = run(capsys, "code-weights", "--q", "3", "--set", "V4:SH2:j=1")
    d = json.loads(out)
    assert code == 0
    assert d["weights"] == {"243": 2240, "252": 4320}


def test_srg_refuses_non_two_character(capsys):
    code, _, err = run(capsys, "srg", "--q", "3", "--set", "curve")
    assert code == 2


@pytest.mark.parametrize(
    "name, params", [("quadric", (800, 151, 90)), ("baer", (320, 85, 12))]
)
def test_srg_accepts_two_character_sets(capsys, name, params):
    code, out, _ = run(capsys, "srg", "--q", "3", "--set", name)
    d = json.loads(out)["graph"]
    assert code == 0 and d["srg_ok"]
    k, lam, mu = params
    assert (d["k"], d["lambda"], d["mu"]) == params
    assert k * (k - lam - 1) == (d["n"] - k - 1) * mu


def test_srg_refuses_oversize_transform_before_building(capsys, monkeypatch):
    from quasiherm import srg

    monkeypatch.setattr(srg, "memory_budget", lambda: 2 << 30)
    code, out, err = run(capsys, "srg", "--q", "11", "--allow-large")
    assert code == 2 and out == ""
    assert "q=11" in err and "214358881 cells" in err


def test_report_q3(capsys):
    code, out, _ = run(capsys, "report", "--q", "3")
    d = json.loads(out)
    assert code == 0 and d["all_pass"] is True
    assert [(c["check"], c["status"], c["detail"]) for c in d["checks"]] == [
        ("variety_sizes", "pass", ""),
        ("invariant_surface_sizes", "pass", ""),
        ("point_orbit_decomposition", "pass", "10 orbits"),
        ("pgl_merge", "pass", "7 orbits"),
        ("stabilizer_orders", "pass", ""),
        ("quasi_hermitian_planes", "pass", "2 families"),
        ("quasi_SE_H1E_families", "skip", "k-range empty at q=3"),
        ("plane_distribution_K", "pass", "10 rows"),
        ("plane_distribution_G", "pass", "7 rows"),
        ("v4_line_census", "pass", "40 lines"),
        ("v1_line_census", "pass", ""),
        ("v2_line_census", "pass", ""),
        ("v3_line_bounds", "pass", ""),
        ("line_meet_bounds", "pass", ""),
        ("pencil_point_counts", "pass", ""),
        ("net_rank_census", "pass", ""),
        ("klein_orbit_lengths", "pass", "9 omegas"),
        ("line_orbit_count", "pass", "found 28, conjectured 28"),
        ("srg_and_code", "pass", "k=2240 lambda=781 mu=756"),
    ]
