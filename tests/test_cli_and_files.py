"""Tests for the evaluation CLI and filesystem ODF libraries."""

import pytest

from repro.errors import ODFError, ReproError
from repro.core.odf import OdfLibrary
from repro.evaluation.cli import ARTIFACTS, main

ODF_TEXT = """
<offcode>
  <package>
    <bindname>disk.Widget</bindname>
    <GUID>555</GUID>
    <interface><include>"/offcodes/widget.wsdl"</include></interface>
  </package>
  <targets>
    <device-class><name>network</name></device-class>
  </targets>
</offcode>
"""

WSDL_TEXT = """
<definitions name="Widget" guid="555">
  <portType name="IWidget">
    <operation name="Frob" result="xsd:int"/>
  </portType>
</definitions>
"""


# -- OdfLibrary.load_directory -------------------------------------------------------

def test_load_directory(tmp_path):
    (tmp_path / "widget.odf").write_text(ODF_TEXT)
    (tmp_path / "widget.wsdl").write_text(WSDL_TEXT)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "other.wsdl").write_text(
        WSDL_TEXT.replace("Widget", "Other").replace("555", "556"))
    (tmp_path / "ignored.txt").write_text("not a manifest")

    library = OdfLibrary()
    count = library.load_directory(tmp_path)
    assert count == 3
    document = library.load("/offcodes/widget.odf")
    assert document.bindname == "disk.Widget"
    assert document.interfaces[0].name == "IWidget"
    assert library.load_wsdl("/offcodes/sub/other.wsdl").name == "IOther"


def test_load_directory_custom_prefix(tmp_path):
    (tmp_path / "w.wsdl").write_text(WSDL_TEXT)
    library = OdfLibrary()
    library.load_directory(tmp_path, prefix="/vendor")
    assert library.load_wsdl("/vendor/w.wsdl").name == "IWidget"


def test_load_directory_rejects_missing(tmp_path):
    library = OdfLibrary()
    with pytest.raises(ODFError):
        library.load_directory(tmp_path / "nope")


def test_shipped_offcode_library_loads():
    """The repository's examples/offcodes directory is a valid library
    (the paper's Figure-4 manifests as real files)."""
    import pathlib
    directory = (pathlib.Path(__file__).parent.parent
                 / "examples" / "offcodes")
    library = OdfLibrary()
    assert library.load_directory(directory) == 4
    closure = library.load_closure("/offcodes/socket.odf")
    assert [d.bindname for d in closure] == [
        "hydra.net.utils.Socket", "hydra.net.utils.Checksum"]
    socket = closure[0]
    assert socket.guid.value == 7070714
    assert socket.interfaces[0].name == "ISocket"
    assert socket.imports[0].reference.value == "Pull"


# -- CLI --------------------------------------------------------------------------------

def test_cli_fig1(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "GHz/Gbps" in out
    assert "65536" in out


def test_cli_ilp(capsys):
    assert main(["ilp", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "greedy suboptimal" in out


def test_cli_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        main(["figure-nope"])


def test_cli_artifact_registry_complete():
    assert set(ARTIFACTS) == {"fig1", "fig9", "fig10", "table2",
                              "table3", "table4", "fleet", "ilp",
                              "power", "sweeps"}


def test_cli_fleet(capsys):
    assert main(["fleet", "--seconds", "1", "--clients", "16",
                 "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fleet: 16 clients" in out
    assert "conservation: OK" in out
    assert "supervision: retries=0" in out


_DEGRADED_ARGS = ["fleet", "--seconds", "1", "--clients", "16",
                  "--shards", "2", "--max-retries", "1",
                  "--chaos-kill", "1:0", "--chaos-kill", "1:1"]


def test_cli_fleet_degraded_exits_nonzero(capsys):
    # Poison shard 1 (kills cover every attempt): the run must degrade
    # and the CLI must fail loudly — a cron job piping this into a
    # dashboard should not mistake a partial report for a full one.
    assert main(_DEGRADED_ARGS) == 3
    captured = capsys.readouterr()
    assert "DEGRADED: shards [1] missing" in captured.out
    assert "FLEET FAILURE" in captured.err
    assert "--allow-degraded" in captured.err


def test_cli_fleet_allow_degraded_is_the_escape_hatch(capsys):
    assert main(_DEGRADED_ARGS + ["--allow-degraded"]) == 0
    out = capsys.readouterr().out
    assert "DEGRADED: shards [1] missing" in out
    assert "quarantined=1" in out


def test_cli_fleet_survives_a_chaos_kill(capsys):
    # "--chaos-kill 0" (attempt defaults to 0) kills the first pick of
    # shard 0; the retry completes it, so the run still passes.  The
    # byte-level chaos-invisibility of the canonical report is pinned in
    # tests/test_evaluation_fleet.py.
    base = ["fleet", "--seconds", "1", "--clients", "16", "--shards", "2"]
    assert main(base + ["--chaos-kill", "0"]) == 0
    out = capsys.readouterr().out
    assert "conservation: OK" in out
    assert "retries=1" in out


def test_cli_fleet_stall_drill_requires_timeout_with_workers(capsys):
    # A multiprocess stall pick without a watchdog just sleeps and then
    # succeeds — nothing exercised, a broken watchdog looks green.  The
    # CLI rejects the no-op drill up front (argparse error, exit 2).
    base = ["fleet", "--seconds", "1", "--clients", "16", "--shards", "2"]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--workers", "2", "--chaos-stall", "0:0:1"])
    assert exc.value.code == 2
    assert "--shard-timeout" in capsys.readouterr().err


def test_cli_fleet_stall_drill_in_process_needs_no_timeout(capsys):
    # At workers=1 a stall surfaces as an immediate in-process failure,
    # so the retry path is exercised without a wall-clock watchdog and
    # the guard must not fire.
    base = ["fleet", "--seconds", "1", "--clients", "16", "--shards", "2"]
    assert main(base + ["--chaos-stall", "0:0:1"]) == 0
    assert "retries=1" in capsys.readouterr().out


def test_cli_fleet_rejects_bad_chaos_spec(capsys):
    from repro.evaluation.cli import _parse_chaos_picks
    with pytest.raises(ReproError, match="bad chaos pick"):
        _parse_chaos_picks(["nope"], [], [], stall_s=30.0)
    with pytest.raises(ReproError, match="bad chaos pick"):
        _parse_chaos_picks([], ["0:0:fast"], [], stall_s=30.0)
    assert _parse_chaos_picks([], [], [], stall_s=30.0) is None


def test_cli_fleet_resume_roundtrip(tmp_path, capsys):
    out_dir = str(tmp_path / "fleet")
    base = ["fleet", "--seconds", "1", "--clients", "16", "--shards", "2"]
    assert main(base + ["--artifacts", out_dir]) == 0
    capsys.readouterr()
    assert main(base + ["--resume", out_dir]) == 0
    assert "resumed=2" in capsys.readouterr().out


@pytest.mark.slow
def test_cli_table2_short_run(capsys):
    assert main(["table2", "--seconds", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "offloaded" in out
