"""ProgressPrinter: throttling, ETA, and TTY vs plain-line output."""

import io

from repro.experiments.parallel import ProgressPrinter, _format_eta


class FakeTTY(io.StringIO):
    def isatty(self):
        return True


class TestFormatEta:
    def test_seconds(self):
        assert _format_eta(3.7) == "3s"
        assert _format_eta(0) == "0s"

    def test_minutes(self):
        assert _format_eta(125) == "2m05s"

    def test_hours(self):
        assert _format_eta(3720) == "1h02m"

    def test_negative_clamped(self):
        assert _format_eta(-5) == "0s"


class TestPlainLines:
    def test_first_and_last_always_print(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_s=3600, stream=stream)
        for i in range(1, 11):
            printer(i, 10, f"unit-{i}")
        lines = stream.getvalue().strip().splitlines()
        # Everything between first and last falls inside the throttle
        # window, so exactly two lines survive.
        assert len(lines) == 2
        assert lines[0].startswith("[1/10]")
        assert lines[-1].startswith("[10/10]")

    def test_zero_interval_prints_every_unit(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_s=0.0, stream=stream)
        for i in range(1, 6):
            printer(i, 5, "u")
        assert len(stream.getvalue().strip().splitlines()) == 5

    def test_line_contents(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_s=0.0, stream=stream)
        printer(1, 4, "fig8:point-a")
        first = stream.getvalue().strip()
        assert "[1/4]" in first
        assert "fig8:point-a" in first
        # ETA needs a nonzero elapsed baseline, so it appears from the
        # second update onward.
        printer(2, 4, "fig8:point-b")
        second = stream.getvalue().strip().splitlines()[-1]
        assert "eta" in second

    def test_final_line_has_no_eta(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_s=0.0, stream=stream)
        printer(1, 2, "a")
        printer(2, 2, "b")
        assert "eta" not in stream.getvalue().strip().splitlines()[-1]


class TestTty:
    def test_rewrites_in_place_with_carriage_return(self):
        stream = FakeTTY()
        printer = ProgressPrinter(interval_s=0.0, stream=stream)
        printer(1, 3, "a")
        printer(2, 3, "b")
        out = stream.getvalue()
        assert out.count("\r") == 2
        assert out.count("\n") == 0  # line stays open until final

    def test_final_update_closes_the_line(self):
        stream = FakeTTY()
        printer = ProgressPrinter(interval_s=0.0, stream=stream)
        printer(1, 2, "a")
        printer(2, 2, "b")
        assert stream.getvalue().endswith("\n")

    def test_shorter_line_is_padded_clean(self):
        stream = FakeTTY()
        printer = ProgressPrinter(interval_s=0.0, stream=stream)
        printer(1, 3, "a-very-long-label-indeed")
        printer(2, 3, "x")
        # The second (shorter) line must blank out the first one's tail.
        last = stream.getvalue().rsplit("\r", 1)[-1]
        assert last.endswith(" ")
