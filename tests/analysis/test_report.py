"""Unit tests for table rendering."""

from repro.analysis import format_table


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(["name", "value"],
                            [["alpha", 1.0], ["b", 123456.0]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "alpha" in lines[2]
        assert "123,456" in lines[3]

    def test_title(self):
        text = format_table(["a"], [[1]], title="Table I")
        assert text.splitlines()[0] == "Table I"
        assert text.splitlines()[1] == "======="

    def test_float_precision_tiers(self):
        text = format_table(["v"], [[0.123456], [12.3456], [1234.56]])
        assert "0.123" in text
        assert "12.3" in text
        assert "1,235" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_numbers_right_aligned(self):
        text = format_table(["n"], [[1], [100]])
        rows = text.splitlines()[2:]
        assert rows[0].endswith("1")
        assert rows[1].endswith("100")
