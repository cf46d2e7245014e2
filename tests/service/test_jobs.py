"""Job canonicalization and JSONL parsing."""

import pytest

from repro.service.jobs import (
    AdviseJob,
    JobSpecError,
    MeasureJob,
    RPQJob,
    job_from_dict,
    job_key,
    parse_jsonl_lenient,
)


class TestCanonicalKeys:
    def test_attribute_order_invariance(self):
        assert job_key(AdviseJob(design="R(A,B,C); B->C")) == job_key(
            AdviseJob(design="R(C,B,A); B -> C")
        )

    def test_dependency_order_invariance(self):
        assert job_key(AdviseJob(design="R(A,B,C); A->B; B->C")) == job_key(
            AdviseJob(design="R(A,B,C); B->C; A->B")
        )

    def test_row_order_invariance(self):
        base = dict(design="R(A,B,C); B->C", position=(0, "C"))
        assert job_key(
            MeasureJob(rows=((1, 2, 3), (4, 2, 3)), **base)
        ) == job_key(MeasureJob(rows=((4, 2, 3), (1, 2, 3)), **base))

    def test_edge_order_invariance(self):
        edges_a = (("a", "l", "b"), ("b", "l", "c"))
        edges_b = (("b", "l", "c"), ("a", "l", "b"))
        assert job_key(RPQJob(edges=edges_a, query="l+")) == job_key(
            RPQJob(edges=edges_b, query="l+")
        )

    def test_different_designs_differ(self):
        assert job_key(AdviseJob(design="R(A,B,C); B->C")) != job_key(
            AdviseJob(design="R(A,B,C); A->C")
        )

    def test_mc_parameters_enter_the_key(self):
        base = dict(
            design="R(A,B); A->B",
            rows=((1, 2),),
            position=(0, "B"),
            method="montecarlo",
        )
        assert job_key(MeasureJob(seed=0, **base)) != job_key(
            MeasureJob(seed=1, **base)
        )
        assert job_key(MeasureJob(samples=100, **base)) != job_key(
            MeasureJob(samples=200, **base)
        )

    def test_exact_ignores_mc_parameters(self):
        base = dict(design="R(A,B); A->B", rows=((1, 2),), position=(0, "B"))
        assert job_key(MeasureJob(seed=0, samples=100, **base)) == job_key(
            MeasureJob(seed=9, samples=500, **base)
        )

    def test_id_is_not_part_of_the_key(self):
        assert job_key(AdviseJob(design="R(A,B); A->B", id="x")) == job_key(
            AdviseJob(design="R(A,B); A->B", id="y")
        )


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            job_from_dict({"kind": "frobnicate"})

    def test_unknown_field(self):
        with pytest.raises(JobSpecError, match="bad advise job"):
            job_from_dict({"kind": "advise", "design": "R(A,B)", "nope": 1})

    def test_bad_method(self):
        with pytest.raises(JobSpecError, match="method"):
            AdviseJob(design="R(A,B); A->B", method="guess")

    def test_bad_samples(self):
        with pytest.raises(JobSpecError, match="samples"):
            MeasureJob(
                design="R(A,B); A->B",
                rows=((1, 2),),
                position=(0, "B"),
                samples=0,
            )

    def test_bad_edge_shape(self):
        with pytest.raises(JobSpecError, match="edge"):
            RPQJob(edges=(("a", "b"),), query="l")


class TestJsonl:
    def test_parses_all_kinds_and_skips_comments(self):
        text = "\n".join(
            [
                "# a comment",
                '{"kind": "advise", "design": "R(A,B,C); B->C"}',
                "",
                '{"kind": "measure", "design": "R(A,B); A->B",'
                ' "rows": [[1,2]], "position": [0, "B"]}',
                '{"kind": "rpq", "edges": [["a","l","b"]], "query": "l"}',
            ]
        )
        records = parse_jsonl_lenient(text)
        assert [error for _, _, error in records] == [None, None, None]
        assert [lineno for lineno, _, _ in records] == [2, 4, 5]
        assert [job.kind for _, job, _ in records] == [
            "advise",
            "measure",
            "rpq",
        ]

    def test_round_trip_through_to_dict(self):
        job = MeasureJob(
            design="R(A,B); A->B",
            rows=((1, 2),),
            position=(0, "B"),
            method="montecarlo",
            samples=50,
            seed=3,
            id="m",
        )
        assert job_from_dict(job.to_dict()) == job

    def test_line_numbers_in_errors(self):
        (_, _, ok), (lineno, job, error) = parse_jsonl_lenient(
            '{"kind": "rpq", "edges": [], "query": "l"}\n{bad'
        )
        assert ok is None and lineno == 2 and job is None
        assert isinstance(error, JobSpecError)
        assert "line 2" in str(error)


#: Records whose field has the wrong JSON type, each with a word its
#: error must name.
WRONG_TYPES = {
    "list_edge_endpoint": (
        '{"kind": "rpq", "edges": [[["a"], "l", "b"]], "query": "l"}',
        "number nodes",
    ),
    "list_source": (
        '{"kind": "rpq", "edges": [["a", "l", "b"]], "query": "l",'
        ' "source": ["a"]}',
        "source",
    ),
    "numeric_label": (
        '{"kind": "rpq", "edges": [["a", 5, "b"]], "query": "l"}',
        "string label",
    ),
    "string_measure": (
        '{"kind": "advise", "design": "R(A,B,C); B->C", "measure": "no"}',
        "measure",
    ),
    "int_measure": (
        '{"kind": "advise", "design": "R(A,B,C); B->C", "measure": 1}',
        "measure",
    ),
}


class TestFieldTypes:
    """A JSON value of the wrong type is rejected when its job is built,
    as a line-numbered ``validation`` error, not met at run time as an
    ``internal`` one."""

    @pytest.mark.parametrize(
        "record, word", WRONG_TYPES.values(), ids=list(WRONG_TYPES)
    )
    def test_rejected_when_built(self, record, word):
        good = '{"kind": "rpq", "edges": [["a", "l", "b"]], "query": "l"}'
        (_, _, ok), (_, job, error) = parse_jsonl_lenient(
            good + "\n" + record
        )
        assert ok is None and job is None
        assert isinstance(error, JobSpecError) and error.kind == "validation"
        assert error.details["line"] == 2 and "line 2" in str(error)
        assert word in str(error)
